"""Case-tree compilation and interruptible retrieval.

The case base is compiled once into a prefix-sharing tree: each node carries
a predicate pattern ``{name, values}``, each outgoing arc a test
``[choice == v]``, and each case owns exactly one root-to-leaf branch whose
node/test labels spell out its perceptions in descending priority order.
Cases with a common high-priority prefix share nodes, which is where the
memory saving and the shared query work come from.

Retrieval scans the tree breadth first under a budget. Each arc test costs
one comparison and asks the oracle for every way the node's free generic
agents can be bound so that the tested value holds; bindings accumulate
along a branch and constrain deeper tests, and branches never share
bindings. Every case therefore has a usable partial score at any
interruption point. When pruning is on, a test contradicted under every
candidate binding abandons the branch and freezes the scores of the cases
below it; with pruning off the scan keeps walking and converges to the
offline similarity of every case.

Budgets are observed before every test: a comparison budget caps the used
count exactly, and a deadline or external cancellation stops the scan before
its next oracle call. Deadline and cancellation are also observed for every
alternative while a test's bindings are merged and filtered, so a deadline
is overrun by one oracle call, one alternative's work and one arc's score
updates at most; an arc interrupted before its score updates counts as used
but changes no case. Scores are updated as each arc is tested, so an
interrupted scan only assembles its result.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .cases import (
    GenericCase,
    Perception,
    Substitution,
    TargetCase,
    Value,
)
from .similarity import DEFAULT_PARAMS, SimilarityParams, partial_score, scored_unify


class TreeError(ValueError):
    """Raised when a case base cannot be compiled."""


class RetrievalError(RuntimeError):
    """Oracle failure during a scan; ``partial`` holds the results so far."""

    def __init__(self, message: str, partial: "RetrievalResult | None" = None):
        super().__init__(message)
        self.partial = partial


# ---------------------------------------------------------------------------
# tree structure

@dataclass(eq=False)
class Slot:
    """Target of an arc: continuation nodes, plus ids of cases ending here."""

    nodes: list["TreeNode"] = field(default_factory=list)
    case_ids: list[str] = field(default_factory=list)


@dataclass(eq=False)
class TreeNode:
    predicate: str
    values: tuple[Value, ...]
    depth: int
    arcs: list["Arc"] = field(default_factory=list)

    @property
    def generic_labels(self) -> frozenset[str]:
        return frozenset(v.name for v in self.values if v.kind == "generic")

    def label(self) -> str:
        return f"{self.predicate}({','.join(str(v) for v in self.values)})"


@dataclass(eq=False)
class Arc:
    node: "TreeNode"
    test: bool | str
    child: Slot = field(default_factory=Slot)
    below: frozenset[str] = frozenset()


@dataclass(eq=False)
class CaseTree:
    """Immutable after build_tree; shareable across concurrent scans."""

    root: Slot
    cases: dict[str, GenericCase]
    priority: tuple[str, ...]
    paths: dict[str, tuple[Arc, ...]]
    # per case, the index into its perceptions tested at each branch position
    order: dict[str, tuple[int, ...]]

    @property
    def node_count(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    @property
    def leaf_count(self) -> int:
        return sum(len(slot.case_ids) for slot in self.iter_slots())

    @property
    def depth(self) -> int:
        return max((len(path) for path in self.paths.values()), default=0)

    def iter_nodes(self) -> Iterable[TreeNode]:
        stack = list(self.root.nodes)
        while stack:
            node = stack.pop()
            yield node
            for arc in node.arcs:
                stack.extend(arc.child.nodes)

    def iter_slots(self) -> Iterable[Slot]:
        yield self.root
        for node in self.iter_nodes():
            for arc in node.arcs:
                yield arc.child

    def arc_count(self) -> int:
        return sum(len(node.arcs) for node in self.iter_nodes())

    def path_perceptions(self, case_id: str) -> tuple[Perception, ...]:
        """Read a case's perceptions back off its branch, in priority order."""
        return tuple(
            Perception(arc.node.predicate, arc.node.values, arc.test)
            for arc in self.paths[case_id]
        )


def priority_order(case: GenericCase, priority: Sequence[str]) -> list[int]:
    """Indices of the case's perceptions sorted by descending priority.

    Perceptions of the same predicate keep their declaration order.
    """
    rank = {name: i for i, name in enumerate(priority)}
    for p in case.perceptions:
        if p.name not in rank:
            raise TreeError(f"predicate {p.name!r} missing from the priority order")
    return sorted(range(len(case.perceptions)), key=lambda i: rank[case.perceptions[i].name])


def build_tree(base: Sequence[GenericCase], priority: Sequence[str]) -> CaseTree:
    """Compile the case base into the prefix-sharing tree.

    Inserts each case's perceptions in descending priority, reusing a node
    when its {predicate, values} pattern matches and an arc when its tested
    choice value matches, creating them otherwise; the branch ends in a leaf
    named by the case id.
    """
    root = Slot()
    cases: dict[str, GenericCase] = {}
    paths: dict[str, tuple[Arc, ...]] = {}
    orders: dict[str, tuple[int, ...]] = {}

    for case in base:
        if case.id in cases:
            raise TreeError(f"duplicate case id {case.id!r}")
        cases[case.id] = case
        slot = root
        path: list[Arc] = []
        orders[case.id] = order = tuple(priority_order(case, priority))
        for pos, idx in enumerate(order):
            p = case.perceptions[idx]
            node = next(
                (n for n in slot.nodes if n.predicate == p.name and n.values == p.values),
                None,
            )
            if node is None:
                node = TreeNode(p.name, p.values, depth=pos)
                slot.nodes.append(node)
            arc = next((a for a in node.arcs if a.test == p.choice), None)
            if arc is None:
                arc = Arc(node, p.choice)
                node.arcs.append(arc)
            path.append(arc)
            slot = arc.child
        slot.case_ids.append(case.id)
        paths[case.id] = tuple(path)

    tree = CaseTree(root=root, cases=cases, priority=tuple(priority), paths=paths,
                    order=orders)
    below: dict[int, set[str]] = {}
    for case_id, path in paths.items():
        for arc in path:
            below.setdefault(id(arc), set()).add(case_id)
    for node in tree.iter_nodes():
        for arc in node.arcs:
            arc.below = frozenset(below.get(id(arc), ()))
    return tree


def linear_perception_count(base: Sequence[GenericCase]) -> int:
    """Perceptions stored by the flat list of the same cases."""
    return sum(len(c.perceptions) for c in base)


# ---------------------------------------------------------------------------
# budgets

@dataclass(frozen=True)
class ScanBudget:
    """Interruption budget: a comparison count, a deadline, or unbounded."""

    kind: str = "unbounded"
    max_comparisons: int = 0
    seconds: float = 0.0

    def __post_init__(self):
        if self.kind not in ("unbounded", "comparisons", "deadline"):
            raise ValueError(f"unknown budget kind {self.kind!r}")
        if self.kind == "comparisons" and self.max_comparisons < 0:
            raise ValueError("comparison budget must be >= 0")
        if self.kind == "deadline" and self.seconds <= 0:
            raise ValueError("deadline must be positive")

    @classmethod
    def comparisons(cls, n: int) -> "ScanBudget":
        return cls("comparisons", max_comparisons=n)

    @classmethod
    def deadline(cls, seconds: float) -> "ScanBudget":
        return cls("deadline", seconds=seconds)

    @classmethod
    def unbounded(cls) -> "ScanBudget":
        return cls()


UNBOUNDED = ScanBudget()


# ---------------------------------------------------------------------------
# the oracle

class TargetOracle:
    """Prolog-style completion queries against one target case.

    ``completions(name, values, desired)`` returns one binding dict per way
    the pattern's generic labels can be filled so that the instantiated
    perception occurs in the target with the desired choice value. A fully
    ground pattern yields ``[{}]`` on success and ``[]`` on failure.
    """

    def __init__(self, target: TargetCase):
        self.target = target
        self._by_name: dict[str, list[Perception]] = {}
        for p in target.perceptions:
            self._by_name.setdefault(p.name, []).append(p)

    @property
    def size(self) -> int:
        return len(self.target)

    def completions(self, name: str, values: tuple[Value, ...],
                    desired: bool | str) -> list[dict[str, str]]:
        out: set[tuple[tuple[str, str], ...]] = set()
        for entry in self._by_name.get(name, ()):
            if entry.choice != desired or len(entry.values) != len(values):
                continue
            binding: dict[str, str] = {}
            ok = True
            for pv, tv in zip(values, entry.values):
                if pv.kind == "generic":
                    if tv.kind != "concrete" or binding.get(pv.name, tv.name) != tv.name:
                        ok = False
                        break
                    binding[pv.name] = tv.name
                elif pv != tv:
                    ok = False
                    break
            if ok:
                out.add(tuple(sorted(binding.items())))
        return [dict(pairs) for pairs in sorted(out)]


# ---------------------------------------------------------------------------
# results

@dataclass(frozen=True)
class CaseOutcome:
    score: float
    scanned: int
    pruned: bool
    evaluated: bool
    substitution: Substitution


@dataclass(frozen=True, eq=True)
class RetrievalResult:
    best_case: str | None
    score: float
    substitution: Substitution
    per_case: dict[str, CaseOutcome]
    tests_used: int
    elapsed_us: int = field(compare=False, default=0)

    def scores(self) -> dict[str, float]:
        return {cid: oc.score for cid, oc in self.per_case.items()}


def _argmax(per_case: dict[str, CaseOutcome], require_evaluated: bool):
    """Highest score wins; exact ties go to the lowest case id."""
    pool = [
        (cid, oc) for cid, oc in per_case.items()
        if oc.evaluated or not require_evaluated
    ]
    if not pool:
        return None, 0.0, Substitution()
    best_id = min(pool, key=lambda kv: (-kv[1].score, kv[0]))[0]
    best = per_case[best_id]
    return best_id, best.score, best.substitution


# ---------------------------------------------------------------------------
# the tree scanner

# (sorted binding, bitmask of the matched branch positions). Tuples of strings
# and ints drop out of CPython's collector, so the alternatives a long scan
# holds do not bring on full collections inside it.
_Alt = tuple[tuple[tuple[str, str], ...], int]


def _merge(binding: tuple[tuple[str, str], ...], completion: tuple[tuple[str, str], ...]):
    """Extend a branch binding with one completion's pairs; None when
    inconsistent or when injectivity would break.

    The result reuses the pair tuples of both sides, and a completion that
    binds nothing new returns ``binding`` itself."""
    current = dict(binding)
    fresh = []
    for pair in completion:
        label, cid = pair
        have = current.get(label)
        if have is None:
            current[label] = cid
            fresh.append(pair)
        elif have != cid:
            return None
    if not fresh:
        return binding
    ids = list(current.values())
    if len(set(ids)) != len(ids):
        return None
    return tuple(sorted([*binding, *fresh]))


def _dominance_filter(alts: list[_Alt], interrupted) -> list[_Alt] | None:
    """Drop alternatives that a less-constrained, better-matched one subsumes.

    ``b`` dominates ``a`` when ``b != a`` matches a superset of ``a``'s
    positions and binds a subset of its pairs. Kept alternatives come in
    presorted order: most matched positions first, then fewest pairs, then
    by (binding, matched bitmask). Returns None as soon as ``interrupted()``
    holds before a candidate."""
    # stable passes with int keys, so that sorting allocates no key tuples
    alts = sorted(set(alts))
    alts.sort(key=lambda a: len(a[0]))
    alts.sort(key=lambda a: -a[1].bit_count())
    # every dominator sorts before what it dominates, and dominance is
    # transitive, so testing against the alternatives kept so far suffices
    bits: dict[tuple[str, str], int] = {}  # one bit per distinct binding pair
    kept: list[_Alt] = []
    kept_matched: list[int] = []
    kept_pairs: list[int] = []
    for a in alts:
        if interrupted():
            return None
        matched, pairs = a[1], 0
        for pair in a[0]:
            pairs |= bits.setdefault(pair, 1 << len(bits))
        for m, p in zip(kept_matched, kept_pairs):
            if m & matched == matched and p & pairs == p:
                break
        else:
            kept.append(a)
            kept_matched.append(matched)
            kept_pairs.append(pairs)
    return kept


def _update_scores(tree: CaseTree, arc: Arc, alts: list[_Alt],
                   best: dict[str, tuple[float, tuple[tuple[str, str], ...]]],
                   target_size: int, alpha: float) -> None:
    """Raise every case below ``arc`` to its best score over ``alts``.

    Alternatives with the same matched set score alike, so each case sums its
    weights once per matched set, in ascending perception order. A binding is
    restricted to the labels its matched perceptions use only when its score
    reaches the case's best; exact ties keep the least restricted binding.
    """
    bindings: dict[int, list[tuple[tuple[str, str], ...]]] = {}
    for binding, matched in alts:
        bindings.setdefault(matched, []).append(binding)
    positions = {matched: [p for p in range(matched.bit_length()) if matched >> p & 1]
                 for matched in bindings}
    # every case below the arc shares the branch down to it
    path = tree.paths[next(iter(arc.below))]
    least: dict[int, tuple[tuple[str, str], ...]] = {}

    def least_restricted(matched: int) -> tuple[tuple[str, str], ...]:
        if matched not in least:
            used = set().union(*(path[p].node.generic_labels for p in positions[matched]))
            least[matched] = min(tuple(pair for pair in binding if pair[0] in used)
                                 for binding in bindings[matched])
        return least[matched]

    for cid in arc.below:
        case = tree.cases[cid]
        order, weights, total = tree.order[cid], case.weights, case.total_weight
        score, pairs = best[cid]
        for matched, matched_at in positions.items():
            w = 0.0
            for i in sorted(order[p] for p in matched_at):
                w += weights[i]
            value = partial_score(w, len(matched_at), total, target_size, alpha)
            if value > score:
                score, pairs = value, least_restricted(matched)
            elif value == score:
                pairs = min(pairs, least_restricted(matched))
        best[cid] = (score, pairs)


def scan_tree(tree: CaseTree, oracle: TargetOracle,
              budget: ScanBudget = UNBOUNDED,
              params: SimilarityParams = DEFAULT_PARAMS,
              prune: bool = True,
              cancel=None) -> RetrievalResult:
    """Breadth-first anytime retrieval over the case tree.

    Returns the best case under the anytime score together with every case's
    (score, scanned count, pruned flag). Pruned cases keep their frozen score
    in the final ranking.
    """
    if oracle.size < 1:
        raise ValueError("cannot scan against an empty target")

    start = time.perf_counter()
    limit = budget.max_comparisons if budget.kind == "comparisons" else None
    deadline_at = start + budget.seconds if budget.kind == "deadline" else None
    # per case: best score with its restricted binding pairs, tests scanned, pruned
    best = dict.fromkeys(tree.cases, (0.0, ()))
    scanned = dict.fromkeys(tree.cases, 0)
    pruned: set[str] = set()
    tests_used = 0

    def interrupted() -> bool:
        return ((deadline_at is not None and time.perf_counter() >= deadline_at)
                or (cancel is not None and cancel.is_set()))

    def result() -> RetrievalResult:
        per_case = {
            cid: CaseOutcome(score, scanned[cid], cid in pruned, True, Substitution(pairs))
            for cid, (score, pairs) in best.items()
        }
        best_id, best_score, best_sub = _argmax(per_case, require_evaluated=False)
        return RetrievalResult(
            best_case=best_id,
            score=best_score,
            substitution=best_sub,
            per_case=per_case,
            tests_used=tests_used,
            elapsed_us=int((time.perf_counter() - start) * 1_000_000),
        )

    root_alts: list[_Alt] = [((), 0)]
    queue: deque[tuple[TreeNode, list[_Alt]]] = deque(
        (node, root_alts) for node in tree.root.nodes
    )
    while queue:
        node, alts = queue.popleft()
        for arc in node.arcs:
            if tests_used == limit or interrupted():
                return result()
            tests_used += 1
            try:
                completions = oracle.completions(node.predicate, node.values, arc.test)
            except Exception as exc:  # surface with partial results attached
                raise RetrievalError(
                    f"oracle failed at {node.label()}=[{arc.test}]: {exc}",
                    partial=result(),
                ) from exc
            completions = [tuple(completion.items()) for completion in completions]

            new_alts: list[_Alt] = list(alts)
            depth_bit = 1 << node.depth
            for binding, matched in alts:
                if interrupted():
                    return result()
                for completion in completions:
                    merged = _merge(binding, completion)
                    if merged is not None:
                        new_alts.append((merged, matched | depth_bit))

            contradicted = len(new_alts) == len(alts)  # no alternative satisfies the test
            if contradicted:
                child_alts = alts
            else:
                child_alts = _dominance_filter(new_alts, interrupted)
                if child_alts is None:
                    return result()
                _update_scores(tree, arc, child_alts, best, oracle.size, params.alpha)
            for cid in arc.below:
                scanned[cid] += 1
            if contradicted and prune:
                pruned.update(arc.below)
            else:
                queue.extend((child, child_alts) for child in arc.child.nodes)

    return result()


# ---------------------------------------------------------------------------
# the linear baseline

def scan_linear(base: Sequence[GenericCase], oracle: TargetOracle,
                budget: ScanBudget = UNBOUNDED,
                params: SimilarityParams = DEFAULT_PARAMS,
                order: Sequence[str] | None = None,
                cancel=None) -> RetrievalResult:
    """Classic flat retrieval: full unification case by case, in the given
    order. Each case costs as many comparisons as it has perceptions and is
    either fully evaluated or not reached; unreached cases rank as score 0
    and are flagged unevaluated.
    """
    by_id = {c.id: c for c in base}
    if len(by_id) != len(base):
        raise TreeError("duplicate case id in base")
    if order is None:
        order = [c.id for c in base]
    if sorted(order) != sorted(by_id):
        raise ValueError("order must be a permutation of the base's case ids")
    if oracle.size < 1 and base:
        raise ValueError("cannot scan against an empty target")

    start = time.perf_counter()
    deadline_at = start + budget.seconds if budget.kind == "deadline" else None
    per_case = {
        cid: CaseOutcome(0.0, 0, False, False, Substitution()) for cid in by_id
    }
    tests_used = 0
    for cid in order:
        case = by_id[cid]
        cost = len(case.perceptions)
        if budget.kind == "comparisons" and tests_used + cost > budget.max_comparisons:
            break
        if deadline_at is not None and time.perf_counter() >= deadline_at:
            break
        if cancel is not None and cancel.is_set():
            break
        try:
            score, sub, _ = scored_unify(case, oracle.target, params)
        except Exception as exc:
            raise RetrievalError(
                f"evaluation failed on {cid}: {exc}",
                partial=_linear_result(per_case, tests_used, start),
            ) from exc
        tests_used += cost
        per_case[cid] = CaseOutcome(score, cost, False, True, sub)

    return _linear_result(per_case, tests_used, start)


def _linear_result(per_case, tests_used, start) -> RetrievalResult:
    best_id, best_score, best_sub = _argmax(per_case, require_evaluated=True)
    return RetrievalResult(
        best_case=best_id,
        score=best_score,
        substitution=best_sub,
        per_case=dict(per_case),
        tests_used=tests_used,
        elapsed_us=int((time.perf_counter() - start) * 1_000_000),
    )
