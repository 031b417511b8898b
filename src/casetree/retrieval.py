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

The oracle's matcher is ``TargetCase.completions``; the binding core below
merges and filters a branch's alternatives. The linear baseline scores each
case with ``similarity.scored_unify``, an exact bounded search over the same
completions at every agent count, so the two engines differ only in how they
share work.

Budgets are observed before every test: a comparison budget caps the used
count exactly, and a deadline or external cancellation stops the scan before
its next oracle call. Deadline and cancellation are also observed for every
alternative while a test's bindings are merged and filtered, so a deadline
is overrun by one oracle call, one alternative's work and one arc's score
updates at most; an arc interrupted before its score updates counts as used
but changes no case. Scores are updated as each arc is tested, so an
interrupted scan only assembles its result. The linear scan observes deadline
and cancellation at every node of a case's search as well.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .cases import GenericCase, Perception, Substitution, TargetCase, Value
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
    return _branch_order(case, {name: i for i, name in enumerate(priority)})


def _branch_order(case: GenericCase, rank: dict[str, int]) -> list[int]:
    """``priority_order`` against a rank already built from the priority."""
    try:
        ranks = [rank[p.name] for p in case.perceptions]
    except KeyError as exc:
        raise TreeError(f"predicate {exc.args[0]!r} missing from the priority order") from None
    return sorted(range(len(ranks)), key=ranks.__getitem__)


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
    rank = {name: i for i, name in enumerate(priority)}
    below: dict[Arc, list[str]] = {}  # ids of the cases whose branch takes each arc

    for case in base:
        if case.id in cases:
            raise TreeError(f"duplicate case id {case.id!r}")
        cases[case.id] = case
        slot = root
        path: list[Arc] = []
        orders[case.id] = order = tuple(_branch_order(case, rank))
        for pos, idx in enumerate(order):
            p = case.perceptions[idx]
            for node in slot.nodes:
                if node.predicate == p.name and node.values == p.values:
                    break
            else:
                node = TreeNode(p.name, p.values, depth=pos)
                slot.nodes.append(node)
            for arc in node.arcs:
                if arc.test == p.choice:
                    break
            else:
                arc = Arc(node, p.choice)
                node.arcs.append(arc)
                below[arc] = []
            below[arc].append(case.id)
            path.append(arc)
            slot = arc.child
        slot.case_ids.append(case.id)
        paths[case.id] = tuple(path)

    for arc, ids in below.items():
        arc.below = frozenset(ids)
    return CaseTree(root=root, cases=cases, priority=tuple(priority), paths=paths,
                    order=orders)


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

    ``completions(name, values, desired)`` is ``TargetCase.completions``.
    Scans take the oracle as a parameter, so a caller can stand in its own,
    for instance to time or fail its tests.
    """

    def __init__(self, target: TargetCase):
        self.target = target

    @property
    def size(self) -> int:
        return len(self.target)

    def completions(self, name: str, values: tuple[Value, ...],
                    desired: bool | str) -> list[dict[str, str]]:
        return self.target.completions(name, values, desired)


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

# (sorted binding, bitmask of the matched positions, bitmask of the binding's
# pairs). Pairs are numbered once per search, so the pair mask is a function
# of the binding. Tuples of strings and ints drop out of CPython's collector,
# so the alternatives a long scan holds do not bring on full collections
# inside it.
_Pairs = tuple[tuple[str, str], ...]
_Alt = tuple[_Pairs, int, int]


class _PairNumbering:
    """One bit per (label, id) pair, numbered as a search first meets it."""

    def __init__(self):
        self.bits: dict[tuple[str, str], int] = {}
        # per label and per id, the mask of every pair numbered with it
        self.with_label: dict[str, int] = {}
        self.with_id: dict[str, int] = {}

    def number(self, completions: list[dict[str, str]]) -> list[tuple[_Pairs, int, int]]:
        """(pairs, pair mask, clash mask) per completion that binds no id
        twice; the others extend no binding. The clash mask holds the pairs
        that share a label or an id with one of the completion's own."""
        bits, with_label, with_id = self.bits, self.with_label, self.with_id
        out = []
        for completion in completions:
            pairs = tuple(completion.items())
            if len(set(completion.values())) != len(pairs):
                continue
            mask = clash = 0
            for pair in pairs:
                bit = bits.get(pair)
                if bit is None:
                    bit = bits[pair] = 1 << len(bits)
                    label, cid = pair
                    with_label[label] = with_label.get(label, 0) | bit
                    with_id[cid] = with_id.get(cid, 0) | bit
                mask |= bit
            for label, cid in pairs:
                clash |= with_label[label] | with_id[cid]
            out.append((pairs, mask, clash & ~mask))
        return out


def _extend(alts: list[_Alt], numbered, depth_bit: int, interrupted) -> list[_Alt] | None:
    """``alts`` followed by every merge of one of them with one numbered
    completion, matched at ``depth_bit`` too; None as soon as
    ``interrupted()`` holds before an alternative.

    A binding takes a completion exactly when it holds none of the
    completion's clash pairs: it then stays injective and binds every label
    once. A completion inside the binding adds nothing and reuses it."""
    new_alts = list(alts)
    for binding, matched, held in alts:
        if interrupted():
            return None
        matched |= depth_bit
        for pairs, mask, clash in numbered:
            if mask & held == mask:
                new_alts.append((binding, matched, held))
            elif not clash & held:
                if mask & held:
                    pairs = tuple(pair for pair in pairs if pair not in binding)
                new_alts.append((tuple(sorted(binding + pairs)), matched, held | mask))
    return new_alts


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
    # transitive, so testing against the alternatives kept so far suffices.
    # A dominator binds a subset of the candidate's pairs, so only the kept
    # entries filed under a subset of its pair mask can dominate it; there
    # are 2^|binding| such subsets (at most 16 on every benchmark workload).
    kept: list[_Alt] = []
    # pair mask -> matched masks kept with it, as a tuple: a tuple of ints
    # drops out of the collector, a list would not
    index: dict[int, tuple[int, ...]] = {}
    for a in alts:
        if interrupted():
            return None
        _, matched, pairs = a
        sub = pairs
        while True:
            for m in index.get(sub, ()):
                if m & matched == matched:
                    break
            else:
                if sub:
                    sub = (sub - 1) & pairs
                    continue
                kept.append(a)
                index[pairs] = index.get(pairs, ()) + (matched,)
            break
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
    for binding, matched, _ in alts:
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

    numbering = _PairNumbering()
    root_alts: list[_Alt] = [((), 0, 0)]
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
            new_alts = _extend(alts, numbering.number(completions), 1 << node.depth,
                               interrupted)
            if new_alts is None:
                return result()
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
    either fully evaluated or left unevaluated, ranking as score 0: not
    reached, or interrupted mid-search by the deadline or cancellation.
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
    interrupted = None
    if deadline_at is not None or cancel is not None:
        def interrupted() -> bool:
            return ((deadline_at is not None and time.perf_counter() >= deadline_at)
                    or (cancel is not None and cancel.is_set()))

    for cid in order:
        case = by_id[cid]
        cost = len(case.perceptions)
        if budget.kind == "comparisons" and tests_used + cost > budget.max_comparisons:
            break
        if interrupted is not None and interrupted():
            break
        try:
            scored = scored_unify(case, oracle.target, params, interrupted)
        except Exception as exc:
            raise RetrievalError(
                f"evaluation failed on {cid}: {exc}",
                partial=_linear_result(per_case, tests_used, start),
            ) from exc
        if scored is None:  # interrupted mid-search: the case stays unevaluated
            break
        score, sub, _ = scored
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
