"""Case-tree compilation and interruptible retrieval.

The case base is compiled once into a prefix-sharing tree: each node carries
a predicate pattern ``{name, values}``, each outgoing arc a test
``[choice == v]`` and the nodes that follow it, and each case owns exactly
one branch from a top-level node, the arcs in ``CaseTree.paths``, whose
node/test labels spell out its perceptions in descending priority order;
``CaseTree.order`` holds that order as indices into the case's perceptions.
Cases with a common high-priority prefix share nodes, which is where the
memory saving and the shared query work come from.

Retrieval scans the tree breadth first under a budget. Each arc test costs
one comparison and asks the oracle for every injective way the node's free
generic agents can be bound so that the tested value holds, as rows of ids.
The tree shares oracle calls, as a Rete alpha memory does: an arc's rows are
asked once and kept along its branch for every case below. A case is scored
by the exact binding search over the rows of its tested branch positions; the
score depends on those positions alone, so it needs to be current only where
the scan can stop. When a deadline or cancel flag can stop the scan, every
case below an arc that is not contradicted is searched right after the arc,
so every case has a usable partial score at any interruption point.
Otherwise the scan knows where it stops and searches each case once, there,
over the last tested prefix of its branch. An arc is contradicted exactly
when it has no row; when pruning is on, that abandons the branch and freezes
the scores of the cases below it, and with pruning off the scan keeps walking
and converges to the offline similarity of every case. Besides its score, a
scan keeps one record per case: how many arcs of its branch were tested,
and its tested prefix that no arc contradicted.

The oracle's matcher is ``TargetCase.completions`` and the scorer is
``cases._search_bindings``, maximizing ``similarity.objective``. The linear
baseline scores each case with ``similarity.scored_unify``, the same search
over the same rows, in the order of the cases it is given, so the two engines
differ only in how they share work. Both stop on the same check and assemble
their results the same way.

Budgets are observed before every test: a comparison budget caps the used
count exactly, and a deadline or external cancellation stops the scan before
its next oracle call. Both engines also observe deadline and cancellation at
every node of every search, so a tree scan overruns a deadline by one oracle
call plus one search node at most. Under a deadline or cancel flag an arc's
scores and records are committed only once every case below it is searched,
so an arc interrupted in its searches counts as used but changes no case,
and an interrupted scan only assembles its result. A scan that nothing can
interrupt stops at its end, at its comparison budget or at an oracle failure,
and brings every score current there, before it returns or raises.
"""

from __future__ import annotations

import math
import numbers
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .cases import (GenericCase, Perception, Substitution, TargetCase, Value, _search_bindings,
                    pattern_labels)
from .similarity import DEFAULT_PARAMS, SimilarityParams, objective, scored_unify


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
class TreeNode:
    predicate: str
    values: tuple[Value, ...]
    depth: int
    arcs: list["Arc"] = field(default_factory=list)

    @property
    def generic_labels(self) -> tuple[str, ...]:
        return pattern_labels(self.values)

    def label(self) -> str:
        return f"{self.predicate}({','.join(str(v) for v in self.values)})"


@dataclass(eq=False)
class Arc:
    node: "TreeNode"
    test: bool | str
    children: list["TreeNode"] = field(default_factory=list)
    below: frozenset[str] = frozenset()


@dataclass(eq=False)
class CaseTree:
    """Immutable after build_tree; shareable across concurrent scans."""

    roots: list[TreeNode]
    cases: dict[str, GenericCase]
    paths: dict[str, tuple[Arc, ...]]
    # per case, the index into its perceptions tested at each branch position:
    # descending priority, perceptions of one predicate in declaration order
    order: dict[str, tuple[int, ...]]

    @property
    def node_count(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    @property
    def leaf_count(self) -> int:
        return len(self.cases)  # every case ends exactly one branch

    @property
    def depth(self) -> int:
        return max((len(path) for path in self.paths.values()), default=0)

    def iter_nodes(self) -> Iterable[TreeNode]:
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            yield node
            for arc in node.arcs:
                stack.extend(arc.children)

    def arc_count(self) -> int:
        return sum(len(node.arcs) for node in self.iter_nodes())

    def path_perceptions(self, case_id: str) -> tuple[Perception, ...]:
        """Read a case's perceptions back off its branch, in priority order."""
        return tuple(
            Perception(arc.node.predicate, arc.node.values, arc.test)
            for arc in self.paths[case_id]
        )


def build_tree(base: Sequence[GenericCase], priority: Sequence[str]) -> CaseTree:
    """Compile the case base into the prefix-sharing tree.

    Inserts each case's perceptions in descending priority, reusing a node
    when its {predicate, values} pattern matches and an arc when its tested
    choice value matches, creating them otherwise. A case's branch is the
    sequence of arcs it takes, ``tree.paths[case.id]``; every arc knows the
    ids of the cases whose branch takes it, ``arc.below``.
    """
    roots: list[TreeNode] = []
    cases: dict[str, GenericCase] = {}
    paths: dict[str, tuple[Arc, ...]] = {}
    orders: dict[str, tuple[int, ...]] = {}
    rank = {name: i for i, name in enumerate(priority)}
    below: dict[Arc, list[str]] = {}  # ids of the cases whose branch takes each arc

    for case in base:
        if case.id in cases:
            raise TreeError(f"duplicate case id {case.id!r}")
        cases[case.id] = case
        nodes = roots
        path: list[Arc] = []
        try:
            ranks = [rank[p.name] for p in case.perceptions]
        except KeyError as exc:
            raise TreeError(f"predicate {exc.args[0]!r} missing from the priority order") from None
        orders[case.id] = order = tuple(sorted(range(len(ranks)), key=ranks.__getitem__))
        for pos, idx in enumerate(order):
            p = case.perceptions[idx]
            for node in nodes:
                if node.predicate == p.name and node.values == p.values:
                    break
            else:
                node = TreeNode(p.name, p.values, depth=pos)
                nodes.append(node)
            for arc in node.arcs:
                if arc.test == p.choice:
                    break
            else:
                arc = Arc(node, p.choice)
                node.arcs.append(arc)
                below[arc] = []
            below[arc].append(case.id)
            path.append(arc)
            nodes = arc.children
        paths[case.id] = tuple(path)

    for arc, ids in below.items():
        arc.below = frozenset(ids)
    return CaseTree(roots=roots, cases=cases, paths=paths, order=orders)


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
        n = self.max_comparisons
        if self.kind == "comparisons" and (isinstance(n, bool) or not isinstance(n, int)
                                           or n < 0):
            raise ValueError(f"comparison budget must be an int >= 0, got {n!r}")
        s = self.seconds
        if self.kind == "deadline" and (isinstance(s, bool) or not isinstance(s, numbers.Real)
                                        or not 0.0 < s < math.inf):
            raise ValueError(f"deadline must be a finite positive number of seconds, got {s!r}")

    @classmethod
    def comparisons(cls, n: int) -> "ScanBudget":
        return cls("comparisons", max_comparisons=n)

    @classmethod
    def deadline(cls, seconds: float) -> "ScanBudget":
        return cls("deadline", seconds=seconds)


UNBOUNDED = ScanBudget()


# ---------------------------------------------------------------------------
# the oracle

class TargetOracle:
    """Prolog-style completion queries against one target case.

    ``completions(name, values, desired)`` is ``TargetCase.completions``: the
    injective ways to bind the pattern's generic labels, one row of ids per
    way in the sorted order of the labels, rows sorted; ``[()]`` or ``[]`` for
    a ground pattern. Scans take the oracle as a parameter, so a caller can
    stand in its own, for instance to time or fail its tests; a stand-in
    returns the rows in that same form.
    """

    def __init__(self, target: TargetCase):
        self.target = target

    @property
    def size(self) -> int:
        return len(self.target)

    def completions(self, name: str, values: tuple[Value, ...],
                    desired: bool | str) -> list[tuple[str, ...]]:
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


def _result(per_case: dict[str, CaseOutcome], tests_used: int, start: float
            ) -> RetrievalResult:
    """Assemble a scan's result: the highest evaluated score wins, exact ties
    going to the lowest case id."""
    pool = [(cid, oc) for cid, oc in per_case.items() if oc.evaluated]
    best_id, best = min(pool, key=lambda kv: (-kv[1].score, kv[0]), default=(None, None))
    return RetrievalResult(
        best_case=best_id,
        score=0.0 if best is None else best.score,
        substitution=Substitution() if best is None else best.substitution,
        per_case=per_case,
        tests_used=tests_used,
        elapsed_us=int((time.perf_counter() - start) * 1_000_000),
    )


def _stop_check(budget: ScanBudget, start: float, cancel):
    """The check a scan asks before each test and at every search node: true
    once the budget's deadline has passed or ``cancel`` is set. None when
    neither can stop the scan."""
    deadline_at = start + budget.seconds if budget.kind == "deadline" else None
    if deadline_at is None and cancel is None:
        return None

    def interrupted() -> bool:
        return ((deadline_at is not None and time.perf_counter() >= deadline_at)
                or (cancel is not None and cancel.is_set()))
    return interrupted


# ---------------------------------------------------------------------------
# the tree scanner

def scan_tree(tree: CaseTree, oracle: TargetOracle,
              budget: ScanBudget = UNBOUNDED,
              params: SimilarityParams = DEFAULT_PARAMS,
              prune: bool = True,
              cancel=None) -> RetrievalResult:
    """Breadth-first anytime retrieval over the case tree.

    Returns the best case under the anytime score together with every case's
    (score, scanned count, pruned flag). Pruned cases keep their frozen score
    in the final ranking.

    With a deadline or ``cancel`` flag, every case below an arc that is not
    contradicted is searched right after the arc, so the scan can stop
    anywhere. Without either, each case is searched once, over the last
    tested prefix of its branch, when the scan stops; the results are the
    same.
    """
    if oracle.size < 1:
        raise ValueError("cannot scan against an empty target")

    start = time.perf_counter()
    limit = budget.max_comparisons if budget.kind == "comparisons" else None
    interrupted = _stop_check(budget, start, cancel)
    # per case: best score with its restricted binding pairs, and (arcs of its
    # branch tested, its tested prefix that no arc contradicted)
    best = dict.fromkeys(tree.cases, (0.0, ()))
    record = dict.fromkeys(tree.cases, (0, ()))
    tests_used = 0

    def search(prefixes) -> bool:
        """Score each (case id, tested prefix); commit all of them, or none if
        interrupted."""
        scores = {}
        for cid, tested in prefixes:
            order, case = tree.order[cid], tree.cases[cid]
            found = _search_bindings(
                case.weights,
                [(order[depth], own, rows) for depth, own, rows in tested],
                objective(case, oracle.size, params),
                interrupted,
            )
            if found is None:
                return False
            scores[cid] = found[:2]
        best.update(scores)
        return True

    def result() -> RetrievalResult:
        if interrupted is None:  # a score depends on the tested prefix alone
            search((cid, tested) for cid, (_, tested) in record.items() if tested)
        per_case = {}
        for cid, (score, pairs) in best.items():
            count, tested = record[cid]
            # with pruning, only the last tested arc of a branch can contradict
            per_case[cid] = CaseOutcome(score, count, prune and len(tested) < count,
                                        True, Substitution(pairs))
        return _result(per_case, tests_used, start)

    # per branch position tested and not contradicted: (its depth, its node's
    # generic labels in sorted order, its rows), shared by every case below
    queue: deque[tuple[TreeNode, tuple]] = deque((node, ()) for node in tree.roots)
    while queue:
        node, tested = queue.popleft()
        labels = node.generic_labels
        for arc in node.arcs:
            if tests_used == limit or (interrupted is not None and interrupted()):
                return result()
            tests_used += 1
            try:
                rows = oracle.completions(node.predicate, node.values, arc.test)
            except Exception as exc:  # surface with partial results attached
                raise RetrievalError(
                    f"oracle failed at {node.label()}=[{arc.test}]: {exc}",
                    partial=result(),
                ) from exc
            child_tested = tested
            if rows:  # not contradicted: every case below now has a longer prefix
                child_tested = tested + ((node.depth, labels, rows),)
                if interrupted is not None and not search(
                        (cid, child_tested) for cid in arc.below):
                    return result()
            seen = (node.depth + 1, child_tested)
            for cid in arc.below:
                record[cid] = seen
            if rows or not prune:
                queue.extend((child, child_tested) for child in arc.children)

    return result()


# ---------------------------------------------------------------------------
# the linear baseline

def scan_linear(base: Sequence[GenericCase], oracle: TargetOracle,
                budget: ScanBudget = UNBOUNDED,
                params: SimilarityParams = DEFAULT_PARAMS,
                cancel=None) -> RetrievalResult:
    """Classic flat retrieval: full unification case by case, in the order of
    ``base``. Each case costs as many comparisons as it has perceptions and is
    either fully evaluated or left unevaluated, ranking as score 0: not
    reached, or interrupted mid-search by the deadline or cancellation.
    """
    per_case = {
        c.id: CaseOutcome(0.0, 0, False, False, Substitution()) for c in base
    }
    if len(per_case) != len(base):
        raise TreeError("duplicate case id in base")
    if oracle.size < 1 and base:
        raise ValueError("cannot scan against an empty target")

    start = time.perf_counter()
    interrupted = _stop_check(budget, start, cancel)
    tests_used = 0

    for case in base:
        cid, cost = case.id, len(case.perceptions)
        if budget.kind == "comparisons" and tests_used + cost > budget.max_comparisons:
            break
        if interrupted is not None and interrupted():
            break
        try:
            scored = scored_unify(case, oracle.target, params, interrupted)
        except Exception as exc:
            raise RetrievalError(
                f"evaluation failed on {cid}: {exc}",
                partial=_result(per_case, tests_used, start),
            ) from exc
        if scored is None:  # interrupted mid-search: the case stays unevaluated
            break
        score, sub, _ = scored
        tests_used += cost
        per_case[cid] = CaseOutcome(score, cost, False, True, sub)

    return _result(per_case, tests_used, start)
