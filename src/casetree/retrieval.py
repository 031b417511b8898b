"""Case-tree compilation and interruptible retrieval.

The case base is compiled once into a prefix-sharing tree: each node carries
a predicate pattern ``{name, values}``, each outgoing arc a test
``[choice == v]`` and the nodes that follow it, and each case owns exactly
one branch from a top-level node, the arcs in ``CaseTree.paths``, whose
node/test labels spell out its perceptions in descending priority order;
``CaseTree.order`` holds that order as indices into the case's perceptions.
Cases with a common high-priority prefix share nodes, which is where the
memory saving and the shared query work come from. Each arc lists, in base
order, the cases below it and those ending at it, and their most perceptions.
Each arc states its node's pattern, so a tree holds no reference cycle and a
dropped tree is freed at once, with nothing left for the cycle collector.

Retrieval walks the tree under a budget. Each arc test costs one comparison
and asks the oracle for every injective way the node's free generic agents
can be bound so that the tested value holds, as rows of ids. The tree shares
oracle calls, as a Rete alpha memory does: an arc's rows are asked once and
kept along its branch for every case below. An arc is contradicted exactly
when it has no row; when pruning is on, that ends the walk of every case
below it, and with pruning off the walk goes on and converges to the offline
similarity of every case. A case's walk also ends at its last arc, and every
walk ends once the scan stops testing. Each case is searched at most once,
after its walk ends, by the exact binding search over the rows of its tested
branch positions, which makes the case's outcome once it has a score to keep.
A scan keeps one record per case, final once its walk ends: how many arcs of
its branch were tested, and its tested prefix that no arc contradicted.

What can stop a scan decides its order. A scan that nothing can interrupt
ranks the cases: it walks breadth first and, once the walk stops, searches
every case. When a deadline or cancel flag can stop it, it answers top-1:
its frontier is a heap of arcs to test and cases to search, highest bound
first, and it stops as soon as no entry left can beat the leader, the best
case searched so far (the threshold stop of Fagin, Lotem & Naor, PODS 2001,
over a best-first walk, as in Hansen & Zhou, JAIR 2007). An arc is bounded
by the ``similarity.coverage_table`` entry for ``arc.most``: a case that
matches all its perceptions scores exactly that entry, whatever its weights,
so no case is scored before its walk ends. A case to search is bounded by the
objective of its prefix's positions that have rows, the search's own first
bound, its weights summed with ``cases.mask_weight`` as the search sums
them. So no bound falls below the score it bounds and exact ties keep going
to the lowest case id. One case goes ahead of its bound: the first whose
walk ends with a positive bound, in base order among those whose walks end
at one arc, is searched at once, so that a deadline too short for the walk
still gets an answer. The scan thus takes the same steps in every run, and a
scan that nothing stops gives the same result. Every later search is cut at
the leader (branch and bound with an outside incumbent): a node is cut when
it cannot beat the leader's score, or for a case of lower id than the
leader's, when it cannot reach it. A case the scan never searched, or whose
search showed it cannot win, is reported unevaluated, with score 0; such
cases, of either engine, share one ``CaseOutcome`` per (scanned, pruned) pair.

The oracle's matcher is ``TargetCase.completions`` and the scorer is
``cases._search_bindings``, maximizing ``similarity.objective``. Each search
reads its case's generic labels and weight sums from the case's facts
(``cases.GenericCase``), and every objective and bound of a scan reads its
coverage factor from one ``similarity.coverage_table``. The linear
baseline scores each case with ``similarity.scored_unify``, the same search
over the same rows, in the order of the cases it is given, so the two engines
differ only in how they share work. Both stop on the same check and assemble
their results the same way.

Budgets are observed before every test. A comparison budget caps the used
count exactly; once it is spent, or once the oracle has failed, every walk is
over and the scan goes on to its searches. A deadline or external
cancellation stops the scan before its next oracle call and at every node of
every search, so a scan overruns a deadline by one oracle call plus one
search node at most, and a case interrupted in its search stays unevaluated.
An oracle failure raises ``RetrievalError`` after the searches, carrying the
result.
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from collections import deque
from dataclasses import dataclass, field
from functools import cache, partial
from heapq import heappop, heappush
from typing import Iterable, Sequence

from .cases import (NO_SUBSTITUTION, GenericCase, Perception, Substitution, TargetCase, Value,
                    _case_facts, _found_substitution, _search_bindings)
from .similarity import (DEFAULT_PARAMS, SimilarityParams, coverage_table, objective,
                         scored_unify)


class TreeError(ValueError):
    """Raised when a case base cannot be compiled."""


class RetrievalError(RuntimeError):
    """Oracle failure during a scan; ``partial`` holds the results so far."""

    def __init__(self, message: str, partial: "RetrievalResult | None" = None):
        super().__init__(message)
        self.partial = partial


# ---------------------------------------------------------------------------
# tree structure

def _pattern_label(predicate: str, values: tuple[Value, ...]) -> str:
    return f"{predicate}({','.join(str(v) for v in values)})"


@dataclass(eq=False, slots=True)
class TreeNode:
    predicate: str
    values: tuple[Value, ...]
    arcs: list["Arc"] = field(default_factory=list)

    def label(self) -> str:
        return _pattern_label(self.predicate, self.values)


@dataclass(eq=False, slots=True)
class Arc:
    predicate: str  # its node's pattern and branch position: nothing points back up
    values: tuple[Value, ...]
    depth: int
    test: bool | str
    children: list["TreeNode"] = field(default_factory=list)
    below: list[str] = field(default_factory=list)  # cases whose branch takes it, base order
    ends: list[str] = field(default_factory=list)  # those whose branch ends here
    most: int = 0  # the most perceptions a case below has


@dataclass(eq=False)
class CaseTree:
    """Immutable after build_tree; shareable across concurrent scans. Each arc
    states its node's pattern: no reference cycle, so a dropped tree is freed at once."""

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
            Perception(arc.predicate, arc.values, arc.test)
            for arc in self.paths[case_id]
        )


def build_tree(base: Sequence[GenericCase], priority: Sequence[str]) -> CaseTree:
    """Compile the case base into the prefix-sharing tree.

    Inserts each case's perceptions in descending priority, reusing a node
    when its {predicate, values} pattern matches and an arc when its tested
    choice value matches, creating them otherwise. A case's branch is the
    sequence of arcs it takes, ``tree.paths[case.id]``. Each arc records the
    ids of the cases whose branch takes it (``below``) and ends at it
    (``ends``), both in base order, and the most perceptions of any (``most``).
    """
    roots: list[TreeNode] = []
    cases: dict[str, GenericCase] = {}
    paths: dict[str, tuple[Arc, ...]] = {}
    orders: dict[str, tuple[int, ...]] = {}
    rank = {name: i for i, name in enumerate(priority)}
    if len(rank) < len(priority):
        twice = next(name for i, name in enumerate(priority) if name in priority[:i])
        raise TreeError(f"priority order names predicate {twice!r} twice")

    for case in base:
        cid, perceptions = case.id, case.perceptions
        if cid in cases:
            raise TreeError(f"duplicate case id {cid!r}")
        cases[cid] = case
        nodes = roots
        path: list[Arc] = []
        try:
            ranks = [rank[p.name] for p in perceptions]
        except KeyError as exc:
            raise TreeError(f"predicate {exc.args[0]!r} missing from the priority order") from None
        orders[cid] = order = tuple(sorted(range(len(ranks)), key=ranks.__getitem__))
        most = len(order)
        for depth, idx in enumerate(order):
            p = perceptions[idx]
            name, values, choice = p.name, p.values, p.choice
            for node in nodes:
                if node.predicate == name and node.values == values:
                    break
            else:
                node = TreeNode(name, values)
                nodes.append(node)
            for arc in node.arcs:
                if arc.test == choice:
                    break
            else:
                arc = Arc(node.predicate, node.values, depth, choice)
                node.arcs.append(arc)
            arc.below.append(cid)
            if arc.most < most:
                arc.most = most
            path.append(arc)
            nodes = arc.children
        path[-1].ends.append(cid)  # every case has a perception
        paths[cid] = tuple(path)
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
    returns the rows in that same form. Only ``scan_tree`` calls it:
    ``scan_linear`` scores each case against ``oracle.target`` directly.
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

@dataclass(frozen=True, slots=True)
class CaseOutcome:
    score: float
    scanned: int
    pruned: bool
    evaluated: bool
    substitution: Substitution

    # built through the slots' setters, as cases.Perception is: a scan makes
    # one per case it scores, and repr, ==, hash (the field tuple's),
    # FrozenInstanceError and pickling stay the dataclass's own
    def __init__(self, score: float, scanned: int, pruned: bool, evaluated: bool,
                 substitution: Substitution):
        _set_score(self, score)
        _set_scanned(self, scanned)
        _set_pruned(self, pruned)
        _set_evaluated(self, evaluated)
        _set_substitution(self, substitution)


_set_score, _set_scanned, _set_pruned, _set_evaluated, _set_substitution = (
    CaseOutcome.score.__set__, CaseOutcome.scanned.__set__, CaseOutcome.pruned.__set__,
    CaseOutcome.evaluated.__set__, CaseOutcome.substitution.__set__)


@cache
def _unevaluated(scanned: int, pruned: bool) -> CaseOutcome:
    """The outcome of a case left unevaluated, shared by every such case."""
    return CaseOutcome(0.0, scanned, pruned, False, NO_SUBSTITUTION)


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
        substitution=NO_SUBSTITUTION if best is None else best.substitution,
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
    """Anytime retrieval over the case tree.

    With no deadline or ``cancel`` flag, ranks every case: returns the best
    case together with every case's (score, scanned count, pruned flag), each
    score exact over the tested prefix of its branch. Pruned cases keep their
    frozen score in the ranking.

    With a deadline or ``cancel`` flag, answers top-1: the best case over
    every case's tested prefix, or the best one searched if the scan is
    stopped first. The first case whose walk ends with a positive bound is
    searched at once, so only a stop before that search ends answers no
    case. Each later search is cut at the leader. Cases it never searched,
    and cases whose search showed they cannot win, read ``evaluated=False``.
    """
    if oracle.size < 1:
        raise ValueError("cannot scan against an empty target")

    start = time.perf_counter()
    limit = budget.max_comparisons if budget.kind == "comparisons" else None
    interrupted = _stop_check(budget, start, cancel)
    cases, order = tree.cases, tree.order
    # the coverage factor per matched count, up to the most perceptions of any
    # case; entry n is also the score of a case that matches all n of its
    # perceptions
    coverage = coverage_table(oracle.size, max(
        (arc.most for node in tree.roots for arc in node.arcs), default=0), params)
    # per case: (arcs of its branch tested, its tested prefix that no arc
    # contradicted), final once its walk ends; and its outcome once searched
    record = dict.fromkeys(cases, (0, ()))
    per_case: dict[str, CaseOutcome | None] = dict.fromkeys(cases)
    tests_used = 0
    failure = None  # (message, exception) once the oracle fails

    def search(cid: str, floor: float = -math.inf) -> bool:
        """Search ``cid`` and keep its outcome if its score beats ``floor``;
        false once the scan is interrupted."""
        count, tested = record[cid]
        score, pairs = 0.0, ()  # the value of an empty prefix
        if tested:
            case, where = cases[cid], order[cid]
            labels, sums = _case_facts(case)
            got = _search_bindings(
                sums, [(where[d], labels[where[d]], rows) for d, rows in tested],
                objective(case, coverage), interrupted, floor)
            if got is None:
                return False
            score, pairs = got[:2]
        if score > floor:
            # with pruning, only the last tested arc of a branch can contradict
            per_case[cid] = CaseOutcome(score, count, prune and len(tested) < count, True,
                                        _found_substitution(pairs))
        return True

    # frontier entries: (-bound, 0, sequence number, arc, tested prefix) for an
    # arc to test and (-bound, 1, case id, None, None) for a case to search; a
    # tested prefix holds per branch position tested and not contradicted (its
    # depth, its rows), shared by every case below; a search reads each
    # position's generic labels from its case's facts
    if interrupted is None:
        # a ranking: breadth first, and every case searched once the walk
        # stops; no bound is needed, since nothing is cut. Searching each case
        # as its walk ends does the same searches, yet measured 1.08-1.14x the
        # time of this order on the fixture50, crowded and acquire rankings
        frontier = deque()
        pop = frontier.popleft

        def walk(nodes, tested) -> None:
            frontier.extend((-math.inf, 0, 0, arc, tested)
                            for node in nodes for arc in node.arcs)

        def end(ids) -> None:
            """Nothing to queue: every case is searched once the walk stops."""
    else:
        # top-1: highest bound first, an arc before a case on an equal bound
        frontier = []
        pop, sequence = partial(heappop, frontier), itertools.count()

        def walk(nodes, tested) -> None:
            for node in nodes:
                for arc in node.arcs:
                    # every case still walking matched every arc tested so
                    # far, and none scores above a full match, whose score
                    # depends on its perception count alone; with pruning off
                    # this bound is looser, still safe
                    heappush(frontier, (-coverage[arc.most], 0, next(sequence), arc, tested))

        leaderless = True  # no case has been queued to lead yet

        def end(ids) -> None:
            """Queue the search of each case of ``ids``, whose walks have
            ended. The first case queued with a positive bound goes to the
            top, so that a deadline too short for the walk still gets an
            answer."""
            nonlocal leaderless
            for cid in ids:
                case, where, mask = cases[cid], order[cid], 0
                for d, _ in record[cid][1]:
                    mask |= 1 << where[d]
                # ``objective(case, coverage)`` at the mask, bit for bit
                weight, n = _case_facts(case)[1][mask]
                bound = weight / case.total_weight * coverage[n]
                if leaderless and bound > 0:
                    leaderless, bound = False, math.inf
                heappush(frontier, (-bound, 1, cid, None, None))

    walk(tree.roots, ())
    leader = (math.inf, "")  # (-score, case id) of the best case searched
    while frontier:
        negative, _, key, arc, tested = pop()
        if negative > leader[0] or (arc is None and (negative, key) > leader):
            break  # no entry left can beat the leader
        if arc is None:
            # to win, a case must beat the leader's score, or reach it with a
            # lower id; one that cannot is cut inside its search
            score = -leader[0]
            if not search(key, score if key > leader[1] else math.nextafter(score, -math.inf)):
                break
            if per_case[key] is not None:
                leader = -per_case[key].score, key
            continue
        if interrupted is not None and interrupted():
            break
        rows = None
        if tests_used != limit and failure is None:
            tests_used += 1
            try:
                rows = oracle.completions(arc.predicate, arc.values, arc.test)
            except Exception as exc:  # search what was tested, then raise
                label = _pattern_label(arc.predicate, arc.values)
                failure = f"oracle failed at {label}=[{arc.test}]: {exc}", exc
        if rows is None:  # the budget is spent or the oracle failed: walks are over
            end(arc.below)
            continue
        if rows:  # not contradicted: every case below now has a longer prefix
            tested = tested + ((arc.depth, rows),)
        seen = (arc.depth + 1, tested)
        for cid in arc.below:
            record[cid] = seen
        if prune and not rows:  # a contradiction ends every walk below
            end(arc.below)
        else:
            end(arc.ends)
            walk(arc.children, tested)

    if interrupted is None:
        for cid in cases:
            search(cid)
    for cid, (count, tested) in record.items():
        if per_case[cid] is None:
            per_case[cid] = _unevaluated(count, prune and len(tested) < count)
    result = _result(per_case, tests_used, start)
    if failure is not None:  # surface with the result attached
        raise RetrievalError(failure[0], partial=result) from failure[1]
    return result


# ---------------------------------------------------------------------------
# the linear baseline

def scan_linear(base: Sequence[GenericCase], oracle: TargetOracle,
                budget: ScanBudget = UNBOUNDED,
                params: SimilarityParams = DEFAULT_PARAMS,
                cancel=None) -> RetrievalResult:
    """Classic flat retrieval: full unification case by case, in the order of
    ``base``. Each case costs as many comparisons as it has perceptions and is
    either fully evaluated or left unevaluated, ranking as score 0: not
    reached, or interrupted mid-search by the deadline or cancellation. It
    scores against ``oracle.target`` and never calls ``oracle.completions``.
    """
    per_case = dict.fromkeys((c.id for c in base), _unevaluated(0, False))
    if len(per_case) != len(base):
        raise TreeError("duplicate case id in base")
    if oracle.size < 1:
        raise ValueError("cannot scan against an empty target")

    start = time.perf_counter()
    interrupted = _stop_check(budget, start, cancel)
    tests_used = 0
    coverage = coverage_table(oracle.size, max((len(c.perceptions) for c in base), default=0),
                              params)

    for case in base:
        cid, cost = case.id, len(case.perceptions)
        if budget.kind == "comparisons" and tests_used + cost > budget.max_comparisons:
            break
        if interrupted is not None and interrupted():
            break
        try:
            scored = scored_unify(case, oracle.target, coverage, interrupted)
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
