"""Output checks written apart from the program.

Nothing here calls the package's unifier, scorer or scanners. Scores are
recomputed from the scoring formula the paper states,

    score = (matched_weight / total_weight) * (1 - alpha * (T - m) / T),

with T the target's perception count and m the number of source
perceptions that the substitution instantiates into target perceptions.
"""

from __future__ import annotations

import itertools

import casetree as ct

#: Two scores this close are the same score.
TOLERANCE = 1e-9
#: The package's default similarity parameter; every scan here uses it.
ALPHA = 0.5


class CheckFailure(AssertionError):
    """An output the method cannot produce."""


class Target:
    """A target perception set prepared for rescoring.

    Rescorings are pure functions of (case, target, substitution), so each
    target memoizes them by (case, substitution); a workload that meets the
    same target again gets the same ``Target`` from ``Targets``.
    """

    def __init__(self, keys: frozenset):
        self.size = len(keys)
        self.keys = keys
        self.agents = sorted({value for _, values, _ in keys
                              for kind, value in values if kind == "concrete"})
        self.memo: dict[tuple[ct.GenericCase, tuple], float] = {}


class Targets:
    """Prepared targets by perception set, so that memoized rescorings are
    reused whenever a scan meets the same target again."""

    def __init__(self):
        self._by_keys: dict[frozenset, Target] = {}

    def get(self, target: ct.TargetCase) -> Target:
        keys = frozenset(_key(p) for p in target.perceptions)
        if len(keys) != len(target.perceptions):
            raise CheckFailure(f"target {target.origin} repeats a perception")
        found = self._by_keys.get(keys)
        if found is None:
            found = self._by_keys[keys] = Target(keys)
        return found


def _key(p: ct.Perception):
    return (p.name, tuple((v.kind, v.name) for v in p.values), p.choice)


def _instantiated(p: ct.Perception, binding: dict[str, str]):
    """Key of the perception with its labels replaced, None if one is unbound."""
    values = []
    for v in p.values:
        if v.kind == "generic":
            cid = binding.get(v.name)
            if cid is None:
                return None
            values.append(("concrete", cid))
        else:
            values.append((v.kind, v.name))
    return (p.name, tuple(values), p.choice)


def score_binding(case: ct.GenericCase, target: Target, binding: dict[str, str]) -> float:
    matched = [i for i, p in enumerate(case.perceptions)
               if _instantiated(p, binding) in target.keys]
    weight = sum(case.weights[i] for i in matched)
    coverage = 1.0 - ALPHA * (target.size - len(matched)) / target.size
    return weight / sum(case.weights) * coverage


def rescore(case: ct.GenericCase, target: Target, sub: ct.Substitution) -> float:
    """Score of a reported substitution, after checking it is injective and
    binds only the case's own labels."""
    labels = [label for label, _ in sub.pairs]
    ids = [cid for _, cid in sub.pairs]
    memo_key = (case, sub.pairs)
    value = target.memo.get(memo_key)
    if value is None:
        if len(set(ids)) != len(ids) or not set(labels) <= set(case.generic_labels):
            raise CheckFailure(f"{case.id}: substitution {sub} is not an injective "
                               f"map of the case's labels")
        value = target.memo[memo_key] = score_binding(case, target, dict(sub.pairs))
    return value


def exhaustive_score(case: ct.GenericCase, target: Target) -> float:
    """Best score over every injective binding of the case's labels.

    A label is either left unbound or bound to an agent that makes at least
    one of its perceptions hold; binding it to any other agent matches
    nothing more and only uses the agent up, so the search stays exhaustive.
    """
    labels = list(case.generic_labels)
    useful: dict[str, set[str]] = {label: set() for label in labels}
    for p in case.perceptions:
        for name, values, choice in target.keys:
            if name != p.name or choice != p.choice or len(values) != len(p.values):
                continue
            binding: dict[str, str] = {}
            for v, (kind, value) in zip(p.values, values):
                if v.kind != "generic":
                    if (v.kind, v.name) != (kind, value):
                        break
                elif kind != "concrete" or binding.setdefault(v.name, value) != value:
                    break
            else:
                for label, cid in binding.items():
                    useful[label].add(cid)
    options = [sorted(useful[label]) + [None] for label in labels]
    best = 0.0
    for choice in itertools.product(*options):
        bound = [c for c in choice if c is not None]
        if len(set(bound)) != len(bound):
            continue
        binding = {label: c for label, c in zip(labels, choice) if c is not None}
        best = max(best, score_binding(case, target, binding))
    return best


def check_result(result: ct.RetrievalResult, cases: dict[str, ct.GenericCase],
                 target: Target, complete: bool) -> dict[str, float]:
    """Rescore every case's reported substitution.

    A complete engine's score must equal its rescoring; a pruned or
    interrupted one may only fall short of it. The best case must carry the
    highest reported score. Returns the rescorings by case id.
    """
    rescored = {}
    for cid, outcome in result.per_case.items():
        value = rescore(cases[cid], target, outcome.substitution)
        rescored[cid] = value
        if outcome.score > value + TOLERANCE:
            raise CheckFailure(f"{cid}: reported {outcome.score!r} above its rescoring {value!r}")
        if complete and outcome.evaluated and abs(outcome.score - value) > TOLERANCE:
            raise CheckFailure(f"{cid}: reported {outcome.score!r}, rescoring gives {value!r}")
    if set(result.per_case) != set(cases):
        raise CheckFailure("result does not cover the case base")
    top = max((oc.score for oc in result.per_case.values()), default=0.0)
    if result.best_case is not None and abs(result.score - top) > TOLERANCE:
        raise CheckFailure(f"best case {result.best_case} scores {result.score!r}, not {top!r}")
    return rescored


def check_linear_cost(result: ct.RetrievalResult, cases: dict[str, ct.GenericCase]) -> None:
    """A linear scan pays one comparison per perception of each evaluated case."""
    cost = sum(len(cases[cid].perceptions)
               for cid, oc in result.per_case.items() if oc.evaluated)
    if result.tests_used != cost:
        raise CheckFailure(f"linear scan reports {result.tests_used} comparisons for {cost}")


def check_tree(tree: ct.CaseTree, base: list[ct.GenericCase], priority) -> None:
    """Every case's branch reads back its perceptions in priority order, and
    the tree stores no more nodes than the flat base stores perceptions."""
    rank = {name: i for i, name in enumerate(priority)}
    for case in base:
        expected = tuple(sorted(case.perceptions, key=lambda p: rank[p.name]))
        if tree.path_perceptions(case.id) != expected:
            raise CheckFailure(f"{case.id}: branch does not read back its perceptions")
    flat = sum(len(c.perceptions) for c in base)
    if tree.node_count > flat:
        raise CheckFailure(f"{tree.node_count} nodes for {flat} flat perceptions")
