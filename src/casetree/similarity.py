"""Weighted case similarity, offline and anytime.

Both scores share one formula over a matched-perception state::

    score = (matched_weight / total_weight) * (1 - alpha * (T - m) / T)

where T is the target's perception count and m the number of matched source
perceptions. The first factor rewards covering the source's relevant
perceptions; the second penalizes leaving parts of the target unexplained,
scaled by ``alpha`` in [0, 1]. The offline score maximizes over injective
agent bindings; the anytime score, which ``retrieval.scan_tree`` gives a
case over the tested prefix of its branch, maximizes over what that prefix
can match, so it starts at 0 with nothing scanned and converges to the
offline value once the scan completes un-pruned. ``objective`` builds the
one function both maximize, the formula for a case against a target of a
given size, and the binding search asks it for every candidate and bound.
Within one scan the coverage factor depends only on m, so a scan computes it
once per m, in ``coverage_table``, and every objective reads it from there;
the weight sums come from the case's own memo (``cases.GenericCase``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cases import GenericCase, Substitution, TargetCase, _unify


@dataclass(frozen=True)
class SimilarityParams:
    """Scoring knobs; alpha trades retrieval breadth against strictness."""

    alpha: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")


DEFAULT_PARAMS = SimilarityParams()


def partial_score(matched_weight: float, matched_count: int, total_weight: float,
                  target_size: int, alpha: float) -> float:
    """The shared scoring formula. Requires target_size >= 1."""
    if target_size < 1:
        raise ValueError("scores are undefined for an empty target")
    coverage = 1.0 - alpha * (target_size - matched_count) / target_size
    return (matched_weight / total_weight) * coverage


def ceiling(perceptions: int, target_size: int, params: SimilarityParams) -> float:
    """The highest score a case of ``perceptions`` perceptions can reach
    against a target of ``target_size``: its ``objective`` when it matches
    every perception. Its matched weight is then its total weight, summed in
    the same order, so the weight factor is exactly 1.0 and the value does
    not depend on the weights."""
    return partial_score(1.0, perceptions, 1.0, target_size, params.alpha)


def coverage_table(target_size: int, most: int, params: SimilarityParams) -> list[float]:
    """``partial_score``'s coverage factor against a target of ``target_size``
    perceptions, indexed by the matched count m = 0..most. Entry m is
    ``ceiling(m)``, whose weight factor is exactly 1.0, so it is the factor
    bit for bit. Raises ValueError for an empty target."""
    return [ceiling(m, target_size, params) for m in range(most + 1)]


def objective(case: GenericCase, coverage: list[float]):
    """The ``(matched_weight, matched_count) -> score`` function the binding
    search maximizes for ``case``: ``partial_score`` against the target that
    ``coverage`` (a ``coverage_table`` reaching the case's perception count)
    was built for, bit for bit."""
    total = case.total_weight
    return lambda w, n: w / total * coverage[n]


def scored_unify(source: GenericCase, target: TargetCase,
                 params: SimilarityParams = DEFAULT_PARAMS, interrupted=None,
                 coverage: list[float] | None = None
                 ) -> tuple[float, Substitution, int] | None:
    """Best score over all injective bindings, with the binding that won and
    the bitmask of the perceptions it matches (bit i for index i).

    Maximizing the full score (not just the matched weight) keeps offline
    results consistent with what an exhaustive scan converges to when a
    weight tie hides a larger matched set, or when binding a high-weight
    perception would sacrifice more coverage than it buys. The search asks
    ``interrupted()``, when given, at every node and returns None once it holds.
    A scan passes the ``coverage_table`` it built for ``target`` and ``params``;
    without one, the call builds its own. Raises ValueError for an empty target.
    """
    if coverage is None:
        coverage = coverage_table(len(target), len(source.perceptions), params)
    return _unify(source, target, objective(source, coverage), interrupted)


def similarity(source: GenericCase, target: TargetCase,
               params: SimilarityParams = DEFAULT_PARAMS) -> float:
    """Offline similarity of a stored case to the current situation, in [0, 1]."""
    return scored_unify(source, target, params)[0]
