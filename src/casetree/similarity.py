"""Weighted case similarity, offline and anytime.

Both scores share one formula over a matched-perception state::

    score = (matched_weight / total_weight) * (1 - alpha * (T - m) / T)

where T is the target's perception count and m the number of matched source
perceptions. The first factor rewards covering the source's relevant
perceptions; the second penalizes leaving parts of the target unexplained,
scaled by ``alpha`` in [0, 1]. The offline score maximizes over injective
agent bindings; the anytime score, which ``retrieval.scan_tree`` keeps for
every case, evaluates whatever has been matched at an interruption point, so
it starts at 0 with nothing scanned and converges to the offline value once
the scan completes un-pruned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cases import GenericCase, Substitution, TargetCase, _search_bindings


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


def scored_unify(source: GenericCase, target: TargetCase,
                 params: SimilarityParams = DEFAULT_PARAMS, interrupted=None
                 ) -> tuple[float, Substitution, frozenset[int]] | None:
    """Best score over all injective bindings, with the binding that won.

    Maximizing the full score (not just the matched weight) keeps offline
    results consistent with what an exhaustive scan converges to when a
    weight tie hides a larger matched set, or when binding a high-weight
    perception would sacrifice more coverage than it buys. The search asks
    ``interrupted()``, when given, at every node and returns None once it holds.
    """
    if len(target) == 0:
        raise ValueError("target case has no perceptions")
    total = source.total_weight
    size = len(target)
    alpha = params.alpha
    return _search_bindings(
        source, target, lambda w, n: partial_score(w, n, total, size, alpha), interrupted
    )


def similarity(source: GenericCase, target: TargetCase,
               params: SimilarityParams = DEFAULT_PARAMS) -> float:
    """Offline similarity of a stored case to the current situation, in [0, 1]."""
    return scored_unify(source, target, params)[0]
