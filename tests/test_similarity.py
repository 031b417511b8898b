from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import casetree as ct
from casetree.similarity import partial_score, scored_unify
from support import (
    brute_force_optimum,
    brute_force_similarity,
    random_base,
    random_target,
    zero_odd_weights,
)


class TestOfflineSimilarity:
    def test_perfect_match_scores_one(self, case1, exact_case1_target):
        for alpha in (0.0, 0.3, 0.5, 1.0):
            got = ct.similarity(case1, exact_case1_target, ct.SimilarityParams(alpha))
            assert got == pytest.approx(1.0)

    def test_no_match_scores_zero(self, case1):
        t = ct.TargetCase(perceptions=(
            ct.Perception("hasball", (ct.ME,), True),
        ), origin="none")
        assert ct.similarity(case1, t) == 0.0

    def test_two_of_three_hand_value(self, case1, two_of_three_target):
        got = ct.similarity(case1, two_of_three_target, ct.SimilarityParams(0.5))
        # (0.3 + 0.7) / 1.45 * (1 - 0.5 * 1/3)
        assert got == pytest.approx(0.574713, abs=1e-6)
        want = brute_force_similarity(case1, two_of_three_target, 0.5)
        assert got == pytest.approx(want, abs=1e-12)

    def test_empty_target_rejected(self, case1):
        with pytest.raises(ValueError):
            ct.similarity(case1, ct.TargetCase(perceptions=()))

    def test_matches_brute_force_on_random_inputs(self):
        for seed in range(20):
            base = random_base(seed, 5)
            t = random_target(seed + 600)
            if not len(t):
                continue
            for case in base:
                for alpha in (0.0, 0.5, 1.0):
                    got = ct.similarity(case, t, ct.SimilarityParams(alpha))
                    want = brute_force_similarity(case, t, alpha)
                    assert got == pytest.approx(want, abs=1e-12), (case.id, alpha)

    def test_tie_rule_matches_brute_force(self):
        # alpha 0 and zero-weight perceptions make exact score ties common; of
        # the optimal bindings the least restricted substitution must win
        for seed in range(60):
            base = random_base(seed, 6)
            t = random_target(seed + 1300)
            if not len(t):
                continue
            for case in map(zero_odd_weights, base):
                for alpha in (0.0, 0.5):
                    score, sub, matched = scored_unify(case, t, ct.SimilarityParams(alpha))
                    want_score, want_sub, want_matched = brute_force_optimum(case, t, alpha)
                    assert score == pytest.approx(want_score, abs=1e-12), (seed, case.id)
                    assert sub == want_sub, (seed, case.id, alpha)
                    assert matched == frozenset(want_matched), (seed, case.id, alpha)

    def test_alpha_zero_ignores_target_coverage(self, case1, two_of_three_target):
        got = ct.similarity(case1, two_of_three_target, ct.SimilarityParams(0.0))
        assert got == pytest.approx(1.0 / 1.45)

    def test_score_non_increasing_in_alpha(self):
        for seed in range(12):
            base = random_base(seed, 4)
            t = random_target(seed + 700)
            if not len(t):
                continue
            alphas = [0.0, 0.25, 0.5, 0.75, 1.0]
            for case in base:
                scores = [ct.similarity(case, t, ct.SimilarityParams(a)) for a in alphas]
                for lo, hi in zip(scores[1:], scores):
                    assert lo <= hi + 1e-12


class TestPartialScore:
    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            partial_score(0.0, 0, 1.45, 0, 0.5)

    @given(
        weights=st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=8),
        alpha=st.floats(min_value=0.0, max_value=1.0),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_growth(self, weights, alpha, data):
        n = len(weights)
        matched = data.draw(st.frozensets(st.integers(0, n - 1)))
        # a target can never hold fewer perceptions than were matched in it
        target_size = data.draw(st.integers(min_value=max(1, n), max_value=40))

        def score(indices):
            return partial_score(sum(weights[i] for i in indices), len(indices),
                                 sum(weights), target_size, alpha)

        assert 0.0 <= score(matched) <= 1.0
        # growing the matched set never lowers the score
        missing = [i for i in range(n) if i not in matched]
        if missing:
            assert score(matched | {missing[0]}) >= score(matched) - 1e-12

    @given(alpha=st.floats(min_value=0.0, max_value=1.0))
    def test_alpha_zero_second_factor_is_exactly_one(self, alpha):
        # with everything matched the coverage penalty vanishes for any alpha
        assert partial_score(2.0, 4, 2.0, 4, alpha) == pytest.approx(1.0, abs=0)
        # with alpha == 0 the penalty vanishes regardless of coverage
        assert partial_score(2.0, 0, 2.0, 4, 0.0) == 1.0


class TestParams:
    @pytest.mark.parametrize("alpha", [-0.1, 1.1, 2.0])
    def test_alpha_range_enforced(self, alpha):
        with pytest.raises(ValueError):
            ct.SimilarityParams(alpha)
