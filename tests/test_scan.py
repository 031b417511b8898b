from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

import casetree as ct
from casetree.retrieval import _dominance_filter
from support import brute_force_similarity, random_base, random_target


@pytest.fixture()
def three_tree(three_case_base):
    cases, priority = three_case_base
    return ct.build_tree(cases, priority)


def tree_and_oracle(three_case_base, target):
    cases, priority = three_case_base
    return ct.build_tree(cases, priority), ct.TargetOracle(target)


class TestTargetOracle:
    def test_fully_bound_hit_and_miss(self, exact_case1_target):
        oracle = ct.TargetOracle(exact_case1_target)
        assert oracle.completions("hasball", (ct.ME,), False) == [{}]
        assert oracle.completions("hasball", (ct.ME,), True) == []

    def test_free_variable_binding(self, exact_case1_target):
        oracle = ct.TargetOracle(exact_case1_target)
        assert oracle.completions("partner", (ct.generic("A"),), True) == [{"A": "Agent.1"}]
        assert oracle.completions("partner", (ct.generic("A"),), False) == []

    def test_shared_label_must_bind_consistently(self):
        target = ct.TargetCase(perceptions=(
            ct.Perception("markedBy", (ct.concrete("Agent.1"), ct.concrete("Agent.2")), True),
        ))
        oracle = ct.TargetOracle(target)
        pattern = (ct.generic("A"), ct.generic("A"))
        assert oracle.completions("markedBy", pattern, True) == []
        pattern = (ct.generic("A"), ct.generic("B"))
        assert oracle.completions("markedBy", pattern, True) == [
            {"A": "Agent.1", "B": "Agent.2"}
        ]

    def test_results_are_sorted(self):
        target = ct.TargetCase(perceptions=(
            ct.Perception("partner", (ct.concrete("Agent.9"),), True),
            ct.Perception("partner", (ct.concrete("Agent.2"),), True),
        ))
        oracle = ct.TargetOracle(target)
        got = oracle.completions("partner", (ct.generic("A"),), True)
        assert got == [{"A": "Agent.2"}, {"A": "Agent.9"}]


class TestScanTree:
    def test_unbounded_matches_linear(self, three_case_base, exact_case1_target):
        cases, priority = three_case_base
        tree, oracle = tree_and_oracle(three_case_base, exact_case1_target)
        rt = ct.scan_tree(tree, oracle, prune=False)
        rl = ct.scan_linear(cases, oracle)
        assert rt.best_case == rl.best_case == "case1"
        assert rt.score == pytest.approx(1.0)
        for cid in rt.per_case:
            assert rt.per_case[cid].score == pytest.approx(rl.per_case[cid].score, abs=1e-9)

    def test_budget_zero(self, three_case_base, exact_case1_target):
        tree, oracle = tree_and_oracle(three_case_base, exact_case1_target)
        r = ct.scan_tree(tree, oracle, ct.ScanBudget.comparisons(0))
        assert r.tests_used == 0
        assert all(oc.score == 0.0 for oc in r.per_case.values())
        assert r.best_case == "case1"  # lowest case id on an all-zero tie

    def test_root_tests_only(self, three_case_base, exact_case1_target):
        # two comparisons cover both root arcs: every case has exactly its
        # highest-priority perception scanned
        tree, oracle = tree_and_oracle(three_case_base, exact_case1_target)
        r = ct.scan_tree(tree, oracle, ct.ScanBudget.comparisons(2), prune=False)
        assert r.tests_used == 2
        assert {cid: oc.scanned for cid, oc in r.per_case.items()} == {
            "case1": 1, "case2": 1, "case3": 1,
        }
        assert r.per_case["case1"].score == pytest.approx(0.3 / 1.45 * (1 - 0.5 * 2 / 3))
        assert r.per_case["case2"].score == 0.0
        assert r.per_case["case3"].score == pytest.approx(1 / 3 * (1 - 0.5 * 2 / 3))

    def test_budget_compliance_and_monotonicity(self, three_case_base, exact_case1_target):
        cases, _ = three_case_base
        tree, oracle = tree_and_oracle(three_case_base, exact_case1_target)
        full = tree.arc_count()
        previous = {c.id: 0.0 for c in cases}
        for budget in range(0, full + 2):
            r = ct.scan_tree(tree, oracle, ct.ScanBudget.comparisons(budget), prune=False)
            assert r.tests_used <= budget
            for cid, oc in r.per_case.items():
                assert oc.score >= previous[cid] - 1e-15
                previous[cid] = oc.score
        final = ct.scan_tree(tree, oracle, prune=False)
        for cid, oc in final.per_case.items():
            offline = ct.similarity(tree.cases[cid], oracle.target)
            assert oc.score == pytest.approx(offline, abs=1e-12)

    def test_pruning_freezes_contradicted_branches(self, three_case_base):
        # a contradicted root perception masks case3's two deeper matches:
        # pruning freezes it at 0 while the exact mode lets it win
        target = ct.TargetCase(perceptions=(
            ct.Perception("hasball", (ct.ME,), True),
            ct.Perception("partner", (ct.concrete("Agent.1"),), False),
            ct.Perception("distance", (ct.const("ball", "Ball"), ct.concrete("Agent.2")), "long"),
        ), origin="mask")
        tree, oracle = tree_and_oracle(three_case_base, target)
        pruned = ct.scan_tree(tree, oracle, prune=True)
        assert pruned.per_case["case1"].pruned
        assert pruned.per_case["case3"].pruned
        assert pruned.per_case["case2"].pruned  # its partner test fails below the root
        assert pruned.per_case["case1"].scanned == 1
        assert pruned.per_case["case1"].score == 0.0
        assert pruned.per_case["case3"].score == 0.0
        assert pruned.per_case["case2"].score == pytest.approx(0.5 * (1 - 0.5 * 2 / 3))
        assert pruned.best_case == "case2"
        assert pruned.tests_used < tree.arc_count()

        exact = ct.scan_tree(tree, oracle, prune=False)
        assert exact.best_case == "case3"  # deeper matches outweigh the miss
        assert exact.per_case["case3"].score == pytest.approx(
            2 / 3 * (1 - 0.5 * 1 / 3)
        )
        assert exact.per_case["case3"].substitution.as_dict() == {
            "A": "Agent.1", "B": "Agent.2",
        }

    def test_deterministic_results(self, three_case_base, exact_case1_target):
        tree, oracle = tree_and_oracle(three_case_base, exact_case1_target)
        a = ct.scan_tree(tree, oracle, ct.ScanBudget.comparisons(4))
        b = ct.scan_tree(tree, oracle, ct.ScanBudget.comparisons(4))
        assert a == b  # elapsed time is excluded from comparison

    def test_empty_target_rejected(self, three_tree):
        with pytest.raises(ValueError):
            ct.scan_tree(three_tree, ct.TargetOracle(ct.TargetCase(perceptions=())))

    def test_cancellation_observed_before_each_test(self, three_case_base, exact_case1_target):
        tree, oracle = tree_and_oracle(three_case_base, exact_case1_target)
        cancel = threading.Event()
        cancel.set()
        r = ct.scan_tree(tree, oracle, cancel=cancel)
        assert r.tests_used == 0
        assert all(oc.score == 0.0 for oc in r.per_case.values())

        # cancelled during the first of the root node's two tests: the
        # second is never asked, and the interrupted arc changes no case
        class CancellingOracle(ct.TargetOracle):
            def completions(self, name, values, desired):
                cancel.set()
                return super().completions(name, values, desired)

        cancel.clear()
        r = ct.scan_tree(tree, CancellingOracle(exact_case1_target), cancel=cancel)
        assert len(tree.root.nodes[0].arcs) == 2
        assert r.tests_used == 1
        assert all(oc.scanned == 0 and oc.score == 0.0 for oc in r.per_case.values())

    def test_deadline_budget_stops_early(self, three_case_base, exact_case1_target):
        cases, priority = three_case_base
        tree = ct.build_tree(cases, priority)

        class SlowOracle(ct.TargetOracle):
            def completions(self, name, values, desired):
                time.sleep(0.004)
                return super().completions(name, values, desired)

        oracle = SlowOracle(exact_case1_target)
        r = ct.scan_tree(tree, oracle, ct.ScanBudget.deadline(0.006))
        assert r.tests_used < tree.arc_count()
        # a deadline that passes inside the first test stops the scan there
        r = ct.scan_tree(tree, oracle, ct.ScanBudget.deadline(0.002))
        assert r.tests_used == 1
        assert all(oc.scanned == 0 for oc in r.per_case.values())
        generous = ct.scan_tree(tree, oracle, ct.ScanBudget.deadline(10.0), prune=False)
        assert generous.tests_used == tree.arc_count()

    def test_oracle_failure_carries_partial_results(self, three_case_base, exact_case1_target):
        cases, priority = three_case_base
        tree = ct.build_tree(cases, priority)

        class FlakyOracle(ct.TargetOracle):
            calls = 0

            def completions(self, name, values, desired):
                type(self).calls += 1
                if type(self).calls > 3:
                    raise ConnectionError("context box went away")
                return super().completions(name, values, desired)

        with pytest.raises(ct.RetrievalError) as err:
            ct.scan_tree(tree, FlakyOracle(exact_case1_target), prune=False)
        partial = err.value.partial
        assert partial is not None
        assert partial.tests_used == 4
        assert partial.per_case["case1"].scanned >= 1

    def test_concurrent_scans_share_one_tree(self, three_case_base):
        cases, priority = three_case_base
        tree = ct.build_tree(cases, priority)
        targets = [random_target(seed + 40) for seed in range(8)]
        targets = [t for t in targets if len(t)]

        def run(t):
            return ct.scan_tree(tree, ct.TargetOracle(t), prune=False)

        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = list(pool.map(run, targets))
        sequential = [run(t) for t in targets]
        assert concurrent == sequential

    def test_unbounded_equals_brute_force_at_seven_agents(self):
        # whole-pitch 8-player targets perceive 7 concrete agents, beyond the
        # at most 5 of the 6-player fixtures
        for seed in range(1, 9):
            base = random_base(seed, 12, max_players=8, max_perceptions=4)
            world = ct.generate_world(1000 + seed, 8)
            target = ct.elaborate(world, world.self_id, radius=120)
            agents = {v.name for p in target.perceptions for v in p.values
                      if v.kind == "concrete"}
            assert len(agents) == 7, seed
            r = ct.scan_tree(ct.build_tree(base, ct.FOOTBALL_PRIORITY),
                             ct.TargetOracle(target), prune=False)
            for case in base:
                assert r.per_case[case.id].score == pytest.approx(
                    brute_force_similarity(case, target, 0.5), abs=1e-9), (seed, case.id)


LABELS = ("A", "B", "C", "D")
AGENTS = ("Agent.1", "Agent.2", "Agent.3", "Agent.4")


@st.composite
def alternative_lists(draw):
    """(sorted binding, matched-position bitmask) lists with repeats, shared
    matched sets and nested bindings."""
    bindings = st.dictionaries(st.sampled_from(LABELS), st.sampled_from(AGENTS))
    positions = st.integers(0, 0b11111)
    alts = [(tuple(sorted(b.items())), m)
            for b, m in draw(st.lists(st.tuples(bindings, positions), max_size=10))]
    for _ in range(draw(st.integers(0, 10)) if alts else 0):
        binding, matched = draw(st.sampled_from(alts))
        kind = draw(st.sampled_from(("repeat", "fewer pairs", "more positions",
                                     "same positions")))
        if kind == "fewer pairs":
            binding = tuple(pair for pair in binding if draw(st.booleans()))
        elif kind == "more positions":
            matched = matched | draw(positions)
        elif kind == "same positions":
            binding = tuple(sorted(draw(bindings).items()))
        alts.append((binding, matched))
    return draw(st.permutations(alts))


def matched_positions(mask):
    return {p for p in range(5) if mask >> p & 1}


def reference_filter(alts):
    """Quadratic definition: keep each distinct alternative that no other one
    dominates (a superset of its matched positions, a subset of its pairs)."""
    unique = set(alts)
    kept = [a for a in unique
            if not any(b != a and matched_positions(b[1]) >= matched_positions(a[1])
                       and set(b[0]) <= set(a[0]) for b in unique)]
    return sorted(kept, key=lambda a: (-len(matched_positions(a[1])), len(a[0]), a[0], a[1]))


class TestDominanceFilter:
    @settings(max_examples=300, deadline=None)
    @given(alternative_lists())
    def test_matches_quadratic_reference(self, alts):
        assert _dominance_filter(alts, lambda: False) == reference_filter(alts)

    @settings(max_examples=100, deadline=None)
    @given(alternative_lists(), st.integers(1, 25))
    def test_interrupt_before_candidate_k_returns_none(self, alts, k):
        calls = 0

        def interrupted():
            nonlocal calls
            calls += 1
            return calls >= k

        got = _dominance_filter(alts, interrupted)
        if k <= len(set(alts)):
            assert got is None and calls == k
        else:
            assert got == reference_filter(alts) and calls == len(set(alts))


class TestScanBudget:
    def test_comparison_budget_must_be_non_negative(self):
        with pytest.raises(ValueError):
            ct.ScanBudget.comparisons(-1)
        assert ct.ScanBudget.comparisons(0).max_comparisons == 0

    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError):
            ct.ScanBudget.deadline(0.0)
        with pytest.raises(ValueError):
            ct.ScanBudget.deadline(-1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ct.ScanBudget("generous")


class TestScanLinear:
    def test_unbounded_equivalence_random(self):
        # alpha 0 and zero-weight perceptions make exact score ties common, so
        # agreeing substitutions pin the tie rule: the least restricted binding
        for seed in range(30):
            base = random_base(seed, 1 + seed % 20)
            target = random_target(seed + 111)
            if not base or not len(target):
                continue
            zeroed = [
                ct.GenericCase(c.id, c.perceptions,
                               tuple(0.0 if i % 2 else w for i, w in enumerate(c.weights)),
                               c.action)
                for c in base
            ]
            oracle = ct.TargetOracle(target)
            for cases in (base, zeroed):
                tree = ct.build_tree(cases, ct.FOOTBALL_PRIORITY)
                for alpha in (0.5, 0.0):
                    params = ct.SimilarityParams(alpha)
                    rt = ct.scan_tree(tree, oracle, params=params, prune=False)
                    rl = ct.scan_linear(cases, oracle, params=params)
                    assert rt.best_case == rl.best_case, (seed, alpha)
                    for cid in rt.per_case:
                        assert rt.per_case[cid].score == pytest.approx(
                            rl.per_case[cid].score, abs=1e-9
                        ), (seed, alpha, cid)
                        assert (rt.per_case[cid].substitution
                                == rl.per_case[cid].substitution), (seed, alpha, cid)

    def test_budget_zero_leaves_everything_unevaluated(self, three_case_base, exact_case1_target):
        cases, _ = three_case_base
        r = ct.scan_linear(cases, ct.TargetOracle(exact_case1_target),
                           ct.ScanBudget.comparisons(0))
        assert r.tests_used == 0
        assert all(not oc.evaluated for oc in r.per_case.values())
        assert r.best_case is None

    def test_budget_admits_exactly_one_case(self, three_case_base, exact_case1_target):
        cases, _ = three_case_base
        order = ["case2", "case1", "case3"]
        r = ct.scan_linear(cases, ct.TargetOracle(exact_case1_target),
                           ct.ScanBudget.comparisons(2), order=order)
        assert r.per_case["case2"].evaluated
        assert not r.per_case["case1"].evaluated
        assert not r.per_case["case3"].evaluated
        assert r.tests_used == 2
        assert r.best_case == "case2"

    def test_order_must_be_a_permutation(self, three_case_base, exact_case1_target):
        cases, _ = three_case_base
        with pytest.raises(ValueError):
            ct.scan_linear(cases, ct.TargetOracle(exact_case1_target),
                           order=["case1", "case1", "case3"])

    def test_costs_accumulate_per_case(self, three_case_base, exact_case1_target):
        cases, _ = three_case_base
        r = ct.scan_linear(cases, ct.TargetOracle(exact_case1_target))
        assert r.tests_used == ct.linear_perception_count(cases)
