from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

import casetree as ct
from casetree.retrieval import _dominance_filter, _extend, _PairNumbering
from support import brute_force_similarity, random_base, random_target, zero_odd_weights


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

    def test_completion_binding_one_id_twice_never_merges(self):
        # the target perceives markedBy(x, x): its only completion of the
        # markedBy(?A, ?B) node binds Agent.1 to both labels
        case = ct.GenericCase("c", (
            ct.Perception("markedBy", (ct.generic("A"), ct.generic("B")), True),
            ct.Perception("partner", (ct.generic("A"),), True),
        ), (1.0, 1.0), "pass")
        twice = ct.Perception("markedBy", (ct.concrete("Agent.1"), ct.concrete("Agent.1")), True)
        partner = ct.Perception("partner", (ct.concrete("Agent.1"),), True)
        tree = ct.build_tree([case], ct.FOOTBALL_PRIORITY)
        oracle = ct.TargetOracle(ct.TargetCase((twice, partner)))
        assert oracle.completions("markedBy", case.perceptions[0].values, True) == [
            {"A": "Agent.1", "B": "Agent.1"}]
        r = ct.scan_tree(tree, oracle)
        assert r.tests_used == 1 and r.per_case["c"].pruned
        assert r.per_case["c"].score == 0.0
        r = ct.scan_tree(tree, oracle, prune=False)
        assert r.per_case["c"].score == pytest.approx(0.5 * (1 - 0.5 * 1 / 2))
        assert r.per_case["c"].substitution == ct.Substitution((("A", "Agent.1"),))
        # beside a proper completion only that one merges
        other = ct.Perception("markedBy", (ct.concrete("Agent.2"), ct.concrete("Agent.1")), True)
        partner = ct.Perception("partner", (ct.concrete("Agent.2"),), True)
        r = ct.scan_tree(tree, ct.TargetOracle(ct.TargetCase((twice, other, partner))))
        assert r.per_case["c"].score == pytest.approx(1 - 0.5 * 1 / 3)
        assert r.per_case["c"].substitution == ct.Substitution((("A", "Agent.2"),
                                                               ("B", "Agent.1")))

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


def with_pair_masks(alts):
    """Attach each binding's pair mask, numbering pairs as they first occur."""
    bits = {}
    return [(binding, matched,
             sum(bits.setdefault(pair, 1 << len(bits)) for pair in binding))
            for binding, matched in alts]


@st.composite
def alternative_lists(draw):
    """(sorted binding, matched-position bitmask, pair bitmask) lists with
    repeats, shared matched sets and nested bindings."""
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
    return with_pair_masks(draw(st.permutations(alts)))


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


injective_bindings = st.lists(st.sampled_from(AGENTS), max_size=len(LABELS),
                              unique=True).flatmap(
    lambda ids: st.permutations(LABELS).map(lambda labels: dict(zip(labels, ids))))


def reference_merge(binding, completion):
    """The merged binding as a sorted tuple, or None when a label would be
    bound twice or one id would bind two labels."""
    merged = dict(binding)
    for label, cid in completion.items():
        if merged.setdefault(label, cid) != cid:
            return None
    if len(set(merged.values())) != len(merged):
        return None
    return tuple(sorted(merged.items()))


class TestExtend:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(injective_bindings, st.integers(0, 0b1111)), max_size=6),
           st.lists(st.dictionaries(st.sampled_from(LABELS), st.sampled_from(AGENTS)),
                    max_size=6),
           st.integers(0, 4))
    def test_matches_dict_reference(self, alts, completions, depth):
        # completions may clash on a label or an id with a binding, bind only
        # some labels, bind labels a binding already holds, or bind one id
        # twice; the alternatives' pairs are numbered first, as earlier arcs
        # of a scan would have
        numbering = _PairNumbering()
        numbering.number([binding for binding, _ in alts])
        numbered = numbering.number(completions)

        def mask(binding):
            return sum(numbering.bits[pair] for pair in binding)

        alts = [(tuple(sorted(b.items())), m, mask(b.items())) for b, m in alts]
        expected, reused = list(alts), []
        for binding, matched, _ in alts:
            for completion in completions:
                merged = reference_merge(binding, completion)
                if merged is not None:
                    expected.append((merged, matched | 1 << depth, mask(merged)))
                    reused.append(binding if merged == binding else None)
        got = _extend(alts, numbered, 1 << depth, lambda: False)
        assert got == expected
        # a completion that binds nothing new reuses the binding itself
        for alt, binding in zip(got[len(alts):], reused):
            assert binding is None or alt[0] is binding

    def test_interrupt_before_each_alternative(self):
        numbering = _PairNumbering()
        numbering.number([{"B": "Agent.2"}])
        numbered = numbering.number([{"A": "Agent.1"}])
        alts = [((), 0, 0), ((("B", "Agent.2"),), 1, 1)]
        calls = 0

        def interrupted():
            nonlocal calls
            calls += 1
            return calls == 2

        assert _extend(alts, numbered, 2, interrupted) is None and calls == 2
        assert _extend(alts, numbered, 2, lambda: False) == alts + [
            ((("A", "Agent.1"),), 2, 2), ((("A", "Agent.1"), ("B", "Agent.2")), 3, 3)]


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
            oracle = ct.TargetOracle(target)
            for cases in (base, [zero_odd_weights(c) for c in base]):
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

    @pytest.mark.parametrize("stop", ["cancel", "deadline"])
    def test_interrupt_mid_case_leaves_it_unevaluated(self, monkeypatch, stop):
        # one check before each case and one at every node of its search; a
        # stop at check k leaves every case from the one holding it unevaluated
        world = ct.generate_world(8, 8)
        oracle = ct.TargetOracle(ct.elaborate(world, world.self_id, radius=120))
        cases = random_base(4, 5, max_players=8)
        full = ct.scan_linear(cases, oracle)

        class Counting:
            """A cancel flag that reads set from its ``k``-th check on."""

            def __init__(self, k=float("inf")):
                self.k, self.checks = k, 0

            def is_set(self):
                self.checks += 1
                return self.checks >= self.k

        class Clock:
            """Stands in for ``time`` in the scan: each reading is 1 s later."""

            def __init__(self):
                self.now = 0.0

            def perf_counter(self):
                self.now += 1.0
                return self.now

        ends = []  # per case, the checks asked up to the end of its search
        for i in range(1, len(cases) + 1):
            counting = Counting()
            ct.scan_linear(cases[:i], oracle, cancel=counting)
            ends.append(counting.checks)
        nodes = [b - a - 1 for a, b in zip([0] + ends, ends)]
        assert min(nodes) >= 1 and max(nodes) >= 10  # some stops fall deep in a search
        for k in range(1, ends[-1] + 1):
            if stop == "cancel":
                r = ct.scan_linear(cases, oracle, cancel=Counting(k))
            else:  # the deadline passes at the k-th reading after the start
                monkeypatch.setattr(ct.retrieval, "time", Clock())
                r = ct.scan_linear(cases, oracle, ct.ScanBudget.deadline(k))
                monkeypatch.undo()
            done = sum(1 for end in ends if end < k)  # the cases finished
            for case in cases[:done]:
                assert r.per_case[case.id] == full.per_case[case.id]
            for case in cases[done:]:
                assert r.per_case[case.id] == ct.CaseOutcome(0.0, 0, False, False,
                                                             ct.Substitution())
            assert r.tests_used == sum(len(case.perceptions) for case in cases[:done])
