from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

import casetree as ct
from support import (brute_force_optimum, brute_force_similarity, random_base, random_target,
                     substitute, zero_odd_weights)


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
        assert oracle.completions("hasball", (ct.ME,), False) == [()]
        assert oracle.completions("hasball", (ct.ME,), True) == []

    def test_free_variable_binding(self, exact_case1_target):
        oracle = ct.TargetOracle(exact_case1_target)
        assert oracle.completions("partner", (ct.generic("A"),), True) == [("Agent.1",)]
        assert oracle.completions("partner", (ct.generic("A"),), False) == []

    def test_shared_label_must_bind_consistently(self):
        target = ct.TargetCase(perceptions=(
            ct.Perception("markedBy", (ct.concrete("Agent.1"), ct.concrete("Agent.2")), True),
        ))
        oracle = ct.TargetOracle(target)
        pattern = (ct.generic("A"), ct.generic("A"))
        assert oracle.completions("markedBy", pattern, True) == []
        pattern = (ct.generic("A"), ct.generic("B"))
        assert oracle.completions("markedBy", pattern, True) == [("Agent.1", "Agent.2")]
        # columns follow the sorted labels, not their positions
        pattern = (ct.generic("B"), ct.generic("A"))
        assert oracle.completions("markedBy", pattern, True) == [("Agent.2", "Agent.1")]

    def test_results_are_sorted(self):
        # six rows declared in descending id order: neither declaration order
        # nor a set's hash order gives the sorted list, whatever the hash seed
        ids = ("Agent.9", "Agent.8", "Agent.6", "Agent.5", "Agent.3", "Agent.2")
        target = ct.TargetCase(perceptions=tuple(
            ct.Perception("partner", (ct.concrete(i),), True) for i in ids))
        oracle = ct.TargetOracle(target)
        got = oracle.completions("partner", (ct.generic("A"),), True)
        assert got == [("Agent.2",), ("Agent.3",), ("Agent.5",), ("Agent.6",), ("Agent.8",),
                       ("Agent.9",)]

    def test_exhaustive_against_entity_enumeration(self, football_ctx):
        """With a fresh label in every agent slot of a held perception's
        pattern, completions are exactly the injective agent tuples the
        observer holds with the asked choice: none missed, none invented."""
        for n_players in (6, 8):
            for seed in (3, 4, 5):
                world = ct.generate_world(seed, n_players)
                agents = [p.pid for p in world.players if p.pid != world.self_id]
                for radius in (30.0, 120.0):
                    target = ct.elaborate(world, world.self_id, radius, football_ctx)
                    oracle = ct.TargetOracle(target)
                    held = target.perception_set
                    patterns = {(p.name, tuple(ct.generic(f"L{k}") if v.kind == "concrete"
                                               else v for k, v in enumerate(p.values)))
                                for p in target.perceptions}
                    for name, pattern in patterns:
                        choice_sort = football_ctx.predicates[name].choice
                        slots = [k for k, v in enumerate(pattern) if v.kind == "generic"]
                        for choice in choice_sort.labels or (False, True):
                            expected = []
                            for ids in itertools.permutations(agents, len(slots)):
                                values = list(pattern)
                                for k, pid in zip(slots, ids):
                                    values[k] = ct.concrete(pid)
                                if ct.Perception(name, tuple(values), choice) in held:
                                    expected.append(ids)
                            got = oracle.completions(name, pattern, choice)
                            assert got == sorted(expected), (world.wid, radius, name, choice)

    def test_consistent_with_elaborate(self):
        """Every held perception's ground pattern holds, and with its Boolean
        flipped it does not."""
        for seed, n_players in ((11, 4), (11, 22)):
            world = ct.generate_world(seed, n_players)
            target = ct.elaborate(world, world.self_id, 120.0)
            oracle = ct.TargetOracle(target)
            for p in target.perceptions:
                assert oracle.completions(p.name, p.values, p.choice) == [()]
                if isinstance(p.choice, bool):
                    assert oracle.completions(p.name, p.values, not p.choice) == []


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
        assert len(tree.roots[0].arcs) == 2
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
        # the partial result holds every score over the three tests that
        # succeeded, whether cases are searched only when the scan stops or
        # after each arc (under a cancel flag that is never set)
        cases, priority = three_case_base
        tree = ct.build_tree(cases, priority)
        three = ct.scan_tree(tree, ct.TargetOracle(exact_case1_target),
                             ct.ScanBudget.comparisons(3), prune=False)
        assert any(oc.score > 0 for oc in three.per_case.values())

        class FlakyOracle(ct.TargetOracle):
            calls = 0

            def completions(self, name, values, desired):
                self.calls += 1
                if self.calls > 3:
                    raise ConnectionError("context box went away")
                return super().completions(name, values, desired)

        for cancel in (None, threading.Event()):
            with pytest.raises(ct.RetrievalError) as err:
                ct.scan_tree(tree, FlakyOracle(exact_case1_target), prune=False, cancel=cancel)
            partial = err.value.partial
            assert partial is not None
            assert partial.tests_used == 4
            assert partial.per_case == three.per_case, cancel

    @pytest.mark.parametrize("which", ["three", "random"])
    def test_each_case_is_searched_once_unless_a_stop_can_interrupt(
            self, monkeypatch, three_case_base, exact_case1_target, which):
        # a case's score depends only on its tested prefix: with no deadline
        # or cancel flag each case is searched once, when the scan stops;
        # with a cancel flag, every case below each arc that is not
        # contradicted is searched right after that arc
        if which == "three":
            cases, priority = three_case_base
            target = exact_case1_target
        else:
            cases, priority = random_base(5, 12, max_players=8), ct.FOOTBALL_PRIORITY
            world = ct.generate_world(5, 8)
            target = ct.elaborate(world, world.self_id, radius=120)
        tree = ct.build_tree(cases, priority)
        oracle = ct.TargetOracle(target)
        searched = []
        search = ct.retrieval._search_bindings

        def counting(*args):
            searched.append(args)
            return search(*args)

        monkeypatch.setattr(ct.retrieval, "_search_bindings", counting)

        def scan(budget=ct.UNBOUNDED, cancel=None):
            searched.clear()
            return ct.scan_tree(tree, oracle, budget, prune=False, cancel=cancel), len(searched)

        def injective(rows):
            return any(len(set(row)) == len(row) for row in rows)

        not_contradicted = [arc for node in tree.iter_nodes() for arc in node.arcs
                            if injective(oracle.completions(node.predicate, node.values,
                                                            arc.test))]
        full, searches = scan()
        assert searches == len(set().union(*(arc.below for arc in not_contradicted)))
        assert searches <= len(cases)
        eager, searches = scan(cancel=threading.Event())
        assert searches == sum(len(arc.below) for arc in not_contradicted)
        assert searches > len(cases)
        assert eager == full
        budget = ct.ScanBudget.comparisons(tree.arc_count() // 2)
        cut, searches = scan(budget)
        assert 0 < searches <= len(cases)
        assert cut.tests_used == budget.max_comparisons
        assert scan(budget, threading.Event())[0] == cut

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
        # the target perceives markedBy(x, x): the only way to fill the
        # markedBy(?A, ?B) node binds Agent.1 to both labels, so it has no row
        case = ct.GenericCase("c", (
            ct.Perception("markedBy", (ct.generic("A"), ct.generic("B")), True),
            ct.Perception("partner", (ct.generic("A"),), True),
        ), (1.0, 1.0), "pass")
        twice = ct.Perception("markedBy", (ct.concrete("Agent.1"), ct.concrete("Agent.1")), True)
        partner = ct.Perception("partner", (ct.concrete("Agent.1"),), True)
        tree = ct.build_tree([case], ct.FOOTBALL_PRIORITY)
        oracle = ct.TargetOracle(ct.TargetCase((twice, partner)))
        assert oracle.completions("markedBy", case.perceptions[0].values, True) == []
        r = ct.scan_tree(tree, oracle)
        assert r.tests_used == 1 and r.per_case["c"].pruned
        assert r.per_case["c"].score == 0.0
        r = ct.scan_tree(tree, oracle, prune=False)
        assert r.per_case["c"].score == pytest.approx(0.5 * (1 - 0.5 * 1 / 2))
        assert r.per_case["c"].substitution == ct.Substitution((("A", "Agent.1"),))
        # beside a proper completion only that one merges
        other = ct.Perception("markedBy", (ct.concrete("Agent.2"), ct.concrete("Agent.1")), True)
        partner = ct.Perception("partner", (ct.concrete("Agent.2"),), True)
        oracle = ct.TargetOracle(ct.TargetCase((twice, other, partner)))
        assert oracle.completions("markedBy", case.perceptions[0].values, True) == [
            ("Agent.2", "Agent.1")]
        r = ct.scan_tree(tree, oracle)
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

    @given(st.integers(0, 10_000), st.sampled_from(range(8, 23, 2)), st.booleans(),
           st.booleans(), st.sampled_from((0.0, 0.5, 1.0)), st.integers(0, 60),
           st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_anytime_scores_match_brute_force_over_scanned_prefix(
            self, seed, players, zero, prune, alpha, budget, cancel):
        # whole-pitch targets perceive every other player; zero weights and
        # alpha 0 make exact score ties common; a cancel flag that is never
        # set makes the scan search after every arc instead of once at its stop
        base = [c for c in random_base(seed % 50, 8, max_players=8, max_perceptions=4)
                if len(c.generic_labels) <= 3]
        if zero:
            base = [zero_odd_weights(c) for c in base]
        world = ct.generate_world(seed, players)
        target = ct.elaborate(world, world.self_id, radius=120)
        tree = ct.build_tree(base, ct.FOOTBALL_PRIORITY)
        calls = []  # (oracle question, its rows), in the order the scan asks

        class Recording(ct.TargetOracle):
            def completions(self, name, values, desired):
                rows = super().completions(name, values, desired)
                calls.append(((name, values, desired), rows))
                return rows

        r = ct.scan_tree(tree, Recording(target), ct.ScanBudget.comparisons(budget),
                         ct.SimilarityParams(alpha), prune=prune,
                         cancel=threading.Event() if cancel else None)
        # walk the tree breadth first over the recorded answers: per arc the
        # scan tested, whether it had a row
        had_row = {}
        queue = deque(tree.roots)
        while queue:
            node = queue.popleft()
            for arc in node.arcs[:len(calls) - len(had_row)]:
                question, rows = calls[len(had_row)]
                assert question == (node.predicate, node.values, arc.test)
                had_row[arc] = bool(rows)
                if rows or not prune:
                    queue.extend(arc.children)
        assert len(had_row) == len(calls) == r.tests_used
        for case in base:
            oc = r.per_case[case.id]
            branch = [had_row[arc] for arc in tree.paths[case.id] if arc in had_row]
            assert oc.scanned == len(branch), case.id
            assert oc.pruned == (prune and not all(branch)), case.id
            allowed = tree.order[case.id][:oc.scanned]
            want_score, want_sub, want_matched = brute_force_optimum(case, target, alpha,
                                                                     allowed)
            assert oc.score == pytest.approx(want_score, abs=1e-12), case.id
            assert oc.substitution == want_sub, case.id
            binding = oc.substitution.as_dict()
            matched = tuple(i for i in sorted(allowed)
                            if substitute(case.perceptions[i], binding) in target.perception_set)
            assert matched == want_matched, case.id

    @pytest.mark.parametrize("stop", ["cancel", "deadline"])
    def test_interrupt_inside_an_arc_changes_no_case(self, monkeypatch, stop):
        # one check before each oracle test and one at every node of each
        # search below a tested arc; a stop inside an arc's searches leaves
        # every case where the arcs before it left them, with the arc counted
        world = ct.generate_world(8, 8)
        target = ct.elaborate(world, world.self_id, radius=120)
        tree = ct.build_tree(random_base(4, 5, max_players=8), ct.FOOTBALL_PRIORITY)

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

        before_test = []  # the number of the check asked before each oracle test
        counting = Counting()

        class Recording(ct.TargetOracle):
            def completions(self, name, values, desired):
                before_test.append(counting.checks)
                return super().completions(name, values, desired)

        full = ct.scan_tree(tree, Recording(target), cancel=counting)
        total = counting.checks
        searched = [b - a - 1 for a, b in zip(before_test, before_test[1:] + [total + 1])]
        assert max(searched) >= 10  # some stops fall deep inside a search
        oracle = ct.TargetOracle(target)
        partial = {n: ct.scan_tree(tree, oracle, ct.ScanBudget.comparisons(n)).per_case
                   for n in range(full.tests_used + 1)}
        for k in range(1, total + 1):
            if stop == "cancel":
                r = ct.scan_tree(tree, oracle, cancel=Counting(k))
            else:  # the deadline passes at the k-th reading after the start
                monkeypatch.setattr(ct.retrieval, "time", Clock())
                r = ct.scan_tree(tree, oracle, ct.ScanBudget.deadline(k))
                monkeypatch.undo()
            tested = sum(1 for check in before_test if check < k)
            inside = k not in before_test  # the stop fell inside an arc's searches
            assert r.tests_used == tested, k
            assert r.per_case == partial[tested - 1 if inside else tested], k


class TestScanBudget:
    def test_comparison_budget_must_be_non_negative(self):
        with pytest.raises(ValueError):
            ct.ScanBudget.comparisons(-1)
        assert ct.ScanBudget.comparisons(0).max_comparisons == 0

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
    def test_comparison_budget_must_be_an_int(self, n):
        # a scan stops when the tests used equal the budget, which no other
        # value ever does
        with pytest.raises(ValueError):
            ct.ScanBudget.comparisons(n)
        with pytest.raises(ValueError):
            ct.ScanBudget("comparisons", max_comparisons=n)

    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError):
            ct.ScanBudget.deadline(0.0)
        with pytest.raises(ValueError):
            ct.ScanBudget.deadline(-1.0)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), True, "5"])
    def test_deadline_must_be_finite(self, seconds):
        with pytest.raises(ValueError):
            ct.ScanBudget.deadline(seconds)

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
        by_id = {c.id: c for c in cases}
        reordered = [by_id[cid] for cid in ("case2", "case1", "case3")]
        r = ct.scan_linear(reordered, ct.TargetOracle(exact_case1_target),
                           ct.ScanBudget.comparisons(2))
        assert r.per_case["case2"].evaluated
        assert not r.per_case["case1"].evaluated
        assert not r.per_case["case3"].evaluated
        assert r.tests_used == 2
        assert r.best_case == "case2"

    def test_empty_target_rejected(self, three_case_base):
        cases, _ = three_case_base
        with pytest.raises(ValueError, match="empty target"):
            ct.scan_linear(cases, ct.TargetOracle(ct.TargetCase(perceptions=())))

    def test_duplicate_case_id_rejected(self, three_case_base, exact_case1_target):
        cases, _ = three_case_base
        with pytest.raises(ct.TreeError, match="duplicate case id"):
            ct.scan_linear(cases + cases[:1], ct.TargetOracle(exact_case1_target))

    def test_evaluation_failure_carries_partial_result(self, three_case_base,
                                                       exact_case1_target):
        # the partial result of a scan whose k-th completion query fails is a
        # scan of the cases before the one whose search asked it
        cases, _ = three_case_base

        class FailingTarget:
            """Stands in for the target; its k-th completion query raises."""

            def __init__(self, k):
                self.k = k

            def __len__(self):
                return len(exact_case1_target)

            def completions(self, name, values, desired):
                self.k -= 1
                if self.k == 0:
                    raise ConnectionError("context box went away")
                return exact_case1_target.completions(name, values, desired)

        ends = list(itertools.accumulate(len(c.perceptions) for c in cases))
        unevaluated = ct.CaseOutcome(0.0, 0, False, False, ct.Substitution())
        for k in range(1, ends[-1] + 1):
            failing = sum(1 for end in ends if end < k)
            with pytest.raises(ct.RetrievalError,
                               match=f"evaluation failed on {cases[failing].id}: ") as err:
                ct.scan_linear(cases, ct.TargetOracle(FailingTarget(k)))
            before = ct.scan_linear(cases[:failing], ct.TargetOracle(exact_case1_target))
            partial = err.value.partial
            assert partial.per_case == {c.id: before.per_case.get(c.id, unevaluated)
                                        for c in cases}, k
            assert ((partial.best_case, partial.score, partial.substitution, partial.tests_used)
                    == (before.best_case, before.score, before.substitution, before.tests_used))

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
