from __future__ import annotations

import dataclasses
import itertools
import os
import pickle
import re
import subprocess
import sys
import textwrap
import threading
import time
from collections import Counter, deque
from pathlib import Path
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import casetree as ct
from casetree.cases import mask_weight
from casetree.similarity import coverage_table, objective, scored_unify
from support import (brute_force_optimum, brute_force_similarity, random_base, random_target,
                     substitute, zero_odd_weights)
import scan_digest


@pytest.fixture()
def three_tree(three_case_base):
    cases, priority = three_case_base
    return ct.build_tree(cases, priority)


def tree_and_oracle(three_case_base, target):
    cases, priority = three_case_base
    return ct.build_tree(cases, priority), ct.TargetOracle(target)


def reference_completions(target, name, values, desired):
    """``TargetCase.completions`` as a matcher that tries every perception of
    the target against the pattern, argument by argument."""
    labels = ct.cases.pattern_labels(values)
    out = set()
    for entry in target.perceptions:
        if (entry.name, entry.choice) != (name, desired) or len(entry.values) != len(values):
            continue
        binding = {}
        for pv, tv in zip(values, entry.values):
            if pv.kind == "generic":
                if tv.kind != "concrete" or binding.setdefault(pv.name, tv.name) != tv.name:
                    break
            elif pv != tv:
                break
        else:
            row = tuple(map(binding.__getitem__, labels))
            if len(set(row)) == len(row):
                out.add(row)
    return sorted(out)


# a small vocabulary, so that patterns often hit and perceptions often share
# a shape: "Agent.10" sorts before "Agent.2", labels are drawn out of sorted
# order and may repeat, and "r" never occurs in a target
_IDS = ("Agent.2", "Agent.10")
_CHOICES = (True, False)
_target_values = st.one_of(st.sampled_from(_IDS).map(ct.concrete),
                           st.sampled_from((ct.ME, ct.const("ball", "Ball"))))
_perceptions = st.builds(ct.Perception, st.sampled_from("pq"),
                         st.lists(_target_values, max_size=3).map(tuple),
                         st.sampled_from(_CHOICES))
_labels = st.sampled_from("BCA")
P, A2, A10 = ct.Perception, ct.concrete("Agent.2"), ct.concrete("Agent.10")


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
                    held = set(target.perceptions)
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

    @given(st.lists(_perceptions, max_size=40, unique=True), st.sampled_from("pqr"),
           st.lists(st.one_of(_target_values, _labels.map(ct.generic)), max_size=3),
           st.sampled_from(_CHOICES), st.one_of(st.none(), st.integers(0, 39)),
           st.lists(st.one_of(st.none(), _labels), min_size=3, max_size=3))
    @example([P("p", (A2, A2), True), P("p", (A2, A10), True)],
             "q", [], False, 1, ["B", "A", None])  # a permutation; an id twice
    @example([P("p", (A2, A10), True), P("p", (A10, A2), True)],
             "q", [], False, 0, [None, "A", None])  # a concrete id in the pattern
    @example([P("p", (A2, A2, A2), True), P("p", (A10, A10, A2), True)],
             "q", [], False, 1, ["A", "A", "B"])  # a label twice, one id for two
    @example([P("p", (A2,), True), P("p", (A10,), True)],
             "q", [], False, 0, ["A", None, None])  # one slot, ids out of order
    @example([P("p", (A2, A10), True), P("p", (A2, A2), True)],
             "q", [], False, 0, ["A", "B", None])  # two labels in slot order
    @example([P("p", (A2, A10), True), P("p", (A10, A2), True)],
             "q", [], False, 0, ["B", "A", None])  # and against it: rows re-sorted
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_perception_matcher(self, perceptions, name, values, desired,
                                               held, labels):
        # the same rows in the same order as trying every perception. When
        # ``held`` names a perception, the pattern generalizes it instead,
        # each label standing in for the id in its slot, so that it hits
        target = ct.TargetCase(tuple(perceptions))
        if perceptions and held is not None:
            p = perceptions[held % len(perceptions)]
            name, desired = p.name, p.choice
            values = [v if label is None or v.kind != "concrete" else ct.generic(label)
                      for v, label in zip(p.values, labels)]
        values = tuple(values)
        assert (ct.TargetOracle(target).completions(name, values, desired)
                == reference_completions(target, name, values, desired))

    @pytest.mark.parametrize("twice", [P("q", (ct.ME,), False), P("p", (A2,), True),
                                       P("p", (A2, A10), True)],
                             ids=["ground", "one slot", "two slots"])
    def test_a_perception_given_twice_is_rejected(self, twice):
        # a target holds each perception once, as a generic case does; the
        # others share a key with the repeated one but not its row
        others = (P("q", (ct.ME,), True), P("p", (A10,), True), P("p", (A10, A2), True))
        with pytest.raises(ct.CaseError) as err:
            ct.TargetCase((twice, *others, twice), origin="w7")
        assert str(err.value) == "target from w7: duplicate perception"

    def test_returned_rows_belong_to_the_caller(self):
        # ground and one-agent-slot answers are copies of stored rows: a caller
        # that grows or empties the list it was given changes no later answer
        world = ct.generate_world(5, 22)
        target = ct.elaborate(world, world.self_id, 120.0)
        questions = {(p.name, tuple(ct.generic(f"L{k}") if v.kind == "concrete" else v
                                    for k, v in enumerate(p.values)), p.choice)
                     for p in target.perceptions}
        assert any(len(q[1]) == 1 and q[1][0].kind == "generic" for q in questions)
        assert any(not ct.cases.pattern_labels(q[1]) for q in questions)
        for q in sorted(questions, key=repr):
            expected = reference_completions(target, *q)
            assert expected
            target.completions(*q).append(("Agent.99",) * len(expected[0]))
            assert target.completions(*q) == expected
            target.completions(*q).clear()
            assert target.completions(*q) == expected

    def test_rows_do_not_depend_on_the_order_of_lookups(self):
        # the index is built with the target, so lookups leave it as it was:
        # two equal targets asked in opposite orders, one of them twice, give
        # the per-perception matcher's rows
        tree = ct.build_tree(random_base(2, 40, max_players=22), ct.FOOTBALL_PRIORITY)
        questions = [(arc.predicate, arc.values, arc.test)
                     for node in tree.iter_nodes() for arc in node.arcs]
        questions += [("hasBall", (ct.ME,), "long"), ("ratio", (ct.generic("A"),), "even")]
        assert len({(name, test) for name, _, test in questions}) > 10
        assert any(len(ct.cases.pattern_labels(values)) == 2 for _, values, _ in questions)
        for seed in (5, 6):
            world = ct.generate_world(seed, 22)
            first, second = (ct.elaborate(world, world.self_id, 120.0) for _ in range(2))
            forward = [first.completions(*q) for q in questions]
            backward = [second.completions(*q) for q in reversed(questions)][::-1]
            again = [first.completions(*q) for q in questions]
            expected = [reference_completions(first, *q) for q in questions]
            assert forward == backward == again == expected

    def test_a_stand_in_oracle_scans_as_the_target_oracle_does(self, fixture_dir,
                                                               football_ctx, monkeypatch):
        # a stand-in that exposes only target, size and completions (as a
        # benchmark's timing wrapper does) gives the same results; scan_tree
        # asks its completions once per test, and scan_linear scores each
        # case it evaluates through the module attribute a wrapper replaces
        class StandIn:
            __slots__ = ("target", "size", "asked")

            def __init__(self, target):
                self.target, self.size, self.asked = target, len(target), 0

            def completions(self, name, values, desired):
                self.asked += 1
                return self.target.completions(name, values, desired)

        scored = []
        original = ct.retrieval.scored_unify

        def counted(case, *args):
            scored.append(case.id)
            return original(case, *args)

        monkeypatch.setattr(ct.retrieval, "scored_unify", counted)
        base, priority = ct.parse_case_base(
            (fixture_dir / "bench50.cases.xml").read_text(), football_ctx)
        tree = ct.build_tree(base, priority)
        for path in sorted(fixture_dir.glob("w*.world")):
            world = ct.load_snapshot(path.read_text())
            target = ct.elaborate(world, world.self_id, ctx=football_ctx)
            for scan in (lambda o: ct.scan_tree(tree, o),
                         lambda o: ct.scan_tree(tree, o, ct.ScanBudget.comparisons(40)),
                         lambda o: ct.scan_tree(tree, o, cancel=threading.Event())):
                stand_in = StandIn(target)
                got = scan(stand_in)
                assert masked([got]) == masked([scan(ct.TargetOracle(target))])
                assert stand_in.asked == got.tests_used > 0
            for budget in (ct.UNBOUNDED, ct.ScanBudget.comparisons(40)):
                scored.clear()
                got = ct.scan_linear(base, StandIn(target), budget)
                assert scored == [cid for cid, oc in got.per_case.items() if oc.evaluated]
                assert scored
                assert masked([got]) == masked([ct.scan_linear(base, ct.TargetOracle(target),
                                                               budget)])

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
        assert dict(exact.per_case["case3"].substitution.pairs) == {
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
        assert all(oc.scanned == 0 and not oc.evaluated for oc in r.per_case.values())
        assert (r.best_case, r.score) == (None, 0.0)

        # cancelled during the first of the root node's two tests: the second
        # is never asked and no case is searched, but the tested arc counts
        asked = []

        class CancellingOracle(ct.TargetOracle):
            def completions(self, name, values, desired):
                cancel.set()
                asked.append(desired)
                return super().completions(name, values, desired)

        cancel.clear()
        r = ct.scan_tree(tree, CancellingOracle(exact_case1_target), cancel=cancel)
        [root] = tree.roots
        assert len(root.arcs) == 2
        assert r.tests_used == len(asked) == 1
        [first] = [arc for arc in root.arcs if arc.test == asked[0]]
        assert {cid: oc.scanned for cid, oc in r.per_case.items()} == {
            cid: int(cid in first.below) for cid in tree.cases}
        assert not any(oc.evaluated for oc in r.per_case.values())
        assert (r.best_case, r.score) == (None, 0.0)

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
        # a deadline that passes inside the first test stops the scan before
        # any search: the tested arc counts, and no case is evaluated
        r = ct.scan_tree(tree, oracle, ct.ScanBudget.deadline(0.002))
        assert r.tests_used == 1
        scanned = {cid for cid, oc in r.per_case.items() if oc.scanned}
        assert scanned in [set(arc.below) for arc in tree.roots[0].arcs]
        assert all(oc.scanned <= 1 and not oc.evaluated for oc in r.per_case.values())
        # a deadline that never passes gives the unbounded scan's answer
        generous = ct.scan_tree(tree, oracle, ct.ScanBudget.deadline(10.0), prune=False)
        full = ct.scan_tree(tree, ct.TargetOracle(exact_case1_target), prune=False)
        assert full.best_case == "case1"
        assert ((generous.best_case, generous.score, generous.substitution)
                == (full.best_case, full.score, full.substitution))
        assert all(oc == full.per_case[cid] for cid, oc in generous.per_case.items()
                   if oc.evaluated)
        assert generous.tests_used <= tree.arc_count()

    def test_top1_does_not_depend_on_the_hash_seed(self, fixture_dir):
        # the case searched ahead of its bound is the first in base order, so
        # a top-1 scan that nothing stops gives one result under every hash
        # seed, its unevaluated cases included
        script = textwrap.dedent("""\
            import dataclasses, sys, threading
            from pathlib import Path
            import casetree as ct
            fixtures = Path(sys.argv[1])
            ctx = ct.parse_context((fixtures / "football.ctx.xml").read_text())
            cases, priority = ct.parse_case_base(
                (fixtures / "bench50.cases.xml").read_text(), ctx)
            tree = ct.build_tree(cases, priority)
            for path in sorted(fixtures.glob("w*.world")):
                world = ct.load_snapshot(path.read_text())
                oracle = ct.TargetOracle(ct.elaborate(world, world.self_id, ctx=ctx))
                r = ct.scan_tree(tree, oracle, cancel=threading.Event())
                print(path.name, repr(dataclasses.replace(r, elapsed_us=0)))
            """)
        src = Path(ct.__file__).resolve().parent.parent
        outputs = []
        for seed in ("0", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [str(src),
                                                                os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", script, str(fixture_dir)], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.splitlines())
        assert len(outputs[0]) == len(list(fixture_dir.glob("w*.world"))) == 5
        assert outputs[0] == outputs[1]

    def test_results_match_the_committed_digest(self):
        # a grid of scans, both engines and similarity, pinned by the sha256
        # of each result's repr: a change meant to keep behaviour keeps every
        # line (regenerate with tests/scan_digest.py --write only on purpose)
        want = scan_digest.DIGEST.read_text().splitlines()
        got = scan_digest.digest_lines()
        for line, (expected, actual) in enumerate(zip(want, got), start=1):
            assert actual == expected, f"line {line} differs: {expected.rsplit(' ', 1)[0]}"
        assert len(got) == len(want) == 220

    def test_oracle_failure_carries_partial_results(self, three_case_base, exact_case1_target):
        # a failed test ends every walk where it stands, as a spent comparison
        # budget does: the partial result is the scan under a budget of the
        # three tests that succeeded, with the failed test counted, whether the
        # scan ranks every case or answers top-1 (under a cancel flag that is
        # never set)
        cases, priority = three_case_base
        tree = ct.build_tree(cases, priority)

        class FlakyOracle(ct.TargetOracle):
            calls = 0

            def completions(self, name, values, desired):
                self.calls += 1
                if self.calls > 3:
                    raise ConnectionError("context box went away")
                return super().completions(name, values, desired)

        for cancel in (None, threading.Event()):
            three = ct.scan_tree(tree, ct.TargetOracle(exact_case1_target),
                                 ct.ScanBudget.comparisons(3), prune=False, cancel=cancel)
            assert any(oc.evaluated and oc.score > 0 for oc in three.per_case.values())
            with pytest.raises(ct.RetrievalError, match="oracle failed at ") as err:
                ct.scan_tree(tree, FlakyOracle(exact_case1_target), prune=False, cancel=cancel)
            partial = err.value.partial
            assert partial is not None
            assert partial.tests_used == 4
            assert partial.per_case == three.per_case, cancel
            assert ((partial.best_case, partial.score, partial.substitution)
                    == (three.best_case, three.score, three.substitution))

    def test_oracle_failure_states_the_arc_in_full(self, three_case_base, exact_case1_target):
        # the message spells out the failing arc's node pattern and tested value
        cases, priority = three_case_base
        tree = ct.build_tree(cases, priority)

        class DistanceFails(ct.TargetOracle):
            def completions(self, name, values, desired):
                if name == "distance":
                    raise ConnectionError("context box went away")
                return super().completions(name, values, desired)

        for cancel in (None, threading.Event()):
            with pytest.raises(ct.RetrievalError) as err:
                ct.scan_tree(tree, DistanceFails(exact_case1_target), prune=False, cancel=cancel)
            assert str(err.value) == (
                "oracle failed at distance(ball,?A)=[long]: context box went away"), cancel

    @pytest.mark.parametrize("which", ["three", "random"])
    def test_each_case_is_searched_once_unless_a_stop_can_interrupt(
            self, monkeypatch, three_case_base, exact_case1_target, which):
        # a case's score depends only on its tested prefix, so it is searched
        # at most once, after its walk ends: with no deadline or cancel flag
        # every case whose prefix has a row is searched; with a cancel flag,
        # only the first case whose walk ends and those the top-1 answer needs,
        # each cut at the leader's score
        if which == "three":
            cases, priority = three_case_base
            target = exact_case1_target
        else:
            cases, priority = random_base(5, 12, max_players=8), ct.FOOTBALL_PRIORITY
            world = ct.generate_world(5, 8)
            target = ct.elaborate(world, world.self_id, radius=120)
        tree = ct.build_tree(cases, priority)
        oracle = ct.TargetOracle(target)
        case_of = {id(case.weights): case.id for case in cases}
        assert len(case_of) == len(cases)
        searched = {}  # per case, the arguments of each of its searches
        search = ct.retrieval._search_bindings

        def counting(sums, *args):
            searched.setdefault(case_of[id(sums.weights)], []).append((sums,) + args)
            return search(sums, *args)

        monkeypatch.setattr(ct.retrieval, "_search_bindings", counting)

        def scan(budget=ct.UNBOUNDED, cancel=None):
            searched.clear()
            r = ct.scan_tree(tree, oracle, budget, prune=False, cancel=cancel)
            assert all(len(made) == 1 for made in searched.values()), searched
            return r, set(searched)

        def lost(r):
            """The searched cases left unevaluated, each checked to have an
            exact score, searched again with no floor, that cannot beat the
            answer."""
            out = {cid for cid in searched if not r.per_case[cid].evaluated}
            for cid in out:
                weights, perceptions, scoring = searched[cid][0][:3]
                assert (-search(weights, perceptions, scoring)[0], cid) > (
                    -r.score, r.best_case), cid
            return out

        def injective(rows):
            return any(len(set(row)) == len(row) for row in rows)

        not_contradicted = [arc for node in tree.iter_nodes() for arc in node.arcs
                            if injective(oracle.completions(node.predicate, node.values,
                                                            arc.test))]
        with_rows = set().union(*(arc.below for arc in not_contradicted))
        full, cids = scan()
        assert cids == with_rows
        assert not lost(full)
        top, cids = scan(cancel=threading.Event())
        evaluated = {cid for cid, oc in top.per_case.items() if oc.evaluated}
        assert evaluated & with_rows == cids - lost(top)
        assert 0 < len(cids) < len(with_rows)
        assert all(full.per_case[cid].score < top.score or cid > top.best_case
                   for cid in lost(top))
        assert ((top.best_case, top.score, top.substitution)
                == (full.best_case, full.score, full.substitution))
        assert all(top.per_case[cid] == full.per_case[cid] for cid in evaluated)
        budget = ct.ScanBudget.comparisons(tree.arc_count() // 2)
        cut, cids = scan(budget)
        assert 0 < len(cids) <= len(cases)
        assert not lost(cut)
        assert cut.tests_used == budget.max_comparisons
        top_cut, cids = scan(budget, threading.Event())
        assert top_cut.tests_used <= budget.max_comparisons
        # the searched cases are the evaluated ones whose tested prefix has a
        # row, and those that lost to the answer
        rows = set(not_contradicted)
        assert cids - lost(top_cut) == {
            cid for cid, oc in top_cut.per_case.items() if oc.evaluated
            and any(arc in rows for arc in tree.paths[cid][:oc.scanned])}

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

    def test_concurrent_scans_share_one_target(self):
        # four threads scan one fresh target, whose index its constructor
        # built, with a short switch interval; each ranking and each top-1
        # answer equals a serial scan's, by repr
        tree = ct.build_tree(random_base(7, 40, max_players=10), ct.FOOTBALL_PRIORITY)

        def scans(target):
            oracle = ct.TargetOracle(target)
            return [re.sub(r"elapsed_us=\d+", "", repr(r)) for r in (
                ct.scan_tree(tree, oracle), ct.scan_tree(tree, oracle, prune=False),
                ct.scan_tree(tree, oracle, cancel=threading.Event()))]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(60, 64):
                world = ct.generate_world(seed, 10)
                serial = scans(ct.elaborate(world, world.self_id, 120.0))
                shared = ct.elaborate(world, world.self_id, 120.0)
                start = threading.Barrier(4)

                def run():
                    start.wait(timeout=30)
                    return scans(shared)

                with ThreadPoolExecutor(max_workers=4) as pool:
                    futures = [pool.submit(run) for _ in range(4)]
                    assert [f.result(timeout=60) for f in futures] == [serial] * 4
        finally:
            sys.setswitchinterval(interval)

    def test_concurrent_scans_fill_one_fresh_base(self, fixture_dir, football_ctx):
        # four threads scan one freshly parsed base, whose cases have not
        # been searched, so they race to fill each case's facts; with a
        # short switch interval each result equals a serial scan of a
        # separately parsed copy, by repr
        text = (fixture_dir / "bench50.cases.xml").read_text()
        targets = [ct.elaborate(world, world.self_id, 120.0, football_ctx)
                   for world in (ct.generate_world(seed, 10) for seed in (70, 71))]

        def scans(base, tree):
            # linear first: its searches fill the facts case after case, so
            # the threads meet at the same cases most often
            results = []
            for target in targets:
                oracle = ct.TargetOracle(target)
                results += [ct.scan_linear(base, oracle), ct.scan_tree(tree, oracle),
                            ct.scan_tree(tree, oracle, prune=False),
                            ct.scan_tree(tree, oracle, cancel=threading.Event())]
            return masked(results)

        copy, priority = ct.parse_case_base(text, football_ctx)
        serial = scans(copy, ct.build_tree(copy, priority))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                shared = ct.parse_case_base(text, football_ctx)[0]
                tree = ct.build_tree(shared, priority)
                assert all(case._facts is None for case in shared)
                start = threading.Barrier(4)

                def run():
                    start.wait(timeout=30)
                    return scans(shared, tree)

                with ThreadPoolExecutor(max_workers=4) as pool:
                    futures = [pool.submit(run) for _ in range(4)]
                    assert [f.result(timeout=120) for f in futures] == [serial] * 4
                assert all(case._facts is not None for case in shared)
        finally:
            sys.setswitchinterval(interval)

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
        # set makes the scan answer top-1 instead of ranking every case
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

        def question(arc):
            return arc.predicate, arc.values, arc.test

        # the arcs tested are the first ``scanned`` of each case's branch
        tested = {arc for cid, oc in r.per_case.items() for arc in tree.paths[cid][:oc.scanned]}
        assert Counter(q for q, _ in calls) == Counter(map(question, tested))
        assert len(calls) == len(tested) == r.tests_used <= budget
        had_row = {q: bool(rows) for q, rows in calls}
        if not cancel:
            # a ranking walks breadth first: replay that order over the answers
            queue = deque(tree.roots)
            order = []
            while queue:
                node = queue.popleft()
                for arc in node.arcs:
                    if arc in tested:
                        order.append(question(arc))
                        if had_row[question(arc)] or not prune:
                            queue.extend(arc.children)
            assert order == [q for q, _ in calls]
        prefix = {}  # per case, its best over its tested prefix, as brute force finds it
        held = set(target.perceptions)
        for case in base:
            oc = r.per_case[case.id]
            # every arc of its branch that was tested counts, for each case
            assert oc.scanned == sum(arc in tested for arc in tree.paths[case.id]), case.id
            branch = [had_row[question(arc)] for arc in tree.paths[case.id][:oc.scanned]]
            if prune:  # a contradicted arc ends the walk below it
                assert all(branch[:-1]), case.id
            assert oc.pruned == (prune and not all(branch)), case.id
            allowed = tree.order[case.id][:oc.scanned]
            prefix[case.id] = want_score, want_sub, want_matched = brute_force_optimum(
                case, target, alpha, allowed)
            assert oc.evaluated or cancel, case.id  # a ranking searches every case
            if not oc.evaluated:
                assert (oc.score, oc.substitution) == (0.0, ct.Substitution()), case.id
                continue
            assert oc.score == pytest.approx(want_score, abs=1e-12), case.id
            assert oc.substitution == want_sub, case.id
            binding = dict(oc.substitution.pairs)
            matched = tuple(i for i in sorted(allowed)
                            if substitute(case.perceptions[i], binding) in held)
            assert matched == want_matched, case.id
        if base:
            # top-1 or not, the answer is the best over the tested prefixes, and
            # every case that could tie it with a lower id was searched
            top = max(score for score, _, _ in prefix.values())
            assert r.score == pytest.approx(top, abs=1e-12)
            assert prefix[r.best_case][0] == pytest.approx(top, abs=1e-12)
            assert all(r.per_case[cid].evaluated for cid, (score, _, _) in prefix.items()
                       if cid < r.best_case and score >= top - 1e-12)

    @given(st.integers(0, 10_000), st.sampled_from(range(8, 23, 2)), st.booleans(),
           st.booleans(), st.sampled_from((0.0, 0.5, 1.0)))
    @settings(max_examples=20, deadline=None)
    def test_never_set_flag_answers_the_unbounded_top1(self, seed, players, zero, prune, alpha):
        # a top-1 scan that nothing stops returns the ranking's best case,
        # score and substitution. It searched each case at most once, and
        # left unevaluated only cases it never searched, whose bound cannot
        # beat its answer, and cases searched once whose exact score cannot
        # beat it either: their searches were cut at the leader
        base = random_base(seed % 50, 10, max_players=8, max_perceptions=6)
        if zero:
            base = [zero_odd_weights(c) for c in base]
        world = ct.generate_world(seed, players)
        target = ct.elaborate(world, world.self_id, radius=120)
        tree = ct.build_tree(base, ct.FOOTBALL_PRIORITY)
        oracle, params = ct.TargetOracle(target), ct.SimilarityParams(alpha)
        full = ct.scan_tree(tree, oracle, params=params, prune=prune)
        case_of = {id(case.weights): case.id for case in base}
        assert len(case_of) == len(base)
        searches = Counter()
        search = ct.retrieval._search_bindings

        def counting(sums, *args):
            searches[case_of[id(sums.weights)]] += 1
            return search(sums, *args)

        with mock.patch.object(ct.retrieval, "_search_bindings", counting):
            top = ct.scan_tree(tree, oracle, params=params, prune=prune,
                               cancel=threading.Event())
        assert ((top.best_case, top.score, top.substitution)
                == (full.best_case, full.score, full.substitution))
        assert max(searches.values(), default=0) <= 1
        leader = (-top.score, top.best_case)
        for case in base:
            oc = top.per_case[case.id]
            if oc.evaluated:
                assert oc == full.per_case[case.id], case.id
                continue
            assert (oc.score, oc.substitution) == (0.0, ct.Substitution()), case.id
            if searches[case.id]:  # its walk ended, so the ranking scored its prefix
                assert (-full.per_case[case.id].score, case.id) > leader, case.id
                continue
            # its bound: the tested positions that had rows, and the untested
            # ones unless a contradiction ended its walk
            order, branch = tree.order[case.id], tree.paths[case.id]
            positions = [i for i, arc in zip(order, branch[:oc.scanned])
                         if oracle.completions(arc.predicate, arc.values, arc.test)]
            if not oc.pruned:
                positions += order[oc.scanned:]
            bound = objective(case, coverage_table(len(target), len(case.perceptions), params))(
                *mask_weight(case.weights, sum(1 << i for i in positions)))
            assert full.per_case[case.id].score <= bound, case.id
            assert (-bound, case.id) > leader, case.id

    def test_equal_optima_go_to_the_lowest_id_whatever_the_branch_order(self):
        # "a" weighs its perceptions 0.1, 0.2, 0.7 in index order, and the
        # priority order tests them in reverse. Summed in that branch order its
        # full match is 0.9999999999999999; summed in index order, as the
        # search sums, it is 1.0. "b" matches the same perceptions with equal
        # weights, so both optima are 1.0 and the lower id must win. A bound
        # summed in branch order would search "b" first and then cut "a".
        perceptions = tuple(ct.Perception(name, (ct.ME,), True) for name in "xyz")
        a = ct.GenericCase("a", perceptions, (0.1, 0.2, 0.7))
        b = ct.GenericCase("b", perceptions, (1.0, 1.0, 1.0))
        tree = ct.build_tree([b, a], ("z", "y", "x"))
        assert tree.order["a"] == (2, 1, 0)
        assert 0.7 + 0.2 + 0.1 < 1.0 == 0.1 + 0.2 + 0.7
        oracle = ct.TargetOracle(ct.TargetCase(perceptions))
        for prune in (True, False):
            full = ct.scan_tree(tree, oracle, prune=prune)
            top = ct.scan_tree(tree, oracle, prune=prune, cancel=threading.Event())
            assert full.per_case["a"].score == full.per_case["b"].score == 1.0
            assert (top.best_case, top.score) == (full.best_case, full.score) == ("a", 1.0)

    @pytest.mark.parametrize("prune", [True, False])
    def test_a_lower_id_searched_after_the_leader_wins_a_tie(self, monkeypatch, prune):
        # "b" ends its walk first and leads; "a" reaches the same score later
        # and must still win, so its search is cut only below the leader's
        # score, where a higher id's is cut at it
        b = ct.GenericCase("b", (ct.Perception("x", (ct.generic("A"),), True),), (2.0,))
        a = ct.GenericCase("a", (ct.Perception("y", (ct.generic("A"),), True),), (1.0,))
        tree = ct.build_tree([b, a], ("x", "y"))
        oracle = ct.TargetOracle(ct.TargetCase((
            ct.Perception("x", (ct.concrete("Agent.1"),), True),
            ct.Perception("y", (ct.concrete("Agent.2"),), True))))
        full = ct.scan_tree(tree, oracle, prune=prune)
        assert full.per_case["a"].score == full.per_case["b"].score > 0
        searched = []
        search = ct.retrieval._search_bindings

        def recording(sums, *args):
            searched.append("a" if sums.weights is a.weights else "b")
            return search(sums, *args)

        monkeypatch.setattr(ct.retrieval, "_search_bindings", recording)
        top = ct.scan_tree(tree, oracle, prune=prune, cancel=threading.Event())
        assert searched == ["b", "a"]
        assert ((top.best_case, top.score, top.substitution)
                == (full.best_case, full.score, full.substitution))
        assert top.best_case == "a"
        assert top.per_case == full.per_case

    def test_top1_tests_fewer_arcs_than_the_tree_holds(self):
        # on a 22-player whole-pitch target the bound cuts arcs that pruning
        # alone would test
        world = ct.generate_world(3, 22)
        target = ct.elaborate(world, world.self_id, radius=120)
        tree = ct.build_tree(random_base(7, 30, max_players=8), ct.FOOTBALL_PRIORITY)
        oracle = ct.TargetOracle(target)
        full = ct.scan_tree(tree, oracle)
        top = ct.scan_tree(tree, oracle, cancel=threading.Event())
        assert top.tests_used < full.tests_used < tree.arc_count()
        assert ((top.best_case, top.score, top.substitution)
                == (full.best_case, full.score, full.substitution))

    @pytest.mark.parametrize("prune", [True, False])
    def test_a_stop_after_the_first_walk_ends_still_answers(self, prune):
        # the best-first walk runs deep before its first search; the first
        # case whose walk ends with a positive bound is searched at once, so a
        # stop inside any later test still answers that case, exactly
        world = ct.generate_world(3, 22)
        target = ct.elaborate(world, world.self_id, radius=120)
        tree = ct.build_tree(random_base(7, 30, max_players=8), ct.FOOTBALL_PRIORITY)
        oracle = ct.TargetOracle(target)
        full = ct.scan_tree(tree, oracle, prune=prune)
        cancel = threading.Event()

        class StopInside(ct.TargetOracle):
            """Sets the flag inside its ``k``-th test."""

            def __init__(self, k):
                super().__init__(target)
                self.k, self.calls = k, 0

            def completions(self, name, values, desired):
                self.calls += 1
                if self.calls == self.k:
                    cancel.set()
                return super().completions(name, values, desired)

        def ended_with_rows(r):
            for cid, oc in r.per_case.items():
                branch = tree.paths[cid]
                if oc.pruned or oc.scanned == len(branch):
                    if any(oracle.completions(arc.predicate, arc.values, arc.test)
                           for arc in branch[:oc.scanned]):
                        return True
            return False

        first = None  # the test after which a walk with a positive bound has ended
        total = ct.scan_tree(tree, oracle, prune=prune, cancel=cancel).tests_used
        for k in range(1, total + 1):
            cancel.clear()
            r = ct.scan_tree(tree, StopInside(k), prune=prune, cancel=cancel)
            assert r.tests_used == k
            assert (r.best_case is not None) == (first is not None), k
            if first is None and ended_with_rows(r):
                first = k
            for cid, oc in r.per_case.items():
                if oc.evaluated:
                    assert oc == full.per_case[cid], (k, cid)
        assert first is not None and first < total - 1

    @pytest.mark.parametrize("stop", ["cancel", "deadline"])
    def test_interrupt_inside_an_arc_changes_no_case(self, monkeypatch, stop):
        # one check before each oracle test and one at every node of each
        # search; a stop inside a case's search leaves that case unevaluated,
        # every case searched before it as the full scan leaves it, and every
        # walk where the tests before the stop left it; ten players, so that
        # some search still spans ten checks
        world = ct.generate_world(8, 10)
        target = ct.elaborate(world, world.self_id, radius=120)
        base = random_base(4, 5, max_players=8)
        tree = ct.build_tree(base, ct.FOOTBALL_PRIORITY)
        case_of = {id(case.weights): case.id for case in base}
        assert len(case_of) == len(base)

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
        searches = {}  # per case searched: the checks before and at the end of its search
        counting = Counting()
        search = ct.retrieval._search_bindings

        class Recording(ct.TargetOracle):
            def completions(self, name, values, desired):
                before_test.append(counting.checks)
                return super().completions(name, values, desired)

        def recording(sums, *args):
            first = counting.checks
            found = search(sums, *args)
            searches[case_of[id(sums.weights)]] = first, counting.checks
            return found

        monkeypatch.setattr(ct.retrieval, "_search_bindings", recording)
        full = ct.scan_tree(tree, Recording(target), cancel=counting)
        monkeypatch.undo()
        total = counting.checks
        assert max(last - first for first, last in searches.values()) >= 10  # deep stops
        oracle = ct.TargetOracle(target)
        for k in range(1, total + 1):
            if stop == "cancel":
                r = ct.scan_tree(tree, oracle, cancel=Counting(k))
            else:  # the deadline passes at the k-th reading after the start
                monkeypatch.setattr(ct.retrieval, "time", Clock())
                r = ct.scan_tree(tree, oracle, ct.ScanBudget.deadline(k))
                monkeypatch.undo()
            tested = sum(1 for check in before_test if check < k)
            assert r.tests_used == tested, k
            walked = ct.scan_tree(tree, oracle, ct.ScanBudget.comparisons(tested),
                                  cancel=Counting())
            for cid, oc in r.per_case.items():
                assert (oc.scanned, oc.pruned) == (walked.per_case[cid].scanned,
                                                   walked.per_case[cid].pruned), (k, cid)
                if cid in searches:  # evaluated exactly when its search ended before k
                    assert oc.evaluated == (searches[cid][1] < k), (k, cid)
                if oc.evaluated:
                    assert oc == full.per_case[cid], (k, cid)
                else:
                    assert (oc.score, oc.substitution) == (0.0, ct.Substitution()), (k, cid)


class TestCaseOutcome:
    def test_case_outcome_is_a_frozen_slotted_record(self):
        # its __init__ writes through the slots' setters; repr, ==, hash,
        # freezing and pickling stay the dataclass's own
        sub = ct.Substitution((("B", "Agent.4"), ("A", "Agent.2")))
        oc = ct.CaseOutcome(0.5, 3, True, True, sub)
        assert repr(oc) == ("CaseOutcome(score=0.5, scanned=3, pruned=True, evaluated=True, "
                            "substitution=Substitution(pairs=(('A', 'Agent.2'), "
                            "('B', 'Agent.4'))))")
        assert oc == ct.CaseOutcome(score=0.5, scanned=3, pruned=True, evaluated=True,
                                    substitution=sub)
        assert oc != ct.CaseOutcome(0.5, 3, False, True, sub)
        assert hash(oc) == hash((oc.score, oc.scanned, oc.pruned, oc.evaluated,
                                 oc.substitution))
        with pytest.raises(dataclasses.FrozenInstanceError):
            oc.score = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del oc.pruned
        copy = pickle.loads(pickle.dumps(oc))
        assert copy == oc and repr(copy) == repr(oc) and hash(copy) == hash(oc)
        assert not hasattr(oc, "__dict__")


def masked(results) -> list[str]:
    """Each result's repr, its elapsed time masked."""
    return [re.sub(r"elapsed_us=\d+", "", repr(r)) for r in results]


class TestCaseFacts:
    """A case's facts (``cases._case_facts``) and the answers built from them."""

    @staticmethod
    def check_answers(monkeypatch) -> list[tuple[ct.Substitution, ct.Substitution]]:
        """Check every binding search as the scans and dedupe make it: its
        pairs sorted by label, labels and ids distinct, and every
        Substitution the search path builds equal to the public
        constructor's by ==, repr and hash. Returns those built, each with
        the public constructor's."""
        built = []
        search, found = ct.cases._search_bindings, ct.cases._found_substitution

        def checked_search(*args):
            answer = search(*args)
            if answer is not None:
                labels, ids = [label for label, _ in answer[1]], [i for _, i in answer[1]]
                assert labels == sorted(set(labels)) and len(set(ids)) == len(ids), answer
            return answer

        def checked_found(pairs):
            sub, public = found(pairs), ct.Substitution(pairs)
            assert (sub, repr(sub), hash(sub)) == (public, repr(public), hash(public)), pairs
            built.append((sub, public))
            return sub

        for module in (ct.cases, ct.retrieval):
            monkeypatch.setattr(module, "_search_bindings", checked_search)
            monkeypatch.setattr(module, "_found_substitution", checked_found)
        return built

    @staticmethod
    def every_scan(base, tree, oracle, params=ct.SimilarityParams()) -> list:
        results = []
        for prune in (True, False):
            for budget in (ct.UNBOUNDED, ct.ScanBudget.comparisons(7),
                           ct.ScanBudget.comparisons(40)):
                results.append(ct.scan_tree(tree, oracle, budget, params, prune))
            results.append(ct.scan_tree(tree, oracle, params=params, prune=prune,
                                        cancel=threading.Event()))
        results.append(ct.scan_linear(base, oracle, params=params))
        return results

    def test_search_answers_are_sorted_injective_substitutions(self, monkeypatch,
                                                               football_ctx):
        built = self.check_answers(monkeypatch)
        for seed in range(6):
            base = random_base(seed + 30, 12, max_players=8)
            tree = ct.build_tree(base, ct.FOOTBALL_PRIORITY)
            for k in range(3):
                target = random_target(seed * 3 + k + 500, max_players=8)
                if len(target):
                    self.every_scan(base, tree, ct.TargetOracle(target))
            for a, b in itertools.product(base, repeat=2):
                ct.case_equivalent(a, b)
        # 22-player whole-pitch snapshots, world seeds 900000-900039
        base = random_base(8, 30, max_players=22)
        tree = ct.build_tree(base, ct.FOOTBALL_PRIORITY)
        for seed in range(900000, 900040):
            world = ct.generate_world(seed, 22)
            oracle = ct.TargetOracle(ct.elaborate(world, world.self_id, 120.0, football_ctx))
            ct.scan_tree(tree, oracle)
            ct.scan_tree(tree, oracle, cancel=threading.Event())
            ct.scan_linear(base, oracle)
        assert len(built) > 1000
        # ordering: the built substitutions sort as the public ones do
        sample = built[::len(built) // 120]
        for (a, public_a), (b, public_b) in itertools.product(sample, repeat=2):
            assert ((a < b, a <= b, a > b, a >= b)
                    == (public_a < public_b, public_a <= public_b, public_a > public_b,
                        public_a >= public_b)), (a, b)

    def test_cold_warm_and_fresh_bases_answer_alike(self, fixture_dir, football_ctx):
        # a base whose facts hold the sums of other targets and parameters,
        # met in another order, answers as one freshly parsed for each scan
        text = (fixture_dir / "bench50.cases.xml").read_text()
        worlds = ([ct.load_snapshot(path.read_text())
                   for path in sorted(fixture_dir.glob("w*.world"))]
                  + [ct.generate_world(seed, 22) for seed in (900000, 900001)])
        oracles = [ct.TargetOracle(ct.elaborate(world, world.self_id, radius, football_ctx))
                   for world in worlds for radius in (30.0, 120.0)]

        def parsed():
            base, priority = ct.parse_case_base(text, football_ctx)
            assert all(case._facts is None for case in base)
            return base, ct.build_tree(base, priority)

        def answers(order, fresh=False):
            base, tree = parsed()
            found = {}
            for k in order:
                for alpha in (0.5, 0.0):
                    if fresh:
                        base, tree = parsed()
                    found[k, alpha] = masked(self.every_scan(
                        base, tree, oracles[k], ct.SimilarityParams(alpha)))
            if fresh:
                base, tree = parsed()
            found["dedupe"] = [ct.case_equivalent(a, b) for a in base for b in base]
            return found, base

        forward = range(len(oracles))
        cold, base = answers(forward)
        assert all(case._facts is not None for case in base)
        warm, _ = answers(reversed(forward))
        fresh, _ = answers(forward, fresh=True)
        assert cold == warm == fresh

    def test_a_large_case_keeps_a_bounded_memo(self, football_ctx):
        # a case generalized from a whole 22-player target meets hundreds of
        # new masks per target; its memo stops at 2^12 sums, and every
        # answer, interrupted or not, equals a cold copy's
        def elaborated(seed):
            world = ct.generate_world(seed, 22)
            return ct.elaborate(world, world.self_id, 120.0, football_ctx)

        def cold(case):
            return ct.GenericCase(case.id, case.perceptions, case.weights, case.action)

        def nodes(n):
            asked = itertools.count(1)
            return lambda: next(asked) > n

        own = elaborated(900000)
        case = ct.generalize(own, "pass")
        assert len(case.perceptions) == 226
        def coverage(target):
            return coverage_table(len(target), len(case.perceptions), ct.SimilarityParams())

        for seed in range(900001, 900021):
            target = elaborated(seed)
            got = scored_unify(case, target, coverage(target), nodes(300))
            assert repr(got) == repr(scored_unify(cold(case), target, coverage(target),
                                                  nodes(300)))
        assert len(case._facts[1]) <= 4096
        # with the memo full, a search that ends sums the masks it lacks
        got = scored_unify(case, own, coverage(own))
        assert got[0] == 1.0
        assert repr(got) == repr(scored_unify(cold(case), own, coverage(own)))

    def test_facts_change_no_value_of_a_case(self, fixture_dir, football_ctx):
        # parsing and compiling leave the facts empty; once searches fill
        # them, a case's repr, == and hash are unchanged, and so is its
        # pickle round trip
        text = (fixture_dir / "bench50.cases.xml").read_text()
        base, priority = ct.parse_case_base(text, football_ctx)
        tree = ct.build_tree(base, priority)
        assert all(case._facts is None for case in base)
        assert all(case._facts is None for case in tree.cases.values())
        before = [(repr(case), hash(case)) for case in base]
        world = ct.generate_world(900000, 22)
        oracle = ct.TargetOracle(ct.elaborate(world, world.self_id, 120.0, football_ctx))
        ct.scan_tree(tree, oracle)
        ct.scan_linear(base, oracle)
        assert all(case._facts is not None for case in base)
        assert [(repr(case), hash(case)) for case in base] == before
        assert base == ct.parse_case_base(text, football_ctx)[0]
        for case in base:
            copy = pickle.loads(pickle.dumps(case))
            assert (copy, repr(copy), hash(copy)) == (case, repr(case), hash(case))


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

    def test_empty_target_rejected_as_by_the_tree(self):
        # with no cases, both engines still reject an empty target
        oracle = ct.TargetOracle(ct.TargetCase(perceptions=()))
        with pytest.raises(ValueError, match="empty target"):
            ct.scan_linear([], oracle)
        with pytest.raises(ValueError, match="empty target"):
            ct.scan_tree(ct.build_tree([], ()), oracle)

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
        # stop at check k leaves every case from the one holding it
        # unevaluated; ten players, so that some search spans ten checks
        world = ct.generate_world(8, 10)
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
