from __future__ import annotations

import csv
import io
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import casetree as ct
from support import random_base, random_target


def P(name, values, choice):
    return ct.Perception(name, tuple(values), choice)


@pytest.fixture()
def graded_base():
    """Four cases scoring exactly 1.0, 0.57, 0.3, 0.0 against graded_target."""
    return [
        ct.GenericCase("a", (P("hasball", [ct.ME], True),), (1.0,)),
        ct.GenericCase("b", (P("hasball", [ct.ME], True),
                             P("partner", [ct.generic("A")], True)), (0.57, 0.43)),
        ct.GenericCase("c", (P("hasball", [ct.ME], True),
                             P("partner", [ct.generic("A")], True)), (0.3, 0.7)),
        ct.GenericCase("d", (P("hasball", [ct.ME], False),), (1.0,)),
    ]


@pytest.fixture()
def graded_target():
    return ct.TargetCase(perceptions=(P("hasball", [ct.ME], True),), origin="graded")


class TestRetrieveSet:
    def test_threshold_zero_retrieves_everything(self, graded_base, graded_target):
        c2, th = ct.retrieve_set(graded_target, graded_base, threshold=0.0)
        assert c2 == {"a", "b", "c", "d"}
        assert th == 0.0

    def test_threshold_one_keeps_exact_matches(self, graded_base, graded_target):
        c2, th = ct.retrieve_set(graded_target, graded_base, threshold=1.0)
        assert c2 == {"a"}
        assert th == 1.0

    def test_mid_threshold(self, graded_base, graded_target):
        c2, th = ct.retrieve_set(graded_target, graded_base, threshold=0.5)
        assert c2 == {"a", "b"}
        assert th == pytest.approx(0.57)

    def test_empty_retrieval_has_no_threshold_statistic(self, graded_base):
        t = ct.TargetCase(perceptions=(P("partner", [ct.concrete("Agent.1")], False),))
        c2, th = ct.retrieve_set(t, graded_base, threshold=0.9)
        assert c2 == frozenset()
        assert th is None

    def test_threshold_validated(self, graded_base, graded_target):
        with pytest.raises(ValueError):
            ct.retrieve_set(graded_target, graded_base, threshold=1.5)


class TestMetrics:
    def test_perfect_retrieval(self):
        row = ct.metrics({"c1", "c2"}, {"c1", "c2"})
        assert row.recall == 1.0 and row.precision == 1.0
        assert row.n_false == 0 and row.n_missed == 0

    def test_mixed_sets(self):
        row = ct.metrics({"c1", "c2", "c3"}, {"c1", "c2", "c4"})
        assert row.n_correct == 2 and row.n_false == 1 and row.n_missed == 1
        assert row.recall == pytest.approx(2 / 3)
        assert row.precision == pytest.approx(2 / 3)
        assert row.n_total == 3

    def test_empty_retrieved_set(self):
        row = ct.metrics({"c1"}, set())
        assert row.recall == 0.0 and row.precision == 0.0

    def test_empty_expert_set(self):
        row = ct.metrics(set(), {"c1"})
        assert row.precision == 0.0 and row.recall == 0.0

    @given(
        c1=st.frozensets(st.integers(0, 30).map(str)),
        c2=st.frozensets(st.integers(0, 30).map(str)),
    )
    @settings(max_examples=300, deadline=None)
    def test_count_identity_and_formulas(self, c1, c2):
        row = ct.metrics(c1, c2)
        assert row.n_total == row.n_correct + row.n_missed
        assert row.n_correct == len(c1 & c2)
        assert row.n_false == len(c2 - c1)
        assert row.n_missed == len(c1 - c2)
        if c2:
            assert row.recall == pytest.approx(len(c1 & c2) / len(c2))
        if c1:
            assert row.precision == pytest.approx(len(c1 & c2) / len(c1))

    def test_order_free(self):
        row1 = ct.metrics(["x", "y"], ["y", "z"])
        row2 = ct.metrics(["y", "x"], ["z", "y"])
        assert row1 == row2


class TestSweepAlpha:
    def test_retrieved_sets_are_nested(self):
        base = random_base(9, 20)
        target = random_target(909)
        alphas = [0.0, 0.25, 0.5, 0.75, 1.0]
        previous = None
        for alpha in alphas:
            c2, _ = ct.retrieve_set(target, base, ct.SimilarityParams(alpha), 0.3)
            if previous is not None:
                assert c2 <= previous
            previous = c2

    def test_row_sizes_non_increasing(self, graded_base, graded_target):
        target = ct.TargetCase(graded_target.perceptions, origin="t")
        rows = ct.sweep_alpha(target, graded_base, {"a"}, 0.3, [0.0, 0.5, 1.0])
        sizes = [r.n_correct + r.n_false for r in rows]
        assert sizes == sorted(sizes, reverse=True)
        assert all(r.target == "t" for r in rows)
        assert [r.alpha for r in rows] == [0.0, 0.5, 1.0]

    def test_empty_alpha_list(self, graded_base, graded_target):
        assert ct.sweep_alpha(graded_target, graded_base, set(), 0.5, []) == []


class TestSweepBudget:
    def setup_case(self, seed=21, n=12):
        base = random_base(seed, n)
        target = random_target(seed + 404)
        tree = ct.build_tree(base, ct.FOOTBALL_PRIORITY)
        truth = {target.origin: frozenset(
            c.id for c in base if ct.similarity(c, target) >= 0.35
        )}
        return base, target, tree, truth

    def test_unbounded_budget_rows_agree(self):
        base, target, tree, truth = self.setup_case()
        big = ct.linear_perception_count(base) + tree.arc_count()
        rows = ct.sweep_budget({target.origin: target}, tree, truth,
                               budgets=[big], repetitions=5, seed=3,
                               threshold=0.35, prune=False)
        tree_row = next(r for r in rows if r.engine == "tree")
        lin_row = next(r for r in rows if r.engine == "linear")
        assert tree_row.recall == pytest.approx(lin_row.recall, abs=1e-9)
        assert tree_row.precision == pytest.approx(lin_row.precision, abs=1e-9)
        assert tree_row.recall == 1.0  # truth derived from the same scores

    @pytest.mark.parametrize("threshold", [2.0, -1.0, float("nan")])
    def test_threshold_validated(self, threshold):
        base, target, tree, truth = self.setup_case()
        with pytest.raises(ValueError, match="threshold"):
            ct.sweep_budget({target.origin: target}, tree, truth,
                            budgets=[0], repetitions=1, threshold=threshold)

    def test_budget_zero_rows_are_zero(self):
        base, target, tree, truth = self.setup_case()
        rows = ct.sweep_budget({target.origin: target}, tree, truth,
                               budgets=[0], repetitions=3, seed=3, threshold=0.35)
        assert all(r.recall == 0.0 and r.precision == 0.0 for r in rows)

    def test_tree_precision_column_monotone_without_pruning(self):
        # the precision column (hits over the expert set) grows with
        # budget because anytime scores only ever grow
        base, target, tree, truth = self.setup_case()
        budgets = list(range(0, tree.arc_count() + 5, 3))
        rows = ct.sweep_budget({target.origin: target}, tree, truth,
                               budgets=budgets, repetitions=1, seed=0,
                               threshold=0.35, prune=False)
        series = [r.precision for r in rows if r.engine == "tree"]
        assert all(b >= a - 1e-12 for a, b in zip(series, series[1:]))

    def test_linear_rows_match_scan_linear_spot_checks(self):
        base, target, tree, truth = self.setup_case(seed=5, n=8)
        oracle = ct.TargetOracle(target)
        budget = ct.linear_perception_count(base) // 2
        rows = ct.sweep_budget({target.origin: target}, tree, truth,
                               budgets=[budget], repetitions=4, seed=11,
                               threshold=0.35)
        lin_row = next(r for r in rows if r.engine == "linear")

        rng = random.Random(11)
        ids = [c.id for c in base]
        by_id = {c.id: c for c in base}
        recalls, used = [], []
        c1 = truth[target.origin]
        for _ in range(4):
            order = rng.sample(ids, len(ids))
            result = ct.scan_linear([by_id[cid] for cid in order], oracle,
                                    ct.ScanBudget.comparisons(budget))
            c2 = {cid for cid, oc in result.per_case.items()
                  if oc.evaluated and oc.score >= 0.35}
            recalls.append(ct.metrics(c1, c2).recall)
            used.append(result.tests_used)
        assert lin_row.recall == pytest.approx(sum(recalls) / 4, abs=1e-12)
        assert lin_row.tests_used == pytest.approx(sum(used) / 4, abs=1e-12)

    def test_repetitions_validated(self):
        base, target, tree, truth = self.setup_case(seed=6, n=4)
        with pytest.raises(ValueError):
            ct.sweep_budget({target.origin: target}, tree, truth,
                            budgets=[1], repetitions=0)


class TestMemoryCurve:
    def test_three_case_fixture(self, three_case_base):
        cases, priority = three_case_base
        rows = ct.memory_curve(cases, priority)
        assert rows[0][1] == rows[0][2]  # a single case shares nothing
        assert rows[-1] == (3, 8, 5)

    def test_duplicate_acquisitions_are_dropped(self, three_case_base):
        cases, priority = three_case_base
        renamed = ct.GenericCase("copy", tuple(
            ct.Perception(p.name, tuple(
                ct.generic("Q") if v.kind == "generic" else v for v in p.values
            ), p.choice) for p in cases[0].perceptions
        ), cases[0].weights)
        rows = ct.memory_curve(list(cases) + [renamed], priority)
        assert len(rows) == 3
        assert rows[-1] == (3, 8, 5)

    def test_hundred_case_stream_never_exceeds_linear(self):
        stream = random_base(31, 100)
        rows = ct.memory_curve(stream, ct.FOOTBALL_PRIORITY)
        for _, linear, tree in rows:
            assert tree <= linear


class TestFixtureFormats:
    def test_ground_truth_round_trip(self):
        truth = {"w1": frozenset({"c1", "c2"}), "w2": frozenset()}
        text = ct.format_ground_truth(truth)
        assert ct.load_ground_truth(text) == truth

    @pytest.mark.parametrize("truth, bad", [
        ({"w1": {"c,1", "c2"}}, "c,1"),
        ({"a:b": {"c3"}}, "a:b"),
        ({"w3": {" c4"}}, " c4"),
        ({"w4": {"c5\n"}}, "c5\n"),
        ({"w\r5": set()}, "w\r5"),
        ({"w6": {""}}, ""),
        ({"": set()}, ""),
        ({"#w7": set()}, "#w7"),
    ])
    def test_ground_truth_rejects_an_id_it_cannot_give_back(self, truth, bad):
        with pytest.raises(ValueError) as err:
            ct.format_ground_truth(truth)
        assert str(err.value) == f"ground truth cannot hold id {bad!r}"

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text(max_size=4),
                           st.frozensets(st.text(max_size=4), max_size=3), max_size=3))
    def test_ground_truth_gives_back_whatever_it_writes(self, truth):
        try:
            text = ct.format_ground_truth(truth)
        except ValueError:
            return
        assert ct.load_ground_truth(text) == truth

    def test_ground_truth_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            ct.load_ground_truth("w1 c1,c2\n")

    def test_ground_truth_rejects_a_target_given_twice(self):
        with pytest.raises(ValueError, match="line 2: target 'w1' given twice"):
            ct.load_ground_truth("w1: a,b\nw1: c\n")

    def test_ground_truth_skips_blank_and_comment_lines(self):
        text = "# bench truth\n\nw1: a,b\n   \n  # w2: c\nw2: c\n"
        assert ct.load_ground_truth(text) == {"w1": frozenset({"a", "b"}), "w2": frozenset({"c"})}

    def test_metric_csv_shape(self):
        row = ct.metrics({"a"}, {"a", "b"})
        text = ct.format_metric_csv([replace(row, target="t", alpha=0.5,
                                             budget=12, engine="tree", th_t=0.4)])
        lines = text.splitlines()
        assert lines[0] == ("target,alpha,budget,engine,recall,precision,"
                            "n_correct,n_false,n_missed,th_t,tests_used,elapsed_us")
        assert lines[1] == "t,0.5,12,tree,0.500000,1.000000,1,1,0,0.400000,0,0"
        assert text.endswith("\n")

    def test_metric_csv_quotes_a_field_only_where_it_must(self):
        row = ct.metrics({"a"}, {"a"})
        targets = ["w,1", 'w"2', "w\n3", "w\r4", "w 5"]
        text = ct.format_metric_csv([replace(row, target=t) for t in targets])
        assert text.splitlines()[1:3] == ['"w,1",0,,,1.000000,1.000000,1,0,0,,0,0',
                                          '"w""2",0,,,1.000000,1.000000,1,0,0,,0,0']
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert [len(r) for r in rows] == [12] * 6
        assert [r[0] for r in rows[1:]] == targets

    def test_retrieve_csv_reads_back_one_row_per_case(self, graded_base, graded_target):
        base = [replace(c, id=cid) for c, cid in zip(graded_base, ["a,1", 'b"', "c\r\n", "d"])]
        result = ct.scan_linear(base, ct.TargetOracle(graded_target))
        rows = list(csv.reader(io.StringIO(ct.format_retrieve_csv(result), newline="")))
        assert rows[0] == "case,score,scanned,pruned,evaluated,substitution,best".split(",")
        assert [r[0] for r in rows[1:]] == sorted(result.per_case)
        assert all(len(r) == 7 for r in rows)
        assert [r[6] for r in rows[1:]] == ["1" if r[0] == result.best_case else "0"
                                            for r in rows[1:]]

    def test_memory_csv_shape(self):
        text = ct.format_memory_csv([(1, 3, 3), (2, 5, 4)])
        assert text == "cases,linear_perceptions,tree_nodes\n1,3,3\n2,5,4\n"
