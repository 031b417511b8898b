"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Wall-clock numbers are hardware-bound, so the gating checks are engine
equivalence, structural fidelity, and qualitative reproduction of the
benchmark trends; timing is reported softly by criterion 8.
"""

from __future__ import annotations

import random
import time

import pytest

import casetree as ct
from make_fixtures import (
    BUDGET_STEP,
    RETRIEVAL_THRESHOLD,
    SWEEP_REPETITIONS,
    SWEEP_SEED,
    TARGET_SEEDS,
)
from support import brute_force_similarity, random_base, random_target


@pytest.fixture(scope="module")
def bench(fixture_dir):
    """The committed 50-case benchmark: base, tree, targets, expert sets."""
    ctx = ct.parse_context((fixture_dir / "football.ctx.xml").read_text())
    base, priority = ct.parse_case_base(
        (fixture_dir / "bench50.cases.xml").read_text(), ctx
    )
    truth = ct.load_ground_truth((fixture_dir / "bench50.truth.txt").read_text())
    targets = {}
    for seed in TARGET_SEEDS:
        world = ct.load_snapshot((fixture_dir / f"w{seed}n6.world").read_text())
        targets[world.wid] = ct.elaborate(world, world.self_id, ctx=ctx)
    tree = ct.build_tree(base, priority)
    return {"ctx": ctx, "base": base, "priority": priority, "tree": tree,
            "targets": targets, "truth": truth}


def report(n: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {n} {name}: {status}{suffix}")
    return ok


def test_criterion_1_oracle_equivalence():
    """Tree scan (prune off, unbounded) and linear scan agree everywhere."""
    started = time.perf_counter()
    trials = 0
    seed = 0
    worst = 0.0
    while trials < 200:
        seed += 1
        base = random_base(seed, 1 + seed % 50)
        target = random_target(seed + 5000)
        if not base or not len(target):
            continue
        trials += 1
        tree = ct.build_tree(base, ct.FOOTBALL_PRIORITY)
        oracle = ct.TargetOracle(target)
        tree_result = ct.scan_tree(tree, oracle, prune=False)
        linear_result = ct.scan_linear(base, oracle)
        assert tree_result.best_case == linear_result.best_case, seed
        for cid in tree_result.per_case:
            delta = abs(tree_result.per_case[cid].score
                        - linear_result.per_case[cid].score)
            worst = max(worst, delta)
            assert delta <= 1e-9, (seed, cid, delta)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"equivalence sweep took {elapsed:.1f}s"
    assert report(1, "oracle equivalence", True,
                  f"200 bases, worst delta {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_tree_structure(three_case_base):
    """The three-case fixture compiles to the expected shared-prefix tree."""
    cases, priority = three_case_base
    tree = ct.build_tree(cases, priority)
    assert tree.node_count == 5
    assert tree.leaf_count == 3
    assert tree.depth == 3
    assert len(tree.roots) == 1, "all cases must share one root node"
    root = tree.roots[0]
    assert root.label() == "hasball(me)"
    assert sorted(arc.test for arc in root.arcs) == [False, True]
    assert frozenset().union(*(a.below for a in root.arcs)) == {
        "case1", "case2", "case3",
    }
    assert sorted(n.label() for n in tree.iter_nodes()) == [
        "distance(ball,?A)",
        "distance(ball,?B)",
        "hasball(me)",
        "partner(?A)",
        "partner(?B)",
    ]
    assert report(2, "tree compiler fidelity", True, "5 nodes, 3 leaves, shared root")


def test_criterion_3_similarity_kernel(case1, two_of_three_target):
    """Hand-checked kernel value, cross-checked by brute-force enumeration."""
    got = ct.similarity(case1, two_of_three_target, ct.SimilarityParams(0.5))
    assert got == pytest.approx(0.574713, abs=1e-6)
    brute = brute_force_similarity(case1, two_of_three_target, 0.5)
    assert got == pytest.approx(brute, abs=1e-12)
    assert report(3, "similarity kernel", True, f"score {got:.6f}")


def test_criterion_4_alpha_nesting(bench):
    """Retrieved sets shrink monotonically as alpha grows, on every target."""
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
    violations = 0
    checks = 0
    for target in bench["targets"].values():
        previous = None
        for alpha in alphas:
            c2, _ = ct.retrieve_set(target, bench["base"],
                                    ct.SimilarityParams(alpha),
                                    RETRIEVAL_THRESHOLD)
            if previous is not None:
                checks += 1
                if not c2 <= previous:
                    violations += 1
            previous = c2
    assert violations == 0
    assert report(4, "alpha nesting", True,
                  f"{checks} nested-pair checks, 0 violations")


def test_criterion_5_memory_curve():
    """Tree storage never exceeds flat storage; strictly less once any two
    acquired cases share their highest-priority perception."""
    stream = random_base(31, 100)
    assert len(stream) == 100
    rows = ct.memory_curve(stream, ct.FOOTBALL_PRIORITY)
    assert len(rows) == 100

    first_perceptions = []
    sharing_from = None
    for i, case in enumerate(stream):
        p = min(case.perceptions, key=lambda q: ct.FOOTBALL_PRIORITY.index(q.name))
        key = (p.name, p.values, p.choice)
        if sharing_from is None and key in first_perceptions:
            sharing_from = i
        first_perceptions.append(key)

    for i, (count, linear, tree) in enumerate(rows):
        assert count == i + 1
        assert tree <= linear
        if sharing_from is not None and i >= sharing_from:
            assert tree < linear, f"prefix {count}: no saving despite sharing"
    saved = rows[-1][1] - rows[-1][2]
    assert report(5, "memory curve", True,
                  f"final {rows[-1][1]} flat vs {rows[-1][2]} tree ({saved} saved)")


def test_criterion_6_anytime_contract(bench):
    """Scores grow monotonically with budget and land exactly on the offline
    similarity at full scan; the budget is never overdrawn."""
    tree = bench["tree"]
    full = tree.arc_count()
    for target in bench["targets"].values():
        oracle = ct.TargetOracle(target)
        offline = {c.id: ct.similarity(c, target) for c in bench["base"]}
        previous = {c.id: 0.0 for c in bench["base"]}
        for budget in range(0, full + 1):
            result = ct.scan_tree(tree, oracle, ct.ScanBudget.comparisons(budget),
                                  prune=False)
            assert result.tests_used <= budget
            for cid, outcome in result.per_case.items():
                assert outcome.score >= previous[cid] - 1e-15, (budget, cid)
                previous[cid] = outcome.score
        for cid, score in previous.items():
            assert score == pytest.approx(offline[cid], abs=1e-12), cid
    assert report(6, "anytime contract", True,
                  f"budgets 0..{full} on {len(bench['targets'])} targets")


def test_criterion_7_budget_dominance(bench):
    """Tree retrieval converges to its plateau earlier than the linear scan
    and matches or beats it on most intermediate budgets."""
    tree = bench["tree"]
    base = bench["base"]
    full = max(tree.arc_count(), ct.linear_perception_count(base))
    budgets = list(range(0, full + BUDGET_STEP + 1, BUDGET_STEP))
    rows = ct.sweep_budget(bench["targets"], tree, bench["truth"],
                           budgets, repetitions=SWEEP_REPETITIONS,
                           seed=SWEEP_SEED, threshold=RETRIEVAL_THRESHOLD,
                           prune=True)

    shares = {}
    for column in ("precision", "recall"):
        wins = total = 0
        for wid in bench["targets"]:
            tree_series = {r.budget: getattr(r, column) for r in rows
                           if r.engine == "tree" and r.target == wid}
            lin_series = {r.budget: getattr(r, column) for r in rows
                          if r.engine == "linear" and r.target == wid}
            for b in budgets:
                if 0 < b < full:
                    total += 1
                    wins += tree_series[b] >= lin_series[b] - 1e-12
        shares[column] = wins / total

    # the hit fraction over the expert set is the monotone quantity; under
    # the harness's swapped naming it is printed as the "precision" column
    assert shares["precision"] >= 0.70, shares

    for wid in bench["targets"]:
        tree_series = [(r.budget, r.precision) for r in rows
                       if r.engine == "tree" and r.target == wid]
        lin_series = [(r.budget, r.precision) for r in rows
                      if r.engine == "linear" and r.target == wid]
        plateau_tree = tree_series[-1][1]
        plateau_lin = lin_series[-1][1]
        tree_at = next(b for b, v in tree_series if v >= 0.99 * plateau_tree)
        lin_at = next(b for b, v in lin_series if v >= 0.99 * plateau_lin)
        assert tree_at < lin_at, (wid, tree_at, lin_at)

    assert report(7, "budget dominance", True,
                  f"hit-fraction share {shares['precision']:.0%}, "
                  f"swapped-name share {shares['recall']:.0%}")


def test_criterion_8_soft_timing(bench):
    """Full retrieval under 10 ms on commodity hardware; reported, not gating."""
    tree = bench["tree"]
    target = next(iter(bench["targets"].values()))
    oracle = ct.TargetOracle(target)
    best = min(
        _timed(lambda: ct.scan_tree(tree, oracle)) for _ in range(5)
    )
    ok = best < 0.010
    report(8, "soft timing", ok, f"full 50-case retrieval {best * 1000:.2f} ms")
    # soft criterion: the measurement is informative, not gating


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_9_metrics_identity():
    """1,000 random set pairs satisfy the count identity and both ratio
    formulas exactly."""
    rng = random.Random(97)
    universe = [f"c{i:03d}" for i in range(60)]
    for _ in range(1000):
        c1 = frozenset(rng.sample(universe, rng.randint(0, 40)))
        c2 = frozenset(rng.sample(universe, rng.randint(0, 40)))
        row = ct.metrics(c1, c2)
        inter = len(c1 & c2)
        assert row.n_correct == inter
        assert row.n_false == len(c2) - inter
        assert row.n_missed == len(c1) - inter
        assert row.n_total == row.n_correct + row.n_missed
        assert row.recall == (inter / len(c2) if c2 else 0.0)
        assert row.precision == (inter / len(c1) if c1 else 0.0)
    assert report(9, "metrics identity", True, "1000 random set pairs")
