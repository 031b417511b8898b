"""Regenerate the committed benchmark fixtures.

Run from the repository root::

    python3 tests/make_fixtures.py

Deterministic: the same seeds always produce byte-identical files.
``fixture_texts`` returns them without writing, and ``test_cli.py`` compares
them with the committed ones. The expert sets mark the cases whose entire
perception pattern holds in the target (unification matches every
perception), which keeps them immune to pruning; the retrieval threshold
sits below every expert member's offline score so the threshold rule can
also over-retrieve, giving the quality metrics genuine false positives to
measure.

The script verifies the properties the benchmark suite relies on before
writing anything: nonempty expert sets with over-retrieval headroom,
tree-vs-linear dominance on a comparison-budget sweep, and earlier tree
convergence to its plateau.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import casetree as ct
from support import sample_case

FIXTURES = Path(__file__).parent / "fixtures"

BASE_SEED = 42
TARGET_SEEDS = (101, 202, 303, 404, 505)
N_CASES = 50
N_PER_TARGET = 4
PLAYERS = 6
RETRIEVAL_THRESHOLD = 0.45
SWEEP_SEED = 9
SWEEP_REPETITIONS = 100
BUDGET_STEP = 5


def build_base(seed: int = BASE_SEED, target_seeds=TARGET_SEEDS):
    rng = random.Random(seed)
    ctx = ct.football_context()
    worlds = [ct.generate_world(ts, PLAYERS) for ts in target_seeds]
    targets = {w.wid: ct.elaborate(w, w.self_id, ctx=ctx) for w in worlds}

    base: list[ct.GenericCase] = []

    def add(case: ct.GenericCase) -> bool:
        if any(ct.case_equivalent(case, b) for b in base):
            return False
        base.append(ct.GenericCase(f"c{len(base):03d}", case.perceptions,
                                   case.weights, case.action))
        return True

    # every target gets a few cases it matches in full
    for target in targets.values():
        made = 0
        while made < N_PER_TARGET:
            case = sample_case(rng, target, ctx, "tmp", mutation_rate=0.0)
            if len(case.perceptions) >= 2 and add(case):
                made += 1

    # filler cases from other situations, with mutated choice values
    fillers = [ct.generate_world(seed * 13 + i, PLAYERS) for i in range(3)]
    pools = [ct.elaborate(w, w.self_id, ctx=ctx) for w in fillers]
    pools += list(targets.values())
    guard = 0
    while len(base) < N_CASES and guard < 4000:
        guard += 1
        add(sample_case(rng, rng.choice(pools), ctx, "tmp", mutation_rate=0.35))
    assert len(base) == N_CASES, f"only {len(base)} distinct cases"
    return base, worlds, targets


def expert_sets(base, targets):
    """A case is expert-similar when its whole pattern holds in the target."""
    truth = {}
    for wid, target in targets.items():
        members = set()
        for case in base:
            _, matched = ct.unify(case, target)
            if len(matched) == len(case.perceptions):
                members.add(case.id)
        truth[wid] = frozenset(members)
    return truth


def verify(base, targets, truth):
    tree = ct.build_tree(base, ct.FOOTBALL_PRIORITY)
    full = max(tree.arc_count(), ct.linear_perception_count(base))
    for wid, target in targets.items():
        c1 = truth[wid]
        assert c1, f"{wid}: empty expert set"
        scores = {c.id: ct.similarity(c, target) for c in base}
        assert min(scores[cid] for cid in c1) >= RETRIEVAL_THRESHOLD, wid
        extras = [cid for cid, s in scores.items()
                  if s >= RETRIEVAL_THRESHOLD and cid not in c1]
        assert extras, f"{wid}: threshold rule never over-retrieves"

    budgets = list(range(0, full + BUDGET_STEP + 1, BUDGET_STEP))
    rows = ct.sweep_budget(targets, tree, truth, budgets,
                           repetitions=SWEEP_REPETITIONS, seed=SWEEP_SEED,
                           threshold=RETRIEVAL_THRESHOLD, prune=True)
    wins = total = 0
    for wid in targets:
        tr = {r.budget: r.precision for r in rows if r.engine == "tree" and r.target == wid}
        ln = {r.budget: r.precision for r in rows if r.engine == "linear" and r.target == wid}
        for b in budgets:
            if 0 < b < full:
                total += 1
                wins += tr[b] >= ln[b] - 1e-12
        plateau_t = tr[budgets[-1]]
        plateau_l = ln[budgets[-1]]
        t_at = next(b for b in budgets if tr[b] >= 0.99 * plateau_t)
        l_at = next(b for b in budgets if ln[b] >= 0.99 * plateau_l)
        assert t_at < l_at, f"{wid}: tree not faster to plateau ({t_at} vs {l_at})"
    share = wins / total
    assert share >= 0.85, f"dominance too weak: {share:.2%}"
    return share


def fixture_texts() -> tuple[dict[str, str], str]:
    """The generated fixture files, file name -> text, once ``verify`` holds
    for them, and a one-line summary of their properties. Writes nothing."""
    base, worlds, targets = build_base()
    truth = expert_sets(base, targets)
    share = verify(base, targets, truth)

    ctx = ct.football_context()
    texts = {
        "bench50.cases.xml": ct.serialize_case_base(base, ct.FOOTBALL_PRIORITY, ctx),
        "bench50.truth.txt": ct.format_ground_truth(truth),
    }
    for world in worlds:
        texts[f"{world.wid}.world"] = ct.dump_snapshot(world)
    sizes = {wid: len(c1) for wid, c1 in truth.items()}
    return texts, f"{len(base)} cases, expert sets {sizes}, dominance {share:.2%}"


def main() -> int:
    texts, summary = fixture_texts()
    FIXTURES.mkdir(exist_ok=True)
    for name, text in texts.items():
        (FIXTURES / name).write_text(text, encoding="utf-8")
    print(f"wrote bench50 fixtures: {summary}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
