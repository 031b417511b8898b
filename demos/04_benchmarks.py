"""Reproducing the retrieval-quality experiments
=================================================

Three experiments, each written as a CSV into ``demos/out/``, or into the
directory given as the only argument
(``python3 demos/04_benchmarks.py OUT_DIR``):

* how the alpha parameter trades the two quality ratios against each
  other at a fixed acceptance threshold;
* how tree and linear retrieval quality climb with the comparison
  budget (the linear rows average one hundred random scan orders);
* how much perception storage the tree saves during acquisition.

Everything is seeded; running twice produces byte-identical files.
Heads-up when reading the tables: the two quality ratios carry swapped
names relative to the usual convention; see the evaluation module notes.
"""

import random
import sys
from pathlib import Path

import casetree as ct

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / "out"
OUT.mkdir(parents=True, exist_ok=True)

# %% A 50-case base sampled from seeded situations, five benchmark
# targets, and expert sets: a case is expert-similar to a target when its
# whole pattern holds there.

ctx = ct.football_context()
rng = random.Random(42)
targets = {}
for seed in (101, 202, 303, 404, 505):
    world = ct.generate_world(seed, 6)
    targets[world.wid] = ct.elaborate(world, world.self_id, ctx=ctx)

pools = list(targets.values()) + [
    ct.elaborate(w, w.self_id, ctx=ctx)
    for w in (ct.generate_world(546 + i, 6) for i in range(3))
]

base = []
while len(base) < 50:
    pool = rng.choice(pools)
    k = rng.randint(2, min(8, len(pool)))
    picks = []
    for p in rng.sample(list(pool.perceptions), k):
        if rng.random() < 0.3:  # mutate some values so partial matches exist
            if isinstance(p.choice, bool):
                p = ct.Perception(p.name, p.values, not p.choice)
            else:
                labels = ctx.predicates[p.name].choice.labels
                p = ct.Perception(p.name, p.values, rng.choice(labels))
        if p not in picks:
            picks.append(p)
    case = ct.generalize(ct.TargetCase(perceptions=tuple(picks)), action="pass",
                         case_id=f"c{len(base):03d}")
    if not any(ct.case_equivalent(case, b) for b in base):
        base.append(case)

truth = {}
for wid, target in targets.items():
    members = {c.id for c in base
               if len(ct.unify(c, target)[1]) == len(c.perceptions)}
    truth[wid] = frozenset(members)
print("expert-set sizes:", {wid: len(v) for wid, v in truth.items()})

tree = ct.build_tree(base, ct.FOOTBALL_PRIORITY)
threshold = 0.45

# %% Alpha sweep: sliding alpha from 0 to 1 shrinks the retrieved set;
# one ratio rises while the other falls.

alpha_rows = []
for wid in sorted(targets):
    alpha_rows += ct.sweep_alpha(targets[wid], base, truth[wid], threshold,
                                 [0.0, 0.25, 0.5, 0.75, 1.0])
(OUT / "alpha_sweep.csv").write_text(ct.format_metric_csv(alpha_rows))
wid = sorted(targets)[0]
print(f"\n{wid}: alpha  retrieved  recall  precision")
for r in alpha_rows:
    if r.target == wid:
        print(f"        {r.alpha:5.2f}  {int(r.n_correct + r.n_false):9d}  {r.recall:.3f}   {r.precision:.3f}")

# %% Budget sweep: the quality climb under time pressure, tree vs the
# order-averaged linear baseline.

full = max(tree.arc_count(), ct.linear_perception_count(base))
budgets = list(range(0, full + 6, 5))
budget_rows = ct.sweep_budget(targets, tree, truth, budgets,
                              repetitions=100, seed=9, threshold=threshold)
(OUT / "budget_sweep.csv").write_text(ct.format_metric_csv(budget_rows))

print(f"\n{wid}: budget  tree-hits  linear-hits   (fraction of the expert set found)")
series = {(r.engine, r.budget): r.precision for r in budget_rows if r.target == wid}
for b in budgets[:: max(1, len(budgets) // 10)]:
    print(f"        {b:6d}     {series[('tree', b)]:.3f}       {series[('linear', b)]:.3f}")

# %% Memory curve: storage while the base is acquired case by case.

memory_rows = ct.memory_curve(base, ct.FOOTBALL_PRIORITY)
(OUT / "memory_curve.csv").write_text(ct.format_memory_csv(memory_rows))
count, linear, nodes = memory_rows[-1]
print(f"\nafter {count} cases: {linear} flat perceptions vs {nodes} tree nodes")
print(f"CSV files in {OUT}/")
