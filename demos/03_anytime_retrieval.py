"""Anytime retrieval under interruption budgets
================================================

An agent in a running simulation cannot wait for a full base scan: it
must act whenever its turn comes. Scanning the case tree breadth first
keeps a defensible partial score for every case at every moment, so
interrupting the scan still yields the best case found so far, and more
time monotonically improves the answer. This script elaborates a
situation from a toy football world, then watches the per-case scores
converge as the comparison budget grows, with and without pruning.
"""

import casetree as ct

# %% A deterministic six-player world, seen through the full football
# vocabulary. Elaboration turns raw positions and flags into the
# observer's perception set (the observer becomes "me").

world = ct.generate_world(seed=202, n_players=6)
ctx = ct.football_context()
target = ct.elaborate(world, world.self_id, ctx=ctx)
print(f"world {world.wid}: me={world.self_id}, perceives {len(target)} facts, e.g.")
for p in target.perceptions[:5]:
    print("  ", p)

# %% Queries about the situation go through the retrieval oracle, the one
# matcher the scans use too. It answers the way a resolution engine would:
# a generic label is a free slot, and each row of ids is one way to fill it.

ask = ct.TargetOracle(target).completions
print("\nwho is marked? ", ask("isMarked", (ct.generic("X"),), True))
print("opponents:      ", [row[0] for row in ask("partner", (ct.generic("X"),), False)])

# %% A small case base acquired from sibling situations.

import random

rng = random.Random(11)
base = []
while len(base) < 12:
    w = ct.generate_world(rng.randint(0, 500), 6)
    t = ct.elaborate(w, w.self_id, ctx=ctx)
    if len(t) < 4:
        continue
    picks = tuple(rng.sample(list(t.perceptions), rng.randint(2, 6)))
    case = ct.generalize(ct.TargetCase(perceptions=picks, origin=w.wid),
                         action=rng.choice(("pass", "shoot", "move")),
                         case_id=f"c{len(base):02d}")
    if not any(ct.case_equivalent(case, b) for b in base):
        base.append(case)

tree = ct.build_tree(base, ct.FOOTBALL_PRIORITY)
oracle = ct.TargetOracle(target)
full = tree.arc_count()
print(f"\nbase: {len(base)} cases, tree: {tree.node_count} nodes, {full} arc tests")

# %% Interrupt the same scan at growing budgets. Scores only ever grow,
# and the best-so-far case is available from the first comparison on.

print("\nbudget  best    score   (tests used)")
for budget in (0, 2, 5, 10, 20, 40, full):
    r = ct.scan_tree(tree, oracle, ct.ScanBudget.comparisons(budget), prune=False)
    print(f"{budget:6d}  {r.best_case}  {r.score:.4f}  ({r.tests_used})")

# %% With pruning on, a contradicted test abandons the whole branch:
# cheaper scans, at the price of freezing cases whose deeper perceptions
# would still have matched.

pruned = ct.scan_tree(tree, oracle, prune=True)
exact = ct.scan_tree(tree, oracle, prune=False)
print(f"\npruned scan: {pruned.tests_used} tests, best {pruned.best_case} "
      f"at {pruned.score:.4f}")
print(f"exact scan:  {exact.tests_used} tests, best {exact.best_case} "
      f"at {exact.score:.4f}")
frozen = sorted(cid for cid, oc in pruned.per_case.items() if oc.pruned)
print(f"branches frozen early: {frozen}")

# %% The linear baseline gives the same final answer, but a case that the
# budget cut off contributes nothing at all; under pressure the flat base
# has blind spots where the tree has estimates.

linear_full = ct.scan_linear(base, oracle)
assert abs(linear_full.score - exact.score) < 1e-9
half = ct.scan_linear(base, oracle, ct.ScanBudget.comparisons(full // 3))
unseen = [cid for cid, oc in half.per_case.items() if not oc.evaluated]
print(f"\nlinear at a third of the budget never looked at {len(unseen)} cases")
print(f"final answers agree: tree {exact.best_case} == linear {linear_full.best_case}")
