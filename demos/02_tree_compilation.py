"""Compiling the case base into a prefix-sharing tree
======================================================

Stored flat, a case base repeats the same high-priority perceptions over
and over. Compiling it into a tree, with an expert-given priority order
fixing which perceptions sit near the root, shares those prefixes: the
tree stores fewer perception nodes and lets one query serve every case
below an arc. This script builds the classic three-case example, prints
the tree, and then measures the memory saving while a hundred cases are
acquired one by one.
"""

import random

import casetree as ct

# %% Three heterogeneous cases over hasball > partner > distance.

P = ct.Perception
cases = [
    ct.GenericCase("case1", (
        P("hasball", (ct.ME,), False),
        P("partner", (ct.generic("A"),), True),
        P("distance", (ct.const("ball", "Ball"), ct.generic("A")), "long"),
    ), (0.3, 0.7, 0.45), "pass"),
    ct.GenericCase("case2", (
        P("hasball", (ct.ME,), True),
        P("partner", (ct.generic("B"),), True),
    ), (1.0, 1.0), "shoot"),
    ct.GenericCase("case3", (
        P("hasball", (ct.ME,), False),
        P("partner", (ct.generic("A"),), False),
        P("distance", (ct.const("ball", "Ball"), ct.generic("B")), "long"),
    ), (1.0, 1.0, 1.0), "move"),
]
priority = ("hasball", "partner", "distance")

tree = ct.build_tree(cases, priority)


# each case's branch ends at the last arc of tree.paths[cid]
ends = {}
for cid, path in tree.paths.items():
    ends.setdefault(path[-1] if path else None, []).append(cid)


def show(nodes, arc=None, indent=0):
    pad = "  " * indent
    for cid in ends.get(arc, ()):
        print(f"{pad}[leaf {cid}]")
    for node in nodes:
        print(f"{pad}{node.label()}")
        for child_arc in node.arcs:
            print(f"{pad}  == {child_arc.test!r} ==>")
            show(child_arc.children, child_arc, indent + 2)


show(tree.roots)

# %% All three cases enter through one shared root node; the flat list
# would store eight perceptions, the tree five nodes.

print(f"\npredicate nodes: {tree.node_count}")
print(f"flat perceptions: {ct.linear_perception_count(cases)}")
print(f"leaves: {tree.leaf_count}, depth: {tree.depth}")

# %% Each case is still fully recoverable from its branch.

for case in cases:
    branch = " -> ".join(str(p) for p in tree.path_perceptions(case.id))
    print(f"{case.id}: {branch}")

# %% Acquisition at scale: generalize situations from seeded worlds into
# cases and watch both storage counts grow. The tree column climbs much
# more slowly because recurring prefixes are stored once.

rng = random.Random(7)
ctx = ct.football_context()
stream = []
while len(stream) < 100:
    world = ct.generate_world(rng.randint(0, 10_000), 6)
    target = ct.elaborate(world, world.self_id, ctx=ctx)
    if not len(target):
        continue
    k = rng.randint(2, min(8, len(target)))
    picks = tuple(rng.sample(list(target.perceptions), k))
    situation = ct.TargetCase(perceptions=picks, origin=world.wid)
    stream.append(ct.generalize(situation, action="pass", case_id=f"c{len(stream):03d}"))

rows = ct.memory_curve(stream, ct.FOOTBALL_PRIORITY)
print("\ncases  flat  tree")
for count, linear, nodes in rows[::10] + rows[-1:]:
    print(f"{count:5d} {linear:5d} {nodes:5d}")
saving = 1 - rows[-1][2] / rows[-1][1]
print(f"\nfinal saving: {saving:.0%} of perception storage")
