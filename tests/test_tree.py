from __future__ import annotations

import gc
import random
from collections import Counter

import pytest

import casetree as ct
from support import random_base, sample_case


class TestBuildTree:
    def test_three_case_structure(self, three_case_base):
        cases, priority = three_case_base
        tree = ct.build_tree(cases, priority)
        assert tree.node_count == 5
        assert tree.leaf_count == 3
        assert tree.depth == 3
        labels = sorted(n.label() for n in tree.iter_nodes())
        assert labels == [
            "distance(ball,?A)",
            "distance(ball,?B)",
            "hasball(me)",
            "partner(?A)",
            "partner(?B)",
        ]
        # one shared root node carries every case
        assert len(tree.roots) == 1
        root = tree.roots[0]
        assert root.label() == "hasball(me)"
        assert frozenset().union(*(a.below for a in root.arcs)) == {"case1", "case2", "case3"}

    def test_empty_base(self):
        tree = ct.build_tree([], ("hasball",))
        assert tree.node_count == 0
        assert tree.leaf_count == 0
        assert tree.depth == 0

    def test_single_case_is_a_chain(self, three_case_base):
        cases, priority = three_case_base
        tree = ct.build_tree(cases[:1], priority)
        assert tree.node_count == len(cases[0].perceptions)
        assert tree.leaf_count == 1
        assert all(len(n.arcs) == 1 for n in tree.iter_nodes())

    def test_missing_priority_entry(self, three_case_base):
        cases, _ = three_case_base
        with pytest.raises(ct.TreeError) as err:
            ct.build_tree(cases, ("hasball", "partner"))
        assert "distance" in str(err.value)

    def test_priority_naming_a_predicate_twice_is_rejected(self, three_case_base):
        cases, _ = three_case_base
        with pytest.raises(ct.TreeError) as err:
            ct.build_tree(cases, ("hasball", "partner", "distance", "hasball"))
        assert str(err.value) == "priority order names predicate 'hasball' twice"

    def test_duplicate_case_id(self, three_case_base):
        cases, priority = three_case_base
        with pytest.raises(ct.TreeError):
            ct.build_tree([cases[0], cases[0]], priority)

    def test_paths_spell_out_priority_sorted_perceptions(self, three_case_base):
        cases, priority = three_case_base
        tree = ct.build_tree(cases, priority)
        for case in cases:
            expected = sorted(case.perceptions, key=lambda p: priority.index(p.name))
            assert [case.perceptions[i] for i in tree.order[case.id]] == expected
            assert list(tree.path_perceptions(case.id)) == expected

    def test_heterogeneous_continuations_share_a_slot(self, small_ctx):
        # two cases share the root perception but continue with different
        # predicates; both continuations must hang off the same arc
        a = ct.GenericCase("a", (
            ct.Perception("hasball", (ct.ME,), True),
            ct.Perception("partner", (ct.generic("A"),), True),
        ), (1.0, 1.0))
        b = ct.GenericCase("b", (
            ct.Perception("hasball", (ct.ME,), True),
            ct.Perception("distance", (ct.const("ball", "Ball"), ct.generic("A")), "far"),
        ), (1.0, 1.0))
        tree = ct.build_tree([a, b], ("hasball", "partner", "distance"))
        assert tree.node_count == 3
        root = tree.roots[0]
        assert len(root.arcs) == 1
        assert len(root.arcs[0].children) == 2

    def test_prefix_case_ends_at_inner_slot(self):
        short = ct.GenericCase("short", (
            ct.Perception("hasball", (ct.ME,), True),
        ), (1.0,))
        long = ct.GenericCase("long", (
            ct.Perception("hasball", (ct.ME,), True),
            ct.Perception("partner", (ct.generic("A"),), True),
        ), (1.0, 1.0))
        tree = ct.build_tree([short, long], ("hasball", "partner"))
        assert tree.leaf_count == 2
        assert tree.node_count == 2
        root_arc = tree.roots[0].arcs[0]
        assert tree.paths["short"] == (root_arc,)


class TestCounts:
    def test_three_case_counts(self, three_case_base):
        cases, priority = three_case_base
        tree = ct.build_tree(cases, priority)
        assert tree.node_count == 5
        assert ct.linear_perception_count(cases) == 8

    def test_empty_counts(self):
        assert ct.linear_perception_count([]) == 0
        assert ct.build_tree([], ()).node_count == 0

    def test_single_case_counts_are_equal(self, three_case_base):
        cases, priority = three_case_base
        tree = ct.build_tree(cases[:1], priority)
        k = len(cases[0].perceptions)
        assert tree.node_count == k
        assert ct.linear_perception_count(cases[:1]) == k


class TestTreeValidity:
    def test_200_random_bases_reconstruct_exactly(self):
        """Every case's branch spells out its perceptions in priority order,
        and every arc states, in base order, the cases below it and those
        whose branch ends at it, and the most perceptions any case below has."""
        for seed in range(200):
            base = random_base(seed, n_cases=1 + seed % 50)
            if not base:
                continue
            tree = ct.build_tree(base, ct.FOOTBALL_PRIORITY)
            assert tree.leaf_count == len(base)
            for case in base:
                expected = Counter(case.perceptions)
                got = Counter(tree.path_perceptions(case.id))
                assert got == expected, (seed, case.id)
                order = [p.name for p in tree.path_perceptions(case.id)]
                ranks = [ct.FOOTBALL_PRIORITY.index(n) for n in order]
                assert ranks == sorted(ranks)
            for node in tree.iter_nodes():
                for arc in node.arcs:
                    below = [c for c in base if arc in tree.paths[c.id]]
                    assert arc.below == [c.id for c in below], seed
                    assert arc.ends == [c.id for c in below
                                        if tree.paths[c.id][-1] is arc], seed
                    assert arc.most == max(len(c.perceptions) for c in below), seed

    def test_sharing_inequality(self):
        for seed in range(60):
            base = random_base(seed, n_cases=2 + seed % 30)
            if len(base) < 2:
                continue
            tree = ct.build_tree(base, ct.FOOTBALL_PRIORITY)
            lin = ct.linear_perception_count(base)
            assert tree.node_count <= lin
            # strict when at least two cases share their first perception
            first = {}
            shared = False
            for case in base:
                idx = tree.order[case.id][0]
                key = (case.perceptions[idx].name, case.perceptions[idx].values,
                       case.perceptions[idx].choice)
                if key in first:
                    shared = True
                    break
                first[key] = case.id
            if shared:
                assert tree.node_count < lin


class TestTreeLifetime:
    def test_a_dropped_tree_is_not_cyclic_garbage(self, fixture_dir, football_ctx):
        """Nothing in a tree points back up, so reference counting frees a
        dropped tree at once and the cycle collector finds nothing of it."""
        bench50 = ct.parse_case_base((fixture_dir / "bench50.cases.xml").read_text(),
                                     football_ctx)
        world = ct.generate_world(6, 22)
        target = ct.elaborate(world, world.self_id, radius=120.0, ctx=football_ctx)
        rng = random.Random(6)
        pitch = ([sample_case(rng, target, football_ctx, f"c{i:03d}") for i in range(100)],
                 ct.FOOTBALL_PRIORITY)

        def build_and_drop(base, priority) -> int:
            return ct.build_tree(base, priority).node_count

        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for base, priority in (bench50, pitch):
                assert build_and_drop(base, priority) > len(base)
                assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()
