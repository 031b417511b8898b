from __future__ import annotations

import itertools

import pytest

import casetree as ct
from casetree.world import Player


def compact_world(marked=True):
    """Four players in a tight cluster, every entity within radius of self."""
    players = (
        Player("Agent.1", "teamA", 50.0, 30.0),
        Player("Agent.2", "teamA", 52.0, 30.0),
        Player("Agent.3", "teamB", 54.0, 30.0,
               marked_by="Agent.1" if marked else None),
        Player("Agent.4", "teamB", 56.0, 30.0, has_ball=True),
    )
    return ct.WorldSnapshot(wid="compact", players=players, ball=(56.0, 30.0),
                            self_id="Agent.1")


class TestQuery:
    def test_free_boolean_returns_validating_instantiation(self):
        got = ct.query(compact_world(), ct.Query("isMarked", (None,)))
        assert got == [(("Agent.3",), True)]

    def test_no_marked_player_returns_empty(self):
        got = ct.query(compact_world(marked=False), ct.Query("isMarked", (None,)))
        assert got == []

    def test_fully_bound_distance(self):
        # ball 12 m away from Agent.2
        players = (
            Player("Agent.1", "teamA", 50.0, 30.0),
            Player("Agent.2", "teamA", 62.0, 30.0),
        )
        # one player per team is not required; marking is, so none here
        world = ct.WorldSnapshot(wid="pair", players=players, ball=(50.0, 30.0),
                                 self_id="Agent.1")
        got = ct.query(world, ct.Query("distance", ("ball", "Agent.2")))
        assert got == [(("ball", "Agent.2"), "far")]

    def test_fully_bound_reports_false_values(self):
        got = ct.query(compact_world(), ct.Query("hasBall", ("me",)))
        assert got == [(("me",), False)]

    def test_desired_value_restricts_completions(self):
        world = compact_world()
        opponents = ct.query(world, ct.Query("partner", (None,), desired=False))
        assert [b[0] for b, _ in opponents] == ["Agent.3", "Agent.4"]
        partners = ct.query(world, ct.Query("partner", (None,), desired=True))
        assert ("Agent.2",) in [b for b, _ in partners]

    def test_unknown_predicate(self):
        with pytest.raises(ValueError):
            ct.query(compact_world(), ct.Query("levitates", (None,)))

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            ct.query(compact_world(), ct.Query("distance", (None,)))

    def test_exhaustive_against_entity_enumeration(self):
        """Free-slot completions miss nothing: every entity tuple whose
        perception the observer holds comes back."""
        for seed in (3, 4, 5):
            world = ct.generate_world(seed, 6)
            target = ct.elaborate(world, world.self_id)
            entities = ["me", "ball", "teamA", "teamB", "pass"] + [
                p.pid for p in world.players
            ]
            held = {(p.name, tuple("me" if v.kind == "me" else v.name for v in p.values)): p.choice
                    for p in target.perceptions}
            for name in ("isMarked", "partner", "distance", "markedBy"):
                schema = ct.football_context().schema(name)
                free = ct.Query(name, (None,) * schema.arity)
                got = dict(ct.query(world, free))
                for combo in itertools.product(entities, repeat=schema.arity):
                    choice = held.get((name, combo))
                    if choice is None:
                        assert combo not in got
                    elif schema.choice.kind != "boolean" or choice is True:
                        assert got[combo] == choice

    def test_consistent_with_elaborate(self):
        world = ct.generate_world(11, 4)
        target = ct.elaborate(world, world.self_id)
        for p in target.perceptions:
            args = tuple("me" if v.kind == "me" else v.name for v in p.values)
            got = ct.query(world, ct.Query(p.name, args))
            assert got == [(args, p.choice)]


class TestElaborate:
    def test_self_and_ball_only(self):
        world = ct.WorldSnapshot(
            wid="duo",
            players=(Player("Agent.1", "teamA", 50.0, 30.0),),
            ball=(55.0, 30.0),
            self_id="Agent.1",
        )
        target = ct.elaborate(world, "Agent.1")
        assert ct.Perception(
            "distance", (ct.ME, ct.const("ball", "Ball")), "close"
        ) in target.perception_set
        assert ct.Perception("hasBall", (ct.ME,), False) in target.perception_set

    def test_possession_flag(self):
        world = compact_world()
        target = ct.elaborate(world, "Agent.4")
        assert ct.Perception("hasBall", (ct.ME,), True) in target.perception_set

    def test_radius_zero_keeps_only_self_perceptions(self):
        world = compact_world()
        target = ct.elaborate(world, "Agent.1", radius=0.0)
        assert len(target) > 0
        for p in target.perceptions:
            assert all(v.kind in ("me", "const") for v in p.values)

    def test_every_perception_validates(self, football_ctx):
        for seed in range(6):
            world = ct.generate_world(seed, 6)
            target = ct.elaborate(world, world.self_id)
            for p in target.perceptions:
                assert ct.validate_perception(p, football_ctx) is None

    def test_restricted_context_filters_vocabulary(self, small_ctx):
        world = compact_world()
        target = ct.elaborate(world, "Agent.1", ctx=small_ctx)
        names = {p.name for p in target.perceptions}
        assert names <= {"hasball", "partner", "distance"}
        assert ct.Perception("hasball", (ct.ME,), False) in target.perception_set
        # the restricted distance schema is (PhysicalObject, Agent):
        # ball-to-player forms survive, player-to-ball forms do not
        for p in target.perceptions:
            if p.name == "distance":
                assert p.values[1].kind in ("me", "concrete")

    def test_unknown_self(self):
        with pytest.raises(ValueError, match="Agent.99"):
            ct.elaborate(compact_world(), "Agent.99")

    @pytest.mark.parametrize("radius", [-5.0, -1e-9, float("nan"), float("inf"),
                                        float("-inf")])
    def test_negative_or_non_finite_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius"):
            ct.elaborate(compact_world(), "Agent.1", radius=radius)

    def test_origin_is_world_id(self):
        assert ct.elaborate(compact_world(), "Agent.1").origin == "compact"


class TestGenerateWorld:
    def test_determinism(self):
        assert ct.generate_world(1, 4) == ct.generate_world(1, 4)

    def test_seed_sensitivity(self):
        assert ct.generate_world(1, 4) != ct.generate_world(2, 4)

    def test_full_match_world(self):
        world = ct.generate_world(1, 22)
        teams = {t: sum(1 for p in world.players if p.team == t) for t in ("teamA", "teamB")}
        assert teams == {"teamA": 11, "teamB": 11}
        assert sum(1 for p in world.players if p.has_ball) <= 1

    @pytest.mark.parametrize("n", [0, 1, 3, -2])
    def test_invalid_player_counts(self, n):
        with pytest.raises(ValueError):
            ct.generate_world(1, n)

    def test_invariants_hold_across_seeds(self):
        for seed in range(20):
            world = ct.generate_world(seed, 6)  # constructor validates
            for p in world.players:
                if p.marked_by is not None:
                    assert world.player(p.marked_by).team != p.team


class TestSnapshotFormat:
    def test_round_trip(self):
        for seed in (0, 5, 9):
            world = ct.generate_world(seed, 6)
            again = ct.load_snapshot(ct.dump_snapshot(world))
            assert again == world

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            ct.load_snapshot("player Agent.1\n")
        with pytest.raises(ValueError):
            ct.load_snapshot("")

    def test_comments_and_blank_lines_skipped(self):
        world = compact_world()
        text = "# fixture\n\n" + ct.dump_snapshot(world)
        assert ct.load_snapshot(text) == world


class TestWorldInvariants:
    def test_two_ball_owners_rejected(self):
        players = (
            Player("Agent.1", "teamA", 1.0, 1.0, has_ball=True),
            Player("Agent.2", "teamB", 2.0, 2.0, has_ball=True),
        )
        with pytest.raises(ValueError):
            ct.WorldSnapshot(wid="w", players=players, ball=(1.0, 1.0), self_id="Agent.1")

    def test_marked_by_teammate_rejected(self):
        players = (
            Player("Agent.1", "teamA", 1.0, 1.0),
            Player("Agent.2", "teamA", 2.0, 2.0, marked_by="Agent.1"),
        )
        with pytest.raises(ValueError):
            ct.WorldSnapshot(wid="w", players=players, ball=(1.0, 1.0), self_id="Agent.1")

    def test_out_of_bounds_rejected(self):
        players = (Player("Agent.1", "teamA", -1.0, 1.0),)
        with pytest.raises(ValueError):
            ct.WorldSnapshot(wid="w", players=players, ball=(1.0, 1.0), self_id="Agent.1")
