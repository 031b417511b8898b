from __future__ import annotations

import pytest

import casetree as ct
from casetree.cli import main
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
        ) in set(target.perceptions)
        assert ct.Perception("hasBall", (ct.ME,), False) in set(target.perceptions)

    def test_possession_flag(self):
        world = compact_world()
        target = ct.elaborate(world, "Agent.4")
        assert ct.Perception("hasBall", (ct.ME,), True) in set(target.perceptions)

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
        assert ct.Perception("hasball", (ct.ME,), False) in set(target.perceptions)
        # the restricted distance schema is (PhysicalObject, Agent):
        # ball-to-player forms survive, player-to-ball forms do not
        for p in target.perceptions:
            if p.name == "distance":
                assert p.values[1].kind in ("me", "concrete")

    def test_restricted_context_keeps_exactly_what_validates(self, football_ctx):
        # every emit site is checked once per call and each perception only
        # for its choice: the kept perceptions must be the candidates, under
        # the context's spelling, that validate_perception accepts
        schemas = football_ctx.predicates
        # DomainObject sorts accept every argument, so this context keeps
        # every candidate the world emits
        candidates_ctx = ct.Context({
            name: ct.PredicateSchema(name, tuple((var, "DomainObject") for var, _ in s.params),
                                     s.choice_name, s.choice)
            for name, s in schemas.items()}, football_ctx.domains)
        three = ct.qualitative("three", ("left", "right", "front"))
        yes = ct.qualitative("yes", ("yes",))

        def renamed(name, new, params=None, choice=None):
            old = schemas[name]
            return new, ct.PredicateSchema(new, old.params if params is None else params,
                                           old.choice_name, choice or old.choice)

        restricted = ct.Context(dict([
            renamed("hasBall", "HASBALL", params=(("P1", "Ball"),)),  # no site's sorts
            renamed("isMarked", "ismarked"),
            renamed("markedBy", "markedBy", choice=yes),  # no Boolean choice
            renamed("partner", "partner"),
            renamed("isInAttack", "isInAttack"),
            renamed("callForBall", "callForBall"),
            # (me, ball) and (ball, player) sites go, (me, player) stays
            renamed("distance", "distance", params=(("O1", "Agent"), ("O2", "Agent"))),
            renamed("relativePosition", "relativeposition", choice=three),  # no "back"
            renamed("orientation", "orientation",
                    params=(("O1", "PhysicalObject"), ("O2", "PhysicalObject"))),  # arity
            renamed("ratio", "ratio", choice=ct.qualitative("ratio", ("even",))),
            renamed("lastAction", "lastAction", params=(("DO1", "Team"),)),  # an Action
        ]), {"three": three, "yes": yes})
        spelled = {name.lower(): name for name in restricted.predicates}
        dropped = set()
        for seed in range(8):
            world = ct.generate_world(seed, 22)
            for radius in (30.0, 120.0):
                candidates = ct.elaborate(world, world.self_id, radius, candidates_ctx)
                expected = []
                for p in candidates.perceptions:
                    q = ct.Perception(spelled.get(p.name.lower(), p.name), p.values, p.choice)
                    violation = ct.validate_perception(q, restricted)
                    if violation is None:
                        expected.append(q)
                    else:
                        dropped.add(violation.split(":")[0])
                got = ct.elaborate(world, world.self_id, radius, restricted)
                assert got.perceptions == tuple(expected), (seed, radius)
                assert got.origin == candidates.origin
        assert dropped == {"unknown-predicate", "arity", "sort", "value"}

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

    @pytest.mark.parametrize("record", ["world w2", "tick 3", "field 90.0 50.0", "ball 1.0 2.0",
                                        "self Agent.2", "lastpass 0"])
    def test_second_header_record_rejected(self, fixture_dir, record):
        text = (fixture_dir / "w101n6.world").read_text()
        lineno = len(text.splitlines()) + 1
        kind = record.split()[0]
        with pytest.raises(ValueError, match=f"snapshot line {lineno}: second '{kind}' record"):
            ct.load_snapshot(text + record + "\n")

    def test_retrieve_exits_2_on_a_second_self_record(self, fixture_dir, tmp_path, capsys):
        world = tmp_path / "w101n6.world"
        world.write_text((fixture_dir / "w101n6.world").read_text() + "self Agent.2\n")
        code = main(["retrieve", "--ctx", str(fixture_dir / "football.ctx.xml"),
                     "--base", str(fixture_dir / "bench50.cases.xml"), "--world", str(world)])
        assert code == 2
        assert "second 'self' record" in capsys.readouterr().err

    # w101n6.world lines: 6 is lastpass, 8 is Agent.2's player record
    @pytest.mark.parametrize("old,new,lineno,flag", [
        ("lastpass 1", "lastpass yes", 6, "yes"),
        ("lastpass 1", "lastpass true", 6, "true"),
        ("96.53 55.44 1 - 0 0", "96.53 55.44 yes - 0 0", 8, "yes"),
        ("96.53 55.44 1 - 0 0", "96.53 55.44 1 - true 0", 8, "true"),
        ("96.53 55.44 1 - 0 0", "96.53 55.44 1 - 0 2", 8, "2"),
    ], ids=["lastpass-yes", "lastpass-true", "hasball", "callball", "callsupport"])
    def test_flag_is_0_or_1(self, fixture_dir, old, new, lineno, flag):
        text = (fixture_dir / "w101n6.world").read_text()
        assert text.count(old) == 1
        with pytest.raises(ValueError,
                           match=f"snapshot line {lineno}: flag '{flag}' is not 0 or 1"):
            ct.load_snapshot(text.replace(old, new))

    @pytest.mark.parametrize("old,new,lineno,kind,count,expected", [
        ("world w101n6", "world w101n6 extra", 1, "world", 2, 1),
        ("tick 0", "tick 0 1", 2, "tick", 2, 1),
        ("field 100.0 60.0", "field 100.0", 3, "field", 1, 2),
        ("ball 96.53 55.44", "ball 96.53 55.44 0.0", 4, "ball", 3, 2),
        ("self Agent.1", "self Agent.1 Agent.2", 5, "self", 2, 1),
        ("lastpass 1", "lastpass 1 0", 6, "lastpass", 2, 1),
        ("96.53 55.44 1 - 0 0", "96.53 55.44 1 - 0 0 1", 8, "player", 9, 8),
        ("96.53 55.44 1 - 0 0", "96.53 55.44 1 - 0", 8, "player", 7, 8),
    ], ids=["world", "tick", "field", "ball", "self", "lastpass", "player-long",
            "player-short"])
    def test_field_count_is_exact(self, fixture_dir, old, new, lineno, kind, count, expected):
        text = (fixture_dir / "w101n6.world").read_text()
        assert text.count(old) == 1
        with pytest.raises(ValueError, match=f"snapshot line {lineno}: '{kind}' record has "
                                             f"{count} fields, expected {expected}"):
            ct.load_snapshot(text.replace(old, new))

    def test_unknown_record_rejected(self, fixture_dir):
        text = (fixture_dir / "w101n6.world").read_text() + "goal teamA\n"
        with pytest.raises(ValueError, match="snapshot line 13: unknown record 'goal'"):
            ct.load_snapshot(text)

    @pytest.mark.parametrize("old,new,message", [
        ("lastpass 1", "lastpass yes", "flag 'yes' is not 0 or 1"),
        ("96.53 55.44 1 - 0 0", "96.53 55.44 1 - 0 0 1", "'player' record has 9 fields"),
        # an infinite field put every team-A player out of attack, and a NaN
        # one read as a player outside the field
        ("field 100.0 60.0", "field inf inf", "field size inf x inf is not finite and positive"),
        ("field 100.0 60.0", "field nan 60", "field size nan x 60.0 is not finite and positive"),
    ], ids=["flag", "trailing-field", "field-inf", "field-nan"])
    def test_retrieve_exits_2_on_a_lenient_field(self, fixture_dir, tmp_path, capsys,
                                                 old, new, message):
        world = tmp_path / "w101n6.world"
        world.write_text((fixture_dir / "w101n6.world").read_text().replace(old, new))
        code = main(["retrieve", "--ctx", str(fixture_dir / "football.ctx.xml"),
                     "--base", str(fixture_dir / "bench50.cases.xml"), "--world", str(world)])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_unknown_team_rejected(self, fixture_dir, tmp_path, capsys):
        text = (fixture_dir / "w101n6.world").read_text()
        assert text.count(" teamB ") == 3
        world = tmp_path / "w101n6.world"
        world.write_text(text.replace(" teamB ", " teamC "))
        with pytest.raises(ValueError, match="^Agent.4 plays for unknown team 'teamC'$"):
            ct.load_snapshot(world.read_text())
        code = main(["retrieve", "--ctx", str(fixture_dir / "football.ctx.xml"),
                     "--base", str(fixture_dir / "bench50.cases.xml"), "--world", str(world)])
        assert code == 2
        assert "Agent.4 plays for unknown team 'teamC'" in capsys.readouterr().err


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

    @pytest.mark.parametrize("players,ball,self_id,message", [
        ((Player("Agent.1", "teamA", 1.0, 1.0), Player("Agent.1", "teamB", 2.0, 2.0)),
         (1.0, 1.0), "Agent.1", "duplicate player id"),
        ((Player("Agent.1", "teamA", 1.0, 1.0),), (1.0, 1.0), "Agent.2",
         "self 'Agent.2' is not a player"),
        ((Player("Agent.1", "teamA", 1.0, 1.0),), (1.0, 61.0), "Agent.1",
         "ball outside the field"),
        ((Player("Agent.1", "teamA", 1.0, 1.0), Player("Agent.2", "teamC", 2.0, 2.0)),
         (1.0, 1.0), "Agent.1", "Agent.2 plays for unknown team 'teamC'"),
    ], ids=["duplicate-id", "self-not-a-player", "ball-outside", "unknown-team"])
    def test_inconsistent_snapshot_rejected(self, players, ball, self_id, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ct.WorldSnapshot(wid="w", players=players, ball=ball, self_id=self_id)

    def test_out_of_bounds_rejected(self):
        players = (Player("Agent.1", "teamA", -1.0, 1.0),)
        with pytest.raises(ValueError):
            ct.WorldSnapshot(wid="w", players=players, ball=(1.0, 1.0), self_id="Agent.1")
