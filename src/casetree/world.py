"""A deterministic toy football world and its elaboration into perceptions.

This is the "context box" feeding retrieval: it turns raw state (positions,
possession, marking) into semantic perceptions, and ``TargetOracle``
answers predicate queries over them. Elaboration is one pass: each emit
site, a predicate over arguments of fixed sorts, is checked against the
context once per call, and each of its perceptions is built, under the
context's own spelling of its predicate name, only when its choice conforms
too. Nothing moves here; a snapshot is one instant, and every operation on
it is pure. Its objects take their sorts from ``context.SORTS``: players are
Agents, the ball a Ball, teams a Team and the last action an Action.

Artifact-defined semantics, chosen to keep targets desk-scale:

* players face the ball, so direction quantization needs no stored heading;
* relativePosition(me, x) and orientation(p) quantize angles in the
  observer's facing frame into left / right / front / back quadrants;
* ratio(team) compares teammate vs opponent counts inside the observer's
  current half (outnumbered / even / outnumbering);
* isInAttack(p) means p stands in the half its team attacks (team A attacks
  +x, team B attacks -x);
* lastAction(pass) records whether the previous action was a pass;
* markedBy is emitted only for pairs that hold, every other Boolean
  predicate is emitted with its actual value for each perceived player.

Snapshot text format (line oriented, UTF-8)::

    world <id>
    tick <n>
    field <length> <width>
    ball <x> <y>
    self <player-id>
    lastpass <0|1>
    player <id> <team> <x> <y> <hasball 0|1> <marked-by|-> <callball 0|1> <callsupport 0|1>

Every record but ``player`` may appear at most once, and each has exactly
the fields shown; a flag is ``0`` or ``1``, a team ``teamA`` or ``teamB``,
and each field size finite and positive. ``WorldSnapshot`` holds only ids
this text gives back: the world id and every player id are one non-empty
token with no whitespace, and no player id is ``-``, which reads as "no
marker". So ``dump_snapshot`` writes every snapshot, and ``load_snapshot``
refuses a text whose ids break the rule.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .cases import ME, Perception, TargetCase, concrete, const
from .context import Context, football_context, quantize_distance, validate_arguments

DEFAULT_RADIUS = 30.0
FIELD_LENGTH = 100.0
FIELD_WIDTH = 60.0
TEAMS = ("teamA", "teamB")


@dataclass(frozen=True)
class Player:
    pid: str
    team: str
    x: float
    y: float
    has_ball: bool = False
    marked_by: str | None = None
    call_for_ball: bool = False
    call_for_support: bool = False


@dataclass(frozen=True)
class WorldSnapshot:
    """One immutable instant of the simulated pitch."""

    wid: str
    players: tuple[Player, ...]
    ball: tuple[float, float]
    self_id: str
    field_length: float = FIELD_LENGTH
    field_width: float = FIELD_WIDTH
    last_action_pass: bool = False
    tick: int = 0

    def __post_init__(self):
        # the ids the snapshot text gives back: it splits records on
        # whitespace, and its "-" stands for a player marked by nobody
        ids = [p.pid for p in self.players]
        for x, bad in ((self.wid, False), *((pid, pid == "-") for pid in ids)):
            if bad or x.split() != [x]:
                raise ValueError(f"snapshot cannot hold id {x!r}")
        if not (0 < self.field_length < math.inf and 0 < self.field_width < math.inf):
            raise ValueError(f"field size {self.field_length!r} x {self.field_width!r} "
                             "is not finite and positive")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate player id")
        if self.self_id not in ids:
            raise ValueError(f"self {self.self_id!r} is not a player")
        owners = [p.pid for p in self.players if p.has_ball]
        if len(owners) > 1:
            raise ValueError(f"more than one ball owner: {owners}")
        by_id = {p.pid: p for p in self.players}
        for p in self.players:
            if p.team not in TEAMS:
                raise ValueError(f"{p.pid} plays for unknown team {p.team!r}")
            if not (0 <= p.x <= self.field_length and 0 <= p.y <= self.field_width):
                raise ValueError(f"{p.pid} outside the field")
            if p.marked_by is not None:
                marker = by_id.get(p.marked_by)
                if marker is None or marker.team == p.team:
                    raise ValueError(f"{p.pid} marked by non-opponent {p.marked_by!r}")
        bx, by = self.ball
        if not (0 <= bx <= self.field_length and 0 <= by <= self.field_width):
            raise ValueError("ball outside the field")

    def player(self, pid: str) -> Player:
        for p in self.players:
            if p.pid == pid:
                return p
        raise KeyError(pid)


# ---------------------------------------------------------------------------
# geometry helpers

def _distance(a, b) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _facing(player: Player, ball: tuple[float, float]) -> tuple[float, float]:
    """Unit facing vector; players orient toward the ball, +x when on it."""
    dx, dy = ball[0] - player.x, ball[1] - player.y
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        return (1.0, 0.0)
    return (dx / norm, dy / norm)


def _quadrant(facing: tuple[float, float], vector: tuple[float, float]) -> str:
    """left/right/front/back of a vector in the observer's facing frame."""
    if vector == (0.0, 0.0):
        return "front"
    angle = math.atan2(vector[1], vector[0]) - math.atan2(facing[1], facing[0])
    angle = math.atan2(math.sin(angle), math.cos(angle))  # wrap to (-pi, pi]
    deg = math.degrees(angle)
    if -45.0 <= deg <= 45.0:
        return "front"
    if 45.0 < deg <= 135.0:
        return "left"
    if -135.0 <= deg < -45.0:
        return "right"
    return "back"


def _attacks_positive_x(team: str) -> bool:
    return team == TEAMS[0]


# ---------------------------------------------------------------------------
# elaboration

def elaborate(world: WorldSnapshot, self_id: str,
              radius: float = DEFAULT_RADIUS,
              ctx: Context | None = None) -> TargetCase:
    """Extract the full perception set of ``self_id`` over entities within
    ``radius``, as a target case (self rendered as ``me``). Raises
    ``ValueError`` when ``self_id`` is not a player or ``radius`` is negative
    or not finite.

    Candidate perceptions follow the world semantics documented in the
    module docstring and are filtered through the context, so a restricted
    vocabulary simply yields fewer perceptions. Predicate names are matched
    case-insensitively against the known repertoire.
    """
    if not 0.0 <= radius < math.inf:
        raise ValueError(f"radius must be finite and non-negative, got {radius}")
    try:
        me = world.player(self_id)
    except KeyError:
        raise ValueError(f"observer {self_id!r} is not a player") from None
    ctx = ctx if ctx is not None else football_context()

    perceived = [p for p in world.players
                 if p.pid == self_id or _distance((p.x, p.y), (me.x, me.y)) <= radius]
    perceived.sort(key=lambda p: (p.pid != self_id, p.pid))  # observer first, then by id
    ball_seen = _distance(world.ball, (me.x, me.y)) <= radius

    # one argument value per perceived player, shared by its perceptions
    refs = {p.pid: ME if p.pid == self_id else concrete(p.pid) for p in perceived}

    ball_const = const("ball", "Ball")
    facing_me = _facing(me, world.ball)

    by_lower = {name.lower(): name for name in ctx.predicates}
    kept: list[Perception] = []

    def site(name: str, *args):
        """One emit site, checked once: the context's spelling of ``name`` and
        the test of a choice, or None when no perception of the site conforms
        to the context. ``args`` stand for the site's arguments by their sort;
        a player's argument, ``me`` or concrete, is an Agent either way."""
        declared = by_lower.get(name.lower())
        if declared is None:
            return None
        schema = ctx.predicates[declared]
        if validate_arguments(schema, args) is not None:
            return None
        return declared, schema.choice.accepts

    def emit(site, values, choice):
        if site is not None and site[1](choice):
            kept.append(Perception(site[0], values, choice))

    player = ME  # stands for any player's argument at a site
    has_ball, is_marked = site("hasBall", player), site("isMarked", player)
    call_for_ball, call_for_support = site("callForBall", player), site("callForSupport", player)
    partner, is_in_attack = site("partner", player), site("isInAttack", player)
    for p in perceived:
        ref = (refs[p.pid],)
        emit(has_ball, ref, p.has_ball)
        emit(is_marked, ref, p.marked_by is not None)
        emit(call_for_ball, ref, p.call_for_ball)
        emit(call_for_support, ref, p.call_for_support)
        emit(partner, ref, p.team == me.team)
        if _attacks_positive_x(p.team):
            in_attack = p.x > world.field_length / 2
        else:
            in_attack = p.x < world.field_length / 2
        emit(is_in_attack, ref, in_attack)
    marked_by = site("markedBy", player, player)
    for p in perceived:
        if p.marked_by is not None and p.marked_by in refs:
            emit(marked_by, (refs[p.pid], refs[p.marked_by]), True)

    others = [p for p in perceived if p.pid != self_id]
    if ball_seen:
        emit(site("distance", ME, ball_const), (ME, ball_const),
             quantize_distance(_distance((me.x, me.y), world.ball)))
        emit(site("relativePosition", ME, ball_const), (ME, ball_const),
             _quadrant(facing_me, (world.ball[0] - me.x, world.ball[1] - me.y)))
    distance, relative = site("distance", ME, player), site("relativePosition", ME, player)
    for p in others:
        emit(distance, (ME, refs[p.pid]), quantize_distance(_distance((me.x, me.y), (p.x, p.y))))
        emit(relative, (ME, refs[p.pid]), _quadrant(facing_me, (p.x - me.x, p.y - me.y)))
    if ball_seen:
        from_ball = site("distance", ball_const, player)
        for p in others:
            emit(from_ball, (ball_const, refs[p.pid]),
                 quantize_distance(_distance(world.ball, (p.x, p.y))))
    orientation = site("orientation", player)
    for p in others:
        emit(orientation, (refs[p.pid],), _quadrant(facing_me, _facing(p, world.ball)))

    half = me.x < world.field_length / 2
    mates = sum(1 for p in world.players
                if p.team == me.team and (p.x < world.field_length / 2) == half)
    foes = sum(1 for p in world.players
               if p.team != me.team and (p.x < world.field_length / 2) == half)
    label = "even" if mates == foes else ("outnumbering" if mates > foes else "outnumbered")
    team, last = const(me.team, "Team"), const("pass", "Action")
    emit(site("ratio", team), (team,), label)
    emit(site("lastAction", last), (last,), world.last_action_pass)
    return TargetCase(perceptions=tuple(kept), origin=world.wid)


# ---------------------------------------------------------------------------
# generation and snapshot files

def generate_world(seed: int, n_players: int) -> WorldSnapshot:
    """Deterministic pseudo-random snapshot: two equal teams, at most one
    ball owner, marking only across teams. Same seed, same snapshot."""
    if n_players < 2 or n_players % 2 != 0:
        raise ValueError("n_players must be an even number >= 2")
    rng = random.Random(seed)
    ids = [f"Agent.{i + 1}" for i in range(n_players)]
    team_of = {pid: TEAMS[0] if i < n_players // 2 else TEAMS[1]
               for i, pid in enumerate(ids)}
    pos = {pid: (round(rng.uniform(0, FIELD_LENGTH), 2), round(rng.uniform(0, FIELD_WIDTH), 2))
           for pid in ids}
    owner = rng.choice(ids) if rng.random() < 0.85 else None
    ball = pos[owner] if owner else (
        round(rng.uniform(0, FIELD_LENGTH), 2), round(rng.uniform(0, FIELD_WIDTH), 2)
    )
    players = []
    for pid in ids:
        opponents = [o for o in ids if team_of[o] != team_of[pid]]
        marked_by = rng.choice(opponents) if rng.random() < 0.35 else None
        players.append(Player(
            pid=pid,
            team=team_of[pid],
            x=pos[pid][0],
            y=pos[pid][1],
            has_ball=pid == owner,
            marked_by=marked_by,
            call_for_ball=rng.random() < 0.25,
            call_for_support=rng.random() < 0.25,
        ))
    return WorldSnapshot(
        wid=f"w{seed}n{n_players}",
        players=tuple(players),
        ball=ball,
        self_id=ids[0],
        last_action_pass=rng.random() < 0.5,
    )


def dump_snapshot(world: WorldSnapshot) -> str:
    """The snapshot text of ``world``, which ``load_snapshot`` reads back equal."""
    lines = [
        f"world {world.wid}",
        f"tick {world.tick}",
        f"field {world.field_length!r} {world.field_width!r}",
        f"ball {world.ball[0]!r} {world.ball[1]!r}",
        f"self {world.self_id}",
        f"lastpass {int(world.last_action_pass)}",
    ]
    for p in world.players:
        lines.append(
            f"player {p.pid} {p.team} {p.x!r} {p.y!r} {int(p.has_ball)} "
            f"{p.marked_by or '-'} {int(p.call_for_ball)} {int(p.call_for_support)}"
        )
    return "\n".join(lines) + "\n"


_FIELDS = {"world": 1, "tick": 1, "field": 2, "ball": 2, "self": 1, "lastpass": 1, "player": 8}
_FLAGS = {"0": False, "1": True}


def load_snapshot(text: str) -> WorldSnapshot:
    wid, tick, last_pass = "snapshot", 0, False
    length, width = FIELD_LENGTH, FIELD_WIDTH
    ball: tuple[float, float] | None = None
    self_id: str | None = None
    players: list[Player] = []
    kinds: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            count = _FIELDS.get(kind)
            if count is None:
                raise ValueError(f"unknown record {kind!r}")
            if len(parts) != 1 + count:
                raise ValueError(f"{kind!r} record has {len(parts) - 1} fields, expected {count}")
            if kind in kinds and kind != "player":
                raise ValueError(f"second {kind!r} record")
            kinds.add(kind)
            if kind == "world":
                wid = parts[1]
            elif kind == "tick":
                tick = int(parts[1])
            elif kind == "field":
                length, width = float(parts[1]), float(parts[2])
            elif kind == "ball":
                ball = (float(parts[1]), float(parts[2]))
            elif kind == "self":
                self_id = parts[1]
            elif kind == "lastpass":
                last_pass = _FLAGS[parts[1]]
            else:  # player
                players.append(Player(
                    pid=parts[1], team=parts[2],
                    x=float(parts[3]), y=float(parts[4]),
                    has_ball=_FLAGS[parts[5]],
                    marked_by=None if parts[6] == "-" else parts[6],
                    call_for_ball=_FLAGS[parts[7]],
                    call_for_support=_FLAGS[parts[8]],
                ))
        except KeyError as exc:  # a flag field that is neither 0 nor 1
            raise ValueError(f"snapshot line {lineno}: flag {exc} is not 0 or 1") from None
        except ValueError as exc:
            raise ValueError(f"snapshot line {lineno}: {exc}") from None
    if ball is None or self_id is None or not players:
        raise ValueError("snapshot needs ball, self and at least one player line")
    return WorldSnapshot(
        wid=wid, players=tuple(players), ball=ball, self_id=self_id,
        field_length=length, field_width=width,
        last_action_pass=last_pass, tick=tick,
    )
