"""A deterministic toy football world that answers predicate queries.

This is the "context box" feeding retrieval: it turns raw state (positions,
possession, marking) into semantic perceptions. Nothing moves here; a
snapshot is one instant, and every operation on it is pure.

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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .cases import ME, Perception, TargetCase, concrete, const
from .context import Context, football_context, quantize_distance, validate_perception

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
        ids = [p.pid for p in self.players]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate player id")
        if self.self_id not in ids:
            raise ValueError(f"self {self.self_id!r} is not a player")
        owners = [p.pid for p in self.players if p.has_ball]
        if len(owners) > 1:
            raise ValueError(f"more than one ball owner: {owners}")
        by_id = {p.pid: p for p in self.players}
        for p in self.players:
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


@dataclass(frozen=True)
class Query:
    """A predicate with slots either bound to instance ids/constants or free
    (None). ``desired`` optionally restricts answers to one intended choice
    value, the form a retrieval test uses."""

    name: str
    args: tuple[str | None, ...]
    desired: bool | str | None = None


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

    def ref(p: Player):
        return ME if p.pid == self_id else concrete(p.pid)

    ball_const = const("ball", "Ball")
    facing_me = _facing(me, world.ball)

    candidates: list[Perception] = []

    def emit(name: str, values, choice):
        candidates.append(Perception(name, tuple(values), choice))

    for p in perceived:
        emit("hasBall", [ref(p)], p.has_ball)
        emit("isMarked", [ref(p)], p.marked_by is not None)
        emit("callForBall", [ref(p)], p.call_for_ball)
        emit("callForSupport", [ref(p)], p.call_for_support)
        emit("partner", [ref(p)], p.team == me.team)
        if _attacks_positive_x(p.team):
            in_attack = p.x > world.field_length / 2
        else:
            in_attack = p.x < world.field_length / 2
        emit("isInAttack", [ref(p)], in_attack)
    perceived_ids = {p.pid for p in perceived}
    for p in perceived:
        if p.marked_by is not None and p.marked_by in perceived_ids:
            emit("markedBy", [ref(p), ref(world.player(p.marked_by))], True)

    others = [p for p in perceived if p.pid != self_id]
    if ball_seen:
        emit("distance", [ME, ball_const], quantize_distance(_distance((me.x, me.y), world.ball)))
        emit("relativePosition", [ME, ball_const],
             _quadrant(facing_me, (world.ball[0] - me.x, world.ball[1] - me.y)))
    for p in others:
        emit("distance", [ME, ref(p)], quantize_distance(_distance((me.x, me.y), (p.x, p.y))))
        emit("relativePosition", [ME, ref(p)],
             _quadrant(facing_me, (p.x - me.x, p.y - me.y)))
    if ball_seen:
        for p in others:
            emit("distance", [ball_const, ref(p)],
                 quantize_distance(_distance(world.ball, (p.x, p.y))))
    for p in others:
        emit("orientation", [ref(p)], _quadrant(facing_me, _facing(p, world.ball)))

    half = me.x < world.field_length / 2
    mates = sum(1 for p in world.players
                if p.team == me.team and (p.x < world.field_length / 2) == half)
    foes = sum(1 for p in world.players
               if p.team != me.team and (p.x < world.field_length / 2) == half)
    label = "even" if mates == foes else ("outnumbering" if mates > foes else "outnumbered")
    emit("ratio", [const(me.team, "Team")], label)
    emit("lastAction", [const("pass", "Action")], world.last_action_pass)

    by_lower = {name.lower(): name for name in ctx.predicates}
    kept = []
    for p in candidates:
        declared = by_lower.get(p.name.lower())
        if declared is None:
            continue
        renamed = Perception(declared, p.values, p.choice)
        if validate_perception(renamed, ctx) is None:
            kept.append(renamed)
    return TargetCase(perceptions=tuple(kept), origin=world.wid)


# ---------------------------------------------------------------------------
# queries

def query(world: WorldSnapshot, q: Query, ctx: Context | None = None,
          radius: float = DEFAULT_RADIUS) -> list[tuple[tuple[str, ...], bool | str]]:
    """Answer a predicate query against the observer's perceived context.

    Returns (fully bound argument tuple, choice value) pairs, ordered by
    instance id. Free slots (None) are completed against the elaborated
    perception set of the snapshot's own observer. Without a ``desired``
    value, a Boolean query with free slots returns only validating (true)
    completions, and a fully bound query reports the actual value; with
    ``desired`` set, only completions achieving that value are returned.
    """
    ctx = ctx if ctx is not None else football_context()
    if q.name not in ctx.predicates:
        raise ValueError(f"unknown predicate {q.name!r}")
    schema = ctx.predicates[q.name]
    if len(q.args) != schema.arity:
        raise ValueError(f"{q.name} expects {schema.arity} argument(s), got {len(q.args)}")

    target = elaborate(world, world.self_id, radius=radius, ctx=ctx)
    fully_bound = all(a is not None for a in q.args)
    results = []
    for p in target.perceptions:
        if p.name != q.name:
            continue
        ok = True
        for want, have in zip(q.args, p.values):
            if want is None:
                continue
            name = "me" if have.kind == "me" else have.name
            if want != name:
                ok = False
                break
        if not ok:
            continue
        if q.desired is not None:
            if p.choice != q.desired:
                continue
        elif not fully_bound and schema.choice.kind == "boolean" and p.choice is not True:
            continue
        bound = tuple("me" if v.kind == "me" else v.name for v in p.values)
        results.append((bound, p.choice))
    return sorted(set(results), key=lambda r: r[0])


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


def load_snapshot(text: str) -> WorldSnapshot:
    wid, tick, last_pass = "snapshot", 0, False
    length, width = FIELD_LENGTH, FIELD_WIDTH
    ball: tuple[float, float] | None = None
    self_id: str | None = None
    players: list[Player] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
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
                last_pass = parts[1] not in ("0", "false")
            elif kind == "player":
                players.append(Player(
                    pid=parts[1], team=parts[2],
                    x=float(parts[3]), y=float(parts[4]),
                    has_ball=parts[5] == "1",
                    marked_by=None if parts[6] == "-" else parts[6],
                    call_for_ball=parts[7] == "1",
                    call_for_support=parts[8] == "1",
                ))
            else:
                raise ValueError(f"unknown record {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"snapshot line {lineno}: {exc}") from None
    if ball is None or self_id is None or not players:
        raise ValueError("snapshot needs ball, self and at least one player line")
    return WorldSnapshot(
        wid=wid, players=tuple(players), ball=ball, self_id=self_id,
        field_length=length, field_width=width,
        last_action_pass=last_pass, tick=tick,
    )
