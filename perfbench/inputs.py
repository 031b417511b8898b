"""Seeded inputs for the retrieval benchmark.

Everything a workload retrieves against is made here from the package's
public API (``generate_world``, ``elaborate``, ``generalize``,
``serialize_case_base``, ``dump_snapshot``) plus this module's own case
sampler, so nothing under ``tests/`` can change a workload. The program
only ever sees the generated texts: a context document, a case-base
document and snapshot texts.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import casetree as ct

FIXTURES = Path("tests") / "fixtures"
CONTEXT_FIXTURE = FIXTURES / "football.ctx.xml"
BENCH50_FIXTURE = FIXTURES / "bench50.cases.xml"
BENCH50_WORLDS = tuple(FIXTURES / f"w{s}n6.world" for s in (101, 202, 303, 404, 505))

#: Radius that takes in every player on a 100 m x 60 m pitch (its diagonal is 116.6 m).
WHOLE_PITCH = 120.0
#: The package's default perception radius.
NEAR = 30.0

ACTIONS = ("pass", "shoot", "move", "mark", "call")


@dataclass(frozen=True)
class Snapshot:
    """One snapshot as the program receives it: text plus elaboration radius."""

    name: str
    text: str
    radius: float


def read_fixture(root: Path, rel: Path, digests: dict[str, str]) -> str:
    """Read a committed fixture and record its sha256 under its relative path."""
    data = (root / rel).read_bytes()
    digests[rel.as_posix()] = hashlib.sha256(data).hexdigest()
    return data.decode("utf-8")


def sample_case(rng: random.Random, target: ct.TargetCase, ctx: ct.Context,
                case_id: str, max_perceptions: int, mutation_rate: float) -> ct.GenericCase:
    """A generic case drawn from a real target.

    Picks up to ``max_perceptions`` perceptions, always starting with a
    hasBall perception so that cases share tree prefixes, flips some choice
    values so that negative matches occur, generalizes the concrete agents
    and draws relevance weights.
    """
    pool = list(target.perceptions)
    picks = rng.sample(pool, rng.randint(1, min(max_perceptions, len(pool))))
    roots = [p for p in pool if p.name == "hasBall"]
    if roots:
        picks = [rng.choice(roots)] + [p for p in picks if p.name != "hasBall"]
        picks = picks[:max_perceptions]
    chosen: list[ct.Perception] = []
    for p in picks:
        if rng.random() < mutation_rate:
            if isinstance(p.choice, bool):
                p = ct.Perception(p.name, p.values, not p.choice)
            else:
                p = ct.Perception(p.name, p.values,
                                  rng.choice(ctx.predicates[p.name].choice.labels))
        if p not in chosen:
            chosen.append(p)
    shape = ct.generalize(ct.TargetCase(tuple(chosen), origin="sample"),
                          action=rng.choice(ACTIONS), case_id=case_id)
    weights = tuple(round(rng.uniform(0.1, 2.0), 3) for _ in shape.perceptions)
    return ct.GenericCase(case_id, shape.perceptions, weights, shape.action)


def case_stream(seed: int, players: int, ctx: ct.Context, max_perceptions: int,
                prefix: str) -> Iterator[ct.GenericCase]:
    """Endless sampled cases (duplicates allowed) from three seeded worlds of
    ``players`` players, each perceived at the default radius."""
    rng = random.Random(seed)
    pools = []
    for i in range(3):
        world = ct.generate_world(seed * 7 + i, players)
        pools.append(ct.elaborate(world, world.self_id, radius=NEAR, ctx=ctx))
    for i in itertools.count():
        yield sample_case(rng, rng.choice(pools), ctx, f"{prefix}{i:04d}",
                          max_perceptions, mutation_rate=0.25)


def seeded_base(seed: int, players: int, size: int, ctx: ct.Context,
                max_perceptions: int) -> list[ct.GenericCase]:
    """``size`` pairwise non-equivalent sampled cases, renumbered c000, c001, ..."""
    base: list[ct.GenericCase] = []
    stream = case_stream(seed, players, ctx, max_perceptions, "s")
    for case in itertools.islice(stream, size * 40):
        if not any(ct.case_equivalent(case, kept) for kept in base):
            base.append(ct.GenericCase(f"c{len(base):03d}", case.perceptions,
                                       case.weights, case.action))
            if len(base) == size:
                return base
    raise RuntimeError(f"seed {seed}: only {len(base)} distinct cases")


def base_document(base: list[ct.GenericCase], ctx: ct.Context) -> str:
    return ct.serialize_case_base(base, ct.FOOTBALL_PRIORITY, ctx)


def world_snapshot(world_seed: int, players: int, radius: float) -> Snapshot:
    world = ct.generate_world(world_seed, players)
    return Snapshot(world.wid, ct.dump_snapshot(world), radius)
