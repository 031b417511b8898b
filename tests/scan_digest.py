"""Digest the results of a fixed grid of scans, one line per scan.

Run from the repository root::

    PYTHONPATH=src python3 tests/scan_digest.py            # print the digest
    PYTHONPATH=src python3 tests/scan_digest.py --write    # rewrite the fixture

Each line is a label and the sha256 of ``repr`` of one result, its
``elapsed_us`` set to 0, so two trees print the same lines exactly when
every scan of the grid gives the same result. The inputs are the committed
bench50 base against its five committed worlds at radius 30 and 120, and a
100-case base sampled from worlds of up to 22 players against ten fresh
22-player worlds at radius 120. Each input is scanned ten ways (``scans``),
and every case of its base is scored with ``similarity``.
``test_scan.py`` compares the output with ``fixtures/scan_digest.txt``;
regenerate that file only for a change meant to alter results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import casetree as ct
from support import random_base

FIXTURES = Path(__file__).parent / "fixtures"
DIGEST = FIXTURES / "scan_digest.txt"

BUDGETS = (("unbounded", ct.UNBOUNDED), ("7", ct.ScanBudget.comparisons(7)),
           ("40", ct.ScanBudget.comparisons(40)))


def scans(base, tree, target):
    """(name, result) for each of the ten scans of one input."""
    for prune in (True, False):
        for name, budget in BUDGETS:
            yield (f"rank prune={int(prune)} budget={name}",
                   ct.scan_tree(tree, ct.TargetOracle(target), budget, prune=prune))
    for prune in (True, False):
        yield (f"top1 prune={int(prune)}",
               ct.scan_tree(tree, ct.TargetOracle(target), prune=prune, cancel=threading.Event()))
    for name, budget in (BUDGETS[0], BUDGETS[2]):
        yield f"linear budget={name}", ct.scan_linear(base, ct.TargetOracle(target), budget)


def inputs():
    """(label, base, tree, target) for every input of the grid."""
    ctx = ct.parse_context((FIXTURES / "football.ctx.xml").read_text())
    cases, priority = ct.parse_case_base((FIXTURES / "bench50.cases.xml").read_text(), ctx)
    tree = ct.build_tree(cases, priority)
    for path in sorted(FIXTURES.glob("w*.world")):
        world = ct.load_snapshot(path.read_text())
        for radius in (30, 120):
            yield (f"bench50 {path.stem} r{radius}", cases, tree,
                   ct.elaborate(world, world.self_id, radius, ctx))
    sampled = random_base(6, 100, max_players=22)
    tree = ct.build_tree(sampled, ct.FOOTBALL_PRIORITY)
    for i in range(10):
        world = ct.generate_world(900000 + i, 22)
        yield (f"random100 {world.wid} r120", sampled, tree,
               ct.elaborate(world, world.self_id, 120))


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def digest_lines() -> list[str]:
    lines = []
    for label, base, tree, target in inputs():
        for name, result in scans(base, tree, target):
            lines.append(f"{label} {name} {_sha(dataclasses.replace(result, elapsed_us=0))}")
        scores = [(case.id, ct.similarity(case, target)) for case in base]
        lines.append(f"{label} similarity {_sha(scores)}")
    return lines


if __name__ == "__main__":
    text = "\n".join(digest_lines()) + "\n"
    if sys.argv[1:] == ["--write"]:
        DIGEST.write_text(text)
    elif sys.argv[1:]:
        sys.exit("usage: scan_digest.py [--write]")
    else:
        sys.stdout.write(text)
