#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py --left PARENT_CHECKOUT --right CHANGED_CHECKOUT
    python3 perfbench/compare.py                  # this checkout against itself

For every workload, runs ``perfbench/run.py`` once per seed on each side
(seeds ``--first-seed`` onwards, the same seeds on both sides, alternating
which side runs first), with the run length from ``BENCHMARK.json``. Then
prints, for every end-to-end metric, each side's median and quartiles and
its spread (quartile distance over median), and whether the sets agree:
both spreads within the metric's bound, the right median no worse than the
left by more than the bound, and the same share of failed operations on
both sides. Exits 0 when everything agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    command = ["python3", "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout} {workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def report(spec: dict, results: dict) -> bool:
    agree_all = True
    for workload, sides in results.items():
        print(f"\n== {workload} ==")
        shares = [{Fraction(r["failed"], r["attempted"]) for r in side} for side in sides]
        share_ok = all(len(s) == 1 for s in shares) and shares[0] == shares[1]
        incorrect = sum(not r["correct"] for side in sides for r in side)
        print(f"failed share {' | '.join(str(sorted(s)) for s in shares)}: "
              f"{'same' if share_ok else 'DIFFERS'}; incorrect runs: {incorrect}")
        agree_all &= share_ok and incorrect == 0
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells = []
            verdict = True
            medians = []
            for side in sides:
                median, q1, q3, spread = summary([r["metrics"][name]["value"] for r in side])
                medians.append(median)
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}")
                verdict &= spread <= bound
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            cells.append(f"worse by {worse:+.3f}")
            verdict &= worse <= bound
            agree_all &= verdict
            print(f"  {name:18s} bound {bound:<5} {' | '.join(cells)}  "
                  f"{'agree' if verdict else 'DISAGREE'}")
    return agree_all


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--left", type=Path, default=ROOT)
    parser.add_argument("--right", type=Path, default=ROOT)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="",
                        help="comma-separated names; default all in BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    checkouts = [args.left.resolve(), args.right.resolve()]
    results = {}
    for workload in names:
        results[workload] = [[], []]
        for i in range(args.runs):
            seed = args.first_seed + i
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                results[workload][s].append(
                    run_once(checkouts[s], workload, seed, spec["run_seconds"]))
                print(f"{workload} seed {seed} side {s}: "
                      f"{json.dumps(results[workload][s][-1]['metrics'])}", flush=True)
    return 0 if report(spec, results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
