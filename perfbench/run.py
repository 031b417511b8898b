#!/usr/bin/env python3
"""Retrieval benchmark: snapshot-to-answer latency, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload fixture50 --seed 1 --seconds 20 --trace 0

One workload runs per call, in this process and thread, as a closed loop.
The last line of standard output is one JSON object holding ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` every
end-to-end metric listed in ``BENCHMARK.json``, with ``--trace 1`` every
per-layer metric, including the tracing overhead. The lines before it are a
human-readable report. See ``perfbench/README.md`` for the workloads and what
each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-failures", action="store_true",
                        help="print every failing (target, case, linear score, "
                             "better score) before the result line")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def end_to_end(wl, percentile):
    tree_ms = wl.times("tree")
    return {
        "setup_s": statistics.median(wl.times("setup")) / 1e3,
        "tree_ms_p50": statistics.median(tree_ms),
        "tree_ms_tail": percentile(sorted(tree_ms), wl.tail),
        "linear_ms_p50": statistics.median(wl.times("linear")),
        "tree_score": statistics.fmean(wl.samples["tree_score"]),
        "acquire_ms_p50": statistics.median(wl.times("acquire")),
        "tree_nodes": wl.tree_nodes(),
    }


def per_layer(wl, tracer):
    s = wl.samples

    def ratio(num, den):
        return num / den if den else 0.0

    ops = sum(n for name, n in tracer.count.items() if name.startswith("bench."))
    out = {
        "context.parse_context_ms": tracer.mean_us("context.parse_context") / 1e3,
        "cases.parse_case_base_ms": tracer.mean_us("cases.parse_case_base") / 1e3,
        "cases.case_equivalent_us": tracer.mean_us("cases.case_equivalent"),
        "cases.case_equivalent_calls": statistics.fmean(s["case_equivalent_calls"]),
        "world.load_snapshot_us": tracer.mean_us("world.load_snapshot"),
        "world.elaborate_us": tracer.mean_us("world.elaborate"),
        "world.target_perceptions": statistics.fmean(s["target_perceptions"]),
        "world.concrete_agents": statistics.fmean(s["concrete_agents"]),
        "similarity.similarity_us": tracer.mean_us("similarity.scored_unify"),
        "retrieval.build_tree_ms": tracer.mean_us("retrieval.build_tree") / 1e3,
        "retrieval.tree_arcs": wl.tree_arcs(),
        "retrieval.oracle_init_us": tracer.mean_us("retrieval.TargetOracle"),
        "retrieval.oracle_calls": ratio(tracer.count["retrieval.completions"],
                                        tracer.count["retrieval.scan_tree"]),
        "retrieval.oracle_us": tracer.mean_us("retrieval.completions"),
        "retrieval.completions_per_call": ratio(sum(s["completions"]),
                                                tracer.count["retrieval.completions"]),
        "retrieval.scan_tree_us": tracer.mean_us("retrieval.scan_tree"),
        "retrieval.scan_tree_self_us": tracer.mean_self_us("retrieval.scan_tree"),
        "retrieval.cases_pruned": statistics.fmean(s["cases_pruned"]),
        "retrieval.scan_linear_us": tracer.mean_us("retrieval.scan_linear"),
        "retrieval.deadline_tests": statistics.fmean(s["deadline_tests"] or [0]),
        "trace.overhead_pct": (statistics.median(wl.times("tree", traced=True))
                               / statistics.median(wl.times("tree", traced=False))
                               - 1.0) * 100.0,
    }
    for layer in ("cases", "world", "similarity", "retrieval"):
        out[f"{layer}.self_us_per_op"] = ratio(tracer.op_self_ns[layer] / 1e3, ops)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.dont_write_bytecode = True
    if not (ROOT / "src" / "casetree" / "__init__.py").is_file():
        print(f"error: no casetree package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from tracing import TracedScoring, Tracer
    from workloads import REFERENCE_MS, WORKLOADS, percentile

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        wl = WORKLOADS[args.workload](ROOT, args.seed)
    except FileNotFoundError as exc:
        print(f"error: missing fixture: {exc}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    wl.tracer = tracer
    prepare_start = time.perf_counter()
    wl.prepare()
    wl.tracer = None
    wl.record = False
    wl.round(-1)  # warm-up, not timed
    wl.record = True
    prepare_s = time.perf_counter() - prepare_start

    # In a traced run, odd rounds are traced and even rounds are not; the gap
    # between their retrieval times is the tracing overhead.
    gc.collect()
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = bool(args.trace) and rounds % 2 == 1
        wl.tracer = tracer if traced else None
        if traced:
            with TracedScoring(tracer):
                wl.round(rounds)
        else:
            wl.round(rounds)
        wl.time_set_up()
        rounds += 1
        if time.perf_counter() - start >= args.seconds and (rounds >= 2 or not args.trace):
            break
    elapsed = time.perf_counter() - start
    wl.tracer = None

    tree_ms = wl.times("tree")
    beyond = len(tree_ms) - int(wl.tail * len(tree_ms))
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {rounds} rounds, "
          f"{wl.attempted} operations ({wl.failed} failed) in {elapsed:.2f} s; "
          f"inputs and warm-up {prepare_s:.2f} s")
    for rel, digest in sorted(wl.digests.items()):
        print(f"fixture {rel} sha256 {digest}")
    print(f"tree retrievals: {len(tree_ms)}, tail percentile p{wl.tail * 100:g} "
          f"with {beyond} beyond it")
    print(f"{wl.name} retrievals_per_s = {len(tree_ms) / (sum(tree_ms) / 1e3):.6g} 1/s")
    for name, (value, unit) in wl.extra_report().items():
        print(f"{wl.name} {name} = {value:.6g} {unit}")
    reference = statistics.median(entry[2] for entry in wl.log)
    print(f"reference work: median {reference:.4f} ms against {REFERENCE_MS} ms nominal; "
          f"unscaled medians: " + ", ".join(
              f"{kind} {statistics.median(wl.times(kind, scaled=False)):.6g} ms"
              for kind in sorted({entry[0] for entry in wl.log})))
    if args.list_failures:
        for target, cid, linear, better in sorted(set(wl.failures)):
            print(f"failure target {target} case {cid} linear {linear!r} better {better!r}")
    for message in wl.errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)

    if args.trace:
        values = per_layer(wl, tracer)
        listed = spec["per_layer"]
        out = HERE / "out" / f"spans-{wl.name}-{args.seed}.jsonl"
        tracer.write(out)
        print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}"
              f"{f', {tracer.dropped} more only counted' if tracer.dropped else ''}")
    else:
        values = end_to_end(wl, percentile)
        listed = spec["end_to_end"]
    names = [m["name"] for m in listed]
    if sorted(names) != sorted(values):
        print(f"error: computed metrics {sorted(values)} differ from BENCHMARK.json "
              f"{sorted(names)}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": not wl.errors, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
