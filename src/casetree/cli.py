"""Command-line entry point: build, retrieve, bench.

Exit codes: 0 success, 1 usage, 2 parse/validation failure, 3 runtime
failure. Diagnostics go to stderr; CSV outputs are byte-identical across
runs for identical flags, fixtures and seeds.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from .cases import parse_case_base
from .context import ContextError, parse_context
from .evaluation import (
    format_memory_csv,
    format_metric_csv,
    format_retrieve_csv,
    load_ground_truth,
    memory_curve,
    sweep_alpha,
    sweep_budget,
)
from .retrieval import (
    RetrievalError,
    ScanBudget,
    TargetOracle,
    UNBOUNDED,
    build_tree,
    linear_perception_count,
    scan_linear,
    scan_tree,
)
from .similarity import SimilarityParams
from .world import DEFAULT_RADIUS, elaborate, load_snapshot


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _float_list(raw: str) -> list[float]:
    return [float(x) for x in raw.split(",") if x.strip()]


def _int_list(raw: str) -> list[int]:
    return [int(x) for x in raw.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="casetree", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, world=False):
        p.add_argument("--ctx", required=True, help="context definition file")
        p.add_argument("--base", required=True, help="case base file")
        if world:
            p.add_argument("--world", action="append", default=[],
                           help="world snapshot file (repeatable for bench)")
            p.add_argument("--self", dest="self_id", default=None,
                           help="observer id (defaults to the snapshot's own)")
            p.add_argument("--radius", type=float, default=DEFAULT_RADIUS,
                           help="perception radius in meters")

    p_build = sub.add_parser("build", help="compile the base and print tree stats")
    common(p_build)
    p_build.set_defaults(func=cmd_build)

    p_ret = sub.add_parser("retrieve", help="run one retrieval against a world")
    common(p_ret, world=True)
    p_ret.add_argument("--alpha", type=float, default=0.5)
    limit = p_ret.add_mutually_exclusive_group()
    limit.add_argument("--budget", type=int, default=None,
                       help="comparison budget (default unbounded)")
    limit.add_argument("--deadline-ms", type=float, default=None,
                       help="wall-clock budget in milliseconds instead of comparisons")
    p_ret.add_argument("--prune", action=argparse.BooleanOptionalAction, default=True)
    p_ret.add_argument("--engine", choices=("tree", "linear"), default="tree")
    p_ret.add_argument("--seed", type=int, default=0,
                       help="seed for the linear engine's scan order")
    p_ret.add_argument("--out", default=None, help="per-case score CSV")
    p_ret.set_defaults(func=cmd_retrieve)

    p_bench = sub.add_parser("bench", help="run an experiment suite to CSV")
    p_bench.add_argument("suite", choices=("alpha", "budget", "memory"))
    common(p_bench, world=True)
    p_bench.add_argument("--truth", default=None, help="ground-truth fixture file")
    p_bench.add_argument("--alpha", type=float, default=0.5)
    p_bench.add_argument("--alphas", type=_float_list, default=[0.0, 0.25, 0.5, 0.75, 1.0])
    p_bench.add_argument("--budgets", type=_int_list, default=None)
    p_bench.add_argument("--threshold", type=float, default=0.5)
    p_bench.add_argument("--reps", type=int, default=100,
                         help="random scan orders averaged per linear row")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--prune", action=argparse.BooleanOptionalAction, default=True)
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def _load_inputs(args):
    ctx = parse_context(Path(args.ctx).read_text(encoding="utf-8"))
    cases, priority = parse_case_base(Path(args.base).read_text(encoding="utf-8"), ctx)
    return ctx, cases, priority


def _load_targets(args, ctx):
    if not args.world:
        raise ContextError("at least one --world snapshot is required")
    targets = {}
    for path in args.world:
        world = load_snapshot(Path(path).read_text(encoding="utf-8"))
        if world.wid in targets:
            raise ContextError(f"two snapshots have world id {world.wid!r}", path)
        self_id = args.self_id or world.self_id
        targets[world.wid] = elaborate(world, self_id, radius=args.radius, ctx=ctx)
    return targets


def cmd_build(args) -> int:
    _, cases, priority = _load_inputs(args)
    tree = build_tree(cases, priority)
    print(f"nodes={tree.node_count} leaves={tree.leaf_count} depth={tree.depth}")
    return 0


def cmd_retrieve(args) -> int:
    ctx, cases, priority = _load_inputs(args)
    targets = _load_targets(args, ctx)
    if len(targets) != 1:
        raise ContextError("retrieve expects exactly one --world")
    target = next(iter(targets.values()))
    oracle = TargetOracle(target)
    params = SimilarityParams(alpha=args.alpha)

    if args.deadline_ms is not None:
        budget = ScanBudget.deadline(args.deadline_ms / 1000.0)
    elif args.budget is not None:
        budget = ScanBudget.comparisons(args.budget)
    else:
        budget = UNBOUNDED

    if args.engine == "tree":
        tree = build_tree(cases, priority)
        result = scan_tree(tree, oracle, budget, params, prune=args.prune)
    else:
        random.Random(args.seed).shuffle(cases)
        result = scan_linear(cases, oracle, budget, params)

    prune_state = "on" if args.prune and args.engine == "tree" else "off"
    print(f"best={result.best_case or '-'} score={result.score:.6f} "
          f"substitution={result.substitution or '-'} prune={prune_state} "
          f"tests={result.tests_used}")

    if args.out:
        Path(args.out).write_text(format_retrieve_csv(result), encoding="utf-8")
    return 0


def cmd_bench(args) -> int:
    ctx, cases, priority = _load_inputs(args)

    if args.suite == "memory":
        rows = memory_curve(cases, priority)
        text = format_memory_csv(rows)
    else:
        targets = _load_targets(args, ctx)
        truth = {}
        if args.truth:
            truth = load_ground_truth(Path(args.truth).read_text(encoding="utf-8"))
            known = {case.id for case in cases}
            for tid in sorted(targets.keys() & truth.keys()):  # others are not scored
                if truth[tid] - known:
                    raise ContextError(f"target {tid!r} names case {min(truth[tid] - known)!r}, "
                                       "which the base lacks", args.truth)
        if args.suite == "alpha":
            metric_rows = []
            for tid in sorted(targets):
                metric_rows += sweep_alpha(targets[tid], cases, truth.get(tid, frozenset()),
                                           args.threshold, args.alphas)
            text = format_metric_csv(metric_rows)
        else:
            tree = build_tree(cases, priority)
            budgets = args.budgets
            if budgets is None:
                full = max(linear_perception_count(cases), tree.arc_count())
                step = max(1, full // 24)
                budgets = list(range(0, full + step, step))
            metric_rows = sweep_budget(
                targets, tree, truth, budgets,
                repetitions=args.reps, seed=args.seed,
                params=SimilarityParams(alpha=args.alpha),
                threshold=args.threshold, prune=args.prune,
            )
            text = format_metric_csv(metric_rows)

    Path(args.out).write_text(text, encoding="utf-8")
    print(f"wrote {args.out} rows={len(text.splitlines()) - 1}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        sys.stderr.write(f"casetree: {exc}\n")
        return 2
    except RetrievalError as exc:
        sys.stderr.write(f"casetree: {exc}\n")
        return 3
    except Exception as exc:  # anything else is a runtime failure
        sys.stderr.write(f"casetree: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
