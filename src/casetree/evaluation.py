"""Benchmark harness: retrieved sets, recall/precision, sweeps, memory curve.

The quality metrics are defined as::

    recall    = N_correct / (N_correct + N_false)     (0 when nothing retrieved)
    precision = N_correct / N_total                   (0 when C1 is empty)
    N_total   = N_correct + N_missed

where C1 is the expert-judged similar set, C2 the retrieved set,
N_correct = |C1 n C2|, N_false = |C2| - N_correct, N_missed = |C1| - N_correct.
These names are deliberately swapped relative to the usual convention (the
"precision" column here is what most texts call recall, and vice versa) and
are kept everywhere, fixtures and CSV included, so outputs line up with the
definitions above.

Ground-truth fixture format: one line per target, ``target-id: id,id,...``.

Metric CSV header (fixed)::

    target,alpha,budget,engine,recall,precision,n_correct,n_false,n_missed,th_t,tests_used,elapsed_us

Outputs are byte-reproducible for identical inputs and seeds; the elapsed_us
column is therefore always written as 0, wall time being inherently noisy.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, replace
from statistics import fmean
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

from .cases import GenericCase, TargetCase, case_equivalent
from .retrieval import (
    CaseTree,
    RetrievalResult,
    ScanBudget,
    TargetOracle,
    UNBOUNDED,
    build_tree,
    linear_perception_count,
    scan_tree,
)
from .similarity import DEFAULT_PARAMS, SimilarityParams, similarity

METRIC_CSV_HEADER = ("target,alpha,budget,engine,recall,precision,"
                     "n_correct,n_false,n_missed,th_t,tests_used,elapsed_us")
MEMORY_CSV_HEADER = "cases,linear_perceptions,tree_nodes"
RETRIEVE_CSV_HEADER = "case,score,scanned,pruned,evaluated,substitution,best"


@dataclass(frozen=True)
class MetricRow:
    """One evaluation point. Counts may be fractional on rows averaged over
    scan orders; the identity n_total = n_correct + n_missed always holds."""

    target: str
    alpha: float
    budget: int | None
    engine: str
    recall: float
    precision: float
    n_correct: float
    n_false: float
    n_missed: float
    th_t: float | None
    tests_used: float = 0.0

    @property
    def n_total(self) -> float:
        return self.n_correct + self.n_missed


def metrics(c1: Iterable[str], c2: Iterable[str]) -> MetricRow:
    """Pure set arithmetic on (expert set, retrieved set)."""
    s1, s2 = frozenset(c1), frozenset(c2)
    n_correct = len(s1 & s2)
    n_false = len(s2) - n_correct
    n_missed = len(s1) - n_correct
    recall = n_correct / len(s2) if s2 else 0.0
    precision = n_correct / len(s1) if s1 else 0.0
    return MetricRow(
        target="", alpha=0.0, budget=None, engine="",
        recall=recall, precision=precision,
        n_correct=n_correct, n_false=n_false, n_missed=n_missed,
        th_t=None,
    )


def retrieve_set(target: TargetCase, base: Sequence[GenericCase],
                 params: SimilarityParams = DEFAULT_PARAMS,
                 threshold: float = 0.5) -> tuple[frozenset[str], float | None]:
    """Cases scoring at least ``threshold``, plus the least similarity among
    them (None when nothing qualifies)."""
    return _retrieved({c.id: similarity(c, target, params) for c in base}, threshold)


def _retrieved(scores: Mapping[str, float], threshold: float
               ) -> tuple[frozenset[str], float | None]:
    """The ids scoring at least ``threshold``, plus the least score among
    them (None when nothing qualifies). Raises ValueError unless ``threshold``
    lies in [0, 1]."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    c2 = frozenset(cid for cid, s in scores.items() if s >= threshold)
    return c2, min((scores[cid] for cid in c2), default=None)


def sweep_alpha(target: TargetCase, base: Sequence[GenericCase],
                c1: Iterable[str], threshold: float,
                alphas: Sequence[float]) -> list[MetricRow]:
    """One offline row per alpha at a fixed threshold, labelled with the
    target's origin; larger alphas retrieve nested subsets, trading breadth
    for strictness."""
    rows = []
    for alpha in alphas:
        params = SimilarityParams(alpha=alpha)
        c2, th_t = retrieve_set(target, base, params, threshold)
        row = metrics(c1, c2)
        rows.append(replace(row, target=target.origin, alpha=alpha,
                            engine="offline", th_t=th_t))
    return rows


def sweep_budget(targets: Mapping[str, TargetCase], tree: CaseTree,
                 truth: Mapping[str, frozenset[str]],
                 budgets: Sequence[int], repetitions: int = 100, seed: int = 0,
                 params: SimilarityParams = DEFAULT_PARAMS,
                 threshold: float = 0.5, prune: bool = True) -> list[MetricRow]:
    """Tree vs linear retrieval quality as the comparison budget grows, over
    the cases ``tree`` was compiled from.

    Tree rows come from one deterministic scan per budget. Linear rows
    average ``repetitions`` random case orders drawn from ``seed``; a case
    counts toward the retrieved set only if the budget covered its full
    evaluation. Rows are ordered (target, budget, engine).
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    rows: list[MetricRow] = []
    base = list(tree.cases.values())
    case_ids = [c.id for c in base]
    costs = {c.id: len(c.perceptions) for c in base}

    for target_id in sorted(targets):
        target = targets[target_id]
        c1 = truth.get(target_id, frozenset())
        oracle = TargetOracle(target)

        # exact per-case scores drive every linear prefix evaluation
        exact = {c.id: similarity(c, target, params) for c in base}
        rng = random.Random(seed)
        orders = [rng.sample(case_ids, len(case_ids)) for _ in range(repetitions)]

        for budget in budgets:
            result = scan_tree(tree, oracle, ScanBudget.comparisons(budget),
                               params, prune=prune)
            c2, th_t = _retrieved(result.scores(), threshold)
            rows.append(replace(
                metrics(c1, c2), target=target_id, alpha=params.alpha,
                budget=budget, engine="tree", th_t=th_t,
                tests_used=result.tests_used,
            ))

            samples = []
            for order in orders:
                used = 0
                evaluated = {}  # score of every case the budget fully covered
                for cid in order:
                    if used + costs[cid] > budget:
                        break
                    used += costs[cid]
                    evaluated[cid] = exact[cid]
                c2_lin, th_lin = _retrieved(evaluated, threshold)
                row = metrics(c1, c2_lin)
                samples.append((row.recall, row.precision, row.n_correct,
                                row.n_false, row.n_missed, th_lin, used))
            columns = list(zip(*samples))
            recall, precision, n_correct, n_false, n_missed = map(fmean, columns[:5])
            th_values = [th for th in columns[5] if th is not None]
            rows.append(MetricRow(
                target=target_id, alpha=params.alpha, budget=budget, engine="linear",
                recall=recall, precision=precision, n_correct=n_correct,
                n_false=n_false, n_missed=n_missed,
                th_t=fmean(th_values) if th_values else None,
                tests_used=fmean(columns[6]),
            ))
    return rows


def memory_curve(stream: Iterable[GenericCase],
                 priority: Sequence[str]) -> list[tuple[int, int, int]]:
    """Perceptions stored after each acquisition, flat list vs tree.

    Acquisition deduplicates: a case equivalent (up to generic-label
    renaming) to an already stored one is not stored again, and then
    contributes no row.
    """
    acquired: list[GenericCase] = []
    rows: list[tuple[int, int, int]] = []
    for case in stream:
        if any(case_equivalent(case, k) for k in acquired):
            continue
        acquired.append(case)
        tree = build_tree(acquired, priority)
        rows.append((len(acquired), linear_perception_count(acquired),
                     tree.node_count))
    return rows


# ---------------------------------------------------------------------------
# fixture and CSV formats

def load_ground_truth(text: str) -> dict[str, frozenset[str]]:
    """Parse ``target-id: case-id,case-id,...`` lines, one per target id;
    blank lines and ``#`` comments are skipped."""
    truth: dict[str, frozenset[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ValueError(f"ground truth line {lineno}: expected 'target: ids'")
        target_id, _, ids = line.partition(":")
        target_id = target_id.strip()
        if target_id in truth:
            raise ValueError(f"ground truth line {lineno}: target {target_id!r} given twice")
        truth[target_id] = frozenset(x.strip() for x in ids.split(",") if x.strip())
    return truth


def format_ground_truth(truth: Mapping[str, Iterable[str]]) -> str:
    """One ``target-id: case-id,...`` line per target, both sorted. Raises
    ValueError for an id that ``load_ground_truth`` cannot give back: an
    empty id, one with surrounding whitespace or a line break, a target id
    holding ``:`` or starting with ``#``, or a case id holding ``,``."""
    lines = []
    for tid in sorted(truth):
        ids = sorted(truth[tid])
        for x, bad in ((tid, ":" in tid or tid.startswith("#")), *((c, "," in c) for c in ids)):
            if bad or x != x.strip() or x.splitlines() != [x]:
                raise ValueError(f"ground truth cannot hold id {x!r}")
        lines.append(f"{tid}: {','.join(ids)}")
    return "\n".join(lines) + "\n"


def _fmt_count(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else f"{x:.4f}"


def _csv_text(header: str, rows: Iterable[Sequence[object]]) -> str:
    """The header line, then one line per row. A field holding a comma, a
    quote or a line break is quoted, and ``None`` is empty. csv.writer hands
    over one record per ``write``; its ``"\r\n"`` terminator, cut here,
    makes it quote a lone ``"\r"`` as well."""
    lines = [header]
    sink = SimpleNamespace(write=lambda record: lines.append(record[:-2]))
    csv.writer(sink, lineterminator="\r\n").writerows(rows)
    return "\n".join(lines) + "\n"


def format_metric_csv(rows: Sequence[MetricRow]) -> str:
    """Render rows under the fixed header, newline-terminated, deterministic."""
    return _csv_text(METRIC_CSV_HEADER, ([
        r.target, f"{r.alpha:g}", r.budget, r.engine, f"{r.recall:.6f}", f"{r.precision:.6f}",
        _fmt_count(r.n_correct), _fmt_count(r.n_false), _fmt_count(r.n_missed),
        None if r.th_t is None else f"{r.th_t:.6f}", _fmt_count(r.tests_used), 0,
    ] for r in rows))


def format_memory_csv(rows: Sequence[tuple[int, int, int]]) -> str:
    return _csv_text(MEMORY_CSV_HEADER, rows)


def format_retrieve_csv(result: RetrievalResult) -> str:
    """One row per case, in case-id order; substitution ``-`` when empty."""
    return _csv_text(RETRIEVE_CSV_HEADER, ([
        cid, f"{oc.score:.6f}", oc.scanned, int(oc.pruned), int(oc.evaluated),
        str(oc.substitution) or "-", int(cid == result.best_case),
    ] for cid, oc in sorted(result.per_case.items())))
