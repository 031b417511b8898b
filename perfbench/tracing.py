"""Spans around the package's public calls, recorded from the benchmark side.

A span is (name, start ns, end ns, parent span index, operation id); spans of
one timed operation share its id, set-up spans carry id -1. Spans are kept in
memory (up to ``MAX_SPANS``; past that only the per-name totals grow) and
written out as JSON lines when the run ends. A layer is the span name's
prefix before the first dot, one per package module.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import casetree as ct
import casetree.retrieval as retrieval_module

MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.dropped = 0
        self.op = -1
        self._stack: list[list] = []  # [span index, start ns, child ns]
        self.count: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.op_self_ns: dict[str, int] = defaultdict(int)  # by layer, inside operations

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            self.spans.append(None)  # type: ignore[arg-type]
        else:
            index = -1
            self.dropped += 1
        frame = [index, 0, 0]
        self._stack.append(frame)
        frame[1] = start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            own = duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration
            if index >= 0:
                self.spans[index] = (name, start, end, parent, self.op)
            self.count[name] += 1
            self.total_ns[name] += duration
            self.self_ns[name] += own
            if self.op >= 0:
                self.op_self_ns[name.split(".", 1)[0]] += own

    def mean_us(self, name: str) -> float:
        n = self.count.get(name, 0)
        return self.total_ns[name] / n / 1e3 if n else 0.0

    def mean_self_us(self, name: str) -> float:
        n = self.count.get(name, 0)
        return self.self_ns[name] / n / 1e3 if n else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                      "parent": parent, "op": op}) + "\n")


class TracedOracle:
    """Stands in for a ``TargetOracle`` inside ``scan_tree`` and times each
    ``completions`` call, counting the completions it returns."""

    def __init__(self, oracle: ct.TargetOracle, tracer: Tracer):
        self._oracle = oracle
        self._tracer = tracer
        self.target = oracle.target
        self.size = oracle.size
        self.completions_returned = 0

    def completions(self, name, values, desired):
        found = self._tracer.call("retrieval.completions", self._oracle.completions,
                                  name, values, desired)
        self.completions_returned += len(found)
        return found


class TracedScoring:
    """While entered, every per-case score ``scan_linear`` computes runs
    inside a ``similarity.scored_unify`` span."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._original = retrieval_module.scored_unify

    def __enter__(self):
        original, tracer = self._original, self._tracer

        def scored_unify(*args, **kwargs):
            return tracer.call("similarity.scored_unify", original, *args, **kwargs)

        retrieval_module.scored_unify = scored_unify
        return self

    def __exit__(self, *exc):
        retrieval_module.scored_unify = self._original
        return False
