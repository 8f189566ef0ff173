"""Spans recorded around the benchmark's calls into affw, kept in memory.

A span is named ``<layer>.<operation>`` after the package module it calls
into (``modular.smatrix``, ``fusion.verlinde``, ...) or ``job`` for the whole
job.  With tracing off, :meth:`Recorder.call` only calls through and notes
which layer raised, so untraced timings carry no span cost.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

LAYERS = ("liealg", "affine", "modular", "fusion", "qseries", "opecalc", "cli")


class Recorder:
    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.job_id = None
        self.failed_layer = None

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"id": sid, "name": name, "job": self.job_id, "parent": parent,
             "start": time.perf_counter(), "end": None}
        )
        self._stack.append(sid)
        return sid

    def end(self, sid: int):
        self.spans[sid]["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as one call into the layer ``name`` belongs to."""
        sid = self.begin(name) if self.traced else None
        try:
            return fn(*args, **kwargs)
        except Exception:
            if self.failed_layer is None:
                self.failed_layer = name.partition(".")[0]
            raise
        finally:
            if sid is not None:
                self.end(sid)

    def count(self, name: str, n=1):
        self.counts[name] += n


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its children cover (children are serial)."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in spans}


def layer_table(spans: list[dict], solve_s: float) -> dict[str, float]:
    """Self time per layer plus the unaccounted rest; sums to ``solve_s``."""
    own = self_times(spans)
    table = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer = s["name"].partition(".")[0]
        if layer in table:
            table[layer] += own[s["id"]]
    table["unaccounted"] = solve_s - sum(table.values())
    return table


def op_totals(spans: list[dict]) -> dict[str, float]:
    """Total duration per span name."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += s["end"] - s["start"]
    return out


def span_tree(spans: list[dict], t0: float) -> list[dict]:
    """Nested span records, times in seconds from ``t0``."""
    nodes = {
        s["id"]: {"name": s["name"], "job": s["job"],
                  "start_s": s["start"] - t0, "end_s": s["end"] - t0, "children": []}
        for s in spans
    }
    roots = []
    for s in spans:
        (nodes[s["parent"]]["children"] if s["parent"] is not None else roots).append(nodes[s["id"]])
    return roots
