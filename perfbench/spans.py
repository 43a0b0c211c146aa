"""In-memory spans for the traced run.

A span records its name (``<module>.<function>``), start, end, parent span,
the call it belongs to and the phase of the run, plus any counts the caller
attaches (states expanded, memo hits, rounds). Spans are opened only by the
benchmark around its own calls into coolnum; nothing inside coolnum is traced.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.rec = {"name": name}

    def __enter__(self) -> dict:
        t, rec = self.tracer, self.rec
        rec["id"] = len(t.spans)
        rec["parent"] = t.stack[-1] if t.stack else None
        rec["call"] = t.call
        rec["phase"] = t.phase
        t.spans.append(rec)
        t.stack.append(rec["id"])
        rec["start"] = perf_counter()
        return rec

    def __exit__(self, *exc) -> None:
        self.rec["end"] = perf_counter()
        self.tracer.stack.pop()


class Tracer:
    """Collects spans; ``call`` and ``phase`` are set by the harness."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.call = 0
        self.phase = "setup"

    def __call__(self, name: str) -> _Span:
        return _Span(self, name)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc) -> None:
        return None


_NULL = _NullSpan()


def null_span(name: str) -> _NullSpan:
    """Span factory for untraced passes: records nothing."""
    return _NULL


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per module (the name's first part): each span's duration less
    the part its child spans cover."""
    covered: dict[int, float] = defaultdict(float)
    for rec in spans:
        if rec["parent"] is not None:
            covered[rec["parent"]] += duration(rec)
    out: dict[str, float] = defaultdict(float)
    for rec in spans:
        out[rec["name"].split(".", 1)[0]] += duration(rec) - covered[rec["id"]]
    return out


def per_pass(spans: list[dict], passes: list[str], pick, value=duration) -> float:
    """Median over the traced passes of the per-pass sum of ``value`` over the
    spans ``pick`` selects; 0 when the workload makes no such call."""
    if not passes:
        return 0.0
    sums = {p: 0 for p in passes}
    for rec in spans:
        if rec["phase"] in sums and pick(rec):
            sums[rec["phase"]] += value(rec)
    return statistics.median(sums.values())


def once(spans: list[dict], phase: str, pick, value=duration) -> float:
    """Sum of ``value`` over the spans of one phase that ``pick`` selects."""
    return sum(value(rec) for rec in spans if rec["phase"] == phase and pick(rec))
