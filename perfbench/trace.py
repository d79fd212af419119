"""In-memory spans recorded by the benchmark around calls into the engine.

A span has a name, a start, an end and the index of the span that was
open when it began. Spans stay in memory until the run ends and are then
written out in one file.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import List, Optional

from .stats import self_times


class Tracer:
    """Nested wall-clock spans of one single-threaded run."""

    def __init__(self):
        self.spans: List[list] = []   # [name, start, end, parent]
        self._open: List[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _ancestors(self, index: int):
        parent = self.spans[index][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def durations(self, name: str, under: Optional[str] = None) -> List[float]:
        """Durations in seconds of every span called name, optionally only
        those with an ancestor called under."""
        return [end - start for i, (n, start, end, _) in enumerate(self.spans)
                if n == name and (under is None or under in self._ancestors(i))]

    def self_time_by_name(self, under: str) -> dict:
        """Summed self time per span name, over the descendants of every
        span called under."""
        selfs = self_times([tuple(s) for s in self.spans])
        out: dict = {}
        for i, (name, _, _, _) in enumerate(self.spans):
            if under in self._ancestors(i):
                out[name] = out.get(name, 0.0) + selfs[i]
        return out

    def write(self, path: Path, header: dict) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": n, "start_s": round(s - origin, 9),
                 "end_s": round(e - origin, 9), "parent": p}
                for n, s, e, p in self.spans]
        path.write_text(json.dumps({**header, "spans": rows}))


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._open[-1] if tr._open else -1
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), 0.0, parent])
        tr._open.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._open.pop()
        return False


class NoTracer:
    """Stand-in for untraced runs: spans cost one call and record nothing."""

    def span(self, name: str):
        return _NO_SPAN


_NO_SPAN = contextlib.nullcontext()
NO_TRACER = NoTracer()
