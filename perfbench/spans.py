"""In-memory span recorder for the benchmark's traced builds.

A span is one call into a public sqchip function, named
``<module>.<function>``. Spans carry their start and end on the
``perf_counter`` clock, the span that encloses them and the build they
belong to. Nothing is written until the run ends (see ``dump``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    build: str
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.build = ""

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = Span(len(self.spans), name, parent, self.build,
                   time.perf_counter())
        self.spans.append(rec)
        self._open.append(rec.span_id)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            reach = s.start
            kids = sorted(children.get(s.span_id, ()), key=lambda c: c.start)
            for c in kids:
                lo = max(c.start, reach)
                if c.end > lo:
                    covered += c.end - lo
                    reach = c.end
            out[s.span_id] = (s.end - s.start) - covered
        return out

    def dump(self, path) -> None:
        selfs = self.self_times()
        rows = [dict(asdict(s), self_s=selfs[s.span_id]) for s in self.spans]
        path.write_text(json.dumps(rows, indent=1) + "\n")
