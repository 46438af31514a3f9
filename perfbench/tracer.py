"""In-memory spans and counters recorded around calls into spherewf.

Spans are opened only by the benchmark's own code: around the public
calls a workload makes, and around module attributes that `Tracer.wrap`
replaces for the length of a traced phase (for example `zonal_series` as
`spherewf.wf_density` binds it).  `Tracer.restore` puts every replaced
attribute back; leaving the `with Tracer() as tr:` block calls it.

A span is a list [id, name, start, end, parent, call, phase, attrs]:
`parent` is the id of the enclosing span (None at top level), `call` the
id of the workload call it belongs to, `phase` the benchmark phase
("warmup", "timed", "extra") and `attrs` a dict of per-span facts such
as the number of series terms.  Times come from `time.perf_counter`.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

ID, NAME, START, END, PARENT, CALL, PHASE, ATTRS = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.call: int | None = None
        self.phase = "warmup"
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def open(self, name: str, attrs: dict | None = None) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), name, 0.0, 0.0, parent, self.call, self.phase,
               {} if attrs is None else attrs]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        rec[START] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = self.open(name, attrs)
        try:
            yield rec
        finally:
            self.close(rec)

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Replace module.attr by a version that records a span per call.

        describe(args, result) may return a dict stored as the span's attrs.
        """
        orig = getattr(module, attr)

        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self.close(rec)
            if describe is not None:
                rec[ATTRS] = describe(args, out)
            return out

        self.patch(module, attr, traced)

    def count_calls(self, module, attr: str, name: str) -> None:
        """Replace module.attr by a version that only counts its calls."""
        orig = getattr(module, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        self.patch(module, attr, counted)

    def patch(self, module, attr: str, replacement) -> None:
        """Set module.attr to replacement until restore()."""
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def select(self, name: str, phase: str | None = None) -> list[list]:
        return [s for s in self.spans
                if s[NAME] == name and (phase is None or s[PHASE] == phase)]

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total time and self time in seconds.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it.
        """
        child = defaultdict(float)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, dict] = {}
        for s in self.spans:
            d = s[END] - s[START]
            row = out.setdefault(s[NAME], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += d
            row["self_s"] += d - child[s[ID]]
        return out

    def write_jsonl(self, fh, workload: str) -> None:
        """One JSON object per span, tagged with the workload that made it."""
        for s in self.spans:
            fh.write(json.dumps({
                "workload": workload, "id": s[ID], "name": s[NAME],
                "start": s[START], "end": s[END], "parent": s[PARENT],
                "call": s[CALL], "phase": s[PHASE], "attrs": s[ATTRS],
            }) + "\n")


def total(spans: list[list]) -> float:
    return sum(s[END] - s[START] for s in spans)
