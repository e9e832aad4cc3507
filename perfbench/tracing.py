"""Spans and counts recorded around the benchmark's calls into the package.

Every call the benchmark makes into a layer of ``wedge_billiard`` goes
through ``tracer.span(layer)``.  With tracing off that is a shared no-op
context manager; with tracing on it records a span (name, start, end,
parent, task id) in memory.  Spans are only written out when the run ends.

The layers are timed from outside: a span covers one public call (or one
batch of calls, with its call count recorded), never code inside the
package.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

TASK_SPAN = "bench.task"

_NO_SPAN = contextlib.nullcontext()


class NullTracer:
    """Tracing off: spans and counts cost one method call and record nothing."""

    enabled = False

    def task(self, task_id: str) -> contextlib.AbstractContextManager:
        return _NO_SPAN

    def span(self, layer: str, calls: int = 1) -> contextlib.AbstractContextManager:
        return _NO_SPAN

    def count(self, layer: str, key: str, n: float = 1) -> None:
        pass


class Tracer:
    """Tracing on: spans kept in memory, counts summed per (layer, key).

    A span is ``(name, start_ns, end_ns, parent_index, task_id)``.  Layer
    spans are children of the task span that was open when they started.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int | None, str | None]] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._task_index: int | None = None
        self._task_id: str | None = None

    @contextlib.contextmanager
    def task(self, task_id: str):
        index = len(self.spans)
        self.spans.append((TASK_SPAN, 0, 0, None, task_id))
        self._task_index, self._task_id = index, task_id
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans[index] = (TASK_SPAN, start, time.perf_counter_ns(), None, task_id)
            self._task_index = self._task_id = None

    @contextlib.contextmanager
    def span(self, layer: str, calls: int = 1):
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.spans.append((layer, start, end, self._task_index, self._task_id))
            self.counts[(layer, "calls")] += calls

    def count(self, layer: str, key: str, n: float = 1) -> None:
        self.counts[(layer, key)] += n

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name: duration minus the time its children cover.

        Children never overlap (one thread, calls in sequence), so the
        covered time is the sum of their durations.
        """
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start - covered[i]) / 1e9
        return dict(totals)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, then the counts."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="ascii") as fh:
            for name, start, end, parent, task_id in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "task": task_id}
                    )
                    + "\n"
                )
            counts = {f"{layer}.{key}": n for (layer, key), n in sorted(self.counts.items())}
            fh.write(json.dumps({"counts": counts}) + "\n")
