"""Span recorders for the traced run.

A span has a name, a parent span and the id of the op it belongs to.  The
recorders keep everything in memory; the run writes it out at the end.
Self time is a span's duration minus the time its child spans cover.

``NULL`` records nothing and is what untraced ops use, so the same op code
serves both runs.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Tuple


class NullRecorder:
    def span(self, name: str) -> contextlib.nullcontext:
        return _NOTHING

    def count(self, name: str, value: float) -> None:
        pass


_NOTHING = contextlib.nullcontext()
NULL = NullRecorder()


class Recorder:
    """Timed spans (``perf_counter``) and counts, tagged with ``op``."""

    def __init__(self) -> None:
        self.op: Optional[int] = None
        # [name, parent index or -1, op, start, end]
        self.spans: List[list] = []
        self.counts: List[Tuple[Optional[int], str, float]] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        self.spans.append([name, self._open[-1] if self._open else -1, self.op, 0.0, 0.0])
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index][3:] = [start, end]

    def count(self, name: str, value: float) -> None:
        self.counts.append((self.op, name, value))

    def self_seconds(self) -> Dict[int, Dict[str, float]]:
        """Per op, the summed self time of each span name."""
        covered = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, _, op, start, end), child in zip(self.spans, covered):
            out[op][name] += end - start - child
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "spans": [
                {"name": n, "parent": p, "op": op, "start": s, "end": e}
                for n, p, op, s, e in self.spans
            ],
            "counts": [{"op": op, "name": n, "value": v} for op, n, v in self.counts],
        }


class PeakRecorder:
    """Peak traced allocation of each span above its starting level.

    Runs under ``tracemalloc`` in a pass of its own, so its cost never
    reaches the timed spans.  Nested spans share tracemalloc's single peak
    counter: a child resets it, so the parent keeps the maximum it has seen.
    """

    def __init__(self) -> None:
        self.op: Optional[int] = None
        self.peaks: List[Tuple[Optional[int], str, int]] = []
        self._open: List[List[int]] = []  # [base, highest seen]

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        current, peak = tracemalloc.get_traced_memory()
        if self._open:
            self._open[-1][1] = max(self._open[-1][1], peak)
        tracemalloc.reset_peak()
        frame = [current, current]
        self._open.append(frame)
        try:
            yield
        finally:
            _, peak = tracemalloc.get_traced_memory()
            highest = max(frame[1], peak)
            self._open.pop()
            if self._open:
                self._open[-1][1] = max(self._open[-1][1], highest)
            tracemalloc.reset_peak()
            self.peaks.append((self.op, name, highest - frame[0]))

    def count(self, name: str, value: float) -> None:
        pass
