"""Wall-clock timers used by the trainer pipeline and the benchmark harness.

The paper reports per-phase costs (subgraph vectorization vs. model
computation, Table 4; GraphFlat vs. forward propagation, Table 5).  The
``TimerRegistry`` collects named accumulating timers so those decompositions
can be reported without sprinkling ``time.perf_counter`` through the code.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Timer", "TimerRegistry"]


@dataclass
class Timer:
    """Accumulating wall-clock timer.

    ``total`` is the sum of all timed intervals, ``count`` the number of
    intervals, so ``mean`` gives per-call latency.  With ``keep_intervals``
    every ``(start, stop)`` pair is retained, which lets callers check
    *concurrency* between two timers (e.g. that the training pipeline's
    preprocessing really overlaps model computation).
    """

    name: str = ""
    total: float = 0.0
    count: int = 0
    keep_intervals: bool = False
    intervals: list = field(default_factory=list)
    _started: float | None = field(default=None, repr=False)

    def start(self) -> None:
        if self._started is not None:
            raise RuntimeError(f"timer {self.name!r} already running")
        self._started = time.perf_counter()

    def stop(self) -> float:
        if self._started is None:
            raise RuntimeError(f"timer {self.name!r} not running")
        stopped = time.perf_counter()
        elapsed = stopped - self._started
        self.add(elapsed, 1, (self._started, stopped))
        self._started = None
        return elapsed

    def add(self, seconds: float, count: int = 1, interval: tuple | None = None) -> None:
        """Account ``seconds`` spent on ``count`` items timed elsewhere —
        on another thread or process — and, with ``keep_intervals``, the
        ``(start, stop)`` interval they took, when known."""
        self.total += seconds
        self.count += count
        if self.keep_intervals and interval is not None:
            self.intervals.append(interval)

    @staticmethod
    def overlap_seconds(a: "Timer", b: "Timer") -> float:
        """Total time during which an interval of ``a`` and an interval of
        ``b`` were running simultaneously (both need ``keep_intervals``)."""
        total = 0.0
        for a0, a1 in a.intervals:
            for b0, b1 in b.intervals:
                total += max(0.0, min(a1, b1) - max(a0, b0))
        return total

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @contextmanager
    def timing(self):
        self.start()
        try:
            yield self
        finally:
            self.stop()

    def reset(self) -> None:
        self.total = 0.0
        self.count = 0
        self._started = None
        self.intervals = []


class TimerRegistry:
    """Dictionary of named :class:`Timer` objects with a context helper."""

    def __init__(self, keep_intervals: bool = False):
        self._timers: dict[str, Timer] = {}
        self._keep_intervals = keep_intervals

    def __getitem__(self, name: str) -> Timer:
        if name not in self._timers:
            self._timers[name] = Timer(name=name, keep_intervals=self._keep_intervals)
        return self._timers[name]

    def __contains__(self, name: str) -> bool:
        return name in self._timers

    @contextmanager
    def timing(self, name: str):
        with self[name].timing() as t:
            yield t

    def totals(self) -> dict[str, float]:
        """Snapshot of accumulated seconds per timer, sorted by name."""
        return {name: t.total for name, t in sorted(self._timers.items())}

    def reset(self) -> None:
        for t in self._timers.values():
            t.reset()

    def report(self) -> str:
        """Human-readable one-line-per-timer report."""
        lines = []
        for name, t in sorted(self._timers.items()):
            lines.append(f"{name:<32s} total={t.total:9.4f}s calls={t.count:6d} mean={t.mean * 1e3:9.3f}ms")
        return "\n".join(lines)
