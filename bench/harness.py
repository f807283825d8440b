"""Measurement plumbing: process-tree accounting, span recorder, statistics.

Everything here observes the program from outside — ``/proc`` for CPU and
memory, wrappers around public methods for spans — so no file under
``src/`` knows the benchmark exists.
"""

from __future__ import annotations

import functools
import os
import statistics
import struct
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CALIBRATION_REF_S", "NullTracer", "ProcTree", "Span", "SpeedLog", "Tracer",
    "calibrate", "stop_pool_helpers", "summarize",
]

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def summarize(values: list[float]) -> dict:
    """Median, min, max and sample count of one timing series; its own
    spread — the distance between its first and third quartile over its
    median, the same rule the benchmark driver applies across runs; and,
    from 20 samples up, the highest percentile that still has ten samples
    beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    median = statistics.median(ordered)
    spread = 0.0
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        spread = (q3 - q1) / median
    out = {
        "median": median, "min": ordered[0], "max": ordered[-1], "n": n,
        "spread": spread,
    }
    if n >= 20:
        out["tail_percentile"] = round(100 * (n - 10) / n, 1)
        out["tail"] = ordered[n - 11]
    return out


# ------------------------------------------------------------ calibration
CALIBRATION_REF_S = 0.030
"""Duration of :func:`calibrate` on the reference box (2 vCPUs of a 2.1 GHz
Xeon) when nothing else competes for it."""

_CAL_RNG = np.random.default_rng(0)
_CAL_X = _CAL_RNG.standard_normal((256, 32)).astype(np.float32)
_CAL_W = _CAL_RNG.standard_normal((32, 32)).astype(np.float32)
_CAL_INDEX = _CAL_RNG.integers(0, 256, 2048)
_CAL_PACK = struct.Struct("<qd")


def calibrate() -> float:
    """Seconds one fixed kernel takes right now — the machine's speed.

    The reference box is a shared virtual machine whose speed drifts by
    tens of percent for minutes at a time (CPU time inflates with wall
    time: the vCPUs themselves run slower), far more than any bound a
    regression check could use.  The measuring loop therefore interleaves
    this kernel with the repetitions and reports times scaled to the
    reference speed, ``t * CALIBRATION_REF_S / calibrate()``.

    The kernel mixes what the program's own time goes to — interpreter
    work on dicts, tuples and lists; byte packing and checksums; small
    numpy gathers, scatter-adds and matmuls — and touches no program code,
    so a change to the program cannot move it."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(12000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + i
    buf = bytearray()
    for key, value in sorted(table.items())[:3000]:
        buf += _CAL_PACK.pack(key, float(value))
    zlib.crc32(buf)
    h = _CAL_X
    for _ in range(40):
        out = np.zeros_like(h)
        np.add.at(out, _CAL_INDEX % 256, h[_CAL_INDEX])
        h = np.maximum(out @ _CAL_W * 0.01, 0)
    np.argsort(h[:, 0])
    return time.perf_counter() - start


class SpeedLog:
    """Calibration samples interleaved with timed work.

    ``slot()`` goes before each piece of timed work and ``mark()`` after the
    last one; ``scale(slot)`` then turns a duration measured in that slot
    into reference-speed seconds, using the calibrations on either side."""

    every_s = 0.5
    """Short repetitions (training epochs) share a calibration rather than
    pay for one each."""

    def __init__(self):
        self.samples: list[float] = []
        self.mark()

    def mark(self) -> None:
        self.samples.append(calibrate())
        self._at = time.perf_counter()

    def slot(self) -> int:
        if time.perf_counter() - self._at >= self.every_s:
            self.mark()
        return len(self.samples) - 1

    def scale(self, slot: int) -> float:
        around = (self.samples[slot] + self.samples[slot + 1]) / 2
        return CALIBRATION_REF_S / around

    def speed(self) -> float:
        """Median machine speed over the log; 1.0 = the reference box."""
        return CALIBRATION_REF_S / statistics.median(self.samples)


# ------------------------------------------------------------ process tree
def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:  # the process exited between listing and reading
        return None


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` split after the ``(comm)`` field, which may
    itself contain spaces; index 0 is the state, 1 the parent pid."""
    text = _read(f"/proc/{pid}/stat")
    if text is None:
        return None
    return text[text.rindex(")") + 2 :].split()


class ProcTree:
    """CPU and peak memory of this process and all its descendants.

    Pool workers are started by multiprocessing's ``forkserver``, so they
    are grandchildren: ``RUSAGE_CHILDREN`` never sees them.  ``/proc`` does.

    *CPU* needs no sampling: a live process reports its own ``utime +
    stime`` and, in ``cutime + cstime``, the CPU of every descendant it has
    already reaped — the forkserver reaps each worker as it exits.  The sum
    over the live tree is therefore exact at any instant, so callers take a
    synchronous :meth:`cpu_s` reading at phase boundaries.

    *Peak memory* does need sampling, because a worker's ``VmHWM`` vanishes
    with it: one low-rate thread walks the tree and keeps the highest
    per-process high-water mark it has seen.
    """

    def __init__(self, interval_s: float = 0.2):
        self._root = os.getpid()
        self._interval = interval_s
        self._peak_kb = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _tree(self) -> dict[int, list[str]]:
        """pid -> stat fields of the root and every live descendant."""
        stats = {}
        for name in os.listdir("/proc"):
            if name.isdigit():
                fields = _stat_fields(int(name))
                if fields is not None:
                    stats[int(name)] = fields
        children: dict[int, list[int]] = {}
        for pid, fields in stats.items():
            children.setdefault(int(fields[1]), []).append(pid)
        tree, frontier = {}, [self._root]
        while frontier:
            pid = frontier.pop()
            if pid in stats and pid not in tree:
                tree[pid] = stats[pid]
                frontier.extend(children.get(pid, ()))
        return tree

    def cpu_s(self) -> float:
        """User + system CPU seconds consumed by the whole tree so far."""
        ticks = 0
        for fields in self._tree().values():
            # utime stime cutime cstime are stat fields 14..17
            ticks += sum(int(f) for f in fields[11:15])
        return ticks / _CLK_TCK

    def _sample_peak(self) -> None:
        for pid in self._tree():
            status = _read(f"/proc/{pid}/status")
            if status is None:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    self._peak_kb = max(self._peak_kb, int(line.split()[1]))
                    break

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self._sample_peak()

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._loop, name="bench-proctree", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def reset_peak(self) -> None:
        """Forget peaks reached so far (set-up builds serial references in
        memory; the measured phase must not inherit that high-water mark)."""
        try:
            with open("/proc/self/clear_refs", "w") as fh:
                fh.write("5")  # 5 = reset this process's VmHWM to its RSS
        except OSError:
            pass  # not permitted here: the peak then includes set-up
        self._peak_kb = 0

    def peak_rss_mb(self) -> float:
        self._sample_peak()
        return self._peak_kb / 1024


def stop_pool_helpers() -> None:
    """Stop and reap multiprocessing's forkserver and resource tracker.

    The standard library starts both on first pool use, keeps them until
    interpreter exit and never waits for them; the benchmark must leave no
    process behind.  ``_stop`` is the hook the library's own tests use."""
    from multiprocessing import forkserver, resource_tracker

    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


# ------------------------------------------------------------------ spans
@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    workload: str
    rep: int
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: every hook is a no-op, so the untraced run executes
    exactly the calls a user would make."""

    @contextmanager
    def span(self, name: str, layer: str):
        yield

    def wrap(self, obj, layer: str, methods: tuple[str, ...]) -> None:
        pass


@dataclass
class Tracer:
    """In-memory span recorder.  Spans are recorded from the thread that
    drives the workload (every traced call happens there), so the parent of
    a new span is simply the innermost open one."""

    workload: str
    rep: int = 0
    spans: list[Span] = field(default_factory=list)
    _open: list[Span] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, layer: str):
        parent = self._open[-1].id if self._open else None
        span = Span(
            len(self.spans), parent, name, layer, self.workload, self.rep,
            time.perf_counter(),
        )
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, obj, layer: str, methods: tuple[str, ...]) -> None:
        """Record a span around each named public method of ``obj`` — the
        instance is patched, its class and every other instance are not."""
        for name in methods:
            setattr(obj, name, self._traced(getattr(obj, name), name, layer))

    def _traced(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)

        return traced

    # ------------------------------------------------------------ analysis
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part of it its children cover
        (children of one span never overlap: one thread records them)."""
        own = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def layer_busy(self) -> dict[str, float]:
        """Layer -> total time inside its outermost spans (a span nested
        under another span of the same layer is not counted twice)."""
        by_id = {s.id: s for s in self.spans}
        busy: dict[str, float] = {}
        for s in self.spans:
            parent = s.parent
            while parent is not None and by_id[parent].layer != s.layer:
                parent = by_id[parent].parent
            if parent is None:
                busy[s.layer] = busy.get(s.layer, 0.0) + s.duration
        return busy

    def layer_self(self) -> dict[str, float]:
        own = self.self_times()
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.layer] = out.get(s.layer, 0.0) + own[s.id]
        return out

    def as_json(self) -> list[dict]:
        own = self.self_times()
        return [
            {
                "id": s.id, "parent": s.parent, "name": s.name,
                "layer": s.layer, "workload": s.workload, "rep": s.rep,
                "start": s.start, "end": s.end, "self_s": own[s.id],
            }
            for s in self.spans
        ]
