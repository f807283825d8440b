"""The training pipeline — batch-level optimization of §3.3.2.

"We build a pipeline that consists of two stages: preprocessing stage
including data reading and subgraph vectorization, and model computation
stage.  The two stages operate in a parallel manner."

Preprocessing (gather + vectorize) works a *window* at a time: up to
:data:`QUEUE_DEPTH` consecutive batches are read together — one shard
gather — and vectorized by one
:func:`~repro.core.trainer.vectorize.vectorize_window` call, so the fixed
cost of a merge is paid per window, not per batch.

By default a window is prepared inline, on the training thread, right
before its batches train.  Both stages are interpreter-bound numpy here,
so a prefetch thread in the same process contends with the training loop
for the GIL instead of using an idle core: on link prediction it made
both stages about twice as slow and cost a fifth more CPU for no wall
(README, "Threads and cores").  With ``enabled`` the stages overlap the
way the paper describes: a producer thread hands windows to a
preprocessing pool from the MapReduce backend registry
(``serial``/``threads``/``processes``) and feeds a bounded queue the
training loop drains; with ``backend="processes"`` windows are prepared
across cores.  Batches are sample-source batch refs
(:class:`~repro.core.trainer.dataset.ColumnarBatchRef`: shards plus
``(shard, row)`` locators), which keeps the process backend's per-window
IPC to a few ints per batch over file shards (the window's own rows over
an in-memory shard) plus the prepared tensors back.
"""

from __future__ import annotations

import queue
import threading
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from repro.core.trainer.dataset import ColumnarBatchRef
from repro.core.trainer.vectorize import vectorize_window
from repro.graph.subgraph import StackedFeatures
from repro.mapreduce.backends import (
    BACKEND_REGISTRY,
    Backend,
    WorkerCrashError,
    make_backend,
)
from repro.nn.gnn.block import BatchInputs
from repro.utils.shm import ShmBatchRef, Slab, slab_dump, slab_load
from repro.utils.timer import TimerRegistry

__all__ = ["BatchPipeline", "BatchPreparer"]

_SENTINEL = object()

QUEUE_DEPTH = 4
"""How many vectorized batches may sit ready ahead of the training loop —
and how many consecutive batches one window prepares together.  A window
is prepared while the previous one waits in the queue, so at most two
windows are in flight; a worker pool prepares one window per worker at a
time on top of the queued one."""

SLAB_BYTES = 64 << 20
"""Capacity of one window slab.  When prepared windows cross a process
boundary (``backend.needs_pickling``) a pool worker parks the numpy payload
in a parent-owned per-slot :class:`~repro.utils.shm.Slab`
(:func:`~repro.utils.shm.slab_dump`) and pickles only a tiny
:class:`~repro.utils.shm.ShmBatchRef` (protocol-5 out-of-band buffers), so
the result pipe carries kilobytes instead of the vectorized batches; a window that outgrows the
slab rides the pipe whole, for that window only.  Same-process backends
hand over bare references and use no slab."""

Prepared = list[tuple[BatchInputs, "np.ndarray | None"]]


@dataclass(frozen=True)
class BatchPreparer:
    """Picklable preprocessing operator: one window of batches in, their
    model inputs out.

    Top-level dataclass (not a closure) so the ``processes`` prefetch
    backend can ship it to worker processes, mirroring the GraphFlat
    operator refactor.
    """

    num_layers: int
    pruning: bool = True
    edge_partition: bool = False
    edge_level: bool = False

    @staticmethod
    def resolve(window: list[ColumnarBatchRef]) -> tuple[StackedFeatures, np.ndarray]:
        """The window as one stacked record — its batch refs gathered
        together — plus its batch offsets."""
        offsets = np.zeros(len(window) + 1, dtype=np.int64)
        np.cumsum([len(ref.locators) for ref in window], out=offsets[1:])
        if not offsets[-1]:  # no rows, so no shard to gather columns from
            raise ValueError("cannot merge an empty batch")
        return ColumnarBatchRef.gather_window(window), offsets

    def __call__(self, window: list) -> tuple[Prepared, tuple[float, float]]:
        """Returns ``(prepared, (start, stop))`` — one ``(inputs, labels)``
        pair per batch of ``window``, and the ``perf_counter`` interval the
        preparation took.  The interval rides along because pool workers
        cannot reach the caller's :class:`TimerRegistry`; the clock is
        monotonic machine-wide, so a worker's interval lines up with the
        caller's own timers."""
        start = time.perf_counter()
        prepared = vectorize_window(
            *self.resolve(window),
            self.num_layers,
            pruning=self.pruning,
            edge_partition=self.edge_partition,
            edge_level=self.edge_level,
        )
        return prepared, (start, time.perf_counter())


@dataclass(frozen=True)
class _SlabPreparer:
    """Pool-worker wrapper that parks a prepared window in a shm slab.

    One instance per in-flight task slot, each bound to its own slab —
    the parent drains slot *i* before reissuing it, so overwriting is safe.
    Falls back to shipping the window in-band when it outgrows the slab."""

    prepare: BatchPreparer
    slab: str
    capacity: int

    def __call__(self, window):
        prepared, (start, _) = self.prepare(window)
        ref = slab_dump(prepared, self.slab, self.capacity)
        return (prepared if ref is None else ref), (start, time.perf_counter())


class BatchPipeline:
    """Iterate ``(BatchInputs, labels)`` over batches of samples.

    Parameters
    ----------
    batches:
        iterable of :class:`~repro.core.trainer.dataset.ColumnarBatchRef`
        (what ``SampleSource.batch`` returns).  Consecutive batches are
        prepared a window of :data:`QUEUE_DEPTH` at a time.
    num_layers / pruning / edge_partition:
        forwarded to :func:`vectorize_window`.
    enabled:
        ``False`` prepares each window inline, on the iterating thread
        (AGL_base without the pipeline strategy; what
        :class:`~repro.core.trainer.trainer.GraphTrainer` does by default).
    backend / workers:
        preprocessing pool: a backend name from the MapReduce registry
        (``serial``/``threads``/``processes``) and its worker count.  One
        producer thread hands the pool ``workers`` windows at a time;
        ``threads`` with one worker prepares them on the producer thread
        itself (the classic single prefetch thread), ``processes`` with N
        workers prepares N windows at a time across cores.  ``serial``
        runs inline, like ``enabled=False``.  Passing a
        :class:`~repro.mapreduce.backends.Backend` *instance* borrows it
        (the caller keeps ownership — how GraphTrainer reuses one process
        pool across epochs instead of respawning workers every epoch).
    timers:
        optional :class:`TimerRegistry`; preprocessing time lands in
        ``"preprocess"`` (regardless of which thread or process spent it),
        counted once per batch, with one ``(start, stop)`` interval per
        window.

    How prepared windows come back from the pool is resolved from the
    backend, not asked: shared-memory slabs (:data:`SLAB_BYTES` each)
    exactly when it ``needs_pickling``.  ``shm_batches`` / ``inband_batches``
    count the batches that took each way back from a pickling pool.
    """

    def __init__(
        self,
        batches: Iterable,
        num_layers: int,
        pruning: bool = True,
        edge_partition: bool = False,
        enabled: bool = True,
        timers: TimerRegistry | None = None,
        backend: str | Backend = "threads",
        workers: int = 1,
        edge_level: bool = False,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if isinstance(backend, Backend):
            self._backend_obj: Backend | None = backend
            backend = backend.name
        else:
            self._backend_obj = None
        if backend not in BACKEND_REGISTRY:
            raise ValueError(
                f"unknown prefetch backend {backend!r}; known: {sorted(BACKEND_REGISTRY)}"
            )
        self._batches = batches
        self._prepare = BatchPreparer(num_layers, pruning, edge_partition, edge_level)
        self._enabled = enabled
        self._backend = backend
        self._workers = workers
        self._timers = timers if timers is not None else TimerRegistry()
        self.shm_batches = 0
        self.inband_batches = 0

    # ----------------------------------------------------------- internals
    def _windows(self) -> Iterator[list]:
        batches = iter(self._batches)
        while window := list(islice(batches, QUEUE_DEPTH)):
            yield window

    def _iter_sequential(self) -> Iterator[tuple[BatchInputs, np.ndarray | None]]:
        timer = self._timers["preprocess"]
        for window in self._windows():
            prepared, (start, stop) = self._prepare(window)
            timer.add(stop - start, len(window), (start, stop))
            yield from prepared

    def _iter_pool(self) -> Iterator[tuple[BatchInputs, np.ndarray | None]]:
        """Worker-pool prefetch: a producer thread hands the pool
        ``workers`` windows at a time (one task each), executes them on the
        registry backend, and feeds the batches into the bounded queue in
        batch order.

        Each ``execute`` call is the registry's phase contract, so it is a
        mini-barrier (idle workers wait on the slowest window); the bounded
        queue keeps the *consumer* fed across calls, which is the overlap
        that matters here — window costs are near-uniform, so straggler
        slack stays small.  Each window's ``(start, stop)`` interval is
        recorded: the intervals are what *prove* stage overlap in the
        ablation benchmark."""
        out: queue.Queue = queue.Queue(maxsize=QUEUE_DEPTH)
        error: list[BaseException] = []
        timer = self._timers["preprocess"]

        def plain_retrier(task_id, call):
            # Preprocessing is pure, so a crashed pool worker is retried
            # MapReduce-style (bounded) instead of aborting the epoch.
            for attempt in range(3):
                try:
                    return call()
                except WorkerCrashError:
                    if attempt == 2:
                        raise

        def producer():
            owns = self._backend_obj is None
            backend = self._backend_obj or make_backend(self._backend, self._workers)
            use_shm = backend.needs_pickling
            slabs = []
            try:
                prepare = [self._prepare] * self._workers
                if use_shm:
                    # One slab per task slot, reused every call.  Safe
                    # because each call's results are fully drained (and
                    # slab-loaded into private memory) before the next
                    # ``execute`` can overwrite a slot.
                    slabs = [Slab(SLAB_BYTES) for _ in range(self._workers)]
                    by_name = {slab.name: slab for slab in slabs}
                    prepare = [
                        _SlabPreparer(self._prepare, slab.name, slab.capacity)
                        for slab in slabs
                    ]
                windows = self._windows()
                while tasks := [
                    (f"prefetch-{i}", prepare[i], (window,))
                    for i, window in enumerate(islice(windows, self._workers))
                ]:
                    for result, (start, stop) in backend.execute(tasks, plain_retrier):
                        if use_shm and isinstance(result, ShmBatchRef):
                            result = slab_load(result, by_name[result.slab].buf)
                            self.shm_batches += len(result)
                        elif use_shm:
                            self.inband_batches += len(result)
                        timer.add(stop - start, len(result), (start, stop))
                        for item in result:
                            out.put(item)
            except BaseException as exc:  # surface in the consumer thread
                error.append(exc)
            finally:
                for slab in slabs:
                    slab.close()
                if owns:
                    backend.close()
                out.put(_SENTINEL)

        worker = threading.Thread(target=producer, name="agl-preprocess", daemon=True)
        worker.start()
        try:
            while True:
                item = out.get()
                if item is _SENTINEL:
                    break
                yield item
        finally:
            # Drain so the producer is never blocked on a full queue forever
            # when the consumer stops early (e.g. test breaks out of loop).
            while worker.is_alive():
                try:
                    out.get_nowait()
                except queue.Empty:
                    worker.join(timeout=0.05)
        if error:
            raise error[0]

    def __iter__(self) -> Iterator[tuple[BatchInputs, np.ndarray | None]]:
        if not self._enabled or self._backend == "serial":
            return self._iter_sequential()
        return self._iter_pool()
