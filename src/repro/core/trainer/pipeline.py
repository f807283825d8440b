"""The training pipeline — batch-level optimization of §3.3.2.

"We build a pipeline that consists of two stages: preprocessing stage
including data reading and subgraph vectorization, and model computation
stage.  The two stages operate in a parallel manner."

Preprocessing (decode + vectorize) runs ahead of the training loop and
feeds a bounded queue the caller drains.  The preprocessing stage itself
is pluggable: it reuses the MapReduce backend registry
(``serial``/``threads``/``processes``), so with ``backend="processes"``
minibatch preprocessing shards across cores while the main process trains
— the GIL no longer caps the storage layer.  Batches may be lists of
wire-format bytes, decoded :class:`TrainSample` objects, or picklable refs
with a ``gather()`` method (columnar shard slices — see
``repro.core.trainer.dataset``), which is what keeps the process backend's
per-batch IPC to a few ints each way plus the prepared tensors back.
"""

from __future__ import annotations

import queue
import threading
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.trainer.vectorize import TrainSample, decode_samples, vectorize_batch
from repro.graph.subgraph import StackedFeatures
from repro.mapreduce.backends import (
    BACKEND_REGISTRY,
    Backend,
    WorkerCrashError,
    make_backend,
)
from repro.nn.gnn.block import BatchInputs
from repro.utils.timer import TimerRegistry

__all__ = ["BatchPipeline", "BatchPreparer"]

_SENTINEL = object()

QUEUE_DEPTH = 4
"""How many vectorized batches may sit ready ahead of the training loop."""

SLAB_BYTES = 64 << 20
"""Capacity of one batch slab.  When prepared batches cross a process
boundary (``backend.needs_pickling``) a pool worker parks the numpy payload
in a parent-owned per-slot :class:`~repro.ps.shm.BatchSlab` and pickles only
a tiny locator (protocol-5 out-of-band buffers), so the result pipe carries
kilobytes instead of the vectorized batch; a batch that outgrows the slab
rides the pipe whole, for that batch only.  Same-process backends hand over
bare references and use no slab."""


@dataclass(frozen=True)
class BatchPreparer:
    """Picklable preprocessing operator: one batch in, model inputs out.

    Top-level dataclass (not a closure) so the ``processes`` prefetch
    backend can ship it to worker processes, mirroring the GraphFlat
    operator refactor.
    """

    num_layers: int
    pruning: bool = True
    aggregator_factory: object | None = None
    edge_level: bool = False

    def resolve(self, batch) -> StackedFeatures | list[TrainSample]:
        """What :func:`vectorize_batch` takes: columnar refs gather their
        stacked columns, bytes are decoded, sample lists pass through."""
        if hasattr(batch, "gather"):
            return batch.gather()
        if batch and isinstance(batch[0], (bytes, bytearray)):
            return decode_samples(batch)
        return batch

    def __call__(self, batch) -> tuple[BatchInputs, np.ndarray | None, float]:
        """Returns ``(inputs, labels, preprocess_seconds)`` — the elapsed
        time rides along because pool workers cannot reach the caller's
        :class:`TimerRegistry`."""
        start = time.perf_counter()
        inputs, labels = vectorize_batch(
            self.resolve(batch),
            self.num_layers,
            pruning=self.pruning,
            aggregator_factory=self.aggregator_factory,
            edge_level=self.edge_level,
        )
        return inputs, labels, time.perf_counter() - start


@dataclass(frozen=True)
class _SlabPreparer:
    """Pool-worker wrapper that parks the prepared batch in a shm slab.

    One instance per in-flight window slot, each bound to its own slab —
    the parent drains slot *i* before reissuing it, so overwriting is safe.
    Falls back to shipping the tuple in-band (``ref is None``) when the
    batch outgrows the slab."""

    prepare: BatchPreparer
    slab: str
    capacity: int

    def __call__(self, batch):
        inputs, labels, seconds = self.prepare(batch)
        start = time.perf_counter()
        from repro.ps.shm import slab_dump  # lazy: repro.ps imports the trainer

        ref = slab_dump((inputs, labels), self.slab, self.capacity)
        seconds += time.perf_counter() - start
        if ref is None:
            return inputs, labels, seconds
        return ref, None, seconds


class BatchPipeline:
    """Iterate ``(BatchInputs, labels)`` over batches of samples.

    Parameters
    ----------
    batches:
        iterable of batches; each batch is a list of wire-format ``bytes``
        records, already-decoded :class:`TrainSample` objects, or a batch
        ref with ``gather()`` (columnar shard slice).
    num_layers / pruning / aggregator_factory:
        forwarded to :func:`vectorize_batch`.
    enabled:
        ``False`` degrades to strictly sequential preprocessing (AGL_base
        without the pipeline strategy — the ablation baseline).
    backend / workers:
        preprocessing pool: a backend name from the MapReduce registry
        (``serial``/``threads``/``processes``) and its worker count.  The
        default (``threads``, 1) is the classic single prefetch thread;
        ``processes`` with N workers shards preprocessing across cores.
        ``serial`` runs inline, like ``enabled=False``.  Passing a
        :class:`~repro.mapreduce.backends.Backend` *instance* borrows it
        (the caller keeps ownership — how GraphTrainer reuses one process
        pool across epochs instead of respawning workers every epoch).
    timers:
        optional :class:`TimerRegistry`; preprocessing time lands in
        ``"preprocess"`` (regardless of which thread or process spent it).

    How prepared batches come back from the pool is resolved from the
    backend, not asked: shared-memory slabs (:data:`SLAB_BYTES` each)
    exactly when it ``needs_pickling``.  ``shm_batches`` / ``inband_batches``
    count which way each batch of a pickling pool actually took.
    """

    def __init__(
        self,
        batches: Iterable,
        num_layers: int,
        pruning: bool = True,
        aggregator_factory=None,
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
        self._prepare = BatchPreparer(num_layers, pruning, aggregator_factory, edge_level)
        self._enabled = enabled
        self._backend = backend
        self._workers = workers
        self._timers = timers if timers is not None else TimerRegistry()
        self.shm_batches = 0
        self.inband_batches = 0

    # ----------------------------------------------------------- internals
    def _record(self, seconds: float) -> None:
        timer = self._timers["preprocess"]
        timer.total += seconds
        timer.count += 1

    def _iter_sequential(self) -> Iterator[tuple[BatchInputs, np.ndarray | None]]:
        for batch in self._batches:
            with self._timers.timing("preprocess"):
                inputs, labels, _ = self._prepare(batch)
            yield inputs, labels

    def _iter_single_thread(self) -> Iterator[tuple[BatchInputs, np.ndarray | None]]:
        """The classic two-stage pipeline: one background prefetch thread.

        Timing runs through ``timers.timing`` on the producer thread so
        interval records (used to *prove* stage overlap in the ablation
        benchmark) are preserved."""
        out: queue.Queue = queue.Queue(maxsize=QUEUE_DEPTH)
        error: list[BaseException] = []

        def producer():
            try:
                for batch in self._batches:
                    with self._timers.timing("preprocess"):
                        inputs, labels, _ = self._prepare(batch)
                    out.put((inputs, labels))
            except BaseException as exc:  # surface in the consumer thread
                error.append(exc)
            finally:
                out.put(_SENTINEL)

        yield from self._drain(producer, out, error)

    def _iter_pool(self) -> Iterator[tuple[BatchInputs, np.ndarray | None]]:
        """Worker-pool prefetch: the producer thread walks the batch list in
        windows of ``workers`` tasks, executes each window on the registry
        backend, and feeds results into the bounded queue in batch order.

        Windowed ``execute`` calls are the registry's phase contract, so a
        window boundary is a mini-barrier (idle workers wait on the
        window's straggler); the bounded queue keeps the *consumer* fed
        across windows, which is the overlap that matters here — batch
        costs are near-uniform, so straggler slack stays small."""
        out: queue.Queue = queue.Queue(maxsize=QUEUE_DEPTH)
        error: list[BaseException] = []

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
                if use_shm:
                    # Lazy: repro.ps imports the trainer package (circular).
                    from repro.ps.shm import BatchSlab, ShmBatchRef, slab_load

                    # One slab per window slot, reused every window.  Safe
                    # because each window's results are fully drained (and
                    # slab-loaded into private memory) before the next
                    # ``execute`` can overwrite a slot.
                    slabs = [BatchSlab(SLAB_BYTES) for _ in range(self._workers)]
                    by_name = {slab.name: slab for slab in slabs}
                    preparers = [
                        _SlabPreparer(self._prepare, slab.name, slab.capacity)
                        for slab in slabs
                    ]
                window: list = []
                batch_iter = iter(self._batches)
                exhausted = False
                while not exhausted:
                    window.clear()
                    for batch in batch_iter:
                        window.append(batch)
                        if len(window) >= self._workers:
                            break
                    else:
                        exhausted = True
                    if not window:
                        break
                    tasks = [
                        (
                            f"prefetch-{i}",
                            preparers[i] if use_shm else self._prepare,
                            (batch,),
                        )
                        for i, batch in enumerate(window)
                    ]
                    for first, labels, seconds in backend.execute(tasks, plain_retrier):
                        self._record(seconds)
                        if use_shm and isinstance(first, ShmBatchRef):
                            inputs, labels = slab_load(first, by_name[first.slab].buf)
                            self.shm_batches += 1
                        else:
                            inputs = first
                            if use_shm:
                                self.inband_batches += 1
                        out.put((inputs, labels))
            except BaseException as exc:
                error.append(exc)
            finally:
                for slab in slabs:
                    slab.close()
                if owns:
                    backend.close()
                out.put(_SENTINEL)

        yield from self._drain(producer, out, error)

    def _drain(self, producer, out: queue.Queue, error: list):
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
        if self._workers == 1 and self._backend == "threads":
            return self._iter_single_thread()
        return self._iter_pool()
