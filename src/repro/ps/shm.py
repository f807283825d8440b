"""Shared-memory parameter-server transport (the ``transport="shm"`` knob).

The data plane is ``multiprocessing.shared_memory``:

* one **parameter slab** — an int64 seqlock header followed by the whole
  model flattened into a contiguous float32 vector (the
  :class:`~repro.nn.module.StateLayout` contract).  The header's first
  slot is the version counter: odd while the server is writing, bumped to
  the next even value when an update commits.  A client pull is therefore
  a *view refresh*: compare the version against the cached one, and only
  on change memcpy the slab into a private buffer — nothing is ever
  pickled, and an unchanged model costs nothing at all.
* one **gradient slab per worker** — ``push()`` flattens the gradient dict
  into the worker's own slab and sends a few-byte control message; the
  server thread in the parent reads the slab *in place* (zero-copy views)
  and applies it through the same shard/optimizer code as the local
  transport, so async/BSP/SSP semantics — and, for BSP, the exact float
  trajectory — are shared between transports.

The control plane is a pipe-backed channel written synchronously under a
write lock (worker → server messages: push / finish / dead — see
:class:`_CtrlChannel` for why it is not a ``multiprocessing.Queue``) plus
one ack semaphore per worker (server → worker), replacing the local
transport's ``threading.Condition`` machinery.  All of it also works when
"workers" are threads of the parent process, which is how the test suite
exercises shm semantics without spawning.

Memory-consistency note: the seqlock's double-read (version before and
after the copy) is what guards against torn float reads; single-writer
discipline (only the server thread ever touches the parameter slab after
initialisation) does the rest.

:class:`SlabBroadcast` is the same slab machinery reduced to its one-shot
form: immutable content published once by the parent (so no seqlock), read
through picklable :class:`SlabSlice` locators by any number of attaching
processes.  GraphInfer uses it to ship model slices to reducers without a
single serialized parameter byte per task (see
``repro.core.infer.segmentation``).

:class:`BatchSlab` + :func:`slab_dump` / :func:`slab_load` run the slabs in
the *opposite* direction: a prefetch worker pickles its prepared batch with
protocol 5, diverts every out-of-band buffer (the numpy blocks — virtually
all of the bytes) into a parent-owned reusable slab, and ships back only a
small :class:`ShmBatchRef`; the parent rebuilds the object with one bulk
copy out of the slab.  Aliasing inside the batch (e.g. one block shared by
every layer that pruning leaves whole) survives because pickle's memo
handles it — the slab carries each distinct buffer once.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue as queue_mod
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.mapreduce.backends import _start_warm_forkserver
from repro.nn.module import StateLayout

__all__ = [
    "BatchSlab",
    "BytesBroadcast",
    "ShmBatchRef",
    "ShmPSClient",
    "ShmTransport",
    "SlabBroadcast",
    "SlabSlice",
    "attach_shared_memory",
    "mp_context",
    "slab_dump",
    "slab_load",
]

_HEADER_INT64S = 8
_HEADER_BYTES = _HEADER_INT64S * 8
_ACK_TIMEOUT_S = 120.0
_ACK_TIMEOUT_ENV = "REPRO_PS_ACK_TIMEOUT_S"
_POLL_S = 0.2


def _resolve_ack_timeout(ack_timeout_s: float | None) -> float:
    """Ack-timeout precedence: explicit constructor argument, then the
    ``REPRO_PS_ACK_TIMEOUT_S`` environment variable (operational override —
    e.g. cranked down in a chaos soak, up on an overloaded CI box), then
    the 120s default."""
    if ack_timeout_s is None:
        raw = os.environ.get(_ACK_TIMEOUT_ENV)
        if raw is None:
            return _ACK_TIMEOUT_S
        try:
            ack_timeout_s = float(raw)
        except ValueError:
            raise ValueError(
                f"{_ACK_TIMEOUT_ENV} must be a number, got {raw!r}"
            ) from None
    if ack_timeout_s <= 0:
        raise ValueError(f"ack timeout must be > 0 seconds, got {ack_timeout_s}")
    return float(ack_timeout_s)


def mp_context():
    """The start-method every shm participant agrees on.  The parent is
    multi-threaded (server thread, epoch coordinator), so plain fork() is
    deadlock-prone; forkserver spawns workers from a clean helper — the one
    MapReduce pools share, started with one OpenBLAS thread whoever comes
    first (:func:`~repro.mapreduce.backends._start_warm_forkserver`)."""
    if "forkserver" not in mp.get_all_start_methods():
        return mp.get_context("spawn")
    _start_warm_forkserver()
    return mp.get_context("forkserver")


def attach_shared_memory(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing slab without adopting ownership.

    Python < 3.13 registers *every* attachment with the resource tracker,
    which then unlinks the slab when the attaching process exits — yanking
    it out from under the parent (and double-unregistering trips KeyErrors
    in the tracker because its cache is a set).  Suppress the registration
    for the duration of the attach; the creator remains the sole
    owner/unlinker.
    """
    try:  # pragma: no cover - tracker internals vary across versions
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def register(rt_name, rtype):
            if rtype != "shared_memory":
                original(rt_name, rtype)

        resource_tracker.register = register
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
    except ImportError:
        return shared_memory.SharedMemory(name=name)


# --------------------------------------------------------------- broadcasts
# One-shot "publish once, attach everywhere" slabs.  Unlike the parameter
# server above there is no version counter: the content is immutable for the
# slab's whole lifetime, so readers need no seqlock — just the layout.

_ATTACH_CACHE: dict[str, shared_memory.SharedMemory] = {}
_ATTACH_CACHE_MAX = 16
"""Bounded FIFO.  Sized for a prefetch pool's worth of per-slot batch slabs
plus a model broadcast or two — a worker that cycles every slab of one run
must never thrash the cache."""
_ATTACH_LOCK = threading.Lock()


def _attach_segment_locked(name: str) -> shared_memory.SharedMemory:
    """Cache lookup/attach for a named slab.  ``_ATTACH_LOCK`` must be held.

    The cache means a worker process that runs many tasks against the same
    slab maps it once, not once per task.  Eviction is oldest-first (dict
    insertion order); a mapping whose views are still exported cannot be
    closed — re-queue it as most-recent and keep the handle instead of
    leaking an unclosable segment; the cache may transiently exceed the cap
    while everything is pinned."""
    seg = _ATTACH_CACHE.get(name)
    if seg is None:
        for stale in list(_ATTACH_CACHE):
            if len(_ATTACH_CACHE) < _ATTACH_CACHE_MAX:
                break
            old = _ATTACH_CACHE.pop(stale)
            try:
                old.close()
            except BufferError:  # live views into the mapping
                _ATTACH_CACHE[stale] = old
        seg = attach_shared_memory(name)
        _ATTACH_CACHE[name] = seg
    return seg


def _attach_view(name: str, size: int, byte_offset: int) -> np.ndarray:
    """Attach to a broadcast slab (cached per process) and return a float32
    view into it.

    Everything — lookup, eviction, attach, *and* view construction —
    happens under one lock hold: reducers on the threads backend
    materialize concurrently, and building the ndarray exports the
    segment's buffer, which pins the mapping against a concurrent
    eviction's ``close()``; a view built outside the lock could race an
    eviction and read a closed segment."""
    with _ATTACH_LOCK:
        seg = _attach_segment_locked(name)
        return np.ndarray(
            (size,), dtype=np.float32, buffer=seg.buf, offset=byte_offset
        )


@dataclass(frozen=True)
class SlabSlice:
    """Picklable locator for one state dict inside a :class:`SlabBroadcast`.

    This is what travels to worker processes instead of the parameter
    arrays themselves: slab *name*, element offset, and the
    :class:`~repro.nn.module.StateLayout` contract — a few hundred bytes
    regardless of model size.  ``state()`` attaches lazily (cached per
    process) and returns layout views into the mapping; callers that keep
    the values past the slab's lifetime must copy them (loading them into a
    module via ``load_state_dict`` does)."""

    slab: str
    index: int
    offset: int
    layout: StateLayout

    def state(self) -> dict[str, np.ndarray]:
        flat = _attach_view(self.slab, self.layout.total_size, 4 * self.offset)
        return self.layout.unflatten(flat)

    def num_values(self) -> int:
        return self.layout.total_size


class SlabBroadcast:
    """Publish a sequence of state dicts into one named shared-memory slab.

    The creating process is the sole owner: it flattens every state dict
    through its :class:`~repro.nn.module.StateLayout` into a contiguous
    float32 slab exactly once, hands out :class:`SlabSlice` locators, and
    unlinks the slab in :meth:`close` (a ``weakref.finalize`` backstop
    covers abandoned instances).  Attaching processes never adopt
    ownership (:func:`attach_shared_memory`), so a worker exiting — or
    crashing — cannot yank the slab out from under the survivors, and the
    parent's ``finally`` is the single unlink point even when a round
    fails mid-run."""

    def __init__(self, states: list[dict[str, np.ndarray]]):
        self.layouts = [StateLayout.from_state(state) for state in states]
        offsets, total = [], 0
        for layout in self.layouts:
            offsets.append(total)
            total += layout.total_size
        self.offsets = offsets
        self.total_size = total
        self._seg = shared_memory.SharedMemory(create=True, size=max(4 * total, 1))
        # Finalizer registered before the flatten loop: a state dict that
        # fails to flatten must not leak the freshly created segment.
        self.name = self._seg.name
        self._closed = False
        self._finalizer = weakref.finalize(self, _release_segments, self._seg, [])
        try:
            flat = np.ndarray((total,), dtype=np.float32, buffer=self._seg.buf)
            for layout, offset, state in zip(self.layouts, offsets, states):
                layout.flatten(state, out=flat[offset : offset + layout.total_size])
        except BaseException:
            self.close()
            raise

    def __len__(self) -> int:
        return len(self.layouts)

    def slice(self, index: int) -> SlabSlice:
        if not 0 <= index < len(self.layouts):
            raise IndexError(f"broadcast holds {len(self.layouts)} slices")
        return SlabSlice(self.name, index, self.offsets[index], self.layouts[index])

    def close(self) -> None:
        """Unlink the slab (idempotent).  Existing mappings in attached
        processes stay valid until they unmap; no new attach can succeed."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()

    def __enter__(self) -> "SlabBroadcast":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BatchSlab:
    """Parent-owned reusable raw-byte slab for prefetch batch handoff.

    The trainer's prefetch pool creates one per in-flight window slot and
    keeps reusing it: every window, the worker driving that slot overwrites
    the slab with the out-of-band buffers of its freshly prepared batch
    (:func:`slab_dump`) and the parent drains it (:func:`slab_load`) before
    the slot is reissued.  Ownership mirrors :class:`SlabBroadcast`: only
    the creating process unlinks, with a ``weakref.finalize`` backstop."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("slab capacity must be >= 1 byte")
        self.capacity = int(capacity)
        self._seg = shared_memory.SharedMemory(create=True, size=self.capacity)
        self.name = self._seg.name
        self._closed = False
        self._finalizer = weakref.finalize(self, _release_segments, self._seg, [])

    @property
    def buf(self) -> memoryview:
        return self._seg.buf

    def close(self) -> None:
        """Unlink the slab (idempotent); lingering worker mappings stay
        valid until they unmap, but no new attach can succeed."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()

    def __enter__(self) -> "BatchSlab":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BytesBroadcast:
    """Publish one immutable byte payload into a named shared-memory slab.

    The general-purpose sibling of :class:`SlabBroadcast` for non-float
    payloads (e.g. an encoded partition-plan table): the creating process
    writes the bytes exactly once, hands out only ``(name, len(payload))``
    locators, and unlinks in :meth:`close` (``weakref.finalize`` backstop
    for abandoned instances).  Readers attach with
    :func:`attach_shared_memory` and copy the prefix out — the slab may be
    rounded up by the OS, so the advertised length, not the segment size,
    bounds the payload."""

    def __init__(self, payload: bytes):
        self.nbytes = len(payload)
        self._seg = shared_memory.SharedMemory(
            create=True, size=max(self.nbytes, 1)
        )
        self.name = self._seg.name
        self._closed = False
        self._finalizer = weakref.finalize(self, _release_segments, self._seg, [])
        try:
            self._seg.buf[: self.nbytes] = payload
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Unlink the slab (idempotent); lingering worker mappings stay
        valid until they unmap, but no new attach can succeed."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()

    def __enter__(self) -> "BytesBroadcast":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True)
class ShmBatchRef:
    """Locator for a batch parked in a :class:`BatchSlab`.

    ``payload`` is the pickle-protocol-5 stream with every contiguous
    buffer diverted out-of-band; ``spans`` gives each diverted buffer's
    ``(offset, length)`` inside the slab, in ``buffer_callback`` order —
    the order :func:`slab_load` must feed them back to ``pickle.loads``."""

    slab: str
    payload: bytes
    spans: tuple[tuple[int, int], ...]

    @property
    def slab_bytes(self) -> int:
        return sum(length for _, length in self.spans)


_SLAB_ALIGN = 64


def slab_dump(obj: object, slab_name: str, capacity: int) -> ShmBatchRef | None:
    """Worker side: park ``obj``'s bulk bytes in the named slab.

    Pickles with protocol 5, writing every out-of-band buffer back-to-back
    (64-byte aligned) into the slab, and returns a small
    :class:`ShmBatchRef` for the parent.  Returns ``None`` — caller ships
    the object in-band instead — when the buffers don't fit ``capacity``;
    determinism of the fallback matters more than squeezing edge cases."""
    buffers: list[pickle.PickleBuffer] = []
    payload = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    spans: list[tuple[int, int]] = []
    raws: list[memoryview] = []
    offset = 0
    for pb in buffers:
        try:
            raw = pb.raw()
        except BufferError:  # non-contiguous exporter; ship in-band
            return None
        offset = -(-offset // _SLAB_ALIGN) * _SLAB_ALIGN
        spans.append((offset, raw.nbytes))
        raws.append(raw)
        offset += raw.nbytes
    if offset > capacity:
        return None
    with _ATTACH_LOCK:
        seg = _attach_segment_locked(slab_name)
        buf = seg.buf
        for (off, length), raw in zip(spans, raws):
            buf[off : off + length] = raw.cast("B")
    return ShmBatchRef(slab_name, payload, tuple(spans))


def slab_load(ref: ShmBatchRef, buf: memoryview) -> object:
    """Parent side: rebuild the object :func:`slab_dump` parked.

    One bulk copy out of the slab into a private bytearray, then
    ``pickle.loads`` with writable views into that copy — the slab can be
    overwritten by the next window the moment this returns, and the
    reconstructed arrays are backed by private memory, not the slab."""
    total = sum(length for _, length in ref.spans)
    private = bytearray(total)
    views: list[memoryview] = []
    mv = memoryview(private)
    pos = 0
    for off, length in ref.spans:
        private[pos : pos + length] = buf[off : off + length]
        views.append(mv[pos : pos + length])
        pos += length
    return pickle.loads(ref.payload, buffers=views)


class _CtrlChannel:
    """Control-plane message channel: a raw pipe plus a write lock, written
    *synchronously from the calling thread*.

    This deliberately replaces ``multiprocessing.Queue``, whose ``put`` only
    buffers and lets a per-process **feeder thread** acquire the shared
    write lock and flush later.  A worker that hard-crashes (``os._exit``,
    SIGKILL) right after being acked could die while its feeder still held
    the lock — permanently deadlocking every other writer (surviving
    workers' pushes, the parent's ``mark_dead``), which is precisely the
    crash window the dead-worker tests probe.  With the synchronous write,
    the lock is provably released before ``push()`` starts waiting for its
    ack, so a worker can only ever die *between* messages.  (No feeder
    thread also means nothing to ``join_thread`` at close.)"""

    def __init__(self, ctx):
        self._reader, self._writer = ctx.Pipe(duplex=False)
        self._wlock = ctx.Lock()

    def put(self, msg, timeout: float | None = None) -> None:
        """Send a message; with ``timeout``, bound the wait for the write
        lock.  A process SIGKILLed *mid-send* still orphans the lock (the
        irreducible residue of a shared-pipe design) — the timeout turns
        that from a silent permanent hang of every surviving writer into a
        loud bounded-time failure, and the parent's recovery/control
        messages bypass this channel entirely (see ``ShmTransport``)."""
        if not self._wlock.acquire(timeout=timeout):
            raise RuntimeError(
                f"control-channel write lock not acquired within {timeout:.0f}s "
                "(held by a crashed process?)"
            )
        try:
            self._writer.send(msg)
        finally:
            self._wlock.release()

    def get(self, timeout: float):
        """Single reader: the server thread.  Raises ``queue.Empty`` on
        timeout to keep the server loop's contract."""
        if self._reader.poll(timeout):
            return self._reader.recv()
        raise queue_mod.Empty

    def close(self) -> None:
        self._reader.close()
        self._writer.close()


class _SeqlockWrite:
    """Context manager the server holds while mutating the parameter slab:
    version goes odd on entry, next even on exit (commit)."""

    def __init__(self, header: np.ndarray):
        self._header = header

    def __enter__(self):
        self._header[0] += 1
        return self

    def __exit__(self, *exc):
        self._header[0] += 1


class ShmPSClient:
    """Picklable per-worker handle onto the shared-memory slabs.

    Safe to ship to a worker process (slab *names* travel; mappings are
    re-attached lazily on first use) and equally functional from a thread
    of the parent.  Interface-compatible with
    :class:`~repro.ps.server.PSClient`: ``pull()`` returns ``None`` when
    the cached version is current, else a state dict of views into the
    client's private refresh buffer.
    """

    def __init__(
        self,
        layout: StateLayout,
        param_slab: str,
        grad_slab: str,
        worker_id: int,
        ctrl,
        ack,
        ack_timeout_s: float | None = None,
    ):
        self.layout = layout
        self.param_slab = param_slab
        self.grad_slab = grad_slab
        self.worker_id = worker_id
        self.ack_timeout_s = _resolve_ack_timeout(ack_timeout_s)
        self._ctrl = ctrl
        self._ack = ack
        self._seen_version = -1
        self.pulls = 0
        self.refreshes = 0
        self.pull_bytes = 0  # serialized transport bytes: always 0 for shm
        self._attached = False

    # ------------------------------------------------------------- pickling
    def __getstate__(self):
        state = self.__dict__.copy()
        # mappings and views are per-process; the receiving side re-attaches
        for key in ("_param_seg", "_grad_seg", "_header", "_params", "_grad_view",
                    "_buffer", "_views", "_grad_slab_views"):
            state.pop(key, None)
        state["_attached"] = False
        return state

    def _ensure_attached(self) -> None:
        if self._attached:
            return
        self._param_seg = attach_shared_memory(self.param_slab)
        self._grad_seg = attach_shared_memory(self.grad_slab)
        size = self.layout.total_size
        self._header = np.ndarray((_HEADER_INT64S,), dtype=np.int64, buffer=self._param_seg.buf)
        self._params = np.ndarray(
            (size,), dtype=np.float32, buffer=self._param_seg.buf, offset=_HEADER_BYTES
        )
        self._grad_view = np.ndarray((size,), dtype=np.float32, buffer=self._grad_seg.buf)
        self._buffer = np.empty(size, dtype=np.float32)
        self._views = self.layout.unflatten(self._buffer)
        self._grad_slab_views = self.layout.unflatten(self._grad_view)
        self._attached = True

    # ------------------------------------------------------------ pull/push
    def pull(self) -> dict[str, np.ndarray] | None:
        self._ensure_attached()
        self.pulls += 1
        while True:
            before = int(self._header[0])
            if before % 2:  # server mid-write; retry shortly
                time.sleep(0)
                continue
            if before == self._seen_version:
                return None
            self._buffer[...] = self._params
            if int(self._header[0]) == before:
                self._seen_version = before
                self.refreshes += 1
                return self._views

    def push(self, grads: dict[str, np.ndarray]) -> None:
        """Write the gradient dict into this worker's slab and signal.

        A parameter may legitimately have no gradient this step (the
        trainer omits ``grad is None`` entries); absent names ride along
        in the control message so the server skips their (stale) slab
        slots — matching the local transport, which simply never sees
        them."""
        self._ensure_attached()
        slab_views = self._grad_slab_views
        missing = []
        for name, view in slab_views.items():
            if name in grads:
                view[...] = np.asarray(grads[name], dtype=np.float32)
            else:
                missing.append(name)
        unknown = grads.keys() - slab_views.keys()
        if unknown:
            raise KeyError(f"gradients for unknown parameters: {sorted(unknown)}")
        self._ctrl.put(
            ("push", self.worker_id, tuple(missing)), timeout=self.ack_timeout_s
        )
        self._await_ack()

    def _await_ack(self) -> None:
        deadline = time.monotonic() + self.ack_timeout_s
        while not self._ack.acquire(timeout=_POLL_S):
            parent = mp.parent_process()
            if parent is not None and not parent.is_alive():
                raise RuntimeError("parameter-server process died; aborting worker")
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"worker {self.worker_id}: no ack from the parameter server "
                    f"within {self.ack_timeout_s:.0f}s"
                )

    def finish_epoch(self) -> None:
        """End-of-epoch drain (SSP staleness release, BSP barrier excuse).

        Blocks until the server has processed the drain: the ack is what
        serialises a worker's epoch-end against the parent's subsequent
        ``begin_epoch`` barrier reset (messages from different processes
        have no cross-queue ordering guarantee otherwise).
        """
        self._ctrl.put(("finish", self.worker_id, None), timeout=self.ack_timeout_s)
        self._await_ack()

    def stats(self) -> dict[str, int]:
        return {
            "pulls": self.pulls,
            "refreshes": self.refreshes,
            "pull_bytes": self.pull_bytes,
        }


class ShmTransport:
    """Parent-side owner of the slabs plus the apply/consistency thread.

    ``ack_timeout_s`` bounds every ack-style wait on the transport — the
    workers' push/drain acks and the parent's ``begin_epoch`` barrier
    re-arm.  ``None`` defers to the ``REPRO_PS_ACK_TIMEOUT_S`` environment
    variable, then the 120s default."""

    def __init__(self, group, state: dict[str, np.ndarray], ack_timeout_s: float | None = None):
        self.group = group
        self.ack_timeout_s = _resolve_ack_timeout(ack_timeout_s)
        self.layout = StateLayout.from_state(state)
        self.ctx = mp_context()
        size = self.layout.total_size
        self._param_seg = shared_memory.SharedMemory(
            create=True, size=_HEADER_BYTES + 4 * size
        )
        self._grad_segs = [
            shared_memory.SharedMemory(create=True, size=4 * size)
            for _ in range(group.num_workers)
        ]
        self._header = np.ndarray((_HEADER_INT64S,), dtype=np.int64, buffer=self._param_seg.buf)
        self._header[:] = 0
        self._params = np.ndarray(
            (size,), dtype=np.float32, buffer=self._param_seg.buf, offset=_HEADER_BYTES
        )
        self._grad_views = [
            np.ndarray((size,), dtype=np.float32, buffer=seg.buf) for seg in self._grad_segs
        ]
        self._ctrl = _CtrlChannel(self.ctx)
        # Parent -> server-thread control messages (begin_epoch, mark_dead,
        # stop) skip the cross-process channel: they stay in-process on a
        # thread-safe deque, so the *recovery* path (excusing a dead worker)
        # can never block on a lock a crashed worker orphaned.
        self._local_ctrl: deque = deque()
        self._acks = [self.ctx.Semaphore(0) for _ in range(group.num_workers)]
        self._clients: dict[int, ShmPSClient] = {}
        self._epoch_armed = threading.Event()  # server-side begin_epoch ack
        self._thread: threading.Thread | None = None
        self.server_error: BaseException | None = None
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _release_segments, self._param_seg, list(self._grad_segs)
        )

    # --------------------------------------------------------------- set-up
    def param_views(self) -> dict[str, np.ndarray]:
        """Named views into the parameter slab — the authoritative storage
        the group's shards install their values into."""
        return self.layout.unflatten(self._params)

    def commit_initial(self) -> None:
        """Publish the initial model: version 0 -> 2 (first even commit)."""
        self._header[0] = 2

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._serve, name="agl-ps-server", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------- group API
    def version(self) -> int:
        return int(self._header[0])

    def write_lock(self) -> _SeqlockWrite:
        return _SeqlockWrite(self._header)

    def read_state(self) -> dict[str, np.ndarray]:
        """Parent-side consistent snapshot (seqlock copy)."""
        size = self.layout.total_size
        buffer = np.empty(size, dtype=np.float32)
        while True:
            before = int(self._header[0])
            if before % 2:
                time.sleep(0)
                continue
            buffer[...] = self._params
            if int(self._header[0]) == before:
                return self.layout.unflatten(buffer)

    def client(self, worker_id: int) -> ShmPSClient:
        if not 0 <= worker_id < self.group.num_workers:
            raise ValueError(f"worker_id {worker_id} out of range")
        if worker_id not in self._clients:
            client = ShmPSClient(
                self.layout,
                self._param_seg.name,
                self._grad_segs[worker_id].name,
                worker_id,
                self._ctrl,
                self._acks[worker_id],
                ack_timeout_s=self.ack_timeout_s,
            )
            # In-parent use (thread workers, evaluation) borrows this
            # process's existing mappings instead of re-attaching — the
            # attach path is for clients that crossed a process boundary.
            client._header = self._header
            client._params = self._params
            client._grad_view = self._grad_views[worker_id]
            client._buffer = np.empty(self.layout.total_size, dtype=np.float32)
            client._views = self.layout.unflatten(client._buffer)
            client._grad_slab_views = self.layout.unflatten(client._grad_view)
            client._attached = True
            self._clients[worker_id] = client
        return self._clients[worker_id]

    def begin_epoch(self) -> None:
        """Re-arm the BSP barrier.  Synchronous: returns only once the
        server thread has processed the reset, so every worker's (ack'd)
        end-of-epoch drain is ordered strictly before it."""
        self._epoch_armed.clear()
        self._local_ctrl.append(("begin_epoch", -1, None))
        if not self._epoch_armed.wait(timeout=self.ack_timeout_s):
            raise RuntimeError("parameter-server thread did not re-arm the epoch")

    def finish_worker(self, worker_id: int) -> None:
        self.client(worker_id).finish_epoch()

    def mark_dead(self, worker_id: int) -> None:
        """A worker process died without draining — excuse it from every
        barrier so the survivors never deadlock.  Delivered in-process so
        it works even when the corpse orphaned the channel's write lock."""
        self._local_ctrl.append(("dead", worker_id, None))

    # ------------------------------------------------------------ the server
    def _serve(self) -> None:
        group = self.group
        workers = group.num_workers
        active = set(range(workers))
        required = set(active)  # BSP: who this epoch's barriers may wait on
        waiting: set[int] = set()  # BSP: contributed to the current step
        steps = [0] * workers  # SSP step counters
        parked: set[int] = set()  # SSP: pushed but blocked on staleness

        absent: dict[int, tuple] = {}  # per worker: names omitted this push

        def grads_of(w: int) -> dict[str, np.ndarray]:
            views = self.layout.unflatten(self._grad_views[w])
            for name in absent.get(w, ()):  # stale slots: no grad this step
                views.pop(name, None)
            return views

        def apply_one(w: int) -> None:
            group._scatter_apply(grads_of(w))

        def bsp_flush_if_ready() -> None:
            if waiting and waiting >= required:
                from repro.ps.server import mean_gradients

                group._scatter_apply(
                    mean_gradients({w: grads_of(w) for w in waiting})
                )
                for w in sorted(waiting):
                    self._acks[w].release()
                waiting.clear()

        def ssp_drain() -> None:
            made_progress = True
            while made_progress:
                made_progress = False
                for w in sorted(parked):
                    if steps[w] - min(steps) <= group.staleness:
                        parked.discard(w)
                        apply_one(w)
                        steps[w] += 1
                        self._acks[w].release()
                        made_progress = True
                        break

        try:
            while True:
                if self._local_ctrl:
                    kind, w, payload = self._local_ctrl.popleft()
                else:
                    try:
                        kind, w, payload = self._ctrl.get(timeout=_POLL_S)
                    except queue_mod.Empty:
                        continue
                if kind == "stop":
                    break
                if kind == "begin_epoch":
                    required = set(active)
                    self._epoch_armed.set()
                    continue
                if kind == "push":
                    group.total_pushes += 1
                    absent[w] = payload or ()
                    if group.mode == "async":
                        apply_one(w)
                        self._acks[w].release()
                    elif group.mode == "bsp":
                        waiting.add(w)
                        bsp_flush_if_ready()
                    else:  # ssp
                        if steps[w] - min(steps) > group.staleness:
                            parked.add(w)
                        else:
                            apply_one(w)
                            steps[w] += 1
                            self._acks[w].release()
                            ssp_drain()
                elif kind in ("finish", "dead"):
                    if kind == "dead":
                        active.discard(w)
                    if group.mode == "ssp":
                        steps[w] = max(steps)
                        parked.discard(w)
                        ssp_drain()
                    elif group.mode == "bsp":
                        required.discard(w)
                        bsp_flush_if_ready()
                    if kind == "finish":
                        self._acks[w].release()
        except BaseException as exc:  # pragma: no cover - defensive
            self.server_error = exc
            for ack in self._acks:  # never leave a worker blocked on a push
                ack.release()
            self._epoch_armed.set()

    # -------------------------------------------------------------- teardown
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._thread is not None and self._thread.is_alive():
            self._local_ctrl.append(("stop", -1, None))
            self._thread.join(timeout=10)
        self._ctrl.close()
        self._finalizer()


def _release_segments(param_seg, grad_segs) -> None:
    # close and unlink attempted independently: a still-exported buffer
    # (BufferError on close) must not stop the name being unlinked — the
    # lingering mapping then dies with its last reference, not /dev/shm.
    for seg in [param_seg, *grad_segs]:
        try:
            seg.close()
        except Exception:  # pragma: no cover - exported views / already closed
            pass
        try:
            seg.unlink()
        except Exception:  # pragma: no cover - already unlinked
            pass
