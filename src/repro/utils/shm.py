"""Shared-memory carriers: one owning segment class and the attaching side.

Every ``/dev/shm`` segment of the code base is a :class:`Slab`: the
creating process is its sole owner and unlinker, and everyone else attaches
by name through :func:`attach_shared_memory`, which never adopts ownership.
Three users sit on top of it:

* side inputs (:func:`repro.mapreduce.partition.publish`): a payload written
  once into a slab, read by locator in every worker process — the out-edge
  CSR and GraphInfer's model slices;
* the shared-memory parameter server (:mod:`repro.ps.shm`): one parameter
  slab and one gradient slab per worker, rewritten in place;
* the trainer's prefetch hand-off (:func:`slab_dump` / :func:`slab_load`):
  a pool worker pickles its prepared batch with protocol 5, diverts every
  out-of-band buffer (the numpy blocks — virtually all of the bytes) into a
  parent-owned reusable slab, and ships back only a small
  :class:`ShmBatchRef`; the parent rebuilds the object with one bulk copy
  out of the slab.  Aliasing inside the batch survives because pickle's
  memo handles it — the slab carries each distinct buffer once.

A leaf module (standard library only), so every package can import it at
the top.
"""

from __future__ import annotations

import pickle
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

__all__ = [
    "ShmBatchRef",
    "Slab",
    "attach_shared_memory",
    "slab_dump",
    "slab_load",
]


def _release_segment(seg: shared_memory.SharedMemory) -> None:
    # close and unlink attempted independently: a still-exported buffer
    # (BufferError on close) must not stop the name being unlinked — the
    # lingering mapping then dies with its last reference, not /dev/shm.
    try:
        seg.close()
    except Exception:  # pragma: no cover - exported views / already closed
        pass
    try:
        seg.unlink()
    except Exception:  # pragma: no cover - already unlinked
        pass


class Slab:
    """A named shared-memory segment of ``capacity`` bytes, owned by the
    process that created it.

    The owner writes ``buf`` and hands out only ``name`` (plus whatever
    layout the reader needs); :meth:`close` unlinks the segment, and a
    ``weakref.finalize`` backstop covers abandoned instances.  Attaching
    processes never adopt ownership (:func:`attach_shared_memory`), so a
    worker exiting — or crashing — cannot yank the segment out from under
    the survivors, and the owner's ``finally`` is the single unlink point
    even when a round fails mid-run."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("slab capacity must be >= 1 byte")
        self.capacity = int(capacity)
        self._seg = shared_memory.SharedMemory(create=True, size=self.capacity)
        self.name = self._seg.name
        self._closed = False
        self._finalizer = weakref.finalize(self, _release_segment, self._seg)

    @property
    def buf(self) -> memoryview:
        return self._seg.buf

    def close(self) -> None:
        """Unlink the slab (idempotent); lingering mappings stay valid until
        they unmap, but no new attach can succeed."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()

    def __enter__(self) -> "Slab":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach_shared_memory(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing slab without adopting ownership.

    Python < 3.13 registers *every* attachment with the resource tracker,
    which then unlinks the slab when the attaching process exits — yanking
    it out from under the owner (and double-unregistering trips KeyErrors
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


# ------------------------------------------------------------ attach cache
_ATTACH_CACHE: dict[str, shared_memory.SharedMemory] = {}
_ATTACH_CACHE_MAX = 16
"""Bounded FIFO.  Sized for a prefetch pool's worth of per-slot batch slabs
— a worker that cycles every slab of one run must never thrash the
cache."""
_ATTACH_LOCK = threading.Lock()


def _attach_segment_locked(name: str) -> shared_memory.SharedMemory:
    """Cache lookup/attach for a named slab.  ``_ATTACH_LOCK`` must be held
    for as long as the caller uses the mapping, and no view of it may
    outlive the hold: eviction (oldest first, dict insertion order) unmaps
    it, and a numpy array over ``buf`` does not keep a mapping alive.

    The cache means a worker process that runs many tasks against the same
    slab maps it once, not once per task."""
    seg = _ATTACH_CACHE.get(name)
    if seg is None:
        while len(_ATTACH_CACHE) >= _ATTACH_CACHE_MAX:
            _ATTACH_CACHE.pop(next(iter(_ATTACH_CACHE))).close()
        seg = _ATTACH_CACHE[name] = attach_shared_memory(name)
    return seg


# --------------------------------------------------------- batch hand-off
@dataclass(frozen=True)
class ShmBatchRef:
    """Locator for a batch parked in a :class:`Slab` by :func:`slab_dump`.

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
    :class:`ShmBatchRef` for the owner.  Returns ``None`` — caller ships
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
        buf = _attach_segment_locked(slab_name).buf
        for (off, length), raw in zip(spans, raws):
            buf[off : off + length] = raw.cast("B")
    return ShmBatchRef(slab_name, payload, tuple(spans))


def slab_load(ref: ShmBatchRef, buf: memoryview) -> object:
    """Owner side: rebuild the object :func:`slab_dump` parked.

    One bulk copy out of the slab into a private bytearray, then
    ``pickle.loads`` with writable views into that copy — the slab can be
    overwritten by the next window the moment this returns, and the
    reconstructed arrays are backed by private memory, not the slab."""
    private = bytearray(ref.slab_bytes)
    views: list[memoryview] = []
    mv = memoryview(private)
    pos = 0
    for off, length in ref.spans:
        private[pos : pos + length] = buf[off : off + length]
        views.append(mv[pos : pos + length])
        pos += length
    return pickle.loads(ref.payload, buffers=views)
