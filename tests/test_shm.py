"""The shared-memory carrier (``repro.utils.shm``): one owning class,
:class:`Slab`, for every segment — unlinked exactly once by its owner —
and a bounded per-process attach cache on the reading side."""

import os

import numpy as np
import pytest

from repro.utils import shm
from repro.utils.shm import Slab, attach_shared_memory, slab_dump


class TestSlab:
    def test_close_unlinks_and_is_idempotent(self):
        slab = Slab(128)
        name = slab.name
        slab.buf[:3] = b"abc"
        seg = attach_shared_memory(name)
        try:
            assert bytes(seg.buf[:3]) == b"abc"
        finally:
            seg.close()
        if os.path.isdir("/dev/shm"):
            assert os.path.exists(os.path.join("/dev/shm", name))
        slab.close()
        slab.close()
        if os.path.isdir("/dev/shm"):
            assert not os.path.exists(os.path.join("/dev/shm", name))
        with pytest.raises(FileNotFoundError):
            attach_shared_memory(name)

    def test_context_manager_unlinks(self):
        with Slab(1) as slab:
            name = slab.name
        with pytest.raises(FileNotFoundError):
            attach_shared_memory(name)

    def test_abandoned_slab_is_unlinked(self):
        slab = Slab(64)
        name = slab.name
        del slab  # the weakref.finalize backstop
        with pytest.raises(FileNotFoundError):
            attach_shared_memory(name)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1 byte"):
            Slab(0)


class TestAttachCache:
    """A worker maps a slab once, however many tasks write into it; the
    cache is a bounded FIFO."""

    @staticmethod
    def _forget(slabs):
        for slab in slabs:
            seg = shm._ATTACH_CACHE.pop(slab.name, None)
            if seg is not None:
                seg.close()
            slab.close()

    def test_bounded_fifo(self):
        slabs = [Slab(4096) for _ in range(shm._ATTACH_CACHE_MAX + 2)]
        try:
            for slab in slabs:
                assert slab_dump(np.arange(4.0), slab.name, slab.capacity) is not None
            assert len(shm._ATTACH_CACHE) <= shm._ATTACH_CACHE_MAX
            # the *newest* attachments survive, the oldest are evicted
            expected = [slab.name for slab in slabs[-shm._ATTACH_CACHE_MAX:]]
            assert [n for n in shm._ATTACH_CACHE if n in expected] == expected
            assert slabs[0].name not in shm._ATTACH_CACHE
        finally:
            self._forget(slabs)

    def test_a_slab_is_mapped_once(self, monkeypatch):
        attaches = []

        def counting_attach(name):
            attaches.append(name)
            return attach_shared_memory(name)

        monkeypatch.setattr(shm, "attach_shared_memory", counting_attach)
        with Slab(4096) as slab:
            try:
                for value in range(3):
                    ref = slab_dump(np.full(4, float(value)), slab.name, slab.capacity)
                    assert shm.slab_load(ref, slab.buf).tolist() == [float(value)] * 4
                assert attaches == [slab.name]
            finally:
                self._forget([slab])
