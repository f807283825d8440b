"""Shuffle placement helpers and side inputs.

Every MapReduce round places a record by
:func:`~repro.mapreduce.shuffle.default_partition`: ``crc32`` of the key's
canonical bytes, modulo the reducer count.  That is stateless,
deterministic across processes, runs and re-executed or speculated task
attempts, and free.  The hub problem of power-law graphs is answered by
re-indexing (§3.2.2, ``repro.core.propagation``), not by placement.

A generic :class:`~repro.mapreduce.job.MapReduceJob` may pass its own
partition callable.  The writers here compute the hash default in array
passes over the key bytes and call any other callable once per key.

Side inputs (:func:`publish`) live here too.
"""

from __future__ import annotations

import threading
import zlib
from collections.abc import Callable
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.mapreduce.shuffle import default_partition
from repro.utils.shm import Slab, attach_shared_memory

__all__ = [
    "Inline",
    "SlabLocator",
    "int_key_partitions",
    "key_partitions",
    "publish",
]


# ------------------------------------------------------------- side inputs
# A side input is an immutable value every task of a run reads — the
# propagation engine's out-edge CSR, GraphInfer's model slices.  It rides
# inline when tasks stay in-process; under a pickling backend it is encoded
# once into a shared-memory slab and tasks carry only a locator.  Decoded
# slab payloads are cached per process: pooled workers decode a given side
# input once, then every task attempt (retries and speculative duplicates
# included) reads the same immutable object.  A pool outlives its runs, so
# the cache is a bounded FIFO: the newest run's values stay, older runs' go.

_SIDE_INPUTS: dict[tuple[str, int], object] = {}
_SIDE_INPUTS_MAX = 3
"""One run publishes at most two side inputs (out-edges, model slices), so
a run never evicts its own; the third slot keeps one earlier run's input
decoded on a pool that serves several runs."""
_SIDE_INPUTS_LOCK = threading.Lock()


@dataclass(frozen=True)
class Inline:
    """A side input held by reference (in-process backends never pickle
    it; pickled anyway, it travels whole)."""

    value: object

    def get(self):
        return self.value


@dataclass(frozen=True)
class SlabLocator:
    """Locator for a side input published through a shared-memory
    :class:`~repro.utils.shm.Slab`: the pickled task carries only (name,
    length, decoder), and each worker process attaches, copies and decodes
    the payload once."""

    name: str
    nbytes: int
    decode: Callable[[bytes], object]

    def get(self):
        key = (self.name, self.nbytes)
        value = _SIDE_INPUTS.get(key)  # the hot path: no lock
        if value is None:
            with _SIDE_INPUTS_LOCK:
                value = _SIDE_INPUTS.get(key)
                if value is None:
                    seg = attach_shared_memory(self.name)
                    try:
                        payload = bytes(seg.buf[: self.nbytes])
                    finally:
                        seg.close()
                    value = self.decode(payload)
                    while len(_SIDE_INPUTS) >= _SIDE_INPUTS_MAX:
                        del _SIDE_INPUTS[next(iter(_SIDE_INPUTS))]
                    _SIDE_INPUTS[key] = value
        return value


def publish(value, needs_pickling: bool):
    """``(slab, carrier)`` for a side input ``value`` (anything with
    ``encode()`` and a ``decode(bytes)`` classmethod): an :class:`Inline`
    when tasks stay in-process, else a :class:`SlabLocator` over a fresh
    :class:`~repro.utils.shm.Slab` holding the encoded value.  The caller
    owns ``slab`` (``None`` inline) and must ``close()`` it after the run."""
    if not needs_pickling:
        return None, Inline(value)
    payload = value.encode()
    slab = Slab(max(len(payload), 1))
    try:
        slab.buf[: len(payload)] = payload
    except BaseException:
        slab.close()
        raise
    return slab, SlabLocator(slab.name, len(payload), type(value).decode)


def _hash_bytes(kb: bytes, num_partitions: int) -> int:
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    return zlib.crc32(kb) % num_partitions


def _crc32_table() -> np.ndarray:
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        table = np.where(table & 1, (table >> 1) ^ np.uint32(0xEDB88320), table >> 1)
    return table


_CRC32_TABLE = _crc32_table()


def _crc32_rows(rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``zlib.crc32(bytes(rows[i, :lengths[i]]))`` for every row ``i`` of a
    ``uint8`` matrix, a byte column at a time."""
    crc = np.full(len(rows), 0xFFFFFFFF, dtype=np.uint32)
    shortest = int(lengths.min()) if len(rows) else 0
    for j in range(int(lengths.max()) if len(rows) else 0):
        step = _CRC32_TABLE[(crc ^ rows[:, j]) & 0xFF] ^ (crc >> 8)
        crc = step if j < shortest else np.where(j < lengths, step, crc)
    return crc ^ np.uint32(0xFFFFFFFF)


def int_key_partitions(
    partitioner, keys: np.ndarray, rows: np.ndarray, lengths: np.ndarray, num_partitions: int
) -> np.ndarray:
    """The partition of each plain int key of ``keys`` (``rows`` /
    ``lengths``: their :func:`~repro.mapreduce.shuffle.int_key_rows`): in
    array passes for :func:`~repro.mapreduce.shuffle.default_partition` —
    the hash of the canonical bytes — else one ``partitioner(key,
    num_partitions)`` call per key."""
    if partitioner is default_partition:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        return (_crc32_rows(rows, lengths) % np.uint32(num_partitions)).astype(np.int64)
    return np.fromiter(
        map(partitioner, keys.tolist(), repeat(num_partitions)), dtype=np.int64, count=len(keys)
    )


def key_partitions(partitioner, keys: list, kbs: list[bytes], num_partitions: int) -> list[int]:
    """The partition of each key of ``keys`` (``kbs``: their canonical
    bytes), one call per key: over the bytes for
    :func:`~repro.mapreduce.shuffle.default_partition` — a writer that has
    encoded a key already reuses its bytes — else over the key."""
    if partitioner is default_partition:
        return list(map(_hash_bytes, kbs, repeat(num_partitions)))
    return list(map(partitioner, keys, repeat(num_partitions)))
