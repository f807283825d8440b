"""Pluggable shuffle partitioners: the hash default and a degree-aware plan.

Every shuffle placement decision in the runtime used to be a blind
``crc32(key) % n``.  That is the right *default* — stateless, deterministic,
free — but on power-law graphs it is exactly what piles a handful of hub
keys (or a run of mid-degree keys that happen to collide) onto one reducer
while the rest idle.  GLISP's observation (PAPERS.md) is that the degree
skew is *known before the shuffle runs*: GraphFlat already counts every
node's in-degree in a MapReduce round, so the partition function can be
planned instead of guessed.

This module makes the partition function a first-class object:

* :class:`Partitioner` — the protocol: a picklable, deterministic pure
  function ``(key, num_partitions) -> partition``.  Determinism is the
  fault-tolerance contract: a re-executed or speculated task attempt must
  place every record exactly where the failed attempt did, so a partitioner
  may depend on nothing but its own (immutable) state and the key bytes.
* :class:`HashPartitioner` — byte-identical to the historical default
  (``crc32`` of the canonical key encoding, modulo ``n``).
* :func:`plan_partitions` — the planner: given ``(key, weight)`` pairs
  (weights are expected shuffle records, i.e. degrees), split keys into a
  *heavy* head and a *light* tail, seed each partition with the tail's
  hash-placed load, then greedily bin-pack the heavy keys largest-first
  onto the least-loaded partition (longest-processing-time scheduling).
* :class:`PlannedPartitioner` — applies a :class:`PartitionPlan`'s compact
  assignment table with a hash fallback for every key outside the plan (the
  light tail, keys of other rounds, and any ``num_partitions`` mismatch).
  The table is a *side input* (:func:`publish`): it travels to worker
  processes either inline (serial/threads) or as a shared-memory
  :class:`SlabLocator` (processes backend) — published once per run,
  attached and decoded once per worker process, zero table bytes pickled
  per task attempt.

Value-order note: changing the partitioner of an intermediate round
re-shards that round's reducers, which permutes the *task-major arrival
order* of values inside the next round's reduce groups.  Grouping itself is
untouched (a partitioner is a pure function of the key), but a reducer that
depends on value arrival order will see a permutation.  The AGL reducers are
arrival-order-insensitive by construction — the sampling strategies
canonicalize every neighbor list by source id — which is what makes pipeline
output byte-identical across partitioners (tested).
"""

from __future__ import annotations

import threading
import zlib
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from repro.mapreduce.shuffle import decode_key, default_partition, key_bytes
from repro.proto.varint import decode_unsigned, encode_unsigned
from repro.utils.shm import Slab, attach_shared_memory

__all__ = [
    "PARTITIONERS",
    "HashPartitioner",
    "Inline",
    "PartitionPlan",
    "Partitioner",
    "PlannedPartitioner",
    "SlabLocator",
    "bytes_partitioner",
    "int_key_partitions",
    "key_partitions",
    "plan_partitions",
    "publish",
    "publish_plan",
    "spill_tag",
]

PARTITIONERS = ("hash", "planned")
"""CLI / config names of the shipped partitioner families."""

DEFAULT_PLAN_ENTRIES = 4096
"""Cap on assignment-table entries: the plan stays a compact broadcast (a
few dozen KiB) no matter how large the graph is; keys beyond the cap fall
into the hash tail."""

DEFAULT_HEAVY_FRACTION = 0.05
"""A key is *heavy* — worth an explicit table entry — when its weight
exceeds this fraction of the mean partition load.  Below that, hash
placement is already unbiased enough and table bytes are wasted."""


class Partitioner:
    """Protocol for pluggable shuffle partition functions.

    Implementations must be picklable (they ship inside every map/reduce
    task under the ``processes`` backend), deterministic across processes,
    runs, and re-executed/speculated task attempts, and total over the
    supported key domain (int / str / bytes / nested tuples — see
    :func:`repro.mapreduce.shuffle.key_bytes`).
    """

    def __call__(self, key, num_partitions: int) -> int:
        raise NotImplementedError

    def spill_tag(self) -> str:
        """Short stable token embedded in spill run-file names so a run
        directory self-describes which partition function produced it.  The
        hash default returns ``""`` (the historical, tag-less naming)."""
        return ""


@dataclass(frozen=True)
class HashPartitioner(Partitioner):
    """The stateless default: ``crc32(key_bytes(key)) % num_partitions``.

    Byte-identical to :func:`repro.mapreduce.shuffle.default_partition` —
    swapping one for the other changes nothing about any job's output or
    spill files (tested)."""

    def __call__(self, key, num_partitions: int) -> int:
        return default_partition(key, num_partitions)


@dataclass(frozen=True)
class PartitionPlan:
    """A compact ``canonical key bytes -> partition`` assignment table.

    Only the heavy head of the key distribution gets entries; every other
    key hashes.  ``planned_weight / total_weight`` says how much of the
    expected shuffle volume the table actually governs."""

    num_partitions: int
    assignments: dict[bytes, int]
    planned_weight: float = 0.0
    total_weight: float = 0.0

    def __len__(self) -> int:
        return len(self.assignments)

    def encode(self) -> bytes:
        """Deterministic wire form (entries sorted by key bytes): varint
        partition count, varint entry count, then ``len | key | partition``
        per entry.  Deterministic so the plan's checksum — and therefore the
        spill tag — is a pure function of the assignment."""
        out = bytearray()
        out += encode_unsigned(self.num_partitions)
        out += encode_unsigned(len(self.assignments))
        for kb in sorted(self.assignments):
            out += encode_unsigned(len(kb))
            out += kb
            out += encode_unsigned(self.assignments[kb])
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "PartitionPlan":
        buf = memoryview(data)
        num_partitions, offset = decode_unsigned(buf, 0)
        count, offset = decode_unsigned(buf, offset)
        assignments: dict[bytes, int] = {}
        for _ in range(count):
            klen, offset = decode_unsigned(buf, offset)
            kb = bytes(buf[offset : offset + klen])
            offset += klen
            partition, offset = decode_unsigned(buf, offset)
            if partition >= num_partitions:
                raise ValueError(
                    f"corrupt partition plan: partition {partition} >= "
                    f"{num_partitions}"
                )
            assignments[kb] = partition
        if offset != len(data):
            raise ValueError(
                f"corrupt partition plan: {len(data) - offset} trailing bytes"
            )
        return cls(num_partitions, assignments)

    def checksum(self) -> int:
        return zlib.crc32(self.encode())

    @cached_property
    def int_assignments(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, partitions)``: the entries of plain int keys, keys
        ascending — what :func:`int_key_partitions` looks a key array up
        in."""
        entries = sorted(
            (decode_key(kb), partition)
            for kb, partition in self.assignments.items()
            if kb[:1] == b"i"
        )
        keys = np.fromiter((key for key, _ in entries), dtype=np.int64, count=len(entries))
        parts = np.fromiter((part for _, part in entries), dtype=np.int64, count=len(entries))
        return keys, parts


def plan_partitions(
    weighted_keys,
    num_partitions: int,
    *,
    max_entries: int = DEFAULT_PLAN_ENTRIES,
    heavy_fraction: float = DEFAULT_HEAVY_FRACTION,
) -> PartitionPlan:
    """Two-pass degree-aware planner.

    Pass 1 folds ``(key, weight)`` pairs into per-key totals and splits them
    at ``heavy_fraction x (total weight / num_partitions)``: the heavy head
    (capped at ``max_entries``, heaviest first) gets explicit assignments,
    everything else stays on the hash path.  Pass 2 seeds every partition
    with its hash-placed light-tail load, then assigns heavy keys largest
    first to the least-loaded partition — greedy LPT bin-packing, which is
    within 4/3 of optimal makespan and, unlike hashing, can never stack two
    hubs on one reducer while another sits empty.

    Deterministic: ties in weight break on canonical key bytes and ties in
    load break on the lowest partition index, so the same inputs always
    produce the same plan (and the same spill tag) everywhere.
    """
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    if max_entries < 0:
        raise ValueError("max_entries must be >= 0")
    if heavy_fraction <= 0:
        raise ValueError("heavy_fraction must be > 0")

    totals: dict[bytes, float] = {}
    for key, weight in weighted_keys:
        kb = key_bytes(key)
        totals[kb] = totals.get(kb, 0.0) + float(weight)
    total = sum(totals.values())
    if num_partitions == 1 or not totals or total <= 0:
        return PartitionPlan(num_partitions, {}, 0.0, total)

    threshold = heavy_fraction * total / num_partitions
    heavy = [(kb, w) for kb, w in totals.items() if w >= threshold]
    heavy.sort(key=lambda entry: (-entry[1], entry[0]))
    heavy = heavy[:max_entries]
    heavy_set = {kb for kb, _ in heavy}

    # Seed bins with the hash-placed tail (everything without an entry
    # keeps hashing at run time, so its load is known exactly).
    loads = [0.0] * num_partitions
    for kb, w in totals.items():
        if kb not in heavy_set:
            loads[zlib.crc32(kb) % num_partitions] += w

    assignments: dict[bytes, int] = {}
    planned = 0.0
    for kb, w in heavy:
        target = min(range(num_partitions), key=lambda p: (loads[p], p))
        assignments[kb] = target
        loads[target] += w
        planned += w
    return PartitionPlan(num_partitions, assignments, planned, total)


# ------------------------------------------------------------- side inputs
# A side input is an immutable value every task of a run reads — the
# propagation engine's out-edge CSR, the placement plan, GraphInfer's model
# slices.  It rides inline when tasks stay in-process; under a pickling
# backend it is encoded once into a shared-memory slab and tasks carry only
# a locator.  Decoded slab payloads are cached per process: pooled workers
# decode a given side input once, then every task attempt (retries and
# speculative duplicates included) reads the same immutable object.  A pool
# outlives its runs, so the cache is a bounded FIFO: the newest run's values
# stay, older runs' go.

_SIDE_INPUTS: dict[tuple[str, int], object] = {}
_SIDE_INPUTS_MAX = 3
"""One run publishes at most three side inputs (out-edges, placement plan,
model slices), so a run never evicts its own."""
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


@dataclass(frozen=True)
class PlannedPartitioner(Partitioner):
    """Assignment-table partitioner with a hash tail.

    Heavy keys found in the table go to their planned partition; everything
    else — the light tail, keys from rounds the plan was not built for, and
    any call with a different ``num_partitions`` (e.g. a side job of the
    same runtime) — falls back to exactly the hash default, so a planned
    run degrades to hash behavior rather than misplacing records."""

    source: Inline | SlabLocator
    num_partitions: int
    tag: str

    @classmethod
    def from_plan(cls, plan: PartitionPlan) -> "PlannedPartitioner":
        return publish_plan(plan, needs_pickling=False)[1]

    @property
    def plan(self) -> PartitionPlan:
        return self.source.get()

    def __call__(self, key, num_partitions: int) -> int:
        return self.of_bytes(key_bytes(key), num_partitions)

    def of_bytes(self, kb: bytes, num_partitions: int) -> int:
        """The partition of the key whose canonical bytes are ``kb``."""
        if num_partitions == self.num_partitions:
            planned = self.plan.assignments.get(kb)
            if planned is not None:
                return planned
        return _hash_bytes(kb, num_partitions)

    def spill_tag(self) -> str:
        return self.tag


def bytes_partitioner(partitioner) -> Callable[[bytes, int], int] | None:
    """``partitioner`` as a function of canonical key bytes — so a writer
    that has encoded a key already reuses its bytes — for the shipped
    partitioners; ``None`` for any other callable, which is called with the
    key itself."""
    if partitioner is default_partition or type(partitioner) is HashPartitioner:
        return _hash_bytes
    if isinstance(partitioner, PlannedPartitioner):
        return partitioner.of_bytes
    return None


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
    array passes for the shipped partitioners — the hash of the canonical
    bytes, and a planned partitioner's table looked up by key — else one
    ``partitioner(key, num_partitions)`` call per key."""
    planned = isinstance(partitioner, PlannedPartitioner)
    if planned or partitioner is default_partition or type(partitioner) is HashPartitioner:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        parts = (_crc32_rows(rows, lengths) % np.uint32(num_partitions)).astype(np.int64)
        if planned and num_partitions == partitioner.num_partitions:
            planned, planned_parts = partitioner.plan.int_assignments
            if len(planned):
                at = np.minimum(np.searchsorted(planned, keys), len(planned) - 1)
                hit = planned[at] == keys
                parts[hit] = planned_parts[at[hit]]
        return parts
    return np.fromiter(
        map(partitioner, keys.tolist(), repeat(num_partitions)), dtype=np.int64, count=len(keys)
    )


def key_partitions(partitioner, keys: list, kbs: list[bytes], num_partitions: int) -> list[int]:
    """The partition of each key of ``keys`` (``kbs``: their canonical
    bytes), one call per key: over the bytes for the shipped partitioners,
    else over the key."""
    of_bytes = bytes_partitioner(partitioner)
    if of_bytes is None:
        return list(map(partitioner, keys, repeat(num_partitions)))
    return list(map(of_bytes, kbs, repeat(num_partitions)))


def publish_plan(plan: PartitionPlan, needs_pickling: bool):
    """Turn a plan into a runnable partitioner plus its owned slab
    (:func:`publish`).  Returns ``(slab, partitioner)`` — the caller owns
    ``slab`` (may be ``None``) and must ``close()`` it after the run."""
    slab, source = publish(plan, needs_pickling)
    return slab, PlannedPartitioner(
        source, plan.num_partitions, f"plan{plan.checksum():08x}"
    )


def spill_tag(partitioner) -> str:
    """The spill-file naming token of any job partitioner: Partitioner
    instances self-describe; plain callables (including the historical
    :func:`default_partition`) keep the tag-less legacy naming."""
    if isinstance(partitioner, Partitioner):
        return partitioner.spill_tag()
    return ""
