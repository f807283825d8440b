"""Partitioned shuffle spill: map-side sorted chunk writes, reduce-side
streamed merge.

Each map task (or chain reducer) writes its output for reduce partition
``p`` to run files ``<root>/<job>.m<task>.p<p>.r<run>.<ext>``.  Within a
file, key groups are *sorted by canonical key bytes* (the map-side sort of
real MapReduce) and each group's values keep their emission order, so each
reduce task can k-way-merge its partition's files through a bounded buffer
instead of materializing the whole partition in RAM.  Merge streams are
ordered task-major then run-order and ties prefer the earlier stream, which
makes the merged stream exactly the stable sort of the old concatenation
order: grouping, and therefore job output, stays byte-identical.

Run-file grammar (AGLS version 3) — one format, whatever the codec::

    file   := "AGLS" version=3 codec-id  chunk*
    chunk  := frame(key = key table, payload = value block)     (CRC-trailed,
              :func:`repro.proto.framing.write_frame`)
    key table := <u4 groups | <u4 key lengths | <u4 value counts | key bytes

A *chunk* is a slice of the run's sorted groups: the key table lists each
group's canonical key bytes (:func:`repro.mapreduce.shuffle.key_bytes` —
simultaneously the merge sort key and, via ``decode_key``, the key
serialization) and how many of the chunk's values belong to it; the payload
holds those values, in (sorted key, emission) order, as **one block**.  The
codec (the ``codec`` knob) only chooses the block function:

* ``"binary"`` — :func:`repro.proto.framing.encode_block`: the chunk's values
  column-wise (a kind column to re-interleave mixed record shapes, stacked
  matrices for same-shape arrays, one column per declared record field, a
  per-value fallback column for anything else).  No Python-level encode call
  per record — the serialization tax AGL's C++ GraphFlat avoids with flat
  protobuf records (§3.2).  GraphFlat/GraphInfer default to this codec.
* ``"pickle"`` — ``pickle.dumps`` of the chunk's value list; works for
  arbitrary jobs.

Chunks are cut at about :data:`_CHUNK_BYTES`; a group larger than that (a
hub) is split over several single-group chunks, which the reader re-joins.
So the reduce side holds, per run file, one chunk (its frame bytes and the
values decoded from them) and one :data:`_IO_BUFFER_BYTES` file buffer, plus
the one group being assembled — never a partition, and never a whole hub
group per file.

Two write entry points share one writer:

* :class:`SpillRunWriter` — the external sort: ``add`` takes a
  :class:`~repro.mapreduce.shuffle.RecordBatch` (``append`` is its one-row
  form), buffers the emitted *objects* and, every time the run bounds fill,
  flushes all of them as key-sorted run files per partition.  Nothing is
  encoded, sized, hashed or partitioned per record: flush points come from
  the batch's per-row sizes, and keys are canonically encoded (ints in one
  vectorised pass) and partitioned once per distinct key per run.  Peak
  writer memory is one run, not one task's whole output.  With an
  associative :class:`~repro.mapreduce.job.Combiner`, each key's buffered
  values are folded *before* they hit disk.
* :meth:`SpillLayout.write_map_output` — the same writer with unbounded
  runs: one run (run 0) per partition from a materialized bucket list (what
  a map task folded with a classic, possibly re-keying, combiner).

Writes are atomic (temp file + ``os.replace``) so a task attempt that dies
mid-write can never leave a partial file for its re-execution to read, and
re-executions — being deterministic — simply overwrite.  ``cleanup`` also
glob-removes orphaned ``.tmp*`` files from attempts that died mid-write.
"""

from __future__ import annotations

import heapq
import io
import os
import pickle
import sys
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from repro.mapreduce.fault import take_read_fault
from repro.mapreduce.partition import bytes_partitioner
from repro.mapreduce.shuffle import (
    RecordBatch,
    decode_key,
    factorize_keys,
    keys_bytes,
    pair_batches,
    record_sizes,
)
from repro.proto.framing import (
    FrameCorruptionError,
    decode_block,
    encode_block,
    iter_frames,
    read_stream_header,
    write_frame,
    write_stream_header,
)

__all__ = [
    "DEFAULT_RUN_BYTES",
    "DEFAULT_RUN_RECORDS",
    "MERGE_BATCH_BYTES",
    "SPILL_CODECS",
    "SpillLayout",
    "SpillRunWriter",
    "SpillWriteResult",
]

SPILL_CODECS = ("pickle", "binary")

_CODEC_IDS = {"pickle": 0, "binary": 1}
_CODEC_EXTS = {"pickle": "pkl", "binary": "bin"}

_CHUNK_BYTES = 1 << 14
"""Target size of one chunk frame — the explicit bound on how much of a run
file is resident during a streamed reduce (the frame's bytes plus the values
decoded from it), and the amount over which a block's fixed cost is spread."""

MERGE_BATCH_BYTES = 1 << 20
"""The reduce side's counterpart: how much input a batching reducer (one
that takes its partition's whole group stream, e.g. the propagation
engine's ``MessagePassingReducer``) buffers before it merges the batch and
emits — enough groups to amortize one array kernel call over, never a
partition.  Counted in bytes, not groups: a batch of fat hub neighborhoods
and a batch of single-node seeds then cost about the same memory."""

DEFAULT_RUN_RECORDS = 1 << 16
"""Run bound by record count — caps the number of buffered objects."""

DEFAULT_RUN_BYTES = 32 << 20
"""Run bound by bytes: the buffered values' sizes as
:func:`~repro.proto.framing.approx_nbytes` sees them (arrays and wire blocks
exactly, scalars at a flat rate) plus a per-group allowance — an estimate of
the run's size on disk that needs no encoding."""

_GROUP_BYTES = 16
"""Per-group allowance in the byte budget: key bytes plus key-table entry."""

_STREAM_HEADER_BYTES = 6  # AGLS magic + version + codec id

_IO_BUFFER_BYTES = 1 << 16
"""File buffer of an open run, reading or writing: several chunk frames per
system call instead of several system calls per chunk frame (the default
8 KiB buffer is smaller than a chunk, so every frame would go to the kernel
in pieces).  Resident once per run file being merged and once in the writer."""


def _encode_key_table(keys: list[bytes], counts: list[int]) -> bytes:
    """The key field of a chunk frame (module docstring)."""
    words = np.fromiter(
        chain((len(keys),), map(len, keys), counts), dtype="<u4", count=1 + 2 * len(keys)
    )
    return words.tobytes() + b"".join(keys)


def _decode_key_table(table: bytes) -> tuple[list[bytes], list[int]]:
    groups = int.from_bytes(table[:4], "little")
    offset = 4 + 8 * groups
    if len(table) < max(4, offset):
        raise FrameCorruptionError("truncated chunk key table")
    words = np.frombuffer(table, dtype="<u4", count=2 * groups, offset=4).tolist()
    keys = []
    for length in words[:groups]:
        keys.append(table[offset : offset + length])
        offset += length
    if offset != len(table):
        raise FrameCorruptionError("chunk key table disagrees with its key lengths")
    return keys, words[groups:]


def _iter_chunks(groups: list[tuple[bytes, list, int]]):
    """Cut a run's sorted ``(key bytes, values, nbytes)`` groups into chunks
    of about :data:`_CHUNK_BYTES`: ``(keys, counts, values)`` per chunk.  A
    group bigger than a chunk goes out alone, in near-equal pieces."""
    keys: list[bytes] = []
    counts: list[int] = []
    chunk: list = []
    size = 0
    for kb, values, nbytes in groups:
        if size and size + nbytes > _CHUNK_BYTES:
            yield keys, counts, chunk
            keys, counts, chunk, size = [], [], [], 0
        if nbytes > _CHUNK_BYTES and len(values) > 1:
            pieces = min(len(values), -(-nbytes // _CHUNK_BYTES))
            step = -(-len(values) // pieces)
            for start in range(0, len(values), step):
                piece = values[start : start + step]
                yield [kb], [len(piece)], piece
            continue
        keys.append(kb)
        counts.append(len(values))
        chunk.extend(values)
        size += nbytes + _GROUP_BYTES
    if keys:
        yield keys, counts, chunk


def _damage(data: bytes, kind: str) -> bytes:
    """In-memory injury of one spill file's bytes for the read faults.

    ``truncate-run`` chops the tail mid-CRC (the trailer is the last four
    bytes of every frame, so any short chop is guaranteed detectable);
    ``corrupt-run`` flips a byte in the middle of the chunk region, which
    the per-frame CRC32 — covering key table and value block — catches.
    The header is left intact: the point is a *frame* integrity failure,
    not a codec mismatch."""
    if kind == "truncate-run" and len(data) > _STREAM_HEADER_BYTES + 3:
        return data[:-3]
    injured = bytearray(data)
    body = len(injured) - _STREAM_HEADER_BYTES
    if body > 0:
        injured[_STREAM_HEADER_BYTES + body // 2] ^= 0xFF
    return bytes(injured)


@dataclass(frozen=True)
class SpillWriteResult:
    """What a map task (or chain reducer) reports back to the parent after
    spilling: per-partition record counts, total bytes on disk, and the
    largest single flush (the writer's actual buffering high-water mark)."""

    counts: list[int]
    bytes_written: int
    peak_buffer_bytes: int
    partition_bytes: tuple[int, ...]
    """Per-partition file bytes (parallel to ``counts``), feeding the
    runtime's shuffle-skew accounting."""


@dataclass(frozen=True)
class SpillLayout:
    """Where one job's shuffle files live, and how records are encoded.
    Picklable: it crosses the process boundary inside every map/reduce task
    of a spilling job."""

    root: str
    job_name: str
    num_partitions: int
    codec: str = "pickle"
    partition_tag: str = ""
    """Spill-tag of the partition function that routed records into this
    layout (``Partitioner.spill_tag()``) — embedded in run-file names so a
    spill directory self-describes how its partitions were assigned, and so
    runs of the same job under different partitioners can never be merged
    together.  ``""`` keeps the historical tag-less naming."""
    partition_subdirs: bool = False
    """Route each partition's runs into a ``p00007/`` peer directory under
    ``root`` (the shared-dir shuffle transport: writers push straight to
    the owning reducer's location on a DFS mount).  File *names* are
    unchanged — only the directory differs — so the merge order, and
    therefore the reduced output, is byte-identical to the flat layout."""

    def __post_init__(self):
        if self.codec not in SPILL_CODECS:
            raise ValueError(
                f"unknown spill codec {self.codec!r}; known: {SPILL_CODECS}"
            )
        if self.partition_tag and not self.partition_tag.isalnum():
            raise ValueError(
                f"partition tag {self.partition_tag!r} must be alphanumeric "
                "(it is embedded in spill file names)"
            )

    @property
    def _file_prefix(self) -> str:
        if self.partition_tag:
            return f"{self.job_name}.{self.partition_tag}"
        return self.job_name

    def run_path(self, map_task: int, partition: int, run: int) -> Path:
        """Path of one sorted run.  Runs are numbered contiguously from 0
        per ``(map_task, partition)``; the reader scans until the first
        missing index."""
        ext = _CODEC_EXTS[self.codec]
        name = f"{self._file_prefix}.m{map_task:05d}.p{partition:05d}.r{run:05d}.{ext}"
        if self.partition_subdirs:
            return Path(self.root) / f"p{partition:05d}" / name
        return Path(self.root) / name

    # -------------------------------------------------------------- block codec
    def _encode_block(self, values: list) -> bytes:
        """One chunk's values as a frame payload — the only thing the codec
        decides."""
        if self.codec == "binary":
            return encode_block(values)
        return pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL)

    def _decode_block(self, block: bytes) -> list:
        if self.codec == "binary":
            return decode_block(block)
        return pickle.loads(block)

    # ------------------------------------------------------------- map side
    def run_writer(
        self,
        map_task: int,
        combiner=None,
        run_records: int = DEFAULT_RUN_RECORDS,
        run_bytes: int = DEFAULT_RUN_BYTES,
    ) -> "SpillRunWriter":
        """Streaming bounded-memory writer for one task's partitioned
        output — see :class:`SpillRunWriter`."""
        return SpillRunWriter(
            self, map_task, combiner=combiner, run_records=run_records, run_bytes=run_bytes
        )

    def write_map_output(self, map_task: int, buckets: list[list[tuple]]) -> SpillWriteResult:
        """Spill one map task's partitioned output eagerly (one run per
        partition); returns per-partition record counts and bytes written
        (the only things shipped back to the parent)."""
        writer = self.run_writer(map_task, run_records=sys.maxsize, run_bytes=sys.maxsize)
        for partition, bucket in enumerate(buckets):
            for batch in pair_batches(bucket):
                writer.place(batch, partition)
        return writer.finish()

    # ---------------------------------------------------------- reduce side
    def _iter_task_runs(self, map_task: int, partition: int):
        """Run files one task wrote for one partition, in run order."""
        run = 0
        while True:
            path = self.run_path(map_task, partition, run)
            if not path.exists():
                return
            yield path
            run += 1

    def _iter_file(self, path: Path):
        """Yield ``(key_bytes, values)`` group pieces from one run file, one
        chunk resident at a time.

        An armed read fault (the ``corrupt-run``/``truncate-run`` kinds of
        :class:`~repro.mapreduce.fault.FaultPlan`) damages this attempt's
        *view* of the first file it opens — never the bytes on disk — so
        the frame CRC machinery fails the attempt loudly and its retry,
        reading the intact file, reproduces byte-identical output."""
        fault = take_read_fault()
        with open(path, "rb", buffering=_IO_BUFFER_BYTES) as fh:
            if fault is not None:
                fh = io.BytesIO(_damage(fh.read(), fault))
            codec_id = read_stream_header(fh)
            if codec_id != _CODEC_IDS[self.codec]:
                raise ValueError(
                    f"spill file {path} written with codec id {codec_id}, "
                    f"layout expects {self.codec!r}"
                )
            for table, block in iter_frames(fh):
                keys, counts = _decode_key_table(table)
                values = self._decode_block(block)
                if sum(counts) != len(values):
                    raise FrameCorruptionError(
                        f"chunk key table counts {sum(counts)} values, "
                        f"its block holds {len(values)}"
                    )
                values = iter(values)
                for kb, count in zip(keys, counts):
                    yield kb, list(islice(values, count))

    def _iter_merged(self, partition: int, num_map_tasks: int):
        """K-way merge of one partition's run files: globally key-sorted
        ``(key_bytes, values)`` stream of group pieces, holding one chunk
        per file in memory.  Streams are ordered task-major then run-order and
        ``heapq.merge`` is stable, so same-key values concatenate in their
        original emission order — exactly the order a single eager sorted
        write per task would have produced."""
        streams = []
        for map_task in range(num_map_tasks):
            for path in self._iter_task_runs(map_task, partition):
                streams.append(self._iter_file(path))
        if not streams:
            return
        if len(streams) == 1:
            yield from streams[0]
            return
        yield from heapq.merge(*streams, key=itemgetter(0))

    def iter_partition(self, partition: int, num_map_tasks: int):
        """Streamed ``(key, value)`` pairs of one partition, key-sorted."""
        for key, values in self.iter_groups(partition, num_map_tasks):
            for value in values:
                yield key, value

    def iter_groups(self, partition: int, num_map_tasks: int):
        """Streamed reduce groups ``(key, values)`` — the external-merge
        replacement for ``group_sorted(read_partition(...))``: peak memory
        is one group (plus one chunk per spill file), not the whole
        partition."""
        current_kb: bytes | None = None
        current_key = None
        acc: list = []
        for kb, values in self._iter_merged(partition, num_map_tasks):
            if kb != current_kb:
                if current_kb is not None:
                    yield current_key, acc
                current_kb, current_key, acc = kb, decode_key(kb), values
            else:
                acc.extend(values)
        if current_kb is not None:
            yield current_key, acc

    # ------------------------------------------------------------- cleanup
    def cleanup(self, num_map_tasks: int | None = None) -> None:
        """Delete the job's spill files — every run of every task, plus
        ``.tmp*`` partials left by task attempts that died mid-write — once
        the reduce is done."""
        root = Path(self.root)
        if root.exists():
            pattern = f"{self._file_prefix}.m*"
            if self.partition_subdirs:
                pattern = f"p[0-9]*/{self._file_prefix}.m*"
            for path in root.glob(pattern):
                path.unlink(missing_ok=True)


def route_keys(routes: dict, partitioner, idents: list, firsts: list, num_partitions: int):
    """``(partition, key bytes or None)`` of each distinct key of a batch
    (``idents`` / ``firsts`` as :func:`~repro.mapreduce.shuffle.
    factorize_keys` returns them), through the cache ``routes``: the
    partitioner runs once per key the cache does not hold yet — over the
    key's canonical bytes for the shipped partitioners, else over the key."""
    missing = [code for code, ident in enumerate(idents) if ident not in routes]
    if missing:
        keys = [firsts[code] for code in missing]
        of_bytes = bytes_partitioner(partitioner)
        if of_bytes is None:
            found = [(partitioner(key, num_partitions), None) for key in keys]
        else:
            found = [(of_bytes(kb, num_partitions), kb) for kb in keys_bytes(keys)]
        for code, route in zip(missing, found):
            routes[idents[code]] = route
    return [routes[ident] for ident in idents]


class SpillRunWriter:
    """External sort on the write side: streamed batches, bounded sorted runs.

    Values are buffered *as objects*, a :class:`~repro.mapreduce.shuffle.
    RecordBatch` at a time — a reducer must not mutate what it has emitted,
    exactly as under the in-memory shuffle, which holds the same references.
    Once the buffered volume crosses ``run_records`` or ``run_bytes`` (the
    batches' per-row sizes, which equal
    :func:`~repro.proto.framing.approx_nbytes`, plus :data:`_GROUP_BYTES` at
    each key's first row in the run), every non-empty partition is flushed
    as one key-sorted run file of chunk frames.  Flush points are found with
    one cumulative sum over a window of rows, and are exactly those a
    row-at-a-time writer finds for the same rows — a deterministic function
    of the row sequence, however it was cut into batches — so a re-executed
    task attempt rewrites byte-identical runs over any partials a crashed
    attempt left behind (each run write is itself atomic: temp file +
    ``os.replace``).

    Rows group under :func:`~repro.mapreduce.shuffle.key_ident`, so grouping
    is exactly grouping by canonical key bytes (``True`` apart from ``1``);
    :meth:`add` encodes keys (:func:`~repro.mapreduce.shuffle.keys_bytes`)
    and calls the partitioner once per distinct key per run, reusing the
    bytes for the shipped partitioners
    (:func:`~repro.mapreduce.partition.bytes_partitioner`).

    ``combiner`` (a :class:`~repro.mapreduce.job.Combiner`) folds each key's
    buffered values with ``combine()`` at flush time — before they reach
    disk.

    Reported ``counts`` are post-combine; ``peak_buffer_bytes`` is the
    largest single flush in file bytes — the writer's actual buffering
    high-water mark, which stays flat as task output grows.
    """

    def __init__(
        self,
        layout: SpillLayout,
        map_task: int,
        combiner=None,
        run_records: int = DEFAULT_RUN_RECORDS,
        run_bytes: int = DEFAULT_RUN_BYTES,
    ):
        if run_records < 1:
            raise ValueError("run_records must be >= 1")
        if run_bytes < 1:
            raise ValueError("run_bytes must be >= 1")
        self._layout = layout
        self._map_task = map_task
        self._combiner = combiner
        self._run_records = run_records
        self._run_bytes = run_bytes
        num = layout.num_partitions
        # The run being buffered: its groups (partition -> key ident -> group
        # index, and per group its first key, canonical bytes — ``None``
        # until flush for keys placed without a partitioner — and partition)
        # and its rows (per absorbed slice of a batch: each row's group and
        # size; the values themselves, in arrival order).
        self._groups: list[dict[object, int]] = [{} for _ in range(num)]
        self._group_keys: list = []
        self._group_kbs: list = []
        self._group_parts: list[int] = []
        self._row_groups: list[np.ndarray] = []
        self._row_sizes: list[np.ndarray] = []
        self._values: list = []
        self._routes: dict[object, tuple[int, bytes | None]] = {}
        self._pending_records = 0
        self._pending_bytes = 0
        self._next_run = [0] * num
        self._counts = [0] * num
        self._partition_bytes = [0] * num
        self._bytes_written = 0
        self._peak_flush = 0
        self._made_root = False

    def add(self, batch: RecordBatch, partitioner) -> None:
        """Buffer every row of ``batch`` under the partition
        ``partitioner(key, num_partitions)`` assigns its key."""
        if not len(batch):
            return
        codes, idents, firsts = factorize_keys(batch.keys)
        routes = route_keys(self._routes, partitioner, idents, firsts, self._layout.num_partitions)
        self._absorb(batch, codes, idents, firsts, routes)

    def place(self, batch: RecordBatch, partition: int) -> None:
        """Buffer every row of ``batch`` for reduce partition ``partition``."""
        if len(batch):
            codes, idents, firsts = factorize_keys(batch.keys)
            self._absorb(batch, codes, idents, firsts, [(partition, None)] * len(idents))

    def append(self, partition: int, key, value) -> None:
        """Buffer ``value`` under ``key`` for reduce partition ``partition``
        — the one-row entry."""
        for batch in pair_batches(((key, value),)):
            self.place(batch, partition)

    def _absorb(self, batch: RecordBatch, codes, idents, firsts, routes) -> None:
        """Take ``batch``'s rows into the run, flushing wherever the run
        bounds fill: a window of rows at a time, the first row at which the
        cumulative records or bytes reach a bound closes the run."""
        sizes, values = batch.nbytes, batch.values
        groups = self._groups
        # the run's group of each distinct key of the batch; -1 = none yet
        group = np.fromiter(
            (groups[p].get(ident, -1) for ident, (p, _) in zip(idents, routes)),
            dtype=np.int64,
            count=len(idents),
        )
        start, window, total = 0, 64, len(batch)
        while start < total:
            stop = min(total, start + window, start + self._run_records - self._pending_records)
            span = codes[start:stop]
            opens = np.zeros(len(span), dtype=bool)  # a key's first row in the run
            opens[np.unique(span, return_index=True)[1]] = True
            opens &= group[span] < 0
            held = self._pending_bytes + np.cumsum(sizes[start:stop] + _GROUP_BYTES * opens)
            over = np.flatnonzero(held >= self._run_bytes)
            if len(over):
                stop = start + int(over[0]) + 1
            span = codes[start:stop]
            for code in np.unique(span[group[span] < 0]).tolist():
                partition, kb = routes[code]
                group[code] = groups[partition][idents[code]] = len(self._group_keys)
                self._group_keys.append(firsts[code])
                self._group_kbs.append(kb)
                self._group_parts.append(partition)
            self._row_groups.append(group[span])
            self._row_sizes.append(sizes[start:stop])
            self._values.extend(values[start:stop])
            self._pending_records += stop - start
            self._pending_bytes = int(held[stop - start - 1])
            if (
                self._pending_records >= self._run_records
                or self._pending_bytes >= self._run_bytes
            ):
                self._flush()
                group[:] = -1
                window = 64
            else:
                window *= 2
            start = stop

    def _run_groups(self) -> list[list[tuple[bytes, list, int]]]:
        """The run's groups per partition as ``(key bytes, values, nbytes)``
        — combined, in canonical key order, values in arrival order."""
        keys, kbs, parts = self._group_keys, self._group_kbs, self._group_parts
        unencoded = [g for g, kb in enumerate(kbs) if kb is None]
        for g, kb in zip(unencoded, keys_bytes([keys[g] for g in unencoded])):
            kbs[g] = kb
        order = sorted(range(len(kbs)), key=lambda g: (parts[g], kbs[g]))
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        rows = rank[np.concatenate(self._row_groups)]
        arrival = np.argsort(rows, kind="stable")
        bounds = np.searchsorted(rows[arrival], np.arange(len(order) + 1))
        nbytes = np.add.reduceat(np.concatenate(self._row_sizes)[arrival], bounds[:-1])
        values = self._values
        values = [values[i] for i in arrival.tolist()]
        out: list[list] = [[] for _ in range(self._layout.num_partitions)]
        for g, a, b, size in zip(order, bounds[:-1].tolist(), bounds[1:].tolist(), nbytes.tolist()):
            group = values[a:b]
            if self._combiner is not None and len(group) > 1:
                group = list(self._combiner.combine(keys[g], group))
                size = int(record_sizes(group).sum())
            out[parts[g]].append((kbs[g], group, size))
        return out

    def _flush(self) -> None:
        if self._pending_records == 0:
            return
        layout = self._layout
        if not self._made_root:
            Path(layout.root).mkdir(parents=True, exist_ok=True)
            self._made_root = True
        run = self._run_groups()
        for groups in self._groups:
            groups.clear()
        self._group_keys, self._group_kbs, self._group_parts = [], [], []
        self._row_groups, self._row_sizes, self._values = [], [], []
        flushed = 0
        for partition, groups in enumerate(run):
            if not groups:
                continue
            final = layout.run_path(self._map_task, partition, self._next_run[partition])
            if layout.partition_subdirs:
                final.parent.mkdir(exist_ok=True)
            tmp = final.with_suffix(f".tmp{os.getpid()}")
            with open(tmp, "wb", buffering=_IO_BUFFER_BYTES) as fh:
                written = write_stream_header(fh, _CODEC_IDS[layout.codec])
                for keys, counts, values in _iter_chunks(groups):
                    self._counts[partition] += len(values)
                    written += write_frame(
                        fh, _encode_key_table(keys, counts), layout._encode_block(values)
                    )
            os.replace(tmp, final)
            self._next_run[partition] += 1
            self._partition_bytes[partition] += written
            flushed += written
        self._routes.clear()
        self._bytes_written += flushed
        if flushed > self._peak_flush:
            self._peak_flush = flushed
        self._pending_records = 0
        self._pending_bytes = 0

    def finish(self) -> SpillWriteResult:
        """Flush the final runs and report counts/bytes to the parent."""
        self._flush()
        return SpillWriteResult(
            list(self._counts),
            self._bytes_written,
            self._peak_flush,
            tuple(self._partition_bytes),
        )
