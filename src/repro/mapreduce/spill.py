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
order: grouping, and therefore job output, stays byte-identical.  The merge
advances a chunk at a time (:func:`_merge_chunks`), not a heap step per
group piece.

Run-file grammar (AGLS version 3)::

    file   := "AGLS" version=3 codec-id=1  chunk*
    chunk  := frame(key = key table, payload = value block)     (CRC-trailed,
              :func:`repro.proto.framing.write_frame`)
    key table := <u4 groups | <u4 key lengths | <u4 value counts | key bytes

A *chunk* is a slice of the run's sorted groups: the key table lists each
group's canonical key bytes (:func:`repro.mapreduce.shuffle.key_bytes` —
simultaneously the merge sort key and, via ``decode_key``, the key
serialization) and how many of the chunk's values belong to it; the payload
holds those values, in (sorted key, emission) order, as **one block**:
:func:`repro.proto.framing.encode_columns` of the chunk's values as columns
(a kind column to re-interleave mixed record shapes, stacked matrices for
same-shape arrays, one column per declared record field, a per-value
fallback column for anything else).  No Python-level encode or decode call
per record — the serialization tax AGL's C++ GraphFlat avoids with flat
protobuf records (§3.2).  The header's codec byte is always ``1`` (the
column block); a file with any other byte is corrupt.  A value with no
binary form — an unregistered class, an int beyond 64 bits — fails the
writing task with a ``TypeError`` naming its type: the spill never falls
back to pickle.

Chunks are cut at about :data:`_CHUNK_BYTES`; a group larger than that (a
hub) is split over several single-group chunks, which the reader re-joins.
The reader decodes each chunk once and hands it on as its groups' slices
(:meth:`SpillLayout.iter_column_groups`: a
:class:`~repro.mapreduce.shuffle.Group` of ``(column, start, stop)``
pieces), or as value objects (:meth:`SpillLayout.iter_groups`, the rows of
the same stream).  So the reduce side holds, per run file, about one chunk
(its frame bytes and the columns viewing them) and one
:data:`_IO_BUFFER_BYTES` file buffer, plus the groups a reducer is still
assembling — never a partition, and never a whole hub group per file.

Two write entry points share one writer:

* :class:`SpillRunWriter` — the external sort: ``add`` takes a
  :class:`~repro.mapreduce.shuffle.RecordBatch` (``append`` is its one-row
  form), buffers the batches' values — columns, or the objects of pair
  batches — and, every time the run bounds fill, flushes all of them as
  key-sorted run files per partition: a chunk is the run's rows in (key,
  arrival) order cut into ranges, encoded from one ``take`` of those rows.
  Nothing is encoded, sized, hashed or partitioned per record: flush points
  come from the batch's per-row sizes, and keys are canonically encoded
  (ints in one vectorised pass) and partitioned once per distinct key per
  run.  Peak writer memory is one run, not one task's whole output.  With
  an associative :class:`~repro.mapreduce.job.Combiner`, each key's
  buffered values are folded *before* they hit disk.
* :meth:`SpillLayout.write_map_output` — the same writer with unbounded
  runs: one run (run 0) per partition from a materialized bucket list (what
  a map task folded with a classic, possibly re-keying, combiner).

Writes are atomic (temp file + ``os.replace``) so a task attempt that dies
mid-write can never leave a partial file for its re-execution to read, and
re-executions — being deterministic — simply overwrite.  ``cleanup`` also
glob-removes orphaned ``.tmp*`` files from attempts that died mid-write.
"""

from __future__ import annotations

import io
import os
import sys
from bisect import bisect_left
from dataclasses import InitVar, dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from repro.mapreduce.fault import take_read_fault
from repro.mapreduce.partition import bytes_partitioner
from repro.mapreduce.shuffle import (
    Group,
    RecordBatch,
    decode_key,
    factorize_keys,
    keys_bytes,
    pair_batches,
    record_sizes,
)
from repro.proto.framing import (
    Column,
    FrameCorruptionError,
    columnize,
    concat_columns,
    decode_columns,
    encode_columns,
    iter_frames,
    read_stream_header,
    write_frame,
    write_stream_header,
)

__all__ = [
    "DEFAULT_RUN_BYTES",
    "DEFAULT_RUN_RECORDS",
    "MERGE_BATCH_BYTES",
    "SpillLayout",
    "SpillRunWriter",
    "SpillWriteResult",
]

_CODEC_ID = 1
"""The header's codec byte: the column block (the only block encoding)."""

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


def _iter_chunks(groups: list[tuple[bytes, int, int, int]]):
    """Cut a run's sorted groups — ``(key bytes, start, stop, nbytes)``,
    each the rows ``start:stop`` of the run in (key, arrival) order — into
    chunks of about :data:`_CHUNK_BYTES`: ``(keys, counts, start, stop)``
    per chunk.  A group bigger than a chunk goes out alone, in near-equal
    pieces."""
    keys: list[bytes] = []
    counts: list[int] = []
    first = end = size = 0
    for kb, start, stop, nbytes in groups:
        if size and size + nbytes > _CHUNK_BYTES:
            yield keys, counts, first, end
            keys, counts, size = [], [], 0
        count = stop - start
        if nbytes > _CHUNK_BYTES and count > 1:
            pieces = min(count, -(-nbytes // _CHUNK_BYTES))
            step = -(-count // pieces)
            for at in range(start, stop, step):
                yield [kb], [min(step, stop - at)], at, min(at + step, stop)
            continue
        if not keys:
            first = start
        keys.append(kb)
        counts.append(count)
        end = stop
        size += nbytes + _GROUP_BYTES
    if keys:
        yield keys, counts, first, end


class _RunValues:
    """A run's buffered values, in arrival order, from the slices ``(values,
    start, stop)`` of the batches the run absorbed: one list of the value
    objects when every batch holds objects (pair batches), else one column
    joined from the batches' columns."""

    def __init__(self, slices: list[tuple[object, int, int]]):
        self._objects = all(type(values) is list for values, _, _ in slices)
        if self._objects:
            self._flat = [v for values, start, stop in slices for v in values[start:stop]]
        else:
            self._column = concat_columns([
                _as_column(values).take(np.arange(start, stop))
                if start or stop < len(values) else _as_column(values)
                for values, start, stop in slices
            ])

    def fetch(self, rows: np.ndarray):
        """The values at the run positions ``rows``."""
        if self._objects:
            flat = self._flat
            return [flat[i] for i in rows.tolist()]
        return self._column.take(rows)


def _as_column(values) -> Column:
    return values if isinstance(values, Column) else columnize(values)


def _merge_chunks(streams: list):
    """Merge streams of chunks — lists of ``(key_bytes, stream number,
    piece)`` sorted by key bytes, a stream's chunks in order — into one
    stream of pieces ordered by ``(key_bytes, stream number)``, stably.

    A chunk at a time instead of a heap step per piece: every piece below
    the smallest last key of the chunks loaded (the *bound*) is final — no
    stream can still produce one below it — so those pieces are sorted and
    yielded together, and the streams whose chunks ran down to the bound
    load their next chunk.  A key equal to the bound waits until the bound
    passes it, so a key split over several chunks of a stream (a hub)
    keeps its stream order."""
    loaded = []  # [chunks, pieces left] of the streams with chunks to load
    finished: list[list] = []  # pieces left of the streams without
    for chunks in streams:
        pieces = next(chunks, None)
        if pieces:
            loaded.append([chunks, pieces])
    while loaded or finished:
        bound = min(pieces[-1][0] for _, pieces in loaded) if loaded else None
        ready = []
        for entry in loaded:
            cut = _below(entry[1], bound)
            ready.extend(entry[1][:cut])
            entry[1] = entry[1][cut:]
        left = []
        for pieces in finished:
            cut = _below(pieces, bound)
            ready.extend(pieces[:cut])
            if cut < len(pieces):
                left.append(pieces[cut:])
        finished = left
        ready.sort(key=_MERGE_ORDER)
        yield from ready
        refilled = []
        for chunks, pieces in loaded:
            while not pieces or pieces[-1][0] == bound:  # ran down to the bound
                more = next(chunks, None)
                if more is None:
                    break
                pieces = pieces + more
            if pieces and pieces[-1][0] != bound:
                refilled.append([chunks, pieces])
            elif pieces:
                finished.append(pieces)
        loaded = refilled


def _below(pieces: list, bound) -> int:
    """How many of the key-sorted ``pieces`` have key bytes below ``bound``
    (all of them for no bound)."""
    return len(pieces) if bound is None else bisect_left(pieces, bound, key=_KEY_BYTES)


_KEY_BYTES = itemgetter(0)
_MERGE_ORDER = itemgetter(0, 1)


def _damage(data: bytes, kind: str) -> bytes:
    """In-memory injury of one spill file's bytes for the read faults.

    ``truncate-run`` chops the tail mid-CRC (the trailer is the last four
    bytes of every frame, so any short chop is guaranteed detectable);
    ``corrupt-run`` flips a byte in the middle of the chunk region, which
    the per-frame CRC32 — covering key table and value block — catches.
    The header is left intact: the point is a *frame* integrity failure."""
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
    """Where one job's shuffle files live.  Picklable: it crosses the
    process boundary inside every map/reduce task of a spilling job."""

    root: str
    job_name: str
    num_partitions: int
    codec: InitVar[str] = "binary"
    """Checked, not stored: only ``"binary"`` is accepted (the run-file
    block is the one encoding).  It stays a keyword because the repo
    benchmark's spill probe (``bench/probes.py``) passes it; ROADMAP
    14(d) removes it once the probe drops it."""
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

    def __post_init__(self, codec: str):
        if codec != "binary":
            raise ValueError(f"spill codec must be 'binary', got {codec!r}")
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
        name = f"{self._file_prefix}.m{map_task:05d}.p{partition:05d}.r{run:05d}.bin"
        if self.partition_subdirs:
            return Path(self.root) / f"p{partition:05d}" / name
        return Path(self.root) / name

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

    def _iter_file(self, path: Path, as_rows: bool, number: int):
        """Yield the chunks of one run file, one resident at a time, each as
        its ``(key_bytes, number, piece)`` group pieces.  A piece is a list
        of value objects (``as_rows``) or a slice ``(column, start, stop)``
        of the chunk's decoded column.  A header whose codec byte is not the
        column block's is corruption, like a bad frame.

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
            if codec_id != _CODEC_ID:
                raise FrameCorruptionError(
                    f"spill file {path} has codec byte {codec_id}, "
                    f"not the column block's {_CODEC_ID}"
                )
            for table, block in iter_frames(fh):
                kbs, counts = _decode_key_table(table)
                column = decode_columns(block)
                if sum(counts) != len(column):
                    raise FrameCorruptionError(
                        f"chunk key table counts {sum(counts)} values, "
                        f"its block holds {len(column)}"
                    )
                values = column.rows() if as_rows else None
                pieces, start = [], 0
                for kb, count in zip(kbs, counts):
                    stop = start + count
                    piece = values[start:stop] if as_rows else (column, start, stop)
                    pieces.append((kb, number, piece))
                    start = stop
                yield pieces

    def _iter_merged(self, partition: int, num_map_tasks: int, as_rows: bool):
        """K-way merge of one partition's run files: globally key-sorted
        stream of ``(key_bytes, stream, piece)`` group pieces, holding about
        one chunk per file in memory.  Streams are numbered task-major then
        run-order and ties go to the lower number, so same-key values
        concatenate in their original emission order — exactly the order a
        single eager sorted write per task would have produced."""
        streams = []
        for map_task in range(num_map_tasks):
            for path in self._iter_task_runs(map_task, partition):
                streams.append(self._iter_file(path, as_rows, len(streams)))
        if len(streams) == 1:
            return chain.from_iterable(streams[0])
        return _merge_chunks(streams)

    def iter_partition(self, partition: int, num_map_tasks: int):
        """Streamed ``(key, value)`` pairs of one partition, key-sorted."""
        for key, values in self.iter_groups(partition, num_map_tasks):
            for value in values:
                yield key, value

    def iter_groups(self, partition: int, num_map_tasks: int):
        """Streamed reduce groups ``(key, values)`` — the external-merge
        replacement for ``group_sorted(read_partition(...))``: peak memory
        is one group (plus one chunk per spill file), not the whole
        partition.  The rows of :meth:`iter_column_groups`."""
        current_kb: bytes | None = None
        current_key = None
        acc: list = []
        for kb, _, values in self._iter_merged(partition, num_map_tasks, True):
            if kb != current_kb:
                if current_kb is not None:
                    yield current_key, acc
                current_kb, current_key, acc = kb, decode_key(kb), values
            else:
                acc.extend(values)
        if current_kb is not None:
            yield current_key, acc

    def iter_column_groups(self, partition: int, num_map_tasks: int):
        """Streamed reduce groups ``(key, group)``: each a
        :class:`~repro.mapreduce.shuffle.Group` of slices of the decoded
        chunks, so a reducer that takes columns gathers the rows it keeps
        instead of receiving an object per value."""
        current_kb: bytes | None = None
        current_key = None
        pieces: list = []
        count = 0
        for kb, _, piece in self._iter_merged(partition, num_map_tasks, False):
            if kb != current_kb:
                if current_kb is not None:
                    yield current_key, Group(pieces, count)
                current_kb, current_key, pieces, count = kb, decode_key(kb), [piece], 0
            else:
                pieces.append(piece)
            count += piece[2] - piece[1]
        if current_kb is not None:
            yield current_key, Group(pieces, count)

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

    Values are buffered as the batches hold them — columns, or objects — a
    :class:`~repro.mapreduce.shuffle.RecordBatch` at a time: a reducer must
    not mutate what it has emitted, exactly as under the in-memory shuffle,
    which holds the same references.
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
        # size, and the slice of the batch's values), in arrival order.
        self._groups: list[dict[object, int]] = [{} for _ in range(num)]
        self._group_keys: list = []
        self._group_kbs: list = []
        self._group_parts: list[int] = []
        self._row_groups: list[np.ndarray] = []
        self._row_sizes: list[np.ndarray] = []
        self._slices: list[tuple[object, int, int]] = []
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
            self._slices.append((values, start, stop))
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

    def _run_groups(self) -> tuple[list[list[tuple]], _RunValues, np.ndarray]:
        """``(groups, values, arrival)``: the run's groups per partition as
        ``(key bytes, start, stop, nbytes)`` — combined, in canonical key
        order — where ``values.fetch(arrival[start:stop])`` are a group's
        values in arrival order."""
        keys, kbs, parts = self._group_keys, self._group_kbs, self._group_parts
        unencoded = [g for g, kb in enumerate(kbs) if kb is None]
        for g, kb in zip(unencoded, keys_bytes([keys[g] for g in unencoded])):
            kbs[g] = kb
        by_key = np.asarray(sorted(range(len(kbs)), key=kbs.__getitem__), dtype=np.int64)
        order = by_key[np.argsort(np.asarray(parts, dtype=np.int64)[by_key], kind="stable")]
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        rows = rank[np.concatenate(self._row_groups)]
        arrival = np.argsort(rows, kind="stable")
        bounds = np.searchsorted(rows[arrival], np.arange(len(order) + 1))
        nbytes = np.add.reduceat(np.concatenate(self._row_sizes)[arrival], bounds[:-1])
        values = _RunValues(self._slices)
        out: list[list] = [[] for _ in range(self._layout.num_partitions)]
        spans = zip(order.tolist(), bounds[:-1].tolist(), bounds[1:].tolist(), nbytes.tolist())
        if self._combiner is None:
            for g, start, stop, size in spans:
                out[parts[g]].append((kbs[g], start, stop, size))
            return out, values, arrival
        combined: list = []
        for g, start, stop, size in spans:
            group = values.fetch(arrival[start:stop])
            if isinstance(group, Column):
                group = group.rows()
            if len(group) > 1:
                group = list(self._combiner.combine(keys[g], group))
                size = int(record_sizes(group).sum())
            out[parts[g]].append((kbs[g], len(combined), len(combined) + len(group), size))
            combined.extend(group)
        return out, _RunValues([(combined, 0, len(combined))]), np.arange(len(combined))

    def _flush(self) -> None:
        if self._pending_records == 0:
            return
        layout = self._layout
        if not self._made_root:
            Path(layout.root).mkdir(parents=True, exist_ok=True)
            self._made_root = True
        run, values, arrival = self._run_groups()
        for groups in self._groups:
            groups.clear()
        self._group_keys, self._group_kbs, self._group_parts = [], [], []
        self._row_groups, self._row_sizes, self._slices = [], [], []
        flushed = 0
        for partition, groups in enumerate(run):
            if not groups:
                continue
            final = layout.run_path(self._map_task, partition, self._next_run[partition])
            if layout.partition_subdirs:
                final.parent.mkdir(exist_ok=True)
            tmp = final.with_suffix(f".tmp{os.getpid()}")
            with open(tmp, "wb", buffering=_IO_BUFFER_BYTES) as fh:
                written = write_stream_header(fh, _CODEC_ID)
                for keys, counts, start, stop in _iter_chunks(groups):
                    self._counts[partition] += stop - start
                    block = encode_columns(_as_column(values.fetch(arrival[start:stop])))
                    written += write_frame(fh, _encode_key_table(keys, counts), block)
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
