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
advances a window of chunks at a time (:func:`_merge_windows`), not a heap
step per group piece, and hands each window on as arrays.

Run-file grammar (AGLS version 4)::

    file   := "AGLS" version=4 codec-id=1  chunk*
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
same-shape arrays, one column per declared record field, one ragged column
for GraphFlat's neighborhoods — per-record node and edge counts, then
every record's node and edge rows end to end, ints narrowed once per chunk
— and a per-value fallback column for anything else).  Version 4 is the
version whose neighborhoods are ragged columns; version 3 shipped one
encoded blob per neighborhood and is rejected.  No Python-level encode or decode call
per record — the serialization tax AGL's C++ GraphFlat avoids with flat
protobuf records (§3.2).  The header's codec byte is always ``1`` (the
column block); a file with any other byte is corrupt.  A value with no
binary form — an unregistered class, an int beyond 64 bits — fails the
writing task with a ``TypeError`` naming its type: the spill never falls
back to pickle.

Chunks are cut at about :data:`_CHUNK_BYTES`; a group larger than that (a
hub) is split over several single-group chunks, which the reader re-joins.
The reader decodes each chunk once — its values' column, and its key table
in array passes: a plain int key (a node id) is read from the table's bytes
into an int64 array, and only any other key (a hub slice's tuple) is kept
as bytes and decoded on its own.  It hands the partition on as
:class:`~repro.mapreduce.shuffle.Segment` s
(:meth:`SpillLayout.iter_segments`): each the groups one merge window
released, in key order, with their keys and boundaries as arrays and their
values as row references into the chunks — or as ``(key, values)`` pairs of
objects (:meth:`SpillLayout.iter_groups`, the rows of the same segments).

The reduce side's resident set is bounded per open run file, never by a
partition or a whole hub group: a reduce task merging ``F`` run files holds
at most two chunk frames per file that it has loaded and not fully released
(:data:`_CHUNK_BYTES` each, their bytes and the columns decoded from them,
which view those bytes; value objects too under
:meth:`SpillLayout.iter_groups`) and one :data:`_IO_BUFFER_BYTES` file
buffer per file — ``F x (2 x _CHUNK_BYTES + _IO_BUFFER_BYTES)`` of spill
bytes — plus what a reducer still references: the segment it reads (row
references into those chunks) and the groups it is still assembling (one
merge batch of about :data:`MERGE_BATCH_BYTES` for a batching reducer,
which keeps the chunks its nodes' rows are in).  Two, not one: a stream
whose last key equals the merge bound loads its next chunk before that
key's groups go out, and so does a stream once any of its one chunk is
released, so that the next window releases about a chunk per stream rather
than the few groups left below one stream's last key; a tier-1 test pins
the two.  A ``graph_flat`` or ``graph_infer`` of the bench graph under
``processes`` x 2 with 2 MiB runs writes 88 to 92 run files over its five
shuffles, 22 or 23 per partition, but a reduce task merges at most 8 of
them at once: at most 8 x 264 KiB = 2.1 MiB.

Two write entry points share one writer:

* :class:`SpillRunWriter` — the external sort: ``add`` takes a
  :class:`~repro.mapreduce.shuffle.RecordBatch` (``append`` is its one-row
  form), buffers the batches' values — columns, or the objects of pair
  batches — and, every time the run bounds fill, flushes all of them as
  key-sorted run files per partition: a chunk is the run's rows in (key,
  arrival) order cut into ranges, encoded from one ``take`` of those rows.
  Nothing is encoded, sized, hashed or partitioned per record: flush points
  come from the batch's per-row sizes, and a run's keys are encoded,
  partitioned and sorted when it is flushed, once per group.  The plain int
  keys — node ids, nearly every key of an engine round — live in arrays
  indexed by group: a batch's ints are looked up in the run at once, and a
  run's ints are encoded, hashed and sorted by canonical bytes in array
  passes, so no Python step runs once per int key; any other key is handled
  one at a time.  Peak writer memory is one run, not one task's whole
  output.  With an associative :class:`~repro.mapreduce.job.Combiner`, each
  key's buffered values are folded *before* they hit disk.
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
import struct
import sys
from bisect import bisect_right
from dataclasses import InitVar, dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from repro.mapreduce.fault import take_read_fault
from repro.mapreduce.partition import int_key_partitions, key_partitions
from repro.mapreduce.shuffle import (
    RecordBatch,
    Segment,
    canonical_order,
    decode_key,
    int_key_order,
    int_key_rows,
    key_ident,
    keys_bytes,
    pair_batches,
    record_sizes,
    stable_order,
)
from repro.proto.framing import (
    Column,
    FrameCorruptionError,
    _ranges,
    approx_nbytes,
    columnize,
    concat_columns,
    decode_columns,
    encode_columns,
    iter_frames,
    read_stream_header,
    write_frame,
    write_stream_header,
)
from repro.proto.varint import decode_rows, unzigzag

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

_CHUNK_BYTES = 1 << 17
"""Target size of one chunk frame — the explicit bound on how much of a run
file is resident during a streamed reduce (the frame's bytes plus the values
decoded from it), and the amount over which a frame's fixed cost (its key
table, header, CRC and one decode, merge and regroup step) is spread.  A
fixed constant, not a knob.  128 KiB is the knee of a serial spilled sweep
on the bench graph (2 000 nodes, 2 MiB runs, a 2-vCPU VM, medians of 5):
``graph_flat`` took 0.585 s at 16 KiB, 0.519 at 64, 0.499 at 128, 0.487 at
256 and 0.504 at 512; ``graph_infer`` 0.468, 0.397, 0.368, 0.395 and
0.395.  From 16 to 128 KiB, the bench's ``flat_powerlaw_spill`` (``processes``
x 2) went from 0.475 to 0.382 s of CPU a repetition (10 alternating pairs)."""

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
:func:`~repro.proto.framing.approx_nbytes` sees them (arrays exactly, a
neighborhood by its columns' bytes, scalars at a flat rate) plus a
per-group allowance — an estimate of the run's size on disk that needs no
encoding."""

_GROUP_BYTES = 16
"""Per-group allowance in the byte budget: key bytes plus key-table entry."""

_STREAM_HEADER_BYTES = 6  # AGLS magic + version + codec id

_U4 = struct.Struct("<I")

_ELEVEN = np.arange(11)
"""Column numbers of a key-table row: a plain int key is at most 11 bytes
(``b"i"`` and a varint of at most 10)."""

_IO_BUFFER_BYTES = io.DEFAULT_BUFFER_SIZE
"""File buffer of an open run file, reading or writing: ``open()``'s
default (8 KiB), a term of the reader bound above.  A bigger one buys
nothing: a chunk frame's block is longer than any of them and passes to or
from the kernel mostly unbuffered.  On a 2-vCPU VM, writing and merging 22
run files of about 0.5 MiB took 0.080 / 0.245 s with 8 KiB, 0.079 / 0.242 s
with 64 KiB and 0.080 / 0.245 s with 128 KiB (medians of 12 interleaved
runs)."""


def _encode_key_table(keys: list[bytes], counts: list[int]) -> bytes:
    """The key field of a chunk frame (module docstring)."""
    words = np.fromiter(
        chain((len(keys),), map(len, keys), counts), dtype="<u4", count=1 + 2 * len(keys)
    )
    return words.tobytes() + b"".join(keys)


class _Chunk:
    """One chunk frame of a run file, decoded: its values' column, group
    ``g``'s rows ``starts[g]:starts[g + 1]`` of it, and its key table —
    group ``g``'s canonical key bytes are :meth:`key`, and once
    :func:`_read_keys` has read the table (with the tables of the other
    chunks a merge window takes in) its keys are arrays: a plain int key —
    ``b"i"`` and a minimal ZigZag varint — is ``ids[g]`` (where ``is_int``),
    its bytes zero-padded in ``rows[g]``; any other key stays its canonical
    bytes, ``others[g]``.  ``done``: the groups the merge has released;
    ``last``: the last group's key bytes."""

    __slots__ = (
        "column", "starts", "lengths", "is_int", "ids", "rows", "others", "done", "last",
        "_table", "_ends",
    )

    def __init__(self, table: bytes, block: bytes):
        groups = int.from_bytes(table[:4], "little")
        offset = 4 + 8 * groups
        if len(table) < max(4, offset):
            raise FrameCorruptionError("truncated chunk key table")
        words = np.frombuffer(table, dtype="<u4", count=2 * groups, offset=4).astype(np.int64)
        lengths, counts = words[:groups], words[groups:]
        ends = offset + np.cumsum(lengths)
        if (int(ends[-1]) if groups else offset) != len(table):
            raise FrameCorruptionError("chunk key table disagrees with its key lengths")
        if groups and lengths.min() < 1:
            raise FrameCorruptionError("empty key in a chunk key table")
        self.column = decode_columns(block)
        if int(counts.sum()) != len(self.column):
            raise FrameCorruptionError(
                f"chunk key table counts {int(counts.sum())} values, "
                f"its block holds {len(self.column)}"
            )
        self.starts = np.concatenate(([0], np.cumsum(counts)))
        self.lengths = lengths
        self.ids = None  # until _read_keys
        self.done = 0
        self._table, self._ends = table, [offset] + ends.tolist()
        self.last = self.key(groups - 1) if groups else None

    def __len__(self) -> int:
        return len(self._ends) - 1

    def key(self, g: int) -> bytes:
        """Group ``g``'s canonical key bytes."""
        return self._table[self._ends[g] : self._ends[g + 1]]


def _read_keys(chunks: list[_Chunk]) -> None:
    """Read the key tables of ``chunks`` in one set of array passes: every
    key's first 11 bytes, zero-padded — a plain int key whole, as no other
    key starts with ``b"i"`` — and its varint, which makes it a plain int
    key when it ends the key, is minimal and fits int64."""
    lengths = np.concatenate([chunk.lengths for chunk in chunks])
    data = np.frombuffer(b"".join(chunk._table[chunk._ends[0] :] for chunk in chunks), np.uint8)
    count = len(lengths)
    ends = np.cumsum(lengths)
    rows = np.zeros((count, 11), dtype=np.uint8)
    is_int = np.zeros(count, dtype=bool)
    ids = np.zeros(count, dtype=np.int64)
    kind = data[ends - lengths] == ord("i")
    if kind.any():
        if lengths.max() <= 11:  # the key bytes fill the rows in order
            rows[_ELEVEN < lengths[:, None]] = data
        else:
            clipped = np.minimum(lengths, 11)
            rows[_ELEVEN < clipped[:, None]] = data[_ranges(ends - lengths, clipped)]
        raw, varint_lengths = decode_rows(rows[:, 1:])
        tail = rows[np.arange(count), np.minimum(lengths, 11) - 1]
        is_int = (
            kind
            & (varint_lengths == lengths - 1)  # the varint ends the key
            & ((tail != 0) | (lengths == 2))  # and is minimal
            & (rows[:, 10] <= 1)  # a tenth byte over 1 leaves int64
        )
        ids = unzigzag(raw)
    at = 0
    for chunk in chunks:
        part = slice(at, at + len(chunk))
        chunk.rows, chunk.is_int, chunk.ids = rows[part], is_int[part], ids[part]
        chunk.others = {}
        if not chunk.is_int.all():
            chunk.others = {g: chunk.key(g) for g in np.flatnonzero(~chunk.is_int).tolist()}
        at = part.stop


class _SortedRun:
    """A run's groups, sorted by (partition, canonical key bytes), laid out
    once for cutting chunks: group ``g`` has key bytes ``lengths[g]`` long
    (``keys``: all of them end to end), the rows ``bounds[g]:bounds[g + 1]``
    of the run in (key, arrival) order, and values of ``nbytes[g]`` bytes;
    partition ``p``'s groups are ``partitions[p]``."""

    def __init__(self, lengths, keys, bounds, nbytes, cuts: list[int]):
        self.partitions = [range(a, b) for a, b in zip(cuts[:-1], cuts[1:])]
        counts = np.diff(bounds)
        self._split = set(np.flatnonzero((nbytes > _CHUNK_BYTES) & (counts > 1)).tolist())
        held = np.concatenate(([0], np.cumsum(nbytes + _GROUP_BYTES)))
        self._reach = (held[:-1] + nbytes).tolist()
        self._held = held.tolist()
        self._nbytes = nbytes
        self._bounds = bounds.tolist()
        self._offsets = np.concatenate(([0], np.cumsum(lengths))).tolist()
        self._lengths = lengths.astype("<u4").tobytes()
        self._counts = counts.astype("<u4").tobytes()
        self._keys = keys.tobytes()

    def __len__(self) -> int:
        return len(self._reach)

    def records(self, groups: range) -> int:
        """The rows of the groups ``groups``."""
        return self._bounds[groups.stop] - self._bounds[groups.start]

    def chunks(self, groups: range):
        """Cut the groups ``groups`` (a partition's) into chunks of about
        :data:`_CHUNK_BYTES`: ``(key table, start, stop)`` per chunk, its
        values the run's rows ``start:stop``.  A group joins the chunk
        unless the chunk holds groups already and its values would take the
        chunk past the bound; a group bigger than a chunk goes out alone, in
        near-equal pieces.

        One bisection per chunk finds where it ends: with ``held[j]`` the
        groups' bytes (plus :data:`_GROUP_BYTES` each) before group ``j``,
        the chunk that starts at group ``i`` ends at the first ``j > i``
        with ``held[j] + nbytes[j] > _CHUNK_BYTES + held[i]`` — strictly
        increasing in ``j``, and true at every group bigger than a chunk."""
        bound = _CHUNK_BYTES
        reach, held, bounds, offsets = self._reach, self._held, self._bounds, self._offsets
        lengths, counts, keys = self._lengths, self._counts, self._keys
        i, last = groups.start, groups.stop
        while i < last:
            if i in self._split:
                start, stop = bounds[i], bounds[i + 1]
                pieces = min(stop - start, -(-int(self._nbytes[i]) // bound))
                step = -(-(stop - start) // pieces)
                key = keys[offsets[i] : offsets[i + 1]]
                for at in range(start, stop, step):
                    end = min(at + step, stop)
                    yield _encode_key_table([key], [end - at]), at, end
                i += 1
                continue
            j = max(i + 1, bisect_right(reach, bound + held[i], i, last))
            table = _U4.pack(j - i) + lengths[4 * i : 4 * j] + counts[4 * i : 4 * j]
            yield table + keys[offsets[i] : offsets[j]], bounds[i], bounds[j]
            i = j


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


def _merge_windows(streams: list):
    """Merge streams of :class:`_Chunk` s — each stream's groups sorted by
    canonical key bytes, its chunks in order — into one stream of
    :class:`~repro.mapreduce.shuffle.Segment` s whose groups are in
    ``(key bytes, stream number)`` order, stably: the standard batched
    external merge.

    A window at a time (:class:`_Window`): the chunks the streams have
    loaded hold their groups not released yet.  Every one of those groups
    below the smallest last key of the streams that may still load (the
    *bound*) is final — no stream can still produce one below it — so they
    go out together as one segment.  Then each stream whose groups ran down
    to the bound loads its next chunk, until its last key passes the bound;
    a key equal to the bound waits until the bound passes it, so a key
    split over several chunks of a stream (a hub) keeps its stream order.
    A stream that holds one chunk, some of it released, loads its next one
    too: the next window then releases about a chunk per stream, not just
    the few groups left below one stream's last key.  Either way a stream
    holds at most two chunks not fully released (a hub split over more
    chunks aside)."""
    held: list[list[_Chunk]] = [[] for _ in streams]  # per stream: chunks not fully released
    live = list(range(len(streams)))  # the streams with chunks left to load
    bound = None  # canonical bytes of the smallest last key of the live streams
    while True:
        for number in list(live):
            chunks = held[number]
            while not chunks or chunks[-1].last == bound or (
                len(chunks) == 1 and chunks[0].done
            ):
                chunk = next(streams[number], None)
                if chunk is None:
                    live.remove(number)
                    break
                chunks.append(chunk)
        if not any(held):
            return
        if live:
            # only the chunks with a group below the bound take part, and the
            # one whose last key sets it
            bound = min(held[number][-1].last for number in live)
            lead = next(held[n][-1] for n in live if held[n][-1].last == bound)
            window = _Window([
                chunk for chunks in held for chunk in chunks
                if chunk is lead or chunk.key(chunk.done) < bound
            ])
            released = window.below(window.last_of(window.chunks.index(lead)))
        else:
            window = _Window([chunk for chunks in held for chunk in chunks])
            released = len(window)
        if released:
            yield window.segment(released)
            held = [[chunk for chunk in chunks if chunk.done < len(chunk)] for chunks in held]


class _Window:
    """The groups a merge window holds — of ``chunks``, each from its
    ``done``-th group on, stream-major — in one stable order by canonical
    bytes: the plain ints by :func:`~repro.mapreduce.shuffle.int_key_order`
    over the key tables' bytes, any other key one comparison at a time.
    ``order`` lists the window's pieces (a chunk's group each) in merge
    order and ``gid`` numbers the distinct keys along it."""

    def __init__(self, chunks: list[_Chunk]):
        self.chunks = chunks
        unread = [chunk for chunk in chunks if chunk.ids is None]
        if unread:
            _read_keys(unread)
        sizes = [len(chunk) - chunk.done for chunk in chunks]
        self.ends = np.cumsum(sizes)
        self.which = np.repeat(np.arange(len(chunks)), sizes)
        self.group = np.concatenate([np.arange(chunk.done, len(chunk)) for chunk in chunks])
        self.is_int = is_int = np.concatenate([chunk.is_int[chunk.done :] for chunk in chunks])
        self.ids = ids = np.concatenate([chunk.ids[chunk.done :] for chunk in chunks])
        rows = np.concatenate([chunk.rows[chunk.done :] for chunk in chunks])
        self.kbs: dict[int, bytes] = {}
        if is_int.all():  # the usual window: node ids only
            self.order = order = int_key_order(rows)
            key = ids[order]
            self.new = np.concatenate(([True], key[1:] != key[:-1]))
        else:
            ints, others = np.flatnonzero(is_int), np.flatnonzero(~is_int)
            kbs = [
                chunks[w].others[g]
                for w, g in zip(self.which[others].tolist(), self.group[others].tolist())
            ]
            self.kbs = dict(zip(others.tolist(), kbs))
            self.order = order = np.concatenate([ints, others])[canonical_order(rows[ints], kbs)]
            # a piece's key, for equality: its int, or a number per distinct other key
            code = ids.copy()
            numbers: dict[bytes, int] = {}
            code[others] = [numbers.setdefault(kb, len(numbers)) for kb in kbs]
            kind, code = is_int[order], code[order]
            self.new = np.concatenate(([True], (kind[1:] != kind[:-1]) | (code[1:] != code[:-1])))
        self.gid = np.cumsum(self.new) - 1
        self.rank = np.empty(len(order), dtype=np.int64)
        self.rank[order] = np.arange(len(order))

    def __len__(self) -> int:
        return len(self.order)

    def last_of(self, chunk: int) -> int:
        """The key number of the last pending group of the window's chunk
        ``chunk``."""
        return int(self.gid[self.rank[self.ends[chunk] - 1]])

    def below(self, bound: int) -> int:
        """How many pieces, in merge order, have keys below key ``bound``."""
        return int(np.searchsorted(self.gid, bound))

    def segment(self, count: int) -> Segment:
        """The first ``count`` pieces in merge order as a segment, their
        chunks' groups marked released."""
        pieces = self.order[:count]
        w, g = self.which[pieces], self.group[pieces]
        released = np.bincount(w, minlength=len(self.chunks))
        used = np.flatnonzero(released)  # the chunks the segment has rows of
        chunks = [self.chunks[k] for k in used.tolist()]
        for chunk, done in zip(chunks, released[used].tolist()):
            chunk.done += done
        renumber = np.cumsum(released > 0) - 1
        w = renumber[w]
        starts = np.concatenate([chunk.starts for chunk in chunks])
        at = np.cumsum([0] + [len(chunk.starts) for chunk in chunks])[w] + g
        lo = starts[at]
        lengths = starts[at + 1] - lo
        columns = [chunk.column for chunk in chunks]
        which, index = np.repeat(w, lengths), _ranges(lo, lengths)
        first = np.flatnonzero(self.new[:count])
        bounds = np.concatenate(([0], np.cumsum(np.add.reduceat(lengths, first))))
        heads = pieces[first]
        if self.is_int[heads].all():
            return Segment(columns, which, index, bounds, self.ids[heads])
        kbs = self.kbs
        keys = [
            decode_key(kbs[at]) if at in kbs else value
            for at, value in zip(heads.tolist(), self.ids[heads].tolist())
        ]
        return Segment(columns, which, index, bounds, keys)


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
    partition_subdirs: bool = False
    """Route each partition's runs into a ``p00007/`` peer directory under
    ``root`` (the shared-dir shuffle transport: writers push straight to
    the owning reducer's location on a DFS mount).  File *names* are
    unchanged — only the directory differs — so the merge order, and
    therefore the reduced output, is byte-identical to the flat layout."""

    def __post_init__(self, codec: str):
        if codec != "binary":
            raise ValueError(f"spill codec must be 'binary', got {codec!r}")

    def run_path(self, map_task: int, partition: int, run: int) -> Path:
        """Path of one sorted run.  Runs are numbered contiguously from 0
        per ``(map_task, partition)``; the reader scans until the first
        missing index."""
        name = f"{self.job_name}.m{map_task:05d}.p{partition:05d}.r{run:05d}.bin"
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

    def _iter_file(self, path: Path):
        """Yield the chunks of one run file, one resident at a time, each a
        :class:`_Chunk`.  A header whose codec byte is not the column
        block's is corruption, like a bad frame.

        An armed read fault (the ``corrupt-run``/``truncate-run`` kinds of
        :class:`~repro.mapreduce.fault.FaultPlan`) damages this attempt's
        *view* of the first file it opens — never the bytes on disk — so
        the frame CRC machinery fails the attempt loudly and its retry,
        reading the intact file, reproduces byte-identical output."""
        fault = take_read_fault()
        with open(path, "rb") as fh:
            if fault is not None:
                fh = io.BytesIO(_damage(fh.read(), fault))
            codec_id = read_stream_header(fh)
            if codec_id != _CODEC_ID:
                raise FrameCorruptionError(
                    f"spill file {path} has codec byte {codec_id}, "
                    f"not the column block's {_CODEC_ID}"
                )
            for table, block in iter_frames(fh):
                chunk = _Chunk(table, block)
                if len(chunk):
                    yield chunk

    def iter_segments(self, partition: int, num_map_tasks: int):
        """The reduce side's one reader: one partition's run files merged
        (:func:`_merge_windows`) into a key-sorted stream of
        :class:`~repro.mapreduce.shuffle.Segment` s, holding at most two
        chunks per file that are not fully released (the module docstring).
        Streams are numbered task-major then run-order and ties go to the
        lower number, so same-key values concatenate in their original
        emission order — exactly the order a single eager sorted write per
        task would have produced."""
        streams = [
            self._iter_file(path)
            for map_task in range(num_map_tasks)
            for path in self._iter_task_runs(map_task, partition)
        ]
        return _merge_windows(streams)

    def iter_partition(self, partition: int, num_map_tasks: int):
        """Streamed ``(key, value)`` pairs of one partition, key-sorted."""
        for key, values in self.iter_groups(partition, num_map_tasks):
            for value in values:
                yield key, value

    def iter_groups(self, partition: int, num_map_tasks: int):
        """Streamed reduce groups ``(key, values)``, the values as objects —
        the object API over :meth:`iter_segments`, a segment's rows at a
        time: peak memory is one segment (plus the chunks the merge holds),
        not the whole partition."""
        for segment in self.iter_segments(partition, num_map_tasks):
            yield from segment.groups()

    # ------------------------------------------------------------- cleanup
    def cleanup(self, num_map_tasks: int | None = None) -> None:
        """Delete the job's spill files — every run of every task, plus
        ``.tmp*`` partials left by task attempts that died mid-write — once
        the reduce is done."""
        root = Path(self.root)
        if root.exists():
            pattern = f"{self.job_name}.m*"
            if self.partition_subdirs:
                pattern = f"p[0-9]*/{self.job_name}.m*"
            for path in root.glob(pattern):
                path.unlink(missing_ok=True)


def _joined(chunks: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)


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
    one cumulative sum over the rows up to where the sizes alone reach the
    byte bound, and are exactly those a row-at-a-time writer finds for the
    same rows — a deterministic function
    of the row sequence, however it was cut into batches — so a re-executed
    task attempt rewrites byte-identical runs over any partials a crashed
    attempt left behind (each run write is itself atomic: temp file +
    ``os.replace``).

    A writer either routes its rows (:meth:`add`, always with the same
    partitioner) or places them (:meth:`place`, :meth:`append`).  Rows group
    under :func:`~repro.mapreduce.shuffle.key_ident`, so grouping is exactly
    grouping by canonical key bytes (``True`` apart from ``1``).  A routed
    plain int key — a node id: every key of an engine round but the hub
    slices — lives in arrays only.  A batch's ints (its
    :class:`~repro.mapreduce.shuffle.KeyCodes`) are looked up in the run's
    sorted key array at once, the groups a stretch of rows opens are opened
    at once, and at flush the run's ints are encoded
    (:func:`~repro.mapreduce.shuffle.int_key_rows`), partitioned
    (:func:`~repro.mapreduce.partition.int_key_partitions`) and sorted by
    canonical bytes in array passes, and chunks are cut from cumulative
    group sizes (:meth:`_SortedRun.chunks`).  So the Python-level work of
    writing them is per batch, run and chunk frame — never per key.  Every
    other key, and every placed key, takes a dict entry per distinct key and
    is encoded (:func:`~repro.mapreduce.shuffle.keys_bytes`) and, if routed,
    partitioned once per run it has a group in: the partitioner, like the
    encoding, runs when the run is flushed.

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
        self._partitioner = None
        self._placing: bool | None = None
        """``True`` once rows were placed, ``False`` once rows were routed."""
        num = layout.num_partitions
        self._new_run()
        self._next_run = [0] * num
        self._counts = [0] * num
        self._partition_bytes = [0] * num
        self._bytes_written = 0
        self._peak_flush = 0
        self._made_root = False

    def _new_run(self) -> None:
        """Start an empty run.  Its groups are numbered as they open.  The
        groups of routed plain ints are the chunks ``_int_gids`` of keys
        ``_int_keys`` (``_index``: the first ``_indexed`` chunks as one
        sorted key array and its groups).  Every other group is an entry of
        ``_objects[partition]`` (``-1``: routed), key ident -> group, with
        its first key and partition (``-1``: routed).  The rows are, per
        absorbed slice of a batch, each row's group and size and the slice
        of the batch's values, in arrival order."""
        self._groups = 0
        self._int_keys: list[np.ndarray] = []
        self._int_gids: list[np.ndarray] = []
        self._index = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        self._indexed = 0
        self._objects: list[dict] = [{} for _ in range(self._layout.num_partitions + 1)]
        self._object_gids: list[int] = []
        self._object_keys: list = []
        self._object_parts: list[int] = []
        self._row_groups: list[np.ndarray] = []
        self._row_sizes: list[np.ndarray] = []
        self._slices: list[tuple[object, int, int]] = []
        self._appended: tuple[list, list, list] = ([], [], [])
        self._pending_records = 0
        self._pending_bytes = 0

    def add(self, batch: RecordBatch, partitioner) -> None:
        """Buffer every row of ``batch`` under the partition
        ``partitioner(key, num_partitions)`` assigns its key."""
        if not len(batch):
            return
        if self._placing:
            raise ValueError("this writer places its rows; it cannot also route them")
        if self._partitioner is None:
            self._partitioner, self._placing = partitioner, False
        elif partitioner is not self._partitioner and partitioner != self._partitioner:
            raise ValueError("a writer routes all its rows with one partitioner")
        self._absorb(batch, -1)

    def place(self, batch: RecordBatch, partition: int) -> None:
        """Buffer every row of ``batch`` for reduce partition ``partition``."""
        if len(batch):
            self._place_into(partition)
            self._join_appended()
            self._absorb(batch, partition)

    def append(self, partition: int, key, value) -> None:
        """Buffer ``value`` under ``key`` for reduce partition ``partition``
        — the one-row entry, kept scalar: appended rows wait in lists, which
        join the run as one slice, and the flush test is the row-at-a-time
        one."""
        self._place_into(partition)
        groups = self._objects[partition]
        ident = key if type(key) is int else key_ident(key)
        group = groups.get(ident)
        size = approx_nbytes(value)
        self._pending_bytes += size
        if group is None:
            group = groups[ident] = self._groups
            self._groups += 1
            self._object_gids.append(group)
            self._object_keys.append(key)
            self._object_parts.append(partition)
            self._pending_bytes += _GROUP_BYTES
        self._appended[0].append(group)
        self._appended[1].append(size)
        self._appended[2].append(value)
        self._pending_records += 1
        if self._pending_records >= self._run_records or self._pending_bytes >= self._run_bytes:
            self._flush()

    def _place_into(self, partition: int) -> None:
        if self._placing is False:
            raise ValueError("this writer routes its rows; it cannot also place them")
        if not 0 <= partition < self._layout.num_partitions:
            raise ValueError(
                f"partition {partition} is not in [0, {self._layout.num_partitions})"
            )
        self._placing = True

    def _join_appended(self) -> None:
        """Take the rows :meth:`append` buffered into the run's rows."""
        groups, sizes, values = self._appended
        if values:
            self._row_groups.append(np.asarray(groups, dtype=np.int64))
            self._row_sizes.append(np.asarray(sizes, dtype=np.int64))
            self._slices.append((values, 0, len(values)))
            self._appended = ([], [], [])

    def _absorb(self, batch: RecordBatch, partition: int) -> None:
        """Take ``batch``'s rows into the run — routed (``partition`` -1) or
        placed — flushing wherever the run bounds fill: a window of rows at
        a time, the first row at which the cumulative records or bytes reach
        a bound closes the run."""
        keys = batch.key_codes()
        ints, idents, firsts = keys.ints, keys.idents, keys.firsts
        if partition >= 0:  # placed: every key through the dicts
            placed = ints.tolist()
            ints, idents, firsts = ints[:0], placed + idents, placed + firsts
        codes, sizes, values = keys.codes, batch.nbytes, batch.values
        # the run's group of each distinct key of the batch; -1 = none yet
        group = np.concatenate([
            self._int_groups(ints),
            np.fromiter(
                map(self._objects[partition].get, idents, repeat(-1)),
                dtype=np.int64,
                count=len(idents),
            ),
        ])
        # the sizes alone reach the byte bound no sooner than sizes and
        # group allowances do, so the rows up to there hold the run's end
        reached = np.cumsum(sizes)
        start, total = 0, len(batch)
        while start < total:
            room = self._run_bytes - self._pending_bytes + (int(reached[start - 1]) if start else 0)
            stop = min(
                total,
                start + self._run_records - self._pending_records,
                int(np.searchsorted(reached, room)) + 1,
            )
            span = codes[start:stop]
            opens = np.zeros(len(span), dtype=bool)  # a key's first row in the run
            fresh = np.flatnonzero(group[span] < 0)
            if len(fresh):
                fresh = fresh[stable_order(span[fresh], len(group))]  # by key, then row
                ranked = span[fresh]
                opens[fresh[np.concatenate(([True], ranked[1:] != ranked[:-1]))]] = True
            held = self._pending_bytes + np.cumsum(sizes[start:stop] + _GROUP_BYTES * opens)
            over = np.flatnonzero(held >= self._run_bytes)
            if len(over):
                stop = start + int(over[0]) + 1
            span = codes[start:stop]
            new = span[opens[: stop - start]]
            if len(new):
                self._open(new, group, ints, idents, firsts, partition)
            self._row_groups.append(group[span])
            self._row_sizes.append(sizes[start:stop])
            if self._slices and self._slices[-1][0] is values and self._slices[-1][2] == start:
                self._slices[-1] = (values, self._slices[-1][1], stop)
            else:
                self._slices.append((values, start, stop))
            self._pending_records += stop - start
            self._pending_bytes = int(held[stop - start - 1])
            if (
                self._pending_records >= self._run_records
                or self._pending_bytes >= self._run_bytes
            ):
                self._flush()
                group[:] = -1
            start = stop

    def _int_groups(self, ints: np.ndarray) -> np.ndarray:
        """The run's group of each plain int of ``ints`` (-1: none yet), from
        one ``searchsorted`` in the run's sorted key array — first merged
        with the groups opened since the last lookup."""
        keys, gids = self._index
        if self._indexed < len(self._int_keys):
            keys = np.concatenate([keys, *self._int_keys[self._indexed :]])
            gids = np.concatenate([gids, *self._int_gids[self._indexed :]])
            order = np.argsort(keys, kind="stable")
            keys, gids = keys[order], gids[order]
            self._index, self._indexed = (keys, gids), len(self._int_keys)
        if not len(keys) or not len(ints):
            return np.full(len(ints), -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(keys, ints), len(keys) - 1)
        return np.where(keys[at] == ints, gids[at], -1)

    def _open(self, new, group, ints, idents, firsts, partition) -> None:
        """Open the run's groups of the batch's distinct keys ``new``
        (codes: ``ints`` first, then ``idents``) and note them in
        ``group``."""
        gids = np.arange(self._groups, self._groups + len(new))
        self._groups += len(new)
        group[new] = gids
        is_int = new < len(ints)
        if len(ints):
            self._int_keys.append(ints[new[is_int]])
            self._int_gids.append(gids[is_int])
        if len(idents):
            objects = ~is_int
            at = (new[objects] - len(ints)).tolist()
            opened = gids[objects].tolist()
            self._objects[partition].update(zip(map(idents.__getitem__, at), opened))
            self._object_gids += opened
            self._object_keys += map(firsts.__getitem__, at)
            self._object_parts += repeat(partition, len(at))

    def _run_groups(self) -> tuple[_SortedRun, _RunValues, np.ndarray]:
        """``(run, values, arrival)``: the run's groups (:class:`_SortedRun`:
        combined, in partition and canonical key order), where
        ``values.fetch(arrival[start:stop])`` are the values of the rows
        ``start:stop`` in (key, arrival) order.  Groups are handled in
        *source* order — the plain int groups, then the others — in which
        the key bytes are made."""
        num = self._layout.num_partitions
        count = self._groups
        int_keys = _joined(self._int_keys)
        keys = self._object_keys
        rows, int_lengths = int_key_rows(int_keys)
        kbs = keys_bytes(keys)
        source = np.concatenate([
            _joined(self._int_gids), np.asarray(self._object_gids, dtype=np.int64)
        ])
        if self._placing:
            parts = np.asarray(self._object_parts, dtype=np.int64)
        else:
            parts = np.concatenate([
                int_key_partitions(self._partitioner, int_keys, rows, int_lengths, num),
                np.asarray(key_partitions(self._partitioner, keys, kbs, num), dtype=np.int64),
            ])
            if len(parts) and not (0 <= parts.min() and parts.max() < num):
                raise ValueError(f"the partitioner assigned a partition outside [0, {num})")
        by_key = canonical_order(rows, kbs)
        ordered = by_key[stable_order(parts[by_key], num)]  # source positions
        rank = np.empty(count, dtype=np.int64)
        rank[source[ordered]] = np.arange(count)
        row_rank = rank[np.concatenate(self._row_groups)]
        arrival = stable_order(row_rank, count)
        bounds = np.concatenate(([0], np.cumsum(np.bincount(row_rank, minlength=count))))
        nbytes = np.add.reduceat(np.concatenate(self._row_sizes)[arrival], bounds[:-1])
        values = _RunValues(self._slices)
        if self._combiner is not None:
            bounds, nbytes, values, arrival = self._combine(
                int_keys.tolist() + keys, ordered, bounds, nbytes, values, arrival
            )
        # the key bytes, in the groups' order
        lengths = np.concatenate([int_lengths, np.fromiter(map(len, kbs), np.int64, len(kbs))])
        made = np.concatenate([
            rows[np.arange(rows.shape[1]) < int_lengths[:, None]],
            np.frombuffer(b"".join(kbs), dtype=np.uint8),
        ])
        key_lengths = lengths[ordered]
        key_bytes = made[_ranges((np.cumsum(lengths) - lengths)[ordered], key_lengths)]
        cuts = np.searchsorted(parts[ordered], np.arange(num + 1)).tolist()
        return _SortedRun(key_lengths, key_bytes, bounds, nbytes, cuts), values, arrival

    def _combine(self, source_keys, ordered, bounds, nbytes, values, arrival):
        """Fold each group's values with the combiner: ``(bounds, nbytes,
        values, arrival)`` of the combined run."""
        combined: list = []
        counts, sizes = [], []
        spans = zip(ordered.tolist(), bounds[:-1].tolist(), bounds[1:].tolist(), nbytes.tolist())
        for at, start, stop, size in spans:
            group = values.fetch(arrival[start:stop])
            if isinstance(group, Column):
                group = group.rows()
            if len(group) > 1:
                group = list(self._combiner.combine(source_keys[at], group))
                size = int(record_sizes(group).sum())
            counts.append(len(group))
            sizes.append(size)
            combined.extend(group)
        return (
            np.concatenate(([0], np.cumsum(counts, dtype=np.int64))),
            np.asarray(sizes, dtype=np.int64),
            _RunValues([(combined, 0, len(combined))]),
            np.arange(len(combined)),
        )

    def _flush(self) -> None:
        if self._pending_records == 0:
            return
        layout = self._layout
        if not self._made_root:
            Path(layout.root).mkdir(parents=True, exist_ok=True)
            self._made_root = True
        self._join_appended()
        run, values, arrival = self._run_groups()
        self._new_run()
        flushed = 0
        for partition, groups in enumerate(run.partitions):
            if not groups:
                continue
            final = layout.run_path(self._map_task, partition, self._next_run[partition])
            if layout.partition_subdirs:
                final.parent.mkdir(exist_ok=True)
            tmp = final.with_suffix(f".tmp{os.getpid()}")
            with open(tmp, "wb") as fh:
                written = write_stream_header(fh, _CODEC_ID)
                for table, start, stop in run.chunks(groups):
                    block = encode_columns(_as_column(values.fetch(arrival[start:stop])))
                    written += write_frame(fh, table, block)
            os.replace(tmp, final)
            self._counts[partition] += run.records(groups)
            self._next_run[partition] += 1
            self._partition_bytes[partition] += written
            flushed += written
        self._bytes_written += flushed
        if flushed > self._peak_flush:
            self._peak_flush = flushed

    def finish(self) -> SpillWriteResult:
        """Flush the final runs and report counts/bytes to the parent."""
        self._flush()
        return SpillWriteResult(
            list(self._counts),
            self._bytes_written,
            self._peak_flush,
            tuple(self._partition_bytes),
        )
