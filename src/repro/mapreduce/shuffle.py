"""Deterministic shuffle: canonical key encoding + hash partitioning.

Python's builtin ``hash`` is salted per process, which would make shuffle
placement non-deterministic across runs and across the (re-executed) attempts
of a failed task.  We therefore hash a canonical byte encoding of the key
with crc32 — stable everywhere.  :func:`default_partition` is the partition
function of every round the engine runs.

Supported key types: ``int``, ``str``, ``bytes`` and (nested) tuples of
those.  GraphFlat keys are node ids (int) or suffixed ids (tuples) after
re-indexing.

Records travel into a shuffle as :class:`RecordBatch` es — a key column, a
value column and per-row sizes — and come out of one as :class:`Segment` s:
windows of groups whose keys and boundaries are arrays.  A batch's keys are
factorized once (:class:`KeyCodes`): its plain int keys — the engine's node
ids — become one ``int64`` array, which the writers encode
(:func:`int_key_rows`), hash and sort by canonical bytes
(:func:`int_key_order`) in array passes, with no Python step per key; every
other key is handled one distinct key at a time.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from itertools import islice

import numpy as np

from repro.proto.framing import Column, approx_nbytes, columnize, gather
from repro.proto.varint import decode_signed, encode_array, encode_signed, zigzag

__all__ = [
    "PAIR_BATCH_ROWS",
    "KeyCodes",
    "RecordBatch",
    "Segment",
    "canonical_order",
    "decode_key",
    "default_partition",
    "group_sorted",
    "int_key_bytes",
    "int_key_order",
    "int_key_rows",
    "key_bytes",
    "key_codes",
    "key_ident",
    "keys_bytes",
    "pair_batches",
    "record_sizes",
    "stable_order",
]

PAIR_BATCH_ROWS = 1024
"""Rows per batch when a pair stream (a generic reducer's or mapper's
output, or a round's input fed by the parent) is cut into batches."""


def key_bytes(key) -> bytes:
    """Canonical byte encoding of a shuffle key (order-preserving per type)."""
    if isinstance(key, bool):  # bool is an int subclass; disambiguate
        return b"b" + (b"\x01" if key else b"\x00")
    if isinstance(key, int):
        # ZigZag varints are 64-bit on the wire; fail at emit time with a
        # clear message instead of producing an encoding the spill reader
        # would later reject as a corrupt stream.
        if not -(1 << 63) <= key < (1 << 63):
            raise TypeError(
                f"int shuffle key {key} exceeds 64 bits; map wider ids "
                "(e.g. 128-bit hashes) to bytes/str keys instead"
            )
        return b"i" + encode_signed(key)
    if isinstance(key, str):
        return b"s" + key.encode("utf-8")
    if isinstance(key, bytes):
        return b"y" + key
    if isinstance(key, tuple):
        parts = [key_bytes(k) for k in key]
        out = bytearray(b"t")
        for p in parts:
            out += len(p).to_bytes(4, "little")
            out += p
        return bytes(out)
    raise TypeError(f"unsupported shuffle key type {type(key).__name__}: {key!r}")


def int_key_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, lengths)``: :func:`key_bytes` of every int64 of ``keys`` as
    row ``i`` of an ``(n, 11)`` ``uint8`` matrix — ``b"i"`` and the ZigZag
    varint, zero-padded — and its length, in one vectorised pass
    (``rows[i, :lengths[i]]`` is ``b"i" + encode_signed(key)``, bit for
    bit)."""
    varints, lengths = encode_array(zigzag(keys))
    rows = np.zeros((len(varints), 11), dtype=np.uint8)
    rows[:, 0] = ord("i")
    rows[:, 1 : 1 + varints.shape[1]] = varints
    return rows, lengths + 1  # kind byte + varint bytes


def int_key_bytes(keys: np.ndarray) -> list[bytes]:
    """:func:`key_bytes` of every int64 of ``keys``, as bytes objects."""
    rows, lengths = int_key_rows(keys)
    flat = rows.tobytes()
    return [flat[11 * i : 11 * i + n] for i, n in enumerate(lengths.tolist())]


def int_key_order(rows: np.ndarray) -> np.ndarray:
    """The order of the int keys whose :func:`int_key_rows` are ``rows`` by
    canonical bytes, from array sorts.  The zero padding cannot reorder
    them: a varint is prefix-free — its last byte is the only one without
    the continuation bit — so two keys differ at or before the shorter's
    last byte."""
    if not len(rows):
        return np.zeros(0, dtype=np.int64)
    high = np.ascontiguousarray(rows[:, 1:9]).view(">u8").ravel()  # byte 0 is b"i"
    if not rows[:, 9:].any():
        return np.argsort(high, kind="stable")
    return np.lexsort((np.ascontiguousarray(rows[:, 9:]).view(">u2").ravel(), high))


def stable_order(values: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` of ints in ``[0, bound)``: a
    radix sort, linear in the values, when they fit 16 bits (group ranks,
    partitions, a batch's key codes)."""
    if bound <= 1 << 16:
        values = values.astype(np.uint16)
    return np.argsort(values, kind="stable")


def canonical_order(rows: np.ndarray, kbs: list[bytes]) -> np.ndarray:
    """The order by canonical bytes of ``len(rows)`` plain int keys (their
    :func:`int_key_rows`) followed by the keys with canonical bytes ``kbs``:
    the ints by :func:`int_key_order`, the others one comparison at a time.
    No other key starts with ``b"i"``, so the ints go between the bools
    (``b"b"``) and every other kind (``b"s"``, ``b"t"``, ``b"y"``)."""
    by_key = sorted(range(len(kbs)), key=kbs.__getitem__)
    low = bisect_left(by_key, b"i", key=kbs.__getitem__)
    others = np.asarray(by_key, dtype=np.int64) + len(rows)
    return np.concatenate([others[:low], int_key_order(rows), others[low:]])


def keys_bytes(keys: list) -> list[bytes]:
    """:func:`key_bytes` of every key of ``keys``: the plain ints in one
    :func:`int_key_bytes` pass, every other key one call each."""
    ints = [key for key in keys if type(key) is int]
    if not ints:
        return [key_bytes(key) for key in keys]
    try:
        column = np.fromiter(ints, dtype=np.int64, count=len(ints))
    except OverflowError:  # wider than 64 bits: key_bytes names the key
        return [key_bytes(key) for key in keys]
    encoded = iter(int_key_bytes(column))
    return [next(encoded) if type(key) is int else key_bytes(key) for key in keys]


_PLAIN_KEY_TYPES = frozenset((int, str, bytes))


def key_ident(key):
    """A hashable that is equal for two keys exactly when their
    :func:`key_bytes` are — what a dict may group shuffle keys under.

    The key itself would not do: ``True == 1`` (and ``1.0``, and
    ``numpy.int64(1)``) hash and compare equal to ``1`` but encode
    differently or not at all.  Plain ints and strs and flat tuples of ints
    / strs / bytes — the engine's node-id and ``(node, suffix)`` keys — are
    safe as they are, which is what makes this cheap; every other key is
    replaced by its canonical bytes (raising ``TypeError`` for unsupported
    ones).  A bare ``bytes`` key is not safe as itself: it could equal
    another key's canonical bytes."""
    if type(key) is int or type(key) is str:
        return key
    if type(key) is tuple and _PLAIN_KEY_TYPES.issuperset(map(type, key)):
        return key
    return key_bytes(key)


class KeyCodes:
    """A batch's keys factorized: row ``i``'s key is distinct key
    ``codes[i]``.  The distinct plain int keys come first, as the ascending
    ``int64`` array ``ints``; every other distinct key follows, as its
    :func:`key_ident` (``idents``) and its first row's key object
    (``firsts``), in order of first appearance.  Rows group exactly as their
    canonical bytes do (``True`` and ``1`` apart)."""

    __slots__ = ("codes", "ints", "idents", "firsts")

    def __init__(self, codes: np.ndarray, ints: np.ndarray, idents: list, firsts: list):
        self.codes, self.ints, self.idents, self.firsts = codes, ints, idents, firsts

    def __len__(self) -> int:
        return len(self.ints) + len(self.idents)

    def keys(self) -> list:
        """The distinct keys as objects, in code order."""
        return self.ints.tolist() + self.firsts

    def take(self, rows: np.ndarray) -> "KeyCodes":
        """The factorization of the rows at ``rows``."""
        codes = self.codes[rows]
        used = np.flatnonzero(np.bincount(codes, minlength=len(self)))
        renumber = np.zeros(len(self), dtype=np.int64)
        renumber[used] = np.arange(len(used))
        split = int(np.searchsorted(used, len(self.ints)))
        others = (used[split:] - len(self.ints)).tolist()
        return KeyCodes(
            renumber[codes],
            self.ints[used[:split]],
            list(map(self.idents.__getitem__, others)),
            list(map(self.firsts.__getitem__, others)),
        )


def key_codes(keys: list) -> KeyCodes:
    """Factorize ``keys`` (:class:`KeyCodes`): the plain ints in one
    ``unique`` pass, every other key one dict entry per row.  An int wider
    than 64 bits takes the dict path with the others, where encoding it
    raises."""
    count = len(keys)
    kinds = set(map(type, keys))
    int_rows = None  # every row
    if kinds != {int}:
        is_int = np.fromiter(map(type, keys), dtype=object, count=count) == int
        int_rows = np.flatnonzero(is_int)
    try:
        if int_rows is None:
            ints = np.fromiter(keys, dtype=np.int64, count=count)
        else:
            ints = np.fromiter(
                map(keys.__getitem__, int_rows.tolist()), dtype=np.int64, count=len(int_rows)
            )
    except OverflowError:
        int_rows = ints = np.zeros(0, dtype=np.int64)
    distinct, inverse = np.unique(ints, return_inverse=True)
    inverse = inverse.reshape(-1)
    if int_rows is None:
        return KeyCodes(inverse, distinct, [], [])
    codes = np.empty(count, dtype=np.int64)
    codes[int_rows] = inverse
    other_rows = np.ones(count, dtype=bool)
    other_rows[int_rows] = False
    other_rows = np.flatnonzero(other_rows).tolist()
    others = list(map(keys.__getitem__, other_rows))
    idents = list(map(key_ident, others))
    distinct_others = list(dict.fromkeys(idents))  # in order of first appearance
    first_row = dict(zip(reversed(idents), range(len(idents) - 1, -1, -1)))
    index = dict(zip(distinct_others, range(len(distinct), len(distinct) + len(distinct_others))))
    codes[other_rows] = np.fromiter(map(index.__getitem__, idents), np.int64, len(idents))
    firsts = list(map(others.__getitem__, map(first_row.__getitem__, distinct_others)))
    return KeyCodes(codes, distinct, distinct_others, firsts)


def decode_key(data: bytes):
    """Inverse of :func:`key_bytes`.

    Spill files store each record's key *once*, as its canonical encoding
    (which doubles as the merge sort key); readers recover the original key
    object from those bytes instead of serializing it twice.
    """
    if data[0] == 0x69:  # b"i": a plain int, the engine's node ids
        return decode_signed(data, 1)[0]
    value, _ = _decode_key(memoryview(data), 0, len(data))
    return value


def _decode_key(buf: memoryview, offset: int, end: int):
    kind = buf[offset]
    offset += 1
    if kind == ord("b"):
        return buf[offset] == 1, offset + 1
    if kind == ord("i"):
        return decode_signed(buf, offset)
    if kind == ord("s"):
        return str(buf[offset:end], "utf-8"), end
    if kind == ord("y"):
        return bytes(buf[offset:end]), end
    if kind == ord("t"):
        parts = []
        while offset < end:
            plen = int.from_bytes(buf[offset : offset + 4], "little")
            offset += 4
            part, _ = _decode_key(buf, offset, offset + plen)
            parts.append(part)
            offset += plen
        return tuple(parts), end
    raise ValueError(f"corrupt shuffle key encoding (kind byte {kind:#x})")


def default_partition(key, num_partitions: int) -> int:
    """Stable partition id in ``[0, num_partitions)`` for ``key``."""
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    return zlib.crc32(key_bytes(key)) % num_partitions


# ------------------------------------------------------------- record batches
def record_sizes(values: list) -> np.ndarray:
    """Per-value :func:`~repro.proto.framing.approx_nbytes` — the write
    side's one sizing walk, for values that arrive as pairs."""
    return np.fromiter(map(approx_nbytes, values), dtype=np.int64, count=len(values))


class RecordBatch:
    """Rows on their way into a shuffle or a final sink: a key column, a
    value column and each row's size as
    :func:`~repro.proto.framing.approx_nbytes` counts it — an ``int64``
    array, or a function computing one, which only a writer that budgets
    bytes calls.  The values are a :class:`~repro.proto.framing.Column`
    (what the propagation engine emits), or a list of value objects (what
    the pair adapter cuts).  A final round's batches go to a final sink's
    ``store(task_index, batches)`` — the terminal collect flattens them to
    pairs, a pipeline's store takes their arrays — so their values may be
    whatever arrays that store takes, unsized (``nbytes=None``).  The keys
    are factorized (:meth:`key_codes`) at most once per batch."""

    __slots__ = ("keys", "values", "_nbytes", "_codes")

    def __init__(self, keys: list, values: list, nbytes, codes: KeyCodes | None = None):
        self.keys = keys
        self.values = values
        self._nbytes = nbytes
        self._codes = codes

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def nbytes(self) -> np.ndarray:
        if callable(self._nbytes):
            self._nbytes = self._nbytes()
        return self._nbytes

    def key_codes(self) -> KeyCodes:
        """The keys factorized (:func:`key_codes`)."""
        if self._codes is None:
            self._codes = key_codes(self.keys)
        return self._codes

    def take(self, rows: np.ndarray, codes: KeyCodes | None = None) -> "RecordBatch":
        """The rows at the (ascending) indices ``rows``; sizes stay lazy.
        ``codes``: their keys factorized, when the caller has that already
        (``self.key_codes().take(rows)``)."""
        at = rows.tolist()
        values = self.values
        return RecordBatch(
            list(map(self.keys.__getitem__, at)),
            values.take(rows) if isinstance(values, Column) else [values[i] for i in at],
            lambda: self.nbytes[rows],
            codes,
        )

    def columns(self) -> Column:
        """The values as a column."""
        values = self.values
        return values if isinstance(values, Column) else columnize(values)

    def pairs(self):
        values = self.values
        return zip(self.keys, values.rows() if isinstance(values, Column) else values)


def pair_batches(pairs, rows: int = PAIR_BATCH_ROWS):
    """The adapter from pair streams to the sinks: ``(key, value)`` pairs
    cut into :class:`RecordBatch` es of ``rows`` rows, sized by
    :func:`record_sizes` if a writer asks."""
    pairs = iter(pairs)
    while chunk := list(islice(pairs, rows)):
        values = [pair[1] for pair in chunk]
        yield RecordBatch(
            [pair[0] for pair in chunk], values, lambda values=values: record_sizes(values)
        )


class Segment:
    """A window of one reduce partition's group stream, as arrays: groups
    in canonical key order, group ``g`` keyed ``keys[g]`` with the values
    ``bounds[g]:bounds[g + 1]`` of the segment's value sequence, in arrival
    order — value ``j`` is row ``index[j]`` of ``columns[which[j]]``.
    ``keys`` is an ``int64`` array when every key is a plain int (a node id
    — every key of an engine round but the hub slices), else a list of the
    key objects.  A shuffle hands a reducer that takes columns its
    partition as segments — the spill reader one per merge window, over the
    chunks it released groups of
    (:meth:`~repro.mapreduce.spill.SpillLayout.iter_segments`), the
    in-memory shuffle one over its batches — so nothing is built, copied or
    decoded per group."""

    __slots__ = ("columns", "which", "index", "bounds", "keys")

    def __init__(self, columns: list[Column], which, index, bounds, keys):
        self.columns, self.which, self.index = columns, which, index
        self.bounds, self.keys = bounds, keys

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def counts(self) -> np.ndarray:
        """The values of each group."""
        return np.diff(self.bounds)

    def key_list(self) -> list:
        """The keys as objects."""
        keys = self.keys
        return keys.tolist() if isinstance(keys, np.ndarray) else keys

    def values(self, start: int = 0, stop: int | None = None) -> Column:
        """The values of the groups ``start:stop`` as one column."""
        lo, hi = self.bounds[start], self.bounds[len(self) if stop is None else stop]
        return gather(self.columns, self.which[lo:hi], self.index[lo:hi])

    def groups(self):
        """``(key, values)`` per group, the values as objects."""
        values = self.values().rows()
        spans = self.bounds.tolist()
        for key, start, stop in zip(self.key_list(), spans[:-1], spans[1:]):
            yield key, values[start:stop]


def group_sorted(pairs: list[tuple]) -> list[tuple[object, list]]:
    """Group ``(key, value)`` pairs by key, keys sorted by canonical bytes.

    Sorting by ``key_bytes`` (not by Python comparison) keeps the reduce
    order deterministic even for mixed-type keys, mirroring the sorted
    shuffle of real MapReduce.  Values keep their arrival order, which is
    itself deterministic under the serial and single-attempt threaded
    backends; reducers that need stronger guarantees must sort values.
    Keys are grouped under :func:`key_ident` and encoded once per distinct
    key (:func:`keys_bytes`), not once per record.
    """
    groups: dict = {}
    for key, value in pairs:
        ident = key if type(key) is int else key_ident(key)
        entry = groups.get(ident)
        if entry is None:
            groups[ident] = (key, [value])
        else:
            entry[1].append(value)
    entries = list(groups.values())
    kbs = keys_bytes([key for key, _ in entries])
    return [entries[i] for i in sorted(range(len(entries)), key=kbs.__getitem__)]
