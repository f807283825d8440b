"""Deterministic shuffle: canonical key encoding + hash partitioning.

Python's builtin ``hash`` is salted per process, which would make shuffle
placement non-deterministic across runs and across the (re-executed) attempts
of a failed task.  We therefore hash a canonical byte encoding of the key
with crc32 — stable everywhere — exactly as production MapReduce systems pin
their partitioners.

Supported key types: ``int``, ``str``, ``bytes`` and (nested) tuples of
those.  GraphFlat keys are node ids (int) or suffixed ids (tuples) after
re-indexing.

Records travel into a shuffle as :class:`RecordBatch` es — a key column, a
value column and per-row sizes — so that keys are encoded, hashed and
partitioned once per distinct key, never once per record.
"""

from __future__ import annotations

import zlib
from itertools import islice

import numpy as np

from repro.proto.framing import approx_nbytes
from repro.proto.varint import decode_signed, encode_signed

__all__ = [
    "PAIR_BATCH_ROWS",
    "RecordBatch",
    "decode_key",
    "default_partition",
    "factorize_keys",
    "group_sorted",
    "int_key_bytes",
    "key_bytes",
    "key_ident",
    "keys_bytes",
    "pair_batches",
    "record_sizes",
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


def int_key_bytes(keys: np.ndarray) -> list[bytes]:
    """:func:`key_bytes` of every int64 of ``keys``, in one vectorised
    ZigZag-varint pass (bit-identical to ``b"i" + encode_signed(key)``)."""
    keys = np.asarray(keys, dtype=np.int64)
    rest = ((keys << 1) ^ (keys >> 63)).view(np.uint64)
    out = np.zeros((len(keys), 11), dtype=np.uint8)
    out[:, 0] = ord("i")
    length = np.ones(len(keys), dtype=np.int64)  # varint bytes
    seven, low = np.uint64(7), np.uint64(0x7F)
    for j in range(1, 11):
        byte = (rest & low).astype(np.uint8)
        rest = rest >> seven
        more = rest != 0
        out[:, j] = byte | (more.astype(np.uint8) << np.uint8(7))
        if not more.any():
            break
        length += more
    flat = out.tobytes()
    return [flat[11 * i : 11 * i + 1 + n] for i, n in enumerate(length.tolist())]


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


def factorize_keys(keys: list) -> tuple[np.ndarray, list, list]:
    """``(codes, idents, firsts)``: row ``i``'s key is distinct key
    ``codes[i]``; distinct keys are numbered by first appearance, each with
    its :func:`key_ident` and its first row's key object.  Rows group
    exactly as their canonical bytes do (``True`` and ``1`` apart)."""
    index: dict = {}
    firsts: list = []
    codes = np.empty(len(keys), dtype=np.int64)
    for row, key in enumerate(keys):
        ident = key if type(key) is int else key_ident(key)
        code = index.get(ident)
        if code is None:
            code = index[ident] = len(firsts)
            firsts.append(key)
        codes[row] = code
    return codes, list(index), firsts


def decode_key(data: bytes):
    """Inverse of :func:`key_bytes`.

    Spill files store each record's key *once*, as its canonical encoding
    (which doubles as the merge sort key); readers recover the original key
    object from those bytes instead of serializing it twice.
    """
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
    """Rows on their way into a shuffle: a key column, a value column (the
    record objects themselves) and each row's size as
    :func:`~repro.proto.framing.approx_nbytes` counts it — an ``int64``
    array, or a function computing one, which only a writer that budgets
    bytes calls."""

    __slots__ = ("keys", "values", "_nbytes")

    def __init__(self, keys: list, values: list, nbytes):
        self.keys = keys
        self.values = values
        self._nbytes = nbytes

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def nbytes(self) -> np.ndarray:
        if callable(self._nbytes):
            self._nbytes = self._nbytes()
        return self._nbytes

    def take(self, rows: np.ndarray) -> "RecordBatch":
        """The rows at the (ascending) indices ``rows``; sizes stay lazy."""
        at = rows.tolist()
        return RecordBatch(
            [self.keys[i] for i in at],
            [self.values[i] for i in at],
            lambda: self.nbytes[rows],
        )

    def pairs(self):
        return zip(self.keys, self.values)


def pair_batches(pairs, rows: int = PAIR_BATCH_ROWS):
    """The adapter from pair streams to the batch writers: ``(key, value)``
    pairs cut into :class:`RecordBatch` es of ``rows`` rows, sized by
    :func:`record_sizes`."""
    pairs = iter(pairs)
    while chunk := list(islice(pairs, rows)):
        values = [pair[1] for pair in chunk]
        yield RecordBatch([pair[0] for pair in chunk], values, record_sizes(values))


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
