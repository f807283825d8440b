"""Deterministic shuffle: canonical key encoding + hash partitioning.

Python's builtin ``hash`` is salted per process, which would make shuffle
placement non-deterministic across runs and across the (re-executed) attempts
of a failed task.  We therefore hash a canonical byte encoding of the key
with crc32 — stable everywhere — exactly as production MapReduce systems pin
their partitioners.

Supported key types: ``int``, ``str``, ``bytes`` and (nested) tuples of
those.  GraphFlat keys are node ids (int) or suffixed ids (tuples) after
re-indexing.
"""

from __future__ import annotations

import zlib

from repro.proto.varint import decode_signed, encode_signed

__all__ = ["key_bytes", "key_ident", "decode_key", "default_partition", "group_sorted"]


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


_PLAIN_KEY_TYPES = frozenset((int, str, bytes))


def key_ident(key):
    """A hashable that is equal for two keys exactly when their
    :func:`key_bytes` are — what a dict may group shuffle keys under.

    The key itself would not do: ``True == 1`` (and ``1.0``, and
    ``numpy.int64(1)``) hash and compare equal to ``1`` but encode
    differently or not at all.  Plain ints and flat tuples of ints / strs /
    bytes — the engine's node-id and ``(node, suffix)`` keys — are safe as
    they are, which is what makes this cheap; every other key is replaced by
    its canonical bytes (raising ``TypeError`` for unsupported ones)."""
    if type(key) is int:
        return key
    if type(key) is tuple and _PLAIN_KEY_TYPES.issuperset(map(type, key)):
        return key
    return key_bytes(key)


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


def group_sorted(pairs: list[tuple]) -> list[tuple[object, list]]:
    """Group ``(key, value)`` pairs by key, keys sorted by canonical bytes.

    Sorting by ``key_bytes`` (not by Python comparison) keeps the reduce
    order deterministic even for mixed-type keys, mirroring the sorted
    shuffle of real MapReduce.  Values keep their arrival order, which is
    itself deterministic under the serial and single-attempt threaded
    backends; reducers that need stronger guarantees must sort values.
    """
    buckets: dict[bytes, tuple[object, list]] = {}
    for key, value in pairs:
        kb = key_bytes(key)
        entry = buckets.get(kb)
        if entry is None:
            buckets[kb] = (key, [value])
        else:
            entry[1].append(value)
    return [buckets[kb] for kb in sorted(buckets)]
