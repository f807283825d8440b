"""LEB128 varints with protobuf-style ZigZag signed mapping.

The wire format mirrors protocol buffers: unsigned integers are encoded 7
bits per byte, least-significant group first, with the high bit of each byte
flagging continuation.  Signed integers are ZigZag-mapped first so that small
negative numbers stay small on the wire.

The scalar functions code one integer; the array functions code a whole
``uint64`` column in a fixed number of numpy passes (one per byte of the
longest varint), bit for bit what the scalar ones make.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "decode_array",
    "decode_rows",
    "decode_signed",
    "decode_unsigned",
    "encode_array",
    "encode_signed",
    "encode_unsigned",
    "join_rows",
    "unzigzag",
    "zigzag",
]

_MAX_VARINT_BYTES = 10  # enough for 64-bit payloads


def encode_unsigned(value: int) -> bytes:
    """Encode a non-negative integer as a varint."""
    if value < 0:
        raise ValueError(f"varint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_unsigned(buf: bytes | memoryview, offset: int = 0) -> tuple[int, int]:
    """Decode a varint at ``offset``; returns ``(value, next_offset)``."""
    result = 0
    shift = 0
    pos = offset
    for _ in range(_MAX_VARINT_BYTES):
        if pos >= len(buf):
            raise ValueError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
    raise ValueError("varint longer than 10 bytes (corrupt stream)")


def encode_signed(value: int) -> bytes:
    """ZigZag-encode a signed integer then varint it."""
    return encode_unsigned((value << 1) ^ (value >> 63) if value < 0 else value << 1)


def decode_signed(buf: bytes | memoryview, offset: int = 0) -> tuple[int, int]:
    """Inverse of :func:`encode_signed`."""
    raw, pos = decode_unsigned(buf, offset)
    return (raw >> 1) ^ -(raw & 1), pos


# ------------------------------------------------------------------- arrays
_SHIFTS = np.arange(0, 7 * _MAX_VARINT_BYTES, 7, dtype=np.uint64)
_LIMITS = np.uint64(1) << _SHIFTS[1:]  # the least value of 2, 3, ... 10 bytes
_COLUMNS = np.arange(_MAX_VARINT_BYTES)
_LOW = np.uint64(0x7F)


def zigzag(values: np.ndarray) -> np.ndarray:
    """The ZigZag map of an ``int64`` column, as ``uint64``."""
    values = np.asarray(values, dtype=np.int64)
    return ((values << 1) ^ (values >> 63)).view(np.uint64)


def unzigzag(raw: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag`."""
    raw = np.asarray(raw, dtype=np.uint64)
    return ((raw >> np.uint64(1)) ^ (np.uint64(0) - (raw & np.uint64(1)))).view(np.int64)


def encode_array(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, lengths)``: every ``uint64`` of ``raw`` as a varint — row
    ``i`` of a ``uint8`` matrix as wide as the longest (at most 10),
    zero-padded, of which the first ``lengths[i]`` bytes are
    ``encode_unsigned(raw[i])``."""
    raw = np.asarray(raw, dtype=np.uint64)
    lengths = 1 + (raw[:, None] >= _LIMITS).sum(axis=1)
    width = int(lengths.max()) if len(raw) else 1
    rows = ((raw[:, None] >> _SHIFTS[:width]) & _LOW).astype(np.uint8)
    rows[_COLUMNS[:width] < lengths[:, None] - 1] |= 0x80  # continuation bits
    return rows, lengths


def join_rows(rows: np.ndarray, lengths: np.ndarray) -> bytes:
    """The first ``lengths[i]`` bytes of every row ``i`` of ``rows``, end
    to end."""
    return rows[np.arange(rows.shape[1]) < lengths[:, None]].tobytes()


def decode_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(raw, lengths)`` of the varint at the start of every row of the
    ``uint8`` matrix ``rows`` (at most 10 columns).  A row must hold a
    terminated varint; bits past the 64th are dropped — the caller checks
    ``rows[:, 9] <= 1`` where that matters."""
    width = rows.shape[1]
    lengths = (rows < 0x80).argmax(axis=1) + 1
    payload = (rows & 0x7F).astype(np.uint64) << _SHIFTS[:width]
    payload[_COLUMNS[:width] >= lengths[:, None]] = 0
    return np.bitwise_or.reduce(payload, axis=1), lengths


def decode_array(buf, offset: int, count: int) -> tuple[np.ndarray, int] | None:
    """``(raw, next_offset)``: the ``count`` varints at ``offset`` of
    ``buf`` as ``uint64``, when each of them is complete and at most nine
    bytes long (below ``2**63``); ``None`` for any other block — a
    truncated or over-long varint, or a tenth byte — which the scalar
    :func:`decode_unsigned` reads or rejects with its own error."""
    if not count:
        return np.zeros(0, dtype=np.uint64), offset
    window = np.frombuffer(
        buf, dtype=np.uint8, offset=offset, count=min(len(buf) - offset, 9 * count)
    )
    ends = np.flatnonzero(window < 0x80)[:count] + 1
    if len(ends) < count:
        return None
    lengths = np.diff(ends, prepend=0)
    width = int(lengths.max())
    if width > 9:
        return None
    rows = np.zeros((count, width), dtype=np.uint8)
    rows[_COLUMNS[:width] < lengths[:, None]] = window[: ends[-1]]
    return decode_rows(rows)[0], offset + int(ends[-1])
