"""Shuffle-record codec: tagged binary values + length-prefixed frames.

AGL's C++ GraphFlat avoids Python-style per-object serialization by shuffling
flat protobuf records (§3.2).  This module is the equivalent discipline for
our spill shuffle: a compact, self-describing binary encoding for the values
that flow through MapReduce rounds, written to disk as length-prefixed
*frames* that can be read back one record at a time (streamed reduce-side
merge) instead of unpickling a whole partition into RAM.

Two layers:

* **Value codec** — ``encode_value`` / ``decode_value`` handle ``None``,
  bools, ints (ZigZag varints), floats (raw little-endian float64 — lossless
  for any Python float), strings, bytes, tuples, lists and numpy arrays
  (dtype string + shape + raw little-endian block, so float matrices are one
  contiguous write instead of a pickled object graph).  Pipeline-specific
  record types (GraphFlat's ``SubgraphInfo``/``InEdgeInfo``/..., GraphInfer's
  embedding records) plug in through :func:`register_record`, which is how
  the codec stays layered: ``repro.proto`` never imports ``repro.core`` —
  the modules that *define* a record register its wire form.

* **Frame streams** — a spill file is ``AGLS | version | codec-id`` followed
  by ``varint(len(key)) key varint(len(payload)) payload crc32`` frames.
  The key is stored as its canonical shuffle encoding
  (``repro.mapreduce.shuffle.key_bytes``), so reduce-side merge can order
  records without decoding payloads, and :func:`iter_frames` reads through a
  bounded buffer — peak memory is one frame, not one partition.  The
  trailing CRC32 covers key *and* payload (a flipped key byte would silently
  regroup records) and is verified on every read, so a corrupted or
  truncated run surfaces as :class:`FrameCorruptionError` during the k-way
  merge instead of mis-grouped reducer input — the runtime treats it as
  retryable and re-executes the reading attempt.

Round-trip fidelity is the contract: ``decode(encode(x))`` must reproduce
``x`` exactly (dtypes, dict insertion order inside records, float bits), so
a job's output is byte-identical whether its shuffle spilled pickled objects
or binary records — tests assert this for the full pipelines.
"""

from __future__ import annotations

import math
import struct
import zlib
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from repro.proto.varint import decode_signed, decode_unsigned, encode_signed, encode_unsigned

__all__ = [
    "FrameCorruptionError",
    "STREAM_MAGIC",
    "decode_edge_fields",
    "decode_value",
    "encode_edge_fields",
    "encode_list_payload",
    "encode_value",
    "iter_frames",
    "read_frame",
    "read_stream_header",
    "register_record",
    "skip_array",
    "write_frame",
    "write_stream_header",
]

# ---------------------------------------------------------------- value tags
_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_TUPLE = 0x07
_T_LIST = 0x08
_T_ARRAY = 0x09

_FIRST_RECORD_TAG = 0x20
"""Tags below this are reserved for the generic values above; registered
record types (GraphFlat: 0x20-0x2F, GraphInfer: 0x30-0x3F) live above it."""

_F8 = struct.Struct("<d")


class FrameCorruptionError(ValueError):
    """A spill frame or stream header failed to decode."""


class _RecordCodec(NamedTuple):
    tag: int
    cls: type
    encode: Callable  # (obj, out: bytearray) -> None
    decode: Callable  # (buf: memoryview, offset: int) -> (obj, int)


_RECORDS_BY_TAG: dict[int, _RecordCodec] = {}
_RECORDS_BY_CLS: dict[type, _RecordCodec] = {}


def register_record(tag: int, cls: type, encode: Callable, decode: Callable) -> None:
    """Register a wire form for ``cls`` under ``tag`` (idempotent per class).

    ``encode(obj, out)`` appends the record body to the ``out`` bytearray
    (nest values via :func:`encode_value`); ``decode(buf, offset)`` returns
    ``(obj, next_offset)``.  Registration lives next to the class definition,
    so any process that can *construct* the record (e.g. a worker that
    unpickled a job whose operators emit it) can also decode it.
    """
    if tag < _FIRST_RECORD_TAG or tag > 0xFF:
        raise ValueError(f"record tag must be in [{_FIRST_RECORD_TAG:#x}, 0xff], got {tag:#x}")
    existing = _RECORDS_BY_TAG.get(tag)
    if existing is not None and existing.cls is not cls:
        raise ValueError(
            f"record tag {tag:#x} already registered for {existing.cls.__name__}"
        )
    codec = _RecordCodec(tag, cls, encode, decode)
    _RECORDS_BY_TAG[tag] = codec
    _RECORDS_BY_CLS[cls] = codec


# ------------------------------------------------------------- value encoding
def _encode(value, out: bytearray) -> None:
    record = _RECORDS_BY_CLS.get(type(value))
    if record is not None:
        out.append(record.tag)
        record.encode(value, out)
    elif value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif type(value) is int:
        # ZigZag varints are 64-bit on the wire; reject out-of-range ints at
        # encode time rather than letting the reduce side hit a misleading
        # "corrupt stream" error long after the spill write succeeded.
        if not -(1 << 63) <= value < (1 << 63):
            raise TypeError(
                f"int {value} exceeds the binary codec's 64-bit range; "
                "use the 'pickle' shuffle codec"
            )
        out.append(_T_INT)
        out += encode_signed(value)
    elif type(value) is float:
        out.append(_T_FLOAT)
        out += _F8.pack(value)
    elif type(value) is str:
        raw = value.encode("utf-8")
        out.append(_T_STR)
        out += encode_unsigned(len(raw))
        out += raw
    elif type(value) is bytes:
        out.append(_T_BYTES)
        out += encode_unsigned(len(value))
        out += value
    elif type(value) is tuple:
        out.append(_T_TUPLE)
        out += encode_unsigned(len(value))
        for item in value:
            _encode(item, out)
    elif type(value) is list:
        out.append(_T_LIST)
        out += encode_unsigned(len(value))
        for item in value:
            _encode(item, out)
    elif isinstance(value, np.ndarray):
        _encode_array(value, out)
    else:
        raise TypeError(
            f"shuffle value of type {type(value).__name__} has no binary wire "
            "form; use the 'pickle' shuffle codec or register_record() one"
        )


def _encode_array(arr: np.ndarray, out: bytearray) -> None:
    if arr.dtype.hasobject:
        raise TypeError("object-dtype arrays cannot be binary-encoded")
    # The dtype string records the byte order ('<f4', '>f8', '|b1'), and
    # tobytes() emits raw bytes in that same order — so arrays round-trip
    # dtype-exactly, big-endian included, matching the pickle codec.
    dtype_str = arr.dtype.str.encode("ascii")
    out.append(_T_ARRAY)
    out += encode_unsigned(len(dtype_str))
    out += dtype_str
    out += encode_unsigned(arr.ndim)
    for dim in arr.shape:
        out += encode_unsigned(dim)
    out += np.ascontiguousarray(arr).tobytes()


def encode_value(value) -> bytes:
    """Encode one shuffle value to its binary wire form."""
    out = bytearray()
    _encode(value, out)
    return bytes(out)


def encode_list_payload(items: list[bytes]) -> bytes:
    """Assemble a list frame from *already encoded* item bodies.

    Byte-identical to ``encode_value(list_of_values)`` when each entry of
    ``items`` is ``encode_value(value)`` — this is what lets a spill writer
    buffer per-record encodings (exact byte accounting, map-side combine on
    encoded records) and still flush the same frames an eager
    ``encode_value`` would have produced.
    """
    out = bytearray()
    out.append(_T_LIST)
    out += encode_unsigned(len(items))
    for item in items:
        out += item
    return bytes(out)


def _decode(buf: memoryview, offset: int):
    tag = buf[offset]
    offset += 1
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_INT:
        return decode_signed(buf, offset)
    if tag == _T_FLOAT:
        return _F8.unpack_from(buf, offset)[0], offset + 8
    if tag == _T_STR:
        length, offset = decode_unsigned(buf, offset)
        if offset + length > len(buf):
            raise FrameCorruptionError("truncated string block")
        return str(buf[offset : offset + length], "utf-8"), offset + length
    if tag == _T_BYTES:
        length, offset = decode_unsigned(buf, offset)
        if offset + length > len(buf):
            raise FrameCorruptionError("truncated bytes block")
        return bytes(buf[offset : offset + length]), offset + length
    if tag == _T_TUPLE:
        count, offset = decode_unsigned(buf, offset)
        items = []
        for _ in range(count):
            item, offset = _decode(buf, offset)
            items.append(item)
        return tuple(items), offset
    if tag == _T_LIST:
        count, offset = decode_unsigned(buf, offset)
        items = []
        for _ in range(count):
            item, offset = _decode(buf, offset)
            items.append(item)
        return items, offset
    if tag == _T_ARRAY:
        return _decode_array(buf, offset)
    record = _RECORDS_BY_TAG.get(tag)
    if record is not None:
        return record.decode(buf, offset)
    raise FrameCorruptionError(f"unknown value tag {tag:#x} at offset {offset - 1}")


def _array_header(buf: memoryview, offset: int):
    """Parse an array block's header (after its tag byte); returns
    ``(dtype, shape, data_offset, end_offset)`` with the data bounds
    checked against the buffer."""
    dlen, offset = decode_unsigned(buf, offset)
    try:
        dtype = np.dtype(str(buf[offset : offset + dlen], "ascii"))
    except (TypeError, ValueError) as exc:  # cut short or garbled
        raise FrameCorruptionError("unreadable array dtype") from exc
    offset += dlen
    ndim, offset = decode_unsigned(buf, offset)
    shape = []
    for _ in range(ndim):
        dim, offset = decode_unsigned(buf, offset)
        shape.append(dim)
    end = offset + math.prod(shape) * dtype.itemsize
    if end > len(buf):
        raise FrameCorruptionError("truncated array block")
    return dtype, shape, offset, end


def _decode_array(buf: memoryview, offset: int):
    dtype, shape, offset, end = _array_header(buf, offset)
    arr = np.frombuffer(buf[offset:end], dtype=dtype).reshape(shape).copy()
    return arr, end


def skip_array(buf: memoryview, offset: int) -> int:
    """Offset just past the encoded array value at ``offset`` — header
    parsed, data bounds-checked, nothing copied.  Lets a record decoder
    find the end of an array-bearing block it means to keep as bytes."""
    if buf[offset] != _T_ARRAY:
        raise FrameCorruptionError(
            f"expected an array block at offset {offset}, found tag {buf[offset]:#x}"
        )
    return _array_header(buf, offset + 1)[3]


def decode_value(data: bytes | memoryview, offset: int = 0):
    """Inverse of :func:`encode_value`; returns ``(value, next_offset)``."""
    return _decode(memoryview(data), offset)


def encode_edge_fields(node_id: int, weight: float, edge_feat, out: bytearray) -> None:
    """The ``(endpoint id, weight, edge feature)`` triple every in/out-edge
    record starts with — one shared wire shape for GraphFlat's
    ``InEdgeInfo``/``OutEdgeInfo`` and GraphInfer's embedding records, so
    the encodings cannot drift apart."""
    out += encode_signed(node_id)
    out += _F8.pack(weight)
    _encode(edge_feat, out)


def decode_edge_fields(buf: memoryview, offset: int):
    """Inverse of :func:`encode_edge_fields`; returns
    ``(node_id, weight, edge_feat, next_offset)``."""
    node_id, offset = decode_signed(buf, offset)
    weight = _F8.unpack_from(buf, offset)[0]
    offset += 8
    edge_feat, offset = _decode(buf, offset)
    return node_id, weight, edge_feat, offset


# ------------------------------------------------------------- frame streams
STREAM_MAGIC = b"AGLS"
_STREAM_VERSION = 2  # v2: per-frame CRC32 trailer over key + payload
_CRC = struct.Struct("<I")


def write_stream_header(fh, codec_id: int) -> int:
    """Write the spill-file header; returns bytes written."""
    header = STREAM_MAGIC + bytes([_STREAM_VERSION, codec_id])
    fh.write(header)
    return len(header)


def read_stream_header(fh) -> int:
    """Validate the header of an open spill file; returns the codec id."""
    header = fh.read(6)
    if len(header) != 6 or header[:4] != STREAM_MAGIC:
        raise FrameCorruptionError("bad spill stream magic")
    if header[4] != _STREAM_VERSION:
        raise FrameCorruptionError(f"unsupported spill stream version {header[4]}")
    return header[5]


def write_frame(fh, key: bytes, payload: bytes) -> int:
    """Append one ``key``/``payload`` frame (CRC32 trailer included);
    returns bytes written."""
    head = encode_unsigned(len(key)) + key + encode_unsigned(len(payload))
    fh.write(head)
    fh.write(payload)
    crc = zlib.crc32(payload, zlib.crc32(key))
    fh.write(_CRC.pack(crc))
    return len(head) + len(payload) + _CRC.size


def _read_uvarint(fh) -> int | None:
    """Streamed varint read; ``None`` on clean EOF (before the first byte)."""
    result = 0
    shift = 0
    while True:
        byte = fh.read(1)
        if not byte:
            if shift == 0:
                return None
            raise FrameCorruptionError("truncated varint in frame stream")
        value = byte[0]
        result |= (value & 0x7F) << shift
        if not value & 0x80:
            return result
        shift += 7
        if shift > 63:
            raise FrameCorruptionError("frame varint longer than 64 bits")


def read_frame(fh) -> tuple[bytes, bytes] | None:
    """Read one ``(key, payload)`` frame from an open binary stream, or
    ``None`` on clean EOF (before the first byte of the frame).

    This is the single-frame primitive shared by spill files and the TCP
    transport's wire protocol: the CRC32 trailer is verified before the
    frame is returned, so a flipped bit anywhere in key or payload — on
    disk or on the wire — raises :class:`FrameCorruptionError` instead of
    delivering bad input."""
    klen = _read_uvarint(fh)
    if klen is None:
        return None
    key = fh.read(klen)
    if len(key) != klen:
        raise FrameCorruptionError("truncated frame key")
    plen = _read_uvarint(fh)
    if plen is None:
        raise FrameCorruptionError("frame missing payload length")
    payload = fh.read(plen)
    if len(payload) != plen:
        raise FrameCorruptionError("truncated frame payload")
    trailer = fh.read(_CRC.size)
    if len(trailer) != _CRC.size:
        raise FrameCorruptionError("truncated frame CRC")
    expected = _CRC.unpack(trailer)[0]
    actual = zlib.crc32(payload, zlib.crc32(key))
    if actual != expected:
        raise FrameCorruptionError(
            f"frame CRC mismatch (stored {expected:#010x}, "
            f"computed {actual:#010x}) — corrupted frame"
        )
    return key, payload


def iter_frames(fh):
    """Yield ``(key_bytes, payload)`` frames from an open binary file.

    Reads one frame at a time through the file object's buffer — memory is
    bounded by the largest single record, never by the file size.  Every
    frame's CRC32 trailer is verified before the frame is yielded, so a
    flipped bit anywhere in key or payload (or a truncated tail) raises
    :class:`FrameCorruptionError` instead of feeding the reducer bad input.
    """
    while True:
        frame = read_frame(fh)
        if frame is None:
            return
        yield frame
