"""Shuffle-record codec: tagged binary values, column blocks, CRC frames.

AGL's C++ GraphFlat avoids Python-style per-object serialization by shuffling
flat protobuf records (§3.2).  This module is the equivalent discipline for
our spill shuffle, in three layers:

* **Value codec** — ``encode_value`` / ``decode_value``: a self-describing
  encoding of *one* value — ``None``, bools, ints (ZigZag varints), floats
  (raw little-endian float64), strings, bytes, tuples, lists, numpy arrays
  (dtype string + shape + raw block) and registered records.  Pipeline
  record types (GraphFlat's ``SubgraphInfo``/``InEdgeInfo``, GraphInfer's
  embedding record) plug in through
  :func:`register_record` by *declaring their fields once*; both this
  per-record form and the column form below derive from the declaration.
  ``repro.proto`` never imports ``repro.core`` — the module that defines a
  record registers it.

* **Block codec** — ``encode_block`` / ``decode_block``: the unit of spill
  I/O.  A block holds a *list* of values column-wise, with no per-value
  Python encode call.  A column is one tag byte plus a body chosen from
  what the values are:

  ========== ==========================================================
  none       nothing (every value is ``None``, or the column is empty)
  bool/int/  one raw ``|b1`` / ``<i8`` / ``<f8`` array
  float
  str        dictionary: distinct strings once + a ``u1``/``u4`` index
  bytes      ``<i8`` lengths + the concatenated bytes
  array      same dtype and shape: dtype, shape, one stacked matrix
  tuple      same arity: one column per position
  list       ``<i8`` lengths + one column of the flattened items
  record     one column per declared field
  union      the *kind column* (one ``u1`` code per value, codes in order
             of first appearance) + one column per kind — mixed types,
             mixed tuple arities; decoding re-interleaves by code
  blob       fallback: ``<i8`` lengths + concatenated ``encode_value``
             bodies — ragged arrays, out-of-range ints, anything with no
             column form (this is what keeps arbitrary user jobs working)
  ========== ==========================================================

  Headers are fixed-width ``<I`` words, so a block costs a few dozen numpy
  calls however many values it holds.  Decoded arrays own their memory: a
  row *view* would pin its whole block matrix for as long as a reducer
  keeps one sampled row alive.

* **Frame streams** — a spill file is ``AGLS | version | codec-id`` followed
  by ``varint(len(key)) key varint(len(payload)) payload crc32`` frames.
  In a spill run (version 3) every frame is a *chunk* of key groups: the
  key field is the chunk's key table, the payload one block of the chunk's
  values (:mod:`repro.mapreduce.spill` owns that grammar); the same frame
  primitive carries the TCP transport's messages.  The trailing CRC32
  covers key *and* payload (a flipped key-table byte would silently regroup
  records) and is verified on every read, so a corrupted or truncated run
  surfaces as :class:`FrameCorruptionError` during the k-way merge instead
  of mis-grouped reducer input — the runtime treats it as retryable and
  re-executes the reading attempt.

Round-trip fidelity is the contract: ``decode(encode(x))`` must reproduce
``x`` exactly (dtypes, dict insertion order inside records, float bits), so
a job's output is byte-identical whether its shuffle spilled pickled objects
or binary blocks — tests assert this for the full pipelines.
"""

from __future__ import annotations

import math
import struct
import zlib
from collections.abc import Callable
from itertools import chain, compress, islice
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from repro.proto.varint import decode_signed, decode_unsigned, encode_signed, encode_unsigned

__all__ = [
    "FrameCorruptionError",
    "STREAM_MAGIC",
    "approx_nbytes",
    "decode_block",
    "decode_rows",
    "decode_value",
    "encode_block",
    "encode_rows",
    "encode_value",
    "iter_frames",
    "read_frame",
    "read_stream_header",
    "register_record",
    "rows_header",
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
    fields_of: Callable  # record -> tuple of its declared field values
    arity: int
    make: Callable  # (*field values) -> record
    nbytes: Callable  # record -> its approx_nbytes


_RECORDS_BY_TAG: dict[int, _RecordCodec] = {}
_RECORDS_BY_CLS: dict[type, _RecordCodec] = {}


def register_record(
    tag: int, cls: type, fields: tuple[str, ...], make: Callable | None = None
) -> None:
    """Register ``cls`` under ``tag`` by declaring its wire fields
    (idempotent per class).

    ``fields`` names the attributes that make up the record, in order;
    ``make(*values)`` rebuilds one (default: ``cls`` itself, positionally).
    Both wire forms derive from the declaration: alone, a record is its tag
    plus each field as a value; in a block, one column per field.  A field
    may be a property that produces the bytes to store (``SubgraphInfo``
    declares its cached wire block).  Registration lives next to the class
    definition, so any process that can *construct* the record (e.g. a
    worker that unpickled a job whose operators emit it) can also decode it.
    """
    if tag < _FIRST_RECORD_TAG or tag > 0xFF:
        raise ValueError(f"record tag must be in [{_FIRST_RECORD_TAG:#x}, 0xff], got {tag:#x}")
    if not fields:
        raise ValueError(f"record {cls.__name__} must declare at least one field")
    existing = _RECORDS_BY_TAG.get(tag)
    if existing is not None and existing.cls is not cls:
        raise ValueError(
            f"record tag {tag:#x} already registered for {existing.cls.__name__}"
        )
    fields_of = attrgetter(*fields)
    if len(fields) == 1:  # attrgetter of one name returns the bare value
        fields_of = lambda record, get=fields_of: (get(record),)  # noqa: E731
    codec = _RecordCodec(
        tag, cls, fields_of, len(fields), cls if make is None else make,
        _record_sizer(fields_of),
    )
    _RECORDS_BY_TAG[tag] = codec
    _RECORDS_BY_CLS[cls] = codec


# ------------------------------------------------------------- value encoding
def _encode(value, out: bytearray) -> None:
    record = _RECORDS_BY_CLS.get(type(value))
    if record is not None:
        out.append(record.tag)
        for field in record.fields_of(value):
            _encode(field, out)
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
        values = []
        for _ in range(record.arity):
            value, offset = _decode(buf, offset)
            values.append(value)
        return record.make(*values), offset
    raise FrameCorruptionError(f"unknown value tag {tag:#x} at offset {offset - 1}")


def _decode_array(buf: memoryview, offset: int):
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
    return np.frombuffer(buf[offset:end], dtype=dtype).reshape(shape).copy(), end


def decode_value(data: bytes | memoryview, offset: int = 0):
    """Inverse of :func:`encode_value`; returns ``(value, next_offset)``."""
    return _decode(memoryview(data), offset)


# ---------------------------------------------------------------- block codec
# Column tags (see the module docstring for each body).
_C_NONE = 0x00
_C_BOOL = 0x01
_C_INT = 0x02
_C_FLOAT = 0x03
_C_STR = 0x04
_C_BYTES = 0x05
_C_ARRAY = 0x06
_C_TUPLE = 0x07
_C_LIST = 0x08
_C_RECORD = 0x09
_C_UNION = 0x0A
_C_BLOB = 0x0B

_U4 = struct.Struct("<I")


def _put_lengths(values: list, out: bytearray) -> None:
    out += np.fromiter(map(len, values), dtype="<i8", count=len(values)).tobytes()


def _encode_nones(values: list, out: bytearray) -> None:
    out.append(_C_NONE)


def _encode_bools(values: list, out: bytearray) -> None:
    out.append(_C_BOOL)
    out += bytes(values)


def _encode_ints(values: list, out: bytearray) -> None:
    try:
        column = np.array(values, dtype="<i8")
    except OverflowError:  # beyond 64 bits: the value codec words the error
        _encode_blobs(values, out)
        return
    out.append(_C_INT)
    out += column.tobytes()


def _encode_floats(values: list, out: bytearray) -> None:
    out.append(_C_FLOAT)
    out += np.array(values, dtype="<f8").tobytes()


def _encode_strs(values: list, out: bytearray) -> None:
    table = {text: index for index, text in enumerate(dict.fromkeys(values))}
    out.append(_C_STR)
    out += _U4.pack(len(table))
    for text in table:
        raw = text.encode("utf-8")
        out += _U4.pack(len(raw))
        out += raw
    dtype = "u1" if len(table) <= 256 else "<u4"
    out += np.fromiter(map(table.__getitem__, values), dtype=dtype, count=len(values)).tobytes()


def _encode_byte_strings(values: list, out: bytearray) -> None:
    out.append(_C_BYTES)
    _put_lengths(values, out)
    out += b"".join(values)


_SHAPE_OF = attrgetter("shape")
_DTYPE_OF = attrgetter("dtype")


def _encode_arrays(values: list, out: bytearray) -> None:
    dtype, shape = values[0].dtype, values[0].shape
    if (
        dtype.hasobject
        or len(set(map(_SHAPE_OF, values))) > 1
        or len(set(map(_DTYPE_OF, values))) > 1
    ):
        _encode_blobs(values, out)  # ragged / mixed dtypes: one by one
        return
    # The dtype string records the byte order, and tobytes() emits raw bytes
    # in that same order — dtype-exact, big-endian included.
    dtype_str = dtype.str.encode("ascii")
    out.append(_C_ARRAY)
    out.append(len(dtype_str))
    out += dtype_str
    out.append(len(shape))
    out += struct.pack(f"<{len(shape)}q", *shape)
    out += np.array(values, dtype=dtype).tobytes()


def _encode_tuples(values: list, out: bytearray) -> None:
    arities = list(map(len, values))
    if len(set(arities)) > 1:
        _encode_union(values, arities, out)
        return
    out.append(_C_TUPLE)
    out += _U4.pack(arities[0])
    for column in zip(*values):
        _encode_column(list(column), out)


def _encode_lists(values: list, out: bytearray) -> None:
    out.append(_C_LIST)
    _put_lengths(values, out)
    _encode_column(list(chain.from_iterable(values)), out)


def _encode_union(values: list, kinds: list, out: bytearray) -> None:
    """Values of several kinds (types, or tuple arities): the kind column,
    then one column per kind holding that kind's values in order."""
    codes = {kind: code for code, kind in enumerate(dict.fromkeys(kinds))}
    if len(codes) > 255:
        _encode_blobs(values, out)
        return
    column = bytes(map(codes.__getitem__, kinds))
    out.append(_C_UNION)
    out.append(len(codes))
    out += column
    for code in range(len(codes)):
        _encode_column(list(compress(values, map(code.__eq__, column))), out)


def _encode_blobs(values: list, out: bytearray) -> None:
    blobs = list(map(encode_value, values))
    out.append(_C_BLOB)
    _put_lengths(blobs, out)
    out += b"".join(blobs)


_COLUMN_ENCODERS = {
    type(None): _encode_nones,
    bool: _encode_bools,
    int: _encode_ints,
    float: _encode_floats,
    str: _encode_strs,
    bytes: _encode_byte_strings,
    np.ndarray: _encode_arrays,
    tuple: _encode_tuples,
    list: _encode_lists,
}


def _encode_column(values: list, out: bytearray) -> None:
    kinds = set(map(type, values))
    if len(kinds) > 1:
        _encode_union(values, list(map(type, values)), out)
        return
    kind = kinds.pop() if kinds else type(None)
    encode = _COLUMN_ENCODERS.get(kind)
    if encode is not None:
        encode(values, out)
        return
    record = _RECORDS_BY_CLS.get(kind)
    if record is None:
        _encode_blobs(values, out)
        return
    out.append(_C_RECORD)
    out.append(record.tag)
    for column in zip(*map(record.fields_of, values)):
        _encode_column(list(column), out)


def encode_block(values: list) -> bytes:
    """Encode a list of shuffle values column-wise (module docstring)."""
    out = bytearray(_U4.pack(len(values)))
    _encode_column(values, out)
    return bytes(out)


def encode_rows(matrix: np.ndarray) -> bytes:
    """``encode_block(list(matrix))`` — a stacked matrix's rows as one array
    column — built from the matrix itself instead of its rows one by one."""
    if not len(matrix):
        return encode_block([])
    if matrix.dtype.hasobject:
        raise TypeError("object-dtype arrays cannot be binary-encoded")
    return b"".join((
        _U4.pack(len(matrix)),
        rows_header(matrix.dtype, matrix.shape[1:]),
        np.ascontiguousarray(matrix).tobytes(),
    ))


def rows_header(dtype: np.dtype, shape: tuple) -> bytes:
    """The bytes between the row count and the raw rows of an
    :func:`encode_rows` block of ``dtype`` rows shaped ``shape`` — the same
    for every such block, so a reader of many can check it by comparison."""
    dtype_str = dtype.str.encode("ascii")
    return b"".join((
        bytes((_C_ARRAY, len(dtype_str))),
        dtype_str,
        bytes((len(shape),)),
        struct.pack(f"<{len(shape)}q", *shape),
    ))


def decode_rows(block: bytes | memoryview) -> np.ndarray | None:
    """Inverse of :func:`encode_rows`: the rows as one ``(count, *shape)``
    matrix viewing ``block`` — ``None`` for a block of no rows.  Any other
    block (ragged or mixed rows, ``None`` among them) is a ``ValueError``."""
    buf = memoryview(block)
    try:
        (count,) = _U4.unpack_from(buf, 0)
        tag = buf[_U4.size]
        if tag == _C_NONE and not count and len(buf) == _U4.size + 1:
            return None
        if tag != _C_ARRAY:
            raise ValueError("rows are not one array column (ragged, mixed or missing rows)")
        offset = _U4.size + 1
        dlen = buf[offset]
        dtype = np.dtype(str(buf[offset + 1 : offset + 1 + dlen], "ascii"))
        offset += 1 + dlen
        ndim = buf[offset]
        shape = struct.unpack_from(f"<{ndim}q", buf, offset + 1)
        matrix, end = _take(buf, offset + 1 + 8 * ndim, count * math.prod(shape), dtype)
    except (TypeError, IndexError, struct.error) as exc:  # cut short or garbled
        raise FrameCorruptionError(f"undecodable row block: {exc}") from exc
    if end != len(buf):
        raise FrameCorruptionError(f"{len(buf) - end} trailing bytes after the rows")
    return matrix.reshape((count, *shape))


def _take(buf: memoryview, offset: int, count: int, dtype: str):
    """``count`` items of ``dtype`` at ``offset``: (array view, next offset)."""
    column = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
    return column, offset + column.nbytes


def _decode_nones(buf: memoryview, offset: int, count: int):
    return [None] * count, offset


def _scalar_decoder(dtype: str):
    def decode(buf: memoryview, offset: int, count: int):
        column, offset = _take(buf, offset, count, dtype)
        return column.tolist(), offset

    return decode


def _decode_strs(buf: memoryview, offset: int, count: int):
    (size,) = _U4.unpack_from(buf, offset)
    offset += 4
    table = []
    for _ in range(size):
        (length,) = _U4.unpack_from(buf, offset)
        offset += 4
        table.append(str(buf[offset : offset + length], "utf-8"))
        offset += length
    index, offset = _take(buf, offset, count, "u1" if size <= 256 else "<u4")
    return list(map(table.__getitem__, index.tolist())), offset


def _decode_byte_strings(buf: memoryview, offset: int, count: int):
    lengths, offset = _take(buf, offset, count, "<i8")
    values = []
    for length in lengths.tolist():
        values.append(bytes(buf[offset : offset + length]))
        offset += length
    if offset > len(buf):
        raise FrameCorruptionError("truncated bytes column")
    return values, offset


def _decode_arrays(buf: memoryview, offset: int, count: int):
    dlen = buf[offset]
    try:
        dtype = np.dtype(str(buf[offset + 1 : offset + 1 + dlen], "ascii"))
    except TypeError as exc:  # cut short or garbled
        raise FrameCorruptionError("unreadable array dtype") from exc
    offset += 1 + dlen
    ndim = buf[offset]
    shape = struct.unpack_from(f"<{ndim}q", buf, offset + 1)
    offset += 1 + 8 * ndim
    matrix, offset = _take(buf, offset, count * math.prod(shape), dtype)
    matrix = matrix.reshape((count, *shape))
    # Owned copies, not views: reducers sample rows and keep a subset alive
    # across the round — a view would pin the whole block matrix and break
    # the streamed reduce's memory bound.
    if ndim:
        return [row.copy() for row in matrix], offset
    return [np.array(item, dtype=dtype) for item in matrix], offset


def _decode_tuples(buf: memoryview, offset: int, count: int):
    (arity,) = _U4.unpack_from(buf, offset)
    offset += 4
    if not arity:
        return [()] * count, offset
    columns = []
    for _ in range(arity):
        column, offset = _decode_column(buf, offset, count)
        columns.append(column)
    return list(zip(*columns)), offset


def _decode_lists(buf: memoryview, offset: int, count: int):
    lengths, offset = _take(buf, offset, count, "<i8")
    lengths = lengths.tolist()
    flat, offset = _decode_column(buf, offset, sum(lengths))
    items = iter(flat)
    return [list(islice(items, length)) for length in lengths], offset


def _decode_records(buf: memoryview, offset: int, count: int):
    record = _RECORDS_BY_TAG[buf[offset]]
    offset += 1
    columns = []
    for _ in range(record.arity):
        column, offset = _decode_column(buf, offset, count)
        columns.append(column)
    return list(map(record.make, *columns)), offset


def _decode_union(buf: memoryview, offset: int, count: int):
    size = buf[offset]
    codes = bytes(buf[offset + 1 : offset + 1 + count])
    offset += 1 + count
    columns = []
    for code in range(size):
        column, offset = _decode_column(buf, offset, codes.count(code))
        columns.append(iter(column))
    return [next(columns[code]) for code in codes], offset


def _decode_blobs(buf: memoryview, offset: int, count: int):
    lengths, offset = _take(buf, offset, count, "<i8")
    values = []
    for length in lengths.tolist():
        value, end = _decode(buf, offset)
        if end != offset + length:
            raise FrameCorruptionError("blob column entry overruns its length")
        values.append(value)
        offset = end
    return values, offset


_COLUMN_DECODERS = {
    _C_NONE: _decode_nones,
    _C_BOOL: _scalar_decoder("?"),
    _C_INT: _scalar_decoder("<i8"),
    _C_FLOAT: _scalar_decoder("<f8"),
    _C_STR: _decode_strs,
    _C_BYTES: _decode_byte_strings,
    _C_ARRAY: _decode_arrays,
    _C_TUPLE: _decode_tuples,
    _C_LIST: _decode_lists,
    _C_RECORD: _decode_records,
    _C_UNION: _decode_union,
    _C_BLOB: _decode_blobs,
}


def _decode_column(buf: memoryview, offset: int, count: int):
    return _COLUMN_DECODERS[buf[offset]](buf, offset + 1, count)


def decode_block(data: bytes | memoryview) -> list:
    """Inverse of :func:`encode_block`.  The whole buffer must be one block;
    anything else — a short buffer, an unknown tag, trailing bytes — is a
    :class:`FrameCorruptionError`."""
    buf = memoryview(data)
    try:
        (count,) = _U4.unpack_from(buf, 0)
        values, end = _decode_column(buf, _U4.size, count)
    except (ValueError, IndexError, KeyError, StopIteration, struct.error) as exc:
        raise FrameCorruptionError(f"undecodable value block: {exc}") from exc
    if end != len(buf):
        raise FrameCorruptionError(f"{len(buf) - end} trailing bytes after value block")
    return values


def approx_nbytes(value) -> int:
    """Roughly what ``value`` adds to a block, without encoding it: array
    and byte-string sizes are exact, everything else a flat 8 bytes.  A
    pure function of the value, so a spill writer that budgets with it
    flushes at the same records on every re-execution."""
    kind = type(value)
    if kind is tuple or kind is list:
        total = 8
        for item in value:  # leaves sized inline: this runs once per shuffled record
            kind = type(item)
            if kind is int or kind is float or item is None:
                total += 8
            elif kind is np.ndarray:
                total += 8 + item.nbytes
            elif kind is bytes or kind is str:
                total += 8 + len(item)
            else:
                record = _RECORDS_BY_CLS.get(kind)
                total += approx_nbytes(item) if record is None else record.nbytes(item)
        return total
    if kind is np.ndarray:
        return 8 + value.nbytes
    if kind is bytes or kind is str:
        return 8 + len(value)
    record = _RECORDS_BY_CLS.get(kind)
    return 8 if record is None else record.nbytes(value)


def _record_sizer(fields_of: Callable) -> Callable:
    """:func:`approx_nbytes` for one record class, built when the class is
    registered: the declared fields are sized in one loop — no type dispatch
    on the record, no registry lookup, and no call at all for scalar, array
    and byte-string fields."""

    def nbytes(record) -> int:
        total = 8
        for item in fields_of(record):
            kind = type(item)
            if kind is int or kind is float or item is None:
                total += 8
            elif kind is np.ndarray:
                total += 8 + item.nbytes
            elif kind is bytes or kind is str:
                total += 8 + len(item)
            else:
                total += approx_nbytes(item)
        return total

    return nbytes


# ------------------------------------------------------------- frame streams
STREAM_MAGIC = b"AGLS"
_STREAM_VERSION = 3  # v3: every spill frame is a chunk of key groups (mapreduce.spill)
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
    """Yield ``(key, payload)`` frames from an open binary file.

    Reads one frame at a time — memory is bounded by the largest single
    frame (in a spill run: one chunk), never by the file size.  Every
    frame's CRC32 trailer is verified before the frame is yielded, so a
    flipped bit anywhere in key or payload (or a truncated tail) raises
    :class:`FrameCorruptionError` instead of feeding the reducer bad input.
    """
    while True:
        frame = read_frame(fh)
        if frame is None:
            return
        yield frame
