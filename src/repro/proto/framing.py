"""Shuffle-record codec: tagged binary values, column blocks, CRC frames.

AGL's C++ GraphFlat avoids Python-style per-object serialization by shuffling
flat protobuf records (§3.2).  This module is the equivalent discipline for
our spill shuffle, in three layers:

* **Value codec** — ``encode_value`` / ``decode_value``: a self-describing
  encoding of *one* value — ``None``, bools, ints (ZigZag varints), floats
  (raw little-endian float64), strings, bytes, tuples, lists, numpy arrays
  (dtype string + shape + raw block) and registered records.  Pipeline
  record types (GraphFlat's ``SubgraphInfo``/``InEdgeInfo``, GraphInfer's
  embedding record) plug in through :func:`register_record` (or
  :func:`register_ragged`) by *declaring their fields once*; both this
  per-record form and the column form below derive from the declaration.
  ``repro.proto`` never imports ``repro.core`` — the module that defines a
  record registers it.

* **Block codec** — the unit of spill I/O, split at its seam: a block is
  a :class:`Column` of values written out (:func:`encode_columns` /
  :func:`decode_columns`: columns <-> bytes, no per-value Python call), and
  value objects are one adapter away from a column (:func:`columnize` /
  :meth:`Column.rows`: objects <-> columns).  ``encode_block`` /
  ``decode_block`` are the two halves composed — one wire format, written
  the same whether a producer hands over objects or builds the columns
  itself (the propagation engine gathers its columns from arrays).  A
  column is one tag byte plus a body chosen from what the values are:

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
  ragged     records of a :func:`register_ragged` class: heads, per level
             the per-record row counts and each member's rows of every
             record end to end — int columns at the narrowest of
             ``i1``/``i2``/``i4``/``i8`` holding them, rows as an array
             column, no header per record
  union      the *kind column* (one ``u1`` code per value, codes in order
             of first appearance) + one column per kind — mixed types,
             mixed tuple arities; decoding re-interleaves by code
  blob       fallback: ``<i8`` lengths + concatenated ``encode_value``
             bodies — ragged arrays, and any other value with a value
             encoding but no column form; a value with neither (an
             unregistered class, an int beyond 64 bits) raises a
             ``TypeError`` naming its type
  ========== ==========================================================

  Headers are fixed-width ``<I`` words, so a block costs a few dozen numpy
  calls however many values it holds.  Columns are canonical (kinds and
  strings numbered by first appearance), so any column — decoded,
  gathered from others with :meth:`Column.take`, joined with
  :func:`concat_columns` — writes exactly the block of its rows.  Decoded
  arrays and scalars view the block; a reducer that keeps rows gathers
  (copies) just those, so what stays resident is its batch, not a block
  per kept row.

* **Frame streams** — a spill file is ``AGLS | version | codec-id`` (always
  ``1``, the column block; any other byte is corruption) followed by
  ``varint(len(key)) key varint(len(payload)) payload crc32`` frames.
  In a spill run (version 4) every frame is a *chunk* of key groups: the
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
a job's output is byte-identical whether its shuffle stayed in memory or
spilled binary blocks — tests assert this for the full pipelines.  Nothing
here ever unpickles: ``decode_value`` also parses the parameter server's and
the TCP transport's wire messages.
"""

from __future__ import annotations

import math
import operator
import struct
import zlib
from collections.abc import Callable
from itertools import chain, compress, islice
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from repro.proto.varint import decode_signed, decode_unsigned, encode_signed, encode_unsigned

__all__ = [
    "ArrayColumn",
    "BlobColumn",
    "BytesColumn",
    "Column",
    "FrameCorruptionError",
    "GatherColumn",
    "ListColumn",
    "NoneColumn",
    "RaggedBlock",
    "RaggedColumn",
    "RecordColumn",
    "STREAM_MAGIC",
    "ScalarColumn",
    "StrColumn",
    "TupleColumn",
    "UnionColumn",
    "approx_nbytes",
    "columnize",
    "concat_columns",
    "decode_block",
    "decode_columns",
    "decode_value",
    "encode_block",
    "encode_columns",
    "encode_value",
    "gather",
    "iter_frames",
    "read_frame",
    "read_stream_header",
    "register_ragged",
    "register_record",
    "union_of",
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
    levels: tuple | None = None  # a ragged record's member names per level


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
    plus each field as a value; in a block, one column per field.
    Registration lives next to the class definition, so any process that
    can *construct* the record (e.g. a worker that unpickled a job whose
    operators emit it) can also decode it.
    """
    if not fields:
        raise ValueError(f"record {cls.__name__} must declare at least one field")
    fields_of = attrgetter(*fields)
    if len(fields) == 1:  # attrgetter of one name returns the bare value
        fields_of = lambda record, get=fields_of: (get(record),)  # noqa: E731
    _register(_RecordCodec(
        tag, cls, fields_of, len(fields), cls if make is None else make,
        _record_sizer(fields_of),
    ))


def register_ragged(
    tag: int, cls: type, levels: tuple[tuple[str, ...], ...], parts: Callable, make: Callable
) -> None:
    """Register ``cls`` under ``tag`` as a *ragged* record (idempotent per
    class): an int head, and per level of ``levels`` member arrays that
    share one row count per record — a neighborhood's node rows and its
    edge rows, say.  ``levels`` names each level's members (a level's first
    member is never absent: its length is the level's row count);
    ``parts(record)`` is ``(head, *members)``, level by level, and
    ``make(head, *members)`` rebuilds a record from them.

    In a block, records of the class are one :class:`RaggedColumn`: the
    heads, each level's row counts, and each member's rows of every record
    end to end — int members narrowed once per block, no header per
    record.  Alone, a record is its tag and a one-record block."""
    names = [name for level in levels for name in level]
    _register(_RecordCodec(
        tag, cls, parts, 1 + len(names), make, _record_sizer(parts), tuple(map(tuple, levels))
    ))


def _register(codec: _RecordCodec) -> None:
    tag, cls = codec.tag, codec.cls
    if tag < _FIRST_RECORD_TAG or tag > 0xFF:
        raise ValueError(f"record tag must be in [{_FIRST_RECORD_TAG:#x}, 0xff], got {tag:#x}")
    existing = _RECORDS_BY_TAG.get(tag)
    if existing is not None and existing.cls is not cls:
        raise ValueError(
            f"record tag {tag:#x} already registered for {existing.cls.__name__}"
        )
    _RECORDS_BY_TAG[tag] = codec
    _RECORDS_BY_CLS[cls] = codec


# ------------------------------------------------------------- value encoding
def _encode(value, out: bytearray) -> None:
    record = _RECORDS_BY_CLS.get(type(value))
    if record is not None:
        out.append(record.tag)
        if record.levels is not None:
            block = bytearray()
            RaggedColumn.of_records(record, [value])._encode(block)
            out += encode_unsigned(len(block))
            out += block
            return
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
                f"int {value} exceeds the binary wire form's 64-bit range"
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
            "form; declare its fields with register_record()"
        )


def _encode_array(arr: np.ndarray, out: bytearray) -> None:
    if arr.dtype.hasobject:
        raise TypeError("object-dtype arrays cannot be binary-encoded")
    # The dtype string records the byte order ('<f4', '>f8', '|b1'), and
    # tobytes() emits raw bytes in that same order — so arrays round-trip
    # dtype-exactly, big-endian included.
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
    if record is not None and record.levels is not None:
        length, offset = decode_unsigned(buf, offset)
        end = offset + length
        if end > len(buf):
            raise FrameCorruptionError("truncated ragged record")
        column, stop = _read(buf[:end], offset, 1)
        if stop != end or type(column) is not RaggedColumn:
            raise FrameCorruptionError("ragged record disagrees with its length")
        return column.rows()[0], end
    if record is not None:
        values = []
        for _ in range(record.arity):
            value, offset = _decode(buf, offset)
            values.append(value)
        return record.make(*values), offset
    raise FrameCorruptionError(f"unknown value tag {tag:#x} at offset {offset - 1}")


def _parse_dtype(text: memoryview) -> np.dtype:
    """The dtype a block names; a garbled name (numpy parses some of them
    as Python literals) is a :class:`FrameCorruptionError`."""
    try:
        return np.dtype(str(text, "ascii"))
    except (TypeError, ValueError, SyntaxError) as exc:  # cut short or garbled
        raise FrameCorruptionError("unreadable array dtype") from exc


def _decode_array(buf: memoryview, offset: int):
    dlen, offset = decode_unsigned(buf, offset)
    dtype = _parse_dtype(buf[offset : offset + dlen])
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
_C_RAGGED = 0x0C

_U4 = struct.Struct("<I")
_SCALARS = {bool: (_C_BOOL, "?"), int: (_C_INT, "<i8"), float: (_C_FLOAT, "<f8")}


def _object_array(values) -> np.ndarray:
    return np.fromiter(values, dtype=object, count=len(values))


def _first_appearance(codes: np.ndarray, size: int) -> tuple[list[int], np.ndarray]:
    """``(order, codes)``: the codes ``codes`` uses, in order of first
    appearance, and ``codes`` renumbered along that order."""
    if size == 1 or not len(codes):
        return ([0] if len(codes) else []), codes
    if size == 2:
        head = int(codes[0])
        if not (codes != head).any():
            return [head], np.zeros(len(codes), dtype=np.int64)
        return ([0, 1], codes) if head == 0 else ([1, 0], 1 - codes)
    first = np.full(size, len(codes), dtype=np.int64)
    np.minimum.at(first, codes, np.arange(len(codes)))
    order = [code for code in np.argsort(first, kind="stable").tolist() if first[code] < len(codes)]
    if order == list(range(size)):
        return order, codes
    renumber = np.zeros(size, dtype=np.int64)
    renumber[order] = np.arange(len(order))
    return order, renumber[codes]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``starts[i] .. starts[i] + lengths[i]`` for every ``i``, end to end."""
    total = int(lengths.sum())
    if not total:
        return np.zeros(0, dtype=np.int64)
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(total)


class Column:
    """A block's values held column-wise: the codec's in-memory form.

    A column encodes without visiting a value (:func:`encode_columns`), is
    what :func:`decode_columns` reads, and converts to and from the value
    objects (:meth:`rows`, :func:`columnize`).  Columns are canonical —
    kinds and strings numbered by first appearance, no empty kind — so
    ``encode_columns(column) == encode_block(column.rows())`` however the
    column was built: decoded, columnized, gathered with :meth:`take`, or
    joined with :func:`concat_columns`.  ``kind`` is the type of the values
    (``None``: several)."""

    __slots__ = ("count",)
    kind: type | None = None

    def __len__(self) -> int:
        return self.count

    def take(self, rows: np.ndarray) -> "Column":
        """The values at the indices ``rows``, in that order."""
        raise NotImplementedError

    def rows(self) -> list:
        """The values as objects."""
        raise NotImplementedError

    def materialized(self) -> "Column":
        """The same values in a form that holds them itself."""
        return self

    def _encode(self, out: bytearray) -> None:
        """Tag and body; only called with values to write."""
        raise NotImplementedError

    def _concat(self, columns: list) -> "Column | None":
        """``columns`` (this class, at least two) end to end, or ``None``
        when they have no common column form."""
        return None


class NoneColumn(Column):
    __slots__ = ()
    kind = type(None)

    def __init__(self, count: int):
        self.count = count

    def take(self, rows):
        return NoneColumn(len(rows))

    def rows(self):
        return [None] * self.count

    def _encode(self, out):
        out.append(_C_NONE)

    def _concat(self, columns):
        return NoneColumn(sum(map(len, columns)))


class ScalarColumn(Column):
    """Bools, ints or floats as one ``?`` / ``<i8`` / ``<f8`` array."""

    __slots__ = ("kind", "values")

    def __init__(self, kind: type, values: np.ndarray):
        self.kind, self.values, self.count = kind, values, len(values)

    def take(self, rows):
        return ScalarColumn(self.kind, self.values[rows])

    def rows(self):
        return self.values.tolist()

    def _encode(self, out):
        tag, dtype = _SCALARS[self.kind]
        out.append(tag)
        out += self.values.astype(dtype, copy=False).tobytes()

    def _concat(self, columns):
        if any(column.kind is not self.kind for column in columns):
            return None
        return ScalarColumn(self.kind, np.concatenate([column.values for column in columns]))


class StrColumn(Column):
    """Strings as a table (in order of first appearance) and a code per value."""

    __slots__ = ("table", "codes")
    kind = str

    def __init__(self, table: list[str], codes: np.ndarray):
        self.table, self.codes, self.count = table, codes, len(codes)

    @classmethod
    def of(cls, table: list[str], codes: np.ndarray) -> "StrColumn":
        """The strings ``table[codes]``, canonically."""
        order, codes = _first_appearance(codes, len(table))
        return cls([table[i] for i in order], codes)

    def take(self, rows):
        return StrColumn.of(self.table, self.codes[rows])

    def rows(self):
        return list(map(self.table.__getitem__, self.codes.tolist()))

    def _encode(self, out):
        out.append(_C_STR)
        out += _U4.pack(len(self.table))
        for text in self.table:
            raw = text.encode("utf-8")
            out += _U4.pack(len(raw))
            out += raw
        out += self.codes.astype("u1" if len(self.table) <= 256 else "<u4").tobytes()

    def _concat(self, columns):
        index: dict[str, int] = {}
        parts = []
        for column in columns:
            table = column.table
            renumber = np.fromiter(
                (index.setdefault(text, len(index)) for text in table), np.int64, len(table)
            )
            parts.append(renumber[column.codes])
        return StrColumn(list(index), np.concatenate(parts))


class BytesColumn(Column):
    __slots__ = ("values",)
    kind = bytes

    def __init__(self, values: np.ndarray):
        self.values, self.count = values, len(values)

    def take(self, rows):
        return BytesColumn(self.values[rows])

    def rows(self):
        return self.values.tolist()

    def _encode(self, out):
        values = self.values.tolist()
        out.append(_C_BYTES)
        out += np.fromiter(map(len, values), dtype="<i8", count=len(values)).tobytes()
        out += b"".join(values)

    def _concat(self, columns):
        return BytesColumn(np.concatenate([column.values for column in columns]))


class ArrayColumn(Column):
    """Arrays of one dtype and shape as one ``(count, *shape)`` matrix."""

    __slots__ = ("matrix",)
    kind = np.ndarray

    def __init__(self, matrix: np.ndarray):
        self.matrix, self.count = matrix, len(matrix)

    def take(self, rows):
        return ArrayColumn(self.matrix[rows])

    def rows(self):
        matrix = self.matrix if self.matrix.flags.writeable else self.matrix.copy()
        if matrix.ndim > 1:
            return list(matrix)
        return [np.array(item, dtype=matrix.dtype) for item in matrix]

    def _encode(self, out):
        # The dtype string records the byte order, and tobytes() emits raw
        # bytes in that same order — dtype-exact, big-endian included.
        matrix = self.matrix
        dtype_str = matrix.dtype.str.encode("ascii")
        shape = matrix.shape[1:]
        out.append(_C_ARRAY)
        out.append(len(dtype_str))
        out += dtype_str
        out.append(len(shape))
        out += struct.pack(f"<{len(shape)}q", *shape)
        out += np.ascontiguousarray(matrix).tobytes()

    def _concat(self, columns):
        dtype, shape = self.matrix.dtype, self.matrix.shape[1:]
        if any(c.matrix.dtype != dtype or c.matrix.shape[1:] != shape for c in columns):
            return None
        return ArrayColumn(np.concatenate([column.matrix for column in columns]))


class TupleColumn(Column):
    """Tuples of one arity: one column per position."""

    __slots__ = ("children",)
    kind = tuple

    def __init__(self, children: list[Column], count: int):
        self.children, self.count = children, count

    def take(self, rows):
        return TupleColumn([child.take(rows) for child in self.children], len(rows))

    def rows(self):
        if not self.children:
            return [()] * self.count
        return list(zip(*(child.rows() for child in self.children)))

    def materialized(self):
        children = [child.materialized() for child in self.children]
        if all(map(operator.is_, children, self.children)):
            return self
        return TupleColumn(children, self.count)

    def _encode(self, out):
        out.append(_C_TUPLE)
        out += _U4.pack(len(self.children))
        for child in self.children:
            _put(child, out)

    def _concat(self, columns):
        if any(len(column.children) != len(self.children) for column in columns):
            return None
        return TupleColumn(
            [concat_columns(list(parts)) for parts in zip(*(c.children for c in columns))],
            sum(map(len, columns)),
        )


class ListColumn(Column):
    """Lists: their lengths and one column of their items end to end."""

    __slots__ = ("lengths", "items")
    kind = list

    def __init__(self, lengths: np.ndarray, items: Column):
        self.lengths, self.items, self.count = lengths, items, len(lengths)

    def take(self, rows):
        lengths = self.lengths[rows]
        starts = (np.cumsum(self.lengths) - self.lengths)[rows]
        return ListColumn(lengths, self.items.take(_ranges(starts, lengths)))

    def rows(self):
        items = iter(self.items.rows())
        return [list(islice(items, length)) for length in self.lengths.tolist()]

    def materialized(self):
        items = self.items.materialized()
        return self if items is self.items else ListColumn(self.lengths, items)

    def _encode(self, out):
        out.append(_C_LIST)
        out += self.lengths.astype("<i8", copy=False).tobytes()
        _put(self.items, out)

    def _concat(self, columns):
        return ListColumn(
            np.concatenate([column.lengths for column in columns]),
            concat_columns([column.items for column in columns]),
        )


class RecordColumn(Column):
    """Registered records of one class: one column per declared field."""

    __slots__ = ("record", "fields")

    def __init__(self, record: _RecordCodec, fields: list[Column], count: int):
        self.record, self.fields, self.count = record, fields, count

    @classmethod
    def of(cls, record_cls: type, fields: list[Column]) -> "RecordColumn":
        """Records of the registered class ``record_cls``, from one column
        per declared field."""
        return cls(_RECORDS_BY_CLS[record_cls], fields, len(fields[0]))

    @property
    def kind(self):
        return self.record.cls

    def take(self, rows):
        return RecordColumn(self.record, [field.take(rows) for field in self.fields], len(rows))

    def rows(self):
        return list(map(self.record.make, *(field.rows() for field in self.fields)))

    def materialized(self):
        fields = [field.materialized() for field in self.fields]
        if all(map(operator.is_, fields, self.fields)):
            return self
        return RecordColumn(self.record, fields, self.count)

    def _encode(self, out):
        out.append(_C_RECORD)
        out.append(self.record.tag)
        for field in self.fields:
            _put(field, out)

    def _concat(self, columns):
        if any(column.record is not self.record for column in columns):
            return None
        return RecordColumn(
            self.record,
            [concat_columns(list(parts)) for parts in zip(*(c.fields for c in columns))],
            sum(map(len, columns)),
        )


class UnionColumn(Column):
    """Values of several kinds — types, or tuple arities: one ``u1`` code
    per value (codes in order of first appearance) and one column per kind,
    each holding that kind's values in order.  Always of two kinds or more:
    :func:`union_of` collapses the rest."""

    __slots__ = ("codes", "children", "_positions")

    def __init__(self, codes: np.ndarray, children: list[Column]):
        self.codes, self.children, self.count = codes, children, len(codes)
        self._positions = None

    @property
    def kind(self):
        if all(type(child) is TupleColumn for child in self.children):
            return tuple  # a union of tuple arities
        return None

    def positions(self) -> np.ndarray:
        """Each value's index within its kind's column."""
        if self._positions is None:
            positions = np.empty(self.count, dtype=np.int64)
            for code in range(len(self.children)):
                at = np.flatnonzero(self.codes == code)
                positions[at] = np.arange(len(at))
            self._positions = positions
        return self._positions

    def take(self, rows):
        codes = self.codes[rows]
        positions = self.positions()[rows]
        return union_of(
            codes,
            [child.take(positions[codes == code]) for code, child in enumerate(self.children)],
        )

    def rows(self):
        kinds = [iter(child.rows()) for child in self.children]
        return [next(kinds[code]) for code in self.codes.tolist()]

    def materialized(self):
        children = [child.materialized() for child in self.children]
        if all(map(operator.is_, children, self.children)):
            return self
        return UnionColumn(self.codes, children)

    def _encode(self, out):
        out.append(_C_UNION)
        out.append(len(self.children))
        out += self.codes.astype(np.uint8, copy=False).tobytes()
        for child in self.children:
            _put(child, out)

    @staticmethod
    def _join(columns: list[Column]) -> "Column | None":
        """Unions (and single-kind columns) end to end, kind by kind."""
        arities = all(column.kind is tuple for column in columns)
        keys: dict = {}
        parts: list[tuple[int, Column]] = []
        codes = []
        for column in columns:
            if type(column) is UnionColumn and (arities or column.kind is not tuple):
                children, own = column.children, column.codes
            else:
                children, own = [column], np.zeros(len(column), dtype=np.int64)
            ids = []
            for child in children:
                if arities:
                    if type(child) is not TupleColumn:
                        return None
                    key = len(child.children)
                else:
                    key = child.kind
                    if key is None:
                        return None
                ids.append(keys.setdefault(key, len(keys)))
                parts.append((ids[-1], child))
            codes.append(np.asarray(ids, dtype=np.int64)[own])
        if len(keys) > 255:
            return None
        return union_of(
            np.concatenate(codes),
            [concat_columns([c for k, c in parts if k == key]) for key in range(len(keys))],
        )


def union_of(codes: np.ndarray, children: list[Column]) -> Column:
    """The values ``children[codes[i]]`` in turn, canonically: kinds with no
    value dropped, renumbered by first appearance, and a single kind as its
    own column."""
    present = [code for code, child in enumerate(children) if len(child)]
    if not present:
        return NoneColumn(len(codes))
    if len(present) == 1:
        return children[present[0]]
    order, codes = _first_appearance(codes, len(children))
    return UnionColumn(codes.astype(np.uint8), [children[code] for code in order])


class BlobColumn(Column):
    """The fallback: values with no column form (ragged arrays,
    out-of-range ints, unregistered types), encoded one by one."""

    __slots__ = ("values", "kind")

    def __init__(self, values: list):
        self.values, self.count = values, len(values)
        kinds = set(map(type, values))
        self.kind = kinds.pop() if len(kinds) == 1 else None

    def take(self, rows):
        # the taken rows may have a column form the whole has not: ragged
        # arrays of which the taken ones share a shape, say, or ints that
        # all fit in 64 bits
        return columnize(list(map(self.values.__getitem__, rows.tolist())))

    def rows(self):
        return list(self.values)

    def _encode(self, out):
        blobs = list(map(encode_value, self.values))
        out.append(_C_BLOB)
        out += np.fromiter(map(len, blobs), dtype="<i8", count=len(blobs)).tobytes()
        out += b"".join(blobs)

    def _concat(self, columns):
        if self.kind is None or any(column.kind is not self.kind for column in columns):
            return None
        return BlobColumn(list(chain.from_iterable(column.values for column in columns)))


class RaggedBlock(NamedTuple):
    """Records of a ragged class (:func:`register_ragged`) end to end:
    record ``i`` has the head ``heads[i]`` and, at level ``l``, the rows
    ``offsets[l][i]:offsets[l][i + 1]`` of each member of ``members[l]``.
    A member is ``(rows,) int64`` ints, rows of any other array, or ``None``
    (absent) — as every rows member of a level with no rows is."""

    heads: np.ndarray
    offsets: tuple
    members: tuple


def _is_ints(member) -> bool:
    return member is not None and member.ndim == 1 and member.dtype == np.int64


def _ragged_block(heads, offsets, members) -> RaggedBlock:
    """A block in canonical form: rows members of empty levels absent."""
    levels = []
    for ends, level in zip(offsets, members):
        if not ends[-1]:
            level = [m if _is_ints(m) else None for m in level]
        levels.append(tuple(level))
    return RaggedBlock(heads, tuple(offsets), tuple(levels))


def _member_form(name: str, parts: list, counts: list[int]):
    """What one member's rows over ``parts`` (arrays, or ``None``) holding
    ``counts`` rows each are: a part whose dtype and row shape every part
    with rows shares, an empty int column, or ``None`` (absent).  Rows of
    different dtypes or shapes, or a member some parts with rows lack, are
    a ``ValueError`` naming the member."""
    form, absent = None, False
    for part, count in zip(parts, counts):
        if not count:
            continue
        if (part is None) != absent and (form is not None or absent):
            raise ValueError(f"{name}: some records have it and some not")
        if part is None:
            absent = True
        elif form is None:
            form = part
        elif part.dtype != form.dtype or part.shape[1:] != form.shape[1:]:
            raise ValueError(f"{name}: rows differ in dtype or shape across records")
    if form is None and not absent and _is_ints(parts[0]):
        return parts[0][:0]  # no rows at all: an empty int column
    return form


class RaggedColumn(Column):
    """Records of a ragged class (:func:`register_ragged`) as references
    into blocks: row ``j`` is record ``index[j]`` of ``blocks[which[j]]``.
    A decoded chunk, or a merge's output, is one block whose records are
    the rows in order; :meth:`take` and :func:`concat_columns` move row
    references only, and :meth:`block` gathers the rows into one block —
    what is encoded — with one ranged copy per block and member.  Sizes
    (:meth:`sizes`) come from the offsets, one array expression per block."""

    __slots__ = ("record", "blocks", "which", "index")

    def __init__(self, record: _RecordCodec, blocks: list, which: np.ndarray, index: np.ndarray):
        self.record, self.blocks, self.which, self.index = record, blocks, which, index
        self.count = len(index)

    @classmethod
    def of(cls, record_cls: type, heads, offsets, members) -> "RaggedColumn":
        """Every record of one block of the ragged class ``record_cls``, in
        order: ``offsets`` and ``members`` per level, as :class:`RaggedBlock`."""
        block = _ragged_block(np.asarray(heads, dtype=np.int64), offsets, members)
        return cls._of_block(_RECORDS_BY_CLS[record_cls], block)

    @classmethod
    def _of_block(cls, record: _RecordCodec, block: RaggedBlock) -> "RaggedColumn":
        count = len(block.heads)
        return cls(record, [block], np.zeros(count, dtype=np.int64), np.arange(count))

    @classmethod
    def of_records(cls, record: _RecordCodec, values: list) -> "RaggedColumn":
        """The column form of record objects (one pass over them)."""
        parts = list(map(record.fields_of, values))
        heads = np.fromiter((part[0] for part in parts), dtype=np.int64, count=len(parts))
        offsets, members, field = [], [], 1
        for names in record.levels:
            counts = [len(part[field]) for part in parts]
            ends = np.zeros(len(parts) + 1, dtype=np.int64)
            np.cumsum(counts, out=ends[1:])
            offsets.append(ends)
            level = []
            for j, name in enumerate(names):
                column = [part[field + j] for part in parts]
                form = _member_form(name, column, counts)
                if form is not None and len(form):
                    form = np.concatenate([m for m, count in zip(column, counts) if count])
                level.append(form)
            members.append(level)
            field += len(names)
        return cls._of_block(record, _ragged_block(heads, offsets, members))

    @property
    def kind(self):
        return self.record.cls

    def take(self, rows):
        return RaggedColumn(self.record, self.blocks, self.which[rows], self.index[rows])

    def sizes(self) -> np.ndarray:
        """Each row's bytes in memory: its rows of every member (ints at
        8 bytes)."""
        per_block = []
        for block in self.blocks:
            total = np.zeros(len(block.heads), dtype=np.int64)
            for ends, members in zip(block.offsets, block.members):
                row = 0
                for m in members:
                    if m is not None:
                        row += m.itemsize * math.prod(m.shape[1:])
                total += row * np.diff(ends)
            per_block.append(total)
        if len(per_block) == 1:
            return per_block[0][self.index]
        base = np.cumsum([0] + [len(sizes) for sizes in per_block[:-1]])
        return np.concatenate(per_block)[base[self.which] + self.index]

    def approx_sizes(self) -> np.ndarray:
        """Each row's :func:`approx_nbytes`: its :meth:`sizes` and 8 bytes
        for the record, its head and each member."""
        return self.sizes() + 8 * (self.record.arity + 1)

    def block(self) -> RaggedBlock:
        """The rows as one block, in row order."""
        blocks, index, count = self.blocks, self.index, self.count
        if len(blocks) > 1:
            return self._gathered()
        block = blocks[0]
        if count == len(block.heads) and np.array_equal(index, np.arange(count)):
            return block
        offsets, members = [], []
        for starts, level in zip(block.offsets, block.members):
            lengths = np.diff(starts)[index]
            ends = np.zeros(count + 1, dtype=np.int64)
            np.cumsum(lengths, out=ends[1:])
            source = _ranges(starts[index], lengths)
            offsets.append(ends)
            members.append([None if m is None else m[source] for m in level])
        return _ragged_block(block.heads[index], offsets, members)

    def _gathered(self) -> RaggedBlock:
        """:meth:`block` of rows of several blocks: per block, one ranged
        copy of each member into its rows' places."""
        blocks, index, count = self.blocks, self.index, self.count
        order = np.argsort(self.which, kind="stable")
        bounds = np.searchsorted(self.which[order], np.arange(len(blocks) + 1)).tolist()
        picks = []  # (block, its records, the rows they are)
        for k, block in enumerate(blocks):
            if bounds[k + 1] > bounds[k]:
                at = order[bounds[k] : bounds[k + 1]]
                picks.append((block, index[at], at))
        heads = np.empty(count, dtype=np.int64)
        for block, records, at in picks:
            heads[at] = block.heads[records]
        offsets, members = [], []
        for level, names in enumerate(self.record.levels):
            lengths = np.empty(count, dtype=np.int64)
            for block, records, at in picks:
                lengths[at] = np.diff(block.offsets[level])[records]
            ends = np.zeros(count + 1, dtype=np.int64)
            np.cumsum(lengths, out=ends[1:])
            moves = []  # per pick: (its rows in its block, their places)
            for block, records, at in picks:
                moves.append((
                    _ranges(block.offsets[level][records], lengths[at]),
                    _ranges(ends[at], lengths[at]),
                ))
            level_members = []
            for j, name in enumerate(names):
                parts = [block.members[level][j] for block, _, _ in picks]
                member = _member_form(name, parts, [len(source) for source, _ in moves])
                if member is not None and len(member):
                    member = np.empty((int(ends[-1]), *member.shape[1:]), dtype=member.dtype)
                    for part, (source, target) in zip(parts, moves):
                        if len(source):
                            member[target] = part[source]
                level_members.append(member)
            offsets.append(ends)
            members.append(level_members)
        return _ragged_block(heads, offsets, members)

    def rows(self):
        block = self.block()
        make = self.record.make
        spans = [offsets.tolist() for offsets in block.offsets]
        values = []
        for i, head in enumerate(block.heads.tolist()):
            fields = []
            for level, members in zip(spans, block.members):
                a, b = level[i], level[i + 1]
                fields += [None if m is None else m[a:b] for m in members]
            values.append(make(head, *fields))
        return values

    def _encode(self, out):
        block = self.block()
        out.append(_C_RAGGED)
        out.append(self.record.tag)
        _put_ints(block.heads, out)
        for offsets, members in zip(block.offsets, block.members):
            _put_ints(np.diff(offsets), out)
            for member in members:
                if member is None:
                    out.append(_M_ABSENT)
                elif member.ndim == 1 and member.dtype == np.int64:
                    _put_ints(member, out)
                else:
                    ArrayColumn(member)._encode(out)

    def _concat(self, columns):
        if any(column.record is not self.record for column in columns):
            return None
        numbers: dict[int, int] = {}
        blocks, which = [], []
        for column in columns:
            renumber = []
            for block in column.blocks:
                if id(block) not in numbers:
                    numbers[id(block)] = len(blocks)
                    blocks.append(block)
                renumber.append(numbers[id(block)])
            which.append(np.asarray(renumber, dtype=np.int64)[column.which])
        return RaggedColumn(
            self.record, blocks, np.concatenate(which),
            np.concatenate([column.index for column in columns]),
        )


_INT_WIDTHS = ("<i1", "<i2", "<i4", "<i8")
_M_ABSENT = 0x00
"""Ragged member kinds: absent, ints (``1 + width code``), or rows (an
array column, :data:`_C_ARRAY`)."""


def _width_code(values: np.ndarray) -> int:
    """Index in :data:`_INT_WIDTHS` of the narrowest width holding ``values``."""
    if not len(values):
        return 0
    low, high = int(values.min()), int(values.max())
    bits = max(high.bit_length() if high > 0 else 0, (~low).bit_length() if low < 0 else 0)
    return 0 if bits < 8 else 1 if bits < 16 else 2 if bits < 32 else 3


def _put_ints(values: np.ndarray, out: bytearray) -> None:
    code = _width_code(values)
    out.append(1 + code)
    out += values.astype(_INT_WIDTHS[code]).tobytes()


def _read_ints(buf, offset: int, count: int):
    kind = buf[offset]
    if not 1 <= kind <= len(_INT_WIDTHS):
        raise ValueError(f"int column kind {kind} names no int width")
    values, offset = _view(buf, offset + 1, count, _INT_WIDTHS[kind - 1])
    values = values.astype(np.int64)
    if _width_code(values) != kind - 1:
        raise ValueError("int column wider than its values need")
    return values, offset


def _read_ragged(buf, offset, count):
    record = _RECORDS_BY_TAG[buf[offset]]
    if record.levels is None:
        raise ValueError(f"record tag {record.tag:#x} has no ragged form")
    heads, offset = _read_ints(buf, offset + 1, count)
    offsets, members = [], []
    for names in record.levels:
        lengths, offset = _read_ints(buf, offset, count)
        if count and lengths.min() < 0:
            raise ValueError("negative row count")
        ends = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(lengths, out=ends[1:])
        total = int(ends[-1])
        level = []
        for _ in names:
            kind = buf[offset]
            if kind == _M_ABSENT:
                member, offset = None, offset + 1
            elif kind == _C_ARRAY:
                column, offset = _read_arrays(buf, offset + 1, total)
                member = column.matrix
                if not total or (member.ndim == 1 and member.dtype == np.int64):
                    raise ValueError("rows member in a non-canonical form")
            else:
                member, offset = _read_ints(buf, offset, total)
            level.append(member)
        offsets.append(ends)
        members.append(tuple(level))
    block = RaggedBlock(heads, tuple(offsets), tuple(members))
    return RaggedColumn._of_block(record, block), offset


class GatherColumn(Column):
    """Rows ``index`` of a base column, gathered only when encoded or
    materialized: many values that are one value each — a node's
    information on every out-edge.  Under :meth:`rows` every occurrence of
    a base row is one object, as with the value objects themselves."""

    __slots__ = ("base", "index")

    def __init__(self, base: "Column | list", index: np.ndarray):
        # the base column and its rows once built, shared by every gather of it
        self.base = base if type(base) is list else [base, None]
        self.index, self.count = index, len(index)

    @property
    def kind(self):
        return self.base[0].kind

    def take(self, rows):
        return GatherColumn(self.base, self.index[rows])

    def rows(self):
        if self.base[1] is None:
            self.base[1] = self.base[0].rows()
        return list(map(self.base[1].__getitem__, self.index.tolist()))

    def materialized(self):
        return self.base[0].take(self.index)

    def _encode(self, out):
        self.base[0].take(self.index)._encode(out)

    def _concat(self, columns):
        if any(column.base is not self.base for column in columns):
            return concat_columns([column.materialized() for column in columns])
        return GatherColumn(self.base, np.concatenate([column.index for column in columns]))


def concat_columns(columns: list[Column]) -> Column:
    """``columns`` end to end, as one canonical column."""
    columns = [column for column in columns if len(column)]
    if not columns:
        return NoneColumn(0)
    if len(columns) == 1:
        return columns[0]
    first = columns[0]
    joined = None
    if any(type(column) is UnionColumn for column in columns):
        joined = UnionColumn._join(columns)
    elif all(type(column) is type(first) for column in columns):
        joined = first._concat(columns)
    elif any(type(column) is GatherColumn for column in columns):
        return concat_columns([column.materialized() for column in columns])
    if joined is None:  # no common column form: through the objects
        joined = columnize(list(chain.from_iterable(column.rows() for column in columns)))
    return joined


def gather(columns: list[Column], which: np.ndarray, index: np.ndarray) -> Column:
    """Row ``index[j]`` of ``columns[which[j]]`` for every ``j``, as one
    column: one :meth:`~Column.take` per column, joined."""
    if len(columns) == 1:
        return columns[0].take(index)
    order = np.argsort(which, kind="stable")
    bounds = np.searchsorted(which[order], np.arange(len(columns) + 1)).tolist()
    joined = concat_columns([
        columns[k].take(index[order[bounds[k] : bounds[k + 1]]])
        for k in range(len(columns))
        if bounds[k + 1] > bounds[k]
    ])
    if np.all(order[1:] > order[:-1]):
        return joined
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.arange(len(order))
    return joined.take(inverse)


# ------------------------------------------------------- objects -> columns
def _columnize_ints(values: list) -> Column:
    try:
        return ScalarColumn(int, np.array(values, dtype=np.int64))
    except OverflowError:  # beyond 64 bits: the value codec words the error
        return BlobColumn(values)


def _columnize_strs(values: list) -> Column:
    table = {text: index for index, text in enumerate(dict.fromkeys(values))}
    codes = np.fromiter(map(table.__getitem__, values), dtype=np.int64, count=len(values))
    return StrColumn(list(table), codes)


_SHAPE_OF = attrgetter("shape")
_DTYPE_OF = attrgetter("dtype")


def _columnize_arrays(values: list) -> Column:
    dtype = values[0].dtype
    if (
        dtype.hasobject
        or len(set(map(_SHAPE_OF, values))) > 1
        or len(set(map(_DTYPE_OF, values))) > 1
    ):
        return BlobColumn(values)  # ragged / mixed dtypes: one by one
    return ArrayColumn(np.array(values, dtype=dtype))


def _columnize_tuples(values: list) -> Column:
    arities = list(map(len, values))
    if len(set(arities)) > 1:
        return _columnize_union(values, arities)
    return TupleColumn([columnize(list(column)) for column in zip(*values)], len(values))


def _columnize_lists(values: list) -> Column:
    lengths = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
    return ListColumn(lengths, columnize(list(chain.from_iterable(values))))


def _columnize_union(values: list, kinds: list) -> Column:
    codes = {kind: code for code, kind in enumerate(dict.fromkeys(kinds))}
    if len(codes) > 255:
        return BlobColumn(values)
    column = np.fromiter(map(codes.__getitem__, kinds), dtype=np.uint8, count=len(kinds))
    children = [
        columnize(list(compress(values, column == code))) for code in range(len(codes))
    ]
    return UnionColumn(column, children)


_COLUMNIZERS = {
    type(None): lambda values: NoneColumn(len(values)),
    bool: lambda values: ScalarColumn(bool, np.array(values, dtype=bool)),
    int: _columnize_ints,
    float: lambda values: ScalarColumn(float, np.array(values, dtype=np.float64)),
    str: _columnize_strs,
    bytes: lambda values: BytesColumn(_object_array(values)),
    np.ndarray: _columnize_arrays,
    tuple: _columnize_tuples,
    list: _columnize_lists,
}


def columnize(values: list) -> Column:
    """The column form of the value objects ``values`` — the inverse of
    :meth:`Column.rows`."""
    if not values:
        return NoneColumn(0)
    kinds = set(map(type, values))
    if len(kinds) > 1:
        return _columnize_union(values, list(map(type, values)))
    kind = kinds.pop()
    build = _COLUMNIZERS.get(kind)
    if build is not None:
        return build(values)
    record = _RECORDS_BY_CLS.get(kind)
    if record is None:
        return BlobColumn(values)
    if record.levels is not None:
        try:
            return RaggedColumn.of_records(record, values)
        except ValueError:  # rows no one column holds (mixed widths): one by one
            return BlobColumn(values)
    return RecordColumn(
        record,
        [columnize(list(field)) for field in zip(*map(record.fields_of, values))],
        len(values),
    )


# ------------------------------------------------------------ columns <-> bytes
def _put(column: Column, out: bytearray) -> None:
    if len(column):
        column._encode(out)
    else:
        out.append(_C_NONE)


def encode_columns(column: Column) -> bytes:
    """A block of ``column``'s values (module docstring): a ``<u4`` count
    and the column."""
    out = bytearray(_U4.pack(len(column)))
    _put(column, out)
    return bytes(out)


def _view(buf: memoryview, offset: int, count: int, dtype: str):
    """``count`` items of ``dtype`` at ``offset``: (array view, next offset)."""
    if count < 0:
        raise ValueError(f"negative item count {count}")
    column = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
    return column, offset + column.nbytes


def _lengths(buf: memoryview, offset: int, count: int):
    lengths, offset = _view(buf, offset, count, "<i8")
    if count and lengths.min() < 0:
        raise ValueError("negative length")
    return lengths.astype(np.int64), offset


def _read_scalars(kind: type, dtype: str):
    def read(buf, offset, count):
        values, offset = _view(buf, offset, count, dtype)
        return ScalarColumn(kind, values), offset

    return read


def _read_strs(buf, offset, count):
    (size,) = _U4.unpack_from(buf, offset)
    offset += 4
    table = []
    for _ in range(size):
        (length,) = _U4.unpack_from(buf, offset)
        offset += 4
        if offset + length > len(buf):
            raise ValueError("truncated string table")
        table.append(str(buf[offset : offset + length], "utf-8"))
        offset += length
    codes, offset = _view(buf, offset, count, "u1" if size <= 256 else "<u4")
    if count and int(codes.max()) >= size:
        raise ValueError("string code outside its table")
    return StrColumn(table, codes.astype(np.int64)), offset


def _read_bytes(buf, offset, count):
    lengths, offset = _lengths(buf, offset, count)
    if offset + int(lengths.sum()) > len(buf):
        raise ValueError("truncated bytes column")
    values = []
    for length in lengths.tolist():
        values.append(bytes(buf[offset : offset + length]))
        offset += length
    return BytesColumn(_object_array(values)), offset


def _read_arrays(buf, offset, count):
    dlen = buf[offset]
    dtype = _parse_dtype(buf[offset + 1 : offset + 1 + dlen])
    offset += 1 + dlen
    ndim = buf[offset]
    shape = struct.unpack_from(f"<{ndim}q", buf, offset + 1)
    if min(shape, default=0) < 0:
        raise ValueError("negative array dimension")
    matrix, offset = _view(buf, offset + 1 + 8 * ndim, count * math.prod(shape), dtype)
    return ArrayColumn(matrix.reshape((count, *shape))), offset


def _read_tuples(buf, offset, count):
    (arity,) = _U4.unpack_from(buf, offset)
    offset += 4
    children = []
    for _ in range(arity):
        child, offset = _read(buf, offset, count)
        children.append(child)
    return TupleColumn(children, count), offset


def _read_lists(buf, offset, count):
    lengths, offset = _lengths(buf, offset, count)
    items, offset = _read(buf, offset, int(lengths.sum()))
    return ListColumn(lengths, items), offset


def _read_records(buf, offset, count):
    record = _RECORDS_BY_TAG[buf[offset]]
    if record.levels is not None:
        raise ValueError(f"record tag {record.tag:#x} has a ragged form, not a field per column")
    offset += 1
    fields = []
    for _ in range(record.arity):
        field, offset = _read(buf, offset, count)
        fields.append(field)
    return RecordColumn(record, fields, count), offset


def _read_union(buf, offset, count):
    size = buf[offset]
    codes, offset = _view(buf, offset + 1, count, "u1")
    if count and int(codes.max()) >= size:
        raise ValueError("union code outside its kinds")
    children = []
    for kind_count in np.bincount(codes, minlength=size).tolist():
        child, offset = _read(buf, offset, kind_count)
        children.append(child)
    return UnionColumn(codes, children), offset


def _read_blobs(buf, offset, count):
    lengths, offset = _lengths(buf, offset, count)
    values = []
    for length in lengths.tolist():
        value, end = _decode(buf, offset)
        if end != offset + length:
            raise FrameCorruptionError("blob column entry overruns its length")
        values.append(value)
        offset = end
    return BlobColumn(values), offset


_READERS = {
    _C_NONE: lambda buf, offset, count: (NoneColumn(count), offset),
    _C_BOOL: _read_scalars(bool, "?"),
    _C_INT: _read_scalars(int, "<i8"),
    _C_FLOAT: _read_scalars(float, "<f8"),
    _C_STR: _read_strs,
    _C_BYTES: _read_bytes,
    _C_ARRAY: _read_arrays,
    _C_TUPLE: _read_tuples,
    _C_LIST: _read_lists,
    _C_RECORD: _read_records,
    _C_UNION: _read_union,
    _C_BLOB: _read_blobs,
    _C_RAGGED: _read_ragged,
}


def _read(buf: memoryview, offset: int, count: int):
    return _READERS[buf[offset]](buf, offset + 1, count)


def decode_columns(data: bytes | memoryview) -> Column:
    """Inverse of :func:`encode_columns`.  The whole buffer must be one
    block; anything else — a short buffer, an unknown tag, a code outside
    its table, trailing bytes — is a :class:`FrameCorruptionError`.  Arrays
    and scalars are views of ``data``."""
    buf = memoryview(data)
    try:
        (count,) = _U4.unpack_from(buf, 0)
        column, end = _read(buf, _U4.size, count)
    except (ValueError, TypeError, IndexError, KeyError, OverflowError, struct.error) as exc:
        if isinstance(exc, FrameCorruptionError):
            raise
        raise FrameCorruptionError(f"undecodable value block: {exc}") from exc
    if end != len(buf):
        raise FrameCorruptionError(f"{len(buf) - end} trailing bytes after value block")
    return column


# ------------------------------------------------------------ objects <-> bytes
def encode_block(values: list) -> bytes:
    """Encode a list of shuffle values column-wise (module docstring)."""
    return encode_columns(columnize(values))


def decode_block(data: bytes | memoryview) -> list:
    """Inverse of :func:`encode_block` (errors as :func:`decode_columns`)."""
    return decode_columns(data).rows()


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
_STREAM_VERSION = 4
"""v3: every spill frame is a chunk of key groups (:mod:`repro.mapreduce.spill`);
v4: ragged records (GraphFlat's neighborhoods) are one ragged column per
block, not one encoded blob per record."""
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
