"""Brute-force references the kernels are checked against.

The column shuffle's references are the object paths it replaced: the
block codec as an object walk (:func:`object_block` / :func:`object_values`),
the engine's propagation building one record per in-edge
(:func:`object_propagate`), the run reader regrouping decoded objects per
key (:func:`object_groups`) and the record-list samplers
(:func:`select_records`).  A column chunk must encode to the bytes
:func:`object_block` makes of its rows, and the engine's batches, run files
and draws must be these references' exactly.

:class:`DictSubgraph` is GraphFlat's merge as it was written per node before
the batch kernel (``repro.core.graphflat.records.merge_neighborhoods``): a
neighborhood is two dicts — ``nodes``: id -> (feature row, hop), ``edges``:
(src, dst) -> (weight, edge-feature row) — grown one sampled neighbor at a
time (:meth:`DictSubgraph.absorb_neighbor`) and flattened by a per-edge loop
(:meth:`DictSubgraph.to_graph_feature`).  The kernel must produce the same
neighborhoods, column for column, and the same flattened arrays.

:class:`PairSpillWriter` is the shuffle's spill writer as it was written per
pair before record batches; the batch writer must write its run files byte
for byte.

:func:`oracle_infer_node` is each GNN layer's per-node form, as GraphInfer's
reducers ran it node by node in plain numpy before they ran the layer's
``forward`` over one block per merge batch; ``forward`` must agree with it
to float tolerance.

:func:`oracle_merge` / :func:`oracle_prune_blocks` / :func:`oracle_vectorize`
are the trainer's batch merge, pruning and vectorization as they were
written per sample and per batch before the stacked kernel
(``repro.graph.subgraph.merge_groups``), and :func:`oracle_pair` is
GraphFlat's pairing round as it was written per target edge.  Every array
the kernel's callers produce — dtype and order included — must equal
these references' (:func:`assert_same_batch` / :func:`assert_same_feature`).
"""

from __future__ import annotations

import heapq
import math
import struct
from itertools import chain, compress, islice
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

from repro.core.graphflat.records import SubgraphInfo
from repro.core.propagation import suffix
from repro.graph.subgraph import GraphFeature
from repro.nn.gnn.block import BatchInputs, EdgeBlock
from repro.mapreduce.shuffle import RecordBatch, decode_key, key_bytes, key_ident
from repro.mapreduce import spill
from repro.mapreduce.spill import (
    _CODEC_ID,
    _GROUP_BYTES,
    SpillWriteResult,
    _encode_key_table,
)
from repro.proto.framing import (
    _C_ARRAY,
    _C_BLOB,
    _C_BOOL,
    _C_BYTES,
    _C_FLOAT,
    _C_INT,
    _C_LIST,
    _C_NONE,
    _C_RAGGED,
    _C_RECORD,
    _C_STR,
    _C_TUPLE,
    _C_UNION,
    _RECORDS_BY_CLS,
    _RECORDS_BY_TAG,
    _U4,
    FrameCorruptionError,
    _decode,
    approx_nbytes,
    encode_block,
    encode_value,
    write_frame,
    write_stream_header,
)

__all__ = [
    "DictSubgraph",
    "PairSpillWriter",
    "assert_same_array",
    "assert_same_batch",
    "assert_same_feature",
    "assert_same_subgraph",
    "oracle_infer_node",
    "oracle_merge",
    "oracle_pair",
    "oracle_prune_blocks",
    "oracle_vectorize",
    "random_subgraph",
]

_INT_DTYPES = ("<i1", "<i2", "<i4", "<i8")


class DictSubgraph:
    """Accumulated neighborhood of ``root`` as per-node dicts; re-discovered
    nodes keep the *minimum* hop, the connecting edge is (re)set last."""

    def __init__(self, root: int, nodes: dict, edges: dict | None = None):
        self.root = root
        self.nodes = nodes
        self.edges = {} if edges is None else edges

    @classmethod
    def seed(cls, node_id: int, feature: np.ndarray) -> "DictSubgraph":
        return cls(node_id, {node_id: (feature, 0)})

    @classmethod
    def of(cls, info: SubgraphInfo) -> "DictSubgraph":
        c = info.columns
        edge_feat = [None] * len(c.src) if c.edge_feat is None else list(c.edge_feat)
        return cls(
            info.root,
            dict(zip(c.ids.tolist(), zip(list(c.x), c.hops.tolist()))),
            dict(zip(zip(c.src.tolist(), c.dst.tolist()), zip(c.weight.tolist(), edge_feat))),
        )

    def to_info(self) -> SubgraphInfo:
        """The same neighborhood as a column-resident record."""
        feats, hops = zip(*self.nodes.values())
        pairs = list(self.edges)
        weights = [w for w, _ in self.edges.values()]
        edge_feat = [ef for _, ef in self.edges.values()]
        if all(ef is None for ef in edge_feat):
            edge_feat = None
        return SubgraphInfo(
            self.root, list(self.nodes), hops, feats,
            [s for s, _ in pairs], [d for _, d in pairs], weights, edge_feat,
        )

    def copy(self) -> "DictSubgraph":
        return DictSubgraph(self.root, dict(self.nodes), dict(self.edges))

    def absorb_neighbor(self, neighbor: "DictSubgraph", weight: float, edge_feat) -> None:
        for node_id, (feat, hop) in neighbor.nodes.items():
            mine = self.nodes.get(node_id)
            if mine is None or hop + 1 < mine[1]:
                self.nodes[node_id] = (feat, hop + 1)
        for key, value in neighbor.edges.items():
            if key not in self.edges:
                self.edges[key] = value
        self.edges[(neighbor.root, self.root)] = (weight, edge_feat)

    @staticmethod
    def merge(self_info: "DictSubgraph", sampled) -> "DictSubgraph":
        """``sampled``: ``(neighbor, weight, edge_feat)`` per in-edge."""
        merged = self_info.copy()
        for neighbor, weight, edge_feat in sampled:
            merged.absorb_neighbor(neighbor, weight, edge_feat)
        return merged

    def to_graph_feature(self) -> GraphFeature:
        node_ids = np.fromiter(self.nodes.keys(), dtype=np.int64, count=len(self.nodes))
        order = np.argsort(node_ids)
        node_ids = node_ids[order]
        feats = list(self.nodes.values())
        x = np.stack([feats[i][0] for i in order]).astype(np.float32)
        hops = np.asarray([feats[i][1] for i in order], dtype=np.int64)
        pos = {int(i): p for p, i in enumerate(node_ids)}
        m = len(self.edges)
        src = np.empty(m, dtype=np.int64)
        dst = np.empty(m, dtype=np.int64)
        weight = np.empty(m, dtype=np.float32)
        efeat = None
        if any(ef is not None for _, ef in self.edges.values()):
            dim = next(len(ef) for _, ef in self.edges.values() if ef is not None)
            efeat = np.zeros((m, dim), dtype=np.float32)
        for i, ((s, d), (w, ef)) in enumerate(self.edges.items()):
            src[i] = pos[s]
            dst[i] = pos[d]
            weight[i] = w
            if efeat is not None and ef is not None:
                efeat[i] = ef
        order = np.lexsort((src, dst))
        return GraphFeature(
            np.asarray([self.root]), node_ids, x, hops, src[order], dst[order],
            None if efeat is None else efeat[order], weight[order],
        )


class PairSpillWriter:
    """The spill writer as it was written per pair before record batches:
    ``extend`` routes and ``_add`` buffers one ``(key, value)`` at a time,
    sizing each value with ``approx_nbytes`` and flushing the moment the
    run bounds fill.  The batch writer (``repro.mapreduce.spill.
    SpillRunWriter``) must write the same run files byte for byte and
    report the same ``SpillWriteResult`` for the same pairs."""

    def __init__(self, layout, map_task, combiner=None, run_records=1 << 16, run_bytes=32 << 20):
        self._layout = layout
        self._map_task = map_task
        self._combiner = combiner
        self._run_records = run_records
        self._run_bytes = run_bytes
        num = layout.num_partitions
        self._buffers = [{} for _ in range(num)]  # partition -> ident -> [key, values, nbytes]
        self._routes = {}
        self._pending_records = self._pending_bytes = 0
        self._next_run = [0] * num
        self._counts = [0] * num
        self._partition_bytes = [0] * num
        self._bytes_written = self._peak_flush = 0

    def append(self, partition, key, value):
        self._add(partition, key_ident(key), key, value)

    def extend(self, pairs, partitioner):
        num = self._layout.num_partitions
        for key, value in pairs:
            ident = key if type(key) is int else key_ident(key)
            partition = self._routes.get(ident)
            if partition is None:
                partition = self._routes[ident] = partitioner(key, num)
            self._add(partition, ident, key, value)

    def _add(self, partition, ident, key, value):
        nbytes = approx_nbytes(value)
        entry = self._buffers[partition].get(ident)
        if entry is None:
            self._buffers[partition][ident] = [key, [value], nbytes]
            self._pending_bytes += nbytes + _GROUP_BYTES
        else:
            entry[1].append(value)
            entry[2] += nbytes
            self._pending_bytes += nbytes
        self._pending_records += 1
        if self._pending_records >= self._run_records or self._pending_bytes >= self._run_bytes:
            self._flush()

    def _flush(self):
        if not self._pending_records:
            return
        layout = self._layout
        Path(layout.root).mkdir(parents=True, exist_ok=True)
        flushed = 0
        for partition, buffer in enumerate(self._buffers):
            if not buffer:
                continue
            groups = []
            for ident, (key, values, nbytes) in buffer.items():
                if self._combiner is not None and len(values) > 1:
                    values = list(self._combiner.combine(key, values))
                    nbytes = sum(map(approx_nbytes, values))
                groups.append((ident if type(ident) is bytes else key_bytes(key), values, nbytes))
            groups.sort(key=lambda group: group[0])
            buffer.clear()
            path = layout.run_path(self._map_task, partition, self._next_run[partition])
            with open(path, "wb") as fh:
                written = write_stream_header(fh, _CODEC_ID)
                for keys, counts, values in _iter_chunks(groups):
                    self._counts[partition] += len(values)
                    written += write_frame(
                        fh, _encode_key_table(keys, counts), encode_block(values)
                    )
            self._next_run[partition] += 1
            self._partition_bytes[partition] += written
            flushed += written
        self._routes.clear()
        self._bytes_written += flushed
        self._peak_flush = max(self._peak_flush, flushed)
        self._pending_records = self._pending_bytes = 0

    def finish(self):
        self._flush()
        return SpillWriteResult(
            list(self._counts), self._bytes_written, self._peak_flush,
            tuple(self._partition_bytes),
        )


def _iter_chunks(groups):
    """The chunk cutter over ``(key bytes, values, nbytes)`` groups:
    ``(keys, counts, values)`` per chunk of about ``_CHUNK_BYTES``, a group
    bigger than a chunk alone in near-equal pieces."""
    keys, counts, chunk, size = [], [], [], 0
    for kb, values, nbytes in groups:
        if size and size + nbytes > spill._CHUNK_BYTES:
            yield keys, counts, chunk
            keys, counts, chunk, size = [], [], [], 0
        if nbytes > spill._CHUNK_BYTES and len(values) > 1:
            pieces = min(len(values), -(-nbytes // spill._CHUNK_BYTES))
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


def random_subgraph(
    rng: np.random.Generator, *, num_nodes=6, num_edges=8, dim=5, edge_feat="uniform"
) -> DictSubgraph:
    """A random neighborhood rooted at its first node: ``edge_feat`` is
    ``uniform`` (3-wide rows), ``empty`` (0-wide rows) or ``none``."""
    ids = rng.choice(10_000, size=num_nodes, replace=False).astype(np.int64)
    nodes = {
        int(i): (rng.standard_normal(dim).astype(np.float32), int(rng.integers(0, 4)))
        for i in ids
    }
    width = {"uniform": 3, "empty": 0, "none": None}[edge_feat]
    edges = {}
    for _ in range(num_edges):
        s, d = (int(x) for x in rng.choice(ids, size=2))
        ef = None if width is None else rng.standard_normal(width).astype(np.float32)
        edges[(s, d)] = (float(rng.standard_normal()), ef)
    return DictSubgraph(int(ids[0]), nodes, edges)


def assert_same_subgraph(a: SubgraphInfo, b: SubgraphInfo) -> None:
    """Same root and columns: ids, hops, dtypes, shapes, float bits."""
    assert a.root == b.root
    ca, cb = a.columns, b.columns
    for name in ("ids", "hops", "x", "src", "dst"):
        x, y = getattr(ca, name), getattr(cb, name)
        assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y), name
    assert struct.pack(f"<{len(ca.weight)}d", *ca.weight) == struct.pack(
        f"<{len(cb.weight)}d", *cb.weight
    )
    if ca.edge_feat is None:
        assert cb.edge_feat is None
    else:
        assert ca.edge_feat.dtype == cb.edge_feat.dtype
        assert ca.edge_feat.shape == cb.edge_feat.shape
        assert ca.edge_feat.tobytes() == cb.edge_feat.tobytes()


# ------------------------------------------------------- object block codec
# The block encoder as it walked value objects before the column codec
# (``repro.proto.framing.encode_columns``); a column's block must equal this
# block of its rows, byte for byte.

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
    if record.levels is not None:
        _encode_ragged(record, values, out)
        return
    out.append(_C_RECORD)
    out.append(record.tag)
    for column in zip(*map(record.fields_of, values)):
        _encode_column(list(column), out)


def _put_narrow(ints: list[int], out: bytearray) -> None:
    bits = max((v.bit_length() if v >= 0 else (~v).bit_length() for v in ints), default=0)
    code = 0 if bits < 8 else 1 if bits < 16 else 2 if bits < 32 else 3
    out.append(1 + code)
    out += np.array(ints, dtype=_INT_DTYPES[code]).tobytes()


def _encode_ragged(record, values: list, out: bytearray) -> None:
    """A ragged record column walked record by record: the heads, then per
    level the row counts and each member's rows of every record — ints at
    the narrowest width, rows as an array column, absent when no record
    has the member (or the level has no rows and the member is not ints)."""
    parts = [record.fields_of(value) for value in values]
    out.append(_C_RAGGED)
    out.append(record.tag)
    _put_narrow([part[0] for part in parts], out)
    field = 1
    for names in record.levels:
        counts = [len(part[field]) for part in parts]
        _put_narrow(counts, out)
        for j in range(len(names)):
            members = [part[field + j] for part in parts]
            rows = [m for m, count in zip(members, counts) if count and m is not None]
            first = members[0]
            if first is not None and first.ndim == 1 and first.dtype == np.int64:
                _put_narrow([int(v) for m in rows for v in m.tolist()], out)
            elif rows:
                _encode_arrays([row for m in rows for row in m], out)
            else:
                out.append(0)
        field += len(names)


def _decode_ragged(buf: memoryview, offset: int, count: int):
    record = _RECORDS_BY_TAG[buf[offset]]

    def ints(offset, count):
        width = _INT_DTYPES[buf[offset] - 1]
        values, offset = _take(buf, offset + 1, count, width)
        return values.astype(np.int64).tolist(), offset

    heads, offset = ints(offset + 1, count)
    fields = [[head] for head in heads]
    for names in record.levels:
        counts, offset = ints(offset, count)
        for _ in names:
            kind = buf[offset]
            if kind == 0:
                rows, offset = [None] * sum(counts), offset + 1
            elif kind == _C_ARRAY:
                rows, offset = _decode_arrays(buf, offset + 1, sum(counts))
            else:
                rows, offset = ints(offset, sum(counts))
            at = 0
            for field, n in zip(fields, counts):
                part = rows[at : at + n]
                if kind == _C_ARRAY:
                    part = np.stack(part) if n else None
                elif kind:
                    part = np.asarray(part, dtype=np.int64)
                field.append(None if kind == 0 else part)
                at += n
    return [record.make(*field) for field in fields], offset


def object_block(values: list) -> bytes:
    """``encode_block`` as it was written before columns: a walk over the
    value objects, one column at a time."""
    out = bytearray(_U4.pack(len(values)))
    _encode_column(values, out)
    return bytes(out)


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
    _C_RAGGED: _decode_ragged,
}


def _decode_column(buf: memoryview, offset: int, count: int):
    return _COLUMN_DECODERS[buf[offset]](buf, offset + 1, count)


def object_values(data: bytes | memoryview) -> list:
    """The object decoder of blocks as it was before columns: each column
    decoded into value objects, arrays copied row by row."""
    buf = memoryview(data)
    try:
        (count,) = _U4.unpack_from(buf, 0)
        values, end = _decode_column(buf, _U4.size, count)
    except (ValueError, IndexError, KeyError, StopIteration, struct.error) as exc:
        raise FrameCorruptionError(f"undecodable value block: {exc}") from exc
    if end != len(buf):
        raise FrameCorruptionError(f"{len(buf) - end} trailing bytes after value block")
    return values


# ------------------------------------------------------------- object paths
def object_propagate(routing, node_ids: list[int], infos: list, next_round: int) -> RecordBatch:
    """``Routing.propagate`` as it built one record object per in-edge:
    ``("self", info)`` and ``("in", in_record(src, weight, edge_feat,
    info))`` values, node-major, sized by ``approx_nbytes``.  ``infos``
    may be a column: its rows are the objects."""
    if not isinstance(infos, list):
        infos = infos.rows()
    out_edges = routing.out_edges.get()
    ids = np.asarray(node_ids, dtype=np.int64)
    keys, values = [], []
    for i, node_id in enumerate(ids.tolist()):
        if routing.needed(node_id, next_round):
            keys.append(node_id)
            values.append(("self", infos[i]))
        owner, edge = out_edges.of_nodes(ids[i : i + 1])
        for e in edge.tolist():
            dst = int(out_edges.dst[e])
            if not routing.needed(dst, next_round):
                continue
            key = (dst, 1 + suffix(node_id, dst, routing.fanout)) if dst in routing.hubs else dst
            feat = None if out_edges.edge_feat is None else out_edges.edge_feat[e]
            record = routing.in_record(node_id, float(out_edges.weight[e]), feat, infos[i])
            keys.append(key)
            values.append(("in", record))
    return RecordBatch(keys, values, np.asarray([approx_nbytes(v) for v in values], np.int64))


def select_records(sampler, in_edges: list, node_id: int, salt: int = 0) -> list:
    """The samplers as they selected from record lists (``e.src`` /
    ``e.weight``)."""
    ordered = sorted(in_edges, key=lambda e: e.src)
    if len(in_edges) <= sampler.max_neighbors:
        return ordered
    if sampler.name == "topk":
        return sorted(in_edges, key=lambda e: (-e.weight, e.src))[: sampler.max_neighbors]
    rng = sampler._rng(node_id, salt)
    probs = None
    if sampler.name == "weighted":
        weights = np.asarray([max(e.weight, 1e-12) for e in ordered], dtype=np.float64)
        probs = weights / weights.sum()
    keep = rng.choice(len(ordered), size=sampler.max_neighbors, replace=False, p=probs)
    keep.sort()
    return [ordered[i] for i in keep]


def key_table(table: bytes) -> tuple[list[bytes], list[int]]:
    """``(keys, counts)`` of a run file chunk's key table, read as its
    grammar says (``<u4`` groups, ``<u4`` key lengths, ``<u4`` value
    counts, then the key bytes end to end), one key at a time."""
    groups = int.from_bytes(table[:4], "little")
    words = [int.from_bytes(table[4 + 4 * i : 8 + 4 * i], "little") for i in range(2 * groups)]
    keys, offset = [], 4 + 8 * groups
    for length in words[:groups]:
        keys.append(table[offset : offset + length])
        offset += length
    assert offset == len(table)
    return keys, words[groups:]


def object_groups(layout, partition: int, num_map_tasks: int) -> list[tuple]:
    """``(key, values)`` groups of one partition's run files, read as the
    reader read them before columns: every chunk decoded into objects, the
    runs merged by key bytes, values regrouped per key."""
    from repro.proto.framing import iter_frames, read_stream_header

    def pieces(path):
        with open(path, "rb") as fh:
            read_stream_header(fh)
            for table, block in iter_frames(fh):
                keys, counts = key_table(table)
                values = iter(object_values(block))
                for kb, count in zip(keys, counts):
                    yield kb, list(islice(values, count))

    streams = [
        pieces(path)
        for task in range(num_map_tasks)
        for path in layout._iter_task_runs(task, partition)
    ]
    groups: list[tuple] = []
    for kb, values in heapq.merge(*streams, key=itemgetter(0)):
        if groups and groups[-1][0] == kb:
            groups[-1][2].extend(values)
        else:
            groups.append((kb, decode_key(kb), values))
    return [(key, values) for _, key, values in groups]


# ------------------------------------------------------- batch merge / vectorize
def oracle_merge(features: list[GraphFeature]) -> GraphFeature:
    if not features:
        raise ValueError("cannot merge an empty batch")
    if len(features) == 1:
        return features[0].sorted_by_destination()

    # A sample without edges carries no edge features: it agrees with any dim.
    fe_dims = {f.edge_feature_dim for f in features if f.num_edges or f.edge_feat is not None}
    if len(fe_dims) > 1:
        raise ValueError(f"inconsistent edge feature dims in batch: {fe_dims}")
    fn_dims = {f.feature_dim for f in features}
    if len(fn_dims) != 1:
        raise ValueError(f"inconsistent node feature dims in batch: {fn_dims}")

    all_ids = np.concatenate([f.node_ids for f in features])
    merged_ids, first_occurrence = np.unique(all_ids, return_index=True)
    all_x = np.concatenate([f.x for f in features], axis=0)
    merged_x = all_x[first_occurrence]

    all_hops = np.concatenate([f.hops for f in features])
    merged_hops = np.full(len(merged_ids), np.iinfo(np.int64).max, dtype=np.int64)
    slot = np.searchsorted(merged_ids, all_ids)
    np.minimum.at(merged_hops, slot, all_hops)

    g_src = np.concatenate([f.node_ids[f.edge_src] for f in features])
    g_dst = np.concatenate([f.node_ids[f.edge_dst] for f in features])
    g_w = np.concatenate([f.edge_weight for f in features])
    fe = max(fe_dims, default=0)
    g_ef = (
        None
        if not fe
        else np.concatenate(
            [
                f.edge_feat if f.edge_feat is not None else np.zeros((0, fe), np.float32)
                for f in features
            ],
            axis=0,
        )
    )
    pair = np.stack([g_src, g_dst], axis=1)
    if len(pair):
        _, keep = np.unique(pair, axis=0, return_index=True)
        keep.sort()
    else:
        keep = np.empty(0, dtype=np.int64)
    l_src = np.searchsorted(merged_ids, g_src[keep])
    l_dst = np.searchsorted(merged_ids, g_dst[keep])

    node_type = None
    if all(f.node_type is not None for f in features):
        node_type = np.concatenate([f.node_type for f in features])[first_occurrence]
    edge_type = None
    if all(f.edge_type is not None for f in features):
        edge_type = np.concatenate([f.edge_type for f in features])[keep]

    targets = np.unique(np.concatenate([f.target_ids for f in features]))
    merged = GraphFeature(
        targets,
        merged_ids,
        merged_x,
        merged_hops,
        l_src,
        l_dst,
        None if g_ef is None else g_ef[keep],
        g_w[keep],
        node_type,
        edge_type,
    )
    return merged.sorted_by_destination()


def oracle_prune_blocks(base, hops, num_layers) -> list:
    dst_hops = hops[base.dst]
    blocks = []
    for k in range(num_layers):
        mask = dst_hops <= num_layers - k - 1
        if bool(mask.all()):
            blocks.append(base)
            continue
        blocks.append(EdgeBlock(
            base.src[mask],
            base.dst[mask],
            base.num_nodes,
            base.weight[mask],
            None if base.edge_feat is None else base.edge_feat[mask],
            base.sorted_kernel,
        ))
    return blocks


def oracle_vectorize(samples, num_layers, pruning=True, edge_level=False, edge_partition=False):
    merged = oracle_merge([s.graph_feature for s in samples])
    base = EdgeBlock(
        merged.edge_src, merged.edge_dst, merged.num_nodes,
        merged.edge_weight, merged.edge_feat, edge_partition,
    )
    if pruning:
        blocks = oracle_prune_blocks(base, merged.hops, num_layers)
    else:
        blocks = [base] * num_layers
    if edge_level:
        pairs = np.stack([s.graph_feature.target_ids for s in samples])
        sorter = np.argsort(merged.target_ids, kind="stable")
        pair_index = sorter[np.searchsorted(merged.target_ids, pairs, sorter=sorter)]
        batch = BatchInputs(merged.x, merged.target_index, blocks, pair_index)
        raw = [s.label for s in samples]
        labels = None
        if any(label is not None for label in raw):
            labels = np.asarray([int(label) for label in raw], dtype=np.int64)
        return batch, labels

    batch = BatchInputs(merged.x, merged.target_index, blocks)
    labels = None
    sample_labels = {int(s.target_id): s.label for s in samples}
    if any(label is not None for label in sample_labels.values()):
        ordered = [sample_labels[int(t)] for t in merged.target_ids]
        if np.ndim(ordered[0]) == 0:
            labels = np.asarray(ordered, dtype=np.int64)
        else:
            labels = np.stack([np.asarray(o, dtype=np.float32) for o in ordered])
    return batch, labels


def oracle_pair(src_info: SubgraphInfo, dst_info: SubgraphInfo) -> GraphFeature:
    """GraphFlat's pairing round for one target edge, as it was written per
    edge: flatten both endpoints, merge them, re-impose ``[src, dst]``.  An
    edgeless endpoint flattens without an edge-feature block; next to an
    endpoint whose edges have features it takes an empty one, so the pair
    keeps its edge features whichever endpoint comes first — and a pair
    without edges has none, as an edgeless node sample."""
    ends = [src_info.to_graph_feature(), dst_info.to_graph_feature()]
    width = max(end.edge_feature_dim for end in ends)
    for end in ends:
        if width and end.edge_feat is None:
            end.edge_feat = np.zeros((0, width), dtype=np.float32)
    merged = oracle_merge(ends)
    return GraphFeature(
        np.asarray([src_info.root, dst_info.root], dtype=np.int64),
        merged.node_ids, merged.x, merged.hops, merged.edge_src, merged.edge_dst,
        merged.edge_feat if merged.num_edges else None, merged.edge_weight,
    )


def assert_same_array(got, want, what):
    if want is None:
        assert got is None, what
        return
    assert got is not None, what
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"
    assert got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}"
    assert np.array_equal(got, want), what


def assert_same_batch(got, want):
    """Two ``(BatchInputs, labels)`` pairs hold the same arrays, layer by
    layer — row offsets and segment-sum kernel included."""
    (got_batch, got_labels), (want_batch, want_labels) = got, want
    assert_same_array(got_batch.x, want_batch.x, "x")
    assert_same_array(got_batch.target_index, want_batch.target_index, "target_index")
    assert_same_array(got_batch.pair_index, want_batch.pair_index, "pair_index")
    assert_same_array(got_labels, want_labels, "labels")
    assert len(got_batch.layer_blocks) == len(want_batch.layer_blocks)
    pairs = list(zip(got_batch.layer_blocks, want_batch.layer_blocks))
    for k, (g, w) in enumerate(pairs):
        assert g.num_nodes == w.num_nodes
        for name in ("src", "dst", "weight", "edge_feat", "row_offsets"):
            assert_same_array(getattr(g, name), getattr(w, name), f"layer {k} {name}")
        assert g.sorted_kernel == w.sorted_kernel, f"layer {k} kernel"
        for j, (g2, w2) in enumerate(pairs):  # which layers share one block
            assert (g is g2) == (w is w2), f"layers {k} and {j} block sharing"


_FEATURE_FIELDS = (
    "target_ids", "node_ids", "x", "hops", "edge_src", "edge_dst",
    "edge_feat", "edge_weight", "node_type", "edge_type",
)


def assert_same_feature(got: GraphFeature, want: GraphFeature):
    for name in _FEATURE_FIELDS:
        assert_same_array(getattr(got, name), getattr(want, name), name)
    assert_same_array(got.target_index, want.target_index, "target_index")


# ------------------------------------------------------- per-node GNN layers
def _np_activate(out: np.ndarray, activation: str | None) -> np.ndarray:
    if activation == "relu":
        return np.maximum(out, 0.0)
    if activation == "elu":
        return np.where(out > 0, out, np.exp(np.minimum(out, 0.0)) - 1.0).astype(np.float32)
    if activation == "tanh":
        return np.tanh(out)
    return out


def _np_sigmoid(x: np.ndarray) -> np.ndarray:
    return (1.0 / (1.0 + np.exp(-x))).astype(np.float32)


def _gcn_node(layer, self_h, neigh_h, neigh_weight, edge_feat):
    denom = float(neigh_weight.sum()) + 1.0
    total = self_h.astype(np.float32).copy()
    if len(neigh_h):
        messages = neigh_h
        if layer.edge_dim and edge_feat is not None:
            messages = messages + edge_feat @ layer.edge_weight_mat.data
        total += (messages * neigh_weight[:, None]).sum(axis=0)
    combined = total / denom
    return _np_activate(combined @ layer.weight.data + layer.bias.data, layer.activation)


def _sage_node(layer, self_h, neigh_h, neigh_weight, edge_feat):
    if len(neigh_h) == 0:
        agg = np.zeros(layer.in_dim, dtype=np.float32)
    elif layer.aggregator == "mean":
        agg = neigh_h.mean(axis=0)
    elif layer.aggregator == "sum":
        agg = neigh_h.sum(axis=0)
    else:
        agg = neigh_h.max(axis=0)
    self_part = self_h @ layer.w_self.data
    neigh_part = agg @ layer.w_neigh.data
    bias, act = layer.bias.data, layer.activation
    if layer.combine == "add":
        return _np_activate(self_part + neigh_part + bias, act)
    return np.concatenate([_np_activate(self_part + bias, act), _np_activate(neigh_part + bias, act)])


def _gat_node(layer, self_h, neigh_h, neigh_weight, edge_feat):
    heads, out_dim = layer.num_heads, layer.out_dim_
    # Stack self last, matching the self-loop edge added in batch mode.
    if len(neigh_h):
        pool = np.concatenate([neigh_h, self_h[None, :]], axis=0)
    else:
        pool = self_h[None, :]
    z = (pool @ layer.weight.data).reshape(len(pool), heads, out_dim)
    z_self = z[-1]  # (heads, out)
    s_src = (z * layer.a_src.data).sum(axis=-1)  # (k+1, heads)
    s_dst = (z_self * layer.a_dst.data).sum(axis=-1)  # (heads,)
    e = s_src + s_dst[None, :]
    e = np.where(e > 0, e, layer.negative_slope * e)
    e -= e.max(axis=0, keepdims=True)
    alpha = np.exp(e)
    alpha /= alpha.sum(axis=0, keepdims=True)
    agg = (z * alpha[:, :, None]).sum(axis=0)  # (heads, out)
    out = agg.reshape(heads * out_dim) if layer.concat_heads else agg.mean(axis=0)
    return _np_activate(out + layer.bias.data, layer.activation).astype(np.float32)


def _geniepath_node(layer, self_h, neigh_h, neigh_weight, edge_feat):
    d = layer.hidden_dim
    if layer.first:
        h_self = self_h @ layer.w_x.data
        c_self = np.zeros(d, dtype=np.float32)
        h_neigh = neigh_h @ layer.w_x.data if len(neigh_h) else np.zeros((0, d), np.float32)
    else:
        h_self, c_self = self_h[:d], self_h[d:]
        h_neigh = neigh_h[:, :d] if len(neigh_h) else np.zeros((0, d), np.float32)

    if len(h_neigh):
        scores = np.tanh(h_neigh @ layer.w_src.data + h_self @ layer.w_dst.data) @ layer.v_att.data
        scores = scores.reshape(-1)
        scores -= scores.max()
        alpha = np.exp(scores)
        alpha /= alpha.sum()
        agg = (alpha[:, None] * h_neigh).sum(axis=0)
    else:
        agg = np.zeros(d, dtype=np.float32)
    tmp = np.tanh(agg @ layer.w_t.data)

    gate_i = _np_sigmoid(tmp @ layer.w_i.data)
    gate_f = _np_sigmoid(tmp @ layer.w_f.data)
    gate_o = _np_sigmoid(tmp @ layer.w_o.data)
    candidate = np.tanh(tmp @ layer.w_c.data)
    c_next = gate_f * c_self + gate_i * candidate
    h_next = (gate_o * np.tanh(c_next)).astype(np.float32)
    if layer.last:
        return h_next
    return np.concatenate([h_next, c_next.astype(np.float32)])


_NODE_FORMS = {"gcn": _gcn_node, "sage": _sage_node, "gat": _gat_node, "geniepath": _geniepath_node}


def oracle_infer_node(layer, self_h, neigh_h, neigh_weight, edge_feat=None) -> np.ndarray:
    """``h^(k+1)_v = φ^(k)(h_v, {h_u}, {e_vu})`` for one node, from its own
    row ``self_h`` and its in-neighbours' rows ``neigh_h`` (with their edge
    weights and edge features), in plain numpy."""
    return _NODE_FORMS[layer.kind](layer, self_h, neigh_h, neigh_weight, edge_feat)
