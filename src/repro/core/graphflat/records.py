"""Value types flowing through GraphFlat's shuffles, and the merge kernel.

The paper's Reduce phase handles "three kinds of information" per node
(§3.2.1): the **self information** (here :class:`SubgraphInfo` — the
accumulated (k-1)-hop neighborhood), the **in-edge information**
(:class:`InEdgeInfo` — edge feature/weight plus the sender's self
information) and the **out-edge information** (where to propagate next
round — unchanged from round to round, so it never crosses the shuffle: the
propagation engine reads it from its ``OutEdges`` side input).  The two
shuffled kinds pickle cleanly so the runtime can spill shuffles to disk —
and each declares its wire fields to the binary shuffle codec (bottom of
this module): in a spill block a chunk of records
goes out as id / weight columns plus the subgraphs' flat wire blocks, not as
pickled object graphs, which is where the process backend's per-object
serialization tax lived.

:class:`SubgraphInfo` is *columns or its wire*: a neighborhood is either
sorted column arrays (:class:`SubgraphColumns` — node ids, hops, feature
rows, ``(dst, src)``-sorted edges, weights, edge-feature rows) or the flat
block the spill codec ships (:attr:`SubgraphInfo.wire`, the one field besides
``root`` it declares); each form is built from the other on first use and
kept.  A merged neighborhood fanned out over ``deg_out`` in-edge records is
encoded once; a record decoded from a spill holds only its block.

:func:`merge_neighborhoods` is the Reduce phase's merge for a whole batch of
nodes at once: it concatenates every input subgraph's columns — reading
wire-resident ones in bulk, without giving them columns — and deduplicates
nodes and edges with one sort each.  No per-node dict is ever built, and
records that merely pass through a reducer (re-index rounds, in-edges a
sampler drops) never leave their wire form; in-memory shuffles never build
one.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.graph.subgraph import GraphFeature, StackedFeatures
from repro.proto.framing import (
    Column,
    ObjectColumn,
    RecordColumn,
    _ranges,
    decode_rows,
    encode_rows,
    register_record,
    rows_header,
)

__all__ = [
    "InEdgeInfo",
    "SubgraphColumns",
    "SubgraphInfo",
    "merge_neighborhoods",
    "stack_flattened",
]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


_NO_INTS = _frozen(np.zeros(0, dtype=np.int64))
_NO_WEIGHTS = _frozen(np.zeros(0, dtype=np.float64))
_ROOT_HOP = _frozen(np.zeros(1, dtype=np.int64))


class SubgraphColumns(NamedTuple):
    """A neighborhood as columns.  Nodes are sorted by id, edges by ``(dst,
    src)`` — the order the stored GraphFeature has, so flattening is a
    lookup, not a sort."""

    ids: np.ndarray
    """``(n,) int64`` node ids, ascending."""
    hops: np.ndarray
    """``(n,) int64`` hop distance of each node to the root."""
    x: np.ndarray
    """``(n, ...)`` feature rows, in the node table's dtype."""
    src: np.ndarray
    """``(m,) int64`` edge sources."""
    dst: np.ndarray
    """``(m,) int64`` edge destinations."""
    weight: np.ndarray
    """``(m,) float64`` edge weights."""
    edge_feat: np.ndarray | None
    """``(m, ...)`` edge-feature rows; ``None`` without edge features (and
    always when ``m == 0``)."""


class SubgraphInfo:
    """Accumulated neighborhood of ``root`` (the "self information").

    Held as :class:`SubgraphColumns`, as its :attr:`wire` block, or both —
    whichever was needed first; never as per-node Python objects.  Records
    are immutable: the merge builds new ones, so a record shared by every
    reducer it was propagated to is never changed under them.
    """

    __slots__ = ("root", "_columns", "_wire")

    def __init__(
        self,
        root: int,
        ids,
        hops,
        x,
        src=(),
        dst=(),
        weight=(),
        edge_feat=None,
    ):
        """A neighborhood from its parts, in any order; ``x`` and
        ``edge_feat`` may be row sequences.  Anything a node or edge table
        could not have produced — ragged or mixed feature rows, ``None``
        among edge features, duplicate nodes or edges, a root missing from
        ``ids`` — is a ``ValueError`` naming the field."""
        self.root = int(root)
        self._columns = _validated(self.root, ids, hops, x, src, dst, weight, edge_feat)
        self._wire: bytes | None = None

    @classmethod
    def _of(cls, root: int, columns: SubgraphColumns) -> "SubgraphInfo":
        """A record over canonical columns, unchecked (the kernel's output)."""
        info = cls.__new__(cls)
        info.root = root
        info._columns = columns
        info._wire = None
        return info

    @classmethod
    def from_wire(cls, root: int, wire: bytes) -> "SubgraphInfo":
        """A record backed by its encoded block alone (``wire`` must be a
        complete block as :attr:`wire` produces it)."""
        info = cls.__new__(cls)
        info.root = root
        info._columns = None
        info._wire = wire
        return info

    @classmethod
    def seed(cls, node_id: int, feature: np.ndarray) -> "SubgraphInfo":
        """The 0-hop neighborhood: the node itself (Definition 1)."""
        ids = np.array([node_id], dtype=np.int64)
        return cls._of(
            node_id,
            SubgraphColumns(
                ids, _ROOT_HOP, np.asarray(feature)[None], _NO_INTS, _NO_INTS, _NO_WEIGHTS, None
            ),
        )

    @property
    def columns(self) -> SubgraphColumns:
        if self._columns is None:
            self._columns = _parse_wire(self._wire)
        return self._columns

    @property
    def wire(self) -> bytes:
        """The nodes and edges as one flat block.  Encode once, copy
        afterwards: a neighborhood propagated along ``deg_out`` out-edges
        (or passing through a reducer untouched) reuses the block it
        already has."""
        if self._wire is None:
            self._wire = _build_wire(self._columns)
        return self._wire

    @property
    def nbytes(self) -> int:
        """Bytes the record holds, converting nothing: its block's length
        when it has one, else its columns'."""
        if self._wire is not None:
            return len(self._wire)
        return sum(column.nbytes for column in self._columns if column is not None)

    @property
    def num_nodes(self) -> int:
        return len(self.columns.ids)

    @property
    def num_edges(self) -> int:
        return len(self.columns.src)

    def __getstate__(self) -> dict:
        # One pickled form: the block (what the binary codec ships too).
        return {"root": self.root, "wire": self.wire}

    def __setstate__(self, state: dict) -> None:
        self.root = state["root"]
        self._columns = None
        self._wire = state["wire"]

    def __repr__(self) -> str:
        if self._columns is None:
            return f"SubgraphInfo(root={self.root}, <{len(self._wire)} wire bytes>)"
        return f"SubgraphInfo(root={self.root}, nodes={self.num_nodes}, edges={self.num_edges})"

    def to_graph_feature(self) -> GraphFeature:
        """Flatten to the storage/training form (§3.2.1 "Storing").  The
        columns are already in the stored order — nodes by id, edges by
        ``(dst, src)`` — so the flattened bytes are identical no matter how
        reducers were partitioned (re-indexing, retries, ...)."""
        c = self.columns
        return GraphFeature(
            np.asarray([self.root]),
            c.ids,
            c.x.astype(np.float32),
            c.hops,
            np.searchsorted(c.ids, c.src),
            np.searchsorted(c.ids, c.dst),
            None if c.edge_feat is None else c.edge_feat.astype(np.float32),
            c.weight.astype(np.float32),
        )


@dataclass
class InEdgeInfo:
    """In-edge information: the edge ``src -> key_node`` plus the sender's
    current self information (its (k-1)-hop neighborhood)."""

    src: int
    weight: float
    edge_feat: np.ndarray | None
    subgraph: SubgraphInfo

    @property
    def nbytes(self) -> int:
        return self.subgraph.nbytes

    @staticmethod
    def info_nbytes(subgraph: SubgraphInfo) -> int:
        """What :func:`~repro.proto.framing.approx_nbytes` counts for a
        subgraph: its root and its block (built here if it has none yet —
        a spill writer encodes it anyway)."""
        return 24 + len(subgraph.wire)

    @staticmethod
    def info_column(subgraphs: list) -> Column:
        """A batch's per-node subgraphs as a column: the records as they
        are — a subgraph's block is built only if a spill writer encodes
        it."""
        return ObjectColumn(np.fromiter(subgraphs, dtype=object, count=len(subgraphs)))

    @staticmethod
    def info_sizes(column: Column) -> np.ndarray:
        """The :attr:`SubgraphInfo.nbytes` of each subgraph of ``column``;
        decoded ones are their blocks."""
        if type(column) is RecordColumn:
            wires = column.fields[1].values.tolist()
            return np.fromiter(map(len, wires), dtype=np.int64, count=len(wires))
        return np.fromiter((info.nbytes for info in column.rows()), np.int64, len(column))

    @staticmethod
    def info_approx(column: Column) -> np.ndarray:
        """:meth:`info_nbytes` of each subgraph of ``column``."""
        if type(column) is RecordColumn:
            return 24 + InEdgeInfo.info_sizes(column)
        return np.fromiter(map(InEdgeInfo.info_nbytes, column.rows()), np.int64, len(column))


# ------------------------------------------------------------ column checks
def _int_column(field: str, values, count: int | None = None) -> np.ndarray:
    column = np.asarray(values, dtype=np.int64)
    if column.ndim != 1 or (count is not None and len(column) != count):
        wanted = "a 1-D column" if count is None else f"{count} values"
        raise ValueError(f"{field}: expected {wanted}, got shape {column.shape}")
    return column


def _rows(field: str, rows, count: int) -> np.ndarray:
    """``rows`` as one matrix of ``count`` rows, refusing what no table has."""
    if not isinstance(rows, np.ndarray):
        rows = list(rows)
        if any(type(row) is not np.ndarray for row in rows):
            raise ValueError(f"{field}: every row must be an array (None among rows?)")
        if len({(row.dtype, row.shape) for row in rows}) > 1:
            raise ValueError(f"{field}: rows differ in dtype or shape (ragged or mixed rows)")
        rows = np.stack(rows) if rows else np.zeros((0, 0), dtype=np.float32)
    if rows.dtype.hasobject or rows.ndim < 2 or len(rows) != count:
        raise ValueError(f"{field}: expected {count} array rows, got shape {rows.shape}")
    return rows


def _validated(root, ids, hops, x, src, dst, weight, edge_feat) -> SubgraphColumns:
    ids = _int_column("ids", ids)
    if not np.any(ids == root):
        raise ValueError(f"ids: the root {root} must be one of the nodes")
    hops = _int_column("hops", hops, len(ids))
    x = _rows("x", x, len(ids))
    src = _int_column("src", src)
    dst = _int_column("dst", dst, len(src))
    weight = np.asarray(weight, dtype=np.float64)
    if weight.shape != src.shape:
        raise ValueError(f"weight: expected {len(src)} values, got shape {weight.shape}")
    if edge_feat is not None:
        edge_feat = _rows("edge_feat", edge_feat, len(src)) if len(src) else None
    c = _canonical(SubgraphColumns(ids, hops, x, src, dst, weight, edge_feat))
    if np.any(c.ids[1:] == c.ids[:-1]):
        raise ValueError("ids: duplicate node id")
    if np.any((c.src[1:] == c.src[:-1]) & (c.dst[1:] == c.dst[:-1])):
        raise ValueError("src/dst: duplicate edge")
    return c


def _canonical(c: SubgraphColumns) -> SubgraphColumns:
    """``c`` with nodes sorted by id and edges by ``(dst, src)``."""
    if np.any(c.ids[1:] < c.ids[:-1]):
        order = np.argsort(c.ids, kind="stable")
        c = c._replace(ids=c.ids[order], hops=c.hops[order], x=c.x[order])
    if len(c.src) > 1:
        order = np.lexsort((c.src, c.dst))
        if np.any(order[1:] < order[:-1]):
            c = c._replace(
                src=c.src[order],
                dst=c.dst[order],
                weight=c.weight[order],
                edge_feat=None if c.edge_feat is None else c.edge_feat[order],
            )
    return c


def _concat_rows(field: str, parts: list[np.ndarray]) -> np.ndarray:
    """One matrix from row blocks that must agree in dtype and row shape —
    ``np.concatenate`` would otherwise cast silently."""
    if len({(part.dtype, part.shape[1:]) for part in parts}) > 1:
        raise ValueError(f"{field}: rows differ in dtype or shape across subgraphs")
    return np.concatenate(parts)


# --------------------------------------------------------------- wire forms
# Tags 0x20-0x2F are reserved for GraphFlat records (0x22 belonged to the
# retired out-edge record and stays unassigned).

_INT_DTYPES = ("<i1", "<i2", "<i4", "<i8")
_HEADERS = tuple(struct.Struct(f"<3{code}") for code in "bhiq")


def _build_wire(c: SubgraphColumns) -> bytes:
    """``width code | ints | feature block | weights | [edge-feature block]``.

    Every integer of the record — node count, edge count, byte length of the
    feature block, then node ids, hops and edge ``(src, dst)`` pairs — goes
    out as one little-endian column at the narrowest signed width that holds
    them all; weights as raw float64; feature rows as one row block
    (:func:`~repro.proto.framing.encode_rows`; the edge block is left out
    when there are no edge features).
    """
    n, m = len(c.ids), len(c.src)
    feat_block = encode_rows(c.x)
    ints = np.empty(3 + 2 * n + 2 * m, dtype=np.int64)
    ints[:3] = (n, m, len(feat_block))
    ints[3 : 3 + n] = c.ids
    ints[3 + n : 3 + 2 * n] = c.hops
    ints[3 + 2 * n :: 2] = c.src
    ints[4 + 2 * n :: 2] = c.dst
    bits = max(int(ints.max()).bit_length(), (~int(ints.min())).bit_length())
    code = 0 if bits < 8 else 1 if bits < 16 else 2 if bits < 32 else 3
    parts = [bytes((code,)), ints.astype(_INT_DTYPES[code]).tobytes(), feat_block]
    if m:
        parts.append(c.weight.astype("<f8").tobytes())
        if c.edge_feat is not None:
            parts.append(encode_rows(c.edge_feat))
    return b"".join(parts)


def _layout(wire) -> tuple[int, int, int, int, int, int]:
    """One header read: ``(width code, n, m, end of ints, end of the feature
    block, end of the weights)``."""
    code = wire[0]
    if code >= len(_HEADERS):
        raise ValueError(f"unknown int width code {code}")
    head = _HEADERS[code]
    n, m, feat_bytes = head.unpack_from(wire, 1)
    ints_end = 1 + head.size + (2 * n + 2 * m) * (head.size // 3)
    feat_end = ints_end + feat_bytes
    if min(n, m, feat_bytes) < 0 or feat_end + 8 * m > len(wire):
        raise ValueError("wire block shorter than its header says")
    return code, n, m, ints_end, feat_end, feat_end + 8 * m


def _block_rows(field: str, block, count: int) -> np.ndarray:
    try:
        rows = decode_rows(block)
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from exc
    if (0 if rows is None else len(rows)) != count:
        raise ValueError(f"{field} block holds a different row count than the header's {count}")
    return rows


def _parse_wire(wire: bytes) -> SubgraphColumns:
    """Inverse of :func:`_build_wire` — the bulk reader over one block."""
    return _canonical(_stack([SubgraphInfo.from_wire(0, wire)])[0])


register_record(0x20, SubgraphInfo, ("root", "wire"), make=SubgraphInfo.from_wire)
register_record(0x21, InEdgeInfo, ("src", "weight", "edge_feat", "subgraph"))


# ------------------------------------------------------------- merge kernel
class _RowTemplate:
    """Bulk reading of one row block per wire: the first block read fixes
    the rows' dtype and shape, after which a block matching its header is
    taken as raw bytes — no per-block parse."""

    def __init__(self, field: str):
        self.field = field
        self.header: bytes | None = None
        self.row_bytes = 0
        self.dtype = self.shape = None

    def raw(self, wire: memoryview, start: int, end: int, count: int) -> memoryview:
        """The ``count`` raw rows of the block at ``wire[start:end]``."""
        if self.header is None:
            rows = _block_rows(self.field, wire[start:end], count)
            self.dtype, self.shape = rows.dtype, rows.shape[1:]
            self.header = rows_header(self.dtype, self.shape)
            self.row_bytes = rows[0].nbytes
        body = start + 4 + len(self.header)
        if wire[start + 4 : body] != self.header or end - body != count * self.row_bytes:
            raise ValueError(f"{self.field}: rows differ in dtype or shape across subgraphs")
        return wire[body:end]

    def rows(self, chunks: list, count: int) -> list[np.ndarray]:
        if not chunks:
            return []
        return [np.frombuffer(b"".join(chunks), dtype=self.dtype).reshape((count, *self.shape))]


def _stack(infos: list[SubgraphInfo]):
    """Every column of ``infos`` end to end: ``(columns, order, n, m)`` where
    ``order[j]`` is the index of the record whose ``n[j]`` nodes and ``m[j]``
    edges come ``j``-th.  Column-resident records are concatenated as they
    are; wire-resident ones are read in bulk — one header read per block,
    one ``frombuffer`` per int width, feature and edge rows as raw bytes —
    and never given columns."""
    columns, held_order = [], []
    by_width: tuple[list, ...] = ([], [], [], [])
    for index, info in enumerate(infos):
        if info._columns is not None:
            columns.append(info._columns)
            held_order.append(index)
        else:
            wire = memoryview(info._wire)
            layout = _layout(wire)
            by_width[layout[0]].append((index, wire, layout))

    x_rows, feat_rows = _RowTemplate("x"), _RowTemplate("edge_feat")
    x_chunks, edge_chunks, weight_chunks = [], [], []
    wired: list[tuple] = []  # per width: (dtype, int chunks, section lengths)
    order, n_counts, m_counts, x_count, edge_count = [], [], [], 0, 0
    with_features = set()
    for code, wires in enumerate(by_width):
        int_chunks, lengths = [], []
        for index, wire, (_, n, m, ints_end, feat_end, weights_end) in wires:
            int_chunks.append(wire[1 + _HEADERS[code].size : ints_end])
            lengths += (n, n, 2 * m)
            x_chunks.append(x_rows.raw(wire, ints_end, feat_end, n))
            x_count += n
            if m:
                weight_chunks.append(wire[feat_end:weights_end])
                with_features.add(weights_end < len(wire))
                if weights_end < len(wire):
                    edge_chunks.append(feat_rows.raw(wire, weights_end, len(wire), m))
                    edge_count += m
            order.append(index)
            n_counts.append(n)
            m_counts.append(m)
        if int_chunks:
            wired.append((_INT_DTYPES[code], int_chunks, lengths))

    ids = [c.ids for c in columns]
    hops = [c.hops for c in columns]
    src = [_NO_INTS] + [c.src for c in columns]
    dst = [_NO_INTS] + [c.dst for c in columns]
    for dtype, int_chunks, lengths in wired:
        ints = np.frombuffer(b"".join(int_chunks), dtype=dtype).astype(np.int64)
        section = np.repeat(np.tile(np.arange(3), len(lengths) // 3), lengths)
        ids.append(ints[section == 0])
        hops.append(ints[section == 1])
        pairs = ints[section == 2]
        src.append(pairs[0::2])
        dst.append(pairs[1::2])
    with_features.update(c.edge_feat is not None for c in columns if len(c.src))
    if len(with_features) > 1:
        raise ValueError("edge_feat: some subgraphs' edges have features and some not")
    weights = [_NO_WEIGHTS] + [c.weight for c in columns]
    if weight_chunks:
        weights.append(np.frombuffer(b"".join(weight_chunks), dtype="<f8"))
    edge_feat = None
    if True in with_features:
        edge_feat = _concat_rows(
            "edge_feat",
            [c.edge_feat for c in columns if len(c.src)] + feat_rows.rows(edge_chunks, edge_count),
        )
    stacked = SubgraphColumns(
        np.concatenate(ids),
        np.concatenate(hops),
        _concat_rows("x", [c.x for c in columns] + x_rows.rows(x_chunks, x_count)),
        np.concatenate(src),
        np.concatenate(dst),
        np.concatenate(weights),
        edge_feat,
    )
    counts = (
        [len(c.ids) for c in columns] + n_counts,
        [len(c.src) for c in columns] + m_counts,
    )
    return stacked, np.asarray(held_order + order, dtype=np.int64), *map(np.asarray, counts)


def stack_flattened(infos: list[SubgraphInfo]) -> StackedFeatures:
    """What :meth:`SubgraphInfo.to_graph_feature` makes of each of
    ``infos``, stacked in their order — one target (the root) per sample,
    edge endpoints local to the sample, float32 features and weights — read
    in bulk (:func:`_stack`), without a per-record object."""
    stacked, held, n, m = _stack(infos)
    node_offsets = np.zeros(len(infos) + 1, dtype=np.int64)
    edge_offsets = np.zeros(len(infos) + 1, dtype=np.int64)
    node_offsets[1:][held] = n
    edge_offsets[1:][held] = m
    np.cumsum(node_offsets, out=node_offsets)
    np.cumsum(edge_offsets, out=edge_offsets)
    nodes = edges = slice(None)
    if np.any(held[1:] < held[:-1]):  # back into input order
        position = np.empty(len(held), dtype=np.int64)
        position[held] = np.arange(len(held))
        nodes = _ranges((np.cumsum(n) - n)[position], n[position])
        edges = _ranges((np.cumsum(m) - m)[position], m[position])
    ids, x = stacked.ids[nodes], stacked.x[nodes]
    src, dst = stacked.src[edges], stacked.dst[edges]
    edge_feat = None if stacked.edge_feat is None else stacked.edge_feat[edges]

    # Local endpoints: a sample's ids are ascending, so (sample, id rank)
    # keys ascend over the whole stack and one search places every edge.
    universe = np.unique(ids)
    width = len(universe)
    counts = np.diff(node_offsets)
    node_keys = np.repeat(np.arange(len(infos)), counts) * width + np.searchsorted(universe, ids)
    edge_sample = np.repeat(np.arange(len(infos)), np.diff(edge_offsets))
    base = edge_sample * width
    start = node_offsets[:-1][edge_sample]
    local_src = np.searchsorted(node_keys, base + np.searchsorted(universe, src)) - start
    local_dst = np.searchsorted(node_keys, base + np.searchsorted(universe, dst)) - start
    return StackedFeatures(
        target_offsets=np.arange(len(infos) + 1, dtype=np.int64),
        target_ids=np.asarray([info.root for info in infos], dtype=np.int64),
        node_offsets=node_offsets,
        node_ids=ids,
        hops=stacked.hops[nodes],
        x=x.astype(np.float32),
        edge_offsets=edge_offsets,
        edge_src=local_src,
        edge_dst=local_dst,
        edge_weight=stacked.weight[edges].astype(np.float32),
        edge_feat=None if edge_feat is None else edge_feat.astype(np.float32),
    )


def _firsts(*keys: np.ndarray) -> np.ndarray:
    """Positions of the first row of each run of equal ``keys`` in rows
    already sorted by them."""
    first = np.ones(len(keys[0]), dtype=bool)
    if len(first) > 1:
        first[1:] = np.logical_or.reduce([key[1:] != key[:-1] for key in keys])
    return np.flatnonzero(first)


def merge_neighborhoods(
    selves: list[SubgraphInfo],
    neighbors: list[SubgraphInfo],
    offsets: np.ndarray,
    weight: np.ndarray,
    edge_feat: np.ndarray | None,
) -> list[SubgraphInfo]:
    """GraphFlat's merge for a batch of nodes, one kernel call: node ``i``'s
    k-hop neighborhood is its own (k-1)-hop one (``selves[i]``) plus every
    sampled neighbor's (k-1)-hop one a hop further out, plus the connecting
    edges ``neighbor -> i``.  Node ``i``'s sampled in-edges are the rows
    ``offsets[i]:offsets[i + 1]`` of the edge columns: the senders'
    neighborhoods ``neighbors``, ``weight`` and ``edge_feat`` (a matrix, or
    ``None`` without edge features).

    1. Concatenate the batch's self columns and sampled-neighbor columns
       (neighbor hops + 1), plus the connecting edges.
    2. Deduplicate nodes with one lexsort: per batch node and id, the
       minimum hop.
    3. Deduplicate edges with one lexsort: per batch node, dst and src.
    4. Slice the result per batch node.

    A node's feature row and an edge's weight / features are functions of
    its id (they come from the node and edge tables), so which duplicate is
    kept only decides the hop — the minimum, as Definition 1 asks."""
    if not selves:
        return []
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = np.diff(offsets)
    infos: list[SubgraphInfo] = []
    for i, self_info in enumerate(selves):  # each node, then its neighbors
        infos.append(self_info)
        infos.extend(neighbors[offsets[i] : offsets[i + 1]])
    owner = np.repeat(np.arange(len(selves)), counts + 1)
    lift = np.ones(len(infos), dtype=np.int64)
    lift[np.cumsum(counts + 1) - (counts + 1)] = 0
    link_owner = np.repeat(np.arange(len(selves)), counts)
    link_src = [neighbor.root for neighbor in neighbors]
    link_dst = np.repeat(np.asarray([info.root for info in selves], dtype=np.int64), counts)
    stacked, order, n_counts, m_counts = _stack(infos)
    owner = owner[order]
    lift = lift[order]

    # ---- nodes: minimum hop per (batch node, id)
    node_owner = np.repeat(owner, n_counts)
    hops = stacked.hops + np.repeat(lift, n_counts)
    ranked = np.lexsort((hops, stacked.ids, node_owner))
    keep = ranked[_firsts(node_owner[ranked], stacked.ids[ranked])]
    node_owner, ids, hops, x = node_owner[keep], stacked.ids[keep], hops[keep], stacked.x[keep]

    # ---- edges: connecting edges first, then every subgraph's, one per
    # (batch node, dst, src)
    links = edge_feat
    edge_owner = np.concatenate([link_owner, np.repeat(owner, m_counts)])
    src = np.concatenate([np.asarray(link_src, dtype=np.int64), stacked.src])
    dst = np.concatenate([link_dst, stacked.dst])
    weight = np.concatenate([np.asarray(weight, dtype=np.float64), stacked.weight])
    edge_feat = stacked.edge_feat
    if link_src:
        if len(stacked.src) and (links is None) != (edge_feat is None):
            raise ValueError("edge_feat: some edges have features and some not")
        if links is not None:
            edge_feat = links if edge_feat is None else _concat_rows("edge_feat", [links, edge_feat])
    ranked = np.lexsort((src, dst, edge_owner))
    keep = ranked[_firsts(edge_owner[ranked], dst[ranked], src[ranked])]
    edge_owner, src, dst, weight = edge_owner[keep], src[keep], dst[keep], weight[keep]
    if edge_feat is not None:
        edge_feat = edge_feat[keep]

    # ---- one record per batch node, over slices of the merged columns
    bounds = np.arange(len(selves) + 1)
    node_at = np.searchsorted(node_owner, bounds).tolist()
    edge_at = np.searchsorted(edge_owner, bounds).tolist()
    merged = []
    for i, self_info in enumerate(selves):
        a, b = node_at[i], node_at[i + 1]
        c, d = edge_at[i], edge_at[i + 1]
        merged.append(
            SubgraphInfo._of(
                self_info.root,
                SubgraphColumns(
                    ids[a:b], hops[a:b], x[a:b], src[c:d], dst[c:d], weight[c:d],
                    None if edge_feat is None or c == d else edge_feat[c:d],
                ),
            )
        )
    return merged
