"""Value types flowing through GraphFlat's shuffles, and the merge kernel.

The paper's Reduce phase handles "three kinds of information" per node
(§3.2.1): the **self information** (here :class:`SubgraphInfo` — the
accumulated (k-1)-hop neighborhood), the **in-edge information**
(:class:`InEdgeInfo` — edge feature/weight plus the sender's self
information) and the **out-edge information** (where to propagate next
round — unchanged from round to round, so it never crosses the shuffle: the
propagation engine reads it from its ``OutEdges`` side input).  The two
shuffled kinds are registered with the binary shuffle codec (bottom of this
module).

A batch of neighborhoods is one ragged column
(:class:`~repro.proto.framing.RaggedColumn`): per record its root and its
node and edge counts; node ids, hops and feature rows end to end at node
level; edge sources, destinations, weights and feature rows at edge level —
each record's nodes sorted by id, its edges by ``(dst, src)``, the order the
stored GraphFeature has.  That is what the merge kernel emits, what a spill
chunk holds (ints narrowed once per chunk, no header per record) and what
the next merge reads, as ``(block, rows)`` segments: no neighborhood is
built, sized or parsed one record at a time on its way through a shuffle.
:class:`SubgraphInfo` is one neighborhood as an object — a row of such a
column, or a record built from its parts.

:func:`merge_neighborhoods` is the Reduce phase's merge for a whole batch of
nodes at once: it gathers the batch's self and neighbor rows into one block
and deduplicates nodes and edges with one sort each — no per-node dict, no
per-record step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.graph.subgraph import GraphFeature, StackedFeatures
from repro.proto.framing import (
    Column,
    NoneColumn,
    RaggedColumn,
    columnize,
    concat_columns,
    register_ragged,
    register_record,
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
    """Accumulated neighborhood of ``root`` (the "self information"), as
    :class:`SubgraphColumns` — never as per-node Python objects.  Records
    are immutable: the merge builds new ones, so a record shared by every
    reducer it was propagated to is never changed under them.  In a shuffle
    a batch of them is one ragged column (module docstring); a record
    pickles as its columns."""

    __slots__ = ("root", "columns")

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
        self.columns = _validated(self.root, ids, hops, x, src, dst, weight, edge_feat)

    @classmethod
    def _of(cls, root: int, columns: SubgraphColumns) -> "SubgraphInfo":
        """A record over canonical columns, unchecked."""
        info = cls.__new__(cls)
        info.root = root
        info.columns = columns
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

    @staticmethod
    def seeds(node_ids, x: np.ndarray) -> RaggedColumn:
        """:meth:`seed` of every node ``node_ids[i]`` with the feature row
        ``x[i]``, as one ragged column."""
        ids = np.asarray(node_ids, dtype=np.int64)
        count = len(ids)
        return RaggedColumn.of(
            SubgraphInfo,
            ids,
            (np.arange(count + 1), np.zeros(count + 1, dtype=np.int64)),
            ((ids, np.zeros(count, dtype=np.int64), x), (_NO_INTS, _NO_INTS, None, None)),
        )

    @property
    def nbytes(self) -> int:
        """Bytes the record's columns hold."""
        return sum(column.nbytes for column in self.columns if column is not None)

    @property
    def num_nodes(self) -> int:
        return len(self.columns.ids)

    @property
    def num_edges(self) -> int:
        return len(self.columns.src)

    def __repr__(self) -> str:
        return f"SubgraphInfo(root={self.root}, nodes={self.num_nodes}, edges={self.num_edges})"

    def to_graph_feature(self) -> GraphFeature:
        """Flatten to the storage/training form (§3.2.1 "Storing"): the
        record's one row of :func:`stack_flattened`."""
        return stack_flattened(columnize([self])).feature(0)


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
    def info_column(subgraphs) -> Column:
        """A batch's per-node subgraphs as a column: the ragged column the
        merge (or the seeding) made, as it is."""
        return subgraphs if isinstance(subgraphs, Column) else columnize(list(subgraphs))

    @staticmethod
    def info_sizes(column: Column) -> np.ndarray:
        """The :attr:`SubgraphInfo.nbytes` of each subgraph of ``column``,
        from its offsets."""
        if not len(column):
            return np.zeros(0, dtype=np.int64)
        return column.materialized().sizes()

    @staticmethod
    def info_approx(column: Column) -> np.ndarray:
        """What :func:`~repro.proto.framing.approx_nbytes` counts for each
        subgraph of ``column``."""
        if not len(column):
            return np.zeros(0, dtype=np.int64)
        return column.materialized().approx_sizes()


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


# ------------------------------------------------------------- codec forms
# Tags 0x20-0x2F are reserved for GraphFlat records (0x22 belonged to the
# retired out-edge record and stays unassigned).


def _parts(info: SubgraphInfo) -> tuple:
    return (info.root, *info.columns)


def _make(root, ids, hops, x, src, dst, weight, edge_feat) -> SubgraphInfo:
    return SubgraphInfo._of(
        root,
        SubgraphColumns(
            ids, hops, x, src, dst, _NO_WEIGHTS if weight is None else weight,
            edge_feat if len(src) else None,
        ),
    )


register_ragged(
    0x20, SubgraphInfo, (("ids", "hops", "x"), ("src", "dst", "weight", "edge_feat")), _parts, _make
)
register_record(0x21, InEdgeInfo, ("src", "weight", "edge_feat", "subgraph"))


# ------------------------------------------------------------- merge kernel
def _levels(column: Column):
    """``column``'s rows as one block: ``(roots, node counts, (ids, hops,
    x), edge counts, (src, dst, weight, edge_feat))``."""
    block = column.materialized().block()
    (ids, hops, x), (src, dst, weight, edge_feat) = block.members
    node_offsets, edge_offsets = block.offsets
    return (
        block.heads, node_offsets, (ids, hops, x), edge_offsets,
        (src, dst, _NO_WEIGHTS if weight is None else weight, edge_feat),
    )


def stack_flattened(column: Column) -> StackedFeatures:
    """The storage/training form of each subgraph of ``column`` (§3.2.1
    "Storing"), stacked in row order — one target (the root) per sample,
    edge endpoints local to the sample, float32 features and weights — read
    as one block, without a per-record object.  The columns are already in
    the stored order — nodes by id, edges by ``(dst, src)`` — so the
    flattened bytes are identical no matter how reducers were partitioned
    (re-indexing, retries, ...)."""
    roots, node_offsets, (ids, hops, x), edge_offsets, (src, dst, weight, edge_feat) = (
        _levels(column)
    )
    count = len(roots)
    # Local endpoints: a sample's ids are ascending, so (sample, id rank)
    # keys ascend over the whole stack and one search places every edge.
    universe = np.unique(ids)
    width = len(universe)
    node_keys = np.repeat(np.arange(count), np.diff(node_offsets)) * width + np.searchsorted(
        universe, ids
    )
    edge_sample = np.repeat(np.arange(count), np.diff(edge_offsets))
    base = edge_sample * width
    start = node_offsets[:-1][edge_sample]
    local_src = np.searchsorted(node_keys, base + np.searchsorted(universe, src)) - start
    local_dst = np.searchsorted(node_keys, base + np.searchsorted(universe, dst)) - start
    return StackedFeatures(
        target_offsets=np.arange(count + 1, dtype=np.int64),
        target_ids=roots,
        node_offsets=node_offsets,
        node_ids=ids,
        hops=hops,
        x=x.astype(np.float32, copy=False),
        edge_offsets=edge_offsets,
        edge_src=local_src,
        edge_dst=local_dst,
        edge_weight=weight.astype(np.float32),
        edge_feat=None if edge_feat is None else edge_feat.astype(np.float32, copy=False),
    )


def _firsts(*keys: np.ndarray) -> np.ndarray:
    """Positions of the first row of each run of equal ``keys`` in rows
    already sorted by them."""
    first = np.ones(len(keys[0]), dtype=bool)
    if len(first) > 1:
        first[1:] = np.logical_or.reduce([key[1:] != key[:-1] for key in keys])
    return np.flatnonzero(first)


def merge_neighborhoods(
    selves: Column,
    neighbors: Column,
    offsets: np.ndarray,
    weight: np.ndarray,
    edge_feat: np.ndarray | None,
) -> Column:
    """GraphFlat's merge for a batch of nodes, one kernel call: node ``i``'s
    k-hop neighborhood is its own (k-1)-hop one (row ``i`` of ``selves``)
    plus every sampled neighbor's (k-1)-hop one a hop further out, plus the
    connecting edges ``neighbor -> i``.  Node ``i``'s sampled in-edges are
    the rows ``offsets[i]:offsets[i + 1]`` of the edge columns: the
    senders' neighborhoods ``neighbors``, ``weight`` and ``edge_feat`` (a
    matrix, or ``None`` without edge features).  Returns the batch's
    neighborhoods as one ragged column over the merged arrays.

    1. Gather the batch's self and neighbor rows into one block — a ranged
       copy per segment of the chunks they are rows of (neighbor hops + 1),
       plus the connecting edges.
    2. Deduplicate nodes with one lexsort: per batch node and id, the
       minimum hop.
    3. Deduplicate edges with one lexsort: per batch node, dst and src.
    4. The offsets of each batch node's rows are two searches.

    A node's feature row and an edge's weight / features are functions of
    its id (they come from the node and edge tables), so which duplicate is
    kept only decides the hop — the minimum, as Definition 1 asks."""
    count = len(selves)
    if not count:
        return NoneColumn(0)
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = np.diff(offsets)
    heads, node_offsets, (ids, hops, x), edge_offsets, (src, dst, weights, feats) = _levels(
        concat_columns([selves, neighbors])
    )
    roots = heads[:count]
    owner = np.concatenate([np.arange(count), np.repeat(np.arange(count), counts)])
    lift = np.repeat([0, 1], [count, len(neighbors)])

    # ---- nodes: minimum hop per (batch node, id)
    n_counts = np.diff(node_offsets)
    node_owner = np.repeat(owner, n_counts)
    hops = hops + np.repeat(lift, n_counts)
    ranked = np.lexsort((hops, ids, node_owner))
    keep = ranked[_firsts(node_owner[ranked], ids[ranked])]
    node_owner, ids, hops, x = node_owner[keep], ids[keep], hops[keep], x[keep]

    # ---- edges: connecting edges first, then every subgraph's, one per
    # (batch node, dst, src)
    links = edge_feat
    edge_owner = np.concatenate(
        [np.repeat(np.arange(count), counts), np.repeat(owner, np.diff(edge_offsets))]
    )
    src = np.concatenate([heads[count:], src])
    dst = np.concatenate([np.repeat(roots, counts), dst])
    weight = np.concatenate([np.asarray(weight, dtype=np.float64), weights])
    edge_feat = feats
    if len(neighbors):
        if int(edge_offsets[-1]) and (links is None) != (edge_feat is None):
            raise ValueError("edge_feat: some edges have features and some not")
        if links is not None:
            edge_feat = links if edge_feat is None else _concat_rows("edge_feat", [links, edge_feat])
    ranked = np.lexsort((src, dst, edge_owner))
    keep = ranked[_firsts(edge_owner[ranked], dst[ranked], src[ranked])]
    edge_owner, src, dst, weight = edge_owner[keep], src[keep], dst[keep], weight[keep]
    if edge_feat is not None:
        edge_feat = edge_feat[keep]

    bounds = np.arange(count + 1)
    return RaggedColumn.of(
        SubgraphInfo,
        roots,
        (np.searchsorted(node_owner, bounds), np.searchsorted(edge_owner, bounds)),
        ((ids, hops, x), (src, dst, weight, edge_feat)),
    )
