"""``GraphFeature`` — the flattened k-hop neighborhood of §3.2.

A ``GraphFeature`` is the self-contained record GraphFlat emits for each
target node: the nodes within k hops (along reverse in-edge paths), their
features, the connecting edges with features/weights, and per-node hop
distances.  "Since the k-hop neighborhood w.r.t. a node helps discriminate
the node from others, we also call it GraphFeature" (§3.2.1).

The byte-level flattening ("protobuf strings" in the paper) lives in
``repro.proto``; this module is the in-memory form plus the batch *merge*
operation that GraphTrainer's vectorization phase performs (§3.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "GatheredRows",
    "GraphFeature",
    "MergedSubgraph",
    "StackedFeatures",
    "merge_graph_features",
    "merge_stacked",
    "split_by_source",
    "take_rows",
]


@dataclass
class GraphFeature:
    """Flattened k-hop neighborhood w.r.t. one (or several) target nodes.

    Attributes
    ----------
    target_ids:
        ``(t,) int64`` global ids of the target node(s).  GraphFlat emits one
        target per feature; merged batches carry all batch targets.
    node_ids:
        ``(n,) int64`` global ids of every node in the neighborhood.  The
        targets are always present.
    x:
        ``(n, fn) float32`` node feature matrix.
    hops:
        ``(n,) int64`` — ``hops[i]`` is ``d(targets, node_i)``: the length of
        the shortest directed path from node ``i`` to the nearest target
        (0 for targets themselves).  Drives graph pruning (§3.3.2).
    edge_src / edge_dst:
        ``(m,) int64`` **local** indices into ``node_ids``.  Edge direction is
        ``src -> dst`` exactly as in the edge table.
    edge_feat:
        ``(m, fe) float32`` or ``None`` when the graph has no edge features.
    edge_weight:
        ``(m,) float32`` positive weights (``A_{v,u}``).
    node_type / edge_type:
        optional ``(n,)`` / ``(m,)`` int64 type ids for heterogeneous
        graphs (typed tables); ``None`` on homogeneous graphs — wire and
        shard encodings of untyped features are byte-identical to the
        pre-typed format.
    """

    target_ids: np.ndarray
    node_ids: np.ndarray
    x: np.ndarray
    hops: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_feat: np.ndarray | None = None
    edge_weight: np.ndarray | None = None
    node_type: np.ndarray | None = None
    edge_type: np.ndarray | None = None
    _pos: dict[int, int] = field(default=None, repr=False, compare=False)  # type: ignore[assignment]

    def __post_init__(self):
        self.target_ids = np.atleast_1d(np.asarray(self.target_ids, dtype=np.int64))
        self.node_ids = np.asarray(self.node_ids, dtype=np.int64)
        self.x = np.asarray(self.x, dtype=np.float32)
        self.hops = np.asarray(self.hops, dtype=np.int64)
        self.edge_src = np.asarray(self.edge_src, dtype=np.int64)
        self.edge_dst = np.asarray(self.edge_dst, dtype=np.int64)
        if self.edge_weight is None:
            self.edge_weight = np.ones(len(self.edge_src), dtype=np.float32)
        else:
            self.edge_weight = np.asarray(self.edge_weight, dtype=np.float32)
        if self.edge_feat is not None:
            self.edge_feat = np.asarray(self.edge_feat, dtype=np.float32)
        if self.node_type is not None:
            self.node_type = np.asarray(self.node_type, dtype=np.int64)
        if self.edge_type is not None:
            self.edge_type = np.asarray(self.edge_type, dtype=np.int64)
        self._validate()

    def _validate(self) -> None:
        n, m = len(self.node_ids), len(self.edge_src)
        ordered = np.sort(self.node_ids)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("GraphFeature node_ids contain duplicates")
        if self.x.shape[0] != n:
            raise ValueError(f"x has {self.x.shape[0]} rows for {n} nodes")
        if self.hops.shape != (n,):
            raise ValueError("hops must have one entry per node")
        if self.edge_dst.shape != (m,) or self.edge_weight.shape != (m,):
            raise ValueError("edge arrays must be aligned")
        if m and (self.edge_src.max() >= n or self.edge_dst.max() >= n):
            raise ValueError("edge endpoints out of range")
        if m and (self.edge_src.min() < 0 or self.edge_dst.min() < 0):
            raise ValueError("edge endpoints must be non-negative")
        if self.edge_feat is not None and self.edge_feat.shape[0] != m:
            raise ValueError("edge_feat must have one row per edge")
        if self.node_type is not None and self.node_type.shape != (n,):
            raise ValueError("node_type must have one entry per node")
        if self.edge_type is not None and self.edge_type.shape != (m,):
            raise ValueError("edge_type must have one entry per edge")
        _rows_of(ordered, self.target_ids)  # raises unless every target is a node

    def _positions(self) -> dict[int, int]:
        """Global id -> local row, built on first lookup: most features
        (decoded, re-encoded, merged) are never asked."""
        if self._pos is None:
            self._pos = {int(i): p for p, i in enumerate(self.node_ids)}
        return self._pos

    # ---------------------------------------------------------------- sizes
    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)

    @property
    def feature_dim(self) -> int:
        return self.x.shape[1]

    @property
    def edge_feature_dim(self) -> int:
        return 0 if self.edge_feat is None else self.edge_feat.shape[1]

    @property
    def target_index(self) -> np.ndarray:
        """Local row indices of the targets inside ``node_ids``/``x``."""
        pos = self._positions()
        return np.fromiter(
            (pos[int(t)] for t in self.target_ids),
            dtype=np.int64,
            count=len(self.target_ids),
        )

    def local_index_of(self, node_id: int) -> int:
        return self._positions()[int(node_id)]

    # ------------------------------------------------------------ utilities
    def sorted_by_destination(self) -> "GraphFeature":
        """Copy with edges stably sorted by destination (CSR-ready layout)."""
        order = np.argsort(self.edge_dst, kind="stable")
        return GraphFeature(
            self.target_ids,
            self.node_ids,
            self.x,
            self.hops,
            self.edge_src[order],
            self.edge_dst[order],
            None if self.edge_feat is None else self.edge_feat[order],
            self.edge_weight[order],
            self.node_type,
            None if self.edge_type is None else self.edge_type[order],
        )

    def max_hop(self) -> int:
        return int(self.hops.max(initial=0))


def split_by_source(which: np.ndarray | None, num_sources: int) -> list[np.ndarray] | None:
    """Per source, the output positions it fills (``None``: a single source
    fills them all)."""
    if which is None or num_sources == 1:
        return None
    return [np.flatnonzero(which == k) for k in range(num_sources)]


def take_rows(sources: list[np.ndarray], groups, rows: np.ndarray) -> np.ndarray:
    """``out[j] = sources[source of j][rows[j]]`` with ``groups`` from
    :func:`split_by_source` — one fancy-index per source, scattered into
    output order."""
    if groups is None:
        return sources[0][rows]
    first = sources[0]
    out = np.empty((len(rows),) + first.shape[1:], dtype=first.dtype)
    for source, where in zip(sources, groups):
        out[where] = source[rows[where]]
    return out


class GatheredRows:
    """Feature rows left where they are until asked for: row ``j`` is
    ``sources[which[j]][rows[j]]`` (``which`` is ``None`` with one source).

    Columnar shards hand a batch's ``x`` over like this — the shard columns
    themselves plus row numbers — so that the merge copies features for the
    nodes it keeps and never for their duplicates, which a batch of
    overlapping neighborhoods is mostly made of.
    """

    __slots__ = ("sources", "which", "rows")

    def __init__(self, sources: list[np.ndarray], which: np.ndarray | None, rows: np.ndarray):
        self.sources = sources
        self.which = which
        self.rows = rows

    def take(self, positions: np.ndarray | None = None) -> np.ndarray:
        """Materialise the rows at ``positions`` (default: all of them)."""
        rows, which = self.rows, self.which
        if positions is not None:
            rows = rows[positions]
            which = None if which is None else which[positions]
        return take_rows(self.sources, split_by_source(which, len(self.sources)), rows)


@dataclass
class StackedFeatures:
    """A batch of GraphFeatures as stacked columns plus offset tables.

    Sample ``i`` owns ``node_ids[node_offsets[i]:node_offsets[i + 1]]`` (and
    the same range of every per-node column), likewise for edges and
    targets; ``edge_src``/``edge_dst`` stay *local* to their sample's node
    range.  This is the layout columnar shards store on disk, so a batch is
    gathered out of the mmap with one fancy-index per column and fed to
    :func:`merge_stacked` without a per-sample object in between.

    ``x`` is the ``(n, fn) float32`` matrix or a :class:`GatheredRows` over
    it.  ``sample_ids``/``labels`` ride along for the trainer (``labels`` is
    a ``(B,) int64`` vector, a ``(B, d) float32`` matrix, or ``None``).
    """

    target_offsets: np.ndarray
    target_ids: np.ndarray
    node_offsets: np.ndarray
    node_ids: np.ndarray
    hops: np.ndarray
    x: np.ndarray | GatheredRows
    edge_offsets: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_weight: np.ndarray
    edge_feat: np.ndarray | None = None
    node_type: np.ndarray | None = None
    edge_type: np.ndarray | None = None
    sample_ids: np.ndarray | None = None
    labels: np.ndarray | None = None

    @property
    def num_samples(self) -> int:
        return len(self.node_offsets) - 1

    def node_features(self, positions: np.ndarray | None = None) -> np.ndarray:
        """Feature rows of the stacked nodes at ``positions`` (default: all)."""
        if isinstance(self.x, GatheredRows):
            return self.x.take(positions)
        return self.x if positions is None else self.x[positions]

    @classmethod
    def from_features(
        cls,
        features: list[GraphFeature],
        sample_ids: np.ndarray | None = None,
        labels: np.ndarray | None = None,
    ) -> "StackedFeatures":
        """Stack in-memory features by concatenation."""
        if not features:
            raise ValueError("cannot merge an empty batch")
        fe_dims = {f.edge_feature_dim for f in features}
        if len(fe_dims) != 1:
            raise ValueError(f"inconsistent edge feature dims in batch: {fe_dims}")
        fn_dims = {f.feature_dim for f in features}
        if len(fn_dims) != 1:
            raise ValueError(f"inconsistent node feature dims in batch: {fn_dims}")

        def offsets(counts) -> np.ndarray:
            out = np.zeros(len(features) + 1, dtype=np.int64)
            np.cumsum(counts, out=out[1:])
            return out

        def column(name):
            return np.concatenate([getattr(f, name) for f in features])

        def typed(name):  # typed only when every member is
            if any(getattr(f, name) is None for f in features):
                return None
            return column(name)

        edge_feat = None
        if features[0].edge_feat is not None:
            width = fe_dims.pop()
            edge_feat = np.concatenate(
                [
                    f.edge_feat
                    if f.edge_feat is not None
                    else np.zeros((f.num_edges, width), np.float32)
                    for f in features
                ],
                axis=0,
            )
        return cls(
            target_offsets=offsets([len(f.target_ids) for f in features]),
            target_ids=column("target_ids"),
            node_offsets=offsets([f.num_nodes for f in features]),
            node_ids=column("node_ids"),
            hops=column("hops"),
            x=column("x"),
            edge_offsets=offsets([f.num_edges for f in features]),
            edge_src=column("edge_src"),
            edge_dst=column("edge_dst"),
            edge_weight=column("edge_weight"),
            edge_feat=edge_feat,
            node_type=typed("node_type"),
            edge_type=typed("edge_type"),
            sample_ids=sample_ids,
            labels=labels,
        )


class MergedSubgraph(NamedTuple):
    """:func:`merge_stacked` output: :class:`GraphFeature`'s ten arrays in
    constructor order, then the targets' local rows."""

    target_ids: np.ndarray
    node_ids: np.ndarray
    x: np.ndarray
    hops: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_feat: np.ndarray | None
    edge_weight: np.ndarray
    node_type: np.ndarray | None
    edge_type: np.ndarray | None
    target_index: np.ndarray


def _first_occurrences(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(keys, return_index=True, return_inverse=True)`` without
    its stable sort: the group minimum of the sort permutation *is* the
    first occurrence, whatever order ties landed in."""
    order = np.argsort(keys)
    ranked = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return ranked[starts], np.minimum.reduceat(order, starts), inverse


def _rows_of(node_ids: np.ndarray, targets: np.ndarray, sorter=None) -> np.ndarray:
    """Row of every target inside ``node_ids`` (sorted, or with its argsort)."""
    if not len(targets):
        return np.zeros(0, dtype=np.int64)
    if not len(node_ids):
        raise ValueError("targets must be contained in node_ids")
    rows = np.searchsorted(node_ids, targets, sorter=sorter).clip(max=len(node_ids) - 1)
    if sorter is not None:
        rows = sorter[rows]
    if (node_ids[rows] != targets).any():
        raise ValueError("targets must be contained in node_ids")
    return rows


def merge_stacked(stacked: StackedFeatures) -> MergedSubgraph:
    """Merge a stacked batch into one subgraph (§3.3.1 step 1) — the single
    merge implementation behind the trainer and :func:`merge_graph_features`.

    Overlapping neighborhoods share nodes and edges; the merge dedupes nodes
    by global id and edges by ``(global_src, global_dst)`` (parallel edges
    inside a single neighborhood are assumed already distinct-by-endpoint —
    GraphFlat collapses duplicates the same way).  ``hops`` become the
    *minimum* distance to any target in the batch, which is exactly
    ``d(V_B, u)`` of the pruning section (§3.3.2).

    Node rows come out sorted by global id, each with the features of its
    first occurrence.  Of duplicate edges the first in batch order is kept,
    and the survivors are sorted by destination (the paper's
    adjacency-matrix contract) with edges into one destination left in
    batch order — the order float aggregation sums them in.  A batch of one
    is returned as stored (its node order kept), only destination-sorted.
    """
    num_samples = stacked.num_samples
    if num_samples < 1:
        raise ValueError("cannot merge an empty batch")
    edge_counts = np.diff(stacked.edge_offsets)
    limit = np.repeat(np.diff(stacked.node_offsets), edge_counts)
    if (stacked.edge_src >= limit).any() or (stacked.edge_dst >= limit).any():
        raise ValueError("edge endpoints out of range")
    if (stacked.edge_src < 0).any() or (stacked.edge_dst < 0).any():
        raise ValueError("edge endpoints must be non-negative")

    if num_samples == 1:
        node_ids, x, hops = stacked.node_ids, stacked.node_features(), stacked.hops
        node_type = stacked.node_type
        targets = stacked.target_ids
        target_index = _rows_of(
            node_ids, targets, sorter=np.argsort(node_ids, kind="stable")
        )
        src, dst = stacked.edge_src, stacked.edge_dst
        order = np.argsort(dst, kind="stable")
    else:
        node_ids, first, slot = _first_occurrences(stacked.node_ids)
        x = stacked.node_features(first)
        hops = np.full(len(node_ids), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(hops, slot, stacked.hops)
        node_type = None if stacked.node_type is None else stacked.node_type[first]
        targets = np.unique(stacked.target_ids)
        target_index = _rows_of(node_ids, targets)

        # Edges: local endpoints -> stacked rows -> merged rows; dedupe on
        # one int64 key per edge, then order the kept ones by (destination,
        # batch position) with a plain sort of that pair packed into one
        # int64 (both factors are array lengths, so it cannot overflow).
        base = np.repeat(stacked.node_offsets[:-1], edge_counts)
        src = slot[stacked.edge_src + base]
        dst = slot[stacked.edge_dst + base]
        _, keep, _ = _first_occurrences(src * len(node_ids) + dst)
        packed = dst[keep] * len(src) + keep
        packed.sort()
        order = packed % len(src)

    def edges(column):
        return None if column is None else column[order]

    return MergedSubgraph(
        targets,
        node_ids,
        x,
        hops,
        edges(src),
        edges(dst),
        edges(stacked.edge_feat),
        edges(stacked.edge_weight),
        node_type,
        edges(stacked.edge_type),
        target_index,
    )


def merge_graph_features(features: list[GraphFeature]) -> GraphFeature:
    """Merge a batch of GraphFeatures into one — :func:`merge_stacked` over
    their concatenation (see there for the dedupe and ordering contract)."""
    return GraphFeature(*merge_stacked(StackedFeatures.from_features(features))[:10])
