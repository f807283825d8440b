"""``GraphFeature`` — the flattened k-hop neighborhood of §3.2.

A ``GraphFeature`` is the self-contained record GraphFlat emits for each
target node: the nodes within k hops (along reverse in-edge paths), their
features, the connecting edges with features/weights, and per-node hop
distances.  "Since the k-hop neighborhood w.r.t. a node helps discriminate
the node from others, we also call it GraphFeature" (§3.2.1).

The byte-level flattening ("protobuf strings" in the paper) lives in
``repro.proto``; this module is the in-memory form, its stacked form
(:class:`StackedFeatures` — many GraphFeatures as columns plus offset
tables, the layout columnar shards store) and the one *merge* kernel
(:func:`merge_groups`).  The kernel merges G independent groups of stacked
samples in a single array pass, each group exactly as if merged alone.  It
has two callers: GraphTrainer's vectorization phase (§3.3.1), where a group
is a batch and one call covers a window of batches, and GraphFlat's
pairing round, where a group is the two endpoint neighborhoods of a
target edge and one call covers a buffer of edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "GatheredRows",
    "GraphFeature",
    "MergedGroups",
    "MergedSubgraph",
    "StackedFeatures",
    "merge_groups",
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
        ``(m, fe) float32``, or ``None`` when the graph has no edge features
        or the sample has no edges — one convention for every form of a
        sample: in memory, on the wire and read back from a shard.
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
        _lookup(ordered, self.target_ids)  # raises unless every target is a node

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
    range.  This is the layout columnar shards store on disk, so a window
    of batches is gathered out of the mmap with one fancy-index per column
    and shard and fed to :func:`merge_groups` without a per-sample object
    in between.

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
        # A sample without edges carries no edge features, so it agrees
        # with any edge feature dim.
        fe_dims = {
            f.edge_feature_dim for f in features if f.num_edges or f.edge_feat is not None
        }
        if len(fe_dims) > 1:
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
        width = fe_dims.pop() if fe_dims else 0
        if width:
            edge_feat = np.concatenate(
                [
                    np.zeros((0, width), np.float32) if f.edge_feat is None else f.edge_feat
                    for f in features
                ]
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

    def feature(self, i: int) -> GraphFeature:
        """Sample ``i`` as a GraphFeature over slices of the columns (``x``
        a matrix); it carries no edge features when it has no edges."""
        t = slice(*self.target_offsets[i : i + 2].tolist())
        n = slice(*self.node_offsets[i : i + 2].tolist())
        e = slice(*self.edge_offsets[i : i + 2].tolist())

        def part(column, rows):
            return None if column is None else column[rows]

        return GraphFeature(
            self.target_ids[t],
            self.node_ids[n],
            self.x[n],
            self.hops[n],
            self.edge_src[e],
            self.edge_dst[e],
            part(self.edge_feat, e) if e.stop > e.start else None,
            self.edge_weight[e],
            part(self.node_type, n),
            part(self.edge_type, e),
        )

    def sample(self, i: int) -> tuple[int, int | np.ndarray | None, GraphFeature]:
        """Sample ``i`` as a ``(sample_id, label, GraphFeature)`` triple, the
        label an ``int``, a float32 vector or ``None``."""
        labels = self.labels
        if labels is not None:
            labels = int(labels[i]) if labels.ndim == 1 else labels[i]
        return int(self.sample_ids[i]), labels, self.feature(i)


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


class MergedGroups(NamedTuple):
    """:func:`merge_groups` output: G merged subgraphs as stacked columns
    plus per-group offset tables — the AGLC layout.  Group ``g`` owns
    ``node_ids[node_offsets[g]:node_offsets[g + 1]]`` (and that range of
    every per-node column), likewise for edges and targets; ``edge_src`` /
    ``edge_dst`` / ``target_index`` are rows *local* to the group's node
    range."""

    node_offsets: np.ndarray
    node_ids: np.ndarray
    x: np.ndarray
    hops: np.ndarray
    node_type: np.ndarray | None
    edge_offsets: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_weight: np.ndarray
    edge_feat: np.ndarray | None
    edge_type: np.ndarray | None
    target_offsets: np.ndarray
    target_ids: np.ndarray
    target_index: np.ndarray

    @property
    def num_groups(self) -> int:
        return len(self.node_offsets) - 1

    def group(self, g: int) -> MergedSubgraph:
        """Group ``g`` alone, as slices of the stacked columns."""
        n = slice(*self.node_offsets[g : g + 2].tolist())
        e = slice(*self.edge_offsets[g : g + 2].tolist())
        t = slice(*self.target_offsets[g : g + 2].tolist())

        def part(column, rows):
            return None if column is None else column[rows]

        return MergedSubgraph(
            self.target_ids[t],
            self.node_ids[n],
            self.x[n],
            self.hops[n],
            self.edge_src[e],
            self.edge_dst[e],
            part(self.edge_feat, e),
            self.edge_weight[e],
            part(self.node_type, n),
            part(self.edge_type, e),
            self.target_index[t],
        )


def _lookup(keys: np.ndarray, queries: np.ndarray, sorter=None) -> np.ndarray:
    """Position of every query in ``keys`` (sorted, or with its argsort);
    a query ``keys`` does not hold is a target outside its nodes."""
    if not len(queries):
        return np.zeros(0, dtype=np.int64)
    if not len(keys):
        raise ValueError("targets must be contained in node_ids")
    at = np.searchsorted(keys, queries, sorter=sorter).clip(max=len(keys) - 1)
    if sorter is not None:
        at = sorter[at]
    if (keys[at] != queries).any():
        raise ValueError("targets must be contained in node_ids")
    return at


def _malformed(stacked: StackedFeatures, bad_edges: np.ndarray, message: str):
    """Raise ``message``, naming the sample that owns the first bad edge."""
    at = np.searchsorted(stacked.edge_offsets, np.flatnonzero(bad_edges)[0], side="right") - 1
    sample = at if stacked.sample_ids is None else stacked.sample_ids[at]
    raise ValueError(f"{message} (sample {sample})")


def merge_groups(stacked: StackedFeatures, group_offsets) -> MergedGroups:
    """Merge G independent groups of stacked samples in one array pass
    (§3.3.1 step 1) — the one merge implementation: the trainer merges a
    window of batches per call, GraphFlat's pairing round a buffer of
    target edges (two endpoint samples each).  Group ``g`` is samples
    ``group_offsets[g]:group_offsets[g + 1]``; each group's output is what
    merging that group alone gives:

    * **Nodes** are deduplicated by global id and sorted by it, each with
      the features of its first occurrence; ``hops`` become the *minimum*
      distance to any target of the group, which is exactly ``d(V_B, u)``
      of the pruning section (§3.3.2).
    * **Edges** are deduplicated on ``(global_src, global_dst)`` keeping the
      first in group order (parallel edges inside one neighborhood are
      assumed distinct-by-endpoint — GraphFlat collapses duplicates the
      same way), then sorted by destination (the paper's adjacency-matrix
      contract) with edges into one destination left in group order — the
      order float aggregation sums them in.
    * **Targets** are the group's distinct target ids, sorted.
    * A **one-sample group** is returned as stored — node order and target
      order kept, nothing deduplicated — with its edges only
      destination-sorted.

    Ids are arbitrary int64: they are ranked once, and ``(group, rank)``
    pairs — never raw ids — are packed into the int64 sort keys.  Endpoint
    ranges, non-negative endpoints and targets-within-nodes are checked
    once for the whole call.
    """
    group_offsets = np.asarray(group_offsets, dtype=np.int64)
    sizes = np.diff(group_offsets)
    if not len(sizes) or (sizes < 1).any():
        raise ValueError("cannot merge an empty batch")
    if group_offsets[0] != 0 or group_offsets[-1] != stacked.num_samples:
        raise ValueError("group offsets must cover the stacked samples")
    node_counts = np.diff(stacked.node_offsets)
    edge_counts = np.diff(stacked.edge_offsets)
    beyond = np.maximum(stacked.edge_src, stacked.edge_dst) >= np.repeat(node_counts, edge_counts)
    if beyond.any():
        _malformed(stacked, beyond, "edge endpoints out of range")
    negative = np.minimum(stacked.edge_src, stacked.edge_dst) < 0
    if negative.any():
        _malformed(stacked, negative, "edge endpoints must be non-negative")

    num_groups = len(sizes)
    single = sizes == 1
    any_single = bool(single.any())
    sample_group = np.repeat(np.arange(num_groups), sizes)
    target_counts = np.diff(stacked.target_offsets)
    group_nodes = np.diff(stacked.node_offsets[group_offsets])
    # ``width`` exceeds every rank and every within-sample position, so
    # ``group * width + rank_or_position`` orders by group first.
    width = len(stacked.node_ids) + len(stacked.target_ids) + 1

    # ---- nodes: sorted by id once, which ranks the ids, then stably by
    # group (a radix pass over small ints).  A one-sample group's nodes are
    # put back in stored order, and none of them is deduplicated.
    num_nodes = len(stacked.node_ids)
    by_id = np.argsort(stacked.node_ids)
    ranked = stacked.node_ids[by_id]
    new_id = np.empty(num_nodes, dtype=bool)
    new_id[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new_id[1:])
    ids = ranked[new_id]
    # Stacked nodes are group-major already, so the group of the i-th node
    # and of the i-th node in sorted order are one array.
    node_group = np.repeat(np.arange(num_groups), group_nodes)
    by_group = np.argsort(
        node_group[by_id].astype(np.min_scalar_type(num_groups)), kind="stable"
    )
    order = by_id[by_group]
    run_rank = (np.cumsum(new_id) - 1)[by_group]
    new = np.empty(num_nodes, dtype=bool)
    new[:1] = True
    np.not_equal(run_rank[1:], run_rank[:-1], out=new[1:])
    boundaries = np.cumsum(group_nodes)[:-1]
    new[boundaries[boundaries < num_nodes]] = True
    if any_single:
        alone = np.repeat(single, group_nodes)
        order[alone] = np.flatnonzero(alone)  # stored order, same place
        new |= alone
        run_rank[alone] = 0  # keeps ``keys`` ascending
    starts = np.flatnonzero(new)
    first = np.minimum.reduceat(order, starts) if num_nodes else starts
    hops = np.minimum.reduceat(stacked.hops[order], starts) if num_nodes else stacked.hops[:0]
    slot = np.empty(num_nodes, dtype=np.int64)
    slot[order] = np.cumsum(new) - 1
    run_group = node_group[starts]
    keys = run_group * width + run_rank[starts]  # (group, rank) per merged node
    node_offsets = np.searchsorted(run_group, np.arange(num_groups + 1))

    # ---- targets, the same way: sorted distinct per multi-sample group,
    # as stored per one-sample group.
    target_group = np.repeat(sample_group, target_counts)
    target_single = single[target_group]
    target_rank = _lookup(ids, stacked.target_ids)
    target_within = target_rank.copy()
    if any_single:
        position = np.arange(len(target_within)) - np.repeat(
            stacked.target_offsets[:-1], target_counts
        )
        target_within[target_single] = position[target_single]
    target_keys, target_first = np.unique(target_group * width + target_within, return_index=True)
    target_offsets = np.searchsorted(target_keys, np.arange(num_groups + 1) * width)
    target_ids = stacked.target_ids[target_first]
    target_group = target_group[target_first]
    target_rank = target_rank[target_first]
    target_single = target_single[target_first]

    # Each target's merged row: a multi-sample group's nodes are keyed by
    # (group, rank) already; a one-sample group's are looked up by rank
    # among that group's stored nodes.
    wanted = target_group * width + target_rank
    target_row = np.empty(len(target_ids), dtype=np.int64)
    multi = ~target_single
    target_row[multi] = _lookup(keys, wanted[multi])
    if target_single.any():
        alone = np.flatnonzero(np.repeat(single, group_nodes))
        alone_keys = node_group[alone] * width + np.searchsorted(ids, stacked.node_ids[alone])
        found = _lookup(
            alone_keys, wanted[target_single], np.argsort(alone_keys, kind="stable")
        )
        target_row[target_single] = slot[alone[found]]
    target_index = target_row - node_offsets[target_group]

    # ---- edges: local endpoints -> stacked rows -> merged rows; dedupe on
    # one int64 key per edge (one-sample groups' edges get keys of their
    # own, past every pair key), then order the kept ones by (destination,
    # position) with a plain sort of that pair packed into one int64 (every
    # factor is an array length, so it cannot overflow).
    base = np.repeat(stacked.node_offsets[:-1], edge_counts)
    src = slot[stacked.edge_src + base]
    dst = slot[stacked.edge_dst + base]
    num_edges = len(src)
    if single.all():
        keep = np.arange(num_edges)
    else:
        pair = src * len(keys) + dst
        if any_single:
            edge_single = np.repeat(single, np.diff(stacked.edge_offsets[group_offsets]))
            pair[edge_single] = len(keys) ** 2 + np.flatnonzero(edge_single)
        by_pair = np.argsort(pair)
        ranked = pair[by_pair]
        new = np.empty(num_edges, dtype=bool)
        new[:1] = True
        np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
        keep = np.minimum.reduceat(by_pair, np.flatnonzero(new)) if num_edges else by_pair
    packed = dst[keep] * num_edges + keep
    packed.sort()
    edge_order = packed % max(num_edges, 1)
    dst = dst[edge_order]
    edge_offsets = np.searchsorted(dst, node_offsets)
    shift = np.repeat(node_offsets[:-1], np.diff(edge_offsets))

    def edges(column):
        return None if column is None else column[edge_order]

    return MergedGroups(
        node_offsets,
        stacked.node_ids[first],
        stacked.node_features(first),
        hops,
        None if stacked.node_type is None else stacked.node_type[first],
        edge_offsets,
        src[edge_order] - shift,
        dst - shift,
        edges(stacked.edge_weight),
        edges(stacked.edge_feat),
        edges(stacked.edge_type),
        target_offsets,
        target_ids,
        target_index,
    )


def merge_stacked(stacked: StackedFeatures) -> MergedSubgraph:
    """Merge a stacked batch into one subgraph: :func:`merge_groups` with
    the whole batch as its one group (see there for the contract)."""
    if stacked.num_samples < 1:
        raise ValueError("cannot merge an empty batch")
    return merge_groups(stacked, [0, stacked.num_samples]).group(0)
