"""The GraphFlat MapReduce pipeline (§3.2.1) with re-indexing + sampling
(§3.2.2): the propagation engine (:mod:`repro.core.propagation`) instantiated
with *subgraphs* as the self information.

* **Map / Reduce × K**: the engine's rounds; round ``k``'s merge joins the
  sampled in-edge neighbors' (k-1)-hop neighborhoods to the node's own —
  producing its k-hop neighborhood — for a whole batch of nodes in one array
  kernel (:class:`MergeReducer`).
* **Pairing** (edge-level tasks): one extra round joins the two endpoint
  neighborhoods of every target edge (:class:`PairReducer`).
* **Storing**: the final round hands its store each batch of target
  neighborhoods flattened as stacked arrays, which go to the DFS as they
  are, one columnar shard per final-round reducer (:class:`SampleStore`) —
  no sample is split out as an object on the way.

Everything about the rounds themselves — the in-degree count hub detection
needs, keys, gates, re-indexing, placement, who writes the shards — is the
engine's.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.graphflat.records import (
    InEdgeInfo,
    SubgraphInfo,
    merge_neighborhoods,
    stack_flattened,
)
from repro.core.propagation import (
    DataflowConfig,
    EdgeFanout,
    MessagePassingReducer,
    NodeBatch,
    ReceptiveField,
    canonical_tables,
    merge_batch_cuts,
    run_dataflow,
)
from repro.graph.subgraph import StackedFeatures, merge_groups
from repro.graph.tables import EdgeTable, NodeTable
from repro.mapreduce.fs import DistFileSystem
from repro.mapreduce.runtime import LocalRuntime, RunStats
from repro.mapreduce.shuffle import RecordBatch
from repro.mapreduce.spill import MERGE_BATCH_BYTES
from repro.proto.codec import encode_sample
from repro.proto.columnar import write_stacked_shard
from repro.proto.framing import Column, concat_columns
from repro.tasks import make_task

__all__ = [
    "GraphFlatConfig",
    "GraphFlatResult",
    "MergeReducer",
    "PairReducer",
    "SampleStore",
    "graph_flat",
]


@dataclass
class GraphFlatConfig(DataflowConfig):
    """Knobs of the pipeline (the CLI flags of Figure 6's ``GraphFlat -n
    node_table -e edge_table -h hops -s sampling_strategy``); everything but
    the three below is :class:`~repro.core.propagation.DataflowConfig`'s."""

    hops: int = 2
    edge_targets: int | None = None
    """Edge-level tasks: cap on the number of positive target edges
    (seeded downsample); ``None`` keeps every eligible edge."""
    negative_ratio: int = 1
    """Link prediction: sampled negative edges per positive edge."""

    def __post_init__(self):
        super().__post_init__()
        if self.hops < 1:
            raise ValueError("hops must be >= 1")
        if self.edge_targets is not None and self.edge_targets < 1:
            raise ValueError("edge_targets must be >= 1")
        if self.negative_ratio < 1:
            raise ValueError("negative_ratio must be >= 1")


@dataclass
class GraphFlatResult:
    """Output handle: encoded samples (in-memory mode) or a DFS dataset."""

    num_targets: int
    hops: int
    task: str = "node_classification"
    dataset: str | None = None
    samples: list[bytes] | None = None
    hub_nodes: list[int] = field(default_factory=list)
    round_stats: list[RunStats] = field(default_factory=list)
    neighborhood_nodes: np.ndarray | None = None
    neighborhood_edges: np.ndarray | None = None
    receptive_nodes: tuple[int, int] = (0, 0)
    """``(inside, total)``: nodes within ``hops`` reverse hops of a target —
    the only ones that take part in any round — out of all nodes."""
    propagations: tuple[int, int] = (0, 0)
    """``(sent, ungated)``: in-edge records propagated over all rounds,
    against the ``hops x edges`` a pipeline without the receptive-field
    gate would send."""

    def summary(self) -> dict:
        out = {
            "targets": self.num_targets,
            "hops": self.hops,
            "hubs": len(self.hub_nodes),
        }
        if self.neighborhood_nodes is not None and len(self.neighborhood_nodes):
            out["mean_nodes"] = float(self.neighborhood_nodes.mean())
            out["max_nodes"] = int(self.neighborhood_nodes.max())
            out["mean_edges"] = float(self.neighborhood_edges.mean())
            out["max_edges"] = int(self.neighborhood_edges.max())
        return out


def graph_flat(
    nodes: NodeTable,
    edges: EdgeTable,
    targets: np.ndarray | None = None,
    config: GraphFlatConfig | None = None,
    runtime: LocalRuntime | None = None,
    fs: DistFileSystem | None = None,
    dataset_name: str = "graphflat/output",
) -> GraphFlatResult:
    """Run GraphFlat end to end.

    Parameters
    ----------
    targets:
        node ids whose k-hop neighborhoods are materialised (the labeled
        nodes, §3.2); ``None`` keeps every node (GraphInfer-style input).
    runtime:
        MapReduce runtime; defaults to a serial one.
    fs / dataset_name:
        when ``fs`` is given, flattened samples are written there as a
        sharded dataset and ``result.dataset`` is set; otherwise the encoded
        samples are returned in memory (``result.samples``).
    """
    config = config or GraphFlatConfig()
    with config.runtime_scope(runtime) as runtime:
        edges, node_batch = canonical_tables(nodes, edges)

        task_obj = make_task(config.task)
        edge_fanout = None
        if task_obj.edge_level:
            if targets is not None:
                raise ValueError(
                    f"task {config.task!r} derives its targets from the edge "
                    "table; explicit node targets only apply to node-level tasks"
                )
            # Parent-side + seeded: the target-edge table (including link
            # prediction's negative draws) is fixed before any MapReduce round
            # runs, so retries/speculation/backend choice cannot change it.
            edge_table = task_obj.build_edge_targets(
                nodes,
                edges,
                seed=config.seed,
                max_targets=config.edge_targets,
                negative_ratio=config.negative_ratio,
            )
            targets = edge_table.endpoint_ids
            label_of = _EdgeLabelTable(edge_table.labels)
            edge_fanout = EdgeFanout.from_pairs(edge_table.src, edge_table.dst)
        else:
            label_of = _LabelTable.from_nodes(nodes)

        # ---- demand: GraphFlat only has to materialise the *targets'* k-hop
        # neighborhoods (§3.2), so a node d reverse hops from the nearest target
        # takes part in rounds 1..K-d only — the same receptive-field rule
        # GraphInfer prunes with (§3.4).  No targets = everything is needed.
        needed = ReceptiveField.of(nodes, edges, targets, config.hops)
        in_field = len(nodes)
        if needed.distance is not None:
            in_field = sum(1 for node_id in needed.distance if node_id in nodes)
        dst = np.asarray(edges.dst, dtype=np.int64)

        store = SampleStore(
            label_of, _TypeTable.from_tables(nodes, edges), config.recorded_task
        )
        final = None
        if edge_fanout is not None:
            # Pairing round: join the two endpoints' flattened neighborhoods
            # per target edge.  Keyed by edge index and hash-partitioned —
            # being the new final round, it inherits the determinism contract
            # (output order is partition-major over edge indices).
            final = ("pair", PairReducer())
        out = run_dataflow(
            "graphflat",
            config,
            runtime,
            edges,
            node_batch,
            needed=needed,
            in_record=InEdgeInfo,
            seed=SubgraphInfo.seeds,
            reducers=[MergeReducer] * config.hops,
            final=final,
            edge_fanout=edge_fanout,
            store=store,
            fs=fs,
            dataset_name=dataset_name,
        )
        samples = None
        if fs is None:
            samples = [record for records, _, _ in out.parts for record in records]
        return GraphFlatResult(
            num_targets=sum(len(n_nodes) for _, n_nodes, _ in out.parts),
            hops=config.hops,
            task=config.task,
            dataset=None if fs is None else dataset_name,
            samples=samples,
            hub_nodes=sorted(out.hubs),
            round_stats=out.round_stats,
            neighborhood_nodes=np.concatenate([n_nodes for _, n_nodes, _ in out.parts]),
            neighborhood_edges=np.concatenate([n_edges for _, _, n_edges in out.parts]),
            receptive_nodes=(in_field, len(nodes)),
            propagations=(needed.propagations(dst), config.hops * len(dst)),
        )


@dataclass(frozen=True)
class _LabelTable:
    """Picklable label lookup: sorted node ids + aligned label rows.

    The closure variant of this (capturing the whole :class:`NodeTable`)
    cannot ship inside a reducer-written shard's store under the process
    backend; this table can, and the in-memory result uses it too so label
    semantics cannot drift between them."""

    ids: np.ndarray
    values: np.ndarray | None

    @classmethod
    def from_nodes(cls, nodes: NodeTable) -> "_LabelTable":
        if nodes.labels is None:
            return cls(np.empty(0, dtype=np.int64), None)
        ids = np.asarray(nodes.ids)
        order = np.argsort(ids, kind="stable")
        return cls(ids[order], np.asarray(nodes.labels)[order])

    def of(self, node_ids: np.ndarray) -> np.ndarray | None:
        """The labels of ``node_ids``: an int64 vector, a float32 matrix
        (multi-label rows), or ``None`` for an unlabeled table."""
        if self.values is None:
            return None
        labels = self.values[np.searchsorted(self.ids, node_ids)]
        return labels.astype(np.int64 if labels.ndim == 1 else np.float32)


@dataclass(frozen=True)
class _EdgeLabelTable:
    """Label lookup for edge-level tasks: the sample id *is* the row index
    into the target-edge table, so lookup is a direct index."""

    values: np.ndarray

    def of(self, edge_indices: np.ndarray) -> np.ndarray:
        return self.values[edge_indices].astype(np.int64)


@dataclass(frozen=True)
class _TypeTable:
    """Picklable node/edge type lookup for heterogeneous tables, as sorted
    arrays: node ids and their types; edges as ``(src rank, dst rank)``
    keys packed into one int64 over the sorted ``edge_ids`` and their
    types.

    Types ride *outside* the MapReduce rounds: the shuffled SubgraphInfo
    records stay exactly as they were (byte-identical spills), and types
    are attached to the final round's stacked samples at the storage
    boundary (:class:`SampleStore`) — one lookup per column per batch."""

    node_ids: np.ndarray | None
    node_types: np.ndarray | None
    edge_ids: np.ndarray | None
    edge_keys: np.ndarray | None
    edge_types: np.ndarray | None

    @classmethod
    def from_tables(cls, nodes: NodeTable, edges: EdgeTable) -> "_TypeTable | None":
        """``edges`` is coalesced: one type per ``(src, dst)``."""
        if nodes.types is None and edges.types is None:
            return None
        node_ids = node_types = edge_ids = edge_keys = edge_types = None
        if nodes.types is not None:
            ids = np.asarray(nodes.ids, dtype=np.int64)
            order = np.argsort(ids, kind="stable")
            node_ids, node_types = ids[order], np.asarray(nodes.types, dtype=np.int64)[order]
        if edges.types is not None:
            src = np.asarray(edges.src, dtype=np.int64)
            dst = np.asarray(edges.dst, dtype=np.int64)
            edge_ids = np.unique(np.concatenate([src, dst]))
            keys = _edge_keys(edge_ids, src, dst)
            order = np.argsort(keys, kind="stable")
            edge_keys, edge_types = keys[order], np.asarray(edges.types, dtype=np.int64)[order]
        return cls(node_ids, node_types, edge_ids, edge_keys, edge_types)

    def attach(self, stacked: StackedFeatures) -> StackedFeatures:
        node_type = edge_type = None
        if self.node_types is not None:
            node_type = self.node_types[np.searchsorted(self.node_ids, stacked.node_ids)]
        if self.edge_types is not None:
            base = np.repeat(stacked.node_offsets[:-1], np.diff(stacked.edge_offsets))
            keys = _edge_keys(
                self.edge_ids,
                stacked.node_ids[base + stacked.edge_src],
                stacked.node_ids[base + stacked.edge_dst],
            )
            edge_type = self.edge_types[np.searchsorted(self.edge_keys, keys)]
        return replace(stacked, node_type=node_type, edge_type=edge_type)


def _edge_keys(ids: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """One int64 per edge, ordered like ``(src, dst)``: the endpoints'
    ranks in the sorted ``ids``."""
    return np.searchsorted(ids, src) * len(ids) + np.searchsorted(ids, dst)


@dataclass(frozen=True)
class SampleStore:
    """Storing (§3.2.1): a final partition's record batches — stacked
    samples keyed by sample id — get their ids, labels and types attached
    with one array lookup each per batch, and are written as one columnar
    shard (reducer-side, the batches' arrays straight into the writer) or
    encoded to wire records for the in-memory result.  Either way the
    trailing summary is the per-sample node and edge counts.

    Both final-round shapes yield stacked samples: node flows keyed by node
    (:meth:`MergeReducer.stored`), edge flows joined per target edge and
    keyed by edge index (:class:`PairReducer`; ``labels`` is the matching
    lookup either way)."""

    labels: _LabelTable | _EdgeLabelTable
    types: _TypeTable | None
    task: str | None

    kind = "samples"

    def _stacked(self, batches) -> tuple[list[StackedFeatures], np.ndarray, np.ndarray]:
        stacked = []
        for batch in batches:
            ids = np.asarray(batch.keys, dtype=np.int64)
            samples = replace(batch.values, sample_ids=ids, labels=self.labels.of(ids))
            stacked.append(samples if self.types is None else self.types.attach(samples))
        none = [np.zeros(0, dtype=np.int64)]
        n_nodes = np.concatenate(none + [np.diff(samples.node_offsets) for samples in stacked])
        n_edges = np.concatenate(none + [np.diff(samples.edge_offsets) for samples in stacked])
        return stacked, n_nodes, n_edges

    def write_shard(self, path, batches):
        stacked, n_nodes, n_edges = self._stacked(batches)
        return write_stacked_shard(path, stacked, task=self.task), n_nodes, n_edges

    def collect(self, batches):
        stacked, n_nodes, n_edges = self._stacked(batches)
        records = [
            encode_sample(*part.sample(i)) for part in stacked for i in range(part.num_samples)
        ]
        return records, n_nodes, n_edges


class MergeReducer(MessagePassingReducer):
    """GraphFlat's merge: a node's k-hop neighborhood is its own (k-1)-hop
    one plus its sampled in-edge neighbors' (k-1)-hop ones — for a batch of
    nodes per kernel call (:func:`~repro.core.graphflat.records.merge_neighborhoods`),
    as one ragged column.  The last round of a node flow flattens the batch
    for storing there and then, in one pass over its arrays."""

    def merge_batch(self, batch: NodeBatch) -> Column:
        return merge_neighborhoods(
            batch.selves, batch.neighbors, batch.offsets, batch.weight, batch.edge_feat
        )

    def stored(self, infos: Column) -> StackedFeatures:
        return stack_flattened(infos)


@dataclass(frozen=True)
class PairReducer:
    """Edge-task pairing round: join the two endpoint neighborhoods of each
    target edge into a single sample whose targets are the *ordered*
    ``[src, dst]`` pair.

    Receives exactly two ``("end", role, SubgraphInfo)`` records per edge
    index (role 0 = src, role 1 = dst).  The reducer takes its partition's
    whole group stream a segment at a time (:meth:`reduce_segments`) and
    buffers edges up to :data:`~repro.mapreduce.spill.MERGE_BATCH_BYTES` of
    neighborhoods, cut where one cumulative sum of their sizes says; a
    buffer's endpoints are stacked straight from their columns (src before
    dst, edge by edge) and merged by one
    :func:`~repro.graph.subgraph.merge_groups` call, one group per edge —
    deduplicating overlapping neighborhoods exactly like the trainer's batch
    merge.  The buffer leaves as one batch of stacked samples in key
    order, the merged columns with the ordered target pairs re-imposed (the
    merge sorts its targets, but edge readout needs to know which endpoint
    is which).  A joined neighborhood carries edge features when it has
    edges (and the graph has them), whichever endpoint they came from —
    none when it has no edges, as a node sample flattens."""

    def reduce_segments(self, segments):
        parts, nbytes = [], 0  # the open buffer: stretches (segment, start, stop) of groups
        for segment in segments:
            columns = segment.columns
            rows = np.cumsum([0] + [len(column) for column in columns])[segment.which]
            infos = np.concatenate(
                [InEdgeInfo.info_sizes(column.children[2]) for column in columns]
            )
            prefix = np.concatenate(([0], np.cumsum(infos[rows + segment.index])))
            sizes = prefix[segment.bounds[1:]] - prefix[segment.bounds[:-1]]
            start = 0
            for stop in merge_batch_cuts(sizes, nbytes, MERGE_BATCH_BYTES):
                parts.append((segment, start, stop))
                yield self._emit(parts)
                parts, nbytes, start = [], 0, stop
            if start < len(segment):
                parts.append((segment, start, len(segment)))
                nbytes += int(sizes[start:].sum())
        if parts:
            yield self._emit(parts)

    @staticmethod
    def _emit(parts: list) -> RecordBatch:
        keys, columns, counts = [], [], []
        for segment, start, stop in parts:
            keys += segment.key_list()[start:stop]
            columns.append(segment.values(start, stop))
            counts.append(np.diff(segment.bounds[start : stop + 1]))
        values = concat_columns(columns)
        counts = np.concatenate(counts)
        order = EdgeFanout.endpoints(keys, values.children[1].values, counts, "target edge")
        stacked = stack_flattened(values.children[2].take(order))
        pairs = np.arange(0, len(order) + 1, 2)
        merged = merge_groups(stacked, pairs)._asdict()
        del merged["target_index"]
        merged.update(target_offsets=pairs, target_ids=stacked.target_ids)
        return RecordBatch(keys, StackedFeatures(**merged), None)
