"""The GraphFlat MapReduce pipeline (§3.2.1) with re-indexing + sampling
(§3.2.2): the propagation engine (:mod:`repro.core.propagation`) instantiated
with *subgraphs* as the self information.

* **Map / Reduce × K**: the engine's rounds; round ``k``'s merge joins the
  sampled in-edge neighbors' (k-1)-hop neighborhoods to the node's own —
  producing its k-hop neighborhood — for a whole batch of nodes in one array
  kernel (:class:`MergeReducer`).
* **Pairing** (edge-level tasks): one extra round joins the two endpoint
  neighborhoods of every target edge (:class:`PairReducer`).
* **Storing**: final self informations of the target nodes are flattened
  (``repro.proto``) and written to the DFS, one columnar shard per
  final-round reducer (:class:`SampleStore`).

Everything about the rounds themselves — the in-degree count hub detection
needs, keys, gates, re-indexing, placement, who writes the shards — is the
engine's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.graphflat.records import InEdgeInfo, SubgraphInfo, merge_neighborhoods
from repro.core.propagation import (
    DataflowConfig,
    EdgeFanout,
    MessagePassingReducer,
    ReceptiveField,
    canonical_tables,
    run_dataflow,
)
from repro.graph.subgraph import GraphFeature, merge_graph_features
from repro.graph.tables import EdgeTable, NodeTable
from repro.mapreduce.fs import DistFileSystem
from repro.mapreduce.runtime import LocalRuntime, RunStats
from repro.proto.codec import encode_sample
from repro.proto.columnar import write_sample_shard
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
        edges, node_rows = canonical_tables(nodes, edges)

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
            node_rows,
            needed=needed,
            in_record=InEdgeInfo,
            seed=SubgraphInfo.seed,
            reducers=[MergeReducer] * config.hops,
            final=final,
            edge_fanout=edge_fanout,
            store=store,
            fs=fs,
            dataset_name=dataset_name,
        )
        summaries, samples = out.summaries, None
        if out.data is not None:
            samples, n_nodes, n_edges = store.encode(out.data)
            summaries = [(len(samples), n_nodes, n_edges)]
        return GraphFlatResult(
            num_targets=sum(count for count, _, _ in summaries),
            hops=config.hops,
            task=config.task,
            dataset=None if fs is None else dataset_name,
            samples=samples,
            hub_nodes=sorted(out.hubs),
            round_stats=out.round_stats,
            neighborhood_nodes=np.asarray(
                [n for _, n_nodes, _ in summaries for n in n_nodes], dtype=np.int64
            ),
            neighborhood_edges=np.asarray(
                [n for _, _, n_edges in summaries for n in n_edges], dtype=np.int64
            ),
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

    def __call__(self, node_id: int):
        if self.values is None:
            return None
        label = self.values[int(np.searchsorted(self.ids, node_id))]
        if np.ndim(label) == 0:
            return int(label)
        return np.asarray(label, dtype=np.float32)


@dataclass(frozen=True)
class _EdgeLabelTable:
    """Label lookup for edge-level tasks: the sample id *is* the row index
    into the target-edge table, so lookup is a direct index."""

    values: np.ndarray

    def __call__(self, edge_index: int) -> int:
        return int(self.values[int(edge_index)])


@dataclass(frozen=True)
class _TypeTable:
    """Picklable node/edge type lookup for heterogeneous tables.

    Types ride *outside* the MapReduce rounds: the shuffled SubgraphInfo
    records stay exactly as they were (byte-identical spills), and types
    are attached to the flattened GraphFeatures at the storage boundary
    (:class:`SampleStore`)."""

    node_types: dict[int, int] | None
    edge_types: dict[tuple[int, int], int] | None

    @classmethod
    def from_tables(cls, nodes: NodeTable, edges: EdgeTable) -> "_TypeTable | None":
        if nodes.types is None and edges.types is None:
            return None
        node_types = None
        if nodes.types is not None:
            node_types = {
                int(i): int(t) for i, t in zip(nodes.ids.tolist(), nodes.types.tolist())
            }
        edge_types = None
        if edges.types is not None:
            edge_types = {
                (int(s), int(d)): int(t)
                for s, d, t in zip(
                    edges.src.tolist(), edges.dst.tolist(), edges.types.tolist()
                )
            }
        return cls(node_types, edge_types)

    def attach(self, gf: GraphFeature) -> GraphFeature:
        node_type = None
        if self.node_types is not None:
            node_type = np.asarray(
                [self.node_types[int(i)] for i in gf.node_ids.tolist()], dtype=np.int64
            )
        edge_type = None
        if self.edge_types is not None:
            g_src = gf.node_ids[gf.edge_src].tolist()
            g_dst = gf.node_ids[gf.edge_dst].tolist()
            edge_type = np.asarray(
                [self.edge_types[(int(s), int(d))] for s, d in zip(g_src, g_dst)],
                dtype=np.int64,
            )
        return GraphFeature(
            gf.target_ids,
            gf.node_ids,
            gf.x,
            gf.hops,
            gf.edge_src,
            gf.edge_dst,
            gf.edge_feat,
            gf.edge_weight,
            node_type,
            edge_type,
        )


@dataclass(frozen=True)
class SampleStore:
    """Storing (§3.2.1): flatten the final round's output pairs to ``(id,
    label, GraphFeature)`` triples and write them — as one columnar shard
    per final partition (reducer-side; the triples go straight into the
    shard writer, no per-sample re-framing pass) or as wire records for the
    in-memory result.  Either way the trailing summary is the per-sample
    ``(n_nodes, n_edges)`` lists.

    Handles both final-round shapes: node flows yield SubgraphInfos to
    flatten, edge flows yield already-joined GraphFeatures keyed by edge
    index (``labels`` is the matching lookup either way)."""

    labels: _LabelTable | _EdgeLabelTable
    types: _TypeTable | None
    task: str | None

    kind = "samples"

    def flatten(self, pairs):
        triples: list[tuple] = []
        n_nodes: list[int] = []
        n_edges: list[int] = []
        for sample_id, (tag, info) in pairs:
            if tag != "final":  # pragma: no cover - defensive
                raise RuntimeError(f"unexpected record tag {tag!r} after final round")
            gf = info if isinstance(info, GraphFeature) else info.to_graph_feature()
            if self.types is not None:
                gf = self.types.attach(gf)
            n_nodes.append(gf.num_nodes)
            n_edges.append(gf.num_edges)
            triples.append((sample_id, self.labels(sample_id), gf))
        return triples, n_nodes, n_edges

    def write_shard(self, path, pairs):
        triples, n_nodes, n_edges = self.flatten(pairs)
        return write_sample_shard(path, triples, task=self.task), n_nodes, n_edges

    def encode(self, pairs):
        triples, n_nodes, n_edges = self.flatten(pairs)
        return [encode_sample(*triple) for triple in triples], n_nodes, n_edges


class MergeReducer(MessagePassingReducer):
    """GraphFlat's merge: a node's k-hop neighborhood is its own (k-1)-hop
    one plus its sampled in-edge neighbors' (k-1)-hop ones — for a batch of
    nodes per kernel call (:func:`~repro.core.graphflat.records.merge_neighborhoods`)."""

    def merge_batch(
        self, batch: list[tuple[SubgraphInfo, list[InEdgeInfo]]]
    ) -> list[SubgraphInfo]:
        return merge_neighborhoods(batch)


@dataclass(frozen=True)
class PairReducer:
    """Edge-task pairing round: join the two endpoint neighborhoods of one
    target edge into a single GraphFeature whose targets are the *ordered*
    ``[src, dst]`` pair.

    Receives exactly two ``("end", role, SubgraphInfo)`` records per edge
    index (role 0 = src, role 1 = dst); the merge dedupes overlapping
    neighborhoods exactly like the trainer's batch merge, then the ordered
    target pair is re-imposed on the merged arrays (the merge sorts its
    targets, but edge readout needs to know which endpoint is which)."""

    def __call__(self, edge_index, values):
        ends = sorted(
            ((value[1], value[2]) for value in values), key=lambda pair: pair[0]
        )
        if [role for role, _ in ends] != [0, 1]:
            raise RuntimeError(
                f"target edge {edge_index} expected one record per endpoint "
                f"role, got roles {[role for role, _ in ends]}"
            )
        src_info, dst_info = ends[0][1], ends[1][1]
        merged = merge_graph_features(
            [src_info.to_graph_feature(), dst_info.to_graph_feature()]
        )
        gf = GraphFeature(
            np.asarray([src_info.root, dst_info.root], dtype=np.int64),
            merged.node_ids,
            merged.x,
            merged.hops,
            merged.edge_src,
            merged.edge_dst,
            merged.edge_feat,
            merged.edge_weight,
        )
        yield edge_index, ("final", gf)
