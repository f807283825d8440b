"""The GraphFlat MapReduce pipeline (§3.2.1) with re-indexing + sampling
(§3.2.2).

Rounds:

* **Map** (runs once): co-locates, per node ``v``, the self information
  ``S_0(v)`` (its feature), and v's out-edges; then propagates
  ``S_0(v)`` along out-edges as the in-edge information of the destinations.
* **Reduce × K**: round ``k`` merges each node's self information with its
  (sampled) in-edge information — producing the k-hop neighborhood — and
  propagates the merged result via out-edges for round ``k+1``.  Out-edge
  information passes through unchanged.
* **Storing**: final self informations of the target nodes are flattened to
  wire bytes (``repro.proto``) and written to the DFS.

Hub handling: when a destination's in-degree exceeds ``hub_threshold``
(degrees are pre-computed by a small MapReduce job), propagation appends a
deterministic suffix to the shuffle key, splitting the hub's in-edge records
across ``reindex_fanout`` reducers which pre-sample and pre-merge; an
inverted-indexing step restores the original key for the final merge.  This
is Figure 3 verbatim.

Every operator here is a top-level callable dataclass (not a closure) so a
job can be pickled to worker processes under the runtime's ``processes``
backend — which is what turns §3.2's "scales near-linearly with workers"
claim into something this reproduction can actually measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.graphflat.records import InEdgeInfo, OutEdgeInfo, SubgraphInfo
from repro.core.graphflat.sampling import SamplingStrategy, make_sampler
from repro.core.propagation import (
    ReceptiveField,
    distance_to_targets,
    plain_key,
    propagation_key,
)
from repro.graph.subgraph import GraphFeature, merge_graph_features
from repro.graph.tables import EdgeTable, NodeTable
from repro.graph.validate import validate_tables
from repro.mapreduce.fs import DATASET_LAYOUTS, DistFileSystem
from repro.mapreduce.job import MapReduceJob, SumCombiner
from repro.mapreduce.partition import PARTITIONERS, PartitionPlan, plan_partitions, publish_plan
from repro.mapreduce.runtime import LocalRuntime, RunStats
from repro.mapreduce.spill import DEFAULT_RUN_BYTES, DEFAULT_RUN_RECORDS
from repro.proto.codec import encode_sample
from repro.proto.columnar import write_sample_shard
from repro.tasks import make_task

__all__ = [
    "DATASET_SINKS",
    "GraphFlatConfig",
    "GraphFlatResult",
    "MergeReducer",
    "PairReducer",
    "PartialReducer",
    "PrepareReducer",
    "SampleShardSink",
    "build_partition_plan",
    "graph_flat",
]

DATASET_SINKS = ("auto", "parent", "reducer")


@dataclass
class GraphFlatConfig:
    """Knobs of the pipeline (the CLI flags of Figure 6's ``GraphFlat -n
    node_table -e edge_table -h hops -s sampling_strategy``)."""

    hops: int = 2
    sampling: str = "uniform"
    max_neighbors: int = 32
    task: str = "node_classification"
    """Task plugin (``repro.tasks``) the samples are built for.  Node-level
    tasks keep the classic per-node flow byte-for-byte; edge-level tasks
    (``link_prediction`` / ``edge_classification``) derive a target-edge
    table, flatten *both* endpoints' k-hop neighborhoods, and join them in
    one extra pairing round keyed by edge index."""
    edge_targets: int | None = None
    """Edge-level tasks: cap on the number of positive target edges
    (seeded downsample); ``None`` keeps every eligible edge."""
    negative_ratio: int = 1
    """Link prediction: sampled negative edges per positive edge."""
    hub_threshold: int = 1_000
    reindex_fanout: int = 8
    num_reducers: int = 4
    num_shards: int = 4
    seed: int = 0
    validate: bool = True
    backend: str = "serial"
    """MapReduce backend (``serial`` / ``threads`` / ``processes``) used
    when no explicit runtime is passed to :func:`graph_flat`."""
    num_workers: int | None = None
    """Worker count for the pooled backends; ``None`` = backend default."""
    spill_dir: str | None = None
    """Shuffle spill directory; ``None`` = in-memory (serial/threads) or a
    private temp dir (processes)."""
    shuffle_codec: str = "binary"
    """Spill record encoding: ``binary`` (flat SubgraphInfo/edge records
    instead of pickled object graphs — the default; output is byte-identical
    to ``pickle``, tested) or ``pickle``."""
    partitioner: str = "hash"
    """Shuffle partition function for the intermediate rounds: ``hash``
    (crc32 of the key, the classic default) or ``planned`` (degree-aware
    greedy bin-packing built from the degree job's output — heavy keys get
    explicit placements, the light tail keeps hashing; see
    ``repro.mapreduce.partition``).  The *final* round always partitions by
    hash: output record order is partition-major, so pinning the last
    round's placement is what keeps pipeline output byte-identical across
    partitioners (tested)."""
    dataset_layout: str = "columnar"
    """DFS shard layout for the output dataset: ``columnar`` (mmap-able
    stacked matrices that GraphTrainer slices batches from — the default;
    samples go straight from the final reduce into the shard writer, no
    per-sample re-framing pass) or ``row`` (framed per-sample byte strings,
    the compatibility fallback).  ``read_dataset`` yields byte-identical
    records either way."""
    dataset_sink: str = "auto"
    """Who writes the output shards.  ``reducer``: each final-round reducer
    writes its own columnar shard directly into the DFS — the sample
    triples never funnel through the parent process, and shard count equals
    ``num_reducers`` (``num_shards`` is ignored).  ``parent``: the classic
    collect-then-write path (``num_shards`` shards).  ``auto`` (default)
    picks ``reducer`` whenever a DFS is given with columnar layout.  The
    global record stream (``read_dataset``) is byte-identical either way —
    only shard boundaries differ."""
    spill_run_records: int = DEFAULT_RUN_RECORDS
    """External-sort run bound: records buffered per spill writer before a
    sorted run is flushed (see ``repro.mapreduce.spill.SpillRunWriter``)."""
    spill_run_bytes: int = DEFAULT_RUN_BYTES
    """External-sort run bound in encoded bytes (binary codec only)."""
    max_attempts: int = 3
    """Attempt budget per MapReduce task before the job fails."""
    task_timeout_s: float | None = None
    """Per-attempt deadline: an attempt running longer is discarded (pool
    kill under ``processes``, cooperative check elsewhere) and retried as a
    :class:`~repro.mapreduce.fault.TaskTimeoutError`.  ``None`` = none."""
    speculation_factor: float | None = None
    """Straggler speculation (processes backend): a task running longer
    than this factor x the phase's median completed duration races a
    duplicate attempt; first completion wins.  ``None`` = off."""
    shuffle_transport: str = "local"
    """How reducers reach map-side shuffle runs: ``local`` (direct file
    reads — the intra-host fast path, byte-identical to the historical
    spill layout), ``tcp`` (shuffle peering over the frame wire protocol)
    or ``shared-dir`` (runs pushed to per-partition peer directories under
    a shared ``spill_dir`` mount).  Output is byte-identical across all
    three (tested)."""
    hosts: str | None = None
    """Cluster roster for the TCP transports (``host:port,host:port,...``;
    first entry is the coordinator).  ``None`` binds ephemeral loopback."""

    def __post_init__(self):
        if self.hops < 1:
            raise ValueError("hops must be >= 1")
        if self.reindex_fanout < 2:
            raise ValueError("reindex_fanout must be >= 2")
        make_task(self.task)  # unknown task names fail here, not mid-pipeline
        if self.edge_targets is not None and self.edge_targets < 1:
            raise ValueError("edge_targets must be >= 1")
        if self.negative_ratio < 1:
            raise ValueError("negative_ratio must be >= 1")
        if self.dataset_layout not in DATASET_LAYOUTS:
            raise ValueError(f"dataset_layout must be one of {DATASET_LAYOUTS}")
        if self.dataset_sink not in DATASET_SINKS:
            raise ValueError(f"dataset_sink must be one of {DATASET_SINKS}")
        if self.partitioner not in PARTITIONERS:
            raise ValueError(f"partitioner must be one of {PARTITIONERS}")
        from repro.transport.shuffle import SHUFFLE_TRANSPORTS

        if self.shuffle_transport not in SHUFFLE_TRANSPORTS:
            raise ValueError(
                f"shuffle_transport must be one of {SHUFFLE_TRANSPORTS}"
            )

    def make_runtime(self) -> LocalRuntime:
        cluster = None
        if self.hosts:
            from repro.transport.cluster import ClusterSpec

            cluster = ClusterSpec.parse(self.hosts)
        return LocalRuntime(
            backend=self.backend,
            max_workers=self.num_workers,
            max_attempts=self.max_attempts,
            spill_dir=self.spill_dir,
            shuffle_codec=self.shuffle_codec,
            spill_run_records=self.spill_run_records,
            spill_run_bytes=self.spill_run_bytes,
            task_timeout_s=self.task_timeout_s,
            speculation_factor=self.speculation_factor,
            shuffle_transport=self.shuffle_transport,
            cluster=cluster,
        )


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


def _degree_mapper(key, value):
    # value: (src, dst, weight, edge_feat); count by destination
    yield value[1], 1


def _sum_reducer(key, values):
    yield key, sum(values)


def _degree_job(num_reducers: int) -> MapReduceJob:
    """In-degree counting — the broadcast input of the hub detector.

    The combiner is a :class:`~repro.mapreduce.job.SumCombiner`, which the
    spilling map path pushes down into the run writer: per-edge ``(dst, 1)``
    records are folded into per-key partial counts *inside the write
    buffer*, on the encoded records, before they ever hit disk."""
    return MapReduceJob(
        "graphflat-degree",
        _sum_reducer,
        mapper=_degree_mapper,
        combiner=SumCombiner(),
        num_reducers=num_reducers,
    )


def build_partition_plan(
    degree_pairs,
    hubs: frozenset[int],
    fanout: int,
    reindex_active: bool,
    num_reducers: int,
    needed: ReceptiveField,
) -> PartitionPlan:
    """Degree-aware placement plan covering every intermediate round's key
    forms (GraphFlat and GraphInfer share them).

    A node's expected shuffle load is its in-degree — the number of ``in``
    records propagated to it each round, known before any round runs
    because the degree job already counted it.  Propagation is
    demand-driven, so a node outside every target's receptive field
    (``not needed(node, 1)``) receives nothing and is left out of the plan:
    the planner balances what is actually shuffled.  Per remaining node of
    in-degree ``deg``, the weighted key set is:

    * reindex off — the plain int key at weight ``deg`` (both the merge
      rounds' routing and the no-hub case).
    * reindex on, non-hub — ``(node, 0)`` at ``deg`` (routing into the
      re-index rounds, where in-records pass through unsampled) and the
      plain int at ``deg`` (routing into the merge rounds, whose keys are
      inverted back to plain ids).
    * reindex on, hub — each slice key ``(node, 1+s)`` at ``deg / fanout``
      (the split the re-indexing performs), ``(node, 0)`` at ~2 (self +
      out records only), and the plain int at ``2 + fanout`` (post-sampling
      partials).

    :func:`~repro.mapreduce.partition.plan_partitions` then LPT-packs the
    heavy head of that set; everything else keeps hashing."""

    def weighted():
        for node, deg in degree_pairs:
            node = int(node)
            deg = float(deg)
            if not needed(node, 1):
                continue
            if not reindex_active:
                yield node, deg
            elif node in hubs:
                share = deg / fanout
                for s in range(1, fanout + 1):
                    yield (node, s), share
                yield (node, 0), 2.0
                yield node, 2.0 + fanout
            else:
                yield (node, 0), deg
                yield node, deg

    return plan_partitions(weighted(), num_reducers)


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
    owns_runtime = runtime is None
    runtime = runtime or config.make_runtime()
    try:
        return _graph_flat(
            nodes, edges, targets, config, runtime, fs, dataset_name
        )
    finally:
        if owns_runtime:
            runtime.close()


def _graph_flat(
    nodes: NodeTable,
    edges: EdgeTable,
    targets: np.ndarray | None,
    config: GraphFlatConfig,
    runtime: LocalRuntime,
    fs: DistFileSystem | None,
    dataset_name: str,
) -> GraphFlatResult:
    if config.validate:
        validate_tables(nodes, edges)
    edges = edges.coalesce()  # one A_{v,u} entry per node pair (see EdgeTable)

    sampler = make_sampler(config.sampling, config.max_neighbors, config.seed)
    task_obj = make_task(config.task)
    # Meta records the task only when it deviates from the classic default,
    # so node-classification output (shards *and* _META.json) stays
    # byte-identical to the pre-task-layer pipeline.
    meta_task = None if config.task == "node_classification" else config.task
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
        target_set = {int(t) for t in edge_table.endpoint_ids}
        label_of = _EdgeLabelTable(edge_table.labels)
        edge_fanout = _EdgeFanout.from_targets(edge_table)
    else:
        target_set = None if targets is None else {int(t) for t in np.asarray(targets)}
        label_of = _LabelTable.from_nodes(nodes)
    if target_set is not None:
        missing = [t for t in sorted(target_set) if t not in nodes]
        if missing:
            raise KeyError(f"{len(missing)} target ids not in node table (e.g. {missing[:5]})")
    type_table = _TypeTable.from_tables(nodes, edges)

    # ---- demand: GraphFlat only has to materialise the *targets'* k-hop
    # neighborhoods (§3.2), so a node d reverse hops from the nearest target
    # takes part in rounds 1..K-d only — the same receptive-field rule
    # GraphInfer prunes with (§3.4).  No targets = everything is needed.
    distance = None
    if target_set is not None:
        distance = distance_to_targets(edges, target_set, config.hops)
    needed = ReceptiveField(distance, config.hops)
    in_field = len(nodes)
    if distance is not None:
        in_field = sum(1 for node_id in distance if node_id in nodes)
    dst = np.asarray(edges.dst, dtype=np.int64)
    demand = dict(
        receptive_nodes=(in_field, len(nodes)),
        propagations=(needed.propagations(dst), config.hops * len(dst)),
    )

    edge_rows = [
        (int(s), (int(s), int(d), float(w), f))
        for s, d, f, w in edges.rows()
    ]

    # ---- hub detection (a tiny MR job over the edge table) ----------------
    degree_pairs = runtime.run(_degree_job(config.num_reducers), edge_rows)
    degree_stats: list[RunStats] = list(runtime.round_stats)
    hubs = frozenset(int(v) for v, deg in degree_pairs if deg > config.hub_threshold)
    reindex_active = bool(hubs)

    # ---- degree-aware placement plan (tentpole of the pluggable
    # partitioner): built from the degree job's output the pipeline already
    # ran for hub detection, broadcast once (shared memory under pickling
    # backends), applied to every intermediate round below.
    partition_broadcast = None
    planned = None
    if config.partitioner == "planned":
        plan = build_partition_plan(
            degree_pairs, hubs, config.reindex_fanout, reindex_active,
            config.num_reducers, needed,
        )
        partition_broadcast, planned = publish_plan(plan, runtime.needs_pickling)
    try:
        # ---- Map phase ("runs only once at the beginning", §3.2.1) followed
        # by K Reduce rounds, submitted as one chained sequence: every round
        # is reduce-only, so the runtime hands partitions reducer-to-reducer
        # and intermediate state never funnels through this process.
        node_rows = [(int(i), ("node", feat)) for i, feat, _ in nodes.rows()]
        routing = _Routing(hubs, config.reindex_fanout, reindex_active, needed)
        jobs = [
            MapReduceJob(
                "graphflat-map",
                PrepareReducer(routing),
                num_reducers=config.num_reducers,
            )
        ]
        for k in range(1, config.hops + 1):
            if reindex_active:
                jobs.append(
                    MapReduceJob(
                        f"graphflat-reduce{k}-reindex",
                        PartialReducer(sampler, k, config.reindex_fanout),
                        num_reducers=config.num_reducers,
                    )
                )
            jobs.append(
                MapReduceJob(
                    f"graphflat-reduce{k}",
                    MergeReducer(sampler, k, config.hops, routing, edge_fanout),
                    num_reducers=config.num_reducers,
                )
            )
        if edge_fanout is not None:
            # Pairing round: join the two endpoints' flattened neighborhoods
            # per target edge.  Keyed by edge index and hash-partitioned —
            # being the new final round, it inherits the determinism
            # contract (output order is partition-major over edge indices).
            jobs.append(
                MapReduceJob(
                    "graphflat-pair",
                    PairReducer(),
                    num_reducers=config.num_reducers,
                )
            )
        if planned is not None:
            # Intermediate rounds get planned placement; the *final* round
            # keeps the hash default: output record order is partition-major
            # and reducer-sink shards are per-partition, so pinning the last
            # round's placement is the planner's determinism contract —
            # pipeline output stays byte-identical across partitioners.
            for job in jobs[:-1]:
                job.partitioner = planned
        sink_mode = config.dataset_sink
        if sink_mode == "auto":
            sink_mode = (
                "reducer"
                if fs is not None and config.dataset_layout == "columnar"
                else "parent"
            )
        elif sink_mode == "reducer" and (fs is None or config.dataset_layout != "columnar"):
            raise ValueError(
                "dataset_sink='reducer' requires a DFS and columnar dataset_layout"
            )

        if sink_mode == "reducer":
            # ---- Storing, reducer-owned: each final-round reducer writes
            # its own AGLC shard straight into the (pre-cleared) dataset
            # directory; sample triples never travel through this process.
            # Shard order = partition order and keys are sorted within a
            # partition, so the global record stream matches the parent-side
            # write exactly.
            directory = fs.prepare_dataset(dataset_name)
            sink = SampleShardSink(str(directory), label_of, type_table, meta_task)
            summaries = runtime.run_rounds(jobs, node_rows + edge_rows, final_sink=sink)
            round_stats = degree_stats + list(runtime.round_stats)
            counts = [count for count, _, _ in summaries]
            fs.finalize_dataset(
                dataset_name,
                layout="columnar",
                kind="samples",
                record_counts=counts,
                task=meta_task,
            )
            return GraphFlatResult(
                num_targets=sum(counts),
                hops=config.hops,
                task=config.task,
                dataset=dataset_name,
                hub_nodes=sorted(hubs),
                round_stats=round_stats,
                neighborhood_nodes=np.asarray(
                    [n for _, n_nodes, _ in summaries for n in n_nodes], dtype=np.int64
                ),
                neighborhood_edges=np.asarray(
                    [n for _, _, n_edges in summaries for n in n_edges], dtype=np.int64
                ),
                **demand,
            )

        data = runtime.run_rounds(jobs, node_rows + edge_rows)
    finally:
        # Single unlink point for the plan slab — covers failed rounds too.
        if partition_broadcast is not None:
            partition_broadcast.close()
    # Degree-job stats included: the CLI/bench shuffle accounting must cover
    # every round the pipeline actually ran.
    round_stats: list[RunStats] = degree_stats + list(runtime.round_stats)

    # ---- Storing, parent-side -----------------------------------------------
    # ``sample_id`` is the node id (node tasks) or edge index (edge tasks);
    # edge tasks' final pairing round already yields GraphFeatures.
    triples: list[tuple] = []
    n_nodes: list[int] = []
    n_edges: list[int] = []
    for sample_id, (tag, info) in data:
        if tag != "final":  # pragma: no cover - defensive
            raise RuntimeError(f"unexpected record tag {tag!r} after final round")
        gf = info if isinstance(info, GraphFeature) else info.to_graph_feature()
        if type_table is not None:
            gf = type_table.attach(gf)
        n_nodes.append(gf.num_nodes)
        n_edges.append(gf.num_edges)
        triples.append((sample_id, label_of(sample_id), gf))

    result = GraphFlatResult(
        num_targets=len(triples),
        hops=config.hops,
        task=config.task,
        hub_nodes=sorted(hubs),
        round_stats=round_stats,
        neighborhood_nodes=np.asarray(n_nodes, dtype=np.int64),
        neighborhood_edges=np.asarray(n_edges, dtype=np.int64),
        **demand,
    )
    if fs is not None and config.dataset_layout == "columnar":
        # Columnar shards take the triples directly — no per-sample
        # re-framing pass between the final reduce and the DFS.
        fs.write_dataset(
            dataset_name,
            triples,
            num_shards=config.num_shards,
            layout="columnar",
            task=meta_task,
        )
        result.dataset = dataset_name
        return result
    encoded = [encode_sample(sample_id, label, gf) for sample_id, label, gf in triples]
    if fs is not None:
        fs.write_dataset(
            dataset_name, encoded, num_shards=config.num_shards, task=meta_task
        )
        result.dataset = dataset_name
    else:
        result.samples = encoded
    return result


@dataclass(frozen=True)
class _LabelTable:
    """Picklable label lookup: sorted node ids + aligned label rows.

    The closure variant of this (capturing the whole :class:`NodeTable`)
    cannot ship inside a reducer-owned sink under the process backend;
    this table can, and both sink modes use it so label semantics cannot
    drift between them."""

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
class _EdgeFanout:
    """Broadcast table for edge-level tasks: node id -> the target edges it
    terminates, as ``(edge_index, role)`` entries (role 0 = src endpoint,
    role 1 = dst).  Built parent-side from the seeded target table, shipped
    inside the final MergeReducer, so every re-execution fans out the exact
    same records."""

    entries_by_node: dict[int, tuple[tuple[int, int], ...]]

    @classmethod
    def from_targets(cls, edge_table) -> "_EdgeFanout":
        return cls.from_pairs(edge_table.src, edge_table.dst)

    @classmethod
    def from_pairs(cls, src, dst) -> "_EdgeFanout":
        out: dict[int, list[tuple[int, int]]] = {}
        for idx in range(len(src)):
            out.setdefault(int(src[idx]), []).append((idx, 0))
            out.setdefault(int(dst[idx]), []).append((idx, 1))
        return cls({node: tuple(pairs) for node, pairs in out.items()})

    def entries(self, node_id: int) -> tuple[tuple[int, int], ...]:
        return self.entries_by_node.get(int(node_id), ())


@dataclass(frozen=True)
class _TypeTable:
    """Picklable node/edge type lookup for heterogeneous tables.

    Types ride *outside* the MapReduce rounds: the shuffled SubgraphInfo
    records stay exactly as they were (byte-identical spills), and types
    are attached to the flattened GraphFeatures at the storage boundary —
    the sink (reducer path) or the parent storing loop."""

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
class SampleShardSink:
    """Reducer-owned columnar sink: the final-round reducer streams its
    output pairs straight into one AGLC shard (``part-<task>``), buffering
    one shard's triples — never the whole dataset.  Returns ``(count,
    n_nodes, n_edges)`` per partition; the parent only ever sees these
    summaries.

    Handles both final-round shapes: node flows yield SubgraphInfos to
    flatten, edge flows yield already-joined GraphFeatures keyed by edge
    index (``labels`` is the matching lookup either way)."""

    directory: str
    labels: _LabelTable | _EdgeLabelTable
    types: _TypeTable | None = None
    task: str | None = None

    def store(self, task_index: int, pairs):
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
        path = Path(self.directory) / f"part-{task_index:05d}"
        count = write_sample_shard(path, triples, task=self.task)
        return count, n_nodes, n_edges


@dataclass(frozen=True)
class _Routing:
    """Where a node's records go next round: the shuffle-key dialect (hub
    re-indexing) plus the receptive-field gate that makes propagation
    demand-driven.  Shared by the Map phase and every Reduce round."""

    hubs: frozenset[int]
    fanout: int
    reindex_active: bool
    needed: ReceptiveField

    def propagate(self, node_id: int, info: SubgraphInfo, outs, next_round: int):
        """What ``node_id`` hands to round ``next_round`` after building
        ``info``: the self information travels on only if the node merges
        again; the out-edge list is trimmed to the destinations some
        *later* round still propagates to; an in-edge record goes only to
        destinations that merge next round.  A destination that does merge
        still receives every one of its in-edge records (the gate is per
        destination, never per edge), so its sampling draw — and therefore
        the pipeline's output — is exactly the ungated pipeline's."""
        needed = self.needed
        key = plain_key(node_id, self.reindex_active)
        if needed(node_id, next_round):
            yield key, ("self", info)
            later = [out for out in outs if needed(out.dst, next_round + 1)]
            if later:
                yield key, ("out", later)
        for out in outs:
            if needed(out.dst, next_round):
                key = propagation_key(
                    out.dst, node_id, self.hubs, self.fanout, self.reindex_active
                )
                yield key, ("in", InEdgeInfo(node_id, out.weight, out.edge_feat, info))


@dataclass(frozen=True)
class PrepareReducer:
    """The Map phase: build S_0, gather out-edges, propagate for round 1."""

    routing: _Routing

    def __call__(self, node_id, values):
        feature = None
        outs: list[OutEdgeInfo] = []
        for value in values:
            tag = value[0]
            if tag == "node":
                feature = value[1]
            else:  # edge row keyed by source
                _, dst, weight, edge_feat = value
                outs.append(OutEdgeInfo(int(dst), weight, edge_feat))
        if feature is None:
            # Edge rows whose source never appears in the node table are
            # rejected by validation; reaching here means validation was
            # disabled — drop the stray records.
            return
        node_id = int(node_id)
        seed = SubgraphInfo.seed(node_id, feature)
        yield from self.routing.propagate(node_id, seed, outs, 1)


@dataclass(frozen=True)
class PartialReducer:
    """Re-indexed stage (Figure 3): sample/pre-merge hub slices, then
    inverted-index back to the original shuffle key."""

    sampler: SamplingStrategy
    round_index: int
    fanout: int

    def __call__(self, key, values):
        node_id, sfx = key
        if sfx == 0:
            # Non-hub records pass through unchanged (inverted index is a
            # no-op for them).
            for value in values:
                yield node_id, value
            return
        in_edges = [value[1] for value in values]  # only "in" records get suffixes
        sampled = self.sampler.select(in_edges, node_id, salt=sfx)
        yield node_id, ("partial", sampled)


@dataclass(frozen=True)
class MergeReducer:
    """The paper's Reduce: merge self + in-edge info, propagate via
    out-edges (or emit the final neighborhoods on the last round)."""

    sampler: SamplingStrategy
    round_index: int
    total_rounds: int
    routing: _Routing
    edge_fanout: _EdgeFanout | None = None

    @property
    def final_round(self) -> bool:
        return self.round_index == self.total_rounds

    def __call__(self, node_id, values):
        # Outside every target's receptive field this round (on the final
        # round: not a target) — nothing downstream reads this node's
        # merge, so skip it before doing the work.  Upstream rounds already
        # stop propagating to such nodes; the check keeps the reducer
        # correct for records that arrive anyway.
        if not self.routing.needed(node_id, self.round_index):
            return
        self_info: SubgraphInfo | None = None
        outs: list[OutEdgeInfo] = []
        ins: list[InEdgeInfo] = []
        for value in values:
            tag = value[0]
            if tag == "self":
                self_info = value[1]
            elif tag == "out":
                outs = value[1]
            elif tag == "in":
                ins.append(value[1])
            elif tag == "partial":
                ins.extend(value[1])
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown record tag {tag!r}")
        if self_info is None:
            # A node that only ever appears as an edge destination of
            # dropped strays (validation disabled); nothing to do.
            return

        sampled = self.sampler.select(ins, node_id, salt=0)
        # Copy-on-merge: the previous round's object is shared with every
        # reducer we propagated it to — never mutate it.
        merged = SubgraphInfo(self_info.root, dict(self_info.nodes), dict(self_info.edges))
        for in_edge in sampled:
            merged.absorb_neighbor(in_edge.subgraph, in_edge.weight, in_edge.edge_feat)

        if not self.final_round:
            yield from self.routing.propagate(node_id, merged, outs, self.round_index + 1)
        elif self.edge_fanout is not None:
            # Edge-level task: the k-hop neighborhood of this endpoint
            # fans out to every target edge it terminates, keyed by
            # edge index for the pairing round.  The merged object is
            # shared across emissions — the pairing round only reads it.
            for edge_index, role in self.edge_fanout.entries(node_id):
                yield edge_index, ("end", role, merged)
        else:
            yield node_id, ("final", merged)


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
