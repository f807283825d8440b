"""The GraphInfer MapReduce pipeline (§3.4, Figure 5).

Round structure mirrors GraphFlat — Map once, then K+1 Reduce rounds — but
the "self information" is the node's *current-layer embedding* instead of an
accumulated subgraph, which is why there is no repeated computation: each
node's kth-layer embedding is computed exactly once and propagated to every
out-edge neighbor that needs it.

Sampling and hub re-indexing are applied identically to GraphFlat (same
strategies, same seeds), "to maintain the consistence of data processing ...
which can provide unbiased inference with the model trained based on
GraphFlat and GraphTrainer" (§3.4).  With sampling disabled (``max_neighbors
= inf``), the pipeline's outputs equal the full-graph batched forward to
float tolerance — an integration test asserts this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.graphflat.pipeline import (
    DATASET_SINKS,
    _EdgeFanout,
    build_partition_plan,
)
from repro.core.graphflat.sampling import SamplingStrategy, make_sampler
from repro.core.infer.segmentation import ModelSlice, broadcast_slices, segment_model
from repro.core.propagation import (
    ReceptiveField,
    distance_to_targets,
    plain_key,
    propagation_key,
)
from repro.graph.tables import EdgeTable, NodeTable
from repro.graph.validate import validate_tables
from repro.mapreduce.fs import DATASET_LAYOUTS, DistFileSystem
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.partition import PARTITIONERS, publish_plan
from repro.mapreduce.runtime import LocalRuntime, RunStats
from repro.mapreduce.spill import DEFAULT_RUN_BYTES, DEFAULT_RUN_RECORDS
from repro.proto.columnar import write_prediction_shard
from repro.nn.gnn.base import GNNModel
from repro.proto.codec import decode_prediction, encode_prediction
from repro.proto.framing import (
    decode_edge_fields,
    decode_value,
    encode_edge_fields,
    encode_value,
    register_record,
)
from repro.proto.varint import decode_signed, decode_unsigned, encode_signed, encode_unsigned
from repro.tasks import make_task

SLICE_TRANSPORTS = ("auto", "shm", "pickle")

__all__ = [
    "EdgePredictionReducer",
    "EmbeddingReducer",
    "GraphInferConfig",
    "SLICE_TRANSPORTS",
    "GraphInferResult",
    "InferPartialReducer",
    "InferPrepareReducer",
    "PredictionReducer",
    "PredictionShardSink",
    "ReceptiveField",
    "graph_infer",
]


@dataclass
class _OutEdge:
    dst: int
    weight: float
    edge_feat: np.ndarray | None


@dataclass
class _InEmb:
    """In-edge information during inference: the sender's embedding.

    Field names ``src``/``weight`` intentionally match GraphFlat's
    ``InEdgeInfo`` so the sampling strategies apply unchanged."""

    src: int
    weight: float
    edge_feat: np.ndarray | None
    h: np.ndarray


# Flat wire forms for the binary spill codec (tags 0x30-0x3F are reserved
# for GraphInfer records): embeddings go to disk as raw little-endian
# blocks instead of pickled object graphs.  The leading (id, weight,
# edge_feat) triple shares GraphFlat's wire shape via encode_edge_fields.


def _encode_out_edge(edge: _OutEdge, out: bytearray) -> None:
    encode_edge_fields(edge.dst, edge.weight, edge.edge_feat, out)


def _decode_out_edge(buf, offset: int):
    dst, weight, edge_feat, offset = decode_edge_fields(buf, offset)
    return _OutEdge(dst, weight, edge_feat), offset


def _encode_in_emb(emb: _InEmb, out: bytearray) -> None:
    encode_edge_fields(emb.src, emb.weight, emb.edge_feat, out)
    out += encode_value(emb.h)


def _decode_in_emb(buf, offset: int):
    src, weight, edge_feat, offset = decode_edge_fields(buf, offset)
    h, offset = decode_value(buf, offset)
    return _InEmb(src, weight, edge_feat, h), offset


register_record(0x30, _OutEdge, _encode_out_edge, _decode_out_edge)
register_record(0x31, _InEmb, _encode_in_emb, _decode_in_emb)


@dataclass
class GraphInferConfig:
    """Inference knobs (Figure 6's ``GraphInfer -m model -i input -c ...``)."""

    sampling: str = "uniform"
    max_neighbors: int = 10**9
    hub_threshold: int = 10**9
    reindex_fanout: int = 8
    num_reducers: int = 4
    num_shards: int = 4
    seed: int = 0
    validate: bool = True
    backend: str = "serial"
    """MapReduce backend (``serial`` / ``threads`` / ``processes``) used
    when no explicit runtime is passed to :func:`graph_infer`."""
    num_workers: int | None = None
    """Worker count for the pooled backends; ``None`` = backend default."""
    spill_dir: str | None = None
    """Shuffle spill directory; ``None`` = in-memory (serial/threads) or a
    private temp dir (processes)."""
    shuffle_codec: str = "binary"
    """Spill record encoding: ``binary`` (flat embedding/edge records —
    the default; output is byte-identical to ``pickle``, tested) or
    ``pickle``."""
    partitioner: str = "hash"
    """Shuffle partition function for the embedding rounds: ``hash``
    (crc32 default) or ``planned`` (degree-aware bin-packing of heavy
    keys, planned from one vectorized in-degree pass — the same counts hub
    detection uses).  The final prediction round always partitions by
    hash so score order and shard contents stay partitioner-independent
    (see ``GraphFlatConfig.partitioner``)."""
    dataset_layout: str = "columnar"
    """DFS shard layout for the predictions dataset: ``columnar`` (stacked
    ``node_ids`` + score matrix per shard — the default) or ``row`` (framed
    per-record byte strings).  ``read_dataset`` yields byte-identical
    records either way."""
    slice_transport: str = "auto"
    """How model slices reach the reducers: ``shm`` publishes every slice
    once into a shared-memory slab (:class:`~repro.ps.shm.SlabBroadcast`)
    and ships only locators — zero serialized parameter bytes per task
    attempt; ``pickle`` embeds the parameter arrays in each pickled
    reducer (the pre-slab behavior, kept as the in-process fallback);
    ``auto`` (default) picks ``shm`` under the ``processes`` backend and
    ``pickle`` otherwise.  Scores are byte-identical either way (tested)."""
    dataset_sink: str = "auto"
    """Who writes the predictions shards: ``reducer`` (each final-round
    reducer writes its own columnar shard; shard count = ``num_reducers``),
    ``parent`` (collect then write ``num_shards`` shards), or ``auto``
    (default — ``reducer`` whenever a DFS is given with columnar layout).
    The global record stream is byte-identical either way."""
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
    reads), ``tcp`` (shuffle peering over the frame wire protocol) or
    ``shared-dir`` (runs pushed to per-partition peer directories under a
    shared ``spill_dir`` mount).  Scores are byte-identical across all
    three (tested) — see ``GraphFlatConfig.shuffle_transport``."""
    hosts: str | None = None
    """Cluster roster for the TCP transports (``host:port,...``; first
    entry is the coordinator).  ``None`` binds ephemeral loopback."""
    task: str = "node_classification"
    """Inference task (``repro.tasks`` registry).  Edge-level tasks score
    candidate edges instead of nodes: the final embedding round fans each
    endpoint embedding out to the edges it terminates, and the prediction
    round applies the task's score function to the ``(src, dst)``
    embedding pair — record ids in the output are candidate-edge indices."""

    def __post_init__(self):
        make_task(self.task)  # fail fast on unknown task names
        if self.dataset_layout not in DATASET_LAYOUTS:
            raise ValueError(f"dataset_layout must be one of {DATASET_LAYOUTS}")
        if self.dataset_sink not in DATASET_SINKS:
            raise ValueError(f"dataset_sink must be one of {DATASET_SINKS}")
        if self.slice_transport not in SLICE_TRANSPORTS:
            raise ValueError(
                f"slice_transport must be one of {SLICE_TRANSPORTS}, "
                f"got {self.slice_transport!r}"
            )
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
class GraphInferResult:
    """Predictions plus the cost counters Table 5 reports."""

    num_nodes: int
    scores: dict[int, np.ndarray] | None = None
    dataset: str | None = None
    round_stats: list[RunStats] = field(default_factory=list)
    embedding_computations: int = 0
    """Total per-node layer evaluations — exactly ``K * |V|`` here; the
    original module's count grows with neighborhood overlap instead."""
    slice_transport: str = "pickle"
    """The resolved transport this run shipped model slices with
    (``auto`` never appears here)."""


def _degree_counts(edges: EdgeTable) -> tuple[np.ndarray, np.ndarray]:
    """Per-destination in-degree as ``(node ids, counts)`` — one vectorized
    unique+count pass over the dst column.  Feeds both hub detection and
    the degree-aware partition plan (the same counts GraphFlat gets from
    its degree MapReduce job)."""
    return np.unique(np.asarray(edges.dst, dtype=np.int64), return_counts=True)


def _detect_hubs(edges: EdgeTable, hub_threshold: int) -> frozenset[int]:
    """In-degree hub detection identical to GraphFlat's, vectorized: one
    unique+count pass over the dst column instead of a per-edge dict loop
    (equality with the loop is reference-tested)."""
    uniq, counts = _degree_counts(edges)
    return frozenset(int(v) for v in uniq[counts > hub_threshold])


def graph_infer(
    model: GNNModel,
    nodes: NodeTable,
    edges: EdgeTable,
    config: GraphInferConfig | None = None,
    runtime: LocalRuntime | None = None,
    fs: DistFileSystem | None = None,
    dataset_name: str = "graphinfer/output",
    targets=None,
    candidates=None,
) -> GraphInferResult:
    """Run segmented-model inference over the whole graph.

    Returns per-node prediction scores (in-memory dict keyed by node id, or
    a DFS dataset of framed prediction records when ``fs`` is given).

    ``targets`` restricts inference to a subset of nodes, enabling §3.4's
    pruning: "the pruning strategy similar to that in GraphTrainer also
    works in this pipeline in the case the inference task is performed over
    a part of the entire graph".  A node's layer-k embedding is computed
    and propagated only when the node lies within ``K - k`` reverse hops of
    a target, so the per-round work shrinks toward the targets.  Scores are
    produced for the targets only and equal the whole-graph run exactly
    (tested).

    With an edge-level ``config.task``, ``candidates`` is the ``(src,
    dst)`` edge list to score — a ``(m, 2)`` array, defaulting to the
    graph's own (coalesced) edges — and the result is keyed by candidate
    index.  The candidate endpoints become the pruning targets, so only
    embeddings inside their receptive fields are computed.
    """
    config = config or GraphInferConfig()
    owns_runtime = runtime is None
    runtime = runtime or config.make_runtime()
    try:
        return _graph_infer(
            model, nodes, edges, config, runtime, fs, dataset_name, targets,
            candidates,
        )
    finally:
        if owns_runtime:
            runtime.close()


def _graph_infer(
    model: GNNModel,
    nodes: NodeTable,
    edges: EdgeTable,
    config: GraphInferConfig,
    runtime: LocalRuntime,
    fs: DistFileSystem | None,
    dataset_name: str,
    targets,
    candidates,
) -> GraphInferResult:
    if config.validate:
        validate_tables(nodes, edges)
    edges = edges.coalesce()  # must match GraphFlat's canonical adjacency

    slices = segment_model(model)
    transport = config.slice_transport
    if transport == "auto":
        transport = "shm" if runtime.backend == "processes" else "pickle"
    broadcast = None
    if transport == "shm":
        # Publish every slice's parameters into one named slab, once per
        # run; reducers then pickle only locators.  The slab is unlinked in
        # the finally below — the single ownership point, which also covers
        # failed rounds and mid-round worker crashes (retries re-attach the
        # same slab; nothing is republished per attempt).
        broadcast, slices = broadcast_slices(slices)
    try:
        return _graph_infer_rounds(
            nodes, edges, config, runtime, fs, dataset_name, targets,
            candidates, slices, transport,
        )
    finally:
        if broadcast is not None:
            broadcast.close()


def _graph_infer_rounds(
    nodes: NodeTable,
    edges: EdgeTable,
    config: GraphInferConfig,
    runtime: LocalRuntime,
    fs: DistFileSystem | None,
    dataset_name: str,
    targets,
    candidates,
    slices: list[ModelSlice],
    transport: str,
) -> GraphInferResult:
    gnn_slices, head_slice = slices[:-1], slices[-1]
    sampler = make_sampler(config.sampling, config.max_neighbors, config.seed)

    task_obj = make_task(config.task)
    meta_task = None if config.task == "node_classification" else config.task
    edge_fanout = None
    if task_obj.edge_level:
        if targets is not None:
            raise ValueError(
                f"task {config.task!r} scores candidate edges; pass "
                "candidates=(src, dst) pairs instead of node targets"
            )
        if candidates is None:
            cand_src = np.asarray(edges.src, dtype=np.int64)
            cand_dst = np.asarray(edges.dst, dtype=np.int64)
        else:
            cand = np.asarray(candidates, dtype=np.int64)
            if cand.ndim != 2 or cand.shape[1] != 2:
                raise ValueError("candidates must be an (m, 2) edge array")
            cand_src, cand_dst = cand[:, 0], cand[:, 1]
        if np.any(cand_src == cand_dst):
            raise ValueError("candidate edges must not be self-loops")
        edge_fanout = _EdgeFanout.from_pairs(cand_src, cand_dst)
        # Endpoints are the pruning targets: only embeddings inside a
        # candidate endpoint's receptive field are computed below.
        targets = np.unique(np.concatenate([cand_src, cand_dst]))
    elif candidates is not None:
        raise ValueError("candidates only apply to edge-level tasks")

    target_set = None
    distance: dict[int, int] | None = None
    if targets is not None:
        target_set = {int(t) for t in np.asarray(targets)}
        missing = [t for t in sorted(target_set) if t not in nodes]
        if missing:
            raise KeyError(
                f"{len(missing)} target ids not in node table (e.g. {missing[:5]})"
            )
        distance = distance_to_targets(edges, target_set, len(gnn_slices))

    total_rounds = len(gnn_slices)
    needed = ReceptiveField(distance, total_rounds)

    uniq_dst, dst_counts = _degree_counts(edges)
    hubs = frozenset(
        int(v) for v in uniq_dst[dst_counts > config.hub_threshold]
    )
    reindex_active = bool(hubs)

    # ---- degree-aware placement plan: same construction as GraphFlat's,
    # from the vectorized in-degree pass above instead of a degree job.
    partition_broadcast = None
    planned = None
    if config.partitioner == "planned":
        plan = build_partition_plan(
            zip(uniq_dst.tolist(), dst_counts.tolist()),
            hubs,
            config.reindex_fanout,
            reindex_active,
            config.num_reducers,
            needed,
        )
        partition_broadcast, planned = publish_plan(plan, runtime.needs_pickling)

    # ---- Map: self embedding h^(0) = x, out-edges, propagate h^(0) --------
    node_rows = [(int(i), ("node", feat)) for i, feat, _ in nodes.rows()]
    edge_rows = [(int(s), (int(s), int(d), float(w), f)) for s, d, f, w in edges.rows()]
    jobs = [
        MapReduceJob(
            "graphinfer-map",
            InferPrepareReducer(hubs, config.reindex_fanout, reindex_active, needed),
            num_reducers=config.num_reducers,
        )
    ]

    # ---- K embedding rounds, then the prediction slice, chained: every
    # round is reduce-only, so partitions flow reducer-to-reducer without
    # funneling embeddings through this process.
    for k, mslice in enumerate(gnn_slices, start=1):
        if reindex_active:
            jobs.append(
                MapReduceJob(
                    f"graphinfer-reduce{k}-reindex",
                    InferPartialReducer(sampler, k, config.reindex_fanout),
                    num_reducers=config.num_reducers,
                )
            )
        jobs.append(
            MapReduceJob(
                f"graphinfer-reduce{k}",
                EmbeddingReducer(
                    mslice, sampler, k, total_rounds, hubs, config.reindex_fanout,
                    reindex_active, needed,
                    # Only the Kth round fans embeddings out to candidate
                    # edges; earlier rounds never ship the table.
                    edge_fanout if k == total_rounds else None,
                ),
                num_reducers=config.num_reducers,
            )
        )
    jobs.append(
        MapReduceJob(
            "graphinfer-predict",
            EdgePredictionReducer(head_slice, config.task)
            if task_obj.edge_level
            else PredictionReducer(head_slice),
            num_reducers=config.num_reducers,
        )
    )
    if planned is not None:
        # Embedding rounds get planned placement; the prediction round
        # keeps the hash default so score order and reducer-sink shard
        # contents are partitioner-independent (GraphFlat pins its final
        # round for the same reason).
        for job in jobs[:-1]:
            job.partitioner = planned
    if distance is None:
        embedding_computations = len(nodes) * total_rounds
    else:
        embedding_computations = sum(
            1
            for k in range(1, total_rounds + 1)
            for node_id, d in distance.items()
            if d <= total_rounds - k and node_id in nodes
        )

    try:
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
            # Reducer-owned sink: each prediction reducer writes its own
            # AGLC shard; score matrices never travel through this process.
            directory = fs.prepare_dataset(dataset_name)
            sink = PredictionShardSink(str(directory))
            counts = runtime.run_rounds(jobs, node_rows + edge_rows, final_sink=sink)
            fs.finalize_dataset(
                dataset_name,
                layout="columnar",
                kind="predictions",
                record_counts=counts,
                task=meta_task,
            )
            return GraphInferResult(
                num_nodes=sum(counts),
                dataset=dataset_name,
                round_stats=list(runtime.round_stats),
                embedding_computations=embedding_computations,
                slice_transport=transport,
            )

        data = runtime.run_rounds(jobs, node_rows + edge_rows)
    finally:
        # Single unlink point for the plan slab — covers failed rounds too.
        if partition_broadcast is not None:
            partition_broadcast.close()
    stats = list(runtime.round_stats)

    result = GraphInferResult(
        num_nodes=len(data),
        round_stats=stats,
        embedding_computations=embedding_computations,
        slice_transport=transport,
    )
    if fs is not None:
        if config.dataset_layout == "columnar":
            fs.write_dataset(
                dataset_name,
                [(int(v), s) for v, s in data],
                num_shards=config.num_shards,
                layout="columnar",
                kind="predictions",
                task=meta_task,
            )
        else:
            fs.write_dataset(
                dataset_name,
                (encode_prediction(v, s) for v, s in data),
                num_shards=config.num_shards,
                kind="predictions",
                task=meta_task,
            )
        result.dataset = dataset_name
    else:
        result.scores = {int(v): s for v, s in data}
    return result


# ----------------------------------------------------------------- reducers
# Callable dataclasses (not closures) so jobs pickle to worker processes.


@dataclass(frozen=True)
class InferPrepareReducer:
    hubs: frozenset[int]
    fanout: int
    reindex_active: bool
    needed: ReceptiveField

    def __call__(self, node_id, values):
        feature = None
        outs: list[_OutEdge] = []
        for value in values:
            if value[0] == "node":
                feature = value[1]
            else:
                _, dst, weight, edge_feat = value
                outs.append(_OutEdge(int(dst), weight, edge_feat))
        if feature is None:
            return
        # Targeted-inference pruning: a node outside every target's
        # receptive field contributes nothing to any round.
        if not self.needed(int(node_id), 0):
            return
        h0 = np.asarray(feature, dtype=np.float32)
        yield plain_key(int(node_id), self.reindex_active), ("self", h0)
        if outs:
            yield plain_key(int(node_id), self.reindex_active), ("out", outs)
            for out in outs:
                if not self.needed(out.dst, 1):
                    continue
                key = propagation_key(
                    out.dst, int(node_id), self.hubs, self.fanout, self.reindex_active
                )
                yield key, ("in", _InEmb(int(node_id), out.weight, out.edge_feat, h0))


@dataclass(frozen=True)
class InferPartialReducer:
    sampler: SamplingStrategy
    round_index: int
    fanout: int

    def __call__(self, key, values):
        node_id, sfx = key
        if sfx == 0:
            for value in values:
                yield node_id, value
            return
        in_embs = [value[1] for value in values]
        yield node_id, ("partial", self.sampler.select(in_embs, node_id, salt=sfx))


@dataclass
class EmbeddingReducer:
    """One GNN layer's Reduce round.  Ships the picklable :class:`ModelSlice`
    and materializes the runnable layer lazily, once per process — exactly
    the production "each reducer loads its model slice" behavior (§3.4).
    With ``slice_transport="shm"`` the slice is locator-backed, so the
    pickled reducer carries no parameter arrays at all; materialization
    attaches the broadcast slab instead."""

    mslice: ModelSlice
    sampler: SamplingStrategy
    round_index: int
    total_rounds: int
    hubs: frozenset[int]
    fanout: int
    reindex_active: bool
    needed: ReceptiveField
    edge_fanout: _EdgeFanout | None = None
    """Edge-level tasks only (and only on the Kth round): node id ->
    ``(candidate_index, role)`` entries, so the final embedding is keyed to
    the candidate edges it terminates instead of the node itself."""

    def __post_init__(self):
        self._layer = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_layer"] = None  # rebuilt lazily on the other side
        return state

    @property
    def layer(self):
        if self._layer is None:
            self._layer = self.mslice.materialize()
        return self._layer

    def __call__(self, node_id, values):
        self_h: np.ndarray | None = None
        outs: list[_OutEdge] = []
        ins: list[_InEmb] = []
        for value in values:
            tag = value[0]
            if tag == "self":
                self_h = value[1]
            elif tag == "out":
                outs = value[1]
            elif tag == "in":
                ins.append(value[1])
            elif tag == "partial":
                ins.extend(value[1])
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown record tag {tag!r}")
        if self_h is None:
            return
        # Targeted-inference pruning: this round's embedding is only
        # computed for nodes still inside a target's receptive field.
        if not self.needed(node_id, self.round_index):
            return
        sampled = self.sampler.select(ins, node_id, salt=0)
        if sampled:
            neigh_h = np.stack([e.h for e in sampled])
            neigh_w = np.asarray([e.weight for e in sampled], dtype=np.float32)
            edge_feat = (
                np.stack([e.edge_feat for e in sampled])
                if sampled[0].edge_feat is not None
                else None
            )
        else:
            neigh_h = np.zeros((0, len(self_h)), dtype=np.float32)
            neigh_w = np.zeros(0, dtype=np.float32)
            edge_feat = None
        h_next = self.layer.infer_node(self_h, neigh_h, neigh_w, edge_feat)

        if self.round_index == self.total_rounds:
            # "in the Kth round ... only need to output it rather than all of
            # the three information to the last Reduce phase" (§3.4).
            if self.edge_fanout is not None:
                for edge_index, role in self.edge_fanout.entries(node_id):
                    yield edge_index, ("end", role, h_next)
                return
            yield node_id, ("self", h_next)
            return
        yield plain_key(node_id, self.reindex_active), ("self", h_next)
        if outs:
            yield plain_key(node_id, self.reindex_active), ("out", outs)
            for out in outs:
                if not self.needed(out.dst, self.round_index + 1):
                    continue
                key = propagation_key(
                    out.dst, node_id, self.hubs, self.fanout, self.reindex_active
                )
                yield key, ("in", _InEmb(node_id, out.weight, out.edge_feat, h_next))


@dataclass(frozen=True)
class PredictionShardSink:
    """Reducer-owned columnar sink for predictions: the final-round reducer
    streams its ``(node_id, scores)`` pairs into one AGLC shard
    (``part-<task>``), buffering one shard's records — never the whole
    dataset.  Returns the record count; that is all the parent sees."""

    directory: str

    def store(self, task_index: int, pairs):
        records = [(int(node_id), scores) for node_id, scores in pairs]
        path = Path(self.directory) / f"part-{task_index:05d}"
        return write_prediction_shard(path, records)


@dataclass
class PredictionReducer:
    """The K+1th slice: the prediction head, materialized lazily per process."""

    head_slice: ModelSlice

    def __post_init__(self):
        self._head = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_head"] = None
        return state

    @property
    def head(self):
        if self._head is None:
            self._head = self.head_slice.materialize()
        return self._head

    def __call__(self, node_id, values):
        for value in values:
            if value[0] == "self":
                h = value[1]
                scores = h @ self.head.weight.data
                if self.head.bias is not None:
                    scores = scores + self.head.bias.data
                yield node_id, scores.astype(np.float32)


@dataclass
class EdgePredictionReducer:
    """Edge-task prediction round: pair up the two endpoint embeddings a
    candidate edge received from the Kth embedding round and apply the
    task's score function (dot product for link prediction, the head over
    the Hadamard product for edge classification).  The head slice rides
    along like :class:`PredictionReducer`'s — link prediction simply
    ignores it."""

    head_slice: ModelSlice
    task_name: str

    def __post_init__(self):
        self._head = None
        self._task = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_head"] = None
        state["_task"] = None
        return state

    @property
    def head(self):
        if self._head is None:
            self._head = self.head_slice.materialize()
        return self._head

    @property
    def task(self):
        if self._task is None:
            self._task = make_task(self.task_name)
        return self._task

    def __call__(self, edge_index, values):
        by_role: dict[int, np.ndarray] = {}
        for value in values:
            if value[0] == "end":
                by_role[int(value[1])] = value[2]
        if sorted(by_role) != [0, 1]:  # pragma: no cover - defensive
            raise RuntimeError(
                f"candidate edge {edge_index} received roles {sorted(by_role)}; "
                "expected exactly one src (0) and one dst (1) embedding"
            )
        head = self.head
        bias = None if head.bias is None else head.bias.data
        scores = self.task.infer_scores(by_role[0], by_role[1], head.weight.data, bias)
        yield edge_index, np.asarray(scores, dtype=np.float32)
