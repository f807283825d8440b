"""The GraphInfer MapReduce pipeline (§3.4, Figure 5): the propagation
engine (:mod:`repro.core.propagation`) instantiated with *embeddings* as the
self information.

Round structure mirrors GraphFlat — Map once, then K Reduce rounds — but
the "self information" is the node's *current-layer embedding* instead of an
accumulated subgraph, which is why there is no repeated computation: each
node's kth-layer embedding is computed exactly once and propagated to every
out-edge neighbor that needs it.  The Kth round applies the prediction
slice to the embeddings it has just computed and writes the scores (node
tasks); edge tasks take one more round that pairs the two endpoint
embeddings of every candidate edge.

Sampling and hub re-indexing are applied identically to GraphFlat (same
engine, same strategies, same seeds), "to maintain the consistence of data
processing ... which can provide unbiased inference with the model trained
based on GraphFlat and GraphTrainer" (§3.4).  With sampling disabled
(``max_neighbors = inf``), the pipeline's outputs equal the full-graph
batched forward to float tolerance — an integration test asserts this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.infer.segmentation import ModelSlice, broadcast_slices, segment_model
from repro.core.propagation import (
    DataflowConfig,
    EdgeFanout,
    MessagePassingReducer,
    ReceptiveField,
    canonical_tables,
    run_dataflow,
)
from repro.graph.tables import EdgeTable, NodeTable
from repro.mapreduce.fs import DistFileSystem
from repro.mapreduce.runtime import LocalRuntime, RunStats
from repro.mapreduce.shuffle import RecordBatch
from repro.nn.gnn.base import GNNModel
from repro.proto.columnar import write_prediction_shard
from repro.proto.framing import register_record
from repro.tasks import make_task

__all__ = [
    "EdgeScoreReducer",
    "EmbeddingReducer",
    "GraphInferConfig",
    "GraphInferResult",
    "PredictionStore",
    "ReceptiveField",
    "graph_infer",
]


@dataclass
class _InEmb:
    """In-edge information during inference: the sender's embedding.

    Field names ``src``/``weight`` intentionally match GraphFlat's
    ``InEdgeInfo`` so the sampling strategies apply unchanged."""

    src: int
    weight: float
    edge_feat: np.ndarray | None
    h: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.h.nbytes

    @staticmethod
    def info_nbytes(h: np.ndarray) -> int:
        """What :func:`~repro.proto.framing.approx_nbytes` counts for an
        embedding."""
        return 8 + h.nbytes

    @property
    def approx_size(self) -> int:
        """What :func:`~repro.proto.framing.approx_nbytes` counts for this
        record: ``src``, ``weight``, the edge features and the embedding."""
        feat = 8 if self.edge_feat is None else 8 + self.edge_feat.nbytes
        return 24 + feat + self.info_nbytes(self.h)


# Wire fields for the binary spill codec (tags 0x30-0x3F are reserved for
# GraphInfer records): in a spill block the embeddings of a chunk go to disk
# as one stacked little-endian matrix instead of pickled object graphs.
register_record(0x31, _InEmb, ("src", "weight", "edge_feat", "h"))


@dataclass
class GraphInferConfig(DataflowConfig):
    """Inference knobs (Figure 6's ``GraphInfer -m model -i input -c ...``):
    :class:`~repro.core.propagation.DataflowConfig`'s, with sampling and
    hub re-indexing off unless asked for.  With an edge-level ``task`` the
    output is candidate-edge scores: record ids are candidate indices."""

    max_neighbors: int = 10**9
    hub_threshold: int = 10**9


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
    """How this run's model slices reached the reducers: ``shm`` (every
    slice published once into a shared-memory slab,
    :class:`~repro.ps.shm.SlabBroadcast`; reducers ship only locators — zero
    serialized parameter bytes per task attempt) when the runtime pickles
    its tasks, ``pickle`` (the arrays ride inside the reducer objects, which
    in-process backends never serialize) otherwise.  Scores are
    byte-identical either way (tested)."""


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
    a DFS dataset of prediction records when ``fs`` is given).

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
    with config.runtime_scope(runtime) as runtime:
        edges, node_rows = canonical_tables(nodes, edges)

        task_obj = make_task(config.task)
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
            edge_fanout = EdgeFanout.from_pairs(cand_src, cand_dst)
            # Endpoints are the pruning targets: only embeddings inside a
            # candidate endpoint's receptive field are computed below.
            targets = np.unique(np.concatenate([cand_src, cand_dst]))
        elif candidates is not None:
            raise ValueError("candidates only apply to edge-level tasks")

        slices = segment_model(model)
        total_rounds = len(slices) - 1
        needed = ReceptiveField.of(nodes, edges, targets, total_rounds)
        if needed.distance is None:
            embedding_computations = len(nodes) * total_rounds
        else:
            embedding_computations = sum(
                1
                for k in range(1, total_rounds + 1)
                for node_id, d in needed.distance.items()
                if d <= total_rounds - k and node_id in nodes
            )

        # How the slices reach the reducers follows from what the runtime does
        # with a reducer: a pickling backend would serialize the parameter
        # arrays into every task attempt, so they are published once into one
        # named slab and the reducers pickle only locators; an in-process
        # backend hands reducers over by reference and needs no slab.
        transport = "shm" if runtime.needs_pickling else "pickle"
        broadcast = None
        if transport == "shm":
            # The slab is unlinked in the finally below — the single ownership
            # point, which also covers failed rounds and mid-round worker
            # crashes (retries re-attach the same slab; nothing is republished
            # per attempt).
            broadcast, slices = broadcast_slices(slices)
        head = slices[-1]
        reducers = [partial(EmbeddingReducer, mslice=s) for s in slices[:-1]]
        final = None
        if task_obj.edge_level:
            # K embedding rounds, then the candidate edges' pairing round.
            final = ("predict", EdgeScoreReducer(head, config.task))
        else:
            # K embedding rounds, the Kth applying the prediction slice.
            reducers[-1] = partial(EmbeddingReducer, mslice=slices[-2], head_slice=head)
        try:
            out = run_dataflow(
                "graphinfer",
                config,
                runtime,
                edges,
                node_rows,
                needed=needed,
                in_record=_InEmb,
                seed=_seed_embedding,
                reducers=reducers,
                final=final,
                edge_fanout=edge_fanout,
                store=PredictionStore(),
                fs=fs,
                dataset_name=dataset_name,
            )
        finally:
            if broadcast is not None:
                broadcast.close()

        scores = None if out.data is None else {int(v): s for v, s in out.data}
        return GraphInferResult(
            num_nodes=(
                sum(count for (count,) in out.summaries) if scores is None else len(scores)
            ),
            scores=scores,
            dataset=None if fs is None else dataset_name,
            round_stats=out.round_stats,
            embedding_computations=embedding_computations,
            slice_transport=transport,
        )


# ----------------------------------------------------------------- reducers
# Callable dataclasses (not closures) so jobs pickle to worker processes.


def _seed_embedding(node_id: int, feature) -> np.ndarray:
    """``h^(0) = x``."""
    return np.asarray(feature, dtype=np.float32)


@dataclass
class EmbeddingReducer(MessagePassingReducer):
    """One GNN layer's Reduce round: the merge applies the layer to the
    node's embedding and its sampled in-edge neighbors' embeddings.  Ships
    the picklable :class:`ModelSlice` and materializes the runnable layer
    lazily, once per process — exactly the production "each reducer loads
    its model slice" behavior (§3.4).  Under a pickling runtime the slice is
    locator-backed, so the pickled reducer carries no parameter arrays at
    all; materialization attaches the broadcast slab instead.

    The Kth round of a node task also carries the prediction slice
    (``head_slice``) and writes each node's scores instead of its
    embedding — no round re-shuffles the embeddings only to score them."""

    mslice: ModelSlice = field(kw_only=True)
    head_slice: ModelSlice | None = field(default=None, kw_only=True)

    def __post_init__(self):
        self._layer = None
        self._head = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_layer"] = None  # rebuilt lazily on the other side
        state["_head"] = None
        return state

    @property
    def layer(self):
        if self._layer is None:
            self._layer = self.mslice.materialize()
        return self._layer

    @property
    def head(self):
        if self._head is None:
            self._head = self.head_slice.materialize()
        return self._head

    def final_rows(self, node_ids: list[int], infos: list) -> RecordBatch:
        """``(node, scores)``: ``h @ W (+ b)`` as float32, one node at a
        time — the arithmetic every score was produced with so far."""
        if self.head_slice is None:
            return super().final_rows(node_ids, infos)
        weight = self.head.weight.data
        bias = None if self.head.bias is None else self.head.bias.data
        scores = []
        for h in infos:
            s = h @ weight
            if bias is not None:
                s = s + bias
            scores.append(s.astype(np.float32))
        return RecordBatch(list(node_ids), scores, lambda: np.fromiter(
            (8 + s.nbytes for s in scores), dtype=np.int64, count=len(scores)
        ))

    def merge_batch(self, batch: list[tuple[np.ndarray, list[_InEmb]]]) -> list[np.ndarray]:
        """One ``layer.infer_node`` per node, in batch order — the per-node
        summation order every score was produced with so far."""
        layer = self.layer
        merged = []
        for self_h, sampled in batch:
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
            merged.append(layer.infer_node(self_h, neigh_h, neigh_w, edge_feat))
        return merged


class PredictionStore:
    """Storing for predictions: the final round's ``(id, scores)`` pairs as
    one columnar shard per final partition (reducer-side).  No summary
    beyond the count."""

    kind = "predictions"

    def write_shard(self, path, pairs):
        return (write_prediction_shard(path, [(int(v), s) for v, s in pairs]),)


@dataclass
class EdgeScoreReducer:
    """Edge-task prediction round: pair up the two endpoint embeddings a
    candidate edge received from the Kth embedding round and apply the
    task's score function (dot product for link prediction, the head over
    the Hadamard product for edge classification).  The head slice rides
    along, materialized lazily per process — link prediction simply
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
