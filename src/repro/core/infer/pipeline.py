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
based on GraphFlat and GraphTrainer" (§3.4) — and each round runs the
layer's own ``forward``, so a node's embedding and scores are bit for bit
what the model computes over the node's GraphFlat sample (tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.infer.segmentation import ModelSlices, segment_model
from repro.core.propagation import (
    DataflowConfig,
    EdgeFanout,
    MessagePassingReducer,
    NodeBatch,
    ReceptiveField,
    canonical_tables,
    run_dataflow,
)
from repro.graph.tables import EdgeTable, NodeTable
from repro.mapreduce.fs import DistFileSystem
from repro.mapreduce.partition import Inline, SlabLocator, publish
from repro.mapreduce.runtime import LocalRuntime, RunStats
from repro.mapreduce.shuffle import RecordBatch
from repro.nn.gnn.base import GNNModel
from repro.nn.gnn.block import EdgeBlock
from repro.nn.tensor import Tensor, no_grad
from repro.proto.columnar import write_prediction_shard
from repro.proto.framing import ArrayColumn, Column, columnize, register_record
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
    def info_column(hs) -> Column:
        """A batch's per-node embeddings (a list, or a stacked matrix) as
        one column: a stacked matrix."""
        return ArrayColumn(hs) if isinstance(hs, np.ndarray) else columnize(hs)

    @staticmethod
    def info_sizes(column: Column) -> np.ndarray:
        """The ``nbytes`` of each embedding of ``column``."""
        if type(column) is ArrayColumn:
            row = column.matrix.itemsize * int(np.prod(column.matrix.shape[1:]))
            return np.full(len(column), row, dtype=np.int64)
        return np.fromiter((h.nbytes for h in column.rows()), np.int64, len(column))

    @staticmethod
    def info_approx(column: Column) -> np.ndarray:
        """What :func:`~repro.proto.framing.approx_nbytes` counts for each
        embedding of ``column``."""
        return 8 + _InEmb.info_sizes(column)


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
        edges, node_batch = canonical_tables(nodes, edges)

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

        # The slices are a side input like the out-edges: one slab for the
        # whole run under a pickling backend (reducers carry its locator),
        # held by reference otherwise.  The slab is unlinked in the finally
        # below, which also covers failed rounds and mid-round worker
        # crashes (retries read the same slab; nothing is republished per
        # attempt).
        slab, model_slices = publish(ModelSlices(tuple(slices)), runtime.needs_pickling)
        # K embedding rounds, the Kth applying the prediction slice — or, for
        # edge tasks, fanning out to the candidate edges' pairing round.
        reducers = [partial(EmbeddingReducer, model=model_slices)] * total_rounds
        final = None
        if task_obj.edge_level:
            final = ("predict", EdgeScoreReducer(model_slices, config.task))
        try:
            out = run_dataflow(
                "graphinfer",
                config,
                runtime,
                edges,
                node_batch,
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
            if slab is not None:
                slab.close()

        scores = None
        if fs is None:
            scores = {
                int(v): row
                for batches in out.parts
                for ids, rows in batches
                for v, row in zip(ids.tolist(), rows)
            }
        return GraphInferResult(
            num_nodes=sum(count for (count,) in out.parts) if scores is None else len(scores),
            scores=scores,
            dataset=None if fs is None else dataset_name,
            round_stats=out.round_stats,
            embedding_computations=embedding_computations,
        )


# ----------------------------------------------------------------- reducers
# Callable dataclasses (not closures) so jobs pickle to worker processes.


def _seed_embedding(node_ids, features: np.ndarray) -> np.ndarray:
    """``h^(0) = x``, for a batch of nodes."""
    return features.astype(np.float32)


@dataclass
class EmbeddingReducer(MessagePassingReducer):
    """One GNN layer's Reduce round: the merge applies the layer to the
    node's embedding and its sampled in-edge neighbors' embeddings.  Ships
    the carrier of the run's :class:`~repro.core.infer.segmentation.ModelSlices`
    and materializes its round's slice (``round_index - 1``) lazily — exactly
    the production "each reducer loads its model slice" behavior (§3.4).
    Under a pickling runtime the carrier is a slab locator, so the pickled
    reducer carries no parameter arrays at all.

    The Kth round of a node task also applies the prediction slice and
    hands the store the batch's score matrix instead of its embeddings — no
    round re-shuffles the embeddings only to score them."""

    model: Inline | SlabLocator = field(kw_only=True)

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
            self._layer = self.model.get()[self.round_index - 1].materialize()
        return self._layer

    @property
    def head(self):
        if self._head is None:
            self._head = self.model.get()[-1].materialize()
        return self._head

    def stored(self, infos: list) -> ArrayColumn:
        """The batch's scores: ``h @ W (+ b)`` as float32, in one call made
        of vector-matrix products — so a node's scores have the bits of its
        own ``h @ W``, whatever else is in the batch."""
        head = self.head
        scores = (np.stack(infos)[:, None, :] @ head.weight.data)[:, 0]
        if head.bias is not None:
            scores = scores + head.bias.data
        return ArrayColumn(scores.astype(np.float32))

    def merge_batch(self, batch: NodeBatch) -> list[np.ndarray]:
        """The layer's ``forward`` over one block: the batch's self rows
        first, then every node's sampled neighbor rows, each node's in-edges
        in the sampler's order — one layer call per batch."""
        n, m = len(batch), len(batch.src)
        rows = [_matrix(batch.selves)]
        if m:
            rows.append(_matrix(batch.neighbors))
        block = EdgeBlock(
            n + np.arange(m, dtype=np.int64),
            np.repeat(np.arange(n, dtype=np.int64), np.diff(batch.offsets)),
            n + m,
            batch.weight,
            batch.edge_feat,
        )
        with no_grad():
            out = self.layer(Tensor(np.concatenate(rows)), block).data
        return list(out[:n].copy())  # frees the neighbor rows' outputs


def _matrix(column: Column) -> np.ndarray:
    """The rows of an embedding column as one matrix."""
    return column.matrix if type(column) is ArrayColumn else np.stack(column.rows())


class PredictionStore:
    """Storing for predictions: a final partition's record batches — node
    or candidate ids keyed to one score matrix each — as one columnar shard
    (reducer-side), or in memory as ``(ids, scores)`` arrays per batch.  No
    summary beyond the count."""

    kind = "predictions"

    @staticmethod
    def collect(batches) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(np.asarray(b.keys, dtype=np.int64), b.values.matrix) for b in batches]

    def write_shard(self, path, batches):
        return (write_prediction_shard(path, self.collect(batches)),)


@dataclass
class EdgeScoreReducer:
    """Edge-task prediction round: pair up the two endpoint embeddings a
    candidate edge received from the Kth embedding round and apply the
    task's score function (dot product for link prediction, the head over
    the Hadamard product for edge classification) — for a segment of
    candidate edges at a time, one :meth:`~repro.tasks.base.Task.infer_scores`
    call per emitted batch.  The prediction slice (the last of the carried
    :class:`~repro.core.infer.segmentation.ModelSlices`) is materialized
    lazily per process — link prediction simply ignores it."""

    model: Inline | SlabLocator
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
            self._head = self.model.get()[-1].materialize()
        return self._head

    @property
    def task(self):
        if self._task is None:
            self._task = make_task(self.task_name)
        return self._task

    def reduce_segments(self, segments):
        head = self.head
        bias = None if head.bias is None else head.bias.data
        for segment in segments:
            keys, values = segment.key_list(), segment.values()
            order = EdgeFanout.endpoints(
                keys, values.children[1].values, segment.counts(), "candidate edge"
            )
            h = _matrix(values.children[2].take(order).materialized())
            scores = self.task.infer_scores(h[0::2], h[1::2], head.weight.data, bias)
            yield RecordBatch(keys, ArrayColumn(np.asarray(scores, dtype=np.float32)), None)
