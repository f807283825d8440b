"""The K-round propagation engine: GraphFlat and GraphInfer are two merge
functions over this one dataflow.

The paper's design claim is that k-hop generation (§3.2.1) *and* inference
(§3.4) are the same message-passing scheme — "merging values from in-edge
neighbors and propagating values to out-edge neighbors via MapReduce".
Everything that scheme fixes lives here, once:

* **Three kinds of information, two of them shuffled.**  Self and in-edge
  information change every round and cross the shuffle; the out-edge
  information "remain[s] unchanged" (§3.2.1), so it never does: the driver
  builds it once as a CSR by source (:class:`OutEdges`) and publishes it as
  a side input every round reads — inline for in-process backends, one
  shared-memory slab under pickling ones.
* **Map** (runs once): builds, per node ``v``, its self information from its
  node row, then propagates it along ``v``'s out-edges as the in-edge
  information of the destinations (:class:`PrepareReducer`).
* **Reduce × K**: round ``k`` merges each node's self information with its
  (sampled) in-edge information and propagates the result via out-edges for
  round ``k+1`` (:class:`MessagePassingReducer` — a pipeline only supplies
  ``merge_batch``: merge a batch of nodes' sampled neighborhoods in one
  array kernel, or apply a GNN layer to each node's neighbors' embeddings).
* **Batches**: every engine reducer emits one
  :class:`~repro.mapreduce.shuffle.RecordBatch` per merge batch — keys,
  record objects and array-computed sizes — which the runtime's writers
  take whole (:meth:`Routing.propagate` is one array step over a batch).
* **Hub handling** (§3.2.2, Figure 3): when a destination's in-degree exceeds
  ``hub_threshold``, propagation appends a deterministic suffix to the
  shuffle key, splitting the hub's in-edge records across ``reindex_fanout``
  reducers which pre-sample (:class:`PartialReducer`); an inverted-indexing
  step restores the original key for the merge.  The re-index round is a
  *side stage* of the chain (``MapReduceJob.accepts``): it takes the suffixed
  slice keys and nothing else, while every non-hub in-record and every self
  record — keyed by the plain node id from the start — goes straight to the
  merge round.  A re-index round shuffles exactly the in-edge records of
  the hubs that merge that hop.
* **Demand**: both pipelines only have to produce results for a *target*
  set, and a node ``u`` that is ``d`` reverse hops away from the nearest
  target contributes only through its rounds ``k <= K - d``.
  :class:`ReceptiveField` is that rule — §3.3.2's pruning lifted to the
  MapReduce pipelines — and :meth:`Routing.propagate` is the only place
  records are emitted, so every gate applies to both pipelines.
* **Driver** (:func:`run_dataflow`): counts in-degrees once, detects hubs,
  publishes the out-edges (and the placement plan), builds the ``map ->
  [reindex (hub slices only), reduce] x K -> final`` job chain, runs it and
  commits the dataset its final-round reducers wrote.
  :class:`DataflowConfig` owns the knobs the two pipelines share.

Every operator here is a top-level callable dataclass (not a closure) so a
job can be pickled to worker processes under the runtime's ``processes``
backend — which is what turns §3.2's "scales near-linearly with workers"
claim into something this reproduction can actually measure.
"""

from __future__ import annotations

import pickle
import zlib
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.tables import EdgeTable, NodeTable
from repro.graph.validate import validate_tables
from repro.mapreduce.fs import DistFileSystem
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.partition import (
    PARTITIONERS,
    Inline,
    PartitionPlan,
    SlabLocator,
    plan_partitions,
    publish,
    publish_plan,
)
from repro.mapreduce.runtime import LocalRuntime, RunStats
from repro.mapreduce.shuffle import RecordBatch
from repro.mapreduce.spill import DEFAULT_RUN_BYTES, DEFAULT_RUN_RECORDS, MERGE_BATCH_BYTES
from repro.tasks import make_task

if TYPE_CHECKING:
    from repro.core.graphflat.sampling import SamplingStrategy

__all__ = [
    "DataflowConfig",
    "DataflowOutput",
    "EdgeFanout",
    "MessagePassingReducer",
    "OutEdges",
    "PartialReducer",
    "PrepareReducer",
    "ReceptiveField",
    "Routing",
    "ShardSink",
    "build_partition_plan",
    "canonical_tables",
    "detect_hubs",
    "distance_to_targets",
    "in_degrees",
    "is_hub_slice",
    "run_dataflow",
    "suffix",
]


# ------------------------------------------------------------------- config
@dataclass
class DataflowConfig:
    """Knobs GraphFlat and GraphInfer share — sampling, hub re-indexing, the
    MapReduce runtime and the output dataset — declared, validated and turned
    into a runtime once.  The sampling defaults are GraphFlat's (training
    wants bounded neighborhoods); :class:`~repro.core.infer.GraphInferConfig`
    lifts both to "unbounded"."""

    sampling: str = "uniform"
    max_neighbors: int = 32
    task: str = "node_classification"
    """Task plugin (``repro.tasks``).  Node-level tasks keep the classic
    per-node flow byte-for-byte; edge-level tasks (``link_prediction`` /
    ``edge_classification``) fan each endpoint's final-round result out to
    the target / candidate edges it terminates and join the two endpoints in
    one extra round keyed by edge index."""
    hub_threshold: int = 1_000
    reindex_fanout: int = 8
    num_reducers: int = 4
    """Reducers per round — and the shard count of DFS output: each
    final-round reducer writes its own columnar shard."""
    seed: int = 0
    backend: str = "serial"
    """MapReduce backend (``serial`` / ``threads`` / ``processes``) used
    when no explicit runtime is passed to the pipeline."""
    num_workers: int | None = None
    """Worker count for the pooled backends; ``None`` = backend default."""
    spill_dir: str | None = None
    """Shuffle spill directory; ``None`` = in-memory (serial/threads) or a
    private temp dir (processes)."""
    shuffle_codec: str = "binary"
    """Spill record encoding: ``binary`` (flat SubgraphInfo/embedding
    records instead of pickled object graphs — the default; output is
    byte-identical to ``pickle``, tested) or ``pickle``."""
    partitioner: str = "hash"
    """Shuffle partition function for the intermediate rounds: ``hash``
    (crc32 of the key, the classic default) or ``planned`` (degree-aware
    greedy bin-packing built from the in-degree counts hub detection already
    needs — heavy keys get explicit placements, the light tail keeps
    hashing; see ``repro.mapreduce.partition``).  The *final* round always
    partitions by hash: output record order is partition-major, so pinning
    the last round's placement is what keeps pipeline output byte-identical
    across partitioners (tested)."""
    spill_run_records: int = DEFAULT_RUN_RECORDS
    """External-sort run bound: records buffered per spill writer before a
    sorted run is flushed (see ``repro.mapreduce.spill.SpillRunWriter``)."""
    spill_run_bytes: int = DEFAULT_RUN_BYTES
    """External-sort run bound in (approximate) encoded bytes of the values
    a spill writer buffers before a sorted run is flushed; both codecs."""
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
        if self.reindex_fanout < 2:
            raise ValueError("reindex_fanout must be >= 2")
        if self.spill_run_records < 1:
            raise ValueError(f"spill_run_records must be >= 1, got {self.spill_run_records}")
        if self.spill_run_bytes < 1:
            raise ValueError(f"spill_run_bytes must be >= 1, got {self.spill_run_bytes}")
        make_task(self.task)  # unknown task names fail here, not mid-pipeline
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

    @contextmanager
    def runtime_scope(self, runtime: LocalRuntime | None):
        """The runtime a pipeline call runs on: the caller's, or one built
        from this config and closed when the call returns."""
        if runtime is not None:
            yield runtime
            return
        runtime = self.make_runtime()
        try:
            yield runtime
        finally:
            runtime.close()

    @property
    def recorded_task(self) -> str | None:
        """The task as dataset metadata records it: only when it deviates
        from the classic default, so node-classification output (shards
        *and* ``_META.json``) stays byte-identical to the pre-task-layer
        pipeline."""
        return None if self.task == "node_classification" else self.task

    def make_sampler(self) -> SamplingStrategy:
        """The one sampler every round of a run applies — GraphInfer with
        GraphFlat's strategy and seed scores exactly the neighborhoods the
        model was trained on ("unbiased inference", §3.4)."""
        from repro.core.graphflat.sampling import make_sampler

        return make_sampler(self.sampling, self.max_neighbors, self.seed)


# --------------------------------------------------------------------- keys
def suffix(src: int, dst: int, fanout: int) -> int:
    """Deterministic 'random suffix' for re-indexing: stable across task
    re-execution (fault tolerance), across runs, and across rounds (so the
    per-slice sampling draw is the same every round — see repro.core.
    graphflat.sampling), and shared by GraphFlat and GraphInfer so both
    split a hub's in-edges into the same slices."""
    return zlib.crc32(f"{src}|{dst}".encode()) % fanout


def is_hub_slice(key) -> bool:
    """The keys a re-index round accepts: suffixed hub slices, and nothing
    else — plain node ids go straight to the merge round."""
    return type(key) is tuple


# ---------------------------------------------------------- receptive field
@dataclass(frozen=True)
class ReceptiveField:
    """Is node ``u``'s round-``k`` result inside some target's receptive
    field?  ``needed(u, k)`` holds iff ``dist(u -> targets) <= K - k``;
    ``distance=None`` means no targets were given — everything is needed,
    at the cost of one ``is None`` test."""

    distance: dict[int, int] | None
    total_rounds: int

    @classmethod
    def of(
        cls, nodes: NodeTable, edges: EdgeTable, targets, total_rounds: int
    ) -> "ReceptiveField":
        """The field of ``targets`` (node ids; ``None`` = every node) over
        ``total_rounds`` rounds; targets outside the node table are an
        error, not an empty result."""
        if targets is None:
            return cls(None, total_rounds)
        target_set = {int(t) for t in np.asarray(targets)}
        missing = [t for t in sorted(target_set) if t not in nodes]
        if missing:
            raise KeyError(
                f"{len(missing)} target ids not in node table (e.g. {missing[:5]})"
            )
        return cls(distance_to_targets(edges, target_set, total_rounds), total_rounds)

    def __post_init__(self):
        if self.distance is not None:  # sorted columns for the array form
            ids = np.fromiter(self.distance, dtype=np.int64, count=len(self.distance))
            dist = np.fromiter(self.distance.values(), dtype=np.int64, count=len(ids))
            order = np.argsort(ids)
            object.__setattr__(self, "_ids", ids[order])
            object.__setattr__(self, "_dist", dist[order])

    def __call__(self, node_id: int, k: int) -> bool:
        if self.distance is None:
            return k <= self.total_rounds
        return self.distance.get(node_id, self.total_rounds + 1) <= self.total_rounds - k

    def distances(self, node_ids: np.ndarray) -> np.ndarray:
        """``dist(u -> targets)`` per id; ``K + 1`` for ids outside every
        field (requires targets)."""
        beyond = np.full(len(node_ids), self.total_rounds + 1, dtype=np.int64)
        if not len(self._ids):
            return beyond
        pos = np.minimum(np.searchsorted(self._ids, node_ids), len(self._ids) - 1)
        return np.where(self._ids[pos] == node_ids, self._dist[pos], beyond)

    def mask(self, node_ids: np.ndarray, k: int) -> np.ndarray:
        """:meth:`__call__` over an id column."""
        if self.distance is None:
            return np.full(len(node_ids), k <= self.total_rounds)
        return self.distances(node_ids) <= self.total_rounds - k

    def propagations(self, dst: np.ndarray) -> int:
        """In-edge records propagated over all K rounds for the edge
        destinations ``dst``: an edge into ``w`` carries one record into
        every round ``k`` with ``needed(w, k)`` — ``K - dist(w)`` of them."""
        if self.distance is None:
            return self.total_rounds * len(dst)
        d = self.distances(np.asarray(dst, dtype=np.int64))
        return int(np.clip(self.total_rounds - d, 0, None).sum())


def distance_to_targets(
    edges: EdgeTable, target_set: set[int], max_hops: int
) -> dict[int, int]:
    """``d(target_set, u)`` for every u within ``max_hops`` reverse hops.

    BFS from the targets along edges *backwards* (an edge ``u -> v`` means
    u's information feeds v), i.e. the same distance GraphTrainer's pruning
    uses (§3.3.2) lifted to the MapReduce pipelines.

    Node ids are compacted once; the reverse adjacency is one stable argsort
    over ``dst`` (in-neighbors of ``v`` are a contiguous run of the src
    column) and every hop is a numpy gather over the frontier's runs —
    equality with the per-node dict loop is reference-tested.
    """
    targets = np.fromiter(target_set, dtype=np.int64, count=len(target_set))
    src = np.asarray(edges.src, dtype=np.int64)
    dst = np.asarray(edges.dst, dtype=np.int64)
    ids, compact = np.unique(np.concatenate([targets, src, dst]), return_inverse=True)
    frontier = compact[: len(targets)]
    src = compact[len(targets) : len(targets) + len(src)]
    dst = compact[len(targets) + len(src) :]
    order = np.argsort(dst, kind="stable")
    sorted_src = src[order]
    starts = np.searchsorted(dst[order], np.arange(len(ids) + 1))

    dist = np.full(len(ids), -1, dtype=np.int64)
    dist[frontier] = 0
    for hop in range(1, max_hops + 1):
        lo = starts[frontier]
        counts = starts[frontier + 1] - lo
        total = int(counts.sum())
        if not total:
            break
        # Concatenated in-neighbor runs of the frontier, without a loop:
        # position i of run j reads sorted_src[lo[j] + i].
        run_start = np.cumsum(counts) - counts
        gather = np.repeat(lo - run_start, counts) + np.arange(total)
        reached = np.unique(sorted_src[gather])
        frontier = reached[dist[reached] < 0]
        if not len(frontier):
            break
        dist[frontier] = hop
    inside = np.flatnonzero(dist >= 0)
    return dict(zip(ids[inside].tolist(), dist[inside].tolist()))


# ---------------------------------------------------------------- out-edges
@dataclass(frozen=True)
class OutEdges:
    """The out-edge information of every node, as one CSR by source.

    "All of the out-edge information remain unchanged" (§3.2.1) from round
    to round, so it never crosses the shuffle: :func:`run_dataflow` builds
    it once from the coalesced edge table and publishes it as a side input
    (:func:`~repro.mapreduce.partition.publish`) that every round's
    :class:`Routing` reads.  A node's out-edges keep the table's order."""

    ids: np.ndarray
    """``(s,) int64`` distinct sources, ascending."""
    offsets: np.ndarray
    """``(s + 1,) int64``: source ``ids[i]``'s edges are rows
    ``offsets[i]:offsets[i + 1]``."""
    dst: np.ndarray
    """``(m,) int64`` edge destinations."""
    weight: np.ndarray
    """``(m,) float64``: each edge weight as ``float`` reads it — the values
    weighted sampling draws with."""
    edge_feat: np.ndarray | None
    """``(m, ...)`` edge-feature rows, or ``None``."""

    @classmethod
    def of(cls, edges: EdgeTable) -> "OutEdges":
        src = np.asarray(edges.src, dtype=np.int64)
        order = np.argsort(src, kind="stable")
        ids, counts = np.unique(src[order], return_counts=True)
        offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(
            ids,
            offsets,
            np.asarray(edges.dst, dtype=np.int64)[order],
            np.asarray(edges.weights, dtype=np.float64)[order],
            None if edges.features is None else edges.features[order],
        )

    def encode(self) -> bytes:
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def decode(cls, data: bytes) -> "OutEdges":
        return pickle.loads(data)

    @property
    def feat_nbytes(self) -> int:
        """What :func:`~repro.proto.framing.approx_nbytes` counts for one
        edge's feature field."""
        if self.edge_feat is None:
            return 8
        return 8 + self.edge_feat.dtype.itemsize * int(np.prod(self.edge_feat.shape[1:]))

    def of_nodes(self, node_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(owner, edge)``: every out-edge of ``node_ids`` as the index of
        its node in ``node_ids`` and its CSR row — node-major, table order
        within a node."""
        if not len(self.ids):
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self.ids, node_ids), len(self.ids) - 1)
        has = self.ids[pos] == node_ids
        lo = np.where(has, self.offsets[pos], 0)
        counts = np.where(has, self.offsets[pos + 1] - lo, 0)
        owner = np.repeat(np.arange(len(node_ids), dtype=np.int64), counts)
        # position i of node j's run reads row lo[j] + i
        edge = np.repeat(lo - (np.cumsum(counts) - counts), counts) + np.arange(len(owner))
        return owner, edge


@dataclass(frozen=True)
class EdgeFanout:
    """Broadcast table for edge-level tasks: node id -> the target (or
    candidate) edges it terminates, as ``(edge_index, role)`` entries (role
    0 = src endpoint, role 1 = dst).  Built parent-side from a table that is
    fixed before any round runs, shipped inside the Kth round's reducer
    only, so every re-execution fans out the exact same records."""

    entries_by_node: dict[int, tuple[tuple[int, int], ...]]

    @classmethod
    def from_pairs(cls, src, dst) -> "EdgeFanout":
        out: dict[int, list[tuple[int, int]]] = {}
        for idx in range(len(src)):
            out.setdefault(int(src[idx]), []).append((idx, 0))
            out.setdefault(int(dst[idx]), []).append((idx, 1))
        return cls({node: tuple(pairs) for node, pairs in out.items()})

    def entries(self, node_id: int) -> tuple[tuple[int, int], ...]:
        return self.entries_by_node.get(int(node_id), ())


# ----------------------------------------------------------------- reducers
@dataclass(frozen=True)
class Routing:
    """Where a node's records go next round: the out-edges (the
    :class:`OutEdges` side input), the shuffle key (hub slices for
    re-indexing) and the receptive-field gate that makes propagation
    demand-driven.  Shared by the Map phase and every Reduce round."""

    hubs: frozenset[int]
    fanout: int
    needed: ReceptiveField
    in_record: type
    """The pipeline's in-edge record class (``InEdgeInfo`` around a
    subgraph, or an embedding record): built as ``in_record(src, weight,
    edge_feat, info)``, and ``in_record.info_nbytes(info)`` is what
    :func:`~repro.proto.framing.approx_nbytes` counts for ``info``."""
    out_edges: Inline | SlabLocator
    """The carrier of the run's :class:`OutEdges`."""

    def __post_init__(self):
        hub_ids = np.fromiter(sorted(self.hubs), dtype=np.int64, count=len(self.hubs))
        object.__setattr__(self, "_hub_ids", hub_ids)

    def propagate(self, node_ids: list[int], infos: list, next_round: int) -> RecordBatch:
        """What the nodes ``node_ids`` hand to round ``next_round`` after
        building ``infos``, as one batch, node-major: a node's self
        information travels on only if the node merges again, followed by
        its in-edge records to the destinations that merge next round.  A
        destination that does merge still receives every one of its in-edge
        records (the gate is per destination, never per edge), so its
        sampling draw — and therefore the pipeline's output — is exactly the
        ungated pipeline's.  Keys are the destination, or its slice ``(dst,
        1 + suffix)`` for hubs; each row's size comes from the per-node
        sizes of ``infos``, computed only if a writer asks."""
        out_edges = self.out_edges.get()
        ids = np.asarray(node_ids, dtype=np.int64)
        selves = np.flatnonzero(self.needed.mask(ids, next_round))
        owner, edge = out_edges.of_nodes(ids)
        dst = out_edges.dst[edge]
        sent = self.needed.mask(dst, next_round)
        owner, edge, dst = owner[sent], edge[sent], dst[sent]

        in_keys = dst.tolist()
        owners = owner.tolist()
        node_ids = ids.tolist()
        for j in np.flatnonzero(np.isin(dst, self._hub_ids)).tolist():
            in_keys[j] = (in_keys[j], 1 + suffix(node_ids[owners[j]], in_keys[j], self.fanout))
        feats = (
            [None] * len(owners) if out_edges.edge_feat is None else list(out_edges.edge_feat[edge])
        )
        record = self.in_record
        in_values = [
            ("in", record(src, weight, feat, infos[i]))
            for src, weight, feat, i in zip(
                ids[owner].tolist(), out_edges.weight[edge].tolist(), feats, owners
            )
        ]

        # node-major order: node i's self row first, then its in-rows
        self_rows = np.zeros(len(ids), dtype=np.int64)
        self_rows[selves] = 1
        rows = self_rows + np.bincount(owner, minlength=len(ids))
        first = np.cumsum(rows) - rows
        order = np.empty(len(selves) + len(owner), dtype=np.int64)
        order[first[selves]] = np.arange(len(selves))
        in_rank = np.arange(len(owner)) - np.searchsorted(owner, owner)
        order[first[owner] + self_rows[owner] + in_rank] = len(selves) + np.arange(len(owner))
        at = order.tolist()
        keys = [node_ids[i] for i in selves.tolist()] + in_keys
        values = [("self", infos[i]) for i in selves.tolist()] + in_values

        def nbytes() -> np.ndarray:
            # ("self", info): 8 + 12 + S;  ("in", record): 8 + 10 + 24 + feat + S
            per_node = np.zeros(len(infos), dtype=np.int64)
            for i in np.flatnonzero(rows).tolist():
                per_node[i] = record.info_nbytes(infos[i])
            return np.concatenate(
                [20 + per_node[selves], 42 + out_edges.feat_nbytes + per_node[owner]]
            )[order]

        return RecordBatch([keys[i] for i in at], [values[i] for i in at], nbytes)


@dataclass(frozen=True)
class PrepareReducer:
    """The Map phase: build the round-0 self information of a batch of
    nodes and propagate it for round 1 (the out-edges are the
    :class:`OutEdges` side input, so a node's group is its node row)."""

    routing: Routing
    seed: Callable
    """``seed(node_id, feature)``: the node's round-0 self information
    (its 0-hop subgraph, or ``h^(0) = x``)."""

    def reduce_groups(self, groups):
        node_ids, infos, nbytes = [], [], 0
        for node_id, values in groups:
            node_id = int(node_id)
            feature = values[-1][1]  # the node's ("node", feature) row
            node_ids.append(node_id)
            infos.append(self.seed(node_id, feature))
            nbytes += feature.nbytes
            if nbytes >= MERGE_BATCH_BYTES:
                yield self.routing.propagate(node_ids, infos, 1)
                node_ids, infos, nbytes = [], [], 0
        if node_ids:
            yield self.routing.propagate(node_ids, infos, 1)


@dataclass(frozen=True)
class PartialReducer:
    """Re-indexed stage (Figure 3): pre-sample one hub slice, then
    inverted-index back to the hub's plain shuffle key.  Only slice keys
    reach it (:func:`is_hub_slice`)."""

    sampler: SamplingStrategy
    in_record: type
    """The in-edge record class this round decodes.  Never called — held so
    that a fresh worker unpickling the reducer imports the module that
    registers the record's wire form (the other rounds' reducers get there
    through :class:`Routing`)."""

    def reduce_groups(self, groups):
        keys, values, sizes, nbytes = [], [], [], 0
        for (node_id, sfx), group in groups:
            in_edges = [value[1] for value in group]  # only "in" records get suffixes
            kept = self.sampler.select(in_edges, node_id, salt=sfx)
            keys.append(node_id)
            values.append(("partial", kept))
            # ("partial", [records]): 8 + 15 + 8 + each record's size
            sizes.append(31 + sum(record.approx_size for record in kept))
            nbytes += sizes[-1]
            if nbytes >= MERGE_BATCH_BYTES:
                yield RecordBatch(keys, values, np.asarray(sizes, dtype=np.int64))
                keys, values, sizes, nbytes = [], [], [], 0
        if keys:
            yield RecordBatch(keys, values, np.asarray(sizes, dtype=np.int64))


@dataclass
class MessagePassingReducer:
    """The paper's Reduce: merge self + in-edge info, propagate via
    out-edges (or emit the result on the last round).  Subclasses say what
    merging means (:meth:`merge_batch`) and how the last round tags its
    output (``final_tag``, or :meth:`final_rows` itself); parsing the
    shuffled kinds of information, the receptive-field gate, sampling,
    batching and every emission are shared.

    The reducer takes its partition's whole group stream
    (:meth:`reduce_groups`, the runtime's ``Reducer.run()``): nodes are
    parsed, gated and sampled one at a time, buffered up to
    :data:`~repro.mapreduce.spill.MERGE_BATCH_BYTES` of self and sampled
    in-edge information (as the records' ``nbytes`` count it), merged by one
    :meth:`merge_batch` call, and emitted as one
    :class:`~repro.mapreduce.shuffle.RecordBatch` in node order — the rows
    a reduce task writes are exactly those of a node-at-a-time reducer."""

    sampler: SamplingStrategy
    round_index: int
    total_rounds: int
    routing: Routing
    edge_fanout: EdgeFanout | None = None
    """Edge-level tasks only (and only on the Kth round): the final result
    is keyed to the target/candidate edges the node terminates instead of
    the node itself, for the joining round that follows."""

    final_tag = "final"

    def merge_batch(self, batch: list[tuple]) -> list:
        """The next self information of each ``(self_info, sampled)`` node
        of ``batch`` — its current one and its sampled in-edge records — in
        batch order.  Must not mutate any input: the previous round's
        objects are shared with every reducer they were propagated to."""
        raise NotImplementedError

    def reduce_groups(self, groups):
        batch: list[tuple] = []
        nbytes = 0
        for node_id, values in groups:
            node = self._gather(node_id, values)
            if node is None:
                continue
            batch.append(node)
            _, sampled, self_info = node
            nbytes += self_info.nbytes + sum(record.nbytes for record in sampled)
            if nbytes >= MERGE_BATCH_BYTES:
                yield self._emit(batch)
                batch, nbytes = [], 0
        if batch:
            yield self._emit(batch)

    def _gather(self, node_id, values):
        """``(node_id, sampled, self_info)``, or ``None`` when the node does
        not merge this round."""
        # Outside every target's receptive field this round (on the final
        # round: not a target) — nothing downstream reads this node's
        # merge, so skip it before doing the work.  Upstream rounds already
        # stop propagating to such nodes; the check keeps the reducer
        # correct for records that arrive anyway.
        if not self.routing.needed(node_id, self.round_index):
            return None
        self_info = None
        ins: list = []
        for value in values:
            tag = value[0]
            if tag == "self":
                self_info = value[1]
            elif tag == "in":
                ins.append(value[1])
            elif tag == "partial":
                ins.extend(value[1])
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown record tag {tag!r}")
        if self_info is None:
            # A node that only ever appears as an edge destination of
            # strays the Map phase dropped; nothing to do.
            return None
        return node_id, self.sampler.select(ins, node_id, salt=0), self_info

    def _emit(self, batch: list[tuple]) -> RecordBatch:
        node_ids = [node_id for node_id, _, _ in batch]
        merged = self.merge_batch([(self_info, sampled) for _, sampled, self_info in batch])
        if self.round_index < self.total_rounds:
            return self.routing.propagate(node_ids, merged, self.round_index + 1)
        return self.final_rows(node_ids, merged)

    def final_rows(self, node_ids: list[int], infos: list) -> RecordBatch:
        """The Kth round's output: "in the Kth round ... only need to output
        it rather than all of the three information" (§3.4) — keyed by node,
        or fanned out to the target edges a node terminates."""
        info_nbytes = self.routing.in_record.info_nbytes
        if self.edge_fanout is not None:
            # The result is shared across emissions — the joining round
            # only reads it.
            keys, values, owners = [], [], []
            for i, node_id in enumerate(node_ids):
                for edge_index, role in self.edge_fanout.entries(node_id):
                    keys.append(edge_index)
                    values.append(("end", role, infos[i]))
                    owners.append(i)
            # ("end", role, info): 8 + 11 + 8 + S
            return RecordBatch(keys, values, lambda: np.fromiter(
                (27 + info_nbytes(infos[i]) for i in owners), dtype=np.int64, count=len(owners)
            ))
        tag = self.final_tag
        return RecordBatch(list(node_ids), [(tag, info) for info in infos], lambda: np.fromiter(
            (16 + len(tag) + info_nbytes(info) for info in infos), dtype=np.int64, count=len(infos)
        ))


# ------------------------------------------------------------------ planning
def in_degrees(edges: EdgeTable) -> list[tuple[int, int]]:
    """Per-destination ``(node, in-degree)`` of the coalesced edge table —
    one vectorized unique+count pass over the dst column.  Feeds both hub
    detection and the degree-aware partition plan (equality with a per-edge
    dict loop is reference-tested)."""
    uniq, counts = np.unique(np.asarray(edges.dst, dtype=np.int64), return_counts=True)
    return list(zip(uniq.tolist(), counts.tolist()))


def detect_hubs(degree_pairs, hub_threshold: int) -> frozenset[int]:
    """Nodes whose in-degree exceeds ``hub_threshold`` (§3.2.2)."""
    return frozenset(int(v) for v, deg in degree_pairs if deg > hub_threshold)


def build_partition_plan(
    degree_pairs,
    hubs: frozenset[int],
    fanout: int,
    num_reducers: int,
    needed: ReceptiveField,
) -> PartitionPlan:
    """Degree-aware placement plan covering every intermediate round's keys.

    A node's expected shuffle load is its in-degree — the number of ``in``
    records propagated to it each round, known before any round runs
    because hub detection already counted it (:func:`in_degrees`).
    Propagation is
    demand-driven, so a node outside every target's receptive field
    (``not needed(node, 1)``) receives nothing and is left out of the plan:
    the planner balances what is actually shuffled.  Per remaining node of
    in-degree ``deg``, the weighted key set is:

    * non-hub — the plain int key at weight ``deg`` (its in-records go
      straight to the merge rounds).
    * hub — each slice key ``(node, 1+s)`` at ``deg / fanout`` (the split
      the re-indexing performs, routing into the re-index rounds) and the
      plain int at ``2 + fanout`` (the self record and the post-sampling
      partials, routing into the merge rounds).

    :func:`~repro.mapreduce.partition.plan_partitions` then LPT-packs the
    heavy head of that set; everything else keeps hashing."""

    def weighted():
        for node, deg in degree_pairs:
            node = int(node)
            if not needed(node, 1):
                continue
            if node in hubs:
                for s in range(1, fanout + 1):
                    yield (node, s), float(deg) / fanout
                yield node, 2.0 + fanout
            else:
                yield node, float(deg)

    return plan_partitions(weighted(), num_reducers)


# ------------------------------------------------------------------- driver
def canonical_tables(nodes: NodeTable, edges: EdgeTable) -> tuple[EdgeTable, list[tuple]]:
    """The Map phase's input, validated (``repro.graph.validate``): the
    coalesced edge table (one ``A_{v,u}`` entry per node pair — GraphInfer
    must see GraphFlat's adjacency; the out-edges every round reads,
    :class:`OutEdges`) and the ``node_rows`` keyed by node id."""
    validate_tables(nodes, edges)
    edges = edges.coalesce()
    node_rows = [(int(i), ("node", feat)) for i, feat, _ in nodes.rows()]
    return edges, node_rows


@dataclass(frozen=True)
class ShardSink:
    """Reducer-owned columnar sink: the final-round reducer streams its
    output pairs straight into one AGLC shard (``part-<task>``), buffering
    one shard's records — never the whole dataset.  ``writer.write_shard``
    returns ``(count, ...)``; the parent only ever sees these summaries."""

    directory: str
    writer: object

    def store(self, task_index: int, pairs):
        return self.writer.write_shard(
            Path(self.directory) / f"part-{task_index:05d}", pairs
        )


@dataclass
class DataflowOutput:
    """What :func:`run_dataflow` hands back to the pipeline."""

    hubs: frozenset[int]
    round_stats: list[RunStats]
    summaries: list[tuple] | None = None
    """DFS output: what the store reported, ``(count, ...)`` per shard —
    one per final partition."""
    data: list | None = None
    """No DFS: the final round's output pairs, in partition-major order."""


def run_dataflow(
    name: str,
    config: DataflowConfig,
    runtime: LocalRuntime,
    edges: EdgeTable,
    rows: list[tuple],
    *,
    needed: ReceptiveField,
    in_record: Callable,
    seed: Callable,
    reducers: Sequence[Callable[..., MessagePassingReducer]],
    final: tuple[str, Callable] | None = None,
    edge_fanout: EdgeFanout | None = None,
    store,
    fs: DistFileSystem | None = None,
    dataset_name: str,
) -> DataflowOutput:
    """Run ``map -> [reindex (hub slices only), reduce] x K -> final`` over
    the Map input ``rows`` (the node rows, :func:`canonical_tables`) with
    the out-edges of the coalesced ``edges`` as a side input, and store the
    result.

    ``reducers`` holds one :class:`MessagePassingReducer` constructor per
    round (``K = len(reducers)``); ``final`` optionally names one more
    round (``(job suffix, reducer)``) that joins or scores the Kth round's
    output.  Hub detection and the placement plan are built from the
    ``(node, in-degree)`` counts of ``edges`` (:func:`in_degrees`), counted
    here once — no MapReduce job.

    ``store`` is the pipeline's storing step (§3.2.1 "Storing"):
    ``store.kind`` names the record kind and ``store.write_shard(path,
    pairs)`` flattens one final partition into a columnar shard, returning
    ``(count, ...)``.

    Two outcomes: with a DFS (``fs``) every final-round reducer writes its
    own shard (shard order = partition order and keys are sorted within a
    partition, so ``read_dataset`` yields the in-memory result's record
    stream exactly) and only the per-shard summaries come back; with no DFS
    the final round's pairs are returned in memory.
    """
    degree_pairs = in_degrees(edges)
    hubs = detect_hubs(degree_pairs, config.hub_threshold)
    # Side inputs every round reads, published once (inline for in-process
    # backends, one shared-memory slab each under pickling ones): the
    # out-edges, and the placement plan.
    edges_broadcast = partition_broadcast = None
    try:
        edges_broadcast, out_edges = publish(OutEdges.of(edges), runtime.needs_pickling)
        planned = None
        if config.partitioner == "planned":
            # Degree-aware placement: built from the in-degree counts hub
            # detection already needed, applied to every intermediate round.
            plan = build_partition_plan(
                degree_pairs, hubs, config.reindex_fanout, config.num_reducers, needed
            )
            partition_broadcast, planned = publish_plan(plan, runtime.needs_pickling)
        routing = Routing(hubs, config.reindex_fanout, needed, in_record, out_edges)
        jobs = _job_chain(name, config, routing, seed, reducers, final, edge_fanout, planned)
        if fs is None:
            data = runtime.run_rounds(jobs, rows)
            return DataflowOutput(hubs, list(runtime.round_stats), data=data)
        directory = fs.prepare_dataset(dataset_name)
        summaries = runtime.run_rounds(
            jobs, rows, final_sink=ShardSink(str(directory), store)
        )
        fs.finalize_dataset(
            dataset_name,
            layout="columnar",
            record_counts=[summary[0] for summary in summaries],
            kind=store.kind,
            task=config.recorded_task,
        )
        return DataflowOutput(hubs, list(runtime.round_stats), summaries)
    finally:
        # Single unlink point for the side-input slabs — covers failed
        # rounds too.
        for broadcast in (edges_broadcast, partition_broadcast):
            if broadcast is not None:
                broadcast.close()


def _job_chain(
    name, config, routing, seed, reducers, final, edge_fanout, planned
) -> list[MapReduceJob]:
    """``map -> [reindex (hub slices only), reduce] x K -> final`` as jobs;
    ``planned`` (a placement-plan partitioner, or ``None``) governs every
    round but the last."""
    sampler = config.make_sampler()
    total_rounds = len(reducers)

    # ---- Map phase ("runs only once at the beginning", §3.2.1) followed by
    # K Reduce rounds, submitted as one chained sequence: every round is
    # reduce-only, so the runtime hands partitions reducer-to-reducer and
    # intermediate state never funnels through this process.
    def job(stage: str, reducer, accepts=None) -> MapReduceJob:
        return MapReduceJob(
            f"{name}-{stage}", reducer, num_reducers=config.num_reducers, accepts=accepts
        )

    jobs = [job("map", PrepareReducer(routing, seed))]
    for k, make_reducer in enumerate(reducers, start=1):
        if routing.hubs:
            # A side stage: the round before sends it the hub slices and
            # everything else straight on to ``reduce{k}``.
            reindex = PartialReducer(sampler, routing.in_record)
            jobs.append(job(f"reduce{k}-reindex", reindex, accepts=is_hub_slice))
        fanout = edge_fanout if k == total_rounds else None
        jobs.append(
            job(f"reduce{k}", make_reducer(sampler, k, total_rounds, routing, fanout))
        )
    if final is not None:
        jobs.append(job(*final))
    if planned is not None:
        # The *final* round keeps the hash default: output record order is
        # partition-major and reducer-written shards are per-partition, so
        # pinning the last round's placement is the planner's determinism
        # contract — pipeline output stays byte-identical across
        # partitioners.
        for planned_job in jobs[:-1]:
            planned_job.partitioner = planned
    return jobs
