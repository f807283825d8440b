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
* **Batches of columns**: every engine reducer emits one
  :class:`~repro.mapreduce.shuffle.RecordBatch` per merge batch — keys, the
  values as columns (:mod:`repro.proto.framing`) and array-computed sizes
  — which the runtime's writers take whole: :meth:`Routing.propagate` is
  one array step over a batch, gathering ``src`` / ``weight`` / edge
  features from the out-edge CSR and pointing every in-edge row at its
  sender's one per-node information.
* **Segments in**: every engine reducer reads its partition a
  :class:`~repro.mapreduce.shuffle.Segment` at a time — a merge window of
  groups whose keys and boundaries are arrays, its values row references
  into the shuffled chunks' columns (:class:`_Read`).  A node's record
  count and kept bytes come from running sums at the group boundaries, the
  receptive-field gate is one mask over the segment's ids, only the nodes
  over the sampler's cap reach ``select``, and merge batches are cut where
  one cumulative sum of the nodes' sizes says (:func:`merge_batch_cuts`).
  A batch's rows are gathered column by column once — no record object is
  built, and no Python step runs, per node or per value between one merge
  and the next, but for a node the sampler draws for.
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
  publishes the out-edges, builds the ``map ->
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
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.graph.tables import EdgeTable, NodeTable
from repro.graph.validate import validate_tables
from repro.mapreduce.fs import DistFileSystem
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.partition import Inline, SlabLocator, publish
from repro.mapreduce.runtime import LocalRuntime, RunStats
from repro.mapreduce.shuffle import RecordBatch, Segment
from repro.mapreduce.spill import DEFAULT_RUN_BYTES, DEFAULT_RUN_RECORDS, MERGE_BATCH_BYTES
from repro.proto.framing import (
    ArrayColumn,
    Column,
    GatherColumn,
    ListColumn,
    NoneColumn,
    RecordColumn,
    ScalarColumn,
    StrColumn,
    TupleColumn,
    UnionColumn,
    _ranges,
    concat_columns,
    gather,
    union_of,
)
from repro.tasks import make_task
from repro.utils.blas import single_threaded_blas

if TYPE_CHECKING:
    from repro.core.graphflat.sampling import SamplingStrategy

__all__ = [
    "DataflowConfig",
    "DataflowOutput",
    "EdgeFanout",
    "MessagePassingReducer",
    "NodeBatch",
    "OutEdges",
    "PartialReducer",
    "PrepareReducer",
    "ReceptiveField",
    "Routing",
    "ShardSink",
    "canonical_tables",
    "detect_hubs",
    "distance_to_targets",
    "in_degrees",
    "is_hub_slice",
    "merge_batch_cuts",
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
    spill_run_records: int = DEFAULT_RUN_RECORDS
    """External-sort run bound: records buffered per spill writer before a
    sorted run is flushed (see ``repro.mapreduce.spill.SpillRunWriter``)."""
    spill_run_bytes: int = DEFAULT_RUN_BYTES
    """External-sort run bound in (approximate) encoded bytes of the values
    a spill writer buffers before a sorted run is flushed."""
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
        return _csr_rows(self.ids, self.offsets, node_ids)


def _csr_rows(ids: np.ndarray, offsets: np.ndarray, node_ids: np.ndarray):
    """``(owner, row)``: the rows of a CSR by node (``ids`` ascending, node
    ``ids[i]``'s rows ``offsets[i]:offsets[i + 1]``) of every node of
    ``node_ids``, as the index of its node in ``node_ids`` and the row —
    node-major, in row order within a node; a node not in ``ids`` has
    none."""
    if not len(ids):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    pos = np.minimum(np.searchsorted(ids, node_ids), len(ids) - 1)
    has = ids[pos] == node_ids
    lo = np.where(has, offsets[pos], 0)
    counts = np.where(has, offsets[pos + 1] - lo, 0)
    owner = np.repeat(np.arange(len(node_ids), dtype=np.int64), counts)
    return owner, _ranges(lo, counts)


@dataclass(frozen=True)
class EdgeFanout:
    """Broadcast table for edge-level tasks: node id -> the target (or
    candidate) edges it terminates, as ``(edge_index, role)`` entries (role
    0 = src endpoint, role 1 = dst), ordered by edge index, then role (a
    self-loop's node has both).  A CSR by node: node ``ids[i]``'s entries
    are rows ``offsets[i]:offsets[i + 1]`` of ``edge_index`` and ``role``.
    Built parent-side from a table that is fixed before any round runs,
    shipped inside the Kth round's reducer only, so every re-execution fans
    out the exact same records."""

    ids: np.ndarray
    offsets: np.ndarray
    edge_index: np.ndarray
    role: np.ndarray

    @classmethod
    def from_pairs(cls, src, dst) -> "EdgeFanout":
        src = np.asarray(src, dtype=np.int64)
        count = len(src)
        nodes = np.concatenate([src, np.asarray(dst, dtype=np.int64)])
        edge_index = np.tile(np.arange(count, dtype=np.int64), 2)
        role = np.repeat(np.arange(2, dtype=np.int64), count)
        order = np.lexsort((role, edge_index, nodes))
        ids, counts = np.unique(nodes[order], return_counts=True)
        offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(ids, offsets, edge_index[order], role[order])

    def of_nodes(self, node_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(owner, entry)``: every entry of ``node_ids``, node-major, as
        the index of its node in ``node_ids`` and its CSR row."""
        return _csr_rows(self.ids, self.offsets, node_ids)

    @staticmethod
    def endpoints(keys: list, roles: np.ndarray, counts: np.ndarray, what: str) -> np.ndarray:
        """For a joining round's groups — target edge ``keys[g]`` with its
        ``counts[g]`` ``("end", role, info)`` records, whose roles are
        ``roles`` end to end — the record positions, src then dst edge by
        edge.  An edge without exactly one record per role is a
        ``RuntimeError`` naming it (``what``: the kind of edge)."""
        starts = np.cumsum(counts) - counts
        order = np.lexsort((roles, np.repeat(np.arange(len(keys)), counts)))
        ranked = roles[order]
        bad = counts != 2
        bad[~bad] = (ranked[starts[~bad]] != 0) | (ranked[starts[~bad] + 1] != 1)
        if bad.any():
            at = int(np.flatnonzero(bad)[0])
            got = ranked[starts[at] : starts[at] + counts[at]].tolist()
            raise RuntimeError(
                f"{what} {keys[at]} expected one record per endpoint role, got roles {got}"
            )
        return order


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
    subgraph, or an embedding record), registered with the block codec
    under the wire fields ``(src, weight, edge_feat, info)``.  It says how
    a batch's per-node information is held as a column
    (``in_record.info_column(infos)``) and sized, a column at a time:
    ``info_sizes`` is each info's ``nbytes``, ``info_approx`` what
    :func:`~repro.proto.framing.approx_nbytes` counts for it."""
    out_edges: Inline | SlabLocator
    """The carrier of the run's :class:`OutEdges`."""

    def __post_init__(self):
        hub_ids = np.fromiter(sorted(self.hubs), dtype=np.int64, count=len(self.hubs))
        object.__setattr__(self, "_hub_ids", hub_ids)

    def propagate(self, node_ids: list[int], infos: list, next_round: int) -> RecordBatch:
        """What the nodes ``node_ids`` hand to round ``next_round`` after
        building ``infos``, as one batch of columns, node-major: a node's
        self information travels on only if the node merges again, followed
        by its in-edge records to the destinations that merge next round.  A
        destination that does merge still receives every one of its in-edge
        records (the gate is per destination, never per edge), so its
        sampling draw — and therefore the pipeline's output — is exactly the
        ungated pipeline's.  Keys are the destination, or its slice ``(dst,
        1 + suffix)`` for hubs.  Values are ``("self", info)`` and ``("in",
        in_record(src, weight, edge_feat, info))`` rows as columns: ``src``,
        ``weight`` and edge features gathered from the out-edge CSR, and
        ``info`` one row per *node*, gathered only when encoded.  Each row's
        size comes from the per-node sizes of ``infos``, computed only if a
        writer asks."""
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

        # node-major order: node i's self row first, then its in-rows
        self_rows = np.zeros(len(ids), dtype=np.int64)
        self_rows[selves] = 1
        rows = self_rows + np.bincount(owner, minlength=len(ids))
        first = np.cumsum(rows) - rows
        order = np.empty(len(selves) + len(owner), dtype=np.int64)
        order[first[selves]] = np.arange(len(selves))
        in_rank = np.arange(len(owner)) - np.searchsorted(owner, owner)
        order[first[owner] + self_rows[owner] + in_rank] = len(selves) + np.arange(len(owner))
        keys = [node_ids[i] for i in selves.tolist()] + in_keys

        record = self.in_record
        info = [record.info_column(infos), None]  # one base for every gather
        feats = (
            NoneColumn(len(edge)) if out_edges.edge_feat is None
            else ArrayColumn(out_edges.edge_feat[edge])
        )
        in_values = RecordColumn.of(record, [
            ScalarColumn(int, ids[owner]),
            ScalarColumn(float, out_edges.weight[edge]),
            feats,
            GatherColumn(info, owner),
        ])
        kinds = np.repeat(np.arange(2), [len(selves), len(owner)])
        values = TupleColumn(
            [StrColumn.of(["self", "in"], kinds), union_of(kinds, [GatherColumn(info, selves), in_values])],
            len(kinds),
        )

        def nbytes() -> np.ndarray:
            # ("self", info): 8 + 12 + S;  ("in", record): 8 + 10 + 24 + feat + S
            per_node = record.info_approx(info[0])
            return np.concatenate(
                [20 + per_node[selves], 42 + out_edges.feat_nbytes + per_node[owner]]
            )[order]

        return RecordBatch([keys[i] for i in order.tolist()], values.take(order), nbytes)


_ROLES = {"self": 0, "in": 1, "partial": 2}
"""The kinds of shuffled information, by their tag."""


class _Inbox:
    """One column of shuffled engine messages — a decoded chunk, or an
    in-memory partition's batch — read once for every segment that has rows
    of it: where each row's self information is, and its in-edge records —
    one for an ``in`` row, the pre-sampled list of a ``partial`` one — as
    one record column in row order, so row ``r`` has the records
    ``cum[r]:cum[r + 1]`` and, if ``is_self[r]``, the self information
    ``self_cum[r]`` of ``infos``."""

    def __init__(self, column: Column, in_record: type):
        self.in_record = in_record
        tags, payload = column.children  # decoded, or materialized in memory
        try:
            roles = np.asarray([_ROLES[tag] for tag in tags.table], dtype=np.int64)
        except KeyError as exc:
            raise RuntimeError(f"unknown record tag {exc.args[0]!r}") from None
        role = roles[tags.codes]
        if type(payload) is UnionColumn:
            children = payload.children
            role_of = np.zeros(len(children), dtype=np.int64)
            role_of[payload.codes] = role  # a kind's rows share one tag
            child = dict(zip(role_of.tolist(), children))
        else:
            child = {int(role[0]): payload}
        self.infos = child.get(0, NoneColumn(0))
        ins, partials = child.get(1, NoneColumn(0)), child.get(2)
        is_in = role == 1
        per_row = is_in.astype(np.int64)  # each row's records
        self.records = ins
        if partials is not None:
            # each row's records — its own, or its list's items (which
            # follow the in-rows' records) — in row order
            listed = role == 2
            per_row[listed] = partials.lengths
            first = np.zeros(len(role), dtype=np.int64)
            first[is_in] = np.arange(len(ins))
            first[listed] = len(ins) + np.cumsum(partials.lengths) - partials.lengths
            self.records = concat_columns([ins, partials.items]).take(
                _ranges(first[per_row > 0], per_row[per_row > 0])
            )
        self.cum = np.concatenate(([0], np.cumsum(per_row)))
        self.is_self = role == 0
        self.self_cum = np.concatenate(([0], np.cumsum(self.is_self)))
        if len(self.records):
            self.src = self.records.fields[0].values
            self.weight = self.records.fields[1].values
        else:
            self.src, self.weight = np.zeros(0, np.int64), np.zeros(0, np.float64)
        self._sizes: dict[str, np.ndarray] = {}

    def self_sizes(self) -> np.ndarray:
        """``nbytes`` of each self information."""
        if "self" not in self._sizes:
            self._sizes["self"] = self.in_record.info_sizes(self.infos)
        return self._sizes["self"]

    def size_table(self, name: str) -> np.ndarray:
        """Per in-edge record: its information's ``nbytes``
        (``record_sizes``), or its :func:`~repro.proto.framing.approx_nbytes`
        (``record_approx``: ``src``, ``weight``, edge features and info)."""
        if name not in self._sizes:
            info = self.records.fields[3] if len(self.records) else NoneColumn(0)
            sizes = self.in_record.info_sizes(info) if len(info) else np.zeros(0, np.int64)
            if name == "record_approx" and len(info):
                feat = self.records.fields[2]
                feat_nbytes = 8 if type(feat) is NoneColumn else 8 + feat.matrix[0].nbytes
                sizes = 24 + feat_nbytes + self.in_record.info_approx(info)
            self._sizes[name] = sizes
        return self._sizes[name]


class _Read:
    """A segment as an engine reducer reads it, over the inboxes of its
    columns (``boxes``; their records, and their infos, numbered end to
    end): per group ``g``, its in-edge records in merge order —
    ``records[rb[g]:rb[g + 1]]``, with their ``src`` and ``weight`` in the
    same positions — and its last self row, ``self_at[g]`` (where
    ``has_self[g]``).  Every number comes from the segment's arrays and the
    inboxes' running counts: nothing is read per group."""

    def __init__(self, segment: Segment, boxes: list[_Inbox]):
        self.boxes = boxes
        self.rec_base = np.cumsum([0] + [len(box.records) for box in boxes])
        self.self_base = np.cumsum([0] + [len(box.infos) for box in boxes])
        row_base = np.cumsum([0] + [len(box.is_self) for box in boxes])
        rows = row_base[segment.which] + segment.index  # each value's row, end to end
        first = np.concatenate([box.cum[:-1] + base for box, base in zip(boxes, self.rec_base)])
        counts = np.concatenate([np.diff(box.cum) for box in boxes])[rows]
        self.records = _ranges(first[rows], counts)
        starts = segment.bounds[:-1]
        self.rb = np.concatenate(([0], np.cumsum(np.add.reduceat(counts, starts))))
        is_self = np.concatenate([box.is_self for box in boxes])[rows]
        last = np.maximum.reduceat(np.where(is_self, np.arange(len(rows)), -1), starts)
        self.has_self = last >= 0
        self_of = np.concatenate(
            [box.self_cum[:-1] + base for box, base in zip(boxes, self.self_base)]
        )
        self.self_at = self_of[rows[last]]
        self.src = np.concatenate([box.src for box in boxes])[self.records]
        self.weight = np.concatenate([box.weight for box in boxes])[self.records]

    def sizes(self, name: str) -> np.ndarray:
        """The size table ``name`` (:meth:`_Inbox.size_table`) of the
        records, in merge order."""
        return np.concatenate([box.size_table(name) for box in self.boxes])[self.records]

    def self_sizes(self) -> np.ndarray:
        """``nbytes`` of each group's last self information."""
        return np.concatenate([box.self_sizes() for box in self.boxes])[self.self_at]

    def sample(self, groups: np.ndarray, node_ids: list, sampler, salts, table: str):
        """Sample the groups ``groups`` (their node ids ``node_ids``, their
        draws salted ``salts``: one int, or one per group): ``(over,
        picks, kept)`` — which groups are over the sampler's cap, the
        positions in ``records`` each of those keeps (in the sampler's
        order), and the bytes every group keeps by the size table
        ``table``.  A group at most at the cap keeps every record, so only
        the groups over it reach ``sampler.select``."""
        sizes = self.sizes(table)
        prefix = np.concatenate(([0], np.cumsum(sizes)))
        lo, hi = self.rb[groups], self.rb[groups + 1]
        kept = prefix[hi] - prefix[lo]
        over = hi - lo > sampler.max_neighbors
        picks = []
        for i in np.flatnonzero(over).tolist():
            a, b = int(lo[i]), int(hi[i])
            salt = salts if type(salts) is int else salts[i]
            keep = a + sampler.select(self.src[a:b], self.weight[a:b], node_ids[i], salt)
            picks.append(keep)
            kept[i] = sizes[keep].sum()
        return over, picks, kept


def _inboxes(segment: Segment, held: dict, in_record: type) -> list[_Inbox]:
    """The inboxes of ``segment``'s columns: the ones ``held`` (``id`` of a
    column -> ``(column, inbox)``: the segment before's) or new ones;
    ``held`` is left holding this segment's."""
    boxes = {}
    for column in segment.columns:
        entry = held.get(id(column))
        boxes[id(column)] = entry if entry is not None else (column, _Inbox(column, in_record))
    held.clear()
    held.update(boxes)
    return [boxes[id(column)][1] for column in segment.columns]


def merge_batch_cuts(sizes: np.ndarray, held: int, limit: int) -> list[int]:
    """Where merge batches close over a run of nodes of ``sizes`` bytes,
    the open batch holding ``held`` bytes already: a batch closes after
    the node that takes it to ``limit`` bytes or more.  Each cut is the
    position after such a node — one cumulative sum and a bisection per
    batch, exactly the batches a node-at-a-time reducer closes."""
    total = np.cumsum(sizes)
    cuts, base = [], -held  # base: the cumulative bytes the open batch starts after
    while True:
        at = int(np.searchsorted(total, limit + base))
        if at >= len(total):
            return cuts
        cuts.append(at + 1)
        base = int(total[at])


class NodeBatch(NamedTuple):
    """The nodes one :meth:`MessagePassingReducer.merge_batch` call merges:
    their self informations, and their sampled in-edges as edge columns —
    node ``i``'s are the rows ``offsets[i]:offsets[i + 1]``."""

    node_ids: list[int]
    selves: Column
    offsets: np.ndarray
    src: np.ndarray
    weight: np.ndarray
    edge_feat: np.ndarray | None
    """Edge-feature rows, or ``None`` without edge features."""
    neighbors: Column
    """The senders' information, one per in-edge."""

    def __len__(self) -> int:
        return len(self.node_ids)


class _Gathering:
    """The nodes a reducer has read since its last emission, as references
    into the segments (:class:`_Read` s) their groups are in: per node, its
    self row and the in-edge records it keeps — all its records, in source
    order, or the ones its sampler drew.  Nothing is copied until
    :meth:`records` / :meth:`selves` gather the whole batch at once — one
    ``lexsort`` orders every node that keeps all its records."""

    def __init__(self):
        self.node_ids: list = []
        self.parts: list[tuple] = []
        """Per stretch of a segment taken: ``(first node, read, groups,
        over, picks)``, as :meth:`_Read.sample` made them."""
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self.node_ids)

    def take(self, read: _Read, node_ids, groups, over, picks, kept, start: int, stop: int):
        """Add the nodes ``start:stop`` of a segment's read — the groups
        ``groups`` (ids ``node_ids``), sampled as ``over`` / ``picks`` say,
        keeping ``kept`` bytes each."""
        if start == stop:
            return
        first = int(np.count_nonzero(over[:start]))
        drawn = picks[first : first + int(np.count_nonzero(over[start:stop]))]
        self.parts.append((len(self.node_ids), read, groups[start:stop], over[start:stop], drawn))
        self.node_ids += node_ids[start:stop]
        self.nbytes += int(kept[start:stop].sum())

    def _boxes(self, part: str):
        """``(columns, translate)``: the column ``part`` (``records`` or
        ``infos``) of every inbox the batch reads, once each, and a function
        from a read and its numbers of those rows to the columns' end to
        end."""
        numbers: dict[int, int] = {}
        columns = []
        for _, read, _, _, _ in self.parts:
            for box in read.boxes:
                if id(box) not in numbers:
                    numbers[id(box)] = len(columns)
                    columns.append(getattr(box, part))
        base = np.cumsum([0] + [len(column) for column in columns])

        def translate(read: _Read, ids: np.ndarray) -> np.ndarray:
            bases = read.rec_base if part == "records" else read.self_base
            k = np.searchsorted(bases, ids, "right") - 1
            into = np.asarray([numbers[id(box)] for box in read.boxes], dtype=np.int64)
            return base[into[k]] + ids - bases[k]

        return columns, translate

    def records(self) -> tuple[Column, np.ndarray]:
        """``(records, counts)``: every kept in-edge record, node by node
        and in source order within a node, as one column; and how many each
        node kept."""
        columns, translate = self._boxes("records")
        nodes, order, records = [], [], []  # per record: its node, its rank key, its row
        for first, read, groups, over, picks in self.parts:
            node = first + np.arange(len(groups))
            lo = read.rb[groups]
            counts = np.where(over, 0, read.rb[groups + 1] - lo)  # the drawn keep their picks
            positions = _ranges(lo, counts)
            nodes.append(np.repeat(node, counts))
            order.append(read.src[positions])  # a node that keeps all: in source order
            if picks:
                drawn = [len(keep) for keep in picks]
                nodes.append(np.repeat(node[over], drawn))
                order.append(_ranges(np.zeros(len(picks), dtype=np.int64), np.asarray(drawn)))
                positions = np.concatenate([positions, *picks])
            records.append(translate(read, read.records[positions]))
        counts = np.zeros(len(self.node_ids), dtype=np.int64)
        nodes, order, records = map(np.concatenate, (nodes, order, records))
        if not len(records):
            return NoneColumn(0), counts
        records = records[np.lexsort((order, nodes))]  # stable: ties keep arrival order
        counts += np.bincount(nodes, minlength=len(counts))
        return concat_columns(columns).take(records), counts

    def selves(self) -> Column:
        """Every node's self information, as one column."""
        columns, translate = self._boxes("infos")
        rows = [translate(read, read.self_at[groups]) for _, read, groups, _, _ in self.parts]
        return concat_columns(columns).take(np.concatenate(rows))


@dataclass(frozen=True)
class PrepareReducer:
    """The Map phase: build the round-0 self information of a batch of
    nodes and propagate it for round 1 (the out-edges are the
    :class:`OutEdges` side input, so a node's group is its node row)."""

    routing: Routing
    seed: Callable
    """``seed(node_ids, features)``: the round-0 self information of the
    nodes ``node_ids`` (their 0-hop subgraphs, or ``h^(0) = x``) from their
    feature rows, one batch at a time."""

    def reduce_segments(self, segments):
        node_ids, rows, nbytes = [], [], 0
        for segment in segments:
            features = [column.children[1] for column in segment.columns]
            last = segment.bounds[1:] - 1  # each node's ("node", feature) row
            which, index = segment.which[last], segment.index[last]
            ids = segment.key_list()
            sizes = np.full(len(segment), features[0].matrix[0].nbytes)
            start = 0
            for stop in merge_batch_cuts(sizes, nbytes, MERGE_BATCH_BYTES) + [len(ids)]:
                node_ids += ids[start:stop]
                rows.append(gather(features, which[start:stop], index[start:stop]))
                nbytes += int(sizes[start:stop].sum())
                if nbytes >= MERGE_BATCH_BYTES:
                    yield self._emit(node_ids, rows)
                    node_ids, rows, nbytes = [], [], 0
                start = stop
        if node_ids:
            yield self._emit(node_ids, rows)

    def _emit(self, node_ids: list[int], rows: list[Column]) -> RecordBatch:
        features = concat_columns(rows)
        return self.routing.propagate(node_ids, self.seed(node_ids, features.matrix), 1)


@dataclass(frozen=True)
class PartialReducer:
    """Re-indexed stage (Figure 3): pre-sample one hub slice, then
    inverted-index back to the hub's plain shuffle key.  Only slice keys
    reach it (:func:`is_hub_slice`); a slice's kept in-edge records leave
    as one ``("partial", [records])`` row, a list column."""

    sampler: SamplingStrategy
    in_record: type
    """The in-edge record class this round decodes.  Held so that a fresh
    worker unpickling the reducer imports the module that registers the
    record's wire form (the other rounds' reducers get there through
    :class:`Routing`), and for the sizes of its info column."""

    def reduce_segments(self, segments):
        batch, sizes, held = _Gathering(), [], {}
        for segment in segments:
            read = _Read(segment, _inboxes(segment, held, self.in_record))
            node_ids = [node_id for node_id, _ in segment.keys]
            salts = [sfx for _, sfx in segment.keys]
            groups = np.arange(len(segment))
            over, picks, kept = read.sample(groups, node_ids, self.sampler, salts, "record_approx")
            kept += 31  # ("partial", [records]): 8 + 15 + 8 + each record's size
            start = 0
            for stop in merge_batch_cuts(kept, batch.nbytes, MERGE_BATCH_BYTES) + [len(groups)]:
                batch.take(read, node_ids, groups, over, picks, kept, start, stop)
                sizes.append(kept[start:stop])
                if batch.nbytes >= MERGE_BATCH_BYTES:
                    yield self._emit(batch, sizes)
                    batch, sizes = _Gathering(), []
                start = stop
        if batch:
            yield self._emit(batch, sizes)

    @staticmethod
    def _emit(batch: _Gathering, sizes: list[np.ndarray]) -> RecordBatch:
        records, counts = batch.records()
        values = TupleColumn(
            [
                StrColumn.of(["partial"], np.zeros(len(batch), dtype=np.int64)),
                ListColumn(counts, records),
            ],
            len(batch),
        )
        return RecordBatch(batch.node_ids, values, np.concatenate(sizes))


@dataclass
class MessagePassingReducer:
    """The paper's Reduce: merge self + in-edge info, propagate via
    out-edges (or emit the result on the last round).  Subclasses say what
    merging means (:meth:`merge_batch`) and what the last round of a node
    flow hands the store (:meth:`stored`); reading the shuffled kinds of
    information, the receptive-field gate, sampling, batching and every
    emission are shared.

    The reducer takes its partition's whole group stream
    (:meth:`reduce_segments`, the runtime's ``Reducer.run()``) a segment at
    a time: a segment's nodes are gated by one receptive-field mask, the
    ones over the sampler's cap are sampled over their ``src`` / ``weight``
    columns, and every node's kept bytes — its self information and its
    kept in-edges' (as the infos' ``nbytes`` count them) — come from
    prefix sums at the group boundaries.  Nodes are remembered as row
    references up to :data:`~repro.mapreduce.spill.MERGE_BATCH_BYTES`
    (cut points from one cumulative sum); then the batch's rows are
    gathered column by column — no record object is built — merged by one
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

    def merge_batch(self, batch: NodeBatch):
        """The next self information of each node of ``batch`` — from its
        current one and its sampled in-edges — in batch order, as what
        ``in_record.info_column`` takes (a list, or a column).  Must not
        mutate any input: the previous round's information is shared with
        every reducer it was propagated to."""
        raise NotImplementedError

    def stored(self, infos):
        """What the store takes of a node flow's final batch: the merged
        ``infos`` as arrays, in batch order — never an object per node."""
        raise NotImplementedError

    def reduce_segments(self, segments):
        in_record = self.routing.in_record
        batch, held = _Gathering(), {}
        for segment in segments:
            read = _Read(segment, _inboxes(segment, held, in_record))
            ids = np.asarray(segment.keys, dtype=np.int64)
            # Outside every target's receptive field this round (on the
            # final round: not a target) nothing downstream reads a node's
            # merge, so it is skipped before doing the work; upstream rounds
            # already stop propagating to such nodes, and the mask keeps the
            # reducer correct for records that arrive anyway.  A node with
            # no self row only ever appears as an edge destination of
            # strays the Map phase dropped: nothing to do.
            groups = np.flatnonzero(
                self.routing.needed.mask(ids, self.round_index) & read.has_self
            )
            node_ids = ids[groups].tolist()
            over, picks, kept = read.sample(groups, node_ids, self.sampler, 0, "record_sizes")
            kept += read.self_sizes()[groups]
            start = 0
            for stop in merge_batch_cuts(kept, batch.nbytes, MERGE_BATCH_BYTES) + [len(groups)]:
                batch.take(read, node_ids, groups, over, picks, kept, start, stop)
                if batch.nbytes >= MERGE_BATCH_BYTES:
                    yield self._emit(batch)
                    batch = _Gathering()
                start = stop
        if batch:
            yield self._emit(batch)


    def _emit(self, batch: _Gathering) -> RecordBatch:
        records, counts = batch.records()
        if len(records):
            src, weight, feats, neighbors = records.fields
            src, weight = src.values, weight.values
            if type(feats) is NoneColumn:
                feats = None
            elif type(feats) is ArrayColumn:
                feats = feats.matrix
            else:
                raise ValueError("edge_feat: some edges have features and some not")
        else:
            src, weight = np.zeros(0, np.int64), np.zeros(0, np.float64)
            feats, neighbors = None, NoneColumn(0)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        node_ids = batch.node_ids
        merged = self.merge_batch(
            NodeBatch(node_ids, batch.selves(), offsets, src, weight, feats, neighbors)
        )
        if self.round_index < self.total_rounds:
            return self.routing.propagate(node_ids, merged, self.round_index + 1)
        return self.final_rows(node_ids, merged)

    def final_rows(self, node_ids: list[int], infos) -> RecordBatch:
        """The Kth round's output: "in the Kth round ... only need to output
        it rather than all of the three information" (§3.4) — keyed by node,
        as the batch's arrays for the store (:meth:`stored`; nothing sizes
        them), or fanned out to the target edges a node terminates."""
        record = self.routing.in_record
        if self.edge_fanout is not None:
            # The result is shared across emissions — the joining round
            # only reads it — so the rows point at it: a block is built
            # only if a spill writer encodes one.
            owners, entries = self.edge_fanout.of_nodes(np.asarray(node_ids, dtype=np.int64))
            keys = self.edge_fanout.edge_index[entries].tolist()
            roles = self.edge_fanout.role[entries]
            info = record.info_column(infos)
            values = TupleColumn(
                [
                    StrColumn.of(["end"], np.zeros(len(keys), dtype=np.int64)),
                    ScalarColumn(int, roles),
                    GatherColumn([info, None], owners),
                ],
                len(keys),
            )
            # ("end", role, info): 8 + 11 + 8 + S
            return RecordBatch(keys, values, lambda: 27 + record.info_approx(info)[owners])
        return RecordBatch(list(node_ids), self.stored(infos), None)


# ---------------------------------------------------------------------- hubs
def in_degrees(edges: EdgeTable) -> list[tuple[int, int]]:
    """Per-destination ``(node, in-degree)`` of the coalesced edge table —
    one vectorized unique+count pass over the dst column.  Feeds hub
    detection (equality with a per-edge dict loop is reference-tested)."""
    uniq, counts = np.unique(np.asarray(edges.dst, dtype=np.int64), return_counts=True)
    return list(zip(uniq.tolist(), counts.tolist()))


def detect_hubs(degree_pairs, hub_threshold: int) -> frozenset[int]:
    """Nodes whose in-degree exceeds ``hub_threshold`` (§3.2.2)."""
    return frozenset(int(v) for v, deg in degree_pairs if deg > hub_threshold)


# ------------------------------------------------------------------- driver
def canonical_tables(nodes: NodeTable, edges: EdgeTable) -> tuple[EdgeTable, RecordBatch]:
    """The Map phase's input, validated (``repro.graph.validate``): the
    coalesced edge table (one ``A_{v,u}`` entry per node pair — GraphInfer
    must see GraphFlat's adjacency; the out-edges every round reads,
    :class:`OutEdges`) and the node rows — ``("node", feature)`` keyed by
    node id — as one batch of the node table's columns."""
    validate_tables(nodes, edges)
    edges = edges.coalesce()
    features = np.asarray(nodes.features)
    count = len(features)
    values = TupleColumn(
        [StrColumn.of(["node"], np.zeros(count, dtype=np.int64)), ArrayColumn(features)], count
    )
    # ("node", feature): 8 + 12 + 8 + the feature's bytes
    row = features.itemsize * int(np.prod(features.shape[1:]))
    sizes = np.full(count, 28 + row, dtype=np.int64)
    return edges, RecordBatch(np.asarray(nodes.ids, dtype=np.int64).tolist(), values, sizes)


@dataclass(frozen=True)
class ShardSink:
    """The storing step, reducer-side: each final-round reducer hands its
    record batches — their arrays, a batch at a time — to ``writer``, which
    holds its partition's arrays once, as the batches came, and writes its
    own AGLC shard (``writer.write_shard(part-<task>, batches)``) or, with
    no ``directory``, returns the partition in memory
    (``writer.collect(batches)``).  Only what those return reaches the
    parent — never the whole dataset."""

    writer: object
    directory: str | None = None

    def store(self, task_index: int, batches):
        if self.directory is None:
            return self.writer.collect(batches)
        return self.writer.write_shard(
            Path(self.directory) / f"part-{task_index:05d}", batches
        )


@dataclass
class DataflowOutput:
    """What :func:`run_dataflow` hands back to the pipeline."""

    hubs: frozenset[int]
    round_stats: list[RunStats]
    parts: list
    """What the store returned per final partition, in partition order:
    ``write_shard``'s ``(count, ...)`` summaries with a DFS, else
    ``collect``'s in-memory output."""


@single_threaded_blas()
def run_dataflow(
    name: str,
    config: DataflowConfig,
    runtime: LocalRuntime,
    edges: EdgeTable,
    rows: RecordBatch,
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
    the Map input ``rows`` (the node rows as columns, :func:`canonical_tables`) with
    the out-edges of the coalesced ``edges`` as a side input, and store the
    result.

    ``reducers`` holds one :class:`MessagePassingReducer` constructor per
    round (``K = len(reducers)``); ``final`` optionally names one more
    round (``(job suffix, reducer)``) that joins or scores the Kth round's
    output.  Hub detection reads the ``(node, in-degree)`` counts of
    ``edges`` (:func:`in_degrees`), counted here once — no MapReduce job.
    Every round partitions by the hash default
    (:func:`~repro.mapreduce.shuffle.default_partition`).

    ``store`` is the pipeline's storing step (§3.2.1 "Storing"), fed one
    final partition's record batches (:class:`ShardSink`): ``store.kind``
    names the record kind, ``store.write_shard(path, batches)`` writes the
    partition's arrays as a columnar shard, returning ``(count, ...)``, and
    ``store.collect(batches)`` returns them in memory.

    Two outcomes: with a DFS (``fs``) every final-round reducer writes its
    own shard (shard order = partition order and keys are sorted within a
    partition, so ``read_dataset`` yields the in-memory result's record
    stream exactly) and only the per-shard summaries come back; with no DFS
    each final partition comes back as ``collect`` made it.

    BLAS runs on one thread, process-wide, while the call is in flight
    (:mod:`repro.utils.blas`); ``processes`` pool workers pin it for life.
    """
    hubs = detect_hubs(in_degrees(edges), config.hub_threshold)
    # The side input every round reads, published once (inline for
    # in-process backends, one shared-memory slab under pickling ones).
    edges_slab = None
    try:
        edges_slab, out_edges = publish(OutEdges.of(edges), runtime.needs_pickling)
        routing = Routing(hubs, config.reindex_fanout, needed, in_record, out_edges)
        jobs = _job_chain(name, config, routing, seed, reducers, final, edge_fanout)
        directory = None if fs is None else str(fs.prepare_dataset(dataset_name))
        parts = runtime.run_rounds(jobs, rows, final_sink=ShardSink(store, directory))
        if fs is not None:
            fs.finalize_dataset(
                dataset_name,
                record_counts=[summary[0] for summary in parts],
                kind=store.kind,
                task=config.recorded_task,
            )
        return DataflowOutput(hubs, list(runtime.round_stats), parts)
    finally:
        # Single unlink point for the side-input slab — covers failed rounds
        # too.
        if edges_slab is not None:
            edges_slab.close()


def _job_chain(name, config, routing, seed, reducers, final, edge_fanout) -> list[MapReduceJob]:
    """``map -> [reindex (hub slices only), reduce] x K -> final`` as jobs."""
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
    return jobs
