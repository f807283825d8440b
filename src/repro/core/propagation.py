"""The K-round propagation engine: GraphFlat and GraphInfer are two merge
functions over this one dataflow.

The paper's design claim is that k-hop generation (§3.2.1) *and* inference
(§3.4) are the same message-passing scheme — "merging values from in-edge
neighbors and propagating values to out-edge neighbors via MapReduce".
Everything that scheme fixes lives here, once:

* **Map** (runs once): co-locates, per node ``v``, its self information and
  its out-edges, then propagates the self information along the out-edges as
  the in-edge information of the destinations (:class:`PrepareReducer`).
* **Reduce × K**: round ``k`` merges each node's self information with its
  (sampled) in-edge information and propagates the result via out-edges for
  round ``k+1``; out-edge information passes through unchanged
  (:class:`MessagePassingReducer` — a pipeline only supplies ``merge``:
  absorb the neighbors' subgraphs, or apply a GNN layer to their embeddings).
* **Hub handling** (§3.2.2, Figure 3): when a destination's in-degree exceeds
  ``hub_threshold``, propagation appends a deterministic suffix to the
  shuffle key, splitting the hub's in-edge records across ``reindex_fanout``
  reducers which pre-sample (:class:`PartialReducer`); an inverted-indexing
  step restores the original key for the merge.  The re-index round is a
  *side stage* of the chain (``MapReduceJob.accepts``): it takes the suffixed
  slice keys and nothing else, while every non-hub in-record and every self /
  out record — keyed by the plain node id from the start — goes straight to
  the merge round.  A re-index round shuffles exactly the in-edge records of
  the hubs that merge that hop.
* **Demand**: both pipelines only have to produce results for a *target*
  set, and a node ``u`` that is ``d`` reverse hops away from the nearest
  target contributes only through its rounds ``k <= K - d``.
  :class:`ReceptiveField` is that rule — §3.3.2's pruning lifted to the
  MapReduce pipelines — and :meth:`Routing.propagate` is the only place
  records are emitted, so every gate applies to both pipelines.
* **Driver** (:func:`run_dataflow`): builds the ``map -> [reindex (hub
  slices only), reduce] x K -> final`` job chain, plans placement, decides
  runs the chain and commits the dataset its final-round reducers wrote.
  :class:`DataflowConfig` owns the knobs the two pipelines share.

Every operator here is a top-level callable dataclass (not a closure) so a
job can be pickled to worker processes under the runtime's ``processes``
backend — which is what turns §3.2's "scales near-linearly with workers"
claim into something this reproduction can actually measure.
"""

from __future__ import annotations

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
from repro.mapreduce.partition import PARTITIONERS, PartitionPlan, plan_partitions, publish_plan
from repro.mapreduce.runtime import LocalRuntime, RunStats
from repro.mapreduce.spill import DEFAULT_RUN_BYTES, DEFAULT_RUN_RECORDS
from repro.proto.framing import register_record
from repro.tasks import make_task

if TYPE_CHECKING:
    from repro.core.graphflat.sampling import SamplingStrategy

__all__ = [
    "DataflowConfig",
    "DataflowOutput",
    "EdgeFanout",
    "MessagePassingReducer",
    "OutEdgeInfo",
    "PartialReducer",
    "PrepareReducer",
    "ReceptiveField",
    "Routing",
    "ShardSink",
    "build_partition_plan",
    "canonical_tables",
    "detect_hubs",
    "distance_to_targets",
    "is_hub_slice",
    "propagation_key",
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
    """Spill record encoding: ``binary`` (flat SubgraphInfo/embedding/edge
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


def propagation_key(dst: int, src: int, hubs, fanout: int):
    """Shuffle key of an in-edge record ``src -> dst``: hub destinations
    get a suffixed slice key ``(dst, 1 + s)`` (Figure 3), everything else —
    like every node's own self / out-edge records — the plain node id."""
    if dst in hubs:
        return (dst, 1 + suffix(src, dst, fanout))
    return dst


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

    def __call__(self, node_id: int, k: int) -> bool:
        if self.distance is None:
            return True
        return self.distance.get(node_id, self.total_rounds + 1) <= self.total_rounds - k

    def propagations(self, dst: np.ndarray) -> int:
        """In-edge records propagated over all K rounds for the edge
        destinations ``dst``: an edge into ``w`` carries one record into
        every round ``k`` with ``needed(w, k)`` — ``K - dist(w)`` of them."""
        if self.distance is None:
            return self.total_rounds * len(dst)
        beyond = self.total_rounds + 1
        d = np.fromiter(
            (self.distance.get(w, beyond) for w in dst.tolist()),
            dtype=np.int64,
            count=len(dst),
        )
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


# ------------------------------------------------------------------ records
@dataclass
class OutEdgeInfo:
    """Out-edge information: propagation target for the next round.
    "All of the out-edge information remain unchanged" (§3.2.1).  The
    self and in-edge information are the pipeline's own (accumulated
    subgraphs, or embeddings); this third kind is the same for both."""

    dst: int
    weight: float
    edge_feat: np.ndarray | None


# Wire fields for the binary spill codec; 0x22 sits in the block GraphFlat's
# records occupy (0x20-0x2F, ``repro.core.graphflat.records``).
register_record(0x22, OutEdgeInfo, ("dst", "weight", "edge_feat"))


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
    """Where a node's records go next round: the shuffle key (hub slices
    for re-indexing) plus the receptive-field gate that makes propagation
    demand-driven.  Shared by the Map phase and every Reduce round."""

    hubs: frozenset[int]
    fanout: int
    needed: ReceptiveField
    in_record: Callable
    """``in_record(src, weight, edge_feat, info)``: the pipeline's in-edge
    record (``InEdgeInfo`` around a subgraph, or an embedding record)."""

    def propagate(self, node_id: int, info, outs, next_round: int):
        """What ``node_id`` hands to round ``next_round`` after building
        ``info``: the self information travels on only if the node merges
        again; the out-edge list is trimmed to the destinations some
        *later* round still propagates to; an in-edge record goes only to
        destinations that merge next round.  A destination that does merge
        still receives every one of its in-edge records (the gate is per
        destination, never per edge), so its sampling draw — and therefore
        the pipeline's output — is exactly the ungated pipeline's."""
        needed = self.needed
        if needed(node_id, next_round):
            yield node_id, ("self", info)
            later = [out for out in outs if needed(out.dst, next_round + 1)]
            if later:
                yield node_id, ("out", later)
        for out in outs:
            if needed(out.dst, next_round):
                key = propagation_key(out.dst, node_id, self.hubs, self.fanout)
                yield key, ("in", self.in_record(node_id, out.weight, out.edge_feat, info))


@dataclass(frozen=True)
class PrepareReducer:
    """The Map phase: build the round-0 self information, gather out-edges,
    propagate for round 1."""

    routing: Routing
    seed: Callable
    """``seed(node_id, feature)``: the node's round-0 self information
    (its 0-hop subgraph, or ``h^(0) = x``)."""

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
            # rejected by ``canonical_tables``; rows that reach the engine
            # some other way are dropped here.
            return
        node_id = int(node_id)
        yield from self.routing.propagate(node_id, self.seed(node_id, feature), outs, 1)


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

    def __call__(self, key, values):
        node_id, sfx = key
        in_edges = [value[1] for value in values]  # only "in" records get suffixes
        yield node_id, ("partial", self.sampler.select(in_edges, node_id, salt=sfx))


@dataclass
class MessagePassingReducer:
    """The paper's Reduce: merge self + in-edge info, propagate via
    out-edges (or emit the result on the last round).  Subclasses say what
    merging means (:meth:`merge`) and how the last round tags its output
    (``final_tag``); parsing the three kinds of information, the
    receptive-field gate, sampling and every emission are shared."""

    sampler: SamplingStrategy
    round_index: int
    total_rounds: int
    routing: Routing
    edge_fanout: EdgeFanout | None = None
    """Edge-level tasks only (and only on the Kth round): the final result
    is keyed to the target/candidate edges the node terminates instead of
    the node itself, for the joining round that follows."""

    final_tag = "final"

    def merge(self, self_info, sampled: list):
        """The node's next self information from its current one and the
        sampled in-edge records.  Must not mutate ``self_info``: the
        previous round's object is shared with every reducer it was
        propagated to."""
        raise NotImplementedError

    def __call__(self, node_id, values):
        # Outside every target's receptive field this round (on the final
        # round: not a target) — nothing downstream reads this node's
        # merge, so skip it before doing the work.  Upstream rounds already
        # stop propagating to such nodes; the check keeps the reducer
        # correct for records that arrive anyway.
        if not self.routing.needed(node_id, self.round_index):
            return
        self_info = None
        outs: list[OutEdgeInfo] = []
        ins: list = []
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
            # strays the Map phase dropped; nothing to do.
            return
        merged = self.merge(self_info, self.sampler.select(ins, node_id, salt=0))

        if self.round_index < self.total_rounds:
            yield from self.routing.propagate(node_id, merged, outs, self.round_index + 1)
        elif self.edge_fanout is not None:
            # The result is shared across emissions — the joining round
            # only reads it.
            for edge_index, role in self.edge_fanout.entries(node_id):
                yield edge_index, ("end", role, merged)
        else:
            # "in the Kth round ... only need to output it rather than all
            # of the three information" (§3.4).
            yield node_id, (self.final_tag, merged)


# ------------------------------------------------------------------ planning
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
    because hub detection already counted it.  Propagation is
    demand-driven, so a node outside every target's receptive field
    (``not needed(node, 1)``) receives nothing and is left out of the plan:
    the planner balances what is actually shuffled.  Per remaining node of
    in-degree ``deg``, the weighted key set is:

    * non-hub — the plain int key at weight ``deg`` (its in-records go
      straight to the merge rounds).
    * hub — each slice key ``(node, 1+s)`` at ``deg / fanout`` (the split
      the re-indexing performs, routing into the re-index rounds) and the
      plain int at ``2 + fanout`` (self + out records and the post-sampling
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
def canonical_tables(
    nodes: NodeTable, edges: EdgeTable
) -> tuple[EdgeTable, list[tuple], list[tuple]]:
    """The Map phase's input, validated (``repro.graph.validate``): the
    coalesced edge table (one ``A_{v,u}`` entry per node pair — GraphInfer
    must see GraphFlat's adjacency), and the ``node_rows`` / ``edge_rows``
    keyed by node id / source id."""
    validate_tables(nodes, edges)
    edges = edges.coalesce()
    node_rows = [(int(i), ("node", feat)) for i, feat, _ in nodes.rows()]
    edge_rows = [
        (int(s), (int(s), int(d), float(w), f)) for s, d, f, w in edges.rows()
    ]
    return edges, node_rows, edge_rows


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
    rows: list[tuple],
    *,
    degree_pairs: list[tuple[int, int]],
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
    the Map input ``rows`` and store the result.

    ``reducers`` holds one :class:`MessagePassingReducer` constructor per
    round (``K = len(reducers)``); ``final`` optionally names one more
    round (``(job suffix, reducer)``) that joins or scores the Kth round's
    output.  ``degree_pairs`` are the ``(node, in-degree)`` counts hub
    detection and the placement plan are built from.

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
    hubs = detect_hubs(degree_pairs, config.hub_threshold)
    routing = Routing(hubs, config.reindex_fanout, needed, in_record)
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
        if hubs:
            # A side stage: the round before sends it the hub slices and
            # everything else straight on to ``reduce{k}``.
            reindex = PartialReducer(sampler, in_record)
            jobs.append(job(f"reduce{k}-reindex", reindex, accepts=is_hub_slice))
        fanout = edge_fanout if k == total_rounds else None
        jobs.append(
            job(f"reduce{k}", make_reducer(sampler, k, total_rounds, routing, fanout))
        )
    if final is not None:
        jobs.append(job(*final))

    # ---- degree-aware placement plan: built from the in-degree counts hub
    # detection already needed, broadcast once (shared memory under pickling
    # backends), applied to every intermediate round.
    partition_broadcast = None
    if config.partitioner == "planned":
        plan = build_partition_plan(
            degree_pairs, hubs, config.reindex_fanout, config.num_reducers, needed
        )
        partition_broadcast, planned = publish_plan(plan, runtime.needs_pickling)
        # The *final* round keeps the hash default: output record order is
        # partition-major and reducer-written shards are per-partition, so
        # pinning the last round's placement is the planner's determinism
        # contract — pipeline output stays byte-identical across
        # partitioners.
        for planned_job in jobs[:-1]:
            planned_job.partitioner = planned

    try:
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
        # Single unlink point for the plan slab — covers failed rounds too.
        if partition_broadcast is not None:
            partition_broadcast.close()
