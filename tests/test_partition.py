"""Structure-aware shuffle partitioning: the pluggable Partitioner layer.

The contract under test has three layers:

* the planner (``plan_partitions``) is a deterministic pure function of the
  weighted key set — greedy LPT over the heavy head, hash-seeded tail;
* any ``Partitioner`` is a pure function of the key, so it preserves reduce
  *grouping* and places records identically across processes, retries, and
  speculated attempts (hypothesis property below);
* swapping the partitioner of intermediate rounds never changes pipeline
  output: GraphFlat and GraphInfer are byte-identical across hash vs planned
  x backend x fault injection, including hub re-indexing — while the
  per-round reducer skew the planner governs goes down, not up.
"""

from __future__ import annotations

import pickle
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.infer import GraphInferConfig, graph_infer
from repro.core.propagation import ReceptiveField, build_partition_plan
from repro.mapreduce import (
    FaultPlan,
    HashPartitioner,
    LocalRuntime,
    MapReduceJob,
    PartitionPlan,
    PlannedPartitioner,
    SpillLayout,
    default_partition,
    key_bytes,
    plan_partitions,
    publish_plan,
    spill_tag,
)
from repro.mapreduce.partition import _SIDE_INPUTS
from repro.nn.gnn import build_model
from repro.ps.shm import BytesBroadcast, attach_shared_memory

ASSORTED_KEYS = [
    0, 1, -7, 2**40, "node", "", b"\x00\xff", ("dst", 3), (12, (7, "s")), 10**9,
]


@pytest.fixture(scope="module")
def hub_graph():
    """~120-node graph with two genuine hubs (in-degree 30 > threshold 8),
    so hub re-indexing is active in every pipeline test here."""
    from repro.datasets import uug_like

    return uug_like(
        seed=5, num_nodes=120, avg_degree=4, feature_dim=6, num_hubs=2, hub_degree=30
    )


def flat_config(**overrides):
    base = dict(hops=2, max_neighbors=4, hub_threshold=8, num_reducers=4, seed=0)
    base.update(overrides)
    return GraphFlatConfig(**base)


class TestHashPartitioner:
    def test_byte_identical_to_default(self):
        hp = HashPartitioner()
        for key in ASSORTED_KEYS:
            for n in (1, 2, 4, 7, 64):
                assert hp(key, n) == default_partition(key, n)

    def test_picklable_and_tagless(self):
        hp = pickle.loads(pickle.dumps(HashPartitioner()))
        assert hp("k", 4) == default_partition("k", 4)
        assert hp.spill_tag() == ""
        assert spill_tag(hp) == ""
        assert spill_tag(default_partition) == ""  # plain-callable legacy path


class TestPartitionPlan:
    def test_encode_decode_roundtrip(self):
        plan = plan_partitions([(k, 10.0) for k in ASSORTED_KEYS], 4)
        decoded = PartitionPlan.decode(plan.encode())
        assert decoded.num_partitions == plan.num_partitions
        assert decoded.assignments == plan.assignments
        assert decoded.checksum() == plan.checksum()

    def test_empty_plan_roundtrip(self):
        plan = plan_partitions([], 4)
        assert len(plan) == 0
        assert PartitionPlan.decode(plan.encode()).assignments == {}

    def test_decode_rejects_out_of_range_partition(self):
        bad = PartitionPlan(2, {key_bytes("k"): 5}).encode()
        with pytest.raises(ValueError, match="corrupt partition plan"):
            PartitionPlan.decode(bad)

    def test_decode_rejects_trailing_bytes(self):
        good = plan_partitions([("a", 5.0), ("b", 3.0)], 2).encode()
        with pytest.raises(ValueError, match="trailing"):
            PartitionPlan.decode(good + b"\x00")

    def test_encoding_is_deterministic(self):
        a = PartitionPlan(4, {key_bytes("x"): 1, key_bytes("y"): 2})
        b = PartitionPlan(4, dict(reversed(list(a.assignments.items()))))
        assert a.encode() == b.encode()


class TestPlanPartitions:
    def test_deterministic_across_input_order(self):
        pairs = [(f"k{i}", float(i % 17 + 1)) for i in range(200)]
        forward = plan_partitions(pairs, 8)
        backward = plan_partitions(list(reversed(pairs)), 8)
        assert forward.assignments == backward.assignments
        assert forward.encode() == backward.encode()

    def test_lpt_spreads_colliding_hubs(self):
        """Heavy keys that all hash to one partition are the failure mode the
        planner exists for: LPT must spread them one-per-partition."""
        n = 4
        hot = [k for k in range(400) if zlib.crc32(key_bytes(k)) % n == 0][:n]
        assert len(hot) == n
        plan = plan_partitions([(k, 1000.0) for k in hot], n)
        assert sorted(plan.assignments[key_bytes(k)] for k in hot) == list(range(n))
        assert plan.planned_weight == pytest.approx(plan.total_weight)

    def test_light_tail_stays_unplanned(self):
        pairs = [("hub", 1000.0)] + [(f"t{i}", 1.0) for i in range(100)]
        plan = plan_partitions(pairs, 4)
        assert key_bytes("hub") in plan.assignments
        assert len(plan) < 20  # the tail earned no entries
        assert 0 < plan.planned_weight < plan.total_weight

    def test_max_entries_caps_table(self):
        pairs = [(f"k{i}", 100.0) for i in range(50)]
        plan = plan_partitions(pairs, 4, max_entries=8)
        assert len(plan) == 8

    def test_single_partition_and_validation(self):
        assert len(plan_partitions([("a", 5.0)], 1)) == 0
        with pytest.raises(ValueError):
            plan_partitions([], 0)
        with pytest.raises(ValueError):
            plan_partitions([], 4, heavy_fraction=0.0)
        with pytest.raises(ValueError):
            plan_partitions([], 4, max_entries=-1)


class TestPlannedPartitioner:
    def test_table_hit_and_hash_fallback(self):
        plan = plan_partitions([("hub", 100.0)], 4)
        planned = PlannedPartitioner.from_plan(plan)
        assert planned("hub", 4) == plan.assignments[key_bytes("hub")]
        # unknown key and num_partitions mismatch both fall back to hash
        assert planned("cold", 4) == default_partition("cold", 4)
        assert planned("hub", 8) == default_partition("hub", 8)
        with pytest.raises(ValueError):
            planned("hub", 0)

    def test_pickle_roundtrip_places_identically(self):
        plan = plan_partitions([(k, 50.0) for k in ASSORTED_KEYS], 4)
        planned = PlannedPartitioner.from_plan(plan)
        clone = pickle.loads(pickle.dumps(planned))
        for key in ASSORTED_KEYS + ["unplanned"]:
            assert clone(key, 4) == planned(key, 4)

    def test_publish_inline_vs_slab_identical(self):
        plan = plan_partitions([(k, 50.0) for k in ASSORTED_KEYS], 4)
        none_bcast, inline = publish_plan(plan, needs_pickling=False)
        assert none_bcast is None
        broadcast, slab = publish_plan(plan, needs_pickling=True)
        try:
            assert slab.spill_tag() == inline.spill_tag()
            _SIDE_INPUTS.pop(slab.source.cache_key(), None)  # force a real attach
            for key in ASSORTED_KEYS + ["unplanned"]:
                assert slab(key, 4) == inline(key, 4)
        finally:
            broadcast.close()

    def test_spill_tag_is_plan_checksum(self):
        plan = plan_partitions([("hub", 9.0)], 4)
        planned = PlannedPartitioner.from_plan(plan)
        assert planned.spill_tag() == f"plan{plan.checksum():08x}"
        assert spill_tag(planned) == planned.spill_tag()

    def test_spill_layout_tagging(self, tmp_path):
        legacy = SpillLayout(str(tmp_path), "job", 4)
        assert legacy.run_path(0, 0, 0).name == "job.m00000.p00000.r00000.pkl"
        tagged = SpillLayout(str(tmp_path), "job", 4, partition_tag="plan1234abcd")
        assert (
            tagged.run_path(0, 0, 0).name
            == "job.plan1234abcd.m00000.p00000.r00000.pkl"
        )
        with pytest.raises(ValueError, match="alphanumeric"):
            SpillLayout(str(tmp_path), "job", 4, partition_tag="../evil")


class TestBytesBroadcast:
    def test_publish_attach_close(self):
        payload = b"plan-table-bytes" * 100
        bcast = BytesBroadcast(payload)
        seg = attach_shared_memory(bcast.name)
        try:
            assert bytes(seg.buf[: len(payload)]) == payload
        finally:
            seg.close()
        bcast.close()
        bcast.close()  # idempotent
        with pytest.raises(FileNotFoundError):
            attach_shared_memory(bcast.name)

    def test_context_manager_unlinks(self):
        with BytesBroadcast(b"x") as bcast:
            name = bcast.name
        with pytest.raises(FileNotFoundError):
            attach_shared_memory(name)


# --------------------------------------------------------------- properties

key_strategy = st.one_of(
    st.integers(min_value=-(2**50), max_value=2**50),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.tuples(st.integers(min_value=0, max_value=2**20), st.integers(0, 7)),
)


@settings(max_examples=50, deadline=None)
@given(
    keys=st.lists(key_strategy, min_size=1, max_size=40),
    num_partitions=st.integers(min_value=1, max_value=9),
    planned_subset=st.integers(min_value=0, max_value=5),
)
def test_any_partitioner_preserves_grouping_and_reexecution(
    keys, num_partitions, planned_subset
):
    """For ANY Partitioner: placement is a total, in-range, pure function of
    the key — so every record of a key lands on one reducer (grouping), and
    a re-executed attempt (here: a pickled clone, as the processes backend
    would ship it) places each record exactly where the first attempt did."""
    plan = plan_partitions(
        [(k, 100.0) for k in keys[:planned_subset]], num_partitions
    )
    for partitioner in (HashPartitioner(), PlannedPartitioner.from_plan(plan)):
        reexecuted = pickle.loads(pickle.dumps(partitioner))
        for key in keys:
            first = partitioner(key, num_partitions)
            assert 0 <= first < num_partitions
            assert partitioner(key, num_partitions) == first  # deterministic
            assert reexecuted(key, num_partitions) == first  # retry-safe
            # grouping: canonically-equal keys co-locate
            assert partitioner(key, num_partitions) == partitioner(
                pickle.loads(pickle.dumps(key)), num_partitions
            )


# ------------------------------------------------------- runtime integration


def _word_count_job(**overrides):
    def mapper(_, line):
        for word in line.split():
            yield word, 1

    def reducer(word, counts):
        yield word, sum(counts)

    return MapReduceJob("wordcount", reducer, mapper=mapper, **overrides)


CORPUS = [(i, text) for i, text in enumerate(
    ["the quick brown fox", "the lazy dog", "the fox jumps the dog"] * 7
)]


class TestRuntimePartitioner:
    def test_runtime_level_override_is_output_identical(self, tmp_path):
        baseline = LocalRuntime().run(_word_count_job(num_reducers=3), CORPUS)
        words = [(w, 1.0) for _, line in CORPUS for w in line.split()]
        plan = plan_partitions(words, 3)
        assert plan.assignments, "corpus must produce heavy keys"
        with LocalRuntime(
            backend="threads", max_workers=3, spill_dir=tmp_path,
            partitioner=PlannedPartitioner.from_plan(plan),
        ) as runtime:
            out = runtime.run(_word_count_job(num_reducers=3), CORPUS)
            assert sorted(out) == sorted(baseline)
            # the planned run spills under tagged file names, and the stats
            # record per-partition load
            assert runtime.last_stats.records_skew() > 0
        assert not list(tmp_path.glob("*"))  # tagged runs cleaned up too

    def test_job_level_partitioner_wins_over_runtime(self):
        """An explicit job partitioner is never overridden by the runtime
        default — pipelines rely on this to pin their final round to hash."""
        marker = []

        def spy(key, n):
            marker.append(key)
            return default_partition(key, n)

        job = _word_count_job(num_reducers=3, partitioner=spy)
        out = LocalRuntime(partitioner=HashPartitioner()).run(job, CORPUS)
        assert marker, "job-level partitioner must be the one invoked"
        assert sorted(out) == sorted(LocalRuntime().run(_word_count_job(num_reducers=3), CORPUS))

    def test_skew_stats_populated_and_reduced_by_plan(self):
        """Stacked heavy keys: hash piles them on one reducer, the plan
        spreads them, and RunStats' skew factor shows exactly that."""
        n = 4
        hot = [w for w in (f"w{i}" for i in range(400))
               if zlib.crc32(key_bytes(w)) % n == 0][:n]
        data = [(i, " ".join(hot)) for i in range(40)]
        hash_rt = LocalRuntime()
        hash_rt.run(_word_count_job(num_reducers=n), data)
        plan = plan_partitions([(w, 40.0) for w in hot], n)
        planned_rt = LocalRuntime(partitioner=PlannedPartitioner.from_plan(plan))
        planned_rt.run(_word_count_job(num_reducers=n), data)
        assert hash_rt.last_stats.records_skew() == pytest.approx(n)  # all on one
        assert planned_rt.last_stats.records_skew() == pytest.approx(1.0)  # flat
        assert sum(hash_rt.last_stats.partition_records.values()) == sum(
            planned_rt.last_stats.partition_records.values()
        )


# ------------------------------------------------------- pipeline byte-identity


class TestPipelinePartitionerMatrix:
    """GraphFlat/GraphInfer output is byte-identical across hash vs planned
    x backend x fault injection — with hub re-indexing active, which is where
    the planned table carries both plain and (node, suffix) key forms."""

    @pytest.fixture(scope="class")
    def flat_baseline(self, hub_graph):
        ds = hub_graph
        targets = ds.train_ids[:30]
        result = graph_flat(ds.nodes, ds.edges, targets, flat_config())
        assert result.hub_nodes, "fixture must trigger re-indexing"
        return targets, result

    @pytest.mark.parametrize("backend,workers", [
        ("serial", None), ("threads", 2), ("processes", 2),
    ])
    def test_graphflat_planned_byte_identical(
        self, hub_graph, flat_baseline, backend, workers
    ):
        ds = hub_graph
        targets, baseline = flat_baseline
        result = graph_flat(
            ds.nodes, ds.edges, targets,
            flat_config(partitioner="planned", backend=backend,
                        num_workers=workers or 1),
        )
        assert result.hub_nodes == baseline.hub_nodes
        assert result.samples == baseline.samples  # encoded wire bytes

    def test_graphflat_planned_under_fault_injection(self, hub_graph, flat_baseline):
        ds = hub_graph
        targets, baseline = flat_baseline
        plan = FaultPlan({"crash": 0.2}, seed=13)
        with LocalRuntime(
            backend="processes", max_workers=2, max_attempts=10,
            fault_plan=plan,
        ) as runtime:
            faulty = graph_flat(
                ds.nodes, ds.edges, targets,
                flat_config(partitioner="planned"), runtime,
            )
        assert plan.injected > 0
        assert faulty.samples == baseline.samples

    @pytest.mark.parametrize("sampling", ["weighted", "topk"])
    def test_stochastic_samplers_identical_across_partitioners(
        self, hub_graph, sampling
    ):
        """WeightedSampling / TopKSampling under hub reindex: neighborhoods
        are byte-identical across partitioners, backends, and re-executed
        attempts — the canonical source-id ordering at work."""
        ds = hub_graph
        targets = ds.train_ids[:20]
        baseline = graph_flat(
            ds.nodes, ds.edges, targets, flat_config(sampling=sampling)
        )
        assert baseline.hub_nodes
        planned = graph_flat(
            ds.nodes, ds.edges, targets,
            flat_config(sampling=sampling, partitioner="planned",
                        backend="threads", num_workers=3),
        )
        assert planned.samples == baseline.samples
        plan = FaultPlan({"crash": 0.25}, seed=7)
        with LocalRuntime(
            backend="threads", max_workers=2, max_attempts=10,
            fault_plan=plan,
        ) as runtime:
            retried = graph_flat(
                ds.nodes, ds.edges, targets,
                flat_config(sampling=sampling, partitioner="planned"), runtime,
            )
        assert plan.injected > 0
        assert retried.samples == baseline.samples

    @pytest.mark.parametrize("backend,workers", [("serial", None), ("processes", 2)])
    def test_graphinfer_planned_identical_scores(self, hub_graph, backend, workers):
        ds = hub_graph
        model = build_model(
            "gcn", in_dim=6, hidden_dim=8, num_classes=2, num_layers=2, seed=0
        )
        serial = graph_infer(
            model, ds.nodes, ds.edges,
            GraphInferConfig(max_neighbors=4, hub_threshold=8, num_reducers=4, seed=0),
        )
        planned = graph_infer(
            model, ds.nodes, ds.edges,
            GraphInferConfig(
                max_neighbors=4, hub_threshold=8, num_reducers=4, seed=0,
                partitioner="planned", backend=backend, num_workers=workers or 1,
            ),
        )
        assert set(planned.scores) == set(serial.scores)
        for node_id, scores in serial.scores.items():
            assert np.array_equal(planned.scores[node_id], scores)

    def test_build_partition_plan_covers_reindexed_key_forms(self):
        """The degree-fed plan must speak both key forms of the pipeline:
        plain int node ids (everything the merge rounds receive) and the
        ``(hub, 1 + slice)`` keys the re-index rounds receive.  A re-indexed
        hub's load lives in its slice keys (its plain key carries only self /
        out records and post-sampling partials); a heavy *non-hub* node has
        its plain key only — its records never see a re-index round."""
        degrees = [(1, 1000), (2, 100)] + [(n, 1) for n in range(10, 40)]
        everything = ReceptiveField(None, 2)
        plan = build_partition_plan(
            degrees, frozenset({1}), fanout=4, num_reducers=4, needed=everything
        )
        for s in range(1, 5):  # the hub's split slices are the heavy keys
            assert key_bytes((1, s)) in plan.assignments
        assert key_bytes(2) in plan.assignments  # merge-round routing
        tuple_keys = {key_bytes((node, s)) for node, _ in degrees for s in range(6)}
        assert tuple_keys & set(plan.assignments) == {
            key_bytes((1, s)) for s in range(1, 5)
        }
        # no hubs: plain keys only, at full degree weight
        flat = build_partition_plan(
            degrees, frozenset(), fanout=4, num_reducers=4, needed=everything
        )
        assert key_bytes(1) in flat.assignments
        assert not tuple_keys & set(flat.assignments)

    def test_build_partition_plan_follows_the_receptive_field(self):
        """Propagation is demand-driven: a node no target can be reached
        from receives no in-records, so the planner must not spend a
        placement on it — however heavy its in-degree."""
        degrees = [(1, 1000), (2, 900)] + [(n, 1) for n in range(10, 40)]
        # hops=2: node 2 sits 1 hop from a target (merges in round 1),
        # node 1 sits 2 hops away (only ever *sends*).
        needed = ReceptiveField({2: 1, 1: 2, 10: 0}, 2)
        plan = build_partition_plan(
            degrees, frozenset(), fanout=4, num_reducers=4, needed=needed
        )
        assert key_bytes(2) in plan.assignments
        assert key_bytes(1) not in plan.assignments
