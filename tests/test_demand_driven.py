"""Demand-driven GraphFlat: receptive-field-pruned propagation and
wire-resident ``SubgraphInfo`` records.

The oracle is knob-free: ``graph_flat(..., targets=None)`` never prunes (its
``ReceptiveField`` has no distances), so a *targeted* run's sample for target
``t`` must be byte-identical to the same ``t`` cut out of the untargeted run —
whatever the hop count, hub re-indexing, sampler, backend, spill codec or
task.  The shuffle counters then show the point of the exercise: fewer
records and bytes for sparse targets, exactly the ungated counts without
targets, and a pinned budget so a regression fails as loudly as a
byte-identity break does.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.graphflat.pipeline import MergeReducer
from repro.core.graphflat.records import InEdgeInfo, SubgraphInfo
from repro.core.graphflat.sampling import make_sampler
from repro.core.infer import GraphInferConfig, graph_infer
from repro.core.propagation import (
    MessagePassingReducer,
    PartialReducer,
    ReceptiveField,
    Routing,
    distance_to_targets,
)
from repro.datasets import uug_like, write_edge_table, write_node_table
from repro.graph.subgraph import GraphFeature, merge_graph_features
from repro.graph.tables import NodeTable
from repro.mapreduce import LocalRuntime
from repro.nn.gnn import GraphSAGEModel
from repro.proto.codec import decode_sample, encode_sample
from repro.proto.framing import decode_value, encode_value
from repro.tasks import make_task

HUB_THRESHOLD = {"reindex": 8, "plain": 10**9}


@pytest.fixture(scope="module")
def graph():
    """~120-node power-law graph with two hubs (in-degree 30), plus three
    nodes no edge touches — targets that nothing can reach and that reach
    nothing must still come out as their 0-hop sample."""
    ds = uug_like(
        seed=5, num_nodes=120, avg_degree=4, feature_dim=6, num_hubs=2, hub_degree=30
    )
    isolated = np.arange(3) + int(ds.nodes.ids.max()) + 1
    nodes = NodeTable(
        np.concatenate([ds.nodes.ids, isolated]),
        np.concatenate([ds.nodes.features, np.ones((3, 6), np.float32)]),
        np.concatenate([ds.nodes.labels, np.zeros(3, ds.nodes.labels.dtype)]),
    )
    edges = ds.edges.coalesce()
    no_in_edges = sorted(set(ds.nodes.ids.tolist()) - set(edges.dst.tolist()))
    assert no_in_edges, "fixture needs sources that are nobody's destination"
    targets = np.concatenate([ds.train_ids[:20], isolated[:2], no_in_edges[:2]])
    return nodes, edges, targets.astype(np.int64)


def flat_config(mode="reindex", **overrides):
    base = dict(
        hops=2, max_neighbors=4, hub_threshold=HUB_THRESHOLD[mode],
        num_reducers=4, seed=0,
    )
    base.update(overrides)
    return GraphFlatConfig(**base)


def sample_id(record: bytes) -> int:
    return decode_sample(record)[0]


_UNTARGETED: dict[tuple, list[bytes]] = {}


def untargeted(graph, mode, **overrides) -> list[bytes]:
    """The oracle run (serial, in memory), once per configuration."""
    key = (mode, *sorted(overrides.items()))
    if key not in _UNTARGETED:
        nodes, edges, _ = graph
        _UNTARGETED[key] = graph_flat(
            nodes, edges, None, flat_config(mode, **overrides)
        ).samples
    return _UNTARGETED[key]


def cut_out(samples: list[bytes], targets) -> list[bytes]:
    wanted = {int(t) for t in targets}
    return [record for record in samples if sample_id(record) in wanted]


class TestTargetedEqualsUntargetedCut:
    @pytest.mark.parametrize("sampling", ["uniform", "weighted", "topk"])
    @pytest.mark.parametrize("mode", ["reindex", "plain"])
    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_node_samples(self, graph, hops, mode, sampling):
        nodes, edges, targets = graph
        knobs = dict(hops=hops, sampling=sampling)
        result = graph_flat(nodes, edges, targets, flat_config(mode, **knobs))
        assert bool(result.hub_nodes) == (mode == "reindex")
        assert len(result.samples) == len(targets)
        # order included: both runs are partition-major under the same hash
        assert result.samples == cut_out(untargeted(graph, mode, **knobs), targets)

    @pytest.mark.parametrize("codec", ["binary", "pickle"])
    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    @pytest.mark.parametrize("hops", [2, 3])
    def test_node_samples_through_the_spill(self, graph, tmp_path, hops, backend, codec):
        nodes, edges, targets = graph
        with LocalRuntime(
            backend=backend, max_workers=2, spill_dir=tmp_path, shuffle_codec=codec,
            # tiny runs: every writer flushes several, so the k-way merge
            # re-assembles groups from runs whose boundaries pruning moved
            spill_run_records=16,
        ) as runtime:
            result = graph_flat(
                nodes, edges, targets, flat_config(hops=hops), runtime
            )
        assert result.samples == cut_out(untargeted(graph, "reindex", hops=hops), targets)

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    @pytest.mark.parametrize("mode", ["reindex", "plain"])
    @pytest.mark.parametrize("hops", [1, 2])
    def test_link_prediction_samples(self, graph, tmp_path, hops, mode, backend):
        """Edge tasks have no untargeted form (their endpoints *are* the
        targets), so the oracle is rebuilt from the untargeted node run:
        sample ``i`` joins the two endpoint neighborhoods exactly as the
        pairing round does."""
        nodes, edges, _ = graph
        knobs = dict(task="link_prediction", edge_targets=15, hops=hops)
        spill = {} if backend == "serial" else dict(spill_dir=tmp_path)
        with LocalRuntime(backend=backend, max_workers=2, **spill) as runtime:
            result = graph_flat(
                nodes, edges, config=flat_config(mode, **knobs), runtime=runtime
            )
        table = make_task("link_prediction").build_edge_targets(
            nodes, edges, seed=0, max_targets=15, negative_ratio=1
        )
        neighborhood = {
            sample_id(r): decode_sample(r)[2]
            for r in untargeted(graph, mode, hops=hops)
        }
        expected = {}
        for i, (s, d) in enumerate(zip(table.src.tolist(), table.dst.tolist())):
            joined = merge_graph_features([neighborhood[s], neighborhood[d]])
            pair = GraphFeature(
                np.asarray([s, d], dtype=np.int64), joined.node_ids, joined.x,
                joined.hops, joined.edge_src, joined.edge_dst, joined.edge_feat,
                joined.edge_weight,
            )
            expected[i] = encode_sample(i, int(table.labels[i]), pair)
        assert {sample_id(r): r for r in result.samples} == expected

    def test_isolated_and_sourceless_targets_emit_their_zero_hop_sample(self, graph):
        nodes, edges, targets = graph
        result = graph_flat(nodes, edges, targets[-4:], flat_config())
        decoded = {sample_id(r): decode_sample(r)[2] for r in result.samples}
        assert sorted(decoded) == sorted(targets[-4:].tolist())
        for node_id, gf in decoded.items():
            assert gf.node_ids.tolist() == [node_id] and gf.num_edges == 0


# ------------------------------------------------------------------ counters
def shuffle_totals(result) -> tuple[int, int]:
    rounds = result.round_stats[1:]  # [0] is the degree job, never gated
    return (
        sum(s.shuffled_records for s in rounds),
        sum(s.shuffle_bytes_written for s in rounds),
    )


class TestShuffleVolume:
    def test_sparse_targets_shuffle_strictly_less(self, graph, tmp_path):
        nodes, edges, targets = graph
        with LocalRuntime(spill_dir=tmp_path, shuffle_codec="binary") as runtime:
            full = graph_flat(nodes, edges, None, flat_config(), runtime)
            sparse = graph_flat(nodes, edges, targets[:5], flat_config(), runtime)
        full_records, full_bytes = shuffle_totals(full)
        records, nbytes = shuffle_totals(sparse)
        assert 0 < records < full_records and 0 < nbytes < full_bytes
        # same job structure: pruning empties groups, never rounds or tasks
        assert [s.job for s in sparse.round_stats] == [s.job for s in full.round_stats]

    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_without_targets_the_gate_is_a_no_op(self, graph, hops):
        """Ungated record count, from first principles: the Map input is
        one row per node and per edge; every round then carries one self
        record per node, one out-list per node with out-edges, and one
        in-record per edge (hub re-indexing off: no extra rounds)."""
        nodes, edges, _ = graph
        result = graph_flat(nodes, edges, None, flat_config("plain", hops=hops))
        n, e = len(nodes), len(edges.src)
        senders = len(np.unique(edges.src))
        records, _ = shuffle_totals(result)
        assert records == (n + e) + hops * (n + senders + e)
        assert result.receptive_nodes == (n, n)
        assert result.propagations == (hops * e, hops * e)

    def test_result_counts_match_a_brute_force_walk(self, graph):
        nodes, edges, targets = graph
        hops = 3
        result = graph_flat(nodes, edges, targets[:6], flat_config(hops=hops))
        dist = distance_to_targets(edges, {int(t) for t in targets[:6]}, hops)
        sent = sum(
            1
            for k in range(1, hops + 1)
            for w in edges.dst.tolist()
            if dist.get(w, hops + 1) <= hops - k
        )
        assert result.receptive_nodes == (len(dist), len(nodes))
        assert result.propagations == (sent, hops * len(edges.dst))
        assert 0 < sent < hops * len(edges.dst)

    def test_shuffle_budget(self, tmp_path):
        """The deterministic perf budget: counts, not timings, so it cannot
        flake.  uug_like(seed=11) with 25 % of the nodes as targets, two
        hops, re-indexed hubs, binary spill: without the receptive-field
        gate this shuffled 16 966 records / 5 543 138 bytes; with it,
        11 413 / 2 012 373 while every record still took the re-index
        rounds, and 8 235 / 1 263 305 now that only hub slices do."""
        ds = uug_like(
            seed=11, num_nodes=400, avg_degree=6, feature_dim=16, num_hubs=3,
            hub_degree=60,
        )
        targets = np.sort(ds.nodes.ids)[::4]
        with LocalRuntime(spill_dir=tmp_path, shuffle_codec="binary") as runtime:
            result = graph_flat(
                ds.nodes, ds.edges, targets,
                GraphFlatConfig(
                    hops=2, max_neighbors=8, hub_threshold=40, num_reducers=4, seed=0
                ),
                runtime,
            )
        assert result.hub_nodes and result.num_targets == 100
        records = sum(s.shuffled_records for s in result.round_stats)
        nbytes = sum(s.shuffle_bytes_written for s in result.round_stats)
        assert records <= 8_300, records
        assert nbytes <= 1_300_000, nbytes


class TestOnlyHubSlicesTakeTheExtraShuffle:
    """Hub re-indexing is a side stage: a re-index round shuffles exactly
    the in-edge records of the hubs that merge that hop — every other record
    goes straight to the merge round — so load balancing the hubs costs at
    most a few percent more shuffled records than not re-indexing at all
    (a re-index round that took every record cost +40 % on this fixture)."""

    @pytest.fixture(scope="class")
    def fixture(self):
        ds = uug_like(
            seed=11, num_nodes=400, avg_degree=6, feature_dim=16, num_hubs=3,
            hub_degree=60,
        )
        dst, in_degree = np.unique(ds.edges.coalesce().dst, return_counts=True)
        return ds, dict(zip(dst.tolist(), in_degree.tolist()))

    @staticmethod
    def check(fixture, tmp_path, run, targets, hops):
        ds, in_degree = fixture
        by_threshold = {}
        for threshold in (40, 10**9):
            with LocalRuntime(spill_dir=tmp_path, shuffle_codec="binary") as runtime:
                by_threshold[threshold] = run(ds, threshold, runtime).round_stats
        hubs = {node for node, degree in in_degree.items() if degree > 40}
        assert len(hubs) >= 3
        needed = ReceptiveField.of(ds.nodes, ds.edges.coalesce(), targets, hops)
        reindexed = {s.job.split("-", 1)[1]: s for s in by_threshold[40]}
        for hop in range(1, hops + 1):
            expected = sum(in_degree[hub] for hub in hubs if needed(hub, hop))
            assert expected > 0
            assert reindexed[f"reduce{hop}-reindex"].shuffled_records == expected
        records = {
            threshold: sum(s.shuffled_records for s in stats)
            for threshold, stats in by_threshold.items()
        }
        assert records[10**9] < records[40] <= 1.10 * records[10**9], records

    @pytest.mark.parametrize("targeted", [False, True], ids=["whole-graph", "targets"])
    def test_graph_infer(self, fixture, tmp_path, targeted):
        targets = np.sort(fixture[0].nodes.ids)[::4] if targeted else None
        model = GraphSAGEModel(16, 16, 2, num_layers=2, seed=0)

        def run(ds, threshold, runtime):
            config = GraphInferConfig(
                max_neighbors=8, hub_threshold=threshold, num_reducers=4, seed=0
            )
            return graph_infer(model, ds.nodes, ds.edges, config, runtime, targets=targets)

        self.check(fixture, tmp_path, run, targets, hops=2)

    @pytest.mark.parametrize("hops", [2, 3])
    def test_graph_flat(self, fixture, tmp_path, hops):
        targets = np.sort(fixture[0].nodes.ids)[::4]

        def run(ds, threshold, runtime):
            config = GraphFlatConfig(
                hops=hops, max_neighbors=8, hub_threshold=threshold, num_reducers=4,
                seed=0,
            )
            return graph_flat(ds.nodes, ds.edges, targets, config, runtime)

        self.check(fixture, tmp_path, run, targets, hops)


class TestGraphInferInheritsTheGates:
    """GraphInfer emits through the same ``Routing.propagate`` as GraphFlat,
    so targeted inference (node ``targets`` or link-prediction
    ``candidates``) stops shipping ``self``/``out`` records into rounds that
    never read them.  Same fixture as GraphFlat's budget above; before the
    pipelines shared one engine the targeted run shuffled 11 799 records /
    979 803 bytes and the candidate run 11 737 / 988 631; with every record
    passing through the re-index rounds it was 10 371 / 767 233 and 10 261 /
    771 348."""

    @pytest.fixture(scope="class")
    def setup(self):
        ds = uug_like(
            seed=11, num_nodes=400, avg_degree=6, feature_dim=16, num_hubs=3,
            hub_degree=60,
        )
        model = GraphSAGEModel(16, 16, 2, num_layers=2, seed=0)
        knobs = dict(max_neighbors=8, hub_threshold=40, num_reducers=4, seed=0)
        return ds, model, knobs

    @staticmethod
    def run(setup, tmp_path, monkeypatch, task="node_classification", **kwargs):
        """``(result, tags seen by each embedding round)`` through the
        binary spill."""
        ds, model, knobs = setup
        seen: dict[int, set] = {}
        merge_round = MessagePassingReducer.__call__

        def spy(self, node_id, values):
            values = list(values)
            seen.setdefault(self.round_index, set()).update(v[0] for v in values)
            return merge_round(self, node_id, values)

        monkeypatch.setattr(MessagePassingReducer, "__call__", spy)
        with LocalRuntime(spill_dir=tmp_path, shuffle_codec="binary") as runtime:
            result = graph_infer(
                model, ds.nodes, ds.edges, GraphInferConfig(task=task, **knobs),
                runtime, **kwargs,
            )
        return result, seen

    @staticmethod
    def volume(result) -> tuple[int, int]:
        return (
            sum(s.shuffled_records for s in result.round_stats),
            sum(s.shuffle_bytes_written for s in result.round_stats),
        )

    def test_whole_graph_volume_is_unchanged_to_the_byte(
        self, setup, tmp_path, monkeypatch
    ):
        """No targets, no gate: every node's self / out / in records once
        per round, plus one extra hop for the hub in-edge records only (a
        re-index round that took every record shuffled 16 224 / 1 373 662)."""
        result, seen = self.run(setup, tmp_path, monkeypatch)
        assert self.volume(result) == (10_466, 834_670)
        assert seen[2] == {"self", "out", "in", "partial"}

    def test_node_targets(self, setup, tmp_path, monkeypatch):
        ds = setup[0]
        targets = np.sort(ds.nodes.ids)[::4]
        full, _ = self.run(setup, tmp_path, monkeypatch)
        subset, seen = self.run(setup, tmp_path, monkeypatch, targets=targets)
        assert sorted(subset.scores) == targets.tolist()
        for t in targets.tolist():
            assert np.array_equal(subset.scores[t], full.scores[t])
        # the Kth round reads no out-edge list, so none is shipped into it
        assert "out" in seen[1] and "out" not in seen[2]
        records, nbytes = self.volume(subset)
        assert records <= 7_300 < 10_371, records
        assert nbytes <= 520_000 < 767_233, nbytes

    def test_link_prediction_candidates(self, setup, tmp_path, monkeypatch):
        ds = setup[0]
        edges = ds.edges.coalesce()
        candidates = np.stack([edges.src[:50], edges.dst[:50]], axis=1)
        lp = dict(task="link_prediction")
        full, _ = self.run(setup, tmp_path, monkeypatch, **lp)  # every edge
        subset, seen = self.run(
            setup, tmp_path, monkeypatch, candidates=candidates, **lp
        )
        assert sorted(subset.scores) == list(range(50))
        for i in range(50):
            assert np.array_equal(subset.scores[i], full.scores[i])
        assert "out" in seen[1] and "out" not in seen[2]
        records, nbytes = self.volume(subset)
        assert records <= 7_400 < 10_261, records
        assert nbytes <= 540_000 < 771_348, nbytes


class TestShuffleCodecBudget:
    """ROADMAP: "Python-level encode/decode calls per shuffled engine record,
    target 0".  Counts, not timings, on the fixture of the budgets above
    (binary spill, serial backend), relative to ``sum(shuffled_records)``:

    * the per-value codec — ``proto.framing._encode`` / ``_decode`` and the
      varint functions as the value codec and ``write_frame`` call them —
      runs per *chunk* (two frame-length varints), never per record.  With
      the per-key frames of AGLS v2 it ran 31.6 times per record under
      ``graph_infer`` and 30.7 under ``graph_flat`` (``_encode`` +
      ``_decode`` alone: 12);
    * ``key_bytes`` runs once where a group is partitioned and once where it
      is written — per distinct key per run.  It used to run twice per
      *record*: 2.0 / 2.3 calls per record, 12.7 / 14.5 per reduce group.

    The key codec's own varints (inside ``key_bytes`` / ``decode_key``) are
    what the second budget bounds and are not counted by the first."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        from repro.mapreduce import partition, shuffle, spill
        from repro.proto import framing

        counts = {"codec": 0, "key_bytes": 0, "group_runs": 0}

        def count_calls(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                counts["codec"] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("_encode", "_decode", "encode_signed", "decode_signed",
                     "encode_unsigned", "decode_unsigned"):
            count_calls(framing, name)

        key_bytes = shuffle.key_bytes
        depth = [0]

        def top_level_key_bytes(key):
            counts["key_bytes"] += not depth[0]  # tuple keys recurse
            depth[0] += 1
            try:
                return key_bytes(key)
            finally:
                depth[0] -= 1

        for module in (shuffle, spill, partition):
            monkeypatch.setattr(module, "key_bytes", top_level_key_bytes)

        sorted_groups = spill.SpillRunWriter._sorted_groups

        def counting_sorted_groups(self, buffer):
            groups = sorted_groups(self, buffer)
            counts["group_runs"] += len(groups)
            return groups

        monkeypatch.setattr(spill.SpillRunWriter, "_sorted_groups", counting_sorted_groups)
        return counts

    @staticmethod
    def check(counts, round_stats):
        records = sum(s.shuffled_records for s in round_stats)
        assert records > 8_000 and counts["group_runs"] > 3_000
        assert counts["codec"] <= 0.1 * records, counts
        # every group of every run is partitioned once and written once
        assert counts["key_bytes"] <= 1.5 * (2 * counts["group_runs"]), counts
        assert counts["key_bytes"] < records, counts

    def test_graph_infer(self, counts, tmp_path):
        ds = uug_like(
            seed=11, num_nodes=400, avg_degree=6, feature_dim=16, num_hubs=3,
            hub_degree=60,
        )
        with LocalRuntime(spill_dir=tmp_path, shuffle_codec="binary") as runtime:
            result = graph_infer(
                GraphSAGEModel(16, 16, 2, num_layers=2, seed=0), ds.nodes, ds.edges,
                GraphInferConfig(max_neighbors=8, hub_threshold=40, num_reducers=4, seed=0),
                runtime,
            )
        self.check(counts, result.round_stats)

    def test_graph_flat(self, counts, tmp_path):
        ds = uug_like(
            seed=11, num_nodes=400, avg_degree=6, feature_dim=16, num_hubs=3,
            hub_degree=60,
        )
        with LocalRuntime(spill_dir=tmp_path, shuffle_codec="binary") as runtime:
            result = graph_flat(
                ds.nodes, ds.edges, np.sort(ds.nodes.ids)[::4],
                GraphFlatConfig(
                    hops=2, max_neighbors=8, hub_threshold=40, num_reducers=4, seed=0
                ),
                runtime,
            )
        assert result.hub_nodes
        self.check(counts, result.round_stats)


class TestTrainerBudget:
    def test_columnar_epoch_budget(self, tmp_path, monkeypatch):
        """The trainer's deterministic budget, counted like the shuffle's:
        an epoch over columnar shards builds its batches from the shard
        columns — not one ``GraphFeature`` or ``TrainSample`` — and resolves
        (one ``stat``) each shard at most once per batch that touches it."""
        from repro.core.trainer import GraphTrainer, TrainerConfig, open_sample_source
        from repro.core.trainer import dataset as dataset_module
        from repro.core.trainer.vectorize import TrainSample
        from repro.mapreduce import DistFileSystem
        from repro.nn.gnn import GCNModel

        ds = uug_like(
            seed=11, num_nodes=200, avg_degree=6, feature_dim=8, num_hubs=2, hub_degree=30
        )
        fs = DistFileSystem(tmp_path)
        graph_flat(
            ds.nodes, ds.edges, ds.train_ids[:50],
            GraphFlatConfig(hops=2, max_neighbors=6, num_reducers=4, seed=0),
            fs=fs, dataset_name="train",
        )
        source = open_sample_source(fs, "train")
        assert len(source.shard_paths) == 4
        trainer = GraphTrainer(
            GCNModel(ds.feature_dim, 8, ds.num_classes, num_layers=2, seed=0),
            TrainerConfig(batch_size=16, seed=0),
        )

        built = {"GraphFeature": 0, "TrainSample": 0, "stat": 0, "batch x shard": 0}

        def counting(cls, name, method):
            original = getattr(cls, method)

            def wrapper(self, *args, **kwargs):
                built[name] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, wrapper)

        counting(GraphFeature, "GraphFeature", "__post_init__")
        counting(TrainSample, "TrainSample", "__init__")

        cached_shard = dataset_module._cached_shard

        def counting_cached_shard(path):
            built["stat"] += 1
            return cached_shard(path)

        monkeypatch.setattr(dataset_module, "_cached_shard", counting_cached_shard)
        batch = type(source).batch

        def counting_batch(self, indices):
            ref = batch(self, indices)
            built["batch x shard"] += len(np.unique(ref.locators[:, 0]))
            return ref

        monkeypatch.setattr(type(source), "batch", counting_batch)

        loss = trainer.train_epoch(source)
        assert np.isfinite(loss)
        assert built["GraphFeature"] == 0 and built["TrainSample"] == 0, built
        assert 0 < built["stat"] <= built["batch x shard"], built


# ------------------------------------------------------- wire-resident records
def make_subgraph(rng, *, num_nodes=6, num_edges=8, dim=5, edge_feat="uniform"):
    ids = rng.choice(10_000, size=num_nodes, replace=False).astype(np.int64)
    nodes = {
        int(i): (rng.standard_normal(dim).astype(np.float32), int(rng.integers(0, 4)))
        for i in ids
    }
    edges = {}
    for _ in range(num_edges):
        s, d = (int(x) for x in rng.choice(ids, size=2))
        ef = {
            "uniform": lambda: rng.standard_normal(3).astype(np.float32),
            "none": lambda: None,
            "mixed": lambda: rng.standard_normal(3).astype(np.float32)
            if rng.random() < 0.5 else None,
        }[edge_feat]()
        edges[(s, d)] = (float(rng.standard_normal()), ef)
    return SubgraphInfo(int(ids[0]), nodes, edges)


def assert_same_subgraph(a: SubgraphInfo, b: SubgraphInfo):
    assert a.root == b.root
    assert list(a.nodes) == list(b.nodes) and list(a.edges) == list(b.edges)
    for (fa, ha), (fb, hb) in zip(a.nodes.values(), b.nodes.values()):
        assert ha == hb and fa.dtype == fb.dtype and np.array_equal(fa, fb)
    for (wa, ea), (wb, eb) in zip(a.edges.values(), b.edges.values()):
        assert wa == wb
        assert (ea is None and eb is None) or (
            ea.dtype == eb.dtype and np.array_equal(ea, eb)
        )


class TestWireResidentRecords:
    @given(seed=st.integers(0, 2**16), num_nodes=st.integers(1, 12),
           num_edges=st.integers(0, 20), dim=st.integers(0, 8),
           edge_feat=st.sampled_from(["uniform", "none"]))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_re_encodes_without_materialising(
        self, seed, num_nodes, num_edges, dim, edge_feat
    ):
        original = make_subgraph(
            np.random.default_rng(seed), num_nodes=num_nodes, num_edges=num_edges,
            dim=dim, edge_feat=edge_feat,
        )
        wire = encode_value(("in", InEdgeInfo(3, 0.5, None, original)))
        (_, decoded), end = decode_value(wire)
        assert end == len(wire)
        assert decoded.subgraph._nodes is None and decoded.subgraph._edges is None
        assert encode_value(("in", decoded)) == wire
        assert pickle.loads(pickle.dumps(decoded)).subgraph._nodes is None
        assert decoded.subgraph._nodes is None  # still never built
        assert_same_subgraph(original, decoded.subgraph)  # first access builds it
        assert encode_value(("in", decoded)) == wire

    def test_pickled_lazy_record_materialises_on_the_other_side(self):
        original = make_subgraph(np.random.default_rng(1))
        lazy, _ = decode_value(encode_value(original))
        clone = pickle.loads(pickle.dumps(lazy))
        assert clone._nodes is None
        assert_same_subgraph(original, clone)
        # a materialised record pickles as its dicts, without the cached block
        assert b"wire" not in pickle.dumps(original)
        assert_same_subgraph(original, pickle.loads(pickle.dumps(original)))

    def test_mutation_after_encode_invalidates_the_cached_block(self):
        rng = np.random.default_rng(2)
        info = make_subgraph(rng)
        before = encode_value(info)
        assert info._wire is not None and encode_value(info) == before
        lazy, _ = decode_value(before)
        other = make_subgraph(rng)
        for record in (info, lazy):
            record.absorb_neighbor(other, 1.5, None)
            assert record._wire is None
        after = encode_value(info)
        assert after != before and encode_value(lazy) == after
        assert_same_subgraph(info, decode_value(after)[0])

    def test_irregular_feature_blocks_stay_wire_resident_too(self):
        """The wire block travels length-prefixed, so a record whose feature
        vectors need the block codec's union / fallback columns (``None``
        among edge features, ragged node features) is still decoded
        without being parsed."""
        rng = np.random.default_rng(3)
        mixed = make_subgraph(rng, edge_feat="mixed")  # None among edge features
        ragged = SubgraphInfo(1, {
            1: (np.zeros(2, np.float32), 0),
            2: (np.zeros(5, np.float32), 1),  # ragged node features
        })
        for original in (mixed, ragged):
            wire = encode_value(original)
            decoded, end = decode_value(wire)
            assert end == len(wire)
            assert decoded._nodes is None
            assert encode_value(decoded) == wire
            assert_same_subgraph(original, decoded)

    @pytest.mark.parametrize("edge_feat", ["uniform", "none"])
    def test_truncated_block_raises_at_decode_time(self, edge_feat):
        """Laziness must not defer truncation to first access: every strict
        prefix of a record fails inside ``decode_value``."""
        wire = encode_value(make_subgraph(np.random.default_rng(4), edge_feat=edge_feat))
        for cut in range(1, len(wire)):
            with pytest.raises((ValueError, IndexError)):
                decode_value(wire[:cut])
        with pytest.raises(ValueError, match="truncated bytes block"):
            decode_value(wire[:40])

    def test_untouched_records_stay_on_the_wire_through_the_reducers(self):
        """Where the laziness pays: a hub slice pre-sampled by a re-index
        round is inverted back to the hub's plain key without being parsed,
        and a merge round parses only the in-edges its sampler keeps."""
        rng = np.random.default_rng(5)
        sampler = make_sampler("uniform", 3, seed=0)

        def shuffled(value):
            return decode_value(encode_value(value))[0]

        rows = [
            ("in", shuffled(InEdgeInfo(src, 1.0, None, make_subgraph(rng))))
            for src in range(12)
        ]
        [(key, (tag, kept))] = PartialReducer(sampler, InEdgeInfo)((7, 2), rows)
        assert key == 7 and tag == "partial" and len(kept) == 3
        assert all(row[1].subgraph._nodes is None for row in rows)

        routing = Routing(frozenset(), 4, ReceptiveField(None, 2), InEdgeInfo)
        rows.insert(0, ("self", shuffled(SubgraphInfo.seed(7, np.zeros(5, np.float32)))))
        list(MergeReducer(sampler, 2, 2, routing)(7, rows))
        built = [row[1].subgraph._nodes is not None for row in rows[1:]]
        assert sum(built) == 3  # the sampled ones, and only those


class TestCommandLine:
    def test_graphflat_prints_the_receptive_field(self, graph, tmp_path, capsys):
        nodes, edges, targets = graph
        write_node_table(tmp_path / "nodes.tsv", nodes)
        write_edge_table(tmp_path / "edges.tsv", edges)
        np.savetxt(tmp_path / "targets.txt", targets[:5], fmt="%d")
        assert main([
            "graphflat", "-n", str(tmp_path / "nodes.tsv"),
            "-e", str(tmp_path / "edges.tsv"), "--hops", "2",
            "--targets", str(tmp_path / "targets.txt"),
            "--dfs", str(tmp_path / "dfs"), "--output", "flat/train",
        ]) == 0
        out = capsys.readouterr().out
        dist = distance_to_targets(edges, {int(t) for t in targets[:5]}, 2)
        assert f"receptive field: {len(dist)} of {len(nodes)} nodes, " in out
        assert f" of {2 * len(edges.src)} propagations" in out
