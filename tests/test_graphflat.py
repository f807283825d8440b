"""GraphFlat: k-hop correctness vs BFS ground truth, sampling caps,
re-indexing equivalence, fault-tolerance invariance, storing."""

import numpy as np
import pytest

from repro.core.graphflat import (
    GraphFlatConfig,
    SubgraphInfo,
    TopKSampling,
    UniformSampling,
    WeightedSampling,
    graph_flat,
    make_sampler,
)
from repro.core.graphflat.records import InEdgeInfo
from repro.graph import AttributedGraph
from repro.mapreduce import DistFileSystem, FaultPlan, LocalRuntime
from repro.proto import decode_sample

from .helpers import write_legacy_row_dataset

NO_SAMPLING = dict(max_neighbors=10**9, hub_threshold=10**9)


def flat_samples(nodes, edges, targets, **kwargs):
    config = GraphFlatConfig(**{**NO_SAMPLING, **kwargs})
    return graph_flat(nodes, edges, targets, config).samples


class TestKHopCorrectness:
    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_nodes_and_hops_match_bfs(self, mini_cora, hops):
        ds = mini_cora
        graph = ds.to_graph()
        targets = ds.train_ids[:12]
        samples = flat_samples(ds.nodes, ds.edges, targets, hops=hops)
        assert len(samples) == len(targets)
        for record in samples:
            tid, _, gf = decode_sample(record)
            keep, dist = graph.k_hop_ancestors(graph.index_of(tid), hops)
            expected = {int(graph.node_ids[k]): int(d) for k, d in zip(keep, dist)}
            got = {int(i): int(h) for i, h in zip(gf.node_ids, gf.hops)}
            assert got == expected

    def test_tiny_graph_shape(self, tiny_tables):
        nodes, edges = tiny_tables
        samples = flat_samples(nodes, edges, [10], hops=2)
        _, label, gf = decode_sample(samples[0])
        assert label == 1
        # A's 2-hop in-ancestry: A(0), B(1), C(1), D(2)
        assert sorted(gf.node_ids.tolist()) == [10, 11, 12, 13]
        # edges on paths: B->A, C->A, D->B, D->C
        assert gf.num_edges == 4
        # edge features survive the pipeline
        assert gf.edge_feat is not None and gf.edge_feat.shape[1] == 2

    def test_labels_carried(self, mini_cora):
        ds = mini_cora
        targets = ds.train_ids[:5]
        samples = flat_samples(ds.nodes, ds.edges, targets)
        for record in samples:
            tid, label, _ = decode_sample(record)
            assert label == int(ds.labels_of([tid])[0])

    def test_multilabel_labels_carried(self, mini_ppi):
        ds = mini_ppi
        targets = ds.train_ids[:4]
        samples = flat_samples(ds.nodes, ds.edges, targets)
        for record in samples:
            tid, label, _ = decode_sample(record)
            np.testing.assert_allclose(label, ds.labels_of([tid])[0])

    def test_missing_target_rejected(self, tiny_tables):
        nodes, edges = tiny_tables
        with pytest.raises(KeyError):
            flat_samples(nodes, edges, [999])

    def test_all_nodes_when_targets_none(self, tiny_tables):
        nodes, edges = tiny_tables
        samples = flat_samples(nodes, edges, None)
        assert len(samples) == len(nodes)

    def test_self_loops_in_input_survive(self):
        """Industrial edge tables contain self-interactions; the pipeline
        must keep them as ordinary edges without corrupting hop counts."""
        from repro.graph import EdgeTable, NodeTable

        nodes = NodeTable(np.array([1, 2]), np.eye(2, 3, dtype=np.float32))
        edges = EdgeTable(np.array([1, 2]), np.array([1, 1]))  # 1->1 loop
        samples = flat_samples(nodes, edges, [1], hops=2)
        _, _, gf = decode_sample(samples[0])
        assert gf.hops[gf.node_ids == 1][0] == 0  # loop never inflates hops
        pairs = set(zip(gf.node_ids[gf.edge_src], gf.node_ids[gf.edge_dst]))
        assert (1, 1) in pairs and (2, 1) in pairs


class TestSampling:
    def make_ins(self, n):
        return [
            InEdgeInfo(src=i, weight=float(i + 1), edge_feat=None, subgraph=None)
            for i in range(n)
        ]

    def test_no_op_below_cap(self):
        sampler = UniformSampling(10, seed=0)
        ins = self.make_ins(5)
        assert sampler.select(ins, 1, 1) == ins

    def test_uniform_caps_and_is_deterministic(self):
        sampler = UniformSampling(4, seed=0)
        ins = self.make_ins(20)
        a = sampler.select(ins, 7, 1)
        b = sampler.select(list(reversed(ins)), 7, 1)  # arrival order must not matter
        assert len(a) == 4
        assert [e.src for e in a] == [e.src for e in b]

    def test_different_nodes_sample_differently(self):
        sampler = UniformSampling(4, seed=0)
        ins = self.make_ins(30)
        a = [e.src for e in sampler.select(ins, 1, 1)]
        b = [e.src for e in sampler.select(ins, 2, 1)]
        assert a != b  # overwhelmingly likely by construction

    def test_topk_keeps_heaviest(self):
        sampler = TopKSampling(3, seed=0)
        kept = sampler.select(self.make_ins(10), 1, 1)
        assert sorted(e.src for e in kept) == [7, 8, 9]

    def test_weighted_biases_toward_heavy(self):
        sampler = WeightedSampling(5, seed=0)
        ins = self.make_ins(100)
        kept = {e.src for e in sampler.select(ins, 1, 1)}
        assert np.mean(sorted(kept)) > 40  # heavy tail favoured

    def test_registry(self):
        assert isinstance(make_sampler("uniform", 5), UniformSampling)
        with pytest.raises(KeyError):
            make_sampler("magic", 5)

    def test_neighborhood_size_capped(self, mini_uug):
        ds = mini_uug
        config = GraphFlatConfig(
            hops=2, max_neighbors=5, hub_threshold=10**9, sampling="uniform"
        )
        res = graph_flat(ds.nodes, ds.edges, ds.train_ids[:20], config)
        # each round caps in-edges at 5, so nodes <= 1 + 5 + 5*5
        assert res.neighborhood_nodes.max() <= 31


class TestReindexing:
    def test_reindex_matches_plain_when_no_sampling(self, mini_uug):
        """Hub splitting + inverted indexing must be a pure repartitioning:
        with sampling disabled the outputs are identical byte-for-byte."""
        ds = mini_uug
        targets = ds.train_ids[:15]
        plain = flat_samples(ds.nodes, ds.edges, targets, hops=2)
        config = GraphFlatConfig(
            hops=2, max_neighbors=10**9, hub_threshold=50, reindex_fanout=4
        )
        res = graph_flat(ds.nodes, ds.edges, targets, config)
        assert res.hub_nodes  # the uug fixture has hubs above threshold
        assert sorted(plain) == sorted(res.samples)

    def test_reindex_improves_reducer_balance(self, mini_uug):
        """With re-indexing, the max records a single reducer group sees in
        the merge round drops (hub in-edges are split across suffixes)."""
        ds = mini_uug
        config = GraphFlatConfig(hops=1, max_neighbors=10**9, hub_threshold=50)
        res = graph_flat(ds.nodes, ds.edges, ds.train_ids[:10], config)
        assert res.hub_nodes
        # the partial (re-indexed) round exists: rounds = map, reindex, merge
        names = [s.job for s in res.round_stats]
        assert any("reindex" in n for n in names)


class TestFaultTolerance:
    def test_same_output_under_failures(self, mini_cora):
        ds = mini_cora
        targets = ds.train_ids[:8]
        baseline = flat_samples(ds.nodes, ds.edges, targets, hops=2)
        runtime = LocalRuntime(
            max_attempts=10, fault_plan=FaultPlan({"crash": 0.25}, seed=13)
        )
        config = GraphFlatConfig(hops=2, **NO_SAMPLING)
        out = graph_flat(ds.nodes, ds.edges, targets, config, runtime=runtime).samples
        assert runtime.fault_plan.injected > 0
        assert sorted(baseline) == sorted(out)

    def test_sampling_stable_under_failures(self, mini_uug):
        """Sampling is keyed by (seed, node, round), so re-executed reducers
        pick the same neighbors — output invariant even with sampling on."""
        ds = mini_uug
        targets = ds.train_ids[:8]
        config = GraphFlatConfig(hops=2, max_neighbors=6, hub_threshold=10**9, seed=3)
        baseline = graph_flat(ds.nodes, ds.edges, targets, config).samples
        runtime = LocalRuntime(
            max_attempts=10, fault_plan=FaultPlan({"crash": 0.25}, seed=29)
        )
        out = graph_flat(ds.nodes, ds.edges, targets, config, runtime=runtime).samples
        assert runtime.fault_plan.injected > 0
        assert sorted(baseline) == sorted(out)


class TestStoring:
    def test_writes_sharded_dataset(self, tiny_tables, tmp_path):
        """Columnar DFS output: one shard per final-round reducer."""
        nodes, edges = tiny_tables
        fs = DistFileSystem(tmp_path)
        config = GraphFlatConfig(hops=2, num_reducers=4, **NO_SAMPLING)
        res = graph_flat(nodes, edges, None, config, fs=fs, dataset_name="flat/all")
        assert res.dataset == "flat/all"
        assert fs.num_shards("flat/all") == 4
        decoded = [decode_sample(r)[0] for r in fs.read_dataset("flat/all")]
        assert sorted(decoded) == sorted(nodes.ids.tolist())

    def test_record_stream_is_the_in_memory_result(self, tiny_tables, tmp_path):
        """Reducer-written columnar shards, a legacy row dataset of the same
        samples (whatever its shard count) and the in-memory result are one
        global record stream."""
        nodes, edges = tiny_tables
        fs = DistFileSystem(tmp_path)
        config = GraphFlatConfig(hops=2, **NO_SAMPLING)
        graph_flat(nodes, edges, None, config, fs=fs, dataset_name="flat/reducer")
        samples = write_legacy_row_dataset(
            fs, "flat/legacy", graph_flat(nodes, edges, None, config), num_shards=2
        )
        assert fs.num_shards("flat/legacy") == 2
        assert fs.layout("flat/legacy") == "row"
        assert list(fs.read_dataset("flat/reducer")) == samples
        assert list(fs.read_dataset("flat/legacy")) == samples


class TestSubgraphInfo:
    def test_absorb_neighbor_hops_shift(self):
        a = SubgraphInfo.seed(1, np.zeros(2, np.float32))
        b = SubgraphInfo.seed(2, np.ones(2, np.float32))
        a.absorb_neighbor(b, weight=1.5, edge_feat=None)
        assert a.nodes[2][1] == 1
        assert a.edges[(2, 1)][0] == 1.5

    def test_absorb_keeps_min_hop(self):
        a = SubgraphInfo.seed(1, np.zeros(1, np.float32))
        far = SubgraphInfo(root=3, nodes={3: (np.ones(1, np.float32), 0), 1: (np.zeros(1, np.float32), 5)})
        a.absorb_neighbor(far, 1.0, None)
        assert a.nodes[1][1] == 0  # own distance never degraded

    def test_to_graph_feature_round_trip(self):
        a = SubgraphInfo.seed(5, np.array([1.0, 2.0], np.float32))
        b = SubgraphInfo.seed(9, np.array([3.0, 4.0], np.float32))
        a.absorb_neighbor(b, 2.0, np.array([7.0], np.float32))
        gf = a.to_graph_feature()
        assert gf.num_nodes == 2 and gf.num_edges == 1
        assert gf.target_ids.tolist() == [5]
        s, d = gf.edge_src[0], gf.edge_dst[0]
        assert gf.node_ids[s] == 9 and gf.node_ids[d] == 5
        np.testing.assert_allclose(gf.edge_feat, [[7.0]])
