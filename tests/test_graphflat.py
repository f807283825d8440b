"""GraphFlat: k-hop correctness vs BFS ground truth, sampling caps,
re-indexing equivalence, fault-tolerance invariance, storing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graphflat import (
    GraphFlatConfig,
    SubgraphInfo,
    TopKSampling,
    UniformSampling,
    WeightedSampling,
    graph_flat,
    make_sampler,
)
from repro.core.graphflat.pipeline import PairReducer
from repro.core.graphflat.records import merge_neighborhoods
from repro.graph import AttributedGraph
from repro.graph.subgraph import GraphFeature
from repro.graph.tables import EdgeTable, NodeTable
from repro.mapreduce import DistFileSystem, FaultPlan, LocalRuntime
from repro.proto import decode_sample
from repro.proto.framing import columnize, concat_columns, decode_columns, encode_columns

from .helpers import column_segment, segment_of
from .oracle import (
    DictSubgraph,
    assert_same_feature,
    assert_same_subgraph,
    oracle_pair,
    random_subgraph,
)

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
        """``(src, weight)`` columns of ``n`` in-edges."""
        return np.arange(n, dtype=np.int64), np.arange(1, n + 1, dtype=np.float64)

    @staticmethod
    def kept(sampler, ins, node_id, salt):
        src, weight = ins
        return src[sampler.select(src, weight, node_id, salt)].tolist()

    def test_no_op_below_cap(self):
        sampler = UniformSampling(10, seed=0)
        ins = self.make_ins(5)
        assert self.kept(sampler, ins, 1, 1) == ins[0].tolist()

    def test_uniform_caps_and_is_deterministic(self):
        sampler = UniformSampling(4, seed=0)
        src, weight = self.make_ins(20)
        a = self.kept(sampler, (src, weight), 7, 1)
        b = self.kept(sampler, (src[::-1], weight[::-1]), 7, 1)  # arrival order must not matter
        assert len(a) == 4
        assert a == b

    def test_different_nodes_sample_differently(self):
        sampler = UniformSampling(4, seed=0)
        ins = self.make_ins(30)
        a = self.kept(sampler, ins, 1, 1)
        b = self.kept(sampler, ins, 2, 1)
        assert a != b  # overwhelmingly likely by construction

    def test_topk_keeps_heaviest(self):
        sampler = TopKSampling(3, seed=0)
        assert sorted(self.kept(sampler, self.make_ins(10), 1, 1)) == [7, 8, 9]

    def test_weighted_biases_toward_heavy(self):
        sampler = WeightedSampling(5, seed=0)
        kept = set(self.kept(sampler, self.make_ins(100), 1, 1))
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
        """Reducer-written shards, ``write_dataset`` of the same samples
        (whatever its shard count) and the in-memory result are one global
        record stream."""
        nodes, edges = tiny_tables
        fs = DistFileSystem(tmp_path)
        config = GraphFlatConfig(hops=2, **NO_SAMPLING)
        graph_flat(nodes, edges, None, config, fs=fs, dataset_name="flat/reducer")
        samples = list(graph_flat(nodes, edges, None, config).samples)
        fs.write_dataset("flat/written", samples, num_shards=2)
        assert fs.num_shards("flat/written") == 2
        assert list(fs.read_dataset("flat/reducer")) == samples
        assert list(fs.read_dataset("flat/written")) == samples

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    @pytest.mark.parametrize("task", ["node_classification", "link_prediction"])
    def test_edge_featured_graphs_store_zero_edge_samples(self, tmp_path, backend, task):
        """Edges ``i -> i + 4`` with features: nodes 0-3 have no in-edges,
        so their samples (and a negative pair of two of them) have no edges
        and carry no edge features while the others do.  The DFS takes the
        mix, at one reducer and at four, and reads back the in-memory
        stream."""
        nodes = NodeTable(np.arange(8), np.eye(8, 4, dtype=np.float32), np.arange(8) % 2)
        edges = EdgeTable(
            np.arange(4), np.arange(4, 8), np.arange(12, dtype=np.float32).reshape(4, 3),
            labels=np.arange(4) % 2,
        )
        knobs = dict(hops=2, task=task, seed=0, negative_ratio=2, **NO_SAMPLING)
        targets = None if task == "link_prediction" else nodes.ids
        fs = DistFileSystem(tmp_path)
        with LocalRuntime(backend, max_workers=2, spill_dir=tmp_path / "spill") as runtime:
            for reducers in (1, 4):
                config = GraphFlatConfig(num_reducers=reducers, **knobs)
                samples = graph_flat(nodes, edges, targets, config).samples
                graph_flat(nodes, edges, targets, config, runtime, fs=fs, dataset_name="f")
                assert list(fs.read_dataset("f")) == samples
                bare = [gf for _, _, gf in map(decode_sample, samples) if not gf.num_edges]
                assert bare and all(gf.edge_feat is None for gf in bare)
                assert any(gf.edge_feature_dim == 3 for _, _, gf in map(decode_sample, samples))

    @pytest.mark.parametrize("task", ["node_classification", "link_prediction"])
    def test_a_dfs_run_builds_no_graph_feature(self, mini_cora, tmp_path, monkeypatch, task):
        """The final round hands its store arrays: writing the dataset
        builds no per-sample object (the budget of the storing step)."""
        built, post_init = [], GraphFeature.__post_init__
        monkeypatch.setattr(
            GraphFeature, "__post_init__", lambda gf: built.append(gf) or post_init(gf)
        )
        ds = mini_cora
        config = GraphFlatConfig(
            hops=2, task=task, edge_targets=40, num_reducers=4, spill_dir=tmp_path / "spill"
        )
        targets = ds.nodes.ids[:40] if task == "node_classification" else None
        fs = DistFileSystem(tmp_path / "dfs")
        result = graph_flat(ds.nodes, ds.edges, targets, config, fs=fs, dataset_name="f")
        assert result.num_targets >= 40 and built == []
        assert len(list(fs.read_dataset("f"))) == result.num_targets
        assert built  # the reader does build them


def kernel(batch, form=columnize):
    """``merge_neighborhoods`` over ``(self_info, [(neighbor, weight,
    edge_feat)])`` nodes: their subgraphs as columns (``form`` makes them)
    and edge columns."""
    selves = [self_info for self_info, _ in batch]
    sampled = [edge for _, edges in batch for edge in edges]
    offsets = np.cumsum([0] + [len(edges) for _, edges in batch])
    feats = [ef for _, _, ef in sampled]
    return merge_neighborhoods(
        form(selves), form([n for n, _, _ in sampled]), offsets,
        np.asarray([w for _, w, _ in sampled], dtype=np.float64),
        None if all(ef is None for ef in feats) else np.stack(feats),
    )


def merged_pair(self_info, sampled):
    """Kernel and oracle merge of one node: ``sampled`` is ``(neighbor,
    weight, edge_feat)`` with neighbors as oracle dicts."""
    [out] = kernel([(self_info.to_info(), [(n.to_info(), w, ef) for n, w, ef in sampled])]).rows()
    return out, DictSubgraph.merge(self_info, sampled)


def assert_flattens_alike(a: GraphFeature, b: GraphFeature):
    for name in GraphFeature.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if x is None or y is None:
            assert x is None and y is None, name
        else:
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name


class TestSubgraphInfo:
    """The kernel against the per-node dict merge (``tests/oracle.py``)."""

    def test_merge_shifts_the_neighbors_hops(self):
        a = DictSubgraph.seed(1, np.zeros(2, np.float32))
        b = DictSubgraph.seed(2, np.ones(2, np.float32))
        out, expected = merged_pair(a, [(b, 1.5, None)])
        c = out.columns
        assert c.ids.tolist() == [1, 2] and c.hops.tolist() == [0, 1]
        assert (c.src.tolist(), c.dst.tolist(), c.weight.tolist()) == ([2], [1], [1.5])
        assert_same_subgraph(out, expected.to_info())

    def test_merge_keeps_min_hop(self):
        a = DictSubgraph.seed(1, np.zeros(1, np.float32))
        far = DictSubgraph(3, {3: (np.ones(1, np.float32), 0), 1: (np.zeros(1, np.float32), 5)})
        out, expected = merged_pair(a, [(far, 1.0, None)])
        assert out.columns.hops.tolist() == [0, 1]  # own distance never degraded
        assert_same_subgraph(out, expected.to_info())

    def test_to_graph_feature_round_trip(self):
        a = DictSubgraph.seed(5, np.array([1.0, 2.0], np.float32))
        b = DictSubgraph.seed(9, np.array([3.0, 4.0], np.float32))
        out, expected = merged_pair(a, [(b, 2.0, np.array([7.0], np.float32))])
        gf = out.to_graph_feature()
        assert gf.num_nodes == 2 and gf.num_edges == 1
        assert gf.target_ids.tolist() == [5]
        s, d = gf.edge_src[0], gf.edge_dst[0]
        assert gf.node_ids[s] == 9 and gf.node_ids[d] == 5
        np.testing.assert_allclose(gf.edge_feat, [[7.0]])
        assert_flattens_alike(gf, expected.to_graph_feature())

    def test_inputs_are_never_changed(self):
        """Records are shared with every reducer they were propagated to:
        the kernel builds new ones and leaves its inputs alone — a column
        built from records, and one decoded from a spilled chunk."""
        rng = np.random.default_rng(2)
        selves = columnize([random_subgraph(rng, edge_feat="none").to_info()])
        neighbors = decode_columns(encode_columns(columnize(
            [random_subgraph(rng, edge_feat="none").to_info()]
        )))
        before = (encode_columns(selves), encode_columns(neighbors))
        out = merge_neighborhoods(selves, neighbors, [0, 1], np.ones(1), None)
        assert encode_columns(out) != before[0]
        assert (encode_columns(selves), encode_columns(neighbors)) == before


# ids drawn below 2**bits force a chunk's int width: i1, i2, i4, i8
ID_BITS = {"i1": 6, "i2": 14, "i4": 30, "i8": 62}


@st.composite
def merge_batches(draw):
    """A batch for the kernel and the same batch as oracle dicts, over one
    random graph whose tables fix every node's feature row and every edge's
    weight and features — as a node and an edge table would."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = ID_BITS[draw(st.sampled_from(sorted(ID_BITS)))]
    dim = draw(st.sampled_from([0, 1, 3]))
    edge_dim = draw(st.sampled_from([None, 0, 2]))
    size = draw(st.integers(1, 10))
    ids = np.unique(rng.integers(-(1 << bits), 1 << bits, size=size))
    x = {int(i): row for i, row in zip(ids, rng.standard_normal((len(ids), dim)).astype(np.float32))}
    weight = {}
    feat = {}
    for s in ids.tolist():
        for d in ids.tolist():
            weight[(s, d)] = float(rng.standard_normal())
            feat[(s, d)] = None if edge_dim is None else rng.standard_normal(edge_dim).astype(np.float32)
    in_subgraphs = {pair for pair in weight if rng.random() < 0.4}

    def subgraph(root, with_node=None):
        """1 node up to all of them, random hops, a random edge subset."""
        members = [i for i in ids.tolist() if i != root and rng.random() < 0.5]
        if with_node is not None and with_node != root and with_node not in members:
            members.append(with_node)
        nodes = {root: (x[root], 0)}
        for i in rng.permutation(members).tolist():
            nodes[i] = (x[i], int(rng.integers(1, 4)))
        edges = {
            (s, d): (weight[(s, d)], feat[(s, d)])
            for s, d in rng.permutation(sorted(in_subgraphs)).tolist()
            if s in nodes and d in nodes
        }
        return DictSubgraph(root, nodes, edges)

    batch, expected = [], []
    for _ in range(draw(st.integers(1, 5))):
        root = int(rng.choice(ids))
        self_sub = subgraph(root)
        sources = [i for i in ids.tolist() if rng.random() < 0.5]
        sampled = [
            (subgraph(s, with_node=root if rng.random() < 0.5 else None),
             weight[(s, root)], feat[(s, root)])
            for s in sources
        ]
        batch.append((self_sub.to_info(), [(n.to_info(), w, ef) for n, w, ef in sampled]))
        expected.append(DictSubgraph.merge(self_sub, sampled))
    form = draw(st.sampled_from(["columns", "one chunk", "chunks"]))
    return batch, expected, lambda infos: column_form(rng, infos, form)


def column_form(rng, infos: list[SubgraphInfo], form: str):
    """``infos`` as a merge reads them: a column built from the records
    (``columns``), decoded from one spilled chunk (``one chunk``), or rows
    of several chunks (``chunks``, cut at random)."""
    if form == "columns":
        return columnize(infos)
    cuts = [0, len(infos)]
    if form == "chunks":
        cuts[1:1] = sorted(rng.integers(0, len(infos) + 1, size=2).tolist())
    return concat_columns([
        decode_columns(encode_columns(columnize(infos[a:b])))
        for a, b in zip(cuts[:-1], cuts[1:])
        if b > a
    ])


class TestMergeKernel:
    @given(merge_batches())
    @settings(max_examples=200)
    def test_kernel_equals_the_per_node_dict_merge(self, case):
        """Inputs built from columns or decoded from spilled chunks; the
        merged column, and the same column decoded from a chunk, are the
        oracle's records column for column."""
        batch, expected, form = case
        merged = kernel(batch, form)
        decoded = decode_columns(encode_columns(merged)).rows()
        merged = merged.rows()
        assert len(merged) == len(decoded) == len(expected)
        for out, back, oracle in zip(merged, decoded, expected):
            assert_same_subgraph(out, oracle.to_info())
            assert_same_subgraph(back, oracle.to_info())
            assert_flattens_alike(out.to_graph_feature(), oracle.to_graph_feature())

    def test_empty_batch(self):
        assert kernel([]).rows() == []


# ---------------------------------------------------------------- pairing round
def endpoint_info(rng, universe: int, edge_dim: int) -> SubgraphInfo:
    """An endpoint neighborhood over a small id universe (so a pair's two
    neighborhoods share nodes and edges)."""
    n = int(rng.integers(1, 8))
    ids = rng.choice(universe, size=n, replace=False).astype(np.int64) * 5 - 40
    hops = np.concatenate([[0], rng.integers(1, 3, size=n - 1)])
    pairs = rng.choice(n * n, size=int(rng.integers(0, n * n + 1)) if n > 1 else 0, replace=False)
    m = len(pairs)
    info = SubgraphInfo(
        int(ids[0]), ids, hops, rng.standard_normal((n, 3)).astype(np.float32),
        ids[pairs // n], ids[pairs % n], rng.random(m) + 0.1,
        rng.standard_normal((m, edge_dim)).astype(np.float32) if edge_dim and m else None,
    )
    return info


def pair_segments(rng, ends, chunk: int):
    """The pairing round's input as a shuffle delivers it: one group per
    target edge, ``("end", role, info)`` rows in either role order, one
    segment per ``chunk`` edges (its column built from the rows, or decoded
    from a spilled chunk)."""
    segments = []
    for lo in range(0, len(ends), chunk):
        rows = []
        for src, dst in ends[lo : lo + chunk]:
            both = [("end", 0, src), ("end", 1, dst)]
            rows += both if rng.random() < 0.5 else both[::-1]
        column = columnize(rows)
        if rng.random() < 0.5:
            column = decode_columns(encode_columns(column))
        count = len(rows) // 2
        segments.append(
            column_segment(column, np.arange(0, 2 * count + 1, 2), np.arange(lo, lo + count))
        )
    return segments


class TestPairingRound:
    @settings(max_examples=80)
    @given(
        seed=st.integers(0, 2**32 - 1),
        edges=st.integers(1, 9),
        chunk=st.integers(1, 4),
        edge_dim=st.sampled_from([0, 2]),
        budget=st.sampled_from([1, 1 << 20]),
    )
    def test_buffers_equal_the_per_pair_reference(self, seed, edges, chunk, edge_dim, budget):
        """Every target edge of every buffer is what joining its two
        endpoints alone gives; edges leave in key order."""
        from repro.core.graphflat import pipeline

        rng = np.random.default_rng(seed)
        universe = int(rng.integers(8, 25))
        ends = [
            (endpoint_info(rng, universe, edge_dim), endpoint_info(rng, universe, edge_dim))
            for _ in range(edges)
        ]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "MERGE_BATCH_BYTES", budget)
            batches = list(PairReducer().reduce_segments(iter(pair_segments(rng, ends, chunk))))
        assert len(batches) == (edges if budget == 1 else 1)
        assert [key for batch in batches for key in batch.keys] == list(range(edges))
        got = [batch.values.feature(i) for batch in batches for i in range(len(batch))]
        for feature, (src, dst) in zip(got, ends):
            assert_same_feature(feature, oracle_pair(src, dst))

    def test_a_missing_role_keeps_its_error(self):
        rng = np.random.default_rng(3)
        a, b = endpoint_info(rng, 10, 0), endpoint_info(rng, 10, 0)
        segment = segment_of([
            (0, [("end", 0, a), ("end", 1, b)]),
            (1, [("end", 0, a), ("end", 0, b)]),
        ])
        with pytest.raises(RuntimeError, match=r"target edge 1 expected one record per endpoint role, got roles \[0, 0\]"):
            list(PairReducer().reduce_segments(iter([segment])))
        with pytest.raises(RuntimeError, match=r"target edge 2 .* got roles \[1\]"):
            list(PairReducer().reduce_segments(iter([segment_of([(2, [("end", 1, b)])])])))

    def test_one_merge_per_buffer_and_no_per_endpoint_object(self, monkeypatch):
        """Mechanism pins: one ``merge_groups`` call per buffer (per final
        partition at the default budget, per edge at a one-byte budget),
        and no endpoint is flattened to a GraphFeature on its own."""
        from repro.core.graphflat import pipeline
        from repro.datasets import labeled_edges_like
        from repro.graph import subgraph
        from repro.mapreduce.shuffle import default_partition

        assert not hasattr(subgraph, "merge_graph_features")
        nodes, edges = labeled_edges_like(seed=7, num_nodes=100, num_edges=360, feature_dim=6)
        calls = {"merge": 0, "flatten": 0}
        real_merge = pipeline.merge_groups
        real_flatten = SubgraphInfo.to_graph_feature

        def merge(*args):
            calls["merge"] += 1
            return real_merge(*args)

        def flatten(self):
            calls["flatten"] += 1
            return real_flatten(self)

        monkeypatch.setattr(pipeline, "merge_groups", merge)
        monkeypatch.setattr(SubgraphInfo, "to_graph_feature", flatten)
        config = GraphFlatConfig(
            task="link_prediction", edge_targets=30, hops=2, num_reducers=4, seed=0
        )
        reference = graph_flat(nodes, edges, config=config).samples
        partitions = {default_partition(i, 4) for i in range(len(reference))}
        assert calls == {"merge": len(partitions), "flatten": 0}
        calls["merge"] = 0
        monkeypatch.setattr(pipeline, "MERGE_BATCH_BYTES", 1)
        assert graph_flat(nodes, edges, config=config).samples == reference
        assert calls == {"merge": len(reference), "flatten": 0}
