"""Fused columnar decode -> batch: the stacked merge kernel against the
per-sample implementation it replaced.

``oracle_merge`` / ``oracle_vectorize`` are the previous bodies of
``merge_graph_features`` / ``vectorize_batch``, kept here verbatim as the
reference.  Every array the new path produces — from stacked shard columns
(``ColumnarBatchRef.gather``) and from sample lists alike — must equal the
oracle's bit for bit, dtype and order included: that is what keeps loss
trajectories, model bytes and shard hashes where they were.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.trainer import (
    ColumnarDataset,
    TrainSample,
    open_sample_source,
    vectorize_batch,
)
from repro.core.trainer.pruning import prune_blocks
from repro.datasets import labeled_edges_like, typed_like
from repro.graph.subgraph import (
    GatheredRows,
    GraphFeature,
    StackedFeatures,
    merge_graph_features,
    merge_stacked,
)
from repro.mapreduce import DistFileSystem
from repro.nn.gnn.block import BatchInputs, EdgeBlock
from repro.proto.columnar import ColumnarShard, write_sample_shard


# ------------------------------------------------------------------ the oracle
def oracle_merge(features: list[GraphFeature]) -> GraphFeature:
    if not features:
        raise ValueError("cannot merge an empty batch")
    if len(features) == 1:
        return features[0].sorted_by_destination()

    fe_dims = {f.edge_feature_dim for f in features}
    if len(fe_dims) != 1:
        raise ValueError(f"inconsistent edge feature dims in batch: {fe_dims}")
    fn_dims = {f.feature_dim for f in features}
    if len(fn_dims) != 1:
        raise ValueError(f"inconsistent node feature dims in batch: {fn_dims}")

    all_ids = np.concatenate([f.node_ids for f in features])
    merged_ids, first_occurrence = np.unique(all_ids, return_index=True)
    all_x = np.concatenate([f.x for f in features], axis=0)
    merged_x = all_x[first_occurrence]

    all_hops = np.concatenate([f.hops for f in features])
    merged_hops = np.full(len(merged_ids), np.iinfo(np.int64).max, dtype=np.int64)
    slot = np.searchsorted(merged_ids, all_ids)
    np.minimum.at(merged_hops, slot, all_hops)

    g_src = np.concatenate([f.node_ids[f.edge_src] for f in features])
    g_dst = np.concatenate([f.node_ids[f.edge_dst] for f in features])
    g_w = np.concatenate([f.edge_weight for f in features])
    g_ef = (
        None
        if features[0].edge_feat is None
        else np.concatenate(
            [
                f.edge_feat
                if f.edge_feat is not None
                else np.zeros((f.num_edges, fe_dims.pop()), np.float32)
                for f in features
            ],
            axis=0,
        )
    )
    pair = np.stack([g_src, g_dst], axis=1)
    if len(pair):
        _, keep = np.unique(pair, axis=0, return_index=True)
        keep.sort()
    else:
        keep = np.empty(0, dtype=np.int64)
    l_src = np.searchsorted(merged_ids, g_src[keep])
    l_dst = np.searchsorted(merged_ids, g_dst[keep])

    node_type = None
    if all(f.node_type is not None for f in features):
        node_type = np.concatenate([f.node_type for f in features])[first_occurrence]
    edge_type = None
    if all(f.edge_type is not None for f in features):
        edge_type = np.concatenate([f.edge_type for f in features])[keep]

    targets = np.unique(np.concatenate([f.target_ids for f in features]))
    merged = GraphFeature(
        targets,
        merged_ids,
        merged_x,
        merged_hops,
        l_src,
        l_dst,
        None if g_ef is None else g_ef[keep],
        g_w[keep],
        node_type,
        edge_type,
    )
    return merged.sorted_by_destination()


def oracle_vectorize(samples, num_layers, pruning=True, edge_level=False):
    merged = oracle_merge([s.graph_feature for s in samples])
    base = EdgeBlock(
        merged.edge_src, merged.edge_dst, merged.num_nodes,
        merged.edge_weight, merged.edge_feat,
    )
    blocks = (
        prune_blocks(base, merged.hops, num_layers) if pruning else [base] * num_layers
    )
    if edge_level:
        pairs = np.stack([s.graph_feature.target_ids for s in samples])
        pair_index = np.searchsorted(merged.target_ids, pairs)
        batch = BatchInputs(merged.x, merged.target_index, blocks, pair_index)
        raw = [s.label for s in samples]
        labels = None
        if any(label is not None for label in raw):
            labels = np.asarray([int(label) for label in raw], dtype=np.int64)
        return batch, labels

    batch = BatchInputs(merged.x, merged.target_index, blocks)
    labels = None
    sample_labels = {int(s.target_id): s.label for s in samples}
    if any(label is not None for label in sample_labels.values()):
        ordered = [sample_labels[int(t)] for t in merged.target_ids]
        if np.ndim(ordered[0]) == 0:
            labels = np.asarray(ordered, dtype=np.int64)
        else:
            labels = np.stack([np.asarray(o, dtype=np.float32) for o in ordered])
    return batch, labels


# ------------------------------------------------------------------ comparison
def assert_same_array(got, want, what):
    if want is None:
        assert got is None, what
        return
    assert got is not None, what
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"
    assert got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}"
    assert np.array_equal(got, want), what


def assert_same_batch(got, want):
    (got_batch, got_labels), (want_batch, want_labels) = got, want
    assert_same_array(got_batch.x, want_batch.x, "x")
    assert_same_array(got_batch.target_index, want_batch.target_index, "target_index")
    assert_same_array(got_batch.pair_index, want_batch.pair_index, "pair_index")
    assert_same_array(got_labels, want_labels, "labels")
    assert len(got_batch.layer_blocks) == len(want_batch.layer_blocks)
    for k, (g, w) in enumerate(zip(got_batch.layer_blocks, want_batch.layer_blocks)):
        assert g.num_nodes == w.num_nodes
        for name in ("src", "dst", "weight", "edge_feat"):
            assert_same_array(getattr(g, name), getattr(w, name), f"layer {k} {name}")


_FEATURE_FIELDS = (
    "target_ids", "node_ids", "x", "hops", "edge_src", "edge_dst",
    "edge_feat", "edge_weight", "node_type", "edge_type",
)


def assert_same_feature(got: GraphFeature, want: GraphFeature):
    for name in _FEATURE_FIELDS:
        assert_same_array(getattr(got, name), getattr(want, name), name)
    assert_same_array(got.target_index, want.target_index, "target_index")


# ---------------------------------------------------------------- random data
def random_feature(
    rng, *, universe=40, dim=5, edge_dim=0, typed=False, num_targets=1,
    max_nodes=12, max_edges=20, zero_edges=False,
) -> GraphFeature:
    """A neighborhood over a small id universe, so features overlap.  Node
    features are drawn per *feature*, not per id: two samples disagree about
    a shared node, which pins which occurrence the merge keeps."""
    n = int(rng.integers(max(num_targets, 2), max_nodes + 1))
    node_ids = rng.choice(universe, size=n, replace=False).astype(np.int64) * 7 + 3
    targets = node_ids[rng.choice(n, size=num_targets, replace=False)]
    m = 0 if zero_edges else int(rng.integers(0, max_edges + 1))
    # distinct (src, dst) pairs inside one neighborhood, as GraphFlat emits
    pairs = rng.choice(n * n, size=min(m, n * n), replace=False)
    return GraphFeature(
        targets,
        node_ids,
        rng.standard_normal((n, dim)).astype(np.float32),
        rng.integers(0, 3, size=n),
        pairs // n,
        pairs % n,
        rng.standard_normal((len(pairs), edge_dim)).astype(np.float32)
        if edge_dim else None,
        rng.random(len(pairs)).astype(np.float32) + 0.1,
        rng.integers(0, 3, size=n) if typed else None,
        rng.integers(0, 4, size=len(pairs)) if typed else None,
    )


def random_samples(rng, count, *, label="int", edge_level=False, **kwargs):
    """``count`` samples with distinct ids.  Node-level: the id is the
    feature's single target; edge-level: an edge index, targets [src, dst]."""
    samples, seen = [], set()
    while len(samples) < count:
        gf = random_feature(
            rng, num_targets=2 if edge_level else 1,
            zero_edges=len(samples) == 1, **kwargs,
        )
        key = len(samples) if edge_level else int(gf.target_ids[0])
        if key in seen:
            continue
        seen.add(key)
        value = {
            "int": lambda: int(rng.integers(0, 4)),
            "vector": lambda: rng.random(3).astype(np.float32),
            "none": lambda: None,
        }[label]()
        samples.append(TrainSample(key, value, gf))
    return samples


def write_shards(tmp_path, samples, num_shards, task=None) -> ColumnarDataset:
    """Round-robin the samples over ``num_shards`` columnar shards, so any
    run of consecutive dataset indices spans several of them."""
    paths = []
    for k in range(num_shards):
        path = tmp_path / f"part-{k:05d}.aglc"
        write_sample_shard(
            path,
            [(s.target_id, s.label, s.graph_feature) for s in samples[k::num_shards]],
            task=task,
        )
        paths.append(path)
    return ColumnarDataset(paths)


VARIANTS = {
    "plain": dict(),
    "edge-features": dict(edge_dim=3),
    "typed": dict(typed=True),
    "typed+edge-features": dict(typed=True, edge_dim=2),
}


class TestStackedPathMatchesOracle:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("label", ["int", "vector", "none"])
    @pytest.mark.parametrize("pruning", [True, False])
    def test_node_level(self, tmp_path, variant, label, pruning):
        rng = np.random.default_rng(zlib.crc32(f"{variant}/{label}".encode()))
        samples = random_samples(rng, 24, label=label, **VARIANTS[variant])
        source = write_shards(tmp_path, samples, num_shards=3)
        order = rng.permutation(len(source))
        for lo, hi in [(0, 24), (0, 9), (9, 11), (11, 12), (12, 24)]:
            ref = source.batch(order[lo:hi])
            listed = ref.load_samples()
            want = oracle_vectorize(listed, 2, pruning=pruning)
            assert_same_batch(vectorize_batch(ref.gather(), 2, pruning=pruning), want)
            assert_same_batch(vectorize_batch(listed, 2, pruning=pruning), want)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("label", ["int", "none"])
    @pytest.mark.parametrize("pruning", [True, False])
    def test_edge_level(self, tmp_path, variant, label, pruning):
        rng = np.random.default_rng(zlib.crc32(f"edge/{variant}/{label}".encode()))
        samples = random_samples(
            rng, 20, label=label, edge_level=True, **VARIANTS[variant]
        )
        source = write_shards(tmp_path, samples, 4, task="link_prediction")
        order = rng.permutation(len(source))
        for lo, hi in [(0, 20), (0, 7), (7, 20)]:
            ref = source.batch(order[lo:hi])
            listed = ref.load_samples()
            want = oracle_vectorize(listed, 2, pruning=pruning, edge_level=True)
            for feed in (ref.gather(), listed):
                assert_same_batch(
                    vectorize_batch(feed, 2, pruning=pruning, edge_level=True), want
                )

    def test_repeated_nodes_keep_the_first_occurrence(self, tmp_path):
        """Every sample holds the same nodes with its own feature values:
        the merged rows must come from the first sample of the batch."""
        ids = np.arange(5, dtype=np.int64) * 11
        samples = [
            TrainSample(
                int(ids[k]), k,
                GraphFeature(
                    [ids[k]], ids, np.full((5, 2), k, np.float32), [1] * k + [0] + [1] * (4 - k),
                    [0, 1, 2], [1, 2, 3], None, [1.0 + k, 2.0 + k, 3.0 + k],
                ),
            )
            for k in range(4)
        ]
        source = write_shards(tmp_path, samples, num_shards=2)
        ref = source.batch(np.asarray([3, 0, 2, 1]))
        listed = ref.load_samples()
        got = vectorize_batch(ref.gather(), 1)
        assert np.all(got[0].x == listed[0].graph_feature.x[0, 0])
        assert_same_batch(got, oracle_vectorize(listed, 1))

    def test_one_sample_batch_keeps_its_node_order(self, tmp_path):
        """The one-sample shortcut: nodes stay in stored order (not sorted
        by id), edges are only destination-sorted."""
        rng = np.random.default_rng(5)
        samples = random_samples(rng, 6, edge_dim=2)
        source = write_shards(tmp_path, samples, num_shards=2)
        for i in range(len(source)):
            ref = source.batch(np.asarray([i]))
            listed = ref.load_samples()
            want = oracle_vectorize(listed, 2)
            assert_same_batch(vectorize_batch(ref.gather(), 2), want)
            assert_same_batch(vectorize_batch(listed, 2), want)
            assert_same_array(
                want[0].x, np.asarray(listed[0].graph_feature.x), "stored order"
            )

    def test_one_edge_sample_with_descending_pair(self):
        """A batch of one edge sample whose targets are [src, dst] with
        src > dst: the merged targets keep that order, and ``pair_index``
        must follow it (the per-sample code binary-searched the unsorted
        pair and indexed past the two target rows)."""
        gf = GraphFeature(
            [50, 30], [30, 50, 70], np.eye(3, 2, dtype=np.float32), [0, 0, 1],
            [2, 0], [0, 1],
        )
        batch, labels = vectorize_batch([TrainSample(0, 1, gf)], 2, edge_level=True)
        assert batch.target_index.tolist() == [1, 0]
        assert batch.pair_index.tolist() == [[0, 1]]
        assert labels.tolist() == [1]

    def test_edge_level_rejects_samples_without_a_pair(self):
        rng = np.random.default_rng(2)
        samples = random_samples(rng, 3)
        with pytest.raises(ValueError, match="exactly two targets"):
            vectorize_batch(samples, 2, edge_level=True)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty batch"):
            vectorize_batch([], 2)
        with pytest.raises(ValueError, match="empty batch"):
            merge_graph_features([])

    def test_mixed_labels_rejected(self):
        rng = np.random.default_rng(3)
        samples = random_samples(rng, 3)
        samples[1].label = None
        with pytest.raises(ValueError, match="mixes labeled and unlabeled"):
            vectorize_batch(samples, 2)


class TestGraphFlatDatasets:
    """The same identity over what GraphFlat really writes, one dataset per
    task, several shards each, batches in shuffled order."""

    @pytest.fixture(scope="class")
    def fs(self, tmp_path_factory):
        fs = DistFileSystem(tmp_path_factory.mktemp("fused-dfs"))
        nodes, edges = labeled_edges_like(seed=7, num_nodes=100, num_edges=360, feature_dim=6)
        typed = typed_like(seed=3, num_users=60, num_items=40, num_edges=260, feature_dim=6)
        shared = dict(hops=2, max_neighbors=6, num_reducers=4, seed=0)
        graph_flat(
            nodes, edges, nodes.ids[:40],
            GraphFlatConfig(**shared), fs=fs, dataset_name="node_classification",
        )
        for task in ("link_prediction", "edge_classification"):
            graph_flat(
                nodes, edges,
                config=GraphFlatConfig(task=task, edge_targets=30, **shared),
                fs=fs, dataset_name=task,
            )
        graph_flat(
            *typed,
            config=GraphFlatConfig(task="link_prediction", edge_targets=30, **shared),
            fs=fs, dataset_name="typed",
        )
        return fs

    @pytest.mark.parametrize(
        "name", ["node_classification", "link_prediction", "edge_classification", "typed"]
    )
    @pytest.mark.parametrize("pruning", [True, False])
    def test_bit_identical(self, fs, name, pruning):
        source = open_sample_source(fs, name)
        assert isinstance(source, ColumnarDataset) and len(source.shard_paths) == 4
        edge_level = name != "node_classification"
        order = np.random.default_rng(0).permutation(len(source))
        for lo in range(0, len(order), 16):
            ref = source.batch(order[lo : lo + 16])
            assert len(np.unique(ref.locators[:, 0])) > 1  # spans shards
            listed = ref.load_samples()
            want = oracle_vectorize(listed, 2, pruning=pruning, edge_level=edge_level)
            for feed in (ref.gather(), listed):
                assert_same_batch(
                    vectorize_batch(feed, 2, pruning=pruning, edge_level=edge_level),
                    want,
                )


class TestGather:
    def test_shard_gather_equals_stacking_the_samples(self, tmp_path):
        rng = np.random.default_rng(9)
        samples = random_samples(rng, 10, label="vector", typed=True, edge_dim=2)
        path = tmp_path / "one.aglc"
        write_sample_shard(path, [(s.target_id, s.label, s.graph_feature) for s in samples])
        shard = ColumnarShard(path)
        rows = np.asarray([7, 2, 2, 9, 0])
        got = shard.gather(rows)
        want = StackedFeatures.from_features([samples[r].graph_feature for r in rows])
        assert isinstance(got.x, GatheredRows)
        assert_same_array(got.node_features(), want.x, "x")
        for name in (
            "target_offsets", "target_ids", "node_offsets", "node_ids", "hops",
            "edge_offsets", "edge_src", "edge_dst", "edge_weight", "edge_feat",
            "node_type", "edge_type",
        ):
            assert_same_array(getattr(got, name), getattr(want, name), name)
        assert got.sample_ids.tolist() == [samples[r].target_id for r in rows]
        assert_same_array(
            got.labels, np.stack([samples[r].label for r in rows]), "labels"
        )

    def test_gather_rejects_rows_outside_the_shard(self, tmp_path):
        rng = np.random.default_rng(1)
        samples = random_samples(rng, 3)
        path = tmp_path / "one.aglc"
        write_sample_shard(path, [(s.target_id, s.label, s.graph_feature) for s in samples])
        shard = ColumnarShard(path)
        for bad in ([3], [-1], [0, 5]):
            with pytest.raises(IndexError):
                shard.gather(np.asarray(bad))

    def test_corrupt_columns_are_rejected_not_misindexed(self, tmp_path):
        """The stacked path never builds a GraphFeature, so the checks a
        GraphFeature made on every decode live in the kernel."""
        rng = np.random.default_rng(4)
        good = StackedFeatures.from_features(
            [s.graph_feature for s in random_samples(rng, 3, max_edges=6)]
        )

        def broken(**changes):
            return StackedFeatures(**{**vars(good), **changes})

        edge_src = good.edge_src.copy()
        edge_src[0] = good.node_offsets[1]  # first sample's edge into the second's rows
        with pytest.raises(ValueError, match="out of range"):
            merge_stacked(broken(edge_src=edge_src))
        edge_src[0] = -1
        with pytest.raises(ValueError, match="non-negative"):
            merge_stacked(broken(edge_src=edge_src))
        with pytest.raises(ValueError, match="contained in node_ids"):
            merge_stacked(broken(target_ids=good.target_ids + 1))


# ------------------------------------------------------------------- property
@st.composite
def overlapping_features(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    count = draw(st.integers(1, 6))
    edge_dim = draw(st.sampled_from([0, 2]))
    typed = draw(st.booleans())
    num_targets = draw(st.sampled_from([1, 2]))
    universe = draw(st.integers(4, 30))
    rng = np.random.default_rng(seed)
    return [
        random_feature(
            rng, universe=universe, edge_dim=edge_dim, typed=typed,
            num_targets=num_targets, max_nodes=min(universe, 8), max_edges=10,
        )
        for _ in range(count)
    ]


@settings(max_examples=150, deadline=None)
@given(overlapping_features())
def test_merge_graph_features_equals_the_oracle(features):
    assert_same_feature(merge_graph_features(features), oracle_merge(features))


# ----------------------------------------------------- GraphFeature validation
class TestGraphFeatureValidation:
    """``_validate`` is numpy-only now; the messages did not change."""

    def base(self, **changes):
        fields = dict(
            target_ids=[5], node_ids=[5, 6, 7], x=np.zeros((3, 2), np.float32),
            hops=[0, 1, 1], edge_src=[1, 2], edge_dst=[0, 0],
        )
        fields.update(changes)
        return GraphFeature(**fields)

    @pytest.mark.parametrize(
        "changes,message",
        [
            (dict(node_ids=[5, 6, 6]), "node_ids contain duplicates"),
            (dict(x=np.zeros((2, 2), np.float32)), "x has 2 rows for 3 nodes"),
            (dict(hops=[0, 1]), "hops must have one entry per node"),
            (dict(edge_dst=[0]), "edge arrays must be aligned"),
            (dict(edge_src=[1, 3]), "edge endpoints out of range"),
            (dict(edge_dst=[0, -1]), "edge endpoints must be non-negative"),
            (dict(edge_feat=np.zeros((1, 2))), "edge_feat must have one row per edge"),
            (dict(node_type=[0, 1]), "node_type must have one entry per node"),
            (dict(edge_type=[0]), "edge_type must have one entry per edge"),
            (dict(target_ids=[5, 9]), "targets must be contained in node_ids"),
            (dict(target_ids=[4]), "targets must be contained in node_ids"),
        ],
    )
    def test_messages(self, changes, message):
        with pytest.raises(ValueError, match=message):
            self.base(**changes)

    def test_position_index_is_built_on_first_lookup(self):
        gf = self.base(target_ids=[7, 5])
        assert gf._pos is None
        assert gf.target_index.tolist() == [2, 0]
        assert gf._pos == {5: 0, 6: 1, 7: 2}
        assert gf.local_index_of(6) == 1
        with pytest.raises(KeyError):
            gf.local_index_of(8)
