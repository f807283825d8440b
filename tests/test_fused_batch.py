"""Fused columnar decode -> batch: the stacked merge kernel against the
per-sample implementation it replaced.

The references are ``tests/oracle.py``'s per-sample merge and per-batch
vectorize.  Every array the new path produces — from stacked shard columns
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
    as_sample_source,
    open_sample_source,
    vectorize_batch,
    vectorize_window,
)
from repro.core.trainer.pipeline import BatchPreparer
from repro.core.trainer.vectorize import stack_samples
from repro.datasets import labeled_edges_like, typed_like
from repro.graph.subgraph import (
    GatheredRows,
    GraphFeature,
    StackedFeatures,
    merge_groups,
    merge_stacked,
)
from repro.mapreduce import DistFileSystem
from repro.proto.columnar import ColumnarShard, write_sample_shard

from .oracle import (
    assert_same_array,
    assert_same_batch,
    assert_same_feature,
    oracle_merge,
    oracle_vectorize,
)


def merged_feature(features: list[GraphFeature]) -> GraphFeature:
    """The kernel's merge of ``features`` as one GraphFeature."""
    return GraphFeature(*merge_stacked(StackedFeatures.from_features(features))[:10])


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
            merged_feature([])

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
        assert isinstance(source, ColumnarDataset) and len(source.shards) == 4
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


@settings(max_examples=150)
@given(overlapping_features())
def test_merge_graph_features_equals_the_oracle(features):
    assert_same_feature(merged_feature(features), oracle_merge(features))


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


# ------------------------------------------------------ the segmented kernel
def far_apart(gf: GraphFeature) -> GraphFeature:
    """``gf`` with its ids spread over the whole int64 range (negative ones
    included): packing raw ids into sort keys would overflow."""

    def spread(ids):
        return ids * (1 << 55) - (1 << 62)

    return GraphFeature(
        spread(gf.target_ids), spread(gf.node_ids), gf.x, gf.hops, gf.edge_src,
        gf.edge_dst, gf.edge_feat, gf.edge_weight, gf.node_type, gf.edge_type,
    )


@st.composite
def feature_groups(draw):
    """A window of groups over one small id universe, so nodes are shared
    within and across groups: one-sample groups, edgeless samples and a
    sample repeated inside its group all come up."""
    seed = draw(st.integers(0, 2**32 - 1))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    edge_dim = draw(st.sampled_from([0, 2]))
    typed = draw(st.booleans())
    num_targets = draw(st.sampled_from([1, 2]))
    universe = draw(st.integers(4, 30))
    spread = draw(st.booleans())
    rng = np.random.default_rng(seed)
    groups = []
    for size in sizes:
        group = []
        for _ in range(size):
            if group and rng.random() < 0.2:
                group.append(group[int(rng.integers(len(group)))])  # repeated
                continue
            gf = random_feature(
                rng, universe=universe, edge_dim=edge_dim, typed=typed,
                num_targets=num_targets, max_nodes=min(universe, 8), max_edges=10,
                zero_edges=rng.random() < 0.2,
            )
            group.append(far_apart(gf) if spread else gf)
        groups.append(group)
    return groups


def group_offsets(groups) -> np.ndarray:
    return np.cumsum([0] + [len(group) for group in groups])


@settings(max_examples=200)
@given(feature_groups())
def test_merge_groups_equals_the_oracle_group_by_group(groups):
    """Each group of one kernel call is what merging that group alone gave."""
    stacked = StackedFeatures.from_features([f for group in groups for f in group])
    merged = merge_groups(stacked, group_offsets(groups))
    assert merged.num_groups == len(groups)
    for g, features in enumerate(groups):
        got = merged.group(g)
        want = oracle_merge(features)
        assert_same_feature(GraphFeature(*got[:10]), want)
        assert_same_array(got.target_index, want.target_index, "target_index")


class TestMergeGroups:
    def test_gathered_shard_columns_merge_like_stacked_features(self, tmp_path):
        """Features left in the shards (``GatheredRows``) are copied for the
        kept nodes only and come out the same."""
        rng = np.random.default_rng(11)
        samples = random_samples(rng, 12, typed=True, edge_dim=2)
        source = write_shards(tmp_path, samples, num_shards=3)
        ref = source.batch(np.asarray([4, 1, 7, 7, 0, 11, 3, 9, 2]))
        offsets = [0, 3, 4, 8, 9]
        stacked = ref.gather()
        assert isinstance(stacked.x, GatheredRows)
        got = merge_groups(stacked, offsets)
        listed = [s.graph_feature for s in ref.load_samples()]
        for g in range(len(offsets) - 1):
            want = oracle_merge(listed[offsets[g] : offsets[g + 1]])
            assert_same_feature(GraphFeature(*got.group(g)[:10]), want)

    def test_empty_group_rejected(self):
        rng = np.random.default_rng(6)
        stacked = StackedFeatures.from_features(
            [s.graph_feature for s in random_samples(rng, 3)]
        )
        with pytest.raises(ValueError, match="empty batch"):
            merge_groups(stacked, [0, 2, 2, 3])
        with pytest.raises(ValueError, match="cover"):
            merge_groups(stacked, [0, 2])

    def test_checks_run_once_per_window_with_todays_messages(self):
        """A malformed sample anywhere in the window fails the whole call
        with the message a merge of its group alone gives."""
        rng = np.random.default_rng(8)
        good = StackedFeatures.from_features(
            [s.graph_feature for s in random_samples(rng, 6, max_edges=6)]
        )

        def broken(**changes):
            return StackedFeatures(**{**vars(good), **changes})

        edge_src = good.edge_src.copy()
        last = good.edge_offsets[-1] - 1  # an edge of the last sample
        edge_src[last] = np.diff(good.node_offsets)[-1]
        with pytest.raises(ValueError, match=r"out of range \(sample 5\)"):
            merge_groups(broken(edge_src=edge_src), [0, 2, 5, 6])
        edge_src[last] = -1
        with pytest.raises(ValueError, match=r"non-negative \(sample 5\)"):
            merge_groups(broken(edge_src=edge_src), [0, 2, 5, 6])
        # a target that is a node of another group only
        target_ids = good.target_ids.copy()
        target_ids[0] = good.node_ids[good.node_offsets[5]]
        assert target_ids[0] not in good.node_ids[: good.node_offsets[1]]
        with pytest.raises(ValueError, match="contained in node_ids"):
            merge_groups(broken(target_ids=target_ids), [0, 1, 6])


# ------------------------------------------------------------- trainer windows
@st.composite
def sample_windows(draw):
    """Samples cut into batches of random sizes (one-sample batches
    included), node- or edge-level, with or without labels."""
    seed = draw(st.integers(0, 2**32 - 1))
    edge_level = draw(st.booleans())
    label = draw(st.sampled_from(["int", "none"] if edge_level else ["int", "vector", "none"]))
    variant = draw(st.sampled_from(sorted(VARIANTS)))
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    rng = np.random.default_rng(seed)
    samples = random_samples(
        rng, sum(sizes), label=label, edge_level=edge_level, **VARIANTS[variant]
    )
    if not edge_level and len(samples) > 1 and draw(st.booleans()):
        samples[-1] = samples[0]  # a sample repeated inside its window
    return samples, sizes, edge_level


@settings(max_examples=120)
@given(
    sample_windows(),
    st.booleans(),
    st.booleans(),
    st.integers(1, 3),
)
def test_a_window_equals_its_batches_vectorized_one_by_one(case, pruning, kernel, layers):
    """Every ``BatchInputs`` array, block, row start, kernel and label of
    a window is what vectorizing its batch alone gives — which in turn is
    the per-batch oracle's."""
    samples, sizes, edge_level = case
    offsets = np.cumsum([0] + sizes)
    got = vectorize_window(
        stack_samples(samples), offsets, layers, pruning, kernel, edge_level
    )
    assert len(got) == len(sizes)
    for b, prepared in enumerate(got):
        batch = samples[offsets[b] : offsets[b + 1]]
        alone = vectorize_batch(batch, layers, pruning, kernel, edge_level)
        assert_same_batch(prepared, alone)
        assert_same_batch(
            prepared, oracle_vectorize(batch, layers, pruning, edge_level, kernel)
        )


class TestWindowsOverShards:
    @pytest.mark.parametrize("edge_level", [False, True])
    @pytest.mark.parametrize("pruning", [True, False])
    def test_one_gather_per_window(self, tmp_path, monkeypatch, edge_level, pruning):
        """The preparer gathers a window of columnar refs with one
        ``gather_samples`` call and matches the batches prepared alone."""
        from repro.core.trainer import dataset

        rng = np.random.default_rng(21)
        samples = random_samples(rng, 22, edge_level=edge_level, edge_dim=2)
        source = write_shards(
            tmp_path, samples, 3, task="link_prediction" if edge_level else None
        )
        order = rng.permutation(len(source))
        refs = [source.batch(order[lo : lo + 5]) for lo in range(0, 22, 5)]
        calls = []
        real = dataset.gather_samples
        monkeypatch.setattr(
            dataset, "gather_samples", lambda *a: calls.append(1) or real(*a)
        )
        prepare = BatchPreparer(2, pruning, True, edge_level)
        prepared, (start, stop) = prepare(refs)
        assert len(calls) == 1 and stop > start
        for ref, got in zip(refs, prepared):
            want = oracle_vectorize(ref.load_samples(), 2, pruning, edge_level, True)
            assert_same_batch(got, want)

    def test_a_malformed_batch_fails_its_window_naming_the_sample(self):
        def refs(batches):
            """The batches as refs into one in-memory source."""
            source = as_sample_source([s for batch in batches for s in batch])
            bounds = np.cumsum([0] + [len(batch) for batch in batches])
            return [source.batch(np.arange(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]

        rng = np.random.default_rng(13)
        good = random_samples(rng, 9, edge_level=True)
        node_level = random_samples(np.random.default_rng(14), 1)[0]
        lone = TrainSample(99, 1, node_level.graph_feature)  # one target only
        prepare = BatchPreparer(2, edge_level=True)
        with pytest.raises(ValueError, match="exactly two targets.*sample 99 has 1"):
            prepare(refs([good[:3], good[3:6], [good[6], lone], good[7:]]))

        gf = next(s.graph_feature for s in good if s.graph_feature.num_edges)
        src = gf.edge_src.copy()
        src[0] = gf.num_nodes  # out of range: only the window's check sees it
        bad = GraphFeature.__new__(GraphFeature)
        bad.__dict__.update(vars(gf), edge_src=src)
        with pytest.raises(ValueError, match=r"edge endpoints out of range \(sample 4\)"):
            prepare(refs([good[:3], [TrainSample(4, 1, bad)], good[6:]]))
