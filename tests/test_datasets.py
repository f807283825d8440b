"""Dataset generators: published statistics, learnability structure,
hub phenomena, IO round trips."""

import numpy as np
import pytest

from repro.datasets import (
    cora_like,
    ppi_like,
    read_edge_table,
    read_node_table,
    uug_like,
    write_edge_table,
    write_node_table,
)
from repro.datasets.base import GraphDataset
from repro.graph.tables import EdgeTable, NodeTable


class TestCoraLike:
    def test_published_statistics(self):
        ds = cora_like()
        s = ds.summary()
        assert s["nodes"] == 2708
        assert s["feature_dim"] == 1433
        assert s["classes"] == 7
        assert (s["train"], s["val"], s["test"]) == (140, 500, 1000)

    def test_features_binary_sparse(self):
        ds = cora_like()
        assert set(np.unique(ds.nodes.features)) <= {0.0, 1.0}
        density = ds.nodes.features.mean()
        assert density < 0.05  # bag-of-words sparsity

    def test_homophily_planted(self):
        ds = cora_like()
        graph = ds.to_graph()
        src = graph.index_of(ds.edges.src)
        dst = graph.index_of(ds.edges.dst)
        same = (ds.nodes.labels[src] == ds.nodes.labels[dst]).mean()
        assert same > 0.6  # citations mostly intra-topic

    def test_deterministic(self):
        a, b = cora_like(seed=3), cora_like(seed=3)
        np.testing.assert_allclose(a.nodes.features, b.nodes.features)
        np.testing.assert_array_equal(a.edges.src, b.edges.src)

    def test_different_seeds_differ(self):
        assert not np.array_equal(cora_like(seed=1).edges.src, cora_like(seed=2).edges.src)


class TestPpiLike:
    def test_structure(self):
        ds = ppi_like(scale=0.05)
        s = ds.summary()
        assert s["graphs"] == 24
        assert s["classes"] == 121
        assert ds.task == "multilabel"
        assert ds.nodes.labels.shape[1] == 121

    def test_split_by_graph(self):
        ds = ppi_like(scale=0.05)
        gid_of = dict(zip(ds.nodes.ids.tolist(), ds.graph_ids.tolist()))
        assert {gid_of[int(i)] for i in ds.val_ids} == {20, 21}
        assert {gid_of[int(i)] for i in ds.test_ids} == {22, 23}

    def test_no_cross_graph_edges(self):
        ds = ppi_like(scale=0.05, num_graphs=5)
        gid_of = dict(zip(ds.nodes.ids.tolist(), ds.graph_ids.tolist()))
        for s, d in zip(ds.edges.src.tolist(), ds.edges.dst.tolist()):
            assert gid_of[s] == gid_of[d]

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            ppi_like(scale=0.0)


class TestUugLike:
    def test_hub_degrees_dominate(self, mini_uug):
        graph = mini_uug.to_graph()
        degrees = graph.in_degrees()
        assert degrees.max() > 10 * np.median(degrees[degrees > 0])
        hub_pos = graph.index_of(mini_uug.hub_ids)
        assert degrees[hub_pos].min() > 50

    def test_binary_task_with_small_labeled_fraction(self, mini_uug):
        ds = mini_uug
        labeled = len(ds.train_ids) + len(ds.val_ids) + len(ds.test_ids)
        assert labeled < len(ds.nodes) / 2
        assert set(np.unique(ds.nodes.labels)) == {0, 1}

    def test_non_contiguous_hashed_ids(self, mini_uug):
        ids = mini_uug.nodes.ids
        assert np.any(np.diff(ids) > 1)

    def test_no_duplicate_directed_edges(self, mini_uug):
        pair = np.stack([mini_uug.edges.src, mini_uug.edges.dst], axis=1)
        assert len(np.unique(pair, axis=0)) == len(pair)

    def test_homophilous_classes(self, mini_uug):
        ds = mini_uug
        graph = ds.to_graph()
        src = graph.index_of(ds.edges.src)
        dst = graph.index_of(ds.edges.dst)
        same = (ds.nodes.labels[src] == ds.nodes.labels[dst]).mean()
        assert same > 0.55

    def test_tail_knob_defaults_are_draw_identical(self):
        """``zipf_exponent=2.1, max_plain_degree=50`` must reproduce the
        historical generator bit-for-bit: the knobs ride on the same rng
        stream, so defaults change nothing for any seed."""
        a = uug_like(seed=3, num_nodes=300, num_hubs=2, hub_degree=40)
        b = uug_like(
            seed=3, num_nodes=300, num_hubs=2, hub_degree=40,
            zipf_exponent=2.1, max_plain_degree=50,
        )
        np.testing.assert_array_equal(a.edges.src, b.edges.src)
        np.testing.assert_array_equal(a.edges.dst, b.edges.dst)
        np.testing.assert_array_equal(a.edges.weights, b.edges.weights)
        np.testing.assert_array_equal(a.nodes.features, b.nodes.features)

    def test_tail_knobs_reshape_degree_distribution(self):
        """``max_plain_degree=1`` flattens the plain-degree weights to
        uniform, so in-degree concentration collapses versus the power-law
        default; any other exponent/cap changes the draw."""

        def top5_share(ds):
            _, counts = np.unique(ds.edges.dst, return_counts=True)
            counts = np.sort(counts)[::-1]
            k = max(1, int(0.05 * len(counts)))
            return counts[:k].sum() / counts.sum()

        base = dict(seed=3, num_nodes=2000, num_hubs=0, hub_degree=0, homophily=0.0)
        powerlaw = uug_like(**base)
        uniform = uug_like(**base, max_plain_degree=1)
        assert top5_share(uniform) < top5_share(powerlaw) / 2
        fat = uug_like(**base, zipf_exponent=1.5)
        assert not np.array_equal(fat.edges.dst, powerlaw.edges.dst)

    def test_tail_knob_validation(self):
        with pytest.raises(ValueError, match="zipf_exponent"):
            uug_like(seed=0, num_nodes=50, zipf_exponent=1.0)
        with pytest.raises(ValueError, match="max_plain_degree"):
            uug_like(seed=0, num_nodes=50, max_plain_degree=0)

    def test_hub_knobs_checked_against_graph_size(self):
        """Hubs and their followers are drawn without replacement: asking
        for more than there are nodes is reported by name, not from inside
        numpy — and before any draw, so valid arguments keep their tables."""
        with pytest.raises(ValueError, match="hub_degree.*num_nodes"):
            uug_like(num_nodes=120)  # default hub_degree=2000
        with pytest.raises(ValueError, match="num_hubs.*num_nodes"):
            uug_like(num_nodes=10, num_hubs=11, hub_degree=5)
        edge = uug_like(seed=3, num_nodes=40, num_hubs=40, hub_degree=40, feature_dim=4)
        assert len(edge.hub_ids) == 40


class TestGraphDataset:
    def test_split_overlap_rejected(self):
        nodes = NodeTable(np.arange(10), np.zeros((10, 2)), np.zeros(10, np.int64))
        edges = EdgeTable(np.array([0]), np.array([1]))
        with pytest.raises(ValueError):
            GraphDataset(
                "x", nodes, edges,
                {"train": np.array([1, 2]), "val": np.array([2]), "test": np.array([3])},
                "multiclass", 2,
            )

    def test_unknown_task_rejected(self):
        nodes = NodeTable(np.arange(3), np.zeros((3, 1)))
        edges = EdgeTable(np.array([0]), np.array([1]))
        with pytest.raises(ValueError):
            GraphDataset(
                "x", nodes, edges,
                {"train": np.array([0]), "val": np.array([1]), "test": np.array([2])},
                "ranking", 2,
            )

    def test_labels_of(self, mini_cora):
        ids = mini_cora.train_ids[:5]
        labels = mini_cora.labels_of(ids)
        assert labels.shape == (5,)


class TestTableIO:
    def test_node_table_round_trip(self, tmp_path, tiny_tables):
        nodes, _ = tiny_tables
        path = tmp_path / "nodes.tsv"
        write_node_table(path, nodes)
        back = read_node_table(path)
        np.testing.assert_array_equal(back.ids, nodes.ids)
        np.testing.assert_allclose(back.features, nodes.features)
        np.testing.assert_array_equal(back.labels, nodes.labels)

    def test_multilabel_round_trip(self, tmp_path):
        nodes = NodeTable(
            np.array([1, 2]),
            np.array([[0.5, 1.5], [2.5, 3.5]], dtype=np.float32),
            np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32),
        )
        path = tmp_path / "nodes.tsv"
        write_node_table(path, nodes)
        back = read_node_table(path)
        np.testing.assert_allclose(back.labels, nodes.labels)

    def test_edge_table_round_trip(self, tmp_path, tiny_tables):
        _, edges = tiny_tables
        path = tmp_path / "edges.tsv"
        write_edge_table(path, edges)
        back = read_edge_table(path)
        np.testing.assert_array_equal(back.src, edges.src)
        np.testing.assert_array_equal(back.dst, edges.dst)
        np.testing.assert_allclose(back.weights, edges.weights)
        np.testing.assert_allclose(back.features, edges.features)

    def test_malformed_row_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t0.5\n2\n")
        with pytest.raises(ValueError, match=":2"):
            read_node_table(path)

    def test_parsing_is_warning_free(self, tmp_path, tiny_tables):
        """Regression: the old ``np.fromstring`` parser emitted a
        ``DeprecationWarning`` on every TSV row."""
        import warnings

        nodes, edges = tiny_tables
        write_node_table(tmp_path / "nodes.tsv", nodes)
        write_edge_table(tmp_path / "edges.tsv", edges)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back_nodes = read_node_table(tmp_path / "nodes.tsv")
            back_edges = read_edge_table(tmp_path / "edges.tsv")
        np.testing.assert_allclose(back_nodes.features, nodes.features)
        np.testing.assert_allclose(back_edges.features, edges.features)
