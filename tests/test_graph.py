"""Graph substrate: tables, CSR adjacency, GraphFeature merge, validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    AttributedGraph,
    EdgeTable,
    GraphFeature,
    GraphValidationError,
    NodeTable,
    validate_graph,
    validate_tables,
)
from repro.graph.subgraph import StackedFeatures, merge_stacked


def merge_graph_features(features):
    """The kernel's merge of ``features`` as one GraphFeature."""
    return GraphFeature(*merge_stacked(StackedFeatures.from_features(features))[:10])


class TestNodeTable:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            NodeTable(np.array([1, 1]), np.zeros((2, 3)))

    def test_index_of_vectorised(self):
        table = NodeTable(np.array([5, 9, 2]), np.zeros((3, 1)))
        np.testing.assert_array_equal(table.index_of([2, 5]), [2, 0])

    def test_index_of_missing_raises(self):
        table = NodeTable(np.array([5]), np.zeros((1, 1)))
        with pytest.raises(KeyError):
            table.index_of([7])

    def test_label_alignment_enforced(self):
        with pytest.raises(ValueError):
            NodeTable(np.array([1, 2]), np.zeros((2, 1)), labels=np.array([0]))

    def test_select_keeps_ids(self):
        table = NodeTable(np.array([5, 9, 2]), np.eye(3), labels=np.array([1, 0, 1]))
        sub = table.select([2, 0])
        np.testing.assert_array_equal(sub.ids, [2, 5])
        np.testing.assert_array_equal(sub.labels, [1, 1])


class TestEdgeTable:
    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValueError):
            EdgeTable(np.array([1]), np.array([2]), weights=np.array([0.0]))

    def test_symmetrize_doubles(self):
        table = EdgeTable(np.array([1, 2]), np.array([2, 3]))
        sym = EdgeTable.symmetrize(table)
        assert len(sym) == 4
        pairs = set(zip(sym.src.tolist(), sym.dst.tolist()))
        assert (3, 2) in pairs and (2, 1) in pairs

    def test_symmetrize_copies_features(self):
        table = EdgeTable(np.array([1]), np.array([2]), features=np.array([[7.0]]))
        sym = EdgeTable.symmetrize(table)
        np.testing.assert_allclose(sym.features, [[7.0], [7.0]])


class TestAttributedGraph:
    def test_in_out_neighbors(self, tiny_tables):
        graph = AttributedGraph(*tiny_tables)
        a = graph.index_of([10])[0]
        b, c = graph.index_of([11])[0], graph.index_of([12])[0]
        assert set(graph.in_neighbors(a).tolist()) == {b, c}
        e = graph.index_of([14])[0]
        assert set(graph.out_neighbors(a).tolist()) == {e}

    def test_degrees_total_edges(self, tiny_tables):
        graph = AttributedGraph(*tiny_tables)
        assert graph.in_degrees().sum() == graph.num_edges
        assert graph.out_degrees().sum() == graph.num_edges

    def test_dense_adjacency_weights(self, tiny_tables):
        graph = AttributedGraph(*tiny_tables)
        adj = graph.dense_adjacency()
        a, c = graph.index_of([10])[0], graph.index_of([12])[0]
        assert adj[a, c] == 2.0  # C -> A weight 2

    def test_k_hop_ancestors(self, tiny_tables):
        graph = AttributedGraph(*tiny_tables)
        a = graph.index_of([10])[0]
        keep, dist = graph.k_hop_ancestors([a], 2)
        found = {int(graph.node_ids[k]): int(d) for k, d in zip(keep, dist)}
        # A<-B, A<-C (1 hop); B<-D, C<-D (2 hops)
        assert found == {10: 0, 11: 1, 12: 1, 13: 2}

    def test_csr_matches_edge_list(self, rng):
        n, m = 30, 120
        nodes = NodeTable(np.arange(n), rng.standard_normal((n, 2)))
        edges = EdgeTable(rng.integers(0, n, m), rng.integers(0, n, m))
        graph = AttributedGraph(nodes, edges)
        for v in range(n):
            expected = np.sort(edges.src[edges.dst == v])
            np.testing.assert_array_equal(np.sort(graph.in_neighbors(v)), expected)


class TestValidation:
    def test_valid_tables_pass(self, tiny_tables):
        validate_tables(*tiny_tables)
        validate_graph(AttributedGraph(*tiny_tables))

    def test_missing_endpoint_reported(self):
        nodes = NodeTable(np.array([1]), np.zeros((1, 1)))
        edges = EdgeTable(np.array([1]), np.array([99]))
        with pytest.raises(GraphValidationError, match="destination"):
            validate_tables(nodes, edges)

    def test_nan_features_reported(self):
        nodes = NodeTable(np.array([1]), np.array([[np.nan]]))
        edges = EdgeTable(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        with pytest.raises(GraphValidationError, match="NaN"):
            validate_tables(nodes, edges)

    def test_multiple_problems_aggregated(self):
        nodes = NodeTable(np.array([1]), np.array([[np.nan]]))
        edges = EdgeTable(np.array([8]), np.array([9]))
        with pytest.raises(GraphValidationError) as err:
            validate_tables(nodes, edges)
        assert str(err.value).count(";") >= 2


class TestGraphFeature:
    def make(self, ids, targets, edges, hops=None):
        ids = np.asarray(ids)
        n = len(ids)
        hops = np.zeros(n, dtype=np.int64) if hops is None else np.asarray(hops)
        src = np.asarray([e[0] for e in edges], dtype=np.int64)
        dst = np.asarray([e[1] for e in edges], dtype=np.int64)
        return GraphFeature(targets, ids, np.eye(n, 3, dtype=np.float32), hops, src, dst)

    def test_target_must_be_present(self):
        with pytest.raises(ValueError):
            self.make([4, 5], [6], [])

    def test_edge_range_checked(self):
        with pytest.raises(ValueError):
            self.make([4, 5], [4], [(0, 9)])

    def test_target_index(self):
        gf = self.make([4, 5, 6], [6, 4], [])
        np.testing.assert_array_equal(gf.target_index, [2, 0])

    def test_sorted_by_destination(self):
        gf = self.make([4, 5, 6], [4], [(2, 1), (1, 0), (2, 0)])
        s = gf.sorted_by_destination()
        assert np.all(np.diff(s.edge_dst) >= 0)
        assert s.num_edges == 3

    def test_merge_dedupes_nodes_and_edges(self):
        a = self.make([1, 2], [1], [(1, 0)], hops=[0, 1])
        b = self.make([2, 3], [2], [(1, 0)], hops=[0, 1])  # edge 3->2
        merged = merge_graph_features([a, b])
        assert merged.num_nodes == 3
        assert merged.num_edges == 2
        np.testing.assert_array_equal(np.sort(merged.target_ids), [1, 2])

    def test_merge_takes_min_hops(self):
        a = self.make([1, 2], [1], [], hops=[0, 2])
        b = self.make([2], [2], [], hops=[0])
        merged = merge_graph_features([a, b])
        hop_of_2 = merged.hops[merged.node_ids == 2][0]
        assert hop_of_2 == 0  # node 2 is itself a target in b

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_graph_features([])

    @given(seed=st.integers(0, 2**16), parts=st.integers(2, 5))
    @settings(max_examples=25)
    def test_merge_node_set_is_union(self, seed, parts):
        rng = np.random.default_rng(seed)
        gfs = []
        for _ in range(parts):
            n = rng.integers(1, 8)
            ids = np.sort(rng.choice(40, size=n, replace=False))
            hops = rng.integers(0, 3, n)
            target_pos = rng.integers(0, n)
            hops[target_pos] = 0
            gfs.append(
                GraphFeature(
                    [ids[target_pos]],
                    ids,
                    rng.standard_normal((n, 2)).astype(np.float32),
                    hops,
                    np.zeros(0, np.int64),
                    np.zeros(0, np.int64),
                )
            )
        merged = merge_graph_features(gfs)
        union = sorted(set(int(i) for gf in gfs for i in gf.node_ids))
        assert merged.node_ids.tolist() == union
