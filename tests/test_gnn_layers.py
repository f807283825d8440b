"""GNN layers: ``forward`` against the per-node reference
(``tests/oracle.py``), gradients through aggregation, slice configs,
self-loops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor
from repro.nn.gnn import EdgeBlock, GATLayer, GCNLayer, GraphSAGELayer
from repro.nn.gnn.registry import build_layer

from .helpers import check_gradients
from .oracle import oracle_infer_node


def random_block(rng, n=9, m=28, weighted=True, edge_dim=0):
    src = rng.integers(0, n, m)
    dst = np.sort(rng.integers(0, n, m))
    weight = rng.uniform(0.5, 2.0, m).astype(np.float32) if weighted else None
    efeat = rng.standard_normal((m, edge_dim)).astype(np.float32) if edge_dim else None
    return EdgeBlock(src, dst, n, weight, efeat)


ALL_LAYERS = [
    lambda: GCNLayer(6, 4, seed=0),
    lambda: GCNLayer(6, 4, activation="elu", seed=1),
    lambda: GraphSAGELayer(6, 4, seed=0),
    lambda: GraphSAGELayer(6, 4, aggregator="sum", seed=1),
    lambda: GraphSAGELayer(6, 4, aggregator="max", seed=2),
    lambda: GraphSAGELayer(6, 4, combine="concat", seed=3),
    lambda: GATLayer(6, 4, num_heads=3, seed=0),
    lambda: GATLayer(6, 4, num_heads=3, concat_heads=False, seed=1),
]


class TestBatchInferEquivalence:
    @pytest.mark.parametrize("factory", ALL_LAYERS)
    def test_every_node_matches(self, factory, rng):
        layer = factory()
        block = random_block(rng)
        x = rng.standard_normal((block.num_nodes, 6)).astype(np.float32)
        batch_out = layer(Tensor(x), block).data
        for v in range(block.num_nodes):
            mask = block.dst == v
            got = oracle_infer_node(layer, x[v], x[block.src[mask]], block.weight[mask])
            np.testing.assert_allclose(got, batch_out[v], rtol=1e-4, atol=1e-5)

    def test_isolated_node(self, rng):
        """A node with no in-edges must still produce a defined embedding."""
        for factory in ALL_LAYERS:
            layer = factory()
            block = EdgeBlock(np.array([1]), np.array([2]), 4)  # node 0/3 isolated
            x = rng.standard_normal((4, 6)).astype(np.float32)
            batch_out = layer(Tensor(x), block).data
            got = oracle_infer_node(
                layer, x[0], np.zeros((0, 6), np.float32), np.zeros(0, np.float32)
            )
            np.testing.assert_allclose(got, batch_out[0], rtol=1e-4, atol=1e-5)

    def test_gcn_with_edge_features(self, rng):
        layer = GCNLayer(6, 4, edge_dim=3, seed=0)
        block = random_block(rng, edge_dim=3)
        x = rng.standard_normal((block.num_nodes, 6)).astype(np.float32)
        batch_out = layer(Tensor(x), block).data
        for v in range(block.num_nodes):
            mask = block.dst == v
            got = oracle_infer_node(
                layer, x[v], x[block.src[mask]], block.weight[mask], block.edge_feat[mask]
            )
            np.testing.assert_allclose(got, batch_out[v], rtol=1e-4, atol=1e-5)


class TestGradients:
    @pytest.mark.parametrize(
        "factory", [ALL_LAYERS[0], ALL_LAYERS[2], ALL_LAYERS[4], ALL_LAYERS[6]]
    )
    def test_input_and_weight_grads(self, factory, rng):
        layer = factory()
        block = random_block(rng, n=6, m=14)
        arrays = {"x": rng.standard_normal((6, 6)) * 0.5}

        def loss(t):
            return (layer(t["x"], block) ** 2).sum()

        check_gradients(loss, arrays)
        # and the layer's own parameters get gradients
        out = layer(Tensor(arrays["x"].astype(np.float32), requires_grad=True), block)
        (out**2).sum().backward()
        assert all(p.grad is not None for p in layer.parameters())


class TestSliceConfigs:
    @pytest.mark.parametrize("factory", ALL_LAYERS)
    def test_rebuild_reproduces_layer(self, factory, rng):
        layer = factory()
        clone = build_layer(layer.kind, layer.slice_config(), layer.state_dict())
        block = random_block(rng)
        x = rng.standard_normal((block.num_nodes, 6)).astype(np.float32)
        np.testing.assert_allclose(
            layer(Tensor(x), block).data, clone(Tensor(x), block).data, rtol=1e-6
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            build_layer("nope", {})


class TestEdgeBlock:
    def test_requires_sorted_dst(self):
        with pytest.raises(ValueError):
            EdgeBlock(np.array([0, 1]), np.array([1, 0]), 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            EdgeBlock(np.array([0]), np.array([5]), 2)

    def test_self_loops_added_and_sorted(self, rng):
        block = random_block(rng, n=5, m=10)
        aug = block.with_self_loops()
        assert aug.num_edges == block.num_edges + 5
        assert np.all(np.diff(aug.dst) >= 0)
        # every node has exactly one self edge
        self_edges = aug.src[aug.src == aug.dst]
        assert len(np.unique(self_edges)) == 5

    def test_self_loop_cache(self, rng):
        block = random_block(rng)
        assert block.with_self_loops() is block.with_self_loops()

    def test_in_degree_weights(self):
        block = EdgeBlock(
            np.array([0, 1, 2]), np.array([1, 1, 2]), 3, np.array([1.0, 2.0, 5.0], np.float32)
        )
        np.testing.assert_allclose(block.in_degree_weights(), [0.0, 3.0, 5.0])

    @given(
        n=st.integers(2, 12),
        m=st.integers(0, 40),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30)
    def test_gcn_row_stochastic_property(self, n, m, seed):
        """Property: with W = I (square), zero bias and no activation, each
        GCN output row is a convex combination of input rows — so outputs
        stay inside the per-column [min, max] envelope of the inputs."""
        rng = np.random.default_rng(seed)
        src = rng.integers(0, n, m)
        dst = np.sort(rng.integers(0, n, m))
        block = EdgeBlock(src, dst, n, rng.uniform(0.1, 3.0, m).astype(np.float32))
        layer = GCNLayer(4, 4, activation=None, seed=0)
        layer.weight.data[...] = np.eye(4, dtype=np.float32)
        layer.bias.data[...] = 0.0
        x = rng.standard_normal((n, 4)).astype(np.float32)
        out = layer(Tensor(x), block).data
        assert np.all(out <= x.max(axis=0) + 1e-4)
        assert np.all(out >= x.min(axis=0) - 1e-4)
