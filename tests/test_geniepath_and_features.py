"""GeniePath (the ecosystem extension model) + new trainer features
(early stopping, checkpoint/resume) + the slice_cols op."""

import numpy as np
import pytest

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.infer import graph_infer
from repro.core.trainer import GraphTrainer, TrainerConfig
from repro.nn import Tensor, no_grad, ops
from repro.nn.gnn import BatchInputs, EdgeBlock, GeniePathLayer, GeniePathModel, build_model

from .helpers import check_gradients
from .oracle import oracle_infer_node


@pytest.fixture(scope="module")
def mini_cora():
    from repro.datasets import cora_like

    return cora_like(seed=7, num_nodes=250, num_edges=750)


def random_block(rng, n=9, m=26):
    src = rng.integers(0, n, m)
    dst = np.sort(rng.integers(0, n, m))
    return EdgeBlock(src, dst, n, rng.uniform(0.5, 2.0, m).astype(np.float32))


class TestSliceCols:
    def test_forward(self, rng):
        x = rng.standard_normal((4, 6)).astype(np.float32)
        np.testing.assert_allclose(ops.slice_cols(Tensor(x), 2, 5).data, x[:, 2:5])

    def test_grad_zero_pads(self, rng):
        arrays = {"x": rng.standard_normal((3, 5))}
        check_gradients(lambda t: (ops.slice_cols(t["x"], 1, 4) ** 2).sum(), arrays)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            ops.slice_cols(Tensor(np.zeros((2, 3))), 2, 5)


class TestGeniePathLayer:
    @pytest.mark.parametrize(
        "first,last", [(True, False), (False, False), (False, True), (True, True)]
    )
    def test_batch_matches_per_node(self, rng, first, last):
        d = 5
        in_dim = 7 if first else 2 * d
        layer = GeniePathLayer(in_dim, d, first=first, last=last, seed=0)
        block = random_block(rng)
        state = rng.standard_normal((block.num_nodes, in_dim)).astype(np.float32)
        out = layer(Tensor(state), block).data
        for v in range(block.num_nodes):
            mask = block.dst == v
            got = oracle_infer_node(layer, state[v], state[block.src[mask]], block.weight[mask])
            np.testing.assert_allclose(got, out[v], rtol=1e-4, atol=1e-5)

    def test_output_dims(self):
        assert GeniePathLayer(7, 5, first=True, seed=0).output_dim == 10
        assert GeniePathLayer(10, 5, last=True, seed=0).output_dim == 5

    def test_gradients_flow_to_all_parameters(self, rng):
        layer = GeniePathLayer(6, 4, first=True, seed=0)
        block = random_block(rng, n=6, m=15)
        x = Tensor(rng.standard_normal((6, 6)).astype(np.float32), requires_grad=True)
        (layer(x, block) ** 2).sum().backward()
        missing = [n for n, p in layer.named_parameters() if p.grad is None]
        assert not missing, f"no grad for {missing}"
        assert x.grad is not None

    def test_memory_accumulates_across_layers(self, rng):
        """The depth gate means layer t+1's output depends on layer t's
        memory, not just its h — zeroing C must change the result."""
        layer = GeniePathLayer(8, 4, seed=0)  # middle layer, in_dim = 2d
        block = random_block(rng, n=5, m=10)
        state = rng.standard_normal((5, 8)).astype(np.float32)
        zeroed = state.copy()
        zeroed[:, 4:] = 0.0
        with no_grad():
            a = layer(Tensor(state), block).data
            b = layer(Tensor(zeroed), block).data
        assert np.abs(a - b).max() > 1e-4


class TestGeniePathModel:
    def test_trains_on_cora(self, mini_cora):
        ds = mini_cora
        config = GraphFlatConfig(hops=2, max_neighbors=15, hub_threshold=10**9)
        train = graph_flat(ds.nodes, ds.edges, ds.train_ids, config).samples
        model = GeniePathModel(ds.feature_dim, 12, ds.num_classes, num_layers=2, seed=0)
        trainer = GraphTrainer(model, TrainerConfig(batch_size=8, epochs=12, lr=0.01))
        history = trainer.fit(train)
        assert history[-1]["loss"] < history[0]["loss"] * 0.7

    def test_graphinfer_equivalence(self, mini_cora):
        """The packed [h||C] state must ride GraphInfer without loss."""
        ds = mini_cora
        model = GeniePathModel(ds.feature_dim, 8, ds.num_classes, num_layers=2, seed=1)
        graph = ds.to_graph()
        in_ptr, in_src, in_eid = graph.in_csr
        dst = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), np.diff(in_ptr))
        block = EdgeBlock(in_src, dst, graph.num_nodes, graph.edges.weights[in_eid])
        batch = BatchInputs(
            graph.node_features, np.arange(graph.num_nodes), [block, block]
        )
        model.eval()
        with no_grad():
            ref = model(batch).data
        result = graph_infer(model, ds.nodes, ds.edges)
        for row, node_id in enumerate(graph.node_ids):
            np.testing.assert_allclose(
                result.scores[int(node_id)], ref[row], rtol=1e-3, atol=1e-4
            )

    def test_registry(self):
        model = build_model("geniepath", in_dim=4, hidden_dim=8, num_classes=2, seed=0)
        assert isinstance(model, GeniePathModel)
        assert len(model.layer_slices()) == model.num_layers + 1

    def test_targeted_inference_with_packed_state(self, mini_cora):
        """Receptive-field pruning must compose with the packed [h||C]
        state: subset scores equal the whole-graph run."""
        ds = mini_cora
        model = GeniePathModel(ds.feature_dim, 8, ds.num_classes, num_layers=2, seed=2)
        full = graph_infer(model, ds.nodes, ds.edges)
        targets = ds.test_ids[:8]
        subset = graph_infer(model, ds.nodes, ds.edges, targets=targets)
        assert subset.embedding_computations < full.embedding_computations
        for t in targets:
            np.testing.assert_allclose(
                subset.scores[int(t)], full.scores[int(t)], rtol=1e-5
            )


class TestEarlyStopping:
    def _fixture(self, mini_cora):
        ds = mini_cora
        config = GraphFlatConfig(hops=1, max_neighbors=15, hub_threshold=10**9)
        train = graph_flat(ds.nodes, ds.edges, ds.train_ids, config).samples
        val = graph_flat(ds.nodes, ds.edges, ds.val_ids[:25], config).samples
        return ds, train, val

    def test_stops_before_epoch_budget(self, mini_cora):
        ds, train, val = self._fixture(mini_cora)
        model = build_model("gcn", in_dim=ds.feature_dim, hidden_dim=8,
                            num_classes=ds.num_classes, num_layers=1, seed=0)
        trainer = GraphTrainer(
            model,
            TrainerConfig(batch_size=8, epochs=60, lr=0.05,
                          early_stopping_patience=2, seed=0),
        )
        history = trainer.fit(train, val_samples=val)
        assert len(history) < 60
        assert history[-1].get("early_stopped")

    def test_restores_best_parameters(self, mini_cora):
        ds, train, val = self._fixture(mini_cora)
        model = build_model("gcn", in_dim=ds.feature_dim, hidden_dim=8,
                            num_classes=ds.num_classes, num_layers=1, seed=0)
        trainer = GraphTrainer(
            model,
            TrainerConfig(batch_size=8, epochs=40, lr=0.05,
                          early_stopping_patience=3, seed=0),
        )
        history = trainer.fit(train, val_samples=val)
        best = max(h["val_metric"] for h in history)
        assert trainer.evaluate(val) == pytest.approx(best, abs=1e-9)

    def test_requires_validation_data(self, mini_cora):
        ds, train, _ = self._fixture(mini_cora)
        model = build_model("gcn", in_dim=ds.feature_dim, hidden_dim=8,
                            num_classes=ds.num_classes, num_layers=1, seed=0)
        trainer = GraphTrainer(
            model, TrainerConfig(epochs=2, early_stopping_patience=1)
        )
        with pytest.raises(ValueError):
            trainer.fit(train)


class TestCheckpointResume:
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_resume_is_bit_exact(self, mini_cora, tmp_path, optimizer):
        ds = mini_cora
        config = GraphFlatConfig(hops=1, max_neighbors=15, hub_threshold=10**9)
        train = graph_flat(ds.nodes, ds.edges, ds.train_ids, config).samples

        def make_trainer():
            model = build_model("gcn", in_dim=ds.feature_dim, hidden_dim=8,
                                num_classes=ds.num_classes, num_layers=1, seed=0)
            return GraphTrainer(
                model,
                TrainerConfig(batch_size=8, epochs=2, lr=0.02,
                              optimizer=optimizer, seed=5),
            )

        straight = make_trainer()
        straight.fit(train)  # 2 epochs
        straight.fit(train)  # 2 more (4 total)

        resumed = make_trainer()
        resumed.fit(train)
        resumed.save_checkpoint(tmp_path / "ckpt.pkl")
        fresh = make_trainer()
        fresh.load_checkpoint(tmp_path / "ckpt.pkl")
        fresh.fit(train)

        for (name, a), (_, b) in zip(
            straight.model.named_parameters(), fresh.model.named_parameters()
        ):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    def test_optimizer_kind_mismatch_rejected(self, mini_cora, tmp_path):
        ds = mini_cora
        model = build_model("gcn", in_dim=ds.feature_dim, hidden_dim=8,
                            num_classes=ds.num_classes, num_layers=1, seed=0)
        trainer = GraphTrainer(model, TrainerConfig(optimizer="adam"))
        trainer.save_checkpoint(tmp_path / "c.pkl")
        other = GraphTrainer(
            build_model("gcn", in_dim=ds.feature_dim, hidden_dim=8,
                        num_classes=ds.num_classes, num_layers=1, seed=0),
            TrainerConfig(optimizer="sgd"),
        )
        with pytest.raises(ValueError):
            other.load_checkpoint(tmp_path / "c.pkl")
