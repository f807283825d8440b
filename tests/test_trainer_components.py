"""GraphTrainer machinery: vectorization, pruning (Equation 3 invariance),
edge partitioning (backend equivalence + balance), prefetch pipeline."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.trainer import (
    BatchPipeline,
    GraphTrainer,
    TrainerConfig,
    EdgePartitionAggregator,
    decode_samples,
    layer_edge_masks,
    partitioned_backend_factory,
    vectorize_batch,
)
from repro.nn import Tensor, no_grad
from repro.nn.gnn import EdgeBlock, GATModel, GCNModel
from repro.core.trainer import partition
from repro.nn.ops import scatter_add_backend
from repro.utils.timer import TimerRegistry


@pytest.fixture(scope="module")
def cora_samples(mini_cora):
    ds = mini_cora
    config = GraphFlatConfig(hops=2, max_neighbors=10**9, hub_threshold=10**9)
    res = graph_flat(ds.nodes, ds.edges, ds.train_ids[:24], config)
    return decode_samples(res.samples)


# conftest fixtures are function-scoped by default; redeclare session dataset
@pytest.fixture(scope="module")
def mini_cora():
    from repro.datasets import cora_like

    return cora_like(seed=7, num_nodes=300, num_edges=900)


class TestVectorize:
    def test_three_matrices_contract(self, cora_samples):
        batch, labels = vectorize_batch(cora_samples[:8], num_layers=2)
        block = batch.layer_blocks[0]
        assert np.all(np.diff(block.dst) >= 0)  # sorted by destination
        assert batch.x.shape[0] == block.num_nodes
        assert labels.shape == (len(batch.target_index),)

    def test_target_rows_match_features(self, cora_samples):
        samples = cora_samples[:6]
        batch, labels = vectorize_batch(samples, num_layers=2)
        by_id = {s.target_id: s for s in samples}
        merged_ids = np.sort([s.target_id for s in samples])
        for row, tid in zip(batch.target_index, merged_ids):
            gf = by_id[int(tid)]
            np.testing.assert_allclose(
                batch.x[row], gf.graph_feature.x[gf.graph_feature.target_index[0]]
            )
            assert labels[list(merged_ids).index(tid)] == by_id[int(tid)].label

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            vectorize_batch([], num_layers=2)

    def test_no_pruning_shares_single_block(self, cora_samples):
        batch, _ = vectorize_batch(cora_samples[:4], num_layers=3, pruning=False)
        assert batch.layer_blocks[0] is batch.layer_blocks[1] is batch.layer_blocks[2]


class TestPruning:
    def test_masks_monotone_and_last_layer_targets_only(self, cora_samples):
        batch, _ = vectorize_batch(cora_samples[:8], num_layers=2, pruning=True)
        b0, b1 = batch.layer_blocks
        assert b1.num_edges <= b0.num_edges
        # last layer only aggregates into targets (hop 0)
        target_rows = set(batch.target_index.tolist())
        assert set(b1.dst.tolist()) <= target_rows

    def test_first_layer_keeps_all_edges(self, cora_samples):
        """For a K-hop neighborhood and a K-layer model, layer 0 prunes
        nothing (every edge destination is within K-1 hops)."""
        batch_p, _ = vectorize_batch(cora_samples[:8], num_layers=2, pruning=True)
        batch_f, _ = vectorize_batch(cora_samples[:8], num_layers=2, pruning=False)
        assert batch_p.layer_blocks[0].num_edges == batch_f.layer_blocks[0].num_edges

    def test_one_layer_model_pruning_is_noop(self, mini_cora):
        """Table 4: 'the pruning strategy won't work in 1-layer models' —
        on 1-hop neighborhoods every edge already points at a target."""
        ds = mini_cora
        res = graph_flat(
            ds.nodes,
            ds.edges,
            ds.train_ids[:10],
            GraphFlatConfig(hops=1, max_neighbors=10**9, hub_threshold=10**9),
        )
        samples = decode_samples(res.samples)
        pruned, _ = vectorize_batch(samples, num_layers=1, pruning=True)
        full, _ = vectorize_batch(samples, num_layers=1, pruning=False)
        assert pruned.layer_blocks[0].num_edges == full.layer_blocks[0].num_edges

    @pytest.mark.parametrize("model_cls", [GCNModel, GATModel])
    def test_equation3_target_logits_unchanged(self, cora_samples, model_cls):
        """The theorem behind Equation 3: pruning never changes target
        outputs, only drops computation that could not reach them."""
        samples = cora_samples[:10]
        feature_dim = samples[0].graph_feature.feature_dim
        model = model_cls(feature_dim, 8, 5, num_layers=2, seed=0)
        model.eval()
        batch_p, _ = vectorize_batch(samples, num_layers=2, pruning=True)
        batch_f, _ = vectorize_batch(samples, num_layers=2, pruning=False)
        with no_grad():
            np.testing.assert_allclose(
                model(batch_p).data, model(batch_f).data, rtol=1e-4, atol=1e-5
            )

    def test_layer_edge_masks_validation(self):
        with pytest.raises(ValueError):
            layer_edge_masks(np.zeros(3, np.int64), np.zeros(3, np.int64), 0)


class TestEdgePartition:
    def test_matches_scatter_backend(self, rng):
        m, n, f = 500, 60, 7
        dst = np.sort(rng.integers(0, n, m))
        vals = rng.standard_normal((m, f)).astype(np.float32)
        agg = EdgePartitionAggregator(dst, num_partitions=4)
        np.testing.assert_allclose(
            agg(vals, dst, n), scatter_add_backend(vals, dst, n), rtol=1e-5, atol=1e-6
        )

    def test_threaded_matches_serial(self, rng):
        m, n = 400, 30
        dst = np.sort(rng.integers(0, n, m))
        vals = rng.standard_normal((m, 3)).astype(np.float32)
        serial = EdgePartitionAggregator(dst, 4, threads=1)(vals, dst, n)
        threaded = EdgePartitionAggregator(dst, 4, threads=3)(vals, dst, n)
        np.testing.assert_allclose(serial, threaded)

    def test_one_shared_pool_per_process_and_size(
        self, rng, monkeypatch, mini_cora, cora_samples
    ):
        """Aggregators (two per batch, one per rebind, one per unpickle)
        share one lazily built pool: a trainer epoch builds at most one,
        and a threaded aggregator still equals the serial one bit for bit."""
        built = []

        class CountingPool(partition.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(partition, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(partition, "_pools", {})
        feature_dim = cora_samples[0].graph_feature.feature_dim
        trainer = GraphTrainer(
            GATModel(feature_dim, 6, mini_cora.num_classes, num_layers=2, seed=0),
            TrainerConfig(batch_size=6, epochs=1, partition_threads=3),
        )
        trainer.train_epoch(cora_samples)
        assert built == [3]

        dst = np.sort(rng.integers(0, 30, 400))
        vals = rng.standard_normal((400, 3)).astype(np.float32)
        agg = pickle.loads(pickle.dumps(EdgePartitionAggregator(dst, 4, threads=3)))
        out = agg(vals, dst, 30)
        assert np.array_equal(out, EdgePartitionAggregator(dst, 4)(vals, dst, 30))
        np.testing.assert_allclose(out, scatter_add_backend(vals, dst, 30), rtol=1e-5, atol=1e-6)
        assert built == [3]

    def test_3d_values(self, rng):
        m, n = 120, 20
        dst = np.sort(rng.integers(0, n, m))
        vals = rng.standard_normal((m, 4, 2)).astype(np.float32)
        agg = EdgePartitionAggregator(dst, 3)
        np.testing.assert_allclose(
            agg(vals, dst, n), scatter_add_backend(vals, dst, n), rtol=1e-5, atol=1e-6
        )

    def test_partitions_never_split_a_destination(self, rng):
        dst = np.sort(rng.integers(0, 50, 1000))
        agg = EdgePartitionAggregator(dst, num_partitions=8)
        seen: set[int] = set()
        for lo, hi, _, rows in agg._parts:
            rows_set = set(rows.tolist())
            assert not rows_set & seen  # conflict-free guarantee
            seen |= rows_set

    def test_balance_within_factor_two(self, rng):
        dst = np.sort(rng.integers(0, 200, 4000))
        sizes = EdgePartitionAggregator(dst, 8).partition_sizes()
        assert len(sizes) == 8
        assert max(sizes) <= 2 * (4000 // 8)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            EdgePartitionAggregator(np.array([3, 1, 2]))

    def test_layout_mismatch_rejected(self, rng):
        dst = np.sort(rng.integers(0, 5, 20))
        agg = EdgePartitionAggregator(dst, 2)
        with pytest.raises(ValueError, match="rebind"):
            agg(np.ones((5, 1), np.float32), dst[:5], 5)

    def test_empty_edges(self):
        agg = EdgePartitionAggregator(np.zeros(0, np.int64), 4)
        out = agg(np.zeros((0, 3), np.float32), np.zeros(0, np.int64), 7)
        np.testing.assert_allclose(out, np.zeros((7, 3)))

    def test_rebind_for_self_loops(self, rng):
        dst = np.sort(rng.integers(0, 8, 30))
        src = rng.integers(0, 8, 30)
        block = EdgeBlock(src, dst, 8)
        block.aggregator = EdgePartitionAggregator(block.dst, 4)
        aug = block.with_self_loops()
        assert aug.aggregator is not block.aggregator
        assert aug.aggregator.num_edges == aug.num_edges

    def test_gat_forward_same_with_partitioned_backend(self, cora_samples):
        feature_dim = cora_samples[0].graph_feature.feature_dim
        model = GATModel(feature_dim, 6, 4, num_layers=2, seed=0)
        model.eval()
        plain, _ = vectorize_batch(cora_samples[:8], 2, pruning=True)
        fast, _ = vectorize_batch(
            cora_samples[:8], 2, pruning=True,
            aggregator_factory=partitioned_backend_factory(4),
        )
        with no_grad():
            np.testing.assert_allclose(
                model(plain).data, model(fast).data, rtol=1e-4, atol=1e-5
            )

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 40),
        m=st.integers(0, 300),
        parts=st.integers(1, 9),
    )
    @settings(max_examples=40)
    def test_property_equivalence(self, seed, n, m, parts):
        """Property: any partitioning of any layout equals the scatter
        reference — partitioning is purely a performance choice."""
        rng = np.random.default_rng(seed)
        dst = np.sort(rng.integers(0, n, m))
        vals = rng.standard_normal((m, 2)).astype(np.float32)
        agg = EdgePartitionAggregator(dst, parts)
        np.testing.assert_allclose(
            agg(vals, dst, n), scatter_add_backend(vals, dst, n), rtol=1e-4, atol=1e-5
        )


class TestBatchPipeline:
    def _batches(self, cora_samples):
        return [cora_samples[i : i + 6] for i in range(0, len(cora_samples), 6)]

    def test_pipelined_equals_sequential(self, cora_samples):
        batches = self._batches(cora_samples)
        seq = list(BatchPipeline(batches, 2, enabled=False))
        par = list(BatchPipeline(batches, 2, enabled=True))
        assert len(seq) == len(par) == len(batches)
        for (b1, l1), (b2, l2) in zip(seq, par):
            np.testing.assert_allclose(b1.x, b2.x)
            np.testing.assert_array_equal(l1, l2)

    def test_decodes_raw_bytes(self, mini_cora):
        ds = mini_cora
        res = graph_flat(
            ds.nodes, ds.edges, ds.train_ids[:6],
            GraphFlatConfig(hops=1, max_neighbors=10**9, hub_threshold=10**9),
        )
        out = list(BatchPipeline([res.samples], 1))
        assert len(out) == 1
        assert out[0][1] is not None

    def test_producer_errors_surface(self):
        with pytest.raises(ValueError):
            list(BatchPipeline([[]], 2, enabled=True))  # empty batch

    def test_preprocess_time_recorded(self, cora_samples):
        timers = TimerRegistry()
        batches = self._batches(cora_samples)
        list(BatchPipeline(batches, 2, timers=timers))
        assert timers["preprocess"].count == len(batches)
        assert timers["preprocess"].total > 0
