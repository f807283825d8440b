"""GraphTrainer machinery: vectorization, pruning (Equation 3 invariance),
edge partitioning (the sorted segment-sum kernel), prefetch pipeline."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.trainer import (
    BatchPipeline,
    GraphTrainer,
    TrainerConfig,
    as_sample_source,
    decode_samples,
    layer_edge_masks,
    partitioned_backend_factory,
    vectorize_batch,
)
from repro.nn import Tensor, no_grad, ops
from repro.nn.gnn import EdgeBlock, GATModel, GCNModel, build_model
from repro.utils.timer import TimerRegistry

from .helpers import model_digest


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


def _sorted_block(rng, n, m):
    """A destination-sorted block over ``n`` nodes, ``m`` edges."""
    dst = np.sort(rng.integers(0, n, m))
    return EdgeBlock(rng.integers(0, n, m), dst, n, sorted_kernel=True)


def _kernel_sum(vals, block):
    return ops.segment_sum(
        Tensor(vals), block.dst, block.num_nodes, row_offsets=block.row_offsets
    ).data


class TestEdgePartition:
    """Edge partitioning is the sorted segment-sum kernel over a block's
    destination rows: the scatter's sums in a fixed order, chunked without
    changing a bit."""

    def test_matches_scatter(self, rng):
        block = _sorted_block(rng, 60, 500)
        vals = rng.standard_normal((500, 7)).astype(np.float32)
        np.testing.assert_allclose(
            _kernel_sum(vals, block), ops.scatter_sum(vals, block.dst, 60),
            rtol=1e-5, atol=1e-6,
        )

    def test_3d_values(self, rng):
        block = _sorted_block(rng, 20, 120)
        vals = rng.standard_normal((120, 4, 2)).astype(np.float32)
        np.testing.assert_allclose(
            _kernel_sum(vals, block), ops.scatter_sum(vals, block.dst, 20),
            rtol=1e-5, atol=1e-6,
        )

    def test_empty_edges(self):
        block = EdgeBlock(np.zeros(0, np.int64), np.zeros(0, np.int64), 7)
        np.testing.assert_array_equal(block.row_offsets, [0])
        out = _kernel_sum(np.zeros((0, 3), np.float32), block)
        np.testing.assert_array_equal(out, np.zeros((7, 3)))

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted by destination"):
            EdgeBlock(np.zeros(3, np.int64), np.array([2, 0, 1]), 3)

    def test_row_offsets_of_another_block_rejected(self, rng):
        """The self-loop block has its own row offsets; summing its values
        over its base's offsets is refused, never computed."""
        block = _sorted_block(rng, 8, 30)
        aug = block.with_self_loops()
        step = np.diff(aug.dst)
        assert (step >= 0).all() and aug.sorted_kernel
        np.testing.assert_array_equal(
            aug.row_offsets, np.concatenate([[0], np.flatnonzero(step) + 1, [aug.num_edges]])
        )
        vals = rng.standard_normal((aug.num_edges, 3)).astype(np.float32)
        with pytest.raises(ValueError, match="belong to another block"):
            ops.segment_sum(Tensor(vals), aug.dst, 8, row_offsets=block.row_offsets)

    def test_gat_forward_same_with_kernel(self, cora_samples):
        feature_dim = cora_samples[0].graph_feature.feature_dim
        model = GATModel(feature_dim, 6, 4, num_layers=2, seed=0)
        model.eval()
        plain, _ = vectorize_batch(cora_samples[:8], 2, pruning=True)
        fast, _ = vectorize_batch(cora_samples[:8], 2, pruning=True, edge_partition=True)
        assert not plain.layer_blocks[0].sorted_kernel and fast.layer_blocks[0].sorted_kernel
        with no_grad():
            np.testing.assert_allclose(
                model(plain).data, model(fast).data, rtol=1e-4, atol=1e-5
            )

    def test_partitioned_backend_factory_turns_the_kernel_on(self, cora_samples):
        """The old factory spelling still selects the kernel; its partition
        and thread counts are checked and change nothing."""
        fast, _ = vectorize_batch(cora_samples[:8], 2, edge_partition=True)
        old, _ = vectorize_batch(
            cora_samples[:8], 2, aggregator_factory=partitioned_backend_factory(4, 1)
        )
        for g, w in zip(old.layer_blocks, fast.layer_blocks):
            assert g.sorted_kernel and w.sorted_kernel
            np.testing.assert_array_equal(g.row_offsets, w.row_offsets)
        for bad in (dict(num_partitions=0), dict(threads=0)):
            with pytest.raises(ValueError, match=next(iter(bad))):
                partitioned_backend_factory(**bad)

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 40),
        m=st.integers(0, 300),
        width=st.integers(1, 5),
        chunk=st.sampled_from(["one", "mid", "beyond"]),
    )
    @settings(max_examples=60)
    def test_chunks_equal_one_reduceat_bit_for_bit(self, seed, n, m, width, chunk):
        """Chunks of 1, of about half the rows, and of more rows than the
        block has all give the bits of one unchunked ``np.add.reduceat`` —
        destinations without edges included (they stay zero)."""
        rng = np.random.default_rng(seed)
        block = _sorted_block(rng, n, m)
        vals = rng.standard_normal((m, width)).astype(np.float32)
        starts = block.row_offsets[:-1]
        want = np.zeros((n, width), np.float32)
        if len(starts):
            want[block.dst[starts]] = np.add.reduceat(vals, starts, axis=0)
        size = {"one": 1, "mid": max(1, len(starts) // 2), "beyond": len(starts) + 1}[chunk]
        with mock.patch.object(ops, "SEGMENT_ROWS", size):
            got = _kernel_sum(vals, block)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("pruning", [True, False])
    @pytest.mark.parametrize("name", ["gcn", "graphsage", "gat", "geniepath"])
    def test_fit_bits_do_not_depend_on_the_chunk(self, cora_samples, mini_cora, name, pruning):
        feature_dim = cora_samples[0].graph_feature.feature_dim

        def run():
            model = build_model(
                name, in_dim=feature_dim, hidden_dim=6,
                num_classes=mini_cora.num_classes, num_layers=2, seed=0,
            )
            config = TrainerConfig(batch_size=6, epochs=2, seed=1, pruning=pruning)
            history = GraphTrainer(model, config).fit(cora_samples)
            return [entry["loss"] for entry in history], model_digest(model)

        with mock.patch.object(ops, "SEGMENT_ROWS", 1):
            one_row = run()
        with mock.patch.object(ops, "SEGMENT_ROWS", 10**9):
            whole = run()
        assert one_row == whole == run()


class TestBatchPipeline:
    def _batches(self, cora_samples):
        source = as_sample_source(cora_samples)
        order = np.arange(len(source))
        return [source.batch(order[i : i + 6]) for i in range(0, len(source), 6)]

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
        source = as_sample_source(res.samples)
        out = list(BatchPipeline([source.batch(np.arange(len(source)))], 1))
        assert len(out) == 1
        assert out[0][1] is not None

    def test_producer_errors_surface(self, cora_samples):
        empty = as_sample_source(cora_samples).batch([])
        with pytest.raises(ValueError):
            list(BatchPipeline([empty], 2, enabled=True))

    def test_preprocess_time_recorded(self, cora_samples):
        timers = TimerRegistry()
        batches = self._batches(cora_samples)
        list(BatchPipeline(batches, 2, timers=timers))
        assert timers["preprocess"].count == len(batches)
        assert timers["preprocess"].total > 0
