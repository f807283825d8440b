"""GraphTrainer loop: convergence, optimization-flag invariance, PS parity,
prediction/evaluation plumbing."""

import threading

import numpy as np
import pytest

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.trainer import BatchPipeline, GraphTrainer, TrainerConfig
from repro.core.trainer.pipeline import QUEUE_DEPTH, BatchPreparer
from repro.nn.gnn import GCNModel, GraphSAGEModel
from repro.ps import ParameterServerGroup
from repro.utils.timer import TimerRegistry

from .helpers import WIDE_BATCH, model_digest, wide_model, wide_training_set


@pytest.fixture(scope="module")
def mini_cora():
    from repro.datasets import cora_like

    return cora_like(seed=7, num_nodes=300, num_edges=900)


@pytest.fixture(scope="module")
def cora_flat(mini_cora):
    ds = mini_cora
    config = GraphFlatConfig(hops=2, max_neighbors=30, hub_threshold=10**9)
    train = graph_flat(ds.nodes, ds.edges, ds.train_ids, config).samples
    val = graph_flat(ds.nodes, ds.edges, ds.val_ids, config).samples
    return train, val


def make_model(ds, seed=0):
    return GCNModel(ds.feature_dim, 12, ds.num_classes, num_layers=2, seed=seed)


class TestConvergence:
    def test_loss_decreases_and_accuracy_beats_chance(self, mini_cora, cora_flat):
        train, val = cora_flat
        trainer = GraphTrainer(
            make_model(mini_cora),
            TrainerConfig(batch_size=8, epochs=15, lr=0.01, seed=0),
        )
        history = trainer.fit(train, val_samples=val)
        assert history[-1]["loss"] < history[0]["loss"] * 0.5
        assert history[-1]["val_metric"] > 2.0 / mini_cora.num_classes

    def test_multilabel_task(self, mini_ppi):
        ds = mini_ppi
        config = GraphFlatConfig(hops=1, max_neighbors=15, hub_threshold=10**9)
        train = graph_flat(ds.nodes, ds.edges, ds.train_ids[:80], config).samples
        model = GraphSAGEModel(ds.feature_dim, 16, ds.num_classes, num_layers=1, seed=0)
        trainer = GraphTrainer(
            model, TrainerConfig(batch_size=16, epochs=8, lr=0.01, task="multilabel")
        )
        history = trainer.fit(train)
        assert history[-1]["loss"] < history[0]["loss"]
        assert 0.0 <= trainer.evaluate(train) <= 1.0

    def test_binary_auc_improves(self, mini_uug):
        ds = mini_uug
        config = GraphFlatConfig(hops=1, max_neighbors=10, hub_threshold=50)
        train = graph_flat(ds.nodes, ds.edges, ds.train_ids[:150], config).samples
        val = graph_flat(ds.nodes, ds.edges, ds.val_ids, config).samples
        model = GCNModel(ds.feature_dim, 8, 2, num_layers=1, seed=0)
        trainer = GraphTrainer(
            model, TrainerConfig(batch_size=32, epochs=10, lr=0.02, task="binary")
        )
        trainer.fit(train)
        assert trainer.evaluate(val) > 0.6


class TestOptimizationFlagInvariance:
    """Table 4's strategies must change speed, never results."""

    @pytest.mark.parametrize(
        "flags",
        [
            dict(pruning=False, edge_partition=False, pipeline=False),
            dict(pruning=True, edge_partition=False, pipeline=False),
            dict(pruning=False, edge_partition=True, pipeline=True),
            dict(pruning=True, edge_partition=True, pipeline=True),
        ],
    )
    def test_same_training_trajectory(self, mini_cora, cora_flat, flags):
        train, _ = cora_flat
        trainer = GraphTrainer(
            make_model(mini_cora, seed=5),
            TrainerConfig(batch_size=8, epochs=2, lr=0.01, seed=9, **flags),
        )
        history = trainer.fit(train[:40])
        # identical seeds + flag-invariant math -> identical losses
        baseline = GraphTrainer(
            make_model(mini_cora, seed=5),
            TrainerConfig(batch_size=8, epochs=2, lr=0.01, seed=9),
        ).fit(train[:40])
        for ours, ref in zip(history, baseline):
            assert ours["loss"] == pytest.approx(ref["loss"], rel=1e-4)

    @pytest.mark.parametrize(
        "flags",
        [
            dict(pipeline=True),
            dict(pipeline=True, prefetch_backend="processes", prefetch_workers=2),
        ],
    )
    def test_exact_trajectory_at_blas_width(self, flags):
        """Batches of 300+ nodes at hidden 32, where BLAS would multithread
        its products: the pipeline switch and the prefetch hand-off change
        no bit of the loss trajectory or the model against the default,
        inline preprocessing."""
        _, samples = wide_training_set()

        def run(**flags):
            model = wide_model()
            config = TrainerConfig(batch_size=WIDE_BATCH, epochs=2, seed=3, **flags)
            history = GraphTrainer(model, config).fit(samples)
            return [entry["loss"] for entry in history], model_digest(model)

        assert run(**flags) == run()


class TestPreprocessingThreads:
    """Where preprocessing runs: inline on the training thread by default,
    on one producer thread with ``pipeline=True``."""

    @staticmethod
    def thread_names_seen(trainer) -> set[str]:
        """Names of every live thread at each optimizer step and model
        call of ``trainer``."""
        seen: set[str] = set()

        def record(fn):
            def call(*args, **kwargs):
                seen.update(thread.name for thread in threading.enumerate())
                return fn(*args, **kwargs)
            return call

        trainer.optimizer.step = record(trainer.optimizer.step)
        trainer.model.forward = record(trainer.model.forward)
        return seen

    @pytest.mark.parametrize("pipeline", [None, True], ids=["default", "pipeline"])
    def test_no_prefetch_thread_by_default(self, mini_cora, cora_flat, pipeline):
        train, val = cora_flat
        flags = {} if pipeline is None else {"pipeline": pipeline}
        # More batches than the queue holds plus one: a producer thread is
        # certainly still alive when the first batch trains.
        assert len(train) > 2 * (QUEUE_DEPTH + 1)
        trainer = GraphTrainer(
            make_model(mini_cora), TrainerConfig(batch_size=2, epochs=2, **flags)
        )
        seen = self.thread_names_seen(trainer)
        trainer.fit(train, val_samples=val[:24])
        trainer.evaluate(val[:24])
        trainer.predict(val[:24])
        # the "pipeline" arm shows the probe sees the thread when it runs
        assert ("agl-preprocess" in seen) == bool(pipeline)

    def test_one_producer_one_interval_per_window(self, mini_cora, cora_flat, monkeypatch):
        """``threads`` x 1 is the pool producer with one worker: every
        window is prepared on that one thread, and the preprocess timer gets
        one ``(start, stop)`` interval per window, in window order."""
        train, _ = cora_flat
        calls = {"pool": 0, "sequential": 0}
        prepared_on: set[str] = set()

        def counted(name, real):
            def call(self):
                calls[name] += 1
                return real(self)
            return call

        def prepare(self, window):
            prepared_on.add(threading.current_thread().name)
            return real_prepare(self, window)

        real_prepare = BatchPreparer.__call__
        monkeypatch.setattr(BatchPreparer, "__call__", prepare)
        for name in calls:
            real = getattr(BatchPipeline, f"_iter_{name}")
            monkeypatch.setattr(BatchPipeline, f"_iter_{name}", counted(name, real))
        trainer = GraphTrainer(
            make_model(mini_cora),
            TrainerConfig(batch_size=2, epochs=1, pipeline=True, prefetch_workers=1),
        )
        trainer.timers = TimerRegistry(keep_intervals=True)
        trainer.fit(train)
        batches = -(-len(train) // 2)
        windows = -(-batches // QUEUE_DEPTH)
        assert windows > 1
        assert calls == {"pool": 1, "sequential": 0}
        assert prepared_on == {"agl-preprocess"}
        timer = trainer.timers["preprocess"]
        assert timer.count == batches
        assert len(timer.intervals) == windows
        flat = [t for interval in timer.intervals for t in interval]
        assert flat == sorted(flat)
        assert timer.total == pytest.approx(sum(b - a for a, b in timer.intervals))


class TestPSParity:
    def test_single_async_worker_matches_standalone(self, mini_cora, cora_flat):
        """One async PS worker applies exactly the same Adam sequence as the
        standalone optimizer — numerical parity checks the PS wiring."""
        train, _ = cora_flat
        subset = train[:32]
        standalone = GraphTrainer(
            make_model(mini_cora, seed=3),
            TrainerConfig(batch_size=8, epochs=2, lr=0.01, seed=3, shuffle=False),
        )
        standalone.fit(subset)

        model = make_model(mini_cora, seed=3)
        group = ParameterServerGroup(num_servers=3, num_workers=1, lr=0.01, mode="async")
        group.initialize(model.state_dict())
        ps_trainer = GraphTrainer(
            model,
            TrainerConfig(batch_size=8, epochs=2, lr=0.01, seed=3, shuffle=False),
            ps_client=group.client(0),
        )
        ps_trainer.fit(subset)
        final = group.pull()
        for name, value in standalone.model.state_dict().items():
            np.testing.assert_allclose(final[name], value, rtol=1e-4, atol=1e-5)


class TestPlumbing:
    def test_predict_returns_aligned_ids(self, cora_flat):
        train, _ = cora_flat
        trainer = GraphTrainer(
            make_model_from(train), TrainerConfig(batch_size=16, epochs=0)
        )
        ids, logits = trainer.predict(train[:20])
        assert len(ids) == logits.shape[0]
        from repro.core.trainer import decode_samples

        expected = {s.target_id for s in decode_samples(train[:20])}
        assert set(ids.tolist()) == expected

    def test_empty_training_rejected(self, mini_cora):
        trainer = GraphTrainer(make_model(mini_cora), TrainerConfig())
        with pytest.raises(ValueError):
            trainer.train_epoch([])

    def test_bad_config(self):
        with pytest.raises(ValueError):
            TrainerConfig(task="regression")
        with pytest.raises(ValueError):
            TrainerConfig(optimizer="lbfgs")
        with pytest.raises(ValueError):
            TrainerConfig(batch_size=0)

    def test_timers_capture_both_stages(self, mini_cora, cora_flat):
        train, _ = cora_flat
        trainer = GraphTrainer(
            make_model(mini_cora), TrainerConfig(batch_size=8, epochs=1)
        )
        trainer.fit(train[:32])
        totals = trainer.timers.totals()
        assert totals["preprocess"] > 0 and totals["compute"] > 0


class TestCheckpointResume:
    """save_checkpoint/load_checkpoint through a real file: resuming
    mid-``fit`` must reproduce the uninterrupted run exactly — model,
    optimizer state and the data-order RNG all round-trip."""

    def _trainer(self, mini_cora, epochs):
        return GraphTrainer(
            make_model(mini_cora, seed=11),
            TrainerConfig(batch_size=8, epochs=epochs, lr=0.01, seed=13),
        )

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_resume_mid_fit_matches_uninterrupted(
        self, mini_cora, cora_flat, tmp_path, optimizer
    ):
        train, _ = cora_flat
        subset = train[:48]

        straight = GraphTrainer(
            make_model(mini_cora, seed=11),
            TrainerConfig(batch_size=8, epochs=4, lr=0.01, seed=13, optimizer=optimizer),
        )
        straight.fit(subset)

        first = GraphTrainer(
            make_model(mini_cora, seed=11),
            TrainerConfig(batch_size=8, epochs=2, lr=0.01, seed=13, optimizer=optimizer),
        )
        first.fit(subset)
        first.save_checkpoint(tmp_path / "ckpt.pkl")

        resumed = GraphTrainer(
            make_model(mini_cora, seed=99),  # different init: must be overwritten
            TrainerConfig(batch_size=8, epochs=2, lr=0.01, seed=13, optimizer=optimizer),
        )
        resumed.load_checkpoint(tmp_path / "ckpt.pkl")
        assert [h["loss"] for h in resumed.history] == [
            h["loss"] for h in straight.history[:2]
        ]
        resumed.fit(subset)  # two more epochs from the restored RNG state

        assert [h["loss"] for h in resumed.history] == [
            h["loss"] for h in straight.history
        ]
        for name, value in straight.model.state_dict().items():
            np.testing.assert_array_equal(resumed.model.state_dict()[name], value)

    def test_optimizer_kind_mismatch_rejected(self, mini_cora, cora_flat, tmp_path):
        train, _ = cora_flat
        adam = self._trainer(mini_cora, epochs=1)
        adam.fit(train[:16])
        adam.save_checkpoint(tmp_path / "ckpt.pkl")
        sgd = GraphTrainer(
            make_model(mini_cora),
            TrainerConfig(batch_size=8, epochs=1, optimizer="sgd"),
        )
        with pytest.raises(ValueError):
            sgd.load_checkpoint(tmp_path / "ckpt.pkl")


def make_model_from(records):
    """Build a model whose input dim matches the decoded samples."""
    from repro.core.trainer import decode_samples

    sample = decode_samples(records[:1])[0]
    return GCNModel(sample.graph_feature.feature_dim, 12, 7, num_layers=2, seed=0)
