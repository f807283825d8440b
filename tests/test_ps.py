"""Parameter servers: sharding, consistency modes, distributed training,
and the calibrated speedup simulator."""

import threading

import numpy as np
import pytest

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.trainer import TrainerConfig
from repro.nn.gnn import GCNModel
from repro.ps import (
    ClusterModel,
    DistributedConfig,
    DistributedTrainer,
    ParameterServerGroup,
    simulate_speedup,
)
from repro.ps.simulate import simulate_epoch_seconds


def small_state(rng=None):
    rng = rng or np.random.default_rng(0)
    return {
        "layer.weight": rng.standard_normal((4, 3)).astype(np.float32),
        "layer.bias": np.zeros(3, dtype=np.float32),
        "head.weight": rng.standard_normal((3, 2)).astype(np.float32),
    }


class TestServerGroup:
    def test_pull_returns_initial_state(self):
        group = ParameterServerGroup(num_servers=3, num_workers=1)
        state = small_state()
        group.initialize(state)
        pulled = group.pull()
        assert set(pulled) == set(state)
        for name in state:
            np.testing.assert_allclose(pulled[name], state[name])

    def test_params_spread_across_shards(self):
        group = ParameterServerGroup(num_servers=2, num_workers=1)
        group.initialize(small_state())
        held = [len(s.values) for s in group.shards]
        assert sum(held) == 3

    def test_push_moves_parameters(self):
        group = ParameterServerGroup(num_servers=2, num_workers=1, lr=0.1)
        group.initialize(small_state())
        grads = {name: np.ones_like(v) for name, v in group.pull().items()}
        before = group.pull()
        group.push(0, grads)
        after = group.pull()
        assert any(np.abs(after[n] - before[n]).max() > 0 for n in before)

    def test_uninitialized_rejected(self):
        group = ParameterServerGroup()
        with pytest.raises(RuntimeError):
            group.pull()

    def test_pull_returns_copies(self):
        group = ParameterServerGroup(num_servers=1, num_workers=1)
        group.initialize(small_state())
        pulled = group.pull()
        pulled["layer.bias"][...] = 77.0
        assert group.pull()["layer.bias"].max() == 0.0

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ParameterServerGroup(mode="eventual")

    def test_worker_id_validated(self):
        group = ParameterServerGroup(num_workers=2)
        group.initialize(small_state())
        with pytest.raises(ValueError):
            group.push(5, {})


class TestBSP:
    def test_barrier_applies_mean_once(self):
        group = ParameterServerGroup(
            num_servers=1, num_workers=3, optimizer="sgd", lr=1.0, mode="bsp"
        )
        group.initialize({"w": np.zeros(1, dtype=np.float32)})
        grads = [np.array([3.0]), np.array([6.0]), np.array([0.0])]

        threads = [
            threading.Thread(target=group.push, args=(i, {"w": grads[i]}))
            for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # one SGD step with the averaged gradient (3+6+0)/3 = 3 -> w = -3
        np.testing.assert_allclose(group.pull()["w"], [-3.0])
        assert group.shards[0].applied_updates == 1


class TestSSP:
    def test_fast_worker_blocks_until_slow_catches_up(self):
        group = ParameterServerGroup(
            num_servers=1, num_workers=2, optimizer="sgd", lr=0.1, mode="ssp", staleness=1
        )
        group.initialize({"w": np.zeros(1, dtype=np.float32)})
        order: list[str] = []

        def fast():
            for i in range(4):
                group.push(0, {"w": np.ones(1, dtype=np.float32)})
                order.append(f"fast{i}")

        def slow():
            import time

            time.sleep(0.15)
            group.push(1, {"w": np.ones(1, dtype=np.float32)})
            order.append("slow0")
            group.finish_worker(1)

        t1, t2 = threading.Thread(target=fast), threading.Thread(target=slow)
        t1.start(), t2.start()
        t1.join(timeout=5), t2.join(timeout=5)
        assert not t1.is_alive() and not t2.is_alive()
        # fast worker got at most staleness+1=2 pushes ahead before slow0
        assert order.index("slow0") <= 2


class TestDistributedTrainer:
    @pytest.fixture(scope="class")
    def flat(self):
        from repro.datasets import cora_like

        ds = cora_like(seed=7, num_nodes=300, num_edges=900)
        config = GraphFlatConfig(hops=1, max_neighbors=20, hub_threshold=10**9)
        train = graph_flat(ds.nodes, ds.edges, ds.train_ids, config).samples
        val = graph_flat(ds.nodes, ds.edges, ds.val_ids[:30], config).samples
        return ds, train, val

    @pytest.mark.parametrize("mode", ["async", "bsp", "ssp"])
    def test_multiworker_converges(self, flat, mode):
        ds, train, val = flat
        factory = lambda: GCNModel(ds.feature_dim, 8, ds.num_classes, num_layers=1, seed=4)
        trainer = DistributedTrainer(
            factory,
            TrainerConfig(batch_size=4, epochs=4, lr=0.02, seed=1),
            DistributedConfig(num_workers=3, num_servers=2, mode=mode),
        )
        history = trainer.fit(train, val_samples=val)
        assert history[-1]["loss"] < history[0]["loss"]
        assert history[-1]["val_metric"] > 1.0 / ds.num_classes

    def test_too_few_samples_rejected(self, flat):
        ds, train, _ = flat
        factory = lambda: GCNModel(ds.feature_dim, 8, ds.num_classes, num_layers=1, seed=4)
        trainer = DistributedTrainer(
            factory,
            TrainerConfig(batch_size=4, epochs=1),
            DistributedConfig(num_workers=8),
        )
        with pytest.raises(ValueError):
            trainer.fit(train[:3])

    def test_partition_disjoint_and_complete(self, flat):
        ds, train, _ = flat
        factory = lambda: GCNModel(ds.feature_dim, 8, ds.num_classes, num_layers=1, seed=4)
        trainer = DistributedTrainer(
            factory, TrainerConfig(batch_size=4), DistributedConfig(num_workers=3)
        )
        from repro.core.trainer import as_sample_source

        source = as_sample_source(train)
        slices = trainer._worker_slices(source)
        assert len(slices) == 3
        ids = np.concatenate([piece.ids() for piece in slices])
        assert sorted(ids.tolist()) == sorted(source.ids().tolist())


class TestSimulator:
    MODEL = ClusterModel(batch_compute_seconds=0.05, batch_payload_mb=0.5)

    def test_one_worker_baseline(self):
        t = simulate_epoch_seconds(self.MODEL, num_batches=100, num_workers=1)
        assert t > 100 * 0.05  # compute plus transaction overhead

    def test_speedup_monotone_then_saturates(self):
        speedups = simulate_speedup(self.MODEL, 400, [1, 2, 4, 8, 16, 32])
        values = list(speedups.values())
        assert values[0] == pytest.approx(1.0, abs=0.15)  # jitter draws differ
        assert all(b > a * 0.9 for a, b in zip(values, values[1:]))  # grows
        assert speedups[32] < 32  # sublinear

    def test_near_linear_regime_slope(self):
        """In the unsaturated regime the slope should be around the paper's
        ~0.8 (we accept 0.6-1.0 — shape, not absolute)."""
        speedups = simulate_speedup(self.MODEL, 1000, [10, 20, 50, 100])
        for w, s in speedups.items():
            assert 0.55 * w <= s <= 1.0 * w

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            simulate_epoch_seconds(self.MODEL, 10, 0)

    def test_deterministic_given_seed(self):
        a = simulate_epoch_seconds(self.MODEL, 200, 7, seed=5)
        b = simulate_epoch_seconds(self.MODEL, 200, 7, seed=5)
        assert a == b
