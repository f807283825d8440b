"""TCP parameter-server transport and remote-worker training.

The acceptance bar mirrors the shm transport's: the socket path changes
*where* pulls and pushes travel, never the trajectory — BSP training over
``transport="tcp"`` (threads, processes, or workers joining through the
hub) is bit-identical to the local transport at a fixed seed, pulls are
version-cached, and the client handle ships across process boundaries as
plain data.
"""

from __future__ import annotations

import functools
import pickle
import threading

import numpy as np
import pytest

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.trainer import TrainerConfig
from repro.nn.gnn import GCNModel
from repro.ps import (
    DistributedConfig,
    DistributedTrainer,
    ParameterServerGroup,
)


def small_state(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "layer.weight": rng.standard_normal((4, 3)).astype(np.float32),
        "layer.bias": np.zeros(3, dtype=np.float32),
        "head.weight": rng.standard_normal((3, 2)).astype(np.float32),
    }


def tcp_group(**overrides) -> ParameterServerGroup:
    base = dict(num_servers=2, num_workers=1, transport="tcp", lr=0.05)
    base.update(overrides)
    group = ParameterServerGroup(**base)
    group.initialize(small_state())
    return group


class TestTcpPSProtocol:
    def test_pull_matches_group_state(self):
        group = tcp_group()
        try:
            client = group.client(0)
            state = client.pull()
            expected = group.pull()
            assert set(state) == set(expected)
            for name in state:
                np.testing.assert_array_equal(state[name], expected[name])
            client.close()
        finally:
            group.close()

    def test_pull_is_version_cached(self):
        group = tcp_group()
        try:
            client = group.client(0)
            assert client.pull() is not None
            first_bytes = client.pull_bytes
            assert client.pull() is None  # version unchanged: zero-byte pull
            assert client.pull_bytes == first_bytes
            client.push({"layer.bias": np.ones(3, dtype=np.float32)})
            assert client.pull() is not None  # push bumped the version
            assert client.stats() == {
                "pulls": 3,
                "refreshes": 2,
                "pull_bytes": client.pull_bytes,
            }
            client.close()
        finally:
            group.close()

    def test_push_moves_parameters(self):
        group = tcp_group()
        try:
            client = group.client(0)
            before = group.pull()["layer.bias"].copy()
            client.push({"layer.bias": np.ones(3, dtype=np.float32)})
            after = group.pull()["layer.bias"]
            assert not np.array_equal(before, after)
            client.close()
        finally:
            group.close()

    def test_partial_push_touches_only_present_grads(self):
        group = tcp_group()
        try:
            client = group.client(0)
            before = group.pull()
            client.push({"head.weight": np.ones((3, 2), dtype=np.float32)})
            after = group.pull()
            np.testing.assert_array_equal(
                before["layer.weight"], after["layer.weight"]
            )
            assert not np.array_equal(before["head.weight"], after["head.weight"])
            client.close()
        finally:
            group.close()

    def test_unknown_gradient_rejected(self):
        group = tcp_group()
        try:
            client = group.client(0)
            client.pull()
            with pytest.raises(KeyError, match="unknown parameters"):
                client.push({"not.a.param": np.ones(3, dtype=np.float32)})
            client.close()
        finally:
            group.close()

    def test_client_is_picklable_before_and_after_use(self):
        group = tcp_group()
        try:
            client = group.client(0)
            clone = pickle.loads(pickle.dumps(client))  # never connected
            assert clone.pull() is not None
            clone.close()
            client.pull()
            reclone = pickle.loads(pickle.dumps(client))  # connected once
            # the cached version survives the trip: first pull may be fresh
            assert reclone.pull() is None
            reclone.close()
            client.close()
        finally:
            group.close()

    def test_tcp_endpoint_exposed(self):
        group = tcp_group()
        try:
            host, port = group.tcp_endpoint
            assert host == "127.0.0.1"
            assert port > 0
        finally:
            group.close()

    def test_bsp_push_blocks_until_siblings(self):
        group = tcp_group(num_workers=2, mode="bsp")
        try:
            c0, c1 = group.client(0), group.client(1)
            c0.pull(), c1.pull()
            done = threading.Event()

            def push_first():
                c0.push({"layer.bias": np.ones(3, dtype=np.float32)})
                done.set()

            t = threading.Thread(target=push_first, daemon=True)
            t.start()
            assert not done.wait(0.3), "BSP push returned before the barrier"
            c1.push({"layer.bias": np.full(3, 2.0, dtype=np.float32)})
            assert done.wait(5.0), "barrier never released"
            t.join(timeout=5)
            c0.close(), c1.close()
        finally:
            group.close()


# ------------------------------------------------------------- full training
@pytest.fixture(scope="module")
def flat_small():
    from repro.datasets import cora_like

    ds = cora_like(seed=7, num_nodes=300, num_edges=900)
    config = GraphFlatConfig(hops=1, max_neighbors=20, hub_threshold=10**9)
    train = graph_flat(ds.nodes, ds.edges, ds.train_ids, config).samples
    val = graph_flat(ds.nodes, ds.edges, ds.val_ids[:30], config).samples
    return ds, train, val


def _factory(ds):
    return functools.partial(
        GCNModel, ds.feature_dim, 8, ds.num_classes, num_layers=1, seed=4
    )


def _fit(ds, train, val, **dist_overrides):
    dist = DistributedConfig(
        num_workers=2, num_servers=2, mode="bsp", seed=1, **dist_overrides
    )
    with DistributedTrainer(
        _factory(ds),
        TrainerConfig(batch_size=4, epochs=3, lr=0.02, seed=1),
        dist,
    ) as trainer:
        history = trainer.fit(train, val_samples=val)
        stats = trainer.pull_stats()
    return history, stats


def _fit_remote(ds, train, val):
    """BSP fit whose two workers join through the hub from a thread."""
    from repro.transport.worker import run_worker

    dist = DistributedConfig(
        num_workers=2, num_servers=2, mode="bsp", seed=1,
        transport="tcp", remote_workers=2,
    )
    with DistributedTrainer(
        _factory(ds), TrainerConfig(batch_size=4, epochs=3, lr=0.02, seed=1), dist
    ) as trainer:
        joiner = threading.Thread(
            target=run_worker, args=trainer.hub_endpoint, kwargs={"capacity": 2},
            daemon=True,
        )
        joiner.start()
        history = trainer.fit(train, val_samples=val)
        joiner.join(timeout=30)
        assert not joiner.is_alive()
    return history


class TestInMemorySourceTravels:
    @pytest.mark.parametrize("workers", ["processes", "remote"])
    def test_matches_the_dfs_source_without_a_temp_dataset(
        self, flat_small, tmp_path, monkeypatch, workers
    ):
        """An in-memory source reaches process and hub-joined workers as
        each worker's own rows: the losses are the DFS dataset's bit for
        bit, and no temporary dataset is written for it."""
        import multiprocessing.util
        import tempfile

        from repro.core.trainer import open_sample_source
        from repro.mapreduce import DistFileSystem

        ds, train, val = flat_small
        fs = DistFileSystem(tmp_path)
        fs.write_dataset("train", train, num_shards=3)

        def fit(data):
            if workers == "remote":
                history = _fit_remote(ds, data, val)
            else:
                history, _ = _fit(ds, data, val, worker_backend="processes", transport="tcp")
            return [(entry["loss"], entry["val_metric"]) for entry in history]

        want = fit(open_sample_source(fs, "train"))
        multiprocessing.util.get_temp_dir()  # multiprocessing's own, made once
        monkeypatch.setattr(
            tempfile, "mkdtemp", lambda *a, **k: pytest.fail("made a temp dir")
        )
        assert fit(train) == want


class TestTcpTraining:
    def test_bsp_bit_exact_local_vs_tcp_threads(self, flat_small):
        """The tentpole acceptance bar: same seed, local vs socket PS =>
        bit-identical loss trajectory and validation metric."""
        ds, train, val = flat_small
        local, _ = _fit(ds, train, val, worker_backend="threads", transport="local")
        tcp, tcp_stats = _fit(
            ds, train, val, worker_backend="threads", transport="tcp"
        )
        assert len(local) == len(tcp) == 3
        for a, b in zip(local, tcp):
            assert a["loss"] == b["loss"]
            assert a["val_metric"] == b["val_metric"]
        assert tcp_stats["pull_bytes"] > 0  # parameters really crossed sockets

    def test_bsp_bit_exact_tcp_processes(self, flat_small):
        ds, train, val = flat_small
        local, _ = _fit(ds, train, val, worker_backend="threads", transport="local")
        tcp, _ = _fit(ds, train, val, worker_backend="processes", transport="tcp")
        for a, b in zip(local, tcp):
            assert a["loss"] == b["loss"]

    def test_bsp_bit_exact_remote_hub(self, flat_small):
        """Workers joining through the hub (the ``repro worker --join``
        path, in-process here) train the same trajectory."""
        from repro.transport.worker import run_worker

        ds, train, val = flat_small
        local, _ = _fit(ds, train, val, worker_backend="threads", transport="local")

        dist = DistributedConfig(
            num_workers=2, num_servers=2, mode="bsp", seed=1,
            transport="tcp", remote_workers=2,
        )
        with DistributedTrainer(
            _factory(ds),
            TrainerConfig(batch_size=4, epochs=3, lr=0.02, seed=1),
            dist,
        ) as trainer:
            host, port = trainer.hub_endpoint
            joiner = threading.Thread(
                target=run_worker, args=(host, port), kwargs={"capacity": 2},
                daemon=True,
            )
            joiner.start()
            remote = trainer.fit(train, val_samples=val)
            joiner.join(timeout=30)
            assert not joiner.is_alive()
            assert set(trainer.worker_stats) == {0, 1}
            assert all(
                s["pull_bytes"] > 0 for s in trainer.worker_stats.values()
            )
        for a, b in zip(local, remote):
            assert a["loss"] == b["loss"]
            assert a["val_metric"] == b["val_metric"]

    def test_late_joiner_gets_nothing(self):
        """A worker group joining after the hub's roster is fully claimed
        is told so and returns empty-handed."""
        from repro.transport.wire import connect
        from repro.transport.worker import WorkerHub, run_worker

        hub = WorkerHub()
        try:
            hub.start_training(1)
            # claim the only worker id with a raw join
            conn = connect(*hub.endpoint)
            try:
                conn._sock.settimeout(None)
                kind, _ = conn.request(b"join", pickle.dumps(1))
                assert kind == b"assign"
                # the roster is now full: a late group is refused
                assert run_worker(*hub.endpoint, capacity=1) == {}
            finally:
                conn.close()
        finally:
            hub.close()


class TestRemoteConfigValidation:
    def test_remote_requires_tcp(self):
        with pytest.raises(ValueError, match="transport='tcp'"):
            DistributedConfig(num_workers=2, remote_workers=2, transport="shm")

    def test_remote_defaults_to_tcp(self):
        dist = DistributedConfig(num_workers=2, remote_workers=2)
        assert dist.transport == "tcp"

    def test_remote_must_cover_all_workers(self):
        with pytest.raises(ValueError, match="must equal num_workers"):
            DistributedConfig(num_workers=4, remote_workers=2, transport="tcp")
