"""Multi-host transport layer acceptance tests.

The contract under test: a shuffle transport changes *where run bytes
travel*, never *what the job outputs* — ``local``, ``tcp`` and
``shared-dir`` are byte-identical on every backend, the
wire grammar is the spill frame grammar (CRC verified end-to-end), and the
spill-session sweep never reaps another host's sessions off a shared
mount.
"""

from __future__ import annotations

import os
import socket
import threading

import pytest

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.infer import GraphInferConfig, graph_infer
from repro.mapreduce import LocalRuntime, MapReduceJob
from repro.nn.gnn import build_model
from repro.proto.framing import FrameCorruptionError
from repro.transport import (
    SHUFFLE_TRANSPORTS,
    BroadcastServer,
    ClusterSpec,
    HostSpec,
    ShufflePeerServer,
    connect,
    fetch_payload,
    host_tag,
    make_shuffle_transport,
)


# ----------------------------------------------------------------- wire layer
class TestWire:
    def _server(self, handler):
        """One-connection echo-style server; returns (host, port, thread)."""
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()[:2]

        def serve():
            sock, _ = listener.accept()
            try:
                handler(sock)
            finally:
                sock.close()
                listener.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return host, port, thread

    def test_frame_round_trip_and_counters(self):
        from repro.transport.wire import Conn

        def echo(sock):
            conn = Conn(sock)
            kind, payload = conn.recv()
            conn.send(kind, payload[::-1])

        host, port, thread = self._server(echo)
        with connect(host, port) as conn:
            kind, payload = conn.request(b"ping", b"abcdef")
            assert (kind, payload) == (b"ping", b"fedcba")
            assert conn.bytes_sent > len(b"ping") + len(b"abcdef")
            assert conn.bytes_received > len(b"ping") + len(b"fedcba")
        thread.join(timeout=5)

    def test_corrupted_frame_raises(self):
        from repro.proto.framing import write_frame
        import io

        buf = io.BytesIO()
        write_frame(buf, b"pull", b"payload-bytes")
        wire = bytearray(buf.getvalue())

        def corrupt(sock):
            bad = bytes(wire[:-1]) + bytes([wire[-1] ^ 0xFF])  # flip CRC byte
            sock.sendall(bad)

        host, port, thread = self._server(corrupt)
        with connect(host, port) as conn:
            with pytest.raises(FrameCorruptionError):
                conn.recv()
        thread.join(timeout=5)

    def test_request_on_closed_peer_raises_reset(self):
        def hangup(sock):
            pass  # close immediately

        host, port, thread = self._server(hangup)
        with connect(host, port) as conn:
            with pytest.raises(ConnectionResetError):
                conn.request(b"pull", b"x")
        thread.join(timeout=5)


# -------------------------------------------------------------- cluster spec
class TestClusterSpec:
    def test_port_plan(self):
        spec = HostSpec.parse("10.0.0.7:7077")
        assert (spec.host, spec.port) == ("10.0.0.7", 7077)
        assert spec.control_port == 7077
        assert spec.ps_port == 7078
        assert spec.shuffle_port == 7079
        assert spec.broadcast_port == 7080

    def test_ephemeral_ports_stay_ephemeral(self):
        spec = HostSpec("127.0.0.1", 0)
        assert spec.ps_port == spec.shuffle_port == spec.broadcast_port == 0

    def test_parse_roster(self):
        cluster = ClusterSpec.parse("hostA:7077, hostB:7077,hostC:9000")
        assert len(cluster.hosts) == 3
        assert cluster.coordinator == HostSpec("hostA", 7077)

    def test_parse_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            HostSpec.parse("no-port")
        with pytest.raises(ValueError):
            HostSpec.parse("host:not-a-number")
        with pytest.raises(ValueError):
            ClusterSpec.parse(" , ")
        with pytest.raises(ValueError):
            HostSpec("h", 65534)  # base + 3 overflows the port space

    def test_host_tag_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOST_TAG", "rack-7/node.3")
        assert host_tag() == "rack7node3"  # filesystem-safe
        monkeypatch.delenv("REPRO_HOST_TAG")
        assert host_tag()  # falls back to the real hostname

    def test_factory_rejects_unknown_transport(self):
        with pytest.raises(ValueError, match="unknown shuffle transport"):
            make_shuffle_transport("carrier-pigeon")


# ---------------------------------------------------------------- peer server
class TestShufflePeerServer:
    def test_serves_only_registered_roots(self, tmp_path):
        served = tmp_path / "served"
        served.mkdir()
        (served / "job.m00000.p00000.r0.agls").write_bytes(b"run-bytes")
        secret = tmp_path / "secret"
        secret.mkdir()
        (secret / "passwd").write_bytes(b"hunter2")

        server = ShufflePeerServer()
        server.register_root(str(served))
        try:
            from repro.proto.framing import decode_value, encode_value

            with connect(server.host, server.port) as conn:
                conn.send(b"fetch", encode_value((str(served), "job.m*")))
                kind, payload = conn.recv()
                assert kind == b"run:job.m00000.p00000.r0.agls"
                assert payload == b"run-bytes"
                kind, payload = conn.recv()
                assert kind == b"done"
                assert decode_value(payload)[0] == ["job.m00000.p00000.r0.agls"]

            with connect(server.host, server.port) as conn:
                conn.send(b"fetch", encode_value((str(secret), "passwd")))
                kind, payload = conn.recv()
                assert kind == b"error"

            # traversal out of a registered root is refused too
            with connect(server.host, server.port) as conn:
                conn.send(b"fetch", encode_value((str(served), "../secret/*")))
                kind, payload = conn.recv()
                assert kind == b"error"
        finally:
            server.close()

    def test_byte_counters_accumulate(self, tmp_path):
        (tmp_path / "job.m00000.p00000.r0.agls").write_bytes(b"x" * 1000)
        server = ShufflePeerServer()
        server.register_root(str(tmp_path))
        try:
            from repro.proto.framing import encode_value

            with connect(server.host, server.port) as conn:
                conn.send(b"fetch", encode_value((str(tmp_path), "job.m*")))
                while conn.recv()[0] != b"done":
                    pass
            # handler thread folds counters in as the connection closes
            deadline = 50
            while server.take_stats() == (0, 0) and deadline:
                import time

                time.sleep(0.02)
                deadline -= 1
            assert deadline, "server never accounted the fetch"
        finally:
            server.close()


# ------------------------------------------------------------- broadcast TCP
class TestBroadcastServer:
    def test_fetch_round_trip_and_missing(self):
        server = BroadcastServer()
        try:
            server.publish("slices", b"payload-1")
            assert fetch_payload(server.host, server.port, "slices") == b"payload-1"
            with pytest.raises(KeyError):
                fetch_payload(server.host, server.port, "nope")
        finally:
            server.close()

    def test_republish_identical_ok_conflicting_rejected(self):
        server = BroadcastServer()
        try:
            server.publish("b", b"same")
            server.publish("b", b"same")  # idempotent
            with pytest.raises(ValueError, match="already published"):
                server.publish("b", b"different")
        finally:
            server.close()


# ------------------------------------------------------- byte-identity matrix
def split_mapper(key, value):
    for word in value.split():
        yield word, 1


def sum_reducer(key, values):
    yield key, sum(values)


WC_CORPUS = [(i, "alpha beta gamma delta epsilon " * 4) for i in range(40)]
WC_JOB = MapReduceJob(
    name="wc", mapper=split_mapper, reducer=sum_reducer, num_reducers=3
)

MATRIX_BACKENDS = ("serial", "threads", "processes")


@pytest.fixture(scope="module")
def hub_graph():
    from repro.datasets import uug_like

    return uug_like(
        seed=5, num_nodes=120, avg_degree=4, feature_dim=6, num_hubs=2, hub_degree=30
    )


def flat_config(**overrides):
    base = dict(hops=2, max_neighbors=4, hub_threshold=8, num_reducers=4, seed=0)
    base.update(overrides)
    return GraphFlatConfig(**base)


@pytest.fixture(scope="module")
def flat_baseline(hub_graph):
    ds = hub_graph
    return graph_flat(ds.nodes, ds.edges, ds.train_ids[:20], flat_config())


class TestByteIdentityMatrix:
    @pytest.mark.parametrize("backend", MATRIX_BACKENDS)
    @pytest.mark.parametrize("transport", SHUFFLE_TRANSPORTS)
    def test_wordcount_identical(self, tmp_path, transport, backend):
        baseline = LocalRuntime().run(WC_JOB, WC_CORPUS)
        with LocalRuntime(
            backend=backend, max_workers=2,
            spill_dir=tmp_path, shuffle_transport=transport,
        ) as runtime:
            out = runtime.run(WC_JOB, WC_CORPUS)
        assert out == baseline
        stats = runtime.last_stats
        if transport == "local":
            assert stats.transport_bytes_sent == 0
            assert stats.transport_bytes_received == 0
        else:
            assert stats.transport_bytes_sent > 0

    @pytest.mark.parametrize("backend", ("threads", "processes"))
    @pytest.mark.parametrize("transport", ("tcp", "shared-dir"))
    def test_graphflat_identical(self, hub_graph, flat_baseline, tmp_path, transport, backend):
        ds = hub_graph
        with LocalRuntime(
            backend=backend, max_workers=2, spill_dir=tmp_path,
            shuffle_transport=transport,
        ) as runtime:
            result = graph_flat(
                ds.nodes, ds.edges, ds.train_ids[:20],
                flat_config(), runtime,
            )
        assert result.hub_nodes == flat_baseline.hub_nodes
        assert result.samples == flat_baseline.samples  # encoded wire bytes

    @pytest.mark.parametrize("transport", ("tcp", "shared-dir"))
    def test_graphinfer_scores_identical(self, hub_graph, tmp_path, transport):
        import numpy as np

        ds = hub_graph
        model = build_model(
            "gcn", in_dim=6, hidden_dim=8, num_classes=2, num_layers=2, seed=0
        )
        config = GraphInferConfig(
            max_neighbors=4, hub_threshold=8, num_reducers=4, seed=0
        )
        baseline = graph_infer(model, ds.nodes, ds.edges, config)
        with LocalRuntime(
            backend="threads", max_workers=2, spill_dir=tmp_path,
            shuffle_transport=transport,
        ) as runtime:
            result = graph_infer(model, ds.nodes, ds.edges, config, runtime)
        assert set(result.scores) == set(baseline.scores)
        for node_id, scores in baseline.scores.items():
            assert np.array_equal(result.scores[node_id], scores)

    def test_config_knobs_reach_runtime(self, hub_graph, flat_baseline):
        """The pipeline configs grow the same transport knobs as the CLI."""
        ds = hub_graph
        result = graph_flat(
            ds.nodes, ds.edges, ds.train_ids[:20],
            flat_config(backend="threads", num_workers=2, shuffle_transport="tcp"),
        )
        assert result.samples == flat_baseline.samples
        assert sum(rs.transport_bytes_sent for rs in result.round_stats) > 0

    def test_shared_dir_requires_spill_dir(self):
        with pytest.raises(ValueError, match="spill_dir"):
            LocalRuntime(shuffle_transport="shared-dir")

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown shuffle transport"):
            LocalRuntime(shuffle_transport="bogus")
        with pytest.raises(ValueError, match="shuffle_transport"):
            GraphFlatConfig(shuffle_transport="bogus")
        with pytest.raises(ValueError, match="shuffle_transport"):
            GraphInferConfig(shuffle_transport="bogus")


# ------------------------------------------------------- session sweep scope
class TestHostScopedSweep:
    def _run_session(self, spill_dir):
        with LocalRuntime(
            backend="threads", max_workers=2, spill_dir=spill_dir
        ) as runtime:
            runtime.run(WC_JOB, WC_CORPUS)

    def test_sweep_skips_foreign_host_sessions(self, tmp_path, monkeypatch):
        """A dead session directory tagged with another host's tag must
        survive this host's sweep: its pid namespace is not ours to probe
        (shared-dir mounts see every host's sessions)."""
        monkeypatch.setenv("REPRO_HOST_TAG", "hosta")
        foreign = tmp_path / f"mr999999.h{'hostb'}.deadbeef"
        foreign.mkdir()
        (foreign / "job.m00000.p00000.r0.agls").write_bytes(b"not ours")
        stale_local = tmp_path / "mr999999.hhosta.cafef00d"
        stale_local.mkdir()
        legacy = tmp_path / "mr999998.0ldst7le"
        legacy.mkdir()

        self._run_session(tmp_path)

        assert foreign.exists(), "foreign host's session was reaped"
        assert not stale_local.exists(), "own dead session should be reaped"
        assert not legacy.exists(), "legacy (untagged) sessions are local"

    def test_session_dirs_carry_host_tag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_HOST_TAG", "taggy")
        from repro.mapreduce.runtime import _session_prefix

        prefix = _session_prefix()
        assert prefix == f"mr{os.getpid()}.htaggy."
