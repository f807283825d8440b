"""Chaos-hardened runtime acceptance tests.

The contract under test: no fault kind in :data:`FAULT_KINDS`, on any
backend, may change pipeline output — re-execution, deadlines, straggler
speculation and spill-CRC verification absorb them all.  This is the
fault-tolerance property the paper inherits "for free" from mature
MapReduce infrastructure (§1, §3.1), reproduced here as a testable matrix.
"""

from __future__ import annotations

import io
import os
import time
import types

import numpy as np
import pytest

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.infer import GraphInferConfig, graph_infer
from repro.mapreduce import (
    FAULT_KINDS,
    FaultPlan,
    JobFailedError,
    LocalRuntime,
    MapReduceJob,
    PhaseMonitor,
    RetryPolicy,
    SpillLayout,
    TaskTimeoutError,
)
from repro.mapreduce.backends import ProcessesBackend, ThreadsBackend, WorkerCrashError
from repro.proto.framing import (
    FrameCorruptionError,
    iter_frames,
    read_stream_header,
    write_frame,
    write_stream_header,
)
from repro.proto.stream import StreamCorruptionError, read_records, write_records
from repro.nn.gnn import build_model

# Per-kind (rate, extra-knob) tuning: rates verified to inject at seed 0 on
# both pipelines; hang is rarer because every injection costs a full
# task_timeout_s of wall clock.
CHAOS_RATE = {
    "crash": 0.3,
    "hang": 0.15,
    "slow": 0.3,
    "corrupt-run": 0.5,
    "truncate-run": 0.5,
    "conn-reset": 0.5,
}
CHAOS_SEED = 0
# Must sit comfortably above the honest duration of the slowest task at this
# scale: the deadline only exists to reap injected hangs, and a budget tighter
# than real work perma-fails healthy tasks until the retry budget is gone
# (GraphInfer embedding tasks were observed over 0.4s under CI-level load).
HANG_TIMEOUT_S = 2.0

CHAOS_BACKENDS = ("serial", "threads", "processes")


@pytest.fixture(scope="module")
def hub_graph():
    """~120-node graph with two genuine hubs, so hub re-indexing (and its
    extra MapReduce rounds) is active under every injected fault."""
    from repro.datasets import uug_like

    return uug_like(
        seed=5, num_nodes=120, avg_degree=4, feature_dim=6, num_hubs=2, hub_degree=30
    )


def flat_config(**overrides):
    base = dict(hops=2, max_neighbors=4, hub_threshold=8, num_reducers=4, seed=0)
    base.update(overrides)
    return GraphFlatConfig(**base)


def infer_config():
    return GraphInferConfig(max_neighbors=4, hub_threshold=8, num_reducers=4, seed=0)


@pytest.fixture(scope="module")
def flat_baseline(hub_graph):
    ds = hub_graph
    return graph_flat(ds.nodes, ds.edges, ds.train_ids[:20], flat_config())


@pytest.fixture(scope="module")
def infer_model(hub_graph):
    return build_model(
        "gcn", in_dim=6, hidden_dim=8, num_classes=2, num_layers=2, seed=0
    )


@pytest.fixture(scope="module")
def infer_baseline(hub_graph, infer_model):
    ds = hub_graph
    return graph_infer(infer_model, ds.nodes, ds.edges, infer_config())


def chaos_plan(kind: str) -> FaultPlan:
    return FaultPlan(
        {kind: CHAOS_RATE[kind]}, seed=CHAOS_SEED, slow_s=0.02, hang_limit_s=30.0
    )


def chaos_runtime(backend: str, plan: FaultPlan, spill_dir, kind: str) -> LocalRuntime:
    return LocalRuntime(
        backend=backend,
        max_workers=2,
        max_attempts=10,
        fault_plan=plan,
        spill_dir=spill_dir,
        shuffle_codec="binary",
        task_timeout_s=HANG_TIMEOUT_S if kind == "hang" else None,
        # conn-reset only bites a networked fetch: run it over the TCP
        # shuffle peering so the injected reset hits a real connection.
        shuffle_transport="tcp" if kind == "conn-reset" else "local",
    )


# ----------------------------------------------------------------- word count
# Top-level operators: picklable for the processes backend.


def split_mapper(key, value):
    for word in value.split():
        yield word, 1


def sum_reducer(key, values):
    yield key, sum(values)


def explode_mapper(key, value):
    raise ValueError("operator bug: not a fault the runtime may absorb")


WC_CORPUS = [(i, "alpha beta gamma delta " * 5) for i in range(30)]
WC_JOB = MapReduceJob(
    name="wc", mapper=split_mapper, reducer=sum_reducer, num_reducers=3
)


@pytest.fixture(scope="module")
def wc_baseline():
    return LocalRuntime().run(WC_JOB, WC_CORPUS)


class TestChaosMatrix:
    """Every fault kind x every backend, on both pipelines, against the
    fault-free serial baseline.  Byte-identity is the acceptance bar."""

    @pytest.mark.parametrize("backend", CHAOS_BACKENDS)
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_graphflat_byte_identical(
        self, hub_graph, flat_baseline, tmp_path, kind, backend
    ):
        ds = hub_graph
        plan = chaos_plan(kind)
        with chaos_runtime(backend, plan, tmp_path, kind) as runtime:
            result = graph_flat(
                ds.nodes, ds.edges, ds.train_ids[:20], flat_config(), runtime
            )
        assert plan.injected_by_kind[kind] > 0, "rate/seed must actually inject"
        assert result.samples == flat_baseline.samples
        if kind == "hang":
            assert runtime.last_stats.timeouts > 0

    @pytest.mark.parametrize("backend", CHAOS_BACKENDS)
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_graphinfer_scores_identical(
        self, hub_graph, infer_model, infer_baseline, tmp_path, kind, backend
    ):
        ds = hub_graph
        plan = chaos_plan(kind)
        with chaos_runtime(backend, plan, tmp_path, kind) as runtime:
            result = graph_infer(infer_model, ds.nodes, ds.edges, infer_config(), runtime)
        assert plan.injected_by_kind[kind] > 0, "rate/seed must actually inject"
        assert set(result.scores) == set(infer_baseline.scores)
        for node_id, scores in infer_baseline.scores.items():
            assert np.array_equal(result.scores[node_id], scores)


class TestChaosEdgeTasks:
    """Edge-level tasks under injected read-path corruption: the target
    table is drawn parent-side (seeded), so re-executed reduce tasks must
    rebuild the exact same edge samples."""

    @pytest.fixture(scope="class")
    def lp_graph(self):
        from repro.datasets import labeled_edges_like

        return labeled_edges_like(seed=7, num_nodes=100, num_edges=360, feature_dim=6)

    def lp_config(self):
        return GraphFlatConfig(
            hops=2, max_neighbors=6, num_reducers=4, seed=0,
            task="link_prediction", edge_targets=25,
        )

    @pytest.mark.parametrize("backend", ("threads", "processes"))
    def test_link_prediction_byte_identical_under_corrupt_run(
        self, lp_graph, tmp_path, backend
    ):
        nodes, edges = lp_graph
        baseline = graph_flat(nodes, edges, config=self.lp_config())
        plan = chaos_plan("corrupt-run")
        with chaos_runtime(backend, plan, tmp_path, "corrupt-run") as runtime:
            result = graph_flat(nodes, edges, config=self.lp_config(), runtime=runtime)
        assert plan.injected_by_kind["corrupt-run"] > 0
        assert result.samples == baseline.samples


class TestDeadlines:
    def test_hung_task_under_processes_completes_within_budget(self, wc_baseline):
        """The acceptance regression: a wedged worker is killed at the
        deadline and the task re-executed — the job completes (well inside
        deadline x retry budget) with byte-identical output."""
        plan = FaultPlan({"hang": 0.5}, seed=1, hang_limit_s=60.0)
        start = time.monotonic()
        with LocalRuntime(
            "processes", max_workers=2, max_attempts=10,
            fault_plan=plan, task_timeout_s=1.0,
        ) as runtime:
            out = runtime.run(WC_JOB, WC_CORPUS)
        elapsed = time.monotonic() - start
        assert out == wc_baseline
        assert plan.injected_by_kind["hang"] > 0
        assert runtime.last_stats.timeouts > 0
        # budget: every injected hang costs ~1 deadline + a pool rebuild
        assert elapsed < 10 * plan.injected_by_kind["hang"] + 30

    def test_cooperative_deadline_under_serial(self, wc_baseline):
        plan = FaultPlan({"hang": 0.5}, seed=1, hang_limit_s=60.0)
        with LocalRuntime(
            "serial", max_attempts=10, fault_plan=plan, task_timeout_s=0.3
        ) as runtime:
            out = runtime.run(WC_JOB, WC_CORPUS)
        assert out == wc_baseline
        assert runtime.last_stats.timeouts == plan.injected_by_kind["hang"] > 0

    def test_timeout_validation(self):
        with pytest.raises(ValueError, match="task_timeout_s"):
            LocalRuntime(task_timeout_s=0.0)
        with pytest.raises(ValueError, match="speculation_factor"):
            LocalRuntime(speculation_factor=1.0)


class TestRetryPolicy:
    def test_backoff_deterministic_and_bounded(self):
        policy = RetryPolicy(
            max_attempts=8, backoff_base_s=0.5, backoff_cap_s=2.0, jitter=0.5, seed=3
        )
        delays = [policy.backoff_s("job", "map-0", a) for a in range(8)]
        assert delays == [policy.backoff_s("job", "map-0", a) for a in range(8)]
        assert all(0.0 < d <= 2.0 for d in delays)
        # exponential growth until the cap dominates
        assert delays[1] > delays[0] * 1.2
        assert policy.backoff_s("job", "map-1", 0) != delays[0]  # keyed by task

    def test_zero_base_means_no_sleeping(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.backoff_s("job", "map-0", 5) == 0.0

    def test_retryable_classification(self):
        policy = RetryPolicy()
        for exc in (
            WorkerCrashError("x"),
            TaskTimeoutError("x"),
            FrameCorruptionError("x"),
        ):
            assert policy.is_retryable(exc)
        assert not policy.is_retryable(ValueError("operator bug"))
        narrow = RetryPolicy(retryable=(TaskTimeoutError,))
        assert narrow.is_retryable(TaskTimeoutError("x"))
        assert not narrow.is_retryable(WorkerCrashError("x"))

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-1.0)

    def test_non_retryable_propagates_without_retries(self):
        job = MapReduceJob(
            name="bug", mapper=explode_mapper, reducer=sum_reducer, num_reducers=2
        )
        with pytest.raises(ValueError, match="operator bug"):
            LocalRuntime(max_attempts=10).run(job, WC_CORPUS)

    def test_backoff_feeds_run_stats(self, wc_baseline):
        plan = FaultPlan({"crash": 1.0}, seed=0, max_faults=2)
        policy = RetryPolicy(max_attempts=5, backoff_base_s=0.01, seed=0)
        with LocalRuntime(
            fault_plan=plan, retry_policy=policy
        ) as runtime:
            out = runtime.run(WC_JOB, WC_CORPUS)
        assert out == wc_baseline
        assert plan.injected == 2
        assert runtime.last_stats.backoff_total_s > 0.0


class TestFaultPlan:
    def test_kind_and_rate_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan({"meteor": 0.5})
        with pytest.raises(ValueError, match="rate"):
            FaultPlan({"crash": 1.5})

    def test_draws_are_deterministic(self):
        a = FaultPlan({"crash": 0.5, "slow": 0.5}, seed=9)
        b = FaultPlan({"crash": 0.5, "slow": 0.5}, seed=9)
        draws_a = [a.draw("job", f"map-{i}", 0) for i in range(40)]
        draws_b = [b.draw("job", f"map-{i}", 0) for i in range(40)]
        assert draws_a == draws_b
        assert any(draws_a)  # something injected
        assert a.injected_by_kind == b.injected_by_kind

    def test_max_faults_caps_all_kinds_together(self):
        plan = FaultPlan({"crash": 1.0}, seed=0, max_faults=3)
        draws = [plan.draw("job", f"map-{i}", 0) for i in range(10)]
        assert sum(d is not None for d in draws) == 3
        assert plan.injected == 3

    def test_read_faults_never_target_map_tasks(self):
        plan = FaultPlan({"corrupt-run": 1.0, "truncate-run": 1.0}, seed=0)
        assert all(plan.draw("job", f"map-{i}", 0) is None for i in range(10))
        assert plan.draw("job", "reduce-0", 0) in ("corrupt-run", "truncate-run")

    def test_long_job_names_vary_by_attempt(self):
        """Regression for the truncated-material draw bug: a (job, task)
        prefix longer than the old 32-byte window must not pin every
        attempt to the same draw."""
        plan = FaultPlan({"crash": 0.5}, seed=0)
        job = "a-very-long-job-name-that-overflows-the-old-window"
        task = "reduce-7"
        draws = {plan.draw(job, task, attempt) for attempt in range(32)}
        assert draws == {"crash", None}

    def test_crash_only_plan_is_absorbed_by_retries(self, wc_baseline):
        """A plan with only crash faults — the classic worker-failure
        injection: retries absorb every one."""
        plan = FaultPlan({"crash": 0.4}, seed=11)
        with LocalRuntime(max_attempts=10, fault_plan=plan) as runtime:
            out = runtime.run(WC_JOB, WC_CORPUS)
        assert out == wc_baseline
        assert plan.injected == plan.injected_by_kind["crash"] > 0


class TestSpeculation:
    def test_straggler_rescued_by_clean_duplicate(self, wc_baseline):
        """Injected slow tasks exceed the phase's median duration; the
        monitor launches clean duplicates that win the race."""
        job = MapReduceJob(
            name="wc", mapper=split_mapper, reducer=sum_reducer, num_reducers=8
        )
        baseline = LocalRuntime().run(job, WC_CORPUS)
        plan = FaultPlan({"slow": 0.4}, seed=7, slow_s=1.5)
        with LocalRuntime(
            "processes", max_workers=4, max_attempts=3,
            fault_plan=plan, speculation_factor=1.5,
        ) as runtime:
            out = runtime.run(job, WC_CORPUS)
        assert out == baseline
        stats = runtime.last_stats
        assert plan.injected_by_kind["slow"] > 0
        assert stats.speculative_launched > 0
        assert stats.speculative_won > 0

    def test_serial_backend_never_speculates(self, wc_baseline):
        with LocalRuntime("serial", speculation_factor=2.0) as runtime:
            out = runtime.run(WC_JOB, WC_CORPUS)
        assert out == wc_baseline
        assert runtime.last_stats.speculative_launched == 0

    def test_monitor_thresholds(self):
        monitor = PhaseMonitor(factor=2.0, min_completed=3, min_runtime_s=0.25)
        assert monitor.speculate_after_s() is None  # too few completions
        for duration in (0.1, 0.2, 0.3):
            monitor.record(duration)
        assert monitor.speculate_after_s() == pytest.approx(0.4)  # 2 x median
        assert monitor.should_speculate(0.5)
        assert not monitor.should_speculate(0.3)
        fast = PhaseMonitor(factor=2.0, min_completed=1, min_runtime_s=0.25)
        fast.record(0.001)
        assert fast.speculate_after_s() == 0.25  # floor beats tiny medians
        with pytest.raises(ValueError):
            PhaseMonitor(factor=1.0)


class TestBackendHardening:
    def test_coordinator_thread_cap(self):
        backend = ProcessesBackend(max_workers=2)
        try:
            assert backend._coordinator_count(1) == 1
            assert backend._coordinator_count(8) == 8
            assert backend._coordinator_count(100) == 8  # 2 * workers + 4
        finally:
            backend.close()

    def test_many_more_tasks_than_workers(self, wc_baseline):
        """tasks >> workers: coordinators stay bounded, results stay
        position-ordered and correct."""
        job = MapReduceJob(
            name="wc", mapper=split_mapper, reducer=sum_reducer, num_reducers=24
        )
        baseline = LocalRuntime().run(job, WC_CORPUS)
        with LocalRuntime("processes", max_workers=2) as runtime:
            out = runtime.run(job, WC_CORPUS)
        assert out == baseline

    def test_threads_single_task_runs_serial(self, wc_baseline):
        job = MapReduceJob(
            name="wc", mapper=split_mapper, reducer=sum_reducer,
            num_reducers=1, num_mappers=1,
        )
        baseline = LocalRuntime().run(job, WC_CORPUS)
        with LocalRuntime("threads", max_workers=4) as runtime:
            out = runtime.run(job, WC_CORPUS)
        assert out == baseline


class TestSpillIntegrity:
    def _write_run(self, tmp_path):
        layout = SpillLayout(str(tmp_path), "job", 1, "binary")
        layout.write_map_output(0, [[(i, i * 7) for i in range(50)]])
        (path,) = list(tmp_path.glob("job.m*"))
        return layout, path

    def test_on_disk_byte_flip_raises(self, tmp_path):
        layout, path = self._write_run(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FrameCorruptionError):
            list(layout.iter_groups(0, 1))

    def test_on_disk_truncation_raises(self, tmp_path):
        layout, path = self._write_run(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-3])  # chop into the last frame's CRC
        with pytest.raises(FrameCorruptionError, match="truncated"):
            list(layout.iter_groups(0, 1))

    def test_frame_crc_round_trip_and_mismatch(self):
        buf = io.BytesIO()
        write_stream_header(buf, 1)
        write_frame(buf, b"key", b"payload")
        buf.seek(0)
        read_stream_header(buf)
        assert list(iter_frames(buf)) == [(b"key", b"payload")]
        injured = bytearray(buf.getvalue())
        injured[-6] ^= 0xFF  # payload byte inside the CRC's coverage
        stream = io.BytesIO(bytes(injured))
        read_stream_header(stream)
        with pytest.raises(FrameCorruptionError, match="CRC mismatch"):
            list(iter_frames(stream))

    def test_frame_key_is_crc_covered(self):
        buf = io.BytesIO()
        write_stream_header(buf, 1)
        write_frame(buf, b"key", b"payload")
        injured = bytearray(buf.getvalue())
        injured[7] ^= 0x01  # first key byte: silent regrouping if uncaught
        stream = io.BytesIO(bytes(injured))
        read_stream_header(stream)
        with pytest.raises(FrameCorruptionError, match="CRC mismatch"):
            list(iter_frames(stream))

    def test_old_stream_version_rejected(self):
        buf = io.BytesIO()
        write_stream_header(buf, 1)
        header = bytearray(buf.getvalue())
        header[4] = 1  # CRC-less v1 layout
        with pytest.raises(FrameCorruptionError, match="version"):
            read_stream_header(io.BytesIO(bytes(header)))

    def test_row_stream_corruption_raises(self, tmp_path):
        path = tmp_path / "records.bin"
        write_records(path, [b"record-%d" % i for i in range(20)])
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(StreamCorruptionError):
            list(read_records(bytes(data)))

    def test_runtime_retries_reduce_on_corrupt_run(self, tmp_path, wc_baseline):
        """An injected read-path corruption surfaces as a retryable frame
        error; the retry reads the intact file and output is unchanged."""
        plan = FaultPlan({"corrupt-run": 1.0}, seed=0, max_faults=2)
        with LocalRuntime(
            "serial", max_attempts=10, fault_plan=plan,
            spill_dir=tmp_path, shuffle_codec="binary",
        ) as runtime:
            out = runtime.run(WC_JOB, WC_CORPUS)
        assert out == wc_baseline
        assert plan.injected_by_kind["corrupt-run"] == 2
        assert runtime.last_stats.reduce_attempts > WC_JOB.num_reducers

    def test_runtime_retries_reduce_on_conn_reset(self, tmp_path, wc_baseline):
        """An injected connection reset on the TCP shuffle fetch is
        retryable (``ConnectionError`` is in the default retryable set);
        the retry re-fetches the intact runs and output is unchanged."""
        plan = FaultPlan({"conn-reset": 1.0}, seed=0, max_faults=2)
        with LocalRuntime(
            "serial", max_attempts=10, fault_plan=plan,
            spill_dir=tmp_path, shuffle_codec="binary", shuffle_transport="tcp",
        ) as runtime:
            out = runtime.run(WC_JOB, WC_CORPUS)
        assert out == wc_baseline
        assert plan.injected_by_kind["conn-reset"] == 2
        assert runtime.last_stats.reduce_attempts > WC_JOB.num_reducers
        # the failed fetch plus the retry both crossed the wire
        assert runtime.last_stats.transport_bytes_received > 0


class TestShmAckTimeout:
    def test_explicit_argument_wins(self, monkeypatch):
        from repro.ps.shm import _resolve_ack_timeout

        monkeypatch.setenv("REPRO_PS_ACK_TIMEOUT_S", "7")
        assert _resolve_ack_timeout(3.5) == 3.5

    def test_env_override_and_default(self, monkeypatch):
        from repro.ps.shm import _resolve_ack_timeout

        monkeypatch.delenv("REPRO_PS_ACK_TIMEOUT_S", raising=False)
        assert _resolve_ack_timeout(None) == 120.0
        monkeypatch.setenv("REPRO_PS_ACK_TIMEOUT_S", "9.5")
        assert _resolve_ack_timeout(None) == 9.5

    def test_invalid_values_rejected(self, monkeypatch):
        from repro.ps.shm import _resolve_ack_timeout

        with pytest.raises(ValueError):
            _resolve_ack_timeout(0.0)
        monkeypatch.setenv("REPRO_PS_ACK_TIMEOUT_S", "not-a-number")
        with pytest.raises(ValueError, match="REPRO_PS_ACK_TIMEOUT_S"):
            _resolve_ack_timeout(None)

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
    def test_transport_propagates_timeout_to_clients(self):
        from repro.ps.shm import ShmTransport

        group = types.SimpleNamespace(num_workers=1)
        state = {"w": np.zeros(4, dtype=np.float32)}
        transport = ShmTransport(group, state, ack_timeout_s=5.0)
        try:
            assert transport.ack_timeout_s == 5.0
            assert transport.client(0).ack_timeout_s == 5.0
        finally:
            transport.close()
