"""MapReduce substrate: shuffle determinism, combiners, chaining, backends,
fault tolerance (re-execution invariance), disk spill and the DFS."""

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce import (
    BACKEND_REGISTRY,
    DistFileSystem,
    FaultPlan,
    JobFailedError,
    LocalRuntime,
    MapReduceJob,
    RunStats,
    SpillLayout,
    SumCombiner,
    default_partition,
    key_bytes,
    make_backend,
    register_backend,
)
from repro.mapreduce.backends import SerialBackend
from repro.mapreduce.spill import SpillWriteResult
from repro.proto.framing import decode_value, encode_value


def word_count_job(**kwargs):
    def mapper(_, line):
        for word in line.split():
            yield word, 1

    def reducer(word, counts):
        yield word, sum(counts)

    return MapReduceJob("wordcount", reducer, mapper=mapper, combiner=reducer, **kwargs)


# Top-level operators: picklable, so they ship to worker processes.
def split_mapper(_, line):
    for word in line.split():
        yield word, 1


def sum_reducer(word, counts):
    yield word, sum(counts)


def picklable_word_count_job(**kwargs):
    return MapReduceJob(
        "wordcount", sum_reducer, mapper=split_mapper, combiner=sum_reducer, **kwargs
    )


@dataclass(frozen=True)
class CrashOnceMapper:
    """Hard-kills its worker process on the first execution (sentinel file
    marks that the crash already happened), then behaves like the identity.
    Exercises real worker-loss re-execution, not just injected failures."""

    sentinel: str

    def __call__(self, key, value):
        path = Path(self.sentinel)
        if not path.exists():
            path.write_bytes(b"crashed")
            os._exit(1)
        yield key, value


CORPUS = [(i, line) for i, line in enumerate(["a b b", "b c", "a a a c", ""])]
EXPECTED = {"a": 4, "b": 3, "c": 2}


class TestShuffle:
    def test_key_bytes_distinguishes_types(self):
        assert key_bytes(1) != key_bytes("1")
        assert key_bytes(True) != key_bytes(1)
        assert key_bytes((1, 2)) != key_bytes((1, "2"))

    def test_partition_stable_and_in_range(self):
        for key in [0, -5, "node", (7, 3), b"raw"]:
            p = default_partition(key, 7)
            assert 0 <= p < 7
            assert p == default_partition(key, 7)

    def test_unsupported_key_rejected(self):
        with pytest.raises(TypeError):
            key_bytes(3.14)

    @given(st.integers(-(2**63), 2**63 - 1), st.integers(1, 64))
    def test_int_partition_property(self, key, n):
        assert 0 <= default_partition(key, n) < n

    def test_int_key_beyond_64_bits_rejected(self):
        with pytest.raises(TypeError, match="64 bits"):
            key_bytes(1 << 70)


class TestRuntimeBasics:
    def test_word_count(self):
        out = dict(LocalRuntime().run(word_count_job(), CORPUS))
        assert out == EXPECTED

    def test_combiner_reduces_shuffle_volume(self):
        runtime = LocalRuntime()
        runtime.run(word_count_job(num_mappers=1), CORPUS)
        with_combiner = runtime.last_stats.shuffled_records
        job = word_count_job(num_mappers=1)
        job.combiner = None
        runtime.run(job, CORPUS)
        without = runtime.last_stats.shuffled_records
        assert with_combiner < without

    def test_reducer_rekeying(self):
        """Reducers may emit different keys — GraphFlat's propagation."""
        job = MapReduceJob("rekey", lambda k, vs: [(k + 1, sum(vs))])
        out = dict(LocalRuntime().run(job, [(1, 10), (1, 5), (2, 1)]))
        assert out == {2: 15, 3: 1}

    def test_run_rounds_chains(self):
        inc = MapReduceJob("inc", lambda k, vs: [(k, sum(vs) + 1)])
        out = dict(LocalRuntime().run_rounds([inc, inc, inc], [(0, 0)]))
        assert out == {0: 3}

    def test_threads_match_serial(self):
        serial = LocalRuntime("serial").run(word_count_job(num_reducers=3), CORPUS)
        threaded = LocalRuntime("threads", max_workers=4).run(
            word_count_job(num_reducers=3), CORPUS
        )
        assert serial == threaded

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            LocalRuntime("mpi")

    def test_empty_input(self):
        assert LocalRuntime().run(word_count_job(), []) == []

    def test_stats_populated(self):
        runtime = LocalRuntime()
        runtime.run(word_count_job(num_reducers=2), CORPUS)
        stats = runtime.last_stats
        assert stats.input_records == 4
        assert stats.mapped_records == 9
        assert stats.reduced_records == 3
        assert sum(stats.reducer_group_sizes.values()) == 3


class TestFaultTolerance:
    def test_output_identical_under_injected_failures(self):
        baseline = LocalRuntime().run(word_count_job(num_reducers=3), CORPUS)
        plan = FaultPlan({"crash": 0.4}, seed=11)
        runtime = LocalRuntime(max_attempts=10, fault_plan=plan)
        out = runtime.run(word_count_job(num_reducers=3), CORPUS)
        assert out == baseline
        assert plan.injected > 0
        assert runtime.last_stats.map_attempts + runtime.last_stats.reduce_attempts > 3 + 3

    def test_exhausted_retries_raise(self):
        plan = FaultPlan({"crash": 1.0}, seed=0)
        runtime = LocalRuntime(max_attempts=2, fault_plan=plan)
        with pytest.raises(JobFailedError):
            runtime.run(word_count_job(), CORPUS)

    def test_threaded_with_failures_matches_serial(self):
        baseline = LocalRuntime().run(word_count_job(num_reducers=4), CORPUS)
        runtime = LocalRuntime(
            "threads", max_attempts=10, fault_plan=FaultPlan({"crash": 0.3}, seed=5)
        )
        assert runtime.run(word_count_job(num_reducers=4), CORPUS) == baseline
        assert runtime.fault_plan.injected > 0


class TestProcessBackend:
    def test_processes_match_serial(self):
        serial = LocalRuntime("serial").run(
            picklable_word_count_job(num_reducers=3), CORPUS
        )
        with LocalRuntime("processes", max_workers=2) as runtime:
            procs = runtime.run(picklable_word_count_job(num_reducers=3), CORPUS)
        assert procs == serial

    def test_processes_with_failures_match_serial(self):
        baseline = LocalRuntime().run(picklable_word_count_job(num_reducers=3), CORPUS)
        plan = FaultPlan({"crash": 0.4}, seed=11)
        with LocalRuntime(
            "processes", max_workers=2, max_attempts=10, fault_plan=plan
        ) as runtime:
            out = runtime.run(picklable_word_count_job(num_reducers=3), CORPUS)
            stats = runtime.last_stats
        assert out == baseline
        assert plan.injected > 0
        assert stats.map_attempts + stats.reduce_attempts > 3 + 3

    def test_unpicklable_job_rejected_with_guidance(self):
        with LocalRuntime("processes", max_workers=2) as runtime:
            with pytest.raises(TypeError, match="callable dataclasses"):
                runtime.run(word_count_job(), CORPUS)  # closure operators

    def test_worker_crash_is_reexecuted(self, tmp_path):
        job = MapReduceJob(
            "crashy",
            sum_reducer,
            mapper=CrashOnceMapper(str(tmp_path / "crashed")),
            num_reducers=2,
            num_mappers=2,
        )
        with LocalRuntime("processes", max_workers=2, max_attempts=5) as runtime:
            out = dict(runtime.run(job, [(1, 10), (2, 20), (3, 30)]))
            stats = runtime.last_stats
        assert out == {1: 10, 2: 20, 3: 30}
        assert stats.map_attempts > 2  # at least one re-execution happened

    def test_processes_chain_rounds(self):
        inc = MapReduceJob("inc", _inc_reducer)
        with LocalRuntime("processes", max_workers=2) as runtime:
            out = dict(runtime.run_rounds([inc, inc, inc], [(0, 0)]))
        assert out == {0: 3}


def _inc_reducer(k, vs):
    yield k, sum(vs) + 1


_WARM_START_SCRIPT = """
import os, sys
sys.path.insert(0, {src!r})  # the only way this interpreter can find repro
from multiprocessing import forkserver, resource_tracker
from repro.mapreduce import LocalRuntime, MapReduceJob

def probe(key, values):
    # nothing this job ships imports the pipelines: only a forkserver that
    # preloaded them explains their presence in a fresh worker
    yield key, sorted(m for m in ("numpy", "repro.core.infer") if m in sys.modules)

if __name__ == "__main__":
    assert "PYTHONPATH" not in os.environ
    with LocalRuntime("processes", max_workers=2) as runtime:
        out = runtime.run(MapReduceJob("probe", probe, num_reducers=2), [(1, 1), (2, 2)])
    assert "PYTHONPATH" not in os.environ  # lent for the start only
    assert forkserver._forkserver._forkserver_pid is not None  # the default one
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()
    print(sorted(out))
"""


class TestWarmWorkerStart:
    def test_workers_fork_with_the_pipelines_loaded(self, tmp_path):
        """``repro`` reachable through ``sys.path`` alone (how
        ``python3 bench/run.py`` runs): the forkserver must still preload
        it, stay multiprocessing's default one, and leave the environment
        as it found it."""
        import subprocess
        import sys

        src = Path(__file__).resolve().parents[1] / "src"
        script = tmp_path / "warm.py"
        script.write_text(_WARM_START_SCRIPT.format(src=str(src)))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, str(script)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        loaded = ["numpy", "repro.core.infer"]
        assert proc.stdout.strip() == str([(1, loaded), (2, loaded)])

    def test_failed_warm_up_degrades_silently(self, monkeypatch):
        from multiprocessing import forkserver

        from repro.mapreduce import backends

        def refuse():
            raise OSError("no forkserver for you")

        monkeypatch.setattr(forkserver, "ensure_running", refuse)
        monkeypatch.setenv("PYTHONPATH", "/somewhere/else")
        backends._start_warm_forkserver()  # must not raise
        assert os.environ["PYTHONPATH"] == "/somewhere/else"


class TestBackendRegistry:
    def test_known_backends_registered(self):
        assert {"serial", "threads", "processes"} <= set(BACKEND_REGISTRY)

    def test_make_backend_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("mpi")

    def test_custom_backend_registration(self):
        @register_backend("test-custom")
        class CustomBackend(SerialBackend):
            pass

        try:
            runtime = LocalRuntime("test-custom")
            assert dict(runtime.run(word_count_job(), CORPUS)) == EXPECTED
        finally:
            del BACKEND_REGISTRY["test-custom"]


class TestSpill:
    def test_disk_spill_matches_memory(self, tmp_path):
        spilled = LocalRuntime(spill_dir=tmp_path).run(word_count_job(), CORPUS)
        assert dict(spilled) == EXPECTED
        # spill files are cleaned up after the job
        assert not list(tmp_path.glob("*.pkl"))

    def test_spill_matches_memory_on_threads(self, tmp_path):
        baseline = LocalRuntime("serial").run(word_count_job(num_reducers=3), CORPUS)
        spilled = LocalRuntime("threads", max_workers=4, spill_dir=tmp_path).run(
            word_count_job(num_reducers=3), CORPUS
        )
        assert spilled == baseline

    def test_spill_shuffle_stats_match_memory(self, tmp_path):
        memory = LocalRuntime()
        memory.run(word_count_job(num_reducers=3), CORPUS)
        spill = LocalRuntime(spill_dir=tmp_path)
        spill.run(word_count_job(num_reducers=3), CORPUS)
        assert spill.last_stats.shuffled_records == memory.last_stats.shuffled_records
        assert spill.last_stats.reducer_group_sizes == memory.last_stats.reducer_group_sizes

    @pytest.mark.parametrize("codec", ["pickle", "binary"])
    def test_layout_one_file_per_map_task_and_partition(self, tmp_path, codec):
        ext = "pkl" if codec == "pickle" else "bin"
        layout = SpillLayout(str(tmp_path), "job", num_partitions=3, codec=codec)
        res0 = layout.write_map_output(0, [[("a", 1)], [], [("c", 3), ("c", 4)]])
        res1 = layout.write_map_output(1, [[("a", 9)], [("b", 2)], []])
        assert res0.counts == [1, 0, 2]
        assert res1.counts == [1, 1, 0]
        assert res0.bytes_written > 0 and res1.bytes_written > 0
        # empty buckets produce no file; eager writes are a single run 0
        names = sorted(p.name for p in tmp_path.glob(f"*.{ext}"))
        assert names == [
            f"job.m00000.p00000.r00000.{ext}",
            f"job.m00000.p00002.r00000.{ext}",
            f"job.m00001.p00000.r00000.{ext}",
            f"job.m00001.p00001.r00000.{ext}",
        ]
        # reduce-side merge: key-sorted, ties in map-task order (exactly the
        # stable sort of the in-memory shuffle's concatenation order)
        assert list(layout.iter_partition(0, num_map_tasks=2)) == [("a", 1), ("a", 9)]
        assert list(layout.iter_partition(1, num_map_tasks=2)) == [("b", 2)]
        assert list(layout.iter_partition(2, num_map_tasks=2)) == [("c", 3), ("c", 4)]
        assert list(layout.iter_groups(2, num_map_tasks=2)) == [("c", [3, 4])]
        layout.cleanup(num_map_tasks=2)
        assert not list(tmp_path.glob(f"*.{ext}"))

    def test_cleanup_removes_orphaned_tmp_files(self, tmp_path):
        """A task attempt that dies mid-write leaves a ``.tmp<pid>`` partial;
        cleanup must glob it away instead of leaking it forever."""
        layout = SpillLayout(str(tmp_path), "job", num_partitions=2)
        layout.write_map_output(0, [[("a", 1)], [("b", 2)]])
        orphan = tmp_path / "job.m00000.p00001.tmp12345"
        orphan.write_bytes(b"partial write from a dead attempt")
        layout.cleanup(num_map_tasks=1)
        assert not list(tmp_path.iterdir())

    def test_unknown_codec_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown spill codec"):
            SpillLayout(str(tmp_path), "job", num_partitions=1, codec="json")
        with pytest.raises(ValueError, match="unknown shuffle codec"):
            LocalRuntime(shuffle_codec="json")

    @pytest.mark.parametrize("codec", ["pickle", "binary"])
    def test_merge_streams_with_bounded_read_buffer(self, tmp_path, codec, monkeypatch):
        """The reduce-side merge must not materialize the partition: after
        consuming a handful of records from a large partition, only a
        bounded prefix of the spill bytes — a chunk or so per run file —
        may have been read."""
        from repro.mapreduce import spill as spill_mod
        from repro.proto.framing import iter_frames

        layout = SpillLayout(str(tmp_path), "big", num_partitions=1, codec=codec)
        per_task = 20_000
        total_bytes = 0
        for task in range(3):
            bucket = [
                (task * per_task + i, f"{task * per_task + i:064d}")
                for i in range(per_task)
            ]
            total_bytes += layout.write_map_output(task, [bucket]).bytes_written
        bound = 4 << 16  # 64 KiB of chunk + read-ahead per file, plus slack
        assert total_bytes > 4 * bound  # the partition dwarfs the bound

        consumed = {}

        def tracking_iter_frames(fh):
            for frame in iter_frames(fh):
                consumed[fh.name] = fh.tell()
                yield frame

        monkeypatch.setattr(spill_mod, "iter_frames", tracking_iter_frames)
        stream = layout.iter_partition(0, num_map_tasks=3)
        head = [next(stream) for _ in range(100)]
        assert len(head) == 100
        assert len(consumed) == 3 and sum(consumed.values()) <= bound
        # sanity: a full drain still yields every record
        everything = list(layout.iter_partition(0, num_map_tasks=3))
        assert len(everything) == 3 * per_task
        assert all(v == f"{k:064d}" for k, v in everything[:50])

    def test_spill_round_trip_is_deterministic(self, tmp_path):
        runs = [
            LocalRuntime(spill_dir=tmp_path / f"run{i}").run(
                picklable_word_count_job(num_reducers=4, num_mappers=3), CORPUS
            )
            for i in range(2)
        ]
        baseline = LocalRuntime().run(
            picklable_word_count_job(num_reducers=4, num_mappers=3), CORPUS
        )
        assert runs[0] == runs[1] == baseline


class TestShuffleCodecRuntime:
    @pytest.mark.parametrize("codec", ["pickle", "binary"])
    def test_codec_matches_memory_shuffle(self, tmp_path, codec):
        baseline = LocalRuntime("serial").run(
            picklable_word_count_job(num_reducers=3, num_mappers=2), CORPUS
        )
        runtime = LocalRuntime(spill_dir=tmp_path, shuffle_codec=codec)
        out = runtime.run(picklable_word_count_job(num_reducers=3, num_mappers=2), CORPUS)
        assert out == baseline
        assert runtime.last_stats.shuffle_bytes_written > 0

    def test_binary_codec_spills_fewer_bytes_than_pickle(self, tmp_path):
        """The point of the flat codec: identical records, fewer bytes."""
        data = [(i, (i, float(i), np.full(32, i, dtype=np.float32))) for i in range(200)]
        job = MapReduceJob("echo", _echo_reducer, num_mappers=2, num_reducers=2)
        sizes = {}
        for codec in ("pickle", "binary"):
            runtime = LocalRuntime(spill_dir=tmp_path / codec, shuffle_codec=codec)
            out = runtime.run(job, data)
            sizes[codec] = runtime.last_stats.shuffle_bytes_written
            assert len(out) == len(data)
        assert 0 < sizes["binary"] < sizes["pickle"]

    def test_memory_shuffle_reports_zero_bytes(self):
        runtime = LocalRuntime()
        runtime.run(word_count_job(), CORPUS)
        assert runtime.last_stats.shuffle_bytes_written == 0

    def test_run_rounds_accumulates_bytes(self, tmp_path):
        inc = MapReduceJob("inc", _inc_reducer, num_reducers=2)
        runtime = LocalRuntime(spill_dir=tmp_path, shuffle_codec="binary")
        out = dict(runtime.run_rounds([inc, inc], [(0, 0), (1, 5)]))
        assert out == {0: 2, 1: 7}
        assert runtime.last_stats.shuffle_bytes_written > 0
        # round 0 spills its own input plus the chain files it writes for
        # round 1; the terminal round only collects, so it writes nothing.
        assert runtime.round_stats[0].shuffle_bytes_written > 0
        assert runtime.round_stats[-1].shuffle_bytes_written == 0


class TestParentSidePartitioning:
    """A reduce-only first round needs no map phase: the parent partitions
    (and spills) the input directly, skipping one full IPC pass."""

    def test_identity_first_round_skips_map_tasks(self):
        inc = MapReduceJob("inc", _inc_reducer, num_reducers=3)
        runtime = LocalRuntime()
        out = dict(runtime.run(inc, [(i, i) for i in range(9)]))
        assert out == {i: i + 1 for i in range(9)}
        stats = runtime.last_stats
        assert stats.map_attempts == 0  # no identity map tasks ran
        assert stats.input_records == stats.mapped_records == 9

    def test_mapper_jobs_still_run_map_phase(self):
        runtime = LocalRuntime()
        runtime.run(word_count_job(num_reducers=2), CORPUS)
        assert runtime.last_stats.map_attempts > 0

    @pytest.mark.parametrize("codec", ["pickle", "binary"])
    def test_spilled_first_round_matches_memory(self, tmp_path, codec):
        inc = MapReduceJob("inc", _inc_reducer, num_reducers=3)
        data = [(i % 5, i) for i in range(40)]
        baseline = LocalRuntime().run(inc, list(data))
        runtime = LocalRuntime(spill_dir=tmp_path, shuffle_codec=codec)
        assert runtime.run(inc, list(data)) == baseline
        assert runtime.last_stats.map_attempts == 0
        assert runtime.last_stats.shuffle_bytes_written > 0

    def test_failed_parent_spill_leaves_no_files(self, tmp_path):
        """An encode failure mid parent-side spill must still clean up its
        run directory (including any .tmp partial); closing the runtime
        removes the session directory itself."""
        inc = MapReduceJob("inc", _inc_reducer, num_reducers=2)
        runtime = LocalRuntime(spill_dir=tmp_path, shuffle_codec="binary")
        with pytest.raises(TypeError, match="no binary wire form"):
            runtime.run(inc, [(0, 1), (1, object())])  # unencodable value
        assert not any(p for p in tmp_path.rglob("*") if not p.is_dir()), (
            "failed run leaked spill files"
        )
        runtime.close()
        assert not any(tmp_path.rglob("*")), "close leaked the session dir"

    def test_chained_rounds_first_round_parent_partitioned(self, tmp_path):
        inc = MapReduceJob("inc", _inc_reducer, num_reducers=2)
        runtime = LocalRuntime(spill_dir=tmp_path, shuffle_codec="binary")
        out = dict(runtime.run_rounds([inc, inc, inc], [(0, 0)]))
        assert out == {0: 3}
        assert all(rs.map_attempts == 0 for rs in runtime.round_stats)


def emit_mapper(_, pair):
    yield pair


def collect_reducer(key, values):
    yield key, list(values)


def regroup_reducer(key, values):
    for value in values:
        yield key, value


class TestKeyIdentity:
    """The spill writer groups under the Python key, the shuffle contract is
    grouping by canonical key bytes: ``True`` / ``1`` (equal and hash-equal
    in a dict) stay apart, and what ``key_bytes`` rejects still raises."""

    SHUFFLES = {
        "memory": dict(),
        "spill-binary": dict(shuffle_codec="binary"),
        "spill-pickle": dict(shuffle_codec="pickle"),
    }
    KEYS = [1, True, (1, 0), (True, 0), 0, False, (1, "a"), (True, "a")]

    def run(self, tmp_path, name, pairs, **runtime_kwargs):
        kwargs = dict(self.SHUFFLES[name], **runtime_kwargs)
        if name != "memory":
            kwargs["spill_dir"] = tmp_path / name
        # a mapped round (map-task writers), a chained reduce-only round
        # (chain-sink writers) and a terminal collect
        jobs = [
            MapReduceJob("emit", regroup_reducer, mapper=emit_mapper, num_reducers=2),
            MapReduceJob("group", collect_reducer, num_reducers=2),
        ]
        with LocalRuntime(**kwargs) as runtime:
            out = runtime.run_rounds(jobs, list(enumerate(pairs)))
        # repr tells True from 1 where == does not
        return [(repr(key), values) for key, values in out]

    @pytest.mark.parametrize("run_records", [1 << 16, 3])
    def test_equal_but_distinct_keys_group_apart_on_every_shuffle(
        self, tmp_path, run_records
    ):
        pairs = [(key, i) for i, key in enumerate(self.KEYS * 3)]
        expected = self.run(tmp_path, "memory", pairs)
        assert len(expected) == len(self.KEYS)
        assert all(len(values) == 3 for _, values in expected)
        for name in ("spill-binary", "spill-pickle"):
            assert self.run(
                tmp_path, name, pairs, spill_run_records=run_records
            ) == expected, name

    def test_parent_side_first_round_keeps_them_apart_too(self, tmp_path):
        pairs = [(key, i) for i, key in enumerate(self.KEYS * 2)]
        job = MapReduceJob("group", collect_reducer, num_reducers=2)
        expected = [(repr(k), v) for k, v in LocalRuntime().run(job, pairs)]
        for codec in ("binary", "pickle"):
            with LocalRuntime(spill_dir=tmp_path / codec, shuffle_codec=codec) as runtime:
                out = runtime.run(job, pairs)
            assert [(repr(k), v) for k, v in out] == expected

    @pytest.mark.parametrize(
        "bad, match",
        [
            (1.0, "unsupported shuffle key type float"),
            (np.int64(1), "unsupported shuffle key type int64"),
            ((1, 2.5), "unsupported shuffle key type float"),
            (1 << 70, "64 bits"),
        ],
    )
    @pytest.mark.parametrize("shuffle", sorted(SHUFFLES))
    def test_unsupported_keys_raise_on_every_shuffle(self, tmp_path, shuffle, bad, match):
        """Also when an equal, supported key (1) was buffered first."""
        with pytest.raises(TypeError, match=match):
            self.run(tmp_path, shuffle, [(1, "ok"), (bad, "boom")])

    def test_writer_append_rejects_and_separates_like_extend(self, tmp_path):
        layout = SpillLayout(str(tmp_path), "job", 1, "binary")
        writer = layout.run_writer(0)
        for i, key in enumerate(self.KEYS):
            writer.append(0, key, i)
        with pytest.raises(TypeError, match="unsupported shuffle key type"):
            writer.append(0, 1.0, "boom")
        writer.finish()
        groups = list(layout.iter_groups(0, 1))
        assert sorted(repr(k) for k, _ in groups) == sorted(map(repr, self.KEYS))
        big = layout.run_writer(1)
        big.append(0, 1 << 70, "boom")  # plain ints are only encoded at flush
        with pytest.raises(TypeError, match="64 bits"):
            big.finish()


class TestRunBounds:
    """The run bounds are checked where the caller set them — before any
    pool, session directory or round exists — not inside the first spilling
    task (where the error used to name ``run_bytes`` and, under
    ``processes``, surface from a worker after earlier rounds had run)."""

    @pytest.mark.parametrize("knob", ["spill_run_records", "spill_run_bytes"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_runtime_rejects_bad_bounds_at_construction(self, tmp_path, knob, value):
        with pytest.raises(ValueError, match=f"{knob} must be >= 1"):
            LocalRuntime(backend="processes", spill_dir=tmp_path, **{knob: value})
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("knob", ["spill_run_records", "spill_run_bytes"])
    def test_pipeline_configs_reject_bad_bounds(self, knob):
        from repro.core.graphflat import GraphFlatConfig
        from repro.core.infer import GraphInferConfig

        for config in (GraphFlatConfig, GraphInferConfig):
            with pytest.raises(ValueError, match=f"{knob} must be >= 1"):
                config(**{knob: -5})
            assert getattr(config(**{knob: 1}), knob) == 1


def degree_mapper(key, value):
    yield value[1], 1


class TestBenchmarkSurface:
    """``bench/`` may not be edited, so the signatures it drives are pinned
    here exactly as ``bench/probes.py`` calls them (``spill_and_framing`` and
    ``runtime_records_per_s``)."""

    def test_spill_probe_calls(self, tmp_path):
        count, width, num_keys = 256, 16, 32
        rng = np.random.default_rng(0)
        payload = rng.standard_normal((count, width)).astype(np.float32)
        keys = (np.arange(count, dtype=np.int64) * 2654435761) % num_keys
        values = [(int(k), 1.0, payload[i]) for i, k in enumerate(keys)]

        blobs = [encode_value(v) for v in values]
        decoded = [decode_value(b) for b in blobs]
        assert all(end == len(blob) for (_, end), blob in zip(decoded, blobs))
        assert all(np.array_equal(d[2], v[2]) for (d, _), v in zip(decoded, values))

        layout = SpillLayout(str(tmp_path / "probe"), "bench-probe", 4, codec="binary")
        writer = layout.run_writer(0, run_bytes=1 << 12)
        for key, value in zip(keys.tolist(), values):
            writer.append(key % 4, key, value)
        written = writer.finish()
        assert isinstance(written, SpillWriteResult)
        assert sum(written.counts) == count
        assert written.bytes_written == sum(written.partition_bytes) > 0
        assert 0 < written.peak_buffer_bytes < written.bytes_written  # several runs
        merged = sum(
            len(group) for p in range(4) for _, group in layout.iter_groups(p, 1)
        )
        assert merged == count
        assert sum(1 for p in range(4) for _ in layout.iter_partition(p, 1)) == count
        layout.cleanup(1)
        assert not list((tmp_path / "probe").iterdir())

        other = SpillLayout(str(tmp_path / "probe"), "bench-probe", 4, codec="binary")
        counts = other.write_map_output(0, [[(1, values[0])], [], [], []]).counts
        assert counts == [1, 0, 0, 0]
        assert other.run_writer(1, run_records=8, run_bytes=64).finish().counts == [0] * 4

    @pytest.mark.parametrize("backend, workers", [("serial", None), ("processes", 2)])
    def test_runtime_probe_calls(self, tmp_path, backend, workers):
        rows = [(s, (s, d, 1.0, None)) for s in range(40) for d in range(s % 5)]
        job = MapReduceJob(
            "bench-degree", sum_reducer, mapper=degree_mapper,
            combiner=SumCombiner(), num_reducers=4,
        )
        with LocalRuntime(
            backend=backend, max_workers=workers, shuffle_codec="binary",
            spill_dir=str(tmp_path),
        ) as runtime:
            out = runtime.run(job, rows)
        assert sum(count for _, count in out) == len(rows)
        assert runtime.last_stats.combined_records > 0
        with LocalRuntime(
            shuffle_codec="binary", spill_run_records=4, spill_run_bytes=1 << 10,
            spill_dir=str(tmp_path),
        ) as bounded:
            assert bounded.run(job, rows) == out


def _echo_reducer(key, values):
    for value in values:
        yield key, value


class TestRunStatsMerge:
    def test_merge_preserves_group_sizes_and_job(self):
        merged = RunStats()
        a = RunStats(job="round1", reduced_records=3, reducer_group_sizes={0: 2, 1: 1})
        b = RunStats(job="round2", reduced_records=1, reducer_group_sizes={1: 4})
        merged.merge(a)
        merged.merge(b)
        assert merged.job == "round1"
        assert merged.reduced_records == 4
        assert merged.reducer_group_sizes == {0: 2, 1: 5}

    def test_run_rounds_merges_group_sizes(self):
        inc = MapReduceJob("inc", lambda k, vs: [(k, sum(vs) + 1)], num_reducers=2)
        runtime = LocalRuntime()
        runtime.run_rounds([inc, inc], [(0, 0), (1, 5)])
        stats = runtime.last_stats
        assert stats.job == "inc+inc"
        # two rounds x two groups, accumulated per partition
        assert sum(stats.reducer_group_sizes.values()) == 4


class TestDistFileSystem:
    def test_write_read_round_trip(self, tmp_path):
        fs = DistFileSystem(tmp_path)
        records = [f"rec{i}".encode() for i in range(10)]
        assert fs.write_dataset("out/data", records, num_shards=3) == 10
        assert fs.num_shards("out/data") == 3
        assert sorted(fs.read_dataset("out/data")) == sorted(records)

    def test_shard_roundrobin_balance(self, tmp_path):
        fs = DistFileSystem(tmp_path)
        fs.write_dataset("ds", [b"x"] * 10, num_shards=3)
        sizes = [len(list(fs.read_shard("ds", i))) for i in range(3)]
        assert sizes == [4, 3, 3]

    def test_overwrite_replaces(self, tmp_path):
        fs = DistFileSystem(tmp_path)
        fs.write_dataset("ds", [b"old"] * 5, num_shards=2)
        fs.write_dataset("ds", [b"new"], num_shards=1)
        assert list(fs.read_dataset("ds")) == [b"new"]
        assert fs.num_shards("ds") == 1

    def test_missing_dataset_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            DistFileSystem(tmp_path).shards("nope")

    def test_bad_names_rejected(self, tmp_path):
        fs = DistFileSystem(tmp_path)
        for name in ["", "/abs", "a/../b"]:
            with pytest.raises(ValueError):
                fs.write_dataset(name, [])

    def test_metadata(self, tmp_path):
        fs = DistFileSystem(tmp_path)
        fs.write_dataset("a/b", [b"12345"] * 4, num_shards=2)
        assert fs.exists("a/b")
        assert fs.count_records("a/b") == 4
        assert fs.size_bytes("a/b") > 0
        assert "a/b" in fs.list_datasets()
        fs.delete("a/b")
        assert not fs.exists("a/b")


class TestDeterminismProperty:
    @given(
        seed=st.integers(0, 2**16),
        reducers=st.integers(1, 6),
        rate=st.sampled_from([0.0, 0.3]),
    )
    @settings(max_examples=20, deadline=None)
    def test_any_config_same_answer(self, seed, reducers, rate):
        """Property: reducer count, backend and failures never change the
        job's *result* — only its schedule."""
        rng = np.random.default_rng(seed)
        data = [(int(i), int(v)) for i, v in enumerate(rng.integers(0, 5, 30))]
        job = MapReduceJob(
            "sum", lambda k, vs: [(k, sum(vs))], mapper=lambda k, v: [(v, 1)],
            num_reducers=reducers,
        )
        baseline = sorted(LocalRuntime().run(
            MapReduceJob("sum", lambda k, vs: [(k, sum(vs))],
                         mapper=lambda k, v: [(v, 1)], num_reducers=1), data))
        runtime = LocalRuntime(
            backend="threads",
            max_attempts=12,
            fault_plan=FaultPlan({"crash": rate}, seed=seed) if rate else None,
        )
        assert sorted(runtime.run(job, data)) == baseline


# ------------------------------------------------------------------ side stages
# A job that ``accepts`` only some keys: the round before it routes every
# other key straight into the round after it.  The oracle is the same chain
# with the filter taken off and a middle reducer that passes those keys
# through by hand — the full extra shuffle the side stage exists to avoid.


def spread_reducer(key, values):
    """Round *i*: plain int keys for most records, tuple keys for a few."""
    for value in values:
        yield key, value
        yield (key + value) % 7, value + 1
        if value % 3 == 0:
            yield (key % 5, 1 + value % 2), value


def is_tuple_key(key):
    return type(key) is tuple


def fold_reducer(key, values):
    """The side stage: only ever sees tuple keys."""
    base, _ = key
    yield base, ("sum", sum(values))


def fold_or_pass_reducer(key, values):
    """The oracle's middle round: folds tuple keys, passes the rest on."""
    if type(key) is tuple:
        yield from fold_reducer(key, values)
        return
    for value in values:
        yield key, value


def canonical_reducer(key, values):
    """Round *i+2*: arrival order within a group is not part of the
    contract (the two chains interleave writers differently)."""
    yield key, sorted(values, key=repr)


def respread_reducer(key, values):
    """A merge round that itself feeds another side stage."""
    for value in values:
        n = value[1] if type(value) is tuple else value
        yield from spread_reducer(key, [n % 11])


SIDE_INPUT = [(i % 13, i) for i in range(240)]


def side_chain(side: bool, long: bool = False) -> list[MapReduceJob]:
    def job(name, reducer, **kwargs):
        return MapReduceJob(name, reducer, num_reducers=3, **kwargs)

    def middle(name):
        if side:
            return job(name, fold_reducer, accepts=is_tuple_key)
        return job(name, fold_or_pass_reducer)

    jobs = [job("spread", spread_reducer), middle("fold")]
    if long:
        jobs += [job("respread", respread_reducer), middle("fold2")]
    return jobs + [job("collect", canonical_reducer)]


def side_runtime(backend, shuffle, transport, tmp_path, **kwargs) -> LocalRuntime:
    spill = shuffle == "spill" or transport != "local"
    return LocalRuntime(
        backend=backend, max_workers=2, shuffle_transport=transport,
        spill_dir=tmp_path / "spill" if spill else None,
        spill_run_records=64,  # several runs per writer: a real k-way merge
        **kwargs,
    )


SIDE_MATRIX = [
    (backend, shuffle, transport)
    for backend in ("serial", "threads", "processes")
    for shuffle, transport in [
        ("memory", "local"), ("spill", "local"), ("spill", "tcp"), ("spill", "shared-dir"),
    ]
    if (backend, shuffle) != ("processes", "memory")  # that backend always spills
]


class RoundFaults(FaultPlan):
    """Fault plan aimed at one round: the first attempt of every task of
    ``job`` draws ``kind``; every other attempt runs clean."""

    def __init__(self, job: str, kind: str):
        super().__init__({kind: 1.0}, seed=0, slow_s=0.01, hang_limit_s=30.0)
        self.job = job

    def draw(self, job_name, task_id, attempt):
        if job_name != self.job or attempt > 0:
            return None
        return super().draw(job_name, task_id, attempt)


class TestSideStage:
    @pytest.fixture(scope="class")
    def expected(self):
        return {
            long: LocalRuntime().run_rounds(side_chain(False, long), SIDE_INPUT)
            for long in (False, True)
        }

    @pytest.mark.parametrize("long", [False, True], ids=["3-jobs", "5-jobs"])
    @pytest.mark.parametrize("backend,shuffle,transport", SIDE_MATRIX)
    def test_equals_the_explicit_pass_through_chain(
        self, expected, tmp_path, backend, shuffle, transport, long
    ):
        with side_runtime(backend, shuffle, transport, tmp_path) as runtime:
            out = runtime.run_rounds(side_chain(True, long), SIDE_INPUT)
            stats = {s.job: s for s in runtime.round_stats}
        assert out == expected[long]
        # only the accepted keys took the extra shuffle ...
        spread = LocalRuntime().run(side_chain(True)[0], SIDE_INPUT)
        tuples = sum(1 for key, _ in spread if type(key) is tuple)
        assert 0 < tuples < len(spread) // 4
        assert stats["fold"].shuffled_records == tuples
        # ... and the merge round saw the rest plus what the side stage made
        assert stats["fold"].reduced_records == len({k for k, _ in spread if type(k) is tuple})
        merge = "respread" if long else "collect"
        assert stats[merge].shuffled_records == (
            len(spread) - tuples + stats["fold"].reduced_records
        )
        if shuffle == "spill":
            assert stats["spread"].shuffle_bytes_written > 0
            assert not list((tmp_path / "spill").rglob("*.bin"))
            assert not list((tmp_path / "spill").rglob("*.pkl"))

    @pytest.mark.parametrize("victim", ["spread", "fold", "collect"])
    @pytest.mark.parametrize(
        "kind", ["crash", "hang", "slow", "corrupt-run", "truncate-run", "conn-reset"]
    )
    def test_faults_in_any_of_the_three_rounds_change_nothing(
        self, expected, tmp_path, kind, victim
    ):
        """A retried side-stage attempt rewrites its own runs in the shared
        layout (writer indices past the previous round's) — it can neither
        duplicate nor lose what the round before routed past it."""
        plan = RoundFaults(victim, kind)
        with side_runtime(
            "threads", "spill", "tcp" if kind == "conn-reset" else "local", tmp_path,
            fault_plan=plan, max_attempts=3,
            task_timeout_s=0.5 if kind == "hang" else None,
        ) as runtime:
            out = runtime.run_rounds(side_chain(True), SIDE_INPUT)
            attempts = {s.job: s.reduce_attempts for s in runtime.round_stats}
        assert out == expected[False]
        assert plan.injected_by_kind[kind] == 3  # one per task of the victim round
        retried = kind != "slow"
        assert attempts == {
            name: 6 if retried and name == victim else 3
            for name in ("spread", "fold", "collect")
        }

    @pytest.mark.parametrize("victim", ["spread", "fold", "collect"])
    @pytest.mark.parametrize("kind", ["crash", "corrupt-run"])
    def test_faults_under_the_process_backend(self, expected, tmp_path, kind, victim):
        plan = RoundFaults(victim, kind)
        with side_runtime(
            "processes", "spill", "local", tmp_path, fault_plan=plan
        ) as runtime:
            assert runtime.run_rounds(side_chain(True), SIDE_INPUT) == expected[False]
        assert plan.injected_by_kind[kind] == 3

    @pytest.mark.parametrize("victim", ["spread", "fold", "collect"])
    @pytest.mark.parametrize("transport", ["local", "shared-dir"])
    def test_a_failed_chain_leaves_no_run_directory_behind(
        self, tmp_path, transport, victim
    ):
        runtime = side_runtime(
            "serial", "spill", transport, tmp_path,
            fault_plan=RoundFaults(victim, "crash"), max_attempts=1,
        )
        with pytest.raises(JobFailedError):
            runtime.run_rounds(side_chain(True), SIDE_INPUT)
        session = [p for p in (tmp_path / "spill").iterdir()]
        assert len(session) == 1 and not list(session[0].iterdir())
        runtime.close()
        assert not list((tmp_path / "spill").iterdir())

    def test_ill_formed_chains_raise_naming_the_job(self):
        plain = MapReduceJob("plain", canonical_reducer)
        side = MapReduceJob("side", fold_reducer, accepts=is_tuple_key)
        runtime = LocalRuntime()
        with pytest.raises(ValueError, match="'side'.*first job"):
            runtime.run_rounds([side, plain, plain], SIDE_INPUT)
        with pytest.raises(ValueError, match="'side'.*last job"):
            runtime.run_rounds([plain, side], SIDE_INPUT)
        with pytest.raises(ValueError, match="'side'.*first job"):
            runtime.run(side, SIDE_INPUT)
        other = MapReduceJob("side2", fold_reducer, accepts=is_tuple_key)
        with pytest.raises(ValueError, match="'side' and 'side2' both accept"):
            runtime.run_rounds([plain, side, other, plain], SIDE_INPUT)
        mapped = MapReduceJob("mapped", canonical_reducer, mapper=emit_mapper)
        with pytest.raises(ValueError, match="'side'.*'mapped' has a mapper or combiner"):
            runtime.run_rounds([plain, side, mapped], SIDE_INPUT)
        combined = MapReduceJob(
            "side", fold_reducer, accepts=is_tuple_key, combiner=SumCombiner()
        )
        with pytest.raises(ValueError, match="'side'.*'side' has a mapper or combiner"):
            runtime.run_rounds([plain, combined, plain], SIDE_INPUT)
        # a mapper on the round *before* is fine: its reducers still split
        out = runtime.run_rounds([mapped, side, plain], [(0, p) for p in SIDE_INPUT])
        assert out

    def test_unpicklable_predicate_rejected_with_guidance(self):
        jobs = side_chain(True)
        jobs[1].accepts = lambda key: type(key) is tuple
        with LocalRuntime("processes", max_workers=2) as runtime:
            with pytest.raises(TypeError, match="'fold' cannot be shipped"):
                runtime.run_rounds(jobs, SIDE_INPUT)



# ------------------------------------------------------------- shuffle cleanup
# Whoever writes a round's shuffle — the parent, the job's map tasks or the
# reducers of the round before — the runtime's chain runner owns it: it is
# gone when the call returns, however the call returns.


def boom_reducer(key, values):
    raise ValueError("reducer bug")


def boom_mapper(key, value):
    if value >= 150:  # several runs are on disk by now
        raise ValueError("mapper bug")
    yield key, value


def emit_pair_mapper(key, value):
    yield key, value


def junk_mapper(key, value):
    yield key, object() if value == 150 else value


def junk_reducer(key, values):
    for value in values:
        yield key, object() if value == 150 else value


CLEANUP_INPUT = [(i % 23, i) for i in range(200)]
CLEANUP_JUNK_INPUT = [(k, object() if v == 150 else v) for k, v in CLEANUP_INPUT]


def cleanup_job(name, reducer=regroup_reducer, **kwargs):
    return MapReduceJob(name, reducer, num_reducers=3, **kwargs)


FAILING_CHAINS = {
    # way in / what goes wrong: (jobs, input, exception, message)
    "parent/reducer-raises": (
        lambda: [cleanup_job("a", boom_reducer)], CLEANUP_INPUT, ValueError, "reducer bug"),
    "parent/codec-rejects-mid-write": (
        lambda: [cleanup_job("a")], CLEANUP_JUNK_INPUT, TypeError, "no binary wire form"),
    "map/reducer-raises": (
        lambda: [cleanup_job("a", boom_reducer, mapper=emit_pair_mapper)],
        CLEANUP_INPUT, ValueError, "reducer bug"),
    "map/mapper-raises": (
        lambda: [cleanup_job("a", mapper=boom_mapper)], CLEANUP_INPUT, ValueError, "mapper bug"),
    "map/codec-rejects-mid-write": (
        lambda: [cleanup_job("a", mapper=junk_mapper)],
        CLEANUP_INPUT, TypeError, "no binary wire form"),
    "chained/reducer-raises": (
        lambda: [cleanup_job("a"), cleanup_job("b", boom_reducer)],
        CLEANUP_INPUT, ValueError, "reducer bug"),
    "chained/mapper-raises-upstream": (  # round b's shuffle is already open
        lambda: [cleanup_job("a", mapper=boom_mapper), cleanup_job("b")],
        CLEANUP_INPUT, ValueError, "mapper bug"),
    "chained/codec-rejects-mid-write": (
        lambda: [cleanup_job("a", junk_reducer), cleanup_job("b")],
        CLEANUP_INPUT, TypeError, "no binary wire form"),
    "side-stage/reducer-raises": (
        lambda: [
            cleanup_job("a", spread_reducer),
            cleanup_job("s", fold_reducer, accepts=is_tuple_key),
            cleanup_job("b", boom_reducer),
        ],
        CLEANUP_INPUT, ValueError, "reducer bug"),
}


def cleanup_runtime(backend, tmp_path, **kwargs) -> LocalRuntime:
    return LocalRuntime(
        backend=backend, max_workers=2, shuffle_codec="binary",
        spill_dir=tmp_path / "spill", spill_run_records=16, **kwargs,
    )


def assert_session_is_empty(tmp_path):
    """One session directory, holding no run directory, run file or
    ``.tmp*`` partial."""
    sessions = list((tmp_path / "spill").iterdir())
    assert len(sessions) == 1
    assert list(sessions[0].rglob("*")) == []


class TestShuffleCleanup:
    @pytest.mark.parametrize("backend", ["serial", "processes"])
    @pytest.mark.parametrize("scenario", sorted(FAILING_CHAINS))
    def test_a_failed_round_leaves_nothing_in_the_session(self, tmp_path, scenario, backend):
        jobs, data, exc_type, message = FAILING_CHAINS[scenario]
        runtime = cleanup_runtime(backend, tmp_path)
        try:
            with pytest.raises(exc_type, match=message):
                runtime.run_rounds(jobs(), list(data))
            assert_session_is_empty(tmp_path)
        finally:
            runtime.close()
        assert list((tmp_path / "spill").iterdir()) == []

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    @pytest.mark.parametrize(
        "mapper,victim",
        [(None, "a"), (emit_pair_mapper, "a"), (None, "b")],
        ids=["parent-written", "map-written", "chained"],
    )
    def test_crashed_first_attempts_leave_nothing_either(
        self, tmp_path, mapper, victim, backend
    ):
        """Every task of the victim round crashes once: the retries rewrite
        the same runs, and the round's shuffle still goes when it is spent."""
        def jobs():
            kwargs = {} if mapper is None else dict(mapper=mapper)
            return [cleanup_job("a", **kwargs), cleanup_job("b", collect_reducer)]

        expected = LocalRuntime().run_rounds(jobs(), list(CLEANUP_INPUT))
        plan = RoundFaults(victim, "crash")
        runtime = cleanup_runtime(backend, tmp_path, fault_plan=plan)
        try:
            assert runtime.run_rounds(jobs(), list(CLEANUP_INPUT)) == expected
            tasks = 3 + (3 if mapper is not None and victim == "a" else 0)
            assert plan.injected == tasks  # the parent's own write is not a task
            assert_session_is_empty(tmp_path)
        finally:
            runtime.close()
