"""Constant-memory dataflow: external-sorted reducer spill, run-level
map-side combine, reducer-owned columnar sinks, shm prefetch handoff, and
spill-session hygiene."""

import subprocess
import tempfile
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.mapreduce import (
    DistFileSystem,
    LocalRuntime,
    MapReduceJob,
    SpillLayout,
    SumCombiner,
    default_partition,
)


# Top-level operators: picklable, so they ship to worker processes.
def split_mapper(_, line):
    for word in line.split():
        yield word, 1


def sum_reducer(word, counts):
    yield word, sum(counts)


def echo_reducer(key, values):
    for value in values:
        yield key, value


CORPUS = [(i, line) for i, line in enumerate(["a b b", "b c", "a a a c", ""])]


@dataclass(frozen=True)
class CountSink:
    """Final-round sink that keeps nothing: the constant-memory baseline."""

    def store(self, task_index, batches):
        return sum(len(batch) for batch in batches)


# --------------------------------------------------------------------------
# Tentpole (a): external-sorted spill runs
# --------------------------------------------------------------------------
class TestExternalSortedSpill:
    NUM_PARTITIONS = 3

    def _write_both(self, pairs, root, run_records):
        """Same stream through the eager single-run writer and the bounded
        multi-run writer; returns both layouts."""
        eager = SpillLayout(str(root / "eager"), "job", self.NUM_PARTITIONS)
        stream = SpillLayout(str(root / "stream"), "job", self.NUM_PARTITIONS)
        buckets = [[] for _ in range(self.NUM_PARTITIONS)]
        writer = stream.run_writer(0, run_records=run_records)
        for key, value in pairs:
            p = default_partition(key, self.NUM_PARTITIONS)
            buckets[p].append((key, value))
            writer.append(p, key, value)
        writer.finish()
        eager.write_map_output(0, buckets)
        return eager, stream

    @settings(max_examples=40)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 9), st.integers(-(10**6), 10**6)),
            max_size=60,
        ),
        run_records=st.integers(1, 8),
    )
    def test_multi_run_merge_matches_eager_write(self, pairs, run_records):
        with tempfile.TemporaryDirectory() as tmp:
            eager, stream = self._write_both(pairs, Path(tmp), run_records)
            for p in range(self.NUM_PARTITIONS):
                assert list(stream.iter_partition(p, 1)) == list(
                    eager.iter_partition(p, 1)
                )
                assert list(stream.iter_groups(p, 1)) == list(eager.iter_groups(p, 1))

    def test_small_run_bound_actually_spills_multiple_runs(self, tmp_path):
        pairs = [(k, v) for v in range(20) for k in range(6)]
        _, stream = self._write_both(pairs, tmp_path, run_records=5)
        multi = [
            p
            for p in range(self.NUM_PARTITIONS)
            if stream.run_path(0, p, 1).exists()
        ]
        assert multi, "run bound of 5 over 120 records must produce >1 run"

    def test_byte_budget_bounds_binary_runs(self, tmp_path):
        layout = SpillLayout(str(tmp_path), "job", 1)
        writer = layout.run_writer(0, run_bytes=256)
        for i in range(200):
            writer.append(0, i, i * 7)
        result = writer.finish()
        assert layout.run_path(0, 0, 1).exists()
        # Every flush stayed within the same order of magnitude as the
        # budget (a single appended record may overshoot it by one frame).
        assert 0 < result.peak_buffer_bytes < 4 * 256

    def test_runtime_spill_output_matches_in_memory(self, tmp_path):
        job = MapReduceJob("wc", sum_reducer, mapper=split_mapper)
        memory = LocalRuntime(backend="serial")
        expected = memory.run(job, CORPUS)
        spilling = LocalRuntime(
            backend="serial",
            spill_dir=tmp_path,
            spill_run_records=2,
        )
        try:
            assert spilling.run(job, CORPUS) == expected
        finally:
            spilling.close()


# --------------------------------------------------------------------------
# Tentpole (b): run-level map-side combine
# --------------------------------------------------------------------------
class TestRunLevelCombine:
    def test_combine_folds_mixed_numerics(self):
        assert SumCombiner().combine("k", [1, 2, 3.5]) == [6.5]

    def test_writer_folds_buffered_objects_at_each_flush(self, tmp_path):
        """The writer folds the objects it buffered — one partial per key
        per run — and the reader re-joins the partials in run order."""
        layout = SpillLayout(str(tmp_path), "job", 1)
        writer = layout.run_writer(0, combiner=SumCombiner(), run_records=4)
        for i in range(10):
            writer.append(0, "k", i)
        result = writer.finish()
        assert result.counts == [3]  # runs of 4 + 4 + 2 records, one partial each
        assert list(layout.iter_groups(0, 1)) == [("k", [6, 22, 17])]

    def test_classic_protocol_matches_combine(self):
        combiner = SumCombiner()
        assert list(combiner("k", [1, 2, 3])) == [("k", 6)]

    def test_combined_job_output_and_stats(self, tmp_path):
        plain = MapReduceJob("wc", sum_reducer, mapper=split_mapper)
        combined = MapReduceJob(
            "wc", sum_reducer, mapper=split_mapper, combiner=SumCombiner()
        )
        baseline = LocalRuntime(backend="serial").run(plain, CORPUS)

        runtimes = {}
        for name, job in [("plain", plain), ("combined", combined)]:
            rt = LocalRuntime(backend="serial", spill_dir=tmp_path / name)
            try:
                assert rt.run(job, CORPUS) == baseline
            finally:
                rt.close()
            runtimes[name] = rt.last_stats
        assert runtimes["combined"].combined_records > 0
        assert runtimes["plain"].combined_records == 0
        assert (
            runtimes["combined"].shuffle_bytes_written
            < runtimes["plain"].shuffle_bytes_written
        )

    def test_combine_spans_runs_within_a_flush_only(self, tmp_path):
        """Records split across runs still reduce to the right totals: the
        combiner squeezes each flush, the reducer folds across runs."""
        job = MapReduceJob(
            "wc", sum_reducer, mapper=split_mapper, combiner=SumCombiner(), num_reducers=2
        )
        big = [(i, "a b") for i in range(50)]
        rt = LocalRuntime(
            backend="serial",
            spill_dir=tmp_path,
            spill_run_records=8,
        )
        try:
            assert sorted(rt.run(job, big)) == [("a", 50), ("b", 50)]
        finally:
            rt.close()


# --------------------------------------------------------------------------
# Bounded reducer memory
# --------------------------------------------------------------------------
class TestBoundedReducerMemory:
    def _chained_peak(self, tmp_path, n, tag):
        jobs = [
            MapReduceJob("expand", echo_reducer, mapper=split_mapper, num_reducers=2),
            MapReduceJob("count", sum_reducer, num_reducers=2),
        ]
        inputs = [(i, "w%d x" % (i % 32)) for i in range(n)]
        rt = LocalRuntime(
            backend="serial",
            spill_dir=tmp_path / tag,
            spill_run_records=64,
        )
        try:
            rt.run_rounds(jobs, inputs, final_sink=CountSink())
            return rt.last_stats.peak_reducer_buffer_bytes
        finally:
            rt.close()

    def test_peak_reducer_buffer_flat_as_input_grows_8x(self, tmp_path):
        small = self._chained_peak(tmp_path, 400, "small")
        large = self._chained_peak(tmp_path, 3200, "large")
        assert small > 0
        # Bounded by the run size (64 records), not the input size: 8x the
        # records must not approach 8x the buffer.
        assert large <= 2 * small

    def test_streamed_reduce_read_is_flat_tracemalloc(self, tmp_path):
        """Consuming a partition with 8x the bytes must not allocate 8x the
        peak: the merge holds, per run (the run count is fixed here), about
        one chunk frame with the values decoded from it and one I/O buffer,
        plus one reduce group — never the partition.  Values are lists of
        ints, 8 bytes an item, 64 to a run: the small shard's runs span two
        chunks each, the large shard's sixteen."""
        from repro.mapreduce.spill import _CHUNK_BYTES

        def build_and_scan(payload_len, tag):
            layout = SpillLayout(str(tmp_path / tag), "job", 1)
            writer = layout.run_writer(0, run_records=64)
            payload = list(range(payload_len))
            for i in range(512):
                writer.append(0, i % 64, payload)
            written = writer.finish()
            tracemalloc.start()
            total = 0
            for _key, values in layout.iter_groups(0, 1):
                total += len(values)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert total == 512
            return peak, written.bytes_written

        small_len = _CHUNK_BYTES // 256  # 64 x 8 bytes x small_len = 2 chunks
        small_peak, small_bytes = build_and_scan(small_len, "small")
        large_peak, large_bytes = build_and_scan(8 * small_len, "large")
        assert small_bytes > 8 * 2 * _CHUNK_BYTES  # 8 runs of 2 chunks and more
        assert large_bytes >= 6 * small_bytes  # the shard really grew ~8x
        assert large_peak < 2 * small_peak + _CHUNK_BYTES


    def test_final_round_holds_its_shard_about_once(self, tmp_path, monkeypatch):
        """A final-round reduce task writes its shard from the batches'
        arrays as they came — it holds its partition once, not a split,
        restacked and packed copy of it: its tracemalloc peak stays within
        3x the largest shard written (a serial spilled GraphFlat on a
        quarter-scale ``cora_like``, the memory grid's job)."""
        from repro.core.propagation import ShardSink
        from repro.datasets import cora_like
        from repro.mapreduce import runtime

        peaks = []
        run_task = runtime._run_task

        def traced(fn, source, sink, task_index):
            if not isinstance(sink, ShardSink):
                return run_task(fn, source, sink, task_index)
            tracemalloc.start()
            try:
                return run_task(fn, source, sink, task_index)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(runtime, "_run_task", traced)
        ds = cora_like(seed=0, num_nodes=200, num_edges=600)
        config = GraphFlatConfig(
            hops=2, max_neighbors=15, num_reducers=4, spill_dir=tmp_path / "spill",
            spill_run_records=2048, spill_run_bytes=1 << 18,
        )
        fs = DistFileSystem(tmp_path / "dfs")
        graph_flat(ds.nodes, ds.edges, ds.nodes.ids[:100], config, fs=fs, dataset_name="f")
        largest = max(path.stat().st_size for path in fs.shards("f"))
        assert len(peaks) == 4 and largest > 1 << 20
        assert max(peaks) <= 3 * largest, (max(peaks), largest)


# --------------------------------------------------------------------------
# Tentpole (c): reducer-owned columnar sinks — matrix byte-identity
# --------------------------------------------------------------------------
class TestSinkMatrix:
    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_graphflat_stream_invariant(self, mini_cora, tmp_path, backend):
        """The shards the final-round reducers wrote read back as the
        in-memory result's record stream, whichever backend carried the
        spilled rounds."""
        ds = mini_cora
        targets = ds.train_ids[:10]
        unsampled = dict(hops=2, max_neighbors=10**9, hub_threshold=10**9)
        fs = DistFileSystem(tmp_path / "dfs")
        config = GraphFlatConfig(
            backend=backend,
            num_workers=2,
            spill_dir=tmp_path / "spill",
            **unsampled,
        )
        result = graph_flat(
            ds.nodes, ds.edges, targets, config, fs=fs, dataset_name="flat"
        )
        assert result.num_targets == len(targets)
        assert list(fs.read_dataset("flat")) == graph_flat(
            ds.nodes, ds.edges, targets, GraphFlatConfig(**unsampled)
        ).samples


# --------------------------------------------------------------------------
# Tentpole (d): shm prefetch batch handoff
# --------------------------------------------------------------------------
def _mk_sample(i, rng):
    from repro.core.trainer.vectorize import TrainSample
    from repro.proto.codec import GraphFeature

    n = 6
    ids = np.arange(i * 10, i * 10 + n, dtype=np.int64)
    gf = GraphFeature(
        target_ids=ids[:1],
        node_ids=ids,
        x=rng.standard_normal((n, 4)).astype(np.float32),
        hops=np.zeros(n, dtype=np.int64),
        edge_src=rng.integers(0, n, 10).astype(np.int64),
        edge_dst=rng.integers(0, n, 10).astype(np.int64),
        edge_feat=None,
        edge_weight=np.ones(10, dtype=np.float32),
    )
    return TrainSample(target_id=int(ids[0]), label=float(i % 2), graph_feature=gf)


class TestShmBatchHandoff:
    def test_slab_round_trip_preserves_arrays_and_writability(self):
        from repro.utils.shm import ShmBatchRef, Slab, slab_dump, slab_load

        obj = (
            {"a": np.arange(1000, dtype=np.float32), "b": np.ones((3, 5))},
            np.array([1, 2, 3]),
        )
        with Slab(1 << 20) as slab:
            ref = slab_dump(obj, slab.name, slab.capacity)
            assert isinstance(ref, ShmBatchRef)
            assert ref.slab_bytes >= 4000
            got = slab_load(ref, slab.buf)
            np.testing.assert_array_equal(got[0]["a"], obj[0]["a"])
            np.testing.assert_array_equal(got[0]["b"], obj[0]["b"])
            np.testing.assert_array_equal(got[1], obj[1])
            # Private copy: mutating the result must not require the slab.
            assert got[0]["a"].flags.writeable
            got[0]["a"][0] = 99.0
            assert obj[0]["a"][0] == 0.0

    def test_overflow_returns_none(self):
        from repro.utils.shm import Slab, slab_dump

        with Slab(64) as slab:
            assert slab_dump(np.zeros(1024), slab.name, slab.capacity) is None

    def test_process_pool_slabs_match_in_process_references(self, rng, monkeypatch):
        """The hand-off follows the backend: ``processes`` returns every
        batch through a slab, ``threads`` hands over references — array for
        array the same batches."""
        from repro.core.trainer import as_sample_source, pipeline
        from repro.core.trainer.pipeline import BatchPipeline

        source = as_sample_source([_mk_sample(i, rng) for i in range(12)])
        batches = [source.batch(np.arange(i * 3, i * 3 + 3)) for i in range(4)]

        def run(backend):
            pipe = BatchPipeline(batches, num_layers=2, backend=backend, workers=2)
            return list(pipe), pipe

        def assert_same_batches(got, ref):
            assert len(got) == len(ref)
            for (a_in, a_lab), (b_in, b_lab) in zip(ref, got):
                np.testing.assert_array_equal(np.asarray(a_lab), np.asarray(b_lab))
                for field in a_in.__dataclass_fields__:
                    av, bv = getattr(a_in, field), getattr(b_in, field)
                    if isinstance(av, np.ndarray):
                        np.testing.assert_array_equal(av, bv)

        ref, ref_pipe = run("threads")
        assert ref_pipe.shm_batches == ref_pipe.inband_batches == 0
        shm, pipe = run("processes")
        assert pipe.shm_batches == len(batches) and pipe.inband_batches == 0
        assert_same_batches(shm, ref)

        # A batch that outgrows its slab rides the result pipe whole — batch
        # by batch, without changing results.  The parent sizes the slabs,
        # so shrinking the constant here reaches the workers.
        monkeypatch.setattr(pipeline, "SLAB_BYTES", 1)
        tiny, tiny_pipe = run("processes")
        assert tiny_pipe.inband_batches == len(batches)
        assert tiny_pipe.shm_batches == 0
        assert_same_batches(tiny, ref)


# --------------------------------------------------------------------------
# Satellite: spill-session hygiene
# --------------------------------------------------------------------------
class TestSpillSessionHygiene:
    def test_dead_session_directories_are_swept(self, tmp_path):
        # A pid that existed but is guaranteed gone by the time we sweep.
        proc = subprocess.Popen(["true"])
        proc.wait()
        stale = tmp_path / f"mr{proc.pid}.deadbeef"
        (stale / "round.abc").mkdir(parents=True)
        (stale / "round.abc" / "job.m00000.p00000.r00000.bin").write_bytes(b"x")

        rt = LocalRuntime(backend="serial", spill_dir=tmp_path)
        try:
            rt.run(MapReduceJob("wc", sum_reducer, mapper=split_mapper), CORPUS)
        finally:
            rt.close()
        assert not stale.exists()

    def test_live_foreign_session_is_left_alone(self, tmp_path):
        import os

        live = tmp_path / f"mr{os.getpid()}.other"
        live.mkdir()
        rt = LocalRuntime(backend="serial", spill_dir=tmp_path)
        try:
            rt.run(MapReduceJob("wc", sum_reducer, mapper=split_mapper), CORPUS)
            assert live.exists()
        finally:
            rt.close()

    def test_chained_rounds_leave_no_intermediate_files(self, tmp_path):
        jobs = [
            MapReduceJob("expand", echo_reducer, mapper=split_mapper),
            MapReduceJob("count", sum_reducer),
        ]
        rt = LocalRuntime(backend="serial", spill_dir=tmp_path)
        try:
            rt.run_rounds(jobs, CORPUS)
            leftovers = [p for p in tmp_path.rglob("*") if p.is_file()]
            assert leftovers == []
        finally:
            rt.close()
        assert list(tmp_path.iterdir()) == []
