"""Columnar shard format + layout-aware dataset path: codec round-trips,
byte-identity with legacy row datasets, O(num_shards) counting,
trainer-ingest numerical identity across layouts x prefetch backends, and the
worker-pool prefetch pipeline."""

import numpy as np
import pytest

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.infer import GraphInferConfig, graph_infer
from repro.core.trainer import (
    BatchPipeline,
    ColumnarDataset,
    GraphTrainer,
    MemorySamples,
    SampleSource,
    TrainerConfig,
    decode_samples,
    open_sample_source,
)
from repro.graph.subgraph import GraphFeature
from repro.mapreduce import DistFileSystem
from repro.nn.gnn import GCNModel
from repro.proto.codec import decode_prediction, decode_sample
from repro.proto.columnar import ColumnarShard, shard_record_count, write_sample_shard
from repro.tasks import EDGE_TASKS

from .helpers import write_legacy_row_dataset


@pytest.fixture(scope="module")
def flat_cora(mini_cora):
    """In-memory wire records from a 2-hop GraphFlat run."""
    ds = mini_cora
    config = GraphFlatConfig(hops=2, max_neighbors=20, hub_threshold=10**9)
    return graph_flat(ds.nodes, ds.edges, ds.train_ids, config).samples


def flat_in_both_layouts(ds, fs):
    """``flat/columnar`` as the pipeline writes it, ``flat/row`` as the
    legacy row dataset of the same samples."""
    config = GraphFlatConfig(hops=2, max_neighbors=20)
    graph_flat(ds.nodes, ds.edges, ds.train_ids, config, fs=fs, dataset_name="flat/columnar")
    write_legacy_row_dataset(
        fs, "flat/row", graph_flat(ds.nodes, ds.edges, ds.train_ids, config)
    )
    return fs


@pytest.fixture(scope="module")
def lp_tables():
    """``(nodes, edges)`` with per-edge labels: input for both edge tasks."""
    from repro.datasets import labeled_edges_like

    return labeled_edges_like(seed=7, num_nodes=100, num_edges=360, feature_dim=6)


class TestColumnarShard:
    def test_round_trip_exact(self, tmp_path, flat_cora):
        triples = [decode_sample(r) for r in flat_cora]
        path = tmp_path / "part-00000"
        assert write_sample_shard(path, triples) == len(triples)
        shard = ColumnarShard(path)
        assert len(shard) == len(triples)
        for i, (tid, label, gf) in enumerate(triples):
            stid, slabel, sgf = shard.sample(i)
            assert stid == tid
            assert slabel == label and type(slabel) is type(label)
            np.testing.assert_array_equal(sgf.node_ids, gf.node_ids)
            np.testing.assert_array_equal(sgf.x, gf.x)
            np.testing.assert_array_equal(sgf.hops, gf.hops)
            np.testing.assert_array_equal(sgf.edge_src, gf.edge_src)
            np.testing.assert_array_equal(sgf.edge_dst, gf.edge_dst)
            np.testing.assert_array_equal(sgf.edge_weight, gf.edge_weight)

    def test_wire_re_encoding_is_byte_identical(self, tmp_path, flat_cora):
        path = tmp_path / "part-00000"
        write_sample_shard(path, flat_cora)  # accepts wire bytes directly
        assert list(ColumnarShard(path).iter_wire()) == list(flat_cora)

    def test_header_carries_count_and_meta(self, tmp_path, flat_cora):
        path = tmp_path / "part-00000"
        write_sample_shard(path, flat_cora)
        assert shard_record_count(path) == len(flat_cora)
        shard = ColumnarShard(path)
        gf = decode_sample(flat_cora[0])[2]
        assert shard.meta["feature_dim"] == gf.feature_dim
        assert shard.label_kind == "int"

    def test_vector_labels_and_empty_shard(self, tmp_path, flat_cora):
        _, _, gf = decode_sample(flat_cora[0])
        vec = np.asarray([0.0, 1.0, 1.0], dtype=np.float32)
        path = tmp_path / "vec"
        write_sample_shard(path, [(7, vec, gf)])
        tid, label, _ = ColumnarShard(path).sample(0)
        assert tid == 7
        np.testing.assert_array_equal(label, vec)

        empty = tmp_path / "empty"
        write_sample_shard(empty, [])
        assert shard_record_count(empty) == 0
        assert list(ColumnarShard(empty).iter_wire()) == []

    def test_mixed_labels_rejected(self, tmp_path, flat_cora):
        t0, l0, gf = decode_sample(flat_cora[0])
        with pytest.raises(ValueError):
            write_sample_shard(tmp_path / "bad", [(t0, l0, gf), (t0, None, gf)])

    def test_corrupt_header_detected(self, tmp_path, flat_cora):
        from repro.proto.codec import CodecError

        path = tmp_path / "part-00000"
        write_sample_shard(path, flat_cora)
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0xFF  # flip a header byte
        path.write_bytes(bytes(raw))
        with pytest.raises(CodecError):
            ColumnarShard(path)


class TestFilesystemLayouts:
    def test_read_dataset_layout_transparent(self, tmp_path, flat_cora):
        fs = DistFileSystem(tmp_path)
        fs.write_dataset("row", flat_cora, num_shards=3)
        fs.write_dataset(
            "col", [decode_sample(r) for r in flat_cora], num_shards=3, layout="columnar"
        )
        assert fs.layout("row") == "row"
        assert fs.layout("col") == "columnar"
        assert list(fs.read_dataset("col")) == list(fs.read_dataset("row"))
        assert [len(list(fs.read_shard("col", i))) for i in range(3)] == [
            len(list(fs.read_shard("row", i))) for i in range(3)
        ]

    def test_count_records_uses_metadata(self, tmp_path, flat_cora):
        fs = DistFileSystem(tmp_path)
        for layout in ("row", "columnar"):
            fs.write_dataset(f"d/{layout}", flat_cora, num_shards=3, layout=layout)
            assert fs.count_records(f"d/{layout}") == len(flat_cora)
        # Columnar headers still answer in O(num_shards) without metadata;
        # legacy row datasets fall back to the scan.
        for layout in ("row", "columnar"):
            (tmp_path / f"d/{layout}" / "_META.json").unlink()
            assert fs.count_records(f"d/{layout}") == len(flat_cora)

    def test_open_shard_requires_columnar(self, tmp_path, flat_cora):
        fs = DistFileSystem(tmp_path)
        fs.write_dataset("row", flat_cora, num_shards=2)
        with pytest.raises(ValueError):
            fs.open_shard("row", 0)
        fs.write_dataset("col", flat_cora, num_shards=2, layout="columnar")
        assert len(fs.open_shard("col", 0)) + len(fs.open_shard("col", 1)) == len(flat_cora)

    def test_bad_layout_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DistFileSystem(tmp_path).write_dataset("x", [], layout="diagonal")

    def test_kind_recorded_for_every_layout(self, tmp_path, flat_cora):
        fs = DistFileSystem(tmp_path)
        fs.write_dataset("row", flat_cora, num_shards=2)
        fs.write_dataset(
            "col", [decode_sample(r) for r in flat_cora], num_shards=2,
            layout="columnar",
        )
        assert fs.kind("row") == "samples"
        assert fs.kind("col") == "samples"
        # columnar datasets survive metadata loss via the shard header;
        # legacy row datasets genuinely have nothing recorded
        for name in ("row", "col"):
            (tmp_path / name / "_META.json").unlink()
        assert fs.kind("col") == "samples"
        assert fs.kind("row") is None
        with pytest.raises(FileNotFoundError):
            fs.kind("absent")


class TestStrayStagingFiles:
    """Shard writers stage ``part-NNNNN.tmp<pid>`` inside the dataset
    directory and rename into place, so an attempt killed mid-write (a
    task-timeout pool kill, a crash, a speculation loser) leaves a file
    there.  It is not a shard: every reader must see the dataset exactly as
    committed, and the next commit sweeps it."""

    @pytest.fixture()
    def committed(self, mini_cora, tmp_path):
        ds = mini_cora
        fs = DistFileSystem(tmp_path)
        graph_flat(
            ds.nodes, ds.edges, ds.train_ids[:20],
            GraphFlatConfig(hops=2, max_neighbors=20, hub_threshold=10**9),
            fs=fs, dataset_name="flat",
        )
        return fs, self.observe(fs)

    @staticmethod
    def observe(fs, capsys=None):
        from repro.cli import main

        source = open_sample_source(fs, "flat")
        seen = dict(
            num_shards=fs.num_shards("flat"),
            count_records=fs.count_records("flat"),
            size_bytes=fs.size_bytes("flat"),
            records=list(fs.read_dataset("flat")),
            source_ids=source.ids().tolist(),
            layout_kind_task=(fs.layout("flat"), fs.kind("flat"), fs.task("flat")),
        )
        if capsys is not None:
            assert main(["describe", "flat", "--dfs", str(fs.root)]) == 0
            seen["describe"] = capsys.readouterr().out
        return seen

    @pytest.mark.parametrize(
        "stray",
        ["truncated shard", "complete shard", "truncated _META.json"],
    )
    def test_stray_leaves_every_reader_unchanged(self, committed, capsys, stray):
        fs, _ = committed
        before = self.observe(fs, capsys)
        assert before["num_shards"] == 4
        assert before["count_records"] == len(before["records"]) > 0
        directory = fs.root / "flat"
        shard = (directory / "part-00001").read_bytes()
        if stray == "truncated shard":
            (directory / "part-00001.tmp4242").write_bytes(shard[: len(shard) // 3])
        elif stray == "complete shard":
            (directory / "part-00001.tmp4242").write_bytes(shard)
        else:
            meta = (directory / "_META.json").read_bytes()
            (directory / "_META.json.tmp4242").write_bytes(meta[: len(meta) // 2])
        assert self.observe(fs, capsys) == before

    def test_commit_sweeps_strays_and_stages_the_metadata(self, committed):
        fs, before = committed
        directory = fs.root / "flat"
        (directory / "part-00002.tmp4242").write_bytes(b"half a shard")
        (directory / "_META.json.tmp4242").write_text('{"layout": "colu')
        meta = (directory / "_META.json").read_text()
        fs.finalize_dataset(
            "flat", layout="columnar", kind="samples",
            record_counts=[shard_record_count(p) for p in fs.shards("flat")],
        )
        assert sorted(p.name for p in directory.iterdir()) == [
            "_META.json", "part-00000", "part-00001", "part-00002", "part-00003",
        ]
        assert (directory / "_META.json").read_text() == meta
        assert self.observe(fs) == before


class TestOneRecordStream:
    """The pipelines write one layout — reducer-owned columnar shards — and
    ``read_dataset`` over it is the in-memory result's record stream, which
    is also what a legacy row dataset of the same records reads back as."""

    @pytest.mark.parametrize("task", ["node_classification", *EDGE_TASKS])
    def test_graph_flat(self, mini_cora, lp_tables, tmp_path, task):
        fs = DistFileSystem(tmp_path)
        if task == "node_classification":
            nodes, edges, targets = mini_cora.nodes, mini_cora.edges, mini_cora.train_ids
        else:
            (nodes, edges), targets = lp_tables, None
        config = GraphFlatConfig(hops=2, max_neighbors=20, task=task, edge_targets=30)
        result = graph_flat(nodes, edges, targets, config, fs=fs, dataset_name="flat/dfs")
        assert result.dataset == "flat/dfs"
        assert fs.layout("flat/dfs") == "columnar"
        assert fs.num_shards("flat/dfs") == config.num_reducers
        samples = write_legacy_row_dataset(
            fs, "flat/legacy", graph_flat(nodes, edges, targets, config)
        )
        assert list(fs.read_dataset("flat/dfs")) == samples
        assert list(fs.read_dataset("flat/legacy")) == samples
        assert (fs.kind("flat/legacy"), fs.task("flat/legacy")) == (
            fs.kind("flat/dfs"), fs.task("flat/dfs"),
        )

    @pytest.mark.parametrize("task", ["node_classification", *EDGE_TASKS])
    def test_graph_infer(self, mini_cora, lp_tables, tmp_path, task):
        fs = DistFileSystem(tmp_path)
        nodes, edges = (
            (mini_cora.nodes, mini_cora.edges) if task == "node_classification" else lp_tables
        )
        model = GCNModel(nodes.feature_dim, 8, 3, num_layers=2, seed=0)
        config = GraphInferConfig(task=task)
        result = graph_infer(model, nodes, edges, config, fs=fs, dataset_name="scores/dfs")
        assert fs.layout("scores/dfs") == "columnar"
        assert fs.num_shards("scores/dfs") == config.num_reducers
        scores = write_legacy_row_dataset(
            fs, "scores/legacy", graph_infer(model, nodes, edges, config)
        )
        assert result.num_nodes == len(scores)
        assert list(fs.read_dataset("scores/dfs")) == scores
        assert list(fs.read_dataset("scores/legacy")) == scores
        assert fs.kind("scores/legacy") == fs.kind("scores/dfs") == "predictions"
        assert decode_prediction(scores[0])[1].dtype == np.float32


class TestColumnarDatasetSource:
    @pytest.fixture()
    def fs_both(self, mini_cora, tmp_path):
        return flat_in_both_layouts(mini_cora, DistFileSystem(tmp_path))

    def test_source_matches_row_order_and_content(self, fs_both):
        row = open_sample_source(fs_both, "flat/row")
        col = open_sample_source(fs_both, "flat/columnar")
        assert isinstance(row, MemorySamples) and isinstance(col, ColumnarDataset)
        assert len(row) == len(col)
        np.testing.assert_array_equal(row.ids(), col.ids())
        for i in range(len(row)):
            a, b = row.sample(i), col.sample(i)
            assert a.target_id == b.target_id and a.label == b.label
            np.testing.assert_array_equal(a.graph_feature.x, b.graph_feature.x)
        assert row.labels_by_id() == col.labels_by_id()
        assert row.label_kind == col.label_kind == "int"
        assert row.max_int_label() == col.max_int_label()

    def test_batch_ref_pickles_and_loads(self, fs_both):
        import pickle

        col = open_sample_source(fs_both, "flat/columnar")
        ref = col.batch(np.asarray([3, 0, 5]))
        clone = pickle.loads(pickle.dumps(ref))
        samples = clone.load_samples()
        assert [s.target_id for s in samples] == [
            col.sample(i).target_id for i in (3, 0, 5)
        ]

    @pytest.mark.parametrize("feeder", ["gather", "load_samples"])
    def test_batch_resolves_each_shard_once(self, fs_both, monkeypatch, feeder):
        """One shard lookup (a ``stat``) per shard a batch touches — not per
        sample — on the stacked and the per-sample feeder alike."""
        from repro.core.trainer import dataset as dataset_module

        col = open_sample_source(fs_both, "flat/columnar")
        ref = col.batch(np.arange(len(col)))
        touched = len(np.unique(ref.locators[:, 0]))
        assert 1 < touched < len(col)
        calls = []
        cached_shard = dataset_module._cached_shard
        monkeypatch.setattr(
            dataset_module, "_cached_shard",
            lambda path: calls.append(path) or cached_shard(path),
        )
        getattr(ref, feeder)()
        assert len(calls) == touched

    def test_slice_is_picklable_sub_source(self, fs_both):
        """ColumnarSlice — the process-worker shard assignment — round-trips
        through pickle and serves the same samples as direct indexing."""
        import pickle

        col = open_sample_source(fs_both, "flat/columnar")
        indices = np.asarray([4, 1, 6, 1])
        sliced = pickle.loads(pickle.dumps(col.slice(indices)))
        assert len(sliced) == 4
        np.testing.assert_array_equal(sliced.ids(), col.ids()[indices])
        for pos, i in enumerate(indices):
            a, b = sliced.sample(pos), col.sample(int(i))
            assert a.target_id == b.target_id and a.label == b.label
            np.testing.assert_array_equal(a.graph_feature.x, b.graph_feature.x)
        ref = sliced.batch(np.asarray([2, 0]))
        assert [s.target_id for s in ref.load_samples()] == [
            col.sample(6).target_id, col.sample(4).target_id,
        ]

    def test_slice_answers_labels_from_the_columns(self, fs_both, monkeypatch):
        """``labels_by_id`` & co. on a slice read the ``labels`` /
        ``sample_ids`` columns; the base-class versions (decode every
        sample) are the reference."""
        col = open_sample_source(fs_both, "flat/columnar")
        sliced = col.slice(np.asarray([4, 1, 6, 1, len(col) - 1]))
        expected = SampleSource.labels_by_id(sliced)
        assert len(expected) == 4
        monkeypatch.setattr(
            GraphFeature, "__post_init__", lambda self: pytest.fail("decoded a sample")
        )
        assert sliced.labels_by_id() == expected
        assert all(type(v) is int for v in sliced.labels_by_id().values())
        assert sliced.label_kind == "int" and sliced.label_dim == 0
        assert sliced.max_int_label() == max(expected.values())
        empty = col.slice(np.asarray([], dtype=np.int64))
        assert empty.label_kind == "none" and empty.labels_by_id() == {}
        assert empty.ids().shape == (0,)

    def test_slice_vector_and_absent_labels(self, tmp_path, flat_cora):
        triples = [decode_sample(r) for r in flat_cora[:6]]
        vectors = np.arange(18, dtype=np.float32).reshape(6, 3)
        for k, part in enumerate(([0, 1, 2], [3, 4, 5])):
            write_sample_shard(
                tmp_path / f"vec-{k}", [(triples[i][0], vectors[i], triples[i][2]) for i in part]
            )
            write_sample_shard(
                tmp_path / f"bare-{k}", [(triples[i][0], None, triples[i][2]) for i in part]
            )
        vec = ColumnarDataset([tmp_path / "vec-0", tmp_path / "vec-1"]).slice([5, 0, 3])
        assert vec.label_kind == "vector" and vec.label_dim == 3
        by_id = vec.labels_by_id()
        assert list(by_id) == [triples[i][0] for i in (5, 0, 3)]
        for i in (5, 0, 3):
            np.testing.assert_array_equal(by_id[triples[i][0]], vectors[i])
        with pytest.raises(ValueError):
            vec.max_int_label()
        bare = ColumnarDataset([tmp_path / "bare-0", tmp_path / "bare-1"]).slice([4, 1])
        assert bare.label_kind == "none" and bare.label_dim == 0
        assert bare.labels_by_id() == {triples[4][0]: None, triples[1][0]: None}

    @pytest.mark.parametrize("layout", ["row", "columnar"])
    def test_predictions_dataset_is_refused_by_kind(self, tmp_path, layout):
        """Regression: row prediction records used to reach ``decode_sample``
        (``CodecError: unknown label kind``, or a silent mis-decode on a
        luckier byte pattern); both layouts now stop at the recorded kind."""
        from repro.proto.codec import CodecError, encode_prediction

        fs = DistFileSystem(tmp_path)
        pairs = [(i, np.arange(3, dtype=np.float32) + i) for i in range(5)]
        records = pairs if layout == "columnar" else [encode_prediction(*p) for p in pairs]
        fs.write_dataset("scores", records, num_shards=2, layout=layout, kind="predictions")
        with pytest.raises(ValueError, match="'scores' holds 'predictions' records") as caught:
            open_sample_source(fs, "scores")
        assert not isinstance(caught.value, CodecError)

    def test_legacy_dataset_without_recorded_kind_still_opens(self, fs_both, tmp_path):
        (tmp_path / "flat/row" / "_META.json").unlink()
        assert fs_both.kind("flat/row") is None
        legacy = open_sample_source(fs_both, "flat/row")
        assert isinstance(legacy, MemorySamples)
        np.testing.assert_array_equal(
            legacy.ids(), open_sample_source(fs_both, "flat/columnar").ids()
        )

    def test_rewritten_dataset_not_served_stale(self, mini_cora, tmp_path):
        ds = mini_cora
        fs = DistFileSystem(tmp_path)
        config = GraphFlatConfig(hops=1, max_neighbors=10)
        graph_flat(ds.nodes, ds.edges, ds.train_ids, config, fs=fs, dataset_name="d")
        assert len(open_sample_source(fs, "d")) == len(ds.train_ids)
        graph_flat(ds.nodes, ds.edges, ds.train_ids[:3], config, fs=fs, dataset_name="d")
        assert len(open_sample_source(fs, "d")) == 3


class TestTrainingIdentityAcrossLayouts:
    """Acceptance: columnar shards train to numerically identical per-epoch
    losses/metrics as a legacy row dataset of the same samples, across
    prefetch backends x workers."""

    @pytest.fixture(scope="class")
    def fs_both(self, tmp_path_factory):
        from repro.datasets import cora_like

        ds = cora_like(seed=7, num_nodes=300, num_edges=900)
        return ds, flat_in_both_layouts(ds, DistFileSystem(tmp_path_factory.mktemp("dfs")))

    def _run(self, ds, fs, layout, backend, workers):
        model = GCNModel(ds.feature_dim, 12, ds.num_classes, num_layers=2, seed=5)
        trainer = GraphTrainer(
            model,
            TrainerConfig(
                batch_size=8, epochs=2, lr=0.01, seed=9,
                prefetch_backend=backend, prefetch_workers=workers,
            ),
        )
        source = open_sample_source(fs, f"flat/{layout}")
        history = trainer.fit(source)
        return [h["loss"] for h in history], trainer.evaluate(source)

    @pytest.mark.parametrize(
        "layout,backend,workers",
        [
            ("columnar", "threads", 1),
            ("columnar", "threads", 3),
            ("columnar", "serial", 1),
            ("row", "threads", 3),
        ],
    )
    def test_loss_trajectory_identical(self, fs_both, layout, backend, workers):
        ds, fs = fs_both
        ref = self._run(ds, fs, "row", "threads", 1)
        got = self._run(ds, fs, layout, backend, workers)
        assert got == ref

    def test_loss_trajectory_identical_processes(self, fs_both):
        """Process-pool prefetch: batches ship as shard locators, prepared
        tensors come back — same losses to the bit."""
        ds, fs = fs_both
        ref = self._run(ds, fs, "row", "threads", 1)
        got = self._run(ds, fs, "columnar", "processes", 2)
        assert got == ref


class TestPipelineWorkerPool:
    def _batches(self, flat_cora):
        samples = decode_samples(flat_cora)
        return [samples[i : i + 6] for i in range(0, len(samples), 6)]

    def test_pool_matches_single_thread(self, flat_cora):
        batches = self._batches(flat_cora)
        ref = list(BatchPipeline(batches, 2, backend="threads", workers=1))
        pool = list(BatchPipeline(batches, 2, backend="threads", workers=3))
        assert len(ref) == len(pool) == len(batches)
        for (b1, l1), (b2, l2) in zip(ref, pool):
            np.testing.assert_array_equal(b1.x, b2.x)
            np.testing.assert_array_equal(l1, l2)

    def test_pool_errors_surface(self, flat_cora):
        batches = self._batches(flat_cora) + [[]]  # empty batch raises
        with pytest.raises(ValueError):
            list(BatchPipeline(batches, 2, backend="threads", workers=3))

    def test_serial_backend_runs_inline(self, flat_cora):
        from repro.utils.timer import TimerRegistry

        timers = TimerRegistry()
        batches = self._batches(flat_cora)
        out = list(BatchPipeline(batches, 2, backend="serial", timers=timers))
        assert len(out) == len(batches)
        assert timers["preprocess"].count == len(batches)

    def test_pool_preprocess_time_recorded(self, flat_cora):
        from repro.utils.timer import TimerRegistry

        timers = TimerRegistry()
        batches = self._batches(flat_cora)
        list(BatchPipeline(batches, 2, backend="threads", workers=2, timers=timers))
        assert timers["preprocess"].count == len(batches)
        assert timers["preprocess"].total > 0

    def test_invalid_knobs_rejected(self, flat_cora):
        with pytest.raises(ValueError):
            BatchPipeline([], 2, backend="hovercraft")
        with pytest.raises(ValueError):
            BatchPipeline([], 2, workers=0)
        with pytest.raises(ValueError):
            TrainerConfig(prefetch_backend="hovercraft")
        with pytest.raises(ValueError):
            TrainerConfig(prefetch_workers=0)
