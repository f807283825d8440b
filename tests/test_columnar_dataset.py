"""Columnar shard format + the DFS dataset path: codec round-trips,
byte-identity with the in-memory record stream, the commit rule, the
refusal of any other shard format, trainer-ingest numerical identity
between the DFS and the in-memory result x prefetch backends, and the
worker-pool prefetch pipeline."""

import json
import re

import numpy as np
import pytest

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.infer import GraphInferConfig, graph_infer
from repro.core.trainer import (
    BatchPipeline,
    ColumnarDataset,
    GraphTrainer,
    TrainerConfig,
    as_sample_source,
    open_sample_source,
)
from repro.graph.subgraph import GraphFeature
from repro.mapreduce import DistFileSystem
from repro.nn.gnn import GCNModel
from repro.proto.codec import CodecError, decode_prediction, decode_sample, encode_prediction
from repro.proto.columnar import ColumnarShard, shard_record_count, write_sample_shard
from repro.tasks import EDGE_TASKS

from .helpers import commit_row_shard


@pytest.fixture(scope="module")
def flat_cora(mini_cora):
    """In-memory wire records from a 2-hop GraphFlat run."""
    ds = mini_cora
    config = GraphFlatConfig(hops=2, max_neighbors=20, hub_threshold=10**9)
    return graph_flat(ds.nodes, ds.edges, ds.train_ids, config).samples


def flat_on_dfs_and_in_memory(ds, fs):
    """``flat/columnar`` as the pipeline writes it, and the in-memory
    ``graph_flat`` result of the same run (wire records)."""
    config = GraphFlatConfig(hops=2, max_neighbors=20)
    graph_flat(ds.nodes, ds.edges, ds.train_ids, config, fs=fs, dataset_name="flat/columnar")
    return fs, graph_flat(ds.nodes, ds.edges, ds.train_ids, config).samples


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


class TestFilesystemDatasets:
    def test_read_dataset_yields_the_written_wire_records(self, tmp_path, flat_cora):
        """Wire records and structured triples write the same shards, and
        reading them back is the input stream, shard by shard."""
        fs = DistFileSystem(tmp_path)
        fs.write_dataset("wire", flat_cora, num_shards=3)
        fs.write_dataset("triples", [decode_sample(r) for r in flat_cora], num_shards=3)
        assert list(fs.read_dataset("wire")) == list(flat_cora)
        assert list(fs.read_dataset("triples")) == list(flat_cora)
        n = len(flat_cora)
        assert [len(list(fs.read_shard("triples", i))) for i in range(3)] == [
            n // 3 + (1 if i < n % 3 else 0) for i in range(3)
        ]

    def test_count_records_reads_headers_against_the_commit(self, tmp_path, flat_cora):
        fs = DistFileSystem(tmp_path)
        fs.write_dataset("d", flat_cora, num_shards=3)
        assert fs.count_records("d") == len(flat_cora)
        # A shard set that disagrees with what was committed is corruption.
        meta_path = tmp_path / "d" / "_META.json"
        meta = json.loads(meta_path.read_text())
        meta["record_counts"][0] += 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(CodecError, match="dataset 'd'"):
            fs.count_records("d")

    def test_open_shard_covers_the_dataset(self, tmp_path, flat_cora):
        fs = DistFileSystem(tmp_path)
        fs.write_dataset("col", flat_cora, num_shards=2)
        assert len(fs.open_shard("col", 0)) + len(fs.open_shard("col", 1)) == len(flat_cora)
        with pytest.raises(IndexError):
            fs.open_shard("col", 2)

    def test_no_layout_keyword(self, tmp_path):
        """One shard format: neither writer takes a ``layout``."""
        fs = DistFileSystem(tmp_path)
        with pytest.raises(TypeError):
            fs.write_dataset("x", [], layout="columnar")
        fs.prepare_dataset("y")
        with pytest.raises(TypeError):
            fs.finalize_dataset("y", layout="columnar", kind="samples", record_counts=[])
        assert not hasattr(fs, "layout")

    def test_kind_is_recorded(self, tmp_path, flat_cora):
        fs = DistFileSystem(tmp_path)
        fs.write_dataset("samples", [decode_sample(r) for r in flat_cora], num_shards=2)
        fs.write_dataset(
            "scores", [(i, np.ones(2, dtype=np.float32)) for i in range(3)],
            kind="predictions",
        )
        assert fs.kind("samples") == "samples"
        assert fs.kind("scores") == "predictions"
        with pytest.raises(FileNotFoundError):
            fs.kind("absent")


class TestCommitRule:
    """A dataset exists only once its ``_META.json`` is committed: the shard
    set a driver killed before the commit leaves is absent to every
    reader, however complete its shards are."""

    @pytest.fixture()
    def uncommitted(self, mini_cora, tmp_path):
        ds = mini_cora
        fs = DistFileSystem(tmp_path / "dfs")
        graph_flat(
            ds.nodes, ds.edges, ds.train_ids,
            GraphFlatConfig(hops=2, max_neighbors=20, hub_threshold=10**9),
            fs=fs, dataset_name="flat/train",
        )
        assert fs.exists("flat/train") and fs.count_records("flat/train") > 0
        (tmp_path / "dfs" / "flat/train" / "_META.json").unlink()
        assert len(list((tmp_path / "dfs" / "flat/train").glob("part-*"))) == 4
        return fs

    @pytest.mark.parametrize(
        "reader",
        ["shards", "read_dataset", "read_shard", "count_records", "kind",
         "num_shards", "size_bytes", "open_sample_source"],
    )
    def test_every_reader_raises_naming_the_dataset(self, uncommitted, reader):
        fs = uncommitted
        calls = {
            "read_dataset": lambda: list(fs.read_dataset("flat/train")),
            "read_shard": lambda: list(fs.read_shard("flat/train", 0)),
            "open_sample_source": lambda: open_sample_source(fs, "flat/train"),
        }
        call = calls.get(reader, lambda: getattr(fs, reader)("flat/train"))
        with pytest.raises(FileNotFoundError, match="dataset 'flat/train' not found"):
            call()

    def test_it_is_not_listed_and_does_not_exist(self, uncommitted):
        assert not uncommitted.exists("flat/train")
        assert uncommitted.list_datasets() == []

    def test_describe_says_not_found(self, uncommitted, capsys):
        from repro.cli import main

        assert main(["describe", "flat/train", "--dfs", str(uncommitted.root)]) == 1
        err = capsys.readouterr().err
        assert "dataset 'flat/train' not found; available: []" in err

    def test_graphtrainer_says_not_found(self, uncommitted, tmp_path, capsys):
        from repro.cli import main

        args = ["graphtrainer", "-m", "gcn", "-i", "flat/train", "--dfs", str(uncommitted.root),
                "--model-out", str(tmp_path / "model.pkl"), "--epochs", "1"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dataset 'flat/train' not found"), err
        assert not (tmp_path / "model.pkl").exists()

    def test_recommitting_makes_it_whole_again(self, uncommitted, mini_cora):
        fs = uncommitted
        counts = [shard_record_count(p) for p in sorted((fs.root / "flat/train").glob("part-*"))]
        fs.finalize_dataset("flat/train", kind="samples", record_counts=counts)
        assert fs.list_datasets() == ["flat/train"]
        assert fs.count_records("flat/train") == len(mini_cora.train_ids)

    @pytest.mark.parametrize("field", ["kind", "record_counts"])
    def test_metadata_without_a_required_field_is_refused(self, tmp_path, flat_cora, field):
        fs = DistFileSystem(tmp_path)
        fs.write_dataset("d", flat_cora)
        meta_path = tmp_path / "d" / "_META.json"
        meta = json.loads(meta_path.read_text())
        del meta[field]
        meta_path.write_text(json.dumps(meta))
        for read in (fs.shards, fs.kind, fs.count_records, lambda n: list(fs.read_dataset(n))):
            with pytest.raises(ValueError, match=f"dataset 'd': _META.json lacks {field}"):
                read("d")


class TestRowShardsAreRefused:
    """A row shard (the framing datasets had before the columnar format)
    under a committed ``_META.json`` fails the ``AGLC`` magic check in
    every reader, with a ``CodecError`` naming the shard; nothing falls
    back to a row decoder.  The CLI readers are covered in ``test_cli``."""

    @pytest.fixture()
    def row(self, tmp_path, flat_cora):
        fs = DistFileSystem(tmp_path)
        return fs, commit_row_shard(fs, "flat/row", list(flat_cora))

    @pytest.mark.parametrize(
        "reader",
        [
            lambda fs: list(fs.read_dataset("flat/row")),
            lambda fs: fs.count_records("flat/row"),
            lambda fs: open_sample_source(fs, "flat/row"),
        ],
        ids=["read_dataset", "count_records", "open_sample_source"],
    )
    def test_reader_raises_naming_the_shard(self, row, reader):
        fs, path = row
        assert fs.exists("flat/row") and fs.kind("flat/row") == "samples"
        with pytest.raises(CodecError, match=re.escape(f"{path}: bad magic")):
            reader(fs)


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
            kind_task=(fs.kind("flat"), fs.task("flat")),
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
        (directory / "_META.json.tmp4242").write_text('{"kind": "sam')
        meta = (directory / "_META.json").read_text()
        fs.finalize_dataset(
            "flat", kind="samples",
            record_counts=[shard_record_count(p) for p in fs.shards("flat")],
        )
        assert sorted(p.name for p in directory.iterdir()) == [
            "_META.json", "part-00000", "part-00001", "part-00002", "part-00003",
        ]
        assert (directory / "_META.json").read_text() == meta
        assert self.observe(fs) == before


class TestOneRecordStream:
    """The pipelines write reducer-owned columnar shards, and
    ``read_dataset`` over them is the in-memory result's record stream —
    which is also what ``write_dataset`` of that result (whatever its shard
    count) reads back as."""

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
        assert fs.num_shards("flat/dfs") == config.num_reducers
        memory = graph_flat(nodes, edges, targets, config)
        samples = list(memory.samples)
        fs.write_dataset(
            "flat/written", samples, num_shards=3, task=config.recorded_task
        )
        assert list(fs.read_dataset("flat/dfs")) == samples
        assert list(fs.read_dataset("flat/written")) == samples
        assert (fs.kind("flat/written"), fs.task("flat/written")) == (
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
        assert fs.num_shards("scores/dfs") == config.num_reducers
        memory = graph_infer(model, nodes, edges, config)
        scores = [encode_prediction(v, s) for v, s in memory.scores.items()]
        fs.write_dataset(
            "scores/written", list(memory.scores.items()), num_shards=3,
            kind="predictions",
        )
        assert result.num_nodes == len(scores)
        assert list(fs.read_dataset("scores/dfs")) == scores
        assert list(fs.read_dataset("scores/written")) == scores
        assert fs.kind("scores/written") == fs.kind("scores/dfs") == "predictions"
        assert decode_prediction(scores[0])[1].dtype == np.float32


class TestColumnarDatasetSource:
    @pytest.fixture()
    def dfs_and_memory(self, mini_cora, tmp_path):
        return flat_on_dfs_and_in_memory(mini_cora, DistFileSystem(tmp_path))

    @pytest.fixture()
    def dfs(self, dfs_and_memory):
        return dfs_and_memory[0]

    def test_source_matches_the_in_memory_order_and_content(self, dfs_and_memory):
        fs, samples = dfs_and_memory
        memory = as_sample_source(samples)
        col = open_sample_source(fs, "flat/columnar")
        assert isinstance(col, ColumnarDataset)
        assert len(memory) == len(col)
        np.testing.assert_array_equal(memory.ids(), col.ids())
        for i in range(len(memory)):
            a, b = memory.sample(i), col.sample(i)
            assert a.target_id == b.target_id and a.label == b.label
            np.testing.assert_array_equal(a.graph_feature.x, b.graph_feature.x)
        assert memory.labels_by_id() == col.labels_by_id()
        assert memory.label_kind == col.label_kind == "int"
        assert memory.max_int_label() == col.max_int_label()

    def test_batch_ref_pickles_and_loads(self, dfs):
        import pickle

        col = open_sample_source(dfs, "flat/columnar")
        ref = col.batch(np.asarray([3, 0, 5]))
        clone = pickle.loads(pickle.dumps(ref))
        samples = clone.load_samples()
        assert [s.target_id for s in samples] == [
            col.sample(i).target_id for i in (3, 0, 5)
        ]

    @pytest.mark.parametrize("feeder", ["gather", "load_samples"])
    def test_batch_resolves_each_shard_once(self, dfs, monkeypatch, feeder):
        """One shard lookup (a ``stat``) per shard a batch touches — not per
        sample — on the stacked and the per-sample feeder alike."""
        from repro.core.trainer import dataset as dataset_module

        col = open_sample_source(dfs, "flat/columnar")
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

    def test_slice_is_picklable_sub_source(self, dfs):
        """A slice — the process-worker shard assignment — round-trips
        through pickle and serves the same samples as direct indexing."""
        import pickle

        col = open_sample_source(dfs, "flat/columnar")
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

    def test_in_memory_source_pickles_only_the_rows_it_addresses(self, dfs_and_memory):
        """A slice or batch ref over an in-memory source ships its own rows,
        and a window of refs unpickled apart gathers what the source's own
        refs gather."""
        import pickle

        from repro.core.trainer.dataset import ColumnarBatchRef
        from repro.proto.columnar import ColumnarShard

        _, samples = dfs_and_memory
        memory = as_sample_source(samples)
        (shard,) = memory.shards
        assert isinstance(shard, ColumnarShard) and shard.path is None
        piece = pickle.loads(pickle.dumps(memory.slice([5, 2, 5])))
        assert len(piece.shards[0]) == 2
        np.testing.assert_array_equal(piece.ids(), memory.ids()[[5, 2, 5]])
        assert piece.labels_by_id() == {
            int(i): memory.labels_by_id()[int(i)] for i in memory.ids()[[5, 2]]
        }
        parts = [[3, 0], [7, 3, 1], [len(memory) - 1]]
        refs = [memory.batch(part) for part in parts]
        apart = [pickle.loads(pickle.dumps(ref)) for ref in refs]
        assert len({id(ref.shards[0]) for ref in apart}) == len(parts)
        want = ColumnarBatchRef.gather_window(refs)
        got = ColumnarBatchRef.gather_window(apart)
        for name in ("target_offsets", "node_ids", "hops", "edge_src", "sample_ids", "labels"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        np.testing.assert_array_equal(got.node_features(), want.node_features())

    def test_slice_answers_labels_from_the_columns(self, dfs, monkeypatch):
        """``labels_by_id`` & co. on a slice read the ``labels`` /
        ``sample_ids`` columns; decoding every sample is the reference."""
        col = open_sample_source(dfs, "flat/columnar")
        sliced = col.slice(np.asarray([4, 1, 6, 1, len(col) - 1]))
        decoded = [sliced.sample(i) for i in range(len(sliced))]
        expected = {s.target_id: s.label for s in decoded}
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

    @pytest.mark.parametrize("form", ["pairs", "wire"])
    def test_predictions_dataset_is_refused_by_kind(self, tmp_path, form):
        """Regression: prediction records used to reach ``decode_sample``
        (``CodecError: unknown label kind``, or a silent mis-decode on a
        luckier byte pattern); the recorded kind stops them first."""
        fs = DistFileSystem(tmp_path)
        pairs = [(i, np.arange(3, dtype=np.float32) + i) for i in range(5)]
        records = pairs if form == "pairs" else [encode_prediction(*p) for p in pairs]
        fs.write_dataset("scores", records, num_shards=2, kind="predictions")
        with pytest.raises(ValueError, match="'scores' holds 'predictions' records") as caught:
            open_sample_source(fs, "scores")
        assert not isinstance(caught.value, CodecError)

    def test_rewritten_dataset_not_served_stale(self, mini_cora, tmp_path):
        ds = mini_cora
        fs = DistFileSystem(tmp_path)
        config = GraphFlatConfig(hops=1, max_neighbors=10)
        graph_flat(ds.nodes, ds.edges, ds.train_ids, config, fs=fs, dataset_name="d")
        assert len(open_sample_source(fs, "d")) == len(ds.train_ids)
        graph_flat(ds.nodes, ds.edges, ds.train_ids[:3], config, fs=fs, dataset_name="d")
        assert len(open_sample_source(fs, "d")) == 3


class TestTrainingIdentityDfsVsMemory:
    """Acceptance: the columnar DFS dataset trains to numerically identical
    per-epoch losses/metrics as the in-memory ``graph_flat`` result of the
    same run (``as_sample_source``), across prefetch backends x workers."""

    @pytest.fixture(scope="class")
    def sources(self, tmp_path_factory):
        from repro.datasets import cora_like

        ds = cora_like(seed=7, num_nodes=300, num_edges=900)
        fs, samples = flat_on_dfs_and_in_memory(
            ds, DistFileSystem(tmp_path_factory.mktemp("dfs"))
        )
        return ds, {
            "dfs": lambda: open_sample_source(fs, "flat/columnar"),
            "memory": lambda: as_sample_source(samples),
        }

    def _run(self, ds, sources, source, backend, workers):
        model = GCNModel(ds.feature_dim, 12, ds.num_classes, num_layers=2, seed=5)
        trainer = GraphTrainer(
            model,
            TrainerConfig(
                batch_size=8, epochs=2, lr=0.01, seed=9, pipeline=True,
                prefetch_backend=backend, prefetch_workers=workers,
            ),
        )
        data = sources[source]()
        history = trainer.fit(data)
        return [h["loss"] for h in history], trainer.evaluate(data)

    @pytest.mark.parametrize(
        "source,backend,workers",
        [
            ("dfs", "threads", 1),
            ("dfs", "threads", 3),
            ("dfs", "serial", 1),
            ("memory", "threads", 3),
            ("memory", "processes", 2),
        ],
    )
    def test_loss_trajectory_identical(self, sources, source, backend, workers):
        ds, sources = sources
        ref = self._run(ds, sources, "memory", "threads", 1)
        got = self._run(ds, sources, source, backend, workers)
        assert got == ref

    def test_loss_trajectory_identical_processes(self, sources):
        """Process-pool prefetch: batches ship as shard locators, prepared
        tensors come back — same losses to the bit."""
        ds, sources = sources
        ref = self._run(ds, sources, "memory", "threads", 1)
        got = self._run(ds, sources, "dfs", "processes", 2)
        assert got == ref


class TestPipelineWorkerPool:
    def _batches(self, flat_cora):
        source = as_sample_source(flat_cora)
        order = np.arange(len(source))
        return [source.batch(order[i : i + 6]) for i in range(0, len(source), 6)]

    def test_pool_matches_single_thread(self, flat_cora):
        batches = self._batches(flat_cora)
        ref = list(BatchPipeline(batches, 2, backend="threads", workers=1))
        pool = list(BatchPipeline(batches, 2, backend="threads", workers=3))
        assert len(ref) == len(pool) == len(batches)
        for (b1, l1), (b2, l2) in zip(ref, pool):
            np.testing.assert_array_equal(b1.x, b2.x)
            np.testing.assert_array_equal(l1, l2)

    def test_pool_errors_surface(self, flat_cora):
        batches = self._batches(flat_cora) + [as_sample_source(flat_cora).batch([])]
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


class TestWindowBudget:
    """Mechanism pins: the trainer prepares a window of ``QUEUE_DEPTH``
    batches per merge-kernel call and per shard gather, on every prefetch
    path and in ``predict`` / ``evaluate`` too."""

    @pytest.fixture(scope="class")
    def fs(self, lp_tables, tmp_path_factory):
        fs = DistFileSystem(tmp_path_factory.mktemp("window-dfs"))
        graph_flat(
            *lp_tables,
            config=GraphFlatConfig(task="link_prediction", edge_targets=40, hops=2, seed=0),
            fs=fs, dataset_name="lp",
        )
        return fs

    @pytest.mark.parametrize(
        "pipeline,backend,workers",
        [(False, "threads", 1), (True, "threads", 1), (True, "threads", 2), (True, "serial", 1)],
    )
    def test_one_merge_and_one_gather_per_window(
        self, fs, monkeypatch, pipeline, backend, workers
    ):
        from repro.core.trainer import dataset, vectorize
        from repro.core.trainer.pipeline import QUEUE_DEPTH
        from repro.nn.gnn import GraphSAGEModel

        calls = {"merge": 0, "gather": 0}

        def counted(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(vectorize, "merge_groups", counted("merge", vectorize.merge_groups))
        monkeypatch.setattr(dataset, "gather_samples", counted("gather", dataset.gather_samples))
        source = open_sample_source(fs, "lp")
        trainer = GraphTrainer(
            GraphSAGEModel(6, 8, 2, num_layers=2, seed=1),
            TrainerConfig(
                task="link_prediction", batch_size=7, epochs=1, seed=2,
                pipeline=pipeline, prefetch_backend=backend, prefetch_workers=workers,
            ),
        )
        batches = -(-len(source) // 7)
        windows = -(-batches // QUEUE_DEPTH)
        assert windows < batches  # the budget is per window, not per batch
        trainer.train_epoch(source)
        assert calls == {"merge": windows, "gather": windows}
        trainer.evaluate(source)
        assert calls == {"merge": 2 * windows, "gather": 2 * windows}
        assert trainer.timers["preprocess"].count == 2 * batches
