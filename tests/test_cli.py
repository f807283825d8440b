"""The Figure 6 command-line surface: graphflat -> graphtrainer -> graphinfer
over TSV tables and a local DFS, plus the model save/load format."""

import numpy as np
import pytest

from repro.cli import load_model, main, save_model
from repro.core.graphflat import GraphFlatConfig
from repro.core.infer import GraphInferConfig, graph_infer
from repro.core.propagation import DataflowConfig
from repro.core.trainer import BatchPipeline, TrainerConfig
from repro.datasets import cora_like, write_edge_table, write_node_table
from repro.datasets.io import read_edge_table, read_node_table
from repro.mapreduce import DistFileSystem
from repro.nn.gnn import GATModel

from .helpers import write_legacy_row_dataset


@pytest.fixture()
def workspace(tmp_path):
    ds = cora_like(seed=7, num_nodes=200, num_edges=600)
    write_node_table(tmp_path / "nodes.tsv", ds.nodes)
    write_edge_table(tmp_path / "edges.tsv", ds.edges)
    np.savetxt(tmp_path / "targets.txt", ds.train_ids, fmt="%d")
    return tmp_path, ds


class TestModelStore:
    def test_round_trip(self, tmp_path):
        model = GATModel(6, 8, 3, num_layers=2, seed=0)
        save_model(tmp_path / "m.pkl", model, "gat")
        clone = load_model(tmp_path / "m.pkl")
        for (n1, p1), (n2, p2) in zip(
            model.named_parameters(), clone.named_parameters()
        ):
            assert n1 == n2
            np.testing.assert_allclose(p1.data, p2.data)


class TestPipelineCommands:
    def test_full_cli_workflow(self, workspace, capsys):
        tmp_path, ds = workspace
        dfs = str(tmp_path / "dfs")

        rc = main([
            "graphflat",
            "-n", str(tmp_path / "nodes.tsv"),
            "-e", str(tmp_path / "edges.tsv"),
            "--hops", "2", "--max-neighbors", "20",
            "--targets", str(tmp_path / "targets.txt"),
            "--output", "flat/train", "--dfs", dfs, "--workers", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "GraphFlat: wrote" in out
        assert "shuffle:" in out  # codec accounting line
        assert DistFileSystem(dfs).exists("flat/train")

        rc = main([
            "graphtrainer",
            "-m", "gcn", "-i", "flat/train",
            "--model-out", str(tmp_path / "model.pkl"),
            "--epochs", "3", "--hidden", "8", "--dfs", dfs,
        ])
        assert rc == 0
        assert "model saved" in capsys.readouterr().out

        rc = main([
            "graphinfer",
            "-m", str(tmp_path / "model.pkl"),
            "-n", str(tmp_path / "nodes.tsv"),
            "-e", str(tmp_path / "edges.tsv"),
            "--max-neighbors", "20",
            "--output", "scores", "--dfs", dfs, "--workers", "1",
        ])
        assert rc == 0
        assert "scored" in capsys.readouterr().out
        assert DistFileSystem(dfs).count_records("scores") == len(ds.nodes)

    def test_distributed_training_knobs(self, workspace, capsys):
        """--dist-workers trains against the parameter servers with process
        workers over the shm transport and reports the PS topology."""
        tmp_path, ds = workspace
        dfs = str(tmp_path / "dfs")
        main([
            "graphflat",
            "-n", str(tmp_path / "nodes.tsv"), "-e", str(tmp_path / "edges.tsv"),
            "--hops", "1", "--max-neighbors", "10",
            "--targets", str(tmp_path / "targets.txt"),
            "--output", "flat/train", "--dfs", dfs, "--workers", "1",
        ])
        capsys.readouterr()
        rc = main([
            "graphtrainer",
            "-m", "gcn", "-i", "flat/train",
            "--model-out", str(tmp_path / "dist-model.pkl"),
            "--epochs", "2", "--hidden", "8", "--dfs", dfs,
            "--dist-workers", "2", "--dist-mode", "bsp",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ps topology: servers=2 workers=2 mode=bsp transport=shm" in out
        assert "2 processes workers, shm transport" in out
        assert "(0 transport bytes)" in out
        assert load_model(tmp_path / "dist-model.pkl") is not None

    def test_graphflat_codec_flag_outputs_identical(self, workspace, capsys):
        """--shuffle-codec pickle and binary (with a spill dir, so the codec
        is actually exercised) must produce byte-identical datasets."""
        tmp_path, ds = workspace
        shards = {}
        for codec in ("pickle", "binary"):
            dfs = str(tmp_path / f"dfs-{codec}")
            rc = main([
                "graphflat",
                "-n", str(tmp_path / "nodes.tsv"),
                "-e", str(tmp_path / "edges.tsv"),
                "--targets", str(tmp_path / "targets.txt"),
                "--output", "flat/train", "--dfs", dfs, "--workers", "1",
                "--spill-dir", str(tmp_path / f"spill-{codec}"),
                "--shuffle-codec", codec,
            ])
            assert rc == 0
            assert f"({codec} codec" in capsys.readouterr().out
            shards[codec] = list(DistFileSystem(dfs).read_dataset("flat/train"))
        assert shards["pickle"] == shards["binary"]

    def test_trainer_rejects_empty_dataset(self, tmp_path, capsys):
        fs = DistFileSystem(tmp_path / "dfs")
        fs.write_dataset("empty", [])
        rc = main([
            "graphtrainer", "-m", "gcn", "-i", "empty",
            "--model-out", str(tmp_path / "m.pkl"), "--dfs", str(tmp_path / "dfs"),
        ])
        assert rc == 1

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestDescribe:
    def test_describe_samples(self, workspace, capsys):
        tmp_path, ds = workspace
        dfs = str(tmp_path / "dfs")
        main([
            "graphflat",
            "-n", str(tmp_path / "nodes.tsv"), "-e", str(tmp_path / "edges.tsv"),
            "--targets", str(tmp_path / "targets.txt"),
            "--output", "flat/train", "--dfs", dfs, "--workers", "1",
        ])
        capsys.readouterr()
        rc = main(["describe", "flat/train", "--dfs", dfs])
        out = capsys.readouterr().out
        assert rc == 0
        assert "GraphFeature samples" in out
        assert "label distribution" in out
        assert "ps topology: none (single-process" in out

    def test_describe_reports_requested_topology(self, workspace, capsys):
        tmp_path, ds = workspace
        dfs = str(tmp_path / "dfs")
        main([
            "graphflat",
            "-n", str(tmp_path / "nodes.tsv"), "-e", str(tmp_path / "edges.tsv"),
            "--targets", str(tmp_path / "targets.txt"),
            "--output", "flat/train", "--dfs", dfs, "--workers", "1",
        ])
        capsys.readouterr()
        rc = main([
            "describe", "flat/train", "--dfs", dfs,
            "--dist-workers", "4", "--dist-mode", "ssp", "--staleness", "3",
            "--dist-backend", "threads", "--dist-transport", "local",
            "--dist-servers", "5",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert (
            "ps topology: servers=5 workers=4 mode=ssp transport=local "
            "backend=threads staleness=3" in out
        )

    def test_describe_missing_dataset(self, tmp_path, capsys):
        rc = main(["describe", "nope", "--dfs", str(tmp_path / "dfs")])
        assert rc == 1

    @pytest.fixture()
    def inferred(self, workspace, capsys):
        """A trained model plus prediction datasets in both layouts:
        ``scores/columnar`` as ``graphinfer`` writes it, ``scores/row`` as
        the legacy row dataset of the same scores."""
        tmp_path, ds = workspace
        dfs = str(tmp_path / "dfs")
        main([
            "graphflat",
            "-n", str(tmp_path / "nodes.tsv"), "-e", str(tmp_path / "edges.tsv"),
            "--targets", str(tmp_path / "targets.txt"),
            "--output", "flat/train", "--dfs", dfs, "--workers", "1",
        ])
        main([
            "graphtrainer", "-m", "gcn", "-i", "flat/train",
            "--model-out", str(tmp_path / "model.pkl"),
            "--epochs", "1", "--hidden", "8", "--dfs", dfs,
        ])
        main([
            "graphinfer", "-m", str(tmp_path / "model.pkl"),
            "-n", str(tmp_path / "nodes.tsv"), "-e", str(tmp_path / "edges.tsv"),
            "--max-neighbors", "20", "--output", "scores/columnar",
            "--dfs", dfs, "--workers", "1",
        ])
        fs = DistFileSystem(dfs)
        write_legacy_row_dataset(
            fs, "scores/row",
            graph_infer(
                load_model(tmp_path / "model.pkl"),
                read_node_table(tmp_path / "nodes.tsv"),
                read_edge_table(tmp_path / "edges.tsv"),
                GraphInferConfig(max_neighbors=20),
            ),
        )
        assert list(fs.read_dataset("scores/row")) == list(fs.read_dataset("scores/columnar"))
        capsys.readouterr()
        return tmp_path, dfs

    @pytest.mark.parametrize("layout", ["columnar", "row"])
    def test_describe_predictions_dispatches_on_metadata(self, inferred, capsys, layout):
        """Prediction datasets are recognised from the recorded kind in both
        layouts — no decode-and-see sniffing involved."""
        _, dfs = inferred
        rc = main(["describe", f"scores/{layout}", "--dfs", dfs])
        out = capsys.readouterr().out
        assert rc == 0
        assert "kind:     predictions" in out

    def test_describe_legacy_row_predictions_sniffed(self, inferred, capsys):
        """A row dataset with no _META.json (pre-metadata era) still gets
        classified — by wire format, the only option left."""
        tmp_path, dfs = inferred
        (tmp_path / "dfs" / "scores/row" / "_META.json").unlink()
        rc = main(["describe", "scores/row", "--dfs", dfs])
        out = capsys.readouterr().out
        assert rc == 0
        assert "kind:     predictions" in out

    def test_describe_corrupt_shard_raises(self, inferred, capsys):
        """Regression: a corrupt sample dataset used to be silently
        misreported as predictions (the broad except around decode_samples);
        now the decode error surfaces."""
        from repro.proto.codec import CodecError

        tmp_path, dfs = inferred
        shard = sorted((tmp_path / "dfs" / "flat/train").glob("part-*"))[0]
        raw = bytearray(shard.read_bytes())
        raw[50:58] = b"\xff" * 8
        shard.write_bytes(bytes(raw))
        with pytest.raises(CodecError):
            main(["describe", "flat/train", "--dfs", dfs])

    def test_describe_corrupt_legacy_row_raises(self, inferred, capsys):
        """Sniffing a legacy (meta-less) row dataset must not misfile a
        corrupt sample record as predictions: decode_prediction is strict
        about the payload length, so garbage raises instead."""
        from repro.proto.codec import CodecError

        tmp_path, dfs = inferred
        fs = DistFileSystem(dfs)
        # rebuild flat/train as a legacy row dataset with a truncated
        # (corrupt) first record and no metadata
        records = list(fs.read_dataset("flat/train"))
        records[0] = records[0][:-3]
        fs.write_dataset("flat/legacy", records, num_shards=1)
        (tmp_path / "dfs" / "flat/legacy" / "_META.json").unlink()
        with pytest.raises(CodecError):
            main(["describe", "flat/legacy", "--dfs", dfs])

    @pytest.fixture()
    def legacy_samples(self, inferred):
        """``flat/legacy``: ``flat/train``'s samples as a row dataset."""
        tmp_path, dfs = inferred
        fs = DistFileSystem(dfs)
        fs.write_dataset("flat/legacy", fs.read_dataset("flat/train"), num_shards=2)
        return tmp_path, dfs

    @pytest.mark.parametrize("meta", [True, False], ids=["meta", "pre-meta"])
    def test_legacy_row_samples_describe_and_train(self, legacy_samples, capsys, meta):
        """Datasets on disk outlive the code that wrote them: a row-layout
        sample dataset — with or without ``_META.json`` — still describes
        and trains, to the loss the columnar dataset of the same samples
        trains to."""
        tmp_path, dfs = legacy_samples
        if not meta:
            (tmp_path / "dfs" / "flat/legacy" / "_META.json").unlink()
        assert main(["describe", "flat/legacy", "--dfs", dfs]) == 0
        out = capsys.readouterr().out
        assert "layout:   row" in out and "shards:   2" in out
        assert "GraphFeature samples" in out
        assert f"records:  {DistFileSystem(dfs).count_records('flat/train')}" in out
        losses = {}
        for name, layout in (("flat/legacy", "row"), ("flat/train", "columnar")):
            rc = main([
                "graphtrainer", "-m", "gcn", "-i", name,
                "--model-out", str(tmp_path / "again.pkl"),
                "--epochs", "2", "--hidden", "8", "--dfs", dfs,
            ])
            assert rc == 0
            out = capsys.readouterr().out
            assert f"({layout} shards" in out
            losses[name] = out[out.index("loss "):]
        assert losses["flat/legacy"] == losses["flat/train"]

    @pytest.mark.parametrize("layout", ["columnar", "row"])
    def test_graphtrainer_refuses_a_predictions_dataset(self, inferred, capsys, layout):
        """Regression: a row-layout scores dataset used to reach the sample
        codec (``CodecError: unknown label kind``, or a silent mis-decode);
        both layouts now stop at the recorded kind, with one message."""
        tmp_path, dfs = inferred
        rc = main([
            "graphtrainer", "-m", "gcn", "-i", f"scores/{layout}",
            "--model-out", str(tmp_path / "never.pkl"), "--dfs", dfs,
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"dataset 'scores/{layout}' holds 'predictions' records" in err
        assert not (tmp_path / "never.pkl").exists()

    @pytest.mark.parametrize(
        "backend,workers,transport",
        [("serial", "1", "pickle"), ("processes", "2", "shm")],
    )
    def test_graphinfer_reports_the_slice_transport(
        self, inferred, capsys, backend, workers, transport
    ):
        """The slice transport follows the backend (shm slab iff tasks are
        pickled) and the CLI reports which one ran; scores do not move."""
        tmp_path, dfs = inferred
        rc = main([
            "graphinfer", "-m", str(tmp_path / "model.pkl"),
            "-n", str(tmp_path / "nodes.tsv"), "-e", str(tmp_path / "edges.tsv"),
            "--max-neighbors", "20", "--output", f"scores/{backend}",
            "--dfs", dfs, "--backend", backend, "--workers", workers,
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"{transport} slice transport" in out
        fs = DistFileSystem(dfs)
        assert list(fs.read_dataset(f"scores/{backend}")) == list(
            fs.read_dataset("scores/columnar")
        )


class TestDataflowSurface:
    """GraphFlat and GraphInfer are one engine, so they expose one set of
    dataflow knobs — declared once in code, added to both parsers by one
    helper — and nothing the engine decides for itself is a knob."""

    FLAT_ONLY = {"--hops", "--edge-targets", "--negative-ratio"}
    INFER_ONLY = {"-m", "--model", "--candidates"}

    @staticmethod
    def flags(command: str) -> set[str]:
        from repro.cli import build_parser

        subparsers = build_parser()._subparsers._group_actions[0]
        return {
            option
            for action in subparsers.choices[command]._actions
            for option in action.option_strings
        }

    def test_both_commands_accept_the_same_dataflow_flags(self):
        flat, infer = self.flags("graphflat"), self.flags("graphinfer")
        assert self.FLAT_ONLY <= flat and self.INFER_ONLY <= infer
        assert flat - self.FLAT_ONLY == infer - self.INFER_ONLY
        assert {"--targets", "--task", "--partitioner"} <= flat

    ARGV = {
        "graphflat": ["graphflat", "-n", "n.tsv", "-e", "e.tsv", "--dfs", "dfs"],
        "graphinfer": [
            "graphinfer", "-n", "n.tsv", "-e", "e.tsv", "--dfs", "dfs", "-m", "model.pkl",
        ],
        "graphtrainer": [
            "graphtrainer", "-m", "gcn", "-i", "flat", "--model-out", "m.pkl", "--dfs", "dfs",
        ],
        "describe": ["describe", "flat", "--dfs", "dfs"],
    }
    RUNTIME_FLAGS = (
        "--backend", "--num-workers", "--workers", "--spill-dir", "--shuffle-codec",
        "--max-attempts", "--task-timeout", "--speculation-factor",
    )

    @pytest.mark.parametrize(
        "command,flag",
        [
            *(
                (command, flag)
                for command in ("graphflat", "graphinfer")
                for flag in ("--dataset-sink", "--slice-transport", "--dataset-layout", "--shards")
            ),
            ("graphtrainer", "--prefetch-transport"),
            ("graphtrainer", "--prefetch-slab-mb"),
            # parsed and never read: neither command runs a MapReduce job
            *(
                (command, flag)
                for flag in RUNTIME_FLAGS
                for command in ("graphtrainer", "describe")
            ),
            ("graphtrainer", "--shuffle-transport"),
        ],
    )
    def test_engine_decisions_are_not_flags(self, command, flag, capsys):
        """Who writes the shards, in which layout and how many; how slices
        reach reducers and batches leave prefetch workers: all observed.
        And a command accepts no flag it does not read."""
        from repro.cli import build_parser

        build_parser().parse_args(self.ARGV[command])  # well-formed without the flag
        with pytest.raises(SystemExit):
            build_parser().parse_args(self.ARGV[command] + [flag, "4"])
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_shared_config_fields_are_declared_once(self):
        from dataclasses import fields

        shared = DataflowConfig.__dataclass_fields__
        flat = GraphFlatConfig.__dataclass_fields__
        infer = GraphInferConfig.__dataclass_fields__
        assert all(flat[name] is declared for name, declared in shared.items())
        assert set(flat) - set(shared) == {"hops", "edge_targets", "negative_ratio"}
        # GraphInfer re-declares exactly the two defaults it lifts, adds nothing
        redeclared = {name for name in shared if infer[name] is not shared[name]}
        assert redeclared == {"max_neighbors", "hub_threshold"}
        assert set(infer) == set(shared)
        assert [
            len(fields(cls))
            for cls in (DataflowConfig, GraphFlatConfig, GraphInferConfig, TrainerConfig)
        ] == [19, 22, 19, 17]
        for cls in (GraphFlatConfig, GraphInferConfig):
            assert cls.make_runtime is DataflowConfig.make_runtime

    @pytest.mark.parametrize(
        "owner,keyword",
        [
            (GraphFlatConfig, "dataset_sink"),
            (GraphInferConfig, "slice_transport"),
            (GraphFlatConfig, "num_shards"),
            (GraphInferConfig, "dataset_layout"),
            (DataflowConfig, "validate"),
            (TrainerConfig, "prefetch_transport"),
            (TrainerConfig, "prefetch_slab_bytes"),
            (TrainerConfig, "prefetch"),
            (BatchPipeline, "transport"),
            (BatchPipeline, "slab_bytes"),
            (BatchPipeline, "prefetch"),
        ],
    )
    def test_removed_selectors_are_not_keywords(self, owner, keyword):
        positional = ([], 2) if owner is BatchPipeline else ()
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            owner(*positional, **{keyword: 1})
