"""The four workloads.  Each isolates different layers (see README.md):

* ``flat_powerlaw_spill`` — GraphFlat on a power-law graph through the
  process backend's spill shuffle: fat subgraph records.
* ``train_nc_columnar`` — GraphTrainer epochs over mmap'd columnar shards:
  no MapReduce in the measured phase.
* ``lp_pipeline`` — the whole tables-to-scores journey for link
  prediction on the threaded in-memory shuffle: spill bypassed.
* ``infer_fullgraph`` — GraphInfer over the same graph as the first
  workload: same shuffle layer, thin embedding records.

A workload generates its inputs from the seed, drives the program only
through public entry points, and checks every repetition's output.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.infer import GraphInferConfig, graph_infer
from repro.core.trainer import GraphTrainer, TrainerConfig, open_sample_source
from repro.datasets import (
    labeled_edges_like,
    read_edge_table,
    read_node_table,
    uug_like,
    write_edge_table,
    write_node_table,
)
from repro.mapreduce import DistFileSystem, RunStats
from repro.nn.gnn import GraphSAGEModel
from repro.tasks import make_task

from bench import probes

__all__ = ["WORKLOADS", "Rep", "Workload"]

_RUNTIME_METHODS = ("run", "run_rounds")
_FS_WRITE_METHODS = ("prepare_dataset", "finalize_dataset", "write_dataset")


@dataclass
class Rep:
    """What one repetition hands back for timing, checking and counting."""

    wall: float
    items: int
    round_stats: list[RunStats] = field(default_factory=list)
    out: dict = field(default_factory=dict)

    @property
    def task_attempts(self) -> int:
        return task_attempts(self.round_stats)


def dataset_digest(fs: DistFileSystem, name: str) -> tuple[str, int]:
    """sha256 of a dataset's record stream (shard-major wire records — the
    repo's byte-identity idiom) and its record count."""
    digest = hashlib.sha256()
    count = 0
    for record in fs.read_dataset(name):
        digest.update(len(record).to_bytes(8, "little"))
        digest.update(record)
        count += 1
    return digest.hexdigest(), count


def floats_digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def model_digest(model) -> str:
    digest = hashlib.sha256()
    for name, value in sorted(model.state_dict().items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def task_attempts(round_stats: list[RunStats]) -> int:
    return sum(s.map_attempts + s.reduce_attempts for s in round_stats)


def mapreduce_counts(round_stats: list[RunStats], reference_attempts: int) -> dict:
    """Per-rep MapReduce counters from the public ``RunStats``.  A healthy
    run makes exactly as many task attempts as the serial reference, so the
    surplus is the number of timed-out or retried attempts."""
    merged = RunStats()
    for stats in round_stats:
        merged.merge(stats)
    attempts = task_attempts(round_stats)
    return {
        "mapreduce.rounds": len(round_stats),
        "mapreduce.shuffled_records": merged.shuffled_records,
        "mapreduce.combined_records": merged.combined_records,
        "mapreduce.shuffle_bytes_written": merged.shuffle_bytes_written,
        "mapreduce.task_attempts": attempts,
        "mapreduce.failed_attempts": attempts - reference_attempts,
        "mapreduce.records_skew_max": max(s.records_skew() for s in round_stats),
        "mapreduce.bytes_skew_max": max(s.bytes_skew() for s in round_stats),
        "mapreduce.peak_reducer_buffer_bytes": merged.peak_reducer_buffer_bytes,
        "mapreduce.max_group_values": merged.max_group_values,
    }


@contextmanager
def owned_runtime(config, tracer):
    """The runtime a pipeline call would build, use and close itself when
    given none; built outside only so that the traced run can put spans on
    its public methods.  Pool start and shutdown stay inside the caller's
    timed region, as they are inside ``graph_flat`` / ``graph_infer``."""
    runtime = config.make_runtime()
    tracer.wrap(runtime, "mapreduce", _RUNTIME_METHODS)
    try:
        yield runtime
    finally:
        runtime.close()


def span_seconds(tracer, names: tuple[str, ...]) -> float:
    return sum(s.duration for s in tracer.spans if s.name in names)


class Workload:
    """Life cycle: ``setup()`` (repeatable — the harness times it several
    times), then ``rep()`` back to back with ``check()`` after each, then
    ``finish()``.  The first rep is the discarded warm-up."""

    name = ""
    min_reps = 2
    """Measured repetitions to run even when ``--seconds`` is shorter."""
    backend = "serial"
    workers: int | None = None

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.dir = workdir / self.name
        self.setup_layer: dict[str, float] = {}
        """Per-layer numbers measured while setting up (input generation)."""

    def fresh_dir(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def setup(self) -> None:
        raise NotImplementedError

    def rep(self, tracer) -> Rep:
        raise NotImplementedError

    def check(self, rep: Rep) -> list[str]:
        """Problems with one repetition's output (empty = correct)."""
        raise NotImplementedError

    def failed_attempts(self, rep: Rep) -> int:
        return 0

    def finish(self) -> list[str]:
        """End-of-run problems (e.g. quality below its floor)."""
        return []

    def layer_metrics(self, rep: Rep, tracer) -> dict[str, float]:
        """Per-layer numbers of the traced repetition."""
        raise NotImplementedError

    def probes(self, rep: Rep) -> dict[str, float]:
        """Replay probes, fed from the traced repetition's own data."""
        raise NotImplementedError

    def notes(self) -> dict:
        """Exact-comparison strings for the result file (hashes)."""
        return {}

    # -------------------------------------------------------------- shared
    def _runtime_probe(self, edges, spill_dir) -> dict:
        return probes.runtime_records_per_s(
            probes.edge_rows(edges), self.backend, self.workers, spill_dir
        )


# ===================================================================== uug
class _UugWorkload(Workload):
    """The two spilled workloads: one MapReduce pipeline call per repetition
    over one power-law graph with re-indexed hubs, so fat and thin shuffle
    records meet the same skew.  Subclasses name the pipeline."""

    backend = "processes"
    workers = 2
    layer = ""
    """The pipeline's module, and the layer its span is recorded under."""

    def _config(self, backend: str):
        raise NotImplementedError

    def _pipeline(self, config, runtime, fs, dataset_name: str):
        """Run the pipeline; returns its result object."""
        raise NotImplementedError

    def _items(self, result) -> int:
        """Records the pipeline reports having written."""
        raise NotImplementedError

    def _expected_items(self) -> int:
        """Records the inputs call for (targets / nodes)."""
        raise NotImplementedError

    def _knobs(self, backend: str) -> dict:
        """Config fields GraphFlatConfig and GraphInferConfig share.  The
        measured runs spill through ``processes`` x 2; the reference is the
        same job on the in-memory ``serial`` backend."""
        knobs = dict(
            max_neighbors=10, hub_threshold=20 if self.smoke else 200,
            num_reducers=4, seed=self.seed, backend=backend,
        )
        if backend != "serial":
            knobs.update(
                num_workers=self.workers,
                spill_dir=str(self.dir / "spill"),
                # 2 MiB runs: at this graph size every spill writer still
                # flushes several sorted runs per partition, so the
                # external-sort merge is exercised as it is at scale
                spill_run_bytes=2 << 20,
            )
        return knobs

    def setup(self) -> None:
        self.fresh_dir()
        size = (
            dict(num_nodes=200, hub_degree=40)
            if self.smoke
            else dict(num_nodes=2000, hub_degree=300)
        )
        self.ds, seconds = probes.timed(
            lambda: uug_like(
                seed=self.seed, avg_degree=8, feature_dim=32, num_hubs=4, **size
            )
        )
        self.setup_layer = {"datasets.gen_s": seconds}
        self.fs = DistFileSystem(self.dir / "dfs")
        reference = self._pipeline(self._config("serial"), None, self.fs, "reference")
        self.reference_digest = dataset_digest(self.fs, "reference")
        self.reference_attempts = task_attempts(reference.round_stats)

    def rep(self, tracer) -> Rep:
        config = self._config(self.backend)
        fs = DistFileSystem(self.dir / "dfs")
        tracer.wrap(fs, "mapreduce", _FS_WRITE_METHODS)
        start = time.perf_counter()
        with tracer.span(self.layer, self.layer):
            with owned_runtime(config, tracer) as runtime:
                result = self._pipeline(config, runtime, fs, "out")
        wall = time.perf_counter() - start
        return Rep(wall, self._items(result), result.round_stats, {"result": result})

    def check(self, rep: Rep) -> list[str]:
        problems = []
        digest, count = dataset_digest(self.fs, "out")
        if not count == rep.items == self._expected_items():
            problems.append(
                f"{count} records written, {rep.items} reported, "
                f"{self._expected_items()} expected"
            )
        if (digest, count) != self.reference_digest:
            problems.append("output differs from the serial-backend reference")
        return problems

    def failed_attempts(self, rep: Rep) -> int:
        return rep.task_attempts - self.reference_attempts

    def layer_metrics(self, rep: Rep, tracer) -> dict[str, float]:
        return {
            **mapreduce_counts(rep.round_stats, self.reference_attempts),
            "mapreduce.fs_write_s": span_seconds(tracer, _FS_WRITE_METHODS),
            "mapreduce.fs_bytes_per_record": self.fs.size_bytes("out") / rep.items,
        }

    def probes(self, rep: Rep) -> dict[str, float]:
        stats = [s for s in rep.round_stats if s.shuffle_bytes_written]
        spilled = sum(s.shuffle_bytes_written for s in stats)
        records = sum(s.shuffled_records for s in stats)
        return {
            **probes.spill_and_framing(
                str(self.dir / "probe-spill"), spilled / records,
                (1 << 18) if self.smoke else (8 << 20),
            ),
            **self._runtime_probe(self.ds.edges, str(self.dir / "spill")),
        }

    def notes(self) -> dict:
        return {"output_sha256": self.reference_digest[0]}


class FlatPowerlawSpill(_UugWorkload):
    name = "flat_powerlaw_spill"
    layer = "core.graphflat"
    min_reps = 6  # ~3 s each: five leave the run's median too loose

    def _config(self, backend: str) -> GraphFlatConfig:
        return GraphFlatConfig(hops=2, **self._knobs(backend))

    def _pipeline(self, config, runtime, fs, dataset_name):
        return graph_flat(
            self.ds.nodes, self.ds.edges, self.ds.train_ids, config,
            runtime=runtime, fs=fs, dataset_name=dataset_name,
        )

    def _items(self, result) -> int:
        return result.num_targets

    def _expected_items(self) -> int:
        return len(self.ds.train_ids)

    def layer_metrics(self, rep: Rep, tracer) -> dict[str, float]:
        result = rep.out["result"]
        summary = result.summary()
        return {
            **super().layer_metrics(rep, tracer),
            "core.graphflat.samples": result.num_targets,
            "core.graphflat.mean_neighborhood_nodes": summary["mean_nodes"],
            "core.graphflat.hubs": summary["hubs"],
        }

    def probes(self, rep: Rep) -> dict[str, float]:
        return {**super().probes(rep), **probes.sample_codec(self.fs, "out")}


class InferFullgraph(_UugWorkload):
    name = "infer_fullgraph"
    layer = "core.infer"

    def setup(self) -> None:
        self.model = GraphSAGEModel(32, 32, 2, num_layers=2, seed=self.seed)
        super().setup()

    def _config(self, backend: str) -> GraphInferConfig:
        return GraphInferConfig(**self._knobs(backend))

    def _pipeline(self, config, runtime, fs, dataset_name):
        return graph_infer(
            self.model, self.ds.nodes, self.ds.edges, config,
            runtime=runtime, fs=fs, dataset_name=dataset_name,
        )

    def _items(self, result) -> int:
        return result.num_nodes

    def _expected_items(self) -> int:
        return len(self.ds.nodes)

    def layer_metrics(self, rep: Rep, tracer) -> dict[str, float]:
        result = rep.out["result"]
        return {
            **super().layer_metrics(rep, tracer),
            "core.infer.embedding_computations": result.embedding_computations,
            "core.infer.scores": result.num_nodes,
            "nn.params": sum(p.data.size for p in self.model.parameters()),
        }


# =================================================================== train
class TrainNcColumnar(Workload):
    name = "train_nc_columnar"
    quality_epochs = 8
    """Held-out accuracy is read after exactly this many epochs (warm-up
    included), so it does not depend on how long the run measures."""
    quality_floor = 0.85
    batch_size = 64

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.min_reps = self.quality_epochs  # warm-up + these pass the mark

    def setup(self) -> None:
        self.fresh_dir()
        ds, seconds = probes.timed(
            lambda: uug_like(
                seed=self.seed, num_nodes=300 if self.smoke else 3000,
                avg_degree=8, feature_dim=32, num_hubs=4,
                hub_degree=40 if self.smoke else 300,
                # classes overlap in feature space: accuracy needs the
                # neighborhood, and stays off the 1.0 ceiling
                feature_scale=0.12,
            )
        )
        self.setup_layer = {"datasets.gen_s": seconds}
        self.fs = DistFileSystem(self.dir / "dfs")
        held_ids = np.concatenate([ds.val_ids, ds.test_ids])
        graph_flat(
            ds.nodes, ds.edges, np.concatenate([ds.train_ids, held_ids]),
            GraphFlatConfig(
                hops=2, max_neighbors=10, seed=self.seed,
                hub_threshold=20 if self.smoke else 200,
            ),
            fs=self.fs, dataset_name="train/samples",
        )
        source, self.open_source_s = probes.timed(
            lambda: open_sample_source(self.fs, "train/samples")
        )
        held = np.isin(source.ids(), held_ids)
        self.train = source.slice(np.flatnonzero(~held))
        self.held = source.slice(np.flatnonzero(held))
        self.model = GraphSAGEModel(
            ds.feature_dim, 32, 2, num_layers=2, seed=self.seed
        )
        self.trainer = GraphTrainer(
            self.model,
            TrainerConfig(
                batch_size=self.batch_size, lr=0.01, seed=self.seed,
                task="multiclass",
            ),
        )
        self.losses: list[float] = []
        self.epoch_walls: list[float] = []
        self.quality: float | None = None
        self.evaluate_s = 0.0

    def rep(self, tracer) -> Rep:
        tracer.wrap(self.model, "nn", ("forward",))
        tracer.wrap(self.trainer.optimizer, "nn", ("step",))
        before = self.trainer.timers.totals()
        start = time.perf_counter()
        with tracer.span("train_epoch", "core.trainer"):
            loss = self.trainer.train_epoch(self.train)
        wall = time.perf_counter() - start
        after = self.trainer.timers.totals()
        self.losses.append(loss)
        self.epoch_walls.append(wall)
        stage = {k: after[k] - before.get(k, 0.0) for k in after}
        return Rep(wall, len(self.train), out={"loss": loss, "stage": stage})

    def check(self, rep: Rep) -> list[str]:
        problems = []
        if not np.isfinite(rep.out["loss"]):
            problems.append(f"loss {rep.out['loss']} is not finite")
        if len(self.losses) == self.quality_epochs:
            self.quality, self.evaluate_s = probes.timed(
                lambda: self.trainer.evaluate(self.held)
            )
            if self.quality < self.quality_floor:
                problems.append(
                    f"held-out accuracy {self.quality:.4f} below its floor "
                    f"{self.quality_floor}"
                )
        return problems

    def finish(self) -> list[str]:
        if self.quality is None:
            return [f"ran fewer than {self.quality_epochs} epochs"]
        return []

    def layer_metrics(self, rep: Rep, tracer) -> dict[str, float]:
        stage = rep.out["stage"]
        return {
            "core.trainer.open_source_s": self.open_source_s,
            # warm-up epoch excluded, as in the end-to-end timing
            "core.trainer.epoch_s_p50": float(np.median(self.epoch_walls[1:])),
            "core.trainer.preprocess_s": stage["preprocess"],
            "core.trainer.compute_s": stage["compute"],
            "core.trainer.data_wait_s": rep.wall - stage["compute"],
            "core.trainer.evaluate_s": self.evaluate_s,
            "core.trainer.quality": self.quality,
            "nn.params": sum(p.data.size for p in self.model.parameters()),
        }

    def probes(self, rep: Rep) -> dict[str, float]:
        fresh = GraphSAGEModel(32, 32, 2, num_layers=2, seed=self.seed)
        return {
            **probes.sample_codec(self.fs, "train/samples"),
            **probes.trainer_and_nn(self.train, fresh, self.batch_size),
        }

    def notes(self) -> dict:
        return {
            "loss_trajectory_sha256": floats_digest(
                self.losses[: self.quality_epochs]
            ),
            "quality": self.quality,
        }


# ====================================================================== lp
class LpPipeline(Workload):
    name = "lp_pipeline"
    min_reps = 5  # ~3.5 s each, and thread scheduling makes them uneven
    backend = "threads"
    workers = 2
    quality_floor = 0.60
    """ROC-AUC on the training pairs after the fixed epoch budget; chance
    is 0.5 and the observed range over seeds is 0.68-0.87."""
    batch_size = 32

    def setup(self) -> None:
        self.fresh_dir()
        size = (
            dict(num_nodes=150, num_edges=600)
            if self.smoke
            else dict(num_nodes=800, num_edges=4000)
        )
        self.edge_targets = 60 if self.smoke else 400
        self.epochs = 2 if self.smoke else 12
        (nodes, edges), seconds = probes.timed(
            lambda: labeled_edges_like(
                seed=self.seed, feature_dim=16, feature_scale=1.0, **size
            )
        )
        self.setup_layer = {"datasets.gen_s": seconds}
        write_node_table(self.dir / "nodes.tsv", nodes)
        write_edge_table(self.dir / "edges.tsv", edges)
        self.fs = DistFileSystem(self.dir / "dfs")
        reference = graph_flat(
            nodes, edges, None, self._flat_config("serial"),
            fs=self.fs, dataset_name="lp/reference",
        )
        self.reference_digest = dataset_digest(self.fs, "lp/reference")
        self.flat_attempts = task_attempts(reference.round_stats)
        self.first: dict | None = None
        self.quality: float | None = None

    def _shared(self, backend: str) -> dict:
        knobs = dict(
            task="link_prediction", max_neighbors=8, seed=self.seed,
            backend=backend,
        )
        if backend != "serial":
            knobs["num_workers"] = self.workers
        return knobs

    def _flat_config(self, backend: str) -> GraphFlatConfig:
        return GraphFlatConfig(
            hops=2, edge_targets=self.edge_targets, negative_ratio=1,
            **self._shared(backend),
        )

    def rep(self, tracer) -> Rep:
        fs = DistFileSystem(self.dir / "dfs")
        tracer.wrap(fs, "mapreduce", _FS_WRITE_METHODS)
        start = time.perf_counter()
        with tracer.span("read_tables", "datasets"):
            nodes = read_node_table(self.dir / "nodes.tsv")
            edges = read_edge_table(self.dir / "edges.tsv")
        flat_config = self._flat_config(self.backend)
        with tracer.span("core.graphflat", "core.graphflat"):
            with owned_runtime(flat_config, tracer) as runtime:
                flat = graph_flat(
                    nodes, edges, None, flat_config,
                    runtime=runtime, fs=fs, dataset_name="lp/train",
                )
        with tracer.span("open_sample_source", "core.trainer"):
            source = open_sample_source(fs, "lp/train")
        model = GraphSAGEModel(16, 16, 2, num_layers=2, seed=self.seed)
        trainer = GraphTrainer(
            model,
            TrainerConfig(
                task="link_prediction", batch_size=self.batch_size, lr=0.005,
                epochs=self.epochs, seed=self.seed,
            ),
        )
        tracer.wrap(model, "nn", ("embed",))
        tracer.wrap(trainer.optimizer, "nn", ("step",))
        with tracer.span("fit", "core.trainer"):
            history = trainer.fit(source)
        with tracer.span("evaluate", "core.trainer"):
            quality = trainer.evaluate(source)
        infer_config = GraphInferConfig(**self._shared(self.backend))
        with tracer.span("core.infer", "core.infer"):
            with owned_runtime(infer_config, tracer) as runtime:
                infer = graph_infer(
                    model, nodes, edges, infer_config,
                    runtime=runtime, fs=fs, dataset_name="lp/scores",
                )
        wall = time.perf_counter() - start
        return Rep(
            wall, infer.num_nodes, flat.round_stats + infer.round_stats,
            {
                "flat": flat, "infer": infer, "quality": quality, "model": model,
                "source": source, "nodes": nodes, "edges": edges,
                "losses": [entry["loss"] for entry in history],
                "epoch_s": [entry["seconds"] for entry in history],
                "stage": trainer.timers.totals(),
            },
        )

    def check(self, rep: Rep) -> list[str]:
        out = rep.out
        problems = []
        if dataset_digest(self.fs, "lp/train") != self.reference_digest:
            problems.append("samples differ from the serial-backend reference")
        if out["flat"].num_targets != 2 * self.edge_targets:
            problems.append(f"{out['flat'].num_targets} samples, not 2 per target edge")
        candidates = len(out["edges"].coalesce())
        scores = dataset_digest(self.fs, "lp/scores")
        if scores[1] != candidates:
            problems.append(f"{scores[1]} scores for {candidates} candidate edges")
        if out["quality"] < self.quality_floor:
            problems.append(
                f"roc_auc {out['quality']:.4f} below its floor {self.quality_floor}"
            )
        seen = {
            "losses": floats_digest(out["losses"]),
            "model": model_digest(out["model"]),
            "scores": scores,
        }
        if self.first is None:
            # every rep retrains from the same seed, so one serial-backend
            # GraphInfer of the first trained model is the reference for all
            reference = graph_infer(
                out["model"], out["nodes"], out["edges"],
                GraphInferConfig(**self._shared("serial")),
                fs=self.fs, dataset_name="lp/scores-reference",
            )
            self.infer_attempts = task_attempts(reference.round_stats)
            if dataset_digest(self.fs, "lp/scores-reference") != scores:
                problems.append("scores differ from the serial-backend reference")
            self.first = seen
            self.quality = out["quality"]
        elif seen != self.first:
            problems.append("losses, model or scores differ from the first rep")
        return problems

    def failed_attempts(self, rep: Rep) -> int:
        return rep.task_attempts - self.flat_attempts - self.infer_attempts

    def layer_metrics(self, rep: Rep, tracer) -> dict[str, float]:
        out = rep.out
        summary = out["flat"].summary()
        stage = out["stage"]
        fit_s = span_seconds(tracer, ("fit",))
        written = self.fs.size_bytes("lp/train") + self.fs.size_bytes("lp/scores")
        return {
            **mapreduce_counts(
                rep.round_stats, self.flat_attempts + self.infer_attempts
            ),
            "datasets.tsv_read_s": span_seconds(tracer, ("read_tables",)),
            "core.graphflat.samples": out["flat"].num_targets,
            "core.graphflat.mean_neighborhood_nodes": summary["mean_nodes"],
            "core.graphflat.hubs": summary["hubs"],
            "mapreduce.fs_write_s": span_seconds(tracer, _FS_WRITE_METHODS),
            "mapreduce.fs_bytes_per_record": written
            / (out["flat"].num_targets + out["infer"].num_nodes),
            "core.trainer.open_source_s": span_seconds(tracer, ("open_sample_source",)),
            "core.trainer.epoch_s_p50": float(np.median(out["epoch_s"])),
            "core.trainer.preprocess_s": stage["preprocess"],
            "core.trainer.compute_s": stage["compute"],
            "core.trainer.data_wait_s": fit_s - stage["compute"],
            "core.trainer.evaluate_s": span_seconds(tracer, ("evaluate",)),
            "core.trainer.quality": out["quality"],
            "core.infer.embedding_computations": out["infer"].embedding_computations,
            "core.infer.scores": out["infer"].num_nodes,
            "nn.params": sum(p.data.size for p in out["model"].parameters()),
        }

    def probes(self, rep: Rep) -> dict[str, float]:
        out = rep.out
        fresh = GraphSAGEModel(16, 16, 2, num_layers=2, seed=self.seed)
        return {
            **probes.negative_sampling(
                out["nodes"], out["edges"], self.edge_targets, self.seed
            ),
            **self._runtime_probe(out["edges"], None),
            **probes.sample_codec(self.fs, "lp/train"),
            **probes.trainer_and_nn(
                out["source"], fresh, self.batch_size,
                task_plugin=make_task("link_prediction"),
            ),
        }

    def notes(self) -> dict:
        first = self.first or {}
        return {
            "output_sha256": self.reference_digest[0],
            "loss_trajectory_sha256": first.get("losses"),
            "quality": self.quality,
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (FlatPowerlawSpill, TrainNcColumnar, LpPipeline, InferFullgraph)
}
