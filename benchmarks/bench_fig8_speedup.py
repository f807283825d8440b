"""Figure 8 — speedup vs number of workers.

Three parts (the cluster is simulated past the cores this host has — see
``repro.ps.simulate``):

1. **Measured (GraphFlat)**: actual wall-clock of the GraphFlat pipeline
   under the ``processes`` MapReduce backend at 1/2/4/8 workers against the
   serial backend, on the synthetic benchmark graph.  This is the paper's
   Fig. 8 GraphFlat claim run for real: same bytes out, different wall
   clock.  Interpretation requires ``os.cpu_count()`` context — on a
   single-core container every extra worker is pure serialization overhead,
   while the per-round spill pickling parallelizes across cores on real
   hardware.
2. **Measured (training)**: per-batch model-computation time and parameter
   payload are measured on this machine with the real trainer.
3. **Simulated**: the measured costs drive the discrete-event cluster model
   (FCFS parameter-server shards, worker jitter) for 1..100 workers — the
   regime the paper measures on a physical cluster.

Shape to reproduce: near-linear speedup with slope ~0.8 (paper: 78x at 100
workers), slope degrading gracefully as PS shards saturate.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.trainer import GraphTrainer, TrainerConfig
from repro.mapreduce import LocalRuntime
from repro.nn.gnn import GATModel
from repro.ps import ClusterModel, DistributedConfig, DistributedTrainer, simulate_speedup

from .conftest import emit

WORKER_COUNTS = [1, 2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
FLAT_WORKER_COUNTS = [1, 2, 4]
DIST_WORKER_COUNTS = [1, 2, 4, 8]
DIST_BACKENDS = ["threads", "processes"]


def bench_fig8_graphflat_worker_scaling(benchmark, bench_uug):
    """GraphFlat wall-clock scaling: serial vs ``processes`` x 1/2/4 workers,
    with bytes-spilled accounting.

    The spilled bytes are the same at every worker count (one run-file
    encoding, a deterministic function of the records); only the wall clock
    may move, and output stays byte-identical."""
    ds = bench_uug
    targets = ds.train_ids[:800]
    config = GraphFlatConfig(
        hops=2, max_neighbors=10, hub_threshold=200, sampling="weighted",
        num_reducers=8, seed=0,
    )

    def run_serial():
        return graph_flat(ds.nodes, ds.edges, targets, config)

    baseline = benchmark.pedantic(run_serial, rounds=1, warmup_rounds=1, iterations=1)
    t0 = time.perf_counter()
    serial_result = run_serial()
    serial_seconds = time.perf_counter() - t0

    rows = [("serial", 1, serial_seconds, 1.0, 0.0, True)]
    for workers in FLAT_WORKER_COUNTS:
        with LocalRuntime(backend="processes", max_workers=workers) as runtime:
            t0 = time.perf_counter()
            result = graph_flat(ds.nodes, ds.edges, targets, config, runtime)
            seconds = time.perf_counter() - t0
        spilled_mib = sum(rs.shuffle_bytes_written for rs in result.round_stats) / 2**20
        rows.append(
            (
                "processes", workers, seconds, serial_seconds / seconds, spilled_mib,
                result.samples == serial_result.samples,
            )
        )
    assert baseline.samples == serial_result.samples

    lines = [
        f"host cores: {os.cpu_count()} (speedup is bounded by physical cores;",
        "the per-round spill serialization runs inside the workers and",
        "parallelizes with them, so single-core hosts only see its cost)",
        "",
        f"{'backend':>10}{'workers':>9}{'seconds':>10}"
        f"{'speedup':>9}{'spill MiB':>11}{'identical':>11}",
        "-" * 60,
    ]
    for backend, workers, seconds, speedup, spilled, identical in rows:
        lines.append(
            f"{backend:>10}{workers:>9}{seconds:>10.2f}{speedup:>9.2f}"
            f"{spilled:>11.1f}{str(identical):>11}"
        )
    lines += [
        "",
        "acceptance shape: the same spill MiB at every worker count; >1.5x",
        "speedup at 4 workers on >= 4 cores; byte-identical output everywhere.",
    ]
    emit("fig8_graphflat_scaling", "\n".join(lines))


def bench_fig8_training_worker_scaling(benchmark, bench_uug, uug_flat):
    """Distributed-training wall-clock: thread vs process workers x
    1/2/4/8, BSP parameter servers.

    The backward pass is the last GIL-bound pipeline stage, so thread
    workers cannot beat one worker no matter the count; process workers
    against the shared-memory PS shard it across cores.  The pull columns
    are the transport story: the local transport copies the full model
    every refresh, the shm transport's refresh is a slab view (0 transport
    bytes).  BSP losses must be identical between backends at equal worker
    counts (asserted).
    """
    ds = bench_uug
    samples = uug_flat["train"]
    factory = functools.partial(
        GATModel, ds.feature_dim, 8, 2, num_layers=2, num_heads=2, seed=0
    )
    config = TrainerConfig(batch_size=32, epochs=2, lr=0.01, task="binary", seed=0)

    def run(backend: str, workers: int):
        with DistributedTrainer(
            factory,
            config,
            DistributedConfig(num_workers=workers, num_servers=2, mode="bsp",
                              worker_backend=backend, seed=0),
        ) as trainer:
            history = trainer.fit(samples)
            return history, trainer.pull_stats()

    benchmark.pedantic(lambda: run("threads", 1), rounds=1, iterations=1)

    rows = []
    losses: dict[tuple[str, int], float] = {}
    base_seconds: dict[str, float] = {}
    for backend in DIST_BACKENDS:
        for workers in DIST_WORKER_COUNTS:
            history, pulls = run(backend, workers)
            # epoch 0 pays one-time worker spawn/import under processes;
            # epoch 1 is the steady state the speedup claim is about
            warm = history[-1]["seconds"]
            base_seconds.setdefault(backend, warm)
            per_pull = pulls["pull_bytes"] / max(pulls["refreshes"], 1)
            rows.append(
                (backend, workers, warm, base_seconds[backend] / warm,
                 history[-1]["loss"], pulls["refreshes"], per_pull)
            )
            losses[(backend, workers)] = history[-1]["loss"]
    for workers in DIST_WORKER_COUNTS:
        assert losses[("threads", workers)] == losses[("processes", workers)], (
            "BSP trajectory must be backend-independent"
        )

    lines = [
        f"host cores: {os.cpu_count()} (process-worker speedup is bounded by",
        "physical cores; thread workers are GIL-bound in the backward pass",
        "at any count, which is precisely the point of this table)",
        "",
        f"{'backend':>10}{'workers':>9}{'epoch s':>10}{'speedup':>9}"
        f"{'bsp loss':>10}{'pulls':>7}{'B/pull':>10}",
        "-" * 65,
    ]
    for backend, workers, seconds, speedup, loss, refreshes, per_pull in rows:
        lines.append(
            f"{backend:>10}{workers:>9}{seconds:>10.2f}{speedup:>9.2f}"
            f"{loss:>10.4f}{refreshes:>7}{per_pull:>10.0f}"
        )
    lines += [
        "",
        "acceptance shape: identical BSP loss at equal worker counts across",
        "backends; B/pull ~0 for the shm transport (view refresh) vs the",
        "full model size for the local copy path; >= 2x epoch speedup at 4",
        "process workers vs 1 on >= 4 physical cores.",
    ]
    emit("fig8_training_worker_scaling", "\n".join(lines))


def bench_fig8(benchmark, bench_uug, uug_flat):
    ds = bench_uug
    samples = uug_flat["train"]
    model = GATModel(ds.feature_dim, 8, 2, num_layers=2, num_heads=2, seed=0)
    trainer = GraphTrainer(
        model, TrainerConfig(batch_size=32, epochs=1, lr=0.01, task="binary", seed=0)
    )

    def one_epoch():
        trainer.train_epoch(samples)

    benchmark.pedantic(one_epoch, rounds=2, warmup_rounds=1, iterations=1)

    num_batches = int(np.ceil(len(samples) / 32))
    compute_per_batch = trainer.timers["compute"].mean
    payload_mb = 2 * model.num_parameters() * 4 / 2**20  # pull + push

    cluster = ClusterModel(
        batch_compute_seconds=compute_per_batch,
        batch_payload_mb=payload_mb,
        num_servers=10,
    )
    # an epoch at paper-relevant batch volume (every worker stays busy even
    # at 100 workers)
    epoch_batches = max(num_batches, 40) * 25
    speedups = simulate_speedup(cluster, epoch_batches, WORKER_COUNTS, seed=0)

    slope = np.polyfit(WORKER_COUNTS, [speedups[w] for w in WORKER_COUNTS], 1)[0]
    lines = [
        "Calibration (measured on this machine):",
        f"  per-batch model computation: {compute_per_batch * 1e3:.1f} ms",
        f"  pull+push payload:           {payload_mb:.3f} MiB "
        f"({model.num_parameters()} parameters)",
        f"  simulated epoch size:        {epoch_batches} batches, 10 PS shards",
        "",
        f"{'workers':>8}{'speedup':>10}{'efficiency':>12}",
        "-" * 30,
    ]
    for w in WORKER_COUNTS:
        lines.append(f"{w:>8}{speedups[w]:>10.1f}{speedups[w] / w:>12.2f}")
    lines += [
        "",
        f"linear-fit slope: {slope:.2f}  (paper: ~0.8, 78x at 100 workers)",
        f"speedup at 100 workers: {speedups[100]:.0f}x",
    ]
    emit("fig8_speedup", "\n".join(lines))
