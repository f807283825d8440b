"""Ablation (§3.3.2, training pipeline) — overlap of preprocessing with
model computation.

Claim: "the two stages operate in a parallel manner ... the total training
time is nearly equal to that of performing model computation only."

What we can verify on a 2-core container:

* **mechanism** — with the pipeline on, preprocessing intervals genuinely
  run concurrently with model-computation intervals (measured via interval
  timers); inline mode has zero overlap by construction;
* **decomposition** — the paper's regime (preprocessing cheaper than
  compute) holds for the heavy models, so with free cores the pipelined
  epoch tends to max(preprocess, compute) ≈ compute.

What we cannot honestly show here: a wall-clock win.  Both stages are
interpreter-bound numpy in one CPython process, so the prefetch thread
contends with the training loop for the GIL between numpy calls instead of
running on an idle core.  Measured on link prediction (``bench/``'s
``lp_pipeline`` inputs, shared 2-vCPU VM, 7 alternating runs): the
threaded ``fit`` took 0.812 s wall and 1.023 s CPU against 0.606 s and
0.605 s inline, for the same losses, and the trainer's stage timers (fit
plus evaluate, traced benchmark runs) read preprocess 0.80 s and compute
0.77 s against 0.25 s and 0.33 s inline.  That is why
``TrainerConfig.pipeline`` defaults to off; this benchmark's "on" arm sets
it.  On the paper's cluster each worker has spare cores and disk-bound
reads (which release the GIL), which is where the claim's speedup
materialises.  The report gives wall and CPU seconds per arm.
"""

from __future__ import annotations

import time

import pytest

from repro.core.trainer import GraphTrainer, TrainerConfig
from repro.nn.gnn import GCNModel
from repro.utils.timer import Timer, TimerRegistry

from .conftest import emit

RESULTS: dict[bool, dict[str, float]] = {}


@pytest.mark.parametrize("pipeline", [False, True], ids=["inline", "pipelined"])
def bench_pipeline_ablation(benchmark, bench_uug, uug_flat, pipeline):
    ds = bench_uug
    samples = uug_flat["train"]
    model = GCNModel(ds.feature_dim, 64, 2, num_layers=2, seed=0)
    trainer = GraphTrainer(
        model,
        TrainerConfig(
            batch_size=32, epochs=1, lr=0.01, task="binary", seed=0,
            pipeline=pipeline,
        ),
    )
    trainer.timers = TimerRegistry(keep_intervals=True)
    cpu: list[float] = []

    def one_epoch():
        trainer.timers.reset()
        start = time.process_time()
        trainer.train_epoch(samples)
        cpu.append(time.process_time() - start)

    rounds, warmup = 3, 1
    benchmark.pedantic(one_epoch, rounds=rounds, warmup_rounds=warmup, iterations=1)
    pre, comp = trainer.timers["preprocess"], trainer.timers["compute"]
    RESULTS[pipeline] = {
        "wall": benchmark.stats["mean"],
        "cpu": sum(cpu[warmup:]) / rounds,
        "preprocess": pre.total,
        "compute": comp.total,
        "overlap": Timer.overlap_seconds(pre, comp),
    }


def bench_pipeline_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    seq, par = RESULTS.get(False), RESULTS.get(True)
    lines = ["Two-stage training pipeline ablation (GCN-2L/64, uug-like):", ""]
    for label, r in [("inline", seq), ("pipelined", par)]:
        if r is None:
            continue
        lines.append(
            f"{label:<12} wall/epoch={r['wall']:.3f}s  cpu/epoch={r['cpu']:.3f}s  "
            f"preprocess={r['preprocess']:.3f}s  compute={r['compute']:.3f}s  "
            f"overlap={r['overlap']:.3f}s"
        )
    if seq and par:
        lines += [
            "",
            f"mechanism: {par['overlap']:.3f}s of preprocessing ran concurrently "
            f"with model computation (inline: {seq['overlap']:.3f}s) — "
            "the two stages do operate in parallel (§3.3.2).",
            f"regime: preprocess/compute = "
            f"{seq['preprocess'] / max(seq['compute'], 1e-9):.2f} "
            "(paper assumes < 1, so the pipeline can hide preprocessing).",
            f"cost: the pipelined epoch used {par['cpu'] / max(seq['cpu'], 1e-9):.2f}x "
            f"the CPU and {par['wall'] / max(seq['wall'], 1e-9):.2f}x the wall "
            "of the inline one.",
            "hardware note: both stages are interpreter-bound numpy in one "
            "CPython process, so the prefetch thread contends with the "
            "training loop for the GIL between numpy calls instead of using "
            "an idle core, and each stage slows down beside the other (link "
            "prediction, shared 2-vCPU VM: threaded fit 0.812 s wall / 1.023 s "
            "CPU against 0.606 s / 0.605 s inline; preprocess 0.80 s and "
            "compute 0.77 s against 0.25 s and 0.33 s).  Hence "
            "TrainerConfig.pipeline defaults to off; on cluster workers with "
            "idle cores and disk-bound reads (GIL-free) the overlap does pay.",
        ]
    emit("ablation_pipeline", "\n".join(lines))
