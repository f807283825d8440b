"""Ablation (§3.3.2, training pipeline) — overlap of preprocessing with
model computation.

Claim: "the two stages operate in a parallel manner ... the total training
time is nearly equal to that of performing model computation only."

What we can verify on a 2-core container:

* **mechanism** — with the pipeline on, preprocessing intervals genuinely
  run concurrently with model-computation intervals (measured via interval
  timers); sequential mode has zero overlap by construction;
* **decomposition** — the paper's regime (preprocessing cheaper than
  compute) holds for the heavy models, so with free cores the pipelined
  epoch tends to max(preprocess, compute) ≈ compute.

What we cannot honestly show here: a large wall-clock win.  Measured on
link prediction (``bench/``'s ``lp_pipeline``, 2 vCPUs, one batch prepared
per call), the prefetch thread costs CPU instead of using an idle core: the
threaded ``fit`` used 1.2 s of CPU against 0.8 s sequential, for the same
losses — the two stages
contend for the GIL between numpy calls rather than running side by side.
Preparing a window of batches per call (fewer, larger numpy calls) shrinks
that tax.  On the paper's cluster each worker has spare cores and
disk-bound reads (which release the GIL), which is where the claim's
speedup materialises.  The report states both.
"""

from __future__ import annotations

import pytest

from repro.core.trainer import GraphTrainer, TrainerConfig
from repro.nn.gnn import GCNModel
from repro.utils.timer import Timer, TimerRegistry

from .conftest import emit

RESULTS: dict[bool, dict[str, float]] = {}


@pytest.mark.parametrize("pipeline", [False, True], ids=["sequential", "pipelined"])
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

    def one_epoch():
        trainer.timers.reset()
        trainer.train_epoch(samples)

    benchmark.pedantic(one_epoch, rounds=3, warmup_rounds=1, iterations=1)
    pre, comp = trainer.timers["preprocess"], trainer.timers["compute"]
    RESULTS[pipeline] = {
        "wall": benchmark.stats["mean"],
        "preprocess": pre.total,
        "compute": comp.total,
        "overlap": Timer.overlap_seconds(pre, comp),
    }


def bench_pipeline_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    seq, par = RESULTS.get(False), RESULTS.get(True)
    lines = ["Two-stage training pipeline ablation (GCN-2L/64, uug-like):", ""]
    for label, r in [("sequential", seq), ("pipelined", par)]:
        if r is None:
            continue
        lines.append(
            f"{label:<12} wall/epoch={r['wall']:.3f}s  "
            f"preprocess={r['preprocess']:.3f}s  compute={r['compute']:.3f}s  "
            f"overlap={r['overlap']:.3f}s"
        )
    if seq and par:
        lines += [
            "",
            f"mechanism: {par['overlap']:.3f}s of preprocessing ran concurrently "
            f"with model computation (sequential mode: {seq['overlap']:.3f}s) — "
            "the two stages do operate in parallel (§3.3.2).",
            f"regime: preprocess/compute = "
            f"{seq['preprocess'] / max(seq['compute'], 1e-9):.2f} "
            "(paper assumes < 1, so the pipeline can hide preprocessing).",
            "hardware note: on a small CPython host the prefetch thread costs "
            "CPU rather than using an idle core — the stages contend for the "
            "GIL between numpy calls (on link prediction, one batch prepared "
            "per call, the threaded fit used 1.2 s of CPU against 0.8 s "
            "sequential, same losses), so the "
            "overlap does not translate into a wall-clock win here; on "
            "cluster workers with idle cores and disk-bound reads (GIL-free) "
            "it does.",
        ]
    emit("ablation_pipeline", "\n".join(lines))
