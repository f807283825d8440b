"""Table 4 — time-cost per epoch on PPI, standalone mode.

Grid: {GCN, GraphSAGE, GAT} x {1, 2, 3} layers x
{PyG-proxy, DGL-proxy, AGL_base, AGL+pruning, AGL+partition, AGL+both}.

AGL variants train from GraphFlat samples exactly as §3.3 describes (the
pipeline strategy is always on — it is AGL_base's baseline too, per the
paper); the proxies are in-memory full-batch epochs.  pytest-benchmark's
own table carries the raw timings; the summary file prints the Table 4
layout with seconds per epoch.

Shapes to reproduce (§4.2.1): pruning is a no-op at 1 layer but wins at
2-3 layers; partition wins everywhere; both together is best; GAT's dense
attention mutes the partition win; PyG-proxy (scatter) is the slowest
aggregation everywhere.
"""

from __future__ import annotations

import pytest

from repro.baselines import FullGraphConfig, FullGraphTrainer
from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.trainer import GraphTrainer, TrainerConfig, open_sample_source
from repro.mapreduce import DistFileSystem
from repro.nn.gnn import build_model

from .conftest import emit

RESULTS: dict[tuple[str, int, str], float] = {}
INGEST_RESULTS: dict[tuple[str, str, int], tuple[float, float, float]] = {}
"""cell -> (epoch wall-clock, preprocess, compute) seconds, means per epoch."""

MODELS = ["gcn", "graphsage", "gat"]
DEPTHS = [1, 2, 3]
VARIANTS = [
    "pyg-proxy",
    "dgl-proxy",
    "agl_base",
    "agl+pruning",
    "agl+partition",
    "agl+pruning&partition",
]

AGL_FLAGS = {
    "agl_base": dict(pruning=False, edge_partition=False),
    "agl+pruning": dict(pruning=True, edge_partition=False),
    "agl+partition": dict(pruning=False, edge_partition=True),
    "agl+pruning&partition": dict(pruning=True, edge_partition=True),
}

HIDDEN = 16
HEADS = 4


def make_model(name: str, in_dim: int, classes: int, depth: int):
    kwargs = dict(
        in_dim=in_dim, hidden_dim=HIDDEN, num_classes=classes,
        num_layers=depth, seed=0,
    )
    if name == "gat":
        kwargs["num_heads"] = HEADS
    return build_model(name, **kwargs)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("model_name", MODELS)
def bench_table4(benchmark, bench_ppi, ppi_flat_by_hops, model_name, depth, variant):
    ds = bench_ppi
    model = make_model(model_name, ds.feature_dim, ds.num_classes, depth)

    if variant in ("pyg-proxy", "dgl-proxy"):
        aggregation = "scatter" if variant == "pyg-proxy" else "fused"
        trainer = FullGraphTrainer(
            model, ds, FullGraphConfig(lr=0.01, task="multilabel", aggregation=aggregation)
        )
        epoch = trainer.train_epoch
    else:
        samples = ppi_flat_by_hops[depth]
        trainer = GraphTrainer(
            model,
            TrainerConfig(
                batch_size=64, lr=0.01, task="multilabel", seed=0,
                num_partitions=4, **AGL_FLAGS[variant],
            ),
        )
        epoch = lambda: trainer.train_epoch(samples)

    benchmark.pedantic(epoch, rounds=3, warmup_rounds=1, iterations=1)
    RESULTS[(model_name, depth, variant)] = benchmark.stats["mean"]


# --------------------------------------------------------------------------
# Trainer ingest: DFS shard layout x preprocessing pool.  The grid measures
# the *storage-layer* cost the columnar format removes: an epoch over a
# legacy row dataset must varint-decode every sample before vectorizing, a
# columnar epoch slices batches straight out of the mmap'd shard matrices.

INGEST_GRID = [
    ("row", "threads", 1),
    ("row", "threads", 2),
    ("columnar", "threads", 1),
    ("columnar", "threads", 2),
    ("columnar", "processes", 2),
]


@pytest.fixture(scope="session")
def ppi_dfs_by_layout(tmp_path_factory, bench_ppi):
    """The Table 4 PPI training set on a DFS in both layouts: columnar as
    GraphFlat writes it, row as a dataset from before the columnar format
    (the same samples through the DFS's generic record writer)."""
    ds = bench_ppi
    fs = DistFileSystem(tmp_path_factory.mktemp("table4-dfs"))
    config = GraphFlatConfig(hops=2, max_neighbors=15, hub_threshold=10**9, seed=0)
    graph_flat(
        ds.nodes, ds.edges, ds.train_ids[:600], config, fs=fs,
        dataset_name="flat/columnar",
    )
    fs.write_dataset(
        "flat/row", fs.read_dataset("flat/columnar"), num_shards=4, layout="row"
    )
    return fs


@pytest.mark.parametrize("layout,backend,workers", INGEST_GRID)
def bench_table4_ingest(benchmark, bench_ppi, ppi_dfs_by_layout, layout, backend, workers):
    ds = bench_ppi
    fs = ppi_dfs_by_layout
    model = make_model("gcn", ds.feature_dim, ds.num_classes, 2)
    trainer = GraphTrainer(
        model,
        TrainerConfig(
            batch_size=64, lr=0.01, task="multilabel", seed=0,
            prefetch_backend=backend, prefetch_workers=workers,
        ),
    )

    def epoch_from_dfs():
        # Source opened inside the timed region: the row layout pays its
        # full per-record decode here, columnar only the header parse.
        trainer.train_epoch(open_sample_source(fs, f"flat/{layout}"))

    rounds, warmup = 3, 1
    benchmark.pedantic(epoch_from_dfs, rounds=rounds, warmup_rounds=warmup, iterations=1)
    # Stage seconds from the trainer's own timers, averaged over every
    # epoch it ran (the warm-up one too).
    stage = trainer.timers.totals()
    INGEST_RESULTS[(layout, backend, workers)] = (
        benchmark.stats["mean"],
        stage["preprocess"] / (rounds + warmup),
        stage["compute"] / (rounds + warmup),
    )


def bench_table4_ingest_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [
        "Trainer ingest from DFS shards (GCN-2L/16 on PPI-like, 600 targets,",
        "epoch wall-clock incl. dataset open; shard layout x prefetch pool):",
        "",
        f"{'layout':<10}{'prefetch':<22}{'s/epoch':>10}{'preprocess_s':>14}{'compute_s':>11}",
        "-" * 67,
    ]
    for (layout, backend, workers), (secs, pre, comp) in INGEST_RESULTS.items():
        lines.append(
            f"{layout:<10}{f'{backend} x{workers}':<22}{secs:>10.3f}{pre:>14.3f}{comp:>11.3f}"
        )
    row_ref = INGEST_RESULTS.get(("row", "threads", 1))
    col_proc = INGEST_RESULTS.get(("columnar", "processes", 2))
    if row_ref and col_proc:
        lines += [
            "",
            f"columnar + process prefetch vs row + thread prefetch: "
            f"{row_ref[0] / col_proc[0]:.2f}x faster epoch",
            "(row epochs re-decode every record through the varint codec in a",
            "single GIL-bound thread — at dataset open, so in s/epoch but not in",
            "preprocess_s — then stack a GraphFeature per sample; columnar epochs",
            "gather each batch's stacked columns out of the mmap'd shard matrices.",
            "preprocess_s / compute_s are GraphTrainer.timers means per epoch;",
            "preprocess_s sums over pool workers, so it can exceed the wall-clock).",
        ]
    emit("table4_training_ingest", "\n".join(lines))


def bench_table4_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    header = f"{'variant':<24}" + "".join(
        f"{m}-{d}L".rjust(10) for m in MODELS for d in DEPTHS
    )
    lines = [
        "Time-cost (s) per epoch on PPI-like (8% scale, 600 train targets),"
        " standalone:",
        header,
        "-" * len(header),
    ]
    for variant in VARIANTS:
        cells = []
        for m in MODELS:
            for d in DEPTHS:
                value = RESULTS.get((m, d, variant))
                cells.append(f"{value:.3f}".rjust(10) if value else "n/a".rjust(10))
        lines.append(f"{variant:<24}" + "".join(cells))
    lines += [
        "",
        "paper shape: +pruning helps only at >=2 layers; +partition helps",
        "everywhere (less for GAT); combined is fastest AGL; scatter (PyG",
        "proxy) slowest aggregation.",
    ]
    emit("table4_training_efficiency", "\n".join(lines))
