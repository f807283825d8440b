"""One cell of the dataflow-memory grid, run in a fresh interpreter.

A fresh process per cell makes ``ru_maxrss`` meaningful: the high-water
mark covers exactly this cell's stage (plus its pool children), not
whatever a previous cell allocated.  Invoked by ``bench_memory_footprint``
as ``python benchmarks/_memory_cell.py <stage> [options]``; prints one JSON
object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time


def _rss_mib() -> dict:
    # ru_maxrss is KiB on Linux.
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"rss_self_mib": self_kb / 1024, "rss_children_mib": child_kb / 1024}


def run_graphflat(args) -> dict:
    from repro.core.graphflat import GraphFlatConfig, graph_flat
    from repro.datasets import cora_like
    from repro.mapreduce import DistFileSystem

    ds = cora_like(
        seed=0, num_nodes=800 * args.scale, num_edges=2400 * args.scale
    )
    targets = ds.nodes.ids[: 400 * args.scale]
    with tempfile.TemporaryDirectory() as tmp:
        config = GraphFlatConfig(
            hops=2,
            max_neighbors=15,
            backend="processes",
            num_workers=args.workers,
            num_reducers=max(args.workers, 4),
            spill_dir=f"{tmp}/spill",
            # Small runs force real external sorting even at bench scale.
            spill_run_records=2048,
            spill_run_bytes=1 << 18,
        )
        fs = DistFileSystem(f"{tmp}/dfs")
        start = time.perf_counter()
        result = graph_flat(ds.nodes, ds.edges, targets, config, fs=fs, dataset_name="flat")
        wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "records": result.num_targets,
        "peak_reducer_buffer_mib": max(
            rs.peak_reducer_buffer_bytes for rs in result.round_stats
        )
        / 2**20,
        "spilled_mib": sum(rs.shuffle_bytes_written for rs in result.round_stats)
        / 2**20,
        "combined_records": sum(rs.combined_records for rs in result.round_stats),
        **_rss_mib(),
    }


def run_train(args) -> dict:
    from repro.core.graphflat import GraphFlatConfig, graph_flat
    from repro.core.trainer import GraphTrainer, TrainerConfig, decode_samples
    from repro.datasets import cora_like
    from repro.nn.gnn import build_model

    ds = cora_like(seed=0, num_nodes=800 * args.scale, num_edges=2400 * args.scale)
    flat_config = GraphFlatConfig(hops=2, max_neighbors=15)
    samples = decode_samples(
        graph_flat(ds.nodes, ds.edges, ds.train_ids, flat_config).samples
    )
    model = build_model(
        "gcn",
        in_dim=samples[0].graph_feature.feature_dim,
        hidden_dim=16,
        num_classes=int(max(s.label for s in samples)) + 1,
        num_layers=2,
        seed=0,
    )
    trainer = GraphTrainer(
        model,
        TrainerConfig(
            batch_size=32,
            epochs=2,
            pipeline=True,
            prefetch_backend="processes",
            prefetch_workers=args.workers,
        ),
    )
    start = time.perf_counter()
    trainer.fit(samples)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "records": len(samples), **_rss_mib()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("stage", choices=["graphflat", "train"])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--scale", type=int, default=1)
    args = parser.parse_args()
    out = run_graphflat(args) if args.stage == "graphflat" else run_train(args)
    json.dump(out, sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
