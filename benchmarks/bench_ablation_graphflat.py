"""Ablation (§3.2.2) — hub re-indexing and the sampling framework.

Two claims:

1. **Re-indexing** bounds the largest reduce group (a hub's in-edge records
   no longer land on a single reducer), fixing the load imbalance of the
   merge rounds — and costs next to nothing: only the hub slices take the
   extra shuffle, so the re-indexed run moves at most 10 % more records
   than the plain one (asserted; a re-index round that took every record
   moved ~40 % more).
2. **Sampling** bounds neighborhood size: without it, hub-adjacent k-hop
   neighborhoods blow up (the OOM risk of §3.2.2); each strategy caps them
   at ~1 + m + m^2 nodes.
"""

from __future__ import annotations

import pytest

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.mapreduce import LocalRuntime

from .conftest import emit

REINDEX: dict[str, dict] = {}
SAMPLING: dict[str, dict] = {}


@pytest.mark.parametrize("reindex", [False, True], ids=["plain", "reindexed"])
def bench_reindexing_load_balance(benchmark, bench_uug, tmp_path, reindex):
    ds = bench_uug
    config = GraphFlatConfig(
        hops=1,
        max_neighbors=10,
        sampling="uniform",
        hub_threshold=200 if reindex else 10**9,
        reindex_fanout=8,
        num_reducers=8,
    )

    def run():
        # spilled, so the shuffle's bytes are counted as well as its records
        with LocalRuntime(spill_dir=tmp_path) as runtime:
            return graph_flat(ds.nodes, ds.edges, ds.train_ids[:200], config, runtime)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    merge_rounds = [s for s in result.round_stats if "reduce" in s.job]
    REINDEX["reindexed" if reindex else "plain"] = {
        "max_group": max(s.max_group_values for s in merge_rounds),
        "records": sum(s.shuffled_records for s in result.round_stats),
        "bytes": sum(s.shuffle_bytes_written for s in result.round_stats),
        "seconds": benchmark.stats["mean"],
    }
    if {"plain", "reindexed"} <= REINDEX.keys():
        # Load balance is paid for by the hub slices alone.
        assert REINDEX["reindexed"]["records"] <= 1.10 * REINDEX["plain"]["records"]


@pytest.mark.parametrize("strategy", ["none", "uniform", "weighted", "topk"])
def bench_sampling_neighborhood_size(benchmark, bench_uug, strategy):
    ds = bench_uug
    config = GraphFlatConfig(
        hops=2,
        sampling=strategy if strategy != "none" else "uniform",
        max_neighbors=10**9 if strategy == "none" else 10,
        hub_threshold=200,
        num_reducers=8,
    )

    def run():
        return graph_flat(ds.nodes, ds.edges, ds.train_ids[:120], config)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    SAMPLING[strategy] = {
        "mean_nodes": float(result.neighborhood_nodes.mean()),
        "max_nodes": int(result.neighborhood_nodes.max()),
        "max_edges": int(result.neighborhood_edges.max()),
        "seconds": benchmark.stats["mean"],
    }


def bench_graphflat_ablation_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [
        "Hub re-indexing — largest reduce group (records under one key) and what",
        "load balance costs (shuffle of the whole run, binary spill, serial):",
        f"  {'':<10}{'max group':>10}{'records':>10}{'bytes':>12}{'flat s':>9}",
    ]
    for label in ("plain", "reindexed"):
        if label in REINDEX:
            r = REINDEX[label]
            lines.append(
                f"  {label:<10}{r['max_group']:>10}{r['records']:>10}{r['bytes']:>12}"
                f"{r['seconds']:>9.2f}"
            )
    if {"plain", "reindexed"} <= REINDEX.keys():
        plain, reindexed = REINDEX["plain"], REINDEX["reindexed"]
        lines.append(
            f"  largest group {plain['max_group'] / max(reindexed['max_group'], 1):.1f}x "
            f"smaller for {reindexed['records'] / plain['records'] - 1:+.1%} records, "
            f"{reindexed['bytes'] / plain['bytes'] - 1:+.1%} bytes "
            "(bounds reducer skew and OOM, Figure 3; only hub slices take the "
            "extra shuffle)"
        )
    lines += [
        "",
        "Sampling framework — 2-hop neighborhood sizes (120 targets, hubs present):",
        f"  {'strategy':<10}{'mean nodes':>12}{'max nodes':>11}{'max edges':>11}{'flat s':>9}",
    ]
    for strategy in ("none", "uniform", "weighted", "topk"):
        if strategy in SAMPLING:
            s = SAMPLING[strategy]
            lines.append(
                f"  {strategy:<10}{s['mean_nodes']:>12.1f}{s['max_nodes']:>11}"
                f"{s['max_edges']:>11}{s['seconds']:>9.2f}"
            )
    lines.append("")
    lines.append("claim: capped strategies bound size to ~1 + m + m^2 (m=10 -> 111).")
    emit("ablation_graphflat", "\n".join(lines))
