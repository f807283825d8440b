"""Shuffle-partitioner grid: reducer skew, hash vs degree-aware plan.

Same seeded power-law GraphFlat workload per row — only the partition
function and the cluster width change.  Hubs are left un-reindexed
(``hub_threshold`` above every degree) so the whole hub load rides a single
key: the regime where ``crc32 % n`` piles hubs onto whichever reducer they
happen to collide with, and exactly what the degree-aware plan fixes by
LPT-packing heavy keys across reducers.

Reported per cell: wall clock and the records/bytes skew factor (max
partition load / mean) over the *planner-governed* rounds — every round but
the last, because the final round is pinned to hash partitioning by the
output-order determinism contract (see ``GraphFlatConfig.partitioner``).

Output equality is asserted per cell: a partitioner that changed pipeline
bytes would be a bug, not a data point.  Deterministic by construction
(seeded graph, seeded sampling), so the grid is comparable across CI runs.
"""

from __future__ import annotations

import re
import time

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.datasets import uug_like
from repro.mapreduce import LocalRuntime

from .conftest import emit

WORKER_GRID = (2, 4)
PARTITIONERS = ("hash", "planned")


DATAFLOW_ROUND = re.compile(r"graphflat-(map|reduce\d+(-reindex)?|pair)")
"""Job names of the rounds ``run_dataflow`` chains for GraphFlat."""


def _governed_skew(round_stats):
    """Worst and mean skew over the rounds the plan actually governs: every
    dataflow round but the final, hash-pinned one — selected by job name, so
    a round run outside the dataflow can never pass for a planned one."""
    dataflow = [rs for rs in round_stats if DATAFLOW_ROUND.fullmatch(rs.job)]
    governed = dataflow[:-1]
    rec = [rs.records_skew() for rs in governed]
    byt = [rs.bytes_skew() for rs in governed]
    populated = [s for s in rec if s] or [0.0]
    return max(rec), sum(populated) / len(populated), max(byt)


def bench_partition_grid():
    ds = uug_like(
        seed=7, num_nodes=3000, avg_degree=8, feature_dim=8, num_hubs=6,
        hub_degree=400,
    )
    targets = ds.train_ids[:120]

    def config(partitioner, reducers):
        return GraphFlatConfig(
            hops=2, max_neighbors=6, hub_threshold=10**9,
            num_reducers=reducers, seed=0, partitioner=partitioner,
        )

    # One serial hash baseline per cluster width: output shard order is
    # partition-major, so runs only compare within the same reducer count.
    baselines = {
        2 * workers: graph_flat(
            ds.nodes, ds.edges, targets, config("hash", 2 * workers)
        )
        for workers in WORKER_GRID
    }

    lines = [
        "GraphFlat shuffle-partitioner grid "
        "(uug-like 3k nodes, 6 un-reindexed hubs of in-degree ~400,",
        "processes backend, binary spill codec; skew = max partition load / "
        "mean over planner-governed rounds)",
        "",
        f"  {'workers':>7} {'reducers':>8} {'partitioner':>11} "
        f"{'wall':>7} {'rec-skew max':>12} {'rec-skew mean':>13} "
        f"{'byte-skew max':>13}",
    ]
    skew_by_cell = {}
    for workers in WORKER_GRID:
        reducers = 2 * workers
        for name in PARTITIONERS:
            with LocalRuntime(backend="processes", max_workers=workers) as runtime:
                start = time.perf_counter()
                result = graph_flat(
                    ds.nodes, ds.edges, targets, config(name, reducers), runtime
                )
                wall = time.perf_counter() - start
            assert result.samples == baselines[reducers].samples, (
                f"{name}@{workers}w changed pipeline output"
            )
            rec_max, rec_mean, byte_max = _governed_skew(result.round_stats)
            skew_by_cell[(name, workers)] = rec_max
            lines.append(
                f"  {workers:>7} {reducers:>8} {name:>11} {wall:6.2f}s "
                f"{rec_max:12.3f} {rec_mean:13.3f} {byte_max:13.3f}"
            )
        lines.append("")

    for workers in WORKER_GRID:
        if workers >= 4:
            assert (
                skew_by_cell[("planned", workers)]
                < skew_by_cell[("hash", workers)]
            ), "degree-aware plan must reduce reducer skew at >= 4 workers"
    lines.append(
        "output: byte-identical across every cell (asserted); the final "
        "round of each run stays hash-partitioned by contract."
    )
    emit("partition_grid", "\n".join(lines))
