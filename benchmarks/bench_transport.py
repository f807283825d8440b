"""Shuffle-transport grid: local spill vs TCP peering vs shared-dir push.

Same seeded GraphFlat workload per row — only the path the map-side run
bytes travel changes.  ``local`` is the intra-host fast path (reducers
read the spill files in place; zero transport bytes), ``tcp`` fetches each
partition's runs over the frame wire protocol from the shuffle peer
server, and ``shared-dir`` pushes runs into per-partition peer directories
under a shared mount at write time.

Reported per cell: wall clock, bytes spilled, and bytes moved by the
transport (sent/received as accounted in ``RunStats``).  Output equality
is asserted per cell — a transport that changed pipeline bytes would be a
bug, not a data point.  Deterministic by construction (seeded graph,
seeded sampling), so the grid is comparable across CI runs.
"""

from __future__ import annotations

import tempfile
import time

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.datasets import uug_like
from repro.mapreduce import LocalRuntime

from .conftest import emit

WORKER_GRID = (2, 4)
TRANSPORTS = ("local", "tcp", "shared-dir")


def bench_transport_grid():
    ds = uug_like(
        seed=7, num_nodes=2000, avg_degree=8, feature_dim=8, num_hubs=4,
        hub_degree=200,
    )
    targets = ds.train_ids[:100]

    def config(reducers):
        return GraphFlatConfig(
            hops=2, max_neighbors=6, hub_threshold=10**9,
            num_reducers=reducers, seed=0,
        )

    # One serial baseline per cluster width: output shard order is
    # partition-major, so runs only compare within the same reducer count.
    baselines = {
        2 * workers: graph_flat(ds.nodes, ds.edges, targets, config(2 * workers))
        for workers in WORKER_GRID
    }

    lines = [
        "GraphFlat shuffle-transport grid (uug-like 2k nodes, threads "
        "backend, binary spill codec;",
        "bytes moved = RunStats.transport_bytes_sent/received summed over "
        "rounds)",
        "",
        f"  {'workers':>7} {'reducers':>8} {'transport':>10} {'wall':>7} "
        f"{'spilled':>9} {'sent':>9} {'received':>9}",
    ]
    for workers in WORKER_GRID:
        reducers = 2 * workers
        for name in TRANSPORTS:
            with tempfile.TemporaryDirectory() as spill:
                with LocalRuntime(
                    backend="threads", max_workers=workers,
                    spill_dir=spill,
                    shuffle_transport=name,
                ) as runtime:
                    start = time.perf_counter()
                    result = graph_flat(
                        ds.nodes, ds.edges, targets, config(reducers), runtime
                    )
                    wall = time.perf_counter() - start
            assert result.samples == baselines[reducers].samples, (
                f"{name}@{workers}w changed pipeline output"
            )
            spilled = sum(rs.shuffle_bytes_written for rs in result.round_stats)
            sent = sum(rs.transport_bytes_sent for rs in result.round_stats)
            received = sum(rs.transport_bytes_received for rs in result.round_stats)
            lines.append(
                f"  {workers:>7} {reducers:>8} {name:>10} {wall:6.2f}s "
                f"{spilled / 2**20:8.2f}M {sent / 2**20:8.2f}M "
                f"{received / 2**20:8.2f}M"
            )
        lines.append("")

    lines.append(
        "output: byte-identical across every cell (asserted); local moves "
        "zero transport bytes by construction."
    )
    emit("transport_grid", "\n".join(lines))
