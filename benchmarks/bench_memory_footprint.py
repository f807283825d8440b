"""§4.2.2's memory claim — worker working set vs. whole-graph residency.

"The training task only needs 5.5 GB memory for each worker (550 GB in
total), which is far less than the memory cost for storing the entire graph
(35.5 TB)."

We quantify the same ratio at our scale, analytically over the actual
buffers (array ``nbytes``, no allocator noise):

* whole-graph resident bytes — what a DGL/PyG-style system must hold
  (features + labels + CSR structure + edge weights);
* AGL's peak per-batch working set — the largest vectorized batch
  (X_B + per-layer adjacency + targets) seen during an epoch;
* the flattened dataset on the DFS — AGL's disk trade-off (GraphFeatures
  duplicate overlapping neighborhoods on *disk*, which is the paper's
  explicit design choice: "store those k-hop neighborhoods ... in disk
  without too much cost").
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.trainer import BatchPipeline, decode_samples
from repro.nn.gnn import EdgeBlock

from .conftest import emit


def graph_resident_bytes(ds) -> int:
    graph = ds.to_graph()
    total = graph.node_features.nbytes + graph.nodes.ids.nbytes
    if graph.nodes.labels is not None:
        total += graph.nodes.labels.nbytes
    in_ptr, in_src, in_eid = graph.in_csr
    out_ptr, out_dst, out_eid = graph.out_csr
    total += in_ptr.nbytes + in_src.nbytes + in_eid.nbytes
    total += out_ptr.nbytes + out_dst.nbytes + out_eid.nbytes
    total += graph.edges.weights.nbytes
    return total


def block_bytes(block: EdgeBlock) -> int:
    total = block.src.nbytes + block.dst.nbytes + block.weight.nbytes
    if block.edge_feat is not None:
        total += block.edge_feat.nbytes
    return total


def bench_memory_footprint(benchmark, bench_uug):
    ds = bench_uug
    config = GraphFlatConfig(
        hops=2, max_neighbors=10, hub_threshold=200, sampling="weighted", seed=0
    )
    flat = graph_flat(ds.nodes, ds.edges, ds.train_ids[:800], config)
    disk_bytes = sum(len(r) for r in flat.samples)
    samples = decode_samples(flat.samples)
    batches = [samples[i : i + 32] for i in range(0, len(samples), 32)]

    def peak_batch_bytes() -> int:
        peak = 0
        for batch, labels in BatchPipeline(batches, num_layers=2, enabled=False):
            size = batch.x.nbytes + batch.target_index.nbytes
            unique_blocks = {id(b): b for b in batch.layer_blocks}.values()
            size += sum(block_bytes(b) for b in unique_blocks)
            if labels is not None:
                size += labels.nbytes
            peak = max(peak, size)
        return peak

    peak = benchmark.pedantic(peak_batch_bytes, rounds=1, iterations=1)
    resident = graph_resident_bytes(ds)

    lines = [
        f"Memory footprint on uug-like ({len(ds.nodes)} nodes, {len(ds.edges)} edges):",
        "",
        f"  whole graph resident (DGL/PyG style):  {resident / 2**20:9.2f} MiB",
        f"  AGL peak per-batch working set:        {peak / 2**20:9.2f} MiB",
        f"  AGL flattened dataset (on DISK):       {disk_bytes / 2**20:9.2f} MiB",
        "",
        f"  worker-memory ratio: {resident / peak:.0f}x smaller than whole-graph",
        "",
        "paper: 5.5 GB per worker vs 35.5 TB whole graph (~6,500x); the ratio",
        "grows with graph size because the batch working set is O(batch x",
        "neighborhood) regardless of |V|.  The disk-side GraphFeature blow-up",
        "(features duplicated across overlapping neighborhoods) is the",
        "deliberate trade: disk is cheap, worker RAM is the scaling limit.",
    ]
    emit("memory_footprint", "\n".join(lines))


# ---------------------------------------------------------------------------
# Dataflow memory grid: peak reducer buffer + RSS under the external-sorted
# spill path, each cell in a fresh interpreter (see _memory_cell.py).
# ---------------------------------------------------------------------------
_CELL_SCRIPT = Path(__file__).parent / "_memory_cell.py"

GRID = [
    ("graphflat", dict(workers=2, scale=1)),
    ("graphflat", dict(workers=8, scale=1)),
    ("graphflat", dict(workers=8, scale=8)),
    ("train", dict(workers=8)),
]


def _run_cell(stage: str, **options) -> dict:
    cmd = [sys.executable, str(_CELL_SCRIPT), stage]
    for key, value in options.items():
        cmd += [f"--{key}", str(value)]
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=env, timeout=1800, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench_dataflow_memory_grid(benchmark):
    """Constant-memory dataflow at 8 workers: as the GraphFlat input grows
    8x, spilled bytes grow with it but the reducer-side buffering
    high-water mark stays pinned at the run bound; the trainer row is a
    process prefetch pool handing batches back through shm slabs."""

    def run_grid():
        return [(stage, opts, _run_cell(stage, **opts)) for stage, opts in GRID]

    cells = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    lines = [
        "Dataflow memory grid (fresh interpreter per cell; processes backend):",
        "",
        f"  {'stage':<10} {'cell':<22} {'wall':>8} {'records':>8} "
        f"{'spill':>10} {'peak-red':>9} {'rss':>9} {'rss-kids':>9}",
    ]
    for stage, opts, cell in cells:
        tag = " ".join(f"{k}={v}" for k, v in opts.items())
        spill = cell.get("spilled_mib")
        peak = cell.get("peak_reducer_buffer_mib")
        lines.append(
            f"  {stage:<10} {tag:<22} {cell['wall_s']:7.2f}s "
            f"{cell['records']:8d} "
            f"{(f'{spill:8.1f}M' if spill is not None else '       -')} "
            f"{(f'{peak:7.2f}M' if peak is not None else '      -')} "
            f"{cell['rss_self_mib']:7.1f}M {cell['rss_children_mib']:7.1f}M"
        )
    flats = [c for s, _, c in cells if s == "graphflat"]
    if len(flats) >= 3:
        growth = flats[2]["spilled_mib"] / max(flats[1]["spilled_mib"], 1e-9)
        buffer_growth = flats[2]["peak_reducer_buffer_mib"] / max(
            flats[1]["peak_reducer_buffer_mib"], 1e-9
        )
        lines += [
            "",
            f"  8x input: spilled bytes grow {growth:.1f}x, peak reducer "
            f"buffer grows {buffer_growth:.2f}x (bounded by the run size, "
            "not the shard).",
        ]
    emit("dataflow_memory_grid", "\n".join(lines))
