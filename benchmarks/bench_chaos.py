"""Chaos soak grid: pipeline overhead and accounting under injected faults.

Every row runs the same seeded GraphFlat / GraphInfer workload on the
processes backend while a :class:`~repro.mapreduce.fault.FaultPlan` injects
one fault kind; the table reports the wall-clock overhead relative to the
fault-free run next to the runtime's own fault-tolerance accounting
(injections, attempts, deadline timeouts, speculative duplicates).  Output
equality with the clean run is asserted per cell — a chaos row that changed
pipeline output is a bug, not a data point.

Deterministic by construction (seeded fault plan, seeded graph), so the
grid is comparable across CI runs.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.infer import GraphInferConfig, graph_infer
from repro.datasets import uug_like
from repro.mapreduce import FAULT_KINDS, FaultPlan, LocalRuntime
from repro.nn.gnn import build_model

from .conftest import emit

# rate per kind: hang is rarest because each injection costs a full
# task deadline of wall clock; read faults are cheap (one retried read).
CHAOS_RATES = {
    "crash": 0.15,
    "hang": 0.15,
    "slow": 0.15,
    "corrupt-run": 0.3,
    "truncate-run": 0.3,
}
# Must sit comfortably above the honest duration of the slowest task at
# this scale: the deadline only exists to reap injected hangs, and a budget
# tighter than real work perma-fails healthy tasks.
HANG_TIMEOUT_S = 2.0
SLOW_S = 0.05


def _runtime(plan: FaultPlan | None, kind: str | None) -> LocalRuntime:
    return LocalRuntime(
        backend="processes",
        max_workers=2,
        max_attempts=10,
        fault_plan=plan,
        task_timeout_s=HANG_TIMEOUT_S if kind == "hang" else None,
        speculation_factor=1.5 if kind == "slow" else None,
    )


def _row(stats_list, wall_s, clean_wall_s, plan, kind):
    stats = stats_list
    attempts = sum(rs.map_attempts + rs.reduce_attempts for rs in stats)
    timeouts = sum(rs.timeouts for rs in stats)
    launched = sum(rs.speculative_launched for rs in stats)
    won = sum(rs.speculative_won for rs in stats)
    injected = plan.injected_by_kind[kind] if plan is not None else 0
    overhead = wall_s / clean_wall_s if clean_wall_s else float("nan")
    return (
        f"  {kind or 'clean':<13} {wall_s:6.2f}s {overhead:6.2f}x "
        f"{injected:8d} {attempts:8d} {timeouts:8d} {won:3d}/{launched}"
    )


def bench_chaos_grid():
    ds = uug_like(
        seed=3, num_nodes=1200, avg_degree=6, feature_dim=8, num_hubs=3,
        hub_degree=80,
    )
    targets = ds.train_ids[:60]
    flat_config = GraphFlatConfig(
        hops=2, max_neighbors=6, hub_threshold=40, num_reducers=4, seed=0
    )
    infer_config = GraphInferConfig(
        max_neighbors=6, hub_threshold=40, num_reducers=4, seed=0
    )
    model = build_model(
        "gcn", in_dim=8, hidden_dim=8, num_classes=2, num_layers=2, seed=0
    )

    header = (
        f"  {'fault':<13} {'wall':>7} {'ovhd':>7} {'injected':>8} "
        f"{'attempts':>8} {'timeouts':>8} spec-won"
    )
    sections = []
    for pipeline in ("graphflat", "graphinfer"):
        lines = [f"{pipeline} (processes backend, 2 workers, seeded faults):",
                 "", header]
        clean_wall = None
        clean_out = None
        for kind in (None, *FAULT_KINDS):
            plan = (
                FaultPlan(
                    {kind: CHAOS_RATES[kind]}, seed=0, slow_s=SLOW_S,
                    hang_limit_s=30.0,
                )
                if kind is not None
                else None
            )
            start = time.monotonic()
            with _runtime(plan, kind) as runtime:
                if pipeline == "graphflat":
                    result = graph_flat(ds.nodes, ds.edges, targets, flat_config, runtime)
                    out = result.samples
                else:
                    result = graph_infer(model, ds.nodes, ds.edges, infer_config, runtime)
                    out = result.scores
            wall = time.monotonic() - start
            if kind is None:
                clean_wall, clean_out = wall, out
            else:
                assert plan.injected_by_kind[kind] > 0, (pipeline, kind)
                if pipeline == "graphflat":
                    assert out == clean_out, (pipeline, kind)
                else:
                    assert set(out) == set(clean_out)
                    for node_id, scores in clean_out.items():
                        assert np.array_equal(out[node_id], scores), (kind, node_id)
            lines.append(
                _row(result.round_stats, wall, clean_wall, plan, kind)
            )
        lines.append("")
        lines.append("  every chaos row byte-identical to the clean run")
        sections.append("\n".join(lines))

    emit("chaos_grid", "\n\n".join(sections))


if __name__ == "__main__":
    bench_chaos_grid()
