"""Table 2 — dataset summary.

Regenerates the paper's dataset statistics table for the three offline
stand-ins, at both benchmark scale and (for reference) the generators'
full-published-scale parameters.  Benchmarked: generation cost.
"""

from __future__ import annotations

from repro.datasets import cora_like

from .conftest import emit


def bench_table2_dataset_summary(benchmark, bench_cora, bench_ppi, bench_uug):
    # benchmark the one dataset we generate at full published size
    benchmark.pedantic(lambda: cora_like(seed=1), rounds=2, iterations=1)

    rows = [("Indices", "Cora-like", "PPI-like", "UUG-like")]
    summaries = [bench_cora.summary(), bench_ppi.summary(), bench_uug.summary()]
    for label, key in [
        ("#Nodes", "nodes"),
        ("#Edges", "edges"),
        ("#Node feature", "feature_dim"),
        ("#Classes", "classes"),
        ("#Train set", "train"),
        ("#Validation set", "val"),
        ("#Test set", "test"),
        ("#Graphs", "graphs"),
    ]:
        rows.append((label,) + tuple(str(s[key]) for s in summaries))
    width = [max(len(r[i]) for r in rows) for i in range(4)]
    table = "\n".join(
        "  ".join(cell.ljust(width[i]) for i, cell in enumerate(row)) for row in rows
    )
    table += (
        "\n\npaper scale: Cora 2708/5429, PPI 56944/818716 (24 graphs),"
        "\nUUG 6.23e9/3.38e11 — UUG-like keeps the hub/power-law/2-class shape"
        "\nat 4k nodes (a stand-in at this scale, not the paper's graph)."
    )
    emit("table2_datasets", table)
