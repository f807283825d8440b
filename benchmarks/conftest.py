"""Shared fixtures for the experiment harness.

Datasets and GraphFlat outputs are session-scoped: every benchmark in a run
sees the identical data, and expensive flattening happens once.  Scales are
chosen so the whole suite finishes in minutes on two cores while preserving
each experiment's *shape*: the fixtures below are the scale mapping (node /
edge counts, feature widths, hop and sampling settings per stand-in
dataset), and each benchmark's docstring states the paper figure it
stands in for.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.trainer import decode_samples
from repro.datasets import cora_like, ppi_like, uug_like

RESULTS_DIR = Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Write a paper-style table to benchmarks/results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n[written to {path}]")


@pytest.fixture(scope="session")
def bench_cora():
    """Full-size Cora-like (the paper's smallest dataset runs unscaled)."""
    return cora_like(seed=0)


@pytest.fixture(scope="session")
def bench_ppi():
    """PPI-like at 8% scale: 24 graphs, ~4.5k nodes, ~53k directed edges."""
    return ppi_like(seed=0, scale=0.08)


@pytest.fixture(scope="session")
def bench_uug():
    """UUG-like at laptop scale: 4k nodes, power-law + hubs, 2 classes.

    Weak raw features + heavy-weight cross-class noise edges make the task
    aggregation-bound, which is what gives GAT its Table 3 margin on the
    real UUG (different neighbor types deserve different weights, §4.2.1).
    """
    return uug_like(seed=0, num_nodes=4000, avg_degree=8, feature_dim=64,
                    num_hubs=8, hub_degree=600, feature_scale=0.06,
                    noise_edge_fraction=0.4, homophily=0.92)


def flatten(ds, targets, hops, max_neighbors=15, hub_threshold=10**9, sampling="uniform"):
    config = GraphFlatConfig(
        hops=hops, max_neighbors=max_neighbors, hub_threshold=hub_threshold,
        sampling=sampling, seed=0,
    )
    return decode_samples(graph_flat(ds.nodes, ds.edges, targets, config).samples)


@pytest.fixture(scope="session")
def ppi_flat_by_hops(bench_ppi):
    """PPI train/test GraphFeatures for k = 1, 2, 3 (Table 4 needs each)."""
    ds = bench_ppi
    train_ids = ds.train_ids[:600]
    return {
        hops: flatten(ds, train_ids, hops, max_neighbors=15) for hops in (1, 2, 3)
    }


@pytest.fixture(scope="session")
def uug_flat(bench_uug):
    """UUG train/val GraphFeatures with hub-aware sampling (2-hop)."""
    ds = bench_uug
    kwargs = dict(hops=2, max_neighbors=10, hub_threshold=200, sampling="weighted")
    return {
        "train": flatten(ds, ds.train_ids[:800], **kwargs),
        "val": flatten(ds, ds.val_ids, **kwargs),
        "test": flatten(ds, ds.test_ids[:400], **kwargs),
    }
