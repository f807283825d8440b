"""Table 5 — inference efficiency on the User-User Graph.

Compares the **Original** inference module (GraphFlat materialises every
node's GraphFeature, then the full model forwards over each batch of them —
recomputing shared neighborhoods per target) against **GraphInfer** (model
segmentation + message passing: every embedding computed exactly once).

Columns mirror the paper: wall time, CPU time (process seconds — the paper's
core*min analogue), and a memory-cost proxy (bytes of materialised
GraphFeature state vs. bytes of propagated embeddings).  The shape to
reproduce: GraphInfer wins total time by a multiple (paper: ~4x), plus large
CPU (~2x) and memory (~4x) savings, and its embedding-computation count is
exactly |V| * K while the Original's grows with neighborhood overlap.

The second table is the backend axis: GraphInfer on ``threads`` and on
``processes`` at 1/2/4 workers, every run's scores byte-identical to the
serial run.  The model slices are a side input like the out-edges: held by
reference in-process, published once into one shared-memory slab where
tasks are pickled.  The quantity the slab removes is the serialized
parameter bytes per task attempt — the payload line compares one pickled
reducer holding the slices inline with one holding the published carrier.
"""

from __future__ import annotations

import pickle
import time

from repro.baselines import OriginalInference
from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.graphflat.sampling import make_sampler
from repro.core.infer import (
    EmbeddingReducer,
    GraphInferConfig,
    ModelSlices,
    graph_infer,
    segment_model,
)
from repro.core.infer.pipeline import _InEmb
from repro.core.propagation import ReceptiveField, Routing
from repro.core.trainer import decode_samples
from repro.mapreduce.partition import Inline, publish
from repro.nn.gnn import GATModel

from .conftest import emit

SAMPLING = dict(sampling="weighted", max_neighbors=10, hub_threshold=200, seed=0)


def bench_table5_inference(benchmark, bench_uug):
    ds = bench_uug
    # 2-layer GAT producing 8-dimensional embeddings, as in the paper's
    # UUG inference experiment.
    model = GATModel(ds.feature_dim, 8, 2, num_layers=2, num_heads=2, seed=0)

    measurements: dict[str, dict] = {}

    def run_original():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        flat = graph_flat(
            ds.nodes, ds.edges, None, GraphFlatConfig(hops=2, **SAMPLING)
        )
        flat_wall = time.perf_counter() - wall0
        flat_cpu = time.process_time() - cpu0
        feature_bytes = sum(len(r) for r in flat.samples)

        samples = decode_samples(flat.samples)
        wall1, cpu1 = time.perf_counter(), time.process_time()
        result = OriginalInference(model, batch_size=64).run(samples)
        fwd_wall = time.perf_counter() - wall1
        fwd_cpu = time.process_time() - cpu1
        measurements["original"] = {
            "flat_wall": flat_wall,
            "flat_cpu": flat_cpu,
            "fwd_wall": fwd_wall,
            "fwd_cpu": fwd_cpu,
            "bytes": feature_bytes,
            "embeddings": result.embedding_computations,
            "scores": result.scores,
        }

    def run_graphinfer():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = graph_infer(
            model, ds.nodes, ds.edges, GraphInferConfig(**SAMPLING)
        )
        measurements["graphinfer"] = {
            "wall": time.perf_counter() - wall0,
            "cpu": time.process_time() - cpu0,
            # propagated state: one embedding per (node, layer) crossing the
            # shuffle — |V| * K * hidden * 4 bytes, a conservative upper bound
            "bytes": len(ds.nodes) * model.num_layers * 16 * 4,
            "embeddings": result.embedding_computations,
            "scores": result.scores,
        }

    def run_backend_grid():
        """GraphInfer backend x worker-count."""
        rows = []
        for backend, workers in (
            ("threads", 2), ("processes", 1), ("processes", 2), ("processes", 4),
        ):
            config = GraphInferConfig(backend=backend, num_workers=workers, **SAMPLING)
            wall0 = time.perf_counter()
            result = graph_infer(model, ds.nodes, ds.edges, config)
            rows.append({
                "backend": backend,
                "workers": workers,
                "wall": time.perf_counter() - wall0,
                "scores": result.scores,
            })
        measurements["backend_grid"] = rows

    def run_both():
        run_original()
        run_graphinfer()
        run_backend_grid()

    benchmark.pedantic(run_both, rounds=1, iterations=1)

    orig = measurements["original"]
    gi = measurements["graphinfer"]
    total_orig_wall = orig["flat_wall"] + orig["fwd_wall"]
    total_orig_cpu = orig["flat_cpu"] + orig["fwd_cpu"]

    lines = [
        f"Inference over uug-like: {len(ds.nodes)} nodes, {len(ds.edges)} edges,",
        "2-layer GAT, 8-dim embeddings, consistent weighted sampling.",
        "",
        f"{'Method':<12}{'Phase':<22}{'Time(s)':>10}{'CPU(s)':>10}"
        f"{'State(MB)':>11}{'EmbComps':>10}",
        "-" * 75,
        f"{'Original':<12}{'GraphFlat':<22}{orig['flat_wall']:>10.2f}"
        f"{orig['flat_cpu']:>10.2f}{orig['bytes'] / 2**20:>11.1f}{'-':>10}",
        f"{'':<12}{'Forward propagation':<22}{orig['fwd_wall']:>10.2f}"
        f"{orig['fwd_cpu']:>10.2f}{'-':>11}{orig['embeddings']:>10}",
        f"{'':<12}{'Total':<22}{total_orig_wall:>10.2f}{total_orig_cpu:>10.2f}"
        f"{orig['bytes'] / 2**20:>11.1f}{orig['embeddings']:>10}",
        f"{'GraphInfer':<12}{'Total':<22}{gi['wall']:>10.2f}{gi['cpu']:>10.2f}"
        f"{gi['bytes'] / 2**20:>11.1f}{gi['embeddings']:>10}",
        "",
        f"speedup (total time):   {total_orig_wall / gi['wall']:.2f}x   (paper: ~4.1x)",
        f"CPU saving:             {100 * (1 - gi['cpu'] / total_orig_cpu):.0f}%"
        "     (paper: ~50%)",
        f"state saving:           {100 * (1 - gi['bytes'] / orig['bytes']):.0f}%"
        "     (paper: ~76% memory)",
        f"embedding computations: {orig['embeddings']} vs {gi['embeddings']}"
        f"  ({orig['embeddings'] / gi['embeddings']:.1f}x repetition removed)",
    ]

    # Per-task slice payload: one pickled first-round reducer holding the
    # slices inline versus holding the published carrier (the slab's whole
    # point is the second number).
    slices = ModelSlices(tuple(segment_model(model)))
    slab, carrier = publish(slices, needs_pickling=True)
    routing = Routing(frozenset(), 8, ReceptiveField(None, 2), _InEmb, Inline(None))
    sampler = make_sampler("weighted", 10, 0)
    inline_bytes, carrier_bytes = (
        len(pickle.dumps(EmbeddingReducer(sampler, 1, 2, routing, model=m)))
        for m in (Inline(slices), carrier)
    )
    slab.close()

    lines += [
        "",
        "GraphInfer backend x workers, scores byte-identical to the serial run "
        "(one pickled reducer: slices inline "
        f"{inline_bytes} B, published carrier {carrier_bytes} B):",
        "",
        f"{'Backend':<12}{'Workers':<10}{'Time(s)':>10}",
        "-" * 32,
    ]
    for row in measurements["backend_grid"]:
        lines.append(f"{row['backend']:<12}{row['workers']:<10}{row['wall']:>10.2f}")

    # sanity: the two modules agree on the scores they produce
    probe = next(iter(gi["scores"]))
    import numpy as np

    assert np.allclose(
        gi["scores"][probe], orig["scores"][probe], rtol=1e-3, atol=1e-4
    ), "GraphInfer and Original disagree — unbiased-inference property violated"
    # and every backend x worker combination is byte-identical to the
    # serial GraphInfer run
    for row in measurements["backend_grid"]:
        assert set(row["scores"]) == set(gi["scores"])
        assert all(
            row["scores"][k].tobytes() == v.tobytes() for k, v in gi["scores"].items()
        ), f"{row['backend']} x{row['workers']} diverged"
    emit("table5_inference", "\n".join(lines))
