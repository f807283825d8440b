"""Backend matrix for the full pipelines: the ``processes`` backend (and the
partitioned spill shuffle) must be byte-identical to ``serial`` on GraphFlat
— including hub re-indexing — and on GraphInfer, with and without injected
worker failures.  This is the acceptance bar for §3.2's claim that MapReduce
parallelism never changes pipeline output."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.infer import GraphInferConfig, graph_infer
from repro.mapreduce import FaultPlan, LocalRuntime
from repro.nn.gnn import build_model


@pytest.fixture(scope="module")
def hub_graph():
    """~120-node graph with two genuine hubs (in-degree 30 > threshold 8),
    so hub re-indexing is active in every test here."""
    from repro.datasets import uug_like

    return uug_like(
        seed=5, num_nodes=120, avg_degree=4, feature_dim=6, num_hubs=2, hub_degree=30
    )


def flat_config(**overrides):
    base = dict(hops=2, max_neighbors=4, hub_threshold=8, num_reducers=4, seed=0)
    base.update(overrides)
    return GraphFlatConfig(**base)


class TestGraphFlatBackendMatrix:
    def test_processes_byte_identical_with_hub_reindexing(self, hub_graph):
        ds = hub_graph
        targets = ds.train_ids[:30]
        serial = graph_flat(ds.nodes, ds.edges, targets, flat_config())
        assert serial.hub_nodes, "fixture must trigger re-indexing"
        with LocalRuntime(backend="processes", max_workers=2) as runtime:
            procs = graph_flat(ds.nodes, ds.edges, targets, flat_config(), runtime)
        assert procs.hub_nodes == serial.hub_nodes
        assert procs.samples == serial.samples  # encoded wire bytes

    def test_processes_via_config_knobs(self, hub_graph):
        ds = hub_graph
        targets = ds.train_ids[:20]
        serial = graph_flat(ds.nodes, ds.edges, targets, flat_config())
        procs = graph_flat(
            ds.nodes, ds.edges, targets,
            flat_config(backend="processes", num_workers=2),
        )
        assert procs.samples == serial.samples

    def test_fault_injection_under_processes(self, hub_graph):
        ds = hub_graph
        targets = ds.train_ids[:20]
        baseline = graph_flat(ds.nodes, ds.edges, targets, flat_config())
        plan = FaultPlan({"crash": 0.2}, seed=13)
        with LocalRuntime(
            backend="processes", max_workers=2, max_attempts=10,
            fault_plan=plan,
        ) as runtime:
            faulty = graph_flat(ds.nodes, ds.edges, targets, flat_config(), runtime)
        assert plan.injected > 0
        assert faulty.samples == baseline.samples

    def test_spill_shuffle_byte_identical(self, hub_graph, tmp_path):
        ds = hub_graph
        targets = ds.train_ids[:20]
        baseline = graph_flat(ds.nodes, ds.edges, targets, flat_config())
        with LocalRuntime(
            backend="threads", max_workers=3, spill_dir=tmp_path
        ) as runtime:
            spilled = graph_flat(ds.nodes, ds.edges, targets, flat_config(), runtime)
        assert spilled.samples == baseline.samples
        assert not list(tmp_path.rglob("*.bin"))  # cleaned up per job


class TestSpilledShuffleMatrix:
    """The invariant of the binary spill format: GraphFlat/GraphInfer output
    from a spilled shuffle is byte-identical to the in-memory shuffle's,
    across {serial, threads, processes} x {1, 2, 4} workers — the acceptance
    bar for shipping flat records on the hot shuffle path."""

    def test_graphflat_spilled_byte_identical(self, hub_graph, tmp_path):
        ds = hub_graph
        targets = ds.train_ids[:30]
        baseline = graph_flat(ds.nodes, ds.edges, targets, flat_config())
        assert baseline.hub_nodes, "fixture must trigger re-indexing"
        for backend, workers in [("serial", None), ("threads", 2)]:
            with LocalRuntime(
                backend=backend, max_workers=workers, spill_dir=tmp_path / backend,
            ) as runtime:
                result = graph_flat(ds.nodes, ds.edges, targets, flat_config(), runtime)
            assert result.samples == baseline.samples, backend
            assert sum(rs.shuffle_bytes_written for rs in result.round_stats) > 0

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_graphflat_processes_byte_identical(self, hub_graph, workers):
        ds = hub_graph
        targets = ds.train_ids[:30]
        baseline = graph_flat(ds.nodes, ds.edges, targets, flat_config())
        with LocalRuntime(backend="processes", max_workers=workers) as runtime:
            result = graph_flat(ds.nodes, ds.edges, targets, flat_config(), runtime)
        assert result.samples == baseline.samples

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_graphinfer_spilled_identical_scores(self, hub_graph, tmp_path, backend):
        ds = hub_graph
        model = build_model(
            "gcn", in_dim=6, hidden_dim=8, num_classes=2, num_layers=2, seed=0
        )
        config = GraphInferConfig(
            max_neighbors=4, hub_threshold=8, num_reducers=4, seed=0
        )
        serial = graph_infer(model, ds.nodes, ds.edges, config)
        with LocalRuntime(
            backend=backend, max_workers=2, spill_dir=tmp_path
        ) as runtime:
            spilled = graph_infer(model, ds.nodes, ds.edges, config, runtime)
        assert set(spilled.scores) == set(serial.scores)
        for node_id, scores in serial.scores.items():
            assert np.array_equal(spilled.scores[node_id], scores)


class TestTaskBackendMatrix:
    """The byte-identity bar extended across the task zoo: every task's
    GraphFlat output is identical over {serial, threads, processes}, so the
    task plugin layer inherits the full parallelism guarantee rather than
    re-proving it per task."""

    @pytest.fixture(scope="class")
    def edge_graph(self):
        from repro.datasets import labeled_edges_like

        return labeled_edges_like(seed=7, num_nodes=100, num_edges=360, feature_dim=6)

    def task_config(self, task):
        base = dict(hops=2, max_neighbors=6, num_reducers=4, seed=0, task=task)
        if task != "node_classification":
            base["edge_targets"] = 25
        return GraphFlatConfig(**base)

    @pytest.mark.parametrize(
        "task", ["node_classification", "link_prediction", "edge_classification"]
    )
    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_graphflat_byte_identical_per_task(self, edge_graph, tmp_path, task, backend):
        nodes, edges = edge_graph
        targets = None
        if task == "node_classification":
            targets = np.arange(0, 100, 4)
        baseline = graph_flat(nodes, edges, targets, self.task_config(task))
        with LocalRuntime(
            backend=backend, max_workers=2, spill_dir=tmp_path,
        ) as runtime:
            result = graph_flat(
                nodes, edges, targets, self.task_config(task), runtime
            )
        assert result.samples == baseline.samples

    @pytest.mark.parametrize("task", ["link_prediction", "edge_classification"])
    def test_graphflat_fault_injection_per_edge_task(self, edge_graph, task):
        nodes, edges = edge_graph
        baseline = graph_flat(nodes, edges, config=self.task_config(task))
        plan = FaultPlan({"crash": 0.2}, seed=13)
        with LocalRuntime(
            backend="processes", max_workers=2, max_attempts=10,
            fault_plan=plan,
        ) as runtime:
            faulty = graph_flat(nodes, edges, config=self.task_config(task), runtime=runtime)
        assert plan.injected > 0
        assert faulty.samples == baseline.samples


class TestGraphInferBackendMatrix:
    def test_processes_identical_scores(self, hub_graph):
        ds = hub_graph
        model = build_model(
            "gcn", in_dim=6, hidden_dim=8, num_classes=2, num_layers=2, seed=0
        )
        config = GraphInferConfig(
            max_neighbors=4, hub_threshold=8, num_reducers=4, seed=0
        )
        serial = graph_infer(model, ds.nodes, ds.edges, config)
        with LocalRuntime(backend="processes", max_workers=2) as runtime:
            procs = graph_infer(model, ds.nodes, ds.edges, config, runtime)
        assert set(procs.scores) == set(serial.scores)
        for node_id, scores in serial.scores.items():
            assert np.array_equal(procs.scores[node_id], scores)
