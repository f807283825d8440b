"""GraphInfer: segmentation contract, equivalence with batched forward
("unbiased inference"), sampling consistency, hub handling, DFS output,
fault tolerance, the no-repetition cost claim, and the model slices as a
side input (one shared-memory slab under the pickling backend, held by
reference otherwise, across backends)."""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.baselines import OriginalInference
from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.infer import (
    GraphInferConfig,
    ModelSlices,
    graph_infer,
    segment_model,
)
from repro.mapreduce import DistFileSystem, FaultPlan, LocalRuntime
from repro.mapreduce.partition import publish
from repro.proto.codec import decode_prediction
from repro.mapreduce.job import JobFailedError
from repro.nn import Tensor, no_grad
from repro.nn.gnn import BatchInputs, EdgeBlock, GATModel, GCNModel, GraphSAGEModel

from .oracle import oracle_infer_node


@pytest.fixture(scope="module")
def mini_cora():
    from repro.datasets import cora_like

    return cora_like(seed=7, num_nodes=250, num_edges=700)


@pytest.fixture(scope="module")
def hub_graph():
    """~120-node graph with two genuine hubs so re-indexing is active."""
    from repro.datasets import uug_like

    return uug_like(
        seed=5, num_nodes=120, avg_degree=4, feature_dim=6, num_hubs=2, hub_degree=30
    )


def full_forward(model, ds):
    """Reference: the whole graph as one batch."""
    graph = ds.to_graph()
    in_ptr, in_src, in_eid = graph.in_csr
    dst = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), np.diff(in_ptr))
    block = EdgeBlock(in_src, dst, graph.num_nodes, graph.edges.weights[in_eid])
    batch = BatchInputs(
        graph.node_features, np.arange(graph.num_nodes), [block] * model.num_layers
    )
    model.eval()
    with no_grad():
        return model(batch).data


class TestSegmentation:
    def test_k_plus_one_slices(self):
        model = GCNModel(6, 8, 3, num_layers=2, seed=0)
        slices = segment_model(model)
        assert len(slices) == 3
        assert [s.kind for s in slices] == ["gcn", "gcn", "dense_head"]
        assert slices[-1].is_prediction

    def test_slices_partition_all_parameters(self):
        model = GATModel(6, 8, 3, num_layers=2, seed=0)
        slices = segment_model(model)
        # every model parameter (minus dropout, which has none) is in exactly
        # one slice
        assert sum(s.num_parameters() for s in slices) == model.num_parameters()

    def test_materialize_is_runnable(self, rng):
        model = GCNModel(6, 8, 3, num_layers=1, seed=0)
        layer = segment_model(model)[0].materialize()
        rows = rng.standard_normal((4, 6)).astype(np.float32)  # node 0, then 3 neighbors
        block = EdgeBlock(np.array([1, 2, 3]), np.zeros(3, dtype=np.int64), 4)
        with no_grad():
            out = layer(Tensor(rows), block).data[0]
        assert out.shape == (8,)
        want = oracle_infer_node(layer, rows[0], rows[1:], np.ones(3, dtype=np.float32))
        np.testing.assert_allclose(out, want, rtol=1e-4, atol=1e-5)


class TestUnbiasedInference:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda f, c: GCNModel(f, 8, c, num_layers=1, seed=1),
            lambda f, c: GCNModel(f, 8, c, num_layers=2, seed=1),
            lambda f, c: GCNModel(f, 8, c, num_layers=3, seed=1),
            lambda f, c: GraphSAGEModel(f, 8, c, num_layers=2, seed=1),
            lambda f, c: GATModel(f, 8, c, num_layers=2, num_heads=2, seed=1),
        ],
    )
    def test_matches_full_graph_forward(self, mini_cora, factory):
        ds = mini_cora
        model = factory(ds.feature_dim, ds.num_classes)
        ref = full_forward(model, ds)
        result = graph_infer(model, ds.nodes, ds.edges)
        assert result.num_nodes == len(ds.nodes)
        graph = ds.to_graph()
        for node_id, scores in result.scores.items():
            row = graph.index_of(node_id)[0]
            np.testing.assert_allclose(scores, ref[row], rtol=1e-3, atol=1e-4)

    def test_matches_original_inference_module(self, mini_cora):
        """Same scores as the per-GraphFeature baseline, far less work."""
        ds = mini_cora
        model = GCNModel(ds.feature_dim, 8, ds.num_classes, num_layers=2, seed=2)
        flat = graph_flat(
            ds.nodes, ds.edges, None,
            GraphFlatConfig(hops=2, max_neighbors=10**9, hub_threshold=10**9),
        )
        original = OriginalInference(model).run(flat.samples)
        infer = graph_infer(model, ds.nodes, ds.edges)
        for tid, scores in original.scores.items():
            np.testing.assert_allclose(infer.scores[tid], scores, rtol=1e-3, atol=1e-4)
        # the Table 5 mechanism: GraphInfer never recomputes an embedding
        assert infer.embedding_computations < original.embedding_computations


class TestSamplingConsistency:
    @pytest.mark.parametrize("strategy", ["topk", "uniform", "weighted"])
    def test_same_sampler_config_as_graphflat_trained_model(self, mini_uug, strategy):
        """§3.4: inference uses the identical sampling/indexing as GraphFlat
        so scores equal a per-GraphFeature forward over *sampled* features.
        Holds for stochastic strategies too because draws are keyed
        (seed, node, slice) — never by round (see sampling module)."""
        ds = mini_uug
        model = GCNModel(ds.feature_dim, 8, 2, num_layers=2, seed=0)
        sample_cfg = dict(sampling=strategy, max_neighbors=5)
        flat = graph_flat(
            ds.nodes, ds.edges, None,
            GraphFlatConfig(hops=2, hub_threshold=60, seed=1, **sample_cfg),
        )
        original = OriginalInference(model).run(flat.samples)
        infer = graph_infer(
            model, ds.nodes, ds.edges,
            GraphInferConfig(hub_threshold=60, seed=1, **sample_cfg),
        )
        mismatches = sum(
            not np.allclose(infer.scores[t], s, rtol=1e-3, atol=1e-4)
            for t, s in original.scores.items()
        )
        assert mismatches == 0


class TestHubsAndFaults:
    def test_reindexed_matches_plain(self, mini_uug):
        ds = mini_uug
        model = GCNModel(ds.feature_dim, 6, 2, num_layers=2, seed=0)
        plain = graph_infer(model, ds.nodes, ds.edges)
        hubbed = graph_infer(
            model, ds.nodes, ds.edges, GraphInferConfig(hub_threshold=50)
        )
        for node_id, scores in plain.scores.items():
            np.testing.assert_allclose(
                hubbed.scores[node_id], scores, rtol=1e-3, atol=1e-4
            )

    def test_fault_tolerant_inference(self, mini_cora):
        ds = mini_cora
        model = GCNModel(ds.feature_dim, 6, ds.num_classes, num_layers=2, seed=0)
        baseline = graph_infer(model, ds.nodes, ds.edges)
        runtime = LocalRuntime(
            max_attempts=10, fault_plan=FaultPlan({"crash": 0.2}, seed=5)
        )
        out = graph_infer(model, ds.nodes, ds.edges, runtime=runtime)
        assert runtime.fault_plan.injected > 0
        for node_id, scores in baseline.scores.items():
            np.testing.assert_allclose(out.scores[node_id], scores, rtol=1e-4)


class TestTargetedInference:
    """§3.4: 'the pruning strategy ... also works in this pipeline in the
    case the inference task is performed over a part of the entire graph'."""

    def test_subset_scores_equal_full_run(self, mini_cora):
        ds = mini_cora
        model = GCNModel(ds.feature_dim, 8, ds.num_classes, num_layers=2, seed=0)
        full = graph_infer(model, ds.nodes, ds.edges)
        targets = ds.test_ids[:20]
        subset = graph_infer(model, ds.nodes, ds.edges, targets=targets)
        assert set(subset.scores) == {int(t) for t in targets}
        for t in targets:
            np.testing.assert_allclose(
                subset.scores[int(t)], full.scores[int(t)], rtol=1e-5
            )

    def test_pruning_reduces_work(self, mini_cora):
        ds = mini_cora
        model = GCNModel(ds.feature_dim, 8, ds.num_classes, num_layers=2, seed=0)
        full = graph_infer(model, ds.nodes, ds.edges)
        subset = graph_infer(model, ds.nodes, ds.edges, targets=ds.test_ids[:5])
        assert subset.embedding_computations < full.embedding_computations
        # shuffled volume shrinks too (fewer propagated embeddings)
        full_shuffled = sum(s.shuffled_records for s in full.round_stats)
        subset_shuffled = sum(s.shuffled_records for s in subset.round_stats)
        assert subset_shuffled < full_shuffled

    def test_works_with_hubs_and_sampling(self, mini_uug):
        ds = mini_uug
        model = GCNModel(ds.feature_dim, 6, 2, num_layers=2, seed=0)
        cfg = GraphInferConfig(
            sampling="topk", max_neighbors=5, hub_threshold=60, seed=1
        )
        full = graph_infer(model, ds.nodes, ds.edges, cfg)
        targets = ds.val_ids[:10]
        subset = graph_infer(model, ds.nodes, ds.edges, cfg, targets=targets)
        for t in targets:
            np.testing.assert_allclose(
                subset.scores[int(t)], full.scores[int(t)], rtol=1e-5
            )

    def test_missing_target_rejected(self, mini_cora):
        ds = mini_cora
        model = GCNModel(ds.feature_dim, 8, ds.num_classes, num_layers=1, seed=0)
        with pytest.raises(KeyError):
            graph_infer(model, ds.nodes, ds.edges, targets=[10**15])


class TestOutput:
    def test_writes_predictions_to_dfs(self, mini_cora, tmp_path):
        ds = mini_cora
        model = GCNModel(ds.feature_dim, 6, ds.num_classes, num_layers=1, seed=0)
        fs = DistFileSystem(tmp_path)
        result = graph_infer(
            model, ds.nodes, ds.edges,
            GraphInferConfig(num_reducers=3), fs=fs, dataset_name="scores/all",
        )
        assert result.dataset == "scores/all"
        assert fs.num_shards("scores/all") == 3
        decoded = dict(
            decode_prediction(r) for r in fs.read_dataset("scores/all")
        )
        assert len(decoded) == len(ds.nodes)
        ref = graph_infer(model, ds.nodes, ds.edges).scores
        probe = list(decoded)[0]
        np.testing.assert_allclose(decoded[probe], ref[probe], rtol=1e-6)


    def test_candidate_edges_are_scored_a_batch_per_call(self, tmp_path, monkeypatch):
        """Link prediction's scoring round calls ``infer_scores`` at most
        once per batch it emits — never once per candidate edge — and on a
        spilled run too."""
        from repro.core.infer.pipeline import EdgeScoreReducer
        from repro.datasets import labeled_edges_like
        from repro.tasks import make_task

        nodes, edges = labeled_edges_like(seed=7, num_nodes=100, num_edges=360, feature_dim=6)
        model = GraphSAGEModel(6, 8, 2, num_layers=2, seed=0)
        task = type(make_task("link_prediction"))
        calls, emitted = [0], [0]
        infer_scores, reduce_segments = task.infer_scores, EdgeScoreReducer.reduce_segments

        def counted_scores(self, *args):
            calls[0] += 1
            return infer_scores(self, *args)

        def counted_batches(self, segments):
            for batch in reduce_segments(self, segments):
                emitted[0] += 1
                yield batch

        monkeypatch.setattr(task, "infer_scores", counted_scores)
        monkeypatch.setattr(EdgeScoreReducer, "reduce_segments", counted_batches)
        for spill_dir in (None, tmp_path):
            calls[0] = emitted[0] = 0
            config = GraphInferConfig(task="link_prediction", num_reducers=4, spill_dir=spill_dir)
            result = graph_infer(model, nodes, edges, config)
            assert result.num_nodes == len(edges.coalesce())
            assert 0 < calls[0] <= emitted[0] and 10 * emitted[0] < result.num_nodes


def _ref_distance_to_targets(edges, target_set, max_hops):
    """The dict-loop BFS, kept as the reference the numpy-frontier version
    (shared by GraphFlat and GraphInfer) must reproduce exactly."""
    in_neighbors = {}
    for s, d in zip(edges.src.tolist(), edges.dst.tolist()):
        in_neighbors.setdefault(d, []).append(s)
    dist = {t: 0 for t in target_set}
    frontier = list(target_set)
    for hop in range(1, max_hops + 1):
        nxt = []
        for v in frontier:
            for u in in_neighbors.get(v, ()):
                if u not in dist:
                    dist[u] = hop
                    nxt.append(u)
        if not nxt:
            break
        frontier = nxt
    return dist


class TestVectorizedGraphPrep:
    def test_distance_matches_dict_loop_reference(self, hub_graph):
        from repro.core.propagation import distance_to_targets

        edges = hub_graph.edges.coalesce()
        no_in_edges = set(hub_graph.nodes.ids.tolist()) - set(edges.dst.tolist())
        for targets in (
            {int(t) for t in hub_graph.val_ids[:15]},
            {int(hub_graph.val_ids[0])},
            set(sorted(no_in_edges)[:3]),  # frontier dies at hop 1
            {10**12},  # not in the graph at all
        ):
            for hops in (1, 2, 3, 50):
                assert distance_to_targets(edges, targets, hops) == \
                    _ref_distance_to_targets(edges, targets, hops)

    def test_hub_set_matches_dict_loop_reference(self, hub_graph):
        from repro.core.propagation import detect_hubs, in_degrees

        edges = hub_graph.edges.coalesce()
        in_deg = {}
        for dst in edges.dst:
            in_deg[int(dst)] = in_deg.get(int(dst), 0) + 1
        assert dict(in_degrees(edges)) == in_deg
        for threshold in (8, 20, 10**9):
            expected = frozenset(v for v, d in in_deg.items() if d > threshold)
            assert detect_hubs(in_degrees(edges), threshold) == expected


def _shm_entries():
    return frozenset(os.listdir("/dev/shm"))


def _infer_config(**overrides):
    base = dict(max_neighbors=4, hub_threshold=8, num_reducers=4, seed=0)
    base.update(overrides)
    return GraphInferConfig(**base)


class TestSliceSideInput:
    """The model slices are a side input like the out-edges: one slab for
    the run's K+1 slices when the runtime pickles its tasks, held by
    reference otherwise.  Scores must be byte-identical across backends —
    with hub re-indexing active — a pickled reducer must carry no parameter
    arrays, and no run may leak a slab."""

    @pytest.fixture(scope="class")
    def scored(self, hub_graph):
        ds = hub_graph
        model = GCNModel(6, 8, 2, num_layers=2, seed=0)
        serial = graph_infer(model, ds.nodes, ds.edges, _infer_config())
        return ds, model, serial.scores

    @pytest.mark.parametrize(
        "backend,workers", [("serial", None), ("threads", 2), ("processes", 2)]
    )
    def test_matrix_byte_identical(self, scored, monkeypatch, backend, workers):
        from repro.core.infer import pipeline

        ds, model, baseline = scored
        published = []

        def counting_publish(value, needs_pickling):
            slab, carrier = publish(value, needs_pickling)
            if slab is not None:
                published.append(len(value.slices))
            return slab, carrier

        monkeypatch.setattr(pipeline, "publish", counting_publish)
        with LocalRuntime(backend=backend, max_workers=workers) as runtime:
            result = graph_infer(model, ds.nodes, ds.edges, _infer_config(), runtime)
        # one slab for the whole run (all K+1 slices), only where tasks pickle
        assert published == ([3] if backend == "processes" else [])
        assert set(result.scores) == set(baseline)
        for node_id, scores in baseline.items():
            assert np.array_equal(result.scores[node_id], scores)

    def test_targeted_inference_under_processes(self, scored):
        ds, model, baseline = scored
        targets = ds.val_ids[:10]
        with LocalRuntime(backend="processes", max_workers=2) as runtime:
            subset = graph_infer(
                model, ds.nodes, ds.edges, _infer_config(), runtime, targets=targets,
            )
        assert set(subset.scores) == {int(t) for t in targets}
        for t in targets:
            np.testing.assert_allclose(
                subset.scores[int(t)], baseline[int(t)], rtol=1e-5
            )

    def test_published_reducers_carry_no_parameter_arrays(self):
        """A pickled reducer over the published carrier is a few hundred
        bytes no matter the model size — the parameters live in the slab,
        not the pickle."""
        from repro.core.infer.pipeline import EmbeddingReducer, _InEmb
        from repro.core.graphflat.sampling import make_sampler
        from repro.core.propagation import OutEdges, ReceptiveField, Routing
        from repro.graph.tables import EdgeTable
        from repro.mapreduce.partition import Inline, SlabLocator, _SIDE_INPUTS

        model = GCNModel(64, 256, 8, num_layers=2, seed=0)
        slices = ModelSlices(tuple(segment_model(model)))
        param_bytes = 4 * slices[0].num_parameters()
        slab, carrier = publish(slices, needs_pickling=True)
        try:
            sampler = make_sampler("uniform", 10, 0)
            no_edges = EdgeTable(np.zeros(0, np.int64), np.zeros(0, np.int64))
            routing = Routing(
                frozenset(), 8, ReceptiveField(None, 2), _InEmb, Inline(OutEdges.of(no_edges))
            )

            def reducer(model):
                return EmbeddingReducer(sampler, 1, 2, routing, model=model)

            fat = pickle.dumps(reducer(Inline(slices)))
            thin = pickle.dumps(reducer(carrier))
            assert len(fat) > param_bytes  # inline slices ship the arrays
            assert len(thin) < param_bytes / 10  # the locator ships none
            clone = pickle.loads(thin)
            assert type(clone.model) is SlabLocator
            _SIDE_INPUTS.pop((carrier.name, carrier.nbytes), None)  # a real attach
            layer = clone.layer
            for name, value in slices[0].state.items():
                np.testing.assert_array_equal(
                    dict(layer.named_parameters())[name].data, value
                )
        finally:
            slab.close()

    def test_fresh_worker_can_decode_what_a_reindex_round_receives(self, tmp_path):
        """The re-index reducer is the engine's, the embedding record is
        GraphInfer's: a worker whose first task is a re-index round (a pool
        rebuilt after a task-timeout kill) must still learn the record's
        wire form from unpickling the reducer alone."""
        from repro.core.graphflat.sampling import make_sampler
        from repro.core.infer.pipeline import _InEmb
        from repro.core.propagation import PartialReducer
        from repro.proto.framing import encode_value

        reducer = PartialReducer(make_sampler("uniform", 3, 0), _InEmb)
        (tmp_path / "reducer.pkl").write_bytes(pickle.dumps(reducer))
        record = ("in", _InEmb(1, 0.5, None, np.arange(3, dtype=np.float32)))
        (tmp_path / "record.bin").write_bytes(encode_value(record))
        code = (
            "import pickle, sys; from pathlib import Path\n"
            "from repro.proto.framing import decode_value\n"
            "d = Path(sys.argv[1])\n"
            "pickle.loads((d / 'reducer.pkl').read_bytes())\n"
            "(tag, emb), _ = decode_value((d / 'record.bin').read_bytes())\n"
            "assert tag == 'in' and emb.h.tolist() == [0.0, 1.0, 2.0]\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
    def test_slabs_unlinked_after_run(self, scored):
        ds, model, baseline = scored
        before = _shm_entries()
        with LocalRuntime(backend="processes", max_workers=2) as runtime:
            result = graph_infer(model, ds.nodes, ds.edges, _infer_config(), runtime)
        assert set(result.scores) == set(baseline)
        assert _shm_entries() - before == frozenset()

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
    def test_slabs_unlinked_despite_worker_crashes(self, scored):
        """Mid-round task crashes: retries re-attach the same slab, output
        is unchanged, and the slab is still unlinked at the end."""
        ds, model, baseline = scored
        before = _shm_entries()
        plan = FaultPlan({"crash": 0.2}, seed=5)
        with LocalRuntime(
            backend="processes", max_workers=2, max_attempts=10,
            fault_plan=plan,
        ) as runtime:
            result = graph_infer(model, ds.nodes, ds.edges, _infer_config(), runtime)
        assert plan.injected > 0
        for node_id, scores in baseline.items():
            assert np.array_equal(result.scores[node_id], scores)
        assert _shm_entries() - before == frozenset()

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
    def test_slabs_unlinked_when_job_fails(self, scored):
        """Even a run that dies mid-round (all attempts exhausted) must not
        leak its slab — the unlink lives in the pipeline's finally."""
        ds, model, _ = scored
        before = _shm_entries()
        with LocalRuntime(
            backend="processes", max_workers=2, max_attempts=1,
            fault_plan=FaultPlan({"crash": 1.0}, seed=3),
        ) as runtime:
            with pytest.raises(JobFailedError):
                graph_infer(model, ds.nodes, ds.edges, _infer_config(), runtime)
        assert _shm_entries() - before == frozenset()
