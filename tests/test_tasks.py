"""The task plugin layer (``repro.tasks``) end to end.

Covers the registry contract, seeded negative-edge sampling, edge-target
extraction, the GraphFlat -> GraphTrainer -> GraphInfer flow for link
prediction and edge classification (including byte-identity across
MapReduce backends and loss-trajectory identity across prefetch
backends), typed-graph round trips through every serialization layer
(AGLF wire codec, AGLC columnar shards, TSV tables), the recorded task
metadata surfaced by ``repro describe``, and the two new example scripts
as subprocess smoke tests.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.graphflat.sampling import sample_negative_edges
from repro.core.infer import GraphInferConfig, graph_infer
from repro.core.trainer import GraphTrainer, TrainerConfig, open_sample_source
from repro.datasets import (
    labeled_edges_like,
    read_edge_table,
    read_node_table,
    typed_like,
    write_edge_table,
    write_node_table,
)
from repro.graph.subgraph import GraphFeature
from repro.graph.tables import EdgeTable, NodeTable
from repro.mapreduce import DistFileSystem, LocalRuntime
from repro.nn import no_grad
from repro.nn.gnn import GraphSAGEModel
from repro.nn.gnn.block import BatchInputs, EdgeBlock
from repro.proto import decode_graph_feature, encode_graph_feature
from repro.proto.columnar import ColumnarShard, write_sample_shard
from repro.tasks import (
    EDGE_TASKS,
    EdgeTargets,
    TASK_REGISTRY,
    Task,
    make_task,
    register_task,
)

from .helpers import dataset_digest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def lp_graph():
    """Planted-community graph with per-edge labels: usable for both link
    prediction (labels ignored) and edge classification."""
    return labeled_edges_like(seed=7, num_nodes=100, num_edges=360, feature_dim=6)


@pytest.fixture(scope="module")
def typed_graph():
    return typed_like(seed=3, num_users=60, num_items=40, num_edges=260, feature_dim=6)


def flat_config(task, **overrides):
    base = dict(
        hops=2, max_neighbors=6, num_reducers=4, seed=0,
        task=task, edge_targets=30,
    )
    base.update(overrides)
    return GraphFlatConfig(**base)


def full_graph_embeddings(model, nodes, edges):
    """Reference: embed every node with the whole graph as one batch
    (contiguous ids, so node id == row index)."""
    co = edges.coalesce()
    order = np.argsort(co.dst, kind="stable")
    block = EdgeBlock(co.src[order], co.dst[order], len(nodes), co.weights[order])
    batch = BatchInputs(
        nodes.features, np.arange(len(nodes)), [block] * model.num_layers
    )
    model.eval()
    with no_grad():
        return model.embed(batch).data


# -------------------------------------------------------------------- registry


class TestRegistry:
    def test_builtins_registered(self):
        assert set(EDGE_TASKS) <= set(TASK_REGISTRY)
        assert "node_classification" in TASK_REGISTRY
        assert not make_task("node_classification").edge_level
        for name in EDGE_TASKS:
            assert make_task(name).edge_level
            assert make_task(name).name == name

    def test_unknown_task_rejected_early(self):
        with pytest.raises(KeyError, match="unknown task"):
            make_task("motif_counting")
        with pytest.raises(KeyError):
            GraphFlatConfig(task="motif_counting")
        with pytest.raises(KeyError):
            GraphInferConfig(task="motif_counting")

    def test_reregister_same_type_is_idempotent(self):
        task = TASK_REGISTRY["link_prediction"]
        assert register_task(type(task)()) is not None
        assert make_task("link_prediction").name == "link_prediction"

    def test_name_conflict_rejected(self):
        class Impostor(Task):
            name = "link_prediction"

        with pytest.raises(ValueError, match="already registered"):
            register_task(Impostor())

    def test_third_party_task_registers_and_unknown_after_removal(self):
        class Custom(Task):
            name = "custom_task_for_test"

        try:
            register_task(Custom())
            assert make_task("custom_task_for_test").name == "custom_task_for_test"
        finally:
            TASK_REGISTRY.pop("custom_task_for_test")
        with pytest.raises(KeyError):
            make_task("custom_task_for_test")


class TestEdgeTargets:
    def test_validation(self):
        with pytest.raises(ValueError, match="aligned"):
            EdgeTargets(np.arange(3), np.arange(4), np.zeros(3))
        with pytest.raises(ValueError, match="labels"):
            EdgeTargets(np.arange(3), np.arange(3) + 1, np.zeros(2))

    def test_endpoint_ids_sorted_unique(self):
        t = EdgeTargets([5, 1, 5], [2, 2, 9], [1, 0, 1])
        assert t.endpoint_ids.tolist() == [1, 2, 5, 9]
        assert len(t) == 3


# ---------------------------------------------------------- negative sampling


class TestNegativeSampling:
    def test_seeded_and_deterministic(self):
        pos_src = np.array([0, 1, 2, 3])
        pos_dst = np.array([1, 2, 3, 0])
        ids = np.arange(20)
        a = sample_negative_edges(pos_src, pos_dst, ids, 8, seed=5)
        b = sample_negative_edges(pos_src, pos_dst, ids, 8, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = sample_negative_edges(pos_src, pos_dst, ids, 8, seed=6)
        assert not (np.array_equal(a[0], c[0]) and np.array_equal(a[1], c[1]))

    def test_negatives_avoid_positives_loops_and_repeats(self):
        pos_src = np.array([0, 1, 2, 3, 4])
        pos_dst = np.array([1, 2, 3, 4, 0])
        ids = np.arange(12)
        neg_src, neg_dst = sample_negative_edges(pos_src, pos_dst, ids, 10, seed=0)
        pos = set(zip(pos_src.tolist(), pos_dst.tolist()))
        drawn = list(zip(neg_src.tolist(), neg_dst.tolist()))
        assert len(set(drawn)) == len(drawn)  # no repeated negative
        for s, d in drawn:
            assert s != d
            assert (s, d) not in pos

    def test_forbid_set_respected(self):
        pos_src = np.array([0, 0, 0])
        pos_dst = np.array([1, 2, 3])
        ids = np.arange(6)
        # forbid everything except (0, 5): the only legal draw
        forbid_src = np.array([0, 0, 0, 0])
        forbid_dst = np.array([1, 2, 3, 4])
        neg_src, neg_dst = sample_negative_edges(
            pos_src, pos_dst, ids, 1, seed=0,
            forbid_src=forbid_src, forbid_dst=forbid_dst,
        )
        assert (int(neg_src[0]), int(neg_dst[0])) == (0, 5)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least one positive"):
            sample_negative_edges(np.array([]), np.array([]), np.arange(5), 1, seed=0)
        with pytest.raises(ValueError, match="two candidate"):
            sample_negative_edges(np.array([0]), np.array([1]), np.array([0]), 1, seed=0)

    def test_dense_graph_exhausts_budget(self):
        # complete digraph on 3 nodes: no negative exists
        src, dst = zip(*[(i, j) for i in range(3) for j in range(3) if i != j])
        with pytest.raises(RuntimeError, match="budget exhausted"):
            sample_negative_edges(
                np.array(src), np.array(dst), np.arange(3), 4, seed=0
            )


class TestTargetExtraction:
    def test_link_prediction_balanced_and_seeded(self, lp_graph):
        nodes, edges = lp_graph
        task = make_task("link_prediction")
        t1 = task.build_edge_targets(nodes, edges, seed=3, max_targets=25)
        t2 = task.build_edge_targets(nodes, edges, seed=3, max_targets=25)
        assert np.array_equal(t1.src, t2.src) and np.array_equal(t1.dst, t2.dst)
        assert len(t1) == 50  # 25 positives + 25 negatives at ratio 1
        assert t1.labels[:25].tolist() == [1] * 25
        assert t1.labels[25:].tolist() == [0] * 25

    def test_link_prediction_negative_ratio(self, lp_graph):
        nodes, edges = lp_graph
        t = make_task("link_prediction").build_edge_targets(
            nodes, edges, seed=0, max_targets=10, negative_ratio=3
        )
        assert len(t) == 40
        assert int(t.labels.sum()) == 10

    def test_edge_classification_uses_table_labels(self, lp_graph):
        nodes, edges = lp_graph
        t = make_task("edge_classification").build_edge_targets(
            nodes, edges, seed=0, max_targets=40
        )
        assert len(t) == 40
        lookup = {
            (int(s), int(d)): int(l)
            for s, d, l in zip(edges.src, edges.dst, edges.labels)
        }
        for s, d, l in zip(t.src, t.dst, t.labels):
            assert lookup[(int(s), int(d))] == int(l)

    def test_edge_classification_requires_labels(self, lp_graph):
        nodes, edges = lp_graph
        unlabeled = EdgeTable(edges.src, edges.dst, weights=edges.weights)
        with pytest.raises(ValueError, match="labeled edge table"):
            make_task("edge_classification").build_edge_targets(nodes, unlabeled)

    def test_node_task_has_no_edge_targets(self, lp_graph):
        nodes, edges = lp_graph
        with pytest.raises(NotImplementedError):
            make_task("node_classification").build_edge_targets(nodes, edges)


# ------------------------------------------------------------------- GraphFlat


class TestGraphFlatEdgeTasks:
    @pytest.mark.parametrize("task", EDGE_TASKS)
    def test_end_to_end_sample_shape(self, lp_graph, tmp_path, task):
        nodes, edges = lp_graph
        fs = DistFileSystem(tmp_path / "dfs")
        result = graph_flat(
            nodes, edges, config=flat_config(task), fs=fs, dataset_name="train"
        )
        expected = 60 if task == "link_prediction" else 30
        assert result.num_targets == expected
        assert result.task == task
        assert fs.task("train") == task
        source = open_sample_source(fs, "train")
        assert len(source) == expected
        task_obj = make_task(task)
        targets = task_obj.build_edge_targets(
            nodes, edges, seed=0, max_targets=30, negative_ratio=1
        )
        row_of = {int(sid): row for row, sid in enumerate(source.ids())}
        for i in range(0, expected, 7):
            sample = source.sample(row_of[i])
            gf = sample.graph_feature
            # ordered [src_root, dst_root] pair, both inside the subgraph
            assert gf.target_ids.tolist() == [targets.src[i], targets.dst[i]]
            assert int(sample.label) == int(targets.labels[i])
            present = set(gf.node_ids.tolist())
            assert {int(targets.src[i]), int(targets.dst[i])} <= present

    def test_explicit_targets_rejected_for_edge_tasks(self, lp_graph):
        nodes, edges = lp_graph
        with pytest.raises(ValueError, match="derives its targets"):
            graph_flat(
                nodes, edges, np.array([1, 2]),
                flat_config("link_prediction"),
            )

    @pytest.mark.parametrize("task", EDGE_TASKS)
    def test_rerun_byte_identical(self, lp_graph, task):
        nodes, edges = lp_graph
        a = graph_flat(nodes, edges, config=flat_config(task))
        b = graph_flat(nodes, edges, config=flat_config(task))
        assert a.samples == b.samples

    @pytest.mark.parametrize("task", EDGE_TASKS)
    def test_dfs_bytes_independent_of_worker_count(self, lp_graph, tmp_path, task):
        """threads x 2 vs threads x 4 with ``num_reducers`` pinned: what the
        reducers wrote to the DFS is the same record stream, byte for byte.
        (With a DFS ``result.samples`` is ``None`` on both sides — comparing
        that, as ``benchmarks/bench_tasks.py`` did, compares nothing.)"""
        nodes, edges = lp_graph
        digests = []
        for workers in (2, 4):
            fs = DistFileSystem(tmp_path / f"dfs-{workers}")
            with LocalRuntime(
                backend="threads", max_workers=workers, shuffle_codec="binary"
            ) as runtime:
                result = graph_flat(
                    nodes, edges, config=flat_config(task), runtime=runtime,
                    fs=fs, dataset_name="train",
                )
            assert result.samples is None
            digests.append(dataset_digest(fs, "train"))
        assert digests[0] == digests[1]
        assert digests[0][1] == result.num_targets > 0

    def test_node_classification_path_ignores_edge_knobs(self, lp_graph):
        """The default task with no edge knobs still takes the classic
        node-target path (labels live on nodes in cora_like; here we just
        assert the config rejects nothing and edge knobs need edge tasks)."""
        cfg = flat_config("node_classification")
        assert cfg.edge_targets == 30  # inert for node tasks
        with pytest.raises(ValueError):
            GraphFlatConfig(task="link_prediction", edge_targets=0)
        with pytest.raises(ValueError):
            GraphFlatConfig(task="link_prediction", negative_ratio=0)


# --------------------------------------------------------------------- trainer


class TestTrainerEdgeTasks:
    def _train(self, fs, name, task, backend="serial", epochs=3):
        source = open_sample_source(fs, name)
        model = GraphSAGEModel(6, 8, 2, num_layers=2, seed=0)
        trainer = GraphTrainer(
            model,
            TrainerConfig(
                task=task, epochs=epochs, batch_size=16, seed=0,
                prefetch_backend=backend, prefetch_workers=2,
            ),
        )
        history = trainer.fit(source, val_samples=source)
        return trainer, source, history

    @pytest.fixture(scope="class")
    def lp_dataset(self, lp_graph, tmp_path_factory):
        nodes, edges = lp_graph
        fs = DistFileSystem(tmp_path_factory.mktemp("lp_ds"))
        graph_flat(
            nodes, edges, config=flat_config("link_prediction"),
            fs=fs, dataset_name="train",
        )
        return fs

    def test_lp_default_metric_is_auc(self, lp_dataset):
        trainer, source, history = self._train(lp_dataset, "train", "link_prediction")
        auc = trainer.evaluate(source)
        assert 0.0 <= auc <= 1.0
        assert history[-1]["val_metric"] == auc

    def test_lp_hits_at_k_metric(self, lp_dataset):
        trainer, source, _ = self._train(lp_dataset, "train", "link_prediction")
        hits = trainer.evaluate(source, metric="hits@10")
        assert 0.0 <= hits <= 10 / 30  # 30 positives: hits@10 caps at 1/3

    def test_loss_trajectory_identical_across_prefetch_backends(self, lp_dataset):
        _, _, serial = self._train(lp_dataset, "train", "link_prediction")
        _, _, threads = self._train(
            lp_dataset, "train", "link_prediction", backend="threads"
        )
        _, _, procs = self._train(
            lp_dataset, "train", "link_prediction", backend="processes"
        )
        assert [h["loss"] for h in serial] == [h["loss"] for h in threads]
        assert [h["loss"] for h in serial] == [h["loss"] for h in procs]

    def test_edge_classification_learns_planted_structure(self, lp_graph, tmp_path):
        nodes, edges = lp_graph
        fs = DistFileSystem(tmp_path / "dfs")
        graph_flat(
            nodes, edges,
            config=flat_config("edge_classification", edge_targets=120),
            fs=fs, dataset_name="train",
        )
        trainer, source, history = self._train(
            fs, "train", "edge_classification", epochs=10
        )
        assert history[-1]["loss"] < history[0]["loss"]
        assert trainer.evaluate(source) > 0.7  # well above the 0.5 base rate


# ------------------------------------------------------------------ GraphInfer


class TestGraphInferEdgeTasks:
    def test_lp_scores_match_full_graph_reference(self, lp_graph):
        nodes, edges = lp_graph
        model = GraphSAGEModel(6, 8, 2, num_layers=2, seed=1)
        h = full_graph_embeddings(model, nodes, edges)
        co = edges.coalesce()
        cand = np.stack([co.src[:20], co.dst[:20]], axis=1)
        result = graph_infer(
            model, nodes, edges,
            GraphInferConfig(task="link_prediction", num_reducers=3),
            candidates=cand,
        )
        assert set(result.scores) == set(range(20))
        for i, (s, d) in enumerate(cand):
            assert result.scores[i].shape == (1,)
            np.testing.assert_allclose(
                result.scores[i][0], np.dot(h[s], h[d]), rtol=1e-3, atol=1e-4
            )

    def test_ec_defaults_to_all_edges_and_matches_reference(self, lp_graph):
        nodes, edges = lp_graph
        model = GraphSAGEModel(6, 8, 2, num_layers=2, seed=1)
        h = full_graph_embeddings(model, nodes, edges)
        weight = model.head.weight.data
        bias = model.head.bias.data
        result = graph_infer(
            model, nodes, edges,
            GraphInferConfig(task="edge_classification", num_reducers=3),
        )
        co = edges.coalesce()
        assert len(result.scores) == len(co.src)
        for i in range(0, len(co.src), 13):
            s, d = int(co.src[i]), int(co.dst[i])
            np.testing.assert_allclose(
                result.scores[i], (h[s] * h[d]) @ weight + bias,
                rtol=1e-3, atol=1e-4,
            )

    def test_candidate_validation(self, lp_graph):
        nodes, edges = lp_graph
        model = GraphSAGEModel(6, 8, 2, num_layers=2, seed=1)
        lp = GraphInferConfig(task="link_prediction", num_reducers=3)
        with pytest.raises(ValueError, match=r"\(m, 2\)"):
            graph_infer(model, nodes, edges, lp, candidates=np.arange(6))
        with pytest.raises(ValueError, match="self-loops"):
            graph_infer(
                model, nodes, edges, lp, candidates=np.array([[1, 1]])
            )
        with pytest.raises(ValueError, match="only apply to edge-level"):
            graph_infer(
                model, nodes, edges, GraphInferConfig(num_reducers=3),
                candidates=np.array([[0, 1]]),
            )
        with pytest.raises(ValueError):
            graph_infer(
                model, nodes, edges, lp, targets=np.array([0, 1]),
                candidates=np.array([[0, 1]]),
            )

    def test_lp_processes_backend_identical(self, lp_graph):
        nodes, edges = lp_graph
        model = GraphSAGEModel(6, 8, 2, num_layers=2, seed=1)
        co = edges.coalesce()
        cand = np.stack([co.src[:20], co.dst[:20]], axis=1)
        config = GraphInferConfig(task="link_prediction", num_reducers=3)
        serial = graph_infer(model, nodes, edges, config, candidates=cand)
        with LocalRuntime(backend="processes", max_workers=2) as runtime:
            procs = graph_infer(
                model, nodes, edges, config, runtime, candidates=cand
            )
        assert set(procs.scores) == set(serial.scores)
        for i, scores in serial.scores.items():
            assert np.array_equal(procs.scores[i], scores)

    def test_prediction_dataset_records_task(self, lp_graph, tmp_path):
        nodes, edges = lp_graph
        model = GraphSAGEModel(6, 8, 2, num_layers=2, seed=1)
        fs = DistFileSystem(tmp_path / "dfs")
        graph_infer(
            model, nodes, edges,
            GraphInferConfig(task="edge_classification", num_reducers=3),
            fs=fs, dataset_name="preds",
        )
        assert fs.task("preds") == "edge_classification"


# ------------------------------------------------------- typed graph plumbing


class TestTypedRoundTrips:
    def _typed_feature(self, rng):
        n, m = 5, 7
        return GraphFeature(
            target_ids=np.array([10, 13]),
            node_ids=np.arange(10, 10 + n),
            x=rng.standard_normal((n, 4)).astype(np.float32),
            hops=np.array([0, 1, 1, 0, 2]),
            edge_src=rng.integers(0, n, m),
            edge_dst=rng.integers(0, n, m),
            node_type=rng.integers(0, 3, n),
            edge_type=rng.integers(0, 2, m),
        )

    def test_wire_codec_round_trip(self):
        gf = self._typed_feature(np.random.default_rng(0))
        out, _ = decode_graph_feature(encode_graph_feature(gf))
        for field in ("target_ids", "node_ids", "x", "hops", "edge_src",
                      "edge_dst", "edge_weight", "node_type", "edge_type"):
            assert np.array_equal(getattr(out, field), getattr(gf, field)), field

    def test_untyped_wire_bytes_stay_v1(self):
        gf = self._typed_feature(np.random.default_rng(0))
        untyped = GraphFeature(
            gf.target_ids, gf.node_ids, gf.x, gf.hops, gf.edge_src, gf.edge_dst
        )
        encoded = encode_graph_feature(untyped)
        assert encoded[:4] == b"AGLF"
        assert encoded[4] == 1  # pre-typed version byte: old readers still work
        assert encode_graph_feature(gf)[4] == 2

    def test_columnar_shard_round_trip_with_task(self, tmp_path):
        rng = np.random.default_rng(1)
        samples = [(i, i % 2, self._typed_feature(rng)) for i in range(4)]
        path = tmp_path / "part-0.aglc"
        write_sample_shard(path, samples, task="edge_classification")
        shard = ColumnarShard(path)
        assert shard.task == "edge_classification"
        for i, label, gf in samples:
            got_id, got_label, got_gf = shard.sample(i)
            assert got_id == i
            assert int(got_label) == label
            assert np.array_equal(got_gf.node_type, gf.node_type)
            assert np.array_equal(got_gf.edge_type, gf.edge_type)
            assert np.array_equal(got_gf.target_ids, gf.target_ids)

    def test_columnar_v1_shard_defaults_to_node_classification(self, tmp_path):
        rng = np.random.default_rng(1)
        gf = self._typed_feature(rng)
        untyped = GraphFeature(
            gf.target_ids, gf.node_ids, gf.x, gf.hops, gf.edge_src, gf.edge_dst
        )
        path = tmp_path / "part-0.aglc"
        write_sample_shard(path, [(0, 1, untyped)])
        assert ColumnarShard(path).task == "node_classification"

    def test_tsv_typed_node_round_trip(self, tmp_path, typed_graph):
        nodes, edges = typed_graph
        write_node_table(tmp_path / "n.tsv", nodes)
        write_edge_table(tmp_path / "e.tsv", edges)
        rn = read_node_table(tmp_path / "n.tsv")
        re_ = read_edge_table(tmp_path / "e.tsv")
        assert np.array_equal(rn.types, nodes.types)
        np.testing.assert_allclose(rn.features, nodes.features, rtol=1e-6)
        assert np.array_equal(re_.src, edges.src)
        assert np.array_equal(re_.labels, edges.labels)
        assert np.array_equal(re_.types, edges.types)

    def test_tsv_untyped_files_unchanged(self, tmp_path, lp_graph):
        nodes, _ = lp_graph
        plain = NodeTable(nodes.ids, nodes.features)
        write_node_table(tmp_path / "n.tsv", plain)
        first = (tmp_path / "n.tsv").read_text().splitlines()[0]
        assert "type=" not in first and "=" not in first

    def test_tsv_rejects_unknown_and_mixed_kv(self, tmp_path):
        (tmp_path / "bad.tsv").write_text("0\t1\t1.0\tcolor=3\n")
        with pytest.raises(ValueError, match="unknown column"):
            read_edge_table(tmp_path / "bad.tsv")
        (tmp_path / "mixed.tsv").write_text("0\t1\t1.0\tlabel=1\n1\t2\t1.0\n")
        with pytest.raises(ValueError, match="some rows"):
            read_edge_table(tmp_path / "mixed.tsv")

    def test_graphflat_carries_types_into_samples(self, typed_graph, tmp_path):
        nodes, edges = typed_graph
        fs = DistFileSystem(tmp_path / "dfs")
        graph_flat(
            nodes, edges, config=flat_config("edge_classification"),
            fs=fs, dataset_name="typed",
        )
        source = open_sample_source(fs, "typed")
        gf = source.sample(0).graph_feature
        assert gf.node_type is not None
        assert gf.edge_type is not None
        # type ids in the sample agree with the node table
        for local, node_id in enumerate(gf.node_ids):
            assert int(gf.node_type[local]) == int(nodes.types[node_id])


# ---------------------------------------------------------------- generators


class TestGenerators:
    def test_labeled_edges_like_deterministic(self):
        a_nodes, a_edges = labeled_edges_like(seed=4, num_nodes=50, num_edges=150)
        b_nodes, b_edges = labeled_edges_like(seed=4, num_nodes=50, num_edges=150)
        np.testing.assert_array_equal(a_nodes.features, b_nodes.features)
        assert np.array_equal(a_edges.src, b_edges.src)
        assert np.array_equal(a_edges.labels, b_edges.labels)

    def test_labeled_edges_like_shapes(self, lp_graph):
        nodes, edges = lp_graph
        assert len(nodes) == 100
        assert edges.labels is not None
        assert set(np.unique(edges.labels)) <= {0, 1}
        # planted structure: both classes present
        assert 0 < int(edges.labels.sum()) < len(edges.labels)

    def test_typed_like_bipartite(self, typed_graph):
        nodes, edges = typed_graph
        assert set(np.unique(nodes.types)) == {0, 1}
        assert set(np.unique(edges.types)) == {0, 1}
        # user -> item only
        assert np.all(nodes.types[edges.src] == 0)
        assert np.all(nodes.types[edges.dst] == 1)
        # edge labels correlate with edge types (purchases skew positive)
        purchase = edges.labels[edges.types == 1].mean()
        view = edges.labels[edges.types == 0].mean()
        assert purchase > view


# -------------------------------------------------------- CLI + describe line


class TestTaskCLI:
    @pytest.fixture()
    def lp_workspace(self, tmp_path, lp_graph):
        nodes, edges = lp_graph
        write_node_table(tmp_path / "nodes.tsv", nodes)
        write_edge_table(tmp_path / "edges.tsv", edges)
        return tmp_path

    def test_lp_cli_workflow(self, lp_workspace, capsys):
        tmp_path = lp_workspace
        dfs = str(tmp_path / "dfs")
        rc = main([
            "graphflat",
            "-n", str(tmp_path / "nodes.tsv"), "-e", str(tmp_path / "edges.tsv"),
            "--task", "link_prediction", "--edge-targets", "25",
            "--hops", "2", "--max-neighbors", "6",
            "--output", "lp/train", "--dfs", dfs, "--workers", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "edge samples" in out
        assert "task link_prediction" in out

        # trainer auto-detects the recorded task from dataset metadata
        rc = main([
            "graphtrainer", "-m", "graphsage", "-i", "lp/train",
            "--model-out", str(tmp_path / "model.pkl"),
            "--epochs", "2", "--hidden", "8", "--dfs", dfs,
        ])
        assert rc == 0
        assert "model saved" in capsys.readouterr().out

        np.savetxt(
            tmp_path / "cand.txt",
            np.array([[0, 50], [1, 60], [2, 70]]), fmt="%d",
        )
        rc = main([
            "graphinfer", "-m", str(tmp_path / "model.pkl"),
            "-n", str(tmp_path / "nodes.tsv"), "-e", str(tmp_path / "edges.tsv"),
            "--task", "link_prediction", "--candidates", str(tmp_path / "cand.txt"),
            "--max-neighbors", "6",
            "--output", "lp/scores", "--dfs", dfs, "--workers", "1",
        ])
        assert rc == 0
        assert "candidate edges" in capsys.readouterr().out
        assert DistFileSystem(dfs).count_records("lp/scores") == 3

        rc = main(["describe", "lp/train", "--dfs", dfs])
        assert rc == 0
        assert "task:     link_prediction" in capsys.readouterr().out

    def test_trainer_rejects_task_mismatch(self, lp_workspace, capsys):
        tmp_path = lp_workspace
        dfs = str(tmp_path / "dfs")
        main([
            "graphflat",
            "-n", str(tmp_path / "nodes.tsv"), "-e", str(tmp_path / "edges.tsv"),
            "--task", "edge_classification", "--edge-targets", "20",
            "--output", "ec/train", "--dfs", dfs, "--workers", "1",
        ])
        capsys.readouterr()
        rc = main([
            "graphtrainer", "-m", "graphsage", "-i", "ec/train",
            "--task", "multiclass",
            "--model-out", str(tmp_path / "m.pkl"), "--epochs", "1",
            "--hidden", "8", "--dfs", dfs,
        ])
        assert rc == 1
        assert "edge_classification" in capsys.readouterr().err

    def test_describe_legacy_dataset_falls_back(self, tmp_path, capsys):
        """Datasets written before the task layer have no task key in
        _META.json; describe must not crash and must say so."""
        from repro.datasets import cora_like

        ds = cora_like(seed=7, num_nodes=60, num_edges=180)
        fs = DistFileSystem(tmp_path / "dfs")
        graph_flat(
            ds.nodes, ds.edges, ds.train_ids[:10],
            GraphFlatConfig(hops=1, max_neighbors=4, num_reducers=2, seed=0),
            fs=fs, dataset_name="nc/train",
        )
        assert fs.task("nc/train") is None  # NC meta stays byte-identical
        rc = main(["describe", "nc/train", "--dfs", str(tmp_path / "dfs")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "task:     node_classification (default/legacy)" in out


# ------------------------------------------------------------ example scripts


class TestExampleSmoke:
    @pytest.mark.parametrize(
        "script, expect",
        [
            ("examples/link_prediction.py", "GraphInfer: scored"),
            ("examples/edge_classification.py", "accuracy vs ground truth"),
        ],
    )
    def test_example_runs(self, script, expect):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(REPO / script)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert expect in proc.stdout
