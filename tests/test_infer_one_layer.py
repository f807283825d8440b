"""One layer definition for training and inference (§3.4's unbiased
inference, bit for bit).

GraphInfer's reducers run each layer's ``forward`` — the definition
GraphTrainer trains — over one block per merge batch.  So a node's layer-k
embedding in GraphInfer is exactly what ``GNNModel.embed`` computes for that
node over its own GraphFlat sample with the same seed and sampler, and its
score is the head over that embedding: with sampling on and off, for every
layer kind.  The mechanism is pinned too: one layer call per merge batch, and
no per-node inference form on any layer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.infer import GraphInferConfig, graph_infer
from repro.core.infer.pipeline import EmbeddingReducer
from repro.core.trainer.vectorize import decode_samples, vectorize_batch
from repro.datasets import uug_like
from repro.nn import no_grad
from repro.nn.gnn import (
    GATModel,
    GCNModel,
    GeniePathModel,
    GNNLayer,
    GNNModel,
    GraphSAGEModel,
)
from repro.nn.gnn.registry import LAYER_REGISTRY

HOPS = 2

MODELS = {
    "gcn": lambda f: GCNModel(f, 8, 3, num_layers=HOPS, seed=1),
    **{
        f"sage-{agg}-{combine}": (
            lambda f, agg=agg, combine=combine: GraphSAGEModel(
                f, 8, 3, num_layers=HOPS, aggregator=agg, combine=combine, seed=1
            )
        )
        for agg in ("mean", "sum", "max")
        for combine in ("add", "concat")
    },
    "gat": lambda f: GATModel(f, 8, 3, num_layers=HOPS, num_heads=2, seed=1),
    "geniepath": lambda f: GeniePathModel(f, 8, 3, num_layers=HOPS, seed=1),
}

SAMPLING = {"sampled": 4, "unsampled": 10**9}


@pytest.fixture(scope="module")
def graph():
    return uug_like(seed=3, num_nodes=90, avg_degree=5, feature_dim=6, num_hubs=1, hub_degree=20)


@pytest.fixture
def recorded(monkeypatch):
    """Every embedding GraphInfer's reducers compute, by ``(round, node)``,
    and the number of layer calls each merge batch made."""
    embeddings: dict[tuple[int, int], np.ndarray] = {}
    calls: list[int] = []
    merge = EmbeddingReducer.merge_batch

    def recording_merge(self, batch):
        layer = self.layer
        forward = type(layer).forward
        count = [0]

        def counted(h, block):
            count[0] += 1
            return forward(layer, h, block)

        layer.forward = counted
        try:
            merged = merge(self, batch)
        finally:
            del layer.forward
        calls.append(count[0])
        for node_id, h in zip(batch.node_ids, merged):
            embeddings[self.round_index, int(node_id)] = h
        return merged

    monkeypatch.setattr(EmbeddingReducer, "merge_batch", recording_merge)
    return embeddings, calls


def sample_embeddings(model: GNNModel, sample) -> list[np.ndarray]:
    """``GNNModel.embed`` of the first k layers over one GraphFlat sample:
    the sample root's embedding after each layer."""
    batch, _ = vectorize_batch([sample], model.num_layers, pruning=False)
    (root,) = batch.target_index
    out = []
    with no_grad():
        for k in range(1, model.num_layers + 1):
            prefix = GNNModel(list(model.layers)[:k], model.num_classes)
            prefix.eval()
            out.append(prefix.embed(batch).data[root])
    return out


@pytest.mark.parametrize("sampling", sorted(SAMPLING))
@pytest.mark.parametrize("name", sorted(MODELS))
def test_infer_embedding_equals_embed_over_sample(graph, recorded, name, sampling):
    embeddings, calls = recorded
    model = MODELS[name](graph.feature_dim)
    model.eval()
    knobs = dict(sampling="uniform", max_neighbors=SAMPLING[sampling], hub_threshold=10**9, seed=5)
    flat = graph_flat(graph.nodes, graph.edges, None, GraphFlatConfig(hops=HOPS, **knobs))
    result = graph_infer(model, graph.nodes, graph.edges, GraphInferConfig(**knobs))
    samples = decode_samples(flat.samples)
    assert len(samples) == len(graph.nodes) == len(result.scores)
    if sampling == "sampled":  # the cap binds somewhere
        assert np.bincount(graph.edges.dst).max() > SAMPLING[sampling]
    for sample in samples:
        node = int(sample.target_id)
        layers = sample_embeddings(model, sample)
        for k, want in enumerate(layers, start=1):
            got = embeddings[k, node]
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), f"node {node} layer {k}"
        scores = layers[-1] @ model.head.weight.data + model.head.bias.data
        assert np.array_equal(result.scores[node], scores), f"node {node} scores"
    assert calls and set(calls) == {1}


def test_no_per_node_form():
    """``forward`` is every layer's only definition."""
    assert not hasattr(GNNLayer, "infer_node")
    for cls in LAYER_REGISTRY.values():
        assert not hasattr(cls, "infer_node"), cls.__name__
