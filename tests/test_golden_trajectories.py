"""Golden training trajectories: the bits of a training step, pinned.

GraphSAGE layers, the dense head, the link-prediction readout and both
losses each record one autograd node whose hand-written backward computes
what the composite tape of elementary ops (``repro.nn.ops`` and ``Tensor``
arithmetic) computed before them, array for array and in the same
accumulation order.  These sha256 digests were recorded on the composite
tape, and the one-node blocks must reproduce them byte for byte:

* short fits — the per-epoch losses and the final ``state_dict`` — over
  GraphSAGE x {mean, sum, max} x {add, concat} (multiclass), the scatter
  kernel, dropout, multilabel (2-D BCE), link prediction and edge
  classification;
* layer-level forwards and gradients under a random upstream gradient:
  the SAGE layer under every activation, aggregator, combine and kernel,
  the dense head under every activation with and without its bias, the
  link-prediction readout and both losses over large random batches (a
  gradient that sums four contributions — the BCE logits' — has 24
  orders, and a small batch cannot tell most of them apart).

Each node is also checked against finite differences.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.trainer import GraphTrainer, TrainerConfig
from repro.datasets import labeled_edges_like, ppi_like, uug_like
from repro.nn import Tensor, bce_with_logits_loss, softmax_cross_entropy
from repro.nn.gnn import EdgeBlock, GraphSAGELayer, GraphSAGEModel
from repro.nn.layers import Dense
from repro.tasks import make_task
from repro.utils.blas import single_threaded_blas

from .helpers import check_gradients, model_digest

FITS = {
    # case: (sha256 of the per-epoch losses, sha256 of the final state_dict)
    "mean-add": (
        "5cca617cbefb283a3973d48c5af0c2b18e84b3ea9c9c847f7b1b90971631bf32",
        "bf567ffa004974519dc991f8305c126d8213f936bb0556817a431ac3ea95f556",
    ),
    "mean-concat": (
        "54d58235c5ee4b97df34b8b8cc487b4d26104c8916a9a8e71a79b5a52a86395a",
        "f8e4e7d80f0e73e9618f736c85d3db77a8a4866be1830e17f5d11a033c332720",
    ),
    "sum-add": (
        "17932adcc614eae4e6d796376e022a4a4b8bd15266c96043a6696ee4cc64ed4d",
        "326f9d4709feb4d92af9e3ffc7dd66b409c5dc37ff5044f646cb998ddd12a853",
    ),
    "sum-concat": (
        "a332b69979e4b037b8143361cff84fd37af5b3c22705faec7c1e9c856d71d6d6",
        "0d76b1e00844d9963e8bccf55bc5133b125f171f1cf2a3b2ef47ffa2972c9bbf",
    ),
    "max-add": (
        "268b325ad95dc534945e96a53f746e7a3d5847843907c93d1aacc0f72c942743",
        "f3fd0326ca3f8419ef41fb4f779cac1426987dd6b188b284861d88040f968742",
    ),
    "max-concat": (
        "8d01c1bf4a3eb6dd679d2c2cb3b0f046d14f200c1282bb175fb7201c58501e5f",
        "86b90f72ca9046fbbb2c8f2eee7db0a837a862e6fe135789eecab96d1f05703b",
    ),
    "mean-add-scatter": (
        "b563a713d991b0e17e654ca0785ece2b8865dc0d55a344bb696cc16a4ff262e0",
        "c768df85923d3bf14bb4585bc26da486c545fe0eba50a04c78734aa4ca0ef133",
    ),
    "mean-add-dropout": (
        "43e92f8e11f8588747476f5b6a8200375ce2532678490293d78a71892319fd72",
        "660f74d0b62af34ca16a7e10f2a8abfb516e7af03cdca08def90aebfa3ba0ff7",
    ),
    "multilabel": (
        "c357fc5ae7dabe9d5c615aec48d59d3b57937c4827c48dec8c3a64a7266a027b",
        "8e8a4fdeb3e07f5e6af1e1b1e77cf8cefda03320419221395efe4a63e6695f0b",
    ),
    "link_prediction": (
        "fc0546a67739f4b98e12a94e20e6a1ed562c80a32190c6e566b5be803b132ae8",
        "7b1f06d1e30d41a7f6611fda7b31dd338e64b87de748586060fa11d506b6bf9f",
    ),
    "edge_classification": (
        "c3733df0bd95818f6479cfede3c8827ad0d604ca1573910c07ab1a987402ce66",
        "4d95ebe39505e268033620c66b10f3986373b4c3dcba8fe9b52f4ece954fcabb",
    ),
}

SAGE_LAYER = {
    None: "68e1a0a5a17278ad147f778ebb47a2b8fc9dcd5f086d3ddd6dff03eff1f2fb63",
    "relu": "4310ecb30564a72f71c7c8445751f4d30d9945da53091ce0659d60ece66f3a6d",
    "elu": "bc4894c61f89c8bdd7dcd00dd576af4a0047958395317fe02d3ed46324f14f23",
}
DENSE = {
    None: "5c47615c74d67487b23e41d48e71c29a6f0d7d18c7ba6eb2004cb7be4554b41e",
    "relu": "789572c02e0c6dc1c4507ebaa2ccb7a151a0bc54fa4300b5ee4afb97c27f7cd8",
    "elu": "d840196c69d90305b47009ace65ae3a3f8fac0bc7fcac58a71db1e61b9fc6711",
    "tanh": "8beaac6d4baffdbd8f34410b45f88af02849390180d9893c20e6e85245cef5e4",
    "sigmoid": "aaf0b9afcc9d4bdd1862529235692e69189a9a8fb37062aa115bf9b1ccea4366",
    "leaky_relu": "86db621d320bcf33029c497c2d688f17ea4e170bb39f0385bcc2fc83d674d85d",
}
HEADS = {
    "cross_entropy": "c10390a4269155012b5f80ab98ed5d60c46a6e694f77414c137c81d471c78a58",
    "bce_1d": "00db4ebf80a437e5d4980acf20f13a3a81a13ae82de76bc036e4cc666c65b2ac",
    "bce_2d": "830cd37908fe569a6c0ed8c0ce02a067f960cc3b031b9d7be7f88b511997aaa2",
    "lp_readout": "c6269b309413d10f9fe02e0bd262b53c663c554ade0829e22356ce65a47b4649",
}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(str((array.dtype, array.shape)).encode())
        h.update(array.tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------- fits
@functools.lru_cache(maxsize=None)
def node_samples():
    ds = uug_like(seed=5, num_nodes=240, avg_degree=6, feature_dim=12, num_hubs=2,
                  hub_degree=30)
    config = GraphFlatConfig(hops=2, max_neighbors=6, hub_threshold=10**9, seed=5)
    return graph_flat(ds.nodes, ds.edges, ds.train_ids, config).samples


@functools.lru_cache(maxsize=None)
def multilabel_samples():
    ds = ppi_like(seed=5, num_graphs=5, nodes_per_graph=60, avg_degree=5,
                  feature_dim=10, num_labels=7)
    config = GraphFlatConfig(hops=2, max_neighbors=6, hub_threshold=10**9, seed=5)
    return graph_flat(ds.nodes, ds.edges, ds.train_ids, config).samples


@functools.lru_cache(maxsize=None)
def edge_samples():
    nodes, edges = labeled_edges_like(seed=5, num_nodes=100, num_edges=360,
                                      feature_dim=6)
    made = {}
    for task in ("link_prediction", "edge_classification"):
        config = GraphFlatConfig(hops=2, max_neighbors=6, seed=5, task=task,
                                 edge_targets=60)
        made[task] = graph_flat(nodes, edges, config=config).samples
    return made


def fit(model, samples, **config):
    trainer = GraphTrainer(
        model, TrainerConfig(batch_size=16, epochs=3, lr=0.01, seed=5, **config)
    )
    history = trainer.fit(samples)
    losses = np.asarray([entry["loss"] for entry in history], dtype=np.float64)
    return digest(losses), model_digest(model)


def fit_case(case):
    if case in ("link_prediction", "edge_classification"):
        model = GraphSAGEModel(6, 8, 2, num_layers=2, seed=5)
        return fit(model, edge_samples()[case], task=case)
    if case == "multilabel":
        model = GraphSAGEModel(10, 8, 7, num_layers=2, seed=5)
        return fit(model, multilabel_samples(), task="multilabel")
    aggregator, combine, *variant = case.split("-")
    dropout = 0.3 if variant == ["dropout"] else 0.0
    model = GraphSAGEModel(12, 8, 3, num_layers=2, aggregator=aggregator,
                           combine=combine, dropout=dropout, seed=5)
    return fit(model, node_samples(), edge_partition=variant != ["scatter"])


@pytest.mark.parametrize("case", sorted(FITS))
def test_fit_reproduces_the_composite_trajectory(case):
    assert fit_case(case) == FITS[case]


# ---------------------------------------------------------- layer level
def random_block(rng, n=300, m=1500, sorted_kernel=True):
    """``n`` nodes, ``m`` destination-sorted edges; about a tenth of the
    nodes have no in-edge (empty segments)."""
    dst = np.sort(rng.integers(0, n, m))
    dst = dst[~np.isin(dst, np.arange(0, n, 10))]
    src = rng.integers(0, n, len(dst))
    return EdgeBlock(src, dst, n, sorted_kernel=sorted_kernel)


@single_threaded_blas()
def sage_layer_digest(activation) -> str:
    rng = np.random.default_rng(11)
    parts = []
    for aggregator in ("mean", "sum", "max"):
        for combine in ("add", "concat"):
            for sorted_kernel in (True, False):
                layer = GraphSAGELayer(24, 16, aggregator=aggregator, combine=combine,
                                       activation=activation, seed=3)
                block = random_block(rng, sorted_kernel=sorted_kernel)
                h = Tensor(rng.standard_normal((block.num_nodes, 24)), requires_grad=True)
                out = layer(h, block)
                out.backward(rng.standard_normal(out.shape).astype(np.float32))
                parts += [out.data, h.grad, layer.w_self.grad, layer.w_neigh.grad,
                          layer.bias.grad]
    return digest(*parts)


@single_threaded_blas()
def dense_digest(activation) -> str:
    rng = np.random.default_rng(12)
    parts = []
    for use_bias in (True, False):
        head = Dense(24, 10, activation=activation, use_bias=use_bias, seed=4)
        x = Tensor(rng.standard_normal((300, 24)), requires_grad=True)
        out = head(x)
        out.backward(rng.standard_normal(out.shape).astype(np.float32))
        parts += [out.data, x.grad, head.weight.grad]
        if use_bias:
            parts.append(head.bias.grad)
    return digest(*parts)


@single_threaded_blas()
def head_digest(case) -> str:
    rng = np.random.default_rng(13)
    if case == "lp_readout":
        h = Tensor(rng.standard_normal((200, 16)), requires_grad=True)
        pairs = rng.integers(0, 200, (4096, 2))
        out = make_task("link_prediction").readout(h, pairs, None)
        out.backward(rng.standard_normal(out.shape).astype(np.float32))
        return digest(out.data, h.grad)
    if case == "cross_entropy":
        logits = Tensor(3 * rng.standard_normal((4096, 7)), requires_grad=True)
        loss = softmax_cross_entropy(logits, rng.integers(0, 7, 4096))
    else:
        shape = (4096,) if case == "bce_1d" else (512, 12)
        # a few exact zeros: relu's mask and |x| meet there
        values = np.where(rng.random(shape) < 0.02, 0.0, 3 * rng.standard_normal(shape))
        logits = Tensor(values, requires_grad=True)
        loss = bce_with_logits_loss(logits, rng.integers(0, 2, shape))
    loss.backward()
    return digest(loss.data, logits.grad)


@pytest.mark.parametrize("activation", list(SAGE_LAYER), ids=str)
def test_sage_layer_reproduces_the_composite_bits(activation):
    assert sage_layer_digest(activation) == SAGE_LAYER[activation]


@pytest.mark.parametrize("activation", list(DENSE), ids=str)
def test_dense_reproduces_the_composite_bits(activation):
    assert dense_digest(activation) == DENSE[activation]


@pytest.mark.parametrize("case", list(HEADS))
def test_readout_and_losses_reproduce_the_composite_bits(case):
    assert head_digest(case) == HEADS[case]


# ------------------------------------------------------------- gradcheck
@pytest.mark.parametrize("activation", [None, "relu", "elu"], ids=str)
@pytest.mark.parametrize("combine", ["add", "concat"])
@pytest.mark.parametrize("aggregator", ["mean", "sum", "max"])
def test_sage_layer_gradients(aggregator, combine, activation):
    rng = np.random.default_rng(21)
    block = random_block(rng, n=8, m=20)
    layer = GraphSAGELayer(5, 3, aggregator=aggregator, combine=combine,
                           activation=activation, seed=2)
    arrays = {
        "h": rng.standard_normal((8, 5)),
        "w_self": layer.w_self.data.astype(np.float64),
        "w_neigh": layer.w_neigh.data.astype(np.float64),
        "bias": rng.standard_normal(3),
    }
    weight = rng.standard_normal((8, layer.output_dim)).astype(np.float32)

    def loss(t):
        layer.w_self, layer.w_neigh, layer.bias = t["w_self"], t["w_neigh"], t["bias"]
        return (layer(t["h"], block) * Tensor(weight)).sum()

    check_gradients(loss, arrays)


@pytest.mark.parametrize("use_bias", [True, False])
@pytest.mark.parametrize("activation", list(DENSE), ids=str)
def test_dense_gradients(activation, use_bias):
    rng = np.random.default_rng(22)
    head = Dense(4, 3, activation=activation, use_bias=use_bias, seed=1)
    arrays = {"x": rng.standard_normal((6, 4)), "weight": head.weight.data.astype(np.float64)}
    if use_bias:
        arrays["bias"] = rng.standard_normal(3)
    weight = rng.standard_normal((6, 3)).astype(np.float32)

    def loss(t):
        head.weight = t["weight"]
        if use_bias:
            head.bias = t["bias"]
        return (head(t["x"]) * Tensor(weight)).sum()

    check_gradients(loss, arrays)


def test_lp_readout_gradients():
    rng = np.random.default_rng(23)
    pairs = rng.integers(0, 5, (9, 2))
    weight = rng.standard_normal(9).astype(np.float32)
    task = make_task("link_prediction")
    check_gradients(
        lambda t: (task.readout(t["h"], pairs, None) * Tensor(weight)).sum(),
        {"h": rng.standard_normal((5, 4))},
    )


@pytest.mark.parametrize("shape", [(12,), (5, 3)])
def test_bce_gradients(shape):
    rng = np.random.default_rng(24)
    targets = rng.integers(0, 2, shape)
    check_gradients(
        lambda t: bce_with_logits_loss(t["x"], targets) * 3.0,
        {"x": 2 * rng.standard_normal(shape)},
    )


def test_cross_entropy_gradients():
    rng = np.random.default_rng(25)
    labels = rng.integers(0, 4, 7)
    check_gradients(
        lambda t: softmax_cross_entropy(t["x"], labels) * 3.0,
        {"x": 2 * rng.standard_normal((7, 4))},
    )
