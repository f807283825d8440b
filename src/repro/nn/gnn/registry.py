"""Factories that rebuild layers/models from serialisable descriptions.

GraphInfer ships ``(kind, config, state)`` slices to MapReduce reducers;
:func:`build_layer` reconstructs the layer there.  :func:`build_model` is the
string-keyed entry point the benchmark harness and the Figure 6-style demo
API use (``GraphTrainer -m model_name``).
"""

from __future__ import annotations

import numpy as np

from repro.nn.gnn.gat import GATLayer, GATModel
from repro.nn.gnn.gcn import GCNLayer, GCNModel
from repro.nn.gnn.geniepath import GeniePathLayer, GeniePathModel
from repro.nn.gnn.sage import GraphSAGELayer, GraphSAGEModel
from repro.nn.layers import Dense

__all__ = ["LAYER_REGISTRY", "MODEL_REGISTRY", "build_layer", "build_model"]

LAYER_REGISTRY = {
    "gcn": GCNLayer,
    "sage": GraphSAGELayer,
    "gat": GATLayer,
    "geniepath": GeniePathLayer,
    "dense_head": Dense,
}

MODEL_REGISTRY = {
    "gcn": GCNModel,
    "graphsage": GraphSAGEModel,
    "gat": GATModel,
    "geniepath": GeniePathModel,
}


def build_layer(kind: str, config: dict, state: dict[str, np.ndarray] | None = None):
    """Reconstruct a layer (or the dense head) from its slice description."""
    if kind not in LAYER_REGISTRY:
        raise KeyError(f"unknown layer kind {kind!r}; known: {sorted(LAYER_REGISTRY)}")
    layer = LAYER_REGISTRY[kind](**config)
    if state is not None:
        layer.load_state_dict(state)
    return layer


def build_model(name: str, **kwargs):
    """Build a model by registry name (``gcn`` / ``graphsage`` / ``gat``)."""
    if name not in MODEL_REGISTRY:
        raise KeyError(f"unknown model {name!r}; known: {sorted(MODEL_REGISTRY)}")
    return MODEL_REGISTRY[name](**kwargs)

