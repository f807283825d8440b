"""GNN layers and models (GCN, GraphSAGE, GAT) — substrate **S6**.

Every layer implements the paper's Equation 1 once, as ``forward(h,
block)``: the batched matrix form (Equation 2/3) built on the autograd
segment ops.  GraphTrainer runs it over a batch's merged subgraphs and
GraphInfer's reducers (§3.4) over one block per merge batch, so a node's
GraphInfer embedding equals the one the model computes over its GraphFlat
sample bit for bit — the paper's "unbiased inference" property, asserted by
a tier-1 test.
"""

from repro.nn.gnn.block import BatchInputs, EdgeBlock
from repro.nn.gnn.base import GNNLayer, GNNModel
from repro.nn.gnn.gcn import GCNLayer, GCNModel
from repro.nn.gnn.sage import GraphSAGELayer, GraphSAGEModel
from repro.nn.gnn.gat import GATLayer, GATModel
from repro.nn.gnn.geniepath import GeniePathLayer, GeniePathModel
from repro.nn.gnn.registry import build_layer, build_model, MODEL_REGISTRY

__all__ = [
    "EdgeBlock",
    "BatchInputs",
    "GNNLayer",
    "GNNModel",
    "GCNLayer",
    "GCNModel",
    "GraphSAGELayer",
    "GraphSAGEModel",
    "GATLayer",
    "GATModel",
    "GeniePathLayer",
    "GeniePathModel",
    "build_layer",
    "build_model",
    "MODEL_REGISTRY",
]
