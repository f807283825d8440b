"""Graph Convolutional Network (Kipf & Welling 2016) layer and model.

Normalisation note: the textbook GCN uses the *symmetric* norm
``D^-1/2 (A+I) D^-1/2``, whose coefficients need the **global** degrees of
both endpoints.  Inside a k-hop neighborhood the in-edges of every node whose
embedding matters are complete (Theorem 1), but a *source* node at the
neighborhood boundary has incomplete degree information — so, like AGL, we
use the random-walk (mean) normalisation with self-loop

    h'_v = act( ( (h_v + Σ_u w_vu · m_u) / (deg_w(v) + 1) ) W + b ),

whose coefficients depend only on v's own in-edges, so a node's output is
the same in any subgraph that holds its sampled in-edges: GraphTrainer's
batches and GraphInfer's merge batches alike.  ``m_u = h_u`` plus an
optional edge-feature term ``e_vu W_e`` when the graph has edge features.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init, ops
from repro.nn.gnn.base import GNNLayer, GNNModel
from repro.nn.gnn.block import EdgeBlock
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor
from repro.utils.rng import new_rng

__all__ = ["GCNLayer", "GCNModel"]


class GCNLayer(GNNLayer):
    kind = "gcn"

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        activation: str | None = "relu",
        edge_dim: int = 0,
        seed: int | np.random.Generator | None = None,
    ):
        super().__init__()
        rng = new_rng(seed)
        self.in_dim = in_dim
        self.out_dim_ = out_dim
        self.activation = activation
        self.edge_dim = edge_dim
        self.weight = Parameter(init.xavier_uniform((in_dim, out_dim), rng))
        self.bias = Parameter(init.zeros(out_dim))
        if edge_dim:
            self.edge_weight_mat = Parameter(init.xavier_uniform((edge_dim, in_dim), rng))

    @property
    def output_dim(self) -> int:
        return self.out_dim_

    def slice_config(self) -> dict:
        return {
            "in_dim": self.in_dim,
            "out_dim": self.out_dim_,
            "activation": self.activation,
            "edge_dim": self.edge_dim,
        }

    def _activate(self, x: Tensor) -> Tensor:
        if self.activation is None:
            return x
        if self.activation == "relu":
            return ops.relu(x)
        if self.activation == "elu":
            return ops.elu(x)
        if self.activation == "tanh":
            return ops.tanh(x)
        raise ValueError(f"unsupported activation {self.activation!r}")

    # ---------------------------------------------------------------- batch
    def forward(self, h: Tensor, block: EdgeBlock) -> Tensor:
        denom = block.in_degree_weights() + 1.0  # (n,) constant wrt autograd
        coeff = (block.weight / denom[block.dst]).astype(np.float32)  # (m,)

        messages = ops.gather_rows(h, block.src)
        if self.edge_dim and block.edge_feat is not None:
            messages = messages + Tensor(block.edge_feat) @ self.edge_weight_mat
        messages = messages * Tensor(coeff[:, None])
        agg = ops.segment_sum(messages, block.dst, block.num_nodes, row_offsets=block.kernel_offsets)
        combined = agg + h * Tensor((1.0 / denom)[:, None])
        return self._activate(combined @ self.weight + self.bias)


class GCNModel(GNNModel):
    """Stacked GCN layers + dense head (the Figure 6 demo model)."""

    name = "gcn"

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        num_classes: int,
        num_layers: int = 2,
        dropout: float = 0.0,
        edge_dim: int = 0,
        seed: int | None = 0,
    ):
        dims = [in_dim] + [hidden_dim] * num_layers
        layers = [
            GCNLayer(
                dims[k],
                dims[k + 1],
                activation="relu",
                edge_dim=edge_dim,
                seed=None if seed is None else seed + k,
            )
            for k in range(num_layers)
        ]
        super().__init__(layers, num_classes, dropout=dropout, seed=seed)
        self.config = {
            "in_dim": in_dim,
            "hidden_dim": hidden_dim,
            "num_classes": num_classes,
            "num_layers": num_layers,
            "dropout": dropout,
            "edge_dim": edge_dim,
        }
