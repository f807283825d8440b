"""GraphSAGE (Hamilton et al. 2017) layer and model.

Combine mode follows the paper's observation (§4.2.1) that AGL/DGL/PyG
propagate the aggregated neighbor information with an **add** operator

    h'_v = act( h_v W_self + AGG({h_u}) W_neigh + b ),

with ``"concat"`` available as the original GraphSAGE flavour.  Aggregators:
``"mean"`` (default), ``"sum"`` and ``"max"`` (elementwise max-pooling).
Edge weights are intentionally ignored — GraphSAGE treats neighbors
uniformly; weighted graphs are the domain of GCN/GAT.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init, ops
from repro.nn.gnn.base import GNNLayer, GNNModel
from repro.nn.gnn.block import EdgeBlock
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor
from repro.utils.rng import new_rng

__all__ = ["GraphSAGELayer", "GraphSAGEModel"]

_AGGREGATORS = ("mean", "sum", "max")
_COMBINES = ("add", "concat")


class GraphSAGELayer(GNNLayer):
    kind = "sage"

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        aggregator: str = "mean",
        combine: str = "add",
        activation: str | None = "relu",
        seed: int | np.random.Generator | None = None,
    ):
        super().__init__()
        if aggregator not in _AGGREGATORS:
            raise ValueError(f"aggregator must be one of {_AGGREGATORS}, got {aggregator!r}")
        if combine not in _COMBINES:
            raise ValueError(f"combine must be one of {_COMBINES}, got {combine!r}")
        rng = new_rng(seed)
        self.in_dim = in_dim
        self.out_dim_ = out_dim
        self.aggregator = aggregator
        self.combine = combine
        self.activation = activation
        self.w_self = Parameter(init.xavier_uniform((in_dim, out_dim), rng))
        self.w_neigh = Parameter(init.xavier_uniform((in_dim, out_dim), rng))
        self.bias = Parameter(init.zeros(out_dim))

    @property
    def output_dim(self) -> int:
        return self.out_dim_ * (2 if self.combine == "concat" else 1)

    def slice_config(self) -> dict:
        return {
            "in_dim": self.in_dim,
            "out_dim": self.out_dim_,
            "aggregator": self.aggregator,
            "combine": self.combine,
            "activation": self.activation,
        }

    def _activate(self, x: Tensor) -> Tensor:
        if self.activation is None:
            return x
        if self.activation == "relu":
            return ops.relu(x)
        if self.activation == "elu":
            return ops.elu(x)
        raise ValueError(f"unsupported activation {self.activation!r}")

    # ---------------------------------------------------------------- batch
    def forward(self, h: Tensor, block: EdgeBlock) -> Tensor:
        messages = ops.gather_rows(h, block.src)
        n, offsets = block.num_nodes, block.kernel_offsets
        if self.aggregator == "mean":
            agg = ops.segment_mean(messages, block.dst, n, row_offsets=offsets)
        elif self.aggregator == "sum":
            agg = ops.segment_sum(messages, block.dst, n, row_offsets=offsets)
        else:  # max
            agg = ops.segment_max(messages, block.dst, block.num_nodes)
        self_part = h @ self.w_self
        neigh_part = agg @ self.w_neigh
        if self.combine == "add":
            return self._activate(self_part + neigh_part + self.bias)
        return ops.concat(
            [self._activate(self_part + self.bias), self._activate(neigh_part + self.bias)],
            axis=-1,
        )


class GraphSAGEModel(GNNModel):
    name = "graphsage"

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        num_classes: int,
        num_layers: int = 2,
        aggregator: str = "mean",
        combine: str = "add",
        dropout: float = 0.0,
        seed: int | None = 0,
    ):
        layers: list[GraphSAGELayer] = []
        dim = in_dim
        for k in range(num_layers):
            layer = GraphSAGELayer(
                dim,
                hidden_dim,
                aggregator=aggregator,
                combine=combine,
                activation="relu",
                seed=None if seed is None else seed + k,
            )
            layers.append(layer)
            dim = layer.output_dim
        super().__init__(layers, num_classes, dropout=dropout, seed=seed)
        self.config = {
            "in_dim": in_dim,
            "hidden_dim": hidden_dim,
            "num_classes": num_classes,
            "num_layers": num_layers,
            "aggregator": aggregator,
            "combine": combine,
            "dropout": dropout,
        }
