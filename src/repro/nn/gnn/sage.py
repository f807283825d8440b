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
from repro.nn.tensor import Tensor, matmul
from repro.utils.rng import new_rng

__all__ = ["GraphSAGELayer", "GraphSAGEModel"]

_AGGREGATORS = ("mean", "sum", "max")
_ACTIVATIONS = (None, "relu", "elu")
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

    # ---------------------------------------------------------------- batch
    def forward(self, h: Tensor, block: EdgeBlock) -> Tensor:
        """One tape node: ``act(h W_self + AGG(h) W_neigh + b)`` (or the two
        halves concatenated), with a hand-written backward that computes,
        array for array, what the tape of its elementary ops computed."""
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unsupported activation {self.activation!r}")
        kernel = ops.ACTIVATION_KERNELS[self.activation]
        x, src, dst, n = h.data, block.src, block.dst, block.num_nodes
        w_self, w_neigh, bias = self.w_self, self.w_neigh, self.bias
        messages = x[src]
        if self.aggregator == "max":
            agg = ops.segment_max_array(messages, dst, n)
        else:
            agg = ops.segment_sum_array(messages, dst, n, block.kernel_offsets)
            if self.aggregator == "mean":
                counts = ops.segment_counts(dst, n, agg.ndim)
                agg = agg / counts
        self_part = matmul(x, w_self.data)
        neigh_part = matmul(agg, w_neigh.data)
        if self.combine == "add":
            out, grad_of = kernel(self_part + neigh_part + bias.data)
        else:
            out_self, grad_of_self = kernel(self_part + bias.data)
            out_neigh, grad_of_neigh = kernel(neigh_part + bias.data)
            out = np.concatenate([out_self, out_neigh], axis=-1)
            d = self.out_dim_

        def backward(grad):
            if self.combine == "add":
                g_self = g_neigh = grad_of(grad)
                g_bias = g_self.sum(axis=0)
            else:
                g_self = grad_of_self(np.ascontiguousarray(grad[:, :d]))
                g_neigh = grad_of_neigh(np.ascontiguousarray(grad[:, d:]))
                g_bias = g_self.sum(axis=0) + g_neigh.sum(axis=0)
            if bias.requires_grad:
                bias._accumulate_owned(g_bias)
            if w_self.requires_grad:
                w_self._accumulate_owned(x.T @ g_self)
            if w_neigh.requires_grad:
                w_neigh._accumulate_owned(agg.T @ g_neigh)
            if not h.requires_grad:
                return
            g_agg = g_neigh @ w_neigh.data.T
            if self.aggregator == "max":
                g_messages = ops.segment_max_grad(g_agg, messages, agg, dst, n)
            elif self.aggregator == "mean":
                g_messages = (g_agg / counts)[dst]
            else:
                g_messages = g_agg[dst]
            g_h = ops.scatter_sum(g_messages, src, len(x))
            g_h += g_self @ w_self.data.T
            h._accumulate_owned(g_h)

        return Tensor._make(out, (h, w_self, w_neigh, bias), backward)


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
