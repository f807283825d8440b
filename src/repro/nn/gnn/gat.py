"""Graph Attention Network (Veličković et al. 2018) layer and model.

Multi-head attention over ``{v} ∪ N+_v`` (self-loops are added inside the
layer, via the block's cached self-loop variant).  Per head ``t``:

    z_i   = h_i W_t
    e_vu  = LeakyReLU(a_src·z_u + a_dst·z_v)            (u -> v edges + v -> v)
    α_vu  = softmax over v's in-edges (segment softmax)
    h'_v  = act( Σ_u α_vu z_u )

Hidden layers concatenate heads; a final attention layer can average them
(``concat_heads=False``).  Attention replaces edge weights, so ``block.
weight`` is unused — matching the paper's UUG experiment where GAT learns
per-neighbor importance that plain weighting cannot (§4.2.1).
"""

from __future__ import annotations

import numpy as np

from repro.nn import init, ops
from repro.nn.gnn.base import GNNLayer, GNNModel
from repro.nn.gnn.block import EdgeBlock
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor
from repro.utils.rng import new_rng

__all__ = ["GATLayer", "GATModel"]


class GATLayer(GNNLayer):
    kind = "gat"

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        num_heads: int = 4,
        concat_heads: bool = True,
        activation: str | None = "elu",
        negative_slope: float = 0.2,
        seed: int | np.random.Generator | None = None,
    ):
        super().__init__()
        if num_heads < 1:
            raise ValueError("num_heads must be >= 1")
        rng = new_rng(seed)
        self.in_dim = in_dim
        self.out_dim_ = out_dim
        self.num_heads = num_heads
        self.concat_heads = concat_heads
        self.activation = activation
        self.negative_slope = negative_slope
        self.weight = Parameter(init.xavier_uniform((in_dim, num_heads * out_dim), rng))
        self.a_src = Parameter(init.xavier_uniform((num_heads, out_dim), rng))
        self.a_dst = Parameter(init.xavier_uniform((num_heads, out_dim), rng))
        self.bias = Parameter(init.zeros(self.output_dim))

    @property
    def output_dim(self) -> int:
        return self.out_dim_ * (self.num_heads if self.concat_heads else 1)

    def slice_config(self) -> dict:
        return {
            "in_dim": self.in_dim,
            "out_dim": self.out_dim_,
            "num_heads": self.num_heads,
            "concat_heads": self.concat_heads,
            "activation": self.activation,
            "negative_slope": self.negative_slope,
        }

    def _activate(self, x: Tensor) -> Tensor:
        if self.activation is None:
            return x
        if self.activation == "elu":
            return ops.elu(x)
        if self.activation == "relu":
            return ops.relu(x)
        raise ValueError(f"unsupported activation {self.activation!r}")

    # ---------------------------------------------------------------- batch
    def forward(self, h: Tensor, block: EdgeBlock) -> Tensor:
        loop_block = block.with_self_loops()
        n = loop_block.num_nodes
        z = (h @ self.weight).reshape(n, self.num_heads, self.out_dim_)
        s_src = (z * self.a_src).sum(axis=-1)  # (n, heads)
        s_dst = (z * self.a_dst).sum(axis=-1)

        e = ops.leaky_relu(
            ops.gather_rows(s_src, loop_block.src) + ops.gather_rows(s_dst, loop_block.dst),
            self.negative_slope,
        )  # (m', heads)
        alpha = ops.segment_softmax(e, loop_block.dst, n, row_offsets=loop_block.kernel_offsets)
        weighted = ops.gather_rows(z, loop_block.src) * alpha.reshape(
            loop_block.num_edges, self.num_heads, 1
        )
        agg = ops.segment_sum(weighted, loop_block.dst, n, row_offsets=loop_block.kernel_offsets)
        if self.concat_heads:
            out = agg.reshape(n, self.num_heads * self.out_dim_)
        else:
            out = agg.sum(axis=1) * (1.0 / self.num_heads)
        return self._activate(out + self.bias)


class GATModel(GNNModel):
    name = "gat"

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        num_classes: int,
        num_layers: int = 2,
        num_heads: int = 4,
        dropout: float = 0.0,
        seed: int | None = 0,
    ):
        layers: list[GATLayer] = []
        dim = in_dim
        for k in range(num_layers):
            last = k == num_layers - 1
            layer = GATLayer(
                dim,
                hidden_dim,
                num_heads=num_heads,
                concat_heads=not last,
                activation="elu",
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
            "num_heads": num_heads,
            "dropout": dropout,
        }
