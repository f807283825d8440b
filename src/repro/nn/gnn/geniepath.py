"""GeniePath (Liu et al., AAAI 2019) — adaptive receptive paths.

Ant Financial's own GNN, cited by the AGL paper ([12]) and deployed on the
same infrastructure, so it is the natural "ecosystem" model to run through
GraphFlat / GraphTrainer / GraphInfer.  Each layer combines

* **adaptive breadth** — an attention aggregation over in-edge neighbors,
  ``tmp_v = tanh( (Σ_u α_vu · h_u) W_t )`` with
  ``α_vu = softmax_u( v_a · tanh(h_v W_d + h_u W_s) )``;
* **adaptive depth** — an LSTM-style gate deciding how much of the new
  breadth signal enters the node's running memory:
  ``i, f, o = σ(tmp W_{i,f,o})``, ``C' = f ⊙ C + i ⊙ tanh(tmp W_c)``,
  ``h' = o ⊙ tanh(C')``.

The per-node state is ``(h, C)``; to keep the GraphInfer contract (one
embedding vector per node per round) a layer's output is the packed matrix
``[h' || C']``.  The first layer takes raw features and projects them
(``first=True``); the last layer emits ``h'`` alone for the prediction head
(``last=True``).
"""

from __future__ import annotations

import numpy as np

from repro.nn import init, ops
from repro.nn.gnn.base import GNNLayer, GNNModel
from repro.nn.gnn.block import EdgeBlock
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor
from repro.utils.rng import new_rng

__all__ = ["GeniePathLayer", "GeniePathModel"]


class GeniePathLayer(GNNLayer):
    kind = "geniepath"

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        first: bool = False,
        last: bool = False,
        seed: int | np.random.Generator | None = None,
    ):
        super().__init__()
        rng = new_rng(seed)
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.first = first
        self.last = last
        d = hidden_dim
        if first:
            self.w_x = Parameter(init.xavier_uniform((in_dim, d), rng))
        # breadth (attention)
        self.w_src = Parameter(init.xavier_uniform((d, d), rng))
        self.w_dst = Parameter(init.xavier_uniform((d, d), rng))
        self.v_att = Parameter(init.xavier_uniform((d, 1), rng))
        self.w_t = Parameter(init.xavier_uniform((d, d), rng))
        # depth (LSTM gates)
        self.w_i = Parameter(init.xavier_uniform((d, d), rng))
        self.w_f = Parameter(init.xavier_uniform((d, d), rng))
        self.w_o = Parameter(init.xavier_uniform((d, d), rng))
        self.w_c = Parameter(init.xavier_uniform((d, d), rng))

    @property
    def output_dim(self) -> int:
        return self.hidden_dim if self.last else 2 * self.hidden_dim

    def slice_config(self) -> dict:
        return {
            "in_dim": self.in_dim,
            "hidden_dim": self.hidden_dim,
            "first": self.first,
            "last": self.last,
        }

    # ----------------------------------------------------------- state prep
    def _unpack(self, state: Tensor) -> tuple[Tensor, Tensor]:
        """``state`` -> (h, C): project raw features on the first layer."""
        d = self.hidden_dim
        if self.first:
            h = state @ self.w_x
            c = Tensor(np.zeros((state.shape[0], d), dtype=np.float32))
            return h, c
        return ops.slice_cols(state, 0, d), ops.slice_cols(state, d, 2 * d)

    # ---------------------------------------------------------------- batch
    def forward(self, state: Tensor, block: EdgeBlock) -> Tensor:
        h, c = self._unpack(state)
        n = block.num_nodes

        # adaptive breadth: attention over in-edge neighbors
        src_part = ops.gather_rows(h @ self.w_src, block.src)
        dst_part = ops.gather_rows(h @ self.w_dst, block.dst)
        scores = (ops.tanh(src_part + dst_part) @ self.v_att).reshape(block.num_edges)
        alpha = ops.segment_softmax(scores, block.dst, n, row_offsets=block.kernel_offsets)
        messages = ops.gather_rows(h, block.src) * alpha.reshape(block.num_edges, 1)
        agg = ops.segment_sum(messages, block.dst, n, row_offsets=block.kernel_offsets)
        tmp = ops.tanh(agg @ self.w_t)

        # adaptive depth: LSTM gate over the running memory
        gate_i = ops.sigmoid(tmp @ self.w_i)
        gate_f = ops.sigmoid(tmp @ self.w_f)
        gate_o = ops.sigmoid(tmp @ self.w_o)
        candidate = ops.tanh(tmp @ self.w_c)
        c_next = gate_f * c + gate_i * candidate
        h_next = gate_o * ops.tanh(c_next)
        if self.last:
            return h_next
        return ops.concat([h_next, c_next], axis=1)


class GeniePathModel(GNNModel):
    """Input projection + T adaptive-path layers + dense head.

    Dropout defaults to 0: dropping LSTM memory cells between layers is not
    part of the GeniePath recipe.
    """

    name = "geniepath"

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        num_classes: int,
        num_layers: int = 2,
        seed: int | None = 0,
    ):
        layers = [
            GeniePathLayer(
                in_dim if k == 0 else 2 * hidden_dim,
                hidden_dim,
                first=k == 0,
                last=k == num_layers - 1,
                seed=None if seed is None else seed + k,
            )
            for k in range(num_layers)
        ]
        super().__init__(layers, num_classes, dropout=0.0, seed=seed)
        self.config = {
            "in_dim": in_dim,
            "hidden_dim": hidden_dim,
            "num_classes": num_classes,
            "num_layers": num_layers,
        }
