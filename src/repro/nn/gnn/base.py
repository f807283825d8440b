"""Abstract bases: ``GNNLayer`` (Equation 1) and ``GNNModel`` (stacked
layers + prediction head), plus the serialisable layer-slice protocol that
GraphInfer's hierarchical model segmentation uses (§3.4).
"""

from __future__ import annotations

import numpy as np

from repro.nn import ops
from repro.nn.gnn.block import BatchInputs, EdgeBlock
from repro.nn.layers import Dense, Dropout
from repro.nn.module import Module, ModuleList
from repro.nn.tensor import Tensor

__all__ = ["GNNLayer", "GNNModel"]


class GNNLayer(Module):
    """One message-passing layer φ^(k) of Equation 1.

    :meth:`forward` is the layer's only definition:
    ``H^(k+1) = Φ^(k)(H^(k), A_B, E_B; W)`` over an :class:`EdgeBlock`.
    GraphTrainer runs it over a batch's merged subgraph; GraphInfer's
    reducers run it under ``no_grad`` over one block per merge batch (the
    batch's own rows, then their sampled in-neighbours' rows), so both
    pipelines compute each node with the same arithmetic.

    ``slice_config()`` must return constructor kwargs sufficient for
    :func:`repro.nn.gnn.registry.build_layer` to rebuild the layer, which
    together with ``state_dict()`` forms a model slice.
    """

    kind: str = "abstract"

    def forward(self, h: Tensor, block: EdgeBlock) -> Tensor:  # pragma: no cover
        raise NotImplementedError

    def slice_config(self) -> dict:  # pragma: no cover
        raise NotImplementedError

    @property
    def output_dim(self) -> int:  # pragma: no cover
        raise NotImplementedError


class GNNModel(Module):
    """K GNN layers + dropout + a dense prediction head.

    The forward pass follows the demo of Figure 6: vectorized subgraph in,
    per-layer (optionally pruned) adjacency, look-up of target rows, then the
    prediction head over target embeddings only (graph pruning already
    guarantees non-target rows beyond the receptive field are never read).
    """

    def __init__(
        self,
        layers: list[GNNLayer],
        num_classes: int,
        dropout: float = 0.0,
        seed: int | None = None,
    ):
        super().__init__()
        if not layers:
            raise ValueError("GNNModel needs at least one layer")
        self.layers = ModuleList(list(layers))
        self.num_layers = len(layers)
        self.num_classes = num_classes
        self.dropout = Dropout(dropout, seed=None if seed is None else seed + 7919)
        self.head = Dense(
            layers[-1].output_dim,
            num_classes,
            activation=None,
            seed=None if seed is None else seed + 104729,
        )

    # ---------------------------------------------------------------- train
    def embed(self, batch: BatchInputs) -> Tensor:
        """All-node embeddings ``H^(K)`` for the batch subgraph."""
        h = Tensor(batch.x)
        for k, layer in enumerate(self.layers):
            h = self.dropout(h)
            h = layer(h, batch.block_for_layer(k))
        return h

    def forward(self, batch: BatchInputs) -> Tensor:
        """Logits for the batch's **target** nodes only."""
        h = self.embed(batch)
        target_h = ops.gather_rows(h, batch.target_index)
        return self.head(target_h)

    # ---------------------------------------------------------------- infer
    def layer_slices(self) -> list[tuple[str, dict, dict[str, np.ndarray]]]:
        """Hierarchical model segmentation (§3.4): K+1 serialisable slices.

        Slice k (< K) is ``(kind, config, state)`` of GNN layer k; slice K is
        the prediction head.  Everything is plain dict/ndarray so a slice can
        be shipped to a reducer without this framework on the wire.
        """
        slices = [
            (layer.kind, layer.slice_config(), layer.state_dict()) for layer in self.layers
        ]
        head_config = {
            "in_dim": self.head.in_dim,
            "out_dim": self.head.out_dim,
            "activation": self.head.activation,
        }
        slices.append(("dense_head", head_config, self.head.state_dict()))
        return slices

    def predict_head(self, h: np.ndarray) -> np.ndarray:
        """Apply the prediction head to raw embeddings (numpy, no autograd)."""
        out = h @ self.head.weight.data
        if self.head.bias is not None:
            out = out + self.head.bias.data
        return out
