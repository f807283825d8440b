"""Generic dense layers shared by every GNN model and the prediction head."""

from __future__ import annotations

import numpy as np

from repro.nn import init, ops
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, matmul
from repro.utils.rng import new_rng

__all__ = ["Dense", "Dropout"]


class Dense(Module):
    """Affine layer ``y = act(x W + b)``.

    ``activation`` is one of ``None | "relu" | "elu" | "tanh" | "sigmoid" |
    "leaky_relu"`` — string-keyed so model configs stay serialisable.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        activation: str | None = None,
        use_bias: bool = True,
        seed: int | np.random.Generator | None = None,
    ):
        super().__init__()
        if activation not in ops.ACTIVATION_KERNELS:
            raise ValueError(f"unknown activation {activation!r}")
        rng = new_rng(seed)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.weight = Parameter(init.xavier_uniform((in_dim, out_dim), rng), name="weight")
        self.bias = Parameter(init.zeros(out_dim), name="bias") if use_bias else None

    def forward(self, x: Tensor) -> Tensor:
        """One tape node, with a hand-written backward that computes, array
        for array, what the tape of its elementary ops computed."""
        if x.data.ndim != 2:
            raise ValueError(f"Dense expects a 2-D input, got {x.data.shape}")
        weight, bias = self.weight, self.bias
        out = matmul(x.data, weight.data)
        if bias is not None:
            out = out + bias.data
        out, grad_of = ops.ACTIVATION_KERNELS[self.activation](out)

        def backward(grad):
            g = grad_of(grad)
            if bias is not None and bias.requires_grad:
                bias._accumulate_owned(g.sum(axis=0))
            if weight.requires_grad:
                weight._accumulate_owned(x.data.T @ g)
            if x.requires_grad:
                x._accumulate_owned(g @ weight.data.T)

        parents = (x, weight) if bias is None else (x, weight, bias)
        return Tensor._make(out, parents, backward)


class Dropout(Module):
    """Module wrapper over :func:`repro.nn.ops.dropout` with its own RNG."""

    def __init__(self, p: float, seed: int | np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = new_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return ops.dropout(x, self.p, self._rng, training=self.training)
