"""Loss functions for the paper's three tasks.

* ``softmax_cross_entropy`` — single-label node classification (Cora, UUG);
* ``bce_with_logits_loss`` — multi-label classification (PPI's 121 labels);
* ``l2_regularization`` — weight decay as an explicit loss term (the Cora
  GCN/GAT recipes use L2 on the first layer).
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["softmax_cross_entropy", "bce_with_logits_loss", "l2_regularization"]


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits (n, c)`` and int ``labels (n,)``,
    as one tape node (see :mod:`repro.nn.tensor` on one-node blocks)."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"logits must be (n, classes), got {logits.shape}")
    n, c = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match {n} logit rows")
    if len(labels) and (labels.min() < 0 or labels.max() >= c):
        raise ValueError("label id out of range")
    x = logits.data
    shifted = x - x.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = (shifted - log_z).astype(np.float32)
    onehot = np.zeros((n, c), dtype=np.float32)
    onehot[np.arange(n), labels] = 1.0
    scale = np.float32(1.0 / max(n, 1))
    loss = -(log_probs * onehot).sum() * scale

    def backward(grad):
        g = np.broadcast_to(-(grad * scale), (n, c)) * onehot
        soft = np.exp(log_probs)
        logits._accumulate_owned(g - soft * g.sum(axis=-1, keepdims=True))

    return Tensor._make(loss, (logits,), backward)


def bce_with_logits_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Numerically-stable mean binary cross-entropy over all entries, as one
    tape node (see :mod:`repro.nn.tensor` on one-node blocks).

    Uses the identity ``BCE(x, t) = max(x, 0) - x t + log(1 + exp(-|x|))``
    with ``max(x, 0) = relu(x)`` and ``|x| = relu(x) + relu(-x)``.
    """
    targets = np.asarray(targets, dtype=np.float32)
    if targets.shape != logits.shape:
        raise ValueError(f"targets shape {targets.shape} != logits shape {logits.shape}")
    x = logits.data
    positive = (x > 0).astype(np.float32)
    negative = (-x > 0).astype(np.float32)
    relu_x = x * positive
    exp_neg_abs = np.exp(-(relu_x + -x * negative))
    softplus_arg = exp_neg_abs + np.float32(1.0)
    per_entry = relu_x + -(x * targets) + np.log(softplus_arg)
    scale = np.float32(1.0 / x.size)
    loss = per_entry.sum() * scale

    def backward(grad):
        g = np.broadcast_to(grad * scale, x.shape)
        # d/d|x| of the softplus term, through log, + 1 and exp(-|x|)
        g_abs = -(g / softplus_arg * exp_neg_abs)
        # the four uses of x, in the order the elementary tape summed them:
        # relu(x) of max(x, 0), x t, relu(x) of |x|, relu(-x) of |x|
        g_x = g * positive
        g_x += -g * targets
        g_x += g_abs * positive
        g_x += -(g_abs * negative)
        logits._accumulate_owned(g_x)

    return Tensor._make(loss, (logits,), backward)


def l2_regularization(params: list[Tensor], weight: float) -> Tensor:
    """``weight * sum_i ||p_i||^2`` as a differentiable loss term."""
    if not params:
        raise ValueError("no parameters to regularise")
    total = (params[0] ** 2).sum()
    for p in params[1:]:
        total = total + (p**2).sum()
    return total * weight
