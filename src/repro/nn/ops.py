"""Differentiable operators: activations, softmax, dropout, and the
graph-segment ops (gather / segment-sum / segment-max / segment-softmax)
that GNN aggregation is built from.

The *segment* ops are the performance-critical path of the whole system:
"aggregate information for each node along its edges in the sparse adjacent
matrix" (§3.3.2).  ``segment_sum`` has two forwards.  Given the
destination-row offsets of sorted segment ids (what an
:class:`~repro.nn.gnn.block.EdgeBlock` keeps), it runs the sorted kernel
:func:`reduceat_sum` — GraphTrainer's **edge-partitioning** arm of Table 4;
without them, the generic unbuffered scatter :func:`scatter_sum` (AGL_base,
and GraphInfer).  Backward passes are the same either way (the gradient of
a segment sum is a gather).
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.tensor import Tensor, unbroadcast

__all__ = [
    "exp",
    "log",
    "sqrt",
    "clip",
    "relu",
    "leaky_relu",
    "elu",
    "sigmoid",
    "tanh",
    "ACTIVATION_KERNELS",
    "softmax",
    "log_softmax",
    "dropout",
    "slice_cols",
    "concat",
    "gather_rows",
    "segment_sum",
    "segment_sum_array",
    "segment_counts",
    "segment_mean",
    "segment_max",
    "segment_max_array",
    "segment_max_grad",
    "segment_softmax",
    "SEGMENT_ROWS",
    "reduceat_sum",
    "scatter_sum",
]


# --------------------------------------------------------------- elementwise
def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * out_data)

    return Tensor._make(out_data, (x,), backward)


def log(x: Tensor) -> Tensor:
    out_data = np.log(x.data)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad / x.data)

    return Tensor._make(out_data, (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    out_data = np.sqrt(x.data)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * 0.5 / out_data)

    return Tensor._make(out_data, (x,), backward)


def clip(x: Tensor, low: float, high: float) -> Tensor:
    out_data = np.clip(x.data, low, high)
    pass_through = ((x.data > low) & (x.data < high)).astype(np.float32)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * pass_through)

    return Tensor._make(out_data, (x,), backward)


# -------------------------------------------------------------- activations
# An activation kernel maps an array to ``(out, grad_of)``: its output, and
# the function that turns the output's gradient into the input's.  The ops
# below wrap one in a tape node; the one-node layer blocks (GraphSAGE, the
# dense head) call it on arrays inside their own node.
def _identity_kernel(x: np.ndarray):
    return x, lambda grad: grad


def _relu_kernel(x: np.ndarray):
    mask = (x > 0).astype(np.float32)
    return x * mask, lambda grad: grad * mask


def _leaky_relu_kernel(x: np.ndarray, negative_slope: float = 0.2):
    scale = np.where(x > 0, np.float32(1.0), np.float32(negative_slope))
    return x * scale, lambda grad: grad * scale


def _elu_kernel(x: np.ndarray, alpha: float = 1.0):
    neg = alpha * (np.exp(np.minimum(x, 0.0)) - 1.0)
    out = np.where(x > 0, x, neg).astype(np.float32)
    deriv = np.where(x > 0, np.float32(1.0), (neg + alpha).astype(np.float32))
    return out, lambda grad: grad * deriv


def _sigmoid_kernel(x: np.ndarray):
    out = 1.0 / (1.0 + np.exp(-x))
    return out.astype(np.float32), lambda grad: grad * out * (1.0 - out)


def _tanh_kernel(x: np.ndarray):
    out = np.tanh(x)
    return out, lambda grad: grad * (1.0 - out**2)


ACTIVATION_KERNELS = {
    None: _identity_kernel,
    "relu": _relu_kernel,
    "elu": _elu_kernel,
    "tanh": _tanh_kernel,
    "sigmoid": _sigmoid_kernel,
    "leaky_relu": _leaky_relu_kernel,
}
"""Activation name (as model configs spell it) -> array kernel."""


def _pointwise(x: Tensor, kernel) -> Tensor:
    out_data, grad_of = kernel(x.data)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad_of(grad))

    return Tensor._make(out_data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    return _pointwise(x, _relu_kernel)


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    return _pointwise(x, lambda data: _leaky_relu_kernel(data, negative_slope))


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    return _pointwise(x, lambda data: _elu_kernel(data, alpha))


def sigmoid(x: Tensor) -> Tensor:
    return _pointwise(x, _sigmoid_kernel)


def tanh(x: Tensor) -> Tensor:
    return _pointwise(x, _tanh_kernel)


# ------------------------------------------------------------------ softmax
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(grad):
        if x.requires_grad:
            inner = (grad * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (grad - inner))

    return Tensor._make(out_data.astype(np.float32), (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z

    def backward(grad):
        if x.requires_grad:
            soft = np.exp(out_data)
            x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data.astype(np.float32), (x,), backward)


# ------------------------------------------------------------------ dropout
def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when ``training`` is false or ``p == 0``."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= p).astype(np.float32) / np.float32(1.0 - p)
    return x * Tensor(keep)


def slice_cols(x: Tensor, low: int, high: int) -> Tensor:
    """Column slice ``x[:, low:high]``; grad zero-pads the complement.

    Used by models that pack several per-node states into one matrix (e.g.
    GeniePath's ``[h || C]`` LSTM state, which must ride through GraphInfer
    as a single embedding vector)."""
    if x.data.ndim != 2:
        raise ValueError("slice_cols expects a 2-D tensor")
    if not 0 <= low <= high <= x.data.shape[1]:
        raise ValueError(f"bad column range [{low}, {high}) for {x.data.shape}")
    out_data = x.data[:, low:high].copy()

    def backward(grad):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[:, low:high] = grad
            x._accumulate(gx)

    return Tensor._make(out_data, (x,), backward)


# ------------------------------------------------------------------- concat
def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    if not tensors:
        raise ValueError("concat of zero tensors")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(lo, hi)
                t._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), backward)


# -------------------------------------------------------------- graph ops --
def gather_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows ``x[indices]`` (axis 0); grad scatters back with
    :func:`scatter_sum`."""
    indices = np.asarray(indices, dtype=np.int64)
    out_data = x.data[indices]

    def backward(grad):
        if x.requires_grad:
            rows = grad.reshape((indices.size,) + x.data.shape[1:])
            x._accumulate_owned(scatter_sum(rows, indices.reshape(-1), len(x.data)))

    return Tensor._make(out_data, (x,), backward)


SEGMENT_ROWS = 512
"""Destination rows per ``np.add.reduceat`` call in :func:`reduceat_sum`.
One call over a large block misses cache: at 20 000 edges × 64 columns
(2 630 rows) it took 11.7 ms, against 5.2 ms in 512-row chunks.  Training
blocks have fewer rows than this (at most 437 in the benchmark workloads),
so they take one call.  Chunks change no bit: a chunk ends only where a
destination row ends, and ``reduceat`` sums each row in edge order either
way.  Measured single-threaded on a 2-vCPU Xeon VM (2 MiB L2 per core)."""


def _scatter_rows(ufunc: np.ufunc, out: np.ndarray, row_ids: np.ndarray, values: np.ndarray):
    """``ufunc.at(out, row_ids, values)`` for 1-D ``row_ids`` and ``values``
    aligned with them, run over flat views with one index per element.
    Each element still takes its values in ``row_ids`` order, so ``out``
    gets the bits of the row-wise call; but numpy's ``ufunc.at`` has a fast
    path for one flat index that the row-wise call misses (59 µs against
    228 µs for 1 390 rows of 16 on a 2-vCPU Xeon VM)."""
    width = math.prod(out.shape[1:])
    flat = (row_ids[:, None] * width + np.arange(width)).reshape(-1)
    ufunc.at(out.reshape(-1), flat, values.reshape(-1))


def scatter_sum(values: np.ndarray, segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    """Segment-sum forward by unbuffered ``np.add.at`` scatter, for segment
    ids in any order: AGL_base's aggregation in Table 4, and GraphInfer's;
    also every gather's backward.  A segment sums its rows in id order,
    starting from zero."""
    out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    _scatter_rows(np.add, out, segment_ids, values)
    return out


def reduceat_sum(
    values: np.ndarray, row_offsets: np.ndarray, row_ids: np.ndarray, num_segments: int
) -> np.ndarray:
    """Segment-sum forward over destination-sorted rows: row ``k`` is
    ``values[row_offsets[k]:row_offsets[k + 1]]`` and sums into segment
    ``row_ids[k]``.  One ``np.add.reduceat`` per :data:`SEGMENT_ROWS` rows;
    segments without a row stay zero."""
    out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    rows = len(row_ids)
    if rows <= SEGMENT_ROWS:  # one call over the whole block, nothing sliced
        if rows:
            out[row_ids] = np.add.reduceat(values, row_offsets[:-1], axis=0)
        return out
    for lo in range(0, rows, SEGMENT_ROWS):
        hi = min(lo + SEGMENT_ROWS, rows)
        first = row_offsets[lo]
        out[row_ids[lo:hi]] = np.add.reduceat(
            values[first : row_offsets[hi]], row_offsets[lo:hi] - first, axis=0
        )
    return out


def segment_sum_array(
    values: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    row_offsets: np.ndarray | None = None,
) -> np.ndarray:
    """The forward of :func:`segment_sum` on arrays (``segment_ids`` int64)."""
    if segment_ids.ndim != 1 or len(segment_ids) != values.shape[0]:
        raise ValueError("segment_ids must be 1-D and aligned with values rows")
    if row_offsets is None:
        if len(segment_ids) and (segment_ids.min() < 0 or segment_ids.max() >= num_segments):
            raise ValueError("segment id out of range")
        return scatter_sum(values, segment_ids, num_segments)
    if row_offsets[-1] != len(segment_ids):
        raise ValueError(
            f"row_offsets end at {row_offsets[-1]}, not at these "
            f"{len(segment_ids)} segment ids: they belong to another block"
        )
    row_ids = segment_ids[row_offsets[:-1]]
    if len(row_ids) and (row_ids[0] < 0 or row_ids[-1] >= num_segments):
        raise ValueError("segment id out of range")
    return reduceat_sum(values, row_offsets, row_ids, num_segments)


def segment_sum(
    values: Tensor,
    segment_ids: np.ndarray,
    num_segments: int,
    row_offsets: np.ndarray | None = None,
) -> Tensor:
    """Sum ``values`` rows into ``num_segments`` buckets by ``segment_ids``.

    With ``row_offsets`` — for sorted ``segment_ids``, the index where each
    run of one id starts, then ``len(segment_ids)``, as an
    :class:`~repro.nn.gnn.block.EdgeBlock` keeps them — the forward is
    :func:`reduceat_sum`; without, :func:`scatter_sum`.  The two agree to
    float tolerance (they add in different orders).  The backward is always
    ``grad[segment_ids]`` (a gather).
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out_data = segment_sum_array(values.data, segment_ids, num_segments, row_offsets)

    def backward(grad):
        if values.requires_grad:
            values._accumulate(grad[segment_ids])

    return Tensor._make(out_data, (values,), backward)


def segment_counts(segment_ids: np.ndarray, num_segments: int, ndim: int) -> np.ndarray:
    """Rows per segment as float32, clamped to 1 (an empty segment's average
    is zero), shaped to divide a ``ndim``-D segment sum."""
    counts = np.bincount(segment_ids, minlength=num_segments).astype(np.float32)
    return np.maximum(counts, 1.0).reshape((num_segments,) + (1,) * (ndim - 1))


def segment_mean(
    values: Tensor,
    segment_ids: np.ndarray,
    num_segments: int,
    row_offsets: np.ndarray | None = None,
) -> Tensor:
    """Segment average; empty segments yield zeros (count clamped to 1).

    The sum is divided by the count (not multiplied by its reciprocal), as
    ``np.mean`` does: a node's average has the bits of the mean of its rows."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    counts = segment_counts(segment_ids, num_segments, values.data.ndim)
    total = segment_sum(values, segment_ids, num_segments, row_offsets)
    return total / Tensor(counts)


def segment_max_array(
    values: np.ndarray, segment_ids: np.ndarray, num_segments: int
) -> np.ndarray:
    """The forward of :func:`segment_max` on arrays (``segment_ids`` int64)."""
    out = np.full((num_segments,) + values.shape[1:], -np.inf, dtype=np.float32)
    _scatter_rows(np.maximum, out, segment_ids, values)
    empty = ~np.isin(np.arange(num_segments), segment_ids)
    if empty.any():
        out[empty] = 0.0
    return out


def segment_max_grad(
    grad: np.ndarray,
    values: np.ndarray,
    out: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
) -> np.ndarray:
    """The gradient of ``values`` under ``out = segment_max_array(values,
    ...)``: each segment's gradient goes to the rows that reach its max,
    split equally between exact ties."""
    winners = (values == out[segment_ids]).astype(np.float32)
    # Split gradient across ties so total gradient mass is preserved.
    tie_count = scatter_sum(winners, segment_ids, num_segments)
    tie_count = np.maximum(tie_count, 1.0)
    return grad[segment_ids] * winners / tie_count[segment_ids]


def segment_max(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Per-segment elementwise max (GraphSAGE max-pooling aggregator).

    Empty segments produce zeros.  Gradient is routed to the max-achieving
    rows; exact ties split the gradient equally (ties have measure zero for
    continuous activations, so this choice is invisible in practice).
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out_data = segment_max_array(values.data, segment_ids, num_segments)

    def backward(grad):
        if values.requires_grad:
            values._accumulate(
                segment_max_grad(grad, values.data, out_data, segment_ids, num_segments)
            )

    return Tensor._make(out_data, (values,), backward)


def segment_softmax(
    scores: Tensor,
    segment_ids: np.ndarray,
    num_segments: int,
    row_offsets: np.ndarray | None = None,
) -> Tensor:
    """Softmax over each segment (GAT attention normalisation, per head).

    ``scores`` has shape ``(num_edges, ...)``; softmax is taken across the
    rows sharing a segment id, independently per trailing position.  Built
    by composing differentiable segment primitives, so the backward pass
    needs no bespoke math.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    # Stabilise: subtract the per-segment running max (constant wrt autograd —
    # the classic softmax shift-invariance trick).
    tail = scores.data.shape[1:]
    seg_max = np.full((num_segments,) + tail, -np.inf, dtype=np.float32)
    np.maximum.at(seg_max, segment_ids, scores.data)
    seg_max[~np.isfinite(seg_max)] = 0.0
    shifted = scores - Tensor(seg_max[segment_ids])
    exp_scores = exp(shifted)
    denom = segment_sum(exp_scores, segment_ids, num_segments, row_offsets)
    denom_edges = gather_rows(denom, segment_ids)
    return exp_scores / denom_edges
