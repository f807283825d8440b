"""Reverse-mode autodiff ``Tensor`` over numpy arrays.

Minimal but complete: a ``Tensor`` wraps a float32 ``numpy.ndarray``, records
its parents and a backward closure when built by an op, and ``backward()``
runs the reverse topological sweep accumulating ``grad`` on every tensor
with ``requires_grad``.

Design choices (kept deliberately boring):

* float32 everywhere — matches the GNN workloads and halves memory;
* gradients accumulate (``+=``) so shared sub-expressions are handled;
* broadcasting in forward ops is undone in backward by summing the grad over
  the broadcast axes (:func:`unbroadcast`);
* a per-thread switch (:func:`no_grad`) disables graph recording for
  inference paths, where AGL's GraphInfer runs millions of forwards — per
  thread, so reducers inferring on pool threads never turn recording off
  for a training thread;
* a product's rows are computed in fixed blocks of :data:`MATMUL_ROWS`
  (:func:`matmul`), so a row's bits never depend on which other rows share
  its batch — the property that lets GraphInfer batch its merges and still
  give every node the bits a one-sample batch gives it.

Composite ops and one-node blocks.  The ops of :mod:`repro.nn.ops` and the
arithmetic here are *composite*: a model built from them records a node
per op, and each node costs an object, a closure, a visit of the
topological sort and a copy of its gradient — on GNN batches of a few
hundred rows, more than the arithmetic.  The blocks a training step runs
on every batch — ``GraphSAGELayer``, ``Dense``, the link-prediction
readout and both losses — each record **one** node instead, over plain
arrays, with a hand-written backward.  The rule for such a block: it
computes, array for array, the values the composite tape of its
elementary ops would, with the same numpy expressions, so every loss and
every parameter keeps its bits (``tests/test_golden_trajectories.py`` pins
them against digests recorded on the composite tape).  Float addition is
commutative but not associative, so where an array receives gradient from
several uses, the block sums the contributions in the order the tape's
reverse sweep accumulated them: for two contributions any order gives the
same bits; from three on, the order is read off the composite tape and
pinned on large random batches (the BCE logits take four).  A block hands
its fresh gradient arrays to :meth:`Tensor._accumulate_owned`, which keeps
the first one instead of copying it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

__all__ = ["MATMUL_ROWS", "Tensor", "no_grad", "is_grad_enabled", "matmul", "unbroadcast"]


class _GradMode(threading.local):
    enabled = True


_GRAD = _GradMode()


def is_grad_enabled() -> bool:
    return _GRAD.enabled


@contextmanager
def no_grad():
    """Disable autograd recording inside the block, on this thread only
    (inference fast path)."""
    prev = _GRAD.enabled
    _GRAD.enabled = False
    try:
        yield
    finally:
        _GRAD.enabled = prev


MATMUL_ROWS = 64
"""Rows per BLAS call in :func:`matmul`.  BLAS picks its kernel and its
blocking from the operands' shapes, so a row of ``a @ b`` can change in the
last bits with the number of rows it is multiplied alongside (OpenBLAS does
so from a few hundred columns up).  Every call here has exactly this many
rows, so every row goes through the same kernel."""


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D ``a``, computed :data:`MATMUL_ROWS` rows at a time
    (the last block zero-padded): each row of the result depends on its own
    row of ``a`` and on ``b`` alone."""
    rows = a.shape[0]
    blocks = -(-rows // MATMUL_ROWS)
    if blocks * MATMUL_ROWS != rows:
        padded = np.zeros((blocks * MATMUL_ROWS, a.shape[1]), dtype=a.dtype)
        padded[:rows] = a
        a = padded
    out = a.reshape(blocks, MATMUL_ROWS, a.shape[1]) @ b
    return out.reshape(blocks * MATMUL_ROWS, b.shape[1])[:rows]


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting.

    Sums over leading extra axes, then over axes where ``shape`` had size 1.
    """
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A numpy array with an autograd tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        # Leaf tensors keep the requested flag even under no_grad(); only op
        # *recording* (see _make) is gated by the switch, mirroring PyTorch.
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None
        self.name = name

    # -------------------------------------------------------- construction
    @staticmethod
    def _make(data: np.ndarray, parents: tuple["Tensor", ...], backward_fn) -> "Tensor":
        """Internal: result tensor of an op, wired into the tape."""
        out = Tensor(data)
        if _GRAD.enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward_fn = backward_fn
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(np.float32, copy=True)
        else:
            self.grad += grad

    def _accumulate_owned(self, grad: np.ndarray) -> None:
        """:meth:`_accumulate` for a float32 array made for this call alone
        (a one-node block's backward): the first one is kept, not copied."""
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad

    # ------------------------------------------------------------ backward
    def backward(self, grad=None) -> None:
        """Reverse sweep from this tensor.

        ``grad`` defaults to ones (use a scalar loss).  Raises if called on a
        tensor that does not require grad — a silent no-op here usually means
        a training bug.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float32)
            if grad.shape != self.data.shape:
                raise ValueError(f"grad shape {grad.shape} != data shape {self.data.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
                # Free intermediate grads eagerly: only leaves keep them.
                if node._parents:
                    node.grad = None

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # ------------------------------------------------------------- helpers
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    # ----------------------------------------------------------- arithmetic
    def __add__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        out_data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(grad, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return Tensor._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        out_data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(unbroadcast(grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(grad * self.data, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        out_data = self.data / other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(unbroadcast(grad / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    unbroadcast(-grad * self.data / (other.data**2), other.data.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError(
                f"matmul expects 2-D operands, got {self.data.shape} @ {other.data.shape}"
            )
        out_data = matmul(self.data, other.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ grad)

        return Tensor._make(out_data, (self, other), backward)

    # ----------------------------------------------------------- reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).astype(np.float32))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        denom = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / denom)

    # --------------------------------------------------------------- shapes
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self) -> "Tensor":
        if self.data.ndim != 2:
            raise ValueError("transpose() supports 2-D tensors")
        out_data = self.data.T.copy()

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.T)

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()
