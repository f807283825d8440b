"""Autograd engine: forward values, backward gradients, graph mechanics."""

import threading

import numpy as np
import pytest

from repro.nn import Tensor, is_grad_enabled, no_grad
from repro.nn.tensor import MATMUL_ROWS, unbroadcast

from .helpers import check_gradients


class TestForwardValues:
    def test_add_matches_numpy(self, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((3, 4)).astype(np.float32)
        np.testing.assert_allclose((Tensor(a) + Tensor(b)).data, a + b)

    def test_broadcast_add_bias(self, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        np.testing.assert_allclose((Tensor(a) + Tensor(b)).data, a + b)

    def test_matmul(self, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((4, 5)).astype(np.float32)
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b, rtol=1e-6)

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3)) @ Tensor(np.ones(3))

    def test_scalar_ops(self):
        t = Tensor(np.array([1.0, 2.0]))
        np.testing.assert_allclose((2 * t + 1).data, [3.0, 5.0])
        np.testing.assert_allclose((1 - t).data, [0.0, -1.0])
        np.testing.assert_allclose((t / 2).data, [0.5, 1.0])
        np.testing.assert_allclose((2 / t).data, [2.0, 1.0])
        np.testing.assert_allclose((t**2).data, [1.0, 4.0])

    def test_sum_axis_keepdims(self, rng):
        a = rng.standard_normal((2, 5)).astype(np.float32)
        np.testing.assert_allclose(Tensor(a).sum(axis=1, keepdims=True).data, a.sum(1, keepdims=True))

    def test_mean(self, rng):
        a = rng.standard_normal((4, 3)).astype(np.float32)
        np.testing.assert_allclose(Tensor(a).mean().data, a.mean(), rtol=1e-6)
        np.testing.assert_allclose(Tensor(a).mean(axis=0).data, a.mean(0), rtol=1e-6)

    def test_reshape_transpose(self, rng):
        a = rng.standard_normal((2, 6)).astype(np.float32)
        np.testing.assert_allclose(Tensor(a).reshape(3, 4).data, a.reshape(3, 4))
        np.testing.assert_allclose(Tensor(a).T.data, a.T)


class TestBackward:
    def test_add_mul_chain(self, rng):
        arrays = {
            "a": rng.standard_normal((3, 4)),
            "b": rng.standard_normal((3, 4)),
        }
        check_gradients(lambda t: ((t["a"] * t["b"]) + t["a"]).sum(), arrays)

    def test_matmul_grads(self, rng):
        arrays = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((4, 2))}
        check_gradients(lambda t: (t["a"] @ t["b"]).sum(), arrays)

    def test_broadcast_bias_grad(self, rng):
        arrays = {"x": rng.standard_normal((5, 3)), "b": rng.standard_normal((3,))}
        check_gradients(lambda t: ((t["x"] + t["b"]) ** 2).sum(), arrays)

    def test_div_grads(self, rng):
        arrays = {
            "a": rng.standard_normal((3,)) + 3.0,
            "b": rng.standard_normal((3,)) + 3.0,
        }
        check_gradients(lambda t: (t["a"] / t["b"]).sum(), arrays)

    def test_shared_subexpression_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 5
        y.backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2).backward()
        (x * 3).backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_mean_grad(self, rng):
        arrays = {"a": rng.standard_normal((4, 3))}
        check_gradients(lambda t: t["a"].mean(), arrays)

    def test_reshape_transpose_grads(self, rng):
        arrays = {"a": rng.standard_normal((2, 6))}
        check_gradients(lambda t: (t["a"].reshape(3, 4).T ** 2).sum(), arrays)

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(2)).backward()

    def test_backward_shape_check(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward(np.ones(4))

    def test_diamond_graph_topological_order(self):
        # x feeds both branches; the join must see both contributions.
        x = Tensor(np.array([3.0]), requires_grad=True)
        a = x * 2
        b = x * 5
        ((a + b) * (a - b)).backward()  # d/dx (4x^2 - 25x^2) = -42x
        np.testing.assert_allclose(x.grad, [-126.0])


class TestNoGrad:
    def test_no_graph_recorded(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_leaf_keeps_flag_under_no_grad(self):
        with no_grad():
            p = Tensor(np.ones(2), requires_grad=True)
        assert p.requires_grad

    def test_detach(self):
        x = Tensor(np.ones(3), requires_grad=True)
        assert not x.detach().requires_grad

    def test_mode_is_per_thread(self):
        """Two inference threads enter and leave ``no_grad`` interleaved (A
        in, B in, A out, B out) and a training thread records and runs
        backward while both are inside: the training thread is never
        affected, and recording is still on everywhere afterwards."""
        a_in, b_in, trained, a_out, b_out = (threading.Event() for _ in range(5))
        seen = {}

        def infer(name, wait_in, entered, wait_out, left):
            if wait_in is not None:
                wait_in.wait(5)
            with no_grad():
                seen[name] = is_grad_enabled()
                entered.set()
                wait_out.wait(5)
            left.set()

        def train():
            x = Tensor(np.ones(3), requires_grad=True)
            (x * 2).sum().backward()
            seen["train"] = (is_grad_enabled(), x.grad.tolist())
            trained.set()

        a = threading.Thread(target=infer, args=("a", None, a_in, trained, a_out))
        b = threading.Thread(target=infer, args=("b", a_in, b_in, a_out, b_out))
        a.start()
        b.start()
        b_in.wait(5)
        trainer = threading.Thread(target=train)
        trainer.start()
        for thread in (trainer, a, b):
            thread.join(5)
        assert b_out.is_set()
        assert seen == {"a": False, "b": False, "train": (True, [2.0, 2.0, 2.0])}
        assert is_grad_enabled()
        x = Tensor(np.ones(2), requires_grad=True)
        assert (x * 3).requires_grad


class TestMatmulRows:
    @pytest.mark.parametrize("width,out", [(1433, 8), (1433, 16), (32, 32)])
    def test_row_independent_of_batch(self, rng, width, out):
        """A row of a product has the same bits whichever other rows are
        multiplied alongside it, even where BLAS picks its kernel by the
        row count."""
        x = rng.standard_normal((3 * MATMUL_ROWS + 5, width)).astype(np.float32)
        w = rng.standard_normal((width, out)).astype(np.float32)
        full = (Tensor(x) @ Tensor(w)).data
        for rows in (1, 3, 37, MATMUL_ROWS, MATMUL_ROWS + 1, 150):
            pick = np.sort(rng.choice(len(x), rows, replace=False))
            part = (Tensor(x[pick]) @ Tensor(w)).data
            assert np.array_equal(part, full[pick]), rows
        np.testing.assert_allclose(full, x @ w, rtol=1e-4, atol=1e-4)

    def test_empty_and_gradient(self, rng):
        w = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
        assert (Tensor(np.zeros((0, 4))) @ w).shape == (0, 3)
        x = Tensor(rng.standard_normal((MATMUL_ROWS + 6, 4)).astype(np.float32), requires_grad=True)
        (x @ w).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((len(x.data), 3)) @ w.data.T, rtol=1e-6)
        np.testing.assert_allclose(w.grad, x.data.T @ np.ones((len(x.data), 3)), rtol=1e-5)


class TestUnbroadcast:
    def test_leading_axis(self):
        g = np.ones((5, 3))
        np.testing.assert_allclose(unbroadcast(g, (3,)), np.full(3, 5.0))

    def test_kept_singleton(self):
        g = np.ones((5, 3))
        np.testing.assert_allclose(unbroadcast(g, (5, 1)), np.full((5, 1), 3.0))

    def test_identity(self):
        g = np.ones((2, 2))
        assert unbroadcast(g, (2, 2)) is g
