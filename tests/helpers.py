"""Test utilities: finite-difference gradient checking for the autograd ops,
the legacy row dataset the DFS readers are checked against, and the digest
of a dataset's record stream."""

from __future__ import annotations

import hashlib

import numpy as np

from repro.nn.tensor import Tensor
from repro.proto.codec import encode_prediction

__all__ = ["numeric_grad", "check_gradients", "dataset_digest", "write_legacy_row_dataset"]


def dataset_digest(fs, name: str) -> tuple[str, int]:
    """sha256 over the length-prefixed records of ``read_dataset(name)``, and
    how many there were."""
    digest = hashlib.sha256()
    count = 0
    for record in fs.read_dataset(name):
        digest.update(len(record).to_bytes(8, "little"))
        digest.update(record)
        count += 1
    return digest.hexdigest(), count


def write_legacy_row_dataset(fs, name: str, result, num_shards: int = 3) -> list[bytes]:
    """What a pipeline run from before the columnar format left on disk: the
    in-memory result of ``graph_flat`` / ``graph_infer`` (run without ``fs``)
    as framed row shards.  The pipelines only write columnar shards; this is
    the dataset the *readers* — ``read_dataset``, ``count_records``,
    ``open_sample_source``, ``repro describe`` / ``graphtrainer`` — must keep
    serving.  Returns the wire records, i.e. the in-memory record stream."""
    if hasattr(result, "samples"):
        records, kind = list(result.samples), "samples"
        task = None if result.task == "node_classification" else result.task
    else:
        records = [encode_prediction(v, s) for v, s in result.scores.items()]
        kind, task = "predictions", None
    fs.write_dataset(
        name, records, num_shards=num_shards, layout="row", kind=kind, task=task
    )
    return records


def numeric_grad(fn, value: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar ``fn(value)`` w.r.t. ``value``."""
    grad = np.zeros_like(value, dtype=np.float64)
    flat = value.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = float(fn(value))
        flat[i] = orig - eps
        down = float(fn(value))
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return grad


def check_gradients(build_loss, arrays: dict[str, np.ndarray], rtol=5e-2, atol=5e-3):
    """Compare autograd gradients of ``build_loss(tensors) -> Tensor`` (a
    scalar) against finite differences for every array in ``arrays``.

    ``build_loss`` receives a dict of fresh ``Tensor`` leaves each call, so
    it must be a pure function of them.
    """
    tensors = {k: Tensor(v.copy(), requires_grad=True) for k, v in arrays.items()}
    loss = build_loss(tensors)
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise AssertionError("build_loss must return a scalar")
    loss.backward()

    for name, value in arrays.items():
        def scalar_fn(v, name=name):
            local = {
                k: Tensor(v.copy() if k == name else arrays[k].copy()) for k in arrays
            }
            return build_loss(local).data

        expected = numeric_grad(scalar_fn, value.astype(np.float64).copy())
        got = tensors[name].grad
        assert got is not None, f"no gradient for {name}"
        np.testing.assert_allclose(
            got, expected, rtol=rtol, atol=atol, err_msg=f"gradient mismatch for {name}"
        )
