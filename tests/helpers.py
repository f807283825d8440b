"""Test utilities: finite-difference gradient checking for the autograd ops,
a row shard under a committed ``_META.json`` (which every DFS reader must
refuse), the digest of a dataset's record stream, a reducer's input segment
built from value objects, and a training set wide enough for BLAS to
multithread its products."""

from __future__ import annotations

import functools
import hashlib
import zlib

import numpy as np

from repro.nn.tensor import Tensor
from repro.proto.varint import encode_unsigned

__all__ = [
    "WIDE_BATCH",
    "WIDE_HIDDEN",
    "check_gradients",
    "column_segment",
    "commit_row_shard",
    "dataset_digest",
    "model_digest",
    "numeric_grad",
    "segment_of",
    "wide_model",
    "wide_training_set",
]

WIDE_HIDDEN = 32
WIDE_BATCH = 64
"""At this hidden width and batch size a batch holds well over 300 nodes,
so a layer's ``(nodes x 32) @ (32 x 32)`` product is above OpenBLAS's
multithreading threshold (M*N*K > 262 144): an unpinned BLAS would split
it across threads and round differently than on one."""


@functools.lru_cache(maxsize=1)
def wide_training_set():
    """``(dataset, samples)``: 1 500-node graph, 2-hop GraphFlat samples of
    its training nodes, 32 features."""
    from repro.core.graphflat import GraphFlatConfig, graph_flat
    from repro.datasets import uug_like

    ds = uug_like(
        seed=3, num_nodes=1500, avg_degree=8, feature_dim=32, num_hubs=2,
        hub_degree=150, feature_scale=0.12,
    )
    config = GraphFlatConfig(hops=2, max_neighbors=10, hub_threshold=10**9, seed=3)
    return ds, graph_flat(ds.nodes, ds.edges, ds.train_ids, config).samples


def wide_model(seed: int = 3):
    """2-layer GraphSAGE at hidden :data:`WIDE_HIDDEN` over
    :func:`wide_training_set`'s features."""
    from repro.nn.gnn import GraphSAGEModel

    return GraphSAGEModel(32, WIDE_HIDDEN, 2, num_layers=2, seed=seed)


def model_digest(model) -> str:
    """sha256 over a model's parameter names and bytes."""
    digest = hashlib.sha256()
    for name, value in sorted(model.state_dict().items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


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


def commit_row_shard(fs, name: str, records: list[bytes], kind: str = "samples"):
    """A dataset of one row shard — ``varint(len) varint(crc32) payload``
    per record, the framing datasets had before the columnar format —
    committed with a ``_META.json`` like any other.  Returns the shard
    path, which every reader's ``CodecError`` must name."""
    path = fs.prepare_dataset(name) / "part-00000"
    with open(path, "wb") as fh:
        for record in records:
            fh.write(encode_unsigned(len(record)))
            fh.write(encode_unsigned(zlib.crc32(record)))
            fh.write(record)
    fs.finalize_dataset(name, kind=kind, record_counts=[len(records)])
    return path


def column_segment(column, bounds, keys):
    """The :class:`~repro.mapreduce.shuffle.Segment` whose values are the
    rows of ``column`` in order, group ``g`` the rows
    ``bounds[g]:bounds[g + 1]``."""
    from repro.mapreduce.shuffle import Segment

    index = np.arange(len(column))
    return Segment([column], np.zeros_like(index), index, np.asarray(bounds), keys)


def segment_of(groups: list[tuple]):
    """The :class:`~repro.mapreduce.shuffle.Segment` of the ``(key,
    values)`` groups ``groups`` (value objects), as an in-memory shuffle
    hands a partition on: the values one column, the keys an array when
    they are all plain ints."""
    from repro.proto.framing import columnize

    keys = [key for key, _ in groups]
    column = columnize([value for _, values in groups for value in values])
    bounds = np.concatenate(([0], np.cumsum([len(values) for _, values in groups])))
    if all(type(key) is int for key in keys):
        keys = np.asarray(keys, dtype=np.int64)
    return column_segment(column, bounds.astype(np.int64), keys)


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
