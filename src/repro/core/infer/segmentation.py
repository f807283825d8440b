"""Hierarchical model segmentation (§3.4, step 1).

"A K-layer GNN model is split into K+1 slices in terms of the model
hierarchy: the kth slice consists of all parameters of the kth GNN layer,
while the K+1th slice consists of all parameters of the final prediction
model."

A :class:`ModelSlice` is self-contained — (kind, constructor config,
state) — so a MapReduce reducer can load exactly its slice without the rest
of the model.  The K+1 slices of a run travel together as one
:class:`ModelSlices` side input (:func:`~repro.mapreduce.partition.publish`,
like the out-edges): held by reference when tasks
stay in-process, encoded once into one shared-memory slab when they are
pickled — a pickled reducer then carries a locator and its slice index, no
parameter array.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np

from repro.nn.gnn.base import GNNModel
from repro.nn.gnn.registry import build_layer

__all__ = ["ModelSlice", "ModelSlices", "segment_model"]


@dataclass
class ModelSlice:
    """One slice of a segmented model."""

    index: int
    kind: str
    config: dict
    state: dict[str, np.ndarray]

    def materialize(self):
        """Rebuild the runnable layer (reducer-side "load its model
        slice"); the layer holds copies of the state's values."""
        return build_layer(self.kind, self.config, self.state)

    @property
    def is_prediction(self) -> bool:
        return self.kind == "dense_head"

    def num_parameters(self) -> int:
        return int(sum(v.size for v in self.state.values()))


@dataclass(frozen=True)
class ModelSlices:
    """A segmented model's K+1 slices as one side input: slice ``k - 1`` is
    round ``k``'s layer, the last one the prediction slice."""

    slices: tuple[ModelSlice, ...]

    def __getitem__(self, index: int) -> ModelSlice:
        return self.slices[index]

    def encode(self) -> bytes:
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def decode(cls, data: bytes) -> "ModelSlices":
        return pickle.loads(data)


def segment_model(model: GNNModel) -> list[ModelSlice]:
    """Split a trained model into its K+1 slices."""
    slices = [
        ModelSlice(i, kind, config, state)
        for i, (kind, config, state) in enumerate(model.layer_slices())
    ]
    if not slices or not slices[-1].is_prediction:
        raise ValueError("model segmentation must end with the prediction slice")
    return slices
