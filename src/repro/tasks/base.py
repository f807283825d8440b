"""The ``Task`` plugin layer — what the pipelines dispatch through.

AGL's pipelines (§3.2-§3.4) are written for homogeneous node
classification, but the system framing ("industrial-purpose") covers the
whole task zoo: link prediction, edge classification, typed graphs.  A
:class:`Task` object encapsulates everything task-specific so GraphFlat,
GraphTrainer and GraphInfer stay task-agnostic:

* **target extraction** — node-level tasks take the labeled node set;
  edge-level tasks build an :class:`EdgeTargets` table (for link
  prediction including seeded negative edges), and GraphFlat materialises
  the k-hop neighborhood of *both* endpoints per target edge.
* **readout + loss** — node-level tasks keep the model's classification
  head on target rows; edge-level tasks score an endpoint *pair*
  (Hadamard-product readout: parameter-free dot product for link
  prediction, the dense head over ``h_src * h_dst`` for edge
  classification).
* **inference scoring** — the numpy-only form of the same readout, used by
  GraphInfer's final reduce where no autograd is needed.

Tasks are frozen dataclasses (picklable — they ride inside MapReduce
operators under the ``processes`` backend) and must stay deterministic:
``build_edge_targets`` is parent-side and seeded, so task re-execution,
speculation and backend choice cannot change the target table.

Layering: this package imports only ``repro.graph`` / ``repro.nn``
primitives; the pipelines under ``repro.core`` import *us*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EDGE_TASKS",
    "EdgeTargets",
    "Task",
    "TASK_REGISTRY",
    "make_task",
    "register_task",
]

EDGE_TASKS = ("link_prediction", "edge_classification")
"""Task names whose targets are node *pairs*, not single nodes."""


@dataclass(frozen=True)
class EdgeTargets:
    """The target-edge table an edge-level task trains/infers over.

    ``src``/``dst`` are global node ids; ``labels`` is an aligned int64
    vector (0/1 for link prediction — positives first, then sampled
    negatives — or class ids for edge classification).  The row index is
    the *sample id*: it keys the emitted GraphFeature, the columnar shard
    row, and the prediction record, exactly as the node id does for node
    classification.
    """

    src: np.ndarray
    dst: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "src", np.asarray(self.src, dtype=np.int64))
        object.__setattr__(self, "dst", np.asarray(self.dst, dtype=np.int64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.src.shape != self.dst.shape or self.src.ndim != 1:
            raise ValueError("EdgeTargets src/dst must be aligned 1-D arrays")
        if self.labels.shape != self.src.shape:
            raise ValueError("EdgeTargets labels must align with src/dst")

    def __len__(self) -> int:
        return len(self.src)

    @property
    def endpoint_ids(self) -> np.ndarray:
        """Sorted unique node ids appearing as either endpoint."""
        return np.unique(np.concatenate([self.src, self.dst]))


@dataclass(frozen=True)
class Task:
    """Base task: node-level semantics; subclasses override the hooks."""

    name = "abstract"
    edge_level = False

    # ------------------------------------------------------------- GraphFlat
    def build_edge_targets(
        self,
        nodes,
        edges,
        *,
        seed: int = 0,
        max_targets: int | None = None,
        negative_ratio: int = 1,
    ) -> EdgeTargets:
        """Target-edge table for edge-level tasks (edge tasks override)."""
        raise NotImplementedError(f"task {self.name!r} has no edge targets")

    # --------------------------------------------------------- trainer hooks
    def readout(self, h_targets, pair_index: np.ndarray, head):
        """Differentiable logits for a batch.

        ``h_targets`` is the ``(T, d)`` tensor of embeddings for the
        batch's merged (sorted, deduped) target node ids; ``pair_index``
        is the ``(B, 2)`` row-index table mapping each sample's
        ``(src, dst)`` into it; ``head`` is the model's dense head.
        """
        raise NotImplementedError

    def loss(self, logits, labels: np.ndarray):
        """Differentiable training loss for :meth:`readout` logits."""
        raise NotImplementedError

    def scores(self, logits: np.ndarray) -> np.ndarray:
        """Per-sample score the evaluation metric consumes."""
        return logits

    @property
    def default_metric(self) -> str:
        return "accuracy"

    # ----------------------------------------------------------- infer hooks
    def infer_scores(
        self,
        h_src: np.ndarray,
        h_dst: np.ndarray,
        head_weight: np.ndarray | None,
        head_bias: np.ndarray | None,
    ) -> np.ndarray:
        """Numpy-only ``(E, c)`` scores of a batch of target edges from
        their ``(E, d)`` endpoint embeddings (GraphInfer's final reduce,
        one call per batch); must match :meth:`readout` on the same
        embeddings, each edge's scores with the bits of that edge alone."""
        raise NotImplementedError


TASK_REGISTRY: dict[str, Task] = {}


def register_task(task: Task) -> Task:
    """Register a task instance under ``task.name`` (idempotent per name)."""
    existing = TASK_REGISTRY.get(task.name)
    if existing is not None and type(existing) is not type(task):
        raise ValueError(f"task {task.name!r} already registered")
    TASK_REGISTRY[task.name] = task
    return task


def make_task(name: str) -> Task:
    if name not in TASK_REGISTRY:
        raise KeyError(f"unknown task {name!r}; known: {sorted(TASK_REGISTRY)}")
    return TASK_REGISTRY[name]
