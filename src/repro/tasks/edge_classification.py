"""Edge classification — predict a class for a labeled edge ``(u, v)``.

GraphStorm-style (PAPERS.md) edge prediction: the target table is the set
of labeled rows of the edge table (``EdgeTable.labels``; ``-1`` means
unlabeled), and the readout feeds the Hadamard product of the endpoint
embeddings through the model's dense head — so ``num_classes`` and the
head shape mean exactly what they do for node classification, and
GraphInfer can score an edge from the endpoint embeddings plus the
segmented head slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tasks.base import EdgeTargets, Task, register_task

__all__ = ["EdgeClassification"]


@dataclass(frozen=True)
class EdgeClassification(Task):
    name = "edge_classification"
    edge_level = True

    def build_edge_targets(self, nodes, edges, *, seed=0, max_targets=None, negative_ratio=1):
        if edges.labels is None:
            raise ValueError(
                "edge classification needs a labeled edge table (EdgeTable.labels)"
            )
        src = np.asarray(edges.src, dtype=np.int64)
        dst = np.asarray(edges.dst, dtype=np.int64)
        labels = np.asarray(edges.labels, dtype=np.int64)
        keep = (labels >= 0) & (src != dst)
        src, dst, labels = src[keep], dst[keep], labels[keep]
        if len(src) == 0:
            raise ValueError("edge classification needs at least one labeled non-loop edge")
        if max_targets is not None and max_targets < len(src):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(seed, 0x45434C53))
            )
            pick = rng.choice(len(src), size=max_targets, replace=False)
            pick.sort()
            src, dst, labels = src[pick], dst[pick], labels[pick]
        return EdgeTargets(src, dst, labels)

    def readout(self, h_targets, pair_index, head):
        from repro.nn import ops

        h_src = ops.gather_rows(h_targets, pair_index[:, 0])
        h_dst = ops.gather_rows(h_targets, pair_index[:, 1])
        return head(h_src * h_dst)

    def loss(self, logits, labels):
        from repro.nn import softmax_cross_entropy

        return softmax_cross_entropy(logits, np.asarray(labels, dtype=np.int64))

    @property
    def default_metric(self) -> str:
        return "accuracy"

    def infer_scores(self, h_src, h_dst, head_weight, head_bias):
        # Vector-matrix products, stacked: each edge's are its own bits.
        scores = ((h_src * h_dst)[:, None, :] @ head_weight)[:, 0]
        if head_bias is not None:
            scores = scores + head_bias
        return scores.astype(np.float32)


register_task(EdgeClassification())
