"""Link prediction — score whether an edge ``(u, v)`` exists.

GiGL-style (PAPERS.md) flagship workload: positives are observed edges,
negatives are seeded corrupt-destination samples drawn at the *parent*
(before any MapReduce round runs), so task retries, speculation and
backend choice cannot change the target table.  The readout is the
parameter-free dot product ``<h_u, h_v>`` over the two endpoint
embeddings, trained with binary cross-entropy on the single logit —
the model's dense head is bypassed entirely, which is what lets
GraphInfer score an edge from the endpoint embeddings alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tasks.base import EdgeTargets, Task, register_task

__all__ = ["LinkPrediction"]


@dataclass(frozen=True)
class LinkPrediction(Task):
    name = "link_prediction"
    edge_level = True

    def build_edge_targets(self, nodes, edges, *, seed=0, max_targets=None, negative_ratio=1):
        # Lazy import: the sampler lives with the other GraphFlat sampling
        # strategies (ISSUE layering); importing it at call time keeps
        # ``repro.tasks`` free of ``repro.core`` imports at module load.
        from repro.core.graphflat.sampling import sample_negative_edges

        if negative_ratio < 1:
            raise ValueError("negative_ratio must be >= 1")
        src = np.asarray(edges.src, dtype=np.int64)
        dst = np.asarray(edges.dst, dtype=np.int64)
        keep = src != dst  # a self-loop has no distinct (src, dst) pair to score
        pos_src, pos_dst = src[keep], dst[keep]
        if len(pos_src) == 0:
            raise ValueError("link prediction needs at least one non-loop edge")
        if max_targets is not None and max_targets < len(pos_src):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(seed, 0x504F5345))
            )
            pick = rng.choice(len(pos_src), size=max_targets, replace=False)
            pick.sort()  # keep canonical (src, dst) order — placement-independent
            pos_src, pos_dst = pos_src[pick], pos_dst[pick]
        neg_src, neg_dst = sample_negative_edges(
            pos_src,
            pos_dst,
            nodes.ids,
            negative_ratio * len(pos_src),
            seed,
            forbid_src=src,
            forbid_dst=dst,
        )
        labels = np.concatenate(
            [
                np.ones(len(pos_src), dtype=np.int64),
                np.zeros(len(neg_src), dtype=np.int64),
            ]
        )
        return EdgeTargets(
            np.concatenate([pos_src, neg_src]),
            np.concatenate([pos_dst, neg_dst]),
            labels,
        )

    def readout(self, h_targets, pair_index, head):
        """``<h_u, h_v>`` per pair as one tape node, with a hand-written
        backward that computes, array for array, what the tape of its
        elementary ops computed."""
        from repro.nn import Tensor, ops

        h = h_targets.data
        src, dst = pair_index[:, 0], pair_index[:, 1]
        h_src, h_dst = h[src], h[dst]

        def backward(grad):
            g = grad[:, None]
            g_h = ops.scatter_sum(g * h_dst, src, len(h))
            g_h += ops.scatter_sum(g * h_src, dst, len(h))
            h_targets._accumulate_owned(g_h)

        return Tensor._make((h_src * h_dst).sum(axis=1), (h_targets,), backward)

    def loss(self, logits, labels):
        from repro.nn import bce_with_logits_loss

        return bce_with_logits_loss(logits, np.asarray(labels, dtype=np.float32))

    @property
    def default_metric(self) -> str:
        return "auc"

    def infer_scores(self, h_src, h_dst, head_weight, head_bias):
        # One dot product per edge, stacked: each has the bits of its own
        # ``np.dot`` (``(a * b).sum(1)`` would not).
        return (h_src[:, None, :] @ h_dst[:, :, None])[:, 0].astype(np.float32)


register_task(LinkPrediction())
