"""Graph pruning — the graph-level optimization of §3.3.2.

Equation 3 replaces the batch adjacency ``A_B`` with per-layer pruned
matrices ``A^(k)_B``.  The insight: after layer ``k`` of a K-layer model,
only embeddings of nodes within ``K - k - 1`` hops of a target are ever read
again, so layer ``k`` need not aggregate into any farther destination.

With ``hops[u] = d(V_B, u)`` (computed by GraphFlat and min-merged during
batching — exactly the paper's ``d(V_B, u) = min_v d(v, u)``), layer ``k``
keeps edge ``u -> w`` iff ``hops[w] <= K - k - 1``:

* layer 0 keeps every edge of a K-hop neighborhood (their destinations are
  all within ``K - 1`` hops) — pruning is a no-op for 1-layer models, as
  Table 4 observes;
* the last layer keeps only edges pointing directly at targets.

Pruning happens at vectorization time, for a whole window of batches at
once: one ``hops[dst]`` pass masks every layer of every batch in the window
(:func:`layer_edge_masks` over the window's edges), and
:func:`~repro.core.trainer.vectorize.vectorize_window` cuts each batch's
pruned blocks out of those masks — so under the training pipeline it costs
"nearly no extra time" (§3.3.2).  A mask depends on an edge's destination
only, so it keeps or drops a destination's edges together, and a pruned
block stays destination-sorted.
"""

from __future__ import annotations

import numpy as np

__all__ = ["layer_edge_masks"]


def layer_edge_masks(
    edge_dst: np.ndarray, hops: np.ndarray, num_layers: int
) -> list[np.ndarray]:
    """Boolean keep-mask per layer for edges with destinations ``edge_dst``.

    ``hops[i]`` is the distance of local node ``i`` to the nearest batch
    target.  Masks are monotone: ``mask[k+1] ⊆ mask[k]``.
    """
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    dst_hops = hops[edge_dst]
    return [dst_hops <= num_layers - k - 1 for k in range(num_layers)]
