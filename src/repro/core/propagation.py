"""What GraphFlat and GraphInfer share about *propagation*: the shuffle-key
dialects of the message-passing rounds, and the receptive-field predicate
that makes both pipelines demand-driven.

Both pipelines run the same round structure — Map once, then K Reduce
rounds that merge a node's in-edge information and propagate the result
along its out-edges — over the same keys (plain node ids, or ``(node,
suffix)`` pairs once hub re-indexing is active).  And both only have to
produce results for a *target* set: a node ``u`` that is ``d`` reverse hops
away from the nearest target contributes to that target's K-hop
neighborhood (or layer-K embedding) only through its rounds ``k <= K - d``.
:class:`ReceptiveField` is that rule — §3.3.2's pruning lifted to the
MapReduce pipelines (§3.4) — and :func:`distance_to_targets` computes the
``d`` it needs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.graph.tables import EdgeTable

__all__ = [
    "ReceptiveField",
    "distance_to_targets",
    "plain_key",
    "propagation_key",
    "suffix",
]


# --------------------------------------------------------------------- keys
def suffix(src: int, dst: int, fanout: int) -> int:
    """Deterministic 'random suffix' for re-indexing: stable across task
    re-execution (fault tolerance), across runs, and across rounds (so the
    per-slice sampling draw is the same every round — see repro.core.
    graphflat.sampling), and shared by GraphFlat and GraphInfer so both
    split a hub's in-edges into the same slices."""
    return zlib.crc32(f"{src}|{dst}".encode()) % fanout


def propagation_key(dst: int, src: int, hubs, fanout: int, reindex_active: bool):
    """Shuffle key of an in-edge record ``src -> dst``: hub destinations
    get a suffixed slice key (Figure 3), everything else the plain key."""
    if not reindex_active:
        return dst
    if dst in hubs:
        return (dst, 1 + suffix(src, dst, fanout))
    return (dst, 0)


def plain_key(node_id: int, reindex_active: bool):
    """Shuffle key of a node's own (self / out-edge) records."""
    return (node_id, 0) if reindex_active else node_id


# ---------------------------------------------------------- receptive field
@dataclass(frozen=True)
class ReceptiveField:
    """Is node ``u``'s round-``k`` result inside some target's receptive
    field?  ``needed(u, k)`` holds iff ``dist(u -> targets) <= K - k``;
    ``distance=None`` means no targets were given — everything is needed,
    at the cost of one ``is None`` test."""

    distance: dict[int, int] | None
    total_rounds: int

    def __call__(self, node_id: int, k: int) -> bool:
        if self.distance is None:
            return True
        return self.distance.get(node_id, self.total_rounds + 1) <= self.total_rounds - k

    def propagations(self, dst: np.ndarray) -> int:
        """In-edge records propagated over all K rounds for the edge
        destinations ``dst``: an edge into ``w`` carries one record into
        every round ``k`` with ``needed(w, k)`` — ``K - dist(w)`` of them."""
        if self.distance is None:
            return self.total_rounds * len(dst)
        beyond = self.total_rounds + 1
        d = np.fromiter(
            (self.distance.get(w, beyond) for w in dst.tolist()),
            dtype=np.int64,
            count=len(dst),
        )
        return int(np.clip(self.total_rounds - d, 0, None).sum())


def distance_to_targets(
    edges: EdgeTable, target_set: set[int], max_hops: int
) -> dict[int, int]:
    """``d(target_set, u)`` for every u within ``max_hops`` reverse hops.

    BFS from the targets along edges *backwards* (an edge ``u -> v`` means
    u's information feeds v), i.e. the same distance GraphTrainer's pruning
    uses (§3.3.2) lifted to the MapReduce pipelines.

    Node ids are compacted once; the reverse adjacency is one stable argsort
    over ``dst`` (in-neighbors of ``v`` are a contiguous run of the src
    column) and every hop is a numpy gather over the frontier's runs —
    equality with the per-node dict loop is reference-tested.
    """
    targets = np.fromiter(target_set, dtype=np.int64, count=len(target_set))
    src = np.asarray(edges.src, dtype=np.int64)
    dst = np.asarray(edges.dst, dtype=np.int64)
    ids, compact = np.unique(np.concatenate([targets, src, dst]), return_inverse=True)
    frontier = compact[: len(targets)]
    src = compact[len(targets) : len(targets) + len(src)]
    dst = compact[len(targets) + len(src) :]
    order = np.argsort(dst, kind="stable")
    sorted_src = src[order]
    starts = np.searchsorted(dst[order], np.arange(len(ids) + 1))

    dist = np.full(len(ids), -1, dtype=np.int64)
    dist[frontier] = 0
    for hop in range(1, max_hops + 1):
        lo = starts[frontier]
        counts = starts[frontier + 1] - lo
        total = int(counts.sum())
        if not total:
            break
        # Concatenated in-neighbor runs of the frontier, without a loop:
        # position i of run j reads sorted_src[lo[j] + i].
        run_start = np.cumsum(counts) - counts
        gather = np.repeat(lo - run_start, counts) + np.arange(total)
        reached = np.unique(sorted_src[gather])
        frontier = reached[dist[reached] < 0]
        if not len(frontier):
            break
        dist[frontier] = hop
    inside = np.flatnonzero(dist >= 0)
    return dict(zip(ids[inside].tolist(), dist[inside].tolist()))
