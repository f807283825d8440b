"""The sampling framework of §3.2.2.

"We build a distributed sampling framework and implement a set of sampling
strategies (e.g., uniform sampling, weighted sampling), to reduce the scale
of the k-hop neighborhoods, especially for those hub nodes."

Strategies select at most ``max_neighbors`` in-edge records per node, over
columns: ``select(src, weight, node_id, salt)`` takes a node's in-edges as
their source-id and weight arrays and returns the indices of the ones it
keeps.  Selections are *canonical in source-id order*: every ``select`` —
including the under-cap early return — orders its result by ``src``, never
by arrival order.  Arrival order within a reduce group is a function of which
upstream task emitted each record, i.e. of the backend and the task that
won; canonical ordering is what keeps pipeline output byte-identical across
backends, transports, and re-executed attempts.  A node
with at most ``max_neighbors`` in-edges keeps them all, in that order, under
every strategy: the propagation engine relies on it to order such nodes a
whole merge batch at a time instead of calling ``select`` per node.
Sampling is deterministic given ``(seed, node id, salt)`` — and the salt is
*round-independent* on purpose:

* a re-executed reducer attempt must sample identically, or the fault
  tolerance inherited from MapReduce breaks;
* every Reduce round re-propagates the same in-edge records, so a
  round-dependent draw would store the *union* of per-round selections in
  the final GraphFeature, while GraphInfer (which samples once per layer)
  would see a different neighborhood — breaking §3.4's "consistence of data
  processing ... unbiased inference" guarantee.  With one fixed draw per
  node, GraphFlat's neighborhoods and GraphInfer's per-layer aggregations
  coincide exactly, for stochastic strategies too (tested).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SamplingStrategy",
    "UniformSampling",
    "WeightedSampling",
    "TopKSampling",
    "SAMPLING_REGISTRY",
    "make_sampler",
    "sample_negative_edges",
]


class SamplingStrategy:
    """Base: cap in-edge record lists at ``max_neighbors``."""

    name = "abstract"

    def __init__(self, max_neighbors: int, seed: int = 0):
        if max_neighbors < 1:
            raise ValueError("max_neighbors must be >= 1")
        self.max_neighbors = max_neighbors
        self.seed = seed

    def _rng(self, node_id: int, salt: int) -> np.random.Generator:
        """Deterministic per (seed, node, salt): independent of reducer
        placement, of retry attempts, and of the reduce round (see module
        docstring).  ``salt`` distinguishes re-indexed hub slices."""
        return np.random.default_rng(
            np.random.SeedSequence(entropy=(self.seed, node_id & 0x7FFFFFFFFFFFFFFF, salt))
        )

    def select(
        self, src: np.ndarray, weight: np.ndarray, node_id: int, salt: int = 0
    ) -> np.ndarray:  # pragma: no cover - abstract
        """Indices of the in-edges kept, out of those with sources ``src``
        and weights ``weight``, in source-id order."""
        raise NotImplementedError


class UniformSampling(SamplingStrategy):
    """Keep a uniformly random subset of in-edges."""

    name = "uniform"

    def select(self, src, weight, node_id, salt=0):
        # Candidates in src order first, so the choice does not depend on
        # arrival order (shuffles are unordered between runs).
        ordered = np.argsort(src, kind="stable")
        if len(ordered) <= self.max_neighbors:
            return ordered
        rng = self._rng(node_id, salt)
        keep = rng.choice(len(ordered), size=self.max_neighbors, replace=False)
        keep.sort()
        return ordered[keep]


class WeightedSampling(SamplingStrategy):
    """Sample without replacement with probability proportional to weight."""

    name = "weighted"

    def select(self, src, weight, node_id, salt=0):
        ordered = np.argsort(src, kind="stable")
        if len(ordered) <= self.max_neighbors:
            return ordered
        rng = self._rng(node_id, salt)
        weights = np.maximum(np.asarray(weight, dtype=np.float64)[ordered], 1e-12)
        probs = weights / weights.sum()
        keep = rng.choice(len(ordered), size=self.max_neighbors, replace=False, p=probs)
        keep.sort()
        return ordered[keep]


class TopKSampling(SamplingStrategy):
    """Deterministically keep the ``max_neighbors`` heaviest in-edges
    (ties broken by src id, so results are placement-independent)."""

    name = "topk"

    def select(self, src, weight, node_id, salt=0):
        if len(src) <= self.max_neighbors:
            return np.argsort(src, kind="stable")
        return np.lexsort((src, -np.asarray(weight, dtype=np.float64)))[: self.max_neighbors]


SAMPLING_REGISTRY = {
    cls.name: cls for cls in (UniformSampling, WeightedSampling, TopKSampling)
}


def make_sampler(name: str, max_neighbors: int, seed: int = 0) -> SamplingStrategy:
    if name not in SAMPLING_REGISTRY:
        raise KeyError(f"unknown sampling strategy {name!r}; known: {sorted(SAMPLING_REGISTRY)}")
    return SAMPLING_REGISTRY[name](max_neighbors, seed)


def sample_negative_edges(
    pos_src: np.ndarray,
    pos_dst: np.ndarray,
    candidate_ids: np.ndarray,
    num_samples: int,
    seed: int,
    *,
    forbid_src: np.ndarray | None = None,
    forbid_dst: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded corrupt-destination negative sampling for link prediction.

    Cycles through the positive edges, keeping each source and redrawing
    the destination uniformly from ``candidate_ids`` until the pair is
    neither a real edge (``forbid_src``/``forbid_dst``, defaulting to the
    positives themselves), a self-loop, nor an already-drawn negative.

    Runs **parent-side, before any MapReduce round**, from a single
    ``SeedSequence(seed, salt)`` stream — so like the neighbor-sampling
    strategies above, the draw is independent of backend, reducer
    placement, task retries and speculation (the PR 7/8 determinism
    contract), and a re-run with the same seed reproduces the exact
    target table the shards were built from.
    """
    pos_src = np.asarray(pos_src, dtype=np.int64)
    pos_dst = np.asarray(pos_dst, dtype=np.int64)
    candidate_ids = np.asarray(candidate_ids, dtype=np.int64)
    if len(pos_src) == 0:
        raise ValueError("need at least one positive edge to corrupt")
    if len(candidate_ids) < 2:
        raise ValueError("need at least two candidate nodes to draw negatives from")
    if forbid_src is None or forbid_dst is None:
        forbid_src, forbid_dst = pos_src, pos_dst
    taken = set(
        zip(np.asarray(forbid_src).tolist(), np.asarray(forbid_dst).tolist())
    )
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x4E454741)))
    neg_src = np.empty(num_samples, dtype=np.int64)
    neg_dst = np.empty(num_samples, dtype=np.int64)
    budget = 200 * max(num_samples, 1) + 1000
    attempts = 0
    for k in range(num_samples):
        s = int(pos_src[k % len(pos_src)])
        while True:
            attempts += 1
            if attempts > budget:
                raise RuntimeError(
                    "negative-edge sampling budget exhausted — graph too dense "
                    "for the requested number of negatives"
                )
            d = int(candidate_ids[int(rng.integers(len(candidate_ids)))])
            if d != s and (s, d) not in taken:
                break
        taken.add((s, d))
        neg_src[k] = s
        neg_dst[k] = d
    return neg_src, neg_dst
