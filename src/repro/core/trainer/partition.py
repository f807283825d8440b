"""Edge partitioning — the operator-level optimization of §3.3.2.

"We partition the sparse adjacent matrix into t parts and ensure that the
edges with the same destination node fall in the same partition ... each
partition will be handled with a thread to perform aggregation independently
... there will be no conflicts between any two threads."

The vectorizer guarantees edges are sorted by destination, so a *partition*
is a contiguous edge range cut only at destination boundaries.  Each
partition is reduced with a single ``np.add.reduceat`` segment sum (one
C-level pass), instead of the generic unbuffered ``np.add.at`` scatter that
AGL_base uses — this is where the Table 4 speedup comes from.  Partitions
can additionally run on a thread pool: one per process and size, shared by
every aggregator.

The aggregator is installed on an :class:`~repro.nn.gnn.block.EdgeBlock` as
its ``segment_sum`` forward backend; backward passes are unaffected (the
gradient of a segment sum is a gather), so this is purely a speed choice —
tests assert agreement with the scatter backend (to float tolerance:
``reduceat`` sums in its own order) and bit-level agreement between serial
and threaded partitions.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.nn.gnn.block import EdgeBlock

__all__ = [
    "EdgePartitionAggregator",
    "PartitionedAggregatorFactory",
    "partitioned_backend_factory",
]

_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


def _shared_pool(threads: int) -> ThreadPoolExecutor:
    """This process's partition pool of ``threads`` workers, built on
    first use and kept for the life of the process."""
    with _pools_lock:
        pool = _pools.get(threads)
        if pool is None:
            pool = _pools[threads] = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="agl-partition"
            )
        return pool


def _forget_pools() -> None:
    """A forked child inherits the pools but not their threads."""
    global _pools_lock
    _pools.clear()
    _pools_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_pools)


class EdgePartitionAggregator:
    """Destination-partitioned segment-sum backend bound to one edge layout.

    Parameters
    ----------
    dst:
        destination index of every edge, sorted ascending (checked).
    num_partitions:
        target number of partitions ``t``; actual count can be lower when
        there are fewer destination rows than partitions.
    threads:
        size of the process's shared partition pool; 1 (default) keeps
        execution serial — the segment-sum rewrite alone is the bulk of the
        win on CPython.
    row_starts:
        the edge indices where a new destination starts, when the caller
        has them already (the trainer finds them for a whole window of
        batches at once); ``dst`` is then taken as sorted.
    """

    def __init__(
        self,
        dst: np.ndarray,
        num_partitions: int = 4,
        threads: int = 1,
        row_starts: np.ndarray | None = None,
    ):
        dst = np.asarray(dst, dtype=np.int64)
        if row_starts is None:
            step = np.diff(dst)
            if len(dst) and np.any(step < 0):
                raise ValueError("edge partitioning requires destination-sorted edges")
            # Row boundaries: edge indices where a new destination starts.
            row_starts = np.flatnonzero(step) + 1
            row_starts = np.concatenate([[0], row_starts]) if len(dst) else row_starts
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self.dst = dst
        self.num_partitions = num_partitions
        self.threads = threads

        m = len(dst)
        if m == 0:
            self._parts: list[tuple[int, int, np.ndarray, np.ndarray]] = []
            return
        n_rows = len(row_starts)
        t = min(num_partitions, n_rows)
        # Cut at row boundaries closest to an even edge split.
        ideal = [k * m // t for k in range(1, t)]
        cuts = sorted(set(np.searchsorted(row_starts, ideal, side="right").tolist()))
        bounds = [0, *cuts, n_rows]
        row_dst = dst[row_starts]
        self._parts = []
        for lo_row, hi_row in zip(bounds[:-1], bounds[1:]):
            if lo_row == hi_row:
                continue
            edge_lo = int(row_starts[lo_row])
            edge_hi = int(row_starts[hi_row]) if hi_row < n_rows else m
            rel_starts = row_starts[lo_row:hi_row] - edge_lo
            self._parts.append((edge_lo, edge_hi, rel_starts, row_dst[lo_row:hi_row]))

    @property
    def num_edges(self) -> int:
        return len(self.dst)

    def partition_sizes(self) -> list[int]:
        """Edges per partition — load-balance evidence for the ablation."""
        return [hi - lo for lo, hi, _, _ in self._parts]

    # ------------------------------------------------------------- backend
    def __call__(
        self, values: np.ndarray, segment_ids: np.ndarray, num_segments: int
    ) -> np.ndarray:
        if len(segment_ids) != len(self.dst):
            raise ValueError(
                f"aggregator bound to {len(self.dst)} edges, got {len(segment_ids)}; "
                "rebind the aggregator when the edge layout changes"
            )
        out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
        if not self._parts:
            return out

        def reduce_part(part):
            edge_lo, edge_hi, rel_starts, rows = part
            sums = np.add.reduceat(values[edge_lo:edge_hi], rel_starts, axis=0)
            out[rows] = sums  # conflict-free: partitions never share a row

        if self.threads > 1 and len(self._parts) > 1:
            list(_shared_pool(self.threads).map(reduce_part, self._parts))
        else:
            for part in self._parts:
                reduce_part(part)
        return out

    # ------------------------------------------------------------- rebind
    def rebind(self, block: EdgeBlock) -> "EdgePartitionAggregator":
        """New aggregator for a block with a different edge layout (e.g. the
        self-loop-augmented block GAT builds)."""
        return EdgePartitionAggregator(block.dst, self.num_partitions, self.threads)


@dataclass(frozen=True)
class PartitionedAggregatorFactory:
    """Picklable factory suitable for ``vectorize_batch(aggregator_factory=
    ...)`` — a top-level dataclass (not a closure) so trainer configs using
    edge partitioning work under the ``processes`` prefetch backend.
    ``row_starts`` are the block's destination-row starts when the caller
    knows them (see :class:`EdgePartitionAggregator`)."""

    num_partitions: int = 4
    threads: int = 1

    def __call__(self, block: EdgeBlock, row_starts=None) -> EdgePartitionAggregator:
        return EdgePartitionAggregator(
            block.dst, self.num_partitions, self.threads, row_starts
        )


def partitioned_backend_factory(
    num_partitions: int = 4, threads: int = 1
) -> PartitionedAggregatorFactory:
    """Factory suitable for ``vectorize_batch(aggregator_factory=...)``."""
    return PartitionedAggregatorFactory(num_partitions, threads)
