"""``EdgeBlock`` — the vectorized adjacency a GNN layer consumes.

This is the in-model form of the paper's three matrices (§3.3.1): the sparse
adjacency ``A_B`` (as destination-sorted COO plus weights), with ``X_B`` and
``E_B`` carried alongside by :class:`BatchInputs`.  Edges **must** be sorted
by destination: that is the contract that makes edge partitioning (§3.3.2)
conflict-free.  A block keeps where each destination's edges start, and the
sorted segment-sum kernel (``repro.nn.ops.reduceat_sum``) reduces over those
rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["EdgeBlock", "BatchInputs"]


@dataclass
class EdgeBlock:
    """Destination-sorted sparse adjacency over ``num_nodes`` local nodes.

    ``row_offsets`` are the edge index where each destination's edges
    start, then ``num_edges``: destination row ``k`` is edges
    ``row_offsets[k]:row_offsets[k + 1]``.  They are found from ``dst``
    when the block is built.  ``sorted_kernel`` picks the segment-sum
    forward of the layers run over the block (see
    ``repro.nn.ops.segment_sum``): the sorted kernel over those rows
    (GraphTrainer's edge-partitioning strategy), or the generic scatter
    when off (AGL_base, and GraphInfer) — model code never changes.
    """

    src: np.ndarray
    dst: np.ndarray
    num_nodes: int
    weight: np.ndarray | None = None
    edge_feat: np.ndarray | None = None
    sorted_kernel: bool = False
    row_offsets: np.ndarray = field(init=False, repr=False, compare=False)
    _self_loop_cache: "EdgeBlock | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        if self.src.shape != self.dst.shape or self.src.ndim != 1:
            raise ValueError("src/dst must be aligned 1-D arrays")
        if self.weight is None:
            self.weight = np.ones(len(self.src), dtype=np.float32)
        else:
            self.weight = np.asarray(self.weight, dtype=np.float32)
        step = np.diff(self.dst)
        if (step < 0).any():
            raise ValueError("EdgeBlock edges must be sorted by destination")
        bounds = np.ones(len(self.dst) + 1, dtype=bool)
        bounds[1:-1] = step != 0
        self.row_offsets = np.flatnonzero(bounds)
        if len(self.src) and (
            self.src.max() >= self.num_nodes or self.dst.max() >= self.num_nodes
        ):
            raise ValueError("edge endpoint out of range")

    @property
    def num_edges(self) -> int:
        return len(self.src)

    @property
    def kernel_offsets(self) -> np.ndarray | None:
        """The ``row_offsets`` argument of the segment ops run over this
        block: its row offsets under the sorted kernel, ``None`` (the
        scatter) otherwise."""
        return self.row_offsets if self.sorted_kernel else None

    def with_self_loops(self) -> "EdgeBlock":
        """Block with ``v -> v`` edges added for every node, re-sorted by
        destination (GAT attends over ``{v} ∪ N+(v)``), with the row offsets
        of its own ``dst`` and this block's kernel.  Cached: the result is
        reused across layers/epochs.  Self-loop weight is 1, self-loop edge
        features are zero."""
        if self._self_loop_cache is not None:
            return self._self_loop_cache
        loops = np.arange(self.num_nodes, dtype=np.int64)
        src = np.concatenate([self.src, loops])
        dst = np.concatenate([self.dst, loops])
        weight = np.concatenate([self.weight, np.ones(self.num_nodes, dtype=np.float32)])
        edge_feat = None
        if self.edge_feat is not None:
            edge_feat = np.concatenate(
                [self.edge_feat, np.zeros((self.num_nodes, self.edge_feat.shape[1]), np.float32)]
            )
        order = np.argsort(dst, kind="stable")
        block = EdgeBlock(
            src[order],
            dst[order],
            self.num_nodes,
            weight[order],
            None if edge_feat is None else edge_feat[order],
            self.sorted_kernel,
        )
        self._self_loop_cache = block
        return block

    def in_degree_weights(self) -> np.ndarray:
        """Total in-edge weight per destination node (``(num_nodes,)``)."""
        deg = np.zeros(self.num_nodes, dtype=np.float32)
        np.add.at(deg, self.dst, self.weight)
        return deg


@dataclass
class BatchInputs:
    """Everything a model's batched forward needs (§3.3.1's three matrices).

    ``layer_blocks[k]`` is the (possibly pruned, §3.3.2) adjacency used by
    layer ``k``; without pruning all entries alias one block.  ``x`` is
    ``X_B``; per-edge features ``E_B`` ride inside the blocks.
    """

    x: np.ndarray
    target_index: np.ndarray
    layer_blocks: list[EdgeBlock]
    pair_index: np.ndarray | None = None
    """Edge-level tasks: ``(B, 2)`` rows mapping each sample's ``(src,
    dst)`` endpoints into the batch's merged target rows (i.e. indices into
    ``gather_rows(h, target_index)``); ``None`` for node-level batches."""

    def block_for_layer(self, k: int) -> EdgeBlock:
        if not self.layer_blocks:
            raise ValueError("batch has no adjacency blocks")
        if k < 0:
            raise IndexError("layer index must be non-negative")
        # Models deeper than the pruning schedule reuse the last block.
        return self.layer_blocks[min(k, len(self.layer_blocks) - 1)]

    @property
    def num_nodes(self) -> int:
        return self.x.shape[0]
