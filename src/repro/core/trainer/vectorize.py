"""Subgraph vectorization — phase one of the training workflow (§3.3.1).

"The training process of GNNs has to merge the subgraphs described by
GraphFeatures together, and then vectorize the merged subgraph as the
following three matrices": the destination-sorted sparse adjacency ``A_B``
(our :class:`~repro.nn.gnn.block.EdgeBlock`), the node feature matrix
``X_B`` and the edge feature matrix ``E_B`` — plus target ids and labels.

The unit of work is a *window* of batches (:func:`vectorize_window`): the
window's samples are stacked once, merged by one
:func:`~repro.graph.subgraph.merge_groups` call (one group per batch), and
pruned, checked, cut into destination rows, paired and labeled with one
array pass each over the whole window.  What is left per batch is slicing
and building the batch's objects.  :func:`vectorize_batch` is the window of
one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.trainer.pruning import layer_edge_masks
from repro.graph.subgraph import GraphFeature, MergedGroups, StackedFeatures, merge_groups
from repro.nn.gnn.block import BatchInputs, EdgeBlock
from repro.proto.codec import decode_sample
from repro.proto.columnar import stack_triples

__all__ = [
    "TrainSample",
    "decode_samples",
    "partitioned_backend_factory",
    "stack_samples",
    "vectorize_batch",
    "vectorize_window",
]


@dataclass
class TrainSample:
    """Decoded ``<TargetedNodeId, Label, GraphFeature>`` triple."""

    target_id: int
    label: int | np.ndarray | None
    graph_feature: GraphFeature


def decode_samples(records) -> list[TrainSample]:
    """Decode an iterable of wire-format sample records."""
    return [TrainSample(*decode_sample(r)) for r in records]


def stack_samples(samples: list[TrainSample]) -> StackedFeatures:
    """Stack decoded samples into the columns :func:`vectorize_window`
    works on (what :func:`vectorize_batch` does to a sample list, and what
    an in-memory sample source holds)."""
    return stack_triples([(s.target_id, s.label, s.graph_feature) for s in samples])


def partitioned_backend_factory(num_partitions: int = 4, threads: int = 1) -> bool:
    """The ``aggregator_factory`` value of :func:`vectorize_batch` that
    turns the sorted segment-sum kernel on, as ``edge_partition=True`` does.

    Edge partitioning has no partitions or threads any more (one serial
    kernel over the block's rows), so both arguments are only checked.  The
    function stays, with ``aggregator_factory``, because the repo
    benchmark's replay probe (``bench/probes.py``) calls it; both go when
    the probe drops them."""
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    return True


def vectorize_batch(
    samples: StackedFeatures | list[TrainSample],
    num_layers: int,
    pruning: bool = True,
    edge_partition: bool = False,
    edge_level: bool = False,
    aggregator_factory=None,
) -> tuple[BatchInputs, np.ndarray | None]:
    """Merge + vectorize one batch of samples into model inputs: the window
    of one batch (see :func:`vectorize_window` for the arguments).

    ``samples`` is a :class:`StackedFeatures` record (what columnar sources
    gather straight from their shards) or a list of decoded
    :class:`TrainSample` objects, which is stacked first.
    ``aggregator_factory=partitioned_backend_factory(...)`` is the old
    spelling of ``edge_partition=True``.
    """
    stacked = samples if isinstance(samples, StackedFeatures) else stack_samples(samples)
    edge_partition = edge_partition or bool(aggregator_factory)
    return vectorize_window(
        stacked, [0, stacked.num_samples], num_layers, pruning, edge_partition, edge_level
    )[0]


def vectorize_window(
    stacked: StackedFeatures,
    batch_offsets,
    num_layers: int,
    pruning: bool = True,
    edge_partition: bool = False,
    edge_level: bool = False,
) -> list[tuple[BatchInputs, np.ndarray | None]]:
    """Merge + vectorize a window of batches into model inputs, one
    ``(batch, labels)`` pair per batch — each exactly what vectorizing that
    batch alone gives.  Batch ``b`` is samples
    ``batch_offsets[b]:batch_offsets[b + 1]`` of ``stacked``.

    Node-level batches (the default) align ``labels`` with
    ``batch.target_index`` rows (int vector for single-label tasks, float
    matrix for multi-label, ``None`` for unlabeled inference batches): the
    label of the sample keyed by each merged target id (the last one,
    should a batch repeat a sample).  With ``edge_level`` each sample is a
    target *edge* whose GraphFeature carries the ordered ``[src, dst]``
    target pair: the batch gains a ``(B, 2)`` ``pair_index`` into the merged
    target rows and ``labels`` follow batch-sample order (edge samples are
    keyed by edge index, not node id, so two samples may share every
    endpoint).

    With ``pruning`` the per-layer adjacency list implements Equation 3;
    otherwise every layer sees the full ``A_B``.  Every block carries its
    destination-row offsets, found for the whole window at once;
    ``edge_partition`` turns on the sorted segment-sum kernel over them
    (see :class:`~repro.nn.gnn.block.EdgeBlock`), off keeps the scatter.
    """
    batch_offsets = np.asarray(batch_offsets, dtype=np.int64)
    merged = merge_groups(stacked, batch_offsets)  # rejects an empty batch
    sizes = np.diff(batch_offsets)
    sample_batch = np.repeat(np.arange(len(sizes)), sizes)
    target_counts = np.diff(merged.target_offsets)
    labels = stacked.labels
    pair_index = None
    if edge_level:
        counts = np.diff(stacked.target_offsets)
        bad = np.flatnonzero(counts != 2)
        if len(bad):
            raise ValueError(
                "edge-level samples need exactly two targets (src, dst); "
                f"sample {stacked.sample_ids[bad[0]]} has {counts[bad[0]]}"
            )
        pair_index = _pair_rows(stacked, merged, sample_batch, target_counts)
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
        label_at = batch_offsets
    else:
        if labels is not None:
            labels = labels[_label_rows(stacked, merged, sample_batch, target_counts)]
        label_at = merged.target_offsets

    blocks = _window_blocks(merged, num_layers, pruning, edge_partition)
    node_at = merged.node_offsets.tolist()
    target_at = merged.target_offsets.tolist()
    sample_at = batch_offsets.tolist()
    label_at = label_at.tolist()
    out = []
    for b, layer_blocks in enumerate(blocks):
        n0, n1 = node_at[b], node_at[b + 1]
        batch = BatchInputs(
            merged.x[n0:n1],
            merged.target_index[target_at[b] : target_at[b + 1]],
            layer_blocks,
            None if pair_index is None else pair_index[sample_at[b] : sample_at[b + 1]],
        )
        out.append((batch, None if labels is None else labels[label_at[b] : label_at[b + 1]]))
    return out


def _pair_rows(stacked, merged: MergedGroups, sample_batch, target_counts) -> np.ndarray:
    """``(S, 2)``: the row of each sample's ``[src, dst]`` endpoints in its
    batch's merged targets — sorted unique ids, except that a batch of one
    keeps its sample's own order — with one sort over the window."""
    universe, rank = np.unique(merged.target_ids, return_inverse=True)
    width = len(universe)
    keys = np.repeat(np.arange(len(target_counts)), target_counts) * width + rank
    sorter = np.argsort(keys, kind="stable")
    wanted = np.repeat(sample_batch, 2) * width + np.searchsorted(universe, stacked.target_ids)
    rows = sorter[np.searchsorted(keys, wanted, sorter=sorter)]
    return (rows - np.repeat(merged.target_offsets[:-1][sample_batch], 2)).reshape(-1, 2)


def _label_rows(stacked, merged: MergedGroups, sample_batch, target_counts) -> np.ndarray:
    """Per merged target, the window row of its batch's sample keyed by that
    id (the last one, should the batch repeat a sample) — one sort."""
    ids = stacked.sample_ids
    universe, rank = np.unique(np.concatenate([ids, merged.target_ids]), return_inverse=True)
    width = len(universe)
    keys = sample_batch * width + rank[: len(ids)]
    wanted = np.repeat(np.arange(len(target_counts)), target_counts) * width + rank[len(ids) :]
    sorter = np.argsort(keys, kind="stable")
    row = sorter[np.searchsorted(keys, wanted, side="right", sorter=sorter) - 1]
    if (keys[row] != wanted).any():
        raise ValueError("a batch target is not the id of any sample in the batch")
    return row


def _trusted_block(src, dst, num_nodes, weight, edge_feat, row_offsets, sorted_kernel) -> EdgeBlock:
    """An :class:`EdgeBlock` over columns the window has already typed and
    checked (destination order, endpoint range) and cut into rows as a
    whole — built without checking each block again."""
    block = EdgeBlock.__new__(EdgeBlock)
    block.__dict__.update(
        src=src, dst=dst, num_nodes=num_nodes, weight=weight, edge_feat=edge_feat,
        sorted_kernel=sorted_kernel, row_offsets=row_offsets, _self_loop_cache=None,
    )
    return block


def _window_blocks(
    merged: MergedGroups, num_layers: int, pruning: bool, sorted_kernel: bool
) -> list[list[EdgeBlock]]:
    """Every batch's per-layer blocks.  One ``diff`` over the window's
    destination rows checks the order of every block and finds every
    block's destination-row offsets (a pruning mask keeps or drops a
    destination's edges together, so a pruned block's rows are the kept
    ones); one ``hops[dst]`` pass masks every layer.  A layer that keeps
    all of a batch's edges shares the batch's full block.

    A batch boundary is a row start of the window (batches never share a
    row) or its end, so the window's row starts with its edge count
    appended hold every block's offsets, end included, as one slice."""
    node_offsets, edge_offsets = merged.node_offsets, merged.edge_offsets
    node_counts = np.diff(node_offsets)
    edge_counts = np.diff(edge_offsets)
    src = np.asarray(merged.edge_src, dtype=np.int64)
    dst = np.asarray(merged.edge_dst, dtype=np.int64)
    weight = np.asarray(merged.edge_weight, dtype=np.float32)
    feat = merged.edge_feat
    rows = dst + np.repeat(node_offsets[:-1], edge_counts)  # window-wide rows
    step = np.diff(rows)
    if (step < 0).any():
        raise ValueError("EdgeBlock edges must be sorted by destination")
    limit = np.repeat(node_counts, edge_counts)
    if (src >= limit).any() or (dst >= limit).any():
        raise ValueError("edge endpoint out of range")
    row_start = np.ones(len(rows), dtype=bool)
    row_start[1:] = step != 0  # batches never share a row
    masks = layer_edge_masks(rows, merged.hops, num_layers) if pruning else []

    num_batches = len(edge_counts)
    sizes = node_counts.tolist()
    full_at = edge_offsets.tolist()
    full_starts = np.append(np.flatnonzero(row_start), len(rows))
    full_cut = np.searchsorted(full_starts, edge_offsets).tolist()
    bases: list[EdgeBlock | None] = [None] * num_batches

    def full(b: int) -> EdgeBlock:
        block = bases[b]
        if block is None:
            e = slice(full_at[b], full_at[b + 1])
            block = bases[b] = _trusted_block(
                src[e], dst[e], sizes[b], weight[e], None if feat is None else feat[e],
                full_starts[full_cut[b] : full_cut[b + 1] + 1] - full_at[b], sorted_kernel,
            )
        return block

    if not pruning:
        return [[full(b)] * num_layers for b in range(num_batches)]

    layers = []
    for mask in masks:
        kept = np.zeros(len(mask) + 1, dtype=np.int64)
        np.cumsum(mask, out=kept[1:])
        kept_at = kept[edge_offsets]
        whole = (np.diff(kept_at) == edge_counts).tolist()
        starts = np.append(np.flatnonzero(row_start[mask]), kept[-1])
        layers.append(
            (
                whole, kept_at.tolist(), np.searchsorted(starts, kept_at).tolist(), starts,
                src[mask], dst[mask], weight[mask], None if feat is None else feat[mask],
            )
        )
    out = []
    for b in range(num_batches):
        blocks = []
        for whole, at, cut, starts, l_src, l_dst, l_weight, l_feat in layers:
            if whole[b]:
                blocks.append(full(b))
                continue
            e = slice(at[b], at[b + 1])
            block = _trusted_block(
                l_src[e], l_dst[e], sizes[b], l_weight[e], None if l_feat is None else l_feat[e],
                starts[cut[b] : cut[b + 1] + 1] - at[b], sorted_kernel,
            )
            blocks.append(block)
        out.append(blocks)
    return out
