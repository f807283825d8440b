"""Subgraph vectorization — phase one of the training workflow (§3.3.1).

"The training process of GNNs has to merge the subgraphs described by
GraphFeatures together, and then vectorize the merged subgraph as the
following three matrices": the destination-sorted sparse adjacency ``A_B``
(our :class:`~repro.nn.gnn.block.EdgeBlock`), the node feature matrix
``X_B`` and the edge feature matrix ``E_B`` — plus target ids and labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.trainer.pruning import prune_blocks
from repro.graph.subgraph import GraphFeature, StackedFeatures, merge_stacked
from repro.nn.gnn.block import BatchInputs, EdgeBlock
from repro.proto.codec import decode_sample

__all__ = ["TrainSample", "decode_samples", "stack_samples", "vectorize_batch"]


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
    """Stack decoded samples (memory/row sources, wire bytes) into the
    columns :func:`vectorize_batch` works on."""
    raw = [s.label for s in samples]
    labels = None
    if any(label is not None for label in raw):
        if any(label is None for label in raw):
            raise ValueError("batch mixes labeled and unlabeled samples")
        if np.ndim(raw[0]) == 0:
            labels = np.asarray([int(label) for label in raw], dtype=np.int64)
        else:
            labels = np.stack([np.asarray(label, dtype=np.float32) for label in raw])
    return StackedFeatures.from_features(
        [s.graph_feature for s in samples],
        sample_ids=np.asarray([int(s.target_id) for s in samples], dtype=np.int64),
        labels=labels,
    )


def vectorize_batch(
    samples: StackedFeatures | list[TrainSample],
    num_layers: int,
    pruning: bool = True,
    aggregator_factory=None,
    edge_level: bool = False,
) -> tuple[BatchInputs, np.ndarray | None]:
    """Merge + vectorize a batch of samples into model inputs.

    ``samples`` is a :class:`StackedFeatures` record (what columnar sources
    gather straight from their shards) or a list of decoded
    :class:`TrainSample` objects, which is stacked first — one merge either
    way.

    Returns ``(batch, labels)``.  Node-level batches (the default) align
    ``labels`` with ``batch.target_index`` rows (int vector for
    single-label tasks, float matrix for multi-label, ``None`` for
    unlabeled inference batches).  With ``edge_level`` each sample is a
    target *edge* whose GraphFeature carries the ordered ``[src, dst]``
    target pair: the batch gains a ``(B, 2)`` ``pair_index`` into the
    merged target rows and ``labels`` follow batch-sample order (edge
    samples are keyed by edge index, not node id, so two samples may share
    every endpoint).

    With ``pruning`` the per-layer adjacency list implements Equation 3;
    otherwise every layer sees the full ``A_B``.  ``aggregator_factory``
    installs an edge-partitioned aggregation backend on each block.
    """
    stacked = samples if isinstance(samples, StackedFeatures) else stack_samples(samples)
    merged = merge_stacked(stacked)  # rejects an empty batch

    base = EdgeBlock(
        merged.edge_src,
        merged.edge_dst,
        len(merged.node_ids),
        merged.edge_weight,
        merged.edge_feat,
    )
    if pruning:
        blocks = prune_blocks(base, merged.hops, num_layers, aggregator_factory)
    else:
        if aggregator_factory is not None:
            base.aggregator = aggregator_factory(base)
        blocks = [base] * num_layers

    labels = stacked.labels
    if edge_level:
        counts = np.diff(stacked.target_offsets)
        bad = np.flatnonzero(counts != 2)
        if len(bad):
            raise ValueError(
                "edge-level samples need exactly two targets (src, dst); "
                f"sample {stacked.sample_ids[bad[0]]} has {counts[bad[0]]}"
            )
        # Row of each endpoint in the merged targets.  Those are sorted
        # unique ids, except that a batch of one keeps its sample's own
        # [src, dst] order — hence the sorter.
        sorter = np.argsort(merged.target_ids, kind="stable")
        pair_index = sorter[
            np.searchsorted(
                merged.target_ids, stacked.target_ids.reshape(-1, 2), sorter=sorter
            )
        ]
        batch = BatchInputs(merged.x, merged.target_index, blocks, pair_index)
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
        return batch, labels

    batch = BatchInputs(merged.x, merged.target_index, blocks)
    if labels is not None:
        # One label row per merged target: the sample keyed by that id
        # (the last one, should the batch repeat a sample).
        sorter = np.argsort(stacked.sample_ids, kind="stable")
        row = np.searchsorted(
            stacked.sample_ids, merged.target_ids, side="right", sorter=sorter
        ) - 1
        row = sorter[row]
        if (stacked.sample_ids[row] != merged.target_ids).any():
            raise ValueError("a batch target is not the id of any sample in the batch")
        labels = labels[row]
    return batch, labels
