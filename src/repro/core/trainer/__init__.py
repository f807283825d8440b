"""GraphTrainer: distributed graph training framework (§3.3).

Components map one-to-one onto the paper's Figure 4:

* :mod:`vectorize` — merge a window of batches of GraphFeatures and build
  each batch's three matrices ``A_B`` (destination-sorted sparse
  adjacency), ``X_B``, ``E_B``;
* :mod:`dataset` — sample sources: stacked sample columns addressed by
  ``(shard, row)`` locators, the shards mmap'd DFS files or in-memory
  data stacked once;
* :mod:`pruning` — per-layer pruned adjacencies ``A^(k)_B`` (graph-level
  optimization);
* edge partitioning (edge/operator-level optimization) is the sorted
  segment-sum kernel ``repro.nn.ops.reduceat_sum`` over each block's
  destination rows, switched by ``TrainerConfig.edge_partition``;
* :mod:`pipeline` — the two-stage prefetch pipeline overlapping
  preprocessing with model computation (batch-level optimization);
* :mod:`trainer` — the training loop, standalone or against parameter
  servers.
"""

from repro.core.trainer.vectorize import (
    TrainSample,
    decode_samples,
    partitioned_backend_factory,
    vectorize_batch,
    vectorize_window,
)
from repro.core.trainer.dataset import (
    ColumnarDataset,
    SampleSource,
    as_sample_source,
    open_sample_source,
)
from repro.core.trainer.pruning import layer_edge_masks
from repro.core.trainer.pipeline import BatchPipeline, BatchPreparer
from repro.core.trainer.trainer import GraphTrainer, TrainerConfig

__all__ = [
    "TrainSample",
    "decode_samples",
    "vectorize_batch",
    "vectorize_window",
    "ColumnarDataset",
    "SampleSource",
    "as_sample_source",
    "open_sample_source",
    "layer_edge_masks",
    "partitioned_backend_factory",
    "BatchPipeline",
    "BatchPreparer",
    "GraphTrainer",
    "TrainerConfig",
]
