"""GraphInfer: distributed GNN inference over huge graphs (§3.4).

A trained K-layer model is split into K+1 slices (hierarchical model
segmentation); K MapReduce Reduce rounds then push *every* node's embedding
up one layer per round — merging each node's in-edge neighbor embeddings,
applying the slice, propagating via out-edges — and the Kth round applies
the prediction slice too.  "There is no repetition of embedding inference in the
above pipeline", unlike the original GraphFeature-based module
(:mod:`repro.baselines.original`) that Table 5 compares against.
"""

from repro.core.infer.segmentation import ModelSlice, ModelSlices, segment_model
from repro.core.infer.pipeline import (
    EmbeddingReducer,
    GraphInferConfig,
    GraphInferResult,
    ReceptiveField,
    graph_infer,
)

__all__ = [
    "ModelSlice",
    "ModelSlices",
    "segment_model",
    "EmbeddingReducer",
    "GraphInferConfig",
    "GraphInferResult",
    "ReceptiveField",
    "graph_infer",
]
