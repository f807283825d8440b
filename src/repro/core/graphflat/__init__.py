"""GraphFlat: distributed generator of k-hop neighborhoods (§3.2).

The pipeline follows the message-passing scheme exactly: a Map phase that
co-locates each node's self / in-edge / out-edge information, then K Reduce
rounds that (1) merge self + in-edge information into the new self
information — the k-hop neighborhood — and (2) propagate it along out-edges.
Hub nodes are handled by the re-indexing + sampling framework of §3.2.2.
The rounds are :mod:`repro.core.propagation`'s; this package supplies the
subgraph records, the sampling strategies and the merge.
"""

from repro.core.graphflat.records import InEdgeInfo, SubgraphInfo
from repro.core.graphflat.sampling import (
    SAMPLING_REGISTRY,
    SamplingStrategy,
    TopKSampling,
    UniformSampling,
    WeightedSampling,
    make_sampler,
)
from repro.core.graphflat.pipeline import (
    GraphFlatConfig,
    GraphFlatResult,
    MergeReducer,
    graph_flat,
)

__all__ = [
    "MergeReducer",
    "SubgraphInfo",
    "InEdgeInfo",
    "SamplingStrategy",
    "UniformSampling",
    "WeightedSampling",
    "TopKSampling",
    "SAMPLING_REGISTRY",
    "make_sampler",
    "GraphFlatConfig",
    "GraphFlatResult",
    "graph_flat",
]
