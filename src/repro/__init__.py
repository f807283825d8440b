"""AGL reproduction: scalable industrial-purpose graph machine learning.

Full from-scratch reproduction of *AGL: A Scalable System for
Industrial-purpose Graph Machine Learning* (Zhang et al., VLDB 2020),
including every substrate the paper assumes: a MapReduce runtime, a
parameter-server framework, a numpy autograd tensor engine and a GNN model
zoo — README.md maps each paper component to its module.

Public entry points:

* :func:`repro.core.graphflat.graph_flat` — generate flattened k-hop
  neighborhoods (GraphFlat, §3.2);
* :class:`repro.core.trainer.GraphTrainer` — train over GraphFeatures with
  pipeline / pruning / edge-partitioning optimizations (§3.3);
* :func:`repro.core.infer.graph_infer` — MapReduce model inference with
  hierarchical model segmentation (§3.4);
* :mod:`repro.datasets` — offline stand-ins for Cora, PPI and the UUG graph;
* :mod:`repro.baselines` — in-memory full-graph comparators (DGL/PyG
  proxies) and the "original inference" baseline of Table 5.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
