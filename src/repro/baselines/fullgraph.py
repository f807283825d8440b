"""In-memory full-graph trainer — the DGL/PyG stand-in.

"DGL and PyG are designed as a single-machine system to deal with
industrial-scale graphs in-memory" (§1).  This trainer does exactly that:
the entire graph becomes one resident ``EdgeBlock``; every epoch is one
full-batch forward/backward over all labeled nodes.  No disk, no
GraphFeatures, no pruning (there is nothing to prune — every node is a
target) — and no way out when the graph outgrows RAM, which is the paper's
argument.  ``max_nodes_in_memory`` makes that failure mode explicit: the
trainer raises the same OOM-style error the paper reports for UUG on
DGL/PyG, rather than thrashing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.datasets.base import GraphDataset
from repro.metrics import accuracy, micro_f1, roc_auc
from repro.nn import Adam, SGD, bce_with_logits_loss, no_grad, softmax_cross_entropy
from repro.nn.gnn.base import GNNModel
from repro.nn.gnn.block import BatchInputs, EdgeBlock

__all__ = ["FullGraphConfig", "FullGraphTrainer", "GraphTooLargeError"]


class GraphTooLargeError(MemoryError):
    """The in-memory baseline's honest OOM: the graph exceeds its budget."""


@dataclass
class FullGraphConfig:
    epochs: int = 10
    lr: float = 0.01
    optimizer: str = "adam"
    weight_decay: float = 0.0
    task: str = "multiclass"
    aggregation: str = "fused"
    """``"fused"`` = DGL proxy (the sorted segment-sum kernel GraphTrainer's
    edge partitioning runs); ``"scatter"`` = PyG proxy (unbuffered
    scatter-add)."""
    max_nodes_in_memory: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.aggregation not in ("fused", "scatter"):
            raise ValueError("aggregation must be 'fused' or 'scatter'")


class FullGraphTrainer:
    """Full-batch training with the whole graph in memory."""

    def __init__(self, model: GNNModel, dataset: GraphDataset, config: FullGraphConfig):
        self.model = model
        self.dataset = dataset
        self.config = config
        graph = dataset.to_graph()
        if (
            config.max_nodes_in_memory is not None
            and graph.num_nodes > config.max_nodes_in_memory
        ):
            raise GraphTooLargeError(
                f"graph has {graph.num_nodes} nodes; in-memory budget is "
                f"{config.max_nodes_in_memory} (this is the OOM DGL/PyG hit on UUG)"
            )
        in_ptr, in_src, in_eid = graph.in_csr
        dst = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), np.diff(in_ptr))
        edge_feat = (
            None if graph.edges.features is None else graph.edges.features[in_eid]
        )
        self.block = EdgeBlock(
            in_src,
            dst,
            graph.num_nodes,
            graph.edges.weights[in_eid],
            edge_feat,
            sorted_kernel=config.aggregation == "fused",
        )
        self._graph = graph
        cls = Adam if config.optimizer == "adam" else SGD
        self.optimizer = cls(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
        self.history: list[dict] = []

    # ------------------------------------------------------------------ util
    def _batch(self, node_ids: np.ndarray) -> BatchInputs:
        target_index = self._graph.index_of(node_ids)
        return BatchInputs(
            self._graph.node_features,
            target_index,
            [self.block] * self.model.num_layers,
        )

    def _loss(self, logits, labels):
        if self.config.task == "multilabel":
            return bce_with_logits_loss(logits, labels)
        return softmax_cross_entropy(logits, labels)

    # ------------------------------------------------------------------ train
    def train_epoch(self) -> float:
        self.model.train()
        ids = self.dataset.train_ids
        labels = self.dataset.labels_of(ids)
        batch = self._batch(ids)
        self.model.zero_grad()
        logits = self.model(batch)
        loss = self._loss(logits, labels)
        loss.backward()
        self.optimizer.step()
        return loss.item()

    def fit(self, evaluate_on: str | None = None, metric: str | None = None) -> list[dict]:
        for epoch in range(self.config.epochs):
            start = time.perf_counter()
            loss = self.train_epoch()
            entry = {"epoch": epoch, "loss": loss, "seconds": time.perf_counter() - start}
            if evaluate_on is not None:
                entry["val_metric"] = self.evaluate(evaluate_on, metric)
            self.history.append(entry)
        return self.history

    # ------------------------------------------------------------------ eval
    def evaluate(self, split: str = "test", metric: str | None = None) -> float:
        ids = self.dataset.splits[split]
        labels = self.dataset.labels_of(ids)
        self.model.eval()
        with no_grad():
            logits = self.model(self._batch(ids)).data
        if metric is None:
            metric = {"multiclass": "accuracy", "multilabel": "micro_f1", "binary": "auc"}[
                self.config.task
            ]
        if metric == "accuracy":
            return accuracy(logits, labels)
        if metric == "micro_f1":
            return micro_f1(logits, labels)
        if metric == "auc":
            return roc_auc(logits[:, 1] - logits[:, 0], labels)
        raise ValueError(f"unknown metric {metric!r}")
