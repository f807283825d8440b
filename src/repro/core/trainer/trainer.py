"""GraphTrainer — the training loop of §3.3.

Thanks to GraphFlat's information-complete neighborhoods, "the training
workers become independent of each other ... the training of a GNN model
becomes similar to the training of a conventional machine learning model".
The loop below is therefore an ordinary mini-batch loop; all graph-specific
machinery lives in the vectorizer and the optimization strategies, enabled
by three flags that Table 4 sweeps:

* ``pipeline``       — overlap preprocessing with model computation;
* ``pruning``        — per-layer adjacency ``A^(k)_B`` (Equation 3);
* ``edge_partition`` — conflict-free partitioned aggregation.

The trainer runs *standalone* (local optimizer; Tables 3/4) or against a
parameter-server client (``ps_client``): pull fresh parameters before each
batch, push gradients after backward, server applies the update (§3.3's
worker role; used by the Figure 7/8 experiments).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.trainer.dataset import SampleSource, as_sample_source
from repro.core.trainer.partition import partitioned_backend_factory
from repro.core.trainer.pipeline import BatchPipeline
from repro.mapreduce.backends import BACKEND_REGISTRY, make_backend
from repro.metrics import accuracy, hits_at_k, micro_f1, roc_auc
from repro.nn import Adam, SGD, bce_with_logits_loss, no_grad, ops, softmax_cross_entropy
from repro.nn.gnn.base import GNNModel
from repro.tasks import EDGE_TASKS, make_task
from repro.utils.rng import new_rng
from repro.utils.timer import TimerRegistry

__all__ = ["TrainerConfig", "GraphTrainer"]

_TASKS = ("multiclass", "multilabel", "binary") + EDGE_TASKS


@dataclass
class TrainerConfig:
    """Training hyper-parameters + the three optimization switches."""

    batch_size: int = 32
    epochs: int = 10
    lr: float = 0.01
    optimizer: str = "adam"
    weight_decay: float = 0.0
    task: str = "multiclass"
    pruning: bool = True
    edge_partition: bool = True
    num_partitions: int = 4
    partition_threads: int = 1
    pipeline: bool = True
    prefetch_backend: str = "threads"
    """Preprocessing-pool backend (MapReduce backend registry name:
    ``serial`` / ``threads`` / ``processes``).  ``threads`` with one worker
    is the classic single prefetch thread; ``processes`` shards minibatch
    preprocessing across cores while the main process trains."""
    prefetch_workers: int = 1
    """Worker count for the preprocessing pool.  Prepared batches return
    through shared-memory slabs exactly when the pool crosses a process
    boundary (``repro.core.trainer.pipeline.SLAB_BYTES``)."""
    shuffle: bool = True
    seed: int = 0
    early_stopping_patience: int | None = None
    """Stop when the validation metric has not improved by ``min_delta``
    for this many consecutive epochs (needs ``val_samples`` in ``fit``)."""
    min_delta: float = 0.0

    def __post_init__(self):
        if self.task not in _TASKS:
            raise ValueError(f"task must be one of {_TASKS}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size >= 1 and epochs >= 0 required")
        if self.early_stopping_patience is not None and self.early_stopping_patience < 1:
            raise ValueError("early_stopping_patience must be >= 1")
        if self.prefetch_backend not in BACKEND_REGISTRY:
            raise ValueError(
                f"prefetch_backend must be one of {sorted(BACKEND_REGISTRY)}"
            )
        if self.prefetch_workers < 1:
            raise ValueError("prefetch_workers must be >= 1")


class GraphTrainer:
    """Train a :class:`GNNModel` over GraphFlat samples."""

    def __init__(self, model: GNNModel, config: TrainerConfig, ps_client=None):
        self.model = model
        self.config = config
        self.ps = ps_client
        self.timers = TimerRegistry()
        self._rng = new_rng(config.seed)
        # Edge-level task plugin (link prediction / edge classification);
        # None keeps every node-classification code path exactly as it was.
        self._task_plugin = make_task(config.task) if config.task in EDGE_TASKS else None
        self._aggregator_factory = (
            partitioned_backend_factory(config.num_partitions, config.partition_threads)
            if config.edge_partition
            else None
        )
        if ps_client is None:
            cls = Adam if config.optimizer == "adam" else SGD
            self.optimizer = cls(
                model.parameters(), lr=config.lr, weight_decay=config.weight_decay
            )
        else:
            self.optimizer = None
        self.history: list[dict] = []
        self._prefetch_pool = None

    # ----------------------------------------------------------------- data
    @staticmethod
    def _as_source(data) -> SampleSource:
        """Accept wire bytes, decoded samples, or any :class:`SampleSource`
        (e.g. an mmap'd columnar dataset)."""
        return as_sample_source(data)

    def _make_batches(self, source: SampleSource, shuffle: bool) -> list[tuple]:
        """``(batch, index_array)`` pairs; the batch object is whatever the
        source hands the pipeline (sample lists, or columnar batch refs)."""
        order = np.arange(len(source))
        if shuffle:
            self._rng.shuffle(order)
        bs = self.config.batch_size
        return [
            (source.batch(order[lo : lo + bs]), order[lo : lo + bs])
            for lo in range(0, len(order), bs)
        ]

    def _prefetch_backend(self):
        """Shared preprocessing pool, built once and reused across epochs
        (a process pool would otherwise respawn workers every epoch)."""
        if self._prefetch_pool is None:
            self._prefetch_pool = make_backend(
                self.config.prefetch_backend, self.config.prefetch_workers
            )
        return self._prefetch_pool

    def _pipeline(self, batches: list[tuple], train: bool) -> BatchPipeline:
        return BatchPipeline(
            [batch for batch, _ in batches],
            num_layers=self.model.num_layers,
            pruning=self.config.pruning,
            aggregator_factory=self._aggregator_factory,
            enabled=self.config.pipeline,
            timers=self.timers,
            backend=self._prefetch_backend(),
            workers=self.config.prefetch_workers,
            edge_level=self._task_plugin is not None,
        )

    # -------------------------------------------------------------- forward
    def _forward(self, batch):
        """Batch logits: the model's target-row head for node-level tasks,
        the task plugin's pair readout for edge-level ones."""
        if self._task_plugin is None:
            return self.model(batch)
        h = self.model.embed(batch)
        h_targets = ops.gather_rows(h, batch.target_index)
        return self._task_plugin.readout(h_targets, batch.pair_index, self.model.head)

    # ----------------------------------------------------------------- loss
    def _loss(self, logits, labels):
        if self._task_plugin is not None:
            return self._task_plugin.loss(logits, labels)
        if self.config.task == "multilabel":
            return bce_with_logits_loss(logits, labels)
        return softmax_cross_entropy(logits, labels)

    def _scores(self, logits: np.ndarray) -> np.ndarray:
        """Per-task score used by the evaluation metric."""
        if self._task_plugin is not None:
            return self._task_plugin.scores(logits)
        if self.config.task == "binary":
            return logits[:, 1] - logits[:, 0]
        return logits

    # ------------------------------------------------------------- training
    def train_epoch(self, samples) -> float:
        """One pass over the data; returns the mean batch loss."""
        source = self._as_source(samples)
        if not len(source):
            raise ValueError("no training samples")
        self.model.train()
        batches = self._make_batches(source, self.config.shuffle)
        losses = []
        for batch, labels in self._pipeline(batches, train=True):
            if labels is None:
                raise ValueError("training batch has no labels")
            with self.timers.timing("compute"):
                if self.ps is not None:
                    # Version-keyed pull cache: the client returns None when
                    # no server update landed since the last pull, so the
                    # state-dict copy is skipped entirely on unchanged steps.
                    state = self.ps.pull()
                    if state is not None:
                        self.model.load_state_dict(state)
                self.model.zero_grad()
                logits = self._forward(batch)
                loss = self._loss(logits, labels)
                loss.backward()
                if self.ps is not None:
                    self.ps.push(
                        {
                            name: p.grad
                            for name, p in self.model.named_parameters()
                            if p.grad is not None
                        }
                    )
                else:
                    self.optimizer.step()
            losses.append(loss.item())
        return float(np.mean(losses))

    def fit(self, train_samples, val_samples=None, metric: str | None = None) -> list[dict]:
        """Run up to ``config.epochs`` epochs; returns per-epoch history
        dicts (loss, wall time, optional validation metric).  With
        ``early_stopping_patience`` set and validation data provided, stops
        once the metric plateaus and restores the best parameters seen."""
        train_samples = self._as_source(train_samples)
        val = None if val_samples is None else self._as_source(val_samples)
        patience = self.config.early_stopping_patience
        if patience is not None and val is None:
            raise ValueError("early stopping requires val_samples")
        best_metric, best_state, stale = -np.inf, None, 0
        for epoch in range(self.config.epochs):
            start = time.perf_counter()
            loss = self.train_epoch(train_samples)
            entry = {"epoch": epoch, "loss": loss, "seconds": time.perf_counter() - start}
            if val is not None:
                entry["val_metric"] = self.evaluate(val, metric)
            self.history.append(entry)
            if patience is not None:
                if entry["val_metric"] > best_metric + self.config.min_delta:
                    best_metric = entry["val_metric"]
                    best_state = self.model.state_dict()
                    stale = 0
                else:
                    stale += 1
                    if stale >= patience:
                        entry["early_stopped"] = True
                        break
        if best_state is not None:
            self.model.load_state_dict(best_state)
        return self.history

    # --------------------------------------------------------- checkpoints
    def save_checkpoint(self, path) -> None:
        """Persist model + optimizer state + data-order RNG so training can
        resume exactly where it stopped (verified bit-exact in tests)."""
        import pickle

        name_of = {id(p): n for n, p in self.model.named_parameters()}
        optimizer_state: dict = {}
        if isinstance(self.optimizer, Adam):
            for pid, st in self.optimizer._state.items():
                optimizer_state[name_of[pid]] = (st.m.copy(), st.v.copy(), st.step)
        elif self.optimizer is not None:  # SGD
            for pid, vel in self.optimizer._velocity.items():
                optimizer_state[name_of[pid]] = None if vel is None else vel.copy()
        payload = {
            "model": self.model.state_dict(),
            "optimizer": optimizer_state,
            "optimizer_kind": self.config.optimizer,
            "history": list(self.history),
            "rng_state": self._rng.bit_generator.state,
        }
        with open(path, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)

    def load_checkpoint(self, path) -> None:
        """Inverse of :meth:`save_checkpoint` (model must match in shape)."""
        import pickle

        from repro.nn.optim import AdamState

        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        if payload["optimizer_kind"] != self.config.optimizer:
            raise ValueError(
                f"checkpoint was written by a {payload['optimizer_kind']!r} "
                f"optimizer, trainer uses {self.config.optimizer!r}"
            )
        self.model.load_state_dict(payload["model"])
        if self.optimizer is not None:
            params = dict(self.model.named_parameters())
            if self.config.optimizer == "adam":
                self.optimizer._state = {
                    id(params[name]): AdamState(m.copy(), v.copy(), step)
                    for name, (m, v, step) in payload["optimizer"].items()
                }
            else:
                self.optimizer._velocity = {
                    id(params[name]): None if vel is None else vel.copy()
                    for name, vel in payload["optimizer"].items()
                }
        self.history = list(payload["history"])
        self._rng.bit_generator.state = payload["rng_state"]

    # ------------------------------------------------------------ inference
    def predict(self, samples) -> tuple[np.ndarray, np.ndarray]:
        """``(target_ids, logits)`` over all samples, batched, no autograd."""
        source = self._as_source(samples)
        self.model.eval()
        outs = []
        batches = self._make_batches(source, shuffle=False)
        with no_grad():
            for batch, _ in self._pipeline(batches, train=False):
                logits = self._forward(batch)
                outs.append(logits.data.copy())
        ids = source.ids()
        if self._task_plugin is not None:
            # Edge-level logit rows follow batch-sample order (one row per
            # target edge), so ids pass through unchanged.
            target_ids = np.concatenate(
                [ids[indices] for _, indices in batches]
            ).astype(np.int64)
        else:
            # Logit rows follow each batch's merged (sorted, deduped)
            # target ids.
            target_ids = np.concatenate(
                [np.unique(ids[indices]) for _, indices in batches]
            ).astype(np.int64)
        return target_ids, np.concatenate(outs, axis=0)

    def evaluate(self, samples, metric: str | None = None) -> float:
        """Metric over samples: accuracy (multiclass), micro-F1
        (multilabel), ROC-AUC (binary / link prediction) or the task
        plugin's default, unless overridden."""
        source = self._as_source(samples)
        if metric is None:
            if self._task_plugin is not None:
                metric = self._task_plugin.default_metric
            else:
                metric = {
                    "multiclass": "accuracy",
                    "multilabel": "micro_f1",
                    "binary": "auc",
                }[self.config.task]
        label_by_id = source.labels_by_id()
        target_ids, logits = self.predict(source)
        labels = [label_by_id[int(t)] for t in target_ids]
        if metric == "accuracy":
            return accuracy(logits, np.asarray(labels, dtype=np.int64))
        if metric == "micro_f1":
            return micro_f1(logits, np.stack(labels))
        if metric == "auc":
            return roc_auc(self._scores(logits), np.asarray(labels, dtype=np.int64))
        if metric.startswith("hits@"):
            k = int(metric.split("@", 1)[1])
            return hits_at_k(self._scores(logits), np.asarray(labels, dtype=np.int64), k)
        raise ValueError(f"unknown metric {metric!r}")
