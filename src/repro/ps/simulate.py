"""Calibrated discrete-event cluster model — the Figure 8 substitute.

The paper measures training speedup from 1 to 100 workers on Ant's
production cluster.  This box has 2 cores, so beyond 2 workers *measured*
speedup is meaningless; instead we reproduce the experiment's mechanism with
a discrete-event simulation whose inputs are **measured on this machine**
(per-batch compute seconds, per-batch parameter payload) and whose cluster
parameters (NIC bandwidth, number of server shards, per-update service
time, worker heterogeneity) follow the paper's §4.2.2 description of the
environment.  ``benchmarks/bench_fig8_speedup.py`` drives it with the
costs it measures (README "Benchmarks").

Model: each worker grinds through its share of the epoch's batches.  A
batch costs ``compute`` seconds locally, then one pull+push transaction with
a parameter-server shard (round-robin).  Shards are FCFS queues with service
time ``payload/bandwidth + apply``; a worker blocks until its transaction
completes.  Workers have multiplicative speed jitter (the "different tasks
operating on the same physical machine" the paper blames for its slope
perturbations).  The outcome: near-linear speedup whose slope degrades
gracefully as shard queues saturate — the paper's ~0.8 slope regime.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import new_rng

__all__ = ["ClusterModel", "simulate_epoch_seconds", "simulate_speedup"]


@dataclass
class ClusterModel:
    """Measured + environmental parameters of the simulated cluster."""

    batch_compute_seconds: float
    """Measured single-worker wall time of one batch's model computation."""

    batch_payload_mb: float
    """Pull + push bytes per batch, in MiB (model size dependent)."""

    network_mbps: float = 1200.0
    """Effective per-transaction bandwidth to the servers, MiB/s."""

    server_apply_seconds: float = 2e-3
    """Server-side optimizer service time per update."""

    num_servers: int = 10
    """Parameter-server shard count (paper trains with a PS cluster)."""

    worker_jitter: float = 0.08
    """Std-dev of multiplicative worker speed noise (shared cluster)."""

    def transaction_seconds(self) -> float:
        return self.batch_payload_mb / self.network_mbps + self.server_apply_seconds


def simulate_epoch_seconds(
    model: ClusterModel,
    num_batches: int,
    num_workers: int,
    seed: int = 0,
) -> float:
    """Wall-clock of one epoch: ``num_batches`` split across workers.

    Event-driven: workers alternate compute (private) and a PS transaction
    (FCFS per shard, round-robin shard choice).  Returns the finish time of
    the last worker.
    """
    if num_workers < 1 or num_batches < 1:
        raise ValueError("need >= 1 worker and >= 1 batch")
    rng = new_rng(seed)
    speed = 1.0 + model.worker_jitter * rng.standard_normal(num_workers)
    speed = np.clip(speed, 0.5, 2.0)
    per_worker = [num_batches // num_workers] * num_workers
    for i in range(num_batches % num_workers):
        per_worker[i] += 1

    t_serve = model.transaction_seconds()
    server_free = [0.0] * model.num_servers
    # Each worker: (next_event_time, worker_id); event = finished computing a
    # batch, now needs a server transaction.
    heap: list[tuple[float, int]] = []
    remaining = list(per_worker)
    next_server = 0
    for w in range(num_workers):
        if remaining[w] > 0:
            heapq.heappush(heap, (model.batch_compute_seconds * speed[w], w))
            remaining[w] -= 1
    finish = 0.0
    while heap:
        t, w = heapq.heappop(heap)
        s = next_server
        next_server = (next_server + 1) % model.num_servers
        done = max(t, server_free[s]) + t_serve
        server_free[s] = done
        finish = max(finish, done)
        if remaining[w] > 0:
            remaining[w] -= 1
            heapq.heappush(heap, (done + model.batch_compute_seconds * speed[w], w))
    return finish


def simulate_speedup(
    model: ClusterModel,
    num_batches: int,
    worker_counts: list[int],
    seed: int = 0,
) -> dict[int, float]:
    """Speedup ratio (single-worker time / W-worker time) per worker count."""
    baseline = simulate_epoch_seconds(model, num_batches, 1, seed=seed)
    return {
        w: baseline / simulate_epoch_seconds(model, num_batches, w, seed=seed + w)
        for w in worker_counts
    }
