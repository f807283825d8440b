"""Multi-worker training against the parameter servers (Figure 4 / §4.2.2).

Each worker owns a disjoint shard of the GraphFlat samples (data parallel —
legal because k-hop neighborhoods made samples independent) and runs the
ordinary GraphTrainer loop with a PS client installed: pull fresh
parameters, compute gradients, push.

Two worker backends:

* ``threads`` — workers are threads of this process sharing the group
  directly (numpy kernels release the GIL for the BLAS-heavy parts, but
  the backward pass is GIL-bound Python).  Works with either transport.
* ``processes`` — workers are real OS processes: the last GIL-bound stage
  of the pipeline finally shards across cores.  Requires a cross-process
  transport — ``shm`` (the shared-memory slabs of :mod:`repro.ps.shm`) or
  ``tcp`` (socket clients of :mod:`repro.ps.tcp`); each worker receives a
  picklable slice of the sample source — a DFS dataset's shard paths plus
  row locators, so it opens its mmap'd columnar shards directly, or the
  worker's own rows of an in-memory source.  Epochs are barriered: workers
  report their epoch loss and wait on a gate while the parent evaluates
  the server parameters, exactly like the thread path's per-epoch join.

On top of either backend, ``remote_workers`` hands every worker shard to
*joining* processes instead of spawning them: the trainer opens a
:class:`~repro.transport.worker.WorkerHub` and waits for ``repro worker
--join`` peers (possibly on other hosts) to dial in, fetch their train
specs via the broadcast plane, and train against the TCP parameter
server.  Requires ``transport="tcp"``.

BSP with the same seed and worker count produces a bit-identical loss
trajectory on every backend and transport (tested) — the consistency
semantics live in one place (:mod:`repro.ps.server`) and the transports
only move bytes.
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

from repro.core.trainer.dataset import as_sample_source
from repro.core.trainer.trainer import GraphTrainer, TrainerConfig
from repro.ps.server import ParameterServerGroup

__all__ = ["DistributedConfig", "DistributedTrainer", "WorkerError"]

_WORKER_BACKENDS = ("threads", "processes")
_EVENT_POLL_S = 0.5


class WorkerError(RuntimeError):
    """A worker process failed; carries the remote traceback text."""


@dataclass
class DistributedConfig:
    num_workers: int = 4
    num_servers: int = 2
    mode: str = "async"
    staleness: int = 2
    seed: int = 0
    worker_backend: str = "threads"
    """``threads`` (workers share this process) or ``processes`` (real OS
    processes — true multi-core gradient computation)."""
    transport: str | None = None
    """PS transport: ``local`` (lock-based, single-process), ``shm``
    (shared-memory slabs) or ``tcp`` (socket clients — works across
    hosts).  ``None`` picks the natural one for the worker backend:
    threads -> local, processes -> shm, remote_workers -> tcp."""
    tcp_host: str = "127.0.0.1"
    """Bind address for the TCP parameter server (``transport="tcp"``)."""
    tcp_port: int = 0
    """Bind port for the TCP parameter server; 0 means ephemeral."""
    remote_workers: int = 0
    """Workers expected to arrive via ``repro worker --join`` instead of
    being spawned locally.  Non-zero requires ``transport="tcp"`` and (for
    now) must equal ``num_workers`` — the hub owns every shard."""
    hub_port: int = 0
    """Bind port for the worker hub's control plane (``remote_workers``);
    0 means ephemeral — read the bound address off ``hub_endpoint``."""

    def __post_init__(self):
        if self.worker_backend not in _WORKER_BACKENDS:
            raise ValueError(f"worker_backend must be one of {_WORKER_BACKENDS}")
        if self.transport is None:
            if self.remote_workers:
                self.transport = "tcp"
            else:
                self.transport = (
                    "shm" if self.worker_backend == "processes" else "local"
                )
        if self.worker_backend == "processes" and self.transport == "local":
            raise ValueError(
                "process workers cannot share a local (in-process) parameter "
                "server; use transport='shm' or transport='tcp'"
            )
        if self.remote_workers:
            if self.transport != "tcp":
                raise ValueError("remote_workers requires transport='tcp'")
            if self.remote_workers != self.num_workers:
                raise ValueError(
                    "remote_workers must equal num_workers (every shard is "
                    f"served through the hub): {self.remote_workers} != "
                    f"{self.num_workers}"
                )


@dataclass
class _ProcessWorker:
    """Picklable worker operator: the ``multiprocessing`` process target.

    Same pattern as the MapReduce reducers — a top-level dataclass, not a
    closure — so the spawn/forkserver pickler can ship it.  Everything it
    carries is small: the model factory, the config, a sample-source slice
    (shard paths + locators, or the worker's own in-memory rows) and the
    shm client (slab names + control handles).
    """

    worker_id: int
    model_factory: object
    config: TrainerConfig
    shard: object
    client: object
    events: object
    gate: object

    def __call__(self) -> None:
        try:
            trainer = GraphTrainer(
                self.model_factory(), self.config, ps_client=self.client
            )
            for epoch in range(self.config.epochs):
                loss = trainer.train_epoch(self.shard)
                self.client.finish_epoch()
                self.events.put(("epoch", self.worker_id, epoch, loss))
                if epoch + 1 < self.config.epochs:
                    self.gate.acquire()  # parent evaluates, then releases
            self.events.put(("done", self.worker_id, self.client.stats()))
        except BaseException as exc:
            self.events.put(
                ("error", self.worker_id, f"{exc}\n{traceback.format_exc()}")
            )


class DistributedTrainer:
    """Orchestrates N workers + a server group over one model architecture.

    ``model_factory`` must return a freshly-built model with *identical*
    initialisation on every call (pass a fixed seed); its state initialises
    the servers, every worker immediately pulls, so all replicas start in
    agreement.  With ``worker_backend="processes"`` the factory must also
    be picklable (a top-level callable or ``functools.partial``, not a
    lambda).
    """

    def __init__(
        self,
        model_factory,
        trainer_config: TrainerConfig,
        dist_config: DistributedConfig | None = None,
    ):
        self.dist = dist_config or DistributedConfig()
        self.config = trainer_config
        self.group = ParameterServerGroup(
            num_servers=self.dist.num_servers,
            num_workers=self.dist.num_workers,
            optimizer=trainer_config.optimizer,
            lr=trainer_config.lr,
            weight_decay=trainer_config.weight_decay,
            mode=self.dist.mode,
            staleness=self.dist.staleness,
            transport=self.dist.transport,
            tcp_host=self.dist.tcp_host,
            tcp_port=self.dist.tcp_port,
        )
        self._factory = model_factory
        self._eval_model = model_factory()
        self._eval_trainer = GraphTrainer(self._eval_model, trainer_config)
        self.group.initialize(self._eval_model.state_dict())
        self._hub = None
        if self.dist.remote_workers:
            from repro.transport.worker import WorkerHub

            self._hub = WorkerHub(host=self.dist.tcp_host, port=self.dist.hub_port)
        self.workers: list[GraphTrainer] = []
        self._clients = []
        if self.dist.worker_backend == "threads" and not self.dist.remote_workers:
            for w in range(self.dist.num_workers):
                client = self.group.client(w)
                self._clients.append(client)
                self.workers.append(
                    GraphTrainer(model_factory(), self._worker_config(w), ps_client=client)
                )
        self.history: list[dict] = []
        self.worker_stats: dict[int, dict] = {}

    def _worker_config(self, worker_id: int) -> TrainerConfig:
        """Worker replica config: same hyper-parameters, decorrelated data
        order (each worker shuffles its shard with its own seed)."""
        return replace(self.config, seed=self.config.seed + 1000 * worker_id)

    # ------------------------------------------------------------------ data
    def _worker_slices(self, source) -> list:
        """Round-robin worker slices of ``source``; BSP additionally trims
        them to equal sizes so every step has a full complement of
        gradients (no barrier stalls)."""
        order = np.arange(len(source))
        shards = [order[w :: self.dist.num_workers] for w in range(self.dist.num_workers)]
        if self.dist.mode == "bsp":
            smallest = min(len(s) for s in shards)
            usable = (smallest // self.config.batch_size) * self.config.batch_size
            usable = max(usable, min(smallest, self.config.batch_size))
            shards = [s[:usable] for s in shards]
        return [source.slice(idx) for idx in shards]

    # ------------------------------------------------------------------ fit
    def fit(self, train_samples, val_samples=None, metric: str | None = None) -> list[dict]:
        source = as_sample_source(train_samples)
        if len(source) < self.dist.num_workers:
            raise ValueError(
                f"{len(source)} samples cannot feed {self.dist.num_workers} workers"
            )
        val = None if val_samples is None else as_sample_source(val_samples)
        if self.dist.remote_workers:
            return self._fit_remote(source, val, metric)
        if self.dist.worker_backend == "processes":
            return self._fit_processes(source, val, metric)
        return self._fit_threads(source, val, metric)

    @staticmethod
    def _raise_worker_errors(errors: list[BaseException]) -> None:
        """Surface *every* worker failure, not just the first."""
        if not errors:
            return
        if len(errors) == 1:
            raise errors[0]
        raise BaseExceptionGroup("distributed training workers failed", errors)

    # ------------------------------------------------------------- threads
    def _fit_threads(self, source, val, metric: str | None) -> list[dict]:
        shards = self._worker_slices(source)

        for epoch in range(self.config.epochs):
            start = time.perf_counter()
            losses: dict[int, float] = {}
            errors: list[BaseException] = []
            error_lock = threading.Lock()
            self.group.begin_epoch()

            def run_worker(w: int):
                try:
                    losses[w] = self.workers[w].train_epoch(shards[w])
                except BaseException as exc:
                    with error_lock:
                        errors.append(exc)
                finally:
                    self.group.finish_worker(w)

            threads = [
                threading.Thread(target=run_worker, args=(w,), name=f"agl-worker-{w}")
                for w in range(self.dist.num_workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            self._raise_worker_errors(errors)

            entry = {
                "epoch": epoch,
                "loss": float(np.mean([losses[w] for w in sorted(losses)])),
                "seconds": time.perf_counter() - start,
                "workers": self.dist.num_workers,
            }
            if val is not None:
                entry["val_metric"] = self.evaluate(val, metric)
            self.history.append(entry)
        self.worker_stats = {
            w: client.stats() for w, client in enumerate(self._clients)
        }
        return self.history

    # ------------------------------------------------------------ processes
    def _fit_processes(self, source, val, metric: str | None) -> list[dict]:
        shards = self._worker_slices(source)
        # Either cross-process transport exposes the same parent-side handle
        # surface: ``ctx`` (the agreed start-method), ``mark_dead`` (excuse a
        # corpse from every barrier) and ``server_error``.
        transport = self.group._shm if self.group._shm is not None else self.group._tcp
        ctx = transport.ctx
        events = ctx.Queue()
        gates = [ctx.Semaphore(0) for _ in range(self.dist.num_workers)]
        operators = [
            _ProcessWorker(
                w,
                self._factory,
                self._worker_config(w),
                shards[w],
                self.group.client(w),
                events,
                gates[w],
            )
            for w in range(self.dist.num_workers)
        ]
        processes = [
            ctx.Process(target=op, name=f"agl-worker-{w}")
            for w, op in enumerate(operators)
        ]
        errors: dict[int, BaseException] = {}
        dead: set[int] = set()

        def reap(w: int, exc: BaseException) -> None:
            errors[w] = exc
            dead.add(w)
            transport.mark_dead(w)

        # Events from different workers interleave freely (a fast worker's
        # final "done" can land while slower workers still owe this epoch's
        # loss), so received messages are filed into a mailbox and each
        # collect() drains the slot it is waiting for.
        mailbox: dict[str, dict[int, object]] = {"epoch": {}, "done": {}}

        def collect(expected: set[int], tag: str) -> dict[int, object]:
            """Wait for one ``tag`` event per expected worker, detecting
            silently-died processes so a BSP barrier can never hang fit()."""
            got: dict[int, object] = {}
            pending = set(expected)
            while pending:
                for w in sorted(pending & mailbox[tag].keys()):
                    got[w] = mailbox[tag].pop(w)
                    pending.discard(w)
                if not pending:
                    break
                try:
                    msg = events.get(timeout=_EVENT_POLL_S)
                except queue_mod.Empty:
                    for w in sorted(pending):
                        if not processes[w].is_alive():
                            reap(
                                w,
                                WorkerError(
                                    f"worker {w} process died without reporting "
                                    f"(exit code {processes[w].exitcode})"
                                ),
                            )
                            pending.discard(w)
                    continue
                kind, w = msg[0], msg[1]
                if kind == "error":
                    reap(w, WorkerError(f"worker {w} failed:\n{msg[2]}"))
                    pending.discard(w)
                elif kind == "epoch":
                    mailbox["epoch"][w] = msg[3]
                elif kind == "done":
                    mailbox["done"][w] = msg[2]
            return got

        self.group.begin_epoch()
        for p in processes:
            p.start()
        try:
            live = set(range(self.dist.num_workers))
            for epoch in range(self.config.epochs):
                start = time.perf_counter()
                losses = collect(live - dead, "epoch")
                live -= dead
                if not losses:
                    break  # every worker failed; errors carry the cause
                entry = {
                    "epoch": epoch,
                    "loss": float(np.mean([losses[w] for w in sorted(losses)])),
                    "seconds": time.perf_counter() - start,
                    "workers": len(losses),
                }
                if val is not None:
                    entry["val_metric"] = self.evaluate(val, metric)
                self.history.append(entry)
                if epoch + 1 < self.config.epochs:
                    self.group.begin_epoch()
                    for w in sorted(live):
                        gates[w].release()
            self.worker_stats = collect(live - dead, "done")
            if transport.server_error is not None:
                errors.setdefault(-1, transport.server_error)
        finally:
            for gate in gates:
                # If the parent is erroring out mid-fit, workers may be
                # parked on their epoch gates; release generously (extra
                # releases are harmless) so join() doesn't stall.
                for _ in range(self.config.epochs):
                    gate.release()
            for p in processes:
                p.join(timeout=10)
                if p.is_alive():  # pragma: no cover - hung worker
                    p.terminate()
                    p.join(timeout=5)
        self._raise_worker_errors([errors[w] for w in sorted(errors)])
        return self.history

    # -------------------------------------------------------------- remote
    def _fit_remote(self, source, val, metric: str | None) -> list[dict]:
        """Serve every worker shard to joining ``repro worker --join`` peers.

        The hub's control plane carries only small coordination frames; the
        per-worker train specs (model factory, config, source slice) ride
        the broadcast plane, and gradients/parameters flow worker <-> TCP
        parameter server directly.  A DFS source's shard paths must be
        reachable from the joining hosts (shared filesystem), exactly like
        the spill dir of the shared-dir shuffle transport; an in-memory
        source's slices carry their rows."""
        from repro.transport.worker import TrainSpec

        ps_host, ps_port = self.group.tcp_endpoint
        shards = self._worker_slices(source)
        hub = self._hub
        try:
            for w in range(self.dist.num_workers):
                hub.publish_spec(
                    w,
                    TrainSpec(
                        worker_id=w,
                        model_factory=self._factory,
                        config=self._worker_config(w),
                        shard=shards[w],
                        ps_host=ps_host,
                        ps_port=ps_port,
                    ),
                )
            self.group.begin_epoch()
            hub.start_training(self.dist.num_workers)
            for epoch in range(self.config.epochs):
                start = time.perf_counter()
                losses = hub.collect_epoch(epoch)
                entry = {
                    "epoch": epoch,
                    "loss": float(np.mean([losses[w] for w in sorted(losses)])),
                    "seconds": time.perf_counter() - start,
                    "workers": self.dist.num_workers,
                }
                if val is not None:
                    entry["val_metric"] = self.evaluate(val, metric)
                self.history.append(entry)
                if epoch + 1 < self.config.epochs:
                    self.group.begin_epoch()
                    hub.release_epoch()
            self.worker_stats = hub.collect_done()
        finally:
            hub.close()
            self._hub = None
        return self.history

    @property
    def hub_endpoint(self) -> tuple[str, int] | None:
        """``(host, port)`` remote workers join (``repro worker --join``),
        or ``None`` when no hub is open."""
        return self._hub.endpoint if self._hub is not None else None

    # ------------------------------------------------------------- evaluate
    def evaluate(self, samples, metric: str | None = None) -> float:
        """Evaluate the *server* parameters (the deployed model)."""
        self._eval_model.load_state_dict(self.group.pull())
        return self._eval_trainer.evaluate(samples, metric)

    def server_model(self):
        """The deployed model: server parameters loaded into a local replica
        (what the CLI persists after distributed training)."""
        self._eval_model.load_state_dict(self.group.pull())
        return self._eval_model

    def pull_stats(self) -> dict[str, int]:
        """Aggregate client pull accounting across workers: total pulls, how
        many actually refreshed, and the bytes the transport had to copy
        (0 for shm — a pull is a view refresh, nothing is serialized)."""
        totals = {"pulls": 0, "refreshes": 0, "pull_bytes": 0}
        for stats in self.worker_stats.values():
            for key in totals:
                totals[key] += int(stats.get(key, 0))
        return totals

    # -------------------------------------------------------------- teardown
    def close(self) -> None:
        """Release the transport (shared-memory slabs, server thread) and
        any still-open worker hub."""
        if self._hub is not None:
            self._hub.close()
            self._hub = None
        self.group.close()

    def __enter__(self) -> "DistributedTrainer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
