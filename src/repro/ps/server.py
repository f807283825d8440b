"""Parameter server shards, client handles and consistency control.

Parameters are sharded across servers by a stable hash of their dotted name
(the same crc32 partitioner the MapReduce shuffle uses).  Each shard owns
its slice's optimizer state — AGL's workers never run an optimizer; they
push raw gradients and pull fresh values, which is what makes commodity
(low-memory) workers sufficient (§3.3).

Consistency modes
-----------------
* ``async`` — gradient applied on arrival under the shard lock (Hogwild-ish
  at shard granularity).  Highest throughput, stale gradients.
* ``bsp``   — bulk-synchronous: all workers must contribute a gradient for
  the step; the barrier action applies the *averaged* gradient once, with
  contributions summed in worker-id order so the trajectory is
  deterministic given worker data partitions (bit-exact across the thread
  and process transports — tested).
* ``ssp``   — stale-synchronous: a worker may run ahead of the slowest by at
  most ``staleness`` steps before blocking (Ho et al., 2013).

Transports
----------
* ``local`` — the group lives in one process; workers are threads sharing
  it directly, synchronisation is ``threading.Condition``.  The serial /
  thread fallback.
* ``shm``   — the parameter state lives in ``multiprocessing.shared_memory``
  slabs (:mod:`repro.ps.shm`): one float32 parameter slab fronted by a
  seqlock version counter, plus one gradient slab per worker.  ``pull()``
  becomes a version-keyed view refresh (nothing is pickled per step) and
  ``push()`` a slab write plus a tiny control message; a server thread in
  the parent applies updates through the *same* shard/optimizer code as
  the local path, so the consistency semantics — and, for BSP, the exact
  float trajectory — carry over.  Clients are picklable, which is what
  lets :class:`~repro.ps.distributed.DistributedTrainer` hand them to real
  OS worker processes.

Every apply bumps ``version``; :class:`PSClient` caches the version it last
saw so an unchanged model costs a pull nothing (no copy at all).
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from repro.mapreduce.shuffle import default_partition
from repro.nn.optim import AdamState, adam_update, sgd_update

__all__ = ["ParameterServerGroup", "PSClient", "mean_gradients"]

_MODES = ("async", "bsp", "ssp")
_TRANSPORTS = ("local", "shm", "tcp")


def mean_gradients(
    contributions: dict[int, dict[str, np.ndarray]]
) -> dict[str, np.ndarray]:
    """Average per-worker gradient dicts in worker-id order.

    Shared by both transports' BSP barriers: summing in a fixed order is
    what makes the averaged step — and therefore the whole BSP trajectory —
    bit-identical between the thread path and the shared-memory path.
    """
    workers = sorted(contributions)
    names = set(contributions[workers[0]])
    for w in workers[1:]:  # a worker may lack a grad for a param this step
        names &= contributions[w].keys()
    return {
        name: np.mean([contributions[w][name] for w in workers], axis=0)
        for name in sorted(names)
    }


class _ServerShard:
    """One parameter server: a slice of parameters + optimizer state."""

    def __init__(self, optimizer: str, lr: float, weight_decay: float):
        self.values: dict[str, np.ndarray] = {}
        self.adam: dict[str, AdamState] = {}
        self.velocity: dict[str, np.ndarray | None] = {}
        self.optimizer = optimizer
        self.lr = lr
        self.weight_decay = weight_decay
        self.lock = threading.Lock()
        self.applied_updates = 0

    def init_param(self, name: str, value: np.ndarray, into: np.ndarray | None = None) -> None:
        """Install a parameter; ``into`` (a shared-memory view) makes the
        slab the authoritative storage the optimizer updates in place."""
        if into is None:
            self.values[name] = np.array(value, dtype=np.float32, copy=True)
        else:
            into[...] = np.asarray(value, dtype=np.float32)
            self.values[name] = into
        if self.optimizer == "adam":
            self.adam[name] = AdamState.like(self.values[name])
        else:
            self.velocity[name] = None

    def apply(self, grads: dict[str, np.ndarray]) -> None:
        with self.lock:
            for name, grad in grads.items():
                value = self.values[name]
                if self.optimizer == "adam":
                    adam_update(
                        value, grad, self.adam[name], self.lr, weight_decay=self.weight_decay
                    )
                else:
                    self.velocity[name] = sgd_update(
                        value,
                        grad,
                        self.velocity[name],
                        self.lr,
                        momentum=0.9,
                        weight_decay=self.weight_decay,
                    )
            self.applied_updates += 1

    def read(self) -> dict[str, np.ndarray]:
        with self.lock:
            return {name: value.copy() for name, value in self.values.items()}


class ParameterServerGroup:
    """A group of server shards plus the consistency controller."""

    def __init__(
        self,
        num_servers: int = 2,
        num_workers: int = 1,
        optimizer: str = "adam",
        lr: float = 0.01,
        weight_decay: float = 0.0,
        mode: str = "async",
        staleness: int = 2,
        transport: str = "local",
        tcp_host: str = "127.0.0.1",
        tcp_port: int = 0,
    ):
        if num_servers < 1 or num_workers < 1:
            raise ValueError("need at least one server and one worker")
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if transport not in _TRANSPORTS:
            raise ValueError(f"transport must be one of {_TRANSPORTS}")
        self.num_servers = num_servers
        self.num_workers = num_workers
        self.mode = mode
        self.staleness = staleness
        self.transport = transport
        self.shards = [_ServerShard(optimizer, lr, weight_decay) for _ in range(num_servers)]
        self._placement: dict[str, int] = {}
        self._initialized = False
        self._shm = None  # ShmTransport when transport == "shm"
        self._shm_closed = False  # the shards' values were views into its slabs
        self._tcp = None  # TcpPSServer when transport == "tcp"
        self.tcp_host = tcp_host
        self.tcp_port = tcp_port

        # BSP machinery: gradients buffered per worker per step; the *last*
        # required contributor applies the worker-id-ordered average once
        # and releases the step barrier.  ``_bsp_required`` tracks which
        # workers a barrier may still wait on — a finished (or dead) worker
        # is removed so an epoch tail or a mid-epoch crash can never
        # deadlock the step.
        self._bsp_lock = threading.Condition()
        self._bsp_buffer: dict[int, dict[str, np.ndarray]] = {}
        self._bsp_generation = 0
        self._bsp_required: set[int] = set(range(num_workers))

        # SSP bookkeeping: per-worker step counters.
        self._ssp_lock = threading.Condition()
        self._worker_steps = [0] * num_workers

        self.total_pushes = 0
        self._version = 0
        self._version_lock = threading.Lock()

    # -------------------------------------------------------------- set-up
    def shard_of(self, name: str) -> int:
        if name not in self._placement:
            self._placement[name] = default_partition(name, self.num_servers)
        return self._placement[name]

    def initialize(self, state: dict[str, np.ndarray]) -> None:
        """Install the initial model (worker 0's init, conventionally)."""
        if self.transport == "shm":
            from repro.ps.shm import ShmTransport

            self._shm = ShmTransport(self, state)
            views = self._shm.param_views()
            for name, value in state.items():
                self.shards[self.shard_of(name)].init_param(name, value, into=views[name])
            self._shm.commit_initial()
            self._shm.start()
        else:
            for name, value in state.items():
                self.shards[self.shard_of(name)].init_param(name, value)
            if self.transport == "tcp":
                # The socket front-end wraps the *local* consistency
                # machinery: one handler thread per worker connection plays
                # the role of a local worker thread, so BSP barriers and
                # the worker-id-ordered average carry over bit-identically.
                from repro.ps.tcp import TcpPSServer

                self._tcp = TcpPSServer(self, state, self.tcp_host, self.tcp_port)
        self._initialized = True

    def _require_init(self) -> None:
        if not self._initialized:
            raise RuntimeError("ParameterServerGroup.initialize() was never called")

    def _check_open(self, call: str) -> None:
        """After an shm ``close()`` the shards' values are views into
        unmapped slabs: refuse instead of reading or writing them."""
        if self._shm_closed:
            from repro.ps.shm import TransportClosedError

            raise TransportClosedError(
                f"ParameterServerGroup: {call}() after close() unmapped its shm slabs"
            )

    # -------------------------------------------------------------- version
    @property
    def version(self) -> int:
        """Monotonic update counter; clients key their pull cache on it."""
        self._check_open("version")
        if self._shm is not None:
            return self._shm.version()
        return self._version

    # ------------------------------------------------------------- pull/push
    def pull(self) -> dict[str, np.ndarray]:
        """Gather the full current model from all shards."""
        self._require_init()
        self._check_open("pull")
        if self._shm is not None:
            return self._shm.read_state()
        state: dict[str, np.ndarray] = {}
        for shard in self.shards:
            state.update(shard.read())
        return state

    def _scatter_apply(self, grads: dict[str, np.ndarray]) -> None:
        by_shard: dict[int, dict[str, np.ndarray]] = {}
        for name, grad in grads.items():
            by_shard.setdefault(self.shard_of(name), {})[name] = grad
        write = (
            self._shm.write_lock() if self._shm is not None else contextlib.nullcontext()
        )
        with write:
            for shard_id, shard_grads in sorted(by_shard.items()):
                self.shards[shard_id].apply(shard_grads)
        with self._version_lock:
            self._version += 1

    def push(self, worker_id: int, grads: dict[str, np.ndarray]) -> None:
        """Contribute one worker's gradients under the configured mode."""
        self._require_init()
        self._check_open("push")
        if not 0 <= worker_id < self.num_workers:
            raise ValueError(f"worker_id {worker_id} out of range")
        if self._shm is not None:
            self.client(worker_id).push(grads)
            return
        self._push_local(worker_id, grads)

    def _push_local(self, worker_id: int, grads: dict[str, np.ndarray]) -> None:
        """Mode dispatch shared by the local transport and the shm server
        thread (which feeds it slab views instead of caller dicts)."""
        self.total_pushes += 1
        if self.mode == "async":
            self._scatter_apply(grads)
            return
        if self.mode == "ssp":
            self._push_ssp(worker_id, grads)
            return
        self._push_bsp(worker_id, grads)

    def _bsp_flush_locked(self) -> None:
        """Apply the pending barrier (call with ``_bsp_lock`` held)."""
        self._scatter_apply(mean_gradients(self._bsp_buffer))
        self._bsp_buffer = {}
        self._bsp_generation += 1
        self._bsp_lock.notify_all()

    def _push_bsp(self, worker_id: int, grads: dict[str, np.ndarray]) -> None:
        with self._bsp_lock:
            generation = self._bsp_generation
            self._bsp_buffer[worker_id] = grads
            if set(self._bsp_buffer) >= self._bsp_required:
                self._bsp_flush_locked()
            else:
                while self._bsp_generation == generation:
                    self._bsp_lock.wait()

    def _push_ssp(self, worker_id: int, grads: dict[str, np.ndarray]) -> None:
        with self._ssp_lock:
            while self._worker_steps[worker_id] - min(self._worker_steps) > self.staleness:
                self._ssp_lock.wait()
        self._scatter_apply(grads)
        with self._ssp_lock:
            self._worker_steps[worker_id] += 1
            self._ssp_lock.notify_all()

    # ------------------------------------------------------- epoch lifecycle
    def begin_epoch(self) -> None:
        """Re-arm the BSP barrier for a fresh epoch: every worker is again a
        required contributor (``finish_worker`` removes them as they end)."""
        self._check_open("begin_epoch")
        if self._shm is not None:
            self._shm.begin_epoch()
            return
        with self._bsp_lock:
            self._bsp_required = set(range(self.num_workers))

    def finish_worker(self, worker_id: int) -> None:
        """Mark a worker done for the epoch so SSP stragglers don't deadlock
        and a BSP step never waits on an exhausted (or crashed) worker."""
        self._check_open("finish_worker")
        if self._shm is not None:
            self._shm.finish_worker(worker_id)
            return
        if self.mode == "ssp":
            with self._ssp_lock:
                self._worker_steps[worker_id] = max(self._worker_steps)
                self._ssp_lock.notify_all()
        elif self.mode == "bsp":
            with self._bsp_lock:
                self._bsp_required.discard(worker_id)
                if self._bsp_buffer and set(self._bsp_buffer) >= self._bsp_required:
                    self._bsp_flush_locked()

    def client(self, worker_id: int):
        self._check_open("client")
        if self._shm is not None:
            return self._shm.client(worker_id)
        if self._tcp is not None:
            return self._tcp.client(worker_id)
        return PSClient(self, worker_id)

    @property
    def tcp_endpoint(self) -> tuple[str, int] | None:
        """``(host, port)`` the TCP transport listens on (``None`` otherwise)
        — what remote workers joined via ``repro worker --join`` dial."""
        return self._tcp.endpoint if self._tcp is not None else None

    # -------------------------------------------------------------- teardown
    def close(self) -> None:
        """Release transport resources (shared-memory slabs, server thread).
        Idempotent; a no-op for the local transport.  A group closed on the
        shm transport refuses every later call with
        :class:`~repro.ps.shm.TransportClosedError`."""
        if self._shm is not None:
            self._shm.close()
            self._shm = None
            self._shm_closed = True
        if self._tcp is not None:
            self._tcp.close()
            self._tcp = None

    def __enter__(self) -> "ParameterServerGroup":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PSClient:
    """Per-worker handle with the two-call interface GraphTrainer expects.

    ``pull()`` is version-cached: it returns ``None`` when no update has
    been applied since the last pull, so the trainer skips the state-dict
    copy entirely on unchanged steps.  ``stats()`` reports how many pulls
    actually moved bytes.
    """

    def __init__(self, group: ParameterServerGroup, worker_id: int):
        self.group = group
        self.worker_id = worker_id
        self._seen_version = -1
        self.pulls = 0
        self.refreshes = 0
        self.pull_bytes = 0

    def pull(self) -> dict[str, np.ndarray] | None:
        self.pulls += 1
        version = self.group.version
        if version == self._seen_version:
            return None
        state = self.group.pull()
        self._seen_version = version
        self.refreshes += 1
        self.pull_bytes += sum(int(a.nbytes) for a in state.values())
        return state

    def push(self, grads: dict[str, np.ndarray]) -> None:
        self.group.push(self.worker_id, grads)

    def finish_epoch(self) -> None:
        self.group.finish_worker(self.worker_id)

    def stats(self) -> dict[str, int]:
        return {
            "pulls": self.pulls,
            "refreshes": self.refreshes,
            "pull_bytes": self.pull_bytes,
        }
