"""Parameter-server substrate — **S4** (Kunpeng stand-in, §3.3 Figure 4).

"The overall architecture of GraphTrainer follows the parameter server
design ... workers perform the bulk of computation, servers maintain the
current version of the graph model parameters."

* :class:`ParameterServerGroup` — N server shards, each owning a slice of
  the parameters with **server-side** optimizer state (Adam/SGD/momentum);
  ``transport="local"`` (lock-based, single-process) or ``"shm"``
  (shared-memory slabs + version counter — :mod:`repro.ps.shm`);
* :class:`PSClient` / :class:`~repro.ps.shm.ShmPSClient` — per-worker
  handles: version-cached ``pull()``, ``push(grads)``;
* consistency modes: ``async`` (apply-on-arrival, lock per shard), ``bsp``
  (barrier + worker-id-ordered averaged gradients) and ``ssp`` (bounded
  staleness);
* :class:`DistributedTrainer` — multi-worker training loop; workers are
  threads or real OS processes (Figure 7 convergence / Figure 8 speedup);
* :mod:`repro.ps.simulate` — calibrated discrete-event cluster model that
  produces Figure 8's 1..100-worker speedup curve on a small box.
"""

from repro.ps.server import ParameterServerGroup, PSClient
from repro.ps.shm import ShmPSClient, TransportClosedError
from repro.ps.distributed import DistributedTrainer, DistributedConfig, WorkerError
from repro.ps.simulate import ClusterModel, simulate_speedup

__all__ = [
    "ParameterServerGroup",
    "PSClient",
    "ShmPSClient",
    "TransportClosedError",
    "DistributedTrainer",
    "DistributedConfig",
    "WorkerError",
    "ClusterModel",
    "simulate_speedup",
]
