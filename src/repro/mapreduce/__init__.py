"""Local MapReduce runtime — substrate **S3** (Dean & Ghemawat stand-in).

AGL's GraphFlat and GraphInfer are "simply implemented using MapReduce" so
they inherit the infrastructure's fault tolerance and scalability (§1, §3.1).
This package reproduces the programming contract those pipelines rely on:

* ``MapReduceJob`` — mapper / optional combiner / reducer over key-value
  pairs, partitioned by ``crc32`` of the key (``default_partition``) or by
  a job's own deterministic callable;
* ``LocalRuntime`` — pluggable ``serial`` / ``threads`` / ``processes``
  backends (see ``BACKEND_REGISTRY``), multi-round chaining, and a
  partitioned disk-spill shuffle (out-of-core operation; mandatory under
  the process backend so records never funnel through the parent);
* ``FaultPlan`` — the one fault plan: injects worker crashes, hangs,
  stragglers, damaged spill reads and connection resets so tests can assert
  that task re-execution produces byte-identical output (the fault-tolerance
  property the paper gets for free from mature infrastructure);
* ``DistFileSystem`` — a directory-backed stand-in for the cluster DFS that
  stores GraphFlat's sharded outputs.
"""

from repro.mapreduce.backends import (
    BACKEND_REGISTRY,
    Backend,
    WorkerCrashError,
    make_backend,
    register_backend,
)
from repro.mapreduce.job import Combiner, JobFailedError, MapReduceJob, SumCombiner
from repro.mapreduce.runtime import LocalRuntime, RunStats
from repro.mapreduce.fault import (
    FAULT_KINDS,
    FaultPlan,
    InjectedWorkerFailure,
    TaskTimeoutError,
)
from repro.mapreduce.retry import PhaseMonitor, RetryPolicy
from repro.mapreduce.fs import DistFileSystem
from repro.mapreduce.shuffle import decode_key, default_partition, key_bytes
from repro.mapreduce.spill import SpillLayout, SpillWriteResult

__all__ = [
    "BACKEND_REGISTRY",
    "Backend",
    "Combiner",
    "SumCombiner",
    "MapReduceJob",
    "JobFailedError",
    "LocalRuntime",
    "RunStats",
    "FAULT_KINDS",
    "FaultPlan",
    "InjectedWorkerFailure",
    "PhaseMonitor",
    "RetryPolicy",
    "TaskTimeoutError",
    "WorkerCrashError",
    "DistFileSystem",
    "SpillLayout",
    "SpillWriteResult",
    "decode_key",
    "default_partition",
    "key_bytes",
    "make_backend",
    "register_backend",
]
