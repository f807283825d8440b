"""Execution engine for :class:`~repro.mapreduce.job.MapReduceJob`.

Backends (see :mod:`repro.mapreduce.backends` for the registry):

* ``"serial"`` — everything in the calling thread; the reference semantics.
* ``"threads"`` — map and reduce tasks on a thread pool.
* ``"processes"`` — map and reduce tasks in a ``ProcessPoolExecutor``:
  true multi-core scaling (§3.2's near-linear GraphFlat speedup).  Job
  operators must be picklable — top-level functions or callable
  dataclasses, not closures.

All backends produce position-ordered (task index, not completion order)
output, so results are byte-identical to the serial backend.

Fault tolerance: each task runs in an attempt loop governed by a
:class:`~repro.mapreduce.retry.RetryPolicy` — a bounded attempt budget, a
set of retryable exception types, and deterministic seeded exponential
backoff.  An injected (or real) failure — a crashed worker process, an
attempt that overran its ``task_timeout_s`` deadline (cooperative check
under serial/threads, parent-side pool kill under processes), or a
corrupted spill run caught by the frame CRC — discards the attempt's
output and re-executes the task, mirroring MapReduce's re-execution model.
Straggler attempts can additionally race a speculative duplicate
(``speculation_factor``, processes backend): first completion wins.
Because tasks are pure functions of their input partition and spill writes
are atomic and idempotent, retries and duplicates cannot change job output
— the chaos-matrix tests assert byte-identity under every fault kind of
:class:`~repro.mapreduce.fault.FaultPlan` on every backend.

Shuffle spill: with ``spill_dir`` set (or always under the ``processes``
backend, which uses a private temp directory unless told otherwise), each
writer task spills key-sorted run files per reduce partition and reducers
*stream-merge* their partition's files (:mod:`repro.mapreduce.spill`):
groups are fed to the reducer one at a time, one bounded chunk per file
resident, so a reducer's *input* partition never has to be resident in RAM.
The write side is bounded too: every writer task streams its output
through :class:`~repro.mapreduce.spill.SpillRunWriter`, which
external-sorts into bounded runs (``spill_run_records`` / ``spill_run_bytes``
knobs) that the next round's read-side merge recombines — so neither side
of a shuffle ever materializes a partition.  Runs are written a chunk of key
groups at a time; the chunk's values are encoded by a pluggable codec
(``shuffle_codec``): ``"pickle"`` for arbitrary jobs, or ``"binary"`` column
blocks (:mod:`repro.proto.framing`) which GraphFlat/GraphInfer use to avoid
the per-object serialization tax on their dominant shuffle volumes.

How a round is fed: the records on their way into a job's reducers are one
*shuffle* — in memory or spilled, whichever the runtime resolved — written by
numbered writer tasks and read per partition.  Who the writers are is the
only thing that differs between rounds.  A job with a mapper (or combiner)
is written by its own map tasks.  A reduce-only job (identity mapper, no
combiner — every GraphFlat/GraphInfer round is) skips the identity map
phase: as the first round of a chain the parent partitions (and spills) the
job input directly, as the single writer ``0``; as a later round
(:meth:`LocalRuntime.run_rounds`) the *reducers of the round before it*
partition their output straight into it.  Under the process backend the
partitions go to spill files, so intermediate records never travel through
the parent at all — the parent only ever sees file counters between rounds,
which is what makes multi-core scaling survive Python's serialization
costs.  Record order is provably identical to the unchained execution (one
stably-sorted writer, or reduce-task order, is the order identity map tasks
would have preserved), so output stays byte-identical.

Side stages: a chained job may *accept only some keys*
(``MapReduceJob.accepts`` — set by a dataflow driver such as
``repro.core.propagation.run_dataflow``, never by a user).  The round before
it then splits its output — one ``accepts`` mask over each record batch's
key column: accepted keys go into the side stage's shuffle, every other key
straight into the shuffle of the round *after* the side stage, partitioned
by that round's partitioner.  The side stage writes its
own output into that same layout (or bucket list) as additional writer
tasks, numbered after the previous round's, so the round after it is an
ordinary chained round whose k-way merge simply sees more runs — in memory,
spilled, fetched over TCP or pushed to a shared directory alike, under the
same atomic-write, retry, speculation and session-cleanup discipline.  A
record the side stage has nothing to do with is never shuffled through it:
GraphFlat/GraphInfer's hub re-index rounds take the hub slices and nothing
else.  Within a reduce group the records routed past the side stage arrive
before the side stage's; a job that uses a side stage must not depend on
that order.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import time
import weakref
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.mapreduce.backends import AttemptContext, Backend, make_backend
from repro.mapreduce.fault import (
    AttemptSpec,
    FaultPlan,
    InjectedWorkerFailure,
    TaskTimeoutError,
    maybe_check_deadline,
)
from repro.mapreduce.job import Combiner, JobFailedError, MapReduceJob, identity_mapper
from repro.mapreduce.partition import spill_tag
from repro.mapreduce.retry import PhaseMonitor, RetryPolicy
from repro.mapreduce.shuffle import (
    RecordBatch,
    default_partition,
    factorize_keys,
    group_sorted,
    pair_batches,
)
from repro.mapreduce.spill import (
    DEFAULT_RUN_BYTES,
    DEFAULT_RUN_RECORDS,
    SPILL_CODECS,
    SpillLayout,
    SpillWriteResult,
    route_keys,
)

__all__ = ["LocalRuntime", "RunStats"]


@dataclass
class RunStats:
    """Counters from the most recent job execution."""

    job: str = ""
    input_records: int = 0
    mapped_records: int = 0
    combined_records: int = 0
    shuffled_records: int = 0
    reduced_records: int = 0
    shuffle_bytes_written: int = 0
    """Bytes spilled to shuffle files this round (0 for in-memory shuffles)
    — the quantity the binary record codec exists to shrink."""
    transport_bytes_sent: int = 0
    """Bytes the shuffle transport moved off this host (wire frames served
    by the TCP peer server, or pushes across the shared-dir mount); 0 for
    the local transport — nothing leaves the filesystem."""
    transport_bytes_received: int = 0
    """Bytes the shuffle transport brought to reducers from elsewhere
    (fetch requests + shared-dir reads); 0 for the local transport."""
    peak_reducer_buffer_bytes: int = 0
    """Largest single sorted-run flush (file bytes) any chain reducer made
    this round — the external sort's buffering high-water mark.  Bounded by
    the run knobs, it stays flat as shard size grows; 0 for in-memory
    shuffles and terminal collect rounds."""
    map_attempts: int = 0
    reduce_attempts: int = 0
    injected_failures: int = 0
    timeouts: int = 0
    """Task attempts that overran ``task_timeout_s`` (cooperative deadline
    or parent-side pool kill) and were re-executed."""
    speculative_launched: int = 0
    """Duplicate attempts launched for straggler tasks this round."""
    speculative_won: int = 0
    """Straggler races the duplicate won (its result was used)."""
    backoff_total_s: float = 0.0
    """Total retry-backoff sleep this round (deterministic seeded
    exponential backoff; 0 unless the retry policy sets a base delay)."""
    reducer_group_sizes: dict[int, int] = field(default_factory=dict)
    """partition -> number of (key, values) groups — load-balance evidence."""
    max_group_values: int = 0
    """Largest single reduce group (values under one key) seen in the round —
    the quantity hub re-indexing exists to bound (§3.2.2)."""
    partition_records: dict[int, int] = field(default_factory=dict)
    """partition -> records shuffled *into* that reduce partition this round
    — the skew the pluggable partitioner exists to control."""
    partition_bytes: dict[int, int] = field(default_factory=dict)
    """partition -> shuffle file bytes destined for that reduce partition
    (spilled shuffles only; empty for in-memory rounds)."""

    def records_skew(self) -> float:
        """Max/mean records per reduce partition (1.0 = perfectly balanced,
        0.0 = no data or a single partition)."""
        return _skew_factor(self.partition_records)

    def bytes_skew(self) -> float:
        """Max/mean shuffle bytes per reduce partition."""
        return _skew_factor(self.partition_bytes)

    def merge(self, other: "RunStats") -> None:
        if not self.job:
            self.job = other.job
        self.input_records += other.input_records
        self.mapped_records += other.mapped_records
        self.combined_records += other.combined_records
        self.shuffled_records += other.shuffled_records
        self.reduced_records += other.reduced_records
        self.shuffle_bytes_written += other.shuffle_bytes_written
        self.transport_bytes_sent += other.transport_bytes_sent
        self.transport_bytes_received += other.transport_bytes_received
        self.peak_reducer_buffer_bytes = max(
            self.peak_reducer_buffer_bytes, other.peak_reducer_buffer_bytes
        )
        self.map_attempts += other.map_attempts
        self.reduce_attempts += other.reduce_attempts
        self.injected_failures += other.injected_failures
        self.timeouts += other.timeouts
        self.speculative_launched += other.speculative_launched
        self.speculative_won += other.speculative_won
        self.backoff_total_s += other.backoff_total_s
        for partition, groups in other.reducer_group_sizes.items():
            self.reducer_group_sizes[partition] = (
                self.reducer_group_sizes.get(partition, 0) + groups
            )
        self.max_group_values = max(self.max_group_values, other.max_group_values)
        for partition, records in other.partition_records.items():
            self.partition_records[partition] = (
                self.partition_records.get(partition, 0) + records
            )
        for partition, nbytes in other.partition_bytes.items():
            self.partition_bytes[partition] = (
                self.partition_bytes.get(partition, 0) + nbytes
            )


def _skew_factor(per_partition: dict[int, int]) -> float:
    """Max/mean of a per-partition counter.  The imbalance number the bench
    grid tracks: hashing a power-law key set pushes it well above 1; the
    planned partitioner pulls it back toward 1."""
    if len(per_partition) < 2:
        return 0.0
    total = sum(per_partition.values())
    if total <= 0:
        return 0.0
    return max(per_partition.values()) * len(per_partition) / total


@dataclass(frozen=True)
class _AttemptOutcome:
    """Per-task fault-tolerance accounting returned by the retry loop."""

    attempts: int
    timeouts: int = 0
    backoff_s: float = 0.0


def _chunk(seq: list, n: int) -> list[list]:
    """Split ``seq`` into ``n`` contiguous chunks (some possibly empty)."""
    if n <= 0:
        raise ValueError("need at least one chunk")
    size, extra = divmod(len(seq), n)
    chunks, start = [], 0
    for i in range(n):
        end = start + size + (1 if i < extra else 0)
        chunks.append(seq[start:end])
        start = end
    return chunks


# --------------------------------------------------------- sources and sinks
# A task pulls ``(key, values)`` groups from a *source* (streamed, for spill
# sources) and pushes its output pairs into a *sink* as they are produced.
# All of these are picklable: under the "processes" backend they ship to
# worker processes inside the task arguments.


@dataclass(frozen=True)
class _ChunkSource:
    """A map task's input chunk.  Its records are handed on as they are —
    ``(key, value)``, each on its own: nothing here is a group to size."""

    pairs: list

    def groups(self):
        return self.pairs


@dataclass(frozen=True)
class _MemorySource:
    pairs: list

    def groups(self):
        return group_sorted(self.pairs)


@dataclass(frozen=True)
class _SpillSource:
    layout: SpillLayout
    partition: int
    num_map_tasks: int

    def groups(self):
        # Streamed external merge: one group resident at a time, never the
        # whole partition (see SpillLayout.iter_groups).
        return self.layout.iter_groups(self.partition, self.num_map_tasks)


@dataclass(frozen=True)
class _CollectSink:
    """Terminal round: reducer output pairs go back to the caller."""

    def store(self, task_index: int, pairs):
        return list(pairs)


class _BucketWriter:
    """In-memory twin of :class:`~repro.mapreduce.spill.SpillRunWriter`:
    partitioned output as one list of pairs per partition, taken a record
    batch at a time (:meth:`add`; nothing is sized).  A combiner folds
    each partition's key groups at ``finish`` — over the task's whole output,
    so a classic callable combiner may re-key: what it emits stays in the
    partition it was combined in."""

    def __init__(self, num_partitions: int, combiner: Callable | None = None):
        self._buckets: list[list[tuple]] = [[] for _ in range(num_partitions)]
        self._combiner = combiner
        self._routes: dict = {}

    def add(self, batch: RecordBatch, partitioner: Callable) -> None:
        """Route every row of ``batch`` into its partition's bucket, calling
        the partitioner once per distinct key of the task."""
        if not len(batch):
            return
        buckets = self._buckets
        codes, idents, firsts = factorize_keys(batch.keys)
        routes = route_keys(self._routes, partitioner, idents, firsts, len(buckets))
        parts = np.fromiter((p for p, _ in routes), dtype=np.int64, count=len(routes))[codes]
        order = np.argsort(parts, kind="stable")
        bounds = np.searchsorted(parts[order], np.arange(len(buckets) + 1)).tolist()
        keys, values = batch.keys, batch.values
        for p, bucket in enumerate(buckets):
            rows = order[bounds[p] : bounds[p + 1]].tolist()
            bucket.extend(zip([keys[i] for i in rows], [values[i] for i in rows]))

    def finish(self) -> list[list[tuple]]:
        if self._combiner is not None:
            for p, bucket in enumerate(self._buckets):
                squeezed: list[tuple] = []
                for key, values in group_sorted(bucket):
                    squeezed.extend(self._combiner(key, values))
                self._buckets[p] = squeezed
        return self._buckets


class _FoldedSpillWriter(_BucketWriter):
    """A classic callable combiner on the spilled medium: it has to see the
    task's whole output grouped per partition (see :class:`_BucketWriter`),
    so the output is folded in memory and then spilled eagerly, one run per
    partition.  A :class:`~repro.mapreduce.job.Combiner` never comes here —
    the bounded-run writer folds it run by run."""

    def __init__(self, layout: SpillLayout, task: int, combiner: Callable):
        super().__init__(layout.num_partitions, combiner)
        self._layout = layout
        self._task = task

    def finish(self) -> SpillWriteResult:
        return self._layout.write_map_output(self._task, super().finish())


class _ShuffleSink:
    """Where one writer task of a shuffle puts its output: ``writer(task_index)``
    opens the task's partitioned output, ``store`` streams its record
    batches in."""

    def store(self, task_index: int, batches):
        writer = self.writer(task_index)
        for batch in batches:
            writer.add(batch, self.partitioner)
        return writer.finish()


@dataclass(frozen=True)
class _MemorySink(_ShuffleSink):
    """In-memory shuffle: one bucket list per writer task goes back to the
    parent."""

    partitioner: Callable
    num_partitions: int
    combiner: Callable | None = None

    def writer(self, task_index: int) -> _BucketWriter:
        return _BucketWriter(self.num_partitions, self.combiner)


@dataclass(frozen=True)
class _SpillSink(_ShuffleSink):
    """Spilled shuffle: output goes straight to the shuffle's run files; only
    counters go back to the parent.

    Output streams through a :class:`~repro.mapreduce.spill.SpillRunWriter`
    a record batch at a time — the task's own output is external-sorted
    into bounded runs as it is produced, never buffered whole (tentpole of
    the constant-memory dataflow) — with a
    :class:`~repro.mapreduce.job.Combiner` pushed down into it: each key's
    run is folded right before it hits disk."""

    layout: SpillLayout
    partitioner: Callable
    run_records: int = DEFAULT_RUN_RECORDS
    run_bytes: int = DEFAULT_RUN_BYTES
    task_offset: int = 0
    """Writer tasks already in the layout: a side stage writes after the
    round before it, as tasks ``task_offset + p``."""
    combiner: Callable | None = None

    def writer(self, task_index: int):
        task = self.task_offset + task_index
        if self.combiner is not None and not isinstance(self.combiner, Combiner):
            return _FoldedSpillWriter(self.layout, task, self.combiner)
        return self.layout.run_writer(
            task,
            combiner=self.combiner,
            run_records=self.run_records,
            run_bytes=self.run_bytes,
        )


@dataclass(frozen=True)
class _SplitSink:
    """The round before a side stage: keys the side stage accepts go into
    its shuffle, every other key straight into the shuffle of the round
    after it — one ``accepts`` mask over each batch's key column splits it.
    Both outputs stream — neither is buffered whole."""

    accepts: Callable
    side: _MemorySink | _SpillSink
    main: _MemorySink | _SpillSink

    def store(self, task_index: int, batches):
        side = self.side.writer(task_index)
        main = self.main.writer(task_index)
        for batch in batches:
            accepted = np.fromiter(map(self.accepts, batch.keys), dtype=bool, count=len(batch))
            if not accepted.any():
                main.add(batch, self.main.partitioner)
            elif accepted.all():
                side.add(batch, self.side.partitioner)
            else:
                side.add(batch.take(np.flatnonzero(accepted)), self.side.partitioner)
                main.add(batch.take(np.flatnonzero(~accepted)), self.main.partitioner)
        return main.finish(), side.finish()


@dataclass(eq=False)
class _Shuffle:
    """Parent-side handle on the records on their way into one job's
    reducers, in memory or spilled.  Whoever writes them does so as numbered
    writer tasks of it — the parent (task ``0``), the job's map tasks, or the
    reduce tasks of the round before; when that round is a side stage, they
    come after what the round before *that* routed past it (lower-numbered
    writer tasks of the same layout / bucket list, so the merge simply sees
    more runs)."""

    partitioner: Callable
    num_partitions: int
    accepts: Callable | None = None
    """The consuming job's key filter (``MapReduceJob.accepts``)."""
    layout: SpillLayout | None = None
    source_fn: Callable | None = None
    """Transport-aware source factory ``(layout, partition, num_tasks) ->
    source`` (parent-side only, never pickled)."""
    num_tasks: int = 0
    counts: list[list[int]] = field(default_factory=list)
    byte_counts: list[tuple[int, ...]] = field(default_factory=list)
    buckets: list[list[list]] = field(default_factory=list)

    def sink(self, run_records: int, run_bytes: int, combiner: Callable | None = None):
        """Where the next writer tasks put their output."""
        if self.layout is None:
            return _MemorySink(self.partitioner, self.num_partitions, combiner)
        return _SpillSink(
            self.layout, self.partitioner, run_records, run_bytes, self.num_tasks, combiner
        )

    def add(self, stored, stats: RunStats, phase: str) -> None:
        """Fold in what one writer task reported; ``stats`` is the round the
        task ran in, ``phase`` what it was there."""
        self.num_tasks += 1
        if self.layout is None:
            self.buckets.append(stored)
            return
        assert isinstance(stored, SpillWriteResult)
        self.counts.append(stored.counts)
        self.byte_counts.append(stored.partition_bytes)
        stats.shuffle_bytes_written += stored.bytes_written
        if phase == "reduce":
            stats.peak_reducer_buffer_bytes = max(
                stats.peak_reducer_buffer_bytes, stored.peak_buffer_bytes
            )

    def partition_totals(self) -> tuple[list[int], list[int] | None]:
        """Per-partition (records, file bytes) summed over writer tasks —
        what the consuming round reports as its shuffle volume and skew.
        Bytes are ``None`` in memory."""
        records = [0] * self.num_partitions
        if self.layout is None:
            for task in self.buckets:
                for p, bucket in enumerate(task):
                    records[p] += len(bucket)
            return records, None
        nbytes = [0] * self.num_partitions
        for task_records, task_bytes in zip(self.counts, self.byte_counts):
            for p in range(self.num_partitions):
                records[p] += task_records[p]
                nbytes[p] += task_bytes[p]
        return records, nbytes

    def source(self, partition: int):
        if self.layout is not None:
            return self.source_fn(self.layout, partition, self.num_tasks)
        if len(self.buckets) == 1:  # a single writer's bucket needs no merging
            return _MemorySource(self.buckets[0][partition])
        merged: list[tuple] = []
        for task in self.buckets:
            merged.extend(task[partition])
        return _MemorySource(merged)

    def cleanup(self) -> None:
        self.buckets = []
        if self.layout is not None:
            # The layout owns a private directory — removing it wholesale
            # also drops .tmp partials from crashed attempts.
            shutil.rmtree(self.layout.root, ignore_errors=True)


# ------------------------------------------------------------------ task body
# Top-level: it (and its arguments) are pickled to worker processes under the
# "processes" backend.


def _run_task(fn: Callable, source, sink, task_index: int):
    """The one task body, map or reduce: stream what the source yields
    through ``fn`` into the sink.  With a spill source the input partition is
    never resident — one group at a time — and a spill sink external-sorts
    the task's output into bounded runs as it is produced.

    ``fn(key, values)`` is called once per group and yields pairs — unless
    ``fn`` defines ``reduce_groups(groups)`` (Hadoop's ``Reducer.run()``
    override), which then takes the task's whole group stream and yields
    :class:`~repro.mapreduce.shuffle.RecordBatch` es, e.g. one per batch of
    groups merged by one kernel call.  Either way the groups are pulled
    through here, where the deadline is checked and the group counters are
    kept.  A shuffle sink takes batches — pairs reach it through the one
    adapter, :func:`~repro.mapreduce.shuffle.pair_batches`; a final sink
    takes pairs."""
    counters = [0, 0, 0]  # produced records, groups, largest group
    grouped = not isinstance(source, _ChunkSource)

    def counted():
        for key, values in source.groups():
            maybe_check_deadline()
            if grouped:
                counters[1] += 1
                if len(values) > counters[2]:
                    counters[2] = len(values)
            yield key, values

    def pairs():
        for key, values in counted():
            for pair in fn(key, values):
                counters[0] += 1
                yield pair

    def batches():
        for batch in fn.reduce_groups(counted()):
            counters[0] += len(batch)
            yield batch

    takes_batches = isinstance(sink, (_ShuffleSink, _SplitSink))
    if not hasattr(fn, "reduce_groups"):
        stream = pair_batches(pairs()) if takes_batches else pairs()
    elif takes_batches:
        stream = batches()
    else:
        stream = (pair for batch in batches() for pair in batch.pairs())
    stored = sink.store(task_index, stream)
    return stored, counters[0], counters[1], counters[2]


def _session_prefix() -> str:
    """Session-directory name prefix: ``mr<pid>.h<hosttag>.``.

    The host tag scopes the liveness probe: pids are only meaningful on the
    machine that issued them, so when ``spill_dir`` is a shared (DFS) mount
    the sweep must never judge — let alone reap — another host's sessions
    by its own process table."""
    from repro.transport.cluster import host_tag

    return f"mr{os.getpid()}.h{host_tag()}."


def _sweep_dead_sessions(spill_dir: Path) -> None:
    """Remove session directories whose owning process no longer exists.

    A runtime that crashed (or was SIGKILLed) mid-chain cannot run its own
    cleanup, stranding intermediate run files under the shared ``spill_dir``.
    Session directory names embed the owner's pid and host
    (``mr<pid>.h<hosttag>.<token>``), so the next runtime to use the
    directory reaps every *same-host* session whose pid is gone — a crashed
    round N leaves nothing behind for anyone's round N+1, while sessions
    owned by other hosts on a shared mount are left strictly alone (their
    pids mean nothing here)."""
    from repro.transport.cluster import host_tag

    local_tag = f"h{host_tag()}"
    for entry in spill_dir.glob("mr[0-9]*.*"):
        if not entry.is_dir():
            continue
        name = entry.name
        parts = name.split(".")
        try:
            pid = int(parts[0][2:])
        except ValueError:
            continue
        # Host-tagged sessions from other hosts are not ours to judge;
        # legacy two-part names (``mr<pid>.<token>``) predate the tag and
        # were always written by local processes.
        if len(parts) >= 3 and parts[1].startswith("h") and parts[1] != local_tag:
            continue
        if pid == os.getpid():
            continue
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            shutil.rmtree(entry, ignore_errors=True)
        except OSError:
            continue  # pid alive under another user, or unknowable — keep it


def _chainable(job: MapReduceJob) -> bool:
    """A reduce-only round can consume the previous round's reducer output
    directly (its identity map phase is a no-op to skip)."""
    return job.mapper is identity_mapper and job.combiner is None


def _check_side_stages(jobs: list[MapReduceJob]) -> None:
    """A job that ``accepts`` only some keys sits *between* two rounds of a
    chain: the round before it routes the other keys past it, the round
    after it merges both streams.  Anything else is ill-formed."""
    for i, job in enumerate(jobs):
        if job.accepts is None:
            continue
        if i == 0 or i == len(jobs) - 1:
            raise ValueError(
                f"job {job.name!r} accepts only some keys, so it must sit "
                "between two rounds of a chain — it cannot be the "
                f"{'first' if i == 0 else 'last'} job"
            )
        if jobs[i + 1].accepts is not None:
            raise ValueError(
                f"jobs {job.name!r} and {jobs[i + 1].name!r} both accept only "
                "some keys; the keys a side stage does not accept need an "
                "ordinary round to go to"
            )
        for other in (job, jobs[i + 1]):
            if not _chainable(other):
                raise ValueError(
                    f"job {job.name!r} accepts only some keys, which needs "
                    f"reducer-to-reducer chaining, but job {other.name!r} has "
                    "a mapper or combiner"
                )


class LocalRuntime:
    """Runs MapReduce jobs locally with retries and optional disk spill."""

    def __init__(
        self,
        backend: str = "serial",
        max_workers: int | None = None,
        max_attempts: int = 3,
        fault_plan: FaultPlan | None = None,
        spill_dir: str | Path | None = None,
        shuffle_codec: str = "pickle",
        spill_run_records: int = DEFAULT_RUN_RECORDS,
        spill_run_bytes: int = DEFAULT_RUN_BYTES,
        task_timeout_s: float | None = None,
        speculation_factor: float | None = None,
        retry_policy: RetryPolicy | None = None,
        partitioner: Callable[[object, int], int] | None = None,
        shuffle_transport: str = "local",
        cluster=None,
    ):
        from repro.transport.shuffle import SHUFFLE_TRANSPORTS, make_shuffle_transport

        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if shuffle_codec not in SPILL_CODECS:
            raise ValueError(
                f"unknown shuffle codec {shuffle_codec!r}; known: {SPILL_CODECS}"
            )
        if shuffle_transport not in SHUFFLE_TRANSPORTS:
            raise ValueError(
                f"unknown shuffle transport {shuffle_transport!r}; "
                f"known: {SHUFFLE_TRANSPORTS}"
            )
        if shuffle_transport == "shared-dir" and spill_dir is None:
            raise ValueError(
                "the shared-dir shuffle transport pushes runs across a shared "
                "mount: pass spill_dir (the mount point)"
            )
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ValueError(f"task_timeout_s must be > 0, got {task_timeout_s}")
        if speculation_factor is not None and speculation_factor <= 1.0:
            raise ValueError(
                f"speculation_factor must be > 1, got {speculation_factor}"
            )
        if spill_run_records < 1:
            raise ValueError(f"spill_run_records must be >= 1, got {spill_run_records}")
        if spill_run_bytes < 1:
            raise ValueError(f"spill_run_bytes must be >= 1, got {spill_run_bytes}")
        self._backend: Backend = make_backend(backend, max_workers)
        self.backend = backend
        self.max_workers = max_workers
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(max_attempts=max_attempts)
        )
        self.max_attempts = self.retry_policy.max_attempts
        self.task_timeout_s = task_timeout_s
        self.speculation_factor = speculation_factor
        self.fault_plan = fault_plan
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.shuffle_codec = shuffle_codec
        self.partitioner = partitioner
        """Runtime-level partition function: overrides every job that still
        carries the hash default (jobs with an explicit partitioner keep
        it).  Must be deterministic and, under the process backend,
        picklable — see :class:`~repro.mapreduce.partition.Partitioner`."""
        self.spill_run_records = spill_run_records
        self.spill_run_bytes = spill_run_bytes
        self.shuffle_transport = shuffle_transport
        self.cluster = cluster
        self._transport = make_shuffle_transport(shuffle_transport, cluster)
        self._session_dir: Path | None = None
        self._finalizer: weakref.finalize | None = None
        self.last_stats: RunStats | None = None
        self.round_stats: list[RunStats] = []

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down pooled workers, the shuffle transport, and remove this
        runtime's session spill directory (round subdirectories and all)."""
        self._backend.close()
        self._transport.close()
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
            self._session_dir = None

    def __enter__(self) -> "LocalRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def needs_pickling(self) -> bool:
        """True when tasks (and everything inside them — operators,
        partitioners, sinks) cross a process boundary.  Callers use this to
        pick broadcast transports: inline payloads for in-process backends,
        shared-memory locators for pickling ones."""
        return self._backend.needs_pickling

    def _resolve_partitioner(self, job: MapReduceJob | None) -> MapReduceJob | None:
        """Apply the runtime-level partitioner to jobs still on the hash
        default.  A job that names its own partitioner is explicit intent
        (e.g. a final round pinned to hash for output-order stability) and
        is left alone."""
        if (
            job is None
            or self.partitioner is None
            or job.partitioner is not default_partition
        ):
            return job
        return replace(job, partitioner=self.partitioner)

    # ------------------------------------------------------------------ api
    def run(self, job: MapReduceJob, inputs: Iterable[tuple]) -> list[tuple]:
        """Execute one round — a chain of one; returns the reducer output
        pairs, ordered by (reduce partition, key order within partition)."""
        return self._run_chain([job], list(inputs))

    def run_rounds(
        self,
        jobs: list[MapReduceJob],
        inputs: Iterable[tuple],
        final_sink=None,
    ) -> list:
        """Chain rounds: round i+1 consumes round i's output (GraphFlat's
        'Reduce phase runs K times' is exactly this chaining).  Consecutive
        reduce-only rounds hand partitions directly from reducer to reducer
        — see the module docstring.  Per-round counters land in
        ``round_stats``; ``last_stats`` holds their merge.

        A job that ``accepts`` only some keys is a *side stage*: the round
        before it sends the keys it accepts into its shuffle and every other
        key straight into the shuffle of the round after it, where the side
        stage's own output joins them.

        ``final_sink`` replaces the terminal collect: instead of shipping
        the last round's output pairs back to the parent, each final
        reducer streams its pairs into ``final_sink.store(task_index,
        pairs)`` — e.g. writing its own columnar shard — and only the
        per-partition summaries return (as the result list, in partition
        order).  The sink must be picklable under the process backend."""
        data = list(inputs)
        if not jobs:
            return data
        return self._run_chain(jobs, data, final_sink)

    def _run_chain(self, jobs: list[MapReduceJob], data: list, final_sink=None) -> list:
        """Both public entry points: run ``jobs`` as one chain over ``data``,
        owning every shuffle on the way — each is opened here, written by the
        round(s) before its job (or by the job's own round when nothing is),
        and removed here as soon as its job has consumed it, or when a round
        raises."""
        _check_side_stages(jobs)
        jobs = [self._resolve_partitioner(job) for job in jobs]
        if self._backend.needs_pickling:
            for job in jobs:
                self._check_shippable(job)
            if final_sink is not None:
                self._check_shippable(final_sink, what="final sink")
        self.round_stats = []
        merged = RunStats(job="+".join(j.name for j in jobs))
        live: list[_Shuffle] = []

        def open_shuffle(index: int) -> _Shuffle:
            # Round-unique spill namespace: consecutive jobs may share a
            # name, and one round's input must not collide with the files
            # the next round's input is being written to.
            shuffle = self._open_shuffle(f"chain{index:04d}.{jobs[index].name}", jobs[index])
            live.append(shuffle)
            return shuffle

        incoming: _Shuffle | None = None  # this round's input, written upstream
        bypassed: _Shuffle | None = None  # next round's, begun past a side stage
        try:
            for i, job in enumerate(jobs):
                feed = None
                if incoming is None:  # nobody upstream wrote it: the round feeds itself
                    incoming, feed = open_shuffle(i), data
                chain = side = None
                if bypassed is not None:
                    chain, bypassed = bypassed, None
                elif i + 1 < len(jobs) and _chainable(jobs[i + 1]):
                    if jobs[i + 1].accepts is not None:
                        side, chain = open_shuffle(i + 1), open_shuffle(i + 2)
                    else:
                        chain = open_shuffle(i + 1)
                sink = final_sink if i == len(jobs) - 1 else None
                data, stats = self._run_one(job, incoming, feed, chain, side, sink)
                self.round_stats.append(stats)
                merged.merge(stats)
                incoming.cleanup()  # consumed: free it before the next round
                live.remove(incoming)
                if side is not None:
                    incoming, bypassed = side, chain
                else:
                    incoming = chain
        finally:
            # Empty unless a round raised: drop its input and whatever was
            # written for the rounds that never ran.
            for shuffle in live:
                shuffle.cleanup()
        self.last_stats = merged
        return data

    # ------------------------------------------------------------ internals
    def _check_shippable(self, obj, what: str = "job") -> None:
        name = f" {obj.name!r}" if isinstance(obj, MapReduceJob) else ""
        try:
            pickle.dumps(obj)
        except Exception as exc:
            raise TypeError(
                f"{what}{name} cannot be shipped to worker processes "
                f"({exc}); use top-level functions or callable dataclasses, "
                "not closures"
            ) from exc

    def _spill_root(self) -> str | None:
        """Directory for this runtime's shuffle files: a per-runtime
        *session* directory (``mr<pid>.<token>``) under the user's
        ``spill_dir``, a private temp dir under the process backend, else
        ``None`` (in-memory).

        All of a session's round and chain directories live inside its
        session directory, so one rmtree — at :meth:`close`, via the
        garbage-collection finalizer, or by a later runtime sweeping
        sessions whose owning process is dead — removes every intermediate
        run file a crashed round could have stranded."""
        if self._session_dir is not None:
            return str(self._session_dir)
        if self.spill_dir is not None:
            self.spill_dir.mkdir(parents=True, exist_ok=True)
            _sweep_dead_sessions(self.spill_dir)
            self._session_dir = Path(
                tempfile.mkdtemp(prefix=_session_prefix(), dir=self.spill_dir)
            )
        elif self._backend.needs_pickling or self.shuffle_transport != "local":
            # A TCP shuffle without an explicit spill_dir still needs run
            # files to serve — spill into a private temp session.
            self._session_dir = Path(tempfile.mkdtemp(prefix="repro-mr-spill-"))
        else:
            return None
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, str(self._session_dir), ignore_errors=True
        )
        return str(self._session_dir)

    def _open_shuffle(self, name: str, job: MapReduceJob) -> _Shuffle:
        """Begin the shuffle into ``job``'s reducers, for its writer tasks to
        fill — spilled when this runtime has a spill root, else in memory."""
        shuffle = _Shuffle(job.partitioner, job.num_reducers, job.accepts)
        spill_root = self._spill_root()
        if spill_root is not None:
            # A private directory per shuffle: deterministic file names from
            # an earlier failed run can never leak records into this one,
            # and cleanup is one rmtree.
            run_dir = tempfile.mkdtemp(prefix=f"{name}.", dir=spill_root)
            self._transport.register_root(run_dir)
            shuffle.layout = SpillLayout(
                run_dir,
                name,
                job.num_reducers,
                codec=self.shuffle_codec,
                partition_tag=spill_tag(job.partitioner),
                partition_subdirs=self._transport.partition_subdirs,
            )
            shuffle.source_fn = self._transport.source
        return shuffle

    def _run_one(
        self,
        job: MapReduceJob,
        shuffle: _Shuffle,
        data: list[tuple] | None = None,
        chain: _Shuffle | None = None,
        side: _Shuffle | None = None,
        final_sink=None,
    ):
        """One (map ->) shuffle -> reduce round over ``shuffle``, the records
        on their way into ``job``'s reducers.  ``data`` is the job input when
        nobody upstream has written the shuffle: this round then writes it
        first.  ``chain`` makes the reduce phase write the following round's
        shuffle instead of collecting output pairs — except for the keys
        ``side`` accepts, which go into that side stage's shuffle;
        ``final_sink`` replaces the terminal collect with a reducer-owned
        store (per-partition summaries come back instead of pairs)."""
        stats = RunStats(job=job.name)
        plan = self.fault_plan
        injected_before = plan.injected if plan is not None else 0
        run_bounds = (self.spill_run_records, self.spill_run_bytes)

        if data is not None:
            stats.input_records = len(data)
            feed = shuffle.sink(*run_bounds, job.combiner)
            if _chainable(job):
                # A reduce-only first round needs no map phase at all — the
                # parent buckets (and spills) the input directly, skipping
                # one full IPC pass.  It is not a task: no attempt loop, no
                # fault draw.  A single stably-sorted writer produces the
                # same merged order as N chunked identity map tasks, so
                # output is unchanged.
                shuffle.add(feed.store(0, pair_batches(data)), stats, "map")
                stats.mapped_records = len(data)
            else:
                tasks = [
                    (f"map-{i}", _run_task, (job.mapper, _ChunkSource(chunk), feed, i))
                    for i, chunk in enumerate(_chunk(data, job.effective_mappers))
                ]
                for stored, mapped, _, _ in self._execute(job.name, tasks, stats, "map"):
                    shuffle.add(stored, stats, "map")
                    stats.mapped_records += mapped

        records, nbytes = shuffle.partition_totals()
        stats.shuffled_records = sum(records)
        if data is None:
            # The identity map phase was skipped — the records came already
            # partitioned for this job's reducers.
            stats.input_records = stats.mapped_records = stats.shuffled_records
        elif job.combiner is not None:
            stats.combined_records = stats.shuffled_records
        # Every partition index is recorded — zeros included — so the skew
        # factor's mean is over real partitions, not just non-empty ones.
        stats.partition_records = dict(enumerate(records))
        if nbytes is not None:
            stats.partition_bytes = dict(enumerate(nbytes))

        if chain is None:
            sink = final_sink if final_sink is not None else _CollectSink()
        else:
            sink = chain.sink(*run_bounds)
            if side is not None:
                sink = _SplitSink(side.accepts, side.sink(*run_bounds), sink)
        tasks = [
            (f"reduce-{p}", _run_task, (job.reducer, shuffle.source(p), sink, p))
            for p in range(job.num_reducers)
        ]
        results = self._execute(job.name, tasks, stats, "reduce")

        output: list = []
        for p, (stored, reduced, groups, biggest) in enumerate(results):
            stats.reduced_records += reduced
            stats.reducer_group_sizes[p] = groups
            stats.max_group_values = max(stats.max_group_values, biggest)
            if chain is None:
                if final_sink is not None:
                    output.append(stored)  # per-partition sink summary
                else:
                    output.extend(stored)
            elif side is None:
                chain.add(stored, stats, "reduce")
            else:
                chain.add(stored[0], stats, "reduce")
                side.add(stored[1], stats, "reduce")

        if plan is not None:
            stats.injected_failures = plan.injected - injected_before
        self._transport.account(stats)
        return output, stats

    def _attempt_spec(self, fault: str | None) -> AttemptSpec | None:
        """Worker-side instructions for one attempt; ``None`` when there is
        nothing to apply (the common case — zero per-attempt overhead)."""
        if fault is not None:  # drawn from the plan, so there is one
            return self.fault_plan.spec(fault, self.task_timeout_s)
        if self.task_timeout_s is None:
            return None
        return AttemptSpec(timeout_s=self.task_timeout_s)

    def _attempts(self, job_name: str, task_id: str, body, monitor=None):
        """Run one task under the retry policy; returns ``(result,
        _AttemptOutcome)``.

        Per attempt: the fault plan draws this attempt's injected fault
        (``crash`` is raised right here, parent-side, like a worker that
        died before doing any work; other kinds ship to the worker inside
        the :class:`AttemptSpec`), the body runs with the attempt context,
        and a failure is re-executed only if the policy classifies it as
        retryable — after the policy's deterministic backoff."""
        policy = self.retry_policy
        last_exc: Exception | None = None
        timeouts = 0
        backoff_total = 0.0
        for attempt in range(policy.max_attempts):
            fault = None
            if self.fault_plan is not None:
                fault = self.fault_plan.draw(job_name, task_id, attempt)
            try:
                if fault == "crash":
                    # Simulate a crash mid-task: the attempt produces nothing.
                    raise InjectedWorkerFailure(
                        f"injected failure: job={job_name} task={task_id} "
                        f"attempt={attempt}"
                    )
                ctx = AttemptContext(
                    spec=self._attempt_spec(fault),
                    timeout_s=self.task_timeout_s,
                    monitor=monitor,
                )
                start = time.monotonic()
                result = body(ctx)
                if monitor is not None:
                    monitor.record(time.monotonic() - start)
                return result, _AttemptOutcome(attempt + 1, timeouts, backoff_total)
            except Exception as exc:
                if not policy.is_retryable(exc):
                    raise
                last_exc = exc
                if isinstance(exc, TaskTimeoutError):
                    timeouts += 1
                delay = policy.backoff_s(job_name, task_id, attempt)
                if delay > 0.0:
                    time.sleep(delay)
                    backoff_total += delay
        raise JobFailedError(
            f"task {task_id} of job {job_name!r} failed {policy.max_attempts} attempts"
        ) from last_exc

    def _execute(self, job_name: str, tasks: list[tuple], stats: RunStats, phase: str):
        """Run ``(task_id, fn, args)`` tasks on the backend under the retry
        loop; results come back position-ordered.  Attempt, timeout,
        backoff and speculation accounting folds into ``stats``."""
        monitor = None
        if self.speculation_factor is not None and self._backend.supports_speculation:
            monitor = PhaseMonitor(self.speculation_factor)

        def retrier(task_id: str, call):
            return self._attempts(job_name, task_id, call, monitor)

        results = self._backend.execute(tasks, retrier)
        attempts_total = sum(outcome.attempts for _, outcome in results)
        if phase == "map":
            stats.map_attempts += attempts_total
        else:
            stats.reduce_attempts += attempts_total
        for _, outcome in results:
            stats.timeouts += outcome.timeouts
            stats.backoff_total_s += outcome.backoff_s
        if monitor is not None:
            stats.speculative_launched += monitor.launched
            stats.speculative_won += monitor.won
        return [result for result, _ in results]
