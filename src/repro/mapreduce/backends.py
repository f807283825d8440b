"""Pluggable execution backends for the local MapReduce runtime.

A backend executes one *phase* — a batch of independent map or reduce
tasks — and returns results in task order (never completion order), which
is what keeps every backend byte-identical to ``serial``.

* ``serial`` — everything in the calling thread; the reference semantics.
* ``threads`` — a thread pool; concurrency for I/O-bound tasks, but the
  GIL serialises pure-Python operator code.
* ``processes`` — a ``ProcessPoolExecutor``; true multi-core execution.
  Task functions and their arguments must be picklable (top-level
  callables / callable dataclasses, not closures).  A bounded pool of
  coordinator threads runs the retry loop in the parent — so failure
  injection, attempt accounting and the shared fault-plan cap behave
  exactly as under ``serial`` — and each attempt ships the task to a
  worker process.  A crashed worker (``BrokenProcessPool``) is handled
  by rebuilding the pool and re-raising :class:`WorkerCrashError`, which
  the runtime's retry loop treats like any other task failure: the task
  is simply re-executed, MapReduce-style.

Attempt protocol: ``retrier(task_id, call)`` is supplied by the runtime
and wraps ``call`` in the attempt loop.  ``call`` accepts an optional
:class:`AttemptContext` carrying the per-attempt chaos-plane state — the
picklable fault/deadline :class:`~repro.mapreduce.fault.AttemptSpec` that
ships into the worker, the parent-side attempt timeout, and the phase's
straggler monitor.  Calling with no context (as the trainer's prefetch
pool does) runs the task plainly.

Deadlines and stragglers under ``processes``: when a timeout or a
speculation monitor is active, the coordinator polls the attempt future
instead of blocking.  An attempt that overruns ``timeout_s`` gets its pool
*killed* (a hung worker never returns on its own — ``shutdown`` alone
would block behind it) and surfaces as a retryable
:class:`~repro.mapreduce.fault.TaskTimeoutError`; an attempt that runs
past the monitor's straggler threshold gets a clean duplicate submitted,
and whichever copy finishes first wins — safe because attempts are
deterministic and spill writes are atomic and idempotent.

New backends register themselves with :func:`register_backend`; the
runtime looks them up by name in :data:`BACKEND_REGISTRY`.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
import weakref
from collections.abc import Callable
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.mapreduce.fault import AttemptSpec, TaskTimeoutError, run_with_effects

__all__ = [
    "BACKEND_REGISTRY",
    "AttemptContext",
    "Backend",
    "ProcessesBackend",
    "SerialBackend",
    "ThreadsBackend",
    "WorkerCrashError",
    "make_backend",
    "register_backend",
]

BACKEND_REGISTRY: dict[str, type["Backend"]] = {}

_POLL_S = 0.05
"""Future-poll period of the timeout/speculation coordinator loop."""

_WORKER_PRELOAD = [
    "numpy",
    "repro.core.graphflat",
    "repro.core.infer",
    "repro.core.trainer",
]
"""Modules the forkserver imports once, so pool workers fork with them
loaded instead of each re-importing numpy and the pipelines (~0.2 s per
worker — paid again by every pool, i.e. every job that owns its runtime)."""

_FORKSERVER_START_LOCK = threading.Lock()


class WorkerCrashError(RuntimeError):
    """A worker process died mid-task; the task attempt produced nothing."""


@dataclass
class AttemptContext:
    """Parent-side per-attempt state handed to a backend ``call``.

    ``spec`` is the picklable worker-side half (fault effect + cooperative
    deadline); ``timeout_s`` is enforced parent-side by the processes
    backend; ``monitor`` (a :class:`~repro.mapreduce.retry.PhaseMonitor`)
    enables straggler speculation for this phase."""

    spec: AttemptSpec | None = None
    timeout_s: float | None = None
    monitor: object | None = None


def register_backend(name: str):
    """Class decorator: make a :class:`Backend` constructible by name."""

    def decorator(cls: type["Backend"]) -> type["Backend"]:
        cls.name = name
        BACKEND_REGISTRY[name] = cls
        return cls

    return decorator


def make_backend(name: str, max_workers: int | None = None) -> "Backend":
    try:
        cls = BACKEND_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; known: {sorted(BACKEND_REGISTRY)}"
        ) from None
    return cls(max_workers)


class Backend:
    """Executes batches of ``(task_id, fn, args)`` tasks with retries.

    ``retrier(task_id, call)`` is supplied by the runtime: it wraps
    ``call`` in the attempt loop (failure injection, re-execution, attempt
    counting) and returns ``(result, outcome)``.  ``call`` takes an
    optional :class:`AttemptContext`.
    """

    name = "abstract"
    needs_pickling = False
    """Whether task functions/arguments cross a process boundary."""
    supports_speculation = False
    """Whether a straggler attempt can race a duplicate (needs real
    parallel workers the parent can submit to mid-attempt)."""

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers

    def execute(
        self,
        tasks: list[tuple[str, Callable, tuple]],
        retrier: Callable[[str, Callable], tuple],
    ) -> list[tuple]:
        raise NotImplementedError  # pragma: no cover - abstract

    def close(self) -> None:
        """Release pooled resources (idempotent)."""


def _local_call(fn, args):
    """In-thread attempt body: fault effects and the cooperative deadline
    run right here, in the thread executing the task."""

    def call(ctx: AttemptContext | None = None):
        return run_with_effects(ctx.spec if ctx is not None else None, fn, args)

    return call


@register_backend("serial")
class SerialBackend(Backend):
    def execute(self, tasks, retrier):
        return [retrier(tid, _local_call(fn, args)) for tid, fn, args in tasks]


@register_backend("threads")
class ThreadsBackend(Backend):
    def execute(self, tasks, retrier):
        if len(tasks) <= 1:
            return SerialBackend.execute(self, tasks, retrier)
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            futures = [
                pool.submit(retrier, tid, _local_call(fn, args))
                for tid, fn, args in tasks
            ]
            return [f.result() for f in futures]


class _RemoteCall:
    """Attempt body of the processes backend: run ``fn(*args)`` in the
    process pool, under the attempt's fault spec.

    A dead worker breaks the whole pool, so on ``BrokenProcessPool`` the
    backend discards it (the next attempt gets a fresh pool) and the
    crash is surfaced as a retryable :class:`WorkerCrashError`.  A
    cancelled future means a *sibling* coordinator killed the pool (its
    attempt timed out) — same treatment: this attempt produced nothing
    and is simply re-executed.  With a timeout or speculation monitor
    active, the blocking wait becomes the poll loop in :meth:`_race`.
    """

    def __init__(self, backend: "ProcessesBackend", fn, args):
        self.backend = backend
        self.fn = fn
        self.args = args

    def _submit(self, pool, generation, spec):
        try:
            return pool.submit(run_with_effects, spec, self.fn, self.args)
        except RuntimeError as exc:
            # Pool shut down under us (sibling timeout killed it between
            # our handle fetch and submit): retryable, next attempt gets
            # a fresh pool.
            raise WorkerCrashError(
                f"process pool vanished before {self._name()!r} could start"
            ) from exc

    def _name(self) -> str:
        return getattr(self.fn, "__name__", str(self.fn))

    def __call__(self, ctx: AttemptContext | None = None):
        spec = ctx.spec if ctx is not None else None
        timeout_s = ctx.timeout_s if ctx is not None else None
        monitor = ctx.monitor if ctx is not None else None
        pool, generation = self.backend._pool_handle()
        future = self._submit(pool, generation, spec)
        try:
            if timeout_s is None and monitor is None:
                return future.result()
            return self._race(pool, generation, future, spec, timeout_s, monitor)
        except (BrokenProcessPool, CancelledError) as exc:
            self.backend._discard_pool(generation)
            raise WorkerCrashError(
                f"worker process died while running {self._name()!r}"
            ) from exc

    def _race(self, pool, generation, future, spec, timeout_s, monitor):
        """Poll the attempt future, enforcing the deadline and launching a
        speculative duplicate when the phase monitor flags a straggler.
        First completion wins; a duplicate's win is counted, its loss is
        free (the copies are deterministic and spill writes idempotent)."""
        start = time.monotonic()
        duplicate = None
        while True:
            pending = [f for f in (future, duplicate) if f is not None]
            done, _ = wait(pending, timeout=_POLL_S, return_when=FIRST_COMPLETED)
            if future in done:
                return future.result()
            if duplicate is not None and duplicate in done:
                result = duplicate.result()
                monitor.count_win()
                return result
            elapsed = time.monotonic() - start
            if timeout_s is not None and elapsed > timeout_s:
                # A wedged worker never returns: kill the pool out from
                # under it (terminate, not shutdown — shutdown waits).
                self.backend._discard_pool(generation, kill=True)
                raise TaskTimeoutError(
                    f"task attempt {self._name()!r} exceeded its "
                    f"{timeout_s:.3g}s deadline; worker pool discarded"
                )
            if (
                monitor is not None
                and duplicate is None
                and monitor.should_speculate(elapsed)
            ):
                # The duplicate runs *clean* (no injected fault): it is the
                # rescue copy of an environmentally slow attempt.
                clean = (
                    AttemptSpec(fault=None, timeout_s=spec.timeout_s)
                    if spec is not None
                    else None
                )
                duplicate = self._submit(pool, generation, clean)
                monitor.count_launch()


def _start_warm_forkserver() -> None:
    """Start multiprocessing's (default, process-wide) forkserver with
    :data:`_WORKER_PRELOAD` imported.  A no-op once it is running.

    The forkserver is a fresh interpreter: it sees ``PYTHONPATH`` but not
    the parent's run-time ``sys.path`` (Python 3.11 hands it ``sys_path``
    and ignores it), so a ``repro`` that is only reachable through
    ``sys.path`` could not be preloaded.  The parent's path is therefore
    lent to it through the environment, for the moment of its start only.

    Best effort: a module the forkserver cannot import is skipped there,
    and whatever fails here fails again — visibly — when the pool starts
    its first worker; workers then import what they need themselves.
    """
    with _FORKSERVER_START_LOCK:
        saved = os.environ.get("PYTHONPATH")
        try:
            from multiprocessing import forkserver

            multiprocessing.set_forkserver_preload(_WORKER_PRELOAD)
            os.environ["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
            forkserver.ensure_running()
        except Exception:  # noqa: BLE001 - warm-up only, see docstring
            pass
        finally:
            if saved is None:
                os.environ.pop("PYTHONPATH", None)
            else:
                os.environ["PYTHONPATH"] = saved


@register_backend("processes")
class ProcessesBackend(Backend):
    needs_pickling = True
    supports_speculation = True

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._pool: ProcessPoolExecutor | None = None
        self._generation = 0
        self._lock = threading.Lock()
        self._finalizer: weakref.finalize | None = None

    # --------------------------------------------------------- pool lifecycle
    def _pool_handle(self) -> tuple[ProcessPoolExecutor, int]:
        """The live pool (created lazily, shared across phases and rounds)."""
        with self._lock:
            if self._pool is None:
                # The parent is multi-threaded (coordinator threads), so
                # fork() is deadlock-prone; forkserver spawns workers from
                # a clean single-threaded helper.  Jobs are already
                # verified picklable, so no fork-only state is lost.
                method = None
                if "forkserver" in multiprocessing.get_all_start_methods():
                    method = "forkserver"
                    _start_warm_forkserver()
                context = multiprocessing.get_context(method)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers or os.cpu_count() or 1,
                    mp_context=context,
                )
                self._finalizer = weakref.finalize(
                    self, ProcessPoolExecutor.shutdown, self._pool, wait=True
                )
            return self._pool, self._generation

    def _discard_pool(self, generation: int, kill: bool = False) -> None:
        """Drop a broken pool; concurrent callers only discard once.

        ``kill=True`` terminates the worker processes first — the timeout
        path needs it because a hung worker never finishes its task and a
        plain shutdown would leave it running (holding memory and, under
        a real hang, a pool slot) forever."""
        with self._lock:
            if self._generation != generation or self._pool is None:
                return
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            if kill:
                try:  # private executor internals; best effort
                    processes = list(self._pool._processes.values())
                except Exception:  # pragma: no cover - interpreter-specific
                    processes = []
                for process in processes:
                    try:
                        process.terminate()
                    except Exception:  # pragma: no cover - already dead
                        pass
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._generation += 1

    def close(self) -> None:
        with self._lock:
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
                self._generation += 1

    # ---------------------------------------------------------------- execute
    def _coordinator_count(self, num_tasks: int) -> int:
        """Parent threads running retry loops: enough to keep every pool
        worker fed (plus headroom for attempts blocked in backoff/polling),
        never one-per-task — a 256-reducer round must not spawn 256
        threads."""
        workers = self.max_workers or os.cpu_count() or 1
        return max(1, min(num_tasks, 2 * workers + 4))

    def execute(self, tasks, retrier):
        if not tasks:
            return []
        # Coordinator threads keep tasks in flight while the retry loop
        # (injection, attempt counts) runs parent-side against the shared
        # fault plan — semantics identical to serial.  Excess tasks queue on
        # the coordinator pool; futures keep results position-ordered.
        count = self._coordinator_count(len(tasks))
        with ThreadPoolExecutor(max_workers=count) as coordinators:
            futures = [
                coordinators.submit(retrier, tid, _RemoteCall(self, fn, args))
                for tid, fn, args in tasks
            ]
            return [f.result() for f in futures]
