"""The chaos plane of the MapReduce runtime: fault injection, fault
*effects*, and the cooperative deadline.

The paper's pitch for building on MapReduce is that fault tolerance comes
for free: a failed task is simply re-executed and, because tasks are
deterministic functions of their input partition, the job output is
unchanged.  This module makes that property *testable* across the whole
failure surface, not just crash-before-work.  There is one plan class,
:class:`FaultPlan`: it deterministically injects one of :data:`FAULT_KINDS`
per sampled attempt, keyed by ``(job, task, attempt, kind)`` (crash-only is
``FaultPlan({"crash": rate})``):

* ``crash`` — the attempt dies before doing any work (parent-side raise:
  a worker that was lost before it produced anything);
* ``hang`` — the attempt wedges inside the worker until the runtime's
  deadline machinery kills it (cooperative check under serial/threads,
  parent-side future timeout + pool discard under processes);
* ``slow`` — the attempt runs to completion but takes ``slow_s`` longer,
  a straggler for the speculation machinery to rescue;
* ``corrupt-run`` / ``truncate-run`` — the attempt's *view* of one spill
  run file is corrupted / truncated at read time, so the frame CRC (or
  frame framing) fails loudly mid-merge and the attempt is re-executed.
  The fault is injected on the read path, never on disk: the retry reads
  the intact file, which is what keeps re-execution byte-identical.
* ``conn-reset`` — the network twin of the read faults: the attempt's
  shuffle-fetch *connection* dies mid-stream (``ConnectionResetError``,
  retryable) while the peer's run files stay intact, so the retried
  attempt re-fetches the same bytes.  Only the TCP shuffle transport
  consumes it; elsewhere it arms and expires harmlessly.

Decisions (which attempt gets which fault) are made in the *parent* — that
keeps the injected-counter and ``max_faults`` cap exact under every backend
— and only a plain picklable :class:`AttemptSpec` ships into the worker,
where :func:`run_with_effects` applies the effect around the task body.

Deadlines: :func:`deadline_scope` arms a per-thread deadline and the hot
task-body loops call :func:`maybe_check_deadline` (amortized — it looks at
the clock every 64th call), raising :class:`TaskTimeoutError` when the
attempt overruns.  The runtime classifies that as retryable.
"""

from __future__ import annotations

import hashlib
import threading
import time

import numpy as np

from repro.utils.rng import new_rng

__all__ = [
    "FAULT_KINDS",
    "AttemptSpec",
    "FaultPlan",
    "InjectedWorkerFailure",
    "TaskTimeoutError",
    "deadline_scope",
    "maybe_check_deadline",
    "run_with_effects",
    "take_conn_fault",
    "take_read_fault",
]

FAULT_KINDS = ("crash", "hang", "slow", "corrupt-run", "truncate-run", "conn-reset")

_READ_FAULTS = ("corrupt-run", "truncate-run")
"""Kinds that only make sense for spill-reading (reduce) attempts."""

_REDUCE_ONLY_FAULTS = _READ_FAULTS + ("conn-reset",)
"""Kinds gated to reduce attempts (map attempts neither read spill runs
nor fetch them over the wire), keeping the injected counters equal to the
number of effects actually applied."""


class InjectedWorkerFailure(RuntimeError):
    """Simulated crash of a map/reduce task attempt."""


class TaskTimeoutError(RuntimeError):
    """A task attempt overran its per-attempt deadline (``task_timeout_s``).

    Retryable: the attempt produced nothing durable (spill writes are
    atomic), so the runtime simply re-executes the task."""


def _uniform(seed: int, material: str) -> float:
    """Deterministic uniform draw in [0, 1) keyed by ``material``.

    The material is *hashed* to the 32 bytes of seed entropy — padding or
    truncating it (the old behaviour) silently dropped the trailing attempt
    counter for long ``job|task`` names, so every retry of such a task
    redrew the same failure and deterministically exhausted all attempts.
    """
    digest = hashlib.blake2b(
        f"{seed}|{material}".encode(), digest_size=32
    ).digest()
    entropy = np.frombuffer(digest, dtype=np.uint32)
    rng = new_rng(np.random.SeedSequence(entropy=entropy.tolist()))
    return float(rng.random())


# -------------------------------------------------------------- injection plan
class FaultPlan:
    """Deterministically inject the full fault plane.

    ``rates`` maps fault kind -> per-attempt probability (a bare float
    applies to every kind).  Each ``(job, task, attempt, kind)`` gets an
    independent seeded draw — keyed off the task coordinates, so a retried
    attempt of the same task draws afresh and the schedule does not depend
    on execution order (threads!); kinds are tried in :data:`FAULT_KINDS`
    order and the first hit wins.  ``max_faults`` caps total injections
    across kinds (so a high rate cannot starve a job forever in tests).

    ``corrupt-run``/``truncate-run`` only fire for spill-*reading* attempts
    (task ids starting with ``reduce-``): a map attempt has no run files to
    read, and skipping it keeps the injected counter equal to the number of
    effects actually applied.
    """

    def __init__(
        self,
        rates: dict[str, float] | float,
        seed: int | None = 0,
        max_faults: int | None = None,
        slow_s: float = 0.05,
        hang_limit_s: float = 60.0,
    ):
        if isinstance(rates, (int, float)):
            rates = {kind: float(rates) for kind in FAULT_KINDS}
        unknown = set(rates) - set(FAULT_KINDS)
        if unknown:
            raise ValueError(
                f"unknown fault kinds {sorted(unknown)}; known: {FAULT_KINDS}"
            )
        for kind, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {kind!r} must be in [0, 1], got {rate}")
        self.rates = dict(rates)
        self._seed = 0 if seed is None else int(seed)
        self.max_faults = max_faults
        self.slow_s = slow_s
        self.hang_limit_s = hang_limit_s
        self.injected = 0
        self.injected_by_kind: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self._lock = threading.Lock()

    def draw(self, job_name: str, task_id: str, attempt: int) -> str | None:
        """Fault kind for this attempt, or ``None`` — what the runtime's
        retry loop asks before every attempt (and counts, if it hits)."""
        for kind in FAULT_KINDS:
            rate = self.rates.get(kind, 0.0)
            if rate == 0.0:
                continue
            if kind in _REDUCE_ONLY_FAULTS and not task_id.startswith("reduce-"):
                continue
            if _uniform(self._seed, f"{job_name}|{task_id}|{attempt}|{kind}") < rate:
                with self._lock:
                    if self.max_faults is not None and self.injected >= self.max_faults:
                        return None
                    self.injected += 1
                    self.injected_by_kind[kind] += 1
                return kind
        return None

    def spec(self, kind: str | None, timeout_s: float | None) -> "AttemptSpec":
        return AttemptSpec(
            fault=kind,
            timeout_s=timeout_s,
            slow_s=self.slow_s,
            hang_limit_s=self.hang_limit_s,
        )


# ------------------------------------------------------- per-attempt effects
class AttemptSpec:
    """Picklable per-attempt instructions shipped into the task invocation:
    which fault effect (if any) to apply, and the attempt deadline for the
    cooperative check.  Plain data — the plan's lock and counters stay in
    the parent."""

    __slots__ = ("fault", "timeout_s", "slow_s", "hang_limit_s")

    def __init__(
        self,
        fault: str | None = None,
        timeout_s: float | None = None,
        slow_s: float = 0.05,
        hang_limit_s: float = 60.0,
    ):
        self.fault = fault
        self.timeout_s = timeout_s
        self.slow_s = slow_s
        self.hang_limit_s = hang_limit_s

    def __getstate__(self):
        return (self.fault, self.timeout_s, self.slow_s, self.hang_limit_s)

    def __setstate__(self, state):
        self.fault, self.timeout_s, self.slow_s, self.hang_limit_s = state

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"AttemptSpec(fault={self.fault!r}, timeout_s={self.timeout_s}, "
            f"slow_s={self.slow_s}, hang_limit_s={self.hang_limit_s})"
        )


_DEADLINE = threading.local()

_CHECK_EVERY = 64
"""Amortization of :func:`maybe_check_deadline`: the clock is consulted on
every ``_CHECK_EVERY``-th call, so per-record overhead in the hot map and
reduce loops is one attribute lookup and an integer increment."""


class deadline_scope:
    """Arm this thread's cooperative deadline for one task attempt.

    Nestable in principle but used one attempt at a time; ``None`` timeout
    is a no-op scope so call sites need no branching."""

    def __init__(self, timeout_s: float | None):
        self._timeout_s = timeout_s
        self._prev: float | None = None

    def __enter__(self):
        if self._timeout_s is not None:
            self._prev = getattr(_DEADLINE, "at", None)
            _DEADLINE.at = time.monotonic() + self._timeout_s
            _DEADLINE.tick = 0
        return self

    def __exit__(self, *exc):
        if self._timeout_s is not None:
            _DEADLINE.at = self._prev


def check_deadline() -> None:
    """Raise :class:`TaskTimeoutError` if this thread's armed deadline has
    passed; no-op when no deadline is armed."""
    at = getattr(_DEADLINE, "at", None)
    if at is not None and time.monotonic() > at:
        raise TaskTimeoutError(
            "task attempt overran its cooperative deadline (task_timeout_s)"
        )


def maybe_check_deadline() -> None:
    """Amortized :func:`check_deadline` for per-record hot loops."""
    at = getattr(_DEADLINE, "at", None)
    if at is None:
        return
    tick = _DEADLINE.tick + 1
    if tick >= _CHECK_EVERY:
        _DEADLINE.tick = 0
        if time.monotonic() > at:
            raise TaskTimeoutError(
                "task attempt overran its cooperative deadline (task_timeout_s)"
            )
    else:
        _DEADLINE.tick = tick


# Read-path fault handoff: run_with_effects arms it for the attempt, the
# spill reader (SpillLayout._iter_file) consumes it for exactly one file.
_READ_FAULT = threading.local()


def take_read_fault() -> str | None:
    """Pop this thread's pending read fault (one spill file per attempt)."""
    kind = getattr(_READ_FAULT, "kind", None)
    if kind is not None:
        _READ_FAULT.kind = None
    return kind


# Connection-fault handoff: same shape as the read-fault handoff, consumed
# by the TCP shuffle fetch (TcpFetchSource._fetch_runs) for one fetch.
_CONN_FAULT = threading.local()


def take_conn_fault() -> str | None:
    """Pop this thread's pending connection fault (one fetch per attempt)."""
    kind = getattr(_CONN_FAULT, "kind", None)
    if kind is not None:
        _CONN_FAULT.kind = None
    return kind


def run_with_effects(spec: AttemptSpec | None, fn, args):
    """Run one task attempt body with its fault effect and deadline.

    This is the worker-side half of the chaos plane: it executes in
    whatever thread/process actually runs the task (the calling thread
    under serial/threads, the pool worker under processes), so the
    cooperative deadline and the read-fault handoff land where the task
    body will see them.  Top-level and picklable by reference.
    """
    if spec is None:
        return fn(*args)
    with deadline_scope(spec.timeout_s):
        fault = spec.fault
        if fault == "slow":
            time.sleep(spec.slow_s)
        elif fault == "hang":
            # Wedge until the deadline machinery kills us: cooperative
            # check fires under serial/threads; under processes the
            # parent's future timeout terminates the pool.  hang_limit_s
            # bounds the wedge so a missing deadline cannot block forever.
            limit = time.monotonic() + spec.hang_limit_s
            while time.monotonic() < limit:
                check_deadline()
                time.sleep(0.01)
            raise TaskTimeoutError(
                f"injected hang exceeded its safety limit ({spec.hang_limit_s}s) "
                "with no deadline armed"
            )
        elif fault in _READ_FAULTS:
            _READ_FAULT.kind = fault
        elif fault == "conn-reset":
            _CONN_FAULT.kind = fault
        try:
            return fn(*args)
        finally:
            if fault in _READ_FAULTS:
                _READ_FAULT.kind = None
            elif fault == "conn-reset":
                _CONN_FAULT.kind = None
