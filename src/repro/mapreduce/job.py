"""Job specification for the local MapReduce runtime.

A job is the classic contract:

* ``mapper(key, value) -> iterable[(key', value')]``
* ``combiner(key', values) -> iterable[(key', value'')]`` (optional,
  map-side pre-aggregation; must be semantically idempotent with the
  reducer's merge step)
* ``reducer(key', values) -> iterable[(key'', value''')]``

Reducers may re-key their output — GraphFlat uses this to propagate merged
self-information to out-edge destinations, and the re-indexing stage uses it
to strip suffixes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.mapreduce.shuffle import default_partition

__all__ = [
    "Combiner",
    "JobFailedError",
    "MapReduceJob",
    "SumCombiner",
    "identity_mapper",
]


class JobFailedError(RuntimeError):
    """A task exhausted its retry budget (after injected or real failures)."""


def identity_mapper(key, value) -> Iterable[tuple]:
    """Pass-through mapper used by reduce-only rounds of chained pipelines."""
    yield key, value


class Combiner:
    """Key-preserving associative pre-aggregator.

    Classic callable combiners (``combiner(key, values) -> iterable[(key,
    value)]``) may re-key, which forces the runtime to decode, re-group and
    re-partition their output.  A :class:`Combiner` promises it only folds
    the *values* of one key, which unlocks run-level map-side combine: the
    spill writer folds each key's buffered values every time a run fills —
    before the records hit disk.

    Instances are also plain callables with the classic signature, so the
    in-memory (non-spilling) shuffle path treats them like any combiner.
    """

    def combine(self, key, values: list) -> list:
        """Fold ``values`` (all emitted under ``key``) into fewer values.

        Must be associative: the reducer sees an arbitrary re-folding of
        partial results across map tasks and spill runs.
        """
        raise NotImplementedError

    def __call__(self, key, values: list) -> Iterable[tuple]:
        for value in self.combine(key, values):
            yield key, value


@dataclass(frozen=True)
class SumCombiner(Combiner):
    """Numeric-sum combiner — the degree-counting workhorse: a map task
    that emits ``(dst, 1)`` per edge spills one partial count per key per
    run."""

    def combine(self, key, values: list) -> list:
        return [sum(values)]


@dataclass
class MapReduceJob:
    """Declarative description of one map -> shuffle -> reduce round.

    Attributes
    ----------
    name:
        For logs and error messages.
    mapper / reducer / combiner:
        See module docstring.  ``mapper`` defaults to the identity for
        reduce-only rounds.
    num_reducers:
        Number of reduce partitions (the "cluster width" of the round).
    num_mappers:
        Number of map tasks the input is split into; defaults to
        ``num_reducers``.
    partitioner:
        ``(key, num_partitions) -> partition`` — deterministic; defaults to
        crc32 of the canonical key bytes.
    accepts:
        ``key -> bool`` — engine-internal (a dataflow driver sets it, never
        a user): this round of a chain is a *side stage* that only takes the
        keys it accepts.  The round before it routes every other key straight
        into the round after it, which merges both rounds' output — see
        :meth:`~repro.mapreduce.runtime.LocalRuntime.run_rounds`.
    """

    name: str
    reducer: Callable[[object, list], Iterable[tuple]]
    mapper: Callable[[object, object], Iterable[tuple]] = identity_mapper
    combiner: Callable[[object, list], Iterable[tuple]] | None = None
    num_reducers: int = 4
    num_mappers: int | None = None
    partitioner: Callable[[object, int], int] = field(default=default_partition)
    accepts: Callable[[object], bool] | None = None

    def __post_init__(self):
        if self.num_reducers <= 0:
            raise ValueError(f"job {self.name!r}: num_reducers must be positive")
        if self.num_mappers is not None and self.num_mappers <= 0:
            raise ValueError(f"job {self.name!r}: num_mappers must be positive")

    @property
    def effective_mappers(self) -> int:
        return self.num_mappers if self.num_mappers is not None else self.num_reducers
