"""Golden ``RunStats``: however a round's shuffle is filled — by the parent
(reduce-only first round), by map tasks (with or without a combiner) or by
the reducers of the round before it (directly, or past a side stage) — the
output pairs and every deterministic per-round counter are the values
recorded on the commit *before* those three ways in were folded into one
shuffle object (dbe2822), on both media.

``GOLDEN`` is keyed by (first-round kind, medium); the backend is not part of
the key because it may not change a single number.  ``processes`` always
spills, so without a ``spill_dir`` it lands on the ``spill-default-runs``
medium; ``spill-small-runs`` bounds a run at 16 records, which cuts every
writer's output into several runs per partition.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.mapreduce import LocalRuntime, MapReduceJob, SumCombiner

FIELDS = (
    "input_records", "mapped_records", "combined_records", "shuffled_records",
    "reduced_records", "shuffle_bytes_written", "peak_reducer_buffer_bytes",
    "map_attempts", "reduce_attempts", "partition_records", "partition_bytes",
    "reducer_group_sizes", "max_group_values",
)
INPUT_SIDE = tuple(
    f for f in FIELDS if f not in ("shuffle_bytes_written", "peak_reducer_buffer_bytes")
)
"""What a round reports about its *own* shuffle and reduce — independent of
whether a following round makes its reducers write (both byte counters of a
reduce-only or in-memory round come from what it writes for the next one)."""

KINDS = ("reduce-only", "mapper", "mapper+SumCombiner", "mapper+rekey-combiner")
BACKENDS = ("serial", "threads", "processes")
INPUT = [(i % 17, i % 5 + 1) for i in range(200)]
NUM_REDUCERS = 3


# Top-level operators: picklable, so they ship to worker processes.
def fan_mapper(key, value):
    yield key, value
    yield (key * 3 + value) % 23, 1


def rekey_combiner(key, values):
    """Classic callable combiner that re-keys: what it emits stays in the
    partition it was combined in, whatever the new key hashes to."""
    yield key // 2, sum(values)


def spread_reducer(key, values):
    total = sum(values)
    yield key, total
    for value in values:
        yield (key + value) % 29, value
    if total % 2 == 0:
        yield (key % 4, total % 3), total  # the side stage's keys


def is_tuple_key(key):
    return type(key) is tuple


def fold_reducer(key, values):
    yield key[0], sum(values)


def collect_reducer(key, values):
    yield key, sorted(values)


def first_job(kind: str) -> MapReduceJob:
    kwargs = {
        "reduce-only": {},
        "mapper": dict(mapper=fan_mapper),
        "mapper+SumCombiner": dict(mapper=fan_mapper, combiner=SumCombiner()),
        "mapper+rekey-combiner": dict(mapper=fan_mapper, combiner=rekey_combiner),
    }[kind]
    return MapReduceJob(
        "first", spread_reducer, num_reducers=NUM_REDUCERS, num_mappers=4, **kwargs
    )


def chain(kind: str) -> list[MapReduceJob]:
    return [
        first_job(kind),
        MapReduceJob("fold", fold_reducer, num_reducers=NUM_REDUCERS, accepts=is_tuple_key),
        MapReduceJob("collect", collect_reducer, num_reducers=NUM_REDUCERS),
    ]


def make_runtime(backend: str, spilled: bool, tmp_path) -> tuple[LocalRuntime, str]:
    kwargs = dict(backend=backend, max_workers=2, shuffle_codec="binary")
    if spilled:
        return (
            LocalRuntime(spill_dir=tmp_path / "spill", spill_run_records=16, **kwargs),
            "spill-small-runs",
        )
    medium = "spill-default-runs" if backend == "processes" else "memory"
    return LocalRuntime(**kwargs), medium


def digest(pairs) -> str:
    return hashlib.sha256(repr(pairs).encode()).hexdigest()[:16]


def observed(stats) -> dict:
    """The deterministic counters of one round; per-partition dicts as
    tuples in partition order (``()`` when the round recorded none)."""
    row = {}
    for name in FIELDS:
        value = getattr(stats, name)
        if isinstance(value, dict):
            value = tuple(value[p] for p in range(NUM_REDUCERS)) if value else ()
        row[name] = value
    return row


GOLDEN = {
    # (first-round kind, medium): (output digest, [one row per round, in FIELDS order])
    ("reduce-only", "memory"): ("e6671cce85d9e423", [
        (200, 200, 0, 200, 228, 0, 0, 0, 3, (82, 72, 46), (), (7, 6, 4), 12),
        (11, 11, 0, 11, 9, 0, 0, 0, 3, (4, 4, 3), (), (3, 3, 3), 2),
        (226, 226, 0, 226, 22, 0, 0, 0, 3, (90, 81, 55), (), (8, 8, 6), 13),
    ]),
    ("reduce-only", "spill-default-runs"): ("e6671cce85d9e423", [
        (200, 200, 0, 200, 228, 4756, 968, 0, 3, (82, 72, 46), (748, 658, 430), (7, 6, 4), 12),
        (11, 11, 0, 11, 9, 268, 96, 0, 3, (4, 4, 3), (179, 179, 150), (3, 3, 3), 2),
        (226, 226, 0, 226, 22, 0, 0, 0, 3, (90, 81, 55), (1038, 894, 748), (8, 8, 6), 13),
    ]),
    ("reduce-only", "spill-small-runs"): ("e6671cce85d9e423", [
        (200, 200, 0, 200, 228, 8409, 301, 0, 3, (82, 72, 46), (1749, 1569, 1080), (7, 6, 4), 12),
        (11, 11, 0, 11, 9, 268, 96, 0, 3, (4, 4, 3), (179, 179, 150), (3, 3, 3), 2),
        (226, 226, 0, 226, 22, 0, 0, 0, 3, (90, 81, 55), (1508, 1291, 972), (8, 8, 6), 13),
    ]),
    ("mapper", "memory"): ("2d85f93f7a76b1e5", [
        (200, 400, 0, 400, 432, 0, 0, 4, 3, (155, 145, 100), (), (8, 8, 7), 24),
        (9, 9, 0, 9, 8, 0, 0, 0, 3, (3, 3, 3), (), (3, 3, 2), 2),
        (431, 431, 0, 431, 24, 0, 0, 0, 3, (156, 161, 114), (), (8, 8, 8), 25),
    ]),
    ("mapper", "spill-default-runs"): ("2d85f93f7a76b1e5", [
        (200, 400, 0, 400, 432, 8872, 1560, 4, 3, (155, 145, 100), (1648, 1558, 1168), (8, 8, 7), 24),
        (9, 9, 0, 9, 8, 270, 96, 0, 3, (3, 3, 3), (129, 129, 129), (3, 3, 2), 2),
        (431, 431, 0, 431, 24, 0, 0, 0, 3, (156, 161, 114), (1567, 1554, 1260), (8, 8, 8), 25),
    ]),
    ("mapper", "spill-small-runs"): ("2d85f93f7a76b1e5", [
        (200, 400, 0, 400, 432, 14891, 271, 4, 3, (155, 145, 100), (3058, 2928, 2206), (8, 8, 7), 24),
        (9, 9, 0, 9, 8, 270, 96, 0, 3, (3, 3, 3), (129, 129, 129), (3, 3, 2), 2),
        (431, 431, 0, 431, 24, 0, 0, 0, 3, (156, 161, 114), (2395, 2373, 1814), (8, 8, 8), 25),
    ]),
    ("mapper+SumCombiner", "memory"): ("9ccd1846732fbf34", [
        (200, 400, 91, 91, 123, 0, 0, 4, 3, (32, 31, 28), (), (8, 8, 7), 4),
        (9, 9, 0, 9, 8, 0, 0, 0, 3, (3, 3, 3), (), (3, 3, 2), 2),
        (122, 122, 0, 122, 29, 0, 0, 0, 3, (40, 35, 47), (), (11, 9, 9), 11),
    ]),
    ("mapper+SumCombiner", "spill-default-runs"): ("9ccd1846732fbf34", [
        (200, 400, 91, 91, 123, 3960, 584, 4, 3, (32, 31, 28), (660, 642, 588), (8, 8, 7), 4),
        (9, 9, 0, 9, 8, 270, 96, 0, 3, (3, 3, 3), (129, 129, 129), (3, 3, 2), 2),
        (122, 122, 0, 122, 29, 0, 0, 0, 3, (40, 35, 47), (687, 503, 763), (11, 9, 9), 11),
    ]),
    ("mapper+SumCombiner", "spill-small-runs"): ("7132447b2a82453b", [
        (200, 400, 327, 327, 359, 13272, 281, 4, 3, (123, 118, 86), (2802, 2712, 2094), (8, 8, 7), 19),
        (9, 9, 0, 9, 8, 270, 96, 0, 3, (3, 3, 3), (129, 129, 129), (3, 3, 2), 2),
        (358, 358, 0, 358, 24, 0, 0, 0, 3, (126, 127, 105), (1951, 1916, 1680), (8, 8, 8), 25),
    ]),
    ("mapper+rekey-combiner", "memory"): ("fd4f4ef455e1880e", [
        (200, 400, 91, 91, 115, 0, 0, 4, 3, (32, 31, 28), (), (7, 5, 6), 8),
        (6, 6, 0, 6, 5, 0, 0, 0, 3, (2, 2, 2), (), (2, 1, 2), 2),
        (114, 114, 0, 114, 21, 0, 0, 0, 3, (52, 22, 40), (), (8, 7, 6), 14),
    ]),
    ("mapper+rekey-combiner", "spill-default-runs"): ("fd4f4ef455e1880e", [
        (200, 400, 91, 91, 115, 3491, 565, 4, 3, (32, 31, 28), (620, 532, 548), (7, 5, 6), 8),
        (6, 6, 0, 6, 5, 174, 78, 0, 3, (2, 2, 2), (100, 58, 100), (2, 1, 2), 2),
        (114, 114, 0, 114, 21, 0, 0, 0, 3, (52, 22, 40), (733, 379, 595), (8, 7, 6), 14),
    ]),
    ("mapper+rekey-combiner", "spill-small-runs"): ("fd4f4ef455e1880e", [
        (200, 400, 91, 91, 115, 4055, 321, 4, 3, (32, 31, 28), (620, 532, 548), (7, 5, 6), 8),
        (6, 6, 0, 6, 5, 174, 78, 0, 3, (2, 2, 2), (100, 58, 100), (2, 1, 2), 2),
        (114, 114, 0, 114, 21, 0, 0, 0, 3, (52, 22, 40), (957, 545, 769), (8, 7, 6), 14),
    ]),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("spilled", [False, True], ids=["memory", "spilled"])
@pytest.mark.parametrize("kind", KINDS)
def test_chain_reproduces_the_recorded_counters(tmp_path, kind, spilled, backend):
    runtime, medium = make_runtime(backend, spilled, tmp_path)
    with runtime:
        out = runtime.run_rounds(chain(kind), list(INPUT))
        rounds = [observed(stats) for stats in runtime.round_stats]
    golden_digest, golden_rounds = GOLDEN[kind, medium]
    assert digest(out) == golden_digest
    for name, got, want in zip(("first", "fold", "collect"), rounds, golden_rounds):
        assert got == dict(zip(FIELDS, want)), name


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("spilled", [False, True], ids=["memory", "spilled"])
@pytest.mark.parametrize("kind", KINDS)
def test_run_is_a_chain_of_one(tmp_path, kind, spilled, backend):
    runtime, medium = make_runtime(backend, spilled, tmp_path)
    with runtime:
        out = runtime.run(first_job(kind), list(INPUT))
        alone = observed(runtime.last_stats)
        assert [observed(s) for s in runtime.round_stats] == [alone]
        assert runtime.run_rounds([first_job(kind)], list(INPUT)) == out
        assert observed(runtime.last_stats) == alone
        assert [observed(s) for s in runtime.round_stats] == [alone]
    # ... and what it reports about its own shuffle is what the same job
    # reports as the first round of the recorded chain.
    first = dict(zip(FIELDS, GOLDEN[kind, medium][1][0]))
    assert {k: alone[k] for k in INPUT_SIDE} == {k: first[k] for k in INPUT_SIDE}
    assert alone["peak_reducer_buffer_bytes"] == 0  # terminal collect: no writer


@pytest.mark.parametrize("kind", KINDS)
def test_small_runs_cut_a_partition_into_several_runs(kind):
    """The recording itself shows the k-way merge was real: a run file costs
    a header, so the 16-record bound means more bytes in every partition of
    the first and the last shuffle — except behind a classic callable
    combiner, whose map tasks spill what they folded as one run per
    partition whatever the bound."""
    small = [dict(zip(FIELDS, row)) for row in GOLDEN[kind, "spill-small-runs"][1]]
    whole = [dict(zip(FIELDS, row)) for row in GOLDEN[kind, "spill-default-runs"][1]]
    for index in (0, 2):
        pairs = zip(small[index]["partition_bytes"], whole[index]["partition_bytes"])
        if kind == "mapper+rekey-combiner" and index == 0:
            assert all(a == b for a, b in pairs)
        else:
            assert all(a > b for a, b in pairs)
