"""Shuffle placement and side inputs.

The contract under test:

* a job's partition function — the hash default or a caller's own
  callable — is a pure function of the key, so it preserves reduce
  *grouping* and places records identically across processes, retries, and
  speculated attempts (hypothesis property below), and the runtime calls
  exactly the job's own function;
* side inputs (``publish``) reach every task once per run, inline or
  through a shared-memory slab, and pooled workers cache only the newest;
* GraphFlat's stochastic samplers stay byte-identical across backends and
  re-executed attempts with hub re-indexing active.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
import time
import zlib
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.mapreduce import (
    FaultPlan,
    LocalRuntime,
    MapReduceJob,
    default_partition,
    key_bytes,
)
from repro.mapreduce.partition import (
    _SIDE_INPUTS,
    _SIDE_INPUTS_MAX,
    SlabLocator,
    int_key_partitions,
    key_partitions,
    publish,
)
from repro.mapreduce.shuffle import int_key_rows
from repro.utils.shm import attach_shared_memory


@pytest.fixture(scope="module")
def hub_graph():
    """~120-node graph with two genuine hubs (in-degree 30 > threshold 8),
    so hub re-indexing is active in every pipeline test here."""
    from repro.datasets import uug_like

    return uug_like(
        seed=5, num_nodes=120, avg_degree=4, feature_dim=6, num_hubs=2, hub_degree=30
    )


def flat_config(**overrides):
    base = dict(hops=2, max_neighbors=4, hub_threshold=8, num_reducers=4, seed=0)
    base.update(overrides)
    return GraphFlatConfig(**base)


@dataclass(frozen=True)
class _Payload:
    """A side input: anything with ``encode()`` and a ``decode`` classmethod."""

    data: bytes

    def encode(self) -> bytes:
        return self.data

    @classmethod
    def decode(cls, data: bytes) -> "_Payload":
        return cls(data)


class TestPublish:
    def test_publish_attach_close(self):
        payload = b"plan-table-bytes" * 100
        slab, carrier = publish(_Payload(payload), needs_pickling=True)
        assert type(carrier) is SlabLocator and carrier.nbytes == len(payload)
        seg = attach_shared_memory(slab.name)
        try:
            assert bytes(seg.buf[: len(payload)]) == payload
        finally:
            seg.close()
        assert carrier.get() == _Payload(payload)
        slab.close()
        slab.close()  # idempotent
        with pytest.raises(FileNotFoundError):
            attach_shared_memory(slab.name)

    def test_in_process_publish_is_a_reference(self):
        value = _Payload(b"x")
        slab, carrier = publish(value, needs_pickling=False)
        assert slab is None and carrier.get() is value

    def test_empty_payload(self):
        slab, carrier = publish(_Payload(b""), needs_pickling=True)
        with slab:
            assert carrier.get() == _Payload(b"")

    def test_decoded_side_inputs_are_a_bounded_fifo(self):
        """Pooled workers outlive their runs: the decoded side inputs they
        cache are the newest :data:`_SIDE_INPUTS_MAX` only."""
        published = [
            publish(_Payload(bytes([i]) * 8), needs_pickling=True)
            for i in range(_SIDE_INPUTS_MAX + 2)
        ]
        try:
            for i, (_, carrier) in enumerate(published):
                assert carrier.get() == _Payload(bytes([i]) * 8)
            keys = [(c.name, c.nbytes) for _, c in published]
            assert len(_SIDE_INPUTS) <= _SIDE_INPUTS_MAX
            assert [k for k in _SIDE_INPUTS if k in keys] == keys[-_SIDE_INPUTS_MAX:]
        finally:
            for slab, carrier in published:
                _SIDE_INPUTS.pop((carrier.name, carrier.nbytes), None)
                slab.close()


class _SlowPayload(_Payload):
    """A side input whose decoding yields the interpreter lock midway, as
    unpickling a large value may."""

    @classmethod
    def decode(cls, data: bytes) -> "_Payload":
        time.sleep(0.001)
        return _Payload(data)


def test_side_input_cache_under_concurrent_readers():
    """Threads reading more side inputs than the cache holds each get their
    own value, and the cache stays bounded."""
    published = [
        publish(_SlowPayload(bytes([i]) * 8), needs_pickling=True)
        for i in range(_SIDE_INPUTS_MAX + 3)
    ]
    wrong = []

    def read(offset):
        for step in range(200):
            i = (offset + step) % len(published)
            try:
                if published[i][1].get() != _Payload(bytes([i]) * 8):
                    wrong.append(i)
            except Exception as exc:  # a lost race, reported by the assert below
                wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        for slab, carrier in published:
            _SIDE_INPUTS.pop((carrier.name, carrier.nbytes), None)
            slab.close()
    assert wrong == []
    assert len(_SIDE_INPUTS) <= _SIDE_INPUTS_MAX


def _held_side_inputs(key, value):
    """Probe mapper: which worker ran it, and how many decoded side inputs
    that worker holds."""
    time.sleep(0.05)  # keep every pool worker busy, so each one answers
    yield os.getpid(), len(_SIDE_INPUTS)


def _most(key, values):
    yield key, max(values)


def test_pooled_workers_keep_only_the_newest_side_inputs(hub_graph):
    """A ``processes`` pool lives as long as its runtime: after four runs,
    each worker still holds at most one run's worth of decoded side inputs,
    not every run's out-edges."""
    probe = MapReduceJob(
        "probe", _most, mapper=_held_side_inputs, num_reducers=1, num_mappers=8
    )
    with LocalRuntime(backend="processes", max_workers=2) as runtime:
        for seed in range(4):
            graph_flat(hub_graph.nodes, hub_graph.edges, None, flat_config(seed=seed),
                       runtime=runtime)
        held = dict(runtime.run(probe, [(i, None) for i in range(16)]))
    assert len(held) == 2
    assert max(held.values()) <= _SIDE_INPUTS_MAX
    assert min(held.values()) >= 1  # every worker read the out-edges


# --------------------------------------------------------------- properties

key_strategy = st.one_of(
    st.integers(min_value=-(2**50), max_value=2**50),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.tuples(st.integers(min_value=0, max_value=2**20), st.integers(0, 7)),
)


def _reversed_hash(key, num_partitions: int) -> int:
    """A caller's own partition function: deterministic and picklable."""
    return num_partitions - 1 - default_partition(key, num_partitions)


@dataclass(frozen=True)
class _ModuloLength:
    """A stateful caller's partitioner: placement by canonical key length."""

    offset: int

    def __call__(self, key, num_partitions: int) -> int:
        return (len(key_bytes(key)) + self.offset) % num_partitions


@settings(max_examples=50)
@given(
    keys=st.lists(key_strategy, min_size=1, max_size=40),
    num_partitions=st.integers(min_value=1, max_value=9),
    offset=st.integers(min_value=0, max_value=5),
)
def test_any_partitioner_preserves_grouping_and_reexecution(keys, num_partitions, offset):
    """For ANY partition function — the hash default or a caller's own
    callable: placement is a total, in-range, pure function of the key — so
    every record of a key lands on one reducer (grouping), and a
    re-executed attempt (here: a pickled clone, as the processes backend
    would ship it) places each record exactly where the first attempt did."""
    for partitioner in (default_partition, _reversed_hash, _ModuloLength(offset)):
        reexecuted = pickle.loads(pickle.dumps(partitioner))
        for key in keys:
            first = partitioner(key, num_partitions)
            assert 0 <= first < num_partitions
            assert partitioner(key, num_partitions) == first  # deterministic
            assert reexecuted(key, num_partitions) == first  # retry-safe
            # grouping: canonically-equal keys co-locate
            assert partitioner(key, num_partitions) == partitioner(
                pickle.loads(pickle.dumps(key)), num_partitions
            )


class TestDefaultPartition:
    """The one partition function of every engine round: crc32 of the key's
    canonical bytes, modulo the reducer count — the same number on every
    process and every run, which the writers' array pass must reproduce."""

    @pytest.mark.parametrize("key", [
        0, 1, -1, 2**63 - 1, -(2**63), "hub", "", b"\x00\xff", (7, 2), (-3, 0),
    ], ids=repr)
    def test_is_crc32_of_the_canonical_bytes(self, key):
        for num_partitions in (1, 2, 5, 64):
            assert default_partition(key, num_partitions) == (
                zlib.crc32(key_bytes(key)) % num_partitions
            )
        assert key_partitions(default_partition, [key], [key_bytes(key)], 5) == [
            default_partition(key, 5)
        ]
        if isinstance(key, int):  # the shuffle writers' array pass
            keys = np.array([key], dtype=np.int64)
            assert int_key_partitions(default_partition, keys, *int_key_rows(keys), 5).tolist() == [
                default_partition(key, 5)
            ]

    def test_pickles_by_reference(self):
        """Shipped to a pool worker it is still the default, so the writers
        there take the array pass, not the per-key fallback."""
        assert pickle.loads(pickle.dumps(default_partition)) is default_partition

    @pytest.mark.parametrize("num_partitions", [0, -1])
    def test_rejects_a_non_positive_partition_count(self, num_partitions):
        keys = np.array([1, 2, 3], dtype=np.int64)
        rows, lengths = int_key_rows(keys)
        with pytest.raises(ValueError, match="positive"):
            default_partition(1, num_partitions)
        with pytest.raises(ValueError, match="positive"):
            key_partitions(default_partition, [1], [key_bytes(1)], num_partitions)
        with pytest.raises(ValueError, match="positive"):
            int_key_partitions(default_partition, keys, rows, lengths, num_partitions)


# ------------------------------------------------------- runtime integration


def _word_mapper(_, line):
    for word in line.split():
        yield word, 1


def _word_reducer(word, counts):
    yield word, sum(counts)


def _word_count_job(**overrides):
    return MapReduceJob("wordcount", _word_reducer, mapper=_word_mapper, **overrides)


CORPUS = [(i, text) for i, text in enumerate(
    ["the quick brown fox", "the lazy dog", "the fox jumps the dog"] * 7
)]


class TestJobPartitioner:
    @pytest.mark.parametrize("partitioner", [_reversed_hash, _ModuloLength(2)],
                             ids=["function", "callable-object"])
    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_custom_partitioner_is_output_identical_and_spills_clean(
        self, tmp_path, backend, partitioner
    ):
        """A job's own callable re-shards the round, never its result: a
        spilled run on every backend — ``processes`` ships the callable
        pickled — equals the in-memory hash run, its reducers receive the
        records the callable placed, and the run files are gone afterwards."""
        baseline = LocalRuntime().run(_word_count_job(num_reducers=3), CORPUS)
        custom = _word_count_job(num_reducers=3, partitioner=partitioner)
        placed: dict[int, int] = {}
        for _, line in CORPUS:
            for word in line.split():
                where = partitioner(word, 3)
                placed[where] = placed.get(where, 0) + 1
        with LocalRuntime(backend=backend, max_workers=2, spill_dir=tmp_path) as runtime:
            out = runtime.run(custom, CORPUS)
            assert sorted(out) == sorted(baseline)
            assert runtime.last_stats.partition_records == placed
            assert runtime.last_stats.shuffle_bytes_written > 0
        assert not list(tmp_path.glob("*"))

    def test_job_partitioner_is_the_one_invoked(self):
        marker = []

        def spy(key, n):
            marker.append(key)
            return default_partition(key, n)

        job = _word_count_job(num_reducers=3, partitioner=spy)
        out = LocalRuntime().run(job, CORPUS)
        assert marker, "job-level partitioner must be the one invoked"
        assert sorted(out) == sorted(LocalRuntime().run(_word_count_job(num_reducers=3), CORPUS))

    def test_skew_stats_show_colliding_keys(self):
        """Heavy keys that all hash to one partition: the hash default piles
        them on one reducer, and RunStats' skew factor shows exactly that."""
        n = 4
        hot = [w for w in (f"w{i}" for i in range(400))
               if zlib.crc32(key_bytes(w)) % n == 0][:n]
        data = [(i, " ".join(hot)) for i in range(40)]
        runtime = LocalRuntime()
        runtime.run(_word_count_job(num_reducers=n), data)
        assert runtime.last_stats.records_skew() == pytest.approx(n)  # all on one
        assert sum(runtime.last_stats.partition_records.values()) == 40 * n


# ------------------------------------------------------- pipeline byte-identity


@pytest.mark.parametrize("sampling", ["uniform", "weighted", "topk"])
def test_stochastic_samplers_identical_across_backends_and_retries(hub_graph, sampling):
    """Uniform / Weighted / TopK sampling under hub reindex: neighborhoods are
    byte-identical across backends and re-executed attempts — the canonical
    source-id ordering at work."""
    ds = hub_graph
    targets = ds.train_ids[:20]
    baseline = graph_flat(ds.nodes, ds.edges, targets, flat_config(sampling=sampling))
    assert baseline.hub_nodes
    threaded = graph_flat(
        ds.nodes, ds.edges, targets,
        flat_config(sampling=sampling, backend="threads", num_workers=3),
    )
    assert threaded.samples == baseline.samples
    plan = FaultPlan({"crash": 0.25}, seed=7)
    with LocalRuntime(
        backend="threads", max_workers=2, max_attempts=10, fault_plan=plan,
    ) as runtime:
        retried = graph_flat(
            ds.nodes, ds.edges, targets, flat_config(sampling=sampling), runtime,
        )
    assert plan.injected > 0
    assert retried.samples == baseline.samples
