"""Record batches across the shuffle boundary.

The batch writer must write exactly what the per-pair writer it replaced
(``tests/oracle.py``'s ``PairSpillWriter``) wrote for the same pairs,
however they are cut into batches; the propagation engine's array-computed
row sizes must equal ``approx_nbytes``; canonical key bytes computed in bulk
must equal ``key_bytes``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graphflat.records import InEdgeInfo, SubgraphInfo
from repro.core.graphflat.sampling import make_sampler
from repro.core.infer.pipeline import _InEmb
from repro.core.propagation import (
    EdgeFanout,
    MessagePassingReducer,
    OutEdges,
    PartialReducer,
    ReceptiveField,
    Routing,
)
from repro.graph.tables import EdgeTable
from repro.mapreduce import SpillLayout, SumCombiner
from repro.mapreduce import shuffle
from repro.mapreduce.partition import Inline, PlannedPartitioner, plan_partitions
from repro.mapreduce.shuffle import (
    RecordBatch,
    default_partition,
    group_sorted,
    int_key_bytes,
    key_bytes,
    pair_batches,
)
from repro.proto.framing import approx_nbytes

from .oracle import PairSpillWriter

INT64 = (-(2**63), -(2**63) + 1, -1, 0, 1, 63, 64, -64, -65, 2**62, 2**63 - 2, 2**63 - 1)

KEYS = st.one_of(
    st.sampled_from(INT64),
    st.integers(-300, 300),
    st.booleans(),
    st.tuples(st.integers(0, 5), st.integers(1, 3)),
    st.text(max_size=3),
    st.binary(max_size=3),
)
RECORDS = st.builds(
    lambda src, w, h: _InEmb(src, w, None, np.full(3, h, dtype=np.float32)),
    st.integers(-5, 5), st.floats(0.1, 2.0), st.floats(-1, 1),
)
VALUES = st.one_of(
    st.none(),
    st.floats(allow_nan=False),
    st.builds(lambda n: np.arange(n, dtype=np.float32), st.integers(0, 40)),
    RECORDS,
)


def cut(items: list, sizes: list[int]) -> list[list]:
    """``items`` in consecutive pieces of the given sizes (the rest last)."""
    pieces, start = [], 0
    for size in sizes:
        pieces.append(items[start : start + size])
        start += size
    return pieces + [items[start:]]


def batches_of(pairs, sizes):
    for piece in cut(pairs, sizes):
        if piece:
            yield from pair_batches(piece, rows=len(piece))


def run_files(root) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())}


class TestBatchWriterWritesThePairWritersBytes:
    @settings(max_examples=120, deadline=None)
    @given(
        pairs=st.lists(st.tuples(KEYS, VALUES), max_size=60),
        sizes=st.lists(st.integers(0, 25), max_size=6),
        run_records=st.sampled_from([1, 2, 7, 1 << 16]),
        run_bytes=st.sampled_from([1, 40, 300, 32 << 20]),
        codec=st.sampled_from(["binary", "pickle"]),
        partitions=st.sampled_from([1, 3]),
        planned=st.booleans(),
    )
    def test_random_streams_random_cuts(
        self, tmp_path_factory, pairs, sizes, run_records, run_bytes, codec, partitions, planned
    ):
        partitioner = default_partition
        if planned:
            keys = [key for key, _ in pairs[:5]]
            plan = plan_partitions([(key, 10.0) for key in keys], partitions)
            partitioner = PlannedPartitioner.from_plan(plan)
        root = tmp_path_factory.mktemp("w")
        self.check(root, pairs, sizes, codec, partitions, partitioner, run_records, run_bytes)

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.one_of(st.sampled_from(INT64), st.booleans(), st.text(max_size=2)),
                      st.integers(-5, 5)),
            max_size=60,
        ),
        sizes=st.lists(st.integers(0, 25), max_size=6),
        run_records=st.sampled_from([1, 3, 1 << 16]),
        run_bytes=st.sampled_from([1, 50, 32 << 20]),
        codec=st.sampled_from(["binary", "pickle"]),
    )
    def test_with_a_combiner(self, tmp_path_factory, pairs, sizes, run_records, run_bytes, codec):
        root = tmp_path_factory.mktemp("c")
        self.check(
            root, pairs, sizes, codec, 2, default_partition, run_records, run_bytes,
            combiner=SumCombiner(),
        )

    @staticmethod
    def check(root, pairs, sizes, codec, partitions, partitioner, run_records, run_bytes,
              combiner=None):
        bounds = dict(combiner=combiner, run_records=run_records, run_bytes=run_bytes)
        old = SpillLayout(str(root / "pairs"), "job", partitions, codec)
        new = SpillLayout(str(root / "batches"), "job", partitions, codec)
        reference = PairSpillWriter(old, 0, **bounds)
        reference.extend(pairs, partitioner)
        writer = new.run_writer(0, **bounds)
        for batch in batches_of(pairs, sizes):
            writer.add(batch, partitioner)
        assert writer.finish() == reference.finish()
        if pairs:
            assert run_files(root / "batches") == run_files(root / "pairs")

    @pytest.mark.parametrize("run_bytes", [700, 5_000, 60_000])
    @pytest.mark.parametrize("codec", ["binary", "pickle"])
    def test_long_streams_of_few_keys(self, tmp_path, codec, run_bytes):
        """Thousands of rows over a few keys, in batches of every size: a
        run spans batches and a batch spans runs, and the flush windows
        grow past their first 64 rows."""
        rng = np.random.default_rng(run_bytes)
        keys = rng.integers(0, 25, size=3_000).tolist()
        pairs = [(k, np.zeros(int(rng.integers(0, 30)), np.float32)) for k in keys]
        sizes = rng.integers(1, 400, size=30).tolist()
        self.check(tmp_path, pairs, sizes, codec, 3, default_partition, 1 << 16, run_bytes)

    def test_append_is_the_one_row_entry(self, tmp_path):
        """``append`` with explicit partitions — also one key into two
        partitions, as a re-keying classic combiner's buckets can hold."""
        pairs = [(1, 1.0), ("k", None), (1, 2.0), (True, 3.0), ((2, 1), 4.0)]
        old = SpillLayout(str(tmp_path / "pairs"), "job", 2, "binary")
        new = SpillLayout(str(tmp_path / "batches"), "job", 2, "binary")
        reference, writer = PairSpillWriter(old, 0, run_records=3), new.run_writer(0, run_records=3)
        for i, (key, value) in enumerate(pairs):
            reference.append(i % 2, key, value)
            writer.append(i % 2, key, value)
        assert writer.finish() == reference.finish()
        assert run_files(tmp_path / "batches") == run_files(tmp_path / "pairs")

    def test_the_partitioner_runs_once_per_distinct_key_per_run(self, tmp_path):
        calls = []

        def partitioner(key, num):
            calls.append(key)
            return default_partition(key, num)

        layout = SpillLayout(str(tmp_path), "job", 3, "binary")
        writer = layout.run_writer(0, run_records=40)
        pairs = [(i % 7, float(i)) for i in range(100)]  # runs of 40, 40, 20 rows
        for batch in batches_of(pairs, [30, 30, 30]):
            writer.add(batch, partitioner)
        writer.finish()
        assert len(calls) <= 3 * 7 and sorted(set(calls)) == list(range(7))


class TestCanonicalKeyBytes:
    def test_vectorised_int_keys_equal_key_bytes(self):
        rng = np.random.default_rng(0)
        keys = np.concatenate([
            np.asarray(INT64, dtype=np.int64),
            rng.integers(-(2**63), 2**63 - 1, size=2000, dtype=np.int64),
            rng.integers(-300, 300, size=200),
        ])
        assert int_key_bytes(keys) == [key_bytes(int(k)) for k in keys.tolist()]

    def test_keys_wider_than_64_bits_still_raise(self):
        with pytest.raises(TypeError, match="64 bits"):
            shuffle.keys_bytes([1, 1 << 70])

    def test_group_sorted_encodes_each_distinct_key_once(self, monkeypatch):
        """The in-memory medium groups under ``key_ident`` and encodes a
        distinct key once (ints in one pass), not once per record; groups
        come out in canonical byte order, values in arrival order.  (Bools
        and bare bytes keys are grouped under their canonical bytes, so
        they are encoded per record; no engine key is one.)"""
        pairs = [(k, i) for i, k in enumerate([3, -1, 1, (1, 2), "a", 3, 1, (1, "b"), -1] * 5)]
        encoded, depth = [], [0]

        def top_level_key_bytes(key):  # tuple keys recurse
            if not depth[0]:
                encoded.append(key)
            depth[0] += 1
            try:
                return key_bytes(key)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(shuffle, "key_bytes", top_level_key_bytes)
        int_pass = shuffle.int_key_bytes
        monkeypatch.setattr(
            shuffle, "int_key_bytes", lambda keys: encoded.extend(keys.tolist()) or int_pass(keys)
        )
        groups = group_sorted(pairs)
        assert len(encoded) == 6  # 3, -1, 1, (1, 2), "a", (1, "b")
        reference: dict[bytes, list] = {}
        for key, value in pairs:
            reference.setdefault(key_bytes(key), []).append(value)
        assert [key_bytes(key) for key, _ in groups] == sorted(reference)
        assert [values for _, values in groups] == [reference[kb] for kb in sorted(reference)]


# ------------------------------------------------------------ engine sizes
def small_edges(features: bool) -> EdgeTable:
    src = np.array([1, 1, 2, 3, 3, 3, 4], dtype=np.int64)
    dst = np.array([2, 3, 3, 1, 2, 4, 1], dtype=np.int64)
    feats = np.arange(14, dtype=np.float32).reshape(7, 2) if features else None
    weights = np.array([0.5, 1.0, 2.0, 0.25, 1.5, 3.0, 0.75], dtype=np.float32)
    return EdgeTable(src, dst, feats, weights)


def routing(in_record, features: bool, hubs=frozenset({3})) -> Routing:
    return Routing(
        hubs, 4, ReceptiveField(None, 2), in_record, Inline(OutEdges.of(small_edges(features)))
    )


def subgraph_infos(node_ids):
    return [SubgraphInfo.seed(v, np.full(3, v, dtype=np.float32)) for v in node_ids]


def embeddings(node_ids):
    return [np.full(4, v, dtype=np.float32) for v in node_ids]


def assert_sizes_are_approx_nbytes(batch: RecordBatch) -> None:
    assert batch.nbytes.dtype == np.int64
    assert batch.nbytes.tolist() == [approx_nbytes(value) for value in batch.values]


@pytest.mark.parametrize("features", [False, True], ids=["no-edge-feat", "edge-feat"])
@pytest.mark.parametrize(
    "in_record, infos", [(InEdgeInfo, subgraph_infos), (_InEmb, embeddings)],
    ids=["graphflat", "graphinfer"],
)
class TestEngineRowSizes:
    def test_propagated_rows(self, features, in_record, infos):
        node_ids = [1, 2, 3, 4, 5]
        batch = routing(in_record, features).propagate(node_ids, infos(node_ids), 1)
        # node-major: each node's self row, then its in-rows in table order
        assert [(k, v[0]) for k, v in zip(batch.keys, batch.values)][:4] == [
            (1, "self"), (2, "in"), ((3, 1 + shuffle_suffix(1, 3)), "in"), (2, "self"),
        ]
        assert len(batch) == 5 + 7
        assert_sizes_are_approx_nbytes(batch)

    def test_partial_and_final_rows(self, features, in_record, infos):
        route = routing(in_record, features)
        rows = route.propagate([1, 2, 4], infos([1, 2, 4]), 1)
        slices = [
            (key, [value for k, value in rows.pairs() if k == key])
            for key in sorted({k for k in rows.keys if type(k) is tuple})
        ]
        [partials] = PartialReducer(make_sampler("uniform", 8, 0), in_record).reduce_groups(slices)
        assert_sizes_are_approx_nbytes(partials)

        reducer = MessagePassingReducer(make_sampler("uniform", 8, 0), 2, 2, route)
        assert_sizes_are_approx_nbytes(reducer.final_rows([1, 3], infos([1, 3])))
        reducer.edge_fanout = EdgeFanout.from_pairs([1, 3], [3, 1])
        assert_sizes_are_approx_nbytes(reducer.final_rows([1, 3], infos([1, 3])))


def shuffle_suffix(src, dst):
    from repro.core.propagation import suffix

    return suffix(src, dst, 4)


class TestReceptiveFieldAtTheLastRound:
    """Both branches agree past the last round: ``needed(u, K + 1)`` is
    false for every node, with targets or without."""

    def test_without_targets(self):
        field = ReceptiveField(None, 2)
        assert field(7, 2) is True and field(7, 3) is False
        ids = np.array([1, 7])
        assert field.mask(ids, 2).tolist() == [True, True]
        assert field.mask(ids, 3).tolist() == [False, False]

    def test_with_targets(self):
        field = ReceptiveField({7: 0, 8: 1}, 2)
        assert field(7, 2) and not field(8, 2) and not field(9, 2)
        assert not field(7, 3)
        ids = np.array([7, 8, 9])
        assert field.mask(ids, 2).tolist() == [True, False, False]
        assert field.mask(ids, 1).tolist() == [True, True, False]
        assert field.mask(ids, 3).tolist() == [False, False, False]
