"""Record batches across the shuffle boundary.

The batch writer must write exactly what the per-pair writer it replaced
(``tests/oracle.py``'s ``PairSpillWriter``) wrote for the same pairs,
however they are cut into batches; the propagation engine's array-computed
row sizes must equal ``approx_nbytes``; canonical key bytes computed in bulk
must equal ``key_bytes``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

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
    is_hub_slice,
)
from repro.graph.tables import EdgeTable
from repro.mapreduce import SpillLayout, SumCombiner, runtime
from repro.mapreduce import shuffle, spill
from repro.mapreduce.partition import Inline, int_key_partitions
from repro.mapreduce.shuffle import (
    RecordBatch,
    default_partition,
    group_sorted,
    int_key_bytes,
    int_key_order,
    int_key_rows,
    key_bytes,
    pair_batches,
)
from repro.proto.framing import approx_nbytes, iter_frames, read_stream_header

from .helpers import segment_of
from .oracle import PairSpillWriter, key_table

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


def key_frames(root) -> list[list[list[bytes]]]:
    """Per run file under ``root``, the keys of each of its chunk frames."""
    runs = []
    for path in sorted(root.iterdir()):
        with open(path, "rb") as fh:
            read_stream_header(fh)
            runs.append([key_table(table)[0] for table, _ in iter_frames(fh)])
    return runs


def most_frames_per_run(root, key) -> int:
    """The most chunk frames ``key``'s group spans in one run file."""
    kb = key_bytes(key)
    return max(sum(kb in keys for keys in frames) for frames in key_frames(root))


class TestBatchWriterWritesThePairWritersBytes:
    @settings(max_examples=120)
    @given(
        pairs=st.lists(st.tuples(KEYS, VALUES), max_size=60),
        sizes=st.lists(st.integers(0, 25), max_size=6),
        run_records=st.sampled_from([1, 2, 7, 1 << 16]),
        run_bytes=st.sampled_from([1, 40, 300, 32 << 20]),
        partitions=st.sampled_from([1, 3]),
        custom=st.booleans(),
    )
    def test_random_streams_random_cuts(
        self, tmp_path_factory, pairs, sizes, run_records, run_bytes, partitions, custom
    ):
        partitioner = default_partition
        if custom:  # a caller's own callable: the per-key fallback
            partitioner = lambda key, n: (default_partition(key, n) + 1) % n  # noqa: E731
        root = tmp_path_factory.mktemp("w")
        self.check(root, pairs, sizes, partitions, partitioner, run_records, run_bytes)

    @settings(max_examples=60)
    @given(
        pairs=st.lists(
            st.tuples(st.one_of(st.sampled_from(INT64), st.booleans(), st.text(max_size=2)),
                      st.integers(-5, 5)),
            max_size=60,
        ),
        sizes=st.lists(st.integers(0, 25), max_size=6),
        run_records=st.sampled_from([1, 3, 1 << 16]),
        run_bytes=st.sampled_from([1, 50, 32 << 20]),
    )
    def test_with_a_combiner(self, tmp_path_factory, pairs, sizes, run_records, run_bytes):
        root = tmp_path_factory.mktemp("c")
        self.check(
            root, pairs, sizes, 2, default_partition, run_records, run_bytes,
            combiner=SumCombiner(),
        )

    @staticmethod
    def check(root, pairs, sizes, partitions, partitioner, run_records, run_bytes,
              combiner=None):
        bounds = dict(combiner=combiner, run_records=run_records, run_bytes=run_bytes)
        old = SpillLayout(str(root / "pairs"), "job", partitions)
        new = SpillLayout(str(root / "batches"), "job", partitions)
        reference = PairSpillWriter(old, 0, **bounds)
        reference.extend(pairs, partitioner)
        writer = new.run_writer(0, **bounds)
        for batch in batches_of(pairs, sizes):
            writer.add(batch, partitioner)
        assert writer.finish() == reference.finish()
        if pairs:
            assert run_files(root / "batches") == run_files(root / "pairs")

    @pytest.mark.parametrize("run_bytes", [700, 5_000, 60_000])
    def test_long_streams_of_few_keys(self, tmp_path, run_bytes):
        """Thousands of rows over a few keys, in batches of every size: a
        run spans batches and a batch spans runs, and the flush windows
        grow past their first 64 rows."""
        rng = np.random.default_rng(run_bytes)
        keys = rng.integers(0, 25, size=3_000).tolist()
        pairs = [(k, np.zeros(int(rng.integers(0, 30)), np.float32)) for k in keys]
        sizes = rng.integers(1, 400, size=30).tolist()
        self.check(tmp_path, pairs, sizes, 3, default_partition, 1 << 16, run_bytes)

    def test_append_is_the_one_row_entry(self, tmp_path):
        """``append`` with explicit partitions — also one key into two
        partitions, as a re-keying classic combiner's buckets can hold."""
        pairs = [(1, 1.0), ("k", None), (1, 2.0), (True, 3.0), ((2, 1), 4.0)]
        old = SpillLayout(str(tmp_path / "pairs"), "job", 2)
        new = SpillLayout(str(tmp_path / "batches"), "job", 2)
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

        layout = SpillLayout(str(tmp_path), "job", 3)
        writer = layout.run_writer(0, run_records=40)
        pairs = [(i % 7, float(i)) for i in range(100)]  # runs of 40, 40, 20 rows
        for batch in batches_of(pairs, [30, 30, 30]):
            writer.add(batch, partitioner)
        writer.finish()
        assert len(calls) <= 3 * 7 and sorted(set(calls)) == list(range(7))


@dataclass(frozen=True)
class _Shifted:
    """A caller's own partition function that compares by value."""

    by: int

    def __call__(self, key, num_partitions: int) -> int:
        return (default_partition(key, num_partitions) + self.by) % num_partitions


class TestWriterEntries:
    """A writer routes (``add``, with one partitioner) or places (``place``
    / ``append``, into a partition that exists); the spill sinks use one
    writer per task and shuffle, so neither mix can arise from them."""

    def test_a_writer_routes_or_places(self, tmp_path):
        layout = SpillLayout(str(tmp_path), "job", 2)
        [batch] = pair_batches([(1, 1.0), (2, 2.0)])
        routing = layout.run_writer(0)
        routing.add(batch, _Shifted(1))
        routing.add(batch, _Shifted(1))  # an equal one
        with pytest.raises(ValueError, match="one partitioner"):
            routing.add(batch, default_partition)
        with pytest.raises(ValueError, match="cannot also place"):
            routing.append(0, 1, 1.0)
        placing = layout.run_writer(1)
        placing.append(1, 1, 1.0)
        with pytest.raises(ValueError, match="cannot also route"):
            placing.add(batch, default_partition)
        with pytest.raises(ValueError, match=r"partition 2 is not in \[0, 2\)"):
            placing.place(batch, 2)
        assert sum(routing.finish().counts) == 4
        assert placing.finish().counts == [0, 1]


class TestCanonicalKeyBytes:
    def test_vectorised_int_keys_equal_key_bytes(self):
        rng = np.random.default_rng(0)
        keys = np.concatenate([
            np.asarray(INT64, dtype=np.int64),
            rng.integers(-(2**63), 2**63 - 1, size=2000, dtype=np.int64),
            rng.integers(-300, 300, size=200),
        ])
        assert int_key_bytes(keys) == [key_bytes(int(k)) for k in keys.tolist()]

    def test_vectorised_hash_order_and_custom_fallback(self):
        """The array passes over a run's int keys — partition, canonical
        byte order — equal the per-key definitions; a caller's own callable
        takes the per-key fallback and places each key, int64 extremes
        included, where a direct call does."""
        rng = np.random.default_rng(1)
        keys = np.unique(np.concatenate([
            np.asarray(INT64, dtype=np.int64),
            rng.integers(-(2**63), 2**63 - 1, size=3000, dtype=np.int64),
            rng.integers(-300, 300, size=300),
        ]))
        rows, lengths = int_key_rows(keys)
        kbs = int_key_bytes(keys)
        assert [kbs[i] for i in int_key_order(rows).tolist()] == sorted(kbs)
        small = keys[np.abs(keys) < 300]  # one or two varint bytes: the sort's other branch
        small_kbs = int_key_bytes(small)
        assert [small_kbs[i] for i in int_key_order(int_key_rows(small)[0]).tolist()] == sorted(
            small_kbs
        )
        for partitioner in (default_partition, lambda key, n: key % n, _Shifted(3)):
            for num in (1, 5, 7):
                assert int_key_partitions(partitioner, keys, rows, lengths, num).tolist() == [
                    partitioner(k, num) for k in keys.tolist()
                ]

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
    """Array-computed sizes equal ``approx_nbytes`` of the rows' objects."""
    assert batch.nbytes.dtype == np.int64
    assert batch.nbytes.tolist() == [approx_nbytes(value) for _, value in batch.pairs()]


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
        assert [(k, v[0]) for k, v in batch.pairs()][:4] == [
            (1, "self"), (2, "in"), ((3, 1 + shuffle_suffix(1, 3)), "in"), (2, "self"),
        ]
        assert len(batch) == 5 + 7
        assert_sizes_are_approx_nbytes(batch)

    def test_partial_and_final_rows(self, features, in_record, infos):
        route = routing(in_record, features)
        rows = route.propagate([1, 2, 4], infos([1, 2, 4]), 1)
        slices = segment_of([
            (key, [value for k, value in rows.pairs() if k == key])
            for key in sorted({k for k in rows.keys if type(k) is tuple})
        ])
        [partials] = PartialReducer(make_sampler("uniform", 8, 0), in_record).reduce_segments(
            [slices]
        )
        assert_sizes_are_approx_nbytes(partials)

        # A node flow's final rows go to its store unsized; fanned-out ones
        # are shuffled into the joining round.
        reducer = MessagePassingReducer(make_sampler("uniform", 8, 0), 2, 2, route)
        reducer.edge_fanout = EdgeFanout.from_pairs([1, 3], [3, 1])
        assert_sizes_are_approx_nbytes(reducer.final_rows([1, 3], infos([1, 3])))


def shuffle_suffix(src, dst):
    from repro.core.propagation import suffix

    return suffix(src, dst, 4)


class TestEdgeFanout:
    @given(
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=20),
        st.lists(st.integers(-1, 8), max_size=10),
    )
    def test_a_node_fans_out_by_edge_index_then_role(self, pairs, nodes):
        """The CSR's entries are the ``(edge_index, role)`` lists a loop
        over the edges makes — by edge index, then role, a self-loop's node
        holding both — fanned out node by node."""
        listed: dict[int, list] = {}
        for index, (src, dst) in enumerate(pairs):
            listed.setdefault(src, []).append((index, 0))
            listed.setdefault(dst, []).append((index, 1))
        ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        fanout = EdgeFanout.from_pairs(ends[:, 0], ends[:, 1])
        owner, entry = fanout.of_nodes(np.asarray(nodes, dtype=np.int64))
        assert list(zip(
            owner.tolist(), fanout.edge_index[entry].tolist(), fanout.role[entry].tolist()
        )) == [(i, *pair) for i, node in enumerate(nodes) for pair in listed.get(node, [])]


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


# ------------------------------------------------------------------ at scale
def scale_pairs(seed: int = 7) -> list[tuple]:
    """A stream as big as an engine round's: over 20 000 distinct int keys,
    one to three small values each; three hub keys with 600 values each
    (600 x 72 bytes, about 43 KB; over 300 KB flushes, about 21 KB a run:
    more than a 16 KiB chunk); and a few tuple, str, bytes and bool
    keys.  The first runs see ints of one to three varint bytes only — the
    node-id case — the later ones the int64 extremes and other ten-byte
    ints too."""
    rng = np.random.default_rng(seed)
    small = rng.permutation(np.arange(-150_000, 150_000))[:14_000].tolist()
    large = np.unique(np.concatenate([
        np.asarray(INT64, dtype=np.int64),
        rng.integers(-(2**62), 2**62, size=7_000),
        rng.integers(-5_000, 5_000, size=1_000),
    ])).tolist()
    others = [(1, 2), (3, "x"), (7, 1, 2), "alpha", "", b"yy", True, False]
    hubs = (5, -7, (9, 4))
    pairs = []
    for block in ([small], [large, others, hubs]):
        keys = [k for keys in block for k in keys for _ in range(int(rng.integers(1, 4)))]
        keys += [k for k in block[-1] if k in hubs for _ in range(597)]
        for i in rng.permutation(len(keys)).tolist():
            width = 16 if keys[i] in hubs else int(rng.integers(0, 7))
            pairs.append((keys[i], np.full(width, len(pairs), dtype=np.float32)))
    return pairs


SCALE_CUTS = [1, 7, 300, 5_000, 64, 2, 12_000, 999, 3, 20_000]


def scale_partitioner(name: str):
    if name == "default":
        return default_partition
    hubs = {key_bytes(5): 1, key_bytes(-7): 2, key_bytes((9, 4)): 3}  # one reducer each
    return lambda key, n: hubs.get(key_bytes(key), default_partition(key, n))


class TestRunFilesAtScale:
    """The array path of the batch writer against the per-pair writer at an
    engine round's scale: batches of mixed sizes, several flushes, runs of
    several chunks, hubs bigger than a chunk, the hash default and a
    caller's own callable.

    :func:`scale_pairs` is sized for 16 KiB chunks — its runs are 35-40 KB
    a partition, its hubs about 21 KB a run — so the first two tests cut
    chunks at 16 KiB (the oracle reads the same ``spill._CHUNK_BYTES``);
    the last one holds the same properties at the shipped chunk size."""

    @pytest.fixture
    def chunks_of_16_kib(self, monkeypatch):
        monkeypatch.setattr(spill, "_CHUNK_BYTES", 1 << 14)

    @pytest.mark.usefixtures("chunks_of_16_kib")
    @pytest.mark.parametrize("partitioner", ["default", "custom"])
    def test_the_pair_writers_bytes(self, tmp_path, partitioner):
        pairs = scale_pairs()
        assert len({key_bytes(key) for key, _ in pairs}) > 20_000
        TestBatchWriterWritesThePairWritersBytes.check(
            tmp_path, pairs, SCALE_CUTS, 4, scale_partitioner(partitioner),
            1 << 16, 300_000,
        )
        assert len(list((tmp_path / "batches").iterdir())) > 4 * 3  # several runs each
        for hub in (5, -7, (9, 4)):  # each split over chunks in some run
            assert most_frames_per_run(tmp_path / "batches", hub) > 1

    @pytest.mark.usefixtures("chunks_of_16_kib")
    def test_with_a_combiner(self, tmp_path):
        pairs = [(key, 1.0) for key, _ in scale_pairs()[:20_000]]
        TestBatchWriterWritesThePairWritersBytes.check(
            tmp_path, pairs, SCALE_CUTS, 3, default_partition, 7_000, 32 << 20,
            combiner=SumCombiner(),
        )
        assert min(map(len, key_frames(tmp_path / "batches"))) > 1  # every run spans chunks

    def test_hubs_over_the_shipped_chunk(self, tmp_path):
        """At the shipped ``spill._CHUNK_BYTES``: the first 20 000 pairs of
        :func:`scale_pairs` and three hubs of ``3 * _CHUNK_BYTES // 72``
        values of 72 bytes each, in one run per partition — every hub split
        over at least three chunks, every run over more than one."""
        hub_value = np.zeros(16, dtype=np.float32)
        per_hub = 3 * spill._CHUNK_BYTES // approx_nbytes(hub_value)
        hubs = (5, -7, (9, 4))
        pairs = scale_pairs()[:20_000] + [(hub, hub_value + i) for hub in hubs for i in range(per_hub)]
        pairs = [pairs[i] for i in np.random.default_rng(3).permutation(len(pairs)).tolist()]
        TestBatchWriterWritesThePairWritersBytes.check(
            tmp_path, pairs, SCALE_CUTS, 4, default_partition, 1 << 16, 32 << 20,
        )
        assert min(map(len, key_frames(tmp_path / "batches"))) > 1
        for hub in hubs:
            assert most_frames_per_run(tmp_path / "batches", hub) >= 3


def rows_of_buckets(buckets) -> list[list]:
    return [[pair for batch in bucket for pair in batch.pairs()] for bucket in buckets]


class TestSplitAndBuckets:
    """The in-memory writer's buckets and a split's two sides hold the rows
    a per-row router puts there, in arrival order."""

    @staticmethod
    def pairs():
        return [(key, i) for i, (key, _) in enumerate(scale_pairs()[:30_000])]

    @pytest.mark.parametrize("partitioner", ["default", "custom"])
    def test_buckets(self, partitioner):
        pairs = self.pairs()
        partitioner = scale_partitioner(partitioner)
        writer = runtime._BucketWriter(4)
        for batch in batches_of(pairs, SCALE_CUTS):
            writer.add(batch, partitioner)
        assert rows_of_buckets(writer.finish()) == [
            [pair for pair in pairs if partitioner(pair[0], 4) == p] for p in range(4)
        ]

    def test_a_split_in_memory(self):
        """... asking ``accepts`` once per distinct key of a batch."""
        pairs = self.pairs()
        asked = []

        def accepts(key):
            asked.append(key)
            return is_hub_slice(key)

        side = runtime._MemorySink(default_partition, 3)
        main = runtime._MemorySink(default_partition, 4)
        sink = runtime._SplitSink(accepts, side, main)
        got_main, got_side = sink.store(0, batches_of(pairs, SCALE_CUTS))
        assert len(asked) == sum(
            len({key_bytes(key) for key in batch.keys}) for batch in batches_of(pairs, SCALE_CUTS)
        ) < len(pairs)
        for got, accepted, num in ((got_side, True, 3), (got_main, False, 4)):
            assert rows_of_buckets(got) == [
                [
                    (key, value) for key, value in pairs
                    if is_hub_slice(key) == accepted and default_partition(key, num) == p
                ]
                for p in range(num)
            ]

    def test_a_spilled_split_writes_the_pair_writers_bytes(self, tmp_path):
        pairs = scale_pairs()[:30_000]
        layouts = {
            name: SpillLayout(str(tmp_path / name), "job", 4) for name in ("main", "side")
        }
        sink = runtime._SplitSink(
            is_hub_slice,
            runtime._SpillSink(layouts["side"], default_partition, run_bytes=100_000),
            runtime._SpillSink(layouts["main"], default_partition, run_bytes=100_000),
        )
        results = sink.store(0, batches_of(pairs, SCALE_CUTS))
        for name, result in zip(("main", "side"), results):
            reference = PairSpillWriter(
                SpillLayout(str(tmp_path / f"{name}-pairs"), "job", 4), 0, run_bytes=100_000
            )
            reference.extend(
                [pair for pair in pairs if is_hub_slice(pair[0]) == (name == "side")],
                default_partition,
            )
            assert result == reference.finish()
            assert run_files(tmp_path / name) == run_files(tmp_path / f"{name}-pairs")


class TestWriterCallBudget:
    """The write path's Python-level work is per batch, run and chunk
    frame, never per key: on a stream of ``10 * _CHUNK_BYTES // 8``
    distinct int keys, each in two rows of 16 value bytes (120 chunk
    frames over 2 runs x 4 partitions, so every run file spans several
    chunks), the ``call`` and ``c_call`` events ``add`` and ``finish`` raise
    grow with the chunk frames written, at most :data:`PER_FRAME` a frame
    past a constant.  (The per-key bookkeeping this replaced raised about
    20 events per distinct key: over 3 million here.)"""

    PER_FRAME = 80
    CONSTANT = 2_500

    def test_events_grow_with_frames_not_keys(self, tmp_path):
        from repro.mapreduce.spill import _CHUNK_BYTES
        from repro.proto.framing import ArrayColumn

        distinct = 10 * _CHUNK_BYTES // 8
        rng = np.random.default_rng(0)
        keys = np.repeat(rng.permutation(7 * distinct)[:distinct], 2)
        rng.shuffle(keys)
        values = rng.standard_normal((len(keys), 4)).astype(np.float32)
        rows = distinct // 4  # eight batches
        batches = [
            RecordBatch(
                keys[at : at + rows].tolist(),
                ArrayColumn(values[at : at + rows]),
                np.full(len(keys[at : at + rows]), 32, dtype=np.int64),
            )
            for at in range(0, len(keys), rows)
        ]
        writer = SpillLayout(str(tmp_path), "job", 4).run_writer(0, run_bytes=64 * _CHUNK_BYTES)
        counts = {"events": 0, "frames": 0}

        def profile(frame, event, arg):
            if event == "call" or event == "c_call":
                counts["events"] += 1
                counts["frames"] += event == "call" and frame.f_code.co_name == "write_frame"

        sys.setprofile(profile)
        try:
            for batch in batches:
                writer.add(batch, default_partition)
            result = writer.finish()
        finally:
            sys.setprofile(None)
        assert sum(result.counts) == len(keys)
        assert counts["frames"] > 50  # the count is made of frames
        assert counts["events"] <= self.PER_FRAME * counts["frames"] + self.CONSTANT, counts
