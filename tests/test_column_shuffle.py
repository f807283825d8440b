"""Columns across the shuffle: the engine's column batches against the
object paths they replaced (``tests/oracle.py``).

Over random typed, weighted, edge-featured and hub graphs:

* a propagated batch is the oracle's record objects, column for column —
  same keys, sizes and block bytes, and ``columnize`` of the oracle's
  objects is the engine's batch;
* the spill writer writes the oracle writer's run files byte for byte from
  those batches, however the batches are cut;
* the readers regroup those runs exactly as the oracle's object reader;
* every sampler keeps the oracle's record-list selection;
* ``decode_columns`` inverts ``encode_columns`` and refuses what it cannot
  read with a :class:`FrameCorruptionError`, never another error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graphflat.records import InEdgeInfo, SubgraphInfo
from repro.core.graphflat.sampling import SAMPLING_REGISTRY, make_sampler
from repro.core.infer.pipeline import _InEmb
from repro.core.propagation import OutEdges, ReceptiveField, Routing
from repro.graph.tables import EdgeTable
from repro.mapreduce import SpillLayout
from repro.mapreduce.partition import Inline
from repro.mapreduce.shuffle import default_partition, key_bytes, pair_batches
from repro.mapreduce.spill import _encode_key_table
from repro.proto.framing import (
    FrameCorruptionError,
    GatherColumn,
    columnize,
    decode_block,
    decode_columns,
    encode_block,
    encode_columns,
    write_frame,
    write_stream_header,
)

from .oracle import (
    PairSpillWriter,
    object_block,
    object_groups,
    object_propagate,
    object_values,
    select_records,
)


@st.composite
def propagations(draw):
    """``(routing, [(node_ids, infos)], next_round)``: a random graph's
    out-edges and gate, and the batches of nodes one round propagates."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = np.unique(rng.integers(-50, 200, size=draw(st.integers(2, 25))))
    num_edges = draw(st.integers(0, 60))
    src = rng.choice(ids, size=num_edges)
    dst = rng.choice(ids, size=num_edges)
    feat_width = draw(st.sampled_from([None, 0, 3]))
    feats = None if feat_width is None else rng.standard_normal((num_edges, feat_width)).astype(np.float32)
    weights = rng.uniform(0.0, 3.0, size=num_edges).astype(np.float32)
    edges = EdgeTable(src, dst, feats, weights).coalesce()
    hubs = frozenset(rng.choice(ids, size=draw(st.integers(0, 3))).tolist())
    total = draw(st.integers(1, 3))
    needed = ReceptiveField(None, total)
    if draw(st.booleans()):  # a target set: some nodes outside every field
        needed = ReceptiveField(
            {int(v): int(rng.integers(0, total + 2)) for v in ids if rng.random() < 0.7}, total
        )
    pipeline = draw(st.sampled_from(["graphflat", "graphinfer"]))
    record = InEdgeInfo if pipeline == "graphflat" else _InEmb
    routing = Routing(hubs, 4, needed, record, Inline(OutEdges.of(edges)))

    def info(v: int):
        x = rng.standard_normal(4).astype(np.float32)
        return x if record is _InEmb else SubgraphInfo.seed(v, x)

    nodes = rng.permutation(ids).tolist()
    cuts = sorted(rng.choice(len(nodes) + 1, size=draw(st.integers(0, 3))).tolist())
    batches = []
    for a, b in zip([0] + cuts, cuts + [len(nodes)]):
        if b > a:
            infos = [info(v) for v in nodes[a:b]]
            # a subgraph batch built from columns, or decoded from a spilled chunk
            if record is InEdgeInfo and rng.random() < 0.5:
                infos = decode_columns(encode_block(infos))
            batches.append((nodes[a:b], infos))
    return routing, batches, draw(st.integers(1, total))


def run_files(root) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())}


def column_groups(layout, partition: int) -> list[tuple]:
    """``(key, count, block)`` per group of a partition's segments: each
    group's values gathered from the chunks as one column, encoded."""
    return [
        (key, int(count), encode_columns(segment.values(g, g + 1)))
        for segment in layout.iter_segments(partition, 1)
        for g, (key, count) in enumerate(zip(segment.key_list(), segment.counts()))
    ]


class TestEngineBatchesAreTheOracleRecords:
    @given(propagations())
    @settings(max_examples=120)
    def test_propagated_columns_are_the_oracle_objects(self, case):
        routing, batches, next_round = case
        for node_ids, infos in batches:
            batch = routing.propagate(node_ids, infos, next_round)
            oracle = object_propagate(routing, node_ids, infos, next_round)
            assert batch.keys == oracle.keys
            assert batch.nbytes.tolist() == oracle.nbytes.tolist()
            block = encode_columns(batch.values)
            assert block == object_block(oracle.values) == encode_block(oracle.values)
            assert encode_columns(columnize(oracle.values)) == block
            # a chunk is any subset of a batch's rows, in any order
            rows = np.random.default_rng(len(batch)).permutation(len(batch))[: len(batch) // 2]
            assert encode_columns(batch.values.take(rows)) == object_block(
                [oracle.values[i] for i in rows.tolist()]
            )

    @given(
        propagations(),
        st.sampled_from([1, 5, 1 << 16]),
        st.sampled_from([1, 200, 2_000, 32 << 20]),
    )
    @settings(max_examples=80)
    def test_run_files_are_the_oracle_writers(
        self, tmp_path_factory, case, run_records, run_bytes
    ):
        routing, batches, next_round = case
        root = tmp_path_factory.mktemp("runs")
        bounds = dict(run_records=run_records, run_bytes=run_bytes)
        columns = SpillLayout(str(root / "columns"), "job", 3)
        objects = SpillLayout(str(root / "objects"), "job", 3)
        writer = columns.run_writer(0, **bounds)
        reference = PairSpillWriter(objects, 0, **bounds)
        for node_ids, infos in batches:
            writer.add(routing.propagate(node_ids, infos, next_round), default_partition)
            oracle = object_propagate(routing, node_ids, infos, next_round)
            reference.extend(oracle.pairs(), default_partition)
        assert writer.finish() == reference.finish()
        if (root / "objects").exists():
            assert run_files(root / "columns") == run_files(root / "objects")
            for p in range(3):
                expected = object_groups(objects, p, 1)
                assert [(k, encode_block(v)) for k, v in columns.iter_groups(p, 1)] == [
                    (k, encode_block(v)) for k, v in expected
                ]
                assert column_groups(columns, p) == [
                    (k, len(v), encode_block(v)) for k, v in expected
                ]


@dataclass
class Edge:
    src: int
    weight: float


class TestSamplersKeepTheOracleSelection:
    @given(
        name=st.sampled_from(sorted(SAMPLING_REGISTRY)),
        cap=st.integers(1, 6),
        src=st.lists(st.integers(-5, 40), max_size=14),
        seed=st.integers(0, 3),
        node=st.integers(-3, 10**6),
        salt=st.sampled_from([0, 1, 2, 7]),
        data=st.data(),
    )
    @settings(max_examples=300)
    def test_select_is_the_record_list_select(self, name, cap, src, seed, node, salt, data):
        weight = data.draw(st.lists(
            st.floats(0.0, 5.0) | st.sampled_from([0.0, 1.0]),
            min_size=len(src), max_size=len(src),
        ))
        sampler = make_sampler(name, cap, seed)
        edges = [Edge(s, w) for s, w in zip(src, weight)]
        kept = sampler.select(
            np.asarray(src, dtype=np.int64), np.asarray(weight, dtype=np.float64), node, salt
        )
        expected = select_records(sampler, edges, node, salt)
        assert [edges[i] for i in kept.tolist()] == expected
        assert all(a is b for a, b in zip((edges[i] for i in kept.tolist()), expected))


# ------------------------------------------------------------- column codec
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**63, 2**63 - 1) | st.floats()
    | st.text(max_size=4) | st.binary(max_size=4)
    | st.sampled_from([np.arange(3, dtype=np.float32), np.arange(2, dtype=">f8"),
                       np.array(1.5), np.zeros((2, 0), np.int16)]),
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner),
    max_leaves=6,
)


FALLBACK_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
    | st.text(max_size=3)
    | st.sampled_from([np.zeros(3), np.zeros(4), np.ones(3, np.float32),
                       np.arange(2, dtype=">f8"), np.zeros((2, 0), np.int16)]),
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner)
    | st.tuples(inner, inner) | st.tuples(inner, inner, inner),
    max_leaves=8,
)
"""Values some of which have no column form as a whole — ragged arrays,
ints wider than 64 bits, unions of kinds and of tuple arities, nested —
while a subset of them may."""


def block_or_error(encode) -> bytes | type:
    """The block ``encode()`` writes, or ``TypeError`` if it refuses the
    values (an int past 64 bits)."""
    try:
        return encode()
    except TypeError:
        return TypeError


def engine_block() -> bytes:
    rng = np.random.default_rng(0)
    h = rng.standard_normal((6, 4)).astype(np.float32)
    values = [("self", h[0])] + [("in", _InEmb(i, 0.5 * i, h[i] * 0 + 1, h[i])) for i in range(1, 6)]
    values += [("partial", [_InEmb(9, 1.0, h[1], h[2]), _InEmb(8, 2.0, h[3], h[4])])]
    return encode_block(values)


class TestColumnCodec:
    @given(st.lists(VALUES, max_size=8))
    @settings(max_examples=200)
    def test_columns_round_trip_and_are_the_object_codecs_blocks(self, values):
        block = encode_block(values)
        assert block == object_block(values)
        column = decode_columns(block)
        assert encode_columns(column) == block
        assert encode_block(column.rows()) == block
        assert encode_block(object_values(block)) == block
        rows = np.arange(len(values))[::-1]
        assert encode_columns(column.take(rows)) == object_block(values[::-1])

    @given(st.lists(FALLBACK_VALUES, min_size=1, max_size=8), st.data())
    @settings(max_examples=300)
    def test_take_is_the_column_form_of_the_taken_rows(self, values, data):
        """Every column kind's ``take`` is closed: the rows it gives encode
        as ``encode_block`` of the same values, whatever fallback the whole
        column needed — and so does a lazy gather of the column."""
        rows = data.draw(st.lists(st.integers(0, len(values) - 1), max_size=8))
        index = np.asarray(rows, dtype=np.int64)
        want = block_or_error(lambda: encode_block([values[i] for i in rows]))
        taken = columnize(values).take(index)
        assert block_or_error(lambda: encode_columns(taken)) == want
        gathered = GatherColumn(columnize(values), index)
        assert block_or_error(lambda: encode_columns(gathered)) == want

    def test_a_take_of_same_shape_ragged_rows_is_a_matrix(self):
        column = columnize([np.zeros(3), np.zeros(4), np.ones(3)])
        taken = column.take(np.array([0, 2]))
        assert encode_columns(taken) == encode_block([np.zeros(3), np.ones(3)])
        assert encode_columns(columnize([2**70, 1]).take(np.array([1]))) == encode_block([1])

    def test_every_truncation_is_frame_corruption(self):
        block = engine_block()
        for cut in range(len(block)):
            with pytest.raises(FrameCorruptionError):
                decode_columns(block[:cut])
        with pytest.raises(FrameCorruptionError, match="trailing"):
            decode_columns(block + b"\x00")

    @pytest.mark.parametrize("garble", [
        "unknown tag", "union code", "string code", "negative length", "record tag",
    ])
    def test_garbled_blocks_are_frame_corruption(self, garble):
        if garble == "unknown tag":
            block = b"\x01\x00\x00\x00\x7f"
        elif garble == "union code":
            block = encode_block([1, "a"])
            block = block[:6] + b"\x05" + block[7:]  # a code past the two kinds
        elif garble == "string code":
            block = encode_block(["a", "b"])
            block = block[:-1] + b"\x09"  # an index past the table
        elif garble == "negative length":
            block = bytearray(encode_block([b"xy"]))
            block[5:13] = (-3).to_bytes(8, "little", signed=True)
        else:
            block = bytearray(engine_block())
            block[block.index(bytes((0x09, 0x31)))  + 1] = 0x3F  # no such record
        with pytest.raises(FrameCorruptionError):
            decode_columns(bytes(block))

    @given(position=st.integers(0, 10**6), flip=st.integers(1, 255))
    @settings(max_examples=400)
    def test_byte_flips_decode_or_raise_frame_corruption(self, position, flip):
        """Past the frame CRC: a flipped byte anywhere decodes to some column
        or raises the typed error — never an ``IndexError`` or the like."""
        block = bytearray(engine_block())
        block[position % len(block)] ^= flip
        try:
            decode_columns(bytes(block))
        except FrameCorruptionError:
            pass

    def test_a_chunk_whose_key_table_disagrees_with_its_block(self, tmp_path):
        layout = SpillLayout(str(tmp_path), "job", 1)
        path = layout.run_path(0, 0, 0)
        with open(path, "wb") as fh:
            write_stream_header(fh, 1)
            write_frame(fh, _encode_key_table([key_bytes(1)], [3]), encode_block([1.0, 2.0]))
        for groups in (layout.iter_groups, layout.iter_segments):
            with pytest.raises(FrameCorruptionError, match="counts 3 values"):
                list(groups(0, 1))

    def test_decoded_rows_share_one_copy_of_their_matrix(self):
        """A chunk's arrays are read as one matrix; its rows are writable
        views of one copy of it, never of the frame's bytes."""
        rows = decode_block(encode_block([np.arange(3.0), np.arange(3.0) + 1]))
        assert all(row.flags.writeable for row in rows)
        assert rows[0].base is rows[1].base is not None


def test_pair_batches_carry_objects_and_columns_carry_columns():
    """Generic pair jobs keep their objects up to the block boundary; the
    column adapter is one ``columnize`` away and encodes the same block."""
    [batch] = list(pair_batches([(1, (2, "x")), (2, (3, "y"))]))
    assert type(batch.values) is list
    assert encode_columns(batch.columns()) == encode_block(batch.values)
