"""Binary shuffle-record codec: round-trip fidelity for every record type
that crosses a GraphFlat/GraphInfer spill — one value at a time and as a
column block — plus the frame stream format and the chunk-framed run file.

The contract under test is *exact* reproduction — column order, array
dtypes, float bits — because the pipelines' byte-identity across
codecs (asserted in test_backend_matrix) rests on it.
"""

from __future__ import annotations

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graphflat.records import InEdgeInfo, SubgraphInfo
from repro.core.infer.pipeline import _InEmb
from repro.mapreduce.shuffle import decode_key, key_bytes
from repro.mapreduce.spill import SpillLayout, _decode_key_table
from repro.proto.framing import (
    _RECORDS_BY_CLS,
    FrameCorruptionError,
    approx_nbytes,
    decode_block,
    decode_rows,
    decode_value,
    encode_block,
    encode_rows,
    encode_value,
    iter_frames,
    read_stream_header,
    register_record,
    write_frame,
    write_stream_header,
)

from .oracle import assert_same_subgraph, random_subgraph


def round_trip(value):
    payload = encode_value(value)
    decoded, offset = decode_value(payload)
    assert offset == len(payload), "trailing bytes after decode"
    return decoded


def assert_array_equal_strict(a, b):
    assert isinstance(b, np.ndarray)
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    np.testing.assert_array_equal(a, b)


def make_subgraph(rng: np.random.Generator, **kwargs) -> SubgraphInfo:
    return random_subgraph(rng, **kwargs).to_info()


class TestGenericValues:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**40,
            -(2**40),
            0.0,
            -1.5,
            3.141592653589793,
            float("inf"),
            "",
            "héllo",
            b"",
            b"\x00\xffbytes",
            (),
            (1, "two", None),
            [1, [2, [3]], (4, 5)],
        ],
    )
    def test_scalars_and_containers(self, value):
        decoded = round_trip(value)
        assert decoded == value
        assert type(decoded) is type(value)

    def test_nan_bits_survive(self):
        decoded = round_trip(float("nan"))
        assert struct.pack("<d", decoded) == struct.pack("<d", float("nan"))

    @pytest.mark.parametrize("dtype", ["<f4", "<f8", "<i8", "<i4", "|b1", "<u2"])
    def test_array_dtypes(self, dtype):
        rng = np.random.default_rng(3)
        arr = (rng.standard_normal((4, 3)) * 10).astype(dtype)
        assert_array_equal_strict(arr, round_trip(arr))

    def test_array_shapes(self):
        for shape in [(), (0,), (5,), (2, 0), (2, 3, 4)]:
            arr = np.arange(int(np.prod(shape)), dtype=np.float32).reshape(shape)
            assert_array_equal_strict(arr, round_trip(arr))

    def test_float_vector_labels(self):
        """Multi-label tasks (PPI) carry float-vector labels; they must
        round-trip bit-exactly through the generic codec."""
        label = np.asarray([0.0, 1.0, 0.25, 1e-30], dtype=np.float32)
        assert_array_equal_strict(label, round_trip(label))

    def test_big_endian_array_dtype_preserved(self):
        arr = np.arange(4, dtype=">i4")
        assert_array_equal_strict(arr, round_trip(arr))  # dtype stays >i4

    def test_unencodable_type_raises(self):
        with pytest.raises(TypeError, match="no binary wire form"):
            encode_value(object())

    def test_int_beyond_64_bits_rejected_at_encode_time(self):
        """Out-of-range ints must fail on the map side with guidance, not
        as a 'corrupt stream' error on the reduce side."""
        for value in (1 << 63, -(1 << 63) - 1, 1 << 70):
            with pytest.raises(TypeError, match="pickle"):
                encode_value(value)
        # boundary values survive
        assert round_trip((1 << 63) - 1) == (1 << 63) - 1
        assert round_trip(-(1 << 63)) == -(1 << 63)

    def test_unknown_tag_raises(self):
        with pytest.raises(FrameCorruptionError):
            decode_value(b"\xfe")

    @given(st.recursive(
        st.none() | st.booleans() | st.integers(-2**62, 2**62) | st.floats(allow_nan=False)
        | st.text(max_size=8) | st.binary(max_size=8),
        lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner),
        max_leaves=10,
    ))
    @settings(max_examples=60, deadline=None)
    def test_value_round_trip_property(self, value):
        decoded = round_trip(value)
        assert decoded == value


class TestRecordRegistry:
    def test_conflicting_tag_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_record(0x20, dict, ("keys",))

    def test_reserved_tag_range_enforced(self):
        with pytest.raises(ValueError, match="record tag"):
            register_record(0x05, dict, ("keys",))


class TestGraphFlatRecords:
    @pytest.mark.parametrize("edge_feat", ["uniform", "none", "empty"])
    def test_subgraph_round_trip(self, edge_feat):
        rng = np.random.default_rng(len(edge_feat))  # deterministic per case
        sg = make_subgraph(rng, edge_feat=edge_feat)
        assert_same_subgraph(sg, round_trip(sg))

    def test_zero_edge_subgraph(self):
        sg = SubgraphInfo.seed(42, np.arange(3, dtype=np.float32))
        decoded = round_trip(sg)
        assert_same_subgraph(sg, decoded)
        assert decoded.num_edges == 0

    def test_single_node_zero_dim_features(self):
        sg = SubgraphInfo.seed(-7, np.zeros(0, dtype=np.float32))
        assert_same_subgraph(sg, round_trip(sg))

    @given(seed=st.integers(0, 2**16), num_nodes=st.integers(1, 12),
           num_edges=st.integers(0, 20), dim=st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_subgraph_property(self, seed, num_nodes, num_edges, dim):
        rng = np.random.default_rng(seed)
        kind = ["uniform", "none", "empty"][seed % 3]
        sg = make_subgraph(rng, dim=dim, num_nodes=num_nodes,
                           num_edges=num_edges, edge_feat=kind)
        assert_same_subgraph(sg, round_trip(sg))

    def test_in_edge_round_trip(self):
        rng = np.random.default_rng(11)
        inner = make_subgraph(rng)
        edge = InEdgeInfo(17, 0.75, rng.standard_normal(2).astype(np.float32), inner)
        decoded = round_trip(edge)
        assert decoded.src == 17 and decoded.weight == 0.75
        assert_array_equal_strict(edge.edge_feat, decoded.edge_feat)
        assert_same_subgraph(inner, decoded.subgraph)

    @pytest.mark.parametrize("tag", [0x22, 0x23, 0x30])
    def test_retired_record_tags_are_unassigned(self, tag):
        """0x22 (the out-edge record: out-edges are the engine's side input
        now, never shuffled), 0x23 (PartialMerge) and 0x30 (GraphInfer's own
        out-edge copy) are gone: a stream carrying them is corrupt, not
        silently decoded."""
        with pytest.raises(FrameCorruptionError):
            decode_value(bytes([tag, 0]))

    def test_tagged_tuples_as_shuffled(self):
        """The exact value shapes GraphFlat ships: ("node", feature) into
        the Map round, then ("self", info), ("in", in_edge) and ("partial",
        [in_edges])."""
        rng = np.random.default_rng(5)
        sg = make_subgraph(rng)
        for value in [
            ("self", sg),
            ("in", InEdgeInfo(2, 0.5, None, sg)),
            ("partial", [InEdgeInfo(2, 0.5, None, sg)]),
            ("node", rng.standard_normal(4).astype(np.float32)),
        ]:
            decoded = round_trip(value)
            assert type(decoded) is tuple and decoded[0] == value[0]


class TestInferRecords:
    def test_in_emb_round_trip(self):
        rng = np.random.default_rng(7)
        emb = _InEmb(5, 0.125, None, rng.standard_normal(8).astype(np.float32))
        decoded = round_trip(emb)
        assert decoded.src == 5 and decoded.weight == 0.125 and decoded.edge_feat is None
        assert_array_equal_strict(emb.h, decoded.h)


class TestKeyCodec:
    @pytest.mark.parametrize(
        "key", [0, -1, 2**40, "node", "", b"\x00raw", True, False,
                (7, 3), (1, ("a", b"b", False), -9), ()],
    )
    def test_decode_inverts_key_bytes(self, key):
        decoded = decode_key(key_bytes(key))
        assert decoded == key
        assert type(decoded) is type(key)

    @given(st.recursive(
        st.integers(-2**62, 2**62) | st.text(max_size=6) | st.binary(max_size=6)
        | st.booleans(),
        lambda inner: st.tuples(inner) | st.tuples(inner, inner),
        max_leaves=8,
    ))
    @settings(max_examples=60, deadline=None)
    def test_key_round_trip_property(self, key):
        decoded = decode_key(key_bytes(key))
        assert decoded == key and type(decoded) is type(key)

    def test_oversized_int_key_rejected_at_emit_time(self):
        """A 128-bit-hash-style int key must fail when the key is encoded,
        not later as a bogus 'corrupt stream' error in the spill reader."""
        for key in (1 << 70, -(1 << 63) - 1, (3, 1 << 70)):
            with pytest.raises(TypeError, match="64 bits"):
                key_bytes(key)
        assert decode_key(key_bytes((1 << 63) - 1)) == (1 << 63) - 1

    def test_truncated_string_payload_raises(self):
        # b"\x05" (STR tag) + length 5 but only 2 bytes of content
        with pytest.raises(FrameCorruptionError, match="truncated string"):
            decode_value(b"\x05\x05ab")
        with pytest.raises(FrameCorruptionError, match="truncated bytes"):
            decode_value(b"\x06\x05ab")

    def test_corrupt_run_payload_raises_in_spill(self, tmp_path):
        """A length-varint bit-flip inside a frame payload must surface as
        FrameCorruptionError, not silently truncated reducer input."""
        layout = SpillLayout(str(tmp_path), "job", num_partitions=1, codec="binary")
        layout.write_map_output(0, [[(1, "hello-world")]])
        path = layout.run_path(0, 0, 0)
        data = bytearray(path.read_bytes())
        data[-8] ^= 0x01  # flip a bit inside the payload's string bytes/length
        truncated = bytes(data[:-4])  # and chop the tail so lengths disagree
        path.write_bytes(truncated)
        with pytest.raises((FrameCorruptionError, ValueError)):
            list(layout.iter_groups(0, num_map_tasks=1))


class TestFrameStreams:
    def test_header_and_frames_round_trip(self):
        buf = io.BytesIO()
        write_stream_header(buf, codec_id=1)
        frames = [(key_bytes(i), b"payload-%d" % i) for i in range(50)]
        for kb, payload in frames:
            write_frame(buf, kb, payload)
        buf.seek(0)
        assert read_stream_header(buf) == 1
        assert list(iter_frames(buf)) == frames

    def test_bad_magic_rejected(self):
        with pytest.raises(FrameCorruptionError, match="magic"):
            read_stream_header(io.BytesIO(b"JUNKxx"))

    def test_truncated_frame_rejected(self):
        buf = io.BytesIO()
        write_stream_header(buf, codec_id=0)
        write_frame(buf, b"ikey", b"payload")
        data = buf.getvalue()[:-3]  # chop mid-payload
        fh = io.BytesIO(data)
        read_stream_header(fh)
        with pytest.raises(FrameCorruptionError, match="truncated"):
            list(iter_frames(fh))


# ---------------------------------------------------------------- block codec
def assert_same(a, b, owned=False):
    """Strict equality: types, dtypes, shapes, float bits, dict order —
    and, with ``owned``, no array of ``b`` is a view into a shared buffer."""
    assert type(a) is type(b), (a, b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.dtype.str == b.dtype.str
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert not owned or (b.flags.owndata and b.flags.writeable)
    elif isinstance(a, float):
        assert struct.pack("<d", a) == struct.pack("<d", b)
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y, owned)
    elif isinstance(a, SubgraphInfo):
        assert_same_subgraph(a, b)
    elif isinstance(a, (InEdgeInfo, _InEmb)):
        for field in a.__dataclass_fields__:
            assert_same(getattr(a, field), getattr(b, field), owned)
    else:
        assert a == b


def block_round_trip(values):
    decoded = decode_block(encode_block(values))
    assert_same(values, decoded, owned=True)
    return decoded


ARRAYS = st.sampled_from([
    np.arange(3, dtype=np.float32),
    np.arange(3, dtype=np.float32) + 1,
    np.arange(5, dtype=np.float32),        # ragged next to the (3,) ones
    np.arange(3, dtype=">f8"),             # big-endian
    np.array(2.5, dtype=np.float64),       # 0-d
    np.array(7, dtype=">i4"),              # 0-d and big-endian
    np.zeros((2, 0), dtype=np.int16),
    np.arange(6, dtype=np.int64).reshape(2, 3),
    np.array([True, False]),
])

GENERIC = st.recursive(
    st.none() | st.booleans() | st.integers(-2**63, 2**63 - 1) | st.floats()
    | st.text(max_size=8) | st.binary(max_size=8) | ARRAYS,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.tuples(inner, inner, inner),
    max_leaves=8,
)


@st.composite
def engine_records(draw):
    """The ``(tag, ...)`` values both pipelines shuffle, ``edge_feat`` None /
    present / mixed, subgraphs materialised or wire-resident."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))

    def edge_feat():
        mode = draw(st.sampled_from(["none", "present", "mixed"]))
        if mode == "none" or (mode == "mixed" and rng.random() < 0.5):
            return None
        return rng.standard_normal(2).astype(np.float32)

    def emb():
        return rng.standard_normal(4).astype(np.float32)

    def subgraph():
        sg = make_subgraph(
            rng, num_nodes=int(rng.integers(1, 5)), num_edges=int(rng.integers(0, 5)),
            edge_feat=draw(st.sampled_from(["uniform", "none", "empty"])),
        )
        if draw(st.booleans()):
            sg = SubgraphInfo.from_wire(sg.root, sg.wire)
        return sg

    self_info = draw(st.sampled_from([emb, subgraph]))
    if self_info is emb:
        def in_record():
            return _InEmb(int(rng.integers(-5, 10**6)), float(rng.random()), edge_feat(), emb())
    else:
        def in_record():
            return InEdgeInfo(int(rng.integers(-5, 10**6)), float(rng.random()), edge_feat(), subgraph())

    kind = draw(st.sampled_from(["self", "in", "partial", "final", "end"]))
    if kind in ("self", "final"):
        return (kind, self_info())
    if kind == "in":
        return ("in", in_record())
    if kind == "partial":
        return ("partial", [in_record() for _ in range(draw(st.integers(0, 3)))])
    return ("end", draw(st.integers(0, 1)), self_info())


def recursive_nbytes(value) -> int:
    """``approx_nbytes`` as it was before records carried a per-class sizer
    (kept verbatim): run boundaries and ``shuffle_bytes_written`` are
    functions of these values, so the sizer must return exactly them."""
    kind = type(value)
    if kind is tuple or kind is list:
        items = value
    elif kind is np.ndarray:
        return 8 + value.nbytes
    elif kind is bytes or kind is str:
        return 8 + len(value)
    else:
        record = _RECORDS_BY_CLS.get(kind)
        if record is None:
            return 8
        items = record.fields_of(value)
    total = 8
    for item in items:
        kind = type(item)
        if kind is int or kind is float or item is None:
            total += 8
        elif kind is np.ndarray:
            total += 8 + item.nbytes
        elif kind is bytes or kind is str:
            total += 8 + len(item)
        else:
            total += recursive_nbytes(item)
    return total


class TestBlockCodec:
    @given(st.lists(GENERIC | engine_records(), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_mixed_block_round_trip_property(self, values):
        block_round_trip(values)

    @given(st.lists(GENERIC | engine_records(), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_record_sizers_size_exactly_like_the_recursive_walk(self, values):
        assert approx_nbytes(values) == recursive_nbytes(values)
        for value in values:  # top level, nested in a pair, bare record
            assert approx_nbytes(value) == recursive_nbytes(value)
            if type(value) is tuple and len(value) > 1:
                assert approx_nbytes(value[-1]) == recursive_nbytes(value[-1])

    def test_engine_chunk_uses_no_fallback_column(self):
        """A chunk as GraphInfer spills it: every value has a column form,
        so nothing is encoded one value at a time."""
        rng = np.random.default_rng(0)
        h = [rng.standard_normal(8).astype(np.float32) for _ in range(40)]
        values = [("in", _InEmb(i, 0.5, None, h[i])) for i in range(40)]
        values += [("self", h[0])]
        values += [("partial", [_InEmb(3, 1.0, None, h[1])]), ("end", 1, h[2])]
        block = encode_block(values)
        block_round_trip(values)
        assert len(block) < sum(len(encode_value(v)) for v in values)
        # 40 embeddings, one stacked matrix: 40 * 8 float32 once, contiguous
        assert np.stack(h).tobytes() in block

    def test_empty_and_degenerate_blocks(self):
        for values in ([], [None], [()], [[]], [[], [1]], [(), (1,)], [b"", ""]):
            block_round_trip(values)

    @pytest.mark.parametrize("value", [object(), np.float32(1.0), 1 << 63, {1: 2}])
    def test_unencodable_values_raise_like_the_value_codec(self, value):
        with pytest.raises(TypeError):
            encode_block([1, value])

    def test_wire_resident_subgraph_re_encodes_its_block(self):
        rng = np.random.default_rng(9)
        original = make_subgraph(rng, edge_feat="none")
        block = encode_block([("self", original)])
        (_, decoded), = decode_block(block)
        assert decoded._columns is None and decoded._wire == original.wire
        assert encode_block([("self", decoded)]) == block
        assert decoded._columns is None

    @pytest.mark.parametrize("matrix", [
        np.arange(12, dtype=np.float32).reshape(4, 3),
        np.zeros((3, 0), dtype=np.float32),            # zero-width rows
        np.arange(6, dtype=">f8").reshape(3, 2),       # big-endian
        np.arange(8, dtype=np.int16).reshape(2, 2, 2),
        np.zeros((0, 5), dtype=np.float32),            # no rows
    ])
    def test_row_blocks_are_the_blocks_of_the_rows(self, matrix):
        """``encode_rows`` writes, from the matrix, exactly the block
        ``encode_block`` makes of its rows; ``decode_rows`` reads it back
        as one matrix."""
        block = encode_rows(matrix)
        assert block == encode_block(list(matrix))
        rows = decode_rows(block)
        if not len(matrix):
            assert rows is None
        else:
            assert_same(matrix, rows)

    def test_row_blocks_refuse_what_is_not_one_array_column(self):
        ragged = encode_block([np.zeros(2, np.float32), np.zeros(3, np.float32)])
        with pytest.raises(ValueError, match="not one array column"):
            decode_rows(ragged)
        with pytest.raises(ValueError, match="not one array column"):
            decode_rows(encode_block([np.zeros(2, np.float32), None]))
        block = encode_rows(np.ones((3, 2), np.float32))
        for cut in range(len(block)):
            with pytest.raises(ValueError):
                decode_rows(block[:cut])
        with pytest.raises(FrameCorruptionError, match="trailing"):
            decode_rows(block + b"\x00")

    def test_truncated_or_padded_block_is_frame_corruption(self):
        block = encode_block([("in", _InEmb(1, 1.0, None, np.ones(3, np.float32)))] * 3)
        for cut in range(len(block)):
            with pytest.raises(FrameCorruptionError):
                decode_block(block[:cut])
        with pytest.raises(FrameCorruptionError, match="trailing"):
            decode_block(block + b"\x00")


# -------------------------------------------------------------- chunked runs
def read_chunks(data: bytes):
    """``[(keys, counts)]`` of every chunk frame of one run file's bytes."""
    fh = io.BytesIO(data)
    read_stream_header(fh)
    return [_decode_key_table(table) for table, _ in iter_frames(fh)]


@pytest.mark.parametrize("codec", ["binary", "pickle"])
class TestChunkedRuns:
    HUB, ROW = 7, np.arange(256, dtype=np.float32)  # 1 KiB per value

    def hub_pairs(self, n=300):
        """A hub group far larger than one chunk between two small ones."""
        pairs = [(self.HUB, (i, self.ROW + i)) for i in range(n)]
        pairs[10:10] = [(3, (-1, self.ROW)), (9, (-2, self.ROW))]
        return pairs

    def test_hub_group_is_split_across_chunks_and_rejoined(self, tmp_path, codec):
        layout = SpillLayout(str(tmp_path), "job", 1, codec)
        layout.write_map_output(0, [self.hub_pairs()])
        chunks = read_chunks(layout.run_path(0, 0, 0).read_bytes())
        hub_chunks = [c for c in chunks if key_bytes(self.HUB) in c[0]]
        assert len(hub_chunks) > 10, "300 KiB under one key must span many chunks"
        assert all(keys == [key_bytes(self.HUB)] for keys, _ in hub_chunks)
        assert sum(counts[0] for _, counts in hub_chunks) == 300
        groups = list(layout.iter_groups(0, 1))
        assert [key for key, _ in groups] == [3, self.HUB, 9]
        assert [i for i, _ in groups[1][1]] == list(range(300))  # emission order
        assert_same(groups[1][1][299][1], self.ROW + 299)

    def test_hub_group_split_across_runs_too(self, tmp_path, codec):
        layout = SpillLayout(str(tmp_path), "job", 1, codec)
        writer = layout.run_writer(0, run_records=100)
        for key, value in self.hub_pairs():
            writer.append(0, key, value)
        assert writer.finish().counts == [302]
        assert layout.run_path(0, 0, 3).exists()
        groups = dict(layout.iter_groups(0, 1))
        assert [i for i, _ in groups[self.HUB]] == list(range(300))

    def small_run(self, tmp_path, codec, monkeypatch):
        """A run of several chunks that is small enough to damage at every
        byte (the chunk bound is shrunk for it)."""
        monkeypatch.setattr("repro.mapreduce.spill._CHUNK_BYTES", 256)
        layout = SpillLayout(str(tmp_path), "job", 1, codec)
        layout.write_map_output(
            0, [[(k, (k, "tag", np.full(8, k, np.float32))) for k in range(12)] * 2]
        )
        path = layout.run_path(0, 0, 0)
        data = path.read_bytes()
        assert len(read_chunks(data)) >= 4
        return layout, path, data

    def test_every_truncation_is_detected_or_a_whole_number_of_chunks(
        self, tmp_path, codec, monkeypatch
    ):
        layout, path, data = self.small_run(tmp_path, codec, monkeypatch)
        whole = list(layout.iter_groups(0, 1))
        clean_cuts = 0
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            try:
                groups = list(layout.iter_groups(0, 1))
            except FrameCorruptionError:
                continue
            # the only undetectable cut is between two frames: a shorter,
            # still valid run
            clean_cuts += 1
            assert len(groups) < len(whole)
            assert_same(groups, whole[: len(groups)])
        assert clean_cuts == len(read_chunks(data))

    def test_flipped_byte_in_key_table_or_block_is_detected(
        self, tmp_path, codec, monkeypatch
    ):
        layout, path, data = self.small_run(tmp_path, codec, monkeypatch)
        for position in range(6, len(data)):  # past the stream header
            injured = bytearray(data)
            injured[position] ^= 0x40
            path.write_bytes(bytes(injured))
            with pytest.raises(FrameCorruptionError):
                list(layout.iter_groups(0, 1))

    def test_version_2_run_is_rejected(self, tmp_path, codec, monkeypatch):
        layout, path, data = self.small_run(tmp_path, codec, monkeypatch)
        assert data[:5] == b"AGLS\x03"
        path.write_bytes(b"AGLS\x02" + data[5:])
        with pytest.raises(FrameCorruptionError, match="version 2"):
            list(layout.iter_groups(0, 1))
        with pytest.raises(FrameCorruptionError, match="version 2"):
            read_stream_header(io.BytesIO(b"AGLS\x02\x01"))

