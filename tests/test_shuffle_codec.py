"""Binary shuffle-record codec: round-trip fidelity for every record type
that crosses a GraphFlat/GraphInfer spill — one value at a time and as a
column block — plus the frame stream format and the chunk-framed run file.

The contract under test is *exact* reproduction — column order, array
dtypes, float bits — because the pipelines' byte-identity between an
in-memory and a spilled shuffle (asserted in test_backend_matrix) rests on
it.
"""

from __future__ import annotations

import collections
import io
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graphflat.records import InEdgeInfo, SubgraphInfo
from repro.core.infer.pipeline import _InEmb
from repro.mapreduce.shuffle import decode_key, key_bytes
from repro.mapreduce.spill import _CHUNK_BYTES, SpillLayout
from repro.proto.framing import (
    _RECORDS_BY_CLS,
    FrameCorruptionError,
    RaggedColumn,
    approx_nbytes,
    columnize,
    concat_columns,
    decode_block,
    decode_columns,
    decode_value,
    encode_block,
    encode_columns,
    encode_value,
    iter_frames,
    read_stream_header,
    register_record,
    write_frame,
    write_stream_header,
)

from .oracle import assert_same_subgraph, key_table, object_block, random_subgraph


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


def _touch(path: str) -> None:
    open(path, "a").close()


class TouchOnLoad:
    """Pickles to a stream that touches ``path`` when it is unpickled."""

    def __init__(self, path: str):
        self.path = path

    def __reduce__(self):
        return _touch, (self.path,)


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
        """Out-of-range ints must fail on the map side, naming the range,
        not as a 'corrupt stream' error on the reduce side."""
        for value in (1 << 63, -(1 << 63) - 1, 1 << 70):
            with pytest.raises(TypeError, match="int .* 64-bit range"):
                encode_value(value)
        # boundary values survive
        assert round_trip((1 << 63) - 1) == (1 << 63) - 1
        assert round_trip(-(1 << 63)) == -(1 << 63)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_stream_is_never_unpickled(self, tmp_path, protocol):
        """PS and transport messages are parsed by decode_value too: a live
        pickle — one that touches a file when loaded — is an unknown tag,
        and the file stays untouched."""
        marker = tmp_path / "unpickled"
        payload = pickle.dumps(("boom", TouchOnLoad(str(marker))), protocol=protocol)
        with pytest.raises(FrameCorruptionError, match="unknown value tag"):
            decode_value(payload)
        assert not marker.exists()
        pickle.loads(payload)  # the payload is live: loading it touches the file
        assert marker.exists()

    def test_unknown_tag_raises(self):
        # decode_value also parses PS and transport wire messages: a pickle
        # stream is an unknown tag, never unpickled
        for payload in (b"\xfe", pickle.dumps(("boom", 1))):
            with pytest.raises(FrameCorruptionError):
                decode_value(payload)

    @given(st.recursive(
        st.none() | st.booleans() | st.integers(-2**62, 2**62) | st.floats(allow_nan=False)
        | st.text(max_size=8) | st.binary(max_size=8),
        lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner),
        max_leaves=10,
    ))
    @settings(max_examples=60)
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
    @settings(max_examples=40)
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
    @settings(max_examples=60)
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
        layout = SpillLayout(str(tmp_path), "job", num_partitions=1)
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
        write_stream_header(buf, codec_id=1)
        write_frame(buf, b"ikey", b"payload")
        data = buf.getvalue()[:-3]  # chop mid-payload
        fh = io.BytesIO(data)
        read_stream_header(fh)
        with pytest.raises(FrameCorruptionError, match="truncated"):
            list(iter_frames(fh))


# ---------------------------------------------------------------- block codec
def assert_same(a, b, owned=False):
    """Strict equality: types, dtypes, shapes, float bits, dict order —
    and, with ``owned``, every array of ``b`` is writable: decoded rows view
    one copy of their block's matrix, never the read-only frame bytes."""
    assert type(a) is type(b), (a, b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.dtype.str == b.dtype.str
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert not owned or b.flags.writeable
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
    present / mixed, subgraphs built from columns or decoded from a chunk."""
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
        if draw(st.booleans()):  # decoded from a spilled chunk
            sg = decode_block(encode_block([sg]))[0]
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
    @settings(max_examples=150)
    def test_mixed_block_round_trip_property(self, values):
        block_round_trip(values)

    @given(st.lists(GENERIC | engine_records(), max_size=12))
    @settings(max_examples=150)
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

    def test_decoded_subgraph_re_encodes_its_block(self):
        """A subgraph decoded from a spilled chunk is the one built from
        columns, and encodes back to the chunk's block."""
        rng = np.random.default_rng(9)
        original = make_subgraph(rng, edge_feat="none")
        block = encode_block([("self", original)])
        (_, decoded), = decode_block(block)
        assert_same_subgraph(original, decoded)
        assert encode_block([("self", decoded)]) == block

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
    return [key_table(table) for table, _ in iter_frames(fh)]


# ids drawn below these force a chunk's int width: i1, i2, i4, i8
ID_BOUNDS = {"i1": 1 << 6, "i2": 1 << 14, "i4": 1 << 30, "i8": 1 << 62}
INT64_EDGES = np.array(
    [-(2**63), -(2**63) + 1, -1, 0, 5, 2**63 - 2, 2**63 - 1], dtype=np.int64
)


@st.composite
def ragged_records(draw, min_size=0):
    """Neighborhoods one chunk could hold: one feature dtype and width, edge
    features on every edge or on none; 0-edge records among them, ids of
    every int width (up to the ``int64`` limits)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.sampled_from([*ID_BOUNDS, "limits"]))
    dim = draw(st.sampled_from([0, 1, 3]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    edge_dim = draw(st.sampled_from([None, 0, 2]))
    records = []
    for _ in range(draw(st.integers(min_size, 6))):
        if width == "limits":
            ids = rng.choice(INT64_EDGES, size=int(rng.integers(1, 6)), replace=False)
        else:
            bound = ID_BOUNDS[width]
            ids = np.unique(rng.integers(-bound, bound, size=int(rng.integers(1, 6))))
        n = len(ids)
        m = int(rng.integers(0, min(n * n, 6) + 1)) if draw(st.booleans()) else 0
        pairs = rng.choice(n * n, size=m, replace=False)
        records.append(SubgraphInfo(
            int(ids[0]), ids, np.concatenate([[0], rng.integers(1, 4, size=n - 1)]),
            rng.standard_normal((n, dim)).astype(dtype), ids[pairs // n], ids[pairs % n],
            rng.random(m) + 0.5,
            None if edge_dim is None or not m
            else rng.standard_normal((m, edge_dim)).astype(np.float32),
        ))
    return records


def ragged_header_bytes(block: bytes) -> list[int]:
    """Positions of every byte of a ragged block's headers — the count
    word, tags, kind and width bytes, row counts, dtypes and row shapes:
    everything but the heads, the int members' values and the raw rows."""
    levels = _RECORDS_BY_CLS[SubgraphInfo].levels
    count = int.from_bytes(block[:4], "little")

    def ints(pos: int, n: int):
        width = 1 << (block[pos] - 1)
        values = np.frombuffer(block, dtype=f"<i{width}", count=n, offset=pos + 1)
        return pos + 1 + n * width, values

    positions = [0, 1, 2, 3, 4, 5, 6]  # count word, column tag, record tag, heads' width
    pos, _ = ints(6, count)
    for names in levels:
        start = pos
        pos, lengths = ints(pos, count)
        positions += range(start, pos)
        total = int(lengths.sum())
        for _ in names:
            kind = block[pos]
            positions.append(pos)
            if kind == 0:
                pos += 1
            elif kind == 0x06:  # rows: dtype and row shape, then the rows
                dlen = block[pos + 1]
                ndim = block[pos + 2 + dlen]
                rows_at = pos + 3 + dlen + 8 * ndim
                positions += range(pos + 1, rows_at)
                dtype = np.dtype(block[pos + 2 : pos + 2 + dlen].decode())
                shape = struct.unpack_from(f"<{ndim}q", block, pos + 3 + dlen)
                pos = rows_at + total * math.prod(shape) * dtype.itemsize
            else:
                pos, _ = ints(pos, total)
    assert pos == len(block)
    return positions


class TestRaggedColumn:
    """A chunk's neighborhoods as one ragged column."""

    @given(ragged_records(), st.data())
    @settings(max_examples=150)
    def test_round_trip_take_and_concat(self, records, data):
        """Encoded, decoded, taken and joined — from records, from a
        decoded chunk, or from both — a column writes exactly the block of
        its rows, which is the object walk's, and decodes to its records."""
        column = columnize(records)
        block = encode_columns(column)
        assert block == object_block(records) == encode_block(records)
        decoded = decode_columns(block)
        assert encode_columns(decoded) == block
        assert len(decoded.rows()) == len(records)
        for out, want in zip(decoded.rows(), records):
            assert_same_subgraph(out, want)
        rows = data.draw(st.lists(st.integers(0, max(len(records) - 1, 0)), max_size=8))
        rows = rows if records else []
        index = np.asarray(rows, dtype=np.int64)
        taken = encode_block([records[i] for i in rows])
        assert encode_columns(decoded.take(index)) == taken
        cut = data.draw(st.integers(0, len(records)))
        joined = concat_columns([
            decode_columns(encode_columns(columnize(records[:cut]))), columnize(records[cut:]),
        ])
        assert encode_columns(joined) == block
        assert encode_columns(joined.take(index)) == taken
        if records:
            sizes = [info.nbytes for info in records]
            assert decoded.sizes().tolist() == joined.sizes().tolist() == sizes
            assert joined.approx_sizes().tolist() == [approx_nbytes(r) for r in records]

    @pytest.mark.parametrize("field", ["x", "edge_feat"])
    @pytest.mark.parametrize("differ", ["dtype", "shape"])
    def test_rows_that_differ_across_records_name_the_field(self, field, differ):
        """Feature rows of one field differ in dtype or shape from record to
        record: no column holds them, built from records or joined from a
        decoded chunk — a ``ValueError`` naming the field."""
        def record(root, odd):
            kind = np.float64 if odd and differ == "dtype" else np.float32
            width = 3 if odd and differ == "shape" else 2
            x_kind, x_width = (kind, width) if field == "x" else (np.float32, 2)
            e_kind, e_width = (kind, width) if field == "edge_feat" else (np.float32, 2)
            return SubgraphInfo(
                root, [root, 9], [0, 1], np.ones((2, x_width), x_kind), [9], [root], [1.0],
                np.ones((1, e_width), e_kind),
            )

        a, b = record(1, False), record(2, True)
        with pytest.raises(ValueError, match=f"^{field}: rows differ"):
            RaggedColumn.of_records(_RECORDS_BY_CLS[SubgraphInfo], [a, b])
        chunk = decode_columns(encode_columns(columnize([a])))
        joined = concat_columns([chunk, columnize([b])])
        with pytest.raises(ValueError, match=f"^{field}: rows differ"):
            joined.block()
        with pytest.raises(ValueError, match=f"^{field}: rows differ"):
            encode_columns(joined)

    @given(ragged_records(min_size=1))
    @settings(max_examples=60)
    def test_damaged_or_truncated_headers_are_refused(self, records):
        """Every header byte of a ragged block, damaged, and every strict
        prefix of the block is a ``FrameCorruptionError`` — never a decode."""
        block = encode_columns(columnize(records))
        for at in ragged_header_bytes(block):
            damaged = bytearray(block)
            damaged[at] ^= 0xFF
            with pytest.raises(FrameCorruptionError):
                decode_columns(bytes(damaged))
        for cut in range(len(block)):
            with pytest.raises(FrameCorruptionError):
                decode_columns(block[:cut])

    def test_every_int_width_is_chosen(self):
        """Each int column of a chunk is narrowed to the narrowest width
        holding its values: ids at 1, 2, 4 and 8 bytes."""
        widths = set()
        for ids in ([3, 100], [3, 1000], [3, 1 << 20], [3, 1 << 40], [-(2**63), 2**63 - 1]):
            info = SubgraphInfo(ids[0], ids, [0, 1], np.zeros((2, 1), np.float32))
            block = encode_columns(columnize([info]))
            # the 7 leading header bytes, the node level's one row count
            # (kind byte and value), then the ids' kind byte
            widths.add(block[ragged_header_bytes(block)[9]])
        assert widths == {1, 2, 3, 4}


class TestChunkedRuns:
    HUB, ROW = 7, np.arange(256, dtype=np.float32)  # 1 KiB per value

    def test_a_stream_holds_at_most_two_chunks_not_yet_yielded(self, tmp_path, monkeypatch):
        """The reader bound (``repro.mapreduce.spill``'s docstring) on 8
        runs of the same 64 keys, 3 values a chunk, read through
        ``iter_groups``: a stream whose last key equals the merge bound, or
        that has had some of its one chunk released, loads its next chunk
        before the rest of that chunk goes out, so it holds up to two
        chunks it has loaded but not fully released — never more."""
        from repro.mapreduce import spill

        monkeypatch.setattr(spill, "_CHUNK_BYTES", 60)  # three 8-byte values and their groups
        layout = SpillLayout(str(tmp_path), "job", 1)
        for task in range(8):
            layout.write_map_output(task, [[(key, task) for key in range(64)]])
        chunks = read_chunks(layout.run_path(0, 0, 0).read_bytes())
        assert [sum(counts) for _, counts in chunks] == [3] * 21 + [1]

        streams: list = []
        loaded = collections.defaultdict(list)  # stream -> the chunks it loaded
        held = []

        def open_chunks(stream: int) -> int:
            return sum(chunk.done < len(chunk) for chunk in loaded[stream])

        iter_file, merge = SpillLayout._iter_file, spill._merge_windows

        def counted_file(self, path):
            number = len(streams)
            streams.append(path)

            def chunks():
                for chunk in iter_file(self, path):
                    loaded[number].append(chunk)
                    held.append(open_chunks(number))
                    yield chunk

            return chunks()

        def counted_merge(runs):
            for segment in merge(runs):
                held.append(max(map(open_chunks, loaded)))
                yield segment

        monkeypatch.setattr(SpillLayout, "_iter_file", counted_file)
        monkeypatch.setattr(spill, "_merge_windows", counted_merge)
        groups = list(layout.iter_groups(0, 8))
        assert groups == [(key, list(range(8))) for key in range(64)]
        assert len(streams) == 8 and sum(map(len, loaded.values())) == 8 * 22
        assert max(held) <= 2, held

    def hub_pairs(self, n=300):
        """A hub group far larger than one chunk between two small ones."""
        pairs = [(self.HUB, (i, self.ROW + i)) for i in range(n)]
        pairs[10:10] = [(3, (-1, self.ROW)), (9, (-2, self.ROW))]
        return pairs

    def test_hub_group_is_split_across_chunks_and_rejoined(self, tmp_path):
        n = 12 * _CHUNK_BYTES // self.ROW.nbytes  # twelve chunks' worth
        layout = SpillLayout(str(tmp_path), "job", 1)
        layout.write_map_output(0, [self.hub_pairs(n)])
        chunks = read_chunks(layout.run_path(0, 0, 0).read_bytes())
        hub_chunks = [c for c in chunks if key_bytes(self.HUB) in c[0]]
        assert len(hub_chunks) > 10, "12 chunks' worth under one key must span many chunks"
        assert all(keys == [key_bytes(self.HUB)] for keys, _ in hub_chunks)
        assert sum(counts[0] for _, counts in hub_chunks) == n
        groups = list(layout.iter_groups(0, 1))
        assert [key for key, _ in groups] == [3, self.HUB, 9]
        assert [i for i, _ in groups[1][1]] == list(range(n))  # emission order
        assert_same(groups[1][1][n - 1][1], self.ROW + n - 1)

    def test_hub_group_split_across_runs_too(self, tmp_path):
        layout = SpillLayout(str(tmp_path), "job", 1)
        writer = layout.run_writer(0, run_records=100)
        for key, value in self.hub_pairs():
            writer.append(0, key, value)
        assert writer.finish().counts == [302]
        assert layout.run_path(0, 0, 3).exists()
        groups = dict(layout.iter_groups(0, 1))
        assert [i for i, _ in groups[self.HUB]] == list(range(300))

    def small_run(self, tmp_path, monkeypatch):
        """A run of several chunks that is small enough to damage at every
        byte (the chunk bound is shrunk for it)."""
        monkeypatch.setattr("repro.mapreduce.spill._CHUNK_BYTES", 256)
        layout = SpillLayout(str(tmp_path), "job", 1)
        layout.write_map_output(
            0, [[(k, (k, "tag", np.full(8, k, np.float32))) for k in range(12)] * 2]
        )
        path = layout.run_path(0, 0, 0)
        data = path.read_bytes()
        assert len(read_chunks(data)) >= 4
        return layout, path, data

    def test_every_truncation_is_detected_or_a_whole_number_of_chunks(
        self, tmp_path, monkeypatch
    ):
        layout, path, data = self.small_run(tmp_path, monkeypatch)
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
        self, tmp_path, monkeypatch
    ):
        layout, path, data = self.small_run(tmp_path, monkeypatch)
        for position in range(6, len(data)):  # past the stream header
            injured = bytearray(data)
            injured[position] ^= 0x40
            path.write_bytes(bytes(injured))
            with pytest.raises(FrameCorruptionError):
                list(layout.iter_groups(0, 1))

    def test_flipped_codec_byte_is_frame_corruption(self, tmp_path, monkeypatch):
        """The header's codec byte sits outside every frame CRC; a run whose
        byte is not the column block's (``1``) is corrupt — the retryable
        frame error — on both ways of reading it."""
        layout, path, data = self.small_run(tmp_path, monkeypatch)
        assert data[5] == 1
        for flipped in (0, 2, 0xFF):
            path.write_bytes(data[:5] + bytes([flipped]) + data[6:])
            with pytest.raises(FrameCorruptionError, match="codec byte"):
                list(layout.iter_groups(0, 1))
            with pytest.raises(FrameCorruptionError, match="codec byte"):
                list(layout.iter_segments(0, 1))

    @pytest.mark.parametrize("reader", ["iter_groups", "iter_segments"])
    @pytest.mark.parametrize("offset", range(6))
    def test_every_damaged_header_byte_is_frame_corruption(
        self, tmp_path, monkeypatch, offset, reader
    ):
        """No header byte — magic, version or codec — is under a frame
        CRC; damage to any of them is still the retryable frame error."""
        layout, path, data = self.small_run(tmp_path, monkeypatch)
        damaged = bytearray(data)
        damaged[offset] ^= 0xFF
        path.write_bytes(bytes(damaged))
        with pytest.raises(FrameCorruptionError):
            list(getattr(layout, reader)(0, 1))

    @pytest.mark.parametrize("version", [2, 3])
    def test_older_runs_are_rejected(self, tmp_path, monkeypatch, version):
        """Version 2 (a frame per key) and version 3 (a blob per
        neighborhood) are other grammars; run files are version 4."""
        layout, path, data = self.small_run(tmp_path, monkeypatch)
        assert data[:5] == b"AGLS\x04"
        path.write_bytes(b"AGLS" + bytes([version]) + data[5:])
        with pytest.raises(FrameCorruptionError, match=f"version {version}"):
            list(layout.iter_groups(0, 1))
        with pytest.raises(FrameCorruptionError, match=f"version {version}"):
            read_stream_header(io.BytesIO(b"AGLS" + bytes([version, 1])))

