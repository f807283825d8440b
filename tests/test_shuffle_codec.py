"""Binary shuffle-record codec: round-trip fidelity for every record type
that crosses a GraphFlat/GraphInfer spill, plus the frame stream format.

The contract under test is *exact* reproduction — dict insertion order,
array dtypes, float bits — because the pipelines' byte-identity across
codecs (asserted in test_backend_matrix) rests on it.
"""

from __future__ import annotations

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import propagation
from repro.core.graphflat.records import InEdgeInfo, OutEdgeInfo, SubgraphInfo
from repro.core.infer.pipeline import _InEmb
from repro.mapreduce.shuffle import decode_key, key_bytes
from repro.proto.framing import (
    FrameCorruptionError,
    decode_value,
    encode_value,
    iter_frames,
    read_stream_header,
    register_record,
    write_frame,
    write_stream_header,
)


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


def assert_subgraph_equal(a: SubgraphInfo, b: SubgraphInfo):
    assert a.root == b.root
    assert list(a.nodes) == list(b.nodes)  # ids *and* insertion order
    for node_id in a.nodes:
        feat_a, hop_a = a.nodes[node_id]
        feat_b, hop_b = b.nodes[node_id]
        assert hop_a == hop_b
        assert_array_equal_strict(feat_a, feat_b)
    assert list(a.edges) == list(b.edges)
    for key in a.edges:
        w_a, ef_a = a.edges[key]
        w_b, ef_b = b.edges[key]
        assert struct.pack("<d", w_a) == struct.pack("<d", w_b)  # exact bits
        if ef_a is None:
            assert ef_b is None
        else:
            assert_array_equal_strict(ef_a, ef_b)


def make_subgraph(rng: np.random.Generator, *, dim=5, num_nodes=6, num_edges=8,
                  edge_feat="uniform", edge_dim=3) -> SubgraphInfo:
    ids = rng.choice(10_000, size=num_nodes, replace=False).astype(np.int64)
    root = int(ids[0])
    nodes = {
        int(i): (rng.standard_normal(dim).astype(np.float32), int(rng.integers(0, 4)))
        for i in ids
    }
    edges = {}
    for _ in range(num_edges):
        s, d = (int(x) for x in rng.choice(ids, size=2))
        if edge_feat == "uniform":
            ef = rng.standard_normal(edge_dim).astype(np.float32)
        elif edge_feat == "mixed":
            ef = rng.standard_normal(edge_dim).astype(np.float32) if rng.random() < 0.5 else None
        elif edge_feat == "empty":
            ef = np.zeros(0, dtype=np.float32)
        else:  # none
            ef = None
        edges[(s, d)] = (float(rng.standard_normal()), ef)
    return SubgraphInfo(root, nodes, edges)


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
            register_record(0x20, dict, lambda *a: None, lambda *a: None)

    def test_reserved_tag_range_enforced(self):
        with pytest.raises(ValueError, match="record tag"):
            register_record(0x05, dict, lambda *a: None, lambda *a: None)


class TestGraphFlatRecords:
    @pytest.mark.parametrize("edge_feat", ["uniform", "mixed", "none", "empty"])
    def test_subgraph_round_trip(self, edge_feat):
        rng = np.random.default_rng(len(edge_feat))  # deterministic per case
        sg = make_subgraph(rng, edge_feat=edge_feat)
        assert_subgraph_equal(sg, round_trip(sg))

    def test_zero_edge_subgraph(self):
        sg = SubgraphInfo.seed(42, np.arange(3, dtype=np.float32))
        decoded = round_trip(sg)
        assert_subgraph_equal(sg, decoded)
        assert decoded.num_edges == 0

    def test_single_node_zero_dim_features(self):
        sg = SubgraphInfo.seed(-7, np.zeros(0, dtype=np.float32))
        assert_subgraph_equal(sg, round_trip(sg))

    @given(seed=st.integers(0, 2**16), num_nodes=st.integers(1, 12),
           num_edges=st.integers(0, 20), dim=st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_subgraph_property(self, seed, num_nodes, num_edges, dim):
        rng = np.random.default_rng(seed)
        kind = ["uniform", "mixed", "none", "empty"][seed % 4]
        sg = make_subgraph(rng, dim=dim, num_nodes=num_nodes,
                           num_edges=num_edges, edge_feat=kind)
        assert_subgraph_equal(sg, round_trip(sg))

    def test_in_edge_round_trip(self):
        rng = np.random.default_rng(11)
        inner = make_subgraph(rng)
        edge = InEdgeInfo(17, 0.75, rng.standard_normal(2).astype(np.float32), inner)
        decoded = round_trip(edge)
        assert decoded.src == 17 and decoded.weight == 0.75
        assert_array_equal_strict(edge.edge_feat, decoded.edge_feat)
        assert_subgraph_equal(inner, decoded.subgraph)

    @pytest.mark.parametrize("edge_feat", [None, np.asarray([1.0], dtype=np.float32)])
    def test_out_edge_round_trip(self, edge_feat):
        """One out-edge record for both pipelines, on one wire tag."""
        assert OutEdgeInfo is propagation.OutEdgeInfo
        edge = OutEdgeInfo(-3, 2.5, edge_feat)
        assert encode_value(edge)[0] == 0x22
        decoded = round_trip(edge)
        assert type(decoded) is OutEdgeInfo
        assert decoded.dst == -3 and decoded.weight == 2.5
        if edge_feat is None:
            assert decoded.edge_feat is None
        else:
            assert_array_equal_strict(edge_feat, decoded.edge_feat)

    @pytest.mark.parametrize("tag", [0x23, 0x30])
    def test_retired_record_tags_are_unassigned(self, tag):
        """0x23 (PartialMerge) and 0x30 (GraphInfer's own out-edge copy)
        are gone: a stream carrying them is corrupt, not silently decoded."""
        with pytest.raises(FrameCorruptionError):
            decode_value(bytes([tag, 0]))

    def test_out_edge_list(self):
        outs = [OutEdgeInfo(i, float(i), None) for i in range(5)]
        assert round_trip(outs) == outs

    def test_tagged_tuples_as_shuffled(self):
        """The exact value shapes GraphFlat ships: ("self", info),
        ("out", [outs]), ("in", in_edge), ("partial", [in_edges])."""
        rng = np.random.default_rng(5)
        sg = make_subgraph(rng)
        for value in [
            ("self", sg),
            ("out", [OutEdgeInfo(1, 1.0, None)]),
            ("in", InEdgeInfo(2, 0.5, None, sg)),
            ("partial", [InEdgeInfo(2, 0.5, None, sg)]),
            ("node", rng.standard_normal(4).astype(np.float32)),
            (3, 9, 0.25, None),  # raw edge row
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
        from repro.mapreduce.spill import SpillLayout

        layout = SpillLayout(str(tmp_path), "job", num_partitions=1, codec="binary")
        layout.write_map_output(0, [[(1, "hello-world")]])
        path = layout.path(0, 0)
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
