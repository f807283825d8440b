"""Wire format: varints and the GraphFeature codec (property-based round
trips — this is what 'flattened to protobuf strings' must guarantee)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.subgraph import GraphFeature
from repro.proto import codec
from repro.proto import (
    CodecError,
    decode_graph_feature,
    decode_sample,
    decode_signed,
    decode_unsigned,
    encode_graph_feature,
    encode_sample,
    encode_signed,
    encode_unsigned,
)
from repro.proto.varint import (
    decode_array,
    decode_rows,
    encode_array,
    join_rows,
    unzigzag,
    zigzag,
)

INT64 = st.integers(-(2**63), 2**63 - 1)
UINT64 = st.integers(0, 2**64 - 1)


class TestVarint:
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_unsigned_round_trip(self, value):
        decoded, offset = decode_unsigned(encode_unsigned(value))
        assert decoded == value
        assert offset == len(encode_unsigned(value))

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_signed_round_trip(self, value):
        decoded, _ = decode_signed(encode_signed(value))
        assert decoded == value

    def test_small_values_one_byte(self):
        for v in range(128):
            assert len(encode_unsigned(v)) == 1

    def test_zigzag_keeps_small_negatives_small(self):
        assert len(encode_signed(-1)) == 1
        assert len(encode_signed(-64)) == 1

    def test_negative_unsigned_rejected(self):
        with pytest.raises(ValueError):
            encode_unsigned(-1)

    def test_truncated_varint(self):
        with pytest.raises(ValueError):
            decode_unsigned(b"\x80")

    def test_overlong_varint_rejected(self):
        with pytest.raises(ValueError):
            decode_unsigned(b"\x80" * 11)


def scalar_reads(data: bytes, count: int):
    """``count`` :func:`decode_unsigned` calls from the start of ``data``:
    ``(values, offset, longest)`` — ``longest`` the most bytes one read —
    or the error the first failing one raises."""
    values, offset, longest = [], 0, 0
    try:
        for _ in range(count):
            value, end = decode_unsigned(data, offset)
            values.append(value)
            longest, offset = max(longest, end - offset), end
    except ValueError as exc:
        return exc
    return values, offset, longest


class TestVarintArrays:
    """The array coders make and read the scalar coders' bytes, bit for
    bit, for every 64-bit value."""

    @given(st.lists(UINT64, max_size=40))
    def test_encode_array_is_encode_unsigned(self, values):
        rows, lengths = encode_array(np.array(values, dtype=np.uint64))
        assert join_rows(rows, lengths) == b"".join(map(encode_unsigned, values))
        padded = np.zeros((len(values), 10), dtype=np.uint8)
        padded[:, : rows.shape[1]] = rows
        raw, read = decode_rows(padded)
        assert raw.tolist() == values and read.tolist() == lengths.tolist()

    @given(st.lists(INT64, max_size=40))
    def test_zigzag_rows_are_encode_signed(self, values):
        raw = zigzag(np.array(values, dtype=np.int64))
        assert join_rows(*encode_array(raw)) == b"".join(map(encode_signed, values))
        assert unzigzag(raw).tolist() == values

    @given(st.lists(UINT64, max_size=20), st.binary(max_size=4))
    def test_decode_array_reads_the_varints_below_2_63(self, values, tail):
        data = b"".join(map(encode_unsigned, values)) + tail
        decoded = decode_array(data, 0, len(values))
        if any(value >= 2**63 for value in values):
            assert decoded is None  # a tenth byte: the scalar decoder's
        else:
            assert decoded[0].tolist() == values
            assert decoded[1] == len(data) - len(tail)

    @given(st.binary(max_size=40), st.integers(0, 8), st.integers(0, 3))
    @settings(max_examples=300)
    def test_decode_array_reads_what_the_scalar_decoder_reads(self, data, count, offset):
        """On any bytes: the array reader's values and offset are the
        scalar reader's, or it declines (``None``) — where the scalar reader
        raises, or reads a varint of ten bytes."""
        offset = min(offset, len(data))
        expected = scalar_reads(data[offset:], count)
        decoded = decode_array(data, offset, count)
        if decoded is None:
            assert isinstance(expected, ValueError) or expected[2] == 10
        else:
            assert not isinstance(expected, ValueError)
            assert (decoded[0].tolist(), decoded[1] - offset) == expected[:2]


class TestVarintBlocks:
    """The codec's varint blocks: one array pass per run of blocks, the
    scalar loop only for a block the pass cannot code — bytes and errors
    exactly the scalar loop's."""

    @staticmethod
    def scalar(values: list, coding: int) -> bytes:
        out, prev = bytearray(), 0
        for value in values:
            if coding == codec._DELTA:
                out += encode_signed(value - prev)
                prev = value
            elif coding == codec._SIGNED:
                out += encode_signed(value)
            else:
                out += encode_unsigned(value)
        return bytes(out)

    @given(st.lists(st.tuples(st.lists(INT64, max_size=12), st.sampled_from([0, 1, 2]))))
    @settings(max_examples=200)
    def test_blocks_are_the_scalar_bytes(self, blocks):
        """Every int64, delta blocks that leave the int64 range included;
        a negative value in an unsigned block raises the scalar error."""
        arrays = [(np.array(values, dtype=np.int64), coding) for values, coding in blocks]
        try:
            expected = b"".join(self.scalar(values, coding) for values, coding in blocks)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                codec._encode_blocks(arrays)
            return
        data = codec._encode_blocks(arrays)
        assert data == expected
        counts = [(len(values), coding) for values, coding in blocks]
        try:
            decoded, end = codec._decode_blocks(memoryview(data), 0, counts)
        except OverflowError:  # a value read back past int64, as the scalar loop does
            return
        assert end == len(data)
        assert [block.tolist() for block in decoded] == [values for values, _ in blocks]

    @given(st.lists(st.integers(0, 2**40), min_size=1, max_size=12), st.integers(1, 20))
    def test_truncated_blocks_raise_the_scalar_error(self, values, cut):
        data = self.scalar(values, codec._UNSIGNED)
        cut = min(cut, len(data))
        with pytest.raises(ValueError, match="truncated varint"):
            codec._decode_blocks(memoryview(data[:-cut]), 0, [(len(values), codec._UNSIGNED)])

    def test_an_over_long_varint_raises_the_scalar_error(self):
        with pytest.raises(ValueError, match="longer than 10 bytes"):
            codec._decode_blocks(memoryview(b"\x80" * 11 + b"\x01"), 0, [(1, codec._SIGNED)])

    def test_unsigned_arrays_of_other_kinds_take_the_scalar_loop(self):
        values = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
        assert codec._encode_blocks([(values, codec._UNSIGNED)]) == b"".join(
            map(encode_unsigned, values.tolist())
        )


def make_gf(rng, n=6, m=10, fn=4, fe=2, with_edge_feat=True):
    node_ids = np.sort(rng.choice(10_000, size=n, replace=False)).astype(np.int64)
    x = rng.standard_normal((n, fn)).astype(np.float32)
    hops = rng.integers(0, 3, n)
    target = node_ids[int(np.flatnonzero(hops == hops.min())[0])]
    hops[node_ids == target] = 0
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    ef = rng.standard_normal((m, fe)).astype(np.float32) if with_edge_feat else None
    w = rng.uniform(0.1, 2.0, m).astype(np.float32)
    return GraphFeature([target], node_ids, x, hops, src, dst, ef, w)


class TestGraphFeatureCodec:
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 12),
        m=st.integers(0, 25),
        with_ef=st.booleans(),
    )
    @settings(max_examples=40)
    def test_round_trip(self, seed, n, m, with_ef):
        rng = np.random.default_rng(seed)
        gf = make_gf(rng, n=n, m=m, with_edge_feat=with_ef)
        decoded, _ = decode_graph_feature(encode_graph_feature(gf))
        np.testing.assert_array_equal(decoded.node_ids, gf.node_ids)
        np.testing.assert_array_equal(decoded.target_ids, gf.target_ids)
        np.testing.assert_array_equal(decoded.hops, gf.hops)
        np.testing.assert_array_equal(decoded.edge_src, gf.edge_src)
        np.testing.assert_array_equal(decoded.edge_dst, gf.edge_dst)
        np.testing.assert_allclose(decoded.x, gf.x)
        np.testing.assert_allclose(decoded.edge_weight, gf.edge_weight)
        if with_ef:
            np.testing.assert_allclose(decoded.edge_feat, gf.edge_feat)
        else:
            assert decoded.edge_feat is None

    def test_bad_magic(self, rng):
        data = bytearray(encode_graph_feature(make_gf(rng)))
        data[0] = ord("X")
        with pytest.raises(CodecError):
            decode_graph_feature(bytes(data))

    def test_truncation_detected(self, rng):
        data = encode_graph_feature(make_gf(rng))
        with pytest.raises((CodecError, ValueError)):
            decode_graph_feature(data[: len(data) // 2])


class TestDecoderRobustness:
    @given(st.binary(max_size=300))
    @settings(max_examples=60)
    def test_arbitrary_bytes_never_crash_unexpectedly(self, blob):
        """Fuzz: hostile/corrupt input must raise a codec-family error,
        never segfault-style surprises or silent success on garbage."""
        try:
            decode_graph_feature(blob)
        except (CodecError, ValueError):
            pass

    @given(st.integers(0, 2**16), st.integers(1, 40))
    @settings(max_examples=25)
    def test_random_truncations_detected(self, seed, cut):
        rng = np.random.default_rng(seed)
        data = encode_graph_feature(make_gf(rng))
        cut = min(cut, len(data) - 1)
        try:
            gf, offset = decode_graph_feature(data[:-cut])
            # decoding may only "succeed" if the truncation hit trailing
            # bytes beyond what the record needed — then offset is exact
            assert offset <= len(data) - cut
        except (CodecError, ValueError):
            pass


class TestSampleCodec:
    def test_int_label(self, rng):
        gf = make_gf(rng)
        tid, label, decoded = decode_sample(encode_sample(42, 3, gf))
        assert (tid, label) == (42, 3)
        np.testing.assert_array_equal(decoded.node_ids, gf.node_ids)

    def test_vector_label(self, rng):
        gf = make_gf(rng)
        vec = np.array([0.0, 1.0, 1.0], dtype=np.float32)
        _, label, _ = decode_sample(encode_sample(-7, vec, gf))
        np.testing.assert_allclose(label, vec)

    def test_none_label(self, rng):
        _, label, _ = decode_sample(encode_sample(0, None, make_gf(rng)))
        assert label is None

    def test_trailing_bytes_rejected(self, rng):
        data = encode_sample(1, None, make_gf(rng)) + b"junk"
        with pytest.raises(CodecError):
            decode_sample(data)
