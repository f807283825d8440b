"""Wire codec for :class:`~repro.graph.subgraph.GraphFeature` records.

Layout (all multi-byte integers are varints, floats are raw little-endian
float32 blocks so numpy can decode them zero-copy):

```
magic "AGLF" | version | flags | t | n | m | fn | fe
  target_ids  : t signed varints
  node_ids    : n signed varints (delta-coded against previous id)
  hops        : n unsigned varints
  edge_src    : m unsigned varints (local indices)
  edge_dst    : m unsigned varints
  x           : n*fn float32
  edge_weight : m float32
  edge_feat   : m*fe float32            (only if flags & HAS_EDGE_FEAT)
  node_type   : n unsigned varints      (v2 only, if flags & HAS_NODE_TYPE)
  edge_type   : m unsigned varints      (v2 only, if flags & HAS_EDGE_TYPE)
```

Versioning: untyped records encode as version 1 — byte-identical to the
pre-typed format; heterogeneous records (typed nodes/edges) gate their
extra blocks behind version 2 + flag bits.  The decoder accepts both.

A *sample* is the training triple ``<TargetedNodeId, Label, GraphFeature>``
of §3.3.1; labels may be absent (inference), an int class id, or a float
vector (multi-label tasks such as PPI).
"""

from __future__ import annotations

import numpy as np

from repro.graph.subgraph import GraphFeature
from repro.proto.varint import (
    decode_array,
    decode_signed,
    decode_unsigned,
    encode_array,
    encode_signed,
    encode_unsigned,
    join_rows,
    unzigzag,
    zigzag,
)

__all__ = [
    "CodecError",
    "encode_graph_feature",
    "decode_graph_feature",
    "encode_sample",
    "decode_sample",
    "encode_prediction",
    "decode_prediction",
]

_MAGIC = b"AGLF"
_VERSION = 1
_TYPED_VERSION = 2
_HAS_EDGE_FEAT = 1 << 0
_HAS_NODE_TYPE = 1 << 1
_HAS_EDGE_TYPE = 1 << 2

_LABEL_NONE = 0
_LABEL_INT = 1
_LABEL_VECTOR = 2


class CodecError(ValueError):
    """Raised when a byte string cannot be decoded as a GraphFeature."""


_SIGNED, _DELTA, _UNSIGNED = range(3)
"""How a varint block codes its values: ``encode_signed`` of each, of each
one's difference from the one before, or ``encode_unsigned`` of each."""


def _encode_blocks(blocks: list[tuple[np.ndarray, int]]) -> bytes:
    """The varint blocks ``blocks`` — ``(values, coding)`` each — end to
    end, every run of consecutive blocks in one array pass.  A block the
    pass cannot code — a value, or a difference, outside ``int64``, a
    negative unsigned value, an array of another kind — is coded one value
    at a time, which makes the same bytes or raises the same error."""
    out, pending = [], []
    for values, coding in blocks:
        raw = _raw(np.asarray(values), coding)
        if raw is not None:
            pending.append(raw)
            continue
        if pending:
            out.append(join_rows(*encode_array(np.concatenate(pending))))
            pending = []
        out.append(_encode_scalars(values, coding))
    if pending:
        out.append(join_rows(*encode_array(np.concatenate(pending))))
    return b"".join(out)


def _raw(values: np.ndarray, coding: int) -> np.ndarray | None:
    """The ``uint64`` varint payloads of a block, or ``None`` when the
    array pass cannot code it."""
    if not (values.dtype.kind == "i" or (values.dtype.kind == "u" and values.dtype.itemsize < 8)):
        return None
    values = values.astype(np.int64, copy=False)
    if coding == _UNSIGNED:
        return values.astype(np.uint64) if not len(values) or values.min() >= 0 else None
    if coding == _DELTA and len(values):
        before = np.concatenate(([0], values[:-1]))
        steps = values - before
        if (((values ^ before) & (values ^ steps)) < 0).any():  # wrapped past int64
            return None
        values = steps
    return zigzag(values)


def _encode_scalars(values: np.ndarray, coding: int) -> bytes:
    out = bytearray()
    prev = 0
    for v in np.asarray(values).tolist():
        if coding == _DELTA:
            out += encode_signed(v - prev)
            prev = v
        elif coding == _SIGNED:
            out += encode_signed(v)
        else:
            out += encode_unsigned(v)
    return bytes(out)


def _decode_blocks(
    buf: memoryview, offset: int, blocks: list[tuple[int, int]]
) -> tuple[list[np.ndarray], int]:
    """Inverse of :func:`_encode_blocks` for the blocks ``blocks`` —
    ``(count, coding)`` each — at ``offset``: their values as ``int64``
    arrays, and the offset after them.  One array pass reads them all when
    every varint is complete and below ``2**63`` and no delta-coded sum can
    leave ``int64``; any other input is read one value at a time, which
    raises as it did."""
    decoded = decode_array(buf, offset, sum(count for count, _ in blocks))
    if decoded is not None:
        raw, end = decoded
        values, at = [], 0
        for count, coding in blocks:
            part = raw[at : at + count]
            at += count
            if coding == _UNSIGNED:
                values.append(part.astype(np.int64))
                continue
            part = unzigzag(part)
            if coding == _DELTA:
                if len(part) and int(np.abs(part).max()) * len(part) >= 1 << 63:
                    break
                part = np.cumsum(part)
            values.append(part)
        else:
            return values, end
    values = []
    for count, coding in blocks:
        block = np.empty(count, dtype=np.int64)
        prev = 0
        for i in range(count):
            if coding == _UNSIGNED:
                v, offset = decode_unsigned(buf, offset)
            else:
                v, offset = decode_signed(buf, offset)
                if coding == _DELTA:
                    v += prev
                    prev = v
            block[i] = v
        values.append(block)
    return values, offset


def _decode_floats(buf: memoryview, offset: int, count: int) -> tuple[np.ndarray, int]:
    nbytes = count * 4
    if offset + nbytes > len(buf):
        raise CodecError("truncated float block")
    arr = np.frombuffer(buf[offset : offset + nbytes], dtype="<f4").copy()
    return arr, offset + nbytes


def encode_graph_feature(gf: GraphFeature) -> bytes:
    """Flatten a GraphFeature into its wire form."""
    typed = gf.node_type is not None or gf.edge_type is not None
    out = bytearray(_MAGIC)
    out += encode_unsigned(_TYPED_VERSION if typed else _VERSION)
    flags = _HAS_EDGE_FEAT if gf.edge_feat is not None else 0
    if gf.node_type is not None:
        flags |= _HAS_NODE_TYPE
    if gf.edge_type is not None:
        flags |= _HAS_EDGE_TYPE
    out += encode_unsigned(flags)
    out += encode_unsigned(len(gf.target_ids))
    out += encode_unsigned(gf.num_nodes)
    out += encode_unsigned(gf.num_edges)
    out += encode_unsigned(gf.feature_dim)
    out += encode_unsigned(gf.edge_feature_dim)

    out += _encode_blocks([
        (gf.target_ids, _SIGNED),
        (gf.node_ids, _DELTA),
        (gf.hops, _UNSIGNED),
        (gf.edge_src, _UNSIGNED),
        (gf.edge_dst, _UNSIGNED),
    ])
    out += np.ascontiguousarray(gf.x, dtype="<f4").tobytes()
    out += np.ascontiguousarray(gf.edge_weight, dtype="<f4").tobytes()
    if gf.edge_feat is not None:
        out += np.ascontiguousarray(gf.edge_feat, dtype="<f4").tobytes()
    if gf.node_type is not None:
        out += _encode_blocks([(gf.node_type, _UNSIGNED)])
    if gf.edge_type is not None:
        out += _encode_blocks([(gf.edge_type, _UNSIGNED)])
    return bytes(out)


def decode_graph_feature(data: bytes, offset: int = 0) -> tuple[GraphFeature, int]:
    """Inverse of :func:`encode_graph_feature`; returns ``(gf, next_offset)``."""
    buf = memoryview(data)
    if bytes(buf[offset : offset + 4]) != _MAGIC:
        raise CodecError("bad magic — not a GraphFeature record")
    offset += 4
    version, offset = decode_unsigned(buf, offset)
    if version not in (_VERSION, _TYPED_VERSION):
        raise CodecError(f"unsupported GraphFeature version {version}")
    flags, offset = decode_unsigned(buf, offset)
    if version == _VERSION and flags & (_HAS_NODE_TYPE | _HAS_EDGE_TYPE):
        raise CodecError("typed flag bits require GraphFeature version 2")
    t, offset = decode_unsigned(buf, offset)
    n, offset = decode_unsigned(buf, offset)
    m, offset = decode_unsigned(buf, offset)
    fn, offset = decode_unsigned(buf, offset)
    fe, offset = decode_unsigned(buf, offset)

    (target_ids, node_ids, hops, edge_src, edge_dst), offset = _decode_blocks(
        buf, offset, [(t, _SIGNED), (n, _DELTA), (n, _UNSIGNED), (m, _UNSIGNED), (m, _UNSIGNED)]
    )
    x_flat, offset = _decode_floats(buf, offset, n * fn)
    weight, offset = _decode_floats(buf, offset, m)
    edge_feat = None
    if flags & _HAS_EDGE_FEAT:
        ef_flat, offset = _decode_floats(buf, offset, m * fe)
        edge_feat = ef_flat.reshape(m, fe)
    node_type = edge_type = None
    if flags & _HAS_NODE_TYPE:
        (node_type,), offset = _decode_blocks(buf, offset, [(n, _UNSIGNED)])
    if flags & _HAS_EDGE_TYPE:
        (edge_type,), offset = _decode_blocks(buf, offset, [(m, _UNSIGNED)])
    try:
        gf = GraphFeature(
            target_ids,
            node_ids,
            x_flat.reshape(n, fn),
            hops,
            edge_src,
            edge_dst,
            edge_feat,
            weight,
            node_type,
            edge_type,
        )
    except ValueError as exc:
        raise CodecError(f"decoded record is inconsistent: {exc}") from exc
    return gf, offset


def encode_sample(target_id: int, label, gf: GraphFeature) -> bytes:
    """Encode the training triple ``<TargetedNodeId, Label, GraphFeature>``."""
    out = bytearray()
    out += encode_signed(int(target_id))
    if label is None:
        out += encode_unsigned(_LABEL_NONE)
    elif np.isscalar(label) and not isinstance(label, (float, np.floating)):
        out += encode_unsigned(_LABEL_INT)
        out += encode_signed(int(label))
    else:
        vec = np.atleast_1d(np.asarray(label, dtype=np.float32))
        out += encode_unsigned(_LABEL_VECTOR)
        out += encode_unsigned(len(vec))
        out += vec.astype("<f4").tobytes()
    out += encode_graph_feature(gf)
    return bytes(out)


def decode_sample(data: bytes) -> tuple[int, int | np.ndarray | None, GraphFeature]:
    """Inverse of :func:`encode_sample`."""
    buf = memoryview(data)
    target_id, offset = decode_signed(buf, 0)
    kind, offset = decode_unsigned(buf, offset)
    if kind == _LABEL_NONE:
        label = None
    elif kind == _LABEL_INT:
        label, offset = decode_signed(buf, offset)
    elif kind == _LABEL_VECTOR:
        length, offset = decode_unsigned(buf, offset)
        label, offset = _decode_floats(buf, offset, length)
    else:
        raise CodecError(f"unknown label kind {kind}")
    gf, offset = decode_graph_feature(data, offset)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after sample")
    return target_id, label, gf


def encode_prediction(node_id: int, scores: np.ndarray) -> bytes:
    """Encode one GraphInfer output record ``<NodeId, score vector>``."""
    out = bytearray()
    out += encode_signed(int(node_id))
    vec = np.asarray(scores, dtype="<f4").ravel()
    out += encode_unsigned(len(vec))
    out += vec.tobytes()
    return bytes(out)


def decode_prediction(data: bytes) -> tuple[int, np.ndarray]:
    """Inverse of :func:`encode_prediction`.  Strict: the record must hold
    exactly the declared float block — truncated or trailing bytes raise
    (kind-sniffing relies on corrupt records *not* parsing)."""
    node_id, offset = decode_signed(data, 0)
    length, offset = decode_unsigned(data, offset)
    if offset + 4 * length != len(data):
        raise CodecError(
            f"prediction record declares {length} scores but has "
            f"{len(data) - offset} payload bytes"
        )
    scores = np.frombuffer(data[offset : offset + 4 * length], dtype="<f4").copy()
    return node_id, scores
