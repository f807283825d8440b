"""Value types flowing through GraphFlat's shuffles.

The paper's Reduce phase handles "three kinds of information" per node
(§3.2.1): the **self information** (here :class:`SubgraphInfo` — the
accumulated (k-1)-hop neighborhood), the **in-edge information**
(:class:`InEdgeInfo` — edge feature/weight plus the sender's self
information) and the **out-edge information** (``OutEdgeInfo`` — where to
propagate next round; the propagation engine's, re-exported here because it
is the same record in GraphInfer).  All three pickle cleanly so the runtime
can spill shuffles to disk — and each registers a *flat* wire form with the
binary shuffle codec (bottom of this module): node/edge state is spilled as
varint id/hop blocks plus contiguous feature matrices instead of pickled
dicts of per-node tuples, which is where the process backend's per-object
serialization tax lived.  Encoding preserves dict insertion order, float
bits and array dtypes exactly, so a job's output is byte-identical under
either codec.

:class:`SubgraphInfo` is additionally *wire-resident*: its encoded block is
kept on the object once produced (a merged neighborhood fanned out over
``deg_out`` in-edge records is encoded once, then copied), and decoding only
finds the block's end and keeps the bytes — the ``nodes`` / ``edges`` dicts
are built on first access.  Records that merely pass through a reducer
(non-hub rows of the re-index rounds, in-edges a sampler drops) never leave
their wire form.  The spill grammar is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.propagation import OutEdgeInfo
from repro.graph.subgraph import GraphFeature
from repro.proto.framing import (
    decode_edge_fields,
    decode_value,
    encode_edge_fields,
    encode_value,
    register_record,
    skip_array,
)
from repro.proto.varint import decode_signed, decode_unsigned, encode_signed, encode_unsigned

__all__ = ["SubgraphInfo", "InEdgeInfo", "OutEdgeInfo"]


class SubgraphInfo:
    """Accumulated neighborhood of ``root`` (the "self information").

    ``nodes`` maps node id -> (feature, hop distance to root along directed
    paths); ``edges`` maps (src, dst) -> (weight, edge_feature).  Dedup by
    construction: re-discovered nodes keep the *minimum* hop.

    Wire-resident: a record decoded from a binary spill holds only its
    encoded block until ``nodes`` / ``edges`` is first read, and a record
    that has been encoded keeps the block for the next encode.  Mutate
    through :meth:`absorb_neighbor` only — it drops the cached block;
    writing into the dicts directly would leave a stale one behind.
    """

    __slots__ = ("root", "_nodes", "_edges", "_wire")

    def __init__(
        self,
        root: int,
        nodes: dict[int, tuple[np.ndarray, int]] | None = None,
        edges: dict[tuple[int, int], tuple[float, np.ndarray | None]] | None = None,
    ):
        self.root = root
        self._nodes = {} if nodes is None else nodes
        self._edges = {} if edges is None else edges
        self._wire: bytes | None = None

    @classmethod
    def from_wire(cls, root: int, wire: bytes) -> "SubgraphInfo":
        """A record backed by its encoded block alone (``wire`` must be a
        complete block as :func:`_encode_subgraph` writes it)."""
        info = cls.__new__(cls)
        info.root = root
        info._nodes = info._edges = None
        info._wire = wire
        return info

    def _materialize(self) -> None:
        _, self._nodes, self._edges, _ = _parse_subgraph(memoryview(self._wire), 0)

    @property
    def nodes(self) -> dict[int, tuple[np.ndarray, int]]:
        if self._nodes is None:
            self._materialize()
        return self._nodes

    @property
    def edges(self) -> dict[tuple[int, int], tuple[float, np.ndarray | None]]:
        if self._edges is None:
            self._materialize()
        return self._edges

    def __getstate__(self) -> dict:
        # A materialised record pickles exactly as the plain dataclass it
        # used to be (the pickle shuffle codec's bytes are unchanged); a
        # wire-resident one as its block.  Never both: the cached block of
        # a materialised record is only a cache.
        if self._nodes is None:
            return {"root": self.root, "wire": self._wire}
        return {"root": self.root, "nodes": self._nodes, "edges": self._edges}

    def __setstate__(self, state: dict) -> None:
        self.root = state["root"]
        self._nodes = state.get("nodes")
        self._edges = state.get("edges")
        self._wire = state.get("wire")

    def __repr__(self) -> str:
        if self._nodes is None:
            return f"SubgraphInfo(root={self.root}, <{len(self._wire)} wire bytes>)"
        return f"SubgraphInfo(root={self.root}, nodes={self._nodes!r}, edges={self._edges!r})"

    @staticmethod
    def seed(node_id: int, feature: np.ndarray) -> "SubgraphInfo":
        """The 0-hop neighborhood: the node itself (Definition 1)."""
        return SubgraphInfo(root=node_id, nodes={node_id: (feature, 0)})

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def absorb_neighbor(
        self,
        neighbor: "SubgraphInfo",
        weight: float,
        edge_feat: np.ndarray | None,
    ) -> None:
        """Merge an in-edge neighbor's self information (one merge step).

        Every node of the neighbor's subgraph lands one hop further from our
        root; the connecting edge ``neighbor.root -> self.root`` is added.
        """
        nodes, edges = self.nodes, self.edges
        self._wire = None
        for node_id, (feat, hop) in neighbor.nodes.items():
            mine = nodes.get(node_id)
            if mine is None or hop + 1 < mine[1]:
                nodes[node_id] = (feat, hop + 1)
        for key, value in neighbor.edges.items():
            if key not in edges:
                edges[key] = value
        edges[(neighbor.root, self.root)] = (weight, edge_feat)

    def to_graph_feature(self) -> GraphFeature:
        """Flatten to the storage/training form (§3.2.1 "Storing")."""
        node_ids = np.fromiter(self.nodes.keys(), dtype=np.int64, count=len(self.nodes))
        order = np.argsort(node_ids)
        node_ids = node_ids[order]
        feats = list(self.nodes.values())
        x = np.stack([feats[i][0] for i in order]).astype(np.float32)
        hops = np.asarray([feats[i][1] for i in order], dtype=np.int64)

        pos = {int(i): p for p, i in enumerate(node_ids)}
        m = len(self.edges)
        src = np.empty(m, dtype=np.int64)
        dst = np.empty(m, dtype=np.int64)
        weight = np.empty(m, dtype=np.float32)
        any_feat = any(ef is not None for _, ef in self.edges.values())
        efeat = None
        if any_feat:
            dim = next(len(ef) for _, ef in self.edges.values() if ef is not None)
            efeat = np.zeros((m, dim), dtype=np.float32)
        for i, ((s, d), (w, ef)) in enumerate(self.edges.items()):
            src[i] = pos[s]
            dst[i] = pos[d]
            weight[i] = w
            if efeat is not None and ef is not None:
                efeat[i] = ef
        # Canonical (dst, src) order: the flattened bytes are then identical
        # no matter how reducers were partitioned (re-indexing, retries, ...).
        order = np.lexsort((src, dst))
        return GraphFeature(
            np.asarray([self.root]),
            node_ids,
            x,
            hops,
            src[order],
            dst[order],
            None if efeat is None else efeat[order],
            weight[order],
        )


@dataclass
class InEdgeInfo:
    """In-edge information: the edge ``src -> key_node`` plus the sender's
    current self information (its (k-1)-hop neighborhood)."""

    src: int
    weight: float
    edge_feat: np.ndarray | None
    subgraph: SubgraphInfo


# --------------------------------------------------------------- wire forms
# Flat binary encodings for the spill shuffle (repro.proto.framing).  Tags
# 0x20-0x2F are reserved for GraphFlat records (0x22, the out-edge record,
# is registered by ``repro.core.propagation``).

def _encode_vectors(arrays: list, out: bytearray) -> None:
    """A block of per-row vectors: ``0`` = empty, ``1`` = uniform (stacked
    into one contiguous matrix — the flat fast path), ``2`` = generic
    fallback (ragged shapes, mixed dtypes, or ``None`` entries)."""
    if not arrays:
        out.append(0)
        return
    first = arrays[0]
    uniform = isinstance(first, np.ndarray) and first.ndim == 1 and all(
        isinstance(a, np.ndarray) and a.dtype == first.dtype and a.shape == first.shape
        for a in arrays
    )
    if uniform:
        out.append(1)
        out += encode_value(np.stack(arrays))
    else:
        out.append(2)
        out += encode_value(list(arrays))


def _decode_vectors(buf: memoryview, offset: int, count: int):
    mode = buf[offset]
    offset += 1
    if mode == 0:
        rows = []
    elif mode == 1:
        matrix, offset = decode_value(buf, offset)
        # Owned per-row copies, not views: reducers sample rows and keep a
        # subset alive across the round — a view would pin the whole stacked
        # matrix and break the streamed reduce's memory bound.
        rows = [np.array(row) for row in matrix]
    else:
        rows, offset = decode_value(buf, offset)
    if len(rows) != count:
        raise ValueError(
            f"vector block holds {len(rows)} rows, header promised {count}"
        )
    return rows, offset


def _encode_subgraph(info: SubgraphInfo, out: bytearray) -> None:
    # Encode once, copy afterwards: a neighborhood propagated along
    # ``deg_out`` out-edges (or passing through a reducer untouched) reuses
    # the block it already has.
    wire = info._wire
    if wire is None:
        wire = info._wire = _build_wire(info)
    out += wire


def _build_wire(info: SubgraphInfo) -> bytes:
    # Node and edge tables go out as contiguous little-endian blocks
    # (ids/hops as raw int64, weights as raw float64, features stacked into
    # one matrix): every hot loop is a numpy bulk conversion, not a
    # per-element Python encode — this is where the codec's wall-clock win
    # over per-object pickling comes from.
    out = bytearray(encode_signed(info.root))
    nodes, edges = info.nodes, info.edges
    n = len(nodes)
    out += encode_unsigned(n)
    ids = np.fromiter(nodes.keys(), dtype=np.int64, count=n)
    out += ids.astype("<i8", copy=False).tobytes()
    hops = np.empty(n, dtype=np.int64)
    feats = []
    for i, (feat, hop) in enumerate(nodes.values()):
        hops[i] = hop
        feats.append(feat)
    out += hops.astype("<i8", copy=False).tobytes()
    _encode_vectors(feats, out)

    m = len(edges)
    out += encode_unsigned(m)
    if not m:
        return bytes(out)
    pairs = np.fromiter(
        (i for pair in edges.keys() for i in pair), dtype=np.int64, count=2 * m
    )
    out += pairs.astype("<i8", copy=False).tobytes()
    weights = np.empty(m, dtype=np.float64)
    efeats = []
    for i, (weight, ef) in enumerate(edges.values()):
        weights[i] = weight
        efeats.append(ef)
    out += weights.astype("<f8", copy=False).tobytes()
    if all(ef is None for ef in efeats):
        out.append(0)
    else:
        _encode_vectors(efeats, out)
    return bytes(out)


def _read_block(buf: memoryview, offset: int, count: int, dtype: str):
    nbytes = count * np.dtype(dtype).itemsize
    block = np.frombuffer(buf[offset : offset + nbytes], dtype=dtype)
    if len(block) != count:
        raise ValueError("truncated SubgraphInfo block")
    return block, offset + nbytes


def _parse_subgraph(buf: memoryview, offset: int):
    """Full parse of one block: ``(root, nodes, edges, next_offset)``."""
    root, offset = decode_signed(buf, offset)
    n, offset = decode_unsigned(buf, offset)
    ids, offset = _read_block(buf, offset, n, "<i8")
    hops, offset = _read_block(buf, offset, n, "<i8")
    feats, offset = _decode_vectors(buf, offset, n)
    nodes = {
        nid: (feat, hop) for nid, feat, hop in zip(ids.tolist(), feats, hops.tolist())
    }
    m, offset = decode_unsigned(buf, offset)
    if not m:
        return root, nodes, {}, offset
    pairs, offset = _read_block(buf, offset, 2 * m, "<i8")
    weights, offset = _read_block(buf, offset, m, "<f8")
    mode = buf[offset]
    if mode == 0:  # all-None edge features: mode byte only
        offset += 1
        efeats = [None] * m
    else:
        efeats, offset = _decode_vectors(buf, offset, m)
    edges = {
        (src, dst): (weight, ef)
        for (src, dst), weight, ef in zip(
            pairs.reshape(m, 2).tolist(), weights.tolist(), efeats
        )
    }
    return root, nodes, edges, offset


def _skip_fixed(buf: memoryview, offset: int, nbytes: int) -> int:
    if offset + nbytes > len(buf):
        raise ValueError("truncated SubgraphInfo block")
    return offset + nbytes


def _skip_vectors(buf: memoryview, offset: int) -> int | None:
    """End of a vector block whose size its header gives away (empty, or
    the stacked-matrix fast path); ``None`` for the generic fallback, whose
    end is only known by decoding it."""
    mode = buf[offset]
    if mode == 0:
        return offset + 1
    if mode == 1:
        return skip_array(buf, offset + 1)
    return None


def _decode_subgraph(buf: memoryview, offset: int):
    """Skip-parse: walk the block headers to its end and keep the bytes.
    Blocks with a generic-fallback vector section (ragged / ``None``
    features) are decoded eagerly instead."""
    start = offset
    root, offset = decode_signed(buf, offset)
    n, offset = decode_unsigned(buf, offset)
    offset = _skip_vectors(buf, _skip_fixed(buf, offset, 16 * n))
    if offset is not None:
        m, offset = decode_unsigned(buf, offset)
        if m:
            offset = _skip_vectors(buf, _skip_fixed(buf, offset, 24 * m))
    if offset is None:
        root, nodes, edges, offset = _parse_subgraph(buf, start)
        return SubgraphInfo(root, nodes, edges), offset
    return SubgraphInfo.from_wire(root, bytes(buf[start:offset])), offset


def _encode_in_edge(info: InEdgeInfo, out: bytearray) -> None:
    encode_edge_fields(info.src, info.weight, info.edge_feat, out)
    _encode_subgraph(info.subgraph, out)


def _decode_in_edge(buf: memoryview, offset: int):
    src, weight, edge_feat, offset = decode_edge_fields(buf, offset)
    subgraph, offset = _decode_subgraph(buf, offset)
    return InEdgeInfo(src, weight, edge_feat, subgraph), offset


register_record(0x20, SubgraphInfo, _encode_subgraph, _decode_subgraph)
register_record(0x21, InEdgeInfo, _encode_in_edge, _decode_in_edge)
