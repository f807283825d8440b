"""Value types flowing through GraphFlat's shuffles.

The paper's Reduce phase handles "three kinds of information" per node
(§3.2.1): the **self information** (here :class:`SubgraphInfo` — the
accumulated (k-1)-hop neighborhood), the **in-edge information**
(:class:`InEdgeInfo` — edge feature/weight plus the sender's self
information) and the **out-edge information** (``OutEdgeInfo`` — where to
propagate next round; the propagation engine's, re-exported here because it
is the same record in GraphInfer).  All three pickle cleanly so the runtime
can spill shuffles to disk — and each declares its wire fields to the binary
shuffle codec (bottom of this module): in a spill block a chunk of records
goes out as id / weight columns plus the subgraphs' flat wire blocks, not as
pickled dicts of per-node tuples, which is where the process backend's
per-object serialization tax lived.  Encoding preserves dict insertion
order, float bits and array dtypes exactly, so a job's output is
byte-identical under either codec.

:class:`SubgraphInfo` is additionally *wire-resident*: its wire block
(:attr:`SubgraphInfo.wire` — the one field besides ``root`` it declares) is
kept on the object once produced (a merged neighborhood fanned out over
``deg_out`` in-edge records is encoded once, then copied), and a decoded
record holds only that block — the ``nodes`` / ``edges`` dicts are built on
first access.  Records that merely pass through a reducer (non-hub rows of
the re-index rounds, in-edges a sampler drops) never leave their wire form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.core.propagation import OutEdgeInfo
from repro.graph.subgraph import GraphFeature
from repro.proto.framing import decode_block, encode_block, register_record

__all__ = ["SubgraphInfo", "InEdgeInfo", "OutEdgeInfo"]


class SubgraphInfo:
    """Accumulated neighborhood of ``root`` (the "self information").

    ``nodes`` maps node id -> (feature, hop distance to root along directed
    paths); ``edges`` maps (src, dst) -> (weight, edge_feature).  Dedup by
    construction: re-discovered nodes keep the *minimum* hop.

    Wire-resident: a record decoded from a binary spill holds only its
    :attr:`wire` block until ``nodes`` / ``edges`` is first read, and a
    record that has been encoded keeps the block for the next encode.
    Mutate through :meth:`absorb_neighbor` only — it drops the cached
    block; writing into the dicts directly would leave a stale one behind.
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
        complete block as :attr:`wire` produces it)."""
        info = cls.__new__(cls)
        info.root = root
        info._nodes = info._edges = None
        info._wire = wire
        return info

    def _materialize(self) -> None:
        self._nodes, self._edges = _parse_wire(self._wire)

    @property
    def wire(self) -> bytes:
        """The nodes and edges as one flat block.  Encode once, copy
        afterwards: a neighborhood propagated along ``deg_out`` out-edges
        (or passing through a reducer untouched) reuses the block it
        already has."""
        if self._wire is None:
            self._wire = _build_wire(self)
        return self._wire

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
# Tags 0x20-0x2F are reserved for GraphFlat records (0x22, the out-edge
# record, is registered by ``repro.core.propagation``).

_INT_DTYPES = ("<i1", "<i2", "<i4", "<i8")


def _build_wire(info: SubgraphInfo) -> bytes:
    """``width code | ints | feature block | weights | [edge-feature block]``.

    Every integer of the record — node count, edge count, byte length of the
    feature block, then node ids, hops and edge ``(src, dst)`` pairs — goes
    out as one little-endian column at the narrowest signed width that holds
    them all; weights as raw float64; feature vectors as value blocks (a
    single stacked matrix when they are uniform; the edge block is left out
    when no edge has features).  Every hot loop is a numpy bulk conversion,
    not a per-element Python encode.
    """
    nodes, edges = info.nodes, info.edges
    n, m = len(nodes), len(edges)
    feats, hops = zip(*nodes.values()) if n else ((), ())
    feat_block = encode_block(list(feats))
    ints = np.fromiter(
        chain((n, m, len(feat_block)), nodes.keys(), hops, chain.from_iterable(edges.keys())),
        dtype=np.int64,
        count=3 + 2 * n + 2 * m,
    )
    bits = max(int(ints.max()).bit_length(), (~int(ints.min())).bit_length())
    code = 0 if bits < 8 else 1 if bits < 16 else 2 if bits < 32 else 3
    out = bytearray((code,))
    out += ints.astype(_INT_DTYPES[code]).tobytes()
    out += feat_block
    if m:
        weights, efeats = zip(*edges.values())
        out += np.array(weights, dtype="<f8").tobytes()
        if set(map(type, efeats)) != {type(None)}:
            out += encode_block(list(efeats))
    return bytes(out)


def _parse_wire(wire: bytes):
    """Inverse of :func:`_build_wire`: ``(nodes, edges)``."""
    buf = memoryview(wire)
    dtype = np.dtype(_INT_DTYPES[buf[0]])
    n, m, feat_bytes = np.frombuffer(buf, dtype=dtype, count=3, offset=1).tolist()
    offset = 1 + 3 * dtype.itemsize
    ints = np.frombuffer(buf, dtype=dtype, count=2 * n + 2 * m, offset=offset).tolist()
    offset += (2 * n + 2 * m) * dtype.itemsize
    feats = decode_block(buf[offset : offset + feat_bytes])
    offset += feat_bytes
    if len(feats) != n:
        raise ValueError(f"feature block holds {len(feats)} rows, header promised {n}")
    nodes = dict(zip(ints[:n], zip(feats, ints[n : 2 * n])))
    if not m:
        return nodes, {}
    weights = np.frombuffer(buf, dtype="<f8", count=m, offset=offset).tolist()
    offset += 8 * m
    efeats = decode_block(buf[offset:]) if offset < len(buf) else [None] * m
    if len(efeats) != m:
        raise ValueError(f"edge-feature block holds {len(efeats)} rows, header promised {m}")
    pairs = ints[2 * n :]
    edges = dict(zip(zip(pairs[0::2], pairs[1::2]), zip(weights, efeats)))
    return nodes, edges


register_record(0x20, SubgraphInfo, ("root", "wire"), make=SubgraphInfo.from_wire)
register_record(0x21, InEdgeInfo, ("src", "weight", "edge_feat", "subgraph"))
