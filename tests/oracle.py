"""Brute-force references the kernels are checked against.

:class:`DictSubgraph` is GraphFlat's merge as it was written per node before
the batch kernel (``repro.core.graphflat.records.merge_neighborhoods``): a
neighborhood is two dicts — ``nodes``: id -> (feature row, hop), ``edges``:
(src, dst) -> (weight, edge-feature row) — grown one sampled neighbor at a
time (:meth:`DictSubgraph.absorb_neighbor`), encoded in dict order
(:meth:`DictSubgraph.wire`) and flattened by a per-edge loop
(:meth:`DictSubgraph.to_graph_feature`).  The kernel must produce the same
neighborhoods, the same flattened arrays and wire blocks of the same length.

:class:`PairSpillWriter` is the shuffle's spill writer as it was written per
pair before record batches; the batch writer must write its run files byte
for byte.
"""

from __future__ import annotations

import struct
from itertools import chain
from pathlib import Path

import numpy as np

from repro.core.graphflat.records import SubgraphInfo
from repro.graph.subgraph import GraphFeature
from repro.mapreduce.shuffle import key_bytes, key_ident
from repro.mapreduce.spill import (
    _CODEC_IDS,
    _GROUP_BYTES,
    _IO_BUFFER_BYTES,
    SpillWriteResult,
    _encode_key_table,
    _iter_chunks,
)
from repro.proto.framing import approx_nbytes, encode_block, write_frame, write_stream_header

__all__ = ["DictSubgraph", "PairSpillWriter", "assert_same_subgraph", "random_subgraph"]

_INT_DTYPES = ("<i1", "<i2", "<i4", "<i8")


class DictSubgraph:
    """Accumulated neighborhood of ``root`` as per-node dicts; re-discovered
    nodes keep the *minimum* hop, the connecting edge is (re)set last."""

    def __init__(self, root: int, nodes: dict, edges: dict | None = None):
        self.root = root
        self.nodes = nodes
        self.edges = {} if edges is None else edges

    @classmethod
    def seed(cls, node_id: int, feature: np.ndarray) -> "DictSubgraph":
        return cls(node_id, {node_id: (feature, 0)})

    @classmethod
    def of(cls, info: SubgraphInfo) -> "DictSubgraph":
        c = info.columns
        edge_feat = [None] * len(c.src) if c.edge_feat is None else list(c.edge_feat)
        return cls(
            info.root,
            dict(zip(c.ids.tolist(), zip(list(c.x), c.hops.tolist()))),
            dict(zip(zip(c.src.tolist(), c.dst.tolist()), zip(c.weight.tolist(), edge_feat))),
        )

    def to_info(self) -> SubgraphInfo:
        """The same neighborhood as a column-resident record."""
        feats, hops = zip(*self.nodes.values())
        pairs = list(self.edges)
        weights = [w for w, _ in self.edges.values()]
        edge_feat = [ef for _, ef in self.edges.values()]
        if all(ef is None for ef in edge_feat):
            edge_feat = None
        return SubgraphInfo(
            self.root, list(self.nodes), hops, feats,
            [s for s, _ in pairs], [d for _, d in pairs], weights, edge_feat,
        )

    def copy(self) -> "DictSubgraph":
        return DictSubgraph(self.root, dict(self.nodes), dict(self.edges))

    def absorb_neighbor(self, neighbor: "DictSubgraph", weight: float, edge_feat) -> None:
        for node_id, (feat, hop) in neighbor.nodes.items():
            mine = self.nodes.get(node_id)
            if mine is None or hop + 1 < mine[1]:
                self.nodes[node_id] = (feat, hop + 1)
        for key, value in neighbor.edges.items():
            if key not in self.edges:
                self.edges[key] = value
        self.edges[(neighbor.root, self.root)] = (weight, edge_feat)

    @staticmethod
    def merge(self_info: "DictSubgraph", sampled) -> "DictSubgraph":
        """``sampled``: ``(neighbor, weight, edge_feat)`` per in-edge."""
        merged = self_info.copy()
        for neighbor, weight, edge_feat in sampled:
            merged.absorb_neighbor(neighbor, weight, edge_feat)
        return merged

    def wire(self) -> bytes:
        """The record's wire block, ids and edges in dict order."""
        nodes, edges = self.nodes, self.edges
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

    def to_graph_feature(self) -> GraphFeature:
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
        efeat = None
        if any(ef is not None for _, ef in self.edges.values()):
            dim = next(len(ef) for _, ef in self.edges.values() if ef is not None)
            efeat = np.zeros((m, dim), dtype=np.float32)
        for i, ((s, d), (w, ef)) in enumerate(self.edges.items()):
            src[i] = pos[s]
            dst[i] = pos[d]
            weight[i] = w
            if efeat is not None and ef is not None:
                efeat[i] = ef
        order = np.lexsort((src, dst))
        return GraphFeature(
            np.asarray([self.root]), node_ids, x, hops, src[order], dst[order],
            None if efeat is None else efeat[order], weight[order],
        )


class PairSpillWriter:
    """The spill writer as it was written per pair before record batches:
    ``extend`` routes and ``_add`` buffers one ``(key, value)`` at a time,
    sizing each value with ``approx_nbytes`` and flushing the moment the
    run bounds fill.  The batch writer (``repro.mapreduce.spill.
    SpillRunWriter``) must write the same run files byte for byte and
    report the same ``SpillWriteResult`` for the same pairs."""

    def __init__(self, layout, map_task, combiner=None, run_records=1 << 16, run_bytes=32 << 20):
        self._layout = layout
        self._map_task = map_task
        self._combiner = combiner
        self._run_records = run_records
        self._run_bytes = run_bytes
        num = layout.num_partitions
        self._buffers = [{} for _ in range(num)]  # partition -> ident -> [key, values, nbytes]
        self._routes = {}
        self._pending_records = self._pending_bytes = 0
        self._next_run = [0] * num
        self._counts = [0] * num
        self._partition_bytes = [0] * num
        self._bytes_written = self._peak_flush = 0

    def append(self, partition, key, value):
        self._add(partition, key_ident(key), key, value)

    def extend(self, pairs, partitioner):
        num = self._layout.num_partitions
        for key, value in pairs:
            ident = key if type(key) is int else key_ident(key)
            partition = self._routes.get(ident)
            if partition is None:
                partition = self._routes[ident] = partitioner(key, num)
            self._add(partition, ident, key, value)

    def _add(self, partition, ident, key, value):
        nbytes = approx_nbytes(value)
        entry = self._buffers[partition].get(ident)
        if entry is None:
            self._buffers[partition][ident] = [key, [value], nbytes]
            self._pending_bytes += nbytes + _GROUP_BYTES
        else:
            entry[1].append(value)
            entry[2] += nbytes
            self._pending_bytes += nbytes
        self._pending_records += 1
        if self._pending_records >= self._run_records or self._pending_bytes >= self._run_bytes:
            self._flush()

    def _flush(self):
        if not self._pending_records:
            return
        layout = self._layout
        Path(layout.root).mkdir(parents=True, exist_ok=True)
        flushed = 0
        for partition, buffer in enumerate(self._buffers):
            if not buffer:
                continue
            groups = []
            for ident, (key, values, nbytes) in buffer.items():
                if self._combiner is not None and len(values) > 1:
                    values = list(self._combiner.combine(key, values))
                    nbytes = sum(map(approx_nbytes, values))
                groups.append((ident if type(ident) is bytes else key_bytes(key), values, nbytes))
            groups.sort(key=lambda group: group[0])
            buffer.clear()
            path = layout.run_path(self._map_task, partition, self._next_run[partition])
            with open(path, "wb", buffering=_IO_BUFFER_BYTES) as fh:
                written = write_stream_header(fh, _CODEC_IDS[layout.codec])
                for keys, counts, values in _iter_chunks(groups):
                    self._counts[partition] += len(values)
                    written += write_frame(
                        fh, _encode_key_table(keys, counts), layout._encode_block(values)
                    )
            self._next_run[partition] += 1
            self._partition_bytes[partition] += written
            flushed += written
        self._routes.clear()
        self._bytes_written += flushed
        self._peak_flush = max(self._peak_flush, flushed)
        self._pending_records = self._pending_bytes = 0

    def finish(self):
        self._flush()
        return SpillWriteResult(
            list(self._counts), self._bytes_written, self._peak_flush,
            tuple(self._partition_bytes),
        )


def random_subgraph(
    rng: np.random.Generator, *, num_nodes=6, num_edges=8, dim=5, edge_feat="uniform"
) -> DictSubgraph:
    """A random neighborhood rooted at its first node: ``edge_feat`` is
    ``uniform`` (3-wide rows), ``empty`` (0-wide rows) or ``none``."""
    ids = rng.choice(10_000, size=num_nodes, replace=False).astype(np.int64)
    nodes = {
        int(i): (rng.standard_normal(dim).astype(np.float32), int(rng.integers(0, 4)))
        for i in ids
    }
    width = {"uniform": 3, "empty": 0, "none": None}[edge_feat]
    edges = {}
    for _ in range(num_edges):
        s, d = (int(x) for x in rng.choice(ids, size=2))
        ef = None if width is None else rng.standard_normal(width).astype(np.float32)
        edges[(s, d)] = (float(rng.standard_normal()), ef)
    return DictSubgraph(int(ids[0]), nodes, edges)


def assert_same_subgraph(a: SubgraphInfo, b: SubgraphInfo) -> None:
    """Same root and columns: ids, hops, dtypes, shapes, float bits."""
    assert a.root == b.root
    ca, cb = a.columns, b.columns
    for name in ("ids", "hops", "x", "src", "dst"):
        x, y = getattr(ca, name), getattr(cb, name)
        assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y), name
    assert struct.pack(f"<{len(ca.weight)}d", *ca.weight) == struct.pack(
        f"<{len(cb.weight)}d", *cb.weight
    )
    if ca.edge_feat is None:
        assert cb.edge_feat is None
    else:
        assert ca.edge_feat.dtype == cb.edge_feat.dtype
        assert ca.edge_feat.shape == cb.edge_feat.shape
        assert ca.edge_feat.tobytes() == cb.edge_feat.tobytes()
