"""Columnar shard frame — the mmap-able training-dataset layout.

The row format (``repro.proto.stream``) frames every sample as its own byte
string, so a trainer must run the varint decoder record by record in a
single GIL-bound thread before it can build a batch — the storage layer caps
the trainer no matter how many cores exist.  This module is the columnar
alternative (the GraphStorm/GiGL route): one shard holds *stacked* matrices
for a whole block of samples plus int64 offset tables, so a reader mmaps the
file once and materialises any sample — or a whole batch — by slicing,
with zero per-element decoding.

File layout::

    "AGLC" | u8 version | u8 pad | u32le header_len | u32le header_crc
    header JSON (utf-8)            <- record count, kind, dtype/shape table
    zero padding to a 64-byte boundary
    array blocks, each 64-byte aligned, raw little-endian

The header is deterministic JSON (sorted keys) carrying ``num_records``,
the shard ``kind`` and, per array, ``name``/``dtype``/``shape``/``offset``
— everything a reader needs to build zero-copy views over one mmap of the
file.  Two kinds exist:

* ``samples`` — GraphFlat training triples.  Per-record arrays
  (``sample_ids``, ``labels``) are indexed directly; ragged arrays
  (``node_ids``/``hops``/``x``, ``edge_*``, ``target_ids``) are stacked and
  sliced through ``*_offsets`` prefix-sum tables.
* ``predictions`` — GraphInfer output: ``node_ids`` plus a stacked
  ``scores`` matrix.

Round-trip fidelity is the contract: :meth:`ColumnarShard.iter_wire`
re-encodes every record through the row codec and is byte-identical to what
the row layout would have written for the same records — which is what lets
``DistFileSystem.read_dataset`` stay layout-transparent.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from repro.graph.subgraph import (
    GatheredRows,
    GraphFeature,
    StackedFeatures,
    split_by_source,
    take_rows,
)
from repro.proto.codec import (
    CodecError,
    decode_prediction,
    decode_sample,
    encode_prediction,
    encode_sample,
)

__all__ = [
    "SHARD_MAGIC",
    "ColumnarShard",
    "gather_column",
    "gather_samples",
    "shard_record_count",
    "write_prediction_shard",
    "write_sample_shard",
]

SHARD_MAGIC = b"AGLC"
_VERSION = 1
_TYPED_VERSION = 2
"""Header version gate for the task-layer extensions: shards carrying an
edge-level task tag or per-type (heterogeneous) blocks are written as
version 2; plain node-classification shards stay version 1 — byte-identical
to the pre-task format (tested).  The reader accepts both."""
_ALIGN = 64
_HEAD = struct.Struct("<4sBxII")  # magic, version, pad, header_len, header_crc

_LABEL_KINDS = ("none", "int", "vector")


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _write_atomic(path: str | Path, data: bytes) -> None:
    """Commit a shard via temp file + ``os.replace`` so a writer that dies
    mid-write (a reducer-owned sink task, say) can never leave a truncated
    shard under the final name — re-executions simply overwrite."""
    final = Path(path)
    tmp = final.with_name(f"{final.name}.tmp{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, final)


def _pack(
    arrays: list[tuple[str, np.ndarray]],
    kind: str,
    meta: dict,
    num_records: int,
    version: int = _VERSION,
) -> bytes:
    """Assemble header + aligned blocks into one shard byte string."""
    blocks: list[tuple[dict, bytes]] = []
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr)
        if arr.dtype.byteorder == ">":  # shards are little-endian on disk
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        blocks.append(
            (
                {"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)},
                arr.tobytes(),
            )
        )
    # Two passes: header length depends on offsets, offsets depend on header
    # length.  Fix the header size with a draft that has final digit widths
    # (offsets only grow monotonically, so pad the draft with max offsets).
    def render(offsets: list[int]) -> bytes:
        table = [dict(spec, offset=off) for (spec, _), off in zip(blocks, offsets)]
        header = {
            "arrays": table,
            "kind": kind,
            "meta": meta,
            "num_records": int(num_records),
        }
        return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")

    offsets = [0] * len(blocks)
    raw = render(offsets)
    for _ in range(4):  # converges once offsets' digit counts stabilise
        data_start = _align(_HEAD.size + len(raw))
        cursor = data_start
        new_offsets = []
        for _, payload in blocks:
            new_offsets.append(cursor)
            cursor = _align(cursor + len(payload))
        new_raw = render(new_offsets)
        if len(new_raw) == len(raw) and new_offsets == offsets:
            raw = new_raw
            break
        offsets, raw = new_offsets, new_raw
    else:  # pragma: no cover - defensive; 4 passes always suffice
        raise RuntimeError("columnar header failed to stabilise")

    out = bytearray(_HEAD.pack(SHARD_MAGIC, version, len(raw), zlib.crc32(raw) & 0xFFFFFFFF))
    out += raw
    for (_, payload), off in zip(blocks, offsets):
        out += b"\x00" * (off - len(out))
        out += payload
    return bytes(out)


# ------------------------------------------------------------------ writers
def write_sample_shard(path: str | Path, samples, task: str | None = None) -> int:
    """Write GraphFlat training triples as one columnar shard.

    ``samples`` is an iterable of either wire-format ``bytes`` records or
    decoded ``(target_id, label, GraphFeature)`` triples — GraphFlat hands
    the triples straight from its final reduce, skipping the per-sample
    re-framing pass entirely.  Returns the record count.

    ``task`` tags the shard with a non-default task name (edge-level
    tasks key records by target-edge index, not node id).  A task tag or
    typed (heterogeneous) per-record blocks gate the shard to header
    version 2; plain node-classification shards stay byte-identical v1.
    """
    triples = [
        decode_sample(s) if isinstance(s, (bytes, bytearray)) else s for s in samples
    ]
    n = len(triples)
    sample_ids = np.asarray([int(t) for t, _, _ in triples], dtype=np.int64)

    label_kind = "none"
    labels: np.ndarray | None = None
    if n and triples[0][1] is not None:
        if any(lbl is None for _, lbl, _ in triples):
            raise ValueError("columnar shard mixes labeled and unlabeled samples")
        if np.ndim(triples[0][1]) == 0:
            label_kind = "int"
            labels = np.asarray([int(lbl) for _, lbl, _ in triples], dtype=np.int64)
        else:
            label_kind = "vector"
            labels = np.stack(
                [np.atleast_1d(np.asarray(lbl, dtype=np.float32)) for _, lbl, _ in triples]
            )
    elif any(lbl is not None for _, lbl, _ in triples):
        raise ValueError("columnar shard mixes labeled and unlabeled samples")

    gfs = [gf for _, _, gf in triples]
    fn = gfs[0].feature_dim if gfs else 0
    fe = gfs[0].edge_feature_dim if gfs else 0
    if any(gf.feature_dim != fn for gf in gfs):
        raise ValueError("columnar shard requires a uniform node feature dim")
    if any(gf.edge_feature_dim != fe for gf in gfs):
        raise ValueError("columnar shard requires a uniform edge feature dim")

    def offsets(counts) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)]).astype(np.int64)

    def stack(rows, dtype, width=None):
        if rows:
            return np.concatenate(rows).astype(dtype, copy=False)
        shape = (0,) if width is None else (0, width)
        return np.zeros(shape, dtype=dtype)

    arrays: list[tuple[str, np.ndarray]] = [
        ("sample_ids", sample_ids),
        ("target_offsets", offsets([len(gf.target_ids) for gf in gfs])),
        ("target_ids", stack([gf.target_ids for gf in gfs], np.int64)),
        ("node_offsets", offsets([gf.num_nodes for gf in gfs])),
        ("node_ids", stack([gf.node_ids for gf in gfs], np.int64)),
        ("hops", stack([gf.hops for gf in gfs], np.int64)),
        ("x", stack([gf.x for gf in gfs], np.float32, width=fn)),
        ("edge_offsets", offsets([gf.num_edges for gf in gfs])),
        ("edge_src", stack([gf.edge_src for gf in gfs], np.int64)),
        ("edge_dst", stack([gf.edge_dst for gf in gfs], np.int64)),
        ("edge_weight", stack([gf.edge_weight for gf in gfs], np.float32)),
    ]
    if fe:
        if any(gf.edge_feat is None for gf in gfs):
            raise ValueError("columnar shard mixes edge-featured and bare samples")
        arrays.append(("edge_feat", stack([gf.edge_feat for gf in gfs], np.float32, width=fe)))
    typed_nodes = bool(gfs) and gfs[0].node_type is not None
    typed_edges = bool(gfs) and gfs[0].edge_type is not None
    if typed_nodes:
        if any(gf.node_type is None for gf in gfs):
            raise ValueError("columnar shard mixes typed and untyped samples")
        arrays.append(("node_type", stack([gf.node_type for gf in gfs], np.int64)))
    if typed_edges:
        if any(gf.edge_type is None for gf in gfs):
            raise ValueError("columnar shard mixes typed and untyped samples")
        arrays.append(("edge_type", stack([gf.edge_type for gf in gfs], np.int64)))
    if labels is not None:
        arrays.insert(1, ("labels", labels))

    meta = {
        "edge_feature_dim": int(fe),
        "feature_dim": int(fn),
        "label": label_kind,
        "label_dim": 0 if label_kind != "vector" else int(labels.shape[1]),
    }
    # Extended (v2) header fields only when the extension is actually used —
    # the default node-classification shard must not change by a byte.
    extended = typed_nodes or typed_edges or (
        task is not None and task != "node_classification"
    )
    if task is not None and task != "node_classification":
        meta["task"] = task
    if typed_nodes:
        meta["num_node_types"] = int(
            max(int(gf.node_type.max(initial=-1)) for gf in gfs) + 1
        )
    if typed_edges:
        meta["num_edge_types"] = int(
            max(int(gf.edge_type.max(initial=-1)) for gf in gfs) + 1
        )
    version = _TYPED_VERSION if extended else _VERSION
    _write_atomic(path, _pack(arrays, "samples", meta, n, version=version))
    return n


def write_prediction_shard(path: str | Path, predictions) -> int:
    """Write GraphInfer ``(node_id, scores)`` records as one columnar shard."""
    records = [
        decode_prediction(p) if isinstance(p, (bytes, bytearray)) else p
        for p in predictions
    ]
    n = len(records)
    node_ids = np.asarray([int(v) for v, _ in records], dtype=np.int64)
    dim = len(np.ravel(records[0][1])) if records else 0
    scores = (
        np.stack([np.asarray(s, dtype=np.float32).ravel() for _, s in records])
        if records
        else np.zeros((0, 0), dtype=np.float32)
    )
    arrays = [("node_ids", node_ids), ("scores", scores)]
    meta = {"score_dim": int(dim)}
    _write_atomic(path, _pack(arrays, "predictions", meta, n))
    return n


# ------------------------------------------------------------------- reader
def _read_header(path: Path) -> tuple[dict, int]:
    """Parse and CRC-check the shard header; returns ``(header, data_len)``."""
    with open(path, "rb") as fh:
        head = fh.read(_HEAD.size)
        if len(head) != _HEAD.size:
            raise CodecError(f"{path}: truncated columnar shard header")
        magic, version, hlen, hcrc = _HEAD.unpack(head)
        if magic != SHARD_MAGIC:
            raise CodecError(f"{path}: bad magic — not a columnar shard")
        if version not in (_VERSION, _TYPED_VERSION):
            raise CodecError(f"{path}: unsupported columnar shard version {version}")
        raw = fh.read(hlen)
    if len(raw) != hlen or zlib.crc32(raw) & 0xFFFFFFFF != hcrc:
        raise CodecError(f"{path}: corrupt columnar shard header")
    return json.loads(raw), path.stat().st_size


def shard_record_count(path: str | Path) -> int:
    """Record count from the shard header alone — O(header), not O(bytes)."""
    header, _ = _read_header(Path(path))
    return int(header["num_records"])


class ColumnarShard:
    """Zero-copy reader over one columnar shard file.

    The file is mmap'd once; every array is a read-only view into that
    mapping, so opening a shard costs the header parse and nothing else.
    ``sample(i)`` builds :class:`GraphFeature` objects whose arrays alias
    the mapping (vectorized decode: pure slicing, no varint loops);
    ``gather(rows)`` skips the objects and returns the batch as stacked
    columns, which is what the trainer reads.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        header, size = _read_header(self.path)
        self.kind: str = header["kind"]
        self.num_records: int = int(header["num_records"])
        self.meta: dict = header["meta"]
        self._specs = {spec["name"]: spec for spec in header["arrays"]}
        for spec in self._specs.values():
            nbytes = int(np.prod(spec["shape"])) * np.dtype(spec["dtype"]).itemsize
            if spec["offset"] + nbytes > size:
                raise CodecError(f"{self.path}: array {spec['name']!r} truncated")
        self._buf = (
            np.memmap(self.path, dtype=np.uint8, mode="r")
            if size
            else np.zeros(0, dtype=np.uint8)
        )
        self._views: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return self.num_records

    def array(self, name: str) -> np.ndarray:
        """Read-only zero-copy view of a named block."""
        view = self._views.get(name)
        if view is None:
            spec = self._specs[name]
            dtype = np.dtype(spec["dtype"])
            shape = tuple(spec["shape"])
            nbytes = int(np.prod(shape)) * dtype.itemsize
            start = spec["offset"]
            # .view(np.ndarray) drops the memmap subclass so downstream
            # pickling (process-pool prefetch) serialises plain arrays.
            view = (
                self._buf[start : start + nbytes]
                .view(np.ndarray)
                .view(dtype)
                .reshape(shape)
            )
            self._views[name] = view
        return view

    @property
    def label_kind(self) -> str:
        return self.meta.get("label", "none")

    @property
    def task(self) -> str:
        """Recorded task tag; pre-task (v1) shards default to the only
        task that existed when they were written."""
        return self.meta.get("task", "node_classification")

    def _check_kind(self, expected: str) -> None:
        if self.kind != expected:
            raise CodecError(f"{self.path}: shard holds {self.kind!r}, not {expected!r}")

    # ------------------------------------------------------------- samples
    def label(self, i: int):
        self._check_kind("samples")
        if self.label_kind == "none":
            return None
        if self.label_kind == "int":
            return int(self.array("labels")[i])
        return self.array("labels")[i]

    def graph_feature(self, i: int) -> GraphFeature:
        self._check_kind("samples")
        t = self.array("target_offsets")
        n = self.array("node_offsets")
        e = self.array("edge_offsets")
        tl, th = int(t[i]), int(t[i + 1])
        nl, nh = int(n[i]), int(n[i + 1])
        el, eh = int(e[i]), int(e[i + 1])
        fe = int(self.meta.get("edge_feature_dim", 0))
        return GraphFeature(
            self.array("target_ids")[tl:th],
            self.array("node_ids")[nl:nh],
            self.array("x")[nl:nh],
            self.array("hops")[nl:nh],
            self.array("edge_src")[el:eh],
            self.array("edge_dst")[el:eh],
            self.array("edge_feat")[el:eh] if fe else None,
            self.array("edge_weight")[el:eh],
            self.array("node_type")[nl:nh] if "node_type" in self._specs else None,
            self.array("edge_type")[el:eh] if "edge_type" in self._specs else None,
        )

    def sample(self, i: int):
        """Decoded ``(target_id, label, GraphFeature)`` triple for row ``i``."""
        if not 0 <= i < self.num_records:
            raise IndexError(f"shard has {self.num_records} records")
        return int(self.array("sample_ids")[i]), self.label(i), self.graph_feature(i)

    def gather(self, rows) -> StackedFeatures:
        """The samples at ``rows``, in that order, as one stacked record
        (see :func:`gather_samples`)."""
        return gather_samples([self], np.zeros(len(rows), dtype=np.int64), rows)

    # --------------------------------------------------------- predictions
    def prediction(self, i: int) -> tuple[int, np.ndarray]:
        self._check_kind("predictions")
        return int(self.array("node_ids")[i]), self.array("scores")[i]

    # -------------------------------------------------------------- compat
    def iter_wire(self):
        """Yield every record re-encoded to its row wire form.

        Byte-identical to what the row layout would hold for the same
        records — the compatibility bridge that keeps ``read_dataset``
        layout-transparent (tested).
        """
        if self.kind == "samples":
            for i in range(self.num_records):
                target_id, label, gf = self.sample(i)
                yield encode_sample(target_id, label, gf)
        elif self.kind == "predictions":
            for i in range(self.num_records):
                node_id, scores = self.prediction(i)
                yield encode_prediction(node_id, scores)
        else:  # pragma: no cover - defensive
            raise CodecError(f"unknown columnar shard kind {self.kind!r}")


# ------------------------------------------------------------ batch gather
def _read(shards, groups, name: str, positions: np.ndarray) -> np.ndarray:
    """Column ``name`` at ``positions[j]`` of the shard that owns output
    slot ``j`` (``groups`` from :func:`split_by_source`)."""
    return take_rows([shard.array(name) for shard in shards], groups, positions)


def gather_column(
    shards: list[ColumnarShard], shard_of: np.ndarray, rows: np.ndarray, name: str
) -> np.ndarray:
    """Per-record column ``name`` (``sample_ids``, ``labels``) for records
    ``rows[j]`` of ``shards[shard_of[j]]``, in ``j`` order."""
    return _read(shards, split_by_source(shard_of, len(shards)), name, rows)


def gather_samples(
    shards: list[ColumnarShard], shard_of: np.ndarray, rows: np.ndarray
) -> StackedFeatures:
    """A batch as one stacked record: sample ``j`` is row ``rows[j]`` of
    ``shards[shard_of[j]]``.

    A ragged-range gather: each offset table turns the batch's rows into
    element positions (``np.repeat`` + ``arange``), then every column is
    read with one fancy-index per shard straight off the mapping and
    scattered into batch order — no per-sample objects, no decoding.  ``x``
    stays in the shards as :class:`GatheredRows`; the merge copies only the
    rows it keeps.
    """
    for shard in shards:
        shard._check_kind("samples")
    rows = np.asarray(rows, dtype=np.int64)
    sizes = np.asarray([len(shard) for shard in shards], dtype=np.int64)
    if len(rows) and ((rows < 0).any() or (rows >= sizes[shard_of]).any()):
        raise IndexError("sample row outside its shard")
    head = shards[0]
    samples = split_by_source(shard_of, len(shards))

    def ragged(table: str):
        """Batch offsets of one ragged block, plus where its elements
        live: shard-local positions, their shard, and the shard groups."""
        starts = _read(shards, samples, table, rows)
        counts = _read(shards, samples, table, rows + 1) - starts
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        positions = np.arange(offsets[-1], dtype=np.int64)
        positions += np.repeat(starts - offsets[:-1], counts)
        which = None if samples is None else np.repeat(shard_of, counts)
        return offsets, positions, which, split_by_source(which, len(shards))

    t_off, t_pos, _, t_groups = ragged("target_offsets")
    n_off, n_pos, n_which, n_groups = ragged("node_offsets")
    e_off, e_pos, _, e_groups = ragged("edge_offsets")

    def optional(name, groups, positions):
        return _read(shards, groups, name, positions) if name in head._specs else None

    return StackedFeatures(
        target_offsets=t_off,
        target_ids=_read(shards, t_groups, "target_ids", t_pos),
        node_offsets=n_off,
        node_ids=_read(shards, n_groups, "node_ids", n_pos),
        hops=_read(shards, n_groups, "hops", n_pos),
        x=GatheredRows([shard.array("x") for shard in shards], n_which, n_pos),
        edge_offsets=e_off,
        edge_src=_read(shards, e_groups, "edge_src", e_pos),
        edge_dst=_read(shards, e_groups, "edge_dst", e_pos),
        edge_weight=_read(shards, e_groups, "edge_weight", e_pos),
        edge_feat=optional("edge_feat", e_groups, e_pos),
        node_type=optional("node_type", n_groups, n_pos),
        edge_type=optional("edge_type", e_groups, e_pos),
        sample_ids=_read(shards, samples, "sample_ids", rows),
        labels=optional("labels", samples, rows),
    )
