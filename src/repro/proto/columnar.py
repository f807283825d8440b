"""Columnar shard frame — the one dataset format on the DFS.

A dataset of per-record byte strings would make a trainer run the varint
decoder record by record in a single GIL-bound thread before it can build a
batch — the storage layer would cap the trainer no matter how many cores
exist.  So a shard is columnar (the GraphStorm/GiGL route): it holds
*stacked* matrices for a whole block of samples plus int64 offset tables,
so a reader mmaps the file once and materialises any sample — or a whole
batch — by slicing, with zero per-element decoding.

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
re-encodes every record through the record codec (``repro.proto.codec``)
byte-identically to ``encode_sample`` / ``encode_prediction`` of the same
records — which is what ``DistFileSystem.read_dataset`` yields.  A file
that does not start with the ``AGLC`` magic is refused with a
:class:`~repro.proto.codec.CodecError` naming its path.
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
    "stack_triples",
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


_STACKED = (
    "target_offsets", "target_ids", "node_offsets", "node_ids", "hops", "x",
    "edge_offsets", "edge_src", "edge_dst", "edge_weight",
)
"""The blocks every samples shard has, in
:class:`~repro.graph.subgraph.StackedFeatures` field order."""


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _write_shard(
    path: str | Path,
    blocks: list[tuple[str, str, tuple, list[np.ndarray]]],
    kind: str,
    meta: dict,
    num_records: int,
    version: int = _VERSION,
) -> int:
    """Write one shard: ``blocks`` are ``(name, dtype, shape, parts)``, the
    block's rows being its parts end to end — a column's per-batch arrays,
    cast to the block's little-endian ``dtype`` one part at a time.  The
    header is rendered from the shapes alone, then streamed into a temp
    file with every block 64-byte aligned after it, and the file is
    committed by ``os.replace``: a writer that dies mid-write (a
    reducer-owned sink task, say) never leaves a truncated shard under the
    final name, and re-executions simply overwrite.  No block, and no
    shard, is ever one ``bytes``.  Returns ``num_records``."""
    sizes = [int(np.prod(shape)) * np.dtype(dtype).itemsize for _, dtype, shape, _ in blocks]

    # Two passes: header length depends on offsets, offsets depend on header
    # length.  Fix the header size with a draft that has final digit widths
    # (offsets only grow monotonically, so pad the draft with max offsets).
    def render(offsets: list[int]) -> bytes:
        table = [
            {"dtype": dtype, "name": name, "offset": off, "shape": list(shape)}
            for (name, dtype, shape, _), off in zip(blocks, offsets)
        ]
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
        cursor = _align(_HEAD.size + len(raw))
        new_offsets = []
        for size in sizes:
            new_offsets.append(cursor)
            cursor = _align(cursor + size)
        new_raw = render(new_offsets)
        if len(new_raw) == len(raw) and new_offsets == offsets:
            raw = new_raw
            break
        offsets, raw = new_offsets, new_raw
    else:  # pragma: no cover - defensive; 4 passes always suffice
        raise RuntimeError("columnar header failed to stabilise")

    final = Path(path)
    tmp = final.with_name(f"{final.name}.tmp{os.getpid()}")
    with open(tmp, "wb") as fh:
        fh.write(_HEAD.pack(SHARD_MAGIC, version, len(raw), zlib.crc32(raw) & 0xFFFFFFFF))
        fh.write(raw)
        at = _HEAD.size + len(raw)
        for (_, dtype, _, parts), off, size in zip(blocks, offsets, sizes):
            fh.write(bytes(off - at))
            for part in parts:
                fh.write(np.ascontiguousarray(part, dtype=dtype).reshape(-1).view(np.uint8))
            at = off + size
    os.replace(tmp, final)
    return num_records


def _all_or_none(parts: list, mix: str) -> bool:
    """Whether every part is set (``False`` for none); a mix is refused."""
    if any(part is None for part in parts) and any(part is not None for part in parts):
        raise ValueError(f"batch mixes {mix}")
    return bool(parts) and parts[0] is not None


def _block(name: str, dtype: str, parts: list[np.ndarray], empty: tuple) -> tuple:
    """A block of ``parts`` end to end; of shape ``empty`` with no parts."""
    if not parts:
        return name, dtype, empty, []
    return name, dtype, (sum(len(part) for part in parts), *parts[0].shape[1:]), parts


def _offsets(tables: list[np.ndarray]) -> list[np.ndarray]:
    """Per-batch offset tables as the parts of the shard's one table."""
    parts, base = [np.zeros(1, dtype=np.int64)], 0
    for table in tables:
        parts.append(table[1:] - table[0] + base)
        base += int(table[-1] - table[0])
    return parts


# ------------------------------------------------------------------ writers
def _sample_blocks(batches: list[StackedFeatures], task: str | None):
    """The blocks of a samples shard holding ``batches`` end to end, as
    :func:`_write_shard` takes them: ``(blocks, meta, num_records,
    version)``.  Shared by the writer and the in-memory shard, so both hold
    the same columns."""
    batches = [batch for batch in batches if batch.num_samples]
    n = sum(batch.num_samples for batch in batches)

    def column(name: str) -> list:
        return [getattr(batch, name) for batch in batches]

    labels = column("labels")
    label_kind = "none"
    if _all_or_none(labels, "labeled and unlabeled samples"):
        label_kind = "int" if labels[0].ndim == 1 else "vector"
    if len({batch.x.shape[1:] for batch in batches}) > 1:
        raise ValueError("columnar shard requires a uniform node feature dim")
    featured = [
        batch.edge_feat for batch in batches
        if batch.edge_feat is not None or len(batch.edge_src)
    ]
    if not _all_or_none(featured, "edge-featured and bare samples"):
        featured = []
    if len({part.shape[1:] for part in featured}) > 1:
        raise ValueError("columnar shard requires a uniform edge feature dim")
    fn = batches[0].x.shape[1] if batches else 0
    fe = featured[0].shape[1] if featured else 0

    blocks = [
        _block("sample_ids", "<i8", column("sample_ids"), (0,)),
        ("target_offsets", "<i8", (n + 1,), _offsets(column("target_offsets"))),
        _block("target_ids", "<i8", column("target_ids"), (0,)),
        ("node_offsets", "<i8", (n + 1,), _offsets(column("node_offsets"))),
        _block("node_ids", "<i8", column("node_ids"), (0,)),
        _block("hops", "<i8", column("hops"), (0,)),
        _block("x", "<f4", column("x"), (0, fn)),
        ("edge_offsets", "<i8", (n + 1,), _offsets(column("edge_offsets"))),
        _block("edge_src", "<i8", column("edge_src"), (0,)),
        _block("edge_dst", "<i8", column("edge_dst"), (0,)),
        _block("edge_weight", "<f4", column("edge_weight"), (0,)),
    ]
    if fe:
        blocks.append(_block("edge_feat", "<f4", featured, (0, fe)))
    meta = {}
    for name, count in (("node_type", "num_node_types"), ("edge_type", "num_edge_types")):
        types = column(name)
        if not _all_or_none(types, "typed and untyped samples"):
            continue
        blocks.append(_block(name, "<i8", types, (0,)))
        meta[count] = max(int(part.max(initial=-1)) for part in types) + 1
    if label_kind != "none":
        blocks.insert(1, _block("labels", "<i8" if label_kind == "int" else "<f4", labels, ()))

    # Extended (v2) header fields only when the extension is actually used —
    # the default node-classification shard must not change by a byte.
    extended = bool(meta)
    if task is not None and task != "node_classification":
        meta["task"] = task
        extended = True
    meta.update(
        edge_feature_dim=int(fe),
        feature_dim=int(fn),
        label=label_kind,
        label_dim=int(labels[0].shape[1]) if label_kind == "vector" else 0,
    )
    return blocks, meta, n, _TYPED_VERSION if extended else _VERSION


def write_stacked_shard(
    path: str | Path, batches: list[StackedFeatures], task: str | None = None
) -> int:
    """Write GraphFlat samples — stacked batches with their ``sample_ids``
    and ``labels`` (``None``, an int vector or a float32 matrix) — as one
    columnar shard, each column's per-batch parts in batch order.  Returns
    the record count.

    ``task`` tags the shard with a non-default task name (edge-level tasks
    key records by target-edge index, not node id).  A task tag or typed
    (heterogeneous) per-record blocks gate the shard to header version 2;
    plain node-classification shards stay byte-identical v1.  A batch
    without edges may leave ``edge_feat`` unset beside edge-featured ones:
    a sample without edges carries no edge features.
    """
    blocks, meta, n, version = _sample_blocks(batches, task)
    return _write_shard(path, blocks, "samples", meta, n, version=version)


def stack_triples(triples) -> StackedFeatures:
    """Training triples — decoded ``(target_id, label, GraphFeature)`` or
    their wire-format ``bytes`` — stacked into one record
    (:meth:`~repro.graph.subgraph.StackedFeatures.from_features`) with their
    ``sample_ids`` and ``labels``: an ``int64`` vector for int labels, a
    ``float32`` matrix for vector labels, ``None`` for none."""
    triples = [decode_sample(t) if isinstance(t, (bytes, bytearray)) else t for t in triples]
    labels = [label for _, label, _ in triples]
    if not _all_or_none(labels, "labeled and unlabeled samples"):
        labels = None
    elif np.ndim(labels[0]) == 0:
        labels = np.asarray([int(label) for label in labels], dtype=np.int64)
    else:
        labels = np.stack([np.atleast_1d(np.asarray(lbl, dtype=np.float32)) for lbl in labels])
    return StackedFeatures.from_features(
        [gf for _, _, gf in triples],
        sample_ids=np.asarray([int(t) for t, _, _ in triples], dtype=np.int64),
        labels=labels,
    )


def write_sample_shard(path: str | Path, samples, task: str | None = None) -> int:
    """Write training triples — decoded ``(target_id, label, GraphFeature)``
    or their wire-format ``bytes`` — as one columnar shard: a thin adapter
    (:func:`stack_triples`) onto :func:`write_stacked_shard`.  Returns the
    record count."""
    samples = list(samples)
    return write_stacked_shard(path, [stack_triples(samples)] if samples else [], task=task)


def write_prediction_shard(path: str | Path, parts: list[tuple[np.ndarray, np.ndarray]]) -> int:
    """Write GraphInfer predictions — per batch, its ``node_ids`` and their
    ``(rows, score_dim)`` scores — as one columnar shard.  Returns the
    record count."""
    parts = [(ids, scores) for ids, scores in parts if len(ids)]
    n = sum(len(ids) for ids, _ in parts)
    scores = [s.reshape(len(s), -1) for _, s in parts]
    blocks = [
        _block("node_ids", "<i8", [ids for ids, _ in parts], (0,)),
        _block("scores", "<f4", scores, (0, 0)),
    ]
    meta = {"score_dim": int(scores[0].shape[1]) if scores else 0}
    return _write_shard(path, blocks, "predictions", meta, n)


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
    """Zero-copy reader over one columnar shard file — or the same blocks
    held in memory.

    The file is mmap'd once; every array is a read-only view into that
    mapping, so opening a shard costs the header parse and nothing else.
    ``sample(i)`` builds :class:`GraphFeature` objects whose arrays alias
    the mapping (vectorized decode: pure slicing, no varint loops);
    ``gather(rows)`` skips the objects and returns the batch as stacked
    columns, which is what the trainer reads.

    :meth:`from_stacked` builds a samples shard with no file (``path`` is
    ``None``): the arrays :func:`write_stacked_shard` would write, held as
    they are, so everything above reads it the same way.
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
        self._stacked: StackedFeatures | None = None

    @classmethod
    def from_stacked(cls, batches: list[StackedFeatures]) -> "ColumnarShard":
        """An in-memory samples shard holding ``batches`` end to end."""
        blocks, meta, n, _ = _sample_blocks(batches, None)
        arrays = {
            name: np.concatenate(parts or [np.zeros(shape)]).astype(dtype, copy=False)
            for name, dtype, shape, parts in blocks
        }
        return cls._held(arrays, meta, n)

    @classmethod
    def _held(cls, arrays: dict[str, np.ndarray], meta: dict, num_records: int):
        shard = cls.__new__(cls)
        shard.path = None
        shard.kind = "samples"
        shard.num_records = num_records
        shard.meta = meta
        shard._specs = dict.fromkeys(arrays)  # names only: every view is held
        shard._buf = None
        shard._views = arrays
        shard._stacked = None
        return shard

    def subset(self, rows) -> "ColumnarShard":
        """The samples at ``rows``, in that order, as an in-memory shard with
        this shard's blocks and meta (what a pickled sample source ships)."""
        gathered = self.gather(rows)
        arrays = {name: getattr(gathered, name) for name in self._specs}
        arrays["x"] = gathered.node_features()
        if "edge_feat" in arrays and arrays["edge_feat"] is None:  # no edges
            arrays["edge_feat"] = self.array("edge_feat")[:0]
        return self._held(arrays, self.meta, len(rows))

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
    def stacked(self) -> StackedFeatures:
        """The whole shard as one stacked record of views into the mapping."""
        if self._stacked is not None:
            return self._stacked
        self._check_kind("samples")

        def optional(name):
            return self.array(name) if name in self._specs else None

        self._stacked = StackedFeatures(
            *(self.array(name) for name in _STACKED),
            edge_feat=optional("edge_feat"),
            node_type=optional("node_type"),
            edge_type=optional("edge_type"),
            sample_ids=self.array("sample_ids"),
            labels=optional("labels"),
        )
        return self._stacked

    def sample(self, i: int) -> tuple[int, int | np.ndarray | None, GraphFeature]:
        """Decoded ``(target_id, label, GraphFeature)`` triple for row ``i``."""
        if not 0 <= i < self.num_records:
            raise IndexError(f"shard has {self.num_records} records")
        return self.stacked().sample(i)

    def gather(self, rows) -> StackedFeatures:
        """The samples at ``rows``, in that order, as one stacked record
        (see :func:`gather_samples`)."""
        return gather_samples([self], np.zeros(len(rows), dtype=np.int64), rows)

    # --------------------------------------------------------- predictions
    def prediction(self, i: int) -> tuple[int, np.ndarray]:
        self._check_kind("predictions")
        return int(self.array("node_ids")[i]), self.array("scores")[i]

    # ---------------------------------------------------------- wire form
    def iter_wire(self):
        """Yield every record re-encoded to its wire form, byte-identical
        to ``encode_sample`` / ``encode_prediction`` of the same record —
        what ``read_dataset`` yields (tested).
        """
        if self.kind == "samples":
            for i in range(self.num_records):
                yield encode_sample(*self.sample(i))
        elif self.kind == "predictions":
            for i in range(self.num_records):
                yield encode_prediction(*self.prediction(i))
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

    # A batch without edges carries no edge features, like a sample.
    edge_feat = optional("edge_feat", e_groups, e_pos) if len(e_pos) else None

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
        edge_feat=edge_feat,
        node_type=optional("node_type", n_groups, n_pos),
        edge_type=optional("edge_type", e_groups, e_pos),
        sample_ids=_read(shards, samples, "sample_ids", rows),
        labels=optional("labels", samples, rows),
    )
