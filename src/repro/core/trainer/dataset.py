"""Sample sources — the trainer's layout-aware view of a dataset.

GraphTrainer used to accept only in-memory lists (wire bytes or decoded
:class:`TrainSample` objects).  A :class:`SampleSource` generalises that to
"anything with random access to N training triples", which is what lets the
trainer run off mmap'd columnar shards without materialising — or even
decoding — the dataset:

* :class:`MemorySamples` — wraps a list (decoding wire bytes once), the old
  behavior;
* :class:`ColumnarDataset` — random access over the columnar shards of a
  DFS dataset.  ``batch()`` returns a tiny picklable
  :class:`ColumnarBatchRef` instead of sample objects, so a process-pool
  prefetch worker ships a few ints per batch and slices the shard out of
  its own mapping (per-process shard cache).  The ref's ``gather()`` hands
  the batch over as stacked columns (``repro.graph.subgraph.StackedFeatures``)
  — the training loop never builds a per-sample object; ``load_samples()``
  still decodes them for callers that want objects.

:func:`open_sample_source` picks the right source for a DFS dataset from
its layout metadata; both sources present samples in ``read_dataset``
order (shard-major), so switching layouts never changes the data order a
trainer sees — per-epoch losses are bit-identical across layouts (tested).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.trainer.vectorize import TrainSample, decode_samples
from repro.graph.subgraph import StackedFeatures
from repro.proto.columnar import ColumnarShard, gather_column, gather_samples

__all__ = [
    "ColumnarBatchRef",
    "ColumnarDataset",
    "ColumnarSlice",
    "MemorySamples",
    "SampleSource",
    "as_sample_source",
    "open_sample_source",
]


class SampleSource:
    """Random-access source of :class:`TrainSample` records.

    Subclasses implement ``__len__``, :meth:`sample` and :meth:`ids`;
    :meth:`batch` may return any object the
    :class:`~repro.core.trainer.pipeline.BatchPipeline` preparer
    understands (a list of samples, or a picklable ref with a
    ``gather()`` method).
    """

    def __len__(self) -> int:
        raise NotImplementedError  # pragma: no cover - abstract

    def sample(self, i: int) -> TrainSample:
        raise NotImplementedError  # pragma: no cover - abstract

    def ids(self) -> np.ndarray:
        """``(N,) int64`` target id of every sample, in source order."""
        raise NotImplementedError  # pragma: no cover - abstract

    def batch(self, indices: np.ndarray):
        """Pipeline-ready batch for ``indices`` (in the given order)."""
        return [self.sample(int(i)) for i in indices]

    def iter_samples(self):
        for i in range(len(self)):
            yield self.sample(i)

    # ------------------------------------------------------------- labels
    @property
    def label_kind(self) -> str:
        """``"none"`` / ``"int"`` / ``"vector"`` — homogeneous per source."""
        if not len(self):
            return "none"
        label = self.sample(0).label
        if label is None:
            return "none"
        return "int" if np.ndim(label) == 0 else "vector"

    @property
    def label_dim(self) -> int:
        """Vector-label width (0 for int/absent labels)."""
        if self.label_kind != "vector":
            return 0
        return len(self.sample(0).label)

    def max_int_label(self) -> int:
        if self.label_kind != "int":
            raise ValueError("max_int_label needs int labels")
        return max(int(s.label) for s in self.iter_samples())

    def labels_by_id(self) -> dict[int, object]:
        """Target id -> label (evaluation-time lookup)."""
        return {int(s.target_id): s.label for s in self.iter_samples()}


class MemorySamples(SampleSource):
    """The in-memory source: a decoded list of :class:`TrainSample`."""

    def __init__(self, samples: list[TrainSample]):
        self._samples = list(samples)
        self._ids: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._samples)

    def sample(self, i: int) -> TrainSample:
        return self._samples[i]

    def ids(self) -> np.ndarray:
        if self._ids is None:
            self._ids = np.asarray(
                [int(s.target_id) for s in self._samples], dtype=np.int64
            )
        return self._ids

    def batch(self, indices) -> list[TrainSample]:
        return [self._samples[int(i)] for i in indices]

    def iter_samples(self):
        return iter(self._samples)


# Per-process cache so pool workers mmap each shard once, not per batch.
# Keyed on (path, mtime, size): rewriting a dataset in place invalidates
# the stale mapping instead of silently serving the old file.  LRU-bounded
# so a long-lived process touching many datasets doesn't pin file handles
# and address-space mappings forever.
_SHARD_CACHE: dict[tuple, ColumnarShard] = {}
_SHARD_CACHE_LIMIT = 256


def _cached_shard(path: str) -> ColumnarShard:
    """Costs one ``stat``; callers resolve a shard once per batch, not per
    sample."""
    stat = os.stat(path)
    key = (path, stat.st_mtime_ns, stat.st_size)
    shard = _SHARD_CACHE.get(key)
    if shard is not None:
        _SHARD_CACHE[key] = _SHARD_CACHE.pop(key)  # refresh LRU position
        return shard
    for stale in [k for k in _SHARD_CACHE if k[0] == path]:
        del _SHARD_CACHE[stale]
    while len(_SHARD_CACHE) >= _SHARD_CACHE_LIMIT:
        del _SHARD_CACHE[next(iter(_SHARD_CACHE))]  # dicts iterate LRU-first
    shard = _SHARD_CACHE[key] = ColumnarShard(path)
    return shard


def _open_shards(shard_paths: tuple[str, ...], locators: np.ndarray):
    """Resolve the shards a locator array touches, each once: returns
    ``(shards, shard_of, rows)`` with ``shard_of`` indexing ``shards``."""
    used, shard_of = np.unique(locators[:, 0], return_inverse=True)
    shards = [_cached_shard(shard_paths[index]) for index in used]
    return shards, shard_of, locators[:, 1]


def _iter_samples(shard_paths: tuple[str, ...], locators: np.ndarray):
    """Decode the located samples one by one, in locator order."""
    shards, shard_of, rows = _open_shards(shard_paths, locators)
    for k, row in zip(shard_of.tolist(), rows.tolist()):
        yield TrainSample(*shards[k].sample(row))


@dataclass(frozen=True, eq=False)
class ColumnarBatchRef:
    """Picklable pointer to one batch: shard paths + ``(B, 2) int64``
    ``(shard, row)`` locators.

    This is what crosses the process boundary under the ``processes``
    prefetch backend — a few dozen ints instead of the batch's tensors.
    """

    shard_paths: tuple[str, ...]
    locators: np.ndarray = field(repr=False)

    def gather(self) -> StackedFeatures:
        """The batch as stacked columns in locator order, sliced straight
        out of the shard mappings — what the trainer vectorizes."""
        return gather_samples(*_open_shards(self.shard_paths, self.locators))

    def load_samples(self) -> list[TrainSample]:
        """The batch as decoded per-sample objects (the list feeder)."""
        return list(_iter_samples(self.shard_paths, self.locators))


@dataclass(eq=False)
class ColumnarSlice(SampleSource):
    """Picklable worker shard: a fixed subsequence of a columnar dataset.

    This is how a distributed-training worker *process* receives its data
    assignment: shard paths plus ``(N, 2) int64`` ``(shard, row)`` locators
    — two ints per sample — instead of the samples themselves.  The worker
    opens the mmap'd shards through the per-process cache, so sample bytes
    never transit the parent.  Built by :meth:`ColumnarDataset.slice`.
    Labels and ids are answered from the shard columns; no sample is
    decoded for them.
    """

    shard_paths: tuple[str, ...]
    locators: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.locators)

    def sample(self, i: int) -> TrainSample:
        shard, row = self.locators[int(i)]
        return TrainSample(*_cached_shard(self.shard_paths[shard]).sample(int(row)))

    def iter_samples(self):
        return _iter_samples(self.shard_paths, self.locators)

    def _column(self, name: str) -> np.ndarray:
        """Per-sample shard column ``name`` in source order."""
        return gather_column(*_open_shards(self.shard_paths, self.locators), name)

    def ids(self) -> np.ndarray:
        if not len(self):
            return np.zeros(0, dtype=np.int64)
        return self._column("sample_ids")

    def batch(self, indices) -> ColumnarBatchRef:
        return ColumnarBatchRef(
            self.shard_paths, self.locators[np.asarray(indices, dtype=np.int64)]
        )

    def slice(self, indices) -> "ColumnarSlice":
        """Picklable sub-source over ``indices`` (worker shard assignment)."""
        return ColumnarSlice(
            self.shard_paths, self.locators[np.asarray(indices, dtype=np.int64)]
        )

    # ------------------------------------------------------------- labels
    def _meta(self) -> dict:
        """Shard header meta of the first sample (labels are homogeneous
        per dataset); empty for an empty source."""
        if not len(self):
            return {}
        return _cached_shard(self.shard_paths[self.locators[0, 0]]).meta

    @property
    def label_kind(self) -> str:
        return self._meta().get("label", "none")

    @property
    def label_dim(self) -> int:
        meta = self._meta()
        return int(meta.get("label_dim", 0)) if meta.get("label") == "vector" else 0

    def max_int_label(self) -> int:
        if self.label_kind != "int":
            raise ValueError("max_int_label needs int labels")
        return int(self._column("labels").max())

    def labels_by_id(self) -> dict[int, object]:
        kind = self.label_kind
        ids = self.ids().tolist()
        if kind == "none":
            return dict.fromkeys(ids)
        labels = self._column("labels")
        return dict(zip(ids, labels.tolist() if kind == "int" else labels))


class ColumnarDataset(ColumnarSlice):
    """Random access over the columnar shards of one dataset: the slice
    that covers every row.

    Global sample index is shard-major (shard 0's rows, then shard 1's …),
    matching ``DistFileSystem.read_dataset`` order for the row layout.
    """

    def __init__(self, shard_paths):
        paths = tuple(str(p) for p in shard_paths)
        if not paths:
            raise ValueError("columnar dataset has no shards")
        blocks = []
        for index, path in enumerate(paths):
            shard = _cached_shard(path)
            if shard.kind != "samples":
                raise ValueError(
                    f"{shard.path} holds {shard.kind!r} records, not training samples"
                )
            block = np.empty((len(shard), 2), dtype=np.int64)
            block[:, 0] = index
            block[:, 1] = np.arange(len(shard))
            blocks.append(block)
        super().__init__(paths, np.concatenate(blocks))

    def sample(self, i: int) -> TrainSample:
        if not 0 <= i < len(self):
            raise IndexError(f"dataset has {len(self)} samples")
        return super().sample(i)


def as_sample_source(data) -> SampleSource:
    """Coerce trainer input — a source, wire bytes, or decoded samples."""
    if isinstance(data, SampleSource):
        return data
    data = list(data)
    if data and isinstance(data[0], (bytes, bytearray)):
        return MemorySamples(decode_samples(data))
    return MemorySamples(data)


def open_sample_source(fs, name: str) -> SampleSource:
    """Layout-aware DFS reader: mmap'd :class:`ColumnarDataset` for
    columnar datasets, a decoded :class:`MemorySamples` for legacy row
    datasets.  Every consumer that loops ``read_dataset`` should go through
    this.  A dataset recorded as anything but samples is refused before a
    shard is opened (row prediction records would otherwise die — or
    mis-decode — inside the sample codec); datasets that predate kind
    metadata are taken at their word."""
    kind = fs.kind(name)
    if kind not in (None, "samples"):
        raise ValueError(
            f"dataset {name!r} holds {kind!r} records, not training samples"
        )
    if fs.layout(name) == "columnar":
        return ColumnarDataset([Path(p) for p in fs.shards(name)])
    return MemorySamples(decode_samples(fs.read_dataset(name)))
