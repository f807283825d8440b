"""Sample sources — the trainer's view of a dataset.

A :class:`SampleSource` is stacked sample columns addressed by ``(shard,
row)`` locators — two ints per sample.  A shard is either a committed
columnar file of a DFS dataset, named by its path and mmap'd through a
per-process cache, or one in-memory
:class:`~repro.proto.columnar.ColumnarShard` holding the same blocks:

* :class:`ColumnarDataset` — every row of a DFS dataset's shards, opened
  by :func:`open_sample_source`;
* :func:`as_sample_source` — wire bytes or decoded :class:`TrainSample`
  objects, decoded and stacked once into one in-memory shard.

``batch()`` returns a tiny :class:`ColumnarBatchRef` (the same shards plus
the batch's locators).  The ref's ``gather()`` hands the batch over as
stacked columns (``repro.graph.subgraph.StackedFeatures``), sliced out of
the shards, so an epoch never builds a per-sample object;
``load_samples()`` still decodes them for callers that want objects.
Labels and ids are read from the ``labels`` / ``sample_ids`` columns.

A pickled source or ref — a process-prefetch window, a distributed
worker's data assignment, a remote worker's train spec — carries its file
shards as paths and each in-memory shard cut down to the rows its locators
address.  A source presents samples in the order they were produced
(``read_dataset`` order, shard-major, for a DFS dataset), so training off
the DFS or off the in-memory ``graph_flat`` result gives bit-identical
per-epoch losses (tested).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.core.trainer.vectorize import TrainSample, decode_samples, stack_samples
from repro.graph.subgraph import StackedFeatures
from repro.proto.columnar import ColumnarShard, gather_column, gather_samples

__all__ = [
    "ColumnarBatchRef",
    "ColumnarDataset",
    "SampleSource",
    "as_sample_source",
    "open_sample_source",
]


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


def _shard(entry: str | ColumnarShard) -> ColumnarShard:
    """A shard list entry: a file path (through the cache) or a held shard."""
    return _cached_shard(entry) if isinstance(entry, str) else entry


def _open_shards(shards: tuple, locators: np.ndarray):
    """Resolve the shards a locator array touches, each once: returns
    ``(shards, shard_of, rows)`` with ``shard_of`` indexing ``shards``."""
    used, shard_of = np.unique(locators[:, 0], return_inverse=True)
    return [_shard(shards[index]) for index in used], shard_of, locators[:, 1]


def _portable(shards: tuple, locators: np.ndarray) -> tuple[tuple, np.ndarray]:
    """What a pickled source or ref carries: file shards as their paths,
    each in-memory shard cut down to the rows ``locators`` address, and the
    locators renumbered to match."""
    if all(isinstance(entry, str) for entry in shards):
        return shards, locators
    shards, locators = list(shards), locators.copy()
    for k, entry in enumerate(shards):
        if not isinstance(entry, str):
            mine = locators[:, 0] == k
            rows, locators[mine, 1] = np.unique(locators[mine, 1], return_inverse=True)
            shards[k] = entry.subset(rows)
    return tuple(shards), locators


def _every_row(sizes: list[int]) -> np.ndarray:
    """``(N, 2) int64`` locators of every row of shards of ``sizes``,
    shard-major."""
    starts = np.cumsum([0] + sizes[:-1])
    shard = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    rows = np.arange(sum(sizes), dtype=np.int64) - np.repeat(starts, sizes)
    return np.stack([shard, rows], axis=1)


@dataclass(frozen=True, eq=False)
class ColumnarBatchRef:
    """Picklable pointer to one batch: a source's shards + ``(B, 2) int64``
    ``(shard, row)`` locators.

    This is what crosses the process boundary under the ``processes``
    prefetch backend — over file shards, a few dozen ints instead of the
    batch's tensors; over an in-memory shard, the batch's own rows.
    """

    shards: tuple
    locators: np.ndarray = field(repr=False)

    def __reduce__(self):
        return ColumnarBatchRef, _portable(self.shards, self.locators)

    def gather(self) -> StackedFeatures:
        """The batch as stacked columns in locator order, sliced straight
        out of the shards — what the trainer vectorizes."""
        return gather_samples(*_open_shards(self.shards, self.locators))

    @staticmethod
    def gather_window(refs: list["ColumnarBatchRef"]) -> StackedFeatures:
        """Several batches as one stacked record, batch after batch: one
        gather over their locators end to end.  Refs unpickled apart each
        carry their own in-memory shard; their shard lists are joined."""
        shards = refs[0].shards
        if all(ref.shards == shards for ref in refs):
            locators = np.concatenate([ref.locators for ref in refs])
        else:
            bases = np.cumsum([0] + [len(ref.shards) for ref in refs])
            shards = tuple(entry for ref in refs for entry in ref.shards)
            locators = np.concatenate(
                [ref.locators + (base, 0) for ref, base in zip(refs, bases)]
            )
        return gather_samples(*_open_shards(shards, locators))

    def load_samples(self) -> list[TrainSample]:
        """The batch as decoded per-sample objects."""
        shards, shard_of, rows = _open_shards(self.shards, self.locators)
        return [
            TrainSample(*shards[k].sample(row))
            for k, row in zip(shard_of.tolist(), rows.tolist())
        ]


@dataclass(eq=False)
class SampleSource:
    """Random access to N training samples: shards (file paths or
    in-memory :class:`~repro.proto.columnar.ColumnarShard`) plus ``(N, 2)
    int64`` ``(shard, row)`` locators.

    :meth:`slice` is how a distributed-training worker receives its data
    assignment — picklable, two ints per sample over file shards, so the
    worker opens the mmap'd shards through the per-process cache and
    sample bytes never transit the parent.  Labels and ids are answered
    from the shard columns; no sample is decoded for them.
    """

    shards: tuple
    locators: np.ndarray = field(repr=False)

    def __reduce__(self):
        return SampleSource, _portable(self.shards, self.locators)

    def __len__(self) -> int:
        return len(self.locators)

    def sample(self, i: int) -> TrainSample:
        shard, row = self.locators[int(i)]
        return TrainSample(*_shard(self.shards[shard]).sample(int(row)))

    def _column(self, name: str) -> np.ndarray:
        """Per-sample shard column ``name`` in source order."""
        return gather_column(*_open_shards(self.shards, self.locators), name)

    def ids(self) -> np.ndarray:
        """``(N,) int64`` target id of every sample, in source order."""
        if not len(self):
            return np.zeros(0, dtype=np.int64)
        return self._column("sample_ids")

    def batch(self, indices) -> ColumnarBatchRef:
        """Pipeline-ready batch for ``indices`` (in the given order)."""
        return ColumnarBatchRef(
            self.shards, self.locators[np.asarray(indices, dtype=np.int64)]
        )

    def slice(self, indices) -> "SampleSource":
        """Picklable sub-source over ``indices`` (worker shard assignment)."""
        return SampleSource(
            self.shards, self.locators[np.asarray(indices, dtype=np.int64)]
        )

    # ------------------------------------------------------------- labels
    def _meta(self) -> dict:
        """Shard header meta of the first sample (labels are homogeneous
        per dataset); empty for an empty source."""
        if not len(self):
            return {}
        return _shard(self.shards[self.locators[0, 0]]).meta

    @property
    def label_kind(self) -> str:
        """``"none"`` / ``"int"`` / ``"vector"`` — homogeneous per source."""
        return self._meta().get("label", "none")

    @property
    def label_dim(self) -> int:
        """Vector-label width (0 for int/absent labels)."""
        meta = self._meta()
        return int(meta.get("label_dim", 0)) if meta.get("label") == "vector" else 0

    def max_int_label(self) -> int:
        if self.label_kind != "int":
            raise ValueError("max_int_label needs int labels")
        return int(self._column("labels").max())

    def labels_by_id(self) -> dict[int, object]:
        """Target id -> label (evaluation-time lookup)."""
        kind = self.label_kind
        ids = self.ids().tolist()
        if kind == "none":
            return dict.fromkeys(ids)
        labels = self._column("labels")
        return dict(zip(ids, labels.tolist() if kind == "int" else labels))


class ColumnarDataset(SampleSource):
    """Random access over the columnar shards of one dataset: the source
    that covers every row.

    Global sample index is shard-major (shard 0's rows, then shard 1's …),
    matching ``DistFileSystem.read_dataset`` order.  Shard paths are made
    absolute, so a worker in another directory — or on another host that
    mounts the same filesystem — resolves them alike.
    """

    def __init__(self, shard_paths):
        paths = tuple(os.path.abspath(p) for p in shard_paths)
        if not paths:
            raise ValueError("columnar dataset has no shards")
        sizes = []
        for path in paths:
            shard = _cached_shard(path)
            if shard.kind != "samples":
                raise ValueError(
                    f"{shard.path} holds {shard.kind!r} records, not training samples"
                )
            sizes.append(len(shard))
        super().__init__(paths, _every_row(sizes))

    def sample(self, i: int) -> TrainSample:
        if not 0 <= i < len(self):
            raise IndexError(f"dataset has {len(self)} samples")
        return super().sample(i)


def as_sample_source(data) -> SampleSource:
    """Trainer input as a source: a source as it is; wire bytes or decoded
    :class:`TrainSample` objects decoded and stacked once, in order, into
    one in-memory shard."""
    if isinstance(data, SampleSource):
        return data
    samples = list(data)
    if samples and isinstance(samples[0], (bytes, bytearray)):
        samples = decode_samples(samples)
    shard = ColumnarShard.from_stacked([stack_samples(samples)] if samples else [])
    return SampleSource((shard,), _every_row([len(shard)]))


def open_sample_source(fs, name: str) -> SampleSource:
    """Mmap'd :class:`ColumnarDataset` over a committed DFS dataset.  Every
    consumer that loops ``read_dataset`` should go through this.  A dataset
    recorded as anything but samples is refused before a shard is opened;
    an uncommitted one raises :class:`FileNotFoundError`, and a shard that
    is not an ``AGLC`` frame a ``CodecError`` naming its path."""
    kind = fs.kind(name)
    if kind != "samples":
        raise ValueError(
            f"dataset {name!r} holds {kind!r} records, not training samples"
        )
    return ColumnarDataset(fs.shards(name))
