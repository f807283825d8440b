"""Directory-backed stand-in for the cluster distributed file system.

GraphFlat's output ("flattened to protobuf strings and stored on a
distributed file system", §3.2.1) and GraphInfer's inputs/outputs live here.
The abstraction is deliberately thin — named sharded datasets — because that
is all the paper's pipelines require of the real DFS.

A dataset is a directory of ``part-NNNNN`` shards, each one mmap-able
``AGLC`` frame of stacked matrices + offset tables
(``repro.proto.columnar``), plus a ``_META.json`` recording the record
``kind`` (samples / predictions), the per-shard record counts and, for
edge tasks, the ``task``.  The pipelines' final-round reducers each write
their own shard (:meth:`DistFileSystem.prepare_dataset` /
``finalize_dataset``); :meth:`~DistFileSystem.write_dataset` shards a
record sequence itself.

Commit rule: ``_META.json`` is written last, atomically.  A dataset exists
only once it is committed — a directory without one (what a driver killed
before the commit leaves) is absent to every reader, which raises
:class:`FileNotFoundError` naming it.

:meth:`~DistFileSystem.read_dataset` and :meth:`~DistFileSystem.read_shard`
yield row wire records (the shards re-encode on the fly, byte-identically
to the record codec), while :meth:`~DistFileSystem.open_shard` exposes the
zero-copy columnar reader.  A shard that is not an ``AGLC`` frame fails its
magic check with a :class:`~repro.proto.codec.CodecError` naming its path;
no reader falls back to another format.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from repro.proto.codec import CodecError, decode_prediction
from repro.proto.columnar import (
    ColumnarShard,
    shard_record_count,
    write_prediction_shard,
    write_sample_shard,
)

__all__ = ["DistFileSystem"]

_META_NAME = "_META.json"
# A committed shard.  Writers stage under ``<name>.tmp<pid>`` in the same
# directory and rename into place, so anything else matching ``part-*`` (or
# ``_META.json.*``) is the leftover of an attempt that died mid-write.
_SHARD_NAME = re.compile(r"part-\d+")


class DistFileSystem:
    """Sharded record datasets rooted at a local directory.

    A *dataset* is a directory of ``part-NNNNN`` files plus a ``_META.json``
    sidecar.  Shards are the unit of parallelism for downstream consumers
    (training workers read disjoint shard subsets).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _dataset_dir(self, name: str) -> Path:
        if not name or name.startswith("/") or ".." in name:
            raise ValueError(f"bad dataset name {name!r}")
        return self.root / name

    # -------------------------------------------------------------- writing
    def write_dataset(
        self,
        name: str,
        records: Iterable,
        num_shards: int = 1,
        kind: str = "samples",
        task: str | None = None,
    ) -> int:
        """Write ``records`` into ``num_shards`` contiguous columnar shards.

        Records may be wire-format ``bytes`` or structured records —
        ``(target_id, label, GraphFeature)`` triples for ``kind="samples"``,
        ``(node_id, scores)`` pairs for ``kind="predictions"``.  Shards are
        contiguous, balanced (±1) chunks of the input sequence, so a
        shard-major read reproduces the input order exactly — the same
        global record stream a reducer-owned write of the same partitions
        would produce (only shard boundaries differ).

        Returns the record count.  Overwrites any existing dataset of the
        same name (jobs are idempotent: re-running a failed job replaces
        partial output, like a MapReduce output-commit).
        """
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        directory = self.prepare_dataset(name)
        everything = list(records)
        size, extra = divmod(len(everything), num_shards)
        counts = []
        start = 0
        for shard in range(num_shards):
            end = start + size + (1 if shard < extra else 0)
            bucket = everything[start:end]
            start = end
            path = directory / f"part-{shard:05d}"
            if kind == "predictions":
                pairs = [
                    decode_prediction(p) if isinstance(p, (bytes, bytearray)) else p
                    for p in bucket
                ]
                ids = np.asarray([int(v) for v, _ in pairs], dtype=np.int64)
                parts = [(ids, np.stack([np.ravel(s) for _, s in pairs]))] if pairs else []
                counts.append(write_prediction_shard(path, parts))
            else:
                counts.append(write_sample_shard(path, bucket, task=task))
        self.finalize_dataset(name, kind=kind, record_counts=counts, task=task)
        return len(everything)

    def prepare_dataset(self, name: str) -> Path:
        """Clear + create a dataset directory for out-of-band shard writes.

        The reducer-owned sink path: the parent prepares the directory, the
        final-round reducers each write their own ``part-NNNNN`` shard into
        it, and the parent commits with :meth:`finalize_dataset`.  A crash
        in between leaves a directory without ``_META.json``: absent to
        every reader, and cleared by the next (idempotent) run."""
        directory = self._dataset_dir(name)
        if directory.exists():
            shutil.rmtree(directory)
        directory.mkdir(parents=True)
        return directory

    def finalize_dataset(
        self,
        name: str,
        kind: str,
        record_counts: list[int],
        task: str | None = None,
    ) -> None:
        """Commit a dataset whose shards were written out-of-band
        (:meth:`prepare_dataset`) by recording its ``_META.json``.

        ``task`` (when known) records which task plugin produced the
        samples; node-classification output records none."""
        directory = self._dataset_dir(name)
        meta = {"kind": kind, "record_counts": list(record_counts)}
        if task is not None:
            meta["task"] = task
        # Sweep what killed attempts (task-timeout pool kills, crashes,
        # speculation losers) left behind, then commit atomically: a reader
        # sees the previous metadata or the new one, never a truncated file.
        strays = [p for p in directory.glob("part-*") if not _SHARD_NAME.fullmatch(p.name)]
        for stray in (*strays, *directory.glob(f"{_META_NAME}.*")):
            stray.unlink(missing_ok=True)
        staged = directory / f"{_META_NAME}.tmp{os.getpid()}"
        staged.write_text(json.dumps(meta, sort_keys=True))
        os.replace(staged, directory / _META_NAME)

    # -------------------------------------------------------------- reading
    def _meta(self, name: str) -> dict:
        """The committed ``_META.json`` of a dataset; raises
        :class:`FileNotFoundError` for an uncommitted or absent one and
        :class:`ValueError` for one that lacks a required field."""
        try:
            text = (self._dataset_dir(name) / _META_NAME).read_text()
        except (FileNotFoundError, NotADirectoryError):
            raise FileNotFoundError(
                f"dataset {name!r} not found under {self.root}"
            ) from None
        meta = json.loads(text)
        missing = [key for key in ("kind", "record_counts") if key not in meta]
        if missing:
            raise ValueError(f"dataset {name!r}: {_META_NAME} lacks {', '.join(missing)}")
        return meta

    def _shard_paths(self, name: str) -> list[Path]:
        return sorted(
            p for p in self._dataset_dir(name).glob("part-*")
            if _SHARD_NAME.fullmatch(p.name)
        )

    def shards(self, name: str) -> list[Path]:
        """Sorted committed shard paths of a dataset (raises if it is not
        committed); writers' staging files are not shards."""
        self._meta(name)
        return self._shard_paths(name)

    def read_dataset(self, name: str) -> Iterator[bytes]:
        """Yield every record of every shard, shard order then record order,
        as wire records re-encoded from the columns."""
        for path in self.shards(name):
            yield from ColumnarShard(path).iter_wire()

    def read_shard(self, name: str, shard_index: int) -> Iterator[bytes]:
        yield from self.open_shard(name, shard_index).iter_wire()

    def open_shard(self, name: str, shard_index: int) -> ColumnarShard:
        """Zero-copy :class:`ColumnarShard` reader over one shard."""
        shards = self.shards(name)
        if not 0 <= shard_index < len(shards):
            raise IndexError(f"dataset {name!r} has {len(shards)} shards")
        return ColumnarShard(shards[shard_index])

    # ------------------------------------------------------------- metadata
    def kind(self, name: str) -> str:
        """Record kind of a dataset (``samples`` / ``predictions``)."""
        return self._meta(name)["kind"]

    def exists(self, name: str) -> bool:
        return (self._dataset_dir(name) / _META_NAME).is_file()

    def task(self, name: str) -> str | None:
        """Recorded task kind of a dataset, or ``None`` when absent.

        Only non-default tasks are recorded (node-classification output
        stays byte-identical to pre-task-layer shards), so ``None`` means
        either a legacy dataset or the node-classification default —
        callers render both as ``node_classification``.
        """
        return self._meta(name).get("task")

    def num_shards(self, name: str) -> int:
        return len(self.shards(name))

    def count_records(self, name: str) -> int:
        """Dataset record count from the shard headers — O(num_shards)
        small reads, each checked against the count the commit recorded."""
        recorded = self._meta(name)["record_counts"]
        counts = [shard_record_count(p) for p in self._shard_paths(name)]
        if counts != recorded:
            raise CodecError(
                f"dataset {name!r}: shard headers count {counts} records, "
                f"{_META_NAME} recorded {recorded}"
            )
        return sum(counts)

    def size_bytes(self, name: str) -> int:
        return sum(p.stat().st_size for p in self.shards(name))

    def delete(self, name: str) -> None:
        directory = self._dataset_dir(name)
        if directory.exists():
            shutil.rmtree(directory)

    def list_datasets(self) -> list[str]:
        """Names of the committed datasets under the root."""
        return sorted(
            str(p.parent.relative_to(self.root))
            for p in self.root.rglob(_META_NAME)
            if p.is_file()
        )
