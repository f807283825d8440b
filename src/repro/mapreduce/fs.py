"""Directory-backed stand-in for the cluster distributed file system.

GraphFlat's output ("flattened to protobuf strings and stored on a
distributed file system", §3.2.1) and GraphInfer's inputs/outputs live here.
The abstraction is deliberately thin — named sharded datasets — because that
is all the paper's pipelines require of the real DFS.

Two shard layouts exist (see ``repro.proto``):

* ``columnar`` — each shard is one mmap-able ``AGLC`` frame of stacked
  matrices + offset tables (``repro.proto.columnar``); trainers slice
  batches out of the mapping instead of decoding.  What the pipelines
  write: each final-round reducer commits its own shard
  (:meth:`DistFileSystem.prepare_dataset` / ``finalize_dataset``).
* ``row`` — each shard is a framed stream of per-record byte strings
  (``repro.proto.stream``); what :meth:`DistFileSystem.write_dataset`
  writes by default, and the layout of datasets older than the columnar
  format, which stay readable.

Reading is layout-transparent: :meth:`DistFileSystem.read_dataset` and
:meth:`~DistFileSystem.read_shard` always yield row wire records (columnar
shards re-encode on the fly, byte-identically), while
:meth:`~DistFileSystem.open_shard` exposes the zero-copy columnar reader.
A ``_META.json`` per dataset records the layout, the record ``kind``
(samples / predictions), and per-shard record counts, which is what makes
:meth:`~DistFileSystem.count_records` O(num_shards) instead of a full byte
scan and lets tooling dispatch on :meth:`~DistFileSystem.kind` instead of
sniffing record bytes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.proto.codec import CodecError
from repro.proto.columnar import (
    ColumnarShard,
    shard_record_count,
    write_prediction_shard,
    write_sample_shard,
)
from repro.proto.stream import read_records, write_records

__all__ = ["DATASET_LAYOUTS", "DistFileSystem"]

DATASET_LAYOUTS = ("row", "columnar")
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
        layout: str = "row",
        kind: str = "samples",
        task: str | None = None,
    ) -> int:
        """Write ``records`` into ``num_shards`` contiguous part files.

        With ``layout="row"``, records are wire-format ``bytes``.  With
        ``layout="columnar"``, records may be wire bytes *or* structured
        records — ``(target_id, label, GraphFeature)`` triples for
        ``kind="samples"``, ``(node_id, scores)`` pairs for
        ``kind="predictions"`` — which lets producers skip the per-record
        framing pass entirely.  Shards are contiguous, balanced (±1) chunks
        of the input sequence, so a shard-major read reproduces the input
        order exactly — the same global record stream a reducer-owned write
        of the same partitions would produce (only shard boundaries differ).

        Returns the record count.  Overwrites any existing dataset of the
        same name (jobs are idempotent: re-running a failed job replaces
        partial output, like a MapReduce output-commit).
        """
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if layout not in DATASET_LAYOUTS:
            raise ValueError(f"layout must be one of {DATASET_LAYOUTS}, got {layout!r}")
        directory = self.prepare_dataset(name)
        everything = list(records)
        count = len(everything)
        size, extra = divmod(count, num_shards)
        counts = []
        start = 0
        for shard in range(num_shards):
            end = start + size + (1 if shard < extra else 0)
            bucket = everything[start:end]
            start = end
            path = directory / f"part-{shard:05d}"
            if layout == "row":
                counts.append(write_records(path, bucket))
            elif kind == "predictions":
                counts.append(write_prediction_shard(path, bucket))
            else:
                counts.append(write_sample_shard(path, bucket, task=task))
        self.finalize_dataset(
            name, layout=layout, kind=kind, record_counts=counts, task=task
        )
        return count

    def prepare_dataset(self, name: str) -> Path:
        """Clear + create a dataset directory for out-of-band shard writes.

        The reducer-owned sink path: the parent prepares the directory, the
        final-round reducers each write their own ``part-NNNNN`` shard into
        it, and the parent commits with :meth:`finalize_dataset`.  A crash
        in between leaves a directory without ``_META.json``, which the next
        (idempotent) run clears and rewrites."""
        directory = self._dataset_dir(name)
        if directory.exists():
            shutil.rmtree(directory)
        directory.mkdir(parents=True)
        return directory

    def finalize_dataset(
        self,
        name: str,
        layout: str,
        kind: str,
        record_counts: list[int],
        task: str | None = None,
    ) -> None:
        """Commit a dataset whose shards were written out-of-band
        (:meth:`prepare_dataset`) by recording its ``_META.json``.

        ``kind`` is recorded for every layout (row included) so consumers
        can dispatch on it instead of sniffing record bytes.  ``task``
        (when known) records which task plugin produced the samples —
        datasets written before the task layer simply lack the field and
        resolve through :meth:`task`'s legacy fallback."""
        if layout not in DATASET_LAYOUTS:
            raise ValueError(f"layout must be one of {DATASET_LAYOUTS}, got {layout!r}")
        directory = self._dataset_dir(name)
        meta = {
            "layout": layout,
            "kind": kind,
            "record_counts": list(record_counts),
            "total_records": int(sum(record_counts)),
        }
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
    def shards(self, name: str) -> list[Path]:
        """Sorted committed shard paths of a dataset (raises if absent);
        writers' staging files are not shards."""
        directory = self._dataset_dir(name)
        if not directory.is_dir():
            raise FileNotFoundError(f"dataset {name!r} not found under {self.root}")
        return sorted(
            p for p in directory.glob("part-*") if _SHARD_NAME.fullmatch(p.name)
        )

    @staticmethod
    def _shard_records(path: Path, layout: str) -> Iterator[bytes]:
        if layout == "columnar":
            yield from ColumnarShard(path).iter_wire()
        else:
            yield from read_records(path)

    def read_dataset(self, name: str) -> Iterator[bytes]:
        """Yield every record of every shard, shard order then record order.

        Layout-transparent: columnar shards are re-encoded to the row wire
        form on the fly (byte-identical to a row write of the same records).
        """
        layout = self.layout(name)  # resolved once, not per shard
        for path in self.shards(name):
            yield from self._shard_records(path, layout)

    def read_shard(self, name: str, shard_index: int) -> Iterator[bytes]:
        shards = self.shards(name)
        if not 0 <= shard_index < len(shards):
            raise IndexError(f"dataset {name!r} has {len(shards)} shards")
        yield from self._shard_records(shards[shard_index], self.layout(name))

    def open_shard(self, name: str, shard_index: int) -> ColumnarShard:
        """Zero-copy :class:`ColumnarShard` reader (columnar datasets only)."""
        if self.layout(name) != "columnar":
            raise ValueError(
                f"dataset {name!r} has row layout; open_shard needs columnar"
            )
        shards = self.shards(name)
        if not 0 <= shard_index < len(shards):
            raise IndexError(f"dataset {name!r} has {len(shards)} shards")
        return ColumnarShard(shards[shard_index])

    # ------------------------------------------------------------- metadata
    def _meta(self, name: str) -> dict | None:
        path = self._dataset_dir(name) / _META_NAME
        if not path.is_file():
            return None
        return json.loads(path.read_text())

    def layout(self, name: str) -> str:
        """Shard layout of a dataset; pre-metadata datasets default to row."""
        meta = self._meta(name)
        if meta is None:
            self.shards(name)  # raise FileNotFoundError for absent datasets
            return "row"
        return meta["layout"]

    def kind(self, name: str) -> str | None:
        """Record kind of a dataset (``samples`` / ``predictions``).

        Resolved from ``_META.json`` when recorded; columnar datasets
        written before kinds landed in the metadata fall back to the shard
        header (a corrupt header raises — corruption is never silently
        re-labelled).  Returns ``None`` only for legacy row datasets with
        nothing recorded anywhere, where callers may sniff record bytes.
        """
        meta = self._meta(name)
        if meta is not None and "kind" in meta:
            return meta["kind"]
        shards = self.shards(name)  # raises for absent datasets
        if not shards:
            return None
        if meta is not None and meta.get("layout") == "columnar":
            return ColumnarShard(shards[0]).kind  # corruption raises
        if meta is None:
            # No metadata at all: a columnar shard still self-describes;
            # anything that is not one is a legacy row shard.
            try:
                return ColumnarShard(shards[0]).kind
            except CodecError:
                return None
        return None

    def exists(self, name: str) -> bool:
        return self._dataset_dir(name).is_dir()

    def task(self, name: str) -> str | None:
        """Recorded task kind of a dataset, or ``None`` when absent.

        Only non-default tasks are recorded (node-classification output
        stays byte-identical to pre-task-layer shards), so ``None`` means
        either a legacy dataset or the node-classification default —
        callers render both as ``node_classification``.
        """
        meta = self._meta(name)
        if meta is None:
            return None
        return meta.get("task")

    def num_shards(self, name: str) -> int:
        return len(self.shards(name))

    def count_records(self, name: str) -> int:
        """Dataset record count — O(1) from metadata when available,
        O(num_shards) from columnar headers, full scan only for legacy
        row datasets written without metadata."""
        meta = self._meta(name)
        if meta is not None:
            return int(meta["total_records"])
        shards = self.shards(name)
        try:
            return sum(shard_record_count(p) for p in shards)
        except CodecError:  # legacy row shards: no header to consult
            return sum(1 for _ in self.read_dataset(name))

    def size_bytes(self, name: str) -> int:
        return sum(p.stat().st_size for p in self.shards(name))

    def delete(self, name: str) -> None:
        directory = self._dataset_dir(name)
        if directory.exists():
            shutil.rmtree(directory)

    def list_datasets(self) -> list[str]:
        return sorted(
            str(p.relative_to(self.root))
            for p in self.root.rglob("*")
            if p.is_dir() and any(child.name.startswith("part-") for child in p.iterdir())
        )
