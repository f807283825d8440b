"""One cell of the dataflow-memory grid, run in a fresh interpreter.

A fresh process per cell makes ``ru_maxrss`` meaningful: the high-water
mark covers exactly this cell's stage (plus its pool children), not
whatever a previous cell allocated.  Invoked by ``bench_memory_footprint``
as ``python benchmarks/_memory_cell.py <stage> [options]``; prints one JSON
object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import threading
import time


def _rss_mib() -> dict:
    # ru_maxrss is KiB on Linux.
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"rss_self_mib": self_kb / 1024}


class WorkerPeak:
    """The highest resident-set high-water mark (``VmHWM``) of any process
    below this one, sampled from ``/proc``.  Pool workers are started by
    the ``forkserver``, so they are grandchildren that ``RUSAGE_CHILDREN``
    never counts; and a worker's ``VmHWM`` vanishes with it, hence the
    sampling thread."""

    def __init__(self, interval_s: float = 0.05):
        self._interval = interval_s
        self._peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @staticmethod
    def _descendants() -> list[int]:
        children: dict[int, list[int]] = {}
        for name in os.listdir("/proc"):
            if name.isdigit():
                try:
                    with open(f"/proc/{name}/stat") as fh:
                        stat = fh.read()
                except OSError:  # exited between listing and reading
                    continue
                # the parent pid follows the state, after "(comm)"
                parent = int(stat[stat.rindex(")") + 2 :].split()[1])
                children.setdefault(parent, []).append(int(name))
        found, frontier = [], [os.getpid()]
        while frontier:
            kids = children.get(frontier.pop(), [])
            found += kids
            frontier += kids
        return found

    def _sample(self) -> None:
        for pid in self._descendants():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            self._peak_kb = max(self._peak_kb, int(line.split()[1]))
                            break
            except OSError:
                continue

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self._sample()

    def __enter__(self) -> "WorkerPeak":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def mib(self) -> float:
        return self._peak_kb / 1024


def _count_run_files() -> list[int]:
    """Watch the run files of each spilled shuffle: the returned list's one
    entry becomes the most that one reduce partition merged, counted just
    before the runtime removes the shuffle's files."""
    from repro.mapreduce import runtime

    most = [0]
    cleanup = runtime._Shuffle.cleanup

    def counting(self):
        if self.layout is not None:
            for partition in range(self.layout.num_partitions):
                files = sum(
                    1
                    for task in range(self.num_tasks)
                    for _ in self.layout._iter_task_runs(task, partition)
                )
                most[0] = max(most[0], files)
        cleanup(self)

    runtime._Shuffle.cleanup = counting
    return most


def run_graphflat(args) -> dict:
    from repro.core.graphflat import GraphFlatConfig, graph_flat
    from repro.datasets import cora_like
    from repro.mapreduce import DistFileSystem
    from repro.mapreduce.spill import _CHUNK_BYTES, _IO_BUFFER_BYTES

    ds = cora_like(
        seed=0, num_nodes=800 * args.scale, num_edges=2400 * args.scale
    )
    targets = ds.nodes.ids[: 400 * args.scale]
    with tempfile.TemporaryDirectory() as tmp:
        config = GraphFlatConfig(
            hops=2,
            max_neighbors=15,
            backend="processes",
            num_workers=args.workers,
            num_reducers=max(args.workers, 4),
            spill_dir=f"{tmp}/spill",
            # Small runs force real external sorting even at bench scale.
            spill_run_records=2048,
            spill_run_bytes=1 << 18,
        )
        fs = DistFileSystem(f"{tmp}/dfs")
        run_files = _count_run_files()
        start = time.perf_counter()
        with WorkerPeak() as workers:
            result = graph_flat(
                ds.nodes, ds.edges, targets, config, fs=fs, dataset_name="flat"
            )
        wall = time.perf_counter() - start
        largest_shard = max(path.stat().st_size for path in fs.shards("flat"))
    return {
        "wall_s": wall,
        "records": result.num_targets,
        "peak_reducer_buffer_mib": max(
            rs.peak_reducer_buffer_bytes for rs in result.round_stats
        )
        / 2**20,
        "spilled_mib": sum(rs.shuffle_bytes_written for rs in result.round_stats)
        / 2**20,
        "run_files": run_files[0],
        # the reduce side's stated bound (mapreduce/spill.py): two chunk
        # frames and one I/O buffer per run file a reducer merges
        "reader_bound_mib": run_files[0] * (2 * _CHUNK_BYTES + _IO_BUFFER_BYTES) / 2**20,
        "rss_workers_mib": workers.mib,
        # what one final-round reducer wrote: the worker peak above holds
        # that task's whole partition, so the two read as Finding M's ratio
        "largest_shard_mib": largest_shard / 2**20,
        **_rss_mib(),
    }


def run_train(args) -> dict:
    from repro.core.graphflat import GraphFlatConfig, graph_flat
    from repro.core.trainer import GraphTrainer, TrainerConfig, decode_samples
    from repro.datasets import cora_like
    from repro.nn.gnn import build_model

    ds = cora_like(seed=0, num_nodes=800 * args.scale, num_edges=2400 * args.scale)
    flat_config = GraphFlatConfig(hops=2, max_neighbors=15)
    samples = decode_samples(
        graph_flat(ds.nodes, ds.edges, ds.train_ids, flat_config).samples
    )
    model = build_model(
        "gcn",
        in_dim=samples[0].graph_feature.feature_dim,
        hidden_dim=16,
        num_classes=int(max(s.label for s in samples)) + 1,
        num_layers=2,
        seed=0,
    )
    trainer = GraphTrainer(
        model,
        TrainerConfig(
            batch_size=32,
            epochs=2,
            pipeline=True,
            prefetch_backend="processes",
            prefetch_workers=args.workers,
        ),
    )
    start = time.perf_counter()
    with WorkerPeak() as workers:
        trainer.fit(samples)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "records": len(samples),
        "rss_workers_mib": workers.mib,
        **_rss_mib(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("stage", choices=["graphflat", "train"])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--scale", type=int, default=1)
    args = parser.parse_args()
    out = run_graphflat(args) if args.stage == "graphflat" else run_train(args)
    json.dump(out, sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
