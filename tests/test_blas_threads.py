"""One BLAS thread inside library calls (``repro.utils.blas``): the engine
owns the parallelism, so OpenBLAS is pinned to one thread while a trainer,
dataflow or pool worker computes, and every result is a function of seed and
data alone — not of the host's core count."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.infer import GraphInferConfig, graph_infer
from repro.core.trainer import GraphTrainer, TrainerConfig
from repro.mapreduce import LocalRuntime, MapReduceJob
from repro.utils import blas

from .helpers import WIDE_BATCH, wide_model, wide_training_set

OPENBLAS = "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].lower()
requires_openblas = pytest.mark.skipif(not OPENBLAS, reason="numpy is not built on OpenBLAS")

REPO = Path(__file__).resolve().parents[1]


def blas_threads(*_args) -> int:
    return blas.describe()["threads"]


def threads_reducer(key, values):
    yield key, blas_threads()


@pytest.fixture(scope="module")
def wide():
    return wide_training_set()


@pytest.fixture()
def caller_threads():
    """The caller runs BLAS on two threads (restored afterwards), so a pin
    to one is visible whatever the host's default."""
    setter = blas._find()[2]
    before = blas_threads()
    setter(2)
    yield blas_threads()
    setter(before)


def recording_trainer(model, config, seen):
    """A trainer that records the BLAS thread count at every forward."""
    trainer = GraphTrainer(model, config)
    forward = trainer._forward

    def probe(batch):
        seen.append(blas_threads())
        return forward(batch)

    trainer._forward = probe
    return trainer


def test_openblas_handle_found_whenever_numpy_names_it():
    info = blas.describe()
    if OPENBLAS:
        assert info["symbol"] is not None, info
        assert info["threads"] >= 1
    else:
        assert info == {"library": None, "symbol": None, "threads": None}


@requires_openblas
class TestPinnedInsideCalls:
    def test_one_thread_inside_train_epoch_and_predict(self, wide, caller_threads):
        _, samples = wide
        seen: list[int] = []
        trainer = recording_trainer(
            wide_model(), TrainerConfig(batch_size=WIDE_BATCH, epochs=1, seed=3), seen
        )
        trainer.fit(samples[:128], val_samples=samples[128:192])
        assert seen and set(seen) == {1}
        assert blas_threads() == caller_threads

    def test_nested_entries_restore_only_at_the_outermost_exit(self, wide, caller_threads):
        _, samples = wide
        trainer = GraphTrainer(wide_model(), TrainerConfig(batch_size=WIDE_BATCH, epochs=1))
        with blas.single_threaded_blas():
            with blas.single_threaded_blas():
                trainer.fit(samples[:64])
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == caller_threads

    def test_two_concurrent_trainers_restore_the_caller_count(self, wide, caller_threads):
        _, samples = wide
        meet = threading.Barrier(2, timeout=30)
        seen: list[int] = []
        errors: list[BaseException] = []

        def run():
            trainer = recording_trainer(
                wide_model(), TrainerConfig(batch_size=WIDE_BATCH, epochs=2), seen
            )
            forward, first = trainer._forward, [True]

            def meet_then_forward(batch):
                if first:  # both trainers are inside train_epoch at once
                    first.pop()
                    meet.wait()
                return forward(batch)

            trainer._forward = meet_then_forward
            try:
                trainer.fit(samples[:128])
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        workers = [threading.Thread(target=run) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors
        assert seen and set(seen) == {1}
        assert blas_threads() == caller_threads

    def test_one_thread_inside_a_processes_reducer(self):
        job = MapReduceJob("blas-threads", threads_reducer, num_reducers=2)
        with LocalRuntime(backend="processes", max_workers=2) as runtime:
            out = dict(runtime.run(job, [(k, k) for k in range(8)]))
        assert set(out.values()) == {1}

    def test_one_thread_inside_a_processes_prefetch_worker(self, wide):
        _, samples = wide
        trainer = GraphTrainer(
            wide_model(),
            TrainerConfig(
                batch_size=WIDE_BATCH, epochs=1, pipeline=True,
                prefetch_backend="processes", prefetch_workers=2,
            ),
        )
        trainer.fit(samples[:128])
        pool = trainer._prefetch_pool
        try:
            tasks = [(f"probe-{i}", blas_threads, ()) for i in range(4)]
            assert pool.execute(tasks, lambda _tid, call: call()) == [1] * 4
        finally:
            pool.close()


WORKER_PROBE = """
import json
from repro.mapreduce.backends import ProcessesBackend
from tests.test_blas_threads import worker_threads

backend = ProcessesBackend(2)
try:
    tasks = [(f"probe-{i}", worker_threads, ()) for i in range(2)]
    print(json.dumps(backend.execute(tasks, lambda _tid, call: call())))
finally:
    backend.close()
"""


def worker_threads() -> tuple[int, int]:
    """``(OS threads, BLAS threads)`` of the calling process."""
    with open("/proc/self/status") as fh:
        os_threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    return os_threads, blas_threads()


def run_child(code: str, **env) -> dict | list:
    """Run ``code`` in a fresh interpreter; its last stdout line as JSON."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(REPO)])
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=REPO,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@requires_openblas
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_processes_workers_start_without_a_blas_thread_pool():
    """A fresh process's pool workers run one BLAS thread and no idle BLAS
    pool thread: the forkserver starts with one OpenBLAS thread, so the
    workers' pin does not rebuild a pool that would spin-wait."""
    assert run_child(WORKER_PROBE, OPENBLAS_NUM_THREADS="2") == [[1, 1], [1, 1]]


PS_WORKER_PROBE = """
import functools
import json
from repro.core.trainer import TrainerConfig
from repro.mapreduce.backends import ProcessesBackend
from repro.ps import DistributedConfig, DistributedTrainer
from tests.helpers import WIDE_BATCH, wide_training_set
from tests.test_blas_threads import probing_wide_model, worker_threads

path = {path!r}
_, samples = wide_training_set()
dist = DistributedConfig(
    num_workers=1, num_servers=1, mode="async", worker_backend="processes"
)
config = TrainerConfig(batch_size=WIDE_BATCH, epochs=2, seed=3)
with DistributedTrainer(functools.partial(probing_wide_model, path), config, dist) as trainer:
    trainer.fit(samples[: 4 * WIDE_BATCH])
backend = ProcessesBackend(2)
try:
    tasks = [(f"probe-{{i}}", worker_threads, ()) for i in range(2)]
    print(json.dumps(backend.execute(tasks, lambda _tid, call: call())))
finally:
    backend.close()
"""


def probing_wide_model(path: str):
    """:func:`wide_model` whose every forward appends ``[OS threads, BLAS
    threads, Python threads]`` of the calling process to ``path``."""
    model = wide_model()
    forward = model.forward

    def probe(batch):
        with open(path, "a") as fh:
            fh.write(json.dumps([*worker_threads(), threading.active_count()]) + "\n")
        return forward(batch)

    model.forward = probe
    return model


@requires_openblas
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_ps_worker_started_first_leaves_no_blas_thread_pool(tmp_path):
    """A fresh process starts a parameter-server worker before any pool.
    The shm transport's start method starts the shared forkserver with one
    OpenBLAS thread too, so neither the PS worker nor a later ``processes``
    pool worker rebuilds a spinning BLAS pool thread.  The worker trains
    its first epoch on one OS thread (inline preprocessing); afterwards
    its only extra thread is the event queue's Python feeder."""
    path = tmp_path / "forwards.jsonl"
    pool = run_child(PS_WORKER_PROBE.format(path=str(path)), OPENBLAS_NUM_THREADS="2")
    forwards = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(forwards) == 8  # 2 epochs x 4 batches
    assert forwards[:4] == [[1, 1, 1]] * 4
    assert all(blas == 1 and os_threads == py for os_threads, blas, py in forwards)
    assert pool == [[1, 1], [1, 1]]


CHILD = """
import json
import numpy as np
from repro.core.trainer import GraphTrainer, TrainerConfig
from tests.helpers import WIDE_BATCH, model_digest, wide_model, wide_training_set

_, samples = wide_training_set()
model = wide_model()
trainer = GraphTrainer(model, TrainerConfig(batch_size=WIDE_BATCH, epochs=2, seed=3))
sizes = []
forward = trainer._forward
trainer._forward = lambda batch: (sizes.append(batch.num_nodes), forward(batch))[1]
losses = [entry["loss"] for entry in trainer.fit(samples)]
print(json.dumps({
    "losses": np.array(losses).tobytes().hex(),
    "model": model_digest(model),
    "max_batch_nodes": max(sizes),
}))
"""


def test_trajectory_does_not_depend_on_the_hosts_blas_threads():
    """A child run with ``OPENBLAS_NUM_THREADS=1`` and one with ``=2``
    train the same bits, at a width where an unpinned BLAS multithreads."""
    runs = [run_child(CHILD, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")]
    assert runs[0]["max_batch_nodes"] >= 300
    assert runs[0] == runs[1]


def test_graph_infer_scores_identical_serial_vs_processes_at_width(wide):
    ds, _ = wide
    model = wide_model()
    config = GraphInferConfig(max_neighbors=10, num_reducers=4, seed=0)
    serial = graph_infer(model, ds.nodes, ds.edges, config)
    with LocalRuntime(backend="processes", max_workers=2) as runtime:
        procs = graph_infer(model, ds.nodes, ds.edges, config, runtime)
    assert serial.scores.keys() == procs.scores.keys()
    for node_id, scores in serial.scores.items():
        assert scores.tobytes() == procs.scores[node_id].tobytes()
