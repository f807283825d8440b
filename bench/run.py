"""Run the benchmark: ``python3 bench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` (or ``PYTHONPATH=src python -m bench.run``).

One closed loop, one client: repetitions run back to back for ``--seconds``
after a discarded warm-up.  Prints every metric by name with its unit; the
last line of standard output is one JSON object per the benchmark contract.
Exits non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
"""Set-ups timed per run; ``setup_s`` is their median."""


def _import_program() -> None:
    """Put the checkout's ``src`` (the program) and root (this package) on
    the path — also for pool workers, which inherit ``sys.path``."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"bench: no program to measure: {src / 'repro'} is missing")
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured phase per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the full result document")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one set-up; stamped and refused by bench.compare")
    return parser.parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_workload(cls, args, workdir: Path, proc, spec) -> dict:
    from bench.harness import NullTracer, SpeedLog, Tracer, summarize

    workload = cls(args.seed, args.smoke, workdir)
    speed = SpeedLog()
    setups = []
    for _ in range(1 if args.smoke else SETUPS):
        slot = speed.slot()
        start = time.perf_counter()
        workload.setup()
        setups.append((time.perf_counter() - start, slot))

    problems: list[str] = []
    untraced = NullTracer()
    problems += workload.check(workload.rep(untraced))  # warm-up, not timed

    proc.reset_peak()
    reps = []  # (wall, cpu, calibration slot)
    attempted = failed = items = 0
    began = time.perf_counter()
    while len(reps) < workload.min_reps or time.perf_counter() - began < args.seconds:
        slot = speed.slot()
        cpu_before = proc.cpu_s()
        rep = workload.rep(untraced)
        reps.append((rep.wall, proc.cpu_s() - cpu_before, slot))
        items = rep.items
        bad = workload.check(rep)
        attempted += rep.task_attempts + 1
        failed += workload.failed_attempts(rep) + bool(bad)
        problems += bad
    speed.mark()
    peak_rss_mb = proc.peak_rss_mb()
    problems += workload.finish()

    # End-to-end times are reported at the reference machine speed (see
    # bench.harness.calibrate); the raw walls go out as bench.* layer metrics.
    setup = summarize([seconds * speed.scale(slot) for seconds, slot in setups])
    wall = summarize([seconds * speed.scale(slot) for seconds, _, slot in reps])
    raw_wall = summarize([seconds for seconds, _, _ in reps])
    cpus = [cpu * speed.scale(slot) for _, cpu, slot in reps]
    end_to_end = {
        "setup_s": {"value": setup["median"], **setup},
        "rep_wall_s": {"value": wall["median"], **wall},
        "items_per_s": {"value": items / wall["median"]},
        # the mean, not the median: /proc counts CPU in 10 ms ticks, which
        # only average out over the whole measured phase
        "cpu_s": {"value": sum(cpus) / len(cpus)},
        "peak_rss_mb": {"value": peak_rss_mb},
    }
    for metric in spec.END_TO_END:
        end_to_end[metric.name]["unit"] = metric.unit
    doc = {
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "items_per_rep": items,
        "machine_speed": speed.speed(),
        "end_to_end": end_to_end,
        **workload.notes(),
    }

    if args.trace:
        tracer = Tracer(workload.name, rep=len(reps) + 1)
        with tracer.span(workload.name, "bench"):
            rep = workload.rep(tracer)
        trace_problems = workload.check(rep)
        per_layer = {metric.name: 0.0 for metric in spec.PER_LAYER}
        for layer, seconds in tracer.layer_busy().items():
            if f"{layer}.busy_s" in per_layer:
                per_layer[f"{layer}.busy_s"] = seconds
        layer_self = tracer.layer_self()
        for layer, seconds in layer_self.items():
            if f"{layer}.self_s" in per_layer:
                per_layer[f"{layer}.self_s"] = seconds
        measured = {
            **workload.setup_layer,
            **workload.layer_metrics(rep, tracer),
            **workload.probes(rep),
            "bench.trace_overhead_share": rep.wall / raw_wall["median"] - 1,
            "bench.rep_spread": wall["spread"],
            "bench.raw_rep_wall_s": raw_wall["median"],
            "bench.machine_speed": speed.speed(),
        }
        unknown = set(measured) - set(per_layer)
        if unknown:
            trace_problems.append(f"metrics missing from bench.spec: {sorted(unknown)}")
        per_layer.update(measured)
        units = {metric.name: metric.unit for metric in spec.PER_LAYER}
        doc["per_layer"] = {
            name: {"value": float(value), "unit": units[name]}
            for name, value in per_layer.items()
        }
        root = tracer.spans[0].duration
        doc["trace"] = {
            "root_s": root,
            "layer_self_s": layer_self,
            "self_sum_over_root": sum(layer_self.values()) / root,
            "spans": tracer.as_json(),
        }
        doc["problems"] = problems = problems + trace_problems
        doc["correct"] = not problems
    return doc


def report(name: str, doc: dict, trace: bool) -> None:
    print(f"== {name}: {'correct' if doc['correct'] else 'FAILED'} "
          f"({doc['attempted']} attempted, {doc['failed']} failed, "
          f"{doc['items_per_rep']} items per rep)")
    for problem in doc["problems"]:
        print(f"   problem: {problem}")
    for metric, entry in doc["end_to_end"].items():
        line = f"   {metric:<14}{_fmt(entry['value']):>12} {entry['unit']}"
        if "n" in entry:
            line += (f"   median {_fmt(entry['median'])} min {_fmt(entry['min'])} "
                     f"max {_fmt(entry['max'])} n {entry['n']}")
        if "tail" in entry:
            line += f" p{entry['tail_percentile']} {_fmt(entry['tail'])}"
        print(line)
    for key in ("machine_speed", "output_sha256", "loss_trajectory_sha256", "quality"):
        if doc.get(key) is not None:
            print(f"   {key} {doc[key]}")
    if trace:
        for metric, entry in doc["per_layer"].items():
            print(f"   {metric:<42}{_fmt(entry['value']):>14} {entry['unit']}")
        trace_doc = doc["trace"]
        shares = ", ".join(
            f"{layer} {_fmt(seconds)}"
            for layer, seconds in sorted(trace_doc["layer_self_s"].items())
        )
        print(f"   layer self times (s): {shares}; sum / root span "
              f"{_fmt(trace_doc['self_sum_over_root'])}")


def contract_line(doc: dict, trace: bool) -> str:
    """The last line the driver reads: end-to-end metrics untraced,
    per-layer metrics traced."""
    source = doc["per_layer"] if trace else doc["end_to_end"]
    return json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in source.items()
        },
    })


def write_trace(seed: int, docs: dict) -> Path:
    """Merge this invocation's spans into ``bench/results/trace-<seed>.json``
    (single-workload invocations at one seed accumulate there)."""
    path = ROOT / "bench" / "results" / f"trace-{seed}.json"
    path.parent.mkdir(exist_ok=True)
    merged = {}
    if path.exists():
        try:
            merged = json.loads(path.read_text())
        except ValueError:
            merged = {}
    merged.update({name: doc["trace"] for name, doc in docs.items()})
    path.write_text(json.dumps(merged))
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    # Every byte the run writes stays inside the checkout: inputs, DFS and
    # spill under one scratch directory, which is also TMPDIR for whatever
    # the program or multiprocessing creates through tempfile.  Registered
    # before anything imports multiprocessing, whose own exit handler must
    # run first (exit handlers run last-registered-first) to empty its
    # temporary directory in there.
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    atexit.register(shutil.rmtree, workdir, ignore_errors=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir)
    from bench import spec
    from bench.harness import ProcTree, stop_pool_helpers
    from bench.workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    if args.seconds is None:
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = 0.0 if args.smoke else float(manifest["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOADS)

    proc = ProcTree()
    proc.start()
    docs = {}
    try:
        for name in names:
            docs[name] = run_workload(WORKLOADS[name], args, workdir, proc, spec)
    finally:
        proc.stop()
        stop_pool_helpers()

    for name, doc in docs.items():
        report(name, doc, bool(args.trace))
    if args.trace:
        print(f"trace written to {write_trace(args.seed, docs)}")
        for doc in docs.values():
            del doc["trace"]  # spans live in the trace file only
    if args.out:
        result = {
            "schema": 1, "seed": args.seed, "seconds": args.seconds,
            "smoke": args.smoke, "trace": bool(args.trace), "workloads": docs,
        }
        Path(args.out).write_text(json.dumps(result, indent=1))
    for doc in docs.values():
        print(contract_line(doc, bool(args.trace)))
    return 0 if all(doc["correct"] for doc in docs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
