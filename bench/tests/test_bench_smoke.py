"""Smoke test of the repo benchmark: all four workloads at a tiny size.

Holds ``BENCHMARK.json``, ``bench.spec`` and what ``bench/run.py`` actually
prints together, and checks that a run leaves nothing behind.  The numbers
of a ``--smoke`` run mean nothing; only their names, units and shape do.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:  # pytest started from elsewhere
    sys.path.insert(0, str(ROOT))
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 3


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    shm_before = set(os.listdir("/dev/shm"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--seed", str(SEED),
         "--trace", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return {
        "doc": json.loads(out.read_text()),
        "out": out,
        "stdout": proc.stdout,
        "shm_leaked": set(os.listdir("/dev/shm")) - shm_before,
    }


def test_manifest_matches_the_catalogue():
    from bench import spec

    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    for section, catalogue in (("end_to_end", spec.END_TO_END), ("per_layer", spec.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in MANIFEST[section]]
        assert listed == [(m.name, m.unit, m.better) for m in catalogue]
        for name, unit, better in listed:
            assert NAME.fullmatch(name) and UNIT.fullmatch(unit)
            assert better in ("higher", "lower")
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in MANIFEST["end_to_end"]
    )


def test_every_named_metric_is_emitted_once_with_its_unit(smoke):
    doc = smoke["doc"]
    assert doc["smoke"] is True
    assert list(doc["workloads"]) == [w["name"] for w in MANIFEST["workloads"]]
    for name, result in doc["workloads"].items():
        assert result["correct"], (name, result["problems"])
        assert result["failed"] == 0 and result["attempted"] >= 1
        for section in ("end_to_end", "per_layer"):
            want = {m["name"]: m["unit"] for m in MANIFEST[section]}
            got = {k: v["unit"] for k, v in result[section].items()}
            assert got == want, (name, section)
        # cpu_s is counted in 10 ms ticks, which a smoke-sized rep may not fill
        assert all(
            v["value"] > 0 for k, v in result["end_to_end"].items() if k != "cpu_s"
        ), name


def test_last_lines_follow_the_driver_contract(smoke):
    lines = [l for l in smoke["stdout"].splitlines() if l.startswith('{"correct"')]
    assert len(lines) == len(MANIFEST["workloads"])
    assert smoke["stdout"].rstrip().endswith(lines[-1])
    for line in lines:
        result = json.loads(line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == {m["name"] for m in MANIFEST["per_layer"]}


def test_layers_that_do_no_work_report_zero(smoke):
    """The isolation claims the workloads exist for."""
    layers = {
        name: result["per_layer"] for name, result in smoke["doc"]["workloads"].items()
    }
    train = layers["train_nc_columnar"]
    assert all(v["value"] == 0 for k, v in train.items() if k.startswith("mapreduce."))
    assert layers["lp_pipeline"]["mapreduce.shuffle_bytes_written"]["value"] == 0
    for spilled in ("flat_powerlaw_spill", "infer_fullgraph"):
        assert layers[spilled]["mapreduce.shuffle_bytes_written"]["value"] > 0
        assert layers[spilled]["core.trainer.compute_s"]["value"] == 0


def test_trace_spans_resolve_and_self_times_add_up(smoke):
    trace = json.loads((ROOT / "bench" / "results" / f"trace-{SEED}.json").read_text())
    for name in (w["name"] for w in MANIFEST["workloads"]):
        spans = trace[name]["spans"]
        ids = {s["id"] for s in spans}
        roots = [s for s in spans if s["parent"] is None]
        assert len(roots) == 1 and roots[0]["layer"] == "bench"
        assert all(s["parent"] in ids for s in spans if s["parent"] is not None)
        assert all(s["workload"] == name and s["end"] >= s["start"] for s in spans)
        assert abs(trace[name]["self_sum_over_root"] - 1) < 0.05


def test_compare_refuses_smoke_results(smoke):
    proc = subprocess.run(
        [sys.executable, "-m", "bench.compare", str(smoke["out"]), str(smoke["out"])],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and "smoke" in proc.stderr


def test_run_leaves_nothing_behind(smoke):
    assert not smoke["shm_leaked"]
    work = ROOT / ".bench_work"
    assert not work.exists() or not list(work.glob("run-*"))
