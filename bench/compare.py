"""Compare two result files: ``python -m bench.compare A.json B.json``.

``A`` is the baseline (parent commit, or the first of two runs of one
commit), ``B`` the candidate.  For every (end-to-end metric, workload) pair
the relative change is judged against the bound ``BENCHMARK.json`` fixes;
a pair whose own rep-to-rep spread exceeds that bound is ``unresolved``,
never ``unchanged``.  Counts that repeat exactly at a fixed seed must be
equal.  Exits 0 only when every row is ``unchanged`` or ``improved``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # run as a script: make ``bench`` importable
    sys.path.insert(0, str(ROOT))

from bench import spec  # noqa: E402

_NO_SPREAD = ("setup_s", "peak_rss_mb")
"""Never ``unresolved``: three set-ups are too few to estimate a spread
from (the driver exempts ``setup_s`` from its spread rule too) and a peak
has none.  Every other metric derives from the repetition walls."""


def load(path: str) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("smoke"):
        sys.exit(f"bench.compare: {path} is a --smoke result; its numbers mean nothing")
    return doc


def judge(metric: dict, a: dict, b: dict) -> tuple[float, str]:
    """Relative change of B against A in the *worse* direction, and the
    verdict for it."""
    base, new = a[metric["name"]]["value"], b[metric["name"]]["value"]
    worse = (new - base) / base if metric["better"] == "lower" else (base - new) / base
    if metric["name"] not in _NO_SPREAD:
        spread = max(a["rep_wall_s"]["spread"], b["rep_wall_s"]["spread"])
        if spread > metric["bound"]:
            return worse, "unresolved"
    if worse > metric["bound"]:
        return worse, "regressed"
    if worse < -metric["bound"]:
        return worse, "improved"
    return worse, "unchanged"


def compare(a: dict, b: dict, manifest: dict) -> list[tuple]:
    rows = []
    for name in (w["name"] for w in manifest["workloads"]):
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in manifest["end_to_end"]:
            worse, verdict = judge(metric, wa["end_to_end"], wb["end_to_end"])
            rows.append((name, metric["name"], f"{worse:+.1%} worse", verdict))
        for key in ("output_sha256", "loss_trajectory_sha256"):
            if key in wa or key in wb:
                same = wa.get(key) == wb.get(key)
                rows.append((name, key, "", "unchanged" if same else "mismatch"))
        if "per_layer" in wa and "per_layer" in wb:
            differing = sorted(
                count for count in spec.EXACT
                if wa["per_layer"][count]["value"] != wb["per_layer"][count]["value"]
            )
            rows.append((
                name, f"{len(spec.EXACT)} exact counts", " ".join(differing),
                "mismatch" if differing else "unchanged",
            ))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit("usage: python -m bench.compare A.json B.json")
    a, b = load(argv[0]), load(argv[1])
    if a["seed"] != b["seed"]:
        print(f"note: seeds differ ({a['seed']} vs {b['seed']}): "
              "exact counts and hashes are expected to mismatch")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, manifest)
    if not rows:
        sys.exit("bench.compare: the two files share no workload")
    for workload, what, detail, verdict in rows:
        print(f"{workload:<22}{what:<26}{verdict:<11}{detail}")
    bad = [row for row in rows if row[3] not in ("unchanged", "improved")]
    print(f"{len(rows)} rows, {len(bad)} not unchanged/improved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
