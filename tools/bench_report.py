"""Write a benchmark report: each end-to-end metric of each workload as the
median and quartiles of repeated runs, and the Tier-1 suite's wall time.

    PYTHONPATH=src python tools/bench_report.py --out BENCH_<n>.json

Runs ``bench/run.py --workload W --seed 0 --trace 0`` of this checkout
as a subprocess 3 times for each workload that ``BENCHMARK.json`` lists,
each for its ``run_seconds``, and reads the JSON object on the last
line of each run's output.  Each run stays a fresh process, as the
benchmark intends.  Then it runs the Tier-1 suite
once, ``python -m pytest -q --continue-on-collection-errors`` in the
caller's environment (``src`` on ``PYTHONPATH``, as Tier-1 runs), and
times it.  That run leaves out
``tests/test_bench_report.py``, which checks the committed reports: a
report cannot be committed before it is written.

The report (``docs/bench_report.schema.json``) holds one row per
workload and end-to-end metric, and one ``tier1`` row, each with every
run's value, their median and quartiles (``statistics.quantiles``,
inclusive), and per workload how many operations the runs attempted and
how many failed.  Wall times are only comparable between reports made
on one machine, one right after the other.

Exit status: 0 when every run reported a correct result and the suite
passed, 1 otherwise (the report is still written), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--ignore=tests/test_bench_report.py"]
# pytest's closing line: "621 passed in 63.29s", "1 failed, 620 passed in ..."
SUMMARY = re.compile(r"(\d+) (passed|failed|errors?)\b")


def summarize(values: list[float]) -> dict:
    """The median and quartiles of ``values``, and the values themselves."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def run_workload(workload: str, seconds: float) -> dict:
    """One benchmark run's JSON result, or a failed run's stand-in."""
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "0", "--trace", "0", "--seconds", str(seconds)],
                          cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if done.returncode != 0:
        result["correct"] = False
    return result


def run_tier1() -> tuple[float, dict]:
    """The suite's wall time in seconds and its pytest outcome counts."""
    started = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - started
    last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    counts = {"passed": 0, "failed": 0, "errors": 0}
    for n, kind in SUMMARY.findall(last):
        counts["errors" if kind.startswith("error") else kind] = int(n)
    counts["exit"] = done.returncode
    return wall, counts


def git_state() -> dict:
    """The commit the checkout sits on and whether its files differ from it."""
    def git(*args):
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"head": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def report() -> tuple[dict, bool]:
    """The report of this checkout, and whether every run and the suite passed."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    rows, runs, ok = [], {}, True
    for workload in (w["name"] for w in bench["workloads"]):
        results = [run_workload(workload, seconds) for _ in range(REPEATS)]
        ok &= all(r["correct"] for r in results)
        runs[workload] = {"correct": [r["correct"] for r in results],
                          "attempted": [r["attempted"] for r in results],
                          "failed": [r["failed"] for r in results]}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results
                      if metric["name"] in r["metrics"]]
            if len(values) < len(results):
                ok = False
            if values:
                rows.append({"workload": workload, "metric": metric["name"],
                             "unit": metric["unit"], "better": metric["better"],
                             **summarize(values)})
    wall, counts = run_tier1()
    ok &= counts["exit"] == 0
    rows.append({"workload": "tier1", "metric": "wall_s", "unit": "s", "better": "lower",
                 **summarize([wall])})
    return {
        "tree": git_state(),
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "command": f"bench/run.py --workload W --seed 0 --trace 0 --seconds {seconds}",
        "repeats": REPEATS,
        "rows": rows,
        "runs": runs,
        "tier1": {"command": " ".join(["python", *TIER1]), **counts},
    }, ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Write a benchmark report of repeated runs.")
    p.add_argument("--out", required=True, help="where to write the report (JSON)")
    args = p.parse_args(argv)
    data, ok = report()
    Path(args.out).write_text(json.dumps(data, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
