"""Steadiness report for the benchmark.

    python3 bench/steady.py                                  # 10 seeds, every workload
    python3 bench/steady.py --runs 5 --workloads scst_train
    python3 bench/steady.py --first-seed 100 --baseline bench/out/steady.json \
        --out bench/out/steady-2.json

Runs the command from BENCHMARK.json once per seed and workload, one
process at a time, then prints for each end-to-end metric the median,
the quartiles from statistics.quantiles(values, n=4) and the spread
(q3 - q1) / median.  A spread above the metric's bound is marked OVER,
one above a third of it "wide"; setup_s is shown but not judged by its
spread.  With --baseline, a median worse than the baseline report's by
more than the bound is marked WORSE.  Exit status 1 when a run fails or
any metric is marked OVER or WORSE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_JUDGED_BY_SPREAD = {"setup_s"}


def run_once(bench: dict, workload: str, seed: int) -> tuple[dict | None, float]:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    began = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - began
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None, wall
    return json.loads(lines[-1]), wall


def worse_by(metric: dict, median: float, base: float) -> float:
    change = (median - base) / base
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", help="comma-separated; default every workload")
    p.add_argument("--baseline", help="an earlier report to compare medians with")
    p.add_argument("--out", default=str(ROOT / "bench" / "out" / "steady.json"))
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else {}
    report = {}
    bad = False
    walls = []
    for workload in names:
        values: dict[str, list] = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, wall = run_once(bench, workload, seed)
            walls.append(wall)
            if result is None or not result["correct"]:
                bad = True
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload}: {args.runs} runs")
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        report[workload] = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[name]
            if len(vals) < 2:
                print(f"  {name:<14} too few runs")
                bad = True
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            report[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                      "spread": spread, "values": vals}
            marks = []
            if name not in NOT_JUDGED_BY_SPREAD:
                if spread > bound:
                    marks.append("OVER")
                    bad = True
                elif spread > bound / 3:
                    marks.append("wide")
            base = baseline.get(workload, {}).get(name)
            if base:
                change = worse_by(metric, med, base["median"])
                marks.append(f"{'worse' if change > 0 else 'better'} than baseline "
                             f"by {abs(change):.1%}")
                if change > bound:
                    marks.append("WORSE")
                    bad = True
            print(f"  {name:<14}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}"
                  f"{bound:>7.2f}  {' '.join(marks)}")
    print(f"\n{len(walls)} runs: mean {statistics.fmean(walls):.1f} s, "
          f"max {max(walls):.1f} s, total {sum(walls):.0f} s")
    Path(args.out).parent.mkdir(exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
