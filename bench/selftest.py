"""Benchmark self-test on a small corpus.

    python3 bench/run.py --selftest

Runs every workload four times with seed 0 on a SELFTEST_SCENES-scene
corpus: twice traced and twice untraced.  Checks that every run exits 0
and reports correct; that the untraced report names exactly the
end_to_end metrics of BENCHMARK.json and the traced one exactly the
per_layer metrics, with their units; that the deterministic counts are
identical across the two traced runs; and that the figures on
the comment lines (XE loss, SCST reward, CIDEr-D, ...) are bit-identical
across all four runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The smallest corpus tried (24, 40, 60, 100, 150 scenes) on which one
# warm-start epoch leaves no seed-0 val/test scene with an empty caption.
SELFTEST_SCENES = 150
DETERMINISTIC = (
    "tensor.nodes_per_item",
    "tensor.backward_calls",
    "decoder.step_calls",
    "decoder.step_calls_per_item",
    "decoder.steps_per_token",
    "controller.attention_calls",
    "metrics.cider_d_calls",
    "training.useful_update_share",
)


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    """The run's JSON result and its "# name value unit" figure lines."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--scenes", str(SELFTEST_SCENES), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    figures = dict(line[2:].split(" ", 1) for line in lines[1:] if line.startswith("# "))
    return json.loads(lines[-1]), figures


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {}
        try:
            for trace in (0, 0, 1, 1):
                runs.setdefault(trace, []).append(_run(workload, trace))
        except AssertionError as exc:
            failures.append(str(exc))
            continue
        for trace, pair in runs.items():
            for result, _ in pair:
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                if not result["correct"] or units != expected[trace]:
                    failures.append(f"{workload} trace {trace}: correct={result['correct']}, "
                                    f"metric names or units differ from BENCHMARK.json")
        (first, figures), (second, _) = runs[1]
        for key in DETERMINISTIC:
            a, b = (r["metrics"][key]["value"] for r in (first, second))
            if a != b:
                failures.append(f"{workload}: {key} {a!r} then {b!r}")
        for _, other in runs[0] + runs[1][1:]:
            if other != figures:
                failures.append(f"{workload}: figures {figures} then {other}")
        print(f"{workload}: " + ", ".join(
            [f"{k}={first['metrics'][k]['value']}" for k in DETERMINISTIC]
            + [f"{k}={v}" for k, v in figures.items()]))
    for failure in failures:
        print(f"SELFTEST FAILED: {failure}", file=sys.stderr)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0
