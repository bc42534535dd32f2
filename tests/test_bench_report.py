"""The committed benchmark reports (``BENCH_<n>.json``, written by
``tools/bench_report.py``) fit their schema and cover the benchmark."""

import importlib.util
import json
from pathlib import Path

import jsonschema
import pytest

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "bench_report.schema.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORTS = sorted(ROOT.glob("BENCH_*.json"))


def test_a_report_is_committed():
    assert REPORTS


@pytest.mark.parametrize("path", REPORTS, ids=[p.name for p in REPORTS])
def test_a_committed_report_fits_the_schema_and_covers_the_benchmark(path):
    report = json.loads(path.read_text())
    jsonschema.validate(report, SCHEMA)
    rows = {(row["workload"], row["metric"]): row for row in report["rows"]}
    assert len(rows) == len(report["rows"])
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for metric in BENCHMARK["end_to_end"]:
            row = rows.pop((workload, metric["name"]))
            assert (row["unit"], row["better"]) == (metric["unit"], metric["better"])
            assert len(row["values"]) == report["repeats"]
            assert row["q1"] <= row["median"] <= row["q3"]
        assert all(report["runs"][workload]["correct"])
    assert list(rows) == [("tier1", "wall_s")]
    assert report["tier1"]["failed"] == report["tier1"]["errors"] == 0


def test_quartiles_of_three_runs():
    spec = importlib.util.spec_from_file_location("bench_report",
                                                  ROOT / "tools" / "bench_report.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "q1": 1.5, "q3": 2.5,
                                               "values": [3.0, 1.0, 2.0]}
    assert tool.summarize([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0, "values": [4.0]}
