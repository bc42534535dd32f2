"""Every callable the benchmark's traced run wraps still exists.

The benchmark (bench/run.py) reports per-layer numbers by wrapping
library callables found by module and attribute name.  A target that no
longer resolves is only reported as "cannot trace" and its rows read
zero, so a rename in the library would go unnoticed without this check.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_trace_target_resolves():
    sys.path.insert(0, str(BENCH))
    try:
        run = importlib.import_module("run")
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH))
        sys.modules.pop("run", None)
        sys.modules.pop("spans", None)
    assert spans.Tracer(run.TRACE_TARGETS).missing == []
