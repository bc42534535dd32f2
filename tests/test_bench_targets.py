"""The benchmark's traced run wraps exactly the callables it expects to.

The benchmark (bench/run.py) reports per-layer numbers by wrapping
library callables found by module and attribute name.  A target that no
longer resolves is only reported as "cannot trace" and its rows read
zero, so a rename in the library would go unnoticed without this check.

The op-composed decoder unit (attention heads, controller step, fusion
and LSTM step) now lives in tests/reference.py, so the five targets that
wrapped it no longer resolve; a decoder unit step runs as one
``decoder.unit_kernel`` call.  ``Linear`` holds only an affine layer's
weights, and the word head they fed runs as one ``decoder.word_head``
call, so the ``layers.linear`` target no longer resolves either.  A
decode step steps the stack's run from ``CaptionModel.step``, so the
``decoder.unit`` target, a unit's own decode step, no longer resolves;
``decoder.step`` still counts the decode steps.  They stay listed here
until the benchmark replaces them, and any other target that stops
resolving fails the test.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

RETIRED_TARGETS = (
    "modcap.controller:AdditiveAttention.__call__",
    "modcap.controller:ModuleController.step",
    "modcap.decoder.fuse",
    "modcap.decoder.lstm_step",
    "modcap.controller.lstm_step",
    "modcap.layers:Linear.__call__",
    "modcap.decoder:DecoderUnit.step",
)


def test_every_trace_target_resolves_but_the_retired_ones():
    sys.path.insert(0, str(BENCH))
    try:
        run = importlib.import_module("run")
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH))
        sys.modules.pop("run", None)
        sys.modules.pop("spans", None)
    assert tuple(spans.Tracer(run.TRACE_TARGETS).missing) == RETIRED_TARGETS
