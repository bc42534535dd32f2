"""modcap benchmark: runs one workload in this process and reports it.

    python3 bench/run.py --workload xe_train --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --selftest

Prints one line per metric with its unit, then, as the last line, one
JSON object with the keys correct, attempted, failed and metrics.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps
library functions with span timers, reports the per-layer metrics of
the workload's fixed block plus the tracing overhead, and writes the
spans of the traced set-up and the block to bench/out/spans-<workload>.jsonl.

Exit status: 0 when every correctness check passed, 1 when one failed,
2 when the arguments are bad or modcap cannot be imported from src/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("xe_train", "scst_train", "beam_decode")

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("item_p50_ms", "ms", "lower"),
    ("item_p90_ms", "ms", "lower"),
)

# span name, where the caller looks the callable up, attribute
TRACE_TARGETS = (
    ("corpus.generate", "modcap.corpus", "generate_corpus"),
    ("corpus.features", "modcap.corpus:FeatureSynthesizer", "features"),
    ("encoders.encode", "modcap.decoder:CaptionModel", "encode"),
    ("encoders.relation", "modcap.encoders:RelationModule", "__call__"),
    ("controller.attention", "modcap.controller:AdditiveAttention", "__call__"),
    ("controller.ctrl_step", "modcap.controller:ModuleController", "step"),
    ("controller.fuse", "modcap.decoder", "fuse"),
    ("tensor.lstm_step", "modcap.decoder", "lstm_step"),
    ("tensor.lstm_step", "modcap.controller", "lstm_step"),
    ("tensor.backward", "modcap.tensor:Tensor", "backward"),
    ("tensor.adam", "modcap.tensor:Adam", "step"),
    ("tensor.clip", "modcap.training", "clip_global_norm"),
    ("layers.linear", "modcap.layers:Linear", "__call__"),
    ("decoder.step", "modcap.decoder:CaptionModel", "step"),
    ("decoder.unit", "modcap.decoder:DecoderUnit", "step"),
    ("decoder.beam", "modcap.decoder", "beam_search"),
    ("decoder.sample", "modcap.training", "sample_decode"),
    ("decoder.greedy", "modcap.training", "greedy_decode"),
    ("metrics.cider_d", "modcap.training", "cider_d"),
    ("metrics.cider_d", "modcap.metrics", "cider_d"),
    ("metrics.evaluate", "modcap.metrics", "evaluate_captions"),
    ("training.teacher_forced", "modcap.training", "teacher_forced"),
    ("training.batches", "modcap.training", "make_batches"),
    ("training.xe_epoch", "modcap.training", "run_xe_epoch"),
    ("training.rl_epoch", "modcap.training", "run_rl_epoch"),
)
LAYERS = tuple(dict.fromkeys(name for name, _, _ in TRACE_TARGETS))

PER_LAYER = tuple(
    metric for layer in LAYERS for metric in (
        (f"{layer}_s", "s", "lower"),
        (f"{layer}_self_s", "s", "lower"),
        (f"{layer}_calls", "count", "lower"),
    )
) + (
    ("tensor.nodes_per_item", "count", "lower"),
    ("decoder.step_calls_per_item", "count", "lower"),
    ("decoder.steps_per_token", "ratio", "lower"),
    ("training.useful_update_share", "share", "higher"),
    ("trace.traced_item_ms", "ms", "lower"),
    ("trace.untraced_item_ms", "ms", "lower"),
    ("trace.overhead_share", "share", "lower"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one modcap benchmark workload.")
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scenes", type=int, default=500,
                   help="corpus size; the self-test shrinks it")
    p.add_argument("--selftest", action="store_true",
                   help="run every workload twice at a tiny size and check the report")
    args = p.parse_args(argv)
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    return args


def _median(times):
    return statistics.median(times) if times else math.nan


def _p50_p90(times):
    if not times:
        return math.nan, math.nan
    if len(times) == 1:
        return times[0], times[0]
    return statistics.median(times), statistics.quantiles(times, n=10, method="inclusive")[8]


def end_to_end(setup, out) -> dict:
    m = out.measured
    p50, p90 = _p50_p90(m.times)
    return {
        "setup_s": setup.seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_per_s": m.items / m.elapsed,
        "item_p50_ms": 1e3 * p50,
        "item_p90_ms": 1e3 * p90,
    }


def per_layer(tracer, out) -> dict:
    m = out.measured
    summary = tracer.summary(m.block_spans)
    scale = m.block_scale
    values = {}
    for layer in LAYERS:
        row = summary.get(layer, {"s": 0.0, "self_s": 0.0, "calls": 0})
        values[f"{layer}_s"] = row["s"] * scale
        values[f"{layer}_self_s"] = row["self_s"] * scale
        values[f"{layer}_calls"] = row["calls"]
    steps = values["decoder.step_calls"]
    traced = 1e3 * _median(m.traced_times)
    untraced = 1e3 * _median(m.times)
    items = max(m.block_items, 1)
    values.update({
        "tensor.nodes_per_item": m.block_nodes / items,
        "decoder.step_calls_per_item": steps / items,
        "decoder.steps_per_token": steps / out.block_tokens if out.block_tokens else 0.0,
        "training.useful_update_share": out.useful_update_share,
        "trace.traced_item_ms": traced,
        "trace.untraced_item_ms": untraced,
        "trace.overhead_share": traced / untraced - 1.0,
    })
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.selftest:
        import selftest
        return selftest.main()

    # BLAS threads capped at the CPUs this process may use; must precede numpy.
    cpus = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cpus)
    if not (SRC / "modcap" / "__init__.py").is_file():
        print(f"bench: no modcap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import hostclock
        import spans
        import workloads
    except ImportError as exc:
        print(f"bench: cannot import modcap: {exc}", file=sys.stderr)
        return 2

    counts = {"sampled_tokens": 0}
    tracer = None
    if args.trace:
        def count_sampled(result):
            counts["sampled_tokens"] += len(result[0])
        targets = [t + ((count_sampled,) if t[0] == "decoder.sample" else ())
                   for t in TRACE_TARGETS]
        # Probe spans are kept out of the report but make the probe time
        # a child of whatever span it interrupts, not part of its self time.
        tracer = spans.Tracer(targets + [("bench.probe", "hostclock:HostClock", "probe")])
        for where in tracer.missing:
            print(f"bench: cannot trace {where}: not found", file=sys.stderr)

    clock = hostclock.HostClock()
    run = workloads.WORKLOADS[args.workload]
    setup, out = run(clock, args.seed, args.scenes, args.seconds, tracer, counts)
    m = out.measured
    values = per_layer(tracer, out) if tracer else end_to_end(setup, out)
    table = PER_LAYER if tracer else END_TO_END

    problems = list(out.problems)
    if m.failed:
        problems.append(f"{m.failed} of {m.attempted} operations failed")
    for name, value in values.items():
        if not math.isfinite(value):
            problems.append(f"{name} is {value}")
            values[name] = None
    problems += [f"{name} is {value}" for name, (value, _) in out.figures.items()
                 if not math.isfinite(value)]

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          f"measured {m.elapsed:.2f} nominal s, {m.items} items, "
          f"{len(m.times)} untraced and {len(m.traced_times)} traced latency samples")
    for name, (value, unit) in out.figures.items():
        print(f"# {name} {value} {unit}")
    for name, unit, _ in table:
        print(f"{name} {values[name]} {unit}")
    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    if tracer:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.jsonl", m.block_spans)

    result = {
        "correct": not problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in table},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
