"""Where the memory of one self-critical window goes.

    python tools/window_memory.py --seed 0

Sets up as the ``scst_train`` benchmark workload does, with the settings
``bench/workloads.py`` defines: the standard corpus of the seed
(``STANDARD_SCENES``), a model of preset ``PRESET`` with lr ``LR``,
max_len ``MAX_LEN`` and batch ``SCST_WINDOW``, and one XE epoch of warm
start.  Then it runs the first ``SCST_WINDOW``-scene self-critical
window (``training.run_rl_epoch`` with ``max_steps=SCST_WINDOW``) under
tracemalloc, which starts after the warm start, and prints the peak of
traced memory in each phase of the window:

* ``decode``: packing, encoding, the 2B-row decode and CIDEr-D scoring;
* ``replay forward``: the teacher-forced replay and the loss;
* ``backward``: ``loss.backward()``;
* ``clip and Adam``: gradient clipping and the optimizer step.

A phase's peak is the most memory traced at any moment of it, counted
from the start of tracing; its rise is that peak less what was traced
when the phase began.  The tool also lists the ``SITES`` allocation
sites that hold the most memory at the backward's peak.  tracemalloc
sees only function boundaries and lines, not the middle of a numpy
expression, so the window runs twice from the same state: the first run finds the
line of the backward at which the most memory is traced, and the second
takes a snapshot there, then steps the optimizer.  The phase peaks are
those of the first run, whose backward carries no snapshot, but for
clipping and Adam, which only the second run reaches.
"""

from __future__ import annotations

import argparse
import linecache
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from modcap import config, corpus, decoder, metrics, tensor, training  # noqa: E402
from workloads import LR, MAX_LEN, PRESET, SCST_WINDOW, STANDARD_SCENES  # noqa: E402

SITES = 12
PHASES = ("decode", "replay forward", "backward", "clip and Adam")


class _Stop(Exception):
    """Ends the probing run after its backward, before the optimizer step."""


class _Phases:
    """Peak and rise of traced memory per phase, phases begun in order."""

    def __init__(self):
        self.name, self.start, self.peaks = None, 0, {}

    def begin(self, name: str | None) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self.name is not None:
            self.peaks[self.name] = (peak, peak - self.start)
        tracemalloc.reset_peak()
        self.name, self.start = name, current


class _LineWatch:
    """A trace function that reads traced memory at every call, line and
    return event it sees, keeps the event at which it was largest, and
    takes a snapshot at event ``at``."""

    def __init__(self, at: int | None = None):
        self.at, self.events, self.most, self.most_at, self.snapshot = at, 0, -1, 0, None

    def __call__(self, frame, event, arg):
        self.events += 1
        current = tracemalloc.get_traced_memory()[0]
        if current > self.most:
            self.most, self.most_at = current, self.events
        if self.events == self.at:
            self.snapshot = tracemalloc.take_snapshot()
        return self


def set_up(seed: int, n_scenes: int):
    """Corpus, features, model, train config and a one-epoch XE warm
    start, with the settings of the scst_train workload."""
    spec = corpus.CorpusSpec(n_scenes=n_scenes, seed=seed)
    data = corpus.generate_corpus(spec)
    synth = corpus.FeatureSynthesizer(spec)
    model_cfg, train_cfg = config.apply_preset(
        PRESET, config.ModelConfig(vocab_size=len(data.vocab)),
        config.TrainConfig(seed=seed, lr=LR, batch_size=SCST_WINDOW, max_len=MAX_LEN,
                           xe_epochs=1, rl_epochs=1))
    model = decoder.CaptionModel(model_cfg, tensor.Rng(seed).derive(training.MODEL_INIT_TAG))
    opt, rng = tensor.Adam(), tensor.Rng(seed).derive(training.TRAIN_STREAM_TAG)
    training.run_xe_epoch(model, data, synth, train_cfg, opt, rng, 0)
    return data, synth, model, train_cfg, opt, rng


def _window(setup, idf, phases: _Phases, watch: _LineWatch, stop: bool) -> None:
    """One window with the phases marked; ``stop`` ends it after the
    backward."""
    data, synth, model, train_cfg, opt, rng = setup
    forced, backward = decoder.CaptionModel.forced, tensor.Tensor.backward

    def marked_forced(self, *args, **kwargs):
        phases.begin("replay forward")
        return forced(self, *args, **kwargs)

    def watched_backward(self):
        phases.begin("backward")
        sys.settrace(watch)
        try:
            backward(self)
        finally:
            sys.settrace(None)
        if stop:
            phases.begin(None)
            raise _Stop
        phases.begin("clip and Adam")

    decoder.CaptionModel.forced, tensor.Tensor.backward = marked_forced, watched_backward
    try:
        phases.begin("decode")
        training.run_rl_epoch(model, data, synth, train_cfg, opt, rng, train_cfg.xe_epochs,
                              idf, max_steps=SCST_WINDOW)
        phases.begin(None)
    except _Stop:
        pass
    finally:
        decoder.CaptionModel.forced, tensor.Tensor.backward = forced, backward


def window_memory(seed: int, n_scenes: int = STANDARD_SCENES) -> dict:
    """Per-phase (peak, rise) in bytes, the backward's largest traced size
    at a line boundary, and the ``SITES`` largest allocation sites there as
    (bytes, blocks, "file:line", source line)."""
    setup = set_up(seed, n_scenes)
    data, rng = setup[0], setup[5]
    idf = metrics.IdfTable(data.references("train"))
    state = rng.get_state()
    tracemalloc.start()
    try:
        probe, watch = _Phases(), _LineWatch()
        _window(setup, idf, probe, watch, stop=True)
        if "backward" not in probe.peaks:
            raise SystemExit("the window made no update: every advantage was zero")
        rng.set_state(state)
        rerun, snap = _Phases(), _LineWatch(at=watch.most_at)
        _window(setup, idf, rerun, snap, stop=False)
    finally:
        tracemalloc.stop()
    ignore = [tracemalloc.Filter(False, tracemalloc.__file__), tracemalloc.Filter(False, __file__)]
    sites = []
    for stat in snap.snapshot.filter_traces(ignore).statistics("lineno")[:SITES]:
        frame = stat.traceback[0]
        path = Path(frame.filename)
        name = str(path.relative_to(ROOT)) if path.is_relative_to(ROOT) else frame.filename
        sites.append((stat.size, stat.count, f"{name}:{frame.lineno}",
                      linecache.getline(frame.filename, frame.lineno).strip()))
    peaks = {**probe.peaks, "clip and Adam": rerun.peaks["clip and Adam"]}
    return {"peaks": peaks, "line_peak": watch.most, "sites": sites}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Traced memory of one scst_train self-critical window.")
    p.add_argument("--seed", type=int, default=0, help="corpus, model and training seed")
    args = p.parse_args(argv)
    report = window_memory(args.seed)
    mb = 1e-6
    print(f"{'phase':<16}{'peak MB':>10}{'rise MB':>10}")
    for name in PHASES:
        peak, rise = report["peaks"][name]
        print(f"{name:<16}{peak * mb:>10.3f}{rise * mb:>10.3f}")
    print(f"\nallocation sites at the backward's largest line boundary, "
          f"{report['line_peak'] * mb:.3f} MB traced:")
    for size, count, where, line in report["sites"]:
        print(f"{size * mb:>9.3f} MB {count:>7} blocks  {where}  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
