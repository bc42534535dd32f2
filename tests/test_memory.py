"""How much memory a recorded pass holds, and for how long.

The guard measures one ``CNM#2`` self-critical window with tracemalloc:
the decode, the replay forward and the backward of a fixed 16-scene
batch of a test corpus, without an optimizer step.  Its peak is the same
on every run, whatever the hash seed, to within a few hundred bytes, so
it can be held to a bound: a recorded pass keeps only what its backward cannot rebuild.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from modcap import config, decoder
from modcap.config import ModelConfig, TrainConfig, apply_preset
from modcap.corpus import CorpusSpec, FeatureSynthesizer, generate_corpus
from modcap.decoder import CaptionModel
from modcap.metrics import IdfTable
from modcap.tensor import Rng
from modcap.training import _pack, self_critical_loss

ROOT = Path(__file__).resolve().parent.parent
SPEC = CorpusSpec(n_scenes=40, seed=2)
WINDOW = 16
# tracemalloc's count moves by up to a few hundred bytes between runs,
# with what Python's and numpy's small-object caches hold
DRIFT = 1024
# the guard's peak is 6.986 MB since the kernels write the weights'
# gradients in place into the arena and the relation module reads its
# Q, K, V weights as a view of it (7.135 MB while each gradient was formed
# apart and copied in; 7.828 MB while the wavefront stepped the stack's
# state as one array, a fresh one per call, which the call's records kept
# whole; 7.018 MB when it stepped per-call row arrays and kept its carries
# in lists; 7.953 MB with one run per unit; 8.623 MB while a unit's step
# kept its fused block as well as the weighted copy LSTM2 keeps); the
# bound is 5% above 6.986 MB
PEAK_BOUND = 7_336_000


def window(spec=SPEC):
    """A CNM#2 model and one window's inputs: the encoding of the first
    16 train scenes of ``spec`` with their first captions, and the
    arguments ``self_critical_loss`` takes after the encoding."""
    corpus, synth = generate_corpus(spec), FeatureSynthesizer(spec)
    mcfg, _ = apply_preset("CNM#2", ModelConfig(vocab_size=len(corpus.vocab)), TrainConfig())
    model = CaptionModel(mcfg, Rng(spec.seed).derive(1))
    scenes = corpus.scenes_in("train")[:WINDOW]
    refs = corpus.references("train")
    firsts = {}
    for e in corpus.examples_in("train"):
        firsts.setdefault(e.scene_id, e)
    batch = _pack([firsts[s.scene_id] for s in scenes], {s.scene_id: s for s in scenes}, synth)
    args = ([refs[s.scene_id] for s in scenes], IdfTable(refs), corpus.vocab.tokens, Rng(5),
            16, batch, config.LAMBDA_RL)
    return model, batch, args


# A first window fills numpy's lazy caches, whose sizes vary by a few bytes
# with the address layout; the second, on fresh inputs, is measured.
PEAK_SCRIPT = """
import tracemalloc
from test_memory import window
from modcap.training import self_critical_loss
for measure in (False, True):
    model, batch, args = window()
    if measure:
        tracemalloc.start()
    enc = model.encode(batch.r_obj, batch.r_attr, batch.region_mask)
    loss, _ = self_critical_loss(model, enc, *args)
    loss.backward()
    del enc, loss
print(tracemalloc.get_traced_memory()[1])
"""


def window_peak(hashseed: str) -> int:
    """The guard's peak in bytes, under the hash seed ``hashseed``."""
    env = {**os.environ, "PYTHONHASHSEED": hashseed,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    done = subprocess.run([sys.executable, "-c", PEAK_SCRIPT], env=env, capture_output=True,
                          text=True, check=True)
    return int(done.stdout)


def test_a_self_critical_window_peaks_within_its_bound():
    peaks = {seed: window_peak(seed) for seed in ("0", "1")}
    assert abs(peaks["0"] - peaks["1"]) <= DRIFT, peaks
    assert max(peaks.values()) <= PEAK_BOUND, peaks


def test_the_backward_lets_every_record_go(monkeypatch):
    runs = []

    class Recorded(decoder.UnitRun):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runs.append(self)

    monkeypatch.setattr(decoder, "UnitRun", Recorded)
    model, batch, args = window()
    enc = model.encode(batch.r_obj, batch.r_attr, batch.region_mask)
    loss, _ = self_critical_loss(model, enc, *args)
    # the units run as one stack, a wavefront of one recording run
    recording = [run for run in runs if run.record]
    assert len(recording) == 1 and recording[0].n_units == len(model.units)
    assert all(run.lstm1.steps and run.steps for run in recording)
    names = [set(vars(run)) for run in recording]
    loss.backward()
    # the backward keeps no gradient state on the run
    assert [set(vars(run)) for run in recording] == names
    for run in recording:
        for each in (run, run.lstm1, run.lstm2, run.lstm_c, run.heads):
            assert not each.steps
        for lstm in (run.lstm1, run.lstm2, run.lstm_c):
            assert lstm.W_T is None
        assert run.heads.g_direct is None and run.heads.g_pre is None


def test_window_memory_tool_reports_every_phase():
    spec = importlib.util.spec_from_file_location("window_memory",
                                                  ROOT / "tools" / "window_memory.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    report = tool.window_memory(seed=1, n_scenes=40)
    assert list(report["peaks"]) == list(tool.PHASES)
    for peak, rise in report["peaks"].values():
        assert 0 <= rise <= peak
    backward_peak = report["peaks"]["backward"][0]
    assert 0 < report["line_peak"] <= backward_peak
    assert len(report["sites"]) == tool.SITES
    assert sum(size for size, *_ in report["sites"]) <= report["line_peak"]
    assert any(where.startswith("src/modcap/") for _, _, where, _ in report["sites"])
