"""The fused decoder unit step against the op-composed reference.

``DecoderUnit.step`` runs a whole unit step as one autodiff node
(``decoder.unit_kernel``); ``DecoderUnit.reference_step`` composes the
same step from one node per op.  Every preset of the ablation grid runs
on a batch of scenes with different region counts (zero-padded, masked)
once through each, and every forward value, decoded token and gradient
must agree bit for bit.
"""

import numpy as np
import pytest

from modcap.config import PRESET_GRID, ModelConfig, TrainConfig, apply_preset
from modcap.corpus import CorpusSpec, FeatureSynthesizer, generate_corpus
from modcap.decoder import (
    BOS_ID,
    CaptionModel,
    DecoderUnit,
    beam_search,
    greedy_decode,
    sample_decode,
)
from modcap.tensor import Rng, Tensor
from modcap.training import _pack, teacher_forced

SPEC = CorpusSpec(n_scenes=40, seed=5)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(SPEC)


@pytest.fixture(scope="module")
def padded_batch(corpus):
    """Two examples of each region count present, packed into one batch."""
    synth = FeatureSynthesizer(SPEC)
    scenes = {s.scene_id: s for s in corpus.scenes}
    by_count = {}
    for e in corpus.examples:
        by_count.setdefault(len(scenes[e.scene_id].regions), []).append(e)
    examples = [e for k in sorted(by_count) for e in by_count[k][:2]]
    batch = _pack(examples, scenes, synth)
    assert len(set(batch.region_mask.sum(axis=1))) > 1
    return batch


def preset_model(corpus, preset, gumbel_tau=1.0):
    model_cfg, train_cfg = apply_preset(
        preset, ModelConfig(vocab_size=len(corpus.vocab), d_v=16, d_c=16, d_a=8, m_units=2,
                            gumbel_tau=gumbel_tau),
        TrainConfig())
    return CaptionModel(model_cfg, Rng(3).derive(1)), train_cfg


def run_everything(model, train_cfg, batch):
    """Bytes of every forward value, decoded tokens and every gradient."""
    out = {}
    params = model.named_parameters()
    for p in params.values():
        p.grad = None
    stats = teacher_forced(model, batch, lam_ling=train_cfg.lambda_xe if train_cfg.linguistic
                           else 0.0, rng=Rng(1))
    stats.loss.backward()
    out["loss"] = stats.loss.data.tobytes()
    out["counts"] = (stats.n_correct, stats.n_agree)
    out.update((f"grad:{name}", p.grad.tobytes()) for name, p in params.items()
               if p.grad is not None)

    enc = model.encode(batch.r_obj, batch.r_attr, batch.region_mask)
    states = model.init_state(batch.size)
    tokens = np.full(batch.size, BOS_ID)
    for t in range(3):
        dist, states, traces = model.step(tokens, enc, states, rng=Rng(2 + t))
        out[f"dist{t}"] = dist.data.tobytes()
        for m, (st, tr) in enumerate(zip(states, traces)):
            for field in ("h1", "c1", "h2", "c2"):
                out[f"step{t}.unit{m}.{field}"] = getattr(st, field).data.tobytes()
            if st.ctrl is not None:
                out[f"step{t}.unit{m}.ctrl"] = (st.ctrl.h.data.tobytes(),
                                                st.ctrl.c.data.tobytes())
            for field in ("weights", "soft"):
                value = getattr(tr, field)
                out[f"step{t}.unit{m}.{field}"] = None if value is None else value.data.tobytes()
            out[f"step{t}.unit{m}.alphas"] = {k: a.data.tobytes() for k, a in tr.alphas.items()}
        tokens = batch.targets[:, t]

    out["greedy"] = greedy_decode(model, enc, 12)
    out["sample"] = sample_decode(model, enc, Rng(4), 12)[0]
    one = model.encode(batch.r_obj[:1, :int(batch.region_mask[0].sum())],
                       batch.r_attr[:1, :int(batch.region_mask[0].sum())])
    out["beam"] = [(h.tokens, h.logprob) for h in beam_search(model, one, 5, 12)]
    return out


# the grid at the default temperature, and hard selection at another
@pytest.mark.parametrize("preset, gumbel_tau",
                         [(preset, 1.0) for preset in PRESET_GRID] + [("Col/H+L", 0.5)])
def test_kernel_matches_reference_bit_for_bit(corpus, padded_batch, preset, gumbel_tau,
                                              monkeypatch):
    model, train_cfg = preset_model(corpus, preset, gumbel_tau)
    fused = run_everything(model, train_cfg, padded_batch)
    monkeypatch.setattr(DecoderUnit, "step", DecoderUnit.reference_step)
    reference = run_everything(model, train_cfg, padded_batch)
    assert fused.keys() == reference.keys()
    differ = [key for key in fused if fused[key] != reference[key]]
    assert differ == []
    assert any(key.startswith("grad:unit1.att.") for key in fused)


@pytest.mark.parametrize("preset", ["CNM#2", "Col/H", "Col/1", "Module/O"])
def test_one_node_per_unit_step(corpus, preset):
    model, _ = preset_model(corpus, preset)
    enc = model.encode(*FeatureSynthesizer(SPEC).features(corpus.scenes[0]))
    unit = model.units[0]
    i_prev = Tensor(np.ones((1, model.cfg.d_v), dtype=np.float32), requires_grad=True)
    state = unit.init_state(1)
    start = next(Tensor._ids)
    i_new, new, trace = unit.step(i_prev, enc, state)
    created = next(Tensor._ids) - start - 1
    # the node reads the inputs and parameters themselves ...
    assert any(p is i_prev for p in i_new._parents)
    assert any(p is unit.lstm2.W for p in i_new._parents)
    # ... and the new state and the controller softmax hang off it
    outputs = [new.h1, new.c1, new.h2, new.c2]
    if trace.soft is not None:
        outputs += [new.ctrl.h, new.ctrl.c, trace.soft]
    assert all(out._parents == (i_new,) for out in outputs)
    # the attention weights and any fusion weights but the softmax are
    # constants: no gradient, no node
    constants = list(trace.alphas.values())
    if trace.weights is not None and trace.weights is not trace.soft:
        constants.append(trace.weights)
    assert not any(c.requires_grad for c in constants)
    assert created == 1 + len(outputs) + len(constants)


def test_graph_is_freed_without_the_cycle_collector(corpus, padded_batch):
    # the step node never refers to its outputs: a finished graph is freed
    # by reference counting alone, not left for the cycle collector
    import gc
    model, train_cfg = preset_model(corpus, "CNM#2")
    gc.collect()
    gc.disable()
    try:
        stats = teacher_forced(model, padded_batch, lam_ling=1.0, rng=Rng(1))
        stats.loss.backward()
        del stats
        assert gc.collect() == 0
    finally:
        gc.enable()
