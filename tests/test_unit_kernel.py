"""The fused decoder unit against the op-composed reference, and the
whole-sequence kernel against the step loop.

A unit's step runs forward only on plain state rows (a decode step,
``CaptionModel.step``) or, in teacher forcing, inside one autodiff node
from the zero state (``decoder.unit_kernel``);
``reference.reference_step`` composes the same step from one node per
op.  Every preset of the ablation grid runs on a batch of scenes with
different region counts (zero-padded, masked) once through each: every
forward value, decoded token, and gradient of a one-step teacher-forced
pass must agree bit for bit.  A decode step returns only the word
distribution and the state, so the fused side's module weights,
controller softmax and attention come from a teacher-forced pass over
the same tokens and noise.

Teacher forcing runs the units over all T steps in one kernel call
(``CaptionModel.forced``), a wavefront that steps unit m's step t with
unit m + 1's step t - 1; it must agree with T chained reference steps
to float-summation noise, and draw the same random numbers, and bit for
bit with the units chained one kernel node each, on presets and on
stacks that ``hypothesis`` draws.  In float64, a
three-step kernel pass must agree to rounding with chained reference
steps whose LSTMs or attention heads are composed of primitives
(``reference.reference_lstm``, ``reference.reference_attention``),
oracles that share no arithmetic with the kernel's ``LstmRun`` and
``AttentionRun``.

Without gradients, greedy and beam decoding step forward only on the
stack's plain state array (``CaptionModel.init_rows``); they must agree
bit for bit with the same decoders on the Tensor step
(``reference.reference_greedy``, ``reference.reference_beam_search``),
for stacks of one to three units, and create no Tensor, nor does the
encode before them.  Beam search
must return exactly the hypotheses of the beam that keeps one
``Hypothesis`` per candidate (``reference.object_beam_search``).  The
decoders step on the stack's forward-only ``UnitRun``, kept with the
encoding: it must follow rebound weights, and decoding makes no
``UnitTrace``.  A model and the caches it fills are freed by reference
counting.  A pass without gradients records nothing for a
backward, and the backward of a recorded pass reads the weight arrays
the pass ran on, not those bound when it runs.

Self-critical training decodes a window's samples and their greedy
baselines as one pass over the scenes listed twice; its rewards, loss,
gradients and random draws must equal those of a sample pass followed by
a greedy pass (``reference.two_pass_self_critical_loss``), and a
baseline equal to its sample is scored once.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modcap.training
import reference

from modcap.config import (FULL_MODULES, LAMBDA_XE, PRESET_GRID, VISUAL_MODULES,
                           ModelConfig, TrainConfig, apply_preset)
from modcap.corpus import CorpusSpec, FeatureSynthesizer, generate_corpus
from modcap.decoder import (
    BOS_ID,
    PAD_ID,
    CaptionModel,
    UnitRun,
    UnitTrace,
    _stack_table,
    argmax_policy,
    beam_search,
    greedy_decode,
    run_decoder,
    sample_decode,
    sample_policy,
    unit_kernel,
    word_head,
)
from modcap.metrics import IdfTable
from modcap.tensor import Adam, Rng, Tensor, gather_rows, masked_nll, no_grad
from modcap.training import LOSS_EPS, _pack, self_critical_loss, teacher_forced
from reference import (
    TensorStepModel,
    object_beam_search,
    reference_beam_search,
    reference_forced,
    reference_greedy,
    reference_init_state,
    reference_model_step,
    reference_step,
    two_pass_self_critical_loss,
)

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
        preset, ModelConfig(vocab_size=len(corpus.vocab), d_v=16, d_a=8, m_units=2,
                            gumbel_tau=gumbel_tau),
        TrainConfig())
    return CaptionModel(model_cfg, Rng(3).derive(1)), train_cfg


def step_forced(model, batch, lam_ling, rng):
    """The teacher-forced objective of ``training.teacher_forced``, driven
    one decode step at a time: T chained op-composed steps of each unit
    (``reference.reference_forced``).  Returns (loss, per-step
    distributions, per-step traces, n_correct, n_agree)."""
    enc = model.encode(batch.r_obj, batch.r_attr, batch.region_mask)
    sums = {"xe": None, "ling": None}
    counts = [0.0, 0.0]

    def add(key, term):
        sums[key] = term if sums[key] is None else sums[key] + term

    noise = model.selection_noise(rng, batch.inputs.shape[1], batch.size)
    dists, traces = reference_forced(model, batch.inputs, enc, noise)
    for t, (dist, step_traces) in enumerate(zip(dists, traces)):
        gold, mask = batch.targets[:, t], batch.mask[:, t]
        add("xe", masked_nll(dist, gold, mask, LOSS_EPS))
        counts[0] += float(((np.argmax(dist.data, axis=1) == gold) * mask).sum())
        if step_traces[-1].weights is not None:
            chosen = np.argmax(step_traces[-1].weights, axis=1)
            counts[1] += float(((chosen == batch.labels[:, t]) * mask).sum())
        if lam_ling > 0.0 and step_traces[0].soft is not None:
            for tr in step_traces:
                add("ling", masked_nll(tr.soft, batch.labels[:, t], mask, LOSS_EPS))

    n_tokens = float(batch.mask.sum())
    loss = sums["xe"] / n_tokens
    if sums["ling"] is not None:
        loss = loss + lam_ling * (sums["ling"] / (n_tokens * len(model.units)))
    return loss, dists, traces, counts[0], counts[1]


def lam_of(train_cfg):
    return LAMBDA_XE if train_cfg.linguistic else 0.0


# the grid at the default temperature, and hard selection at another
GRID = [(preset, 1.0) for preset in PRESET_GRID] + [("Col/H+L", 0.5)]


def data(value):
    """The array of a Tensor, or the array itself."""
    return value.data if isinstance(value, Tensor) else value


def state_rows(state):
    """A unit's state as the forward-only step's rows: a reference
    ``UnitState`` is stacked as h1, c1, h2, c2 and the controller's h, c."""
    if isinstance(state, np.ndarray):
        return state
    ctrl = [] if state.ctrl is None else [state.ctrl.h, state.ctrl.c]
    return np.array([t.data for t in [state.h1, state.c1, state.h2, state.c2, *ctrl]])


def step_of(trace, t):
    """Step t of a unit's trace over a teacher-forced pass, as plain arrays."""
    return UnitTrace(weights=None if trace.weights is None else trace.weights[t],
                     soft=None if trace.soft is None else trace.soft.data[t],
                     alphas={name: a[t] for name, a in trace.alphas.items()})


def run_everything(model, train_cfg, batch, reference=False):
    """Bytes of every forward value, decoded tokens and every gradient, on
    the fused kernel or, with ``reference``, on the op-composed Tensor
    step: the gradients of a one-step teacher-forced pass from the zero
    state, three forward steps (what the fused units chose read from a
    three-step teacher-forced pass on the same tokens and noise), and the
    greedy, sampling and beam decoders."""
    out = {}
    params = model.named_parameters()
    for p in params.values():
        p.grad = None
    first = dataclasses.replace(batch, inputs=batch.inputs[:, :1],
                                targets=batch.targets[:, :1], labels=batch.labels[:, :1],
                                mask=batch.mask[:, :1])
    if reference:
        loss, _, _, n_correct, n_agree = step_forced(model, first, lam_of(train_cfg), Rng(1))
    else:
        stats = teacher_forced(model, first, lam_ling=lam_of(train_cfg), rng=Rng(1))
        loss, n_correct, n_agree = stats.loss, stats.n_correct, stats.n_agree or 0.0
    loss.backward()
    out["loss"] = loss.data.tobytes()
    out["counts"] = (n_correct, n_agree)
    out.update((f"grad:{name}", p.grad.tobytes()) for name, p in params.items()
               if p.grad is not None)

    enc = model.encode(batch.r_obj, batch.r_attr, batch.region_mask)
    states = (reference_init_state if reference else CaptionModel.init_rows)(model, batch.size)
    noise = model.selection_noise(Rng(2), 3, batch.size)
    inputs = np.concatenate([np.full((batch.size, 1), BOS_ID), batch.targets[:, :2]], axis=1)
    if not reference:
        # the fused side reads what its units chose from one teacher-forced pass
        with no_grad():
            _, forced = model.forced(inputs, enc, noise)
    for t in range(3):
        step_noise = None if noise is None else noise[t]
        if reference:
            dist, states, traces = reference_model_step(model, inputs[:, t], enc, states,
                                                        step_noise)
        else:
            dist, states = model.step(inputs[:, t], enc, states, step_noise)
            traces = [step_of(tr, t) for tr in forced]
        out[f"dist{t}"] = data(dist).tobytes()
        for m, (st, tr) in enumerate(zip(states, traces)):
            out[f"step{t}.unit{m}.state"] = state_rows(st).tobytes()
            for field in ("weights", "soft"):
                value = getattr(tr, field)
                out[f"step{t}.unit{m}.{field}"] = None if value is None else data(value).tobytes()
            out[f"step{t}.unit{m}.alphas"] = {k: data(a).tobytes() for k, a in tr.alphas.items()}

    greedy, beam = (reference_greedy, reference_beam_search) if reference else \
        (greedy_decode, beam_search)
    out["greedy"] = greedy(model, enc, 12)
    out["sample"] = sample_decode(TensorStepModel(model) if reference else model, enc,
                                  Rng(4), 12)[0]
    one = model.encode(batch.r_obj[:1, :int(batch.region_mask[0].sum())],
                       batch.r_attr[:1, :int(batch.region_mask[0].sum())])
    out["beam"] = [(h.tokens, h.logprob) for h in beam(model, one, 5, 12)]
    return out


@pytest.mark.parametrize("preset, gumbel_tau", GRID)
def test_kernel_matches_reference_bit_for_bit(corpus, padded_batch, preset, gumbel_tau):
    # the fused side decodes forward only and trains on one teacher-forced
    # kernel node per unit, the reference side on the op-composed Tensor step
    model, train_cfg = preset_model(corpus, preset, gumbel_tau)
    fused = run_everything(model, train_cfg, padded_batch)
    reference = run_everything(model, train_cfg, padded_batch, reference=True)
    assert fused.keys() == reference.keys()
    differ = [key for key in fused if fused[key] != reference[key]]
    assert differ == []
    assert any(key.startswith("grad:unit1.att.") for key in fused)


@pytest.fixture(scope="module")
def scenes_by_region_count(corpus):
    """One scene of each region count, 3 to 6."""
    by_count = {}
    for scene in corpus.scenes:
        by_count.setdefault(len(scene.regions), scene)
    assert sorted(by_count) == [3, 4, 5, 6]
    return [by_count[k] for k in sorted(by_count)]


@pytest.mark.parametrize("preset, gumbel_tau", GRID + [("CNM#3", 1.0)])
def test_forward_only_decoders_match_the_tensor_step(corpus, padded_batch,
                                                     scenes_by_region_count, preset,
                                                     gumbel_tau):
    model, _ = preset_model(corpus, preset, gumbel_tau)
    synth = FeatureSynthesizer(SPEC)
    for scene in scenes_by_region_count:
        enc = model.encode(*synth.features(scene))
        got = [(h.tokens, h.logprob) for h in beam_search(model, enc, 5, 12)]
        want = [(h.tokens, h.logprob) for h in reference_beam_search(model, enc, 5, 12)]
        assert got == want, scene.scene_id
    enc = model.encode(padded_batch.r_obj, padded_batch.r_attr, padded_batch.region_mask)
    assert enc.padded
    assert greedy_decode(model, enc, 12) == reference_greedy(model, enc, 12)


def test_cached_attention_keys_follow_rebound_weights(corpus):
    # the keys are computed once per run, and the run is cached with the
    # encoding; writing a head weight through the arena, as an optimizer
    # step or a checkpoint load does, must not leave them stale
    model, _ = preset_model(corpus, "CNM#2")
    features = FeatureSynthesizer(SPEC).features(corpus.scenes[0])
    params = model.named_parameters()
    with no_grad():
        enc = model.encode(*features)
        before = greedy_decode(model, enc, 12)
        model.arena.assign({name: -p.data for name, p in params.items()
                            if ".att." in name and name.endswith(".Wv")})
        after = greedy_decode(model, enc, 12)
        assert after == greedy_decode(model, model.encode(*features), 12)
    assert after != before


def test_a_weight_rebound_behind_the_arena_is_refused(corpus):
    # the caches key on the arena's version alone, so a write behind the
    # arena is refused where it happens, and nothing decodes on it
    model, _ = preset_model(corpus, "CNM#2")
    features = FeatureSynthesizer(SPEC).features(corpus.scenes[0])
    w = model.named_parameters()["unit1.att.object.Wv"]
    heads = [a.copy() for a in _stack_table(model.units)["heads"]]
    dist, _ = model.step([BOS_ID], model.encode(*features), model.init_rows(1))
    with pytest.raises(RuntimeError, match="parameter 'unit1.att.object.Wv' was rebound "
                                           "behind its arena; write values with ParamArena"):
        w.data = -w.data
    assert all(np.array_equal(a, b) for a, b in zip(_stack_table(model.units)["heads"], heads))
    again, _ = model.step([BOS_ID], model.encode(*features), model.init_rows(1))
    assert again.tobytes() == dist.tobytes()


# the four kernel variants: soft, hard and uniform selection, and one module
VARIANTS = ["Col/S", "Col/H", "Col/1", "Module/O"]


@pytest.mark.parametrize("preset", VARIANTS)
def test_beam_matches_the_object_beam(corpus, scenes_by_region_count, preset):
    model, _ = preset_model(corpus, preset)
    synth = FeatureSynthesizer(SPEC)
    for scene in scenes_by_region_count:
        enc = model.encode(*synth.features(scene))
        for width in range(1, 6):
            got = beam_search(model, enc, width, 12)
            assert got == object_beam_search(model, enc, width, 12), (scene.scene_id, width)


def test_cached_runs_follow_an_optimizer_step(corpus, padded_batch):
    # an optimizer step rebinds every weight array; decoding an encoding
    # again must not reuse the forward-only runs, nor the stacked weights,
    # built on the old ones: it decodes as a model built on the new values
    model, _ = preset_model(corpus, "CNM#2")
    features = FeatureSynthesizer(SPEC).features(corpus.scenes[0])

    def decode(model, enc):
        return ([(h.tokens, h.logprob) for h in beam_search(model, enc, 5, 12)],
                greedy_decode(model, enc, 12))

    with no_grad():
        enc = model.encode(*features)
    before = decode(model, enc)
    params = model.named_parameters()
    teacher_forced(model, padded_batch, rng=Rng(1)).loss.backward()
    for name, p in params.items():
        if name.startswith("enc."):
            p.grad = None       # the encoders keep their weights, so a fresh encoding is equal
    Adam().step(model.arena, lr=0.05)
    after = decode(model, enc)
    with no_grad():
        assert after == decode(model, model.encode(*features))
        fresh = CaptionModel(model.cfg, Rng(0))
        fresh.arena.assign(dict(zip(model.arena.names, model.arena.views)))
        assert after == decode(fresh, fresh.encode(*features))
    assert after != before


@pytest.mark.parametrize("preset", ["CNM#2", "Col/H+L"])
def test_backward_reads_the_weights_its_forward_ran_on(corpus, padded_batch, preset):
    # writing the weights between a pass and its backward, as an optimizer
    # step or a checkpoint load does, leaves the recorded graph intact: the
    # backward differentiates the weights the pass ran on
    model_cfg, _ = apply_preset(
        preset, ModelConfig(vocab_size=len(corpus.vocab), d_v=16, d_a=8, m_units=2),
        TrainConfig())
    model = CaptionModel(model_cfg, Rng(3).derive(1), dtype=np.float64)
    params = model.named_parameters()
    arrays = {name: p.data for name, p in params.items()}

    def gradients(rebind):
        for p in params.values():
            p.grad = None
        loss = teacher_forced(model, padded_batch, lam_ling=1.0, rng=Rng(7)).loss
        if rebind:
            model.arena.assign({name: p.data * 2.0 + 0.5 for name, p in params.items()})
        loss.backward()
        model.arena.assign(arrays)
        return {name: p.grad.tobytes() for name, p in params.items() if p.grad is not None}

    clean, rebound = gradients(rebind=False), gradients(rebind=True)
    assert list(rebound) == list(clean)
    assert [name for name in clean if rebound[name] != clean[name]] == []


def test_unobserved_decoders_make_no_unit_trace(corpus, padded_batch, monkeypatch):
    model, _ = preset_model(corpus, "CNM#2")
    with no_grad():
        one = model.encode(*FeatureSynthesizer(SPEC).features(corpus.scenes[0]))
        batch = model.encode(padded_batch.r_obj, padded_batch.r_attr,
                             padded_batch.region_mask)
    made = []
    init = UnitTrace.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(UnitTrace, "__init__", counted)
    beam_search(model, one, 5, 12)
    greedy_decode(model, one, 12)
    greedy_decode(model, batch, 12)
    sample_decode(model, batch, Rng(4), 12)
    assert made == []


def test_scoring_without_gradients_records_nothing(corpus, padded_batch, monkeypatch):
    # validation scoring runs the teacher-forced pass under no_grad: its
    # steps keep no record for a backward, and its statistics are the
    # recording pass's, bit for bit
    model, _ = preset_model(corpus, "Col/H+L")
    records = []
    init = UnitRun.__init__

    def spied(self, unit, enc, record=False):
        records.append(record)
        init(self, unit, enc, record)

    monkeypatch.setattr(UnitRun, "__init__", spied)
    with no_grad():
        quiet = teacher_forced(model, padded_batch, lam_ling=1.0, rng=Rng(1))
    assert records == [False] * len(model.units)
    loud = teacher_forced(model, padded_batch, lam_ling=1.0, rng=Rng(1))
    assert records[len(model.units):] == [True] * len(model.units)
    assert quiet.loss.data.tobytes() == loud.loss.data.tobytes()
    assert (quiet.n_correct, quiet.n_agree) == (loud.n_correct, loud.n_agree)


@pytest.mark.parametrize("preset", ["CNM#2", "Col/H", "Col/1", "Module/O"])
def test_forward_only_decoders_create_no_tensor(corpus, padded_batch, preset):
    model, _ = preset_model(corpus, preset)
    features = FeatureSynthesizer(SPEC).features(corpus.scenes[0])
    start = next(Tensor._ids)
    # an encode without gradients makes no Tensor either
    with no_grad():
        one = model.encode(*features)
        batch = model.encode(padded_batch.r_obj, padded_batch.r_attr,
                             padded_batch.region_mask)
    # the decoders need no no_grad scope of their own or of the caller's
    beam_search(model, one, 5, 12)
    greedy_decode(model, one, 12)
    greedy_decode(model, batch, 12)
    assert next(Tensor._ids) == start + 1


@pytest.mark.parametrize("preset", ["CNM#2", "Col/H", "Col/1", "Module/O"])
def test_one_node_per_unit_step(corpus, preset):
    model, _ = preset_model(corpus, preset)
    enc = model.encode(*FeatureSynthesizer(SPEC).features(corpus.scenes[0]))
    unit = model.units[0]
    i_prev = Tensor(np.ones((1, 1, model.cfg.d_v), dtype=np.float32), requires_grad=True)
    start = next(Tensor._ids)
    i_new, (trace,) = unit_kernel([unit], i_prev, enc)
    created = next(Tensor._ids) - start - 1
    # the node's parents are its inputs; it reads the parameters, but none
    # of them is a parent ...
    assert i_new._parents == (i_prev, enc.values, enc.means)
    # ... and the controller softmax hangs off it
    outputs = [] if trace.soft is None else [trace.soft]
    assert all(out._parents == (i_new,) for out in outputs)
    # the attention and fusion weights are arrays: no gradient, no Tensor
    constants = list(trace.alphas.values())
    if trace.weights is not None:
        constants.append(trace.weights)
    assert all(isinstance(c, np.ndarray) for c in constants)
    assert created == 1 + len(outputs)


def relative(got, want):
    """Largest absolute difference over the largest magnitude."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-30))


@pytest.mark.parametrize("preset, gumbel_tau", GRID)
def test_sequence_matches_chained_steps(corpus, padded_batch, preset, gumbel_tau):
    model, train_cfg = preset_model(corpus, preset, gumbel_tau)
    batch = padded_batch
    params = model.named_parameters()
    n_steps = batch.inputs.shape[1]

    def grads():
        got = {name: p.grad.copy() for name, p in params.items() if p.grad is not None}
        for p in params.values():
            p.grad = None
        return got

    rng = Rng(1)
    enc = model.encode(batch.r_obj, batch.r_attr, batch.region_mask)
    dist, traces = model.forced(batch.inputs, enc,
                                model.selection_noise(rng, n_steps, batch.size))
    whole = {"dist": dist.data.reshape(n_steps, batch.size, -1)}
    for m, tr in enumerate(traces):
        whole.update((f"unit{m}.alpha.{k}", a) for k, a in tr.alphas.items())
        if tr.weights is not None:
            whole[f"unit{m}.weights"] = tr.weights
        if tr.soft is not None:
            whole[f"unit{m}.soft"] = tr.soft.data
    stats = teacher_forced(model, batch, lam_ling=lam_of(train_cfg), rng=Rng(1),
                           enc=enc)
    stats.loss.backward()
    whole_grads = grads()

    chained_rng = Rng(1)
    loss, dists, step_traces, n_correct, n_agree = step_forced(
        model, batch, lam_of(train_cfg), chained_rng)
    chained = {"dist": np.stack([d.data for d in dists])}
    for m in range(len(model.units)):
        per_unit = [st[m] for st in step_traces]
        chained.update((f"unit{m}.alpha.{k}", np.stack([tr.alphas[k] for tr in per_unit]))
                       for k in per_unit[0].alphas)
        if per_unit[0].weights is not None:
            chained[f"unit{m}.weights"] = np.stack([tr.weights for tr in per_unit])
        if per_unit[0].soft is not None:
            chained[f"unit{m}.soft"] = np.stack([tr.soft.data for tr in per_unit])
    loss.backward()
    chained_grads = grads()

    assert rng.get_state() == chained_rng.get_state()
    assert whole.keys() == chained.keys()
    for key in whole:
        assert relative(whole[key], chained[key]) <= 1e-6, key
    assert relative(stats.loss.data, loss.data) <= 1e-6
    assert (stats.n_correct, stats.n_agree or 0.0) == (n_correct, n_agree)
    assert whole_grads.keys() == chained_grads.keys()
    assert any(name.startswith("unit1.att.") for name in whole_grads)
    for name in whole_grads:
        assert relative(whole_grads[name], chained_grads[name]) <= 1e-5, name


def three_steps_against_a_chain(corpus, padded_batch, preset):
    """A float64 three-step ``unit_kernel`` pass of a preset's first unit on
    the padded batch, and T chained ``reference_step`` calls: every output
    and gradient of each, by name, for a weighted sum of the outputs."""
    model_cfg, _ = apply_preset(preset, ModelConfig(vocab_size=len(corpus.vocab), d_v=16,
                                                    d_a=8, m_units=2), TrainConfig())
    model = CaptionModel(model_cfg, Rng(3).derive(1), dtype=np.float64)
    unit, batch, n_steps = model.units[0], padded_batch, 3
    params = model.named_parameters()
    rs = np.random.RandomState(7)
    xs = rs.uniform(-1.0, 1.0, (n_steps, batch.size, model_cfg.d_v))
    w_out = rs.standard_normal(xs.shape)
    w_soft = rs.standard_normal((n_steps, batch.size, len(unit.modules) + 1))
    noise = model.selection_noise(Rng(2), n_steps, batch.size)
    noise = None if noise is None else noise[:, :1]

    def encode():
        return model.encode(batch.r_obj, batch.r_attr, batch.region_mask)

    def weighted(out, soft, t=slice(None)):
        loss = (out * Tensor(w_out[t])).sum()
        return loss if soft is None else loss + (soft * Tensor(w_soft[t])).sum()

    def taken(got, i_grad):
        got["grad:i"] = i_grad
        for name, p in params.items():
            if p.grad is not None:
                got[f"grad:{name}"], p.grad = p.grad, None
        return got

    i = Tensor(xs, requires_grad=True)
    node, (trace,) = unit_kernel([unit], i, encode(), noise)
    weighted(node, trace.soft).backward()
    fused = {"out": node.data, "weights": trace.weights,
             "soft": None if trace.soft is None else trace.soft.data,
             **{f"alpha:{k}": a for k, a in trace.alphas.items()}}
    fused = taken(fused, i.grad)

    enc, state = encode(), reference_init_state(model, batch.size)[0]
    rows = [Tensor(x, requires_grad=True) for x in xs]
    loss, steps = None, []
    for t in range(n_steps):
        out, state, tr = reference_step(unit, rows[t], enc, state,
                                        None if noise is None else noise[t, 0])
        loss = weighted(out, tr.soft, t) if loss is None else loss + weighted(out, tr.soft, t)
        steps.append((out.data, tr))
    loss.backward()
    chain = {"out": np.stack([out for out, _ in steps]),
             "weights": None if trace.weights is None else np.stack([tr.weights for _, tr in steps]),
             "soft": None if trace.soft is None else np.stack([tr.soft.data for _, tr in steps]),
             **{f"alpha:{k}": np.stack([tr.alphas[k] for _, tr in steps]) for k in unit.modules}}
    chain = taken(chain, np.stack([r.grad for r in rows]))
    assert any(key.startswith("grad:unit1.att.") for key in fused)
    return fused, chain


def assert_agree_to_rounding(fused, chain):
    assert fused.keys() == chain.keys()
    assert any(key.startswith("grad:unit1.lstm1.") for key in fused)
    for key, got in fused.items():
        if got is None:
            assert chain[key] is None, key
        else:
            np.testing.assert_allclose(got, chain[key], rtol=0, atol=1e-10, err_msg=key)


@pytest.mark.parametrize("preset", ["CNM#2", "Col/1", "Col/H", "Module/O"])
def test_three_steps_match_a_chain_on_the_composed_lstm(corpus, padded_batch, preset,
                                                        monkeypatch):
    # the chained reference steps run their LSTMs composed of primitives,
    # not on LstmRun, so a fault there shows; float64 leaves only rounding
    monkeypatch.setattr(reference, "lstm_cell", reference.reference_lstm)
    assert_agree_to_rounding(*three_steps_against_a_chain(corpus, padded_batch, preset))


@pytest.mark.parametrize("preset", ["CNM#2", "Col/1", "Col/H", "Module/O"])
def test_three_steps_match_a_chain_on_the_composed_attention(corpus, padded_batch, preset,
                                                             monkeypatch):
    # the same with the attention heads composed of primitives, not run on
    # AttentionRun; the batch pads regions, so the mask is checked too
    monkeypatch.setattr(reference, "additive_attention", reference.reference_attention)
    assert_agree_to_rounding(*three_steps_against_a_chain(corpus, padded_batch, preset))


def chained_forced(model, inputs, enc, noise=None):
    """``CaptionModel.forced`` with each unit a ``unit_kernel`` node of its
    own, run over the whole caption before the next unit starts."""
    vec = gather_rows(model.embed, np.asarray(inputs, dtype=np.int64).T)
    traces = []
    for m, unit in enumerate(model.units):
        vec, (trace,) = unit_kernel([unit], vec, enc, None if noise is None else noise[:, m:m + 1])
        traces.append(trace)
    return word_head(vec, model.head.W, model.head.b), traces


def forced_bytes(model, batch, lam_ling, forced_pass):
    """Bytes of everything a teacher-forced objective makes when its pass is
    ``forced_pass`` in place of ``CaptionModel.forced``: the word
    distributions, the loss, the random draws, every unit's traces, and
    the gradients of the encoding and of every parameter."""
    params = model.named_parameters()
    for p in params.values():
        p.grad = None
    forced = []

    def spied(*args):
        forced.append(forced_pass(model, *args))
        return forced[-1]

    model.forced = spied
    try:
        enc = model.encode(batch.r_obj, batch.r_attr, batch.region_mask)
        rng = Rng(1)
        stats = teacher_forced(model, batch, lam_ling=lam_ling, rng=rng, enc=enc)
    finally:
        del model.forced
    stats.loss.backward()
    dist, traces = forced[0]
    out = {"dist": dist.data.tobytes(), "loss": stats.loss.data.tobytes(),
           "rng": rng.get_state(), "values": enc.values.grad.tobytes(),
           "means": enc.means.grad.tobytes()}
    for m, tr in enumerate(traces):
        out[f"unit{m}.weights"] = None if tr.weights is None else tr.weights.tobytes()
        out[f"unit{m}.soft"] = None if tr.soft is None else tr.soft.data.tobytes()
        out.update((f"unit{m}.alpha.{k}", a.tobytes()) for k, a in tr.alphas.items())
    out.update((f"grad:{name}", p.grad.tobytes()) for name, p in params.items()
               if p.grad is not None)
    return out


def assert_wavefront_matches_the_chain(model, batch, lam_ling):
    """Every output, trace and gradient of the stack stepped as a wavefront
    equals those of its units chained one node each, bit for bit, and the
    hard strategy draws the same noise."""
    stacked, chained = (forced_bytes(model, batch, lam_ling, forced_pass)
                        for forced_pass in (CaptionModel.forced, chained_forced))
    assert stacked.keys() == chained.keys()
    assert [key for key in stacked if stacked[key] != chained[key]] == []
    assert f"grad:unit{len(model.units)}.lstm1.W" in stacked and "grad:embed.W" in stacked


def first_steps(batch, n_steps, rows=slice(None)):
    """The first ``n_steps`` steps of the captions of ``batch``'s ``rows``."""
    return dataclasses.replace(
        batch, scene_ids=list(np.asarray(batch.scene_ids)[rows]),
        r_obj=batch.r_obj[rows], r_attr=batch.r_attr[rows],
        region_mask=batch.region_mask[rows],
        **{name: getattr(batch, name)[rows, :n_steps]
           for name in ("inputs", "targets", "labels", "mask")})


# (preset, unit count or None for the preset's own, temperature): the
# soft, hard and uniform strategies and one module, on two units and on
# three, whose middle calls step all three at once
WAVEFRONT = [("CNM#2", None, 1.0), ("CNM#3", None, 1.0), ("Module/O#2", None, 1.0),
             ("Col/H+L", 2, 0.5), ("Col/1", 2, 1.0)]


@pytest.mark.parametrize("steps", ["all", "one"])
@pytest.mark.parametrize("preset, m_units, gumbel_tau", WAVEFRONT)
def test_wavefront_matches_the_units_chained_one_per_call(corpus, padded_batch, preset,
                                                          m_units, gumbel_tau, steps):
    # the stack steps as a wavefront, unit m's step t at call t + m
    model_cfg, train_cfg = apply_preset(
        preset, ModelConfig(vocab_size=len(corpus.vocab), d_v=16, d_a=8,
                            gumbel_tau=gumbel_tau), TrainConfig())
    if m_units is not None:
        model_cfg = dataclasses.replace(model_cfg, m_units=m_units)
    model = CaptionModel(model_cfg, Rng(3).derive(1))
    batch = padded_batch if steps == "all" else first_steps(padded_batch, 1)
    assert_wavefront_matches_the_chain(
        model, batch, lam_of(train_cfg) or 0.5 * model.units[0].controlled)


# the strategies a unit with all three modules selects by, the hard one
# with noise, and each single module
VARIANTS_DRAWN = [(FULL_MODULES, strategy) for strategy in ("soft", "hard", "uniform")] + [
    ((name,), "soft") for name in VISUAL_MODULES]


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(m_units=st.integers(1, 3), n_steps=st.integers(1, 4),
       variant=st.sampled_from(VARIANTS_DRAWN),
       rows=st.lists(st.integers(0, 7), min_size=1, max_size=3, unique=True))
def test_wavefront_matches_the_chain_on_drawn_stacks(corpus, padded_batch, m_units, n_steps,
                                                     variant, rows):
    # float64, stacks of one to three units over one to four steps, so a
    # pass shorter than its stack has units that enter and leave in one
    # call; the drawn scenes have different region counts, padded
    modules, strategy = variant
    model = CaptionModel(ModelConfig(vocab_size=len(corpus.vocab), d_v=8, d_a=4,
                                     m_units=m_units, strategy=strategy, modules=modules,
                                     gumbel_tau=0.5),
                         Rng(3).derive(1), dtype=np.float64)
    assert_wavefront_matches_the_chain(model, first_steps(padded_batch, n_steps, rows),
                                       0.5 * model.units[0].controlled)


def assert_freed_by_reference_counting(build_loss):
    import gc
    gc.collect()
    gc.disable()
    try:
        loss = build_loss()
        loss.backward()
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_graph_is_freed_without_the_cycle_collector(corpus, padded_batch):
    # the kernel node never refers to its outputs: a finished graph of
    # whole-caption unit nodes is freed by reference counting alone, not
    # left for the cycle collector
    model, _ = preset_model(corpus, "CNM#2")
    assert_freed_by_reference_counting(
        lambda: teacher_forced(model, padded_batch, lam_ling=1.0, rng=Rng(1)).loss)


def test_a_model_is_freed_without_the_cycle_collector(corpus, padded_batch):
    # the stacked weights are kept by the first unit, keyed by weak
    # references to the units: a model that has trained and decoded, and
    # the caches it filled, are freed by reference counting
    import gc
    gc.collect()
    gc.disable()
    try:
        model, _ = preset_model(corpus, "CNM#2")
        enc = model.encode(padded_batch.r_obj, padded_batch.r_attr, padded_batch.region_mask)
        teacher_forced(model, padded_batch, lam_ling=1.0, rng=Rng(1), enc=enc).loss.backward()
        greedy_decode(model, enc, 4)
        del model, enc
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_self_critical_graph_is_freed_without_the_cycle_collector(corpus, padded_batch):
    # the same for the self-critical surrogate: one forced pass over the
    # sampled and the gold captions on the encoding listed twice
    model, _ = preset_model(corpus, "Col/H+L")
    refs = corpus.references()
    scene_refs = [refs[sid] for sid in padded_batch.scene_ids]

    def surrogate():
        enc = model.encode(padded_batch.r_obj, padded_batch.r_attr, padded_batch.region_mask)
        return self_critical_loss(model, enc, scene_refs, IdfTable(refs), corpus.vocab.tokens,
                                  Rng(1), 12, gold=padded_batch, lam=0.5)[0]

    assert_freed_by_reference_counting(surrogate)


@pytest.mark.parametrize("preset, gumbel_tau", GRID)
def test_replay_scores_tokens_as_they_were_sampled(corpus, padded_batch, preset,
                                                   gumbel_tau):
    # self-critical training samples without gradients, then replays the
    # tokens in one teacher-forced pass under the same selection noise:
    # every sampled token gets the probability it was drawn with
    model, _ = preset_model(corpus, preset, gumbel_tau)
    enc = model.encode(padded_batch.r_obj, padded_batch.r_attr, padded_batch.region_mask)
    rng = Rng(6)
    noise = model.selection_noise(rng, 12, padded_batch.size)
    drawn = []
    sample = sample_policy(rng)

    def choose(t, p, live):
        tok = sample(t, p, live)
        drawn.append(p[np.arange(len(tok)), tok])
        return tok

    rows = run_decoder(model, enc, 12, choose, noise=noise)
    n_steps = max(map(len, rows))
    inputs = np.full((len(rows), n_steps), PAD_ID)
    for b, row in enumerate(rows):
        inputs[b, :len(row)] = [BOS_ID] + row[:-1]
    dist, _ = model.forced(inputs, enc, None if noise is None else noise[:n_steps])
    replayed = dist.data.reshape(n_steps, len(rows), -1)
    got = [replayed[t, b, tok] for b, row in enumerate(rows) for t, tok in enumerate(row)]
    want = [drawn[t][b] for b, row in enumerate(rows) for t in range(len(row))]
    assert len(got) > 2 * len(rows)
    np.testing.assert_allclose(np.log(got), np.log(want), rtol=1e-5, atol=1e-6)


# lam > 0 only where the trainer supervises: a controller that runs
ONE_PASS_CASES = [("CNM#2", 1.0, 0.0), ("CNM#2", 1.0, 0.5), ("Col/H+L", 0.5, 0.0),
                  ("Col/H+L", 0.5, 0.5), ("Col/1", 1.0, 0.0), ("Module/O#2", 1.0, 0.0)]


@pytest.mark.parametrize("scenes", ["padded", "one"])
@pytest.mark.parametrize("preset, gumbel_tau, lam", ONE_PASS_CASES)
def test_one_decode_pass_equals_a_sample_pass_and_a_greedy_pass(corpus, padded_batch, preset,
                                                                 gumbel_tau, lam, scenes):
    # self_critical_loss decodes the sample and its greedy baseline as the
    # two halves of one 2B-row pass; the two-pass surrogate must give the
    # same rewards, loss and gradients, and leave the stream where it does
    model, _ = preset_model(corpus, preset, gumbel_tau)
    batch = padded_batch if scenes == "padded" else _pack(
        [e for e in corpus.examples if e.scene_id == padded_batch.scene_ids[0]][:1],
        {s.scene_id: s for s in corpus.scenes}, FeatureSynthesizer(SPEC))
    refs = corpus.references()
    scene_refs = [refs[sid] for sid in batch.scene_ids]
    idf = IdfTable(refs)
    params = model.named_parameters()
    out = {}
    for name, surrogate in (("one", self_critical_loss), ("two", two_pass_self_critical_loss)):
        for p in params.values():
            p.grad = None
        rng = Rng(9)
        enc = model.encode(batch.r_obj, batch.r_attr, batch.region_mask)
        loss, infos = surrogate(model, enc, scene_refs, idf, corpus.vocab.tokens, rng, 12,
                                batch, lam)
        loss.backward()
        out[name] = (infos, loss.data.tobytes(), rng.get_state(),
                     {k: p.grad.tobytes() for k, p in params.items() if p.grad is not None})
    assert out["one"] == out["two"]
    assert any(info["advantage"] != 0.0 for info in out["one"][0]) or scenes == "one"


def test_a_baseline_equal_to_its_sample_is_scored_once(corpus, padded_batch, monkeypatch):
    # with the sampler taking the argmax, every sample is its greedy
    # baseline: each scene is scored once and its advantage is exactly zero
    model, _ = preset_model(corpus, "CNM#2")
    refs = corpus.references()
    scored = []
    real_cider_d = modcap.training.cider_d

    def counting(candidate, references, idf):
        scored.append(tuple(candidate))
        return real_cider_d(candidate, references, idf)

    monkeypatch.setattr(modcap.training, "cider_d", counting)
    monkeypatch.setattr(modcap.training, "sample_policy", lambda rng: argmax_policy)
    enc = model.encode(padded_batch.r_obj, padded_batch.r_attr, padded_batch.region_mask)
    _, infos = self_critical_loss(model, enc, [refs[sid] for sid in padded_batch.scene_ids],
                                  IdfTable(refs), corpus.vocab.tokens, Rng(9), 12)
    assert len(scored) == padded_batch.size
    assert [info["advantage"] for info in infos] == [0.0] * padded_batch.size
    assert all(info["baseline"] == info["reward"] for info in infos)
    assert any(scored)
