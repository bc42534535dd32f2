"""Gradient verification battery.

Four tiers, all in float64 against central differences.  A case is a
scalar objective of an array, ``f(x)``, whose ``f(x, grad=True)`` also
returns its gradient by the hand-written backwards it checks:

* primitives: every input of the array helpers the stages run: one LSTM
  step through ``LstmRun`` and one attention query through
  ``AttentionRun``, each on a stack of one unit, attention also on a
  batch with a padded region; the fused masked NLL; the object and
  attribute modules' projection (``ProjectionModule``) and the relation
  module (``RelationModule``), its regions with and without a padded
  one, its stacked query, key and value weights, its output projection
  and its two-layer head; and the embedding's row scatter with a
  repeated token;
* composites: seeded random configurations of the one training step
  (``training.step_grads``), each checked with respect to the region
  features, because stage-by-stage checks miss bugs in how gradients
  accumulate between the stages: one to three units over one to three
  steps, the soft, hard, uniform or single-module unit, with or without
  a padded region, the word-class term and the encoding listed twice,
  and with distinct or repeated token ids;
* kernel: the decoder units' stage (``decoder.unit_kernel`` and its
  run's backward) from the zero state, a unit alone under the soft, hard
  (no noise) and uniform strategies and with a single module, each on
  one step and on three steps, on two scenes of which one has a padded
  region, through the unit output and the controller softmax; then the
  encode stage (``encoders.encoder_kernel`` and ``encoder_backward``) on
  two scenes, all regions real or one padded, through every value and
  mean; then the word head (``decoder.word_head`` and
  ``word_head_backward``) on the rows of two steps over two scenes.
  Every input and parameter is checked, off the ReLU kinks.  The
  straight-through gradient of the hard strategy is by design not the
  derivative of its one-hot forward, so one-step hard cases read only
  the softmax, except the second LSTM and the function module, which do
  not reach the controller and read every output; over three steps
  every output lies downstream of an earlier fusion, so the three-step
  hard case runs at a temperature where the straight-through term
  vanishes and reads every output.  Stacks of two and of three soft
  units run as one wavefront over three steps, through the last unit's
  output and every unit's softmax;
* decoder: a miniature two-unit captioning model driven for three
  teacher-forced steps, checking the gradient of the training objective
  (``training.teacher_forced``'s replay and glue, with module
  supervision, through ``step_grads``) with respect to every parameter
  and both feature inputs.

Everything is deterministic in the seed, so a passing battery is
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import FULL_MODULES, VISUAL_MODULES, ModelConfig
from .decoder import (CaptionModel, DecoderUnit, Encoded, unit_kernel, word_head,
                      word_head_backward)
from .encoders import ProjectionModule, RelationModule, encoder_backward, encoder_kernel
from .layers import Linear
from .tensor import (
    FLOAT64,
    AttentionRun,
    LstmRun,
    ParamArena,
    Rng,
    finite_diff_grad,
    gather_grad,
    masked_nll,
    masked_nll_grad,
    max_relative_error,
)
from .training import Batch, Glue, Replay, _in_order, step_grads, xe_replay

DEFAULT_TOLERANCE = 1e-3
FD_EPS = 1e-4
N_COMPOSITES = 25


@dataclass
class CaseResult:
    section: str
    name: str
    error: float
    ok: bool


def _t(rng: Rng, shape, low=-1.0, high=1.0) -> np.ndarray:
    return rng.uniform_array(shape, low, high, dtype=FLOAT64)


def check_case(section: str, name: str, f, x: np.ndarray,
               tol: float = DEFAULT_TOLERANCE) -> CaseResult:
    """Compare the gradient ``f(x, grad=True)`` returns with central
    differences of f at x."""
    _, analytic = f(x, grad=True)
    numeric = finite_diff_grad(f, x, eps=FD_EPS)
    err = max_relative_error(analytic, numeric)
    return CaseResult(section=section, name=name, error=err, ok=err < tol)


def _ramp(shape) -> np.ndarray:
    """A ramp from -1 to 1 over an array of ``shape``."""
    return np.linspace(-1.0, 1.0, math.prod(shape)).reshape(shape)


def _ramp_sum(outputs):
    """(the sum of every output times a ramp over it, the ramps)."""
    ramps = [_ramp(out.shape) for out in outputs]
    terms = [(r * out).sum() for r, out in zip(ramps, outputs)]
    return sum(terms[1:], terms[0]), ramps


# -- primitives ----------------------------------------------------------------


def primitive_cases(seed: int):
    """(name, objective, input) triples covering every array helper."""
    rng = Rng(seed).derive(71)
    # the draws of the retired matmul, generic-op and transpose cases' weights
    _retired(rng, 62)
    lstm_W = _t(rng, (7, 12), -0.5, 0.5)
    lstm_b = _t(rng, (12,), -0.5, 0.5)
    h0 = _t(rng, (3,), -0.5, 0.5)
    c0 = _t(rng, (3,), -0.5, 0.5)
    x_fixed = np.linspace(-1, 1, 4)
    xb = _t(rng, (2, 4))
    hb = _t(rng, (2, 3), -0.5, 0.5)
    cb = _t(rng, (2, 3), -0.5, 0.5)
    att = (_t(rng, (2, 3, 4)), _t(rng, (2, 5)), _t(rng, (6, 4), -0.7, 0.7),
           _t(rng, (6, 5), -0.7, 0.7), _t(rng, (6,)))
    idx_cols = np.array([1, 3, 0, 2])
    nll_mask = np.array([1.0, 0.0, 1.0, 0.5])       # row 1 is masked out
    # three regions in the first scene, two in the second: one padded row
    regions = np.array([[True, True, True], [True, True, False]])

    # the draws of the retired generic-op cases' inputs
    _retired(rng, 230)
    cases = []
    # every input of one LSTM step on (d,) vectors, then on (B, d) rows
    for label, fixed in (("lstm_step", (x_fixed, h0, c0)), ("lstm_cell_batched", (xb, hb, cb))):
        fixed = (*fixed, lstm_W, lstm_b)
        for k, name in enumerate("xhcWb"):
            bound = 0.5 if k >= 3 else 1.0
            cases.append((f"{label}_{name}", _lstm_objective(fixed, k),
                          _t(rng, fixed[k].shape, -bound, bound)))
    for k, name in enumerate(("values", "query", "W_v", "W_h", "w_a")):
        cases.append((f"additive_attention_{name}", _attention_objective(att, k),
                      _t(rng, att[k].shape, low=-0.7, high=0.7)))
        cases.append((f"additive_attention_masked_{name}", _attention_objective(att, k, regions),
                      _t(rng, att[k].shape, low=-0.7, high=0.7)))
    single = (None, att[1][0], *att[2:])
    cases += [
        ("additive_attention_single", _attention_objective(single, 0), _t(rng, (3, 4))),
        ("masked_nll_zero_mask_row", _nll_objective(idx_cols, nll_mask),
         _t(_retired(rng, 42), (4, 5), low=0.05, high=1.0)),
    ]
    return cases + _module_cases(Rng(seed).derive(72), regions)


def _retired(rng: Rng, n: int) -> Rng:
    """``rng`` past the n draws of retired cases: the cases that stay keep their inputs."""
    rng.uniform_array((n,), 0.0, 1.0)
    return rng


def _lstm_objective(fixed, k: int):
    """sum(h' * h') + sum(c') of one ``LstmRun`` step on (d,) vectors or
    (B, d) rows, a stack of one unit, as a function of its input k of (x,
    h, c, W, b), the others ``fixed``."""
    def f(t, grad=False):
        x, h, c, W, b = fixed[:k] + (t,) + fixed[k + 1:]
        run = LstmRun(W[None], b[None], record=grad)
        with np.errstate(over="ignore"):
            h2, c2 = run.forward([a.reshape(1, -1, a.shape[-1]) for a in (x, h)],
                                 c.reshape(1, -1, c.shape[-1]), slice(0, 1))
        value = (h2 * h2).sum() + c2.sum()
        if not grad:
            return value
        g_xh, g_c = run.backward(0, 2.0 * h2, np.ones_like(c2))
        g_W, g_b = np.empty_like(run.W), np.empty_like(run.b_row[:, 0])
        run.param_grads(g_W, g_b)
        d_x = x.shape[-1]
        grads = (g_xh[..., :d_x], g_xh[..., d_x:], g_c, g_W[0], g_b[0])
        return value, grads[k].reshape(t.shape)
    return f


def _attention_objective(fixed, k: int, mask=None):
    """sum(ramp * alpha) + sum(attended * attended) of one ``AttentionRun``
    query, on (N, d_v) values with a (d_c,) query or (B, N, d_v) with (B,
    d_c), a stack of one unit, as a function of its input k of (values,
    query, W_v, W_h, w_a): every input is reached through both outputs."""
    def f(t, grad=False):
        values, query, W_v, W_h, w_a = fixed[:k] + (t,) + fixed[k + 1:]
        run = AttentionRun(values.reshape((-1,) + values.shape[-2:]),
                           np.ascontiguousarray(W_v.T[None]), np.ascontiguousarray(W_h.T[None]),
                           w_a[None], mask, record=grad)
        alpha, attended = run.forward(query.reshape(1, -1, query.shape[-1]), slice(0, 1))
        ramp = np.linspace(-1.0, 1.0, alpha.shape[-1])
        value = (alpha * ramp).sum() + (attended * attended).sum()
        if not grad:
            return value
        g_q = run.backward(0, np.broadcast_to(ramp, alpha.shape), 2.0 * attended)
        (g_direct,), (g_keys,), (g_Wv,), (g_Wh,), (g_wa,) = run.grads()
        grads = (g_direct + g_keys, g_q, g_Wv, g_Wh, g_wa)
        return value, grads[k].reshape(t.shape)
    return f


def _nll_objective(gold, mask):
    def f(p, grad=False):
        value = masked_nll(p, gold, mask)
        return (value, masked_nll_grad(p, gold, mask, np.ones(()))) if grad else value
    return f


def _module_cases(rng: Rng, regions):
    """The ramp-weighted sum of the output rows of an encoder module, each
    module on an arena of its own, as a function of its input rows or of
    one of its weights (the relation module's query, key and value
    weights stacked), and the embedding's row scatter with a repeated
    token."""
    proj = ProjectionModule(4, 3, rng, dtype=FLOAT64)
    rel = RelationModule(4, 3, 2, rng, dtype=FLOAT64)
    arenas = {proj: ParamArena(proj.params("m")), rel: ParamArena(rel.params("m"))}
    for arena in arenas.values():
        _jitter(arena, rng)
    x0 = _t(rng, (2, 3, 4))

    def case(name, module, target=None, mask=None):
        arena = arenas[module]
        params = dict(zip(arena.names, arena.tensors))

        def f(t, grad=False):
            x, saved = (t, None) if target is None else (x0, [params[n].data for n in target])
            if target is not None:
                arena.assign(dict(zip(target, [t] if len(target) == 1 else t)))
            arena.clear_grads()
            record = [] if grad else None
            try:
                out = module(x, mask, record) if module is rel else module(x, record)
                ramp = _ramp(out.shape)
                value = (ramp * out).sum()
                if not grad:
                    return value
                parts = module.backward(record, ramp, True)
            finally:
                if target is not None:
                    arena.assign(dict(zip(target, saved)))
            if target is None:
                return value, _in_order(parts).reshape(x.shape)
            return value, _stack([params[n].grad for n in target])

        start = x0 if target is None else _stack([params[n].data for n in target])
        return name, f, start.copy()

    table = _t(rng, (5, 3))
    tokens = np.array([[2, 0], [2, 4]])             # token 2 twice

    def scatter(t, grad=False):
        ramp = _ramp(tokens.shape + t.shape[1:])
        value = (ramp * t[tokens]).sum()
        return (value, gather_grad(np.empty_like(t), tokens, ramp)) if grad else value

    qkv = [f"m.head{i}.W{kind}" for i in range(rel.heads) for kind in "qkv"]
    return [
        case("projection_x", proj),
        case("projection_W", proj, ["m.fc.W"]),
        case("projection_b", proj, ["m.fc.b"]),
        case("relation_r", rel),
        case("relation_r_padded", rel, mask=regions),
        case("relation_qkv", rel, qkv),
        case("relation_Wout", rel, ["m.Wout"]),
        case("relation_fc1_W", rel, ["m.fc1.W"]),
        case("relation_fc1_b", rel, ["m.fc1.b"]),
        case("relation_fc2_W", rel, ["m.fc2.W"]),
        case("relation_fc2_b", rel, ["m.fc2.b"]),
        ("embedding_scatter_repeated", scatter, table),
    ]


def _stack(arrays) -> np.ndarray:
    return arrays[0].copy() if len(arrays) == 1 else np.stack(arrays)


# -- random composites: the training step ----------------------------------------

# the unit a composite step runs: its strategy and modules
STEP_VARIANTS = {"soft": ("soft", FULL_MODULES), "hard": ("hard", FULL_MODULES),
                 "uniform": ("uniform", FULL_MODULES), "single": ("soft", ("object",))}
STEP_SCENES, STEP_REGIONS, STEP_VOCAB = 2, 3, 7


def composite_cases(seed: int, count: int = N_COMPOSITES):
    """Seeded random configurations of the training step, each a function
    of the region features, r_obj and r_attr stacked (2, B, N, d_r).

    Each configuration's streams derive from one parent stream of the
    seed: ``derive`` XORs its tag into the state, so tags offset from a
    small seed (``Rng(seed).derive(5000 + i)``) would hand most seeds the
    configurations of another seed.
    """
    configs = Rng(seed).derive(5000)
    cases = []
    for i in range(count):
        rng = configs.derive(2 * i)
        m_units, n_steps = 1 + rng.randint(3), 1 + rng.randint(3)
        variant = list(STEP_VARIANTS)[rng.randint(len(STEP_VARIANTS))]
        padded, ling, twice, repeat = (rng.randint(2) == 1 for _ in range(4))
        ling = ling and variant not in ("uniform", "single")     # a controller that runs
        label = "-".join([f"M{m_units}", f"T{n_steps}", variant]
                         + [name for name, on in (("pad", padded), ("ling", ling),
                                                  ("twice", twice), ("rep", repeat)) if on])
        f = _step_objective(configs.derive(2 * i + 1), m_units, n_steps, variant, padded,
                            ling, twice, repeat)
        cases.append((f"step{i:02d}[{label}]", f,
                      _t(rng, (2, STEP_SCENES, STEP_REGIONS, 4))))
    return cases


def _step_objective(rng: Rng, m_units: int, n_steps: int, variant: str, padded: bool,
                    ling: bool, twice: bool, repeat: bool):
    """The objective of one training step of a tiny float64 model, as a
    function of its region features: random tokens, token weights (the
    self-critical advantages, or a mask), word-class labels and their
    weights, and, under the hard strategy, Gumbel noise at a temperature
    where the straight-through term vanishes."""
    strategy, modules = STEP_VARIANTS[variant]
    cfg = ModelConfig(vocab_size=STEP_VOCAB, d_r=4, d_v=3, d_a=2, heads=2, m_units=m_units,
                      strategy=strategy, modules=modules, gumbel_tau=HARD_MULTI_STEP_TAU)
    model = CaptionModel(cfg, rng.derive(1), dtype=FLOAT64)
    _jitter(model.arena, rng.derive(2))
    mask = KERNEL_REGIONS if padded else np.ones((STEP_SCENES, STEP_REGIONS), dtype=bool)
    rows = STEP_SCENES * (2 if twice else 1)
    shape = (rows, n_steps)
    pool = np.array([4, 5]) if repeat else np.arange(1, STEP_VOCAB)
    tokens = pool[(rng.uniform_array(shape, 0.0, len(pool), dtype=FLOAT64)).astype(int)]
    targets = rng.uniform_array(shape, 0.0, STEP_VOCAB, dtype=FLOAT64).astype(int)
    weights = rng.uniform_array(shape, -1.0, 1.0, dtype=FLOAT64)
    labels = rng.uniform_array(shape, 0.0, 4.0, dtype=FLOAT64).astype(int)
    ling_weights = rng.uniform_array(shape, 0.1, 1.0, dtype=FLOAT64)
    noise = model.selection_noise(rng, n_steps, rows)
    replay = Replay(tokens, noise, targets, weights,
                    *((labels, ling_weights) if ling else ()), twice=twice)
    glue = (Glue(lam=0.5, n_out=STEP_SCENES) if twice
            else Glue(n_xe=float(shape[0] * shape[1]), lam=0.5, n_ling=3.0 * m_units))

    def f(x, grad=False):
        enc = model.encode(x[0], x[1], mask, record=grad)
        step = step_grads(model, enc, replay, glue, grads=grad, region_grads=grad)
        if not grad:
            return step.loss
        return step.loss, np.stack([np.zeros_like(x[0]) if g is None else g
                                    for g in step.region_grads])
    return f


# -- decoder unit kernel --------------------------------------------------------

KERNEL_VARIANTS = ("soft", "hard", "uniform", "single")
KERNEL_STEPS = (1, 3)
# two scenes of three regions, the second with its last region padded
KERNEL_REGIONS = np.array([[True, True, True], [True, True, False]])
# the encoder kernel on two scenes of three regions: all real, or one padded
ENCODER_MASKS = {"encoder": np.ones((2, 3), dtype=bool), "encoder/padded": KERNEL_REGIONS}
KERNEL_OUTPUTS = ("i_new", "soft")
# stacks of soft units stepped as one wavefront, over three steps: with
# three units, the middle call steps all three
KERNEL_STACKS = (2, 3)
KERNEL_STACK_STEPS = 3
# what the hard strategy's straight-through fusion feeds, and what reaches
# the outputs only through it
HARD_UPSTREAM_OUTPUTS = ("soft",)
HARD_DOWNSTREAM_TENSORS = (".lstm2.", ".func.")
# over several steps every output is downstream of an earlier step's
# fusion; at this temperature the tempered softmax is one-hot to double
# precision, so the straight-through term vanishes and every output reads
HARD_MULTI_STEP_TAU = 1e-4


def _jitter(arena: ParamArena, rng: Rng, prefix: str = "") -> None:
    """Move every parameter whose name starts with ``prefix`` by up to 0.3:
    zero-initialized biases leave pre-activations exactly on the leaky-relu
    kink, where central differences lie."""
    arena.assign({name: p.data + rng.uniform_array(p.data.shape, -0.3, 0.3, dtype=FLOAT64)
                  for name, p in sorted(zip(arena.names, arena.tensors))
                  if name.startswith(prefix)})


def _kernel_inputs(variant: str, seed: int, n_steps: int = 1):
    """A tiny float64 unit of the variant and random inputs: rows of
    ``n_steps`` steps (n_steps, 2, 3), and an encoding of two scenes."""
    modules = ("object",) if variant == "single" else FULL_MODULES
    cfg = ModelConfig(vocab_size=7, d_r=4, d_v=3, d_a=2, heads=2, m_units=1,
                      strategy="soft" if variant == "single" else variant, modules=modules,
                      gumbel_tau=HARD_MULTI_STEP_TAU if n_steps > 1 else 1.0)
    unit = DecoderUnit(cfg, tuple(m for m in modules if m in VISUAL_MODULES),
                       Rng(seed).derive(80), dtype=FLOAT64)
    arena = ParamArena(unit.params("unit"))
    _jitter(arena, Rng(seed).derive(83))
    rng = Rng(seed).derive(81 if n_steps == 1 else 82)
    inputs = {"i_prev": _t(rng, (n_steps, 2, 3))}
    draws = [_t(rng, shape) for _ in unit.modules for shape in ((2, 3, 3), (2, 3))]
    inputs["values"] = np.stack(draws[0::2])
    inputs["means"] = np.concatenate(draws[1::2], axis=-1)
    return unit, arena, inputs


def _stack_inputs(n_units: int, seed: int):
    """A tiny float64 stack of ``n_units`` soft units of width 2 in one
    arena and random inputs: rows of ``KERNEL_STACK_STEPS`` steps (T, 2,
    2), and an encoding of two scenes of three regions."""
    cfg = ModelConfig(vocab_size=7, d_r=4, d_v=2, d_a=2, heads=2, m_units=n_units)
    rng = Rng(seed).derive(90)
    units = [DecoderUnit(cfg, VISUAL_MODULES, rng, dtype=FLOAT64) for _ in range(n_units)]
    arena = ParamArena({name: t for m, unit in enumerate(units, start=1)
                        for name, t in unit.params(f"unit{m}").items()})
    _jitter(arena, Rng(seed).derive(91))
    rng = Rng(seed).derive(92)
    inputs = {"i_prev": _t(rng, (KERNEL_STACK_STEPS, 2, 2))}
    draws = [_t(rng, shape) for _ in VISUAL_MODULES for shape in ((2, 3, 2), (2, 2))]
    inputs["values"] = np.stack(draws[0::2])
    inputs["means"] = np.concatenate(draws[1::2], axis=-1)
    return units, arena, inputs


def _kernel_objective(units: list, inputs: dict, outputs):
    """A ramp-weighted sum of the named outputs of one unit kernel call
    over a stack of units: its output, then every unit's softmax.  The
    gradient of each input is the step's sum of the run's terms."""
    def objective(grad=False):
        enc = Encoded(inputs["values"], inputs["means"], KERNEL_REGIONS)
        top, traces, run = unit_kernel(units, inputs["i_prev"], enc, record=grad)
        softs = [tr.soft for tr in traces if tr.soft is not None]
        named = {"i_new": [top], "soft": softs}
        value, ramps = _ramp_sum([out for name in outputs for out in named[name]])
        if not grad:
            return value
        g_top = ramps.pop(0) if "i_new" in outputs else np.zeros_like(top)
        g_soft = np.stack(ramps) if "soft" in outputs and softs else None
        g_direct, g_keys, g_means, g_in = run.backward(g_top, g_soft)
        return value, {"i_prev": g_in,
                       "values": _in_order([g for m in reversed(range(len(units)))
                                            for g in (g_direct[m], g_keys[m])]),
                       "means": _in_order(g_means[::-1])}
    return objective


def kernel_results(seed: int = 0, tol: float = DEFAULT_TOLERANCE) -> list[CaseResult]:
    results = []
    for n_steps in KERNEL_STEPS:
        for variant in KERNEL_VARIANTS:
            unit, arena, inputs = _kernel_inputs(variant, seed, n_steps)
            label = variant if n_steps == 1 else f"{variant}/T{n_steps}"
            targets = {f"{label}:input:{name}": (inputs, name) for name in inputs}
            targets.update((f"{label}:param:{name}", t)
                           for name, t in unit.params("unit").items()
                           if variant != "uniform" or ".ctrl." not in name)
            groups = [(KERNEL_OUTPUTS, targets)]
            if variant == "hard" and n_steps == 1:
                downstream = [n for n in targets
                              if any(d in n for d in HARD_DOWNSTREAM_TENSORS)]
                groups = [(HARD_UPSTREAM_OUTPUTS,
                           {n: t for n, t in targets.items() if n not in downstream}),
                          (KERNEL_OUTPUTS, {n: targets[n] for n in downstream})]
            for outputs, group in groups:
                results += _rebinding_cases("kernel",
                                            _kernel_objective([unit], inputs, outputs),
                                            group, arena, tol)
    for n_units in KERNEL_STACKS:
        units, arena, inputs = _stack_inputs(n_units, seed)
        label = f"stack{n_units}"
        targets = {f"{label}:input:{name}": (inputs, name) for name in inputs}
        targets.update((f"{label}:param:{name}", t) for name, t in zip(arena.names, arena.tensors))
        results += _rebinding_cases("kernel", _kernel_objective(units, inputs, KERNEL_OUTPUTS),
                                    targets, arena, tol)
    for label, mask in ENCODER_MASKS.items():
        model, params, inputs = _encoder_inputs(seed)
        targets = {f"{label}:input:{name}": (inputs, name) for name in inputs}
        targets.update((f"{label}:param:{name}", t) for name, t in params.items())
        results += _rebinding_cases("kernel", _encoder_objective(model, inputs, mask),
                                    targets, model.arena, tol)
    head = Linear(3, 7, Rng(seed).derive(87), dtype=FLOAT64)     # 7 words over 3-wide rows
    arena = ParamArena(head.params("head"))
    _jitter(arena, Rng(seed).derive(88))
    inputs = {"rows": _t(Rng(seed).derive(89), (2, 2, 3))}      # two steps over two scenes
    targets = {"word_head:input:rows": (inputs, "rows")}
    targets.update((f"word_head:param:{name}", t) for name, t in head.params("head").items())

    def objective(grad=False):
        dist = word_head(inputs["rows"], head.W, head.b)
        value, (ramp,) = _ramp_sum([dist])
        if not grad:
            return value
        return value, {"rows": word_head_backward(inputs["rows"], dist, head.W, head.b, ramp)}
    results += _rebinding_cases("kernel", objective, targets, arena, tol)
    return results


def _encoder_objective(model: CaptionModel, inputs: dict, mask):
    """The ramp-weighted sum of each module's values, then of each one's
    means, of one encode stage."""
    def objective(grad=False):
        values, means, record = encoder_kernel(model.encoders, inputs["r_obj"],
                                               inputs["r_attr"], mask, record=grad)
        k = len(values)
        value, ramps = _ramp_sum([*values, *np.split(means, k, axis=-1)])
        if not grad:
            return value
        g_r = encoder_backward(model.encoders, record, np.stack(ramps[:k]),
                               np.concatenate(ramps[k:], axis=-1), need_x=True)
        return value, dict(zip(("r_obj", "r_attr"), g_r))
    return objective


def _encoder_inputs(seed: int):
    """A tiny float64 model, its jittered encoder weights, features."""
    cfg = ModelConfig(vocab_size=7, d_r=4, d_v=3, d_a=2, heads=2, m_units=1)
    model = CaptionModel(cfg, Rng(seed).derive(84), dtype=FLOAT64)
    params = {name: p for name, p in model.named_parameters().items()
              if name.startswith("enc.")}
    _jitter(model.arena, Rng(seed).derive(85), "enc.")
    rng = Rng(seed).derive(86)
    return model, params, {"r_obj": _t(rng, (2, 3, 4)), "r_attr": _t(rng, (2, 3, 4))}


# -- full decoder step ----------------------------------------------------------


def _tiny_decoder():
    cfg = ModelConfig(vocab_size=7, d_r=8, d_v=4, d_a=3, heads=2,
                      m_units=2, strategy="soft")
    model = CaptionModel(cfg, Rng(1234).derive(9), dtype=FLOAT64)
    _jitter(model.arena, Rng(1234).derive(11))
    rng = Rng(1234).derive(10)
    r_obj = rng.uniform_array((2, 8), -1, 1, dtype=FLOAT64)
    r_attr = rng.uniform_array((2, 8), -1, 1, dtype=FLOAT64)
    tokens = [1, 4, 5, 6]          # begin token then three words
    batch = Batch(scene_ids=[0], r_obj=r_obj[None], r_attr=r_attr[None],
                  inputs=np.array([tokens[:-1]]), targets=np.array([tokens[1:]]),
                  labels=np.array([[0, 2, 3]]), mask=np.ones((1, 3)),
                  region_mask=np.ones((1, 2), dtype=bool))
    return model, r_obj, r_attr, batch


def _rebinding_cases(section: str, objective, targets: dict, arena: ParamArena,
                     tol: float) -> list[CaseResult]:
    """Check the gradient of ``objective()`` with respect to each target:
    a parameter of ``arena``, or an input, (dict, key) of an array the
    objective reads.  One ``objective(grad=True)`` gives the analytic
    gradients, the parameters' in the arena and the inputs' by key; then
    central differences set each target's value in turn, a parameter's
    through ``arena``."""
    names = {id(p): name for name, p in zip(arena.names, arena.tensors)}

    def value_of(target):
        return target[0][target[1]] if isinstance(target, tuple) else target.data

    def set_value(target, value):
        if isinstance(target, tuple):
            target[0][target[1]] = value
        else:
            arena.assign({names[id(target)]: value})

    arena.clear_grads()
    _, input_grads = objective(grad=True)
    analytic = {}
    for name, t in targets.items():
        g = input_grads.get(t[1]) if isinstance(t, tuple) else t.grad
        analytic[name] = np.zeros_like(value_of(t)) if g is None else g.copy()
    results = []
    for name, t in targets.items():
        def f(probe, t=t):
            set_value(t, probe)
            return objective()

        saved = value_of(t)
        try:
            numeric = finite_diff_grad(f, saved.copy(), eps=FD_EPS)
        finally:
            set_value(t, saved)
        err = max_relative_error(analytic[name], numeric)
        results.append(CaseResult(section, name, err, err < tol))
    return results


def decoder_results(tol: float = DEFAULT_TOLERANCE) -> list[CaseResult]:
    model, r_obj, r_attr, batch = _tiny_decoder()
    params = model.named_parameters()
    features = {"r_obj": r_obj, "r_attr": r_attr}

    def objective(grad=False):
        """The training objective: token NLL plus module supervision."""
        enc = model.encode(features["r_obj"], features["r_attr"], record=grad)
        step = step_grads(model, enc, *xe_replay(model, batch, 1.0), grads=grad,
                          region_grads=grad)
        if not grad:
            return step.loss
        return step.loss, dict(zip(("r_obj", "r_attr"), step.region_grads))

    results = _rebinding_cases(
        "decoder", objective, {f"param:{name}": params[name] for name in sorted(params)},
        model.arena, tol)
    for name in features:
        results += _rebinding_cases("decoder", objective, {f"input:{name}": (features, name)},
                                    model.arena, tol)
    return results


# -- battery -------------------------------------------------------------------


SECTIONS = ("primitives", "composites", "kernel", "decoder")


def run_battery(sections=SECTIONS, seed: int = 0,
                tol: float = DEFAULT_TOLERANCE) -> list[CaseResult]:
    results = []
    if "primitives" in sections:
        for name, f, x in primitive_cases(seed):
            results.append(check_case("primitives", name, f, x, tol))
    if "composites" in sections:
        for name, f, x in composite_cases(seed):
            results.append(check_case("composites", name, f, x, tol))
    if "kernel" in sections:
        results.extend(kernel_results(seed, tol))
    if "decoder" in sections:
        results.extend(decoder_results(tol))
    return results
