"""Gradient verification battery.

Four tiers, all in float64 against central differences:

* primitives: every op the model runs, one case each, the fused masked
  NLL, and every input of the array helpers the unit kernel runs: one
  LSTM step through ``LstmRun`` and one attention query through
  ``AttentionRun``, each on a stack of one unit and wrapped as a single
  node of a scalar objective, attention also on a batch with a padded
  region;
* composites: seeded random chains of the model's ops, because op-by-op checks miss
  bugs in how gradients accumulate through shared nodes;
* kernel: the fused decoder unit (``decoder.unit_kernel``) from the zero
  state, a unit alone under the soft, hard (no noise) and uniform strategies and with
  a single module, each on one step and on three steps, on two scenes of
  which one has a padded region, through the unit output and the
  controller softmax; then the encoder (``encoders.encoder_kernel``) on
  two scenes, all regions real or one padded, through every value and
  mean; then the word head (``decoder.word_head``) on the rows of two
  steps over two scenes.  Every input and parameter is checked, off the
  ReLU kinks.  The straight-through gradient of the hard strategy is by
  design not the derivative of its one-hot forward, so one-step hard
  cases read only the softmax, except the second LSTM and the function
  module, which do not reach the controller and read every output; over
  three steps every output lies downstream of an earlier fusion, so the
  three-step hard case runs at a temperature where the straight-through
  term vanishes and reads every output.  Stacks of two and of three soft
  units run as one wavefront over three steps, through the last unit's
  output and every unit's softmax;
* decoder: a miniature two-unit captioning model driven for three
  teacher-forced steps, checking the gradient of the training objective
  (``training.teacher_forced`` with module supervision) with respect to
  every parameter and both feature inputs.

Everything is deterministic in the seed, so a passing battery is
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import FULL_MODULES, VISUAL_MODULES, ModelConfig
from .decoder import CaptionModel, DecoderUnit, Encoded, unit_kernel, word_head
from .encoders import encoder_kernel
from .layers import Linear
from .tensor import (
    FLOAT64,
    AttentionRun,
    LstmParams,
    LstmRun,
    ParamArena,
    Rng,
    Tensor,
    _accum,
    _as_tensor,
    concat,
    finite_diff_grad,
    gather_rows,
    masked_nll,
    max_relative_error,
    reshape,
    sum_,
)
from .training import Batch, teacher_forced

DEFAULT_TOLERANCE = 1e-3
FD_EPS = 1e-4
N_COMPOSITES = 25


@dataclass
class CaseResult:
    section: str
    name: str
    error: float
    ok: bool


def _t(rng: Rng, shape, low=-1.0, high=1.0) -> Tensor:
    return Tensor(rng.uniform_array(shape, low, high, dtype=FLOAT64),
                  requires_grad=True, dtype=FLOAT64)


def check_case(section: str, name: str, f, x: Tensor,
               tol: float = DEFAULT_TOLERANCE) -> CaseResult:
    """Compare the backward gradient of f at x with central differences."""
    x.grad = None
    out = f(x)
    out.backward()
    analytic = x.grad.copy()
    numeric = finite_diff_grad(f, x, eps=FD_EPS)
    err = max_relative_error(analytic, numeric)
    return CaseResult(section=section, name=name, error=err, ok=err < tol)


# -- primitives ----------------------------------------------------------------


def primitive_cases(seed: int):
    """(name, scalar function, input tensor) triples covering every op."""
    rng = Rng(seed).derive(71)
    # the draws of the retired matmul cases' weights
    _retired(rng, 27)
    bias = Tensor(rng.uniform_array((3,), -1, 1, dtype=FLOAT64), dtype=FLOAT64)
    # the draws of the retired transpose cases' weights
    _retired(rng, 32)
    idx_rows = np.array([2, 0, 1])
    idx_swap = np.array([1, 0])
    idx_cols = np.array([1, 3, 0, 2])
    lstm = LstmParams(
        W=Tensor(rng.uniform_array((7, 12), -0.5, 0.5, dtype=FLOAT64), dtype=FLOAT64),
        b=Tensor(rng.uniform_array((12,), -0.5, 0.5, dtype=FLOAT64), dtype=FLOAT64))
    h0 = Tensor(rng.uniform_array((3,), -0.5, 0.5, dtype=FLOAT64), dtype=FLOAT64)
    c0 = Tensor(rng.uniform_array((3,), -0.5, 0.5, dtype=FLOAT64), dtype=FLOAT64)
    x_fixed = Tensor(np.linspace(-1, 1, 4), dtype=FLOAT64)
    xb = Tensor(rng.uniform_array((2, 4), -1, 1, dtype=FLOAT64), dtype=FLOAT64)
    hb = Tensor(rng.uniform_array((2, 3), -0.5, 0.5, dtype=FLOAT64), dtype=FLOAT64)
    cb = Tensor(rng.uniform_array((2, 3), -0.5, 0.5, dtype=FLOAT64), dtype=FLOAT64)
    att_v = Tensor(rng.uniform_array((2, 3, 4), -1, 1, dtype=FLOAT64), dtype=FLOAT64)
    att_q = Tensor(rng.uniform_array((2, 5), -1, 1, dtype=FLOAT64), dtype=FLOAT64)
    att_Wv = Tensor(rng.uniform_array((6, 4), -0.7, 0.7, dtype=FLOAT64), dtype=FLOAT64)
    att_Wh = Tensor(rng.uniform_array((6, 5), -0.7, 0.7, dtype=FLOAT64), dtype=FLOAT64)
    att_wa = Tensor(rng.uniform_array((6,), -1, 1, dtype=FLOAT64), dtype=FLOAT64)
    att = (att_v, att_q, att_Wv, att_Wh, att_wa)
    nll_mask = np.array([1.0, 0.0, 1.0, 0.5])       # row 1 is masked out
    # three regions in the first scene, two in the second: one padded row
    regions = np.array([[True, True, True], [True, True, False]])

    cases = [
        ("add_broadcast", lambda x: (x + bias).sum(), _t(rng, (2, 3))),
        ("mul_broadcast", lambda x: (x * bias).sum(), _t(rng, (2, 3))),
        ("div", lambda x: (x / Tensor(np.full((2, 3), 2.5), dtype=FLOAT64)).sum(),
         _t(rng, (2, 3))),
        ("reshape",
         lambda x: (x.reshape(6) * Tensor(np.arange(6.0), dtype=FLOAT64)).sum(),
         _t(_retired(rng, 80), (2, 3))),
        ("sum_axis", lambda x: (sum_(x, axis=0) * bias).sum(), _t(rng, (4, 3))),
        ("sum_keepdims", lambda x: sum_(x, axis=1, keepdims=True).sum(), _t(rng, (4, 3))),
        ("concat", lambda x: concat([x, x * 2.0], axis=-1).sum(), _t(_retired(rng, 15), (2, 3))),
        ("gather_rows", lambda x: (gather_rows(x, idx_rows) * bias).sum(), _t(rng, (4, 3))),
        ("fanout_gather", lambda x: (x * x + gather_rows(x, idx_swap) * x).sum(),
         _t(_retired(rng, 63), (2, 3))),
    ]
    # every input of one LSTM step on (d,) vectors, then on (B, d) rows
    for label, fixed in (("lstm_step", (x_fixed, h0, c0)), ("lstm_cell_batched", (xb, hb, cb))):
        fixed = (*fixed, lstm.W, lstm.b)
        for k, name in enumerate("xhcWb"):
            def f(t, k=k, fixed=fixed):
                x, h, c, W, b = fixed[:k] + (t,) + fixed[k + 1:]
                return _lstm_scalar(x, h, c, LstmParams(W=W, b=b))
            bound = 0.5 if k >= 3 else 1.0
            cases.append((f"{label}_{name}", f, _t(rng, fixed[k].shape, -bound, bound)))
    for k, name in enumerate(("values", "query", "W_v", "W_h", "w_a")):
        def f(x, k=k):
            return _attention_scalar(*att[:k], x, *att[k + 1:])

        def f_masked(x, k=k):
            return _attention_scalar(*att[:k], x, *att[k + 1:], mask=regions)
        cases.append((f"additive_attention_{name}", f,
                      _t(rng, att[k].data.shape, low=-0.7, high=0.7)))
        cases.append((f"additive_attention_masked_{name}", f_masked,
                      _t(rng, att[k].data.shape, low=-0.7, high=0.7)))
    cases += [
        ("additive_attention_single",
         lambda v: _attention_scalar(v, Tensor(att_q.data[0], dtype=FLOAT64), att_Wv, att_Wh,
                                   att_wa),
         _t(rng, (3, 4))),
        ("masked_nll_zero_mask_row",
         lambda p: masked_nll(p, idx_cols, nll_mask),
         _t(_retired(rng, 42), (4, 5), low=0.05, high=1.0)),
    ]
    return cases


def _retired(rng: Rng, n: int) -> Rng:
    """``rng`` past the n draws of retired cases: the cases that stay keep their inputs."""
    rng.uniform_array((n,), 0.0, 1.0)
    return rng


def _scalar_node(value, inputs, grads) -> Tensor:
    """A scalar objective as one autodiff node over ``inputs``; its
    backward takes the gradient of the objective from ``grads(g)``, one
    array per input."""
    def backward(g):
        for t, grad in zip(inputs, grads(g)):
            if t.requires_grad:
                _accum(t, grad.reshape(t.shape))

    return Tensor._from_op(np.asarray(value), tuple(inputs), backward)


def _lstm_scalar(x, h, c, params):
    """sum(h' * h') + sum(c') of one ``LstmRun`` step on (d,) vectors or
    (B, d) rows, a stack of one unit."""
    inputs = (x, h, c, params.W, params.b)
    run = LstmRun(params.W.data[None], params.b.data[None])
    with np.errstate(over="ignore"):
        h2, c2 = run.forward([a.data.reshape(1, -1, a.shape[-1]) for a in (x, h)],
                             c.data.reshape(1, -1, c.shape[-1]), slice(0, 1))

    def grads(g):
        g_xh, g_c = run.backward(0, g * 2.0 * h2, np.broadcast_to(g, c2.shape))
        (g_W,), (g_b,) = run.param_grads()
        return g_xh[..., :x.shape[-1]], g_xh[..., x.shape[-1]:], g_c, g_W, g_b

    return _scalar_node((h2 * h2).sum() + c2.sum(), inputs, grads)


def _ramp(n: int) -> Tensor:
    return Tensor(np.linspace(-1.0, 1.0, n), dtype=FLOAT64)


def _attention_scalar(values, query, W_v, W_h, w_a, mask=None):
    """sum(ramp * alpha) + sum(attended * attended) of one ``AttentionRun``
    query, on (N, d_v) values with a (d_c,) query or (B, N, d_v) with
    (B, d_c), a stack of one unit: every input is reached through both
    outputs."""
    inputs = (values, query, W_v, W_h, w_a)
    v = values.data.reshape((-1,) + values.shape[-2:])
    run = AttentionRun(v, np.ascontiguousarray(W_v.data.T[None]),
                       np.ascontiguousarray(W_h.data.T[None]), w_a.data[None], mask)
    alpha, attended = run.forward(query.data.reshape(1, -1, query.shape[-1]), slice(0, 1))
    ramp = _ramp(alpha.shape[-1]).data

    def grads(g):
        g_q = run.backward(0, np.broadcast_to(g * ramp, alpha.shape), g * 2.0 * attended)
        (g_direct,), (g_keys,), (g_Wv,), (g_Wh,), (g_wa,) = run.grads()
        return g_direct + g_keys, g_q, g_Wv, g_Wh, g_wa

    return _scalar_node((alpha * ramp).sum() + (attended * attended).sum(), inputs, grads)


# -- random composites ---------------------------------------------------------

def _weights(rng: Rng, shape) -> Tensor:
    return Tensor(rng.uniform_array(shape, -0.7, 0.7, dtype=FLOAT64), dtype=FLOAT64)


# every op preserves the (3, 4) shape, so chains compose in any order; a
# new op takes the place of one retired from the library, so a chain that
# picks no new op keeps its ops, weights and input
_CHAIN_OPS = (
    ("leaky", lambda x, rng: x * Tensor(np.where(x.data >= 0, 1.0, 0.05))),
    ("permute", lambda x, rng: gather_rows(x, [2, 0, 1])),
    ("square", lambda x, rng: x * x),
    ("ratio", lambda x, rng: x / (x * x + 1.0)),
    ("colsum", lambda x, rng: x + sum_(x, axis=0, keepdims=True)),
    ("cross", lambda x, rng: x * gather_rows(x, [1, 2, 0])),
    ("bias", lambda x, rng: x + _weights(rng, (4,))),
    ("scale", lambda x, rng: x * _weights(rng, (4,))),
    ("interleave", lambda x, rng: gather_rows(concat([x, x * x], axis=0), [0, 4, 2])),
    ("pairs", lambda x, rng: reshape(reshape(x, (6, 2)) * _weights(rng, (2,)), (3, 4))),
)


def composite_cases(seed: int, count: int = N_COMPOSITES):
    """Seeded random chains of 3 to 6 ops over a (3, 4) input.

    Each chain's streams derive from one parent stream of the seed:
    ``derive`` XORs its tag into the state, so tags offset from a small
    seed (``Rng(seed).derive(5000 + i)``) would hand most seeds the
    chains of another seed.
    """
    chains = Rng(seed).derive(5000)
    cases = []
    for i in range(count):
        rng = chains.derive(2 * i)
        picked = [_CHAIN_OPS[rng.randint(len(_CHAIN_OPS))]
                  for _ in range(3 + rng.randint(4))]
        weight_seed = chains.derive(2 * i + 1).get_state()[0]

        def chain(x, picked=picked, weight_seed=weight_seed):
            r = Rng(weight_seed)        # fresh per call, so chain is pure
            y = x
            for _, fn in picked:
                y = fn(y, r)
            return (y * y).sum()

        label = "-".join(name for name, _ in picked)
        cases.append((f"chain{i:02d}[{label}]", chain, _t(rng, (3, 4))))
    return cases


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
    draws = [_t(rng, shape).data for _ in unit.modules for shape in ((2, 3, 3), (2, 3))]
    inputs["values"] = Tensor(np.stack(draws[0::2]), requires_grad=True)
    inputs["means"] = Tensor(np.concatenate(draws[1::2], axis=-1), requires_grad=True)
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
    draws = [_t(rng, shape).data for _ in VISUAL_MODULES for shape in ((2, 3, 2), (2, 2))]
    inputs["values"] = Tensor(np.stack(draws[0::2]), requires_grad=True)
    inputs["means"] = Tensor(np.concatenate(draws[1::2], axis=-1), requires_grad=True)
    return units, arena, inputs


def _kernel_objective(units: list, inputs: dict, outputs):
    """A ramp-weighted sum of the named outputs of one unit kernel call
    over a stack of units: its output, then every unit's softmax."""
    def objective():
        enc = Encoded(inputs["values"], inputs["means"], KERNEL_REGIONS)
        i_new, traces = unit_kernel(units, inputs["i_prev"], enc)
        named = {"i_new": [i_new], "soft": [trace.soft for trace in traces]}
        return _ramp_sum([out for name in outputs for out in named[name] if out is not None])
    return objective


def _ramp_sum(outputs) -> Tensor:
    """The sum of every output (a Tensor or an array) times a ramp over it."""
    terms = [(_ramp(math.prod(out.shape)).reshape(out.shape) * out).sum() for out in outputs]
    return sum(terms[1:], terms[0])


def _module_ramp_sum(values, means):
    """``_ramp_sum`` of each module's values, then of each one's means, as
    one node over an encoding's stacked values and means."""
    values, means = _as_tensor(values), _as_tensor(means)
    k = len(values.data)
    parts = [*values.data, *np.split(means.data, k, axis=-1)]
    ramps = [_ramp(p.size).data.reshape(p.shape) for p in parts]
    return _scalar_node(_ramp_sum(parts).data, (values, means), lambda g: (
        g * np.stack(ramps[:k]), g * np.concatenate(ramps[k:], axis=-1)))


def kernel_results(seed: int = 0, tol: float = DEFAULT_TOLERANCE) -> list[CaseResult]:
    results = []
    for n_steps in KERNEL_STEPS:
        for variant in KERNEL_VARIANTS:
            unit, arena, inputs = _kernel_inputs(variant, seed, n_steps)
            label = variant if n_steps == 1 else f"{variant}/T{n_steps}"
            tensors = {f"{label}:input:{name}": t for name, t in inputs.items()}
            tensors.update((f"{label}:param:{name}", t)
                           for name, t in unit.params("unit").items()
                           if variant != "uniform" or ".ctrl." not in name)
            groups = [(KERNEL_OUTPUTS, tensors)]
            if variant == "hard" and n_steps == 1:
                downstream = [n for n in tensors
                              if any(d in n for d in HARD_DOWNSTREAM_TENSORS)]
                groups = [(HARD_UPSTREAM_OUTPUTS,
                           {n: t for n, t in tensors.items() if n not in downstream}),
                          (KERNEL_OUTPUTS, {n: tensors[n] for n in downstream})]
            for outputs, group in groups:
                results += _rebinding_cases("kernel",
                                            _kernel_objective([unit], inputs, outputs),
                                            group, arena, tol)
    for n_units in KERNEL_STACKS:
        units, arena, inputs = _stack_inputs(n_units, seed)
        label = f"stack{n_units}"
        tensors = {f"{label}:input:{name}": t for name, t in inputs.items()}
        tensors.update((f"{label}:param:{name}", t) for name, t in zip(arena.names, arena.tensors))
        results += _rebinding_cases("kernel", _kernel_objective(units, inputs, KERNEL_OUTPUTS),
                                    tensors, arena, tol)
    for label, mask in ENCODER_MASKS.items():
        model, params, inputs = _encoder_inputs(seed)

        def objective():
            return _module_ramp_sum(*encoder_kernel(model.encoders, inputs["r_obj"],
                                                    inputs["r_attr"], mask))
        tensors = {f"{label}:{kind}:{name}": t
                   for kind, group in (("input", inputs), ("param", params))
                   for name, t in group.items()}
        results += _rebinding_cases("kernel", objective, tensors, model.arena, tol)
    head = Linear(3, 7, Rng(seed).derive(87), dtype=FLOAT64)     # 7 words over 3-wide rows
    arena = ParamArena(head.params("head"))
    _jitter(arena, Rng(seed).derive(88))
    rows = _t(Rng(seed).derive(89), (2, 2, 3))      # two steps over two scenes
    tensors = {"word_head:input:rows": rows}
    tensors.update((f"word_head:param:{name}", t) for name, t in head.params("head").items())
    results += _rebinding_cases("kernel", lambda: _ramp_sum([word_head(rows, head.W, head.b)]),
                                tensors, arena, tol)
    return results


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


def _rebinding_cases(section: str, objective, tensors: dict, arena: ParamArena,
                     tol: float) -> list[CaseResult]:
    """Check the gradient of ``objective()`` with respect to each tensor it
    reads by reference: one backward for the analytic gradients, then
    central differences by setting each tensor's value in turn, a
    parameter's through ``arena``."""
    names = {id(p): name for name, p in zip(arena.names, arena.tensors)}

    def set_value(t, value):
        if id(t) in names:
            arena.assign({names[id(t)]: value})
        else:
            t.data = value

    for t in tensors.values():
        t.grad = None
    objective().backward()
    analytic = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for name, t in tensors.items()}
    results = []
    for name, t in tensors.items():
        def f(probe, t=t):
            set_value(t, probe.data)
            return objective()

        saved = t.data
        try:
            numeric = finite_diff_grad(f, Tensor(saved.copy(), dtype=FLOAT64), eps=FD_EPS)
        finally:
            set_value(t, saved)
        err = max_relative_error(analytic[name], numeric)
        results.append(CaseResult(section, name, err, err < tol))
    return results


def decoder_results(tol: float = DEFAULT_TOLERANCE) -> list[CaseResult]:
    model, r_obj, r_attr, batch = _tiny_decoder()
    params = model.named_parameters()

    def objective(r_obj, r_attr):
        """The training objective: token NLL plus module supervision."""
        enc = model.encode(r_obj, r_attr)
        return teacher_forced(model, batch, lam_ling=1.0, enc=enc).loss

    results = _rebinding_cases(
        "decoder", lambda: objective(r_obj, r_attr),
        {f"param:{name}": params[name] for name in sorted(params)}, model.arena, tol)
    for label, fn in (
        ("input:r_obj", lambda probe: objective(probe, Tensor(r_attr, dtype=FLOAT64))),
        ("input:r_attr", lambda probe: objective(Tensor(r_obj, dtype=FLOAT64), probe)),
    ):
        x = Tensor((r_obj if "obj" in label else r_attr).copy(),
                   requires_grad=True, dtype=FLOAT64)
        results.append(check_case("decoder", label, fn, x, tol))
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
