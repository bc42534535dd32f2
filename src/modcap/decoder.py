"""Decoder stack: stacked two-LSTM units with attention, weight collocation
and a residual word-vector lane, plus the decode step loop and decoders.

Each unit refines a running vector i of width d_v.  The first LSTM sees
[i, its own previous output context, mean-pooled module features], its
output queries one attention head per visual module, the controller
weighs the four module vectors, and the second LSTM folds the fused
feature back in.  The unit output is added onto i, so stacking M units
is a residual chain and i keeps the embedding width throughout.  A
single-module unit has one attention head and no controller.

A unit's steps are one forward loop on plain arrays, ``unit_kernel``;
the attention heads of all modules are one stacked computation over
keys computed once per encoding.  On Tensors the loop runs inside one
autodiff node with a hand-written backward: one step at a time
(``DecoderUnit.step``) when sampling with gradients, once per unit over
the whole caption (``CaptionModel.forced``) in teacher forcing.  The
same step composed of one autodiff node per op is kept with the tests
(``tests/reference.py``); a one-step kernel call agrees with it bit for
bit in every output and gradient.  Without gradients the decoders step
forward only on plain state arrays, one array of rows per unit, and
build no Tensor.

``run_decoder`` is the one batch-native step loop: a token policy
(argmax, sample or forced) picks every row's next token and an optional
observer sees each step.  Greedy and sampling decoding and traces run on
it; beam search, which reorders the state rows every step, keeps its
own loop.  A single scene is a batch of one, and its results come back
unwrapped: a token list rather than a list holding one.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .config import VISUAL_MODULES, ModelConfig
from .controller import (
    AdditiveAttention,
    ControllerState,
    ModuleController,
    Strategy,
    gumbel_noise,
    one_hot_max,
)
from .encoders import ProjectionModule, RelationModule
from .layers import Linear
from .tensor import (
    FLOAT32,
    AttentionRun,
    LstmRun,
    Rng,
    Tensor,
    _accum,
    _steps,
    _t_matmul,
    attention_keys,
    check_finite,
    gather_rows,
    grad_enabled,
    make_lstm_params,
    masked_nll,
    mean_pool_rows,
    no_grad,
    reshape,
    softmax,
    softmax_backward,
    softmax_forward,
    xavier_uniform,
    zeros,
)

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3


@dataclass
class Encoded:
    """Per-batch module features (B, N, d_v), their means over real regions
    (B, d_v) and the boolean (B, N) mask of real, unpadded regions."""

    feats: dict[str, Tensor]
    means: dict[str, Tensor]
    mask: np.ndarray
    _keys: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def batch(self) -> int:
        return self.mask.shape[0]

    @functools.cached_property
    def padded(self) -> bool:
        """Whether any region is padding; attention skips the mask if not."""
        return not self.mask.all()

    @functools.cached_property
    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """The features stacked over modules (K, B, N, d_v) and the means
        side by side (B, K*d_v), in module order, built once per encoding."""
        return (np.stack([f.data for f in self.feats.values()]),
                np.concatenate([m.data for m in self.means.values()], axis=-1))

    def keys(self, Wv_T: np.ndarray) -> np.ndarray:
        """The attention keys (K, B, N, d_a) of the stacked features under a
        unit's W_v^T (``DecoderUnit.heads``, rebuilt when a head weight is
        rebound), computed once per encoding and weight array."""
        if id(Wv_T) not in self._keys:     # the entry holds W_v^T: its id stays unique
            self._keys[id(Wv_T)] = (Wv_T, attention_keys(self.stacked[0], Wv_T))
        return self._keys[id(Wv_T)][1]


@dataclass
class UnitState:
    h1: Tensor
    c1: Tensor
    h2: Tensor
    c2: Tensor
    ctrl: ControllerState | None


@dataclass
class UnitTrace:
    """What a unit step chose.  Only ``soft`` carries gradient (to the
    word-class term); under the soft strategy ``weights`` is ``soft``.
    A step on plain state arrays returns plain arrays instead of Tensors."""

    weights: Tensor | None           # (B, 4) fusion weights, None without a controller
    soft: Tensor | None              # noise-free controller softmax, for supervision
    alphas: dict[str, Tensor]        # per-module attention over regions (B, N)


class DecoderUnit:
    """One decoder unit over the visual modules in ``modules``.

    With all three visual modules the unit also has the function module
    and the controller that weighs the four module vectors; with one (the
    single-module ablation) that module's attended vector is fed to the
    second LSTM as is.
    """

    def __init__(self, cfg: ModelConfig, modules: tuple, rng: Rng, dtype=FLOAT32):
        d_v, d_c, d_a = cfg.d_v, cfg.d_c, cfg.d_a
        self.cfg = cfg
        self.dtype = dtype
        self.modules = modules
        self.lstm1 = make_lstm_params(rng, (len(self.modules) + 1) * d_v + d_c, d_c,
                                      dtype=dtype)
        self.att = {name: AdditiveAttention(d_v, d_c, d_a, rng, dtype=dtype)
                    for name in self.modules}
        self.func = self.ctrl = None
        if self.modules == VISUAL_MODULES:
            self.func = ProjectionModule(d_c, d_v, rng, slope=cfg.leaky_slope, dtype=dtype)
            self.ctrl = ModuleController(d_v, d_c, rng, tau=cfg.gumbel_tau, dtype=dtype)
        fused = len(self.modules) + (self.func is not None)
        self.lstm2 = make_lstm_params(rng, d_c + fused * d_v, d_c, dtype=dtype)
        self._head_params = [t for name in self.modules
                             for t in (self.att[name].W_v, self.att[name].W_h,
                                       self.att[name].w_a)]
        self._heads = None

    def init_state(self, batch: int) -> UnitState:
        z = lambda: zeros((batch, self.cfg.d_c), dtype=self.dtype)
        h1, c1, h2, c2 = z(), z(), z(), z()
        ctrl = None if self.ctrl is None else ControllerState(h=z(), c=z())
        return UnitState(h1=h1, c1=c1, h2=h2, c2=c2, ctrl=ctrl)

    def step(self, i_prev, enc: Encoded, state, rng: Rng | None = None):
        """One step of the unit (``unit_kernel``): one autodiff node on
        Tensors, forward only on plain arrays.  Returns (i_new, new state,
        trace)."""
        noise = None
        if self.ctrl is not None and self.cfg.strategy == Strategy.HARD:
            noise = gumbel_noise(rng, (i_prev.shape[0], len(self.modules) + 1), i_prev.dtype)
        return unit_kernel(self, i_prev, enc, state, noise)

    def heads(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The attention weights stacked over modules: C-contiguous W_v^T
        (K, d_v, d_a) and W_h^T (K, d_c, d_a), and w_a (K, d_a).  Rebuilt
        only after a weight's array is rebound (an optimizer step, a
        checkpoint load)."""
        arrays = [t.data for t in self._head_params]
        cached = self._heads
        if cached is None or not all(map(operator.is_, arrays, cached[0])):
            stack_t = lambda ws: np.ascontiguousarray(np.stack([w.T for w in ws]))
            cached = self._heads = (arrays, (stack_t(arrays[0::3]), stack_t(arrays[1::3]),
                                             np.stack(arrays[2::3])))
        return cached[1]

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = {f"{prefix}.lstm1.W": self.lstm1.W, f"{prefix}.lstm1.b": self.lstm1.b}
        for name in self.modules:
            out.update(self.att[name].params(f"{prefix}.att.{name}"))
        if self.ctrl is not None:
            out.update(self.func.params(f"{prefix}.func"))
            out.update(self.ctrl.params(f"{prefix}.ctrl"))
        out[f"{prefix}.lstm2.W"] = self.lstm2.W
        out[f"{prefix}.lstm2.b"] = self.lstm2.b
        return out


def _plus(a, b):
    """a + b where either gradient may be None (no consumer)."""
    if a is None:
        return b
    return a if b is None else a + b


def unit_kernel(unit: DecoderUnit, i, enc: Encoded, state, noise: np.ndarray | None = None):
    """T steps of a decoder unit: one forward loop on plain arrays, run
    inside a single autodiff node when a gradient is wanted.

    ``i`` holds the unit's input rows of every step, (T, B, d_v), or of
    one step, (B, d_v).  Each step runs LSTM1, the K attention heads as
    one stacked computation over the encoding's cached keys, and with a
    controller the function module, the controller (soft; hard with the
    Gumbel ``noise`` of shape ``i.shape[:-1] + (K + 1,)``, zero when None,
    and a straight-through one-hot; or uniform) and the weighted fusion,
    then LSTM2 and the residual add; the unit state carries from step to
    step.

    On Tensors (``state`` a ``UnitState``) the node is the unit output,
    shaped like ``i``; the final state tensors and the per-step
    controller softmax are outputs that hang off it, and the backward
    reads their gradients and returns every input and parameter gradient
    in one closure.  The derivatives of the nonlinearities and each
    parameter gradient are formed once over all T*B rows.  A one-step
    call rounds exactly as the op-composed step in
    ``tests/reference.py``: the backward adds the gradients each tensor
    receives in the order the reference graph's sweep adds them.  Fusion
    weights under the hard and uniform strategies and the attention
    weights come back per step and without gradient.

    On plain arrays (``state`` one (n, B, d_c) array of h1, c1, h2, c2
    and with a controller its h and c) the call runs forward only and
    returns plain arrays; it builds no node, closure or step record.  A
    one-scene encoding then serves any number of rows (a beam's
    hypotheses).
    """
    dv, dc = unit.cfg.d_v, unit.cfg.d_c
    k_heads = len(unit.modules)
    record = isinstance(i, Tensor)
    shape = i.shape
    xs = (i.data if record else i).reshape((-1,) + shape[-2:])
    n_steps, batch = xs.shape[:2]
    values, means_cat = enc.stacked
    if len(means_cat) != batch:         # one scene's means for every row
        means_cat = np.repeat(means_cat, batch, axis=0)
    strategy = None if unit.ctrl is None else Strategy(unit.cfg.strategy)
    controlled = strategy is not None and strategy is not Strategy.UNIFORM
    Wv_T, Wh_T, wa = unit.heads()
    lstm1 = LstmRun(unit.lstm1.W.data, unit.lstm1.b.data, record)
    lstm2 = LstmRun(unit.lstm2.W.data, unit.lstm2.b.data, record)
    heads = AttentionRun(values, Wv_T, Wh_T, wa, enc.mask if enc.padded else None,
                         enc.keys(Wv_T), record)
    if record:
        h1, c1, h2, c2 = state.h1.data, state.c1.data, state.h2.data, state.c2.data
    else:
        h1, c1, h2, c2, *ctrl_rows = state
    # per-step records; step t's context is h2 of step t-1
    outs, contexts, alphas, pre_f, blocks = [], [], [], [], []
    weights, hcs, soft, ys = [], [], [], []
    if strategy is not None:
        fc = unit.func.fc
    if controlled:
        ctrl = unit.ctrl
        lstm_c = LstmRun(ctrl.lstm.W.data, ctrl.lstm.b.data, record)
        hc, cc = (state.ctrl.h.data, state.ctrl.c.data) if record else ctrl_rows
        if strategy is Strategy.HARD:
            noise = (np.zeros((n_steps, batch, k_heads + 1), xs.dtype) if noise is None
                     else noise.reshape(n_steps, batch, -1))
    with np.errstate(over="ignore"):
        for t in range(n_steps):
            ctx = h2
            contexts.append(ctx)
            h1, c1 = lstm1.forward([xs[t], ctx, means_cat, h1], c1)
            alpha, att = heads.forward(h1)
            alphas.append(alpha)
            if strategy is None:
                v_hat = att[0]
            else:
                pf = np.matmul(ctx, fc.W.data) + fc.b.data
                pre_f.append(pf)
                v_func = np.where(pf >= 0, pf, unit.func.slope * pf)
                blocks.append(np.concatenate([att.transpose(1, 0, 2), v_func[:, None]], axis=1))
                if controlled:
                    hc, cc = lstm_c.forward([*att, ctx, hc], cc)
                    hcs.append(hc)
                    logits = np.matmul(hc, ctrl.proj.W.data) + ctrl.proj.b.data
                    soft.append(softmax_forward(logits))
                    w = soft[t]
                    if strategy is Strategy.HARD:
                        scale = np.asarray(1.0 / ctrl.tau, dtype=logits.dtype)
                        y = softmax_forward((logits + noise[t]) * scale)
                        ys.append(y)
                        w = (one_hot_max(y) - y) + y
                else:
                    w = np.ones((batch, k_heads + 1), dtype=ctx.dtype)
                weights.append(w)
                v_hat = (w[:, :, None] * blocks[t]).reshape(batch, -1)
            h2, c2 = lstm2.forward([h1, v_hat, ctx], c2)
            outs.append(xs[t] + h2)

    # per-step arrays come back stacked on a leading step axis, or as they
    # are for a one-step call
    steps = (lambda arrays, axis=0: arrays[0]) if len(shape) == 2 else np.stack
    alphas = steps(alphas, axis=1)
    if not record:
        new_rows = np.array([h1, c1, h2, c2, *([hc, cc] if controlled else ctrl_rows)])
        out = steps(outs)
        check_finite("unit_kernel", out)
        check_finite("unit_kernel", new_rows)
        return out, new_rows, UnitTrace(weights=steps(weights) if weights else None,
                                        soft=steps(soft) if soft else None,
                                        alphas=dict(zip(unit.modules, alphas)))
    feats = [enc.feats[name] for name in unit.modules]
    means = [enc.means[name] for name in unit.modules]
    params = [unit.lstm1.W, unit.lstm1.b, unit.lstm2.W, unit.lstm2.b]
    for name in unit.modules:
        params += [unit.att[name].W_v, unit.att[name].W_h, unit.att[name].w_a]
    inputs = [i, state.h1, state.c1, state.h2, state.c2, *feats, *means]
    if strategy is not None:
        params += [fc.W, fc.b]
    if controlled:
        params += [ctrl.lstm.W, ctrl.lstm.b, ctrl.proj.W, ctrl.proj.b]
        inputs += [state.ctrl.h, state.ctrl.c]

    out_grads = {}      # gradients of the outputs that have a consumer

    def backward(g_out):
        def give(t, g):
            if t.requires_grad:
                _accum(t, g)

        def rows(a):
            return a.reshape(-1, a.shape[-1])

        g_out = g_out.reshape(xs.shape)
        g_h1, g_c1, g_h2, g_c2 = (out_grads.get(name) for name in ("h1", "c1", "h2", "c2"))
        g_hc, g_cc = out_grads.get("ctrl_h"), out_grads.get("ctrl_c")
        g_soft = out_grads.get("soft")
        g_soft = None if g_soft is None else g_soft.reshape((n_steps,) + soft[0].shape)
        g_in = np.empty_like(xs)
        g_means = None
        if strategy is not None:
            pf = _steps(pre_f)
            d_pre_f = np.where(pf >= 0, 1.0, unit.func.slope).astype(pf.dtype)
            g_pre_f = np.empty_like(pf)
        if controlled:
            g_logits_all = np.empty((n_steps,) + soft[0].shape, soft[0].dtype)
        for t in reversed(range(n_steps)):
            g_xh2, g_c2 = lstm2.backward(t, _plus(g_h2, g_out[t]), g_c2)
            g_h1 = _plus(g_h1, g_xh2[:, :dc])
            g_vhat = g_xh2[:, dc:-dc]
            g_ctx = g_xh2[:, -dc:]
            if strategy is None:
                g_att = g_vhat[None]
            else:
                g_blocks = g_vhat.reshape(batch, k_heads + 1, dv)
                g_att = g_blocks * weights[t][:, :, None]
                g_func = g_att[:, k_heads]
                g_att = np.swapaxes(g_att[:, :k_heads], 0, 1)
            if controlled:
                g_w = (g_blocks * blocks[t]).sum(axis=-1)
                g_soft_t = None if g_soft is None else g_soft[t]
                if strategy is Strategy.SOFT:
                    g_logits = softmax_backward(soft[t], _plus(g_soft_t, g_w))
                else:
                    g_logits = softmax_backward(ys[t], g_w) * scale
                    if g_soft_t is not None:
                        g_logits = g_logits + softmax_backward(soft[t], g_soft_t)
                g_logits_all[t] = g_logits
                g_hc = _plus(g_hc, np.matmul(g_logits, ctrl.proj.W.data.T))
                g_xc, g_cc = lstm_c.backward(t, g_hc, g_cc)
                g_hc = g_xc[:, k_heads * dv + dc:]
                g_att = g_att + np.swapaxes(g_xc[:, :k_heads * dv].reshape(batch, k_heads, dv),
                                            0, 1)
                g_ctx = g_ctx + g_xc[:, k_heads * dv:k_heads * dv + dc]
            if strategy is not None:
                g_pre = np.multiply(g_func, d_pre_f[t], out=g_pre_f[t])
                g_ctx = g_ctx + np.matmul(g_pre, fc.W.data.T)
            g_q = heads.backward(t, None, g_att)
            for k in reversed(range(k_heads)):
                g_h1 = g_h1 + g_q[k]
            g_xh1, g_c1 = lstm1.backward(t, g_h1, g_c1)
            np.add(g_out[t], g_xh1[:, :dv], out=g_in[t])
            g_h2 = g_ctx + g_xh1[:, dv:dv + dc]
            g_m = g_xh1[:, dv + dc:dv + dc + k_heads * dv]
            g_means = g_m if g_means is None else g_means + g_m
            g_h1 = g_xh1[:, dv + dc + k_heads * dv:]

        for lstm, run in ((unit.lstm1, lstm1), (unit.lstm2, lstm2)):
            g_W, g_b = run.param_grads()
            give(lstm.W, g_W)
            give(lstm.b, g_b)
        if controlled:
            g_W, g_b = lstm_c.param_grads()
            give(ctrl.lstm.W, g_W)
            give(ctrl.lstm.b, g_b)
            give(ctrl.proj.b, rows(g_logits_all).sum(axis=0))
            give(ctrl.proj.W, _t_matmul(np.concatenate(hcs), rows(g_logits_all)))
            give(state.ctrl.c, g_cc)
            give(state.ctrl.h, g_hc)
        if strategy is not None:
            give(fc.b, rows(g_pre_f).sum(axis=0))
            give(fc.W, _t_matmul(np.concatenate(contexts), rows(g_pre_f)))
        g_direct, g_keys, g_Wv, g_Wh, g_wa = heads.grads()
        for k in reversed(range(k_heads)):
            give(feats[k], g_direct[k])
            give(feats[k], g_keys[k])
            att_k = unit.att[unit.modules[k]]
            give(att_k.W_v, g_Wv[k])
            give(att_k.W_h, g_Wh[k])
            give(att_k.w_a, g_wa[k])
        give(i, g_in.reshape(shape))
        give(state.h2, g_h2)
        for k, m in enumerate(means):
            give(m, g_means[:, k * dv:(k + 1) * dv])
        give(state.h1, g_h1)
        give(state.c1, g_c1)
        give(state.c2, g_c2)

    node = Tensor._from_op(steps(outs), tuple(inputs + params), backward)

    def output(name, data):
        # the output's closure runs once its gradient is complete: it hands
        # the gradient to the node and makes sure the node's closure runs.
        # The node never refers to its outputs, so the graph has no cycle
        # and is freed as soon as the last output is dropped.
        def collect(g):
            out_grads[name] = g
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
        return Tensor._from_op(data, (node,), collect)

    trace = UnitTrace(weights=None, soft=None,
                      alphas={name: Tensor(alphas[k]) for k, name in enumerate(unit.modules)})
    ctrl_state = None if strategy is None else state.ctrl
    if controlled:
        ctrl_state = ControllerState(h=output("ctrl_h", hc), c=output("ctrl_c", cc))
        trace.soft = output("soft", steps(soft))
    if strategy is not None:
        trace.weights = (trace.soft if strategy is Strategy.SOFT
                         else Tensor(steps(weights)))
    new_state = UnitState(h1=output("h1", h1), c1=output("c1", c1), h2=output("h2", h2),
                          c2=output("c2", c2), ctrl=ctrl_state)
    return node, new_state, trace


class CaptionModel:
    """Encoder modules + embedding + M decoder units + word head."""

    def __init__(self, cfg: ModelConfig, rng: Rng, dtype=FLOAT32):
        cfg.validate()
        self.cfg = cfg
        self.dtype = dtype
        modules = tuple(name for name in cfg.modules if name in VISUAL_MODULES)
        self.encoders = {}
        for name in modules:
            self.encoders[name] = (
                RelationModule(cfg.d_r, cfg.d_v, cfg.heads, rng, cfg.leaky_slope, dtype)
                if name == "relation"
                else ProjectionModule(cfg.d_r, cfg.d_v, rng, cfg.leaky_slope, dtype))
        self.embed = xavier_uniform(rng, (cfg.vocab_size, cfg.d_v),
                                    cfg.vocab_size, cfg.d_v, dtype=dtype)
        self.units = [DecoderUnit(cfg, modules, rng, dtype) for _ in range(cfg.m_units)]
        self.head = Linear(cfg.d_v, cfg.vocab_size, rng, dtype=dtype)

    # -- forward pieces -----------------------------------------------------

    def encode(self, r_obj, r_attr, mask=None) -> Encoded:
        """Region features (K, d_r) or (B, K, d_r) -> per-module value sets.

        ``mask`` (B, K) marks the real regions of a zero-padded batch;
        without one every region is real.
        """
        r_obj = r_obj if isinstance(r_obj, Tensor) else Tensor(r_obj, dtype=self.dtype)
        r_attr = r_attr if isinstance(r_attr, Tensor) else Tensor(r_attr, dtype=self.dtype)
        if r_obj.ndim == 2:
            r_obj = r_obj.reshape((1,) + r_obj.shape)
            r_attr = r_attr.reshape((1,) + r_attr.shape)
        lead = r_obj.shape[:2]
        mask = (np.ones(lead, dtype=bool) if mask is None
                else np.asarray(mask, dtype=bool).reshape(lead))
        source = {"object": r_obj, "attribute": r_attr, "relation": r_obj}
        feats = {name: module(source[name], mask=mask) if name == "relation"
                 else module(source[name])
                 for name, module in self.encoders.items()}
        means = {name: mean_pool_rows(v, mask) for name, v in feats.items()}
        return Encoded(feats=feats, means=means, mask=mask)

    def init_state(self, batch: int) -> list[UnitState]:
        return [unit.init_state(batch) for unit in self.units]

    def init_rows(self, batch: int) -> list[np.ndarray]:
        """Each unit's zero state as one plain array (n, B, d_c): h1, c1,
        h2, c2, and with a controller its h and c."""
        return [np.zeros((4 if unit.ctrl is None else 6, batch, self.cfg.d_c), self.dtype)
                for unit in self.units]

    def step(self, prev_tokens, enc: Encoded, states: list, rng: Rng | None = None):
        """One decode step for the whole stack.

        prev_tokens: int array (B,). Returns (word distribution (B, V),
        new states, per-unit traces).  On the plain state arrays of
        ``init_rows`` the step runs forward only and returns plain arrays;
        it rounds as the Tensor step does and creates no Tensor.
        """
        idx = np.asarray(prev_tokens, dtype=np.int64)
        forward_only = isinstance(states[0], np.ndarray)
        vec = self.embed.data[idx] if forward_only else gather_rows(self.embed, idx)
        new_states = []
        traces = []
        for unit, st in zip(self.units, states):
            vec, st2, tr = unit.step(vec, enc, st, rng=rng)
            new_states.append(st2)
            traces.append(tr)
        if not forward_only:
            return softmax(self.head(vec), axis=-1), new_states, traces
        dist = softmax_forward(np.matmul(vec, self.head.W.data) + self.head.b.data)
        check_finite("word_head", dist)
        return dist, new_states, traces

    def forced(self, inputs, enc: Encoded, rng: Rng | None = None):
        """A teacher-forced pass over the input tokens (B, T): one embedding
        gather, then each unit runs all T steps in one ``unit_kernel`` call.

        Returns (word distributions (T*B, V), rows step-major, per-unit
        traces of (T, B, ...) arrays).  Hard-selection noise is drawn up
        front in the order the step loop draws it: per step, per unit, all
        rows.
        """
        idx = np.asarray(inputs, dtype=np.int64).T
        n_steps, batch = idx.shape
        vec = gather_rows(self.embed, idx)
        noise = [None] * len(self.units)
        if self.units[0].ctrl is not None and self.cfg.strategy == Strategy.HARD:
            noise = np.swapaxes(gumbel_noise(rng, (n_steps, len(self.units), batch,
                                                   len(self.units[0].modules) + 1),
                                             vec.dtype), 0, 1)
        traces = []
        for unit, unit_noise in zip(self.units, noise):
            vec, _, trace = unit_kernel(unit, vec, enc, unit.init_state(batch), unit_noise)
            traces.append(trace)
        dist = softmax(self.head(reshape(vec, (-1, self.cfg.d_v))), axis=-1)
        return dist, traces

    def named_parameters(self) -> dict[str, Tensor]:
        out = {}
        for name in sorted(self.encoders):
            out.update(self.encoders[name].params(f"enc.{name}"))
        out["embed.W"] = self.embed
        for m, unit in enumerate(self.units, start=1):
            out.update(unit.params(f"unit{m}"))
        out.update(self.head.params("head"))
        return out


# -- decoding ---------------------------------------------------------------


def _initial_state(model, batch):
    """The state a decode loop starts from: without gradients a
    CaptionModel steps forward only, on plain state arrays."""
    if isinstance(model, CaptionModel) and not grad_enabled():
        return model.init_rows(batch)
    return model.init_state(batch)


def _array(dist):
    return dist.data if isinstance(dist, Tensor) else dist


def one_scene(enc) -> bool:
    """Whether ``enc`` holds a single scene, whose decoder results come back
    unwrapped; model stubs that need no encoding pass None for one scene."""
    return enc is None or enc.batch == 1


def run_decoder(model, enc, max_len, choose, observe=None, rng=None, bos=BOS_ID,
                eos=EOS_ID):
    """Step every row of ``enc`` until each has emitted ``eos`` or
    ``max_len`` tokens; returns one token list per row.

    The token policy ``choose(t, p, live)`` maps step t's (B, V)
    distribution array and the mask of rows still running to the token
    each row emits and is fed next; tokens of finished rows are not kept.
    ``observe(t, dist, traces, tokens, live)`` sees every step: the
    distribution and the traces are Tensors, or plain arrays when a
    CaptionModel decodes without gradients.  ``bos``, the first input, is
    one token id or one per row.
    """
    batch = 1 if enc is None else enc.batch
    states = _initial_state(model, batch)
    tok = np.full(batch, bos, dtype=np.int64)
    live = np.ones(batch, dtype=bool)
    rows = [[] for _ in range(batch)]
    for t in range(max_len):
        dist, states, traces = model.step(tok, enc, states, rng=rng)
        tok = np.asarray(choose(t, _array(dist), live), dtype=np.int64)
        if observe is not None:
            observe(t, dist, traces, tok, live)
        for b in np.flatnonzero(live):
            rows[b].append(int(tok[b]))
        live = live & (tok != eos)
        if not live.any():
            break
    return rows


def argmax_policy(t, p, live):
    """The most likely token; ties resolve to the lowest token id."""
    return np.argmax(p, axis=1)


def sample_policy(rng: Rng, eos: int = EOS_ID):
    """Each live row draws its token from its distribution, one uniform per
    live row in row order; finished rows emit ``eos``."""
    def choose(t, p, live):
        tok = np.full(p.shape[0], eos, dtype=np.int64)
        for b in np.flatnonzero(live):
            tok[b] = rng.multinomial(p[b])
        return tok
    return choose


def forced_policy(tokens):
    """Replays ``tokens`` (B, T + 1), whose first column is the first input:
    step t emits column t + 1."""
    tokens = np.asarray(tokens, dtype=np.int64)
    return lambda t, p, live: tokens[:, t + 1]


def greedy_decode(model, enc, max_len: int, bos: int = BOS_ID, eos: int = EOS_ID):
    """Argmax decoding of every row of ``enc``.  Returns one token list per
    row, or the list itself for a single scene."""
    with no_grad():
        rows = run_decoder(model, enc, max_len, argmax_policy, bos=bos, eos=eos)
    return rows[0] if one_scene(enc) else rows


@dataclass
class Hypothesis:
    tokens: tuple
    logprob: float
    states: object      # row of this hypothesis in its step's batched decoder state
    finished: bool

    def score(self, length_normalize: bool) -> float:
        if length_normalize and self.tokens:
            return self.logprob / len(self.tokens)
        return self.logprob


def beam_search(model, enc, beam_width: int, max_len: int, bos: int = BOS_ID,
                eos: int = EOS_ID, length_normalize: bool = False) -> list[Hypothesis]:
    """Best-first beam decode of one scene.

    Each step expands every live hypothesis in one forward-only step on
    plain arrays: the hypotheses are the rows of each unit's state array,
    reordered to their parents by one index per unit, and they attend the
    one-scene encoding, broadcast over them.  A hypothesis that emits the
    end token is frozen: it is never expanded again but keeps competing
    with live ones on its (optionally length normalized) cumulative
    log-probability.  Ties prefer the sequence that is lexicographically
    smallest in token ids.  A token of probability 0 scores the log of
    the smallest subnormal of the distribution's dtype.
    """
    if beam_width < 1:
        raise ValueError(f"beam width must be positive, got {beam_width}")
    if enc is not None and enc.batch != 1:
        raise ValueError(f"beam search decodes one scene, got a batch of {enc.batch}")

    def rank(h):
        return (-h.score(length_normalize), h.tokens)

    with no_grad():
        beams = [Hypothesis(tokens=(), logprob=0.0, states=0, finished=False)]
        states = _initial_state(model, 1)
        for _ in range(max_len):
            live = [h for h in beams if not h.finished]
            if not live:
                break
            prev = [h.tokens[-1] if h.tokens else bos for h in live]
            if states is not None:      # a model stub may keep no state
                parents = np.array([h.states for h in live])
                states = [s[:, parents] for s in states]
            dist, states, _ = model.step(prev, enc, states)
            p = _array(dist)
            logp = np.log(np.maximum(p, np.finfo(p.dtype).smallest_subnormal))
            total = np.array([h.logprob for h in live])[:, None] + logp
            score = total
            if length_normalize:
                score = total / np.array([len(h.tokens) + 1 for h in live])[:, None]
            # only expansions scoring at least the beam_width-th best can
            # survive the exact sort below
            flat = score.ravel()
            if flat.size > beam_width:
                cut = np.partition(flat, flat.size - beam_width)[flat.size - beam_width]
                picked = np.flatnonzero(flat >= cut)
            else:
                picked = np.arange(flat.size)
            candidates = [h for h in beams if h.finished]
            rows, toks = np.divmod(picked, score.shape[1])
            for row, tok, logprob in zip(rows.tolist(), toks.tolist(),
                                         total.ravel()[picked].tolist()):
                candidates.append(Hypothesis(live[row].tokens + (tok,), logprob, row, tok == eos))
            candidates.sort(key=rank)
            beams = candidates[:beam_width]
    beams.sort(key=rank)
    return beams


def sample_decode(model, enc, rng: Rng, max_len: int, bos: int = BOS_ID,
                  eos: int = EOS_ID):
    """Ancestral sampling of every row of ``enc``; keeps gradients unless
    run under ``no_grad``.

    Returns (tokens, per-step (B,) log-probabilities of the sampled
    tokens), the tokens as one list per row, or the list itself for a
    single scene; a row that has finished adds exactly 0 from then on.
    Per step the model draws its hard-selection noise for all rows, then
    each live row draws one uniform, in row order.
    """
    logps = []

    def observe(t, dist, traces, tok, live):
        logps.append(-masked_nll(dist, tok, live, per_row=True))

    rows = run_decoder(model, enc, max_len, sample_policy(rng, eos), observe, rng=rng,
                       bos=bos, eos=eos)
    return (rows[0] if one_scene(enc) else rows), logps


def strip_sequence(tokens, eos: int = EOS_ID) -> list[int]:
    """Drop the end token and anything after it."""
    out = []
    for t in tokens:
        if t == eos:
            break
        out.append(t)
    return out
