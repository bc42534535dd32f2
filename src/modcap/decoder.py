"""Decoder stack: stacked two-LSTM units with attention, weight collocation
and a residual word-vector lane, plus the decode step loop and decoders.

Each unit refines a running vector i of width d_v.  The first LSTM sees
[i, its own previous output context, mean-pooled module features], its
output queries one attention head per visual module, the controller
weighs the four module vectors, and the second LSTM folds the fused
feature back in.  The unit output is added onto i, so stacking M units
is a residual chain and i keeps the embedding width throughout.  A
single-module unit has one attention head and no controller.  A unit
lists its weights once, in one table (``DecoderUnit.weights``) that init
draws, checkpoints name, runs read and the kernel differentiates.

``CaptionModel.encode`` runs the visual modules as one kernel
(``encoders.encoder_kernel``), whose two stacked fields every unit reads
as they are.  A ``UnitRun`` is one pass of the stack of units over one
encoding, on plain arrays: it holds what the steps share, the weights of
every unit along a leading unit axis (views of the arena, not copies),
and ``step`` is the units' one step body, which steps one unit or
several at once, rank-agnostic.  A recording run is also the pass's
backward (``backward``), one call that visits the pass's calls in
reverse.  Teacher forcing (``training.step_grads``) runs the M units
over the caption from the zero state in one ``unit_kernel`` call, a
wavefront of T + M - 1 calls in which unit m's step t and unit m + 1's
step t - 1 run together, each call on the state rows the call before
returned, with a trace per unit.  Each unit's steps round exactly as if
it ran alone.  The same step composed of one node per op is kept with
the tests (``tests/reference.py``); a one-step pass agrees with it bit
for bit.  The decoders (``CaptionModel.step``) step forward only, on one
plain state array for the stack (M, n, B, d_v): a decode step steps unit
after unit on the stack's forward-only run, kept with the encoding
(``Encoded.run``), and checks the new state once.  A decode step returns
only the word distribution and the new state: what a unit chose is read
from a teacher-forced pass over the caption, as traces do.  Decoding and
teacher forcing read the words off the last unit's rows through one word
head, ``word_head``, whose backward is ``word_head_backward``.

``run_decoder`` is the one batch-native step loop: a token policy
(argmax or sample) picks every row's next token.  Greedy and sampling
decoding run on it; beam search, which reorders the state rows every
step, keeps its own loop.  Both enter ``np.errstate`` once per decode,
for the LSTM gate sigmoids that may overflow exp.  The decoders take an
encoding, a single scene being a batch of one, and return one token list
per row; beam search takes a one-scene encoding and returns its ranked
beam.  Every row starts from ``BOS_ID`` and ends at ``EOS_ID``.  The
hard-selection noise of a pass is drawn in one place,
``CaptionModel.selection_noise``, for all its steps, units and rows.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field

import numpy as np

from .config import LEAKY_SLOPE, VISUAL_MODULES, ModelConfig
from .controller import ModuleLabel, Strategy, one_hot_max
from .corpus import BOS_ID, EOS_ID, PAD_ID, UNK_ID  # noqa: F401 (re-exported)
from .encoders import ProjectionModule, RelationModule, encoder_kernel
from .errors import TrainingError
from .layers import Linear
from .tensor import (
    FLOAT32,
    AttentionRun,
    LstmRun,
    ParamArena,
    Rng,
    Tensor,
    _t_matmul,
    affine_grads,
    check_finite,
    grad_out,
    make_lstm_params,
    stacked,
    softmax_backward,
    softmax_forward,
    xavier_uniform,
    zeros,
)


HEAD_WEIGHTS = ("Wv", "Wh", "wa")      # an attention head's table entries, in draw order


@dataclass
class Encoded:
    """An encoding as ``encoder_kernel`` lays it out: the modules' values
    (K, B, N, d_v) and means (B, K*d_v); the (B, N) mask of real regions;
    and, when the encode recorded, what its backward reads
    (``encoders.encoder_backward``)."""

    values: np.ndarray
    means: np.ndarray
    mask: np.ndarray
    record: tuple | None = field(default=None, repr=False, compare=False)
    _runs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def batch(self) -> int:
        return self.mask.shape[0]

    def twice(self) -> Encoded:
        """The encoding with its scenes listed twice, B more rows after
        the B it has, without a record."""
        return Encoded(np.concatenate([self.values] * 2, axis=1),
                       np.concatenate([self.means] * 2), np.concatenate([self.mask] * 2))

    @functools.cached_property
    def padded(self) -> bool:
        """Whether any region is padding; attention skips the mask if not."""
        return not self.mask.all()

    def run(self, units) -> UnitRun:
        """The forward-only run of the stack ``units`` over this encoding,
        built on its first step and again after a weight write
        (``ParamArena.version``)."""
        units = tuple(units)
        run = self._runs.get(units)
        if run is None or run.version != ParamArena.version:
            run = self._runs[units] = UnitRun(units, self)
        return run


@dataclass
class UnitTrace:
    """What a unit chose over a pass, from ``unit_kernel``: each value on
    a leading step axis (T, B, ...).  Under the soft strategy ``weights``
    is ``soft``."""

    weights: np.ndarray | None       # (T, B, K + 1) fusion weights, None without a controller
    soft: np.ndarray | None          # noise-free controller softmax, for supervision
    alphas: dict[str, np.ndarray]    # per-module attention over regions (T, B, N)


class DecoderUnit:
    """One decoder unit over the visual modules in ``modules``.

    ``weights`` is the unit's one table of weights, in draw order, keyed
    by the ends of their checkpoint names: LSTM1 (``lstm1.*``), an
    attention head per module (``att.<module>.Wv``, ``Wh``, ``wa``), with
    all three visual modules the function module (``func.fc.*``) and the
    controller (``ctrl.*``, never run under the uniform strategy), and
    LSTM2 (``lstm2.*``).  A single-module unit (the ablation) has no
    function module or controller, and its ``strategy`` is None.
    ``n_rows`` is the number of its state rows: h1, c1, h2, c2 and, when
    the controller runs (``controlled``), its h and c.  A unit has no step
    of its own: its stack's run (``UnitRun``) steps it.
    """

    def __init__(self, cfg: ModelConfig, modules: tuple, rng: Rng, dtype=FLOAT32):
        d_v, d_a = cfg.d_v, cfg.d_a
        d_c = d_v       # the units stack residually: the LSTM width is the value width
        self.cfg = cfg
        self.modules = modules
        self.strategy = Strategy(cfg.strategy) if modules == VISUAL_MODULES else None
        self.controlled = self.strategy not in (None, Strategy.UNIFORM)
        self.n_rows = 6 if self.controlled else 4
        w = self.weights = {}

        def lstm(name, d_in):
            p = make_lstm_params(rng, d_in, d_c, dtype=dtype)
            w[f"{name}.W"], w[f"{name}.b"] = p.W, p.b

        lstm("lstm1", (len(modules) + 1) * d_v + d_c)
        for name in modules:
            w[f"att.{name}.Wv"] = xavier_uniform(rng, (d_a, d_v), d_v, d_a, dtype=dtype)
            w[f"att.{name}.Wh"] = xavier_uniform(rng, (d_a, d_c), d_c, d_a, dtype=dtype)
            w[f"att.{name}.wa"] = xavier_uniform(rng, (d_a,), d_a, 1, dtype=dtype)
        if self.strategy is not None:
            n = len(ModuleLabel)
            w["func.fc.W"] = xavier_uniform(rng, (d_c, d_v), d_c, d_v, dtype=dtype)
            w["func.fc.b"] = zeros(d_v, dtype=dtype, requires_grad=True)
            lstm("ctrl.lstm", len(modules) * d_v + d_c)
            w["ctrl.proj.W"] = xavier_uniform(rng, (d_c, n), d_c, n, dtype=dtype)
            w["ctrl.proj.b"] = zeros(n, dtype=dtype, requires_grad=True)
        lstm("lstm2", d_c + (len(modules) + (self.strategy is not None)) * d_v)
        self._stack_table = (None, None)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.{name}": t for name, t in self.weights.items()}


def _plus(a, b):
    """a + b where either gradient may be None (no consumer)."""
    return b if a is None else a if b is None else a + b


def _stack_table(units) -> dict:
    """The weight table of a stack of units, each entry but the attention
    heads' with a leading unit axis (``tensor.stacked``), and under "heads"
    the heads' weights over the unit and module axes: C-contiguous W_v^T
    (M, K, d_v, d_a) and W_h^T (M, K, d_c, d_a), and w_a (M, K, d_a).
    Kept on the first unit until a weight write (``ParamArena.version``)."""
    first = units[0]
    key = (ParamArena.version, *map(weakref.ref, units))
    if first._stack_table[0] != key:
        table = {name: stacked([unit.weights[name] for unit in units])
                 for name in first.weights if not name.startswith("att.")}
        lead = (len(units), len(first.modules))
        Wv, Wh, wa = (np.array([unit.weights[f"att.{name}.{part}"].data for unit in units
                                for name in first.modules]) for part in HEAD_WEIGHTS)
        table["heads"] = (*(np.ascontiguousarray(w.reshape(lead + w.shape[1:]).swapaxes(-1, -2))
                            for w in (Wv, Wh)), wa.reshape(lead + wa.shape[1:]))
        first._stack_table = (key, table)
    return first._stack_table[1]


class UnitRun:
    """A pass of a stack of M decoder units over one encoding, forward and
    backward.

    It holds what every step of the pass shares: the units' weight arrays
    (as of the arena ``version``), each with a leading unit axis, and
    their strategy, LSTM runs for LSTM1, LSTM2 and the controller, the
    K attention heads of every unit as one stacked run over the
    encoding's features, and the scene means per row shape.  ``step`` is
    the units' one step body, for one unit or several at once.  Without
    ``record`` the run is forward only, and one run serves any number of
    steps and of rows: a one-scene encoding serves a beam's hypotheses.

    A recording run is stepped as a wavefront (``unit_kernel``) and is
    its own backward, as ``LstmRun`` is.  A call records in ``steps`` one
    tuple, ending with its units, of the arrays its backward reads but
    the fused block, rebuilt from the attended rows (which the
    controller's LSTM keeps) and the function module's pre-activation:
    only LSTM2's input keeps the weighted block.  The call's backward
    replaces it with what the weight gradients read: the context, the
    controller's h and the gradients of the function module's
    pre-activation and of the controller's logits.
    """

    def __init__(self, units, enc: Encoded, record: bool = False):
        unit = units[0]
        self.units = units
        self.record = record
        self.version = ParamArena.version
        self.n_units = len(units)
        w = _stack_table(units)
        self.modules, self.strategy, self.controlled = unit.modules, unit.strategy, unit.controlled
        values, self.means_cat = enc.values, enc.means
        self.means = {self.means_cat.shape[:-1]: self.means_cat}     # per row shape
        self.lstm1 = LstmRun(w["lstm1.W"], w["lstm1.b"], record)
        self.lstm2 = LstmRun(w["lstm2.W"], w["lstm2.b"], record)
        self.heads = AttentionRun(values, *w["heads"], enc.mask if enc.padded else None, record)
        if self.strategy is not None:
            self.fc_W, self.fc_b = w["func.fc.W"], w["func.fc.b"][:, None]
        if self.controlled:
            self.lstm_c = LstmRun(w["ctrl.lstm.W"], w["ctrl.lstm.b"], record)
            self.proj_W, self.proj_b = w["ctrl.proj.W"], w["ctrl.proj.b"][:, None]
            self.scale = np.asarray(1.0 / unit.cfg.gumbel_tau, dtype=self.proj_W.dtype)
        # per call: context (h2 of the step before), pre-activation, fusion
        # weights, attended rows, the controller's h, softmax and noisy
        # softmax, and the units it stepped
        self.steps = []

    @staticmethod
    def _block(att, pf):
        """The fused inputs (..., B, K + 1, d_v): the K attended rows and
        the function module's output."""
        v_func = np.where(pf >= 0, pf, LEAKY_SLOPE * pf)
        return np.concatenate([att.swapaxes(-3, -2), v_func[..., None, :]], axis=-2)

    def step(self, x: np.ndarray, state, noise: np.ndarray | None, u):
        """One call on the units ``u`` (an index of the stack), with the
        input rows x (..., B, d_v) and the state rows h1, c1, h2, c2 and,
        when the controller runs, its h and c, each shaped like x, and the
        (..., B, K + 1) hard-selection noise, zero when None.

        LSTM1 runs, then the K attention heads; with a controller the
        function module, the controller (soft; hard with the noise and a
        straight-through one-hot; or uniform) and the weighted fusion;
        then LSTM2 and the residual add.  Returns (x + h2, the new state
        rows, attention weights (..., K, B, N), fusion weights (..., B,
        K + 1) or None without a controller, controller softmax or None).
        A slice of units rounds exactly as one call per unit.  The gate
        sigmoids may overflow exp: step under ``np.errstate(over="ignore")``.
        """
        rows = x.shape[:-1]
        h1, c1, h2, c2, *ctrl_rows = state
        ctx = h2
        means = self.means.get(rows)
        if means is None:       # one scene's means for every row, and every unit's
            means = self.means[rows] = np.broadcast_to(self.means_cat,
                                                       rows + self.means_cat.shape[-1:])
        h1, c1 = self.lstm1.forward([x, ctx, means, h1], c1, u)
        alpha, att = self.heads.forward(h1, u)
        pf = w = hc = soft = y = None
        if self.strategy is None:
            v_hat = att[..., 0, :, :]
        else:
            pf = np.matmul(ctx, self.fc_W[u]) + self.fc_b[u]
            block = self._block(att, pf)
            if self.controlled:
                hc, cc = self.lstm_c.forward([*att.swapaxes(0, -3), ctx, ctrl_rows[0]],
                                             ctrl_rows[1], u)
                ctrl_rows = [hc, cc]
                logits = np.matmul(hc, self.proj_W[u]) + self.proj_b[u]
                w = soft = softmax_forward(logits)
                if self.strategy is Strategy.HARD:
                    if noise is None:
                        noise = np.zeros(block.shape[:-1], x.dtype)
                    y = softmax_forward((logits + noise) * self.scale)
                    w = (one_hot_max(y) - y) + y
            else:
                w = np.ones(block.shape[:-1], dtype=ctx.dtype)
            v_hat = (w[..., None] * block).reshape(rows + (-1,))
        h2, c2 = self.lstm2.forward([h1, v_hat, ctx], c2, u)
        if self.record:
            self.steps.append((ctx, pf, w, att if self.controlled else None, hc, soft, y, u))
        return x + h2, [h1, c1, h2, c2, *ctrl_rows], alpha, w, soft

    def backward(self, g_top, g_soft):
        """The backward of a wavefront pass, from the gradients of the last
        unit's output rows g_top (T, B, d_v) and of the units' controller
        softmax g_soft (M, T, B, K + 1), None when it has no consumer.

        It visits the calls in reverse.  A unit's output rows take the
        gradient the next unit's step handed back to its input rows at the
        call after, the last unit's g_top's; each unit's state gradients
        carry to its step before.  The weights' gradients go to the arena
        (``grad_out``); the uniform strategy's controller gets none.
        Returns (per unit the encoding's values' gradient through the
        attended sum and through the keys, the means' gradient, and the
        first unit's input rows' gradient (T, B, d_v)), each summed over
        every step.  This ends the backward: the records and the arrays
        formed for it are let go.
        """
        dv, k_heads, n_units = self.lstm1.dh, len(self.modules), self.n_units
        n_calls, rows, dtype = len(self.steps), g_top.shape[1:], g_top.dtype
        # per state row (h1, c1, h2, c2 and the controller's h and c), each
        # unit's gradient; a unit's last step starts from -0.0, which adds
        # as nothing does, negative zeros kept
        g_state = np.full((4 + 2 * self.controlled, n_units) + rows, -0.0, dtype)
        # per unit, what its step handed back to its input rows; last, the
        # pass's output's
        g_fed = np.empty((n_units + 1,) + rows, dtype)
        g_in = np.empty_like(g_top)         # the first unit's input rows'
        g_means = np.full((n_units,) + self.means_cat.shape, -0.0, dtype)
        for t in reversed(range(n_calls)):
            ctx, pf, w, att, hc, soft, y, u = self.steps[t]
            g_pre = g_l = None
            g_h1, g_c1, g_h2, g_c2, *g_ctrl = g_state[:, u]
            if u.stop == n_units:
                g_fed[-1] = g_top[t - n_units + 1]
            g_out = g_fed[u.start + 1:u.stop + 1]
            g_xh2, g_c2 = self.lstm2.backward(t, g_h2 + g_out, g_c2)
            g_h1 = g_h1 + g_xh2[..., :dv]
            g_vhat = g_xh2[..., dv:-dv]
            g_ctx = g_xh2[..., -dv:]
            if self.strategy is None:
                g_att = g_vhat[..., None, :, :]
            else:
                g_blocks = g_vhat.reshape(g_vhat.shape[:-1] + (k_heads + 1, dv))
                g_att = g_blocks * w[..., None]
                g_func = g_att[..., k_heads, :]
                g_att = g_att[..., :k_heads, :].swapaxes(-3, -2)
            if self.controlled:
                g_hc, g_cc = g_ctrl
                g_w = (g_blocks * self._block(att, pf)).sum(axis=-1)
                live = np.arange(u.start, u.stop)
                g_s = None if g_soft is None else g_soft[live, t - live]
                if self.strategy is Strategy.SOFT:
                    g_l = softmax_backward(soft, _plus(g_s, g_w))
                else:
                    g_l = softmax_backward(y, g_w) * self.scale
                    if g_s is not None:
                        g_l = g_l + softmax_backward(soft, g_s)
                g_hc = g_hc + np.matmul(g_l, self.proj_W[u].swapaxes(-1, -2))
                g_xc, g_cc = self.lstm_c.backward(t, g_hc, g_cc)
                g_ctrl = [g_xc[..., k_heads * dv + dv:], g_cc]
                g_att = g_att + g_xc[..., :k_heads * dv].reshape(
                    g_xc.shape[:-1] + (k_heads, dv)).swapaxes(-3, -2)
                g_ctx = g_ctx + g_xc[..., k_heads * dv:k_heads * dv + dv]
            if self.strategy is not None:
                d_pre = np.where(pf >= 0, 1.0, LEAKY_SLOPE).astype(pf.dtype)
                g_pre = g_func * d_pre
                g_ctx = g_ctx + np.matmul(g_pre, self.fc_W[u].swapaxes(-1, -2))
            self.steps[t] = ((ctx,), (hc,), g_pre, g_l, u)  # what the weight gradients read
            g_q = self.heads.backward(t, None, g_att)
            for k in reversed(range(k_heads)):
                g_h1 = g_h1 + g_q[..., k, :, :]
            g_xh1, g_c1 = self.lstm1.backward(t, g_h1, g_c1)
            g_fed[u] = g_out + g_xh1[..., :dv]
            if u.start == 0:
                g_in[t] = g_fed[0]
            g_means[u] += g_xh1[..., 2 * dv:(2 + k_heads) * dv]
            g_state[:, u] = [g_xh1[..., (2 + k_heads) * dv:], g_c1,
                             g_ctx + g_xh1[..., dv:2 * dv], g_c2, *g_ctrl]

        def out(name):
            """The units' stacked gradients of the table entry ``name``."""
            return grad_out([unit.weights[name] for unit in self.units])

        self.lstm1.param_grads(out("lstm1.W"), out("lstm1.b"))
        self.lstm2.param_grads(out("lstm2.W"), out("lstm2.b"))
        if self.controlled:
            self.lstm_c.param_grads(out("ctrl.lstm.W"), out("ctrl.lstm.b"))
            affine_grads(self.steps, 1, 3, out("ctrl.proj.W"), out("ctrl.proj.b"))
        if self.strategy is not None:
            affine_grads(self.steps, 0, 2, out("func.fc.W"), out("func.fc.b"))
        g_direct, g_keys, *g_heads = self.heads.grads()
        for part, g in zip(HEAD_WEIGHTS, g_heads):
            for k, name in enumerate(self.modules):
                out(f"att.{name}.{part}")[...] = [g_m[k] for g_m in g]
        self.steps = []
        return g_direct, g_keys, g_means, g_in


def word_head(vec: np.ndarray, W: Tensor, b: Tensor) -> np.ndarray:
    """The word distribution of each row of ``vec`` (..., d_v): softmax(x W
    + b) over the rows x, (rows, V)."""
    dist = softmax_forward(np.matmul(vec.reshape(-1, W.shape[0]), W.data) + b.data)
    check_finite("word_head", dist)
    return dist


def word_head_backward(vec: np.ndarray, dist: np.ndarray, W: Tensor, b: Tensor,
                       g: np.ndarray, w_data: np.ndarray | None = None) -> np.ndarray:
    """The backward of ``word_head(vec, W, b)``, which gave ``dist``, from
    the distribution's gradient g: writes the weights' gradients into their
    arena and returns the rows' gradient, shaped as ``vec``.  ``w_data``
    is W's value the forward read, by default W's value now.  It repeats
    the op-composed head's chain in order (the softmax's gradient, the
    bias sum, then the product's input and weight gradients), so it
    rounds alike."""
    w_data = W.data if w_data is None else w_data
    g = softmax_backward(dist, g)
    g.sum(axis=0, out=grad_out([b])[0])
    g_vec = np.matmul(g, w_data.T).reshape(vec.shape)
    _t_matmul(vec.reshape(-1, w_data.shape[0]), g, out=grad_out([W])[0])
    return g_vec


def unit_kernel(units, xs: np.ndarray, enc: Encoded, noise: np.ndarray | None = None,
                record: bool = False):
    """T steps of a stack of M decoder units from the zero state: one
    ``UnitRun`` pass.

    ``xs`` holds the first unit's input rows of every step, (T, B, d_v);
    each later unit takes the output rows of the one before.  The pass is
    a wavefront of T + M - 1 calls: call t steps unit m's step t - m for
    every unit with 0 <= t - m < T, in one set of numpy calls, on the
    state rows the call before returned.  ``noise``, of shape (T, M, B,
    K + 1), is the hard strategy's Gumbel noise, zero when None.
    Returns (the last unit's output rows, shaped like ``xs``; one trace
    per unit; with ``record`` the recorded run, whose ``backward`` is the
    pass's, else None).  The backward reads the weight arrays the pass
    ran on, so a weight written since changes nothing.  A one-step pass
    rounds exactly as the op-composed step in ``tests/reference.py``.
    Without ``record`` the pass runs on the encoding's forward-only run,
    the one ``CaptionModel.step`` decodes with.
    """
    n_steps, n_units = len(xs), len(units)
    run = UnitRun(units, enc, record=True) if record else enc.run(units)
    top = np.empty_like(xs)     # the last unit's output rows
    calls = [slice(max(0, t - n_steps + 1), min(n_units, t + 1))
             for t in range(n_steps + n_units - 1)]
    out = xs[:0]
    zero = np.zeros((1,) + xs.shape[1:], xs.dtype)
    state = [zero] * units[0].n_rows        # the first unit's, at the first call
    # each unit's traces over its steps: attention, fusion weights, softmax
    k_heads, rows = len(run.modules), xs.shape[1:-1]
    alphas = np.empty((n_units, k_heads, n_steps) + rows + enc.mask.shape[-1:], xs.dtype)
    chosen = np.empty((n_units, n_steps) + rows + (k_heads + 1,), xs.dtype)
    softs = np.empty_like(chosen)
    with np.errstate(over="ignore"):
        for t, u in enumerate(calls):
            x = out[:u.stop - max(u.start, 1)]      # what each unit hands the next
            if u.start == 0:
                x = np.concatenate([xs[t:t + 1], x])
            else:                                   # unit u.start - 1 has left
                state = [r[1:] for r in state]
            if 0 < t < n_units:                     # unit t enters
                state = [np.concatenate([r, zero]) for r in state]
            live = np.arange(u.start, u.stop)
            out, state, alphas[live, :, t - live], w, soft = run.step(
                x, state, None if noise is None else noise[t - live, live], u)
            if u.stop == n_units:
                top[t - n_units + 1] = out[-1]
            if run.controlled:
                softs[live, t - live] = soft
            if run.strategy not in (None, Strategy.SOFT):
                chosen[live, t - live] = w
    check_finite("unit_kernel", top)
    if run.controlled:
        check_finite("unit_kernel", softs)
    traces = []
    for m, unit in enumerate(units):
        trace = UnitTrace(weights=None, soft=None, alphas=dict(zip(unit.modules, alphas[m])))
        if run.controlled:
            trace.soft = softs[m]
        if run.strategy is not None:
            trace.weights = trace.soft if run.strategy is Strategy.SOFT else chosen[m]
        traces.append(trace)
    return top, traces, run if record else None


class CaptionModel:
    """Encoder modules + embedding + M decoder units + word head; ``arena`` holds the weights."""

    def __init__(self, cfg: ModelConfig, rng: Rng, dtype=FLOAT32):
        cfg.validate()
        self.cfg = cfg
        self.dtype = dtype
        modules = tuple(name for name in cfg.modules if name in VISUAL_MODULES)
        self.encoders = {}
        for name in modules:
            self.encoders[name] = (
                RelationModule(cfg.d_r, cfg.d_v, cfg.heads, rng, dtype)
                if name == "relation"
                else ProjectionModule(cfg.d_r, cfg.d_v, rng, dtype))
        self.embed = xavier_uniform(rng, (cfg.vocab_size, cfg.d_v),
                                    cfg.vocab_size, cfg.d_v, dtype=dtype)
        self.units = [DecoderUnit(cfg, modules, rng, dtype) for _ in range(cfg.m_units)]
        self.head = Linear(cfg.d_v, cfg.vocab_size, rng, dtype=dtype)
        self.arena = ParamArena(self.named_parameters())

    # -- forward pieces -----------------------------------------------------

    def encode(self, r_obj, r_attr, mask=None, record: bool = False) -> Encoded:
        """Region features (K, d_r) or (B, K, d_r) -> their encoding, by
        ``encoder_kernel``, which keeps its record with ``record``.
        ``mask`` (B, K) marks the real regions; without one all are real."""
        r_obj, r_attr = (np.asarray(r, dtype=self.dtype) for r in (r_obj, r_attr))
        shape = r_obj.shape
        lead = (1,) + shape[:1] if len(shape) == 2 else shape[:2]
        mask = (np.ones(lead, dtype=bool) if mask is None
                else np.asarray(mask, dtype=bool).reshape(lead))
        values, means, rec = encoder_kernel(self.encoders, r_obj, r_attr, mask, record)
        return Encoded(values, means, mask, rec)

    def init_rows(self, batch: int) -> np.ndarray:
        """The stack's zero state as one plain array (M, n, B, d_v): per
        unit, its n state rows (``DecoderUnit.n_rows``)."""
        return np.zeros((len(self.units), self.units[0].n_rows, batch, self.cfg.d_v),
                        self.dtype)

    def selection_noise(self, rng: Rng | None, n_steps: int, batch: int):
        """The hard strategy's Gumbel noise for a pass of ``n_steps`` over
        ``batch`` rows, (n_steps, M, B, K + 1), drawn in that row-major
        order: per step, per unit, all rows.  None under the other
        strategies or without an rng; the units then select without
        noise."""
        if rng is None or self.units[0].strategy is not Strategy.HARD:
            return None
        return rng.gumbel_array((n_steps, len(self.units), batch,
                                 len(self.units[0].modules) + 1), dtype=self.dtype)

    def step(self, prev_tokens, enc: Encoded, states: np.ndarray,
             noise: np.ndarray | None = None):
        """One forward-only decode step of the stack, on the state array
        (M, n, B, d_v) of ``init_rows``: unit m steps on the stack's run
        kept with the encoding (``Encoded.run``), from the output rows of
        unit m - 1.

        prev_tokens: int array (B,); ``noise``: the step's (M, B, K + 1)
        slice of ``selection_noise``.  Returns (word distribution (B, V),
        new state array), plain arrays; creates no Tensor.  The gate
        sigmoids may overflow exp: the decoders step under
        ``np.errstate(over="ignore")``, entered once per decode.
        """
        vec = self.embed.data[np.asarray(prev_tokens, dtype=np.int64)]
        run = enc.run(self.units)
        new = np.empty_like(states)
        for m in range(len(states)):
            vec, new[m], *_ = run.step(vec, states[m], None if noise is None else noise[m], m)
        check_finite("unit_kernel", new)
        return word_head(vec, self.head.W, self.head.b), new

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


def _check_distribution(p: np.ndarray, t: int) -> None:
    """A decoder cannot rank a word distribution holding NaN or Inf: such a
    model (a checkpoint with a non-finite weight) fails here, at step t."""
    if not np.isfinite(p).all():
        raise TrainingError(f"non-finite word distribution at decode step {t}")


def run_decoder(model, enc, max_len, choose, noise=None):
    """Step every row of ``enc`` from ``BOS_ID`` until each has emitted
    ``EOS_ID`` or ``max_len`` tokens; returns one token list per row.

    The token policy ``choose(t, p, live)`` maps step t's (B, V)
    distribution array and the mask of rows still running to the token
    each row emits and is fed next; tokens of finished rows are not kept.
    Step t selects with ``noise[t]``, of a pass's ``selection_noise``.
    """
    batch = enc.batch
    states = model.init_rows(batch)
    tok = np.full(batch, BOS_ID, dtype=np.int64)
    live = np.ones(batch, dtype=bool)
    rows = [[] for _ in range(batch)]
    with np.errstate(over="ignore"):
        for t in range(max_len):
            dist, states = model.step(tok, enc, states, None if noise is None else noise[t])
            _check_distribution(dist, t)
            tok = np.asarray(choose(t, dist, live), dtype=np.int64)
            for b in np.flatnonzero(live):
                rows[b].append(int(tok[b]))
            live = live & (tok != EOS_ID)
            if not live.any():
                break
    return rows


def argmax_policy(t, p, live):
    """The most likely token; ties resolve to the lowest token id."""
    return np.argmax(p, axis=1)


def sample_policy(rng: Rng):
    """Each live row draws its token from its distribution by the inverse
    CDF, one uniform per live row in row order; finished rows emit
    ``EOS_ID``.  The row-wise float64 ``cumsum`` adds in the order a per-row
    one would."""
    def choose(t, p, live):
        tok = np.full(p.shape[0], EOS_ID, dtype=np.int64)
        rows = np.flatnonzero(live)
        cdf = np.cumsum(p[rows].astype(np.float64), axis=1)
        u = rng.uniform_array(rows.shape, 0.0, 1.0, dtype=np.float64) * cdf[:, -1]
        tok[rows] = np.minimum(np.count_nonzero(cdf <= u[:, None], axis=1), p.shape[1] - 1)
        return tok
    return choose


def greedy_decode(model, enc, max_len: int):
    """Argmax decoding of every row of ``enc``: one token list per row."""
    return run_decoder(model, enc, max_len, argmax_policy)


@dataclass
class Hypothesis:
    tokens: tuple
    logprob: float
    states: object      # row of this hypothesis in its step's batched decoder state
    finished: bool


def beam_search(model, enc, beam_width: int, max_len: int) -> list[Hypothesis]:
    """Best-first beam decode of a one-scene encoding.

    Each step expands every live hypothesis in one forward-only step on
    plain arrays: the hypotheses are the rows of the stack's state array,
    reordered to their parents by one gather, and they attend the
    one-scene encoding, broadcast over them.  A hypothesis that emits the
    end token is frozen: it is never expanded again but keeps competing
    with live ones on its cumulative log-probability.  Ties prefer the
    sequence that is lexicographically smallest in token ids.  A token of
    probability 0 scores the log of the smallest subnormal of the
    distribution's dtype.

    The hypotheses are plain tuples that sort by rank, and ``Hypothesis``
    objects are made only for the beam returned.
    """
    if beam_width < 1:
        raise ValueError(f"beam width must be positive, got {beam_width}")
    if enc.batch != 1:
        raise ValueError(f"beam search decodes one scene, got a batch of {enc.batch}")

    # a hypothesis is (-logprob, tokens, logprob, row in its step's state,
    # finished); no two share tokens, so tuples sort by rank
    beams = [(0.0, (), 0.0, 0, False)]
    states = model.init_rows(1)
    with np.errstate(over="ignore"):
        for t in range(max_len):
            live = [(tokens, logprob, row) for _, tokens, logprob, row, done in beams
                    if not done]
            if not live:
                break
            prev = [tokens[-1] if tokens else BOS_ID for tokens, _, _ in live]
            parents = np.array([row for _, _, row in live])
            p, states = model.step(prev, enc, states[:, :, parents])
            _check_distribution(p, t)
            logp = np.log(np.maximum(p, np.finfo(p.dtype).smallest_subnormal))
            total = (np.array([logprob for _, logprob, _ in live])[:, None] + logp).ravel()
            # only expansions scoring at least the beam_width-th best can
            # survive the exact sort below
            if total.size > beam_width:
                cut = np.partition(total, total.size - beam_width)[total.size - beam_width]
                picked = (total >= cut).nonzero()[0]
            else:
                picked = np.arange(total.size)
            rows, toks = np.divmod(picked, logp.shape[1])
            candidates = [h for h in beams if h[-1]]
            for row, tok, logprob in zip(rows.tolist(), toks.tolist(), total[picked].tolist()):
                candidates.append((-logprob, live[row][0] + (tok,), logprob, row,
                                   tok == EOS_ID))
            candidates.sort()
            beams = candidates[:beam_width]
    return [Hypothesis(tokens, logprob, row, done) for _, tokens, logprob, row, done in beams]


def sample_decode(model, enc, rng: Rng, max_len: int):
    """Ancestral sampling of every row of ``enc``.

    Returns (tokens, the pass's hard-selection noise or None), the tokens
    as one list per row.  The model first draws the noise of all
    ``max_len`` steps (``selection_noise``); then per step each live row
    draws one uniform, in row order.  A teacher-forced replay of the
    tokens with that noise (``training.step_grads``) scores them with
    gradients.
    """
    noise = model.selection_noise(rng, max_len, enc.batch)
    return run_decoder(model, enc, max_len, sample_policy(rng), noise=noise), noise


def strip_sequence(tokens) -> list[int]:
    """Drop the end token and anything after it."""
    out = []
    for t in tokens:
        if t == EOS_ID:
            break
        out.append(t)
    return out
