"""Decoder stack: stacked two-LSTM units with attention, weight collocation
and a residual word-vector lane, plus greedy / beam / sampling decoders.

Each unit refines a running vector i of width d_v.  The first LSTM sees
[i, its own previous output context, mean-pooled module features], its
output queries one attention head per visual module, the controller
weighs the four module vectors, and the second LSTM folds the fused
feature back in.  The unit output is added onto i, so stacking M units
is a residual chain and i keeps the embedding width throughout.

The decoders are batch-native.  Greedy and sampling decoding run every
scene of an encoding in one ``model.step`` call per position, keeping
rows that have emitted the end token in the batch but out of the
result; beam search expands all live hypotheses of a scene in one call.
A single scene is a batch of one, and its results come back unwrapped:
a token list rather than a list holding one token list.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .controller import (
    AdditiveAttention,
    ControllerState,
    ModuleController,
    Strategy,
    fuse,
)
from .encoders import AttributeModule, FunctionModule, ObjectModule, RelationModule
from .layers import Linear
from .tensor import (
    FLOAT32,
    Rng,
    Tensor,
    concat,
    gather_rows,
    lstm_step,
    make_lstm_params,
    masked_nll,
    mean_pool_rows,
    no_grad,
    softmax,
    xavier_uniform,
    zeros,
)

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3

VISUAL_MODULES = ("object", "attribute", "relation")


@dataclass
class Encoded:
    """Per-batch module features (B, N, d_v), their means over real regions
    (B, d_v) and the boolean (B, N) mask of real, unpadded regions."""

    feats: dict[str, Tensor]
    means: dict[str, Tensor]
    mask: np.ndarray

    @property
    def batch(self) -> int:
        return self.mask.shape[0]


@dataclass
class UnitState:
    h1: Tensor
    c1: Tensor
    h2: Tensor
    c2: Tensor
    ctrl: ControllerState | None


@dataclass
class UnitTrace:
    weights: Tensor | None           # (B, 4) fusion weights, None for single-module units
    soft: Tensor | None              # noise-free controller softmax, for supervision
    alphas: dict[str, Tensor]        # per-module attention over regions (B, N)


class DecoderUnit:
    """Full four-module unit with a controller."""

    def __init__(self, cfg: ModelConfig, rng: Rng, dtype=FLOAT32):
        d_v, d_c, d_a = cfg.d_v, cfg.d_c, cfg.d_a
        self.cfg = cfg
        self.dtype = dtype
        self.lstm1 = make_lstm_params(rng, 4 * d_v + d_c, d_c, dtype=dtype)
        self.att = {name: AdditiveAttention(d_v, d_c, d_a, rng, dtype=dtype)
                    for name in VISUAL_MODULES}
        self.func = FunctionModule(d_c, d_v, rng, slope=cfg.leaky_slope, dtype=dtype)
        self.ctrl = ModuleController(d_v, d_c, rng, tau=cfg.gumbel_tau, dtype=dtype)
        self.lstm2 = make_lstm_params(rng, d_c + 4 * d_v, d_c, dtype=dtype)

    def init_state(self, batch: int) -> UnitState:
        z = lambda: zeros((batch, self.cfg.d_c), dtype=self.dtype)
        return UnitState(h1=z(), c1=z(), h2=z(), c2=z(),
                         ctrl=ControllerState(h=z(), c=z()))

    def step(self, i_prev: Tensor, enc: Encoded, state: UnitState,
             rng: Rng | None = None):
        context = state.h2
        u = concat([i_prev, context,
                    enc.means["object"], enc.means["attribute"], enc.means["relation"]],
                   axis=-1)
        h1, c1 = lstm_step(u, state.h1, state.c1, self.lstm1)
        alphas = {}
        attended = {}
        for name in VISUAL_MODULES:
            alphas[name], attended[name] = self.att[name](enc.feats[name], h1, enc.mask)
        v_func = self.func(context)
        ctrl_out = self.ctrl.step(attended["object"], attended["attribute"],
                                  attended["relation"], context, state.ctrl,
                                  Strategy(self.cfg.strategy), rng=rng)
        v_hat = fuse(ctrl_out.weights, attended["object"], attended["attribute"],
                     attended["relation"], v_func)
        h2, c2 = lstm_step(concat([h1, v_hat], axis=-1), state.h2, state.c2, self.lstm2)
        i_new = i_prev + h2
        new_state = UnitState(h1=h1, c1=c1, h2=h2, c2=c2, ctrl=ctrl_out.state)
        trace = UnitTrace(weights=ctrl_out.weights, soft=ctrl_out.soft, alphas=alphas)
        return i_new, new_state, trace

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = {f"{prefix}.lstm1.W": self.lstm1.W, f"{prefix}.lstm1.b": self.lstm1.b}
        for name in VISUAL_MODULES:
            out.update(self.att[name].params(f"{prefix}.att.{name}"))
        out.update(self.func.params(f"{prefix}.func"))
        out.update(self.ctrl.params(f"{prefix}.ctrl"))
        out[f"{prefix}.lstm2.W"] = self.lstm2.W
        out[f"{prefix}.lstm2.b"] = self.lstm2.b
        return out


class SingleModuleUnit:
    """Ablation unit: one visual module, one attention head, no controller."""

    def __init__(self, cfg: ModelConfig, rng: Rng, dtype=FLOAT32):
        d_v, d_c, d_a = cfg.d_v, cfg.d_c, cfg.d_a
        self.cfg = cfg
        self.dtype = dtype
        self.module = cfg.single_module
        self.lstm1 = make_lstm_params(rng, 2 * d_v + d_c, d_c, dtype=dtype)
        self.att = AdditiveAttention(d_v, d_c, d_a, rng, dtype=dtype)
        self.lstm2 = make_lstm_params(rng, d_c + d_v, d_c, dtype=dtype)

    def init_state(self, batch: int) -> UnitState:
        z = lambda: zeros((batch, self.cfg.d_c), dtype=self.dtype)
        return UnitState(h1=z(), c1=z(), h2=z(), c2=z(), ctrl=None)

    def step(self, i_prev: Tensor, enc: Encoded, state: UnitState,
             rng: Rng | None = None):
        u = concat([i_prev, state.h2, enc.means[self.module]], axis=-1)
        h1, c1 = lstm_step(u, state.h1, state.c1, self.lstm1)
        alpha, attended = self.att(enc.feats[self.module], h1, enc.mask)
        h2, c2 = lstm_step(concat([h1, attended], axis=-1), state.h2, state.c2, self.lstm2)
        i_new = i_prev + h2
        new_state = UnitState(h1=h1, c1=c1, h2=h2, c2=c2, ctrl=None)
        return i_new, new_state, UnitTrace(weights=None, soft=None,
                                           alphas={self.module: alpha})

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = {f"{prefix}.lstm1.W": self.lstm1.W, f"{prefix}.lstm1.b": self.lstm1.b}
        out.update(self.att.params(f"{prefix}.att.{self.module}"))
        out[f"{prefix}.lstm2.W"] = self.lstm2.W
        out[f"{prefix}.lstm2.b"] = self.lstm2.b
        return out


class CaptionModel:
    """Encoder modules + embedding + M decoder units + word head."""

    def __init__(self, cfg: ModelConfig, rng: Rng, dtype=FLOAT32):
        cfg.validate()
        self.cfg = cfg
        self.dtype = dtype
        slope = cfg.leaky_slope
        self.encoders = {}
        if cfg.single_module is None or cfg.single_module == "object":
            self.encoders["object"] = ObjectModule(cfg.d_r, cfg.d_v, rng, slope, dtype)
        if cfg.single_module is None or cfg.single_module == "attribute":
            self.encoders["attribute"] = AttributeModule(cfg.d_r, cfg.d_v, rng, slope, dtype)
        if cfg.single_module is None or cfg.single_module == "relation":
            self.encoders["relation"] = RelationModule(cfg.d_r, cfg.d_v, cfg.heads, rng,
                                                       slope, dtype)
        self.embed = xavier_uniform(rng, (cfg.vocab_size, cfg.d_v),
                                    cfg.vocab_size, cfg.d_v, dtype=dtype)
        unit_cls = DecoderUnit if cfg.single_module is None else SingleModuleUnit
        self.units = [unit_cls(cfg, rng, dtype) for _ in range(cfg.m_units)]
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
        feats = {}
        if "object" in self.encoders:
            feats["object"] = self.encoders["object"](r_obj)
        if "attribute" in self.encoders:
            feats["attribute"] = self.encoders["attribute"](r_attr)
        if "relation" in self.encoders:
            feats["relation"] = self.encoders["relation"](r_obj, mask=mask)
        means = {name: mean_pool_rows(v, mask) for name, v in feats.items()}
        return Encoded(feats=feats, means=means, mask=mask)

    def init_state(self, batch: int) -> list[UnitState]:
        return [unit.init_state(batch) for unit in self.units]

    def step(self, prev_tokens, enc: Encoded, states: list[UnitState],
             rng: Rng | None = None):
        """One decode step for the whole stack.

        prev_tokens: int array (B,). Returns (word distribution (B, V),
        new states, per-unit traces).
        """
        idx = np.asarray(prev_tokens, dtype=np.int64)
        vec = gather_rows(self.embed, idx)
        new_states = []
        traces = []
        for unit, st in zip(self.units, states):
            vec, st2, tr = unit.step(vec, enc, st, rng=rng)
            new_states.append(st2)
            traces.append(tr)
        dist = softmax(self.head(vec), axis=-1)
        return dist, new_states, traces

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


def take_rows(obj, idx):
    """Rows ``idx`` of every tensor and array in a decoder state or an
    encoding, in the same structure; None passes through."""
    if isinstance(obj, Tensor):
        return gather_rows(obj, idx)
    if isinstance(obj, np.ndarray):
        return obj[idx]
    if isinstance(obj, list):
        return [take_rows(o, idx) for o in obj]
    if isinstance(obj, dict):
        return {k: take_rows(v, idx) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj):
        return dataclasses.replace(obj, **{f.name: take_rows(getattr(obj, f.name), idx)
                                           for f in dataclasses.fields(obj)})
    return obj


def one_scene(enc) -> bool:
    """Whether ``enc`` holds a single scene, whose decoder results come back
    unwrapped; model stubs that need no encoding pass None for one scene."""
    return enc is None or enc.batch == 1


def _decode(model, enc, max_len, choose, rng=None, bos=BOS_ID, eos=EOS_ID):
    """Step every row of ``enc`` until each has emitted ``eos`` or
    ``max_len`` tokens.

    ``choose(dist, live)`` maps the (B, V) distribution array and the
    mask of rows still running to the next token of every row; tokens of
    finished rows are fed back but not kept.  Returns (token list per row,
    [(distribution tensor, tokens, live mask)] per step).
    """
    batch = 1 if enc is None else enc.batch
    states = model.init_state(batch)
    tok = np.full(batch, bos, dtype=np.int64)
    live = np.ones(batch, dtype=bool)
    rows = [[] for _ in range(batch)]
    steps = []
    for _ in range(max_len):
        dist, states, _ = model.step(tok, enc, states, rng=rng)
        tok = np.asarray(choose(dist.data, live), dtype=np.int64)
        steps.append((dist, tok, live))
        for b in np.flatnonzero(live):
            rows[b].append(int(tok[b]))
        live = live & (tok != eos)
        if not live.any():
            break
    return rows, steps


def greedy_decode(model, enc, max_len: int, bos: int = BOS_ID, eos: int = EOS_ID):
    """Argmax decoding of every row of ``enc``; ties resolve to the lowest
    token id.  Returns one token list per row, or the list itself for a
    single scene."""
    with no_grad():
        rows, _ = _decode(model, enc, max_len, lambda p, live: np.argmax(p, axis=1),
                          bos=bos, eos=eos)
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

    Each step expands every live hypothesis in one ``model.step`` call, on
    the scene's encoding repeated once per hypothesis and the parents'
    state rows.  A hypothesis that emits the end token is frozen: it is
    never expanded again but keeps competing with live ones on its
    (optionally length normalized) cumulative log-probability.  Ties
    prefer the sequence that is lexicographically smallest in token ids.
    """
    if beam_width < 1:
        raise ValueError(f"beam width must be positive, got {beam_width}")
    if enc is not None and enc.batch != 1:
        raise ValueError(f"beam search decodes one scene, got a batch of {enc.batch}")

    def rank(h):
        return (-h.score(length_normalize), h.tokens)

    with no_grad():
        beams = [Hypothesis(tokens=(), logprob=0.0, states=0, finished=False)]
        states = model.init_state(1)
        for _ in range(max_len):
            live = [h for h in beams if not h.finished]
            if not live:
                break
            prev = [h.tokens[-1] if h.tokens else bos for h in live]
            dist, states, _ = model.step(prev, take_rows(enc, np.zeros(len(live), dtype=np.int64)),
                                         take_rows(states, [h.states for h in live]))
            logp = np.log(np.maximum(dist.data, 1e-300))
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
            for row, tok in zip(*np.unravel_index(picked, score.shape)):
                candidates.append(Hypothesis(tokens=live[row].tokens + (int(tok),),
                                             logprob=float(total[row, tok]),
                                             states=int(row), finished=tok == eos))
            candidates.sort(key=rank)
            beams = candidates[:beam_width]
    beams.sort(key=rank)
    return beams


def sample_decode(model, enc, rng: Rng, max_len: int, bos: int = BOS_ID,
                  eos: int = EOS_ID):
    """Ancestral sampling of every row of ``enc``.  Keeps gradients.

    Returns (tokens, per-step (B,) log-probabilities of the sampled
    tokens), the tokens as one list per row, or the list itself for a
    single scene; a row that has finished adds exactly 0 from then on.
    Per step the model draws its hard-selection noise for all rows, then
    each live row draws one uniform, in row order.
    """
    def choose(p, live):
        tok = np.full(p.shape[0], eos, dtype=np.int64)
        for b in np.flatnonzero(live):
            tok[b] = rng.multinomial(p[b])
        return tok

    rows, steps = _decode(model, enc, max_len, choose, rng=rng, bos=bos, eos=eos)
    logps = [-masked_nll(dist, tok, live, per_row=True) for dist, tok, live in steps]
    return (rows[0] if one_scene(enc) else rows), logps


def strip_sequence(tokens, eos: int = EOS_ID) -> list[int]:
    """Drop the end token and anything after it."""
    out = []
    for t in tokens:
        if t == eos:
            break
        out.append(t)
    return out
