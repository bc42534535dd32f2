"""Decoder stack: stacked two-LSTM units with attention, weight collocation
and a residual word-vector lane, plus the decode step loop and decoders.

Each unit refines a running vector i of width d_v.  The first LSTM sees
[i, its own previous output context, mean-pooled module features], its
output queries one attention head per visual module, the controller
weighs the four module vectors, and the second LSTM folds the fused
feature back in.  The unit output is added onto i, so stacking M units
is a residual chain and i keeps the embedding width throughout.  A
single-module unit has one attention head and no controller.

``run_decoder`` is the one batch-native step loop: a token policy
(argmax, sample or forced) picks every row's next token and an optional
observer sees each step.  Greedy and sampling decoding, teacher forcing
and traces run on it; beam search, which reorders state rows every step,
keeps its own loop.  A single scene is a batch of one, and its results
come back unwrapped: a token list rather than a list holding one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .config import VISUAL_MODULES, ModelConfig
from .controller import (
    AdditiveAttention,
    ControllerState,
    ModuleController,
    Strategy,
    fuse,
)
from .encoders import ProjectionModule, RelationModule
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

    def init_state(self, batch: int) -> UnitState:
        z = lambda: zeros((batch, self.cfg.d_c), dtype=self.dtype)
        h1, c1, h2, c2 = z(), z(), z(), z()
        ctrl = None if self.ctrl is None else ControllerState(h=z(), c=z())
        return UnitState(h1=h1, c1=c1, h2=h2, c2=c2, ctrl=ctrl)

    def step(self, i_prev: Tensor, enc: Encoded, state: UnitState,
             rng: Rng | None = None):
        context = state.h2
        u = concat([i_prev, context] + [enc.means[name] for name in self.modules], axis=-1)
        h1, c1 = lstm_step(u, state.h1, state.c1, self.lstm1)
        alphas = {}
        attended = []
        for name in self.modules:
            alphas[name], v = self.att[name](enc.feats[name], h1, enc.mask)
            attended.append(v)
        weights = soft = ctrl_state = None
        if self.ctrl is None:
            (v_hat,) = attended
        else:
            v_func = self.func(context)
            out = self.ctrl.step(*attended, context, state.ctrl, Strategy(self.cfg.strategy),
                                 rng=rng)
            weights, soft, ctrl_state = out.weights, out.soft, out.state
            v_hat = fuse(weights, *attended, v_func)
        h2, c2 = lstm_step(concat([h1, v_hat], axis=-1), state.h2, state.c2, self.lstm2)
        i_new = i_prev + h2
        new_state = UnitState(h1=h1, c1=c1, h2=h2, c2=c2, ctrl=ctrl_state)
        return i_new, new_state, UnitTrace(weights=weights, soft=soft, alphas=alphas)

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


def run_decoder(model, enc, max_len, choose, observe=None, rng=None, bos=BOS_ID,
                eos=EOS_ID):
    """Step every row of ``enc`` until each has emitted ``eos`` or
    ``max_len`` tokens; returns one token list per row.

    The token policy ``choose(t, p, live)`` maps step t's (B, V)
    distribution array and the mask of rows still running to the token
    each row emits and is fed next; tokens of finished rows are not kept.
    ``observe(t, dist, traces, tokens, live)`` sees every step.  ``bos``,
    the first input, is one token id or one per row.
    """
    batch = 1 if enc is None else enc.batch
    states = model.init_state(batch)
    tok = np.full(batch, bos, dtype=np.int64)
    live = np.ones(batch, dtype=bool)
    rows = [[] for _ in range(batch)]
    for t in range(max_len):
        dist, states, traces = model.step(tok, enc, states, rng=rng)
        tok = np.asarray(choose(t, dist.data, live), dtype=np.int64)
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
