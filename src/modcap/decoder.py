"""Decoder stack: stacked two-LSTM units with attention, weight collocation
and a residual word-vector lane, plus greedy / beam / sampling decoders.

Each unit refines a running vector i of width d_v.  The first LSTM sees
[i, its own previous output context, mean-pooled module features], its
output queries one attention head per visual module, the controller
weighs the four module vectors, and the second LSTM folds the fused
feature back in.  The unit output is added onto i, so stacking M units
is a residual chain and i keeps the embedding width throughout.
"""

from __future__ import annotations

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
    """Per-batch module features (B, N, d_v) and their row means (B, d_v)."""

    feats: dict[str, Tensor]
    means: dict[str, Tensor]
    batch: int


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
            alphas[name], attended[name] = self.att[name](enc.feats[name], h1)
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
        alpha, attended = self.att(enc.feats[self.module], h1)
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

    def encode(self, r_obj, r_attr) -> Encoded:
        """Region features (K, d_r) or (B, K, d_r) -> per-module value sets."""
        r_obj = r_obj if isinstance(r_obj, Tensor) else Tensor(r_obj, dtype=self.dtype)
        r_attr = r_attr if isinstance(r_attr, Tensor) else Tensor(r_attr, dtype=self.dtype)
        if r_obj.ndim == 2:
            r_obj = r_obj.reshape((1,) + r_obj.shape)
            r_attr = r_attr.reshape((1,) + r_attr.shape)
        feats = {}
        if "object" in self.encoders:
            feats["object"] = self.encoders["object"](r_obj)
        if "attribute" in self.encoders:
            feats["attribute"] = self.encoders["attribute"](r_attr)
        if "relation" in self.encoders:
            feats["relation"] = self.encoders["relation"](r_obj)
        means = {name: mean_pool_rows(v) for name, v in feats.items()}
        return Encoded(feats=feats, means=means, batch=r_obj.shape[0])

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


def greedy_decode(model, enc, max_len: int, bos: int = BOS_ID, eos: int = EOS_ID) -> list[int]:
    """Argmax decoding; ties resolve to the lowest token id."""
    with no_grad():
        states = model.init_state(1)
        tok = bos
        out = []
        for _ in range(max_len):
            dist, states, _ = model.step([tok], enc, states)
            tok = int(np.argmax(dist.data[0]))
            out.append(tok)
            if tok == eos:
                break
    return out


@dataclass
class Hypothesis:
    tokens: tuple
    logprob: float
    states: object
    finished: bool

    def score(self, length_normalize: bool) -> float:
        if length_normalize and self.tokens:
            return self.logprob / len(self.tokens)
        return self.logprob


def beam_search(model, enc, beam_width: int, max_len: int, bos: int = BOS_ID,
                eos: int = EOS_ID, length_normalize: bool = False) -> list[Hypothesis]:
    """Best-first beam decode.

    A hypothesis that emits the end token is frozen: it is never expanded
    again but keeps competing with live ones on its (optionally length
    normalized) cumulative log-probability.  Ties prefer the sequence that
    is lexicographically smallest in token ids.
    """
    if beam_width < 1:
        raise ValueError(f"beam width must be positive, got {beam_width}")
    with no_grad():
        beams = [Hypothesis(tokens=(), logprob=0.0, states=model.init_state(1),
                            finished=False)]
        for _ in range(max_len):
            if all(h.finished for h in beams):
                break
            candidates = [h for h in beams if h.finished]
            for h in beams:
                if h.finished:
                    continue
                prev = h.tokens[-1] if h.tokens else bos
                dist, states, _ = model.step([prev], enc, h.states)
                logp = np.log(np.maximum(dist.data[0], 1e-300))
                for tok in range(logp.shape[0]):
                    candidates.append(Hypothesis(
                        tokens=h.tokens + (tok,),
                        logprob=h.logprob + float(logp[tok]),
                        states=states,
                        finished=tok == eos,
                    ))
            candidates.sort(key=lambda h: (-h.score(length_normalize), h.tokens))
            beams = candidates[:beam_width]
    beams.sort(key=lambda h: (-h.score(length_normalize), h.tokens))
    return beams


def sample_decode(model, enc, rng: Rng, max_len: int, bos: int = BOS_ID,
                  eos: int = EOS_ID):
    """Ancestral sampling.  Keeps gradients: returns (tokens, per-step
    log-probability tensors of the sampled tokens)."""
    states = model.init_state(1)
    tok = bos
    tokens = []
    logps = []
    for _ in range(max_len):
        dist, states, _ = model.step([tok], enc, states, rng=rng)
        tok = rng.multinomial(dist.data[0])
        logps.append(-masked_nll(dist, [tok]))
        tokens.append(tok)
        if tok == eos:
            break
    return tokens, logps


def strip_sequence(tokens, eos: int = EOS_ID) -> list[int]:
    """Drop the end token and anything after it."""
    out = []
    for t in tokens:
        if t == eos:
            break
        out.append(t)
    return out
