"""Module collocation: attention over module outputs, the tiny recurrent
controller that weighs the four modules each step, and the word-class
labels that supervise those weights."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .errors import ShapeError
from .layers import Linear
from .tensor import (
    FLOAT32,
    Rng,
    Tensor,
    additive_attention,
    concat,
    lstm_step,
    make_lstm_params,
    softmax,
    weighted_concat,
    xavier_uniform,
)

logger = logging.getLogger(__name__)


class ModuleLabel(IntEnum):
    """Index order matches the weight vector layout everywhere."""

    OBJECT = 0
    ATTRIBUTE = 1
    RELATION = 2
    FUNCTION = 3


# word-class tag -> module responsible for producing that kind of word
_TAG_TO_LABEL = {
    "NN": ModuleLabel.OBJECT,
    "ADJ": ModuleLabel.ATTRIBUTE,
    "VB": ModuleLabel.RELATION,
    "PREP": ModuleLabel.RELATION,
    "CD": ModuleLabel.RELATION,
}

# tags we expect to see but that carry no visual content
_FUNCTION_TAGS = {"DT", "CC", "RB", "EOS", "OTHER"}


def pos_to_module_label(tag: str) -> ModuleLabel:
    label = _TAG_TO_LABEL.get(tag)
    if label is not None:
        return label
    if tag not in _FUNCTION_TAGS:
        logger.warning("unknown word-class tag %r, treating as FUNCTION", tag)
    return ModuleLabel.FUNCTION


class Strategy(str, Enum):
    """How the four module weights are produced each decoding step."""

    SOFT = "soft"
    HARD = "hard"
    UNIFORM = "uniform"


class AdditiveAttention:
    """score_n = w_a . tanh(W_v v_n + W_h h); alpha = softmax(scores).

    Returns the weight vector and the alpha-weighted sum of rows.  Works on
    (N, d_v) with an (d_c,) query or batched (B, N, d_v) with (B, d_c);
    an optional boolean region mask gives padded rows zero weight.
    """

    def __init__(self, d_v: int, d_c: int, d_a: int, rng: Rng, dtype=FLOAT32):
        self.W_v = xavier_uniform(rng, (d_a, d_v), d_v, d_a, dtype=dtype)
        self.W_h = xavier_uniform(rng, (d_a, d_c), d_c, d_a, dtype=dtype)
        self.w_a = xavier_uniform(rng, (d_a,), d_a, 1, dtype=dtype)

    def __call__(self, values: Tensor, query: Tensor, mask=None):
        return additive_attention(values, query, self.W_v, self.W_h, self.w_a, mask)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.Wv": self.W_v, f"{prefix}.Wh": self.W_h, f"{prefix}.wa": self.w_a}


@dataclass
class ControllerState:
    h: Tensor
    c: Tensor


@dataclass
class ControllerOutput:
    weights: Tensor        # what fuse() consumes (one-hot under HARD)
    soft: Tensor | None    # noise-free softmax of the logits, None under UNIFORM
    state: ControllerState


def one_hot_max(y: np.ndarray) -> np.ndarray:
    """1 at the largest entry of each row along the last axis, 0 elsewhere."""
    hard = np.zeros_like(y)
    flat = hard.reshape(-1, hard.shape[-1])
    idx = np.argmax(y.reshape(-1, hard.shape[-1]), axis=-1)
    flat[np.arange(flat.shape[0]), idx] = 1.0
    return hard


def straight_through(y_soft: Tensor) -> Tensor:
    """One-hot forward value with the soft distribution's gradient."""
    return Tensor(one_hot_max(y_soft.data)) - y_soft.detach() + y_soft


def gumbel_noise(rng: Rng | None, shape, dtype) -> np.ndarray:
    """Gumbel noise for hard selection, drawn in row-major order; zeros
    without an rng."""
    if rng is None:
        return np.zeros(shape, dtype=dtype)
    size = math.prod(shape)
    noise = np.fromiter((rng.gumbel() for _ in range(size)), dtype=np.float64, count=size)
    return noise.reshape(shape).astype(dtype)


class ModuleController:
    """One-layer LSTM over [v_O, v_A, v_R, c] followed by a 4-way softmax.

    SOFT keeps the softmax as-is, HARD draws a Gumbel-softmax sample and
    snaps it to a one-hot straight-through estimate, UNIFORM skips the
    network entirely and pins every weight to 1.
    """

    def __init__(self, d_v: int, d_c: int, rng: Rng, tau: float = 1.0, dtype=FLOAT32):
        self.lstm = make_lstm_params(rng, 3 * d_v + d_c, d_c, dtype=dtype)
        self.proj = Linear(d_c, len(ModuleLabel), rng, dtype=dtype)
        self.tau = tau

    def step(self, v_obj: Tensor, v_attr: Tensor, v_rel: Tensor, context: Tensor,
             state: ControllerState, strategy: Strategy,
             rng: Rng | None = None) -> ControllerOutput:
        if not isinstance(strategy, Strategy):
            raise ValueError(f"unknown collocation strategy: {strategy!r}")
        if strategy is Strategy.UNIFORM:
            batch = v_obj.shape[0] if v_obj.ndim == 2 else None
            shape = (batch, len(ModuleLabel)) if batch else (len(ModuleLabel),)
            ones = Tensor(np.ones(shape, dtype=v_obj.data.dtype))
            return ControllerOutput(weights=ones, soft=None, state=state)
        x = concat([v_obj, v_attr, v_rel, context], axis=-1)
        h, c = lstm_step(x, state.h, state.c, self.lstm)
        logits = self.proj(h)
        soft = softmax(logits, axis=-1)
        if strategy is Strategy.SOFT:
            weights = soft
        else:  # HARD
            noise = Tensor(gumbel_noise(rng, logits.shape, logits.data.dtype))
            y = softmax((logits + noise) * (1.0 / self.tau), axis=-1)
            weights = straight_through(y)
        return ControllerOutput(weights=weights, soft=soft, state=ControllerState(h=h, c=c))

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = {f"{prefix}.lstm.W": self.lstm.W, f"{prefix}.lstm.b": self.lstm.b}
        out.update(self.proj.params(f"{prefix}.proj"))
        return out


def fuse(weights: Tensor, v_obj: Tensor, v_attr: Tensor, v_rel: Tensor,
         v_func: Tensor) -> Tensor:
    """Concat of the four module vectors, each scaled by its weight."""
    parts = (v_obj, v_attr, v_rel, v_func)
    if weights.shape[-1] != len(parts):
        raise ShapeError(f"expected {len(parts)} module weights, got shape {weights.shape}")
    d_v = parts[0].shape[-1]
    for p in parts:
        if p.shape[-1] != d_v:
            raise ShapeError(f"module outputs disagree in width: {p.shape[-1]} vs {d_v}")
    return weighted_concat(weights, parts)

