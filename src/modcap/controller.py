"""Module collocation: the parameters of the attention heads over module
outputs and of the tiny recurrent controller that weighs the four
modules each step, and the word-class labels that supervise those
weights.  Their arithmetic runs inside ``decoder.UnitRun.step``."""

from __future__ import annotations

import logging
from enum import Enum, IntEnum

import numpy as np

from .layers import Linear
from .tensor import FLOAT32, Rng, Tensor, make_lstm_params, xavier_uniform

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
    """Weights of one attention head: score_n = w_a . tanh(W_v v_n + W_h h),
    alpha = softmax(scores), and the head attends to the alpha-weighted
    sum of rows.  ``decoder.UnitRun`` runs the heads of a unit stacked."""

    def __init__(self, d_v: int, d_c: int, d_a: int, rng: Rng, dtype=FLOAT32):
        self.W_v = xavier_uniform(rng, (d_a, d_v), d_v, d_a, dtype=dtype)
        self.W_h = xavier_uniform(rng, (d_a, d_c), d_c, d_a, dtype=dtype)
        self.w_a = xavier_uniform(rng, (d_a,), d_a, 1, dtype=dtype)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.Wv": self.W_v, f"{prefix}.Wh": self.W_h, f"{prefix}.wa": self.w_a}


def one_hot_max(y: np.ndarray) -> np.ndarray:
    """1 at the largest entry of each row along the last axis, 0 elsewhere."""
    hard = np.zeros_like(y)
    flat = hard.reshape(-1, hard.shape[-1])
    idx = np.argmax(y.reshape(-1, hard.shape[-1]), axis=-1)
    flat[np.arange(flat.shape[0]), idx] = 1.0
    return hard


class ModuleController:
    """Weights of a one-layer LSTM over [v_O, v_A, v_R, c] followed by a
    4-way softmax.

    SOFT keeps the softmax as-is, HARD draws a Gumbel-softmax sample and
    snaps it to a one-hot straight-through estimate, UNIFORM skips the
    network entirely and pins every weight to 1; ``decoder.UnitRun.step``
    runs all three.
    """

    def __init__(self, d_v: int, d_c: int, rng: Rng, tau: float = 1.0, dtype=FLOAT32):
        self.lstm = make_lstm_params(rng, 3 * d_v + d_c, d_c, dtype=dtype)
        self.proj = Linear(d_c, len(ModuleLabel), rng, dtype=dtype)
        self.tau = tau

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = {f"{prefix}.lstm.W": self.lstm.W, f"{prefix}.lstm.b": self.lstm.b}
        out.update(self.proj.params(f"{prefix}.proj"))
        return out

