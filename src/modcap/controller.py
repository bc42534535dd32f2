"""Module collocation: the strategies by which a decoder unit weighs its
four module vectors each step, and the word-class labels that supervise
those weights.  The heads' and the controller's weights live in
``decoder.DecoderUnit.weights``, their arithmetic in ``UnitRun.step``."""

from __future__ import annotations

import logging
from enum import Enum, IntEnum

import numpy as np

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
    """How the four module weights are produced each decoding step: SOFT
    keeps the controller's softmax, HARD snaps a Gumbel-softmax sample to
    a straight-through one-hot, UNIFORM pins every weight to 1."""

    SOFT = "soft"
    HARD = "hard"
    UNIFORM = "uniform"


def one_hot_max(y: np.ndarray) -> np.ndarray:
    """1 at the largest entry of each row along the last axis, 0 elsewhere."""
    hard = np.zeros_like(y)
    flat = hard.reshape(-1, hard.shape[-1])
    idx = np.argmax(y.reshape(-1, hard.shape[-1]), axis=-1)
    flat[np.arange(flat.shape[0]), idx] = 1.0
    return hard
