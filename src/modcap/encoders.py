"""The three visual encoder modules.

Each re-embeds region features into a common d_v space from its own
evidence: the object and relation modules read the object-oriented
feature matrix, the attribute module the attribute-oriented one.  (The
fourth, function module has no visual input; each decoder unit holds it.)

The object and attribute modules are one projection class; it accepts a
single matrix (N, d_in) or a batch (B, N, d_in) and returns matching
(N, d_v) / (B, N, d_v) outputs.  The relation module takes the batch
form only, as ``CaptionModel.encode`` passes it.
"""

from __future__ import annotations

import math

import numpy as np

from .config import LEAKY_SLOPE
from .errors import ConfigError
from .layers import Linear
from .tensor import (
    FLOAT32,
    Rng,
    Tensor,
    concat,
    leaky_relu,
    matmul,
    relu,
    reshape,
    softmax,
    transpose,
    xavier_uniform,
)


class ProjectionModule:
    """LeakyReLU(x W + b), row by row: the object and attribute modules on
    their region features."""

    def __init__(self, d_in: int, d_v: int, rng: Rng, dtype=FLOAT32):
        self.fc = Linear(d_in, d_v, rng, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return leaky_relu(self.fc(x), LEAKY_SLOPE)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return self.fc.params(f"{prefix}.fc")


class RelationModule:
    """Multi-head self-attention over regions, then a two-layer head.

    R is a batch of scenes (B, N, d_r), and the output is (B, N, d_v).
    Each head i projects the rows of R with three (d_r, d_k) matrices to
    form queries, keys and values, mixes values by row-softmaxed scaled
    dot products, and the concatenated heads pass through an output
    projection and FC(d_r) -> ReLU -> FC(d_v) -> LeakyReLU.  A boolean
    (B, N) region mask keeps padded regions out of every key softmax;
    their own output rows are computed but meaningless.
    """

    def __init__(self, d_r: int, d_v: int, heads: int, rng: Rng, dtype=FLOAT32):
        if d_r % heads != 0:
            raise ConfigError(f"d_r={d_r} is not divisible by heads={heads}")
        self.d_r = d_r
        self.heads = heads
        self.d_k = d_r // heads
        self.w_q = [xavier_uniform(rng, (d_r, self.d_k), d_r, self.d_k, dtype=dtype)
                    for _ in range(heads)]
        self.w_k = [xavier_uniform(rng, (d_r, self.d_k), d_r, self.d_k, dtype=dtype)
                    for _ in range(heads)]
        self.w_v = [xavier_uniform(rng, (d_r, self.d_k), d_r, self.d_k, dtype=dtype)
                    for _ in range(heads)]
        self.w_out = xavier_uniform(rng, (d_r, d_r), d_r, d_r, dtype=dtype)
        self.fc1 = Linear(d_r, d_r, rng, dtype=dtype)
        self.fc2 = Linear(d_r, d_v, rng, dtype=dtype)

    def _project(self, r: Tensor, w: Tensor) -> Tensor:
        b, n, _ = r.shape
        return reshape(matmul(reshape(r, (-1, self.d_r)), w), (b, n, self.d_k))

    def __call__(self, r: Tensor, mask=None) -> Tensor:
        b, n, _ = r.shape
        key_mask = None if mask is None else np.reshape(mask, (b, 1, n))
        scale = 1.0 / math.sqrt(self.d_k)
        head_outs = []
        for i in range(self.heads):
            q = self._project(r, self.w_q[i])
            k = self._project(r, self.w_k[i])
            v = self._project(r, self.w_v[i])
            scores = matmul(q, transpose(k, (0, 2, 1))) * scale
            attn = softmax(scores, axis=-1, mask=key_mask)
            head_outs.append(matmul(attn, v))
        mixed = matmul(reshape(concat(head_outs, axis=-1), (-1, self.d_r)), self.w_out)
        out = leaky_relu(self.fc2(relu(self.fc1(mixed))), LEAKY_SLOPE)
        return reshape(out, (b, n, -1))

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for i in range(self.heads):
            out[f"{prefix}.head{i}.Wq"] = self.w_q[i]
            out[f"{prefix}.head{i}.Wk"] = self.w_k[i]
            out[f"{prefix}.head{i}.Wv"] = self.w_v[i]
        out[f"{prefix}.Wout"] = self.w_out
        out.update(self.fc1.params(f"{prefix}.fc1"))
        out.update(self.fc2.params(f"{prefix}.fc2"))
        return out

