"""Parameterized building blocks shared by the encoder and decoder."""

from __future__ import annotations

from .tensor import FLOAT32, Rng, Tensor, xavier_uniform, zeros


class Linear:
    """An affine layer's weights: W (d_in, d_out) and the bias b (d_out,)."""

    def __init__(self, d_in: int, d_out: int, rng: Rng, dtype=FLOAT32):
        self.W = xavier_uniform(rng, (d_in, d_out), d_in, d_out, dtype=dtype)
        self.b = zeros(d_out, dtype=dtype, requires_grad=True)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.W": self.W, f"{prefix}.b": self.b}
