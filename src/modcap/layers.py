"""Parameterized building blocks shared by the encoder and decoder."""

from __future__ import annotations

from .errors import ShapeError
from .tensor import FLOAT32, Rng, Tensor, matmul, xavier_uniform, zeros


class Linear:
    """Affine map y = x W + b of rows (B, d_in), with W of shape (d_in, d_out)."""

    def __init__(self, d_in: int, d_out: int, rng: Rng, dtype=FLOAT32):
        self.d_in = d_in
        self.W = xavier_uniform(rng, (d_in, d_out), d_in, d_out, dtype=dtype)
        self.b = zeros(d_out, dtype=dtype, requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.d_in:
            raise ShapeError(f"linear layer expects width {self.d_in}, got shape {x.shape}")
        return matmul(x, self.W) + self.b

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.W": self.W, f"{prefix}.b": self.b}
