"""Parameterized building blocks shared by the encoder and decoder."""

from __future__ import annotations

from .errors import ShapeError
from .tensor import FLOAT32, Rng, Tensor, matmul, reshape, xavier_uniform, zeros


class Linear:
    """Affine map y = x W + b with W of shape (d_in, d_out).

    Inputs with more than two dimensions are flattened over the leading
    axes, multiplied, and restored, so (B, N, d_in) works transparently.
    """

    def __init__(self, d_in: int, d_out: int, rng: Rng, dtype=FLOAT32):
        self.d_in = d_in
        self.d_out = d_out
        self.W = xavier_uniform(rng, (d_in, d_out), d_in, d_out, dtype=dtype)
        self.b = zeros(d_out, dtype=dtype, requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.d_in:
            raise ShapeError(f"linear layer expects width {self.d_in}, got shape {x.shape}")
        lead = x.shape[:-1]
        flat = reshape(x, (-1, self.d_in)) if x.ndim > 2 else x
        y = matmul(flat, self.W) + self.b
        if x.ndim > 2:
            y = reshape(y, lead + (self.d_out,))
        return y

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.W": self.W, f"{prefix}.b": self.b}
