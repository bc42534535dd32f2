"""The three visual encoder modules, run as one kernel.

Each re-embeds region features into a common d_v space from its own
evidence: the object and relation modules read the object-oriented
feature matrix, the attribute module the attribute-oriented one.  (The
fourth, function module has no visual input; each decoder unit holds it.)

The modules hold their weights as Tensors (``weights``, one tuple in
the order of ``params``) and run on plain arrays; a
module's ``backward`` reads what its forward saved and writes its
weights' gradients into their arena.  ``encoder_kernel``
runs every module and each one's mean over the real regions, and owns
the layout every decoder unit reads: the values stacked in module order
and the means side by side; with a gradient one autodiff node and its
output, without one two arrays.  It agrees
bit for bit, in every value and gradient, with the op-composed modules
kept with the tests (``tests/reference.py``).
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
    _accum,
    _t_matmul,
    check_finite,
    grad_out,
    kernel_output,
    needs_grad,
    softmax_backward,
    softmax_forward,
    stacked,
    xavier_uniform,
)


def _leaky(x: np.ndarray) -> np.ndarray:
    """x where x >= 0, else slope * x: max(x, slope * x), to the bit, at fewer calls."""
    return np.maximum(x, LEAKY_SLOPE * x)


def _leaky_grad(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    return g * np.where(x >= 0, 1.0, LEAKY_SLOPE).astype(g.dtype)


class ProjectionModule:
    """LeakyReLU(x W + b), row by row: the object and attribute modules on
    their region features."""

    def __init__(self, d_in: int, d_v: int, rng: Rng, dtype=FLOAT32):
        self.fc = Linear(d_in, d_v, rng, dtype=dtype)
        self.weights = tuple(self.params("").values())

    def __call__(self, x: np.ndarray, saved: list | None = None) -> np.ndarray:
        """Rows (..., d_in) -> (..., d_v); ``saved`` receives what backward reads."""
        W = self.fc.W.data
        x2 = x.reshape(-1, x.shape[-1])
        pre = np.matmul(x2, W) + self.fc.b.data
        if saved is not None:
            saved += [x2, W, pre]
        return _leaky(pre).reshape(x.shape[:-1] + (-1,))

    def backward(self, saved: list, g: np.ndarray, need_x: bool):
        """The input's gradient as one part, or None; W's and b's go to the arena."""
        x2, W, pre = saved
        g = _leaky_grad(g.reshape(pre.shape), pre)
        g.sum(axis=0, out=grad_out([self.fc.b])[0])
        _t_matmul(x2, g, out=grad_out([self.fc.W])[0])
        return [np.matmul(g, W.T)] if need_x else None

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
    their own output rows are computed but meaningless.  All heads run
    at once, from one product of the rows with their stacked weights.
    """

    def __init__(self, d_r: int, d_v: int, heads: int, rng: Rng, dtype=FLOAT32):
        if d_r % heads != 0:
            raise ConfigError(f"d_r={d_r} is not divisible by heads={heads}")
        self.d_r = d_r
        self.heads = heads
        self.d_k = d_r // heads
        self.w_q, self.w_k, self.w_v = (
            [xavier_uniform(rng, (d_r, self.d_k), d_r, self.d_k, dtype=dtype)
             for _ in range(heads)] for _ in range(3))
        self.w_out = xavier_uniform(rng, (d_r, d_r), d_r, d_r, dtype=dtype)
        self.fc1 = Linear(d_r, d_r, rng, dtype=dtype)
        self.fc2 = Linear(d_r, d_v, rng, dtype=dtype)
        # per head its Q, K, V weights, as the arena lays them out
        self.qkv = [w for ws in zip(self.w_q, self.w_k, self.w_v) for w in ws]
        self.weights = tuple(self.params("").values())

    def __call__(self, r: np.ndarray, mask: np.ndarray | None = None,
                 saved: list | None = None) -> np.ndarray:
        """Regions (B, N, d_r) and their (B, N) mask -> (B, N, d_v); ``saved``
        receives what backward reads."""
        b, n, d_r = r.shape
        w_qkv, w_out = stacked(self.qkv), self.w_out.data
        W1, b1, W2, b2 = (t.data for t in (self.fc1.W, self.fc1.b, self.fc2.W, self.fc2.b))
        r2 = r.reshape(-1, d_r)
        proj = np.matmul(r2, w_qkv).reshape(self.heads, 3, b, n, self.d_k).swapaxes(0, 1)
        scale = np.asarray(1.0 / math.sqrt(self.d_k), dtype=proj.dtype)
        k_t = np.ascontiguousarray(np.swapaxes(proj[1], -1, -2))
        scores = np.matmul(proj[0], k_t) * scale                # (heads, B, N, N)
        if mask is not None and not mask.all():
            scores = np.where(mask.reshape(b, 1, n), scores, -np.inf)
        attn = softmax_forward(scores)
        mixed_in = np.matmul(attn, proj[2]).transpose(1, 2, 0, 3).reshape(-1, d_r)
        mixed = np.matmul(mixed_in, w_out)
        pre1 = np.matmul(mixed, W1) + b1
        hidden = np.maximum(pre1, 0.0)
        pre2 = np.matmul(hidden, W2) + b2
        if saved is not None:
            saved += [r2, proj, k_t, attn, scale, mixed_in, mixed, pre1, hidden, pre2,
                      w_qkv, w_out, W1, W2]
        return _leaky(pre2).reshape(b, n, -1)

    def backward(self, saved: list, g: np.ndarray, need_r: bool):
        """The regions' gradient as 3*heads parts, or None; the weights' go
        to their arena.  Each step repeats the op-composed module's
        arithmetic, and the parts come in the order it adds them: per head
        from the last, the value, key and query projection."""
        (r2, proj, k_t, attn, scale, mixed_in, mixed, pre1, hidden, pre2,
         w_qkv, w_out, W1, W2) = saved
        h, (_, b, n, d_k) = self.heads, proj.shape[1:]
        g2 = _leaky_grad(g.reshape(pre2.shape), pre2)
        g1 = np.matmul(g2, W2.T) * (pre1 > 0)
        g_mixed = np.matmul(g1, W1.T)
        g_heads = np.ascontiguousarray(
            np.matmul(g_mixed, w_out.T).reshape(b, n, h, d_k).transpose(2, 0, 1, 3))
        g_scores = softmax_backward(attn, np.matmul(g_heads, np.swapaxes(proj[2], -1, -2)))
        g_scores = g_scores * scale
        g_proj = np.empty((h, 3) + proj.shape[2:], proj.dtype)     # the weights' layout
        g_proj[:, 0] = np.matmul(g_scores, np.swapaxes(k_t, -1, -2))
        g_proj[:, 1] = np.swapaxes(np.matmul(np.swapaxes(proj[0], -1, -2), g_scores), -1, -2)
        g_proj[:, 2] = np.matmul(np.swapaxes(attn, -1, -2), g_heads)
        g_proj = g_proj.reshape(h * 3, -1, d_k)
        g_r = None
        if need_r:
            parts = np.matmul(g_proj, np.swapaxes(w_qkv, -1, -2))
            g_r = [parts[3 * i + j] for i in reversed(range(h)) for j in (2, 1, 0)]
        _t_matmul(r2, g_proj, out=grad_out(self.qkv))
        _t_matmul(mixed_in, g_mixed, out=grad_out([self.w_out])[0])
        _t_matmul(mixed, g1, out=grad_out([self.fc1.W])[0])
        g1.sum(axis=0, out=grad_out([self.fc1.b])[0])
        _t_matmul(hidden, g2, out=grad_out([self.fc2.W])[0])
        g2.sum(axis=0, out=grad_out([self.fc2.b])[0])
        return g_r

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = {f"{prefix}.head{i}.W{kind}": ws[i] for i in range(self.heads)
               for kind, ws in zip("qkv", (self.w_q, self.w_k, self.w_v))}
        out[f"{prefix}.Wout"] = self.w_out
        out.update(self.fc1.params(f"{prefix}.fc1"))
        out.update(self.fc2.params(f"{prefix}.fc2"))
        return out


def encoder_kernel(encoders: dict, r_obj, r_attr, mask: np.ndarray):
    """The modules ``encoders`` (name -> module, in module order) on region
    features (B, N, d_r), arrays or Tensors, with the boolean (B, N) mask of
    real regions: (the values (K, B, N, d_v), their means over the real
    regions side by side (B, K*d_v)).  With a gradient the values are one
    node and the means its ``kernel_output``; the backward writes the
    weights' gradients into their arena and adds each module's terms in
    the order the op-composed encoder's sweep does: its values', then its
    means'; the relation module's parts of the object features' gradient,
    then the object module's.  Without a gradient both are arrays and
    nothing is recorded."""
    sources = {"object": r_obj, "attribute": r_attr, "relation": r_obj}
    parents = tuple(r for r in (r_obj, r_attr) if isinstance(r, Tensor))
    for module in encoders.values():
        parents += module.weights
    record = needs_grad(parents)
    keep, n_real = mask[..., None], mask.sum(axis=-1, keepdims=True)
    if not n_real.all():
        raise ValueError("encoding a scene with no real region")
    inv = 1.0 / n_real
    saved = {name: [] if record else None for name in encoders}
    values, means = [], []
    for name, module in encoders.items():
        x = sources[name].data if isinstance(sources[name], Tensor) else sources[name]
        x = x.reshape(mask.shape + x.shape[-1:])
        v = module(x, mask, saved[name]) if name == "relation" else module(x, saved[name])
        check_finite("encoder_kernel", v)
        values.append(v)
        means.append((v * keep.astype(v.dtype)).sum(axis=-2) * inv.astype(v.dtype))
    values, means = np.stack(values), np.concatenate(means, axis=-1)
    if not record:
        return values, means

    g_means = []        # the means' gradient, once complete

    def backward(g_values):
        g_mean = np.split(g_means[0], len(encoders), axis=-1) if g_means else None
        for k, name in reversed(list(enumerate(encoders))):
            g, dt = g_values[k], g_values.dtype
            if g_mean is not None:
                g = g + np.expand_dims(g_mean[k] * inv.astype(dt), -2) * keep.astype(dt)
            src = sources[name]
            need_x = isinstance(src, Tensor) and src.requires_grad
            for part in encoders[name].backward(saved[name], g, need_x) or ():
                _accum(src, part.reshape(src.shape))
        saved.clear()       # the backward is over: its records go

    node = Tensor._from_op(values, parents, backward)
    return node, kernel_output(node, means, g_means)
