"""Per-parameter references for the optimizer layer.

``adam_update`` and ``ReferenceAdam`` update one parameter at a time with
fresh arrays, and ``reference_clip`` scales each gradient on its own:
the optimizer as it was before parameters shared a flat arena.  The
equivalence tests hold ``modcap.tensor.Adam`` and ``clip_global_norm`` to
their bits.
"""

import math

import numpy as np

from modcap.errors import TrainingError
from modcap.tensor import AdamState, Tensor


def adam_init(param: Tensor) -> AdamState:
    return AdamState(m=np.zeros_like(param.data), v=np.zeros_like(param.data), t=0)


def adam_update(param, grad, state: AdamState, lr, beta1=0.9, beta2=0.999,
                eps=1e-8, name="param"):
    """Bias-corrected Adam step.  Returns (new value, new state); nothing is
    written in place."""
    p = param.data if isinstance(param, Tensor) else np.asarray(param)
    g = grad.data if isinstance(grad, Tensor) else np.asarray(grad)
    if not np.all(np.isfinite(g)):
        raise TrainingError(f"non-finite gradient for parameter '{name}'")
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * g
    v = beta2 * state.v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    new = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new.astype(p.dtype), AdamState(m=m, v=v, t=t)


class ReferenceAdam:
    """One AdamState per named parameter; an update rebinds each Tensor's
    buffer.  Parameters whose grad is None are skipped."""

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.state: dict[str, AdamState] = {}

    def step(self, params: dict[str, Tensor], lr: float) -> None:
        for name in sorted(params):
            p = params[name]
            if p.grad is None:
                continue
            st = self.state.get(name) or adam_init(p)
            new, self.state[name] = adam_update(p, p.grad, st, lr, self.beta1,
                                                self.beta2, self.eps, name=name)
            p.data = np.ascontiguousarray(new)


def reference_clip(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale each gradient so the joint L2 norm is at most ``max_norm``;
    returns the norm before clipping."""
    total = 0.0
    for name in sorted(params):
        g = params[name].grad
        if g is not None:
            total += float(np.sum(g.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for name in sorted(params):
            g = params[name].grad
            if g is not None:
                params[name].grad = g * g.dtype.type(scale)
    return norm


def assert_same_update(params, opt, ref_params, ref_opt) -> None:
    """Parameter bytes, moments and step counts equal, parameter by parameter."""
    for name in params:
        assert params[name].data.tobytes() == ref_params[name].data.tobytes(), name
    assert set(opt.state) == set(ref_opt.state)
    for name, st in opt.state.items():
        ref = ref_opt.state[name]
        assert (st.t, st.m.tobytes(), st.v.tobytes()) == (ref.t, ref.m.tobytes(),
                                                           ref.v.tobytes()), name
