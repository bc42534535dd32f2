"""Bit-for-bit references the equivalence tests hold production code to.

The generic ops the model no longer runs: ``matmul``, ``softmax`` and
``linear`` (x W + b of a ``Linear`` layer's weights), which the
op-composed encoder, unit and word head below are built from.

The optimizer layer: ``adam_update`` and ``ReferenceAdam`` update one
parameter at a time with fresh arrays, and ``reference_clip`` scales each
gradient on its own: the optimizer as it was before parameters shared a
flat arena.  The equivalence tests hold ``modcap.tensor.Adam`` and
``clip_global_norm`` to their bits.

The encoder: ``reference_encode`` is ``CaptionModel.encode`` composed of
one autodiff node per op: ``reference_projection`` (the object and
attribute modules), ``reference_relation`` (one head at a time) and a
masked ``mean_pool_rows`` per module, on the ``transpose``, ``relu``,
``leaky_relu`` and ``masked_softmax`` ops that only it uses; ``stack``
and ``concat`` lay the modules out as the kernel does.
``encoders.encoder_kernel`` agrees with it bit for bit in every value,
mean and gradient.

The decoder unit: ``reference_step`` composes one step of a
``DecoderUnit`` from one autodiff node per op (LSTM1, one attention head
per module, the controller, fusion, LSTM2) on a Tensor ``UnitState``,
reading the unit's weight table and each module's part of the encoding
(``module_parts``, one ``split`` of each field per encoding).
``AdditiveAttention`` and ``ModuleController`` hold the weights of one
head or one controller: ``draw`` draws a lone one as a unit draws its
table entries, for the tests of those parts on their own, and ``of``
reads a unit's.
The fused ops it is built from, ``lstm_cell``, ``additive_attention``
and ``weighted_concat``, run the same array arithmetic as the unit
kernel (``LstmRun``, ``AttentionRun``, on a stack of one unit), behind
one joint node per op.
``decoder.unit_kernel`` agrees with ``reference_step`` bit for bit: in
every value of a forward-only step, and in every output and gradient of
a one-step teacher-forced pass from the zero state.  ``slice_axis``,
``pick``, ``clamp_min``, ``tanh``, ``sigmoid`` and ``log`` are the
primitives the fused ops are checked against: the LSTM, attention and
masked NLL composed from them one node per op.  The LSTM so composed,
``reference_lstm``, shares no arithmetic with ``LstmRun``: put in place
of ``lstm_cell`` (which ``reference_step`` and ``controller_step`` look
up when they run), it makes the chained steps an oracle for the unit
kernel's LSTMs, to float64 rounding.  ``reference_attention``, composed
of ``matmul``, ``tanh`` and ``softmax``, is the same for ``AttentionRun``
in place of ``additive_attention`` (which ``attend`` looks up).

The stack: ``reference_model_step`` is one decode step of a
``CaptionModel`` on the Tensor step, its word head ``linear`` then
``softmax``, and ``reference_forced`` chains it along given tokens,
as teacher forcing does in one pass.
``TensorStepModel`` hands the Tensor step to ``decoder.run_decoder``.

The decoders: ``reference_beam_search`` is beam search on the Tensor
step, its state reordered with ``take_rows`` and the scene's encoding
repeated once per hypothesis; ``reference_greedy`` is argmax decoding on
the Tensor step, with gradients enabled.  The forward-only decoders
(``decoder.beam_search``, ``decoder.greedy_decode``) agree with them bit
for bit.  ``object_beam_search`` is the beam bookkeeping as it was
before the beam kept plain tuples: one ``Hypothesis`` per candidate,
sorted by a key function, on any model's ``step``.

The random draws: ``gumbel``, ``multinomial`` and ``shuffle`` take one
value at a time from the scalar stream, ``Rng.u64``, ``Rng.uniform`` and
``Rng.randint``.  The stream tests hold ``Rng.gumbel_array``,
``decoder.sample_policy`` and ``Rng.shuffle`` to them.

Self-critical scoring: ``reference_idf`` and ``reference_cider_d`` are
CIDEr-D as it was before the idf table precomputed its idf and the dot
product skipped the n-grams a reference lacks: the idf looked up per
n-gram, and every candidate n-gram added to the dot product.
``two_pass_self_critical_loss`` is the self-critical surrogate as it was
before the sample and its greedy baseline shared one decode pass:
``decoder.sample_decode`` over the B scenes, then
``decoder.greedy_decode``, each caption scored with ``reference_cider_d``.
``training.self_critical_loss`` and ``metrics.cider_d`` agree with them
bit for bit, and draw the same random numbers.

Caption reports: ``reference_evaluate_captions`` is
``metrics.evaluate_captions`` as it was before a report counted each
sentence once: every scorer counts every sentence it reads afresh with
``reference_ngram_counts`` (a slice per n-gram).  The document
frequencies come from ``reference_document_frequencies``, corpus BLEU
from ``reference_corpus_bleu_orders`` clipping each candidate with
``reference_clipped_counts`` (one reference maximum per order), CIDEr-D
from ``reference_cider_d`` and word recall from ``reference_pos_recall``,
which tags every reference word once per word class.  Its report equals
``evaluate_captions``'s by ``==``.
"""

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from modcap.config import LEAKY_SLOPE
from modcap.controller import ModuleLabel, Strategy, one_hot_max
from modcap.decoder import (
    BOS_ID,
    EOS_ID,
    HEAD_WEIGHTS,
    PAD_ID,
    CaptionModel,
    DecoderUnit,
    Encoded,
    Hypothesis,
    UnitTrace,
    argmax_policy,
    greedy_decode,
    run_decoder,
    sample_decode,
    strip_sequence,
)
from modcap.encoders import ProjectionModule, RelationModule
from modcap.errors import ShapeError, TrainingError
from modcap.layers import Linear
from modcap.metrics import (
    CIDER_SIGMA,
    DEFAULT_MAX_N,
    POS_CLASSES,
    IdfTable,
    _brevity_penalty,
    _closest_ref_length,
)
from modcap.training import LOSS_EPS, _step_major, _word_class_nll
from modcap.tensor import (
    FLOAT32,
    AdamState,
    AttentionRun,
    LstmParams,
    LstmRun,
    Rng,
    Tensor,
    _accum,
    _as_tensor,
    _t_matmul,
    _unbroadcast,
    concat,
    gather_rows,
    kernel_output,
    make_lstm_params,
    masked_nll,
    no_grad,
    reshape,
    softmax_backward,
    sum_,
    softmax_forward,
    xavier_uniform,
    zeros,
)


def gumbel(rng: Rng) -> float:
    """One Gumbel draw, -log(-log(u)) with u strictly inside (0, 1)."""
    u = ((rng.u64() >> 11) + 0.5) * 2.0**-53
    return -math.log(-math.log(u))


def multinomial(rng: Rng, probs) -> int:
    """One index drawn from a probability vector via the inverse CDF."""
    cdf = np.cumsum(np.asarray(probs, dtype=np.float64))
    u = rng.uniform() * cdf[-1]
    return int(min(np.searchsorted(cdf, u, side="right"), len(cdf) - 1))


def shuffle(rng: Rng, items: list) -> None:
    """Fisher-Yates in place, one ``randint`` draw per swap, i = n-1 .. 1."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randint(i + 1)
        items[i], items[j] = items[j], items[i]


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
    """One AdamState per named parameter, updated one parameter at a time;
    the new values go to the arena in one ``assign``.  Parameters whose grad
    is None are skipped."""

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.state: dict[str, AdamState] = {}

    def step(self, arena, lr: float) -> None:
        params, new = dict(zip(arena.names, arena.tensors)), {}
        for name in sorted(params):
            p = params[name]
            if p.grad is None:
                continue
            st = self.state.get(name) or adam_init(p)
            new[name], self.state[name] = adam_update(p, p.grad, st, lr, self.beta1,
                                                      self.beta2, self.eps, name=name)
        arena.assign(new)


def reference_clip(arena, max_norm: float) -> float:
    """Scale each gradient of ``arena`` so the joint L2 norm is at most
    ``max_norm``; returns the norm before clipping."""
    params = dict(zip(arena.names, arena.tensors))
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
                g *= g.dtype.type(scale)
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


# -- the product, affine map and softmax ----------------------------------------


def matmul(a, b) -> Tensor:
    """numpy ``matmul``/``dot`` semantics for 1-d, 2-d and stacked operands."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    a_data, b_data = a.data, b.data
    if a_data.ndim == 0 or b_data.ndim == 0:
        raise ShapeError("matmul needs at least 1-d operands")
    try:
        data = np.matmul(a_data, b_data)
    except ValueError as exc:
        raise ShapeError(f"matmul mismatch: {a_data.shape} @ {b_data.shape}") from exc

    def backward(g):
        if a_data.ndim == 1 and b_data.ndim == 1:
            if a.requires_grad:
                _accum(a, g * b_data)
            if b.requires_grad:
                _accum(b, g * a_data)
            return
        if a_data.ndim == 1:
            # (k,) @ (..., k, n) -> (..., n)
            if a.requires_grad:
                ga = np.matmul(b_data, np.expand_dims(g, -1)).squeeze(-1)
                _accum(a, _unbroadcast(ga, a_data.shape))
            if b.requires_grad:
                gb = np.expand_dims(a_data, -1) * np.expand_dims(g, -2)
                _accum(b, _unbroadcast(gb, b_data.shape))
            return
        if b_data.ndim == 1:
            # (..., m, k) @ (k,) -> (..., m)
            if a.requires_grad:
                ga = np.expand_dims(g, -1) * b_data
                _accum(a, _unbroadcast(ga, a_data.shape))
            if b.requires_grad:
                gb = np.matmul(np.swapaxes(a_data, -1, -2), np.expand_dims(g, -1)).squeeze(-1)
                _accum(b, _unbroadcast(gb, b_data.shape))
            return
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b_data, -1, -2))
            _accum(a, _unbroadcast(ga, a_data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(_t_matmul(a_data, g), b_data.shape))

    return Tensor._from_op(data, (a, b), backward)


def linear(layer: Linear, x) -> Tensor:
    """The affine map x W + b of a ``Linear`` layer's weights."""
    return matmul(x, layer.W) + layer.b


def softmax(a, axis=-1) -> Tensor:
    """Max-shifted softmax along ``axis``."""
    a = _as_tensor(a)
    if a.data.size == 0:
        raise ValueError("softmax of an empty tensor")
    data = softmax_forward(a.data, axis)

    def backward(g):
        if a.requires_grad:
            _accum(a, softmax_backward(data, g, axis))

    return Tensor._from_op(data, (a,), backward)


# -- the op-composed encoder ----------------------------------------------------


def transpose(a, axes=None) -> Tensor:
    a = _as_tensor(a)
    if axes is None:
        if a.data.ndim != 2:
            raise ShapeError(f"default transpose expects 2-d input, got shape {a.data.shape}")
        axes = (1, 0)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = np.ascontiguousarray(np.transpose(a.data, axes))

    def backward(g):
        if a.requires_grad:
            _accum(a, np.transpose(g, inv))

    return Tensor._from_op(data, (a,), backward)


def mean_pool_rows(m, mask=None) -> Tensor:
    """Column-wise mean over the second-to-last axis: (..., N, d) -> (..., d).

    With a boolean (..., N) ``mask`` only the rows it marks count: the
    masked row sum times 1/n_valid.  Without one every row is real.
    """
    m = _as_tensor(m)
    m_d = m.data
    if m_d.ndim < 2:
        raise ShapeError(f"mean_pool_rows expects at least 2-d input, got shape {m_d.shape}")
    if m_d.shape[-2] == 0:
        raise ValueError("mean_pool_rows over an empty row set")
    if mask is None:
        keep = np.ones(m_d.shape[:-1], dtype=bool)
    else:
        keep = np.asarray(mask, dtype=bool)
        if keep.shape != m_d.shape[:-1]:
            raise ShapeError(f"mean_pool_rows mask of shape {keep.shape} does not fit "
                             f"input of shape {m_d.shape}")
    n_valid = keep.sum(axis=-1, keepdims=True)
    if np.any(n_valid == 0):
        raise ValueError("mean_pool_rows over a row set with no valid row")
    weight = keep[..., None].astype(m_d.dtype)
    inv = (1.0 / n_valid).astype(m_d.dtype)               # (..., 1)
    data = (m_d * weight).sum(axis=-2) * inv

    def backward(g):
        if m.requires_grad:
            _accum(m, np.expand_dims(g * inv, -2) * weight)

    return Tensor._from_op(data, (m,), backward)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    a_data = a.data
    data = np.maximum(a_data, 0.0)

    def backward(g):
        if a.requires_grad:
            _accum(a, g * (a_data > 0))

    return Tensor._from_op(data, (a,), backward)


def leaky_relu(a, slope=0.01) -> Tensor:
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must lie in (0, 1), got {slope}")
    a = _as_tensor(a)
    a_data = a.data
    data = np.where(a_data >= 0, a_data, slope * a_data)

    def backward(g):
        if a.requires_grad:
            _accum(a, g * np.where(a_data >= 0, 1.0, slope).astype(g.dtype))

    return Tensor._from_op(np.ascontiguousarray(data), (a,), backward)


def masked_softmax(a, mask, axis=-1) -> Tensor:
    """Max-shifted softmax along ``axis`` in which the entries where the
    boolean ``mask`` (broadcast against ``a``) is False get exactly zero
    weight."""
    a = _as_tensor(a)
    data = softmax_forward(np.where(mask, a.data, -np.inf), axis)

    def backward(g):
        if a.requires_grad:
            _accum(a, softmax_backward(data, g, axis))

    return Tensor._from_op(data, (a,), backward)


def reference_projection(module: ProjectionModule, x: Tensor) -> Tensor:
    """The object or attribute module, ``ProjectionModule``, one node per op,
    on rows (..., d_in): flattened to (-1, d_in) and restored around the
    affine map."""
    y = linear(module.fc, reshape(x, (-1, x.shape[-1])) if x.ndim > 2 else x)
    return leaky_relu(reshape(y, x.shape[:-1] + (-1,)) if x.ndim > 2 else y, LEAKY_SLOPE)


def reference_relation(module: RelationModule, r: Tensor, mask=None) -> Tensor:
    """The relation module, ``RelationModule``, on regions (B, N, d_r), one
    node per op and one head at a time."""
    b, n, _ = r.shape
    key_mask = None if mask is None else np.reshape(mask, (b, 1, n))
    scale = 1.0 / math.sqrt(module.d_k)

    def project(w):
        return reshape(matmul(reshape(r, (-1, module.d_r)), w), (b, n, module.d_k))

    head_outs = []
    for i in range(module.heads):
        q = project(module.w_q[i])
        k = project(module.w_k[i])
        v = project(module.w_v[i])
        scores = matmul(q, transpose(k, (0, 2, 1))) * scale
        attn = (softmax(scores, axis=-1) if key_mask is None
                else masked_softmax(scores, key_mask, axis=-1))
        head_outs.append(matmul(attn, v))
    mixed = matmul(reshape(concat(head_outs, axis=-1), (-1, module.d_r)), module.w_out)
    out = leaky_relu(linear(module.fc2, relu(linear(module.fc1, mixed))), LEAKY_SLOPE)
    return reshape(out, (b, n, -1))


def reference_encode(model: CaptionModel, r_obj, r_attr, mask=None) -> Encoded:
    """``CaptionModel.encode`` composed of one autodiff node per op: each
    module, then each module's masked mean."""
    r_obj = r_obj if isinstance(r_obj, Tensor) else Tensor(r_obj, dtype=model.dtype)
    r_attr = r_attr if isinstance(r_attr, Tensor) else Tensor(r_attr, dtype=model.dtype)
    if r_obj.ndim == 2:
        r_obj = r_obj.reshape((1,) + r_obj.shape)
        r_attr = r_attr.reshape((1,) + r_attr.shape)
    lead = r_obj.shape[:2]
    mask = (np.ones(lead, dtype=bool) if mask is None
            else np.asarray(mask, dtype=bool).reshape(lead))
    source = {"object": r_obj, "attribute": r_attr, "relation": r_obj}
    feats = [reference_relation(module, source[name], mask) if name == "relation"
             else reference_projection(module, source[name])
             for name, module in model.encoders.items()]
    means = [mean_pool_rows(v, mask) for v in feats]
    return Encoded(stack(feats), concat(means, axis=-1), mask)


def stack(tensors) -> Tensor:
    """Tensors of one shape stacked on a new leading axis."""
    tensors = [_as_tensor(t) for t in tensors]

    def backward(g):
        for t, part in zip(tensors, g):
            if t.requires_grad:
                _accum(t, part)

    return Tensor._from_op(np.stack([t.data for t in tensors]), tuple(tensors), backward)


def split(a, k: int, axis: int) -> list[Tensor]:
    """``a`` cut into its k parts along ``axis``, which ``stack`` (axis 0,
    the parts' own axis) or ``concat`` (any other) undo: one node, each
    part hanging off it (``kernel_output``).  Its backward joins the
    parts' gradients as they came, zeros only for a part without one, so
    no zero is added to a gradient (0.0 + -0.0 would be +0.0)."""
    a = _as_tensor(a)
    parts = list(a.data) if axis == 0 else np.split(a.data, k, axis=axis)
    sinks = [[] for _ in parts]

    def backward(_):
        if a.requires_grad:
            grads = [sink[0] if sink else np.zeros_like(p) for sink, p in zip(sinks, parts)]
            _accum(a, np.stack(grads) if axis == 0 else np.concatenate(grads, axis=axis))

    node = Tensor._from_op(a.data, (a,), backward)
    return [kernel_output(node, np.ascontiguousarray(p), sink) for p, sink in zip(parts, sinks)]


def module_parts(enc: Encoded, modules) -> tuple[dict, dict]:
    """Each module's values (B, N, d_v) and means (B, d_v) in an encoding,
    by name: one ``split`` of each field, made once per encoding, so every
    step and unit of a pass adds its gradient to the same parts, in the
    order the kernel adds them to the fields."""
    if "reference_parts" not in vars(enc):
        enc.reference_parts = tuple(dict(zip(modules, split(x, len(modules), axis)))
                                    for x, axis in ((enc.values, 0), (enc.means, -1)))
    return enc.reference_parts


# -- the op-composed decoder unit -----------------------------------------------


def slice_axis(a, axis, start, stop) -> Tensor:
    a = _as_tensor(a)
    ndim = a.data.ndim
    ax = axis if axis >= 0 else ndim + axis
    idx = [slice(None)] * ndim
    idx[ax] = slice(start, stop)
    idx = tuple(idx)
    data = np.ascontiguousarray(a.data[idx])
    in_shape = a.data.shape

    def backward(g):
        if a.requires_grad:
            full = np.zeros(in_shape, dtype=g.dtype)
            full[idx] = g
            _accum(a, full)

    return Tensor._from_op(data, (a,), backward)


def pick(a, indices) -> Tensor:
    """Per-row column selection: (B, V)[b, idx_b] -> (B,)."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"pick expects a 2-d input, got shape {a.data.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    rows = np.arange(a.data.shape[0])
    data = np.ascontiguousarray(a.data[rows, idx])
    in_shape = a.data.shape

    def backward(g):
        if a.requires_grad:
            full = np.zeros(in_shape, dtype=g.dtype)
            np.add.at(full, (rows, idx), g)
            _accum(a, full)

    return Tensor._from_op(data, (a,), backward)


def clamp_min(a, floor) -> Tensor:
    a = _as_tensor(a)
    a_data = a.data
    data = np.maximum(a_data, floor)

    def backward(g):
        if a.requires_grad:
            _accum(a, g * (a_data >= floor))

    return Tensor._from_op(data, (a,), backward)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    data = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            _accum(a, g * (1.0 - data * data))

    return Tensor._from_op(data, (a,), backward)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(over="ignore"):
        data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        if a.requires_grad:
            _accum(a, g * data * (1.0 - data))

    return Tensor._from_op(data, (a,), backward)


def log(a) -> Tensor:
    a = _as_tensor(a)
    a_data = a.data
    with np.errstate(invalid="ignore", divide="ignore"):
        data = np.log(a_data)

    def backward(g):
        if a.requires_grad:
            _accum(a, g / a_data)

    return Tensor._from_op(data, (a,), backward)


def _views(joint: Tensor, shapes) -> tuple[Tensor, ...]:
    """One node per output of a multi-output op whose joint node holds the
    outputs flattened and concatenated in order.  Each view reads its
    slice of the joint data and adds its gradient into the same slice of
    the joint gradient."""
    out = []
    lo = 0
    for shape in shapes:
        hi = lo + math.prod(shape)

        def backward(g, lo=lo, hi=hi):
            if joint.grad is None:
                joint.grad = np.zeros_like(joint.data)
            joint.grad[lo:hi] += g.reshape(-1)

        out.append(Tensor._from_op(joint.data[lo:hi].reshape(shape), (joint,), backward))
        lo = hi
    return tuple(out)


def lstm_cell(x, h, c, W, b):
    """Fused LSTM update; returns (h', c').

    z = [x, h] W + b holds the input, forget, candidate and output gate
    blocks in that order; c' = f*c + i*g and h' = o*tanh(c').  Accepts
    (d,) vectors or (B, d) batches.
    """
    x, h, c, W, b = (_as_tensor(t) for t in (x, h, c, W, b))
    x_d, h_d, c_d = x.data, h.data, c.data
    single = x_d.ndim == 1
    if single:
        x_d, h_d, c_d = (a.reshape(1, -1) for a in (x_d, h_d, c_d))
    dh = b.data.shape[0] // 4
    d_in = W.data.shape[0] - dh
    if x_d.shape[-1] != d_in:
        raise ShapeError(f"lstm_step input has width {x_d.shape[-1]}, weights expect {d_in}")
    run = LstmRun(W.data[None], b.data[None])        # a stack of one unit
    with np.errstate(over="ignore"):
        h2, c2 = (a[0] for a in run.forward([x_d[None], h_d[None]], c_d[None], slice(0, 1)))

    def backward(grad):
        g_xh, g_c = (a[0] for a in run.backward(0, grad[:h2.size].reshape((1,) + h2.shape),
                                                grad[h2.size:].reshape((1,) + c2.shape)))
        g_W, g_b = np.empty_like(run.W), np.empty_like(run.b_row[:, 0])
        run.param_grads(g_W, g_b)
        if W.requires_grad:
            _accum(W, g_W[0])
        if b.requires_grad:
            _accum(b, g_b[0])
        if x.requires_grad:
            _accum(x, g_xh[:, :d_in].reshape(x.data.shape))
        if h.requires_grad:
            _accum(h, g_xh[:, d_in:].reshape(h.data.shape))
        if c.requires_grad:
            _accum(c, g_c.reshape(c.data.shape))

    joint = Tensor._from_op(np.concatenate([h2.ravel(), c2.ravel()]), (x, h, c, W, b),
                            backward)
    shape = (dh,) if single else h2.shape
    return _views(joint, (shape, shape))


def reference_lstm(x, h, c, W, b):
    """``lstm_cell`` composed of one node per primitive (``matmul``,
    ``slice_axis``, ``sigmoid``, ``tanh``, ``concat``): an LSTM that shares
    no arithmetic with ``LstmRun``.  Returns (h', c')."""
    single = x.ndim == 1
    if single:
        x, h, c = (reshape(t, (1, -1)) for t in (x, h, c))
    dh = b.shape[0] // 4
    z = matmul(concat([x, h], axis=1), W) + b
    i = sigmoid(slice_axis(z, 1, 0, dh))
    f = sigmoid(slice_axis(z, 1, dh, 2 * dh))
    g = tanh(slice_axis(z, 1, 2 * dh, 3 * dh))
    o = sigmoid(slice_axis(z, 1, 3 * dh, 4 * dh))
    c2 = f * c + i * g
    h2 = o * tanh(c2)
    if single:
        h2, c2 = reshape(h2, (-1,)), reshape(c2, (-1,))
    return h2, c2


def lstm_step(x, h, c, params: LstmParams):
    """One LSTM cell update.  Accepts (d,) vectors or (B, d) batches."""
    return lstm_cell(x, h, c, params.W, params.b)


def additive_attention(values, query, W_v, W_h, w_a, mask=None):
    """Fused additive attention; returns (alpha, attended).

    score_n = w_a . tanh(W_v v_n + W_h q), alpha = max-shifted softmax of
    the scores and attended = sum_n alpha_n v_n.  Takes (N, d_v) values
    with a (d_c,) query, or (B, N, d_v) with (B, d_c).  A boolean mask of
    the values' leading shape sets the scores of padded rows to -inf, so
    their alpha is exactly 0.
    """
    values, query, W_v, W_h, w_a = (_as_tensor(t) for t in (values, query, W_v, W_h, w_a))
    v, q_in = values.data, query.data
    single = v.ndim == 2
    if single:
        v = v.reshape((1,) + v.shape)
        q_in = q_in.reshape(1, -1)
    if v.shape[1] == 0:
        raise ValueError("attention over an empty value set")
    run = AttentionRun(v, np.ascontiguousarray(W_v.data.T[None]),      # a stack of one unit
                       np.ascontiguousarray(W_h.data.T[None]), w_a.data[None], mask)
    alpha, attended = (a[0] for a in run.forward(q_in[None], slice(0, 1)))

    def backward(grad):
        g_q = run.backward(0, grad[:alpha.size].reshape((1,) + alpha.shape),
                           grad[alpha.size:].reshape((1,) + attended.shape))[0]
        (g_direct,), (g_keys,), (g_Wv,), (g_Wh,), (g_wa,) = run.grads()
        if values.requires_grad:
            _accum(values, g_direct.reshape(values.data.shape))
            _accum(values, g_keys.reshape(values.data.shape))
        if query.requires_grad:
            _accum(query, g_q.reshape(query.data.shape))
        if W_v.requires_grad:
            _accum(W_v, g_Wv)
        if W_h.requires_grad:
            _accum(W_h, g_Wh)
        if w_a.requires_grad:
            _accum(w_a, g_wa)

    joint = Tensor._from_op(np.concatenate([alpha.ravel(), attended.ravel()]),
                            (values, query, W_v, W_h, w_a), backward)
    if single:
        return _views(joint, (alpha.shape[1:], attended.shape[1:]))
    return _views(joint, (alpha.shape, attended.shape))


def reference_attention(values, query, W_v, W_h, w_a, mask=None):
    """``additive_attention`` composed of one node per primitive
    (``matmul``, ``transpose``, ``tanh``, ``softmax`` or
    ``masked_softmax``, ``reshape``, ``mul``, ``sum_``): an attention that
    shares no arithmetic with ``AttentionRun``.  Returns (alpha,
    attended)."""
    single = values.ndim == 2
    if single:
        values, query = reshape(values, (1,) + values.shape), reshape(query, (1, -1))
    batch, n, _ = values.shape
    keys = matmul(values, transpose(W_v))
    q = reshape(matmul(query, transpose(W_h)), (batch, 1, -1))
    scores = matmul(tanh(keys + q), w_a)
    alpha = softmax(scores) if mask is None else masked_softmax(scores, mask)
    attended = sum_(reshape(alpha, (batch, n, 1)) * values, axis=1)
    if single:
        return reshape(alpha, (n,)), reshape(attended, (-1,))
    return alpha, attended


@dataclass
class AdditiveAttention:
    """One attention head's weights on their own.  ``draw`` draws them as
    a unit draws its ``att.<module>.*`` table entries, ``of`` reads a
    unit's."""

    W_v: Tensor     # (d_a, d_v)
    W_h: Tensor     # (d_a, d_c)
    w_a: Tensor     # (d_a,)

    @classmethod
    def draw(cls, d_v: int, d_c: int, d_a: int, rng: Rng, dtype=FLOAT32):
        return cls(xavier_uniform(rng, (d_a, d_v), d_v, d_a, dtype=dtype),
                   xavier_uniform(rng, (d_a, d_c), d_c, d_a, dtype=dtype),
                   xavier_uniform(rng, (d_a,), d_a, 1, dtype=dtype))

    @classmethod
    def of(cls, unit: DecoderUnit, name: str):
        return cls(*(unit.weights[f"att.{name}.{part}"] for part in HEAD_WEIGHTS))


def attend(att: AdditiveAttention, values, query, mask=None):
    """One attention head on its own: (alpha, attended)."""
    return additive_attention(values, query, att.W_v, att.W_h, att.w_a, mask)


def weighted_concat(weights, parts) -> Tensor:
    """Fused concat of K equal-width blocks, block k scaled by weights[..., k]:
    (..., K) weights and K (..., d) parts give (..., K*d)."""
    weights = _as_tensor(weights)
    parts = [_as_tensor(t) for t in parts]
    w = weights.data
    blocks = [p.data for p in parts]
    d = blocks[0].shape[-1]
    data = np.concatenate([w[..., k:k + 1] * x for k, x in enumerate(blocks)], axis=-1)

    def backward(g):
        g_blocks = [g[..., k * d:(k + 1) * d] for k in range(len(parts))]
        if weights.requires_grad:
            _accum(weights, np.stack([(gk * x).sum(axis=-1)
                                      for gk, x in zip(g_blocks, blocks)], axis=-1))
        for k, (gk, p) in enumerate(zip(g_blocks, parts)):
            if p.requires_grad:
                _accum(p, gk * w[..., k:k + 1])

    return Tensor._from_op(data, (weights, *parts), backward)


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


@dataclass
class ControllerState:
    h: Tensor
    c: Tensor


@dataclass
class UnitState:
    h1: Tensor
    c1: Tensor
    h2: Tensor
    c2: Tensor
    ctrl: ControllerState | None


def straight_through(y_soft: Tensor) -> Tensor:
    """One-hot forward value with the soft distribution's gradient."""
    return Tensor(one_hot_max(y_soft.data) - y_soft.data) + y_soft


@dataclass
class ModuleController:
    """The controller's weights on their own: an LSTM over [v_O, v_A, v_R,
    c], the projection of its output to four logits, and the Gumbel
    temperature.  ``draw`` draws them as a unit draws its ``ctrl.*``
    table entries, ``of`` reads a unit's."""

    lstm: LstmParams
    proj_W: Tensor      # (d_c, 4)
    proj_b: Tensor      # (4,)
    tau: float = 1.0

    @classmethod
    def draw(cls, d_v: int, d_c: int, rng: Rng, tau: float = 1.0, dtype=FLOAT32):
        n = len(ModuleLabel)
        lstm = make_lstm_params(rng, 3 * d_v + d_c, d_c, dtype=dtype)
        return cls(lstm, xavier_uniform(rng, (d_c, n), d_c, n, dtype=dtype),
                   zeros(n, dtype=dtype, requires_grad=True), tau)

    @classmethod
    def of(cls, unit: DecoderUnit):
        w = unit.weights
        return cls(LstmParams(W=w["ctrl.lstm.W"], b=w["ctrl.lstm.b"]), w["ctrl.proj.W"],
                   w["ctrl.proj.b"], unit.cfg.gumbel_tau)


@dataclass
class ControllerOutput:
    weights: Tensor        # what fuse() consumes (one-hot under HARD)
    soft: Tensor | None    # noise-free softmax of the logits, None under UNIFORM
    state: ControllerState


def controller_step(ctrl: ModuleController, v_obj: Tensor, v_attr: Tensor, v_rel: Tensor,
                    context: Tensor, state: ControllerState, strategy: Strategy,
                    noise: np.ndarray | None = None) -> ControllerOutput:
    """One controller step: the LSTM over [v_O, v_A, v_R, c], then the
    4-way softmax.  SOFT keeps the softmax as-is, HARD takes the
    Gumbel-softmax sample under ``noise`` (zero when None) and snaps it to
    a one-hot straight-through estimate, UNIFORM skips the network and
    pins every weight to 1."""
    if not isinstance(strategy, Strategy):
        raise ValueError(f"unknown collocation strategy: {strategy!r}")
    if strategy is Strategy.UNIFORM:
        batch = v_obj.shape[0] if v_obj.ndim == 2 else None
        shape = (batch, len(ModuleLabel)) if batch else (len(ModuleLabel),)
        ones = Tensor(np.ones(shape, dtype=v_obj.data.dtype))
        return ControllerOutput(weights=ones, soft=None, state=state)
    x = concat([v_obj, v_attr, v_rel, context], axis=-1)
    h, c = lstm_step(x, state.h, state.c, ctrl.lstm)
    logits = matmul(h, ctrl.proj_W) + ctrl.proj_b
    soft = softmax(logits, axis=-1)
    if strategy is Strategy.SOFT:
        weights = soft
    else:  # HARD
        noise = Tensor(np.zeros(logits.shape, logits.data.dtype) if noise is None else noise)
        y = softmax((logits + noise) * (1.0 / ctrl.tau), axis=-1)
        weights = straight_through(y)
    return ControllerOutput(weights=weights, soft=soft, state=ControllerState(h=h, c=c))


def reference_step(unit: DecoderUnit, i_prev: Tensor, enc: Encoded, state: UnitState,
                   noise: np.ndarray | None = None):
    """One unit's decode step (``UnitRun.step`` on the unit's index)
    composed of autodiff ops, one node per op, with the step's (B, K + 1)
    selection noise.  Returns (i_new, new state, trace)."""
    w = unit.weights
    context = state.h2
    values, means = module_parts(enc, unit.modules)
    u = concat([i_prev, context] + [means[name] for name in unit.modules], axis=-1)
    h1, c1 = lstm_cell(u, state.h1, state.c1, w["lstm1.W"], w["lstm1.b"])
    alphas = {}
    attended = []
    for name in unit.modules:
        alphas[name], v = attend(AdditiveAttention.of(unit, name), values[name], h1,
                                 enc.mask)
        attended.append(v)
    weights = soft = ctrl_state = None
    if unit.strategy is None:
        (v_hat,) = attended
    else:
        v_func = leaky_relu(matmul(context, w["func.fc.W"]) + w["func.fc.b"], LEAKY_SLOPE)
        out = controller_step(ModuleController.of(unit), *attended, context, state.ctrl,
                              unit.strategy, noise=noise)
        weights, soft, ctrl_state = out.weights, out.soft, out.state
        v_hat = fuse(weights, *attended, v_func)
    h2, c2 = lstm_cell(concat([h1, v_hat], axis=-1), state.h2, state.c2, w["lstm2.W"],
                       w["lstm2.b"])
    i_new = i_prev + h2
    new_state = UnitState(h1=h1, c1=c1, h2=h2, c2=c2, ctrl=ctrl_state)
    return i_new, new_state, UnitTrace(weights=None if weights is None else weights.data,
                                       soft=soft, alphas={k: a.data for k, a in alphas.items()})


# -- the stack on the Tensor step ----------------------------------------------


def reference_init_state(model: CaptionModel, batch: int) -> list[UnitState]:
    """Each unit's zero state as Tensors."""
    def z():
        return zeros((batch, model.cfg.d_v), dtype=model.dtype)
    return [UnitState(h1=z(), c1=z(), h2=z(), c2=z(),
                      ctrl=ControllerState(h=z(), c=z()) if unit.controlled else None)
            for unit in model.units]


def reference_model_step(model: CaptionModel, prev_tokens, enc: Encoded, states: list,
                         noise: np.ndarray | None = None):
    """``CaptionModel.step`` on the Tensor step: one ``reference_step`` per
    unit, with the step's (M, B, K + 1) selection noise.  Returns (word
    distribution Tensor (B, V), new states, per-unit traces); the traces
    are what ``CaptionModel.forced`` gives for the step."""
    vec = gather_rows(model.embed, np.asarray(prev_tokens, dtype=np.int64))
    new_states, traces = [], []
    for m, (unit, st) in enumerate(zip(model.units, states)):
        vec, st, tr = reference_step(unit, vec, enc, st, None if noise is None else noise[m])
        new_states.append(st)
        traces.append(tr)
    return softmax(linear(model.head, vec), axis=-1), new_states, traces


def reference_forced(model: CaptionModel, inputs, enc: Encoded,
                     noise: np.ndarray | None = None):
    """``CaptionModel.forced`` as T chained ``reference_model_step`` calls
    from the zero state, fed the input tokens (B, T), with the pass's
    selection noise (T, M, B, K + 1).  Returns the per-step word
    distributions and the per-step lists of unit traces."""
    inputs = np.asarray(inputs, dtype=np.int64)
    states = reference_init_state(model, inputs.shape[0])
    dists, traces = [], []
    for t in range(inputs.shape[1]):
        dist, states, step_traces = reference_model_step(
            model, inputs[:, t], enc, states, None if noise is None else noise[t])
        dists.append(dist)
        traces.append(step_traces)
    return dists, traces


class TensorStepModel:
    """A CaptionModel decoding on ``reference_model_step`` through
    ``decoder.run_decoder``; the decode loop gets each word distribution
    as an array."""

    def __init__(self, model: CaptionModel):
        self.model = model

    def init_rows(self, batch):
        return reference_init_state(self.model, batch)

    def selection_noise(self, rng, n_steps, batch):
        return self.model.selection_noise(rng, n_steps, batch)

    def step(self, prev_tokens, enc, states, noise=None):
        dist, states, _ = reference_model_step(self.model, prev_tokens, enc, states, noise)
        return dist.data, states


# -- decoders on the Tensor step -----------------------------------------------


def take_rows(obj, idx):
    """Rows ``idx`` of every tensor and array in a decoder state, in the
    same structure; None passes through."""
    if isinstance(obj, Tensor):
        return gather_rows(obj, idx)
    if isinstance(obj, np.ndarray):
        return obj[idx]
    if isinstance(obj, list):
        return [take_rows(o, idx) for o in obj]
    if isinstance(obj, dict):
        return {k: take_rows(v, idx) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj):
        return dataclasses.replace(obj, **{f.name: take_rows(getattr(obj, f.name), idx)
                                           for f in dataclasses.fields(obj)
                                           if f.init})
    return obj


def reference_greedy(model, enc, max_len):
    """Argmax decoding of every row of ``enc`` on the Tensor step, with
    gradients enabled; one token list per row."""
    return run_decoder(TensorStepModel(model), enc, max_len, argmax_policy)


def rank(h: Hypothesis):
    """Best first: the higher log-probability, then the smaller tokens."""
    return (-h.logprob, h.tokens)


def reference_beam_search(model, enc, beam_width, max_len):
    """``decoder.beam_search`` on the Tensor step: each step expands every
    live hypothesis in one ``model.step`` call, on the scene's encoding
    repeated once per hypothesis and the parents' state rows."""

    repeated = {}       # the scene's encoding, once per number of live hypotheses
    with no_grad():
        beams = [Hypothesis(tokens=(), logprob=0.0, states=0, finished=False)]
        states = reference_init_state(model, 1)
        for _ in range(max_len):
            live = [h for h in beams if not h.finished]
            if not live:
                break
            prev = [h.tokens[-1] if h.tokens else BOS_ID for h in live]
            if len(live) not in repeated:
                one = np.zeros(len(live), dtype=np.int64)
                repeated[len(live)] = Encoded(_as_tensor(enc.values).data[:, one],
                                              _as_tensor(enc.means).data[one], enc.mask[one])
            dist, states, _ = reference_model_step(
                model, prev, repeated[len(live)],
                take_rows(states, np.array([h.states for h in live])))
            logp = np.log(np.maximum(dist.data, np.finfo(dist.data.dtype).smallest_subnormal))
            total = np.array([h.logprob for h in live])[:, None] + logp
            candidates = [h for h in beams if h.finished]
            for row, tok in np.ndindex(*total.shape):
                candidates.append(Hypothesis(tokens=live[row].tokens + (tok,),
                                             logprob=float(total[row, tok]),
                                             states=row, finished=tok == EOS_ID))
            candidates.sort(key=rank)
            beams = candidates[:beam_width]
    beams.sort(key=rank)
    return beams


def object_beam_search(model, enc, beam_width: int, max_len: int) -> list[Hypothesis]:
    """``decoder.beam_search`` with a ``Hypothesis`` object per candidate,
    ranked by a key function: the same search, step for step."""
    if beam_width < 1:
        raise ValueError(f"beam width must be positive, got {beam_width}")
    if enc.batch != 1:
        raise ValueError(f"beam search decodes one scene, got a batch of {enc.batch}")

    beams = [Hypothesis(tokens=(), logprob=0.0, states=0, finished=False)]
    states = model.init_rows(1)
    for _ in range(max_len):
        live = [h for h in beams if not h.finished]
        if not live:
            break
        prev = [h.tokens[-1] if h.tokens else BOS_ID for h in live]
        parents = np.array([h.states for h in live])
        with np.errstate(over="ignore"):
            p, states = model.step(prev, enc, states[:, :, parents])
        logp = np.log(np.maximum(p, np.finfo(p.dtype).smallest_subnormal))
        total = np.array([h.logprob for h in live])[:, None] + logp
        # only expansions scoring at least the beam_width-th best can
        # survive the exact sort below
        flat = total.ravel()
        if flat.size > beam_width:
            cut = np.partition(flat, flat.size - beam_width)[flat.size - beam_width]
            picked = np.flatnonzero(flat >= cut)
        else:
            picked = np.arange(flat.size)
        candidates = [h for h in beams if h.finished]
        rows, toks = np.divmod(picked, total.shape[1])
        for row, tok, logprob in zip(rows.tolist(), toks.tolist(), flat[picked].tolist()):
            candidates.append(Hypothesis(live[row].tokens + (tok,), logprob, row, tok == EOS_ID))
        candidates.sort(key=rank)
        beams = candidates[:beam_width]
    beams.sort(key=rank)
    return beams


# -- self-critical scoring ------------------------------------------------------


def reference_ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def reference_idf(table: IdfTable, gram) -> float:
    """log(n_images / df) of ``gram``, looked up when asked; an unseen
    n-gram counts as a frequency of one."""
    return math.log(table.n_images / max(1, table.df.get(gram, 0)))


def _reference_tfidf(tokens, order: int, table: IdfTable):
    vec = {g: c * reference_idf(table, g)
           for g, c in reference_ngram_counts(tokens, order).items()}
    return vec, math.sqrt(sum(w * w for w in vec.values()))


def reference_cider_d(candidate, references, table: IdfTable,
                      sigma: float = CIDER_SIGMA, max_n: int = DEFAULT_MAX_N) -> float:
    """``metrics.cider_d`` summing the dot product over every candidate
    n-gram, with each vector built afresh."""
    if not references:
        raise ValueError("cider_d needs at least one reference")
    per_order_sum = [0.0] * max_n
    cand = [_reference_tfidf(candidate, order, table) for order in range(1, max_n + 1)]
    for ref in references:
        penalty = math.exp(-((len(candidate) - len(ref)) ** 2) / (2.0 * sigma * sigma))
        refs = [_reference_tfidf(ref, order, table) for order in range(1, max_n + 1)]
        for k, ((cand_vec, cand_norm), (ref_vec, ref_norm)) in enumerate(zip(cand, refs)):
            if cand_norm == 0.0 or ref_norm == 0.0:
                continue
            dot = sum(min(w, ref_vec.get(g, 0.0)) * ref_vec.get(g, 0.0)
                      for g, w in cand_vec.items())
            per_order_sum[k] += penalty * dot / (cand_norm * ref_norm)
    mean_over_orders = sum(per_order_sum) / max_n
    return 10.0 * mean_over_orders / len(references)


# -- caption reports ------------------------------------------------------------


def reference_clipped_counts(candidate, references, order: int) -> tuple[int, int]:
    """(clipped matches, total) of the candidate's n-grams of one order:
    each n-gram counts at most as often as in the reference that holds it
    most often."""
    cand = reference_ngram_counts(candidate, order)
    best = Counter()
    for ref in references:
        for gram, count in reference_ngram_counts(ref, order).items():
            if count > best[gram]:
                best[gram] = count
    return sum(min(c, best[g]) for g, c in cand.items()), sum(cand.values())


def reference_corpus_bleu_orders(candidates, references_list, max_n: int) -> list:
    clipped = [0] * max_n
    totals = [0] * max_n
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(candidates, references_list):
        cand_len += len(cand)
        ref_len += _closest_ref_length(len(cand), refs)
        for order in range(1, max_n + 1):
            matched, total = reference_clipped_counts(cand, refs, order)
            clipped[order - 1] += matched
            totals[order - 1] += total
    penalty = _brevity_penalty(cand_len, ref_len)
    scores = []
    log_sum = 0.0
    for order in range(max_n):
        if clipped[order] == 0 or totals[order] == 0:
            return scores + [0.0] * (max_n - order)
        log_sum += math.log(clipped[order] / totals[order])
        scores.append(penalty * math.exp(log_sum / (order + 1)))
    return scores


def reference_document_frequencies(references_by_image: dict, max_n: int) -> Counter:
    """Per n-gram, the number of images whose references hold it."""
    df = Counter()
    for refs in references_by_image.values():
        seen = set()
        for ref in refs:
            for order in range(1, max_n + 1):
                seen.update(reference_ngram_counts(ref, order))
        df.update(seen)
    return df


def reference_pos_recall(predictions: dict, references: dict, tag_of) -> dict:
    sums = {name: 0.0 for name in POS_CLASSES}
    counts = {name: 0 for name in POS_CLASSES}
    for key, refs in references.items():
        pred_words = set(predictions.get(key, ()))
        for name, tags in POS_CLASSES.items():
            gold = {w for ref in refs for w in ref if tag_of(w) in tags}
            if not gold:
                continue
            counts[name] += 1
            sums[name] += len(gold & pred_words) / len(gold)
    return {name: (100.0 * sums[name] / counts[name] if counts[name] else None)
            for name in POS_CLASSES}


def reference_evaluate_captions(predictions: dict, references: dict, tag_of,
                                max_n: int = DEFAULT_MAX_N) -> dict:
    """``metrics.evaluate_captions`` with every sentence counted afresh by
    each scorer that reads it; the checksum is ``IdfTable.checksum`` of
    the document frequencies counted here."""
    table = SimpleNamespace(n_images=len(references), max_n=max_n,
                            df=reference_document_frequencies(references, max_n))
    keys = sorted(references)
    cands = [list(predictions.get(k, ())) for k in keys]
    refs_list = [references[k] for k in keys]
    report = {
        "n_images": len(keys),
        "idf_checksum": IdfTable.checksum(table),
        "cider_d": sum(reference_cider_d(c, r, table, max_n=max_n)
                       for c, r in zip(cands, refs_list)) / len(keys),
        "pos_recall": reference_pos_recall(predictions, references, tag_of),
    }
    for order, score in enumerate(reference_corpus_bleu_orders(cands, refs_list, max_n),
                                  start=1):
        report[f"bleu{order}"] = score
    return report


def two_pass_self_critical_loss(model: CaptionModel, enc, references, idf: IdfTable,
                                vocab_tokens, rng: Rng, max_len: int, gold=None,
                                lam: float = 0.0):
    """``training.self_critical_loss`` with a sample pass and a separate
    greedy pass, every caption scored, by ``reference_cider_d``."""
    with no_grad():
        sampled, noise = sample_decode(model, enc, rng, max_len)
        baseline = greedy_decode(model, enc, max_len)
    infos = []
    for tokens, base, refs in zip(sampled, baseline, references):
        reward = reference_cider_d([vocab_tokens[t] for t in strip_sequence(tokens)], refs,
                                   idf)
        base_reward = reference_cider_d([vocab_tokens[t] for t in strip_sequence(base)],
                                        refs, idf)
        infos.append({"reward": reward, "baseline": base_reward,
                      "advantage": reward - base_reward})

    scenes, supervise = len(sampled), lam > 0.0
    gold_steps = gold.inputs.shape[1] if supervise else 0
    n_steps = max(gold_steps, *map(len, sampled))
    shape = ((2 if supervise else 1) * scenes, n_steps)
    inputs = np.full(shape, PAD_ID, dtype=np.int64)
    targets, labels = inputs.copy(), inputs.copy()
    weights, ling_weights = np.zeros(shape), np.zeros(shape)
    for b, (tokens, info) in enumerate(zip(sampled, infos)):
        inputs[b, :len(tokens)] = [BOS_ID] + tokens[:-1]
        targets[b, :len(tokens)] = tokens
        weights[b, :len(tokens)] = info["advantage"]
    if noise is not None:
        noise = np.pad(noise[:n_steps], [(0, max(0, n_steps - len(noise)))] + [(0, 0)] * 3)
    if supervise:
        inputs[scenes:, :gold_steps] = gold.inputs
        labels[scenes:, :gold_steps] = gold.labels
        ling_weights[scenes:, :gold_steps] = gold.mask / (
            gold.mask.sum(axis=1, keepdims=True) * len(model.units))
        enc = Encoded(concat([enc.values] * 2, axis=1), concat([enc.means] * 2),
                      np.concatenate([enc.mask, enc.mask]))
        if noise is not None:
            noise = np.concatenate([noise, model.selection_noise(rng, n_steps, scenes)], axis=2)

    dist, traces = model.forced(inputs, enc, noise)
    loss = masked_nll(dist, _step_major(targets), _step_major(weights), LOSS_EPS)
    if supervise:
        loss = loss + lam * _word_class_nll(traces, labels, ling_weights)
    return loss, infos
