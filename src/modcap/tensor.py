"""Small reverse-mode autodiff core on numpy arrays.

A Tensor wraps a numpy array (float32 by default, float64 for gradient
checking).  Every op returns a fresh Tensor and, when gradients are
enabled, records a closure that scatters the output gradient back to the
op's parents.  Nodes take increasing ids as they are created, and an op's
output is always created after its inputs, so ``Tensor.backward()``
collects the nodes reachable from the root once and runs their closures
in descending id order: each closure runs after those of all its
consumers.

The library holds the ops the model runs: ``add``, ``mul``, ``div``,
``reshape``, ``concat``, ``gather_rows`` and the fused ``masked_nll``:
``-sum(mask * log(max(p[b, gold_b], eps)))``; and ``sum_``, which only
gradcheck's objectives call.  The encoder, the decoder units and the
word head run on plain arrays, each as one node with a hand-written
backward (``encoders.encoder_kernel``, ``decoder.unit_kernel``,
``decoder.word_head``); a kernel's second output (the encoder's means, a
unit's controller softmax) hangs off its node by ``kernel_output``.  The
LSTM, additive-attention and softmax arithmetic of the kernels is here
(``LstmRun``, ``AttentionRun``, ``softmax_forward``/``softmax_backward``).
A run's weights may stack units along a leading axis, and its arithmetic
is rank-agnostic: one call steps one unit, or several at once on rows
with a leading unit axis, and each unit's rows round as if it ran alone.
A run keeps one record per call, a tuple ending with the call's units,
of only what its backward cannot rebuild with one cheap op.  Forward and
input gradients go call by call, and a call's backward replaces its
record with what the weight gradients read; the parameter gradients are
one GEMM per unit over the rows of all its steps, a call that ends the
backward and lets the records go.  The op-composed encoder,
unit and word head the kernels agree with bit for bit, and the ops only
they use (``matmul`` and ``softmax`` among them), are in
``tests/reference.py``.  Padded regions are masked: a score of -inf
gives them exactly 0 weight and gradient.

A model's parameters live in a ``ParamArena``: one flat buffer of values
and one of gradients, each parameter's ``data`` and ``grad`` a view of
its slice.  Only the arena writes values: setting a held parameter's
``data`` is refused.  Caches of the values key on ``ParamArena.version``.
``Adam`` keeps its moments in flat buffers of the same layout and
updates them elementwise, a stretch per numpy call; ``clip_global_norm``
scales the gradient buffer at once.

Also here because the rest of the package leans on them: a portable
counter-based RNG, parameter initialization, a central-difference
gradient oracle, and ``blas_on_calling_thread``, which keeps OpenBLAS
off its worker threads for the training epochs.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, TrainingError

FLOAT32 = np.float32
FLOAT64 = np.float64

_grad_enabled = True
_debug_finite = False


def set_debug_checks(flag: bool) -> None:
    """When on, every op output is checked for NaN/Inf."""
    global _debug_finite
    _debug_finite = bool(flag)


def check_finite(op: str, data) -> None:
    """With debug checks on, raise FloatingPointError naming ``op`` if
    ``data`` holds a NaN or Inf."""
    if _debug_finite and not np.all(np.isfinite(data)):
        raise FloatingPointError(f"{op} produced a non-finite value of shape {np.shape(data)}")


def needs_grad(parents) -> bool:
    """Whether an op on ``parents`` records its backward: gradients are on
    and a parent requires one."""
    return _grad_enabled and any([p.requires_grad for p in parents])


@contextmanager
def no_grad():
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


# -- BLAS threads -------------------------------------------------------------
#
# The largest products here are a few hundred rows (the T*B rows of a
# whole-caption pass) by a few hundred columns.  OpenBLAS splits such a
# product over its worker threads, which gain little at this size and then
# spin for a while after the call, holding a second CPU, so the work's
# speed follows whatever else wants that CPU.  The training epochs run as
# fast with BLAS on the calling thread and keep it there.


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded, or
    None where it cannot be found (another BLAS, or no /proc/self/maps)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in itertools.product(("scipy_", ""), ("64_", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
                return get, set_
    return None


@contextmanager
def blas_on_calling_thread():
    """Run the enclosed BLAS products on the calling thread, then restore
    the thread count; does nothing where OpenBLAS cannot be found.  Usable
    as a decorator."""
    blas = _openblas()
    prev = blas[0]() if blas else None
    if blas:
        blas[1](1)
    try:
        yield
    finally:
        if blas:
            blas[1](prev)


class Tensor:
    """Immutable n-d float array with an optional gradient slot.

    ``data`` is never written through after construction.  A parameter's
    ``data`` is a view of its ``ParamArena``'s value buffer, and only the
    arena rebinds it: a write builds a fresh buffer, which leaves any
    already recorded graph (whose closures captured the old arrays)
    intact.  Gradients, in contrast, are written in place: a parameter's
    ``grad`` is a view of the arena's gradient buffer, which backward and
    clipping write into.  ``grad`` is None until an op reaches the
    parameter.  ``_slot`` is the gradient view of a parameter an arena
    holds, else None, ``_name`` its name there and ``_lo`` the index of
    its first element in the arena's buffers.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_id", "_slot",
                 "_name", "_lo")
    _ids = itertools.count()

    def __init__(self, data, requires_grad=False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (FLOAT32, FLOAT64):
            arr = arr.astype(FLOAT32)
        # np.ascontiguousarray would turn a 0-d array into shape (1,)
        self.data = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._id = next(Tensor._ids)
        self._slot = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data, parents, backward):
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._id = next(Tensor._ids)
        out._slot = None
        if needs_grad(parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        if _debug_finite:
            # every op defines its closure inside the op function, so the
            # closure's qualified name starts with the op's name
            check_finite(backward.__qualname__.partition(".")[0], data)
        return out

    # -- basic properties -----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, grad={self.requires_grad})"

    # -- autodiff ---------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar root through the recorded graph."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar root, got shape {self.data.shape}")
        nodes = sweep_order(self)
        self.grad = np.ones_like(self.data)
        for node in nodes:
            if node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)


_DATA = Tensor.data      # the slot itself, which the arena writes


class _Held(Tensor):
    """A parameter a ``ParamArena`` holds: its ``data`` reads as any
    Tensor's, and setting it is refused (the arena writes the slot)."""

    __slots__ = ()

    def _refuse(self, value):
        raise RuntimeError(f"parameter '{self._name}' was rebound behind its arena; "
                           "write values with ParamArena.assign")

    data = property(_DATA.__get__, _refuse)


def sweep_order(root: Tensor) -> list[Tensor]:
    """The nodes reachable from ``root`` that have a backward closure,
    newest first.

    An op's output is created after its inputs, so ids grow along every
    edge and descending id order runs each closure only after the
    closures of all its consumers have added their gradient to it.
    """
    found = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node._backward is None or node._id in found:
            continue
        found[node._id] = node
        stack.extend(node._parents)
    return [found[i] for i in sorted(found, reverse=True)]


def _accum(node: Tensor, g: np.ndarray) -> None:
    if node.grad is not None:
        node.grad += g
    elif node._slot is not None:
        # a parameter in an arena: its first gradient lands in its slice
        node._slot[...] = g
        node.grad = node._slot
    else:
        node.grad = g.copy()


def kernel_output(node: Tensor, data: np.ndarray, sink: list) -> Tensor:
    """A second output of a kernel's ``node``, named after its op in debug
    checks.  Its complete gradient goes to ``sink``, and it makes sure the
    node's closure runs (zero-filling its gradient); no cycle is formed."""
    def collect(g):
        sink.append(g)
        if node.grad is None:
            node.grad = np.zeros_like(node.data)

    collect.__qualname__ = getattr(node._backward, "__qualname__", "kernel_output")
    return Tensor._from_op(data, (node,), collect)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient down to the shape the operand had before broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _t_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^T b over the last two axes, the weight gradient of a batched
    product; leading axes broadcast.

    With one row each, 2-d operands form an outer product, which numpy's
    matmul runs through a slow non-BLAS loop; np.dot forms the same single
    products several times faster.
    """
    if a.ndim == 2 and b.ndim == 2 and a.shape[0] == 1:
        return np.dot(a.T, b)
    return np.matmul(a.swapaxes(-1, -2), b)


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x), dtype=dtype)


# -- elementwise arithmetic ---------------------------------------------------


def add(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return Tensor._from_op(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    a_data, b_data = a.data, b.data
    data = a_data * b_data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b_data, a_data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a_data, b_data.shape))

    return Tensor._from_op(data, (a, b), backward)


def div(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    a_data, b_data = a.data, b.data
    data = a_data / b_data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g / b_data, a_data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g * a_data / (b_data * b_data), b_data.shape))

    return Tensor._from_op(data, (a, b), backward)


# -- reductions and rearrangement ----------------------------------------


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old_shape = a.data.shape
    data = np.ascontiguousarray(a.data.reshape(shape))

    def backward(g):
        if a.requires_grad:
            _accum(a, g.reshape(old_shape))

    return Tensor._from_op(data, (a,), backward)


def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)
    in_shape = a.data.shape

    def backward(g):
        if a.requires_grad:
            gg = g if axis is None or keepdims else np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(gg, in_shape).astype(a.data.dtype, copy=True))

    return Tensor._from_op(np.asarray(data), (a,), backward)


def concat(tensors, axis=0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat of an empty list")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = list(itertools.accumulate(sizes, initial=0))

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis if axis >= 0 else g.ndim + axis] = slice(lo, hi)
                _accum(t, g[tuple(idx)])

    return Tensor._from_op(data, tuple(tensors), backward)


def gather_rows(a, indices) -> Tensor:
    """Select entries along the leading axis: (V, ...)[idx (B,)] -> (B, ...).
    Used for embedding lookups and to pick rows of batched decoder state."""
    a = _as_tensor(a)
    if a.data.ndim < 1:
        raise ShapeError("gather_rows needs at least a 1-d input")
    idx = np.asarray(indices, dtype=np.int64)
    data = np.ascontiguousarray(a.data[idx])
    in_shape = a.data.shape

    def backward(g):
        if a.requires_grad:
            full = np.zeros(in_shape, dtype=g.dtype)
            np.add.at(full, idx, g)
            _accum(a, full)

    return Tensor._from_op(data, (a,), backward)


# -- nonlinearities -----------------------------------------------------------


def softmax_forward(x: np.ndarray, axis=-1) -> np.ndarray:
    """Max-shifted softmax of an array; -inf entries get weight 0."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(y: np.ndarray, g: np.ndarray, axis=-1) -> np.ndarray:
    """Gradient of the softmax input, from the output y and its gradient g."""
    return (g - (g * y).sum(axis=axis, keepdims=True)) * y


# -- cell math on arrays ----------------------------------------------------
#
# Forward and backward arithmetic of the LSTM cell and of additive
# attention on plain arrays, which the decoder unit kernel runs.  Each
# backward repeats the products and reductions of the primitive chain in
# order, so a one-step run rounds as the op-composed graph does; a value
# it rebuilds is the forward's expression on the same inputs, same bits.


@dataclass
class LstmParams:
    """Fused-gate LSTM parameters; gate blocks ordered input, forget,
    candidate, output along the last axis of W and b."""

    W: Tensor  # (d_in + d_h, 4*d_h)
    b: Tensor  # (4*d_h,)


# A run's calls.  A run's weights have a leading unit axis, a stack of
# units (one unit is a stack of one), and a call names the units it
# steps, an index into that axis: one unit (an int), or a slice of them
# stepped as a wavefront, where call t steps unit m's step t - m.


def _unit_steps(records: list) -> list[list[tuple]]:
    """Each unit's steps in a run's records, each ending with its call's
    units, in order, as (call, the unit's index into the call's rows)
    pairs, one list per unit."""
    steps = [[] for _ in range(records[-1][-1].stop)]
    for t, (*_, u) in enumerate(records):
        for m in range(u.start, u.stop):
            steps[m].append((t, m - u.start))
    return steps


class LstmRun:
    """A run of LSTM steps over B rows, with weights W (M, d_in + d_h,
    4*d_h) and bias b (M, 4*d_h) of a stack of M units.

    ``forward`` takes the index ``u`` of the units it steps (see the
    run's calls above); rows carry the units' axis before the row axis,
    and a run rounds exactly as one run per unit.  ``forward`` runs the
    next call; ``backward`` runs call t's gradient and must visit the
    calls in reverse; ``param_grads`` then returns the weight and bias
    gradients of all steps of each unit, one GEMM and one sum over its
    rows.  Without ``record`` the run is forward only.

    A recorded call keeps the input parts it was given (the arrays, not
    their concatenation), c, the gates with the candidate in its block,
    and tanh(c').  Call
    t's backward forms that call's gate-gradient factors from them, one
    in place over its gates, and keeps only the parts and the gate
    gradient; ``param_grads`` joins them for its GEMMs, ends the backward
    and lets every record go.
    """

    def __init__(self, W, b, record=True):
        self.W, self.b_row = W, b[..., None, :]
        self.dh = b.shape[-1] // 4
        self.record = record
        self.steps = []     # per call: parts, c, gates and candidate, tanh(c'), units
        self.W_T = None

    def forward(self, parts, c, u):
        """The next call, on the units u, with the joined rows xh =
        [*parts] and the cell state c; returns (h', c').  A recording run
        keeps ``parts``: its arrays must not change before the backward.
        The gate sigmoid may overflow exp: call under
        ``np.errstate(over="ignore")``."""
        dh = self.dh
        z = np.matmul(np.concatenate(parts, axis=-1), self.W[u]) + self.b_row[u]
        gates = 1.0 / (1.0 + np.exp(-z))    # the candidate block goes unused
        i, f, o = gates[..., :dh], gates[..., dh:2 * dh], gates[..., 3 * dh:]
        g = np.tanh(z[..., 2 * dh:3 * dh])
        c2 = f * c + i * g
        tanh_c2 = np.tanh(c2)
        if self.record:
            gates[..., 2 * dh:3 * dh] = g       # the record keeps the candidate there
            self.steps.append((parts, c, gates, tanh_c2, u))
        return o * tanh_c2, c2

    def backward(self, t, g_h, g_c):
        """Gradients of call t from those of its h' and c': returns
        (g_xh, g_c_prev)."""
        dh = self.dh
        parts, c_prev, r, tanh_c, u = self.steps[t]
        if self.W_T is None:
            # over several steps a contiguous copy of W^T multiplies about
            # three times faster on OpenBLAS; one step uses the transposed
            # view, as the reference does (they round apart below 8 rows)
            W_T = self.W.swapaxes(-1, -2)
            one_step = len(self.steps) == len(self.W)
            self.W_T = W_T if one_step else np.ascontiguousarray(W_T)
        # the gate gradient is, block by block, ((p * q) * r) * s with p =
        # [g_c, g_c, g_c, g_h]; r is the gates, the candidate's block
        # replaced in place by its derivative (this call's gates serve
        # nothing else)
        block = slice(2 * dh, 3 * dh)
        cand = r[..., block]
        q = np.concatenate([cand, c_prev, r[..., :dh], tanh_c], axis=-1)
        r[..., block] = 1.0 - cand * cand
        s = 1.0 - r
        s[..., block] = 1.0
        f, o = r[..., dh:2 * dh], r[..., 3 * dh:]
        g_tanh = g_h * o * (1.0 - tanh_c * tanh_c)
        g_c = g_c + g_tanh
        p = np.empty(g_c.shape[:-1] + (4, dh), g_c.dtype)
        p[..., :3, :] = g_c[..., None, :]
        p[..., 3, :] = g_h
        g_z = np.multiply(p.reshape(q.shape), q, out=q)
        g_z *= r
        g_z *= s
        self.steps[t] = (parts, g_z, u)
        return np.matmul(g_z, self.W_T[u]), g_c * f

    def param_grads(self):
        """(g_W, g_b), each a list of one per unit, summed over its steps.
        This ends the backward: the records and the arrays formed for it
        are let go."""
        grads = []
        for steps in _unit_steps(self.steps):
            g_z = np.array([self.steps[t][1][k] for t, k in steps])
            xh = np.empty(g_z.shape[:-1] + self.W.shape[-2:-1],
                          np.result_type(*self.steps[0][0]))
            for row, (t, k) in zip(xh, steps):
                np.concatenate([part[k] for part in self.steps[t][0]], axis=-1, out=row)
            g_z = g_z.reshape(-1, g_z.shape[-1])
            grads.append((_t_matmul(xh.reshape(-1, xh.shape[-1]), g_z), g_z.sum(axis=0)))
        self.steps, self.W_T = [], None
        return tuple(zip(*grads))


class AttentionRun:
    """A run of additive-attention queries over one set of values.

    The values v (..., B, N, d_v) are attended with C-contiguous W_v^T
    (M, ..., d_v, d_a) and W_h^T (M, ..., d_c, d_a) and the score vector
    wa (M, ..., d_a); the values' leading axes stack independent heads
    that share the query, and a stacked run rounds exactly as one run per
    head.  The weights' leading axis stacks M units, each with heads of
    its own over the same values, which a call indexes by the units it
    steps, as ``LstmRun`` does.  A boolean (B, N) mask gives padded
    regions a score of -inf.  The keys v W_v^T (M, ..., B, N, d_a) of
    every unit are computed at once, per run; ``forward`` takes the next
    call's query rows, ``backward`` call t's gradients (calls in
    reverse), and ``grads`` returns the gradients of the values and the
    weights summed over all steps, per unit.  Without ``record``, or with
    values of one scene for many query rows, the run is forward only.

    A recorded call keeps its query rows, their projection q (..., B, 1,
    d_a), alpha and its units, not the N times larger tanh(keys + q):
    ``backward`` rebuilds that for its call and replaces alpha in the
    record with the score and query-projection gradients, and ``grads``
    rebuilds it for all steps of a unit at once, which ends the backward
    and lets every record go.  The value and key gradients are sums over
    the steps of each unit, which a recording run makes at the start.
    """

    def __init__(self, v, Wv_T, Wh_T, wa, mask=None, record=True):
        *lead, b, n, d_v = v.shape
        self.lead = tuple(lead)
        self.per_head = (..., *[None] * len(lead), slice(None), slice(None))  # a query's rows
        self.v, self.Wv_T, self.Wh_T, self.wa, self.mask = v, Wv_T, Wh_T, wa, mask
        self.v2 = v.reshape(self.lead + (b * n, d_v))
        self.keys = np.matmul(self.v2, Wv_T).reshape(
            Wv_T.shape[:-2] + (b, n, Wv_T.shape[-1]))
        self.wa_col = wa[..., None]
        self.wa_row = wa[..., None, :]
        self.record = record
        self.steps = []     # per call: query rows, q, alpha, units
        self.g_direct = self.g_pre = None
        if record:
            # sums over the steps of each unit, from -0.0: adding it keeps
            # the first step's bits, negative zeros included
            units = Wv_T.shape[:1]
            self.g_direct = np.full(units + v.shape, -0.0, v.dtype)
            self.g_pre = np.full(units + self.lead + (b * n, Wv_T.shape[-1]), -0.0,
                                 self.keys.dtype)

    def _t2(self, q, u):
        """tanh(keys + q) of one call, the B*N rows of each head on one axis."""
        t2 = np.tanh(self.keys[u] + q)
        return t2.reshape(t2.shape[:-3] + (-1, t2.shape[-1]))

    def forward(self, q_in, u):
        """The next call, on the units u, for the queries q_in (..., B,
        d_c): returns (alpha (..., B, N), attended (..., B, d_v)), the
        heads' axes before the row axis."""
        b, n = q_in.shape[-2], self.keys.shape[-2]
        q = np.matmul(q_in[self.per_head], self.Wh_T[u])[..., None, :]
        t2 = self._t2(q, u)
        scores = np.matmul(t2, self.wa_col[u]).reshape(t2.shape[:-2] + (b, n))
        if self.mask is not None:
            scores = np.where(self.mask, scores, -np.inf)
        alpha = softmax_forward(scores)
        if self.record:
            self.steps.append((q_in, q, alpha, u))
        return alpha, (alpha[..., None] * self.v).sum(axis=-2)

    def backward(self, t, g_alpha, g_att):
        """Gradients of call t from those of alpha (None when alpha has no
        consumer) and of the attended rows; returns the query gradient of
        each head (..., B, d_c)."""
        q_in, q, alpha, u = self.steps[t]
        t2 = self._t2(q, u)
        g_alpha_in = (g_att[..., None, :] * self.v).sum(axis=-1)
        g_alpha = g_alpha_in if g_alpha is None else g_alpha + g_alpha_in
        g_scores = softmax_backward(alpha, g_alpha).reshape(t2.shape[:-1] + (1,))
        g_pre = g_scores * self.wa_row[u] * (1.0 - t2 * t2)
        g_q = g_pre.reshape(alpha.shape + g_pre.shape[-1:]).sum(axis=-2)
        self.steps[t] = (q_in, q, g_scores, g_q, u)       # what the weight gradients read
        self.g_direct[u] += g_att[..., None, :] * alpha[..., None]
        self.g_pre[u] += g_pre
        return np.matmul(g_q, self.Wh_T[u].swapaxes(-1, -2))

    def grads(self):
        """(g_v through the weighted sum, g_v through the keys, g_W_v,
        g_W_h, g_w_a), each a list of one per unit, summed over its steps.
        The values are shared by all steps, so the key path uses the summed
        key gradient.  This ends the backward: the records and the arrays
        formed for it go."""
        lead = len(self.lead)
        grads = []
        for m, steps in enumerate(_unit_steps(self.steps)):
            Wv_T, g_pre = self.Wv_T[m], self.g_pre[m]

            def rows(field, axis=0):
                return np.stack([self.steps[t][field][k] for t, k in steps], axis=axis)

            # tanh(keys + q) of all steps, head-major in one buffer: (..., T*B*N, d_a)
            t2 = np.add(np.expand_dims(self.keys[m], lead), rows(1, lead))
            t2 = np.tanh(t2, out=t2).reshape(self.lead + (-1, t2.shape[-1]))
            # each head's rows of all steps: (..., T*B, d_a) and (..., T*B*N, 1)
            g_q, g_scores = (a.reshape(self.lead + (-1, a.shape[-1]))
                             for a in (rows(3, lead), rows(2, lead)))
            q_in = rows(0)
            grads.append((
                self.g_direct[m],
                np.matmul(g_pre, Wv_T.swapaxes(-1, -2)).reshape(self.v.shape),
                _t_matmul(self.v2, g_pre).swapaxes(-1, -2),
                _t_matmul(q_in.reshape(-1, q_in.shape[-1]), g_q).swapaxes(-1, -2),
                np.matmul(t2.swapaxes(-1, -2), g_scores)[..., 0]))
        self.steps = []
        self.g_direct = self.g_pre = None
        return tuple(zip(*grads))


def masked_nll(p, gold, mask=None, eps: float = 1e-12) -> Tensor:
    """Fused masked negative log-likelihood of the gold columns of a
    (B, V) distribution: -sum_b mask_b * log(max(p[b, gold_b], eps)).
    ``mask`` defaults to all ones; its entries may be any weights."""
    p = _as_tensor(p)
    p_d = p.data
    if p_d.ndim != 2:
        raise ShapeError(f"masked_nll expects a 2-d distribution, got shape {p_d.shape}")
    rows = np.arange(p_d.shape[0])
    idx = np.asarray(gold, dtype=np.int64)
    picked = p_d[rows, idx]
    clamped = np.maximum(picked, eps)
    weight = np.ones_like(picked) if mask is None else np.asarray(mask, dtype=p_d.dtype)
    terms = np.log(clamped) * weight
    data = np.asarray(-terms.sum())

    def backward(g):
        if p.requires_grad:
            full = np.zeros_like(p_d)
            full[rows, idx] = -g * weight / clamped * (picked >= eps)
            _accum(p, full)

    return Tensor._from_op(data, (p,), backward)


# -- RNG ------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# the same constants and shift counts as uint64 scalars, for the array path
_GOLDEN_U, _MIX1_U, _MIX2_U = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)
_S11, _S27, _S30, _S31 = (np.uint64(k) for k in (11, 27, 30, 31))


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """A ``math`` function over every element, in float64: libm's rounding,
    which the scalar draws have and numpy's versions do not always match."""
    return np.fromiter(map(fn, x.tolist()), np.float64, x.size)


class Rng:
    """SplitMix64 stream with Box-Muller gaussians.

    Pure integer arithmetic, so sequences are identical on every platform.
    The stream is counter-based: after n draws the state is
    seed + n * GOLDEN mod 2**64, and draw n mixes that state.  So the
    array methods (``uniform_array``, ``normal``, ``gumbel_array``) compute
    a whole block of draws in a few uint64 numpy operations, and give
    exactly the values of the scalar methods called once per element in
    row-major order, leaving exactly the state those calls would.

    A gaussian comes from a Box-Muller pair of draws through libm's
    ``math.log``, ``math.cos`` and ``math.sin``.  The pair's second value
    waits in a cache for the next gaussian; ``normal`` consumes a waiting
    one first and, for a count that leaves its last pair half used,
    caches the rest as ``gauss`` would.  The state snapshot includes the
    cache.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._gauss_cache: float | None = None

    def u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def _draws(self, n: int) -> np.ndarray:
        """The next ``n`` draws, (n,) uint64; ``>> _S11`` keeps the top 53 bits."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z *= _GOLDEN_U
            z += np.uint64(self._state)
            z ^= z >> _S30
            z *= _MIX1_U
            z ^= z >> _S27
            z *= _MIX2_U
            z ^= z >> _S31
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return z

    def uniform(self) -> float:
        """Uniform draw in [0, 1)."""
        return (self.u64() >> 11) * 2.0**-53

    def gauss(self) -> float:
        if self._gauss_cache is not None:
            z = self._gauss_cache
            self._gauss_cache = None
            return z
        u1 = ((self.u64() >> 11) + 1) * 2.0**-53  # (0, 1], keeps log finite
        u2 = (self.u64() >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        self._gauss_cache = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def randint(self, n: int) -> int:
        if n <= 0:
            raise ValueError(f"randint bound must be positive, got {n}")
        return self.u64() % n

    def shuffle(self, items: list) -> None:
        """Fisher-Yates: for i = n-1 .. 1 swap items i and ``randint(i + 1)``."""
        bounds = np.arange(len(items), 1, -1, dtype=np.uint64)     # i + 1, one block of draws
        picks = (self._draws(len(bounds)) % bounds).tolist()
        for i, j in zip(range(len(items) - 1, 0, -1), picks):
            items[i], items[j] = items[j], items[i]

    def uniform_array(self, shape, low, high, dtype=FLOAT32) -> np.ndarray:
        """``uniform`` per element, scaled to [low, high).  A 53-bit
        integer converts to float64 exactly, so the values are the scalar
        ones."""
        out = (self._draws(int(np.prod(shape))) >> _S11) * 2.0**-53
        return (low + (high - low) * out).reshape(shape).astype(dtype)

    def normal(self, shape, scale=1.0, dtype=FLOAT32) -> np.ndarray:
        """``gauss`` per element, times ``scale``."""
        n = int(np.prod(shape))
        head = int(n > 0 and self._gauss_cache is not None)
        out = np.empty(n + 1)          # room for a half-used pair's sine
        if head:
            out[0], self._gauss_cache = self._gauss_cache, None
        bits = (self._draws(2 * ((n - head + 1) // 2)) >> _S11).astype(np.float64)
        u1 = (bits[0::2] + 1.0) * 2.0**-53  # (0, 1], keeps log finite
        angle = 2.0 * math.pi * (bits[1::2] * 2.0**-53)
        r = np.sqrt(-2.0 * _libm(math.log, u1))
        end = head + bits.size
        out[head:end:2] = r * _libm(math.cos, angle)
        out[head + 1:end:2] = r * _libm(math.sin, angle)
        if end > n:
            self._gauss_cache = float(out[n])
        return (scale * out[:n]).reshape(shape).astype(dtype)

    def gumbel_array(self, shape, dtype=FLOAT32) -> np.ndarray:
        """Standard Gumbel draws, -log(-log(u)) with u strictly inside
        (0, 1), one draw per element."""
        u = ((self._draws(int(np.prod(shape))) >> _S11).astype(np.float64) + 0.5) * 2.0**-53
        return (-_libm(math.log, -_libm(math.log, u))).reshape(shape).astype(dtype)

    def get_state(self):
        return [self._state, self._gauss_cache]

    def set_state(self, state) -> None:
        self._state = int(state[0]) & _MASK64
        self._gauss_cache = None if state[1] is None else float(state[1])

    def derive(self, tag: int) -> "Rng":
        """An independent child stream; deterministic in (state, tag)."""
        return Rng(_mix64((self._state ^ (tag & _MASK64)) + _GOLDEN & _MASK64))


# -- parameter initialization ---------------------------------------------


def xavier_uniform(rng: Rng, shape, fan_in: int, fan_out: int, dtype=FLOAT32) -> Tensor:
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform_array(shape, -a, a, dtype=dtype), requires_grad=True)


def zeros(shape, dtype=FLOAT32, requires_grad=False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def make_lstm_params(rng: Rng, d_in: int, d_h: int, dtype=FLOAT32) -> LstmParams:
    W = xavier_uniform(rng, (d_in + d_h, 4 * d_h), d_in + d_h, 4 * d_h, dtype=dtype)
    b = np.zeros(4 * d_h, dtype=dtype)
    b[d_h : 2 * d_h] = 1.0  # forget-gate bias starts open
    return LstmParams(W=W, b=Tensor(b, requires_grad=True))


# -- parameter arena, Adam and clipping -----------------------------------------


class ParamArena:
    """Named parameters laid end to end in flat buffers of their dtype, and
    the one writer of their values.

    ``data`` holds the values and ``grad`` the gradients, in the order of
    the dict the arena is built from (``named_parameters`` order for a
    model, whose arena ``CaptionModel`` builds once).  Each parameter's
    ``data``, and its ``grad`` once backward reaches it, are views of its
    slice, so work over the whole set is one numpy call per buffer instead
    of one per parameter.

    Values change only through ``rebind`` (Adam's step) and ``assign``
    (a checkpoint load, probes): a fresh buffer, and a bump of the
    class-wide ``version`` that caches of weight values key on.  Setting
    a held parameter's ``data`` raises, naming it; Adam's step refuses a
    ``grad`` set behind the arena's back.
    """

    SCRATCH = 1 << 18   # bytes of working space, lent to clipping and Adam in turn
    version = 0         # bumped by every write of any arena's values

    def __init__(self, params: dict[str, Tensor]):
        self.names = tuple(params)
        self.tensors = tuple(params.values())
        dtypes = {p.data.dtype for p in self.tensors}
        if len(dtypes) != 1:
            raise TypeError("an arena holds parameters of one dtype, got "
                            + (", ".join(sorted(d.name for d in dtypes)) or "no parameters"))
        ends = list(itertools.accumulate(p.data.size for p in self.tensors))
        self.bounds = tuple(zip([0] + ends[:-1], ends))
        self.grad = np.zeros(ends[-1], dtype=dtypes.pop())
        self.grads = self.views_of(self.grad)
        self.scratch = np.empty(max(self.SCRATCH, 8 * max(hi - lo for lo, hi in self.bounds)),
                                dtype=np.uint8)
        # runs of whole parameters whose float64 squares fit the scratch
        self.square_runs = []
        for i, (lo, hi) in enumerate(self.bounds):
            if self.square_runs and 8 * (hi - self.square_runs[-1][0]) <= self.scratch.size:
                self.square_runs[-1][1] = hi
                self.square_runs[-1][2].append(i)
            else:
                self.square_runs.append([lo, hi, [i]])
        self.rebind(np.concatenate([p.data.ravel() for p in self.tensors]))
        for name, p, grad, (lo, _) in zip(self.names, self.tensors, self.grads, self.bounds):
            p.__class__, p._slot, p._name, p._lo = _Held, grad, name, lo

    def views_of(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """Each parameter's slice of a flat buffer of this layout, in its shape."""
        return tuple(flat[lo:hi].reshape(p.data.shape)
                     for p, (lo, hi) in zip(self.tensors, self.bounds))

    def rebind(self, data: np.ndarray) -> None:
        """Make ``data`` the values: every parameter's ``data`` becomes a view
        of its slice.  The buffer owns its memory (``stacked`` reads a
        view's base as the buffer)."""
        self.data = data if data.base is None else data.copy()
        self.views = self.views_of(data)
        for p, view in zip(self.tensors, self.views):
            _DATA.__set__(p, view)
        ParamArena.version += 1

    def assign(self, values: dict) -> None:
        """Set the named parameters' values, in a fresh buffer that keeps the rest."""
        data = self.data.copy()
        views = dict(zip(self.names, self.views_of(data)))
        for name, value in values.items():
            if np.shape(value) != views[name].shape:
                raise ShapeError(f"parameter {name!r} has shape {views[name].shape}, "
                                 f"got {np.shape(value)}")
            views[name][...] = value
        self.rebind(data)

    def square_sums(self) -> list:
        """Per parameter, the float64 sum of the squares of its gradient, the
        value of ``np.sum(g.astype(np.float64) ** 2)``; None where ``grad``
        is None.  numpy sums a contiguous array as one run whatever its
        shape, so the flat slice of the squares gives the same bits."""
        sums = [None] * len(self.tensors)
        for lo, hi, members in self.square_runs:
            squares = self.scratch.view(FLOAT64)[:hi - lo]
            np.square(self.grad[lo:hi], out=squares, dtype=FLOAT64)
            for i in members:
                if self.tensors[i].grad is not None:
                    a, b = self.bounds[i]
                    sums[i] = float(np.add.reduce(squares[a - lo:b - lo]))
        return sums


def stacked(params) -> np.ndarray:
    """The values of equal-shaped parameters along a new leading axis: a
    view of their arena's values where it holds them one stride apart, as
    a model's arena does each weight of its decoder units, else a copy."""
    first = params[0]
    data = first.data
    if type(first) is _Held:
        lo = first._lo
        stride = (params[-1]._lo - lo) // max(len(params) - 1, 1)
        for m, p in enumerate(params):
            if not (type(p) is _Held and p._lo == lo + m * stride and p.data.base is data.base
                    and p.data.shape == data.shape):
                break
        else:
            return np.ndarray((len(params),) + data.shape, data.dtype, data.base,
                              lo * data.itemsize, (stride * data.itemsize,) + data.strides)
    return np.stack([p.data for p in params])


def _non_finite(names) -> TrainingError:
    return TrainingError(f"non-finite gradient for parameter{'s' * (len(names) > 1)} "
                         + ", ".join(f"'{name}'" for name in names))


@dataclass
class AdamState:
    """One parameter's moments (views of the optimizer's flat buffers once
    it has stepped) and its step count."""

    m: np.ndarray
    v: np.ndarray
    t: int


class Adam:
    """Bias-corrected Adam (Kingma & Ba, arXiv:1412.6980) over a ParamArena.

    ``state`` maps every parameter that has been updated to its AdamState.
    A parameter whose ``grad`` is None is skipped: no update, no state, no
    step.  The moments live in flat buffers laid out like the arena and are
    updated in place; the values go to a fresh buffer (see ``Tensor``).
    States set from outside, a restored checkpoint's, are copied into the
    flat buffers on the next step.

    Each element goes through the arithmetic of a per-parameter update,
    with the same Python-float scalars cast to the buffer dtype, so the
    bits do not depend on the layout.  Parameters with different step
    counts form separate stretches, each with its own bias correction.
    """

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.state: dict[str, AdamState] = {}
        self._arena = None

    def _moments(self, arena: ParamArena) -> None:
        """Lay the flat moments out for ``arena`` and copy in every state
        that does not hold views of them."""
        if arena is not self._arena:
            self._arena = arena
            self._m, self._v = np.zeros_like(arena.grad), np.zeros_like(arena.grad)
            self._ms, self._vs = arena.views_of(self._m), arena.views_of(self._v)
        for name, m, v in zip(arena.names, self._ms, self._vs):
            st = self.state.get(name)
            if st is not None and (st.m is not m or st.v is not v):
                m[...] = st.m
                v[...] = st.v
                st.m, st.v = m, v

    def step(self, arena: ParamArena, lr: float) -> None:
        self._moments(arena)
        stepping = []     # (index, step count after this update)
        runs = []         # [lo, hi, t]: adjacent parameters with the same count
        for i, (name, p) in enumerate(zip(arena.names, arena.tensors)):
            if p.grad is not None and p.grad is not arena.grads[i]:
                raise RuntimeError(f"parameter '{name}' was rebound behind its arena; "
                                   "write values with ParamArena.assign")
            if p.grad is None:
                continue
            st = self.state.get(name)
            t = (0 if st is None else st.t) + 1
            stepping.append((i, t))
            lo, hi = arena.bounds[i]
            if runs and runs[-1][1] == lo and runs[-1][2] == t:
                runs[-1][1] = hi
            else:
                runs.append([lo, hi, t])
        g = arena.grad
        if not all(np.isfinite(g[lo:hi]).all() for lo, hi, _ in runs):
            raise _non_finite(sorted(arena.names[i] for i, _ in stepping
                                     if not np.isfinite(arena.grads[i]).all()))
        for i, t in stepping:
            st = self.state.get(arena.names[i])
            if st is None:
                m, v = self._ms[i], self._vs[i]
                m[...] = 0.0
                v[...] = 0.0
                st = self.state[arena.names[i]] = AdamState(m=m, v=v, t=0)
            st.t = t
        old, new = arena.data, np.empty_like(arena.data)
        scratch = arena.scratch.view(g.dtype)       # one stretch at most this long
        done = 0
        for lo, hi, t in runs:
            new[done:lo] = old[done:lo]      # parameters without a gradient
            for a in range(lo, hi, scratch.size):
                b = min(a + scratch.size, hi)
                self._update(old[a:b], g[a:b], self._m[a:b], self._v[a:b], new[a:b],
                             scratch[:b - a], t, lr)
            done = hi
        new[done:] = old[done:]
        arena.rebind(new)

    def _update(self, p, g, m, v, out, tmp, t, lr) -> None:
        """One stretch: m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*g*g in
        place, then out = p - lr*(m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps)."""
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=tmp)
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(v, 1.0 - self.beta2**t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        np.divide(m, 1.0 - self.beta1**t, out=out)
        out *= lr
        out /= tmp
        np.subtract(p, out, out=out)


def clip_global_norm(arena: ParamArena, max_norm: float) -> float:
    """Scale the gradients of ``arena`` so their joint L2 norm is at most
    ``max_norm``; returns the norm before clipping.

    The norm adds up float64 sums of squares per parameter, in name order;
    the scaling is one multiplication of the arena's gradient buffer.  A
    gradient with a NaN or infinite entry raises ``TrainingError`` naming
    every such parameter, before any gradient is scaled.
    """
    sums = dict(zip(arena.names, arena.square_sums()))
    total = 0.0
    for name in sorted(sums):
        if sums[name] is not None:
            total += sums[name]
    if not math.isfinite(total):
        bad = sorted(name for name, p in zip(arena.names, arena.tensors)
                     if p.grad is not None and not np.all(np.isfinite(p.grad)))
        if bad:
            raise _non_finite(bad)
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        arena.grad *= arena.grad.dtype.type(max_norm / norm)
    return norm


# -- numerical gradient oracle ---------------------------------------------


def finite_diff_grad(f, x: Tensor, eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar function at x (64-bit only)."""
    if x.data.dtype != FLOAT64:
        raise ValueError("finite_diff_grad requires a float64 tensor")
    base = x.data.copy()
    grad = np.zeros_like(base)
    for idx in np.ndindex(base.shape):
        for sign in (+1.0, -1.0):
            probe = base.copy()
            probe[idx] += sign * eps
            with no_grad():
                val = f(Tensor(probe, dtype=FLOAT64))
            grad[idx] += sign * (val.item() if isinstance(val, Tensor) else float(val))
        grad[idx] /= 2.0 * eps
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a-n| / max(|a|, |n|, 1e-3): relative for healthy magnitudes,
    effectively absolute (scaled by 1e3) for near-zero gradients."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - n) / denom))
