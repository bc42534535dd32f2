"""Fused ops against the same math built from primitive ops, in float64.

``masked_nll`` is a library stage (``reference.masked_nll`` is its node);
the fused attention and weighted concat
are the reference decoder's (``tests/reference.py``), built on the array
helpers the unit kernel runs.  ``reference.kernel_lstm_cell`` is the
unit kernel's ``LstmRun`` behind one autodiff node; the LSTM composed of
primitives is ``reference.lstm_cell``, which the reference decoder unit
steps on, so the unit kernel's tests hold its LSTMs to an independent
oracle too."""

import numpy as np
import pytest

from modcap import tensor as T
from modcap.config import ModelConfig
from modcap.decoder import CaptionModel, beam_search, greedy_decode, unit_kernel
from modcap.tensor import Rng
from reference import (
    Node,
    additive_attention,
    clamp_min,
    concat,
    forced,
    kernel_lstm_cell,
    log,
    lstm_cell,
    masked_nll,
    matmul,
    pick,
    reshape,
    slice_axis,
    softmax,
    sum_,
    tanh,
    transpose,
    weighted_concat,
)

F64 = np.float64
TOL = 1e-10


def reference_attention(values, query, W_v, W_h, w_a):
    single = values.ndim == 2
    if single:
        values = reshape(values, (1,) + values.shape)
        query = reshape(query, (1, -1))
    b, n, d_v = values.shape
    d_a = w_a.shape[0]
    keys = reshape(matmul(reshape(values, (-1, d_v)), transpose(W_v)), (b, n, d_a))
    q = reshape(matmul(query, transpose(W_h)), (b, 1, d_a))
    scores = reshape(matmul(reshape(tanh(keys + q), (-1, d_a)), w_a), (b, n))
    alpha = softmax(scores, axis=-1)
    attended = sum_(reshape(alpha, (b, n, 1)) * values, axis=1)
    if single:
        alpha, attended = reshape(alpha, (-1,)), reshape(attended, (-1,))
    return alpha, attended


def leaves(rs, *shapes, dtype=F64):
    return [Node(rs.uniform(-1, 1, shape).astype(dtype), requires_grad=True, dtype=dtype)
            for shape in shapes]


def outputs_and_grads(op, inputs, weights):
    """Values of op's outputs, and the gradient of sum_k (w_k * out_k)
    with respect to every input."""
    for t in inputs:
        t.grad = None
    outs = op(*inputs)
    loss = None
    for out, w in zip(outs, weights):
        term = (out * Node(w, dtype=out.data.dtype)).sum()
        loss = term if loss is None else loss + term
    loss.backward()
    return [o.data.copy() for o in outs], [t.grad.copy() for t in inputs]


def assert_same(fused, reference, inputs, weights):
    got_out, got_grad = outputs_and_grads(fused, inputs, weights)
    want_out, want_grad = outputs_and_grads(reference, inputs, weights)
    for got, want in zip(got_out + got_grad, want_out + want_grad):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL)


@pytest.mark.parametrize("batch", [None, 1, 3])
def test_lstm_cell_matches_primitives(batch):
    rs = np.random.RandomState(batch or 0)
    lead = (batch,) if batch else ()
    inputs = leaves(rs, lead + (5,), lead + (4,), lead + (4,), (9, 16), (16,))
    weights = [rs.randn(*lead, 4), rs.randn(*lead, 4)]
    assert_same(kernel_lstm_cell, lstm_cell, inputs, weights)


@pytest.mark.parametrize("batch", [None, 1, 3])
def test_additive_attention_matches_primitives(batch):
    rs = np.random.RandomState(10 + (batch or 0))
    lead = (batch,) if batch else ()
    inputs = leaves(rs, lead + (6, 4), lead + (3,), (5, 4), (5, 3), (5,))
    weights = [rs.randn(*lead, 6), rs.randn(*lead, 4)]
    assert_same(additive_attention, reference_attention, inputs, weights)


def test_masked_nll_matches_primitives():
    rs = np.random.RandomState(20)
    gold = np.array([3, 0, 4, 4])
    mask = np.array([1.0, 0.0, 1.0, 1.0])
    probs = rs.uniform(0.01, 1.0, (4, 5))
    probs[2, 4] = 1e-20                        # below the clamp floor
    p = Node(probs, requires_grad=True, dtype=F64)

    def reference(p):
        return ((log(clamp_min(pick(p, gold), 1e-12)) * Node(-mask, dtype=F64)).sum(),)

    assert_same(lambda p: (masked_nll(p, gold, mask),), reference, [p], [1.5])
    assert p.grad[1].tolist() == [0.0] * 5     # masked row
    assert p.grad[2, 4] == 0.0                 # clamped entry

    # unmasked form (the word-class supervision of the controller weights;
    # its values are checked in test_controller.TestLinguisticLoss)
    w = Node(np.array([[0.25] * 4, [0.97, 0.01, 0.01, 0.01], [1.0, 0.0, 0.0, 0.0]]),
               requires_grad=True, dtype=F64)
    labels = [1, 0, 3]
    assert_same(lambda w: (masked_nll(w, labels),),
                lambda w: ((log(clamp_min(pick(w, labels), 1e-12)) * -1.0).sum(),), [w], [1.0])


def test_masked_nll_forward_is_bitwise_in_float32():
    rs = np.random.RandomState(21)
    p = Node(rs.uniform(0, 1, (6, 9)).astype(np.float32))
    gold = rs.randint(0, 9, 6)
    mask = np.array([1, 1, 0, 1, 0, 1], dtype=np.float32)
    want = (log(clamp_min(pick(p, gold), 1e-12)) * Node(-mask)).sum()
    assert masked_nll(p, gold, mask).data.tobytes() == want.data.tobytes()


def test_weighted_concat_matches_primitives():
    rs = np.random.RandomState(30)
    inputs = leaves(rs, (3, 4), (3, 2), (3, 2), (3, 2), (3, 2))

    def reference(w, *parts):
        return (concat([slice_axis(w, 1, k, k + 1) * p for k, p in enumerate(parts)],
                       axis=-1),)

    assert_same(lambda w, *parts: (weighted_concat(w, parts),), reference, inputs,
                [rs.randn(3, 8)])


class TestDebugChecksNameTheOp:
    @pytest.fixture(autouse=True)
    def debug_checks(self):
        T.set_debug_checks(True)
        yield
        T.set_debug_checks(False)

    def test_lstm_cell(self):
        x = Node([np.nan, 0.0])
        W = Node(np.ones((3, 4)))
        with pytest.raises(FloatingPointError, match="^kernel_lstm_cell produced"):
            kernel_lstm_cell(x, Node([0.0]), Node([0.0]), W, Node(np.zeros(4)))

    def test_additive_attention(self):
        values = Node(np.full((2, 3), np.nan))
        with pytest.raises(FloatingPointError, match="additive_attention"):
            additive_attention(values, Node(np.zeros(2)), Node(np.ones((4, 3))),
                               Node(np.ones((4, 2))), Node(np.ones(4)))

    def test_primitive(self):
        with pytest.raises(FloatingPointError, match="^div produced"), \
                np.errstate(divide="ignore"):
            Node([1.0]) / Node([0.0])

    @staticmethod
    def tiny_model():
        cfg = ModelConfig(vocab_size=7, d_r=4, d_v=3, d_a=2, heads=2, m_units=1)
        model = CaptionModel(cfg, Rng(0))
        enc = model.encode(np.ones((3, 4), dtype=np.float32), np.ones((3, 4), dtype=np.float32))
        return model, enc

    def test_unit_kernel(self):
        model, enc = self.tiny_model()
        unit = model.units[0]
        i_prev = np.full((1, 1, 3), np.nan, dtype=np.float32)
        with pytest.raises(FloatingPointError, match="^unit_kernel produced"):
            unit_kernel([unit], i_prev, enc)

    @pytest.mark.parametrize("decode", [lambda m, e: greedy_decode(m, e, 4),
                                        lambda m, e: beam_search(m, e, 3, 4)],
                             ids=["greedy", "beam"])
    def test_forward_only_decoders(self, decode):
        # a NaN word vector is the first unit's input
        model, enc = self.tiny_model()
        model.arena.assign({"embed.W": np.full_like(model.embed.data, np.nan)})
        with pytest.raises(FloatingPointError, match="^unit_kernel produced"):
            decode(model, enc)

    @pytest.mark.parametrize("run", [lambda m, e: forced(m, [[1, 2, 3]], e),
                                     lambda m, e: greedy_decode(m, e, 4)],
                             ids=["forced", "greedy"])
    def test_word_head(self, run):
        # teacher forcing (with gradients) and decoding score words through
        # one head, which names itself
        model, enc = self.tiny_model()
        model.arena.assign({"head.W": np.full_like(model.head.W.data, np.nan)})
        with pytest.raises(FloatingPointError, match="^word_head produced"):
            run(model, enc)


def test_float32_values_and_gradients_are_bitwise():
    # the fused backward repeats the primitive chain's arithmetic in order
    rs = np.random.RandomState(40)
    cases = [
        (kernel_lstm_cell, lstm_cell, ((3, 5), (3, 4), (3, 4), (9, 16), (16,)), ((3, 4),) * 2),
        (additive_attention, reference_attention,
         ((3, 6, 4), (3, 3), (5, 4), (5, 3), (5,)), ((3, 6), (3, 4))),
    ]
    for fused, reference, shapes, out_shapes in cases:
        inputs = leaves(rs, *shapes, dtype=np.float32)
        weights = [rs.randn(*shape) for shape in out_shapes]
        got = outputs_and_grads(fused, inputs, weights)
        want = outputs_and_grads(reference, inputs, weights)
        for a, b in zip(got[0] + got[1], want[0] + want[1]):
            assert a.dtype == np.float32 and a.tobytes() == b.tobytes()
