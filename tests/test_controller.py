"""Module controller: attention, weight strategies, fusion, word-class loss.

A model keeps the weights of its heads and controllers in each decoder
unit's table (``DecoderUnit.weights``).  The lone heads and controllers
tested here come from the test-local holders of ``tests/reference.py``,
which draw them as a unit does, and run on the reference decoder's
op-composed arithmetic, which the unit kernel agrees with bit for bit."""

import logging
import math

import numpy as np
import pytest

from modcap.controller import ModuleLabel, Strategy, pos_to_module_label
from modcap.errors import ShapeError
from modcap.tensor import (
    Rng,
    Tensor,
    finite_diff_grad,
    masked_nll,
    max_relative_error,
)
from modcap.training import LOSS_EPS
from reference import (
    AdditiveAttention,
    ControllerState,
    ModuleController,
    attend,
    controller_step,
    fuse,
    softmax,
    straight_through,
)

F64 = np.float64


def make_attention(seed, d_v=4, d_c=3, d_a=5, dtype=np.float32):
    return AdditiveAttention.draw(d_v, d_c, d_a, Rng(seed), dtype=dtype)


class TestAdditiveAttention:
    def test_alpha_is_distribution(self):
        np.random.seed(0)
        att = make_attention(0)
        for _ in range(20):
            v = np.random.randn(np.random.randint(1, 7), 4).astype(np.float32)
            h = np.random.randn(3).astype(np.float32)
            alpha, _ = attend(att, Tensor(v), Tensor(h))
            assert np.all(alpha.data >= 0)
            assert abs(alpha.data.sum() - 1.0) < 1e-6

    def test_attended_in_convex_hull(self):
        np.random.seed(1)
        att = make_attention(1)
        v = np.random.randn(6, 4).astype(np.float32)
        h = np.random.randn(3).astype(np.float32)
        _, out = attend(att, Tensor(v), Tensor(h))
        assert np.all(out.data <= v.max(axis=0) + 1e-6)
        assert np.all(out.data >= v.min(axis=0) - 1e-6)

    def test_value_permutation_invariance(self):
        np.random.seed(2)
        att = make_attention(2, dtype=F64)
        v = np.random.randn(5, 4)
        h = np.random.randn(3)
        perm = np.array([4, 0, 3, 1, 2])
        a1, o1 = attend(att, Tensor(v, dtype=F64), Tensor(h, dtype=F64))
        a2, o2 = attend(att, Tensor(v[perm], dtype=F64), Tensor(h, dtype=F64))
        assert np.allclose(o1.data, o2.data, atol=1e-12)
        assert np.allclose(a1.data[perm], a2.data, atol=1e-12)

    def test_identical_rows_uniform(self):
        att = make_attention(3, dtype=F64)
        v = np.repeat(np.random.RandomState(0).randn(1, 4), 5, axis=0)
        h = np.random.RandomState(1).randn(3)
        alpha, out = attend(att, Tensor(v, dtype=F64), Tensor(h, dtype=F64))
        assert np.allclose(alpha.data, 0.2, atol=1e-12)
        assert np.allclose(out.data, v[0], atol=1e-12)

    def test_single_region_weight_one(self):
        att = make_attention(4)
        v = np.random.RandomState(2).randn(1, 4).astype(np.float32)
        alpha, out = attend(att, Tensor(v), Tensor(np.zeros(3, dtype=np.float32)))
        assert np.allclose(alpha.data, [1.0])
        assert np.allclose(out.data, v[0], atol=1e-6)

    def test_empty_value_set_rejected(self):
        att = make_attention(5)
        with pytest.raises(ValueError):
            attend(att, Tensor(np.zeros((0, 4), dtype=np.float32)),
                   Tensor(np.zeros(3, dtype=np.float32)))

    def test_batched_matches_single(self):
        np.random.seed(3)
        att = make_attention(6, dtype=F64)
        v = np.random.randn(3, 4, 4)
        h = np.random.randn(3, 3)
        alpha, out = attend(att, Tensor(v, dtype=F64), Tensor(h, dtype=F64))
        for b in range(3):
            a1, o1 = attend(att, Tensor(v[b], dtype=F64), Tensor(h[b], dtype=F64))
            assert np.allclose(alpha.data[b], a1.data, atol=1e-12)
            assert np.allclose(out.data[b], o1.data, atol=1e-12)

    def test_gradcheck(self):
        att = make_attention(7, dtype=F64)
        v0 = np.random.RandomState(4).randn(4, 4)
        h0 = np.random.RandomState(5).randn(3)

        def f(v, h):
            alpha, out = attend(att, v, h)
            return (out * out).sum() + alpha.sum() * 0.5

        v = Tensor(v0, requires_grad=True, dtype=F64)
        h = Tensor(h0, requires_grad=True, dtype=F64)
        f(v, h).backward()
        gv = finite_diff_grad(lambda x: f(x, Tensor(h0, dtype=F64)), Tensor(v0, dtype=F64))
        gh = finite_diff_grad(lambda x: f(Tensor(v0, dtype=F64), x), Tensor(h0, dtype=F64))
        assert max_relative_error(v.grad, gv) < 1e-3
        assert max_relative_error(h.grad, gh) < 1e-3


def controller_inputs(seed, d_v=4, d_c=3, batch=None, dtype=np.float32):
    rs = np.random.RandomState(seed)
    shape_v = (batch, d_v) if batch else (d_v,)
    shape_c = (batch, d_c) if batch else (d_c,)
    return (Tensor(rs.randn(*shape_v).astype(dtype)),
            Tensor(rs.randn(*shape_v).astype(dtype)),
            Tensor(rs.randn(*shape_v).astype(dtype)),
            Tensor(rs.randn(*shape_c).astype(dtype)))


def zero_state(batch, d_c, dtype=np.float32):
    return ControllerState(h=Tensor(np.zeros((batch, d_c), dtype=dtype), dtype=dtype),
                           c=Tensor(np.zeros((batch, d_c), dtype=dtype), dtype=dtype))


class TestController:
    def test_soft_weights_interior_simplex(self):
        ctrl = ModuleController.draw(4, 3, Rng(0))
        state = zero_state(1, 3)
        for seed in range(20):
            vo, va, vr, c = controller_inputs(seed, batch=1)
            out = controller_step(ctrl, vo, va, vr, c, state, Strategy.SOFT)
            w = out.weights.data[0]
            assert np.all(w > 0)
            assert abs(w.sum() - 1.0) < 1e-6

    def test_hard_weights_one_hot(self):
        ctrl = ModuleController.draw(4, 3, Rng(1))
        state = zero_state(1, 3)
        rng = Rng(77)
        for seed in range(20):
            vo, va, vr, c = controller_inputs(seed, batch=1)
            out = controller_step(ctrl, vo, va, vr, c, state, Strategy.HARD,
                                  noise=rng.gumbel_array((1, 4), dtype=np.float32))
            w = out.weights.data[0]
            assert sorted(w.tolist()) == [0.0, 0.0, 0.0, 1.0]

    def test_hard_without_noise_is_argmax(self):
        ctrl = ModuleController.draw(4, 3, Rng(2))
        state = zero_state(1, 3)
        vo, va, vr, c = controller_inputs(0, batch=1)
        out = controller_step(ctrl, vo, va, vr, c, state, Strategy.HARD, noise=None)
        assert np.argmax(out.weights.data[0]) == np.argmax(out.soft.data[0])

    def test_uniform_is_all_ones_and_skips_lstm(self):
        ctrl = ModuleController.draw(4, 3, Rng(3))
        state = zero_state(1, 3)
        vo, va, vr, c = controller_inputs(0, batch=1)
        out = controller_step(ctrl, vo, va, vr, c, state, Strategy.UNIFORM)
        assert np.array_equal(out.weights.data, np.ones((1, 4), dtype=np.float32))
        assert out.state is state
        assert out.soft is None

    def test_unknown_strategy_rejected(self):
        ctrl = ModuleController.draw(4, 3, Rng(4))
        state = zero_state(1, 3)
        vo, va, vr, c = controller_inputs(0, batch=1)
        with pytest.raises(ValueError):
            controller_step(ctrl, vo, va, vr, c, state, "very_soft")

    def test_hard_frequencies_match_softmax(self):
        # empirical selection rates of the straight-through sampler, checked
        # against both the softmax of the logits and an independently coded
        # Gumbel-max oracle
        logits = np.array([1.2, 0.3, -0.5, 0.8])
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()

        rng = Rng(2024)
        draws = 10000
        counts = np.zeros(4)
        for noise in rng.gumbel_array((draws, 4), dtype=np.float64):
            y = logits + noise
            e = np.exp(y - y.max())
            y = e / e.sum()
            hard = straight_through(Tensor(y.astype(np.float32)))
            counts[int(np.argmax(hard.data))] += 1
        freqs = counts / draws

        oracle_rng = Rng(555)
        oracle_counts = np.zeros(4)
        for _ in range(draws):
            u = np.array([oracle_rng.uniform() for _ in range(4)])
            u = np.clip(u, 1e-12, 1 - 1e-12)
            g = -np.log(-np.log(u))
            oracle_counts[int(np.argmax(logits + g))] += 1
        oracle_freqs = oracle_counts / draws

        assert np.all(np.abs(freqs - probs) < 0.02)
        assert np.all(np.abs(oracle_freqs - probs) < 0.02)
        assert np.all(np.abs(freqs - oracle_freqs) < 0.03)

    def test_straight_through_gradient_flows(self):
        logits = Tensor(np.array([0.5, -0.2, 0.1, 0.0]), requires_grad=True, dtype=F64)
        y = softmax(logits)
        w = straight_through(y)
        (w * Tensor(np.array([1.0, 2.0, 3.0, 4.0]), dtype=F64)).sum().backward()
        assert logits.grad is not None
        assert np.any(logits.grad != 0)

    def test_controller_gradcheck(self):
        ctrl = ModuleController.draw(3, 2, Rng(5), dtype=F64)
        rs = np.random.RandomState(9)
        vo0, va0, vr0, c0 = (rs.randn(3), rs.randn(3), rs.randn(3), rs.randn(2))
        proj_w = np.ascontiguousarray(ctrl.proj_W.data)

        def f(vo):
            state = zero_state(1, 2, dtype=F64)
            out = controller_step(ctrl, vo.reshape(1, -1),
                                  Tensor(va0.reshape(1, -1), dtype=F64),
                                  Tensor(vr0.reshape(1, -1), dtype=F64),
                                  Tensor(c0.reshape(1, -1), dtype=F64), state, Strategy.SOFT)
            return (out.weights * out.weights).sum()

        x = Tensor(vo0, requires_grad=True, dtype=F64)
        f(x).backward()
        numeric = finite_diff_grad(f, Tensor(vo0, dtype=F64))
        assert max_relative_error(x.grad, numeric) < 1e-3
        assert proj_w.shape == (2, 4)


class TestFuse:
    def test_one_hot_masks_exactly(self):
        rs = np.random.RandomState(0)
        vs = [Tensor(rs.randn(3).astype(np.float32)) for _ in range(4)]
        for k in range(4):
            w = np.zeros(4, dtype=np.float32)
            w[k] = 1.0
            fused = fuse(Tensor(w), *vs).data
            for j in range(4):
                block = fused[3 * j : 3 * (j + 1)]
                if j == k:
                    assert np.array_equal(block, vs[j].data)
                else:
                    assert np.array_equal(block, np.zeros(3, dtype=np.float32))

    def test_uniform_weights_plain_concat(self):
        rs = np.random.RandomState(1)
        vs = [Tensor(rs.randn(3).astype(np.float32)) for _ in range(4)]
        fused = fuse(Tensor(np.ones(4, dtype=np.float32)), *vs).data
        assert np.array_equal(fused, np.concatenate([v.data for v in vs]))

    def test_length_is_four_blocks(self):
        vs = [Tensor(np.ones(5, dtype=np.float32)) for _ in range(4)]
        assert fuse(Tensor(np.ones(4, dtype=np.float32)), *vs).shape == (20,)

    def test_batched(self):
        rs = np.random.RandomState(2)
        vs = [Tensor(rs.randn(2, 3).astype(np.float32)) for _ in range(4)]
        w = Tensor(rs.rand(2, 4).astype(np.float32))
        fused = fuse(w, *vs)
        assert fused.shape == (2, 12)
        assert np.allclose(fused.data[0, 0:3], w.data[0, 0] * vs[0].data[0], atol=1e-6)

    def test_width_mismatch_rejected(self):
        vs = [Tensor(np.ones(3, dtype=np.float32)) for _ in range(3)]
        vs.append(Tensor(np.ones(4, dtype=np.float32)))
        with pytest.raises(ShapeError):
            fuse(Tensor(np.ones(4, dtype=np.float32)), *vs)


class TestLinguisticLoss:
    """The word-class supervision training applies to the controller weights:
    ``masked_nll`` of the soft weights against the gold module label."""

    @staticmethod
    def loss(w, label):
        return masked_nll(w.reshape(1, -1), [int(label)], eps=LOSS_EPS)

    def test_uniform_weights_log4(self):
        w = Tensor(np.full(4, 0.25, dtype=np.float64), dtype=F64)
        assert abs(self.loss(w, ModuleLabel.RELATION).item() - math.log(4.0)) < 1e-9

    def test_confident_correct_is_small(self):
        w = Tensor(np.array([0.97, 0.01, 0.01, 0.01], dtype=np.float64), dtype=F64)
        assert self.loss(w, ModuleLabel.OBJECT).item() < 0.05

    def test_zero_weight_clamped_not_inf(self):
        w = Tensor(np.array([1.0, 0.0, 0.0, 0.0], dtype=np.float64), dtype=F64)
        loss = self.loss(w, ModuleLabel.FUNCTION).item()
        assert math.isfinite(loss)
        assert abs(loss - (-math.log(1e-12))) < 1e-6

    def test_gradient_reaches_weights(self):
        w = Tensor(np.full(4, 0.25), requires_grad=True, dtype=F64)
        self.loss(w, ModuleLabel.ATTRIBUTE).backward()
        assert w.grad is not None
        assert w.grad[1] < 0  # pushing mass toward the gold module


class TestPosMapping:
    def test_content_tags(self):
        assert pos_to_module_label("NN") is ModuleLabel.OBJECT
        assert pos_to_module_label("ADJ") is ModuleLabel.ATTRIBUTE
        for tag in ("VB", "PREP", "CD"):
            assert pos_to_module_label(tag) is ModuleLabel.RELATION

    def test_function_tags(self):
        for tag in ("DT", "CC", "RB", "EOS"):
            assert pos_to_module_label(tag) is ModuleLabel.FUNCTION

    def test_unknown_tag_logged_and_function(self, caplog):
        with caplog.at_level(logging.WARNING, logger="modcap.controller"):
            assert pos_to_module_label("XYZ") is ModuleLabel.FUNCTION
        assert any("XYZ" in rec.message for rec in caplog.records)
