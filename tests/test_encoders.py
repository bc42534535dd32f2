"""Encoder modules: rowwise embeddings, self-attention mixing, gradients."""

import math

import numpy as np
import pytest

from modcap.encoders import ProjectionModule, RelationModule
from modcap.errors import ConfigError
from modcap.tensor import Rng, Tensor, finite_diff_grad, max_relative_error

F64 = np.float64


def dense_relation_forward(r, mod, slope=0.01):
    """Independent numpy-only forward of the relation module on one scene's
    regions (N, d_r)."""
    heads = []
    for i in range(mod.heads):
        q = r @ mod.w_q[i].data
        k = r @ mod.w_k[i].data
        v = r @ mod.w_v[i].data
        scores = q @ k.T / math.sqrt(mod.d_k)
        scores = scores - scores.max(axis=-1, keepdims=True)
        e = np.exp(scores)
        attn = e / e.sum(axis=-1, keepdims=True)
        heads.append(attn @ v)
    mixed = np.concatenate(heads, axis=-1) @ mod.w_out.data
    h1 = np.maximum(mixed @ mod.fc1.W.data + mod.fc1.b.data, 0.0)
    h2 = h1 @ mod.fc2.W.data + mod.fc2.b.data
    return np.where(h2 >= 0, h2, slope * h2)


class TestObjectAttribute:
    def test_known_weights(self):
        mod = ProjectionModule(2, 2, Rng(0))
        mod.fc.W.data = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.float32)
        mod.fc.b.data = np.zeros(2, dtype=np.float32)
        out = mod(Tensor([[2.0, 3.0]]))
        assert np.allclose(out.data, [[2.0, -0.03]], atol=1e-6)     # LEAKY_SLOPE 0.01

    def test_rowwise_independence(self):
        np.random.seed(0)
        mod = ProjectionModule(6, 4, Rng(1))
        r = np.random.randn(5, 6).astype(np.float32)
        full = mod(Tensor(r)).data
        for i in range(5):
            row = mod(Tensor(r[i : i + 1])).data
            assert np.array_equal(row[0], full[i])

    def test_row_permutation_equivariance_exact(self):
        np.random.seed(1)
        mod = ProjectionModule(6, 4, Rng(2))
        r = np.random.randn(5, 6).astype(np.float32)
        perm = np.array([3, 0, 4, 1, 2])
        assert np.array_equal(mod(Tensor(r[perm])).data, mod(Tensor(r)).data[perm])

    def test_batched_matches_single(self):
        np.random.seed(2)
        mod = ProjectionModule(6, 4, Rng(3))
        r = np.random.randn(2, 3, 6).astype(np.float32)
        full = mod(Tensor(r)).data
        for b in range(2):
            assert np.allclose(full[b], mod(Tensor(r[b])).data, atol=1e-7)

    def test_object_ignores_attribute_features(self):
        # the object path never sees the attribute matrix; this is a wiring
        # property of the model, checked here at the module level: output is
        # a function of its own input only
        mod = ProjectionModule(4, 3, Rng(4))
        r = np.random.RandomState(3).randn(2, 4).astype(np.float32)
        assert np.array_equal(mod(Tensor(r)).data, mod(Tensor(r.copy())).data)


class TestRelation:
    def test_head_count_must_divide(self):
        with pytest.raises(ConfigError):
            RelationModule(6, 4, 4, Rng(0))

    def test_single_region_attention_is_one(self):
        # one region attends only itself: each head passes its value row
        # through unmixed
        mod = RelationModule(8, 4, 2, Rng(5), dtype=F64)
        r = np.random.RandomState(0).randn(1, 8)
        out = mod(Tensor(r[None], dtype=F64)).data[0]
        mixed = np.concatenate([r @ w.data for w in mod.w_v], axis=-1) @ mod.w_out.data
        h = np.maximum(mixed @ mod.fc1.W.data + mod.fc1.b.data, 0.0) @ mod.fc2.W.data
        h = h + mod.fc2.b.data
        assert np.allclose(out, np.where(h >= 0, h, 0.01 * h), atol=1e-12)
        assert np.allclose(out, dense_relation_forward(r, mod), atol=1e-12)

    def test_matches_dense_oracle(self):
        np.random.seed(4)
        for trial in range(5):
            mod = RelationModule(8, 4, 4, Rng(100 + trial), dtype=F64)
            r = np.random.randn(3, np.random.randint(2, 6), 8)
            out = mod(Tensor(r, dtype=F64)).data
            for b in range(3):
                assert np.allclose(out[b], dense_relation_forward(r[b], mod), atol=1e-10)

    def test_identical_rows_give_uniform_attention(self):
        # equal rows score every key alike; mixing equal values by weights
        # that sum to one gives each row the output of a single region
        mod = RelationModule(8, 4, 2, Rng(6), dtype=F64)
        row = np.random.RandomState(1).randn(1, 8)
        r = np.repeat(row, 4, axis=0)
        out = mod(Tensor(r[None], dtype=F64)).data[0]
        assert np.allclose(out, dense_relation_forward(r, mod), atol=1e-12)
        assert np.allclose(out, dense_relation_forward(row, mod), atol=1e-12)

    def test_attention_rows_are_stochastic(self):
        # the oracle normalizes every attention row to sum to one
        mod = RelationModule(8, 4, 4, Rng(7))
        r = np.random.RandomState(2).randn(2, 5, 8).astype(np.float32)
        out = mod(Tensor(r)).data
        for b in range(2):
            assert np.allclose(out[b], dense_relation_forward(r[b].astype(F64), mod),
                               atol=1e-5)

    def test_padded_regions_do_not_reach_real_ones(self):
        mod = RelationModule(8, 4, 2, Rng(10), dtype=F64)
        rs = np.random.RandomState(7)
        r = rs.randn(2, 5, 8)
        mask = np.array([[True] * 3 + [False] * 2, [True] * 5])
        out = mod(Tensor(r, dtype=F64), mask=mask).data
        r[0, 3:] = rs.randn(2, 8) * 100.0
        again = mod(Tensor(r, dtype=F64), mask=mask).data
        assert again[mask].tobytes() == out[mask].tobytes()
        assert np.allclose(out[0, :3], dense_relation_forward(r[0, :3], mod), atol=1e-12)

    def test_permutation_equivariance(self):
        np.random.seed(5)
        mod = RelationModule(8, 4, 2, Rng(8), dtype=F64)
        r = np.random.randn(1, 5, 8)
        perm = np.array([4, 2, 0, 3, 1])
        a = mod(Tensor(r[:, perm], dtype=F64)).data
        b = mod(Tensor(r, dtype=F64)).data[:, perm]
        assert np.allclose(a, b, atol=1e-12)

    def test_gradcheck(self):
        mod = RelationModule(4, 3, 2, Rng(9), dtype=F64)
        r0 = np.random.RandomState(6).randn(1, 3, 4)

        def f(x):
            return (mod(x) * mod(x)).sum()

        x = Tensor(r0, requires_grad=True, dtype=F64)
        out = f(x)
        out.backward()
        numeric = finite_diff_grad(f, Tensor(r0, dtype=F64))
        assert max_relative_error(x.grad, numeric) < 1e-3


class TestFunction:
    def test_zero_context_zero_bias(self):
        mod = ProjectionModule(4, 3, Rng(10))
        out = mod(Tensor(np.zeros(4, dtype=np.float32)))
        assert np.allclose(out.data, 0.0)

    def test_shape(self):
        mod = ProjectionModule(4, 3, Rng(11))
        assert mod(Tensor(np.ones((5, 4), dtype=np.float32))).shape == (5, 3)
