"""Tensor core: op semantics, backward sweep, RNG, Adam, gradient oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcap import tensor as T
from modcap.decoder import EOS_ID, sample_policy
from modcap.errors import ShapeError, TrainingError
from modcap.tensor import (
    Adam,
    AdamState,
    ParamArena,
    Rng,
    Tensor,
    clip_global_norm,
    concat,
    finite_diff_grad,
    gather_rows,
    make_lstm_params,
    max_relative_error,
    reshape,
    sweep_order,
    xavier_uniform,
)
from reference import (
    ReferenceAdam,
    assert_same_update,
    clamp_min,
    gumbel as reference_gumbel,
    leaky_relu,
    log,
    lstm_step,
    masked_softmax,
    matmul,
    mean_pool_rows,
    multinomial as reference_multinomial,
    pick,
    relu,
    shuffle as reference_shuffle,
    sigmoid,
    slice_axis,
    softmax,
    tanh,
    transpose,
)


def check_grad(f, *arrays, eps=1e-4, tol=1e-3):
    """Backprop through f and compare every input gradient against central
    differences.  All inputs are promoted to float64 leaves."""
    leaves = [Tensor(np.asarray(a, dtype=np.float64), requires_grad=True, dtype=np.float64)
              for a in arrays]
    out = f(*leaves)
    out.backward()
    for i, leaf in enumerate(leaves):
        def partial(x, i=i):
            probe = leaves[:i] + [x] + leaves[i + 1:]
            return f(*probe)
        numeric = finite_diff_grad(partial, leaf, eps=eps)
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        err = max_relative_error(analytic, numeric)
        assert err < tol, f"input {i}: max relative error {err:.2e}"


class TestForward:
    def test_add_broadcast_bias(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([10.0, 20.0])
        assert np.allclose((x + b).data, [[11.0, 22.0], [13.0, 24.0]])

    def test_matmul_identity_and_zero(self):
        np.random.seed(42)
        for _ in range(10):
            m, k = np.random.randint(1, 6, size=2)
            a = np.random.randn(m, k)
            eye = np.eye(k)
            assert np.allclose(matmul(Tensor(a, dtype=np.float64), Tensor(eye, dtype=np.float64)).data, a)
            zero = np.zeros((k, 3))
            assert np.allclose(matmul(Tensor(a), Tensor(zero)).data, 0.0)

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_softmax_is_a_distribution(self):
        np.random.seed(0)
        for _ in range(20):
            v = np.random.randn(np.random.randint(1, 9)) * 5
            y = softmax(Tensor(v)).data
            assert np.all(y > 0)
            assert abs(y.sum() - 1.0) < 1e-6

    def test_softmax_shift_invariance(self):
        v = np.array([1.0, 2.0, 3.0], dtype=np.float64)
        a = softmax(Tensor(v, dtype=np.float64)).data
        b = softmax(Tensor(v + 1000.0, dtype=np.float64)).data
        assert np.allclose(a, b, atol=1e-12)

    def test_softmax_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(Tensor(np.zeros(0)))

    def test_softmax_rowwise(self):
        m = np.random.randn(4, 5)
        y = softmax(Tensor(m), axis=-1).data
        assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-6)

    def test_leaky_relu_values(self):
        x = Tensor([-2.0, 0.0, 3.0])
        y = leaky_relu(x, 0.01).data
        assert np.allclose(y, [-0.02, 0.0, 3.0])

    def test_leaky_relu_slope_validated(self):
        with pytest.raises(ValueError):
            leaky_relu(Tensor([1.0]), slope=1.5)

    def test_mean_pool_rows(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert np.allclose(mean_pool_rows(m).data, [3.0, 4.0])

    def test_mean_pool_rows_batched(self):
        m = np.arange(12, dtype=np.float32).reshape(2, 3, 2)
        out = mean_pool_rows(Tensor(m)).data
        assert out.shape == (2, 2)
        assert np.allclose(out, m.mean(axis=1))

    def test_mean_pool_rows_masked(self):
        m = np.arange(12, dtype=np.float32).reshape(2, 3, 2)
        mask = np.array([[True, True, False], [True, True, True]])
        out = mean_pool_rows(Tensor(m), mask).data
        assert np.allclose(out[0], m[0, :2].mean(axis=0))
        assert np.allclose(out[1], m[1].mean(axis=0))
        # all rows valid: the same bits as the unmasked mean
        full = np.ones((2, 3), dtype=bool)
        assert np.array_equal(mean_pool_rows(Tensor(m), full).data,
                              mean_pool_rows(Tensor(m)).data)

    def test_masked_softmax_zeroes_padding(self):
        a = Tensor(np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 9.0]]))
        mask = np.array([[True, False, True], [True, True, False]])
        out = masked_softmax(a, mask, axis=-1).data
        assert out[0, 1] == 0.0 and out[1, 2] == 0.0
        assert np.allclose(out[0, [0, 2]], softmax(Tensor([1.0, 3.0])).data)
        assert np.allclose(out.sum(axis=-1), 1.0)

    def test_scalars_keep_their_shape(self):
        assert Tensor(1.5).shape == ()
        assert Tensor(np.float32(2.0)).shape == ()
        assert (Tensor([1.0, 2.0]).sum() / 4.0).shape == ()

    def test_concat_and_slice_roundtrip(self):
        a = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        b = Tensor(np.arange(8, dtype=np.float32).reshape(2, 4))
        cat = concat([a, b], axis=1)
        assert cat.shape == (2, 7)
        back = slice_axis(cat, 1, 3, 7)
        assert np.array_equal(back.data, b.data)

    def test_gather_and_pick(self):
        table = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
        rows = gather_rows(table, [2, 0, 2])
        assert np.allclose(rows.data, [[6, 7, 8], [0, 1, 2], [6, 7, 8]])
        got = pick(Tensor(np.arange(6, dtype=np.float32).reshape(2, 3)), [2, 0])
        assert np.allclose(got.data, [2.0, 3.0])

    def test_clamp_min(self):
        y = clamp_min(Tensor([1e-20, 0.5]), 1e-12)
        assert np.allclose(y.data, [1e-12, 0.5])

    def test_debug_finite_check(self):
        T.set_debug_checks(True)
        try:
            with pytest.raises(FloatingPointError), np.errstate(divide="ignore"):
                Tensor([1.0]) / Tensor([0.0])
        finally:
            T.set_debug_checks(False)


class TestBackward:
    def test_elementwise_grads(self):
        np.random.seed(1)
        a = np.random.randn(3, 4)
        b = np.random.randn(3, 4)
        check_grad(lambda x, y: ((x * y + x) / (y * y + 2.0)).sum(), a, b)

    def test_broadcast_grads(self):
        np.random.seed(2)
        a = np.random.randn(3, 4)
        b = np.random.randn(4)
        check_grad(lambda x, y: ((x + y) * y).sum(), a, b)

    def test_matmul_grads_2d(self):
        np.random.seed(3)
        check_grad(lambda x, y: matmul(x, y).sum(), np.random.randn(3, 4), np.random.randn(4, 2))

    def test_matmul_grads_vector_cases(self):
        np.random.seed(4)
        check_grad(lambda x, y: matmul(x, y).sum(), np.random.randn(4), np.random.randn(4, 2))
        check_grad(lambda x, y: matmul(x, y).sum(), np.random.randn(3, 4), np.random.randn(4))
        check_grad(lambda x, y: matmul(x, y), np.random.randn(4), np.random.randn(4))

    def test_matmul_grads_batched(self):
        np.random.seed(5)
        check_grad(lambda x, y: matmul(x, y).sum(), np.random.randn(2, 3, 4), np.random.randn(2, 4, 2))
        check_grad(lambda x, y: matmul(x, y).sum(), np.random.randn(2, 3, 4), np.random.randn(4, 2))

    def test_unary_grads(self):
        np.random.seed(6)
        x = np.random.randn(3, 3) + 0.1
        for f in (tanh, sigmoid):
            check_grad(lambda t, f=f: f(t).sum(), x)
        check_grad(lambda t: relu(t).sum(), x + 0.05)
        check_grad(lambda t: leaky_relu(t, 0.01).sum(), x + 0.05)
        check_grad(lambda t: log(clamp_min(t * t + 0.5, 1e-12)).sum(), x)

    def test_softmax_grad(self):
        np.random.seed(7)
        v = np.random.randn(6)
        w = np.random.randn(6)
        check_grad(lambda x, c: (softmax(x) * c).sum(), v, w)

    def test_structural_grads(self):
        np.random.seed(8)
        a = np.random.randn(2, 3)
        b = np.random.randn(2, 2)
        check_grad(lambda x, y: (concat([x, y], axis=1) * 1.5).sum(), a, b)
        check_grad(lambda x: slice_axis(x, 1, 1, 3).sum(), a)
        check_grad(lambda x: transpose(x).sum(), a)
        check_grad(lambda x: reshape(x, (3, 2)).sum(), a)
        check_grad(lambda x: mean_pool_rows(x).sum(), a)
        check_grad(lambda x: gather_rows(x, [1, 0, 1]).sum(), a)
        check_grad(lambda x: pick(x, [2, 0]).sum(), a)

    def test_masked_rows_get_zero_gradient(self):
        m = Tensor(np.arange(12, dtype=np.float32).reshape(2, 3, 2), requires_grad=True)
        mask = np.array([[True, False, True], [True, True, True]])
        (mean_pool_rows(m, mask) * Tensor([1.0, -2.0])).sum().backward()
        assert not np.any(m.grad[0, 1])
        assert np.all(m.grad[~np.array([[0, 1, 0], [0, 0, 0]], dtype=bool)] != 0)

    def test_fanout_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True, dtype=np.float64)
        y = x * x + x * 2.0  # dy/dx = 2x + 2 = 8
        y.backward()
        assert np.allclose(x.grad, [8.0])

    def test_no_grad_records_nothing(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            y = (x * 2.0).sum()
        assert y._backward is None and not y.requires_grad

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()


class TestSweep:
    def test_closures_run_after_their_consumers(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = x * 2.0
        z = y + x  # diamond: x feeds both y and z
        loss = (z * y).sum()
        nodes = sweep_order(loss)
        assert len(nodes) == len({id(n) for n in nodes}) == 4
        position = {id(n): i for i, n in enumerate(nodes)}
        for node in nodes:
            for parent in node._parents:
                if parent._backward is not None:
                    assert position[id(parent)] > position[id(node)]

        ran = []
        for node in nodes:
            def record(g, node=node, inner=node._backward):
                ran.append(id(node))
                inner(g)
            node._backward = record
        loss.backward()
        assert ran == [id(n) for n in nodes]
        assert np.allclose(x.grad, 12.0 * x.data)  # loss = sum(3x * 2x)


class TestRng:
    def test_splitmix64_reference_sequence(self):
        # first three outputs of the SplitMix64 stream seeded with 0
        rng = Rng(0)
        assert rng.u64() == 0xE220A8397B1DCDAF
        assert rng.u64() == 0x6E789E6AA1B965F4
        assert rng.u64() == 0x06C45D188009454F

    def test_replay_is_bit_identical(self):
        a, b = Rng(1234), Rng(1234)
        for _ in range(100):
            assert a.u64() == b.u64()
        seq_a = [a.gauss() for _ in range(50)]
        seq_b = [b.gauss() for _ in range(50)]
        assert seq_a == seq_b

    def test_state_roundtrip_mid_gaussian(self):
        rng = Rng(7)
        rng.gauss()  # leaves a cached second draw
        state = rng.get_state()
        expect = [rng.gauss() for _ in range(5)]
        rng2 = Rng(0)
        rng2.set_state(state)
        # cache is dropped on restore only if it was None; here it is kept
        got = [rng2.gauss() for _ in range(5)]
        assert got == expect

    def test_uniform_range_and_moments(self):
        rng = Rng(99)
        xs = [rng.uniform() for _ in range(20000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert abs(np.mean(xs) - 0.5) < 0.01

    def test_gauss_moments(self):
        rng = Rng(5)
        xs = [rng.gauss() for _ in range(20000)]
        assert abs(np.mean(xs)) < 0.03
        assert abs(np.std(xs) - 1.0) < 0.03

    def test_multinomial_frequencies(self):
        # the sampling policy's inverse-CDF draw over 10000 live rows
        probs = np.array([0.5, 0.3, 0.2])
        tokens = sample_policy(Rng(11))(0, np.tile(probs, (10000, 1)), np.ones(10000, bool))
        counts = np.bincount(tokens, minlength=3)
        assert np.allclose(counts / 10000, probs, atol=0.02)

    def test_derive_gives_independent_streams(self):
        rng = Rng(42)
        a = rng.derive(1)
        b = rng.derive(2)
        assert a.u64() != b.u64()
        # deriving does not disturb the parent stream
        assert Rng(42).u64() == rng.u64()

    def test_shuffle_deterministic(self):
        xs = list(range(10))
        Rng(3).shuffle(xs)
        ys = list(range(10))
        Rng(3).shuffle(ys)
        assert xs == ys and xs != list(range(10))


# each draw kind as an array call and as the scalar loop it stands for
ARRAY_DRAWS = {
    "uniform": lambda rng, shape, dtype: rng.uniform_array(shape, -0.5, 2.0, dtype=dtype),
    "normal": lambda rng, shape, dtype: rng.normal(shape, scale=0.3, dtype=dtype),
    "gumbel": lambda rng, shape, dtype: rng.gumbel_array(shape, dtype=dtype),
}
SCALAR_DRAWS = {
    "uniform": lambda rng: -0.5 + (2.0 - -0.5) * rng.uniform(),
    "normal": lambda rng: 0.3 * rng.gauss(),
    "gumbel": reference_gumbel,
}
STREAM = settings(max_examples=150, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2**64 - 1)
shapes = st.lists(st.integers(0, 5), max_size=3).map(tuple)
draw_steps = st.lists(st.tuples(st.sampled_from(sorted(ARRAY_DRAWS)), shapes, st.booleans(),
                                st.sampled_from([np.float32, np.float64])), max_size=6)


def scalar_loop(rng, kind, shape, dtype):
    n = math.prod(shape)
    return np.array([SCALAR_DRAWS[kind](rng) for _ in range(n)],
                    dtype=np.float64).reshape(shape).astype(dtype)


class TestRngStream:
    """Array draws are the scalar stream: the same values, bit for bit,
    and the same state afterwards, whatever the interleaving."""

    @STREAM
    @given(seeds, draw_steps, st.booleans())
    def test_array_draws_equal_the_scalar_loop(self, seed, steps, pending):
        arrays, scalars = Rng(seed), Rng(seed)
        if pending:                     # leave a cached gaussian waiting
            assert arrays.gauss() == scalars.gauss()
        for kind, shape, as_array, dtype in steps:
            want = scalar_loop(scalars, kind, shape, dtype)
            got = (ARRAY_DRAWS[kind](arrays, shape, dtype) if as_array
                   else scalar_loop(arrays, kind, shape, dtype))
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (kind, shape)
            assert arrays.get_state() == scalars.get_state(), (kind, shape)
            assert arrays.gauss() == scalars.gauss()   # and the stream goes on alike

    @STREAM
    @given(seeds, st.integers(0, 7), st.integers(0, 9))
    def test_normal_counts_odd_and_even(self, seed, skip, n):
        # skip leaves the cache full or empty; n leaves a pair half used or not
        arrays, scalars = Rng(seed), Rng(seed)
        for rng in (arrays, scalars):
            for _ in range(skip):
                rng.gauss()
        got = arrays.normal((n,), dtype=np.float64)
        want = np.array([scalars.gauss() for _ in range(n)], dtype=np.float64)
        assert got.tobytes() == want.tobytes()
        assert arrays.get_state() == scalars.get_state()
        assert (arrays.get_state()[1] is None) == ((n + skip) % 2 == 0)

    @STREAM
    @given(seeds, st.integers(0, 2000))
    def test_shuffle_is_the_scalar_loop(self, seed, n):
        # the n-1 swap indices come from one block of draws
        got, want = list(range(n)), list(range(n))
        arrays, scalars = Rng(seed), Rng(seed)
        arrays.shuffle(got)
        reference_shuffle(scalars, want)
        assert got == want
        assert arrays.get_state() == scalars.get_state()

    @pytest.mark.parametrize("kind", sorted(ARRAY_DRAWS))
    def test_long_draws_keep_the_libm_bits(self, kind):
        # numpy's log differs from libm's in about one float64 result of a
        # thousand; 20000 draws see that, and would see a cos or sin that did
        arrays, scalars = Rng(2026), Rng(2026)
        got = ARRAY_DRAWS[kind](arrays, (100, 200), np.float64)
        assert got.tobytes() == scalar_loop(scalars, kind, (100, 200), np.float64).tobytes()

    def test_long_sample_policy_run(self):
        p = np.random.RandomState(3).dirichlet(np.full(50, 0.2), size=4000).astype(np.float32)
        live = np.arange(4000) % 7 != 3
        policy_rng, scalar_rng = Rng(8), Rng(8)
        tokens = sample_policy(policy_rng)(0, p, live)
        want = [reference_multinomial(scalar_rng, p[b]) if live[b] else EOS_ID
                for b in range(4000)]
        assert tokens.tolist() == want
        assert policy_rng.get_state() == scalar_rng.get_state()

    @STREAM
    @given(seeds, draw_steps, st.sampled_from(sorted(ARRAY_DRAWS)), shapes)
    def test_set_state_continues_the_stream(self, seed, steps, kind, shape):
        rng = Rng(seed)
        for step_kind, step_shape, _, dtype in steps:
            ARRAY_DRAWS[step_kind](rng, step_shape, dtype)
        restored = Rng(0)
        restored.set_state(rng.get_state())
        want = ARRAY_DRAWS[kind](rng, shape, np.float64)
        assert ARRAY_DRAWS[kind](restored, shape, np.float64).tobytes() == want.tobytes()
        assert restored.get_state() == rng.get_state()

    @STREAM
    @given(seeds, st.integers(1, 6), st.integers(1, 7), st.data())
    def test_sample_policy_equals_per_row_multinomial(self, seed, rows, vocab, data):
        weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=rows * vocab,
                                     max_size=rows * vocab))
        p = np.asarray(weights, dtype=np.float32).reshape(rows, vocab)
        p[:, 0] += 1e-3                 # every row has some mass
        p /= p.sum(axis=1, keepdims=True)
        live = np.asarray(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
        policy_rng, scalar_rng = Rng(seed), Rng(seed)
        tokens = sample_policy(policy_rng)(0, p, live)
        want = [reference_multinomial(scalar_rng, p[b]) if live[b] else EOS_ID
                for b in range(rows)]
        assert tokens.tolist() == want
        assert policy_rng.get_state() == scalar_rng.get_state()


class TestInit:
    def test_xavier_bounds(self):
        rng = Rng(0)
        t = xavier_uniform(rng, (50, 40), 50, 40)
        a = math.sqrt(6.0 / 90.0)
        assert t.data.min() >= -a and t.data.max() <= a
        assert t.requires_grad

    def test_lstm_forget_bias(self):
        p = make_lstm_params(Rng(0), 4, 3)
        b = p.b.data
        assert np.allclose(b[3:6], 1.0)
        assert np.allclose(np.delete(b, [3, 4, 5]), 0.0)


class TestLstmStep:
    def test_zero_weight_closed_form(self):
        # all weights zero, c=[2]: gates sit at 0.5, candidate at 0, so
        # c' = 0.5*2 = 1 and h' = 0.5*tanh(1)
        p = make_lstm_params(Rng(0), 1, 1, dtype=np.float64)
        p.W.data = np.zeros_like(p.W.data)
        p.b.data = np.zeros_like(p.b.data)
        h2, c2 = lstm_step(Tensor([0.0], dtype=np.float64), Tensor([0.0], dtype=np.float64),
                           Tensor([2.0], dtype=np.float64), p)
        assert abs(c2.item() - 1.0) < 1e-12
        assert abs(h2.item() - 0.5 * math.tanh(1.0)) < 1e-12

    def test_batched_matches_single(self):
        rng = Rng(8)
        p = make_lstm_params(rng, 5, 4, dtype=np.float64)
        xs = np.random.RandomState(0).randn(3, 5)
        h0 = np.random.RandomState(1).randn(3, 4)
        c0 = np.random.RandomState(2).randn(3, 4)
        hb, cb = lstm_step(Tensor(xs, dtype=np.float64), Tensor(h0, dtype=np.float64),
                           Tensor(c0, dtype=np.float64), p)
        for i in range(3):
            hi, ci = lstm_step(Tensor(xs[i], dtype=np.float64), Tensor(h0[i], dtype=np.float64),
                               Tensor(c0[i], dtype=np.float64), p)
            assert np.allclose(hb.data[i], hi.data, atol=1e-12)
            assert np.allclose(cb.data[i], ci.data, atol=1e-12)

    def test_lstm_gradcheck(self):
        rng = Rng(21)
        p = make_lstm_params(rng, 3, 2, dtype=np.float64)

        def f(x, h, c, W, b):
            h2, c2 = lstm_step(x, h, c, T.LstmParams(W=W, b=b))
            return (h2 * h2).sum() + c2.sum()

        np.random.seed(13)
        check_grad(f, np.random.randn(3), np.random.randn(2), np.random.randn(2),
                   p.W.data.copy(), p.b.data.copy())

    def test_input_width_checked(self):
        p = make_lstm_params(Rng(0), 3, 2)
        with pytest.raises(ShapeError):
            lstm_step(Tensor(np.ones(5)), Tensor(np.zeros(2)), Tensor(np.zeros(2)), p)


def arena_with_grads(params: dict, grads: dict) -> ParamArena:
    """The arena of ``params``, with ``grads`` landed in their slices the
    way backward lands a parameter's first gradient."""
    arena = ParamArena(params)
    for name, g in grads.items():
        T._accum(params[name], np.asarray(g))
    return arena


class TestAdam:
    def test_single_step_closed_form(self):
        # grad 1, lr 1e-3: m_hat = v_hat = 1, so the step is -lr/(1+eps)
        p = Tensor(np.zeros(1, dtype=np.float64), requires_grad=True, dtype=np.float64)
        opt = Adam()
        opt.step(arena_with_grads({"p": p}, {"p": np.ones(1)}), lr=1e-3)
        assert abs(p.data[0] + 1e-3) < 1e-8 * 1e-3
        assert opt.state["p"].t == 1

    def test_rejects_nonfinite_gradient(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        q = Tensor(np.ones(3), requires_grad=True)
        arena = arena_with_grads({"mylayer.W": p, "other.b": q},
                                 {"mylayer.W": np.array([np.nan, 0.0]), "other.b": np.ones(3)})
        opt = Adam()
        with pytest.raises(TrainingError, match="mylayer.W"):
            opt.step(arena, 1e-3)
        # nothing moved: no state, no step, the values as they were
        assert not opt.state
        assert q.data.tolist() == [1.0, 1.0, 1.0]

    def test_optimizer_descends_quadratic(self):
        x = Tensor(np.array([5.0, -3.0]), requires_grad=True, dtype=np.float64)
        arena = ParamArena({"x": x})
        opt = Adam()
        for _ in range(400):
            x.grad = None
            loss = (x * x).sum()
            loss.backward()
            opt.step(arena, lr=0.05)
        assert np.all(np.abs(x.data) < 1e-2)

    def test_zero_grad_fresh_state_is_noop(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        arena = arena_with_grads({"x": x}, {"x": np.zeros(2, dtype=np.float32)})
        before = x.data.copy()
        Adam().step(arena, lr=0.1)
        assert np.array_equal(x.data, before)


class TestParamArena:
    def params(self, dtype=np.float32):
        rng = np.random.default_rng(3)
        return {name: Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
                for name, shape in (("b.W", (3, 4)), ("a.b", (5,)), ("c.W", (2, 2)))}

    def test_layout_follows_the_dict_order(self):
        params = self.params()
        values = {name: p.data.copy() for name, p in params.items()}
        arena = ParamArena(params)
        assert arena.names == ("b.W", "a.b", "c.W")
        assert arena.bounds == ((0, 12), (12, 17), (17, 21))
        assert arena.data.dtype == np.float32 and arena.grad.shape == (21,)
        for name, p in params.items():
            assert p.data.base is arena.data
            np.testing.assert_array_equal(p.data, values[name])
        assert arena.tensors == tuple(params.values())

    def test_gradients_land_in_their_slices(self):
        params = self.params()
        arena = ParamArena(params)
        loss = (params["b.W"] * params["b.W"]).sum() + params["a.b"].sum()
        loss.backward()
        assert params["b.W"].grad.base is arena.grad
        np.testing.assert_array_equal(arena.grad[:12], 2 * params["b.W"].data.ravel())
        np.testing.assert_array_equal(arena.grad[12:17], np.ones(5))
        assert params["c.W"].grad is None       # no op reached it

    def test_assign_writes_a_fresh_buffer_and_bumps_the_version(self):
        params = self.params()
        arena = ParamArena(params)
        held = {name: p.data for name, p in params.items()}
        copies = {name: a.copy() for name, a in held.items()}
        version = ParamArena.version
        arena.assign({"a.b": np.full(5, 7.0)})
        assert ParamArena.version > version
        np.testing.assert_array_equal(arena.data[12:17], np.full(5, 7.0, dtype=np.float32))
        for name, p in params.items():
            assert p.data is not held[name] and p.data.base is arena.data
            np.testing.assert_array_equal(held[name], copies[name])
            if name != "a.b":
                np.testing.assert_array_equal(p.data, copies[name])
        with pytest.raises(ShapeError, match="'c.W'"):
            arena.assign({"c.W": np.zeros(4)})

    @pytest.mark.parametrize("behind", ["data", "grad"])
    def test_a_value_or_gradient_set_behind_the_arena_is_refused(self, behind):
        params = self.params()
        arena = arena_with_grads(params, {name: np.ones(p.data.shape, dtype=np.float32)
                                          for name, p in params.items()})
        before = arena.data.copy()
        opt = Adam()
        refused = pytest.raises(RuntimeError, match="parameter 'a.b' was rebound behind its arena")
        if behind == "data":        # refused where it happens
            with refused:
                params["a.b"].data = np.full(5, 7.0, dtype=np.float32)
            assert params["a.b"].data is arena.views[1]
        else:
            params["a.b"].grad = np.full(5, 7.0, dtype=np.float32)
            with refused:
                opt.step(arena, 1e-2)
        # nothing moved: no state, and the arena's values as they were
        assert not opt.state
        np.testing.assert_array_equal(arena.data, before)

    def test_one_dtype_per_arena(self):
        params = self.params()
        params["a.b"] = Tensor(np.zeros(2, dtype=np.float64), requires_grad=True)
        with pytest.raises(TypeError, match="float32, float64"):
            ParamArena(params)

    def steps_of_both(self, prepare, n_steps=3, dtype=np.float32):
        """n_steps updates of the flat and of the per-parameter Adam from the
        same start; ``prepare(params, opt)`` may seed the optimizer state."""
        out = []
        for opt in (Adam(), ReferenceAdam()):
            params = self.params(dtype)
            arena = ParamArena(params)
            prepare(params, opt)
            rng = np.random.default_rng(9)
            for step in range(n_steps):
                for name, p in params.items():
                    if name != "c.W" or step > 0:       # c.W joins at the second step
                        T._accum(p, rng.standard_normal(p.data.shape).astype(dtype))
                opt.step(arena, lr=1e-2)
                for p in params.values():
                    p.grad = None
            out.append((params, opt))
        return out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_parameters_that_join_late_step_with_their_own_count(self, dtype):
        got, want = self.steps_of_both(lambda params, opt: None, dtype=dtype)
        assert {name: st.t for name, st in got[1].state.items()} == {"b.W": 3, "a.b": 3,
                                                                     "c.W": 2}
        assert_same_update(*got, *want)

    def test_restored_moments_are_adopted_on_the_first_step(self):
        def restore(params, opt):
            rng = np.random.default_rng(4)
            for name, t in (("b.W", 7), ("a.b", 2)):
                shape = params[name].data.shape
                opt.state[name] = AdamState(
                    m=rng.standard_normal(shape).astype(np.float32),
                    v=rng.random(shape).astype(np.float32), t=t)

        got, want = self.steps_of_both(restore)
        assert got[1].state["b.W"].t == 10 and got[1].state["c.W"].t == 2
        assert_same_update(*got, *want)


class TestClip:
    def test_norm_scaling(self):
        x = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        y = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        arena = arena_with_grads({"x": x, "y": y}, {"x": np.array([3.0, 0.0], dtype=np.float32),
                                                    "y": np.array([0.0, 4.0], dtype=np.float32)})
        norm = clip_global_norm(arena, 2.5)
        assert abs(norm - 5.0) < 1e-6
        joined = math.sqrt(float(np.sum(x.grad**2) + np.sum(y.grad**2)))
        assert abs(joined - 2.5) < 1e-5

    def test_below_threshold_untouched(self):
        x = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        clip_global_norm(arena_with_grads({"x": x}, {"x": np.array([0.3, 0.4], dtype=np.float32)}),
                         5.0)
        assert np.allclose(x.grad, [0.3, 0.4])

    def test_non_finite_gradients_raise_naming_each_parameter(self):
        grads = {"a": [3.0, 0.0], "b": [np.nan, 1.0], "c": [0.0, 4.0], "d": [np.inf, 0.0]}
        params = {name: Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
                  for name in grads}
        arena = arena_with_grads(params, {name: np.array(g, dtype=np.float32)
                                          for name, g in grads.items()})
        with pytest.raises(TrainingError) as err:
            clip_global_norm(arena, 1.0)
        assert "'b'" in str(err.value) and "'d'" in str(err.value)
        assert "'a'" not in str(err.value) and "'c'" not in str(err.value)
        # nothing was scaled
        assert params["a"].grad.tolist() == [3.0, 0.0]



def blas_threads():
    """OpenBLAS's current thread count, None where it cannot be found."""
    blas = T._openblas()
    return blas[0]() if blas else None

class TestBlasThreads:
    def test_one_thread_inside_and_the_count_restored_after(self):
        before = blas_threads()
        inside = None if before is None else 1
        with T.blas_on_calling_thread():
            assert blas_threads() == inside
            with T.blas_on_calling_thread():
                assert blas_threads() == inside
            assert blas_threads() == inside
        assert blas_threads() == before
        with pytest.raises(KeyError):
            with T.blas_on_calling_thread():
                raise KeyError("x")
        assert blas_threads() == before

    def test_decorated_function_runs_on_one_thread(self):
        @T.blas_on_calling_thread()
        def count():
            return blas_threads()

        before = blas_threads()
        assert count() == (None if before is None else 1)
        assert count() == (None if before is None else 1)
        assert blas_threads() == before

class TestFiniteDiff:
    def test_matches_known_derivative(self):
        x = Tensor(np.array([0.5, -1.2]), requires_grad=True, dtype=np.float64)
        g = finite_diff_grad(lambda t: (t * t).sum(), x)
        assert np.allclose(g, 2 * x.data, atol=1e-8)

    def test_requires_float64(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda t: t.sum(), Tensor(np.ones(2, dtype=np.float32)))
