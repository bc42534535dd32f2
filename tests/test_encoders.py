"""Encoder modules: rowwise embeddings, self-attention mixing, gradients,
and the encoder kernel against the op-composed reference.

The modules run on plain arrays; ``encoders.encoder_kernel`` runs them
as the encode stage, recorded when its caller asks, and
``encoders.encoder_backward`` is its backward.  Behind one reference
node (``reference.kernel_encode``) it must agree with the op-composed
encoder (``reference.reference_encode``) bit for bit in every value,
mean and gradient, for one scene and for padded batches, and an encode
makes no Tensor."""

import math

import numpy as np
import pytest

from modcap.config import ModelConfig, TrainConfig, apply_preset
from modcap.corpus import CorpusSpec, FeatureSynthesizer, generate_corpus
from modcap.decoder import CaptionModel
from modcap.encoders import (ProjectionModule, RelationModule, encoder_backward,
                             encoder_kernel)
from modcap.errors import ConfigError
from modcap.tensor import ParamArena, Rng, Tensor, finite_diff_grad, max_relative_error
from modcap.training import _pack
from reference import kernel_encode, reference_encode

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
        out = mod(np.array([[2.0, 3.0]], dtype=np.float32))
        assert np.allclose(out, [[2.0, -0.03]], atol=1e-6)     # LEAKY_SLOPE 0.01

    def test_rowwise_independence(self):
        np.random.seed(0)
        mod = ProjectionModule(6, 4, Rng(1))
        r = np.random.randn(5, 6).astype(np.float32)
        full = mod(r)
        for i in range(5):
            row = mod(r[i : i + 1])
            assert np.array_equal(row[0], full[i])

    def test_row_permutation_equivariance_exact(self):
        np.random.seed(1)
        mod = ProjectionModule(6, 4, Rng(2))
        r = np.random.randn(5, 6).astype(np.float32)
        perm = np.array([3, 0, 4, 1, 2])
        assert np.array_equal(mod(r[perm]), mod(r)[perm])

    def test_batched_matches_single(self):
        np.random.seed(2)
        mod = ProjectionModule(6, 4, Rng(3))
        r = np.random.randn(2, 3, 6).astype(np.float32)
        full = mod(r)
        for b in range(2):
            assert np.allclose(full[b], mod(r[b]), atol=1e-7)

    def test_object_ignores_attribute_features(self):
        # the object path never sees the attribute matrix; this is a wiring
        # property of the model, checked here at the module level: output is
        # a function of its own input only
        mod = ProjectionModule(4, 3, Rng(4))
        r = np.random.RandomState(3).randn(2, 4).astype(np.float32)
        assert np.array_equal(mod(r), mod(r.copy()))


class TestRelation:
    def test_head_count_must_divide(self):
        with pytest.raises(ConfigError):
            RelationModule(6, 4, 4, Rng(0))

    def test_single_region_attention_is_one(self):
        # one region attends only itself: each head passes its value row
        # through unmixed
        mod = RelationModule(8, 4, 2, Rng(5), dtype=F64)
        r = np.random.RandomState(0).randn(1, 8)
        out = mod(r[None])[0]
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
            out = mod(r)
            for b in range(3):
                assert np.allclose(out[b], dense_relation_forward(r[b], mod), atol=1e-10)

    def test_identical_rows_give_uniform_attention(self):
        # equal rows score every key alike; mixing equal values by weights
        # that sum to one gives each row the output of a single region
        mod = RelationModule(8, 4, 2, Rng(6), dtype=F64)
        row = np.random.RandomState(1).randn(1, 8)
        r = np.repeat(row, 4, axis=0)
        out = mod(r[None])[0]
        assert np.allclose(out, dense_relation_forward(r, mod), atol=1e-12)
        assert np.allclose(out, dense_relation_forward(row, mod), atol=1e-12)

    def test_attention_rows_are_stochastic(self):
        # the oracle normalizes every attention row to sum to one
        mod = RelationModule(8, 4, 4, Rng(7))
        r = np.random.RandomState(2).randn(2, 5, 8).astype(np.float32)
        out = mod(r)
        for b in range(2):
            assert np.allclose(out[b], dense_relation_forward(r[b].astype(F64), mod),
                               atol=1e-5)

    def test_padded_regions_do_not_reach_real_ones(self):
        mod = RelationModule(8, 4, 2, Rng(10), dtype=F64)
        rs = np.random.RandomState(7)
        r = rs.randn(2, 5, 8)
        mask = np.array([[True] * 3 + [False] * 2, [True] * 5])
        out = mod(r, mask=mask)
        r[0, 3:] = rs.randn(2, 8) * 100.0
        again = mod(r, mask=mask)
        assert again[mask].tobytes() == out[mask].tobytes()
        assert np.allclose(out[0, :3], dense_relation_forward(r[0, :3], mod), atol=1e-12)

    def test_permutation_equivariance(self):
        np.random.seed(5)
        mod = RelationModule(8, 4, 2, Rng(8), dtype=F64)
        r = np.random.randn(1, 5, 8)
        perm = np.array([4, 2, 0, 3, 1])
        a = mod(r[:, perm])
        b = mod(r)[:, perm]
        assert np.allclose(a, b, atol=1e-12)

    def test_gradcheck(self):
        mod = RelationModule(4, 3, 2, Rng(9), dtype=F64)
        r0 = np.random.RandomState(6).randn(1, 3, 4)

        mask = np.ones((1, 3), dtype=bool)

        def f(x):
            # the relation values of the kernel
            values, _, _ = encoder_kernel({"relation": mod}, x, x, mask)
            return (values * values).sum()

        values, _, record = encoder_kernel({"relation": mod}, r0, r0, mask, record=True)
        g_r, _ = encoder_backward({"relation": mod}, record, 2.0 * values, None, need_x=True)
        numeric = finite_diff_grad(f, r0)
        assert max_relative_error(g_r, numeric) < 1e-3


def test_modules_outside_an_arena_keep_their_weight_gradients():
    # a module built on its own has no arena: its backward gives each weight
    # a gradient of its own, the bits the weight gets in an arena, and a
    # second backward onto gradients not cleared is refused
    r0 = np.random.RandomState(6).randn(2, 3, 4)
    mask = np.array([[True] * 3, [True, True, False]])

    def backpropagate(held):
        encoders = {"object": ProjectionModule(4, 3, Rng(12), dtype=F64),
                    "relation": RelationModule(4, 3, 2, Rng(13), dtype=F64)}
        params = {name: t for kind, mod in encoders.items()
                  for name, t in mod.params(kind).items()}
        if held:
            ParamArena(params)

        def backward():
            # of sum(values * values) + sum(means)
            values, means, record = encoder_kernel(encoders, r0, r0, mask, record=True)
            encoder_backward(encoders, record, 2.0 * values, np.ones_like(means), need_x=True)

        backward()
        grads = {name: t.grad.copy() for name, t in params.items()}
        with pytest.raises(RuntimeError, match="already holds a gradient"):
            backward()
        return grads

    bare, held = backpropagate(False), backpropagate(True)
    assert len(bare) == 13 and bare.keys() == held.keys()
    for name in bare:
        assert bare[name].tobytes() == held[name].tobytes(), name


class TestFunction:
    def test_zero_context_zero_bias(self):
        mod = ProjectionModule(4, 3, Rng(10))
        out = mod(np.zeros(4, dtype=np.float32))
        assert np.allclose(out, 0.0)

    def test_shape(self):
        mod = ProjectionModule(4, 3, Rng(11))
        assert mod(np.ones((5, 4), dtype=np.float32)).shape == (5, 3)


# -- the encoder kernel against the op-composed encoder -------------------------

SPEC = CorpusSpec(n_scenes=40, seed=5)
KERNEL_PRESETS = ["CNM#2", "Col/1", "Module/R", "Module/O"]


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(SPEC)


@pytest.fixture(scope="module")
def scenes(corpus):
    """Region features of one scene, (N, d_r) each, and a 16-scene batch
    of mixed region counts, zero-padded, with its region mask."""
    synth = FeatureSynthesizer(SPEC)
    by_id = {s.scene_id: s for s in corpus.scenes}
    one = synth.features(corpus.scenes[0])
    batch = _pack(corpus.examples[:16], by_id, synth)
    assert not batch.region_mask.all()
    return {"one": (*one, None), "batch": (batch.r_obj, batch.r_attr, batch.region_mask)}


def kernel_model(corpus, preset, dtype):
    model_cfg, _ = apply_preset(preset, ModelConfig(vocab_size=len(corpus.vocab), d_v=16,
                                                    d_a=8), TrainConfig())
    return CaptionModel(model_cfg, Rng(3).derive(1), dtype=dtype)


def encode_and_backpropagate(encode, model, r_obj, r_attr, mask, seed,
                             fields=("values", "means")):
    """Encode with gradients reaching the features, backpropagate a random
    weighting of the encoding's ``fields``, and return them and every
    gradient by name."""
    params = model.named_parameters()
    for p in params.values():
        p.grad = None
    inputs = {name: Tensor(r, requires_grad=True, dtype=model.dtype)
              for name, r in (("r_obj", r_obj), ("r_attr", r_attr))}
    enc = encode(model, inputs["r_obj"], inputs["r_attr"], mask)
    outputs = {name: getattr(enc, name) for name in fields}
    rs = np.random.RandomState(seed)
    total = None
    for out in outputs.values():
        term = (out * Tensor(rs.randn(*out.shape), dtype=model.dtype)).sum()
        total = term if total is None else total + term
    total.backward()
    got = {name: out.data for name, out in outputs.items()}
    # a parameter's gradient is a view of the arena, which the next
    # backward writes: keep a copy
    got.update((f"grad.{name}", t.grad.copy()) for name, t in {**params, **inputs}.items()
               if name.startswith(("enc.", "r_")) and t.grad is not None)
    return got


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ["one", "batch"])
@pytest.mark.parametrize("preset", KERNEL_PRESETS)
def test_kernel_matches_reference_bit_for_bit(corpus, scenes, preset, case, dtype):
    model = kernel_model(corpus, preset, dtype)
    args = (model, *scenes[case], 7)
    got = encode_and_backpropagate(kernel_encode, *args)
    want = encode_and_backpropagate(reference_encode, *args)
    assert got.keys() == want.keys()
    # every encoder weight, and every feature matrix a module reads
    reads_attr = "attribute" in model.encoders
    assert {f"grad.{name}" for name in model.named_parameters() if name.startswith("enc.")} \
        | {"grad.r_obj"} | ({"grad.r_attr"} if reads_attr else set()) <= got.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("field", ["values", "means"])
def test_a_gradient_through_one_field_alone_matches_the_reference(corpus, scenes, field):
    # through the means alone, the kernel's node runs only because the
    # means' closure makes it run
    model = kernel_model(corpus, "CNM#2", np.float32)
    args = (model, *scenes["batch"], 7)
    got = encode_and_backpropagate(kernel_encode, *args, fields=(field,))
    want = encode_and_backpropagate(reference_encode, *args, fields=(field,))
    assert got.keys() == want.keys() and "grad.r_obj" in got
    assert all(got[name].tobytes() == want[name].tobytes() for name in want)


def count_tensors(monkeypatch) -> list:
    """A list that grows by one for every Tensor made from here on."""
    made, init = [], Tensor.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counted)
    return made


@pytest.mark.parametrize("preset", KERNEL_PRESETS)
def test_encode_without_gradients_makes_no_tensor(corpus, scenes, preset, monkeypatch):
    model = kernel_model(corpus, preset, np.float32)
    made = count_tensors(monkeypatch)
    for r_obj, r_attr, mask in scenes.values():
        recorded = model.encode(r_obj, r_attr, mask, record=True)
        enc = model.encode(r_obj, r_attr, mask)
        # no record without one asked for, and the same values and means,
        # to the bit
        assert enc.record is None and recorded.record is not None
        assert isinstance(enc.values, np.ndarray) and isinstance(enc.means, np.ndarray)
        assert enc.values.tobytes() == recorded.values.tobytes()
        assert enc.means.tobytes() == recorded.means.tobytes()
    assert made == []


def test_a_training_batch_encodes_as_one_node(corpus, scenes, monkeypatch):
    # the encode is one stage of the training step: one record for the
    # whole batch, what each module's backward reads, and no Tensor
    model = kernel_model(corpus, "CNM#2", np.float32)
    made = count_tensors(monkeypatch)
    enc = model.encode(*scenes["batch"], record=True)
    saved, keep, inv, *shapes = enc.record
    assert list(saved) == list(model.encoders) and all(saved.values())
    assert shapes == [scenes["batch"][0].shape, scenes["batch"][1].shape]
    assert made == []
