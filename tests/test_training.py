"""Training loops, self-critical updates, and checkpoint round trips."""

import dataclasses
import json

import numpy as np
import pytest

from modcap import config
from modcap.config import PRESET_GRID, ModelConfig, TrainConfig, apply_preset
from modcap.corpus import CorpusSpec, FeatureSynthesizer, few_shot_subset, generate_corpus
from modcap.decoder import BOS_ID, EOS_ID, PAD_ID, CaptionModel, _stack_table, sample_decode
from modcap.errors import ConfigError, DataError, FormatError
from modcap.metrics import IdfTable
from modcap.tensor import (Adam, Rng, Tensor, clip_global_norm, masked_nll, no_grad,
                           sweep_order)
from modcap.training import (
    LOSS_EPS,
    TRAIN_STREAM_TAG,
    Batch,
    TrainState,
    _pack,
    decode_split,
    evaluate_split,
    load_checkpoint,
    make_batches,
    restore_training,
    run_rl_epoch,
    run_xe_epoch,
    save_checkpoint,
    self_critical_loss,
    teacher_forced,
    teacher_forced_metrics,
    train,
)
from reference import ReferenceAdam, assert_same_update, reference_clip, reference_forced

SPEC = CorpusSpec(n_scenes=24, seed=5)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(SPEC)


@pytest.fixture(scope="module")
def synth():
    return FeatureSynthesizer(SPEC)


def model_cfg(corpus, **over):
    base = dict(vocab_size=len(corpus.vocab), d_r=64, d_v=16, d_a=8,
                heads=4, m_units=2, strategy="soft")
    base.update(over)
    return ModelConfig(**base)


def fresh_model(corpus, seed=3, **over):
    return CaptionModel(model_cfg(corpus, **over), Rng(seed).derive(1))


def one_scene_per_region_count(corpus, synth):
    """One gold example of each region count, and the examples packed into
    one zero-padded batch."""
    scenes = {s.scene_id: s for s in corpus.scenes}
    examples, counts = [], set()
    for e in corpus.examples:
        k = len(scenes[e.scene_id].regions)
        if k not in counts:
            counts.add(k)
            examples.append(e)
    assert len(counts) >= 2
    batch = _pack(examples, scenes, synth)
    assert not batch.region_mask.all()
    return examples, batch


class TestBatching:
    def test_uniform_region_count_per_batch(self, corpus, synth):
        scenes = {s.scene_id: s for s in corpus.scenes}
        batches = make_batches(corpus.examples, scenes, synth, 8, Rng(0))
        for b in batches:
            counts = {len(scenes[sid].regions) for sid in b.scene_ids}
            assert len(counts) == 1
            assert b.r_obj.shape == (b.size, counts.pop(), SPEC.d_r)

    def test_covers_every_example_once(self, corpus, synth):
        scenes = {s.scene_id: s for s in corpus.scenes}
        batches = make_batches(corpus.examples, scenes, synth, 8, Rng(0))
        seen = [(sid, tuple(b.targets[i][b.mask[i] > 0]))
                for b in batches for i, sid in enumerate(b.scene_ids)]
        assert len(seen) == len(corpus.examples)

    def test_alignment(self, corpus, synth):
        scenes = {s.scene_id: s for s in corpus.scenes}
        (batch,) = make_batches(corpus.examples[:1], scenes, synth, 1)
        e = corpus.examples[0]
        n = len(e.token_ids) - 1
        assert batch.inputs[0, 0] == BOS_ID
        assert list(batch.targets[0, :n]) == e.token_ids[1:]
        assert batch.targets[0, n - 1] == EOS_ID
        assert list(batch.labels[0, :n]) == e.labels
        assert batch.mask[0].sum() == n

    def test_shuffle_is_seeded(self, corpus, synth):
        scenes = {s.scene_id: s for s in corpus.scenes}
        ids = lambda bs: [b.scene_ids for b in bs]
        a = make_batches(corpus.examples, scenes, synth, 8, Rng(4))
        b = make_batches(corpus.examples, scenes, synth, 8, Rng(4))
        c = make_batches(corpus.examples, scenes, synth, 8, Rng(5))
        assert ids(a) == ids(b)
        assert ids(a) != ids(c)

    def test_no_rng_is_stable(self, corpus, synth):
        scenes = {s.scene_id: s for s in corpus.scenes}
        a = make_batches(corpus.examples, scenes, synth, 8)
        b = make_batches(corpus.examples, scenes, synth, 8)
        assert [x.scene_ids for x in a] == [x.scene_ids for x in b]


class TestTeacherForced:
    def batch_of(self, corpus, synth, examples):
        scenes = {s.scene_id: s for s in corpus.scenes}
        return list(make_batches(examples, scenes, synth, len(examples)))

    def test_loss_and_counts(self, corpus, synth):
        model = fresh_model(corpus)
        (batch,) = self.batch_of(corpus, synth, corpus.examples[:4])
        stats = teacher_forced(model, batch, lam_ling=1.0)
        assert np.isfinite(stats.loss.item()) and stats.loss.item() > 0
        assert stats.n_tokens == batch.mask.sum()
        assert 0 <= stats.n_correct <= stats.n_tokens
        assert 0 <= stats.n_agree <= stats.n_tokens
        assert stats.ling_mean is not None

    def test_loss_is_a_scalar(self, corpus, synth):
        model = fresh_model(corpus)
        (batch,) = self.batch_of(corpus, synth, corpus.examples[:4])
        stats = teacher_forced(model, batch, lam_ling=1.0)
        assert stats.loss.shape == ()
        assert stats.xe_sum.shape == ()

    def test_row_weighted_word_class_term(self, corpus, synth):
        # scenes of different region counts in one padded batch: the gold
        # rows of the self-critical forced pass weigh each token
        # 1/(n_tokens_b * M), so with every advantage zero the surrogate is
        # the sum of each scene's own batch-1 word-class mean
        model = fresh_model(corpus)
        scenes = {s.scene_id: s for s in corpus.scenes}
        examples, batch = one_scene_per_region_count(corpus, synth)
        enc = model.encode(batch.r_obj, batch.r_attr, batch.region_mask)
        refs = [["qq", "ww", "ee", "rr"]]
        idf = IdfTable({0: refs, 1: [["zz", "xx", "cc", "vv"]]})
        loss, infos = self_critical_loss(model, enc, [refs] * batch.size, idf,
                                         corpus.vocab.tokens, Rng(9), max_len=8,
                                         gold=batch, lam=1.0)
        assert [info["advantage"] for info in infos] == [0.0] * batch.size
        want = sum(teacher_forced(model, _pack([e], scenes, synth), lam_ling=1.0)
                   .ling_mean.item() for e in examples)
        assert loss.item() == pytest.approx(want, rel=1e-5)

    def test_objective_composition(self, corpus, synth):
        model = fresh_model(corpus)
        (batch,) = self.batch_of(corpus, synth, corpus.examples[:4])
        lam = 0.7
        stats = teacher_forced(model, batch, lam_ling=lam)
        want = stats.xe_sum.item() / stats.n_tokens + lam * stats.ling_mean.item()
        assert stats.loss.item() == pytest.approx(want, rel=1e-6)

    def test_gradients_reach_everything(self, corpus, synth):
        model = fresh_model(corpus)
        (batch,) = self.batch_of(corpus, synth, corpus.examples[:4])
        stats = teacher_forced(model, batch, lam_ling=1.0)
        stats.loss.backward()
        for name, p in model.named_parameters().items():
            assert p.grad is not None, name

    def test_the_word_loss_alone_reaches_every_unit_parameter(self, corpus, synth):
        # the word-class term reaches every parameter by itself: without
        # it, only the word head's gradient of its rows can reach the units
        model = fresh_model(corpus)
        (batch,) = self.batch_of(corpus, synth, corpus.examples[:4])
        teacher_forced(model, batch, lam_ling=0.0).loss.backward()
        units = {n: p for n, p in model.named_parameters().items() if n.startswith("unit")}
        assert len(units) == sum(len(unit.weights) for unit in model.units)
        for name, p in units.items():
            assert p.grad is not None and np.any(p.grad), name

    def test_no_parameter_is_a_parent(self, corpus, synth):
        # the kernels read the weights and write their gradients into the
        # arena: no node a loss reaches lists a parameter among its parents,
        # in an XE step or in a self-critical surrogate with the word-class
        # term
        mcfg, _ = apply_preset("CNM#2", model_cfg(corpus), TrainConfig())
        model = CaptionModel(mcfg, Rng(3).derive(1))
        held = {id(p) for p in model.named_parameters().values()}
        (batch,) = self.batch_of(corpus, synth, corpus.examples[:4])
        enc = model.encode(batch.r_obj, batch.r_attr, batch.region_mask)
        refs = corpus.references()
        scst, _ = self_critical_loss(model, enc, [refs[i] for i in batch.scene_ids],
                                     IdfTable(refs), corpus.vocab.tokens, Rng(9), max_len=8,
                                     gold=batch, lam=1.0)
        for loss in (teacher_forced(model, batch, lam_ling=1.0, rng=Rng(0)).loss, scst):
            nodes = sweep_order(loss)
            assert len(nodes) > 5
            assert [p for node in nodes for p in node._parents if id(p) in held] == []
            model.arena.clear_grads()
            loss.backward()
            assert all(model.arena.reached)

    def test_a_second_gradient_term_is_refused(self, corpus, synth):
        # the kernels write a parameter's gradient in place: a backward that
        # would write over one the arena holds is refused until the
        # gradients are cleared
        model = fresh_model(corpus)
        (batch,) = self.batch_of(corpus, synth, corpus.examples[:4])
        teacher_forced(model, batch, lam_ling=1.0).loss.backward()
        first = model.arena.grad.copy()
        with pytest.raises(RuntimeError, match="'head.b' already holds a gradient"):
            teacher_forced(model, batch, lam_ling=1.0).loss.backward()
        assert model.arena.grad.tobytes() == first.tobytes()
        model.arena.clear_grads()
        teacher_forced(model, batch, lam_ling=1.0).loss.backward()
        assert model.arena.grad.tobytes() == first.tobytes()

    def test_single_module_has_no_agreement(self, corpus, synth):
        model = fresh_model(corpus, modules=("object",), m_units=1)
        (batch,) = self.batch_of(corpus, synth, corpus.examples[:4])
        stats = teacher_forced(model, batch, lam_ling=1.0)
        assert stats.n_agree is None
        assert stats.ling_mean is None

    def test_batch_additivity(self, corpus, synth):
        # two captions of the same scene: batched loss equals the sum of
        # the individual ones
        model = fresh_model(corpus)
        pair = corpus.examples[0:2]
        (batch,) = self.batch_of(corpus, synth, pair)
        both = teacher_forced(model, batch)
        singles = [teacher_forced(model, b)
                   for b in self.batch_of(corpus, synth, [pair[0]])
                   + self.batch_of(corpus, synth, [pair[1]])]
        want = singles[0].xe_sum.item() + singles[1].xe_sum.item()
        assert both.xe_sum.item() == pytest.approx(want, rel=1e-5)

    def test_feeds_exactly_the_gold_inputs(self, corpus, synth, monkeypatch):
        # padded rows are fed PAD after their end token, never the end token:
        # the one embedding gather of the pass reads exactly batch.inputs,
        # step-major
        import modcap.decoder
        model = fresh_model(corpus)
        (batch,) = self.batch_of(corpus, synth, corpus.examples[:4])
        assert (batch.mask == 0).any()
        fed = []
        real_gather = modcap.decoder.gather_rows

        def spy(table, indices):
            if table is model.embed:
                fed.append(np.array(indices))
            return real_gather(table, indices)

        monkeypatch.setattr(modcap.decoder, "gather_rows", spy)
        teacher_forced(model, batch)
        assert len(fed) == 1
        assert np.array_equal(fed[0], batch.inputs.T)

    def test_node_count_is_deterministic_and_bounded(self, corpus, synth):
        # 20 nodes with the encoder as one node (plus its means), the
        # decoder units as one node over the whole caption (plus each
        # unit's controller softmax) and the word head as one node; with
        # one node per unit the same pass built 21, with the word head
        # composed of four ops 24, with per-module encoder outputs and
        # Tensor traces 35, with the op-composed encoder 113, with one
        # node per unit step 358, with op-composed unit steps 646
        model_cfg, train_cfg = apply_preset(
            "CNM#2", ModelConfig(vocab_size=len(corpus.vocab)), TrainConfig())
        model = CaptionModel(model_cfg, Rng(3))
        (batch,) = self.batch_of(corpus, synth, corpus.examples[:4])
        counts = []
        for _ in range(2):
            start = next(Tensor._ids)
            teacher_forced(model, batch, lam_ling=config.LAMBDA_XE, rng=Rng(1))
            counts.append(next(Tensor._ids) - start - 1)
        assert counts[0] == counts[1]
        assert counts[0] <= 22      # 20 and 10%

    def test_metrics_shape(self, corpus, synth):
        model = fresh_model(corpus)
        got = teacher_forced_metrics(model, corpus, synth, "val")
        assert set(got) == {"xe_per_token", "token_acc", "ctrl_agree", "n_tokens"}
        assert 0.0 <= got["token_acc"] <= 1.0
        assert 0.0 <= got["ctrl_agree"] <= 1.0
        again = teacher_forced_metrics(model, corpus, synth, "val")
        assert got == again


class TestXeEpoch:
    def test_loss_decreases(self, corpus, synth):
        model = fresh_model(corpus, m_units=1)
        cfg = TrainConfig(xe_epochs=3, rl_epochs=0, batch_size=8, lr=3e-3, seed=5)
        opt = Adam()
        rng = Rng(cfg.seed).derive(TRAIN_STREAM_TAG)
        first = run_xe_epoch(model, corpus, synth, cfg, opt, rng, 0)
        last = None
        for epoch in (1, 2):
            last = run_xe_epoch(model, corpus, synth, cfg, opt, rng, epoch)
        assert last["loss"] < first["loss"]
        assert last["token_acc"] > first["token_acc"]
        assert first["lr"] == cfg.lr

    def test_decay_schedule_applies(self, corpus, synth, monkeypatch):
        monkeypatch.setattr(config, "LR_DECAY", 0.5)
        monkeypatch.setattr(config, "DECAY_EVERY", 2)
        model = fresh_model(corpus, m_units=1)
        cfg = TrainConfig(xe_epochs=8, rl_epochs=0, batch_size=16, lr=1e-3, seed=5)
        opt = Adam()
        rng = Rng(0)
        stats = run_xe_epoch(model, corpus, synth, cfg, opt, rng, 5)
        assert stats["lr"] == pytest.approx(1e-3 * 0.5 ** 2)

    def test_record_keeps_the_gradient_norms(self, corpus, synth, monkeypatch):
        import modcap.training
        norms = []
        real_clip = modcap.training.clip_global_norm

        def recording_clip(params, max_norm):
            norms.append(real_clip(params, max_norm))
            return norms[-1]

        monkeypatch.setattr(modcap.training, "clip_global_norm", recording_clip)
        model = fresh_model(corpus, m_units=1)
        # a bound between the smallest and the largest norm clips some steps
        monkeypatch.setattr(config, "GRAD_CLIP", 0.6)
        cfg = TrainConfig(xe_epochs=1, rl_epochs=0, batch_size=8, lr=3e-3, seed=5)
        stats = run_xe_epoch(model, corpus, synth, cfg, Adam(), Rng(0), 0)
        assert len(norms) == stats["steps"]
        assert stats["grad_norm_mean"] == pytest.approx(sum(norms) / len(norms))
        assert stats["grad_norm_max"] == max(norms)
        assert stats["clipped_steps"] == sum(n > 0.6 for n in norms)
        assert 0 < stats["clipped_steps"] < stats["steps"]

    def test_nan_gradients_are_named_before_any_update(self, corpus, synth, monkeypatch):
        # the global norm of a NaN gradient is NaN, which never compares
        # greater than the bound: clipping must stop the step, not pass it on
        import modcap.training
        from modcap.errors import TrainingError
        real_clip = modcap.training.clip_global_norm

        def poisoning_clip(arena, max_norm):
            params["unit1.lstm2.W"].grad[0, 0] = np.nan
            params["head.b"].grad[1] = np.inf
            return real_clip(arena, max_norm)

        monkeypatch.setattr(modcap.training, "clip_global_norm", poisoning_clip)
        model = fresh_model(corpus, m_units=1)
        params = model.named_parameters()
        before = {k: v.data.copy() for k, v in params.items()}
        opt = Adam()
        cfg = TrainConfig(xe_epochs=1, rl_epochs=0, batch_size=8, lr=3e-3, seed=5)
        with pytest.raises(TrainingError) as err:
            run_xe_epoch(model, corpus, synth, cfg, opt, Rng(0), 0)
        assert "'head.b'" in str(err.value) and "'unit1.lstm2.W'" in str(err.value)
        assert not opt.state
        assert all(np.array_equal(before[k], params[k].data) for k in params)


    def test_epochs_and_metrics_keep_blas_on_the_calling_thread(self, corpus, synth,
                                                                 monkeypatch):
        # whole-caption products are large enough for OpenBLAS to hand them
        # to worker threads; the epochs keep them on the calling thread
        import modcap.training
        from modcap import tensor

        def blas_threads():
            blas = tensor._openblas()
            return blas[0]() if blas else None

        seen = []
        real_clip = modcap.training.clip_global_norm
        real_forced = modcap.training.teacher_forced

        def recording_clip(params, max_norm):
            seen.append(("clip", blas_threads()))
            return real_clip(params, max_norm)

        def recording_forced(*args, **kwargs):
            seen.append(("forced", blas_threads()))
            return real_forced(*args, **kwargs)

        monkeypatch.setattr(modcap.training, "clip_global_norm", recording_clip)
        monkeypatch.setattr(modcap.training, "teacher_forced", recording_forced)
        before = blas_threads()
        model = fresh_model(corpus, m_units=1)
        cfg = TrainConfig(xe_epochs=1, rl_epochs=1, batch_size=8, lr=3e-3, seed=5)
        rng = Rng(0)
        run_xe_epoch(model, corpus, synth, cfg, Adam(), rng, 0)
        modcap.training.teacher_forced_metrics(model, corpus, synth, "val")
        before_rl = len(seen)
        run_rl_epoch(model, corpus, synth, cfg, Adam(), rng, 1,
                     IdfTable(corpus.references("train")), max_steps=8)
        assert len(seen) > before_rl
        assert {name for name, _ in seen} == {"clip", "forced"}
        assert {count for _, count in seen} == {None if before is None else 1}
        assert blas_threads() == before

class TestParamArena:
    """The flat Adam update and clipping against the per-parameter reference."""

    def preset_model(self, corpus, preset):
        mcfg, train_cfg = apply_preset(
            preset, model_cfg(corpus), TrainConfig(batch_size=8, lr=3e-3, seed=5, max_len=10))
        return CaptionModel(mcfg, Rng(7).derive(1)), train_cfg

    def three_batches(self, corpus):
        """24 training captions of scenes with one region count: 3 XE steps."""
        scenes = {s.scene_id: s for s in corpus.scenes}
        by_count = {}
        for e in corpus.examples_in("train"):
            by_count.setdefault(len(scenes[e.scene_id].regions), []).append(e)
        return max(by_count.values(), key=len)[:24]

    def train_once(self, corpus, synth, monkeypatch, preset, opt, clip, grad_clip=5.0):
        """3 XE steps and one 8-scene SCST window; returns the model, the
        optimizer and the clip norms."""
        import modcap.training
        norms = []

        def recording_clip(params, max_norm):
            norms.append(clip(params, max_norm))
            return norms[-1]

        monkeypatch.setattr(modcap.training, "clip_global_norm", recording_clip)
        monkeypatch.setattr(config, "GRAD_CLIP", grad_clip)
        model, cfg = self.preset_model(corpus, preset)
        rng = Rng(cfg.seed).derive(TRAIN_STREAM_TAG)
        xe = run_xe_epoch(model, corpus, synth, cfg, opt, rng, 0,
                          examples=self.three_batches(corpus))
        assert xe["steps"] == 3
        run_rl_epoch(model, corpus, synth, cfg, opt, rng, 1,
                     IdfTable(corpus.references("train")), max_steps=8)
        return model, opt, norms

    def assert_same_training(self, got, want):
        (model, opt, norms), (ref_model, ref_opt, ref_norms) = got, want
        assert norms == ref_norms
        assert_same_update(model.named_parameters(), opt, ref_model.named_parameters(),
                           ref_opt)

    @pytest.mark.parametrize("preset", PRESET_GRID)
    def test_matches_the_per_parameter_update(self, corpus, synth, monkeypatch, preset):
        got = self.train_once(corpus, synth, monkeypatch, preset, Adam(),
                              clip_global_norm)
        want = self.train_once(corpus, synth, monkeypatch, preset, ReferenceAdam(),
                               reference_clip)
        assert len(got[2]) == 4
        self.assert_same_training(got, want)

    def test_clipped_steps_match_the_per_parameter_update(self, corpus, synth,
                                                          monkeypatch):
        got = self.train_once(corpus, synth, monkeypatch, "CNM#2", Adam(),
                              clip_global_norm, grad_clip=0.05)
        want = self.train_once(corpus, synth, monkeypatch, "CNM#2", ReferenceAdam(),
                               reference_clip, grad_clip=0.05)
        assert all(norm > 0.05 for norm in got[2])
        self.assert_same_training(got, want)

    def test_unreached_controller_keeps_its_bytes_and_has_no_state(self, corpus, synth,
                                                                   monkeypatch):
        # under uniform weights no op reads the controller of Col/1
        before, _ = self.preset_model(corpus, "Col/1")
        model, opt, _ = self.train_once(corpus, synth, monkeypatch, "Col/1", Adam(),
                                        clip_global_norm)
        ctrl = [name for name in model.named_parameters() if ".ctrl." in name]
        assert ctrl
        initial, params = before.named_parameters(), model.named_parameters()
        for name in ctrl:
            assert params[name].data.tobytes() == initial[name].data.tobytes()
            assert params[name].grad is None
            assert name not in opt.state
        assert set(opt.state) == set(params) - set(ctrl)

    def test_a_graph_built_before_a_step_keeps_the_old_values(self, corpus, synth):
        model, cfg = self.preset_model(corpus, "CNM#2")
        params = model.named_parameters()
        batch = list(make_batches(self.three_batches(corpus),
                                  {s.scene_id: s for s in corpus.scenes}, synth, 8))[0]
        opt = Adam()
        for _ in range(2):      # the second step updates buffers the first made
            stats = teacher_forced(model, batch, lam_ling=1.0, rng=Rng(0))
            for p in params.values():
                p.grad = None
            stats.loss.backward()
            held = {name: p.data for name, p in params.items()}
            copies = {name: a.copy() for name, a in held.items()}
            loss = stats.loss.data.copy()
            opt.step(model.arena, cfg.lr)
            for name, p in params.items():
                assert p.data is not held[name]
                np.testing.assert_array_equal(held[name], copies[name], err_msg=name)
            np.testing.assert_array_equal(stats.loss.data, loss)
            assert any(not np.array_equal(params[name].data, copies[name])
                       for name in params)
        # the stacked attention weights follow the rebound arrays
        unit = model.units[0]
        w_v = [unit.weights[f"att.{name}.Wv"].data.T for name in unit.modules]
        np.testing.assert_array_equal(_stack_table(model.units)["heads"][0][0], np.stack(w_v))

    def test_parameters_and_moments_share_flat_buffers(self, corpus, synth, monkeypatch):
        model, opt, _ = self.train_once(corpus, synth, monkeypatch, "CNM#2", Adam(),
                                        clip_global_norm)
        params = model.named_parameters()
        arena = model.arena
        assert arena.names == tuple(params)
        flat_m = opt.state[arena.names[0]].m.base
        assert flat_m.shape == arena.data.shape
        for name, p in params.items():
            assert p.data.base is arena.data and p.grad.base is arena.grad
            assert opt.state[name].m.base is flat_m


class TestSelfCritical:
    def test_zero_advantage_means_zero_gradient(self, corpus, synth):
        model = fresh_model(corpus)
        scene = corpus.scenes_in("train")[0]
        enc = model.encode(*synth.features(scene))
        # references that share no word with the vocabulary: both the
        # sampled and the greedy caption score zero, advantage is exactly 0
        refs = [["qq", "ww", "ee", "rr"]]
        idf = IdfTable({0: refs, 1: [["zz", "xx", "cc", "vv"]]})
        loss, (info,) = self_critical_loss(model, enc, [refs], idf,
                                           corpus.vocab.tokens, Rng(9), max_len=8)
        assert info["advantage"] == 0.0
        assert loss.item() == 0.0
        loss.backward()
        for name, p in model.named_parameters().items():
            assert p.grad is None or not np.any(p.grad), name

    def test_zero_advantage_window_is_zero(self, corpus, synth):
        model = fresh_model(corpus)
        scenes = {s.scene_id: s for s in corpus.scenes}
        batch = _pack(corpus.examples[::7][:5], scenes, synth)
        enc = model.encode(batch.r_obj, batch.r_attr, batch.region_mask)
        refs = [["qq", "ww", "ee", "rr"]]
        idf = IdfTable({0: refs, 1: [["zz", "xx", "cc", "vv"]]})
        loss, infos = self_critical_loss(model, enc, [refs] * batch.size, idf,
                                         corpus.vocab.tokens, Rng(9), max_len=8)
        assert [info["advantage"] for info in infos] == [0.0] * batch.size
        assert loss.shape == () and loss.item() == 0.0
        loss.backward()
        for name, p in model.named_parameters().items():
            assert p.grad is None or not np.any(p.grad), name

    def test_nonzero_advantage_updates(self, corpus, synth):
        model = fresh_model(corpus)
        scene = corpus.scenes_in("train")[0]
        refs = corpus.references("train")[scene.scene_id]
        idf = IdfTable(corpus.references("train"))
        enc = model.encode(*synth.features(scene))
        found = False
        rng = Rng(3)
        for _ in range(10):
            loss, (info,) = self_critical_loss(model, enc, [refs], idf,
                                               corpus.vocab.tokens, rng, max_len=8)
            if info["advantage"] != 0.0:
                loss.backward()
                grads = [p.grad for p in model.named_parameters().values()
                         if p.grad is not None and np.any(p.grad)]
                assert grads
                found = True
                break
        assert found, "sampling never diverged from greedy"

    @pytest.mark.parametrize("lam, concats", [(0.0, 0), (config.LAMBDA_RL, 2)])
    def test_only_gold_rows_list_the_encoding_twice_as_tensors(self, corpus, synth,
                                                              monkeypatch, lam, concats):
        # without the word-class term the decode reads the doubled arrays and
        # the replay runs on the encoding as it is: no concat node is made
        import modcap.training
        made, real = [], modcap.training.concat
        monkeypatch.setattr(modcap.training, "concat",
                            lambda ts, axis: made.append(ts) or real(ts, axis))
        mcfg, _ = apply_preset("CNM#2", model_cfg(corpus), TrainConfig())
        model = CaptionModel(mcfg, Rng(7).derive(1))
        _, batch = one_scene_per_region_count(corpus, synth)
        refs = corpus.references()
        enc = model.encode(batch.r_obj, batch.r_attr, batch.region_mask)
        loss, _ = self_critical_loss(model, enc, [refs[sid] for sid in batch.scene_ids],
                                     IdfTable(refs), corpus.vocab.tokens, Rng(11), 6,
                                     gold=batch, lam=lam)
        loss.backward()
        assert len(made) == concats

    @staticmethod
    def chained_surrogate(model, batch, infos, rng, max_len, lam):
        """The self-critical surrogate on the op-composed Tensor step: the
        tokens the surrogate samples from ``rng``, weighted by the
        advantages of its ``infos``, and the gold captions, each chained
        step by step from the zero state under the noise the surrogate
        draws."""
        enc = model.encode(batch.r_obj, batch.r_attr, batch.region_mask)
        with no_grad():
            sampled, noise = sample_decode(model, enc, rng, max_len)
        n_sampled, n_gold = max(map(len, sampled)), batch.inputs.shape[1]
        gold_noise = model.selection_noise(rng, max(n_sampled, n_gold), batch.size)
        inputs = np.full((batch.size, n_sampled), PAD_ID)
        for b, row in enumerate(sampled):
            inputs[b, :len(row)] = [BOS_ID] + row[:-1]
        dists, _ = reference_forced(model, inputs, enc,
                                    None if noise is None else noise[:n_sampled])
        total = None
        for t, dist in enumerate(dists):
            tokens = [row[t] if t < len(row) else PAD_ID for row in sampled]
            weights = [info["advantage"] if t < len(row) else 0.0
                       for row, info in zip(sampled, infos)]
            term = masked_nll(dist, tokens, weights)
            total = term if total is None else total + term
        _, traces = reference_forced(model, batch.inputs, enc,
                                     None if gold_noise is None else gold_noise[:n_gold])
        per_token = 1.0 / (batch.mask.sum(axis=1) * len(model.units))
        for t, step_traces in enumerate(traces):
            for tr in step_traces:
                nll = masked_nll(tr.soft, batch.labels[:, t], batch.mask[:, t] * per_token,
                                 LOSS_EPS)
                total = total + lam * nll
        return total

    @pytest.mark.parametrize("preset, gumbel_tau", [("CNM#2", 1.0), ("Col/H+L", 0.5)])
    def test_surrogate_gradients_match_a_chained_reference_pass(self, corpus, synth, preset,
                                                                 gumbel_tau):
        # the surrogate replays the sampled tokens in one forced pass, the
        # gold captions as more rows of it; chaining the op-composed step
        # along the same tokens and noise gives the same gradients.  Gold
        # captions longer than max_len run past the sampled noise.
        mcfg, _ = apply_preset(preset, model_cfg(corpus, gumbel_tau=gumbel_tau),
                               TrainConfig())
        model = CaptionModel(mcfg, Rng(7).derive(1))
        params = model.named_parameters()
        _, batch = one_scene_per_region_count(corpus, synth)
        max_len, lam = 6, config.LAMBDA_RL
        assert batch.inputs.shape[1] > max_len
        refs = corpus.references()
        enc = model.encode(batch.r_obj, batch.r_attr, batch.region_mask)
        loss, infos = self_critical_loss(model, enc, [refs[sid] for sid in batch.scene_ids],
                                         IdfTable(refs), corpus.vocab.tokens, Rng(11),
                                         max_len, gold=batch, lam=lam)
        assert any(info["advantage"] != 0.0 for info in infos)

        def grads(objective):
            for p in params.values():
                p.grad = None
            objective.backward()
            return {name: p.grad.copy() for name, p in params.items() if p.grad is not None}

        got = grads(loss)
        chained = self.chained_surrogate(model, batch, infos, Rng(11), max_len, lam)
        assert chained.item() == pytest.approx(loss.item(), rel=1e-5)
        want = grads(chained)
        assert got.keys() == want.keys()
        assert any(name.startswith("unit1.ctrl.") for name in got)
        for name in got:
            err = np.max(np.abs(got[name] - want[name])) / max(np.max(np.abs(want[name])),
                                                               1e-30)
            assert err <= 1e-5, name

    def test_rl_epoch_runs_and_updates(self, corpus, synth):
        model = fresh_model(corpus)
        cfg = TrainConfig(xe_epochs=0, rl_epochs=1, batch_size=4, lr=1e-3,
                          seed=5, max_len=10)
        before = {k: v.data.copy() for k, v in model.named_parameters().items()}
        idf = IdfTable(corpus.references("train"))
        stats = run_rl_epoch(model, corpus, synth, cfg, Adam(),
                             Rng(5).derive(TRAIN_STREAM_TAG), 0, idf, max_steps=8)
        assert stats["steps"] == 8
        assert stats["phase"] == "rl"
        after = model.named_parameters()
        changed = any(not np.array_equal(before[k], after[k].data) for k in before)
        assert changed

    def test_rl_epoch_is_reproducible(self, corpus, synth):
        cfg = TrainConfig(xe_epochs=0, rl_epochs=1, batch_size=4, lr=1e-3,
                          seed=5, max_len=10)
        idf = IdfTable(corpus.references("train"))
        runs = []
        for _ in range(2):
            model = fresh_model(corpus)
            rng = Rng(5).derive(TRAIN_STREAM_TAG)
            # windows of 4, 4 and 1 scenes
            stats = run_rl_epoch(model, corpus, synth, cfg, Adam(), rng, 0, idf,
                                 max_steps=9)
            runs.append((stats, rng.get_state(),
                         {k: v.data.copy() for k, v in model.named_parameters().items()}))
        assert runs[0][0] == runs[1][0]
        assert runs[0][0]["steps"] == 9
        assert runs[0][1] == runs[1][1]
        for name, value in runs[0][2].items():
            np.testing.assert_array_equal(value, runs[1][2][name], err_msg=name)

    def test_record_counts_only_applied_updates(self, corpus, synth, monkeypatch):
        # a window whose advantages are all zero is skipped (no word-class
        # term): it adds no gradient norm
        import modcap.training
        real_loss, real_clip = (modcap.training.self_critical_loss,
                                modcap.training.clip_global_norm)
        windows, norms = [], []

        def loss_zeroing_the_second_window(*args, **kwargs):
            loss, infos = real_loss(*args, **kwargs)
            windows.append(infos)
            if len(windows) == 2:
                for info in infos:
                    info["advantage"] = 0.0
            return loss, infos

        def recording_clip(params, max_norm):
            norms.append(real_clip(params, max_norm))
            return norms[-1]

        monkeypatch.setattr(modcap.training, "self_critical_loss",
                            loss_zeroing_the_second_window)
        monkeypatch.setattr(modcap.training, "clip_global_norm", recording_clip)
        cfg = TrainConfig(xe_epochs=0, rl_epochs=1, batch_size=4, lr=1e-3, seed=5,
                          max_len=10, linguistic=False)
        stats = run_rl_epoch(fresh_model(corpus), corpus, synth, cfg, Adam(),
                             Rng(5).derive(TRAIN_STREAM_TAG), 0,
                             IdfTable(corpus.references("train")), max_steps=12)
        assert len(windows) == 3 and stats["skipped_updates"] >= 1
        assert len(norms) == len(windows) - stats["skipped_updates"]
        assert stats["grad_norm_mean"] == pytest.approx(sum(norms) / len(norms))
        assert stats["grad_norm_max"] == max(norms)
        assert stats["clipped_steps"] == sum(n > config.GRAD_CLIP for n in norms)

    def test_few_shot_run_scores_against_its_own_captions(self, corpus, synth, monkeypatch):
        # unchecked, the self-critical epochs of a few-shot run scored each
        # sample against every reference of its scene, and the idf table
        # counted every train caption
        import modcap.training
        real_loss, real_idf = modcap.training.self_critical_loss, modcap.training.IdfTable
        refs_seen, tables = [], []

        def recording_loss(model, enc, references, *args, **kwargs):
            refs_seen.extend(references)
            return real_loss(model, enc, references, *args, **kwargs)

        def recording_idf(references_by_image, *args, **kwargs):
            tables.append(references_by_image)
            return real_idf(references_by_image, *args, **kwargs)

        monkeypatch.setattr(modcap.training, "self_critical_loss", recording_loss)
        monkeypatch.setattr(modcap.training, "IdfTable", recording_idf)
        cfg = TrainConfig(xe_epochs=0, rl_epochs=1, batch_size=4, lr=1e-3, seed=5,
                          max_len=10, few_shot=1)
        train(TrainState(fresh_model(corpus), cfg), corpus, synth, log_fn=lambda *_: None)
        kept = few_shot_subset(corpus.examples_in("train"), 1, cfg.seed)
        assert len(kept) == len(corpus.scenes_in("train")) < len(corpus.examples_in("train"))
        assert [len(refs) for refs in refs_seen] == [1] * len(kept)
        assert sorted(refs_seen) == sorted([e.words] for e in kept)
        assert tables == [{e.scene_id: [e.words] for e in kept}]

    def test_rl_epoch_without_supervision(self, corpus, synth):
        model = fresh_model(corpus)
        cfg = TrainConfig(xe_epochs=0, rl_epochs=1, batch_size=4, lr=1e-3,
                          seed=5, linguistic=False, max_len=10)
        idf = IdfTable(corpus.references("train"))
        stats = run_rl_epoch(model, corpus, synth, cfg, Adam(),
                             Rng(5).derive(TRAIN_STREAM_TAG), 0, idf, max_steps=4)
        assert stats["steps"] == 4


class TestDecodeSplit:
    def test_greedy_and_beam(self, corpus, synth):
        model = fresh_model(corpus)
        for mode in ("greedy", "beam"):
            preds = decode_split(model, corpus, synth, "val", mode=mode,
                                 beam_width=2, max_len=8)
            assert set(preds) == {s.scene_id for s in corpus.scenes_in("val")}
            for words in preds.values():
                assert all(w in corpus.vocab.index for w in words)

    def test_bad_mode(self, corpus, synth):
        model = fresh_model(corpus)
        with pytest.raises(ValueError):
            decode_split(model, corpus, synth, "val", mode="viterbi")

    def test_evaluate_split_report(self, corpus, synth):
        model = fresh_model(corpus)
        report = evaluate_split(model, corpus, synth, "val", mode="greedy",
                                max_len=8)
        for key in ("bleu1", "bleu2", "bleu3", "bleu4", "cider_d",
                    "pos_recall", "idf_checksum", "split"):
            assert key in report
        assert report["split"] == "val"
        assert 0.0 <= report["cider_d"] <= 10.0


class TestTrainSchedule:
    def test_history_covers_both_phases(self, corpus, synth):
        model = fresh_model(corpus, m_units=1)
        cfg = TrainConfig(xe_epochs=1, rl_epochs=1, batch_size=8, lr=1e-3,
                          seed=5, max_len=10)
        state = train(TrainState(model, cfg), corpus, synth, log_fn=lambda *_: None)
        assert [h["phase"] for h in state.history] == ["xe", "rl"]
        assert state.epoch == 2
        assert all("val_token_acc" in h for h in state.history)

    def test_same_seed_same_weights(self, corpus, synth):
        cfg = TrainConfig(xe_epochs=1, rl_epochs=0, batch_size=8, lr=1e-3, seed=5)
        runs = []
        for _ in range(2):
            model = fresh_model(corpus, m_units=1)
            train(TrainState(model, cfg), corpus, synth, log_fn=lambda *_: None)
            runs.append({k: v.data.copy()
                         for k, v in model.named_parameters().items()})
        for k in runs[0]:
            np.testing.assert_array_equal(runs[0][k], runs[1][k])


class TestCheckpoints:
    def small_cfg(self, **over):
        return TrainConfig(**{"xe_epochs": 1, "rl_epochs": 1, "batch_size": 8, "lr": 1e-3,
                              "seed": 5, "max_len": 10, **over})

    def one_epoch(self, corpus, synth, **over):
        """A fresh state after one XE epoch run by hand."""
        state = TrainState(fresh_model(corpus), self.small_cfg(**over))
        run_xe_epoch(state.model, corpus, synth, state.cfg, state.opt, state.rng, 0)
        state.epoch = 1
        return state

    def test_round_trip_tensors(self, corpus, synth, tmp_path):
        state = self.one_epoch(corpus, synth)
        model, opt, rng = state.model, state.opt, state.rng
        state.history = [{"epoch": 0}]
        path = str(tmp_path / "model.bin")
        save_checkpoint(path, state, corpus.vocab)
        tensors, meta = load_checkpoint(path)
        params = model.named_parameters()
        for name, p in params.items():
            np.testing.assert_array_equal(tensors[name], p.data)
            np.testing.assert_array_equal(tensors[f"adam.m.{name}"],
                                          opt.state[name].m)
        assert meta["epoch"] == 1
        assert meta["rng"] == rng.get_state()
        assert meta["vocab"]["tokens"] == corpus.vocab.tokens

    def test_save_load_save_is_byte_identical(self, corpus, synth, tmp_path):
        first = str(tmp_path / "a.bin")
        save_checkpoint(first, self.one_epoch(corpus, synth), corpus.vocab)
        restored, vocab = restore_training(first)
        second = str(tmp_path / "b.bin")
        save_checkpoint(second, restored, vocab)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert ((tmp_path / "a.bin.meta.json").read_bytes()
                == (tmp_path / "b.bin.meta.json").read_bytes())

    def test_restored_model_behaves_identically(self, corpus, synth, tmp_path):
        state = self.one_epoch(corpus, synth)
        path = str(tmp_path / "model.bin")
        save_checkpoint(path, state, corpus.vocab)
        restored, _ = restore_training(path)
        want = teacher_forced_metrics(state.model, corpus, synth, "val")
        got = teacher_forced_metrics(restored.model, corpus, synth, "val")
        assert want == got

    def test_resume_equals_uninterrupted(self, corpus, synth, tmp_path):
        cfg = self.small_cfg()

        straight = TrainState(fresh_model(corpus, seed=3), cfg)
        state_a = train(straight, corpus, synth, log_fn=lambda *_: None)
        assert state_a is straight and state_a.epoch == 2

        broken = TrainState(fresh_model(corpus, seed=3), cfg)
        path = str(tmp_path / "resume.bin")
        train(broken, corpus, synth, checkpoint_path=path, max_epochs=1,
              log_fn=lambda *_: None)
        assert broken.epoch == 1
        restored, _ = restore_training(path)
        assert restored.epoch == 1
        state_b = train(restored, corpus, synth, log_fn=lambda *_: None)

        a_params = state_a.model.named_parameters()
        b_params = state_b.model.named_parameters()
        for name in a_params:
            np.testing.assert_array_equal(a_params[name].data,
                                          b_params[name].data, err_msg=name)
        assert state_a.history == state_b.history
        assert state_a.rng.get_state() == state_b.rng.get_state()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(str(path))

    def test_truncated_file(self, corpus, synth, tmp_path):
        path = self.saved(corpus, tmp_path)
        blob = (tmp_path / "model.bin").read_bytes()
        (tmp_path / "model.bin").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_missing_metadata(self, corpus, synth, tmp_path):
        path = self.saved(corpus, tmp_path)
        (tmp_path / "model.bin.meta.json").unlink()
        with pytest.raises(DataError, match="metadata"):
            load_checkpoint(path)

    def test_config_mismatch_rejected(self, corpus, synth, tmp_path):
        path = self.saved(corpus, tmp_path)
        meta_file = tmp_path / "model.bin.meta.json"
        meta = json.loads(meta_file.read_text())
        meta["model"]["d_v"] = 24
        meta["model"]["d_c"] = 24
        meta_file.write_text(json.dumps(meta))
        with pytest.raises(DataError):
            restore_training(path)

    def saved(self, corpus, tmp_path, name="model.bin", seed=3):
        path = str(tmp_path / name)
        save_checkpoint(path, TrainState(fresh_model(corpus, seed=seed), self.small_cfg(),
                                         rng=Rng(0)), corpus.vocab)
        return path

    def test_flipped_byte_is_caught(self, corpus, tmp_path):
        path = self.saved(corpus, tmp_path)
        blob = bytearray((tmp_path / "model.bin").read_bytes())
        blob[-3] ^= 0x40                      # inside the last tensor's data
        (tmp_path / "model.bin").write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="sha256"):
            load_checkpoint(path)

    def test_tensor_file_paired_with_an_older_meta(self, corpus, tmp_path):
        path = self.saved(corpus, tmp_path)
        old_meta = (tmp_path / "model.bin.meta.json").read_text()
        self.saved(corpus, tmp_path, seed=4)
        (tmp_path / "model.bin.meta.json").write_text(old_meta)
        with pytest.raises(FormatError, match="different saves"):
            load_checkpoint(path)

    def test_meta_without_checksum_still_loads(self, corpus, tmp_path):
        path = self.saved(corpus, tmp_path)
        meta_file = tmp_path / "model.bin.meta.json"
        meta = json.loads(meta_file.read_text())
        del meta["bin_sha256"]
        meta_file.write_text(json.dumps(meta))
        assert restore_training(path)[0].epoch == 0

    def test_meta_without_few_shot_restores_uncapped_and_resumes(self, corpus, synth,
                                                                 tmp_path):
        path = str(tmp_path / "model.bin")
        capped = self.one_epoch(corpus, synth, xe_epochs=2, rl_epochs=0, few_shot=2)
        save_checkpoint(path, capped, corpus.vocab)
        assert restore_training(path)[0].cfg.few_shot == 2
        # the meta of a checkpoint saved before the cap was stored
        meta_file = tmp_path / "model.bin.meta.json"
        meta = json.loads(meta_file.read_text())
        del meta["train"]["few_shot"]
        meta_file.write_text(json.dumps(meta))
        state, _ = restore_training(path)
        assert state.cfg.few_shot is None
        train(state, corpus, synth, log_fn=lambda *_: None)
        assert state.epoch == 2
        scenes_by_id = {s.scene_id: s for s in corpus.scenes}
        every_caption = list(make_batches(corpus.examples_in("train"), scenes_by_id, synth, 8))
        assert [h["steps"] for h in state.history] == [len(every_caption)]

    @pytest.mark.parametrize("field", ["d_r", "d_v", "d_a", "heads"])
    def test_non_positive_width_is_a_format_error(self, corpus, tmp_path, field):
        with pytest.raises(ConfigError):
            model_cfg(corpus, **{field: 0}).validate()
        path = self.saved(corpus, tmp_path)
        meta_file = tmp_path / "model.bin.meta.json"
        meta = json.loads(meta_file.read_text())
        meta["model"][field] = -4
        meta_file.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="must be positive"):
            restore_training(path)

    @pytest.mark.parametrize("field,value", [("decay_every", 0), ("decay_every", -2),
                                             ("grad_clip", -5.0), ("grad_clip", 0.0),
                                             ("grad_clip", float("inf")),
                                             ("grad_clip", float("nan")),
                                             ("lambda_xe", -1.0), ("lambda_rl", -0.5),
                                             ("lr", float("nan")),
                                             ("rl_lr_scale", float("inf")),
                                             ("few_shot", 0), ("few_shot", -2)])
    def test_invalid_training_setting_is_a_format_error(self, corpus, tmp_path, field,
                                                        value):
        # lambda_xe, lambda_rl, rl_lr_scale, lr_decay, decay_every and
        # grad_clip are retired settings; only a stored meta still has them
        if field in {f.name for f in dataclasses.fields(TrainConfig)}:
            with pytest.raises(ConfigError, match=field):
                TrainConfig(**{field: value}).validate()
        path = self.saved(corpus, tmp_path)
        meta_file = tmp_path / "model.bin.meta.json"
        meta = json.loads(meta_file.read_text())
        meta["train"][field] = value
        meta_file.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=field):
            restore_training(path)

    def edit_meta(self, tmp_path, block, **keys):
        meta_file = tmp_path / "model.bin.meta.json"
        meta = json.loads(meta_file.read_text())
        meta[block].update(keys)
        meta_file.write_text(json.dumps(meta))

    @pytest.mark.parametrize("field,value", [("d_c", -4), ("d_c", 24), ("leaky_slope", 0.2),
                                             ("leaky_slope", True)])
    def test_retired_model_setting_off_its_value_is_a_format_error(self, corpus, tmp_path,
                                                                   field, value):
        assert field not in {f.name for f in dataclasses.fields(ModelConfig)}
        path = self.saved(corpus, tmp_path)
        self.edit_meta(tmp_path, "model", **{field: value})
        with pytest.raises(FormatError, match=f"{field} is no longer a setting"):
            restore_training(path)

    def test_configuration_train_refuses_is_a_format_error(self, corpus, tmp_path):
        # the word-class loss has no controller distribution under uniform
        # weights; unchecked, a resume ended as a configuration error, exit 1
        path = self.saved(corpus, tmp_path)
        meta_file = tmp_path / "model.bin.meta.json"
        meta = json.loads(meta_file.read_text())
        meta["model"]["strategy"] = "uniform"
        meta_file.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="uniform"):
            restore_training(path)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_checkpoint(str(tmp_path / "absent.bin"))
