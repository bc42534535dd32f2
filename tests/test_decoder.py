"""Decoder stack and decoding strategies."""

import math
import warnings

import numpy as np
import pytest

from modcap.config import ModelConfig
from modcap.decoder import (
    BOS_ID,
    EOS_ID,
    CaptionModel,
    beam_search,
    greedy_decode,
    sample_decode,
    strip_sequence,
)
from modcap.tensor import Rng
from reference import forced, multinomial, object_beam_search


def tiny_cfg(**kw):
    base = dict(vocab_size=9, d_r=8, d_v=6, d_a=4, heads=2, m_units=2,
                strategy="soft")
    base.update(kw)
    return ModelConfig(**base)


def random_features(seed, batch=1, k=3, d_r=8):
    rs = np.random.RandomState(seed)
    r_obj = rs.randn(batch, k, d_r).astype(np.float32)
    r_attr = rs.randn(batch, k, d_r).astype(np.float32)
    return r_obj, r_attr


class MarkovStub:
    """Fixed-table model for decoder contract tests: P(next | prev) only.
    Its state array is a stack of one unit with one zero row per decoded
    row, and it reads no encoding."""

    def __init__(self, table, dtype=np.float64):
        self.table = np.asarray(table, dtype=dtype)

    def init_rows(self, batch):
        return np.zeros((1, 1, batch, 1))

    def selection_noise(self, rng, n_steps, batch):
        return None

    def step(self, prev, enc, states, noise=None):
        return self.table[np.asarray(prev, dtype=np.int64)], states


class Scenes:
    """An encoding of ``batch`` scenes for the stub, which reads only its
    batch size."""

    def __init__(self, batch):
        self.batch = batch


ONE = Scenes(1)


def enumerate_best(table, bos, eos, max_len):
    """Exhaustive search over all sequences the decoders could emit."""
    table = np.asarray(table, dtype=np.float64)
    best = (-math.inf, None)

    def walk(prefix, logp):
        nonlocal best
        if prefix and (prefix[-1] == eos or len(prefix) == max_len):
            if logp > best[0]:
                best = (logp, tuple(prefix))
            return
        prev = prefix[-1] if prefix else bos
        for tok in range(table.shape[1]):
            walk(prefix + [tok], logp + math.log(max(table[prev, tok], 1e-300)))

    walk([], 0.0)
    return best


class TestStackStructure:
    def test_unit_widths(self):
        cfg = tiny_cfg()
        model = CaptionModel(cfg, Rng(0))
        unit = model.units[0]
        d_c = cfg.d_v       # the LSTM width: the units stack residually
        # first LSTM consumes [i, context, three means]; second [h1, fused]
        assert unit.weights["lstm1.W"].shape == (4 * cfg.d_v + 2 * d_c, 4 * d_c)
        assert unit.weights["lstm2.W"].shape == (d_c + 4 * cfg.d_v + d_c, 4 * d_c)

    def test_distribution_output(self):
        cfg = tiny_cfg(m_units=3)
        model = CaptionModel(cfg, Rng(1))
        enc = model.encode(*random_features(0))
        states = model.init_rows(1)
        dist, states = model.step([BOS_ID], enc, states)
        _, traces = forced(model, [[BOS_ID]], enc)
        assert dist.shape == (1, cfg.vocab_size)
        assert np.all(dist > 0)
        assert abs(dist.sum() - 1.0) < 1e-5
        assert len(states) == 3 and len(traces) == 3

    def test_residual_law_bit_exact(self):
        cfg = tiny_cfg()
        model = CaptionModel(cfg, Rng(2))
        enc = model.encode(*random_features(1))
        state = model.init_rows(1)[0]
        rs = np.random.RandomState(7)
        i_prev = rs.randn(1, cfg.d_v).astype(np.float32)
        i_new, state2, *_ = enc.run(model.units).step(i_prev, state, None, 0)
        assert np.array_equal(i_new, i_prev + state2[2])      # h2

    def test_uniform_strategy_weights_all_one(self):
        cfg = tiny_cfg(strategy="uniform")
        model = CaptionModel(cfg, Rng(3))
        enc = model.encode(*random_features(2))
        _, traces = forced(model, [[BOS_ID]], enc)
        for tr in traces:
            assert np.array_equal(tr.weights, np.ones((1, 1, 4), dtype=np.float32))

    def test_single_module_variants(self):
        for name in ("object", "attribute", "relation"):
            cfg = tiny_cfg(modules=(name,), m_units=1)
            model = CaptionModel(cfg, Rng(4))
            enc = model.encode(*random_features(3))
            dist, states = model.step([BOS_ID], enc, model.init_rows(1))
            _, traces = forced(model, [[BOS_ID]], enc)
            assert abs(dist.sum() - 1.0) < 1e-5
            assert traces[0].weights is None
            assert list(traces[0].alphas) == [name]
            names = model.named_parameters()
            assert not any(".ctrl." in k for k in names)

    def test_parameter_names_stable(self):
        cfg = tiny_cfg()
        a = CaptionModel(cfg, Rng(5)).named_parameters()
        b = CaptionModel(cfg, Rng(6)).named_parameters()
        assert list(a) == list(b)
        assert "embed.W" in a and "head.W" in a and "unit1.ctrl.lstm.W" in a
        assert "enc.relation.head0.Wq" in a

    def test_batched_step_matches_per_example(self):
        cfg = tiny_cfg()
        model = CaptionModel(cfg, Rng(7))
        r_obj, r_attr = random_features(4, batch=3)
        enc = model.encode(r_obj, r_attr)
        dist, _ = model.step([4, 5, 6], enc, model.init_rows(3))
        for b in range(3):
            enc1 = model.encode(r_obj[b], r_attr[b])
            d1, _ = model.step([4 + b], enc1, model.init_rows(1))
            assert np.allclose(dist[b], d1[0], atol=1e-6)

        # scenes of 3 and 5 regions share one batch, the first zero-padded
        r_obj, r_attr = random_features(11, batch=2, k=5)
        mask = np.array([[True] * 3 + [False] * 2, [True] * 5])
        r_obj[0, 3:] = r_attr[0, 3:] = 0.0
        enc = model.encode(r_obj, r_attr, mask)
        states = model.init_rows(2)
        alone = [(model.encode(r_obj[b, :k], r_attr[b, :k]), model.init_rows(1))
                 for b, k in enumerate((3, 5))]
        for tokens in ([4, 5], [7, 3]):
            dist, states = model.step(tokens, enc, states)
            for b, (enc1, st1) in enumerate(alone):
                d1, st1 = model.step([tokens[b]], enc1, st1)
                alone[b] = (enc1, st1)
                assert np.allclose(dist[b], d1[0], atol=1e-6)

    def test_controller_context_is_unit_local(self):
        # the two units keep separate recurrent contexts; after one step
        # their second-LSTM outputs differ
        cfg = tiny_cfg(m_units=2)
        model = CaptionModel(cfg, Rng(8))
        enc = model.encode(*random_features(5))
        _, states = model.step([BOS_ID], enc, model.init_rows(1))
        assert not np.allclose(states[0][2], states[1][2])      # h2


def padded_scenes(model, seed, counts, d_r=8):
    """A zero-padded encoding of scenes with the given region counts, and
    each scene's own encoding."""
    rs = np.random.RandomState(seed)
    k = max(counts)
    r_obj = np.zeros((len(counts), k, d_r), dtype=np.float32)
    r_attr = np.zeros_like(r_obj)
    mask = np.zeros((len(counts), k), dtype=bool)
    for b, n in enumerate(counts):
        r_obj[b, :n] = rs.randn(n, d_r)
        r_attr[b, :n] = rs.randn(n, d_r)
        mask[b, :n] = True
    alone = [model.encode(r_obj[b, :n], r_attr[b, :n]) for b, n in enumerate(counts)]
    return model.encode(r_obj, r_attr, mask), alone


class TestBatchedDecoding:
    def test_greedy_rows_match_single_scenes(self):
        model = CaptionModel(tiny_cfg(), Rng(40))
        enc, alone = padded_scenes(model, 0, (3, 5, 4, 3))
        rows = greedy_decode(model, enc, max_len=6)
        assert rows == [greedy_decode(model, e, max_len=6)[0] for e in alone]

    def test_sample_rows_follow_the_draw_order(self):
        # one uniform per live row in row order: replaying the batch's
        # draws scene by scene gives each scene's tokens
        table = np.full((5, 5), 0.1)
        table[:, 2] = 0.6                      # the end token is likely
        stub = MarkovStub(table)
        tokens, _ = sample_decode(stub, Scenes(2), Rng(7), max_len=6)
        assert len(tokens) == 2
        rng = Rng(7)
        want = [[], []]
        for t in range(max(map(len, tokens))):
            for b in range(2):
                if t < len(tokens[b]):
                    prev = want[b][-1] if want[b] else BOS_ID
                    want[b].append(multinomial(rng, table[prev]))
        assert tokens == want


class TestGreedy:
    def test_immediate_end(self):
        table = np.full((4, 4), 1e-9)
        table[BOS_ID, EOS_ID] = 1.0
        assert greedy_decode(MarkovStub(table), ONE, max_len=5) == [[EOS_ID]]

    def test_stops_at_end_token(self):
        table = np.full((4, 4), 0.25)
        table[BOS_ID] = [0.0, 0.0, 0.0, 1.0]
        table[3] = [0.0, 0.0, 1.0, 0.0]
        assert greedy_decode(MarkovStub(table), ONE, max_len=10) == [[3, EOS_ID]]

    def test_respects_max_len(self):
        table = np.zeros((4, 4))
        table[:, 3] = 1.0  # never ends
        assert greedy_decode(MarkovStub(table), ONE, max_len=4) == [[3, 3, 3, 3]]

    def test_tie_breaks_to_lowest_id(self):
        table = np.zeros((5, 5))
        table[BOS_ID, 3] = 0.5
        table[BOS_ID, 4] = 0.5
        table[3, EOS_ID] = 1.0
        table[4, EOS_ID] = 1.0
        assert greedy_decode(MarkovStub(table), ONE, max_len=3)[0][0] == 3


class TestBeam:
    trap = np.array([
        # pad    bos    eos    a      b
        [0.2, 0.2, 0.2, 0.2, 0.2],
        [0.001, 0.001, 0.008, 0.5, 0.49],   # from bos: greedy prefers a
        [0.2, 0.2, 0.2, 0.2, 0.2],
        [0.05, 0.05, 0.4, 0.3, 0.2],        # after a: weak finish
        [0.02, 0.02, 0.9, 0.03, 0.03],      # after b: strong finish
    ])

    def test_beam_one_equals_greedy_on_stub(self):
        stub = MarkovStub(self.trap)
        (greedy,) = greedy_decode(stub, ONE, max_len=3)
        beam = beam_search(stub, ONE, beam_width=1, max_len=3)
        assert list(beam[0].tokens) == greedy

    def test_beam_one_equals_greedy_on_models(self):
        for seed in range(10):
            cfg = tiny_cfg()
            model = CaptionModel(cfg, Rng(1000 + seed))
            enc = model.encode(*random_features(seed))
            (greedy,) = greedy_decode(model, enc, max_len=6)
            beam = beam_search(model, enc, beam_width=1, max_len=6)
            assert list(beam[0].tokens) == greedy

    def test_beam_two_recovers_exhaustive_optimum(self):
        stub = MarkovStub(self.trap)
        best_logp, best_seq = enumerate_best(self.trap, BOS_ID, EOS_ID, max_len=3)
        (greedy,) = greedy_decode(stub, ONE, max_len=3)
        assert tuple(greedy) != best_seq  # the trap actually bites
        beam = beam_search(stub, ONE, beam_width=2, max_len=3)
        assert beam[0].tokens == best_seq
        assert abs(beam[0].logprob - best_logp) < 1e-12

    def test_finished_hypotheses_freeze(self):
        stub = MarkovStub(self.trap)
        beam = beam_search(stub, ONE, beam_width=2, max_len=8)
        top = beam[0]
        assert top.finished
        assert top.tokens[-1] == EOS_ID
        assert len(top.tokens) == 2  # froze at its end token, never extended

    def test_ranked_output(self):
        stub = MarkovStub(self.trap)
        beam = beam_search(stub, ONE, beam_width=3, max_len=4)
        scores = [h.logprob for h in beam]
        assert scores == sorted(scores, reverse=True)

    def test_matches_expanding_one_hypothesis_at_a_time(self):
        # the batched expansion against the plain algorithm: expand each
        # live hypothesis alone, sort every candidate by (-score, tokens)
        def reference(table, width, max_len):
            beams = [((), 0.0, False)]
            for _ in range(max_len):
                if all(f for _, _, f in beams):
                    break
                cands = [b for b in beams if b[2]]
                for toks, lp, fin in beams:
                    if fin:
                        continue
                    row = np.log(np.maximum(table[toks[-1] if toks else BOS_ID],
                                            np.finfo(table.dtype).smallest_subnormal))
                    cands += [(toks + (t,), lp + float(row[t]), t == EOS_ID)
                              for t in range(len(row))]
                cands.sort(key=lambda c: (-c[1], c[0]))
                beams = cands[:width]
            return [(toks, lp) for toks, lp, _ in beams]

        rs = np.random.RandomState(3)
        for trial in range(12):
            table = rs.dirichlet(np.full(6, 0.7), size=6)
            if trial % 3 == 0:
                table = np.round(table, 1)     # exact ties in score
            for width in (1, 2, 3, 5):
                got = beam_search(MarkovStub(table), ONE, width, 5)
                assert [(h.tokens, h.logprob) for h in got] == reference(table, width, 5)
                assert got == object_beam_search(MarkovStub(table), ONE, width, 5)

    def test_zero_probability_is_clamped_in_float32(self):
        # 1e-300 rounds to 0 in float32; the clamp is the dtype's smallest
        # subnormal, so p = 0 scores finitely without a warning and p = 1
        # keeps its exact log
        table = np.zeros((4, 4))
        table[:, 3] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beam = beam_search(MarkovStub(table, np.float32), ONE, beam_width=4, max_len=1)
        tiny = float(np.log(np.finfo(np.float32).smallest_subnormal))
        assert [h.tokens for h in beam] == [(3,), (0,), (1,), (2,)]
        assert [h.logprob for h in beam] == [0.0, tiny, tiny, tiny]

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            beam_search(MarkovStub(self.trap), ONE, beam_width=0, max_len=3)

    def test_decodes_one_scene(self):
        with pytest.raises(ValueError):
            beam_search(MarkovStub(self.trap), Scenes(2), beam_width=2, max_len=3)


class TestSample:
    def test_deterministic_given_seed(self):
        cfg = tiny_cfg()
        model = CaptionModel(cfg, Rng(30))
        enc = model.encode(*random_features(9))
        t1, _ = sample_decode(model, enc, Rng(5), max_len=6)
        t2, _ = sample_decode(model, enc, Rng(5), max_len=6)
        assert t1 == t2

    def test_stops_at_end(self):
        table = np.full((4, 4), 1e-12)
        table[BOS_ID, EOS_ID] = 1.0
        table[EOS_ID, EOS_ID] = 1.0
        tokens, _ = sample_decode(MarkovStub(table), ONE, Rng(0), max_len=6)
        assert tokens == [[EOS_ID]]


class TestStrip:
    def test_strip(self):
        assert strip_sequence([5, 6, EOS_ID, 7]) == [5, 6]
        assert strip_sequence([EOS_ID]) == []
        assert strip_sequence([5, 6]) == [5, 6]
