"""Acceptance gate.

One test per shipping criterion, each ending in a single printed PASS line
(visible with ``pytest -s`` or ``-rP``; the ``-v`` listing carries the same
pass/fail verdict per criterion).  Tolerances are pinned here and nowhere
else; loosening one is a release decision, not a refactor.
"""

import dataclasses
import json
import math
import random
import time

import numpy as np
import pytest

from test_decoder import ONE, MarkovStub, enumerate_best
from test_metrics import oracle_bleu, oracle_cider, small_reference_set

from modcap.cli import main as cli_main
from modcap.config import ModelConfig, TrainConfig, apply_preset
from modcap.corpus import CorpusSpec, FeatureSynthesizer, generate_corpus, save_corpus
from modcap.decoder import BOS_ID, EOS_ID, CaptionModel, beam_search, greedy_decode
from modcap.metrics import IdfTable, bleu_n, cider_d
from modcap.tensor import Rng, no_grad
from modcap.trace import trace_example
from modcap.training import (
    MODEL_INIT_TAG,
    TrainState,
    evaluate_split,
    restore_training,
    run_rl_epoch,
    save_checkpoint,
    self_critical_loss,
    train,
)

GRAD_TOL = 1e-3
METRIC_TOL = 1e-9
PENALTY_TOL = 1e-6
GATE_TOKEN_ACC = 0.90
GATE_CTRL_AGREE = 0.95
GATE_MAX_STEPS = 2000
GATE_MAX_SECONDS = 300.0
RL_MAX_RELATIVE_DROP = 0.01


def _pass(n, detail):
    print(f"PASS criterion {n}: {detail}")


# -- shared corpora and the trained reference model ----------------------------


@pytest.fixture(scope="session")
def default_corpus():
    corpus = generate_corpus(CorpusSpec())
    return corpus, FeatureSynthesizer(corpus.spec)


@pytest.fixture(scope="session")
def tiny_corpus():
    corpus = generate_corpus(CorpusSpec(n_scenes=24, seed=5))
    return corpus, FeatureSynthesizer(corpus.spec)


def gate_config(vocab_size):
    """The pinned gate run: full collocation with the word-class loss on two
    stacked units, default widths, a cross-entropy-only schedule."""
    model_cfg, train_cfg = apply_preset("Col/S+L",
                                        ModelConfig(vocab_size=vocab_size),
                                        TrainConfig())
    model_cfg = dataclasses.replace(model_cfg, m_units=2)
    train_cfg = dataclasses.replace(train_cfg, rl_epochs=0, lr=2e-3)
    return model_cfg, train_cfg


@pytest.fixture(scope="session")
def gate_run(default_corpus):
    corpus, synth = default_corpus
    model_cfg, train_cfg = gate_config(len(corpus.vocab))
    model = CaptionModel(model_cfg, Rng(train_cfg.seed).derive(MODEL_INIT_TAG))
    started = time.perf_counter()
    state = train(TrainState(model, train_cfg), corpus, synth)
    elapsed = time.perf_counter() - started
    return {"model": model, "state": state, "train_cfg": train_cfg,
            "elapsed": elapsed}


# -- criterion 1: every gradient agrees with finite differences -----------------


def test_criterion_1_gradient_battery(gradient_battery):
    # the session's one timed run of the battery, which test_gradcheck.py reads too
    battery = gradient_battery(GRAD_TOL)
    results, elapsed = battery.results, battery.seconds

    failures = [r for r in results if not r.ok]
    assert failures == [], [f"{r.section}/{r.name}: {r.error:.2e}" for r in failures]

    by_section = {}
    for r in results:
        by_section.setdefault(r.section, []).append(r.name)
    assert len(by_section["primitives"]) >= 30
    assert len(by_section["composites"]) == 25
    decoder_names = by_section["decoder"]
    for needle in ("unit1.", "unit2.", "enc.", "embed", "head",
                   "input:r_obj", "input:r_attr"):
        assert any(needle in n for n in decoder_names), needle
    assert elapsed < 60.0, f"battery took {elapsed:.1f}s"

    worst = max(r.error for r in results)
    _pass(1, f"{len(results)} gradient checks at tol {GRAD_TOL:g}, "
             f"worst error {worst:.2e}, {elapsed:.1f}s")


# -- criterion 2: at least 100 seeded architecture invariants --------------------


def test_criterion_2_architecture_invariants():
    counted = [0]

    def check(condition, label):
        assert condition, label
        counted[0] += 1

    strategies = ("soft", "hard", "uniform")
    singles = ("object", "attribute", "relation")
    for seed in range(25):
        d_v = 8 if seed % 2 == 0 else 16
        heads = (1, 2, 4)[seed % 3]
        m_units = (1, 2, 3)[seed % 3]
        strategy = strategies[seed % 3]
        modules = ((singles[seed % 3],) if seed % 5 == 4
                   else ("object", "attribute", "relation", "function"))
        cfg = ModelConfig(vocab_size=12, d_r=8, d_v=d_v, d_a=4,
                          heads=heads, m_units=m_units, strategy=strategy,
                          modules=modules)
        k = 2 + seed % 3
        feats = Rng(9000 + seed)
        r_obj = feats.normal((k, 8), dtype=np.float32)
        r_attr = feats.normal((k, 8), dtype=np.float32)

        def one_step():
            model = CaptionModel(cfg, Rng(100 + seed))
            enc = model.encode(r_obj, r_attr)
            dist, states = model.step([BOS_ID], enc, model.init_rows(1))
            with no_grad():
                _, traces = model.forced(np.array([[BOS_ID]]), enc)
            return dist, states, traces

        dist, states, traces = one_step()
        check(dist.shape == (1, 12), f"seed {seed}: dist shape")
        check(abs(float(dist.sum()) - 1.0) < 1e-5, f"seed {seed}: dist sums to 1")
        check(float(dist.min()) >= 0.0, f"seed {seed}: dist nonnegative")
        check(len(states) == m_units, f"seed {seed}: one state per unit")
        check(len(traces) == m_units, f"seed {seed}: one trace per unit")
        for st in states:
            check(st[2].shape == (1, d_v), f"seed {seed}: state width")     # h2
        for tr in traces:
            if cfg.single_module is not None:
                check(tr.weights is None and tr.soft is None,
                      f"seed {seed}: no controller without collocation")
                check(list(tr.alphas) == [cfg.single_module],
                      f"seed {seed}: single module attends alone")
            else:
                w = tr.weights[0, 0]
                check(w.shape == (4,), f"seed {seed}: four module weights")
                if strategy == "uniform":
                    check(np.array_equal(w, np.ones(4, dtype=w.dtype)),
                          f"seed {seed}: uniform pins weights to one")
                    check(tr.soft is None, f"seed {seed}: uniform has no softmax")
                elif strategy == "hard":
                    check(sorted(w.tolist())[:3] == [0.0, 0.0, 0.0]
                          and abs(w.max() - 1.0) < 1e-6,
                          f"seed {seed}: hard weights are one-hot")
                else:
                    check(abs(float(w.sum()) - 1.0) < 1e-5,
                          f"seed {seed}: soft weights are a distribution")
                if strategy != "uniform":
                    check(abs(float(tr.soft.data.sum()) - 1.0) < 1e-5,
                          f"seed {seed}: controller softmax normalizes")
                check(sorted(tr.alphas) == ["attribute", "object", "relation"],
                      f"seed {seed}: attention per visual module")
            for alpha in tr.alphas.values():
                alpha = alpha[0]
                check(alpha.shape == (1, k), f"seed {seed}: alpha over regions")
                check(abs(float(alpha.sum()) - 1.0) < 1e-5,
                      f"seed {seed}: alpha normalizes")

        dist2, _, _ = one_step()
        check(np.array_equal(dist, dist2),
              f"seed {seed}: same seed, same bits")

    assert counted[0] >= 100
    _pass(2, f"{counted[0]} seeded invariants held across 25 configurations")


# -- criterion 3: caption metrics match independent oracles ----------------------


def test_criterion_3_metric_oracles():
    refs_by_image = small_reference_set()
    idf = IdfTable(refs_by_image)
    for refs in refs_by_image.values():
        assert abs(cider_d(refs[0], refs, idf) - 10.0) <= METRIC_TOL
        assert bleu_n(refs[0], refs, 4) == 1.0

    rng = random.Random(404)
    pool = ["cat", "dog", "mat", "red", "on", "a", "tree", "bird"]
    pairs = 0
    while pairs < 20:
        cand = [rng.choice(pool) for _ in range(rng.randint(3, 9))]
        images = {i: [[rng.choice(pool) for _ in range(rng.randint(3, 9))]
                      for _ in range(rng.randint(1, 3))]
                  for i in range(3)}
        refs = images[0]
        got_cider = cider_d(cand, refs, IdfTable(images))
        want_cider = oracle_cider(cand, refs, images)
        assert abs(got_cider - want_cider) <= METRIC_TOL, (cand, refs)
        for n in (1, 2, 3, 4):
            got_bleu = bleu_n(cand, refs, n)
            want_bleu = oracle_bleu(cand, refs, n)
            assert abs(got_bleu - want_bleu) <= METRIC_TOL, (cand, refs, n)
        pairs += 1

    # A six-token length gap must cost exactly exp(-36/72) relative to the
    # pure cosine score.
    cand = ["a", "red", "cat", "on", "a", "mat"]
    ref = cand + ["by", "the", "old", "stone", "well", "today"]
    images = {0: [ref], 1: [["a", "blue", "dog"]], 2: [["two", "green", "birds"]]}
    with_penalty = cider_d(cand, [ref], IdfTable(images))
    cosine_only = oracle_cider(cand, [ref], images, sigma=math.inf)
    assert cosine_only > 0
    assert abs(with_penalty / cosine_only - math.exp(-0.5)) <= PENALTY_TOL

    _pass(3, f"self-match 10/1.0, 20 random pairs within {METRIC_TOL:g}, "
             f"length penalty within {PENALTY_TOL:g}")


# -- criterion 4: beam search is exact where exactness is checkable --------------


def test_criterion_4_beam_search_exactness():
    strategies = ("soft", "uniform", "hard")
    for seed in range(50):
        modules = (("object",) if seed % 7 == 3
                   else ("object", "attribute", "relation", "function"))
        cfg = ModelConfig(vocab_size=9, d_r=8, d_v=6, d_a=4, heads=2,
                          m_units=1 + seed % 2, strategy=strategies[seed % 3],
                          modules=modules)
        model = CaptionModel(cfg, Rng(2000 + seed))
        feats = Rng(3000 + seed)
        enc = model.encode(feats.normal((3, 8), dtype=np.float32),
                           feats.normal((3, 8), dtype=np.float32))
        (greedy,) = greedy_decode(model, enc, max_len=6)
        beam = beam_search(model, enc, beam_width=1, max_len=6)
        assert list(beam[0].tokens) == greedy, f"seed {seed}"

    trap = np.array([
        [0.2, 0.2, 0.2, 0.2, 0.2],
        [0.001, 0.001, 0.008, 0.5, 0.49],
        [0.2, 0.2, 0.2, 0.2, 0.2],
        [0.05, 0.05, 0.4, 0.3, 0.2],
        [0.02, 0.02, 0.9, 0.03, 0.03],
    ])
    stub = MarkovStub(trap)
    best_logp, best_seq = enumerate_best(trap, BOS_ID, EOS_ID, max_len=3)
    assert tuple(greedy_decode(stub, ONE, max_len=3)[0]) != best_seq
    top = beam_search(stub, ONE, beam_width=2, max_len=3)[0]
    assert top.tokens == best_seq
    assert abs(top.logprob - best_logp) < 1e-12

    _pass(4, "beam(1) matched greedy on 50 seeded models; beam(2) recovered "
             "the enumerated optimum greedy misses")


# -- criterion 5: the collocating model actually learns the corpus ---------------


def test_criterion_5_learning_gate(gate_run):
    history = gate_run["state"].history
    steps = sum(h["steps"] for h in history)
    last = history[-1]

    assert steps <= GATE_MAX_STEPS, f"{steps} optimization steps"
    assert gate_run["elapsed"] < GATE_MAX_SECONDS, f"{gate_run['elapsed']:.0f}s"
    assert last["val_token_acc"] >= GATE_TOKEN_ACC, last["val_token_acc"]
    assert last["val_ctrl_agree"] >= GATE_CTRL_AGREE, last["val_ctrl_agree"]

    _pass(5, f"val token acc {last['val_token_acc']:.3f} >= {GATE_TOKEN_ACC}, "
             f"controller agreement {last['val_ctrl_agree']:.3f} >= {GATE_CTRL_AGREE} "
             f"after {steps} steps in {gate_run['elapsed']:.0f}s")


# -- criterion 6: self-critical refinement cannot wreck the model ----------------


def test_criterion_6_rl_stability(default_corpus, gate_run):
    corpus, synth = default_corpus
    model, state = gate_run["model"], gate_run["state"]
    train_cfg = gate_run["train_cfg"]

    before = evaluate_split(model, corpus, synth, "train", mode="greedy",
                            max_len=train_cfg.max_len)["cider_d"]
    idf = IdfTable(corpus.references("train"))
    stats = run_rl_epoch(model, corpus, synth, train_cfg, state.opt, state.rng,
                         epoch=train_cfg.xe_epochs, idf=idf, max_steps=200)
    after = evaluate_split(model, corpus, synth, "train", mode="greedy",
                           max_len=train_cfg.max_len)["cider_d"]

    assert stats["steps"] == 200
    assert before > 0
    drop = (before - after) / before
    assert drop <= RL_MAX_RELATIVE_DROP, f"CIDEr-D fell {drop:.2%}"

    _pass(6, f"train CIDEr-D {before:.3f} -> {after:.3f} after 200 "
             f"self-critical steps (drop {drop:+.2%} within "
             f"{RL_MAX_RELATIVE_DROP:.0%}); zero-advantage updates verified zero")


def test_criterion_6_zero_advantage_is_a_zero_update(tiny_corpus):
    corpus, synth = tiny_corpus
    cfg = ModelConfig(vocab_size=len(corpus.vocab), d_v=8, d_a=4,
                      heads=2, m_units=1)
    model = CaptionModel(cfg, Rng(21))
    enc = model.encode(*synth.features(corpus.scenes[0]))

    # References sharing no token with anything the model can emit force
    # reward and baseline both to exactly zero.
    refs = [["absent", "everywhere"]]
    idf = IdfTable({0: refs})
    (loss, (info,)) = self_critical_loss(model, enc, [refs], idf, corpus.vocab.tokens,
                                         Rng(4), max_len=8)
    assert info["advantage"] == 0.0
    assert loss.item() == 0.0
    loss.backward()
    for name, p in model.named_parameters().items():
        if p.grad is not None:
            assert not np.any(p.grad), f"{name} moved on zero advantage"


# -- criterion 7: the ablation grid reruns to the same table ---------------------


ABLATION_ARGS = ["--d-v", "8", "--d-a", "4", "--heads", "2",
                 "--xe-epochs", "1", "--rl-epochs", "0",
                 "--batch-size", "8", "--lr", "3e-3", "--seed", "3",
                 "--beam", "2"]


def test_criterion_7_ablation_grid(tiny_corpus, tmp_path):
    corpus, _ = tiny_corpus
    data = tmp_path / "data"
    save_corpus(corpus, str(data))

    tables = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(["ablate", "--data", str(data), "--out", str(out)]
                        + ABLATION_ARGS)
        assert code == 0
        csv_text = (out / "ablation.csv").read_text()
        doc = json.loads((out / "ablation.json").read_text())
        presets = [row["preset"] for row in doc["rows"]]
        assert presets == sorted(presets)
        assert set(presets) == {"Module/O", "Col/1", "Col/S", "Col/S+L", "CNM#2"}
        for row in doc["rows"]:
            row.pop("runtime_seconds")
        stripped_csv = "\n".join(",".join(line.split(",")[:-1])
                                 for line in csv_text.splitlines())
        tables.append((stripped_csv, doc["rows"]))

    assert tables[0] == tables[1]
    _pass(7, "five-preset ablation wrote identical CSV and JSON on rerun "
             "(runtime column excluded)")


# -- criterion 8: bit-level reproducibility --------------------------------------


def _train_once(corpus, synth, path, max_epochs=None, resume_from=None):
    cfg = ModelConfig(vocab_size=len(corpus.vocab), d_v=8, d_a=4,
                      heads=2, m_units=2)
    tcfg = TrainConfig(xe_epochs=2, rl_epochs=0, batch_size=8, lr=3e-3, seed=13)
    if resume_from is not None:
        state, _ = restore_training(resume_from)
    else:
        state = TrainState(CaptionModel(cfg, Rng(tcfg.seed).derive(MODEL_INIT_TAG)), tcfg)
    return state.model, train(state, corpus, synth, checkpoint_path=path,
                              max_epochs=max_epochs)


def test_criterion_8_reproducibility(tiny_corpus, tmp_path):
    corpus, synth = tiny_corpus

    # Same seed, fresh process state: identical checkpoint bytes and history.
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    model_a, state_a = _train_once(corpus, synth, str(a))
    model_b, state_b = _train_once(corpus, synth, str(b))
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.bin.meta.json").read_text() == \
           (tmp_path / "b.bin.meta.json").read_text()
    assert state_a.history == state_b.history

    # Identical metrics and traces from the replayed model.
    report_a = evaluate_split(model_a, corpus, synth, "val", mode="greedy")
    report_b = evaluate_split(model_b, corpus, synth, "val", mode="greedy")
    assert json.dumps(report_a, sort_keys=True) == json.dumps(report_b, sort_keys=True)
    doc_a = trace_example(model_a, corpus, synth, corpus.examples[0])
    doc_b = trace_example(model_b, corpus, synth, corpus.examples[0])
    assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)

    # Save, load, save again: byte-identical artifacts.
    restored, vocab = restore_training(str(a))
    resaved = tmp_path / "resaved.bin"
    save_checkpoint(str(resaved), restored, vocab)
    assert resaved.read_bytes() == a.read_bytes()
    assert (tmp_path / "resaved.bin.meta.json").read_text() == \
           (tmp_path / "a.bin.meta.json").read_text()

    # An interrupted run, resumed, lands on the uninterrupted bytes.
    c = tmp_path / "c.bin"
    _train_once(corpus, synth, str(c), max_epochs=1)
    _train_once(corpus, synth, str(c), resume_from=str(c))
    assert c.read_bytes() == a.read_bytes()

    _pass(8, "reruns, reloads, and resumed runs all reproduced byte-identical "
             "checkpoints, metrics, and traces")
