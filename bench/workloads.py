"""The benchmark's three workloads, driven through modcap's public API.

Every workload uses corpus seed = workload seed, preset CNM#2, batch 16,
lr 2e-3, beam width 5 and max_len 16.  A run has three phases:

1. set-up: corpus generation, features for every scene (so the
   FeatureSynthesizer cache is warm) and model init, repeated
   SETUP_REPEATS times; then, for scst_train and beam_decode, a one-epoch
   XE warm start of the last repetition's model;
2. a fixed block of work whose outputs depend only on the seed: the
   quality figures and, in a traced run, every per-layer number come
   from it;
3. more chunks of the same work until the time budget is spent.

All durations are HostClock nominal seconds.  Library
calls go through module attributes (``training.run_xe_epoch``,
``decoder.beam_search``, ...) so that a traced run can wrap them.
"""

from __future__ import annotations

import math
import re
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from hostclock import HostClock
from modcap import config, corpus, decoder, metrics, tensor, training

PRESET = "CNM#2"
LR = 2e-3
BEAM_WIDTH = 5
MAX_LEN = 16
SETUP_REPEATS = 5
STANDARD_SCENES = 500
SCST_WINDOW = 16           # scenes per run_rl_epoch call: one batch_size update window
SCST_BLOCK_WINDOWS = 4     # 64 scenes: fewer make the mean reward swing with the seed
# Beam CIDEr-D on val+test after one XE epoch was 0.50-1.23 over corpus
# seeds 0-10; half the lowest is the floor.  It holds only at the standard
# corpus size: on a small corpus one epoch barely trains the model.
CIDER_FLOOR = 0.25
FIRST_WORD_ID = len(corpus.RESERVED)


def node_count() -> int:
    """Autodiff nodes created so far, read without consuming an id."""
    match = re.fullmatch(r"count\((\d+)\)", repr(getattr(tensor.Tensor, "_ids", None)))
    return int(match.group(1)) if match else 0


class _TimedAdam(tensor.Adam):
    """Adam that takes the clock's intervals after every update: one
    latency sample per optimizer step."""

    def __init__(self, clock: HostClock):
        super().__init__()
        self.clock = clock
        self.samples: list = []

    def step(self, params, lr):
        super().step(params, lr)
        self.samples.append(self.clock.take())


class _TickingSynth(corpus.FeatureSynthesizer):
    """Lets the clock probe whenever the library fetches scene features,
    which it does at least once per scene, inside SCST windows too."""

    def __init__(self, spec, clock: HostClock):
        super().__init__(spec)
        self.clock = clock

    def features(self, scene):
        self.clock.tick()
        return super().features(scene)


@dataclass
class Setup:
    seconds: float
    corpus: corpus.Corpus
    synth: corpus.FeatureSynthesizer
    model: decoder.CaptionModel
    train_cfg: config.TrainConfig
    opt: tensor.Adam | None = None
    rng: tensor.Rng | None = None
    warm: dict | None = None


def set_up(clock: HostClock, seed: int, n_scenes: int, warm_start: bool,
           tracer=None) -> Setup:
    """Median of SETUP_REPEATS preparations, plus one warm-start epoch.

    With a tracer, only the first preparation is traced.
    """
    times = []
    for rep in range(SETUP_REPEATS):
        if tracer and rep == 0:
            tracer.install()
        clock.start()
        spec = corpus.CorpusSpec(n_scenes=n_scenes, seed=seed)
        data = corpus.generate_corpus(spec)
        synth = _TickingSynth(spec, clock)
        for scene in data.scenes:
            synth.features(scene)
        model_cfg, train_cfg = config.apply_preset(
            PRESET, config.ModelConfig(vocab_size=len(data.vocab)),
            config.TrainConfig(seed=seed, lr=LR, batch_size=16, max_len=MAX_LEN,
                               xe_epochs=1, rl_epochs=1))
        model = decoder.CaptionModel(model_cfg,
                                     tensor.Rng(seed).derive(training.MODEL_INIT_TAG))
        times.append(clock.take())
        if tracer and rep == 0:
            tracer.uninstall()
    seconds = statistics.median(map(clock.seconds, times))
    opt = rng = warm = None
    if warm_start:
        opt, rng = _TimedAdam(clock), _train_rng(seed)
        clock.start()
        warm = training.run_xe_epoch(model, data, synth, train_cfg, opt, rng, 0)
        seconds += sum(map(clock.seconds, opt.samples)) + clock.seconds(clock.take())
    return Setup(seconds, data, synth, model, train_cfg, opt, rng, warm)


def _train_rng(seed: int) -> tensor.Rng:
    return tensor.Rng(seed).derive(training.TRAIN_STREAM_TAG)


@dataclass
class Chunk:
    samples: list           # clock intervals of each latency sample
    items: int              # items completed
    attempted: int          # operations attempted
    failed: int = 0
    per_sample: int = 1     # items one latency sample covers
    other: list = field(default_factory=list)   # intervals outside any sample


@dataclass
class Measured:
    elapsed: float = 0.0      # nominal seconds of work
    items: int = 0
    attempted: int = 0
    failed: int = 0
    times: list = field(default_factory=list)          # untraced seconds per item
    traced_times: list = field(default_factory=list)
    block_items: int = 0
    block_nodes: int = 0
    block_spans: int = 0      # spans recorded by the end of the fixed block
    block_scale: float = 1.0  # nominal seconds per wall second over the block


def measure(clock: HostClock, run_chunk, seconds: float, block_chunks: int,
            tracer=None) -> Measured:
    """Run chunks 0, 1, ... until ``seconds`` of wall time are spent.

    The first ``block_chunks`` chunks are the fixed block and always run.
    Under a tracer the block is traced and later chunks alternate
    untraced, traced, ..., at least one untraced, so the tracing overhead
    can be read off.  The run stops at the chunk boundary nearest to
    ``seconds``, or at the first failure.
    """
    m = Measured()
    chunks = []
    start = perf_counter()
    nodes_before = node_count()
    clock.start()
    block_wall = None
    i = 0
    while True:
        in_block = i < block_chunks
        traced = tracer is not None and (in_block or (i - block_chunks) % 2 == 1)
        if traced:
            tracer.install()
        began = perf_counter()
        try:
            chunk = run_chunk(i)
        finally:
            if traced:
                tracer.uninstall()
        took = perf_counter() - began
        chunks.append((chunk, traced))
        m.items += chunk.items
        m.attempted += chunk.attempted
        m.failed += chunk.failed
        if in_block:
            m.block_items += chunk.items
        i += 1
        if i == block_chunks:
            m.block_nodes = node_count() - nodes_before
            m.block_spans = len(tracer.spans) if tracer else 0
            block_wall = (start, perf_counter())
        if chunk.failed:
            break
        if (i >= block_chunks + (1 if tracer else 0)
                and perf_counter() - start + took / 2 >= seconds):
            break
    for chunk, traced in chunks:
        per_item = [clock.seconds(sample) / chunk.per_sample for sample in chunk.samples]
        (m.traced_times if traced else m.times).extend(per_item)
        m.elapsed += sum(per_item) * chunk.per_sample
        m.elapsed += clock.seconds(chunk.other)
    if block_wall:
        m.block_scale = clock.seconds([block_wall]) / (block_wall[1] - block_wall[0])
    return m


def _failed_chunk(attempted: int, items: int = 0, samples=()) -> Chunk:
    traceback.print_exc()
    return Chunk(list(samples), items, attempted, attempted - items)


@dataclass
class Outcome:
    """What a workload reports besides the timings."""

    measured: Measured
    figures: dict                    # name -> (value, unit), deterministic for the seed
    problems: list                   # failed correctness checks
    block_tokens: int = 0            # tokens the fixed block consumed or emitted
    useful_update_share: float = 0.0


def xe_train(clock, seed, n_scenes, seconds, tracer=None, counts=None):
    """XE epochs from initialisation; an item is one optimizer step."""
    s = set_up(clock, seed, n_scenes, warm_start=False, tracer=tracer)
    opt, rng = _TimedAdam(clock), _train_rng(seed)
    tokens_per_epoch = sum(len(e.token_ids) - 1 for e in s.corpus.examples_in("train"))
    epochs = []

    def chunk(i):
        opt.samples = []
        try:
            stats = training.run_xe_epoch(s.model, s.corpus, s.synth, s.train_cfg,
                                          opt, rng, i)
        except Exception:
            done = len(opt.samples)
            return _failed_chunk(done + 1, done, opt.samples)
        epochs.append(stats)
        steps = stats["steps"]
        failed = 0 if math.isfinite(stats["loss"]) else steps
        return Chunk(opt.samples, steps, steps, failed, other=clock.take())

    m = measure(clock, chunk, seconds, 1, tracer)
    problems = [f"epoch {i} loss {e['loss']}" for i, e in enumerate(epochs)
                if not math.isfinite(e["loss"])]
    first = epochs[0] if epochs else {"loss": math.nan, "token_acc": math.nan}
    figures = {"xe.loss": (first["loss"], "nats/token"),
               "xe.token_acc": (first["token_acc"], "share"),
               "xe.tokens_per_step": (tokens_per_epoch / max(m.block_items, 1), "tokens")}
    return s, Outcome(m, figures, problems, block_tokens=tokens_per_epoch,
                      useful_update_share=1.0)


def scst_train(clock, seed, n_scenes, seconds, tracer=None, counts=None):
    """Self-critical windows of SCST_WINDOW scenes after a one-epoch warm
    start; an item is one training scene, a latency sample one window."""
    s = set_up(clock, seed, n_scenes, warm_start=True, tracer=tracer)
    idf = metrics.IdfTable(s.corpus.references("train"))
    epoch = s.train_cfg.xe_epochs
    windows = []
    block_tokens = 0

    def chunk(i):
        nonlocal block_tokens
        s.opt.samples = []
        try:
            stats = training.run_rl_epoch(s.model, s.corpus, s.synth, s.train_cfg,
                                          s.opt, s.rng, epoch, idf,
                                          max_steps=SCST_WINDOW)
        except Exception:
            return _failed_chunk(SCST_WINDOW)
        window = sum(s.opt.samples, []) + clock.take()
        windows.append(stats)
        if i == SCST_BLOCK_WINDOWS - 1 and counts is not None:
            block_tokens = counts["sampled_tokens"]
        n = stats["steps"]
        failed = 0 if _good_reward(stats) else n
        return Chunk([window], n, n, failed, per_sample=n)

    m = measure(clock, chunk, seconds, SCST_BLOCK_WINDOWS, tracer)
    block = windows[:SCST_BLOCK_WINDOWS]
    problems = [f"window {i} mean reward {w['mean_reward']}"
                for i, w in enumerate(windows) if not _good_reward(w)]
    scenes = max(sum(w["steps"] for w in block), 1)
    reward = sum(w["mean_reward"] * w["steps"] for w in block) / scenes
    useful = sum(1 for w in block if not w["skipped_updates"]) / max(len(block), 1)
    advantage = sum(w["mean_advantage"] * w["steps"] for w in block) / scenes
    figures = {"xe.loss": (s.warm["loss"], "nats/token"),
               "scst.mean_reward": (reward, "CIDEr-D"),
               "scst.mean_advantage": (advantage, "CIDEr-D")}
    return s, Outcome(m, figures, problems, block_tokens=block_tokens,
                      useful_update_share=useful)


def _good_reward(stats) -> bool:
    return math.isfinite(stats["mean_reward"]) and stats["mean_reward"] >= 0.0


def beam_decode(clock, seed, n_scenes, seconds, tracer=None, counts=None):
    """Beam-5 passes over the val and test scenes after a one-epoch warm
    start, each complete pass scored with evaluate_captions; an item is
    one scene (encode plus beam search)."""
    s = set_up(clock, seed, n_scenes, warm_start=True, tracer=tracer)
    scenes = s.corpus.scenes_in("val") + s.corpus.scenes_in("test")
    refs = {**s.corpus.references("val"), **s.corpus.references("test")}
    vocab = s.corpus.vocab
    passes = []                      # (predictions, CIDEr-D, BLEU-4) per complete pass
    current = {}
    bad_captions = []
    emitted = 0

    def chunk(i):
        nonlocal emitted
        scene = scenes[i % len(scenes)]
        try:
            with tensor.no_grad():
                enc = s.model.encode(*s.synth.features(scene))
                best = decoder.beam_search(s.model, enc, BEAM_WIDTH, MAX_LEN)[0]
        except Exception:
            return _failed_chunk(1)
        sample = clock.take()
        words = decoder.strip_sequence(best.tokens)
        bad = (not words or not math.isfinite(best.logprob)
               or any(not FIRST_WORD_ID <= t < len(vocab) for t in words))
        if bad:
            bad_captions.append((scene.scene_id, list(best.tokens)))
        else:
            current[scene.scene_id] = vocab.decode(words)
        if i < len(scenes):
            emitted += len(best.tokens)
        other = []
        if i % len(scenes) == len(scenes) - 1:
            report = metrics.evaluate_captions(current, refs, vocab.tag)
            passes.append((dict(current), report["cider_d"], report["bleu4"]))
            current.clear()
            other = clock.take()
        return Chunk([sample], 1, 1, int(bad), other=other)

    m = measure(clock, chunk, seconds, len(scenes), tracer)
    problems = [f"scene {sid}: empty or out-of-vocabulary caption {toks}"
                for sid, toks in bad_captions]
    cider, bleu4 = passes[0][1:] if passes else (math.nan, math.nan)
    if not math.isfinite(cider):
        problems.append(f"CIDEr-D is {cider}")
    elif n_scenes >= STANDARD_SCENES and cider < CIDER_FLOOR:
        problems.append(f"CIDEr-D {cider:.4f} is below the floor {CIDER_FLOOR}")
    problems += [f"pass {k} decoded differently from pass 0"
                 for k, (preds, *_) in enumerate(passes) if preds != passes[0][0]]
    figures = {"xe.loss": (s.warm["loss"], "nats/token"),
               "decode.cider_d": (cider, "CIDEr-D"),
               "decode.bleu4": (bleu4, "BLEU-4"),
               "decode.tokens_per_scene": (emitted / len(scenes), "tokens")}
    return s, Outcome(m, figures, problems, block_tokens=emitted)


WORKLOADS = {"xe_train": xe_train, "scst_train": scst_train, "beam_decode": beam_decode}
