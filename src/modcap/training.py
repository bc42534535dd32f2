"""Training loops and checkpointing.

The schedule has two phases.  Cross-entropy epochs teacher-force gold
captions in batches; the objective is mean negative log-likelihood per
token plus the module-supervision term.  Refinement epochs then run
self-critical policy gradient: sample a caption, score it against the
greedy caption with the consensus metric, and weight the sampled
log-probabilities by the advantage.  Both captions are decoded forward
only, in one pass; a teacher-forced replay of the sampled one gives the
log-probabilities.

Both phases update on one step (``step_grads``), a fixed chain of
stages: encode, embedding rows, the units' wavefront, the word head and
the masked NLLs.  It runs them forward, each keeping a record, then
their hand-written backwards in reverse, the scalar arithmetic between
the losses and the objective (``Glue``) done on the seed gradients.
Cross-entropy batches group examples whose scenes have the same region
count; caption positions are padded and masked.  A teacher-forced pass
does not step the decode loop: it gathers the embeddings of every input
token at once, runs each decoder unit over the whole caption in one
kernel call, and scores all T*B positions with one word head, softmax
and NLL.  A refinement window takes its scenes as they come: their
region features are zero-padded to the largest count and carry a region
mask, so the whole window runs as one decode pass over its scenes listed
twice, sampling on the first copy and taking the argmax on the second,
and one forced pass, which also carries the gold captions of the
word-class term.  A run is one ``TrainState``: the model, its
``TrainConfig`` (with the few-shot cap on the train captions the run
reads, ``train_examples``), the optimizer, the random stream, the next
epoch and the epoch records; a checkpoint stores all of it.  All
shuffling, sampling, and hard-selection noise comes from that stream,
derived from the training seed, so a restored state continues as the
uninterrupted run.  The constants of the schedule live in ``config``.
Each epoch record keeps the mean and largest pre-clip gradient norm of
its updates and how many of them were clipped.  The epochs and
``teacher_forced_metrics`` keep BLAS on the calling thread
(``tensor.blas_on_calling_thread``).
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import math
import os
import struct
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import config
from .config import ModelConfig, TrainConfig, validate_run
from .corpus import (
    BOS_ID,
    PAD_ID,
    Corpus,
    FeatureSynthesizer,
    Vocabulary,
    few_shot_subset,
    references_of,
)
from .decoder import (
    CaptionModel,
    Encoded,
    UnitTrace,
    argmax_policy,
    beam_search,
    greedy_decode,
    run_decoder,
    sample_decode,
    sample_policy,
    strip_sequence,
    unit_kernel,
    word_head,
    word_head_backward,
)
from .encoders import encoder_backward
from .errors import ConfigError, DataError, FormatError, ShapeError, TrainingError
from .metrics import IdfTable, cider_d, evaluate_captions
from .tensor import (
    Adam,
    Rng,
    blas_on_calling_thread,
    check_finite,
    check_finite_grads,
    clip_global_norm,
    gather_grad,
    grad_out,
    masked_nll,
    masked_nll_grad,
)

LOG = logging.getLogger(__name__)

LOSS_EPS = 1e-12
TRAIN_STREAM_TAG = 909
MODEL_INIT_TAG = 707


# -- batching ----------------------------------------------------------------


def train_examples(corpus: Corpus, cfg: TrainConfig) -> list:
    """The train captions a run reads: all of them in corpus order, or with
    ``cfg.few_shot`` at most that many per scene (``few_shot_subset``),
    each scene's in corpus order."""
    examples = corpus.examples_in("train")
    if cfg.few_shot is not None:
        examples = few_shot_subset(examples, cfg.few_shot, cfg.seed)
    return examples


@dataclass
class Batch:
    scene_ids: list[int]
    r_obj: np.ndarray       # (B, K, d_r), zero rows past a scene's region count
    r_attr: np.ndarray      # (B, K, d_r)
    inputs: np.ndarray      # (B, T) previous tokens, starts with <bos>
    targets: np.ndarray     # (B, T) gold tokens, ends with <eos>
    labels: np.ndarray      # (B, T) gold module labels per position
    mask: np.ndarray        # (B, T) 1.0 where targets are real
    region_mask: np.ndarray  # (B, K) True where a region is real

    @property
    def size(self) -> int:
        return len(self.scene_ids)


def _pack(examples, scenes_by_id, synth: FeatureSynthesizer) -> Batch:
    n = len(examples)
    t_max = max(len(e.token_ids) - 1 for e in examples)
    features = [synth.features(scenes_by_id[e.scene_id]) for e in examples]
    k_max = max(r_obj.shape[0] for r_obj, _ in features)
    inputs = np.full((n, t_max), PAD_ID, dtype=np.int64)
    targets = np.full((n, t_max), PAD_ID, dtype=np.int64)
    labels = np.full((n, t_max), 3, dtype=np.int64)
    mask = np.zeros((n, t_max), dtype=np.float32)
    r_obj = np.zeros((n, k_max) + features[0][0].shape[1:], dtype=features[0][0].dtype)
    r_attr = np.zeros_like(r_obj)
    region_mask = np.zeros((n, k_max), dtype=bool)
    for b, (e, (ro, ra)) in enumerate(zip(examples, features)):
        ids = e.token_ids
        t = len(ids) - 1
        inputs[b, :t] = ids[:-1]
        targets[b, :t] = ids[1:]
        labels[b, :t] = e.labels
        mask[b, :t] = 1.0
        k = ro.shape[0]
        r_obj[b, :k] = ro
        r_attr[b, :k] = ra
        region_mask[b, :k] = True
    return Batch(scene_ids=[e.scene_id for e in examples], r_obj=r_obj, r_attr=r_attr,
                 inputs=inputs, targets=targets, labels=labels, mask=mask,
                 region_mask=region_mask)


def make_batches(examples, scenes_by_id, synth: FeatureSynthesizer,
                 batch_size: int, rng: Rng | None = None) -> Iterator[Batch]:
    """Batches of examples whose scenes share a region count.

    With an rng the example order is shuffled first; buckets flush as they
    fill, leftovers flush smallest region count first.  The examples are
    grouped on the call, and each batch is packed only when the iteration
    reaches it, so an epoch holds one packed batch at a time.
    """
    order = list(range(len(examples)))
    if rng is not None:
        rng.shuffle(order)
    buckets: dict[int, list] = {}
    groups = []
    for i in order:
        e = examples[i]
        k = len(scenes_by_id[e.scene_id].regions)
        bucket = buckets.setdefault(k, [])
        bucket.append(e)
        if len(bucket) == batch_size:
            groups.append(bucket)
            buckets[k] = []
    groups += [buckets[k] for k in sorted(buckets) if buckets[k]]
    return (_pack(group, scenes_by_id, synth) for group in groups)


# -- the training step --------------------------------------------------------


def _step_major(a) -> np.ndarray:
    """(B, T) -> the T*B rows of a forced pass, step-major."""
    return np.asarray(a).T.ravel()


@dataclass
class Replay:
    """What one teacher-forced pass of the step reads: B rows of captions
    over T steps, (B, T) each but the noise."""

    inputs: np.ndarray                      # tokens fed, a row's step t at column t
    noise: np.ndarray | None = None         # (T, M, B, K + 1) selection noise
    targets: np.ndarray | None = None       # tokens the word NLL scores; None: no loss
    weights: np.ndarray | None = None       # each scored token's weight
    labels: np.ndarray | None = None        # gold word classes; None: no word-class NLL
    ling_weights: np.ndarray | None = None  # each label's weight
    twice: bool = False                     # the rows read the encoding listed twice


@dataclass(frozen=True)
class Glue:
    """The scalar arithmetic from a step's two sums to its objective,
    (xe_sum / n_xe + lam * (ling_sum / n_ling)) / n_out, in the sums'
    dtype; ``seeds`` is the objective's gradient with respect to each sum.
    Both repeat, operation for operation, the scalar nodes the objective
    was once composed of, so they round alike."""

    n_xe: float = 1.0
    lam: float = 0.0
    n_ling: float = 1.0
    n_out: float = 1.0

    def loss(self, xe_sum: np.ndarray, ling_sum: np.ndarray | None):
        dt = xe_sum.dtype.type
        loss = xe_sum / dt(self.n_xe)
        if ling_sum is not None:
            loss = loss + (ling_sum / dt(self.n_ling)) * dt(self.lam)
        return loss / dt(self.n_out)

    def seeds(self, dtype) -> tuple:
        dt = np.dtype(dtype).type
        g = dt(1.0) / dt(self.n_out)
        return g / dt(self.n_xe), (g * dt(self.lam)) / dt(self.n_ling)


@dataclass
class Step:
    """A step's forward, and what its backward handed to the features."""

    dist: np.ndarray                        # (T*B, V) word distributions, rows step-major
    traces: list[UnitTrace]                 # one per unit, (T, B, ...) arrays
    xe_sum: np.ndarray | None = None        # the weighted word NLL
    ling_sum: np.ndarray | None = None      # the weighted word-class NLL, summed over units
    loss: np.floating | None = None         # the glue's objective
    region_grads: tuple | None = None       # the gradients of (r_obj, r_attr)


def _in_order(terms) -> np.ndarray:
    """The sum of the arrays ``terms``, added left to right into a copy of
    the first."""
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total


def step_grads(model: CaptionModel, enc: Encoded, replay: Replay, glue: Glue | None = None,
               *, grads: bool = False, region_grads: bool = False,
               where: str = "a step") -> Step:
    """One training step over an encoding: the fixed chain of stages run
    forward, then, with ``grads``, backward.

    The stages are the encode (run by the caller: ``enc``, recorded when
    ``grads``), the embedding rows of ``replay.inputs``, the units'
    wavefront (``decoder.unit_kernel``), the word head, the masked NLL of
    the targets and each unit's word-class NLL of the labels.  With
    ``glue`` the step's objective is ``glue.loss`` of the two sums.  With
    ``grads`` the objective must be finite (else ``TrainingError`` naming
    ``where``), and the stages' backwards run last stage first, in the
    order a graph of one node per stage and one per scalar operation would
    sweep them, each writing its weights' gradients into the arena, which
    must hold none (``ParamArena.clear_grads``); ``region_grads`` keeps
    the encode's gradients of the region features.  Where several stages or
    rows add to one gradient (the encoding read by every unit, and twice
    by ``replay.twice``), the terms add in that graph's order, so the
    gradients round as it did.  Under debug checks each backward's
    outgoing gradients and weight gradients are checked, naming the stage
    (``tensor.check_finite_grads``).
    """
    units, arena = model.units, model.arena
    fed = enc.twice() if replay.twice else enc
    idx = np.asarray(replay.inputs, dtype=np.int64).T
    rows = np.ascontiguousarray(model.embed.data[idx])
    check_finite("embedding", rows)
    top, traces, run = unit_kernel(units, rows, fed, replay.noise, record=grads)
    dist = word_head(top, model.head.W, model.head.b)
    step = Step(dist, traces)
    if replay.targets is not None:
        gold, weights = _step_major(replay.targets), _step_major(replay.weights)
        step.xe_sum = masked_nll(dist, gold, weights, LOSS_EPS)
        check_finite("masked_nll", step.xe_sum)
    if replay.labels is not None:
        labels, ling_weights = _step_major(replay.labels), _step_major(replay.ling_weights)
        terms = [masked_nll(tr.soft.reshape(-1, tr.soft.shape[-1]), labels, ling_weights,
                            LOSS_EPS) for tr in traces]
        step.ling_sum = sum(terms[1:], terms[0])
        check_finite("word_class_nll", step.ling_sum)
    if glue is not None:
        step.loss = glue.loss(step.xe_sum, step.ling_sum)
    if not grads:
        return step
    if enc.record is None:
        raise ValueError("a step with gradients needs an encoding made with record=True")
    if not np.isfinite(step.loss):
        raise TrainingError(f"non-finite loss at {where}")
    g_xe, g_ling = glue.seeds(dist.dtype)
    g_soft = None
    if replay.labels is not None:
        g_soft = np.stack([masked_nll_grad(tr.soft.reshape(-1, tr.soft.shape[-1]), labels,
                                           ling_weights, g_ling, LOSS_EPS).reshape(tr.soft.shape)
                           for tr in traces])
        check_finite_grads("word_class_nll", arena, g_soft)
    g_dist = masked_nll_grad(dist, gold, weights, g_xe, LOSS_EPS)
    check_finite_grads("masked_nll", arena, g_dist)
    g_top = word_head_backward(top, dist, model.head.W, model.head.b, g_dist)
    check_finite_grads("word_head", arena, g_top)
    g_direct, g_keys, g_means, g_rows = run.backward(g_top, g_soft)
    # per unit from the last, its attended sum's terms and its keys'
    g_values = _in_order([g for m in reversed(range(len(units)))
                          for g in (g_direct[m], g_keys[m])])
    g_means = _in_order(g_means[::-1])
    check_finite_grads("unit_kernel", arena, g_values, g_means, g_rows)
    gather_grad(grad_out([model.embed])[0], idx, g_rows)
    check_finite_grads("embedding", arena)
    if replay.twice:        # each scene's rows, then its second listing's
        b = enc.batch
        g_values, g_means = g_values[:, :b] + g_values[:, b:], g_means[:b] + g_means[b:]
    step.region_grads = encoder_backward(model.encoders, enc.record, g_values, g_means,
                                         need_x=region_grads)
    check_finite_grads("encoder_kernel", arena, *(step.region_grads or ()))
    return step


# -- teacher-forced pass ----------------------------------------------------


@dataclass
class ForwardStats:
    loss: np.floating            # scalar objective
    xe_sum: np.ndarray           # summed token negative log-likelihood
    ling_mean: np.floating | None  # module-supervision term, None when unused
    n_tokens: float
    n_correct: float
    n_agree: float | None        # last-unit module choices matching labels


def xe_replay(model: CaptionModel, batch: Batch, lam_ling: float = 0.0,
              rng: Rng | None = None) -> tuple[Replay, Glue]:
    """The replay and glue of a teacher-forced objective on a batch: mean
    token NLL plus ``lam_ling`` times the word-class NLL averaged over
    tokens and units, when the units have a controller.  Draws the
    pass's selection noise from ``rng``."""
    supervise = lam_ling > 0.0 and model.cfg.single_module is None
    n_tokens = float(batch.mask.sum())
    noise = model.selection_noise(rng, batch.inputs.shape[1], batch.size)
    replay = Replay(batch.inputs, noise, batch.targets, batch.mask,
                    *((batch.labels, batch.mask) if supervise else ()))
    return replay, Glue(n_xe=n_tokens, lam=lam_ling, n_ling=n_tokens * len(model.units))


def teacher_forced(model: CaptionModel, batch: Batch, *,
                   lam_ling: float = 0.0, rng: Rng | None = None,
                   enc=None, grads: bool = False, where: str = "a step") -> ForwardStats:
    """One teacher-forced pass over a batch (``xe_replay``), and with
    ``grads`` its backward (``step_grads``).

    The module-supervision term ``ling_mean`` is the unit NLL of the gold
    module labels averaged over tokens and units.  ``enc`` reuses an
    encoding of the batch's regions.
    """
    if enc is None:
        enc = model.encode(batch.r_obj, batch.r_attr, batch.region_mask, record=grads)
    replay, glue = xe_replay(model, batch, lam_ling, rng)
    step = step_grads(model, enc, replay, glue, grads=grads, where=where)
    gold, mask = _step_major(batch.targets), _step_major(batch.mask)
    correct = float(((np.argmax(step.dist, axis=1) == gold) * mask).sum())
    agree = None
    if model.cfg.single_module is None:
        chosen = np.argmax(step.traces[-1].weights, axis=-1).ravel()
        agree = float(((chosen == _step_major(batch.labels)) * mask).sum())
    ling_mean = None
    if step.ling_sum is not None:
        ling_mean = step.ling_sum / step.ling_sum.dtype.type(glue.n_ling)
    return ForwardStats(loss=step.loss, xe_sum=step.xe_sum, ling_mean=ling_mean,
                        n_tokens=glue.n_xe, n_correct=correct, n_agree=agree)


@dataclass
class _TokenSums:
    """Teacher-forced statistics summed over batches: a loss, the tokens,
    the correctly predicted tokens and, with a controller, the module
    choices that match the gold labels."""

    has_ctrl: bool
    loss: float = 0.0
    tokens: float = 0.0
    correct: float = 0.0
    agree: float = 0.0

    def add(self, stats: ForwardStats, loss: float) -> None:
        self.loss += loss
        self.tokens += stats.n_tokens
        self.correct += stats.n_correct
        if self.has_ctrl:
            self.agree += stats.n_agree

    def per_token(self) -> tuple:
        """(loss, token accuracy, module agreement or None) per token."""
        return (self.loss / self.tokens, self.correct / self.tokens,
                (self.agree / self.tokens) if self.has_ctrl else None)


@blas_on_calling_thread()
def teacher_forced_metrics(model: CaptionModel, corpus: Corpus,
                           synth: FeatureSynthesizer, split: str,
                           batch_size: int = 16) -> dict:
    """Token accuracy, per-token loss, and module agreement on a split."""
    scenes_by_id = {s.scene_id: s for s in corpus.scenes}
    sums = _TokenSums(model.cfg.single_module is None)
    for batch in make_batches(corpus.examples_in(split), scenes_by_id, synth, batch_size):
        stats = teacher_forced(model, batch)
        sums.add(stats, stats.xe_sum.item())
    xe, acc, agree = sums.per_token()
    return {"xe_per_token": xe, "token_acc": acc, "ctrl_agree": agree, "n_tokens": sums.tokens}


# -- self-critical pass -------------------------------------------------------


def self_critical_loss(model: CaptionModel, enc, references, idf: IdfTable,
                       vocab_tokens, rng: Rng, max_len: int, gold: Batch | None = None,
                       lam: float = 0.0, *, grads: bool = False, where: str = "a step"):
    """Policy-gradient surrogate averaged over the scenes of ``enc``.

    One decode pass runs the B scenes twice, on the encoding listed twice
    (``Encoded.twice``): rows ``:B`` sample a caption per scene, drawing
    the selection noise of all ``max_len`` steps first (as
    ``sample_decode`` does), and rows ``B:`` take the greedy caption, with
    zero noise.  Each caption is scored once against its scene's
    references with CIDEr-D, and a baseline equal to its sample reuses the
    sample's reward.  Returns the sum over scenes of -advantage * (summed
    log-probability of the sampled caption), divided by B, together with
    one {reward, baseline, advantage} dict per scene.  One teacher-forced
    pass (``step_grads``) replays the sampled tokens under the selection
    noise the sample rows drew, and with ``grads`` writes the surrogate's
    gradient into the arena, which must hold none.  With ``lam > 0`` the pass also runs
    ``gold``, the batch of the scenes' gold captions, as B more rows on
    the encoding listed twice, under noise drawn after the decode, and the
    surrogate adds lam times their word-class term: each scene's own mean
    word-class NLL, as a batch-1 pass would give it.

    ``references`` holds one reference set per scene, a single scene
    included.  A scene with zero advantage backpropagates exactly zero
    through its sampled caption; without the word-class term and with
    every advantage zero the gradient is zero, and ``grads`` writes
    nothing.
    """
    scenes, supervise = enc.batch, lam > 0.0
    noise = model.selection_noise(rng, max_len, scenes)
    sample = sample_policy(rng)

    def choose(t, p, live):
        return np.concatenate([sample(t, p[:scenes], live[:scenes]),
                               argmax_policy(t, p[scenes:], live[scenes:])])

    # the greedy rows select with zero noise
    both = None if noise is None else np.pad(noise, [(0, 0), (0, 0), (0, scenes), (0, 0)])
    rows = run_decoder(model, enc.twice(), max_len, choose, noise=both)
    sampled, baseline = rows[:scenes], rows[scenes:]
    infos = []
    for tokens, base, refs in zip(sampled, baseline, references):
        tokens, base = strip_sequence(tokens), strip_sequence(base)
        reward = cider_d([vocab_tokens[t] for t in tokens], refs, idf)
        base_reward = (reward if base == tokens
                       else cider_d([vocab_tokens[t] for t in base], refs, idf))
        infos.append({"reward": reward, "baseline": base_reward,
                      "advantage": reward - base_reward})

    gold_steps = gold.inputs.shape[1] if supervise else 0
    n_steps = max(gold_steps, *map(len, sampled))
    # a sampled row is fed [<bos>] + tokens[:-1] and scores its tokens,
    # each weighted by the scene's advantage
    shape = ((2 if supervise else 1) * scenes, n_steps)
    inputs = np.full(shape, PAD_ID, dtype=np.int64)
    targets, labels = inputs.copy(), inputs.copy()
    weights, ling_weights = np.zeros(shape), np.zeros(shape)
    for b, (tokens, info) in enumerate(zip(sampled, infos)):
        inputs[b, :len(tokens)] = [BOS_ID] + tokens[:-1]
        targets[b, :len(tokens)] = tokens
        weights[b, :len(tokens)] = info["advantage"]
    if noise is not None:       # zero past the decode's max_len steps
        noise = np.pad(noise[:n_steps], [(0, max(0, n_steps - len(noise)))] + [(0, 0)] * 3)
    if supervise:
        inputs[scenes:, :gold_steps] = gold.inputs
        labels[scenes:, :gold_steps] = gold.labels
        ling_weights[scenes:, :gold_steps] = gold.mask / (
            gold.mask.sum(axis=1, keepdims=True) * len(model.units))
        if noise is not None:
            noise = np.concatenate([noise, model.selection_noise(rng, n_steps, scenes)], axis=2)

    replay = Replay(inputs, noise, targets, weights,
                    *((labels, ling_weights) if supervise else ()), twice=supervise)
    no_op = not supervise and all(info["advantage"] == 0.0 for info in infos)
    step = step_grads(model, enc, replay, Glue(lam=lam, n_out=scenes),
                      grads=grads and not no_op, where=where)
    return step.loss, infos


# -- epochs -------------------------------------------------------------------


def _update(model: CaptionModel, opt: Adam, lr: float) -> float:
    """One optimizer step on the gradients a step left in the cleared
    arena: clip their global norm to ``config.GRAD_CLIP`` and step.
    Returns the pre-clip norm."""
    norm = clip_global_norm(model.arena, config.GRAD_CLIP)
    opt.step(model.arena, lr)
    return norm


def _norm_record(norms: list) -> dict:
    """The pre-clip gradient norms of an epoch's updates, summarised."""
    return {"grad_norm_mean": sum(norms) / len(norms) if norms else None,
            "grad_norm_max": max(norms) if norms else None,
            "clipped_steps": sum(norm > config.GRAD_CLIP for norm in norms)}


@blas_on_calling_thread()
def run_xe_epoch(model: CaptionModel, corpus: Corpus, synth: FeatureSynthesizer,
                 cfg: TrainConfig, opt: Adam, rng: Rng, epoch: int,
                 examples=None) -> dict:
    scenes_by_id = {s.scene_id: s for s in corpus.scenes}
    if examples is None:
        examples = train_examples(corpus, cfg)
    batches = make_batches(examples, scenes_by_id, synth, cfg.batch_size, rng)
    lr = cfg.lr_at(epoch)
    lam = config.LAMBDA_XE if cfg.linguistic else 0.0

    sums = _TokenSums(model.cfg.single_module is None)
    norms = []
    for step, batch in enumerate(batches):
        model.arena.clear_grads()
        stats = teacher_forced(model, batch, lam_ling=lam, rng=rng, grads=True,
                               where=f"epoch {epoch} step {step}")
        norms.append(_update(model, opt, lr))
        sums.add(stats, stats.loss.item() * stats.n_tokens)
    loss, acc, agree = sums.per_token()
    return {
        "phase": "xe",
        "lr": lr,
        "steps": len(norms),
        "loss": loss,
        "token_acc": acc,
        "ctrl_agree": agree,
        **_norm_record(norms),
    }


@blas_on_calling_thread()
def run_rl_epoch(model: CaptionModel, corpus: Corpus, synth: FeatureSynthesizer,
                 cfg: TrainConfig, opt: Adam, rng: Rng, epoch: int,
                 idf: IdfTable, max_steps: int | None = None) -> dict:
    scenes = corpus.scenes_in("train")
    scenes_by_id = {s.scene_id: s for s in scenes}
    # each train scene's captions the run reads: its gold caption, then the
    # rest of its references
    examples = {}
    for e in train_examples(corpus, cfg):
        examples.setdefault(e.scene_id, []).append(e)
    lr = cfg.lr_at(epoch) * config.RL_LR_SCALE
    lam = config.LAMBDA_RL if (cfg.linguistic and model.cfg.single_module is None) else 0.0
    vocab_tokens = corpus.vocab.tokens

    order = list(range(len(scenes)))
    rng.shuffle(order)
    if max_steps is not None:
        order = order[:max_steps]

    reward_sum = 0.0
    adv_sum = 0.0
    steps = 0
    skipped = 0
    norms = []
    for lo in range(0, len(order), cfg.batch_size):
        window = [examples[scenes[i].scene_id] for i in order[lo:lo + cfg.batch_size]]
        batch = _pack([group[0] for group in window], scenes_by_id, synth)
        enc = model.encode(batch.r_obj, batch.r_attr, batch.region_mask, record=True)
        refs = [[e.words for e in group] for group in window]
        model.arena.clear_grads()
        _, infos = self_critical_loss(model, enc, refs, idf, vocab_tokens, rng, cfg.max_len,
                                      batch, lam, grads=True,
                                      where=f"epoch {epoch} refinement step "
                                            f"{steps + batch.size}")
        reward_sum += sum(info["reward"] for info in infos)
        adv_sum += sum(info["advantage"] for info in infos)
        steps += batch.size
        if lam == 0.0 and all(info["advantage"] == 0.0 for info in infos):
            # every advantage in the window was exactly zero and there is
            # no supervision term: the update would be a no-op, keep it one
            skipped += 1
            continue
        norms.append(_update(model, opt, lr))

    return {
        "phase": "rl",
        "lr": lr,
        "steps": steps,
        "mean_reward": reward_sum / max(steps, 1),
        "mean_advantage": adv_sum / max(steps, 1),
        "skipped_updates": skipped,
        **_norm_record(norms),
    }


# -- schedule -----------------------------------------------------------------


@dataclass
class TrainState:
    """A training run.  A fresh one starts from ``Adam()``, the
    ``TRAIN_STREAM_TAG`` stream of ``cfg.seed``, epoch 0 and no history."""

    model: CaptionModel
    cfg: TrainConfig
    opt: Adam = field(default_factory=Adam)
    rng: Rng | None = None
    epoch: int = 0                   # next epoch to run
    history: list = field(default_factory=list)

    def __post_init__(self):
        if self.rng is None:
            self.rng = Rng(self.cfg.seed).derive(TRAIN_STREAM_TAG)


def train(state: TrainState, corpus: Corpus, synth: FeatureSynthesizer, *,
          checkpoint_path: str | None = None, max_epochs: int | None = None,
          log_fn=None) -> TrainState:
    """Run the remaining epochs of the two-phase schedule on ``state``.

    The state advances in place, ``state.epoch`` after each epoch, and is
    returned.  All randomness sits in ``state.rng``, so a state restored
    from a checkpoint continues step for step as if it had never stopped.
    ``max_epochs`` caps how many epochs this call runs, leaving the rest
    for a later resume.
    """
    model, cfg = state.model, state.cfg
    validate_run(model.cfg, cfg)
    corpus.require("train", "val")      # every epoch trains, then scores val
    total = cfg.xe_epochs + cfg.rl_epochs
    if max_epochs is not None:
        total = min(total, state.epoch + max_epochs)
    idf = None
    for epoch in range(state.epoch, total):
        started = time.perf_counter()
        if epoch < cfg.xe_epochs:
            stats = run_xe_epoch(model, corpus, synth, cfg, state.opt, state.rng, epoch)
        else:
            if idf is None:
                idf = IdfTable(references_of(train_examples(corpus, cfg)))
            stats = run_rl_epoch(model, corpus, synth, cfg, state.opt, state.rng, epoch, idf)
        val = teacher_forced_metrics(model, corpus, synth, "val",
                                     batch_size=cfg.batch_size)
        entry = {"epoch": epoch, **stats,
                 "val_token_acc": val["token_acc"],
                 "val_ctrl_agree": val["ctrl_agree"],
                 "val_xe_per_token": val["xe_per_token"]}
        state.history.append(entry)
        state.epoch = epoch + 1
        seconds = time.perf_counter() - started
        message = (f"epoch {epoch} [{stats['phase']}] "
                   + " ".join(f"{k}={v:.4f}" for k, v in sorted(entry.items())
                              if isinstance(v, float))
                   + f" ({seconds:.1f}s)")
        (log_fn or LOG.info)(message)
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, state, corpus.vocab)
    return state


# -- decoding over splits ------------------------------------------------------


def caption_scene(model: CaptionModel, synth: FeatureSynthesizer, scene, vocab: Vocabulary,
                  mode: str, *, beam_width: int = 5, max_len: int = 16,
                  rng: Rng | None = None) -> list[str]:
    """The words of a scene's caption under greedy, beam or sampled (``rng``
    required) decoding."""
    enc = model.encode(*synth.features(scene))
    if mode == "greedy":
        rows = greedy_decode(model, enc, max_len)
    elif mode == "beam":
        rows = [beam_search(model, enc, beam_width, max_len)[0].tokens]
    elif mode == "sample" and rng is not None:
        rows, _ = sample_decode(model, enc, rng, max_len)
    else:
        raise ValueError(f"unknown decode mode {mode!r}: pick greedy, beam, or sample "
                         "with an rng")
    return vocab.decode(strip_sequence(rows[0]))


def decode_split(model: CaptionModel, corpus: Corpus, synth: FeatureSynthesizer,
                 split: str, *, mode: str = "beam", beam_width: int = 5,
                 max_len: int = 16) -> dict[int, list[str]]:
    """Scene id -> predicted word list for every scene in the split, under
    greedy or beam decoding."""
    return {scene.scene_id: caption_scene(model, synth, scene, corpus.vocab, mode,
                                          beam_width=beam_width, max_len=max_len)
            for scene in corpus.scenes_in(split)}


def evaluate_split(model: CaptionModel, corpus: Corpus, synth: FeatureSynthesizer,
                   split: str, *, mode: str = "beam", beam_width: int = 5,
                   max_len: int = 16) -> dict:
    corpus.require(split)
    predictions = decode_split(model, corpus, synth, split, mode=mode,
                               beam_width=beam_width, max_len=max_len)
    report = evaluate_captions(predictions, corpus.references(split),
                               corpus.vocab.tag)
    report["split"] = split
    report["decode"] = {"mode": mode, "beam_width": beam_width, "max_len": max_len}
    return report


# -- checkpoints ----------------------------------------------------------------

CKPT_MAGIC = b"CNMT"
CKPT_VERSION = 1


def _meta_path(path: str) -> str:
    return path + ".meta.json"


def save_checkpoint(path: str, state: TrainState, vocab: Vocabulary) -> None:
    """Write ``state`` and its vocabulary to ``path`` and its meta file."""
    arena = state.model.arena
    entries = sorted(zip(arena.names, arena.views))
    adam_t = {name: t for name, t in sorted(zip(arena.names, arena.steps)) if t}
    if adam_t:
        ms, vs = (dict(zip(arena.names, arena.views_of(flat))) for flat in arena.moments())
        for name in adam_t:
            entries += [(f"adam.m.{name}", ms[name]), (f"adam.v.{name}", vs[name])]
    blob = bytearray(CKPT_MAGIC)
    blob += struct.pack("<II", CKPT_VERSION, len(entries))
    for name, arr in entries:
        key = name.encode("utf-8")
        a = np.ascontiguousarray(arr, dtype=np.float32)
        blob += struct.pack("<I", len(key))
        blob += key
        blob += struct.pack("<I", a.ndim)
        blob += struct.pack(f"<{a.ndim}I", *a.shape)
        blob += a.tobytes()
    meta = {
        "version": CKPT_VERSION,
        "model": state.model.cfg.to_dict(),
        "train": state.cfg.to_dict(),
        "vocab": vocab.to_dict(),
        "epoch": state.epoch,
        "rng": state.rng.get_state(),
        "adam_t": adam_t,
        "history": state.history,
        "bin_sha256": hashlib.sha256(blob).hexdigest(),
    }
    meta_text = json.dumps(meta, sort_keys=True, indent=1) + "\n"
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    # Both files are written in full under temporary names before either
    # replaces its predecessor, so a save that fails part way leaves the
    # previous pair intact.  The meta file records the tensor file's
    # sha256, so a tensor file paired with another save's meta is caught.
    bin_tmp, meta_tmp = path + ".tmp", _meta_path(path) + ".tmp"
    try:
        with open(bin_tmp, "wb") as fh:
            fh.write(blob)
        with open(meta_tmp, "w") as fh:
            fh.write(meta_text)
        os.replace(bin_tmp, path)
        os.replace(meta_tmp, _meta_path(path))
    finally:
        for tmp in (bin_tmp, meta_tmp):
            if os.path.exists(tmp):
                os.remove(tmp)


def load_checkpoint(path: str):
    """Returns (tensors by name, metadata dict).

    Meta files that record the tensor file's sha256 must match it; older
    version-1 meta files without the field load unchecked.
    """
    try:
        with open(path, "rb") as fh:
            raw_file = fh.read()
    except OSError as exc:
        raise DataError(f"cannot open checkpoint {path}: {exc}") from exc
    tensors = {}
    with io.BytesIO(raw_file) as fh:
        head = fh.read(4)
        if head != CKPT_MAGIC:
            raise FormatError(f"{path}: not a checkpoint (bad magic {head!r})")
        try:
            version, count = struct.unpack("<II", fh.read(8))
            if version != CKPT_VERSION:
                raise FormatError(f"{path}: unsupported checkpoint version {version}")
            for _ in range(count):
                (name_len,) = struct.unpack("<I", fh.read(4))
                name = fh.read(name_len).decode("utf-8")
                (rank,) = struct.unpack("<I", fh.read(4))
                shape = struct.unpack(f"<{rank}I", fh.read(4 * rank)) if rank else ()
                n_bytes = int(np.prod(shape, dtype=np.int64)) * 4 if shape else 4
                raw = fh.read(n_bytes)
                if len(raw) != n_bytes:
                    raise FormatError(f"{path}: truncated tensor {name!r}")
                tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        except struct.error as exc:
            raise FormatError(f"{path}: truncated checkpoint: {exc}") from exc
        except DataError:
            raise
        except (ValueError, OverflowError) as exc:
            # a damaged header: a name that is not UTF-8, an impossible rank,
            # a shape of more bytes than a read can ask for
            raise FormatError(f"{path}: malformed tensor entry: {exc}") from exc
    meta_file = _meta_path(path)
    try:
        with open(meta_file) as mf:
            meta = json.load(mf)
    except OSError as exc:
        raise DataError(f"checkpoint metadata missing: {meta_file}: {exc}") from exc
    except ValueError as exc:
        # not JSON, or not UTF-8
        raise FormatError(f"{meta_file}: invalid JSON: {exc}") from exc
    recorded = meta.get("bin_sha256") if isinstance(meta, dict) else None
    if recorded is not None and recorded != hashlib.sha256(raw_file).hexdigest():
        raise FormatError(f"{path}: tensor file does not match the sha256 recorded in "
                          f"{meta_file}; the pair comes from different saves")
    return tensors, meta


def _is_int(value) -> bool:
    """Whether a JSON value is an integer (JSON's true and false are not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def restore_training(path: str) -> tuple[TrainState, Vocabulary]:
    """The training state saved at ``path`` and its vocabulary.  A meta
    file without ``few_shot`` (saved before it was stored) restores none."""
    tensors, meta = load_checkpoint(path)
    try:
        model_cfg = ModelConfig.from_dict(meta["model"])
        train_cfg = TrainConfig.from_dict(meta["train"])
        vocab = Vocabulary.from_dict(meta["vocab"])
        epoch = meta["epoch"]
        rng_state = meta["rng"]
        adam_t = meta["adam_t"]
        history = meta["history"]
        validate_run(model_cfg, train_cfg)
    except KeyError as exc:
        raise FormatError(f"checkpoint metadata is missing field {exc}") from exc
    except TypeError as exc:
        # an unknown or misplaced field in a stored configuration
        raise FormatError(f"checkpoint metadata is malformed: {exc}") from exc
    except ConfigError as exc:
        raise FormatError(f"checkpoint metadata holds an invalid configuration: "
                          f"{exc}") from exc
    if not _is_int(epoch) or epoch < 0:
        raise FormatError(f"{path}: epoch is {epoch!r}, not a non-negative integer")
    if not (isinstance(rng_state, list) and len(rng_state) == 2
            and _is_int(rng_state[0]) and 0 <= rng_state[0] < 2**64
            and (rng_state[1] is None
                 or isinstance(rng_state[1], float) and math.isfinite(rng_state[1]))):
        raise FormatError(f"{path}: rng state is {rng_state!r}, not [a 64-bit unsigned "
                          "integer, null or a finite float]")
    if not isinstance(history, list):
        raise FormatError(f"{path}: history is {type(history).__name__}, not a list")

    model = CaptionModel(model_cfg, Rng(0))
    params = model.named_parameters()
    stored = {k: v for k, v in tensors.items() if not k.startswith("adam.")}
    if set(stored) != set(params):
        missing = sorted(set(params) - set(stored))
        extra = sorted(set(stored) - set(params))
        raise DataError(f"checkpoint does not match the model: "
                        f"missing {missing or 'none'}, unexpected {extra or 'none'}")
    try:
        model.arena.assign(stored)
    except ShapeError as exc:
        raise DataError(f"checkpoint does not match the model: {exc}") from exc

    if not isinstance(adam_t, dict):
        raise FormatError(f"{path}: adam_t must map parameter names to step counts")
    entries = {k for k in tensors if k.startswith("adam.")}
    expected = {f"adam.{kind}.{name}" for name in adam_t for kind in "mv"}
    unknown = sorted(set(adam_t) - set(params))
    if unknown or entries != expected:
        raise FormatError(f"{path}: each parameter has all of Adam's m, v and step count, or "
                          f"none: step counts of no parameter {unknown or 'none'}, entries "
                          f"missing {sorted(expected - entries) or 'none'}, "
                          f"unexpected {sorted(entries - expected) or 'none'}")
    arena = model.arena
    ms, vs = map(arena.views_of, arena.moments())
    for i, name in enumerate(arena.names):
        if name not in adam_t:
            continue
        m, v, t = tensors[f"adam.m.{name}"], tensors[f"adam.v.{name}"], adam_t[name]
        if m.shape != ms[i].shape or v.shape != ms[i].shape:
            raise FormatError(f"{path}: Adam moments of {name!r} have shapes {m.shape} "
                              f"and {v.shape}, the parameter {ms[i].shape}")
        if not _is_int(t) or t < 0:
            raise FormatError(f"{path}: Adam step count of {name!r} is {t!r}, "
                              "not a non-negative integer")
        ms[i][...], vs[i][...], arena.steps[i] = m, v, t
    rng = Rng(0)
    rng.set_state(rng_state)
    return TrainState(model=model, cfg=train_cfg, rng=rng, epoch=epoch,
                      history=history), vocab
