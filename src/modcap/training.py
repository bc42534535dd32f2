"""Training loops and checkpointing.

The schedule has two phases.  Cross-entropy epochs teacher-force gold
captions in batches; the objective is mean negative log-likelihood per
token plus the module-supervision term.  Refinement epochs then run
self-critical policy gradient: sample a caption, score it against the
greedy caption with the consensus metric, and weight the sampled
log-probabilities by the advantage.

Batches group examples whose scenes have the same region count, so
feature tensors stack without masking; caption positions are padded and
masked instead.  All shuffling, sampling, and hard-selection noise comes
from one stream derived from the training seed, which is what makes
resuming from a checkpoint reproduce the uninterrupted run.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .config import ModelConfig, TrainConfig, validate_run
from .corpus import Corpus, FeatureSynthesizer, Vocabulary
from .decoder import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    CaptionModel,
    beam_search,
    greedy_decode,
    sample_decode,
    strip_sequence,
)
from .errors import DataError, FormatError, TrainingError
from .metrics import IdfTable, cider_d, evaluate_captions
from .tensor import (
    Adam,
    AdamState,
    Rng,
    Tensor,
    clip_global_norm,
    masked_nll,
    no_grad,
)

LOG = logging.getLogger(__name__)

LOSS_EPS = 1e-12
TRAIN_STREAM_TAG = 909
MODEL_INIT_TAG = 707


# -- batching ----------------------------------------------------------------


@dataclass
class Batch:
    scene_ids: list[int]
    r_obj: np.ndarray       # (B, K, d_r)
    r_attr: np.ndarray      # (B, K, d_r)
    inputs: np.ndarray      # (B, T) previous tokens, starts with <bos>
    targets: np.ndarray     # (B, T) gold tokens, ends with <eos>
    labels: np.ndarray      # (B, T) gold module labels per position
    mask: np.ndarray        # (B, T) 1.0 where targets are real

    @property
    def size(self) -> int:
        return len(self.scene_ids)


def _pack(examples, scenes_by_id, synth: FeatureSynthesizer) -> Batch:
    n = len(examples)
    t_max = max(len(e.token_ids) - 1 for e in examples)
    inputs = np.full((n, t_max), PAD_ID, dtype=np.int64)
    targets = np.full((n, t_max), PAD_ID, dtype=np.int64)
    labels = np.full((n, t_max), 3, dtype=np.int64)
    mask = np.zeros((n, t_max), dtype=np.float32)
    r_obj_rows = []
    r_attr_rows = []
    for b, e in enumerate(examples):
        ids = e.token_ids
        t = len(ids) - 1
        inputs[b, :t] = ids[:-1]
        targets[b, :t] = ids[1:]
        labels[b, :t] = e.labels
        mask[b, :t] = 1.0
        ro, ra = synth.features(scenes_by_id[e.scene_id])
        r_obj_rows.append(ro)
        r_attr_rows.append(ra)
    return Batch(scene_ids=[e.scene_id for e in examples],
                 r_obj=np.stack(r_obj_rows), r_attr=np.stack(r_attr_rows),
                 inputs=inputs, targets=targets, labels=labels, mask=mask)


def make_batches(examples, scenes_by_id, synth: FeatureSynthesizer,
                 batch_size: int, rng: Rng | None = None) -> list[Batch]:
    """Batches of examples whose scenes share a region count.

    With an rng the example order is shuffled first; buckets flush as they
    fill, leftovers flush smallest region count first.
    """
    order = list(range(len(examples)))
    if rng is not None:
        rng.shuffle(order)
    buckets: dict[int, list] = {}
    out = []
    for i in order:
        e = examples[i]
        k = len(scenes_by_id[e.scene_id].regions)
        bucket = buckets.setdefault(k, [])
        bucket.append(e)
        if len(bucket) == batch_size:
            out.append(_pack(bucket, scenes_by_id, synth))
            buckets[k] = []
    for k in sorted(buckets):
        if buckets[k]:
            out.append(_pack(buckets[k], scenes_by_id, synth))
    return out


# -- teacher-forced pass ----------------------------------------------------


@dataclass
class ForwardStats:
    loss: Tensor                 # scalar objective, ready for backward()
    xe_sum: Tensor               # summed token negative log-likelihood
    ling_mean: Tensor | None     # module-supervision term, None when unused
    n_tokens: float
    n_correct: float
    n_agree: float | None        # last-unit module choices matching labels


def teacher_forced(model: CaptionModel, batch: Batch, *,
                   lam_ling: float = 0.0, rng: Rng | None = None) -> ForwardStats:
    enc = model.encode(batch.r_obj, batch.r_attr)
    states = model.init_state(batch.size)
    has_ctrl = model.cfg.single_module is None
    supervise = lam_ling > 0.0 and has_ctrl

    xe_sum = None
    ling_sum = None
    correct = 0.0
    agree = 0.0 if has_ctrl else None
    t_len = batch.inputs.shape[1]
    for t in range(t_len):
        dist, states, traces = model.step(batch.inputs[:, t], enc, states, rng=rng)
        gold = batch.targets[:, t]
        mask_np = batch.mask[:, t]
        nll = masked_nll(dist, gold, mask_np, LOSS_EPS)
        xe_sum = nll if xe_sum is None else xe_sum + nll

        pred = np.argmax(dist.data, axis=1)
        correct += float(((pred == gold) * mask_np).sum())
        if has_ctrl:
            chosen = np.argmax(traces[-1].weights.data, axis=1)
            agree += float(((chosen == batch.labels[:, t]) * mask_np).sum())
        if supervise:
            for tr in traces:
                unit_nll = masked_nll(tr.soft, batch.labels[:, t], mask_np, LOSS_EPS)
                ling_sum = unit_nll if ling_sum is None else ling_sum + unit_nll

    n_tokens = float(batch.mask.sum())
    loss = xe_sum / n_tokens
    ling_mean = None
    if supervise:
        ling_mean = ling_sum / (n_tokens * len(model.units))
        loss = loss + lam_ling * ling_mean
    return ForwardStats(loss=loss, xe_sum=xe_sum, ling_mean=ling_mean,
                        n_tokens=n_tokens, n_correct=correct, n_agree=agree)


def teacher_forced_metrics(model: CaptionModel, corpus: Corpus,
                           synth: FeatureSynthesizer, split: str,
                           batch_size: int = 16) -> dict:
    """Token accuracy, per-token loss, and module agreement on a split."""
    scenes_by_id = {s.scene_id: s for s in corpus.scenes}
    batches = make_batches(corpus.examples_in(split), scenes_by_id, synth, batch_size)
    xe = 0.0
    tokens = 0.0
    correct = 0.0
    agree = 0.0
    has_ctrl = model.cfg.single_module is None
    with no_grad():
        for batch in batches:
            stats = teacher_forced(model, batch)
            xe += stats.xe_sum.item()
            tokens += stats.n_tokens
            correct += stats.n_correct
            if has_ctrl:
                agree += stats.n_agree
    return {
        "xe_per_token": xe / tokens,
        "token_acc": correct / tokens,
        "ctrl_agree": (agree / tokens) if has_ctrl else None,
        "n_tokens": tokens,
    }


# -- self-critical pass -------------------------------------------------------


def self_critical_loss(model: CaptionModel, enc, references, idf: IdfTable,
                       vocab_tokens, rng: Rng, max_len: int):
    """Policy-gradient surrogate for one scene.

    Samples a caption, scores it and the greedy caption against the
    references, and returns advantage-weighted negative log-probability.
    Zero advantage means a loss that backpropagates exactly zero.
    """
    sampled, logps = sample_decode(model, enc, rng, max_len)
    with no_grad():
        baseline = greedy_decode(model, enc, max_len)
    sampled_words = [vocab_tokens[t] for t in strip_sequence(sampled)]
    baseline_words = [vocab_tokens[t] for t in strip_sequence(baseline)]
    reward = cider_d(sampled_words, references, idf)
    base_reward = cider_d(baseline_words, references, idf)
    advantage = reward - base_reward
    total_logp = logps[0]
    for lp in logps[1:]:
        total_logp = total_logp + lp
    loss = total_logp * (-advantage)
    return loss, {"reward": reward, "baseline": base_reward, "advantage": advantage}


# -- epochs -------------------------------------------------------------------


def _clear_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


def _check_finite(value: Tensor, where: str) -> None:
    if not np.all(np.isfinite(value.data)):
        raise TrainingError(f"non-finite loss at {where}")


def run_xe_epoch(model: CaptionModel, corpus: Corpus, synth: FeatureSynthesizer,
                 cfg: TrainConfig, opt: Adam, rng: Rng, epoch: int,
                 examples=None) -> dict:
    params = model.named_parameters()
    scenes_by_id = {s.scene_id: s for s in corpus.scenes}
    if examples is None:
        examples = corpus.examples_in("train")
    batches = make_batches(examples, scenes_by_id, synth, cfg.batch_size, rng)
    lr = cfg.lr_at(epoch)
    lam = cfg.lambda_xe if cfg.linguistic else 0.0

    loss_sum = 0.0
    tokens = 0.0
    correct = 0.0
    agree = 0.0
    has_ctrl = model.cfg.single_module is None
    for step, batch in enumerate(batches):
        stats = teacher_forced(model, batch, lam_ling=lam, rng=rng)
        _check_finite(stats.loss, f"epoch {epoch} step {step}")
        _clear_grads(params)
        stats.loss.backward()
        clip_global_norm(params, cfg.grad_clip)
        opt.step(params, lr)
        loss_sum += stats.loss.item() * stats.n_tokens
        tokens += stats.n_tokens
        correct += stats.n_correct
        if has_ctrl:
            agree += stats.n_agree
    return {
        "phase": "xe",
        "lr": lr,
        "steps": len(batches),
        "loss": loss_sum / tokens,
        "token_acc": correct / tokens,
        "ctrl_agree": (agree / tokens) if has_ctrl else None,
    }


def run_rl_epoch(model: CaptionModel, corpus: Corpus, synth: FeatureSynthesizer,
                 cfg: TrainConfig, opt: Adam, rng: Rng, epoch: int,
                 idf: IdfTable, max_steps: int | None = None) -> dict:
    params = model.named_parameters()
    scenes = corpus.scenes_in("train")
    refs = corpus.references("train")
    scenes_by_id = {s.scene_id: s for s in corpus.scenes}
    gold_example = {}
    for e in corpus.examples_in("train"):
        gold_example.setdefault(e.scene_id, e)
    lr = cfg.lr_at(epoch) * cfg.rl_lr_scale
    lam = cfg.lambda_rl if (cfg.linguistic and model.cfg.single_module is None) else 0.0
    vocab_tokens = corpus.vocab.tokens

    order = list(range(len(scenes)))
    rng.shuffle(order)
    if max_steps is not None:
        order = order[:max_steps]

    window: list[Tensor] = []
    window_zero = True
    reward_sum = 0.0
    adv_sum = 0.0
    steps = 0
    skipped = 0

    def flush():
        nonlocal window, window_zero, skipped
        if not window:
            return
        if window_zero and lam == 0.0:
            # every advantage in the window was exactly zero and there is
            # no supervision term: the update would be a no-op, keep it one
            skipped += 1
            window = []
            window_zero = True
            return
        combined = window[0]
        for piece in window[1:]:
            combined = combined + piece
        combined = combined / float(len(window))
        _check_finite(combined, f"epoch {epoch} refinement step {steps}")
        _clear_grads(params)
        combined.backward()
        clip_global_norm(params, cfg.grad_clip)
        opt.step(params, lr)
        window = []
        window_zero = True

    for i in order:
        scene = scenes[i]
        enc = model.encode(*synth.features(scene))
        loss, info = self_critical_loss(model, enc, refs[scene.scene_id], idf,
                                        vocab_tokens, rng, cfg.max_len)
        if lam > 0.0:
            batch = _pack([gold_example[scene.scene_id]], scenes_by_id, synth)
            stats = teacher_forced(model, batch, lam_ling=lam, rng=rng)
            loss = loss + lam * stats.ling_mean
        window.append(loss)
        window_zero = window_zero and info["advantage"] == 0.0
        reward_sum += info["reward"]
        adv_sum += info["advantage"]
        steps += 1
        if len(window) == cfg.batch_size:
            flush()
    flush()

    return {
        "phase": "rl",
        "lr": lr,
        "steps": steps,
        "mean_reward": reward_sum / max(steps, 1),
        "mean_advantage": adv_sum / max(steps, 1),
        "skipped_updates": skipped,
    }


# -- schedule -----------------------------------------------------------------


@dataclass
class TrainState:
    model: CaptionModel
    opt: Adam
    rng: Rng
    epoch: int                       # next epoch to run
    history: list = field(default_factory=list)


def train(model: CaptionModel, corpus: Corpus, synth: FeatureSynthesizer,
          cfg: TrainConfig, *, opt: Adam | None = None, rng: Rng | None = None,
          start_epoch: int = 0, history: list | None = None,
          checkpoint_path: str | None = None, examples=None,
          max_epochs: int | None = None, log_fn=None) -> TrainState:
    """Run the remaining epochs of the two-phase schedule.

    Passing the opt/rng/start_epoch/history of a loaded checkpoint
    continues the original run; all randomness sits in ``rng``, so the
    continuation is step-for-step identical to never having stopped.
    ``max_epochs`` caps how many epochs this call runs, leaving the rest
    for a later resume.
    """
    validate_run(model.cfg, cfg)
    opt = opt if opt is not None else Adam()
    rng = rng if rng is not None else Rng(cfg.seed).derive(TRAIN_STREAM_TAG)
    history = history if history is not None else []
    total = cfg.xe_epochs + cfg.rl_epochs
    if max_epochs is not None:
        total = min(total, start_epoch + max_epochs)
    idf = None
    for epoch in range(start_epoch, total):
        started = time.perf_counter()
        if epoch < cfg.xe_epochs:
            stats = run_xe_epoch(model, corpus, synth, cfg, opt, rng, epoch,
                                 examples=examples)
        else:
            if idf is None:
                idf = IdfTable(corpus.references("train"))
            stats = run_rl_epoch(model, corpus, synth, cfg, opt, rng, epoch, idf)
        val = teacher_forced_metrics(model, corpus, synth, "val",
                                     batch_size=cfg.batch_size)
        entry = {"epoch": epoch, **stats,
                 "val_token_acc": val["token_acc"],
                 "val_ctrl_agree": val["ctrl_agree"],
                 "val_xe_per_token": val["xe_per_token"]}
        history.append(entry)
        seconds = time.perf_counter() - started
        message = (f"epoch {epoch} [{stats['phase']}] "
                   + " ".join(f"{k}={v:.4f}" for k, v in sorted(entry.items())
                              if isinstance(v, float))
                   + f" ({seconds:.1f}s)")
        (log_fn or LOG.info)(message)
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, model=model, train_cfg=cfg,
                            vocab=corpus.vocab, opt=opt, rng=rng,
                            epoch=epoch + 1, history=history)
    return TrainState(model=model, opt=opt, rng=rng, epoch=total, history=history)


# -- decoding over splits ------------------------------------------------------


def decode_split(model: CaptionModel, corpus: Corpus, synth: FeatureSynthesizer,
                 split: str, *, mode: str = "beam", beam_width: int = 5,
                 max_len: int = 16) -> dict[int, list[str]]:
    """Scene id -> predicted word list for every scene in the split."""
    out = {}
    with no_grad():
        for scene in corpus.scenes_in(split):
            enc = model.encode(*synth.features(scene))
            if mode == "greedy":
                tokens = greedy_decode(model, enc, max_len)
            elif mode == "beam":
                tokens = list(beam_search(model, enc, beam_width, max_len)[0].tokens)
            else:
                raise ValueError(f"unknown decode mode {mode!r}")
            out[scene.scene_id] = corpus.vocab.decode(strip_sequence(tokens))
    return out


def evaluate_split(model: CaptionModel, corpus: Corpus, synth: FeatureSynthesizer,
                   split: str, *, mode: str = "beam", beam_width: int = 5,
                   max_len: int = 16) -> dict:
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


def save_checkpoint(path: str, *, model: CaptionModel, train_cfg: TrainConfig,
                    vocab: Vocabulary, opt: Adam, rng: Rng, epoch: int,
                    history: list) -> None:
    params = model.named_parameters()
    entries = [(name, params[name].data) for name in sorted(params)]
    adam_t = {}
    for name in sorted(params):
        st = opt.state.get(name)
        if st is not None:
            entries.append((f"adam.m.{name}", st.m))
            entries.append((f"adam.v.{name}", st.v))
            adam_t[name] = st.t
    meta = {
        "version": CKPT_VERSION,
        "model": model.cfg.to_dict(),
        "train": train_cfg.to_dict(),
        "vocab": vocab.to_dict(),
        "epoch": epoch,
        "rng": rng.get_state(),
        "adam_t": adam_t,
        "history": history,
    }
    meta_text = json.dumps(meta, sort_keys=True, indent=1) + "\n"
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    # Both files are written in full under temporary names before either
    # replaces its predecessor, so a save that fails part way leaves the
    # previous pair intact.
    bin_tmp, meta_tmp = path + ".tmp", _meta_path(path) + ".tmp"
    try:
        with open(bin_tmp, "wb") as fh:
            fh.write(CKPT_MAGIC)
            fh.write(struct.pack("<II", CKPT_VERSION, len(entries)))
            for name, arr in entries:
                blob = name.encode("utf-8")
                a = np.ascontiguousarray(arr, dtype=np.float32)
                fh.write(struct.pack("<I", len(blob)))
                fh.write(blob)
                fh.write(struct.pack("<I", a.ndim))
                fh.write(struct.pack(f"<{a.ndim}I", *a.shape))
                fh.write(a.tobytes())
        with open(meta_tmp, "w") as fh:
            fh.write(meta_text)
        os.replace(bin_tmp, path)
        os.replace(meta_tmp, _meta_path(path))
    finally:
        for tmp in (bin_tmp, meta_tmp):
            if os.path.exists(tmp):
                os.remove(tmp)


def load_checkpoint(path: str):
    """Returns (tensors by name, metadata dict)."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot open checkpoint {path}: {exc}") from exc
    tensors = {}
    with fh:
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
    meta_file = _meta_path(path)
    try:
        with open(meta_file) as mf:
            meta = json.load(mf)
    except OSError as exc:
        raise DataError(f"checkpoint metadata missing: {meta_file}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{meta_file}: invalid JSON: {exc}") from exc
    return tensors, meta


@dataclass
class RestoredTraining:
    model: CaptionModel
    train_cfg: TrainConfig
    vocab: Vocabulary
    opt: Adam
    rng: Rng
    epoch: int
    history: list


def restore_training(path: str) -> RestoredTraining:
    tensors, meta = load_checkpoint(path)
    try:
        model_cfg = ModelConfig.from_dict(meta["model"])
        train_cfg = TrainConfig.from_dict(meta["train"])
        vocab = Vocabulary.from_dict(meta["vocab"])
        epoch = int(meta["epoch"])
        rng_state = meta["rng"]
        adam_t = meta["adam_t"]
        history = meta["history"]
    except KeyError as exc:
        raise FormatError(f"checkpoint metadata is missing field {exc}") from exc
    except TypeError as exc:
        # an unknown or misplaced field in a stored configuration
        raise FormatError(f"checkpoint metadata is malformed: {exc}") from exc

    model = CaptionModel(model_cfg, Rng(0))
    params = model.named_parameters()
    stored = {k: v for k, v in tensors.items() if not k.startswith("adam.")}
    if set(stored) != set(params):
        missing = sorted(set(params) - set(stored))
        extra = sorted(set(stored) - set(params))
        raise DataError(f"checkpoint does not match the model: "
                        f"missing {missing or 'none'}, unexpected {extra or 'none'}")
    for name, arr in stored.items():
        if params[name].data.shape != arr.shape:
            raise DataError(f"parameter {name!r} has shape {arr.shape}, "
                            f"model expects {params[name].data.shape}")
        params[name].data = np.ascontiguousarray(arr)

    opt = Adam()
    for name in params:
        m_key, v_key = f"adam.m.{name}", f"adam.v.{name}"
        if m_key in tensors:
            try:
                opt.state[name] = AdamState(m=np.ascontiguousarray(tensors[m_key]),
                                            v=np.ascontiguousarray(tensors[v_key]),
                                            t=int(adam_t[name]))
            except KeyError as exc:
                raise FormatError(f"{path}: incomplete Adam state for parameter "
                                  f"{name!r}: no entry {exc}") from exc
    rng = Rng(0)
    rng.set_state(rng_state)
    return RestoredTraining(model=model, train_cfg=train_cfg, vocab=vocab,
                            opt=opt, rng=rng, epoch=epoch, history=history)
