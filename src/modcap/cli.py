"""Command line interface.

Exit codes: 0 success, 1 usage or configuration problems, 2 unreadable
or inconsistent data, 3 numeric failures (divergence, failed gradient
checks), 4 an output that cannot be written, found before any work
starts.  The resolved configuration echoes to stderr before any long
command so runs are auditable; result payloads go to stdout as JSON.
The CNM_SEED environment variable supplies the default seed when --seed
is not given.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import logging
import os
import sys
import time
from dataclasses import replace

from . import __version__
from .config import STRATEGIES, ModelConfig, TrainConfig, apply_preset, validate_run
from .corpus import (
    SPLITS,
    CorpusSpec,
    FeatureSynthesizer,
    generate_corpus,
    load_corpus,
    save_corpus,
)
from .decoder import CaptionModel
from .errors import (
    ConfigError,
    CorpusSpecError,
    DataError,
    FormatError,
    OutputError,
    TrainingError,
)
from .gradcheck import DEFAULT_TOLERANCE, SECTIONS, run_battery
from .tensor import Rng, set_debug_checks
from .trace import render_svg, trace_example, trace_generated
from .training import (
    MODEL_INIT_TAG,
    TrainState,
    caption_scene,
    evaluate_split,
    restore_training,
    teacher_forced_metrics,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_OUTPUT = 4

LOG = logging.getLogger("modcap.cli")

DEFAULT_ABLATION = "Module/O,Col/1,Col/S,Col/S+L,CNM#2"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; 2 means unreadable data here, so
    usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return int(text)


def _seed_of(args) -> int:
    """--seed, else the CNM_SEED environment variable, else 0."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("CNM_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"CNM_SEED must be an integer, got {raw!r}") from None


def _echo_config(model_cfg: ModelConfig, train_cfg: TrainConfig) -> None:
    doc = {"model": model_cfg.to_dict(), "train": train_cfg.to_dict()}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


def _check_output(path: str | None, directory: bool = False) -> None:
    """Raise OutputError unless ``path`` (when given) can be written: it is
    not empty, it is missing or already a file (a directory, with
    ``directory``), and the nearest existing path above it is a directory."""
    if path is None:
        return
    if not path:
        raise OutputError("an output path is empty")
    target = os.path.abspath(path)
    if os.path.exists(target) and os.path.isdir(target) != directory:
        raise OutputError(f"{path} is {'not ' * directory}a directory")
    parent = os.path.dirname(target)
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise OutputError(f"cannot write {path}: {parent} is not a directory")


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``, making its directories first."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _emit(payload: dict, out_path: str | None = None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=1)
    if out_path:
        _write_text(out_path, text + "\n")
    print(text)


def _build_configs(args, corpus):
    """Defaults, then the preset, then explicit flags on top; the region
    feature width and the vocabulary are the corpus's."""
    model_cfg = ModelConfig(vocab_size=len(corpus.vocab), d_r=corpus.spec.d_r)
    train_cfg = TrainConfig(seed=_seed_of(args))
    if getattr(args, "preset", None):
        model_cfg, train_cfg = apply_preset(args.preset, model_cfg, train_cfg)

    def given(*flags):
        return {f: getattr(args, f) for f in flags if getattr(args, f, None) is not None}

    model_cfg = replace(model_cfg, **given("d_v", "d_a", "heads", "m_units", "strategy"))
    train_cfg = replace(train_cfg, **given("xe_epochs", "rl_epochs", "batch_size", "lr",
                                           "max_len", "few_shot", "linguistic"))
    validate_run(model_cfg, train_cfg)
    return model_cfg, train_cfg


def _fresh_state(model_cfg: ModelConfig, train_cfg: TrainConfig) -> TrainState:
    return TrainState(CaptionModel(model_cfg, Rng(train_cfg.seed).derive(MODEL_INIT_TAG)),
                      train_cfg)


def _open_run(data_dir: str, checkpoint: str):
    """The corpus, the training state saved at ``checkpoint``, whose
    vocabulary and region feature width must be the corpus's, and the
    corpus's feature synthesizer."""
    corpus = load_corpus(data_dir)
    state, vocab = restore_training(checkpoint)
    if vocab.tokens != corpus.vocab.tokens:
        raise DataError("checkpoint vocabulary does not match the corpus; "
                        "was the model trained on different data?")
    if state.model.cfg.d_r != corpus.spec.d_r:
        raise DataError(f"checkpoint reads {state.model.cfg.d_r}-wide region features, "
                        f"the corpus has {corpus.spec.d_r}-wide ones")
    return corpus, state, FeatureSynthesizer(corpus.spec)


def _freeze_heap() -> None:
    """Exempt everything built so far (corpus, feature tables, model)
    from the cycle collector.  What a training step or a decode builds
    from here on is freed by reference counting, so a full collection
    over these long-lived objects would free nothing."""
    gc.freeze()


def _find_scene(corpus, scene_id: int):
    for scene in corpus.scenes:
        if scene.scene_id == scene_id:
            return scene
    raise DataError(f"scene {scene_id} is not in the corpus")


# -- commands -----------------------------------------------------------------


def cmd_corpus(args) -> int:
    _check_output(args.out, directory=True)
    corpus = generate_corpus(CorpusSpec(n_scenes=args.scenes, seed=_seed_of(args)))
    save_corpus(corpus, args.out)
    _emit({
        "out": args.out,
        "scenes": len(corpus.scenes),
        "captions": len(corpus.examples),
        "vocab": len(corpus.vocab),
        "splits": {name: len(corpus.scenes_in(name)) for name in SPLITS},
    })
    return EXIT_OK


def cmd_train(args) -> int:
    _check_output(args.out)
    if args.resume:
        corpus, state, synth = _open_run(args.data, args.out)
    else:
        corpus = load_corpus(args.data)
        synth = FeatureSynthesizer(corpus.spec)
        state = _fresh_state(*_build_configs(args, corpus))
    _echo_config(state.model.cfg, state.cfg)
    if state.epoch == 0 and state.cfg.xe_epochs + state.cfg.rl_epochs == 0:
        raise ConfigError("a fresh run of 0 epochs writes no checkpoint; give "
                          "--xe-epochs or --rl-epochs of at least 1")
    _freeze_heap()
    train(state, corpus, synth, checkpoint_path=args.out, max_epochs=args.max_epochs,
          log_fn=LOG.info)
    last = state.history[-1] if state.history else {}
    _emit({
        "checkpoint": args.out,
        "epochs_done": state.epoch,
        "val_token_acc": last.get("val_token_acc"),
        "val_ctrl_agree": last.get("val_ctrl_agree"),
    })
    return EXIT_OK


def cmd_eval(args) -> int:
    _check_output(args.out)
    corpus, state, synth = _open_run(args.data, args.checkpoint)
    _echo_config(state.model.cfg, state.cfg)
    _freeze_heap()
    mode = "greedy" if args.greedy else "beam"
    report = evaluate_split(state.model, corpus, synth, args.split,
                            mode=mode, beam_width=args.beam,
                            max_len=args.max_len or state.cfg.max_len)
    report.update(teacher_forced_metrics(state.model, corpus, synth, args.split))
    _emit(report, args.out)
    return EXIT_OK


def cmd_caption(args) -> int:
    corpus, state, synth = _open_run(args.data, args.checkpoint)
    max_len = args.max_len or state.cfg.max_len
    scenes = ([_find_scene(corpus, args.scene)] if args.scene is not None
              else corpus.scenes_in(args.split))
    rng = Rng(_seed_of(args)).derive(313)
    mode = "sample" if args.sample else "greedy" if args.greedy else "beam"
    for scene in scenes:
        words = caption_scene(state.model, synth, scene, corpus.vocab, mode,
                              beam_width=args.beam, max_len=max_len, rng=rng)
        print(f"{scene.scene_id}\t{' '.join(words)}")
    return EXIT_OK


def cmd_trace(args) -> int:
    _check_output(args.out)
    _check_output(args.svg)
    corpus, state, synth = _open_run(args.data, args.checkpoint)
    _echo_config(state.model.cfg, state.cfg)
    scene = _find_scene(corpus, args.scene)
    if args.generated:
        doc = trace_generated(state.model, corpus, synth, scene,
                              max_len=args.max_len or state.cfg.max_len)
    else:
        example = next((e for e in corpus.examples
                        if e.scene_id == scene.scene_id and e.slot == args.slot),
                       None)
        if example is None:
            raise DataError(f"scene {scene.scene_id} has no caption slot {args.slot}")
        doc = trace_example(state.model, corpus, synth, example)
    if args.svg:
        _write_text(args.svg, render_svg(doc, all_units=args.all_units))
    if args.out:
        _write_text(args.out, json.dumps(doc, sort_keys=True, indent=1) + "\n")
        summary = {"kind": doc["kind"], "out": args.out, "steps": len(doc["steps"])}
        if args.svg:
            summary["svg"] = args.svg
        print(json.dumps(summary, sort_keys=True))
    else:
        print(json.dumps(doc, sort_keys=True, indent=1))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    sections = tuple(s.strip() for s in args.sections.split(","))
    unknown = [s for s in sections if s not in SECTIONS]
    if unknown:
        raise ConfigError(f"unknown gradcheck sections {unknown}; "
                          f"choose from {', '.join(SECTIONS)}")
    results = run_battery(sections=sections, seed=_seed_of(args), tol=args.tol)
    failures = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        failures += 0 if r.ok else 1
        print(f"{status} {r.section:<11} {r.name:<44} {r.error:.3e}")
    print(f"{len(results) - failures}/{len(results)} gradient checks passed "
          f"(tolerance {args.tol:g})")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


_ABLATION_FIELDS = ("preset", "bleu1", "bleu2", "bleu3", "bleu4", "cider_d",
                    "token_acc", "ctrl_agree", "recall_adjective", "recall_noun",
                    "recall_preposition", "recall_quantifier", "recall_verb",
                    "runtime_seconds")


def cmd_ablate(args) -> int:
    _check_output(args.out, directory=True)
    presets = [p.strip() for p in args.presets.split(",") if p.strip()]
    if not presets:
        raise ConfigError(f"--presets names no preset: {args.presets!r}")
    corpus = load_corpus(args.data)
    synth = FeatureSynthesizer(corpus.spec)
    rows = []
    for preset in presets:
        run_args = argparse.Namespace(**{**vars(args), "preset": preset})
        state = _fresh_state(*_build_configs(run_args, corpus))
        _echo_config(state.model.cfg, state.cfg)
        _freeze_heap()
        started = time.perf_counter()
        train(state, corpus, synth, log_fn=LOG.info)
        runtime = time.perf_counter() - started
        report = evaluate_split(state.model, corpus, synth, "val",
                                mode="beam", beam_width=args.beam,
                                max_len=state.cfg.max_len)
        forced = teacher_forced_metrics(state.model, corpus, synth, "val")
        row = {
            "preset": preset,
            **{k: report[k] for k in ("bleu1", "bleu2", "bleu3", "bleu4", "cider_d")},
            "token_acc": forced["token_acc"],
            "ctrl_agree": forced["ctrl_agree"],
            "runtime_seconds": round(runtime, 3),
        }
        for name, value in report["pos_recall"].items():
            row[f"recall_{name}"] = value
        rows.append(row)
    rows.sort(key=lambda r: r["preset"])

    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "ablation.csv")
    json_path = os.path.join(args.out, "ablation.json")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_ABLATION_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row[k] is None else row[k])
                             for k in _ABLATION_FIELDS})
    with open(json_path, "w") as fh:
        json.dump({"note": "runtime_seconds is informational and varies "
                           "between runs; every other column is deterministic "
                           "in the seed",
                   "rows": rows}, fh, sort_keys=True, indent=1)
        fh.write("\n")
    _emit({"csv": csv_path, "json": json_path, "presets": [r["preset"] for r in rows]})
    return EXIT_OK


# -- wiring --------------------------------------------------------------------


def _add_seed(p):
    p.add_argument("--seed", type=int, default=None,
                   help="seed (default: CNM_SEED env var, else 0)")


def _add_model_flags(p):
    p.add_argument("--preset", default=None,
                   help="named configuration, e.g. CNM#2 or Col/S+L")
    p.add_argument("--d-v", dest="d_v", type=int, default=None,
                   help="module value width, which is also the decoder units' LSTM "
                        "width: the units stack residually")
    p.add_argument("--d-a", dest="d_a", type=int, default=None)
    p.add_argument("--heads", type=int, default=None)
    p.add_argument("--m-units", dest="m_units", type=int, default=None)
    p.add_argument("--strategy", choices=STRATEGIES, default=None)
    p.add_argument("--linguistic", action=argparse.BooleanOptionalAction,
                   default=None, help="word-class supervision of the controller")


def _add_train_flags(p):
    p.add_argument("--xe-epochs", dest="xe_epochs", type=int, default=None)
    p.add_argument("--rl-epochs", dest="rl_epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--max-len", dest="max_len", type=_count, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="modcap",
                     description="Modular caption models on procedural scenes")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corpus", help="generate a scene corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--scenes", type=_count, default=500)
    _add_seed(p)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--resume", action="store_true",
                   help="continue the run saved at --out with its stored configuration; "
                        "training flags other than --max-epochs are ignored")
    p.add_argument("--few-shot", dest="few_shot", type=_count, default=None,
                   help="cap the gold captions per training scene that the run "
                        "reads, in the cross-entropy epochs and as the self-critical "
                        "references; stored in the checkpoint")
    p.add_argument("--max-epochs", dest="max_epochs", type=_count, default=None,
                   help="stop after this many epochs this invocation")
    _add_model_flags(p)
    _add_train_flags(p)
    _add_seed(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=SPLITS, default="val")
    p.add_argument("--beam", type=_count, default=5)
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--max-len", dest="max_len", type=_count, default=None)
    p.add_argument("--out", default=None, help="also write the report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("caption", help="decode captions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--scene", type=int, default=None)
    p.add_argument("--split", choices=SPLITS, default="val")
    p.add_argument("--beam", type=_count, default=5)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--greedy", action="store_true")
    mode.add_argument("--sample", action="store_true")
    p.add_argument("--max-len", dest="max_len", type=_count, default=None)
    _add_seed(p)
    p.set_defaults(func=cmd_caption)

    p = sub.add_parser("trace", help="record module weights for one caption")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--scene", type=int, required=True)
    p.add_argument("--slot", type=int, default=0, help="gold caption to replay")
    p.add_argument("--generated", action="store_true",
                   help="trace a greedy decode instead of a gold caption")
    p.add_argument("--out", default=None, help="trace JSON path (default stdout)")
    p.add_argument("--svg", default=None, help="also render an SVG here")
    p.add_argument("--all-units", dest="all_units", action="store_true",
                   help="draw every decoder unit, not just the last")
    p.add_argument("--max-len", dest="max_len", type=_count, default=None)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p.add_argument("--sections", default=",".join(SECTIONS))
    p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    _add_seed(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train and score a grid of presets")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="directory for ablation.{csv,json}")
    p.add_argument("--presets", default=DEFAULT_ABLATION)
    p.add_argument("--beam", type=_count, default=5)
    _add_model_flags(p)
    _add_train_flags(p)
    _add_seed(p)
    p.set_defaults(func=cmd_ablate)

    for name in ("train", "eval", "gradcheck"):
        sub.choices[name].add_argument("--debug-finite", dest="debug_finite",
                                       action="store_true",
                                       help="check every stage's output and outgoing gradient "
                                            "for NaN/Inf (exit 3)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    set_debug_checks(getattr(args, "debug_finite", False))
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"modcap: configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusSpecError, DataError, FormatError) as exc:
        print(f"modcap: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingError, FloatingPointError) as exc:
        print(f"modcap: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OutputError as exc:
        print(f"modcap: output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    finally:
        set_debug_checks(False)


if __name__ == "__main__":
    sys.exit(main())
