"""Command line behaviour: exit codes, stdout/stderr contracts, round trips."""

import csv
import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from modcap.cli import main as cli_main

TRAIN_FLAGS = ["--d-v", "8", "--d-a", "4", "--heads", "2",
               "--xe-epochs", "1", "--rl-epochs", "0",
               "--batch-size", "8", "--lr", "3e-3", "--seed", "3"]


def run(argv):
    """main() with argparse's SystemExit folded into a return code."""
    try:
        return cli_main(argv)
    except SystemExit as ex:
        return int(ex.code or 0)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data"
    assert run(["corpus", "--out", str(path), "--scenes", "24", "--seed", "5"]) == 0
    return path


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, data_dir):
    path = tmp_path_factory.mktemp("cli-ckpt") / "model.bin"
    code = run(["train", "--data", str(data_dir), "--out", str(path)] + TRAIN_FLAGS)
    assert code == 0
    return path


# -- exit codes ---------------------------------------------------------------


def test_no_arguments_is_a_usage_error(capsys):
    assert run([]) == 1
    assert "usage:" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error():
    assert run(["frobnicate"]) == 1


def test_unknown_flag_is_a_usage_error():
    assert run(["corpus", "--out", "x", "--wat"]) == 1


@pytest.mark.parametrize("flag,value", [("--k-min", "4"), ("--k-max", "5"), ("--captions", "3"),
                                        ("--noise-sigma", "0.1")])
def test_retired_corpus_flag_is_a_usage_error(tmp_path, capsys, flag, value):
    # the corpus design is fixed: regions per scene, captions per scene and
    # the feature noise are constants
    assert run(["corpus", "--out", str(tmp_path / "c"), flag, value]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("command,flag,value", [
    ("eval", "--beam", "0"), ("caption", "--beam", "-1"), ("ablate", "--beam", "0"),
    ("train", "--max-len", "0"), ("eval", "--max-len", "-3"), ("caption", "--max-len", "0"),
    ("trace", "--max-len", "-1"), ("ablate", "--max-len", "0"),
    ("train", "--few-shot", "0"), ("train", "--max-epochs", "-1"),
    ("corpus", "--scenes", "0")])
def test_count_below_one_is_a_usage_error(data_dir, checkpoint, tmp_path, capsys, command,
                                          flag, value):
    # unchecked, --beam 0 and --few-shot 0 ended in a ValueError traceback,
    # --max-len -3 scored empty captions, --max-epochs -1 exited 0
    # naming a checkpoint it never wrote, and --scenes 0 exited 2
    data = [] if command == "corpus" else ["--data", str(data_dir)]
    opened = {"train": ["--out", str(tmp_path / "m.bin")],
              "ablate": ["--out", str(tmp_path / "abl")],
              "trace": ["--checkpoint", str(checkpoint), "--scene", "0"],
              "corpus": ["--out", str(tmp_path / "c")]}.get(
        command, ["--checkpoint", str(checkpoint)])
    assert run([command, *data, flag, value] + opened) == 1
    captured = capsys.readouterr()
    assert "usage" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_unknown_preset_exits_1(data_dir, tmp_path):
    code = run(["train", "--data", str(data_dir),
                "--out", str(tmp_path / "m.bin"), "--preset", "Nope/Q"])
    assert code == 1


def test_invalid_combination_exits_1(data_dir, tmp_path, capsys):
    code = run(["train", "--data", str(data_dir), "--out", str(tmp_path / "m.bin"),
                "--strategy", "uniform", "--linguistic"])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


def test_missing_data_directory_exits_2(tmp_path):
    assert run(["train", "--data", str(tmp_path / "nope"),
                "--out", str(tmp_path / "m.bin")]) == 2


def test_corrupt_corpus_exits_2(data_dir, tmp_path):
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in ("meta.json", "vocab.json", "scenes.jsonl", "captions.jsonl"):
        (broken / name).write_text((data_dir / name).read_text())
    with open(broken / "scenes.jsonl", "a") as fh:
        fh.write("{not json\n")
    assert run(["train", "--data", str(broken), "--out", str(tmp_path / "m.bin")]) == 2


def _drop(path):
    path.unlink()


def _replace_first_line(path, edit):
    lines = path.read_text().splitlines()
    lines[0] = json.dumps(edit(json.loads(lines[0])))
    path.write_text("\n".join(lines) + "\n")


def _region_x(rec):
    rec["regions"][0]["x"] = "abc"
    return rec


def _not_utf8(path):
    path.write_bytes(b"\xff\xfe" + path.read_bytes())


def _spec_n_scenes_a_string(path):
    meta = json.loads(path.read_text())
    meta["spec"]["n_scenes"] = "x"
    path.write_text(json.dumps(meta))


def _empty_train_scene(path):
    # a scene the training epochs read; without regions it has no relations
    lines = path.read_text().splitlines()
    at = next(n for n, line in enumerate(lines) if json.loads(line)["split"] == "train")
    rec = json.loads(lines[at])
    rec["regions"], rec["relations"] = [], []
    lines[at] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


def _uncaptioned_train_scene(path):
    # the self-critical epochs feed a scene its first caption
    scenes = [json.loads(line) for line in (path / "scenes.jsonl").read_text().splitlines()]
    sid = next(rec["id"] for rec in scenes if rec["split"] == "train")
    captions = path / "captions.jsonl"
    captions.write_text("".join(line + "\n" for line in captions.read_text().splitlines()
                                if json.loads(line)["scene"] != sid))


@pytest.mark.parametrize("damage", [
    lambda d: _drop(d / "vocab.json"),
    lambda d: (d / "vocab.json").write_text("[1, 2]"),
    lambda d: (d / "meta.json").write_text("[1]"),
    lambda d: _replace_first_line(d / "scenes.jsonl", _region_x),
    lambda d: _replace_first_line(d / "captions.jsonl", lambda rec: [1]),
    lambda d: _not_utf8(d / "scenes.jsonl"),
    lambda d: _spec_n_scenes_a_string(d / "meta.json"),
    lambda d: _empty_train_scene(d / "scenes.jsonl"),
    _uncaptioned_train_scene,
], ids=["vocab_missing", "vocab_a_list", "meta_a_list", "region_x_a_string",
        "caption_a_list", "scenes_not_utf8", "spec_n_scenes_a_string",
        "train_scene_without_regions", "train_scene_without_captions"])
def test_damaged_corpus_exits_2(data_dir, tmp_path, capsys, damage):
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in ("meta.json", "vocab.json", "scenes.jsonl", "captions.jsonl"):
        (broken / name).write_text((data_dir / name).read_text())
    damage(broken)
    assert_data_error(["train", "--data", str(broken), "--out", str(tmp_path / "m.bin")],
                      capsys)


def test_retired_corpus_setting_off_its_value_exits_2(data_dir, checkpoint, tmp_path,
                                                      capsys):
    # a corpus meta saved while k_min was a setting stores it; only the
    # fixed value 3 loads
    edited = tmp_path / "data"
    edited.mkdir()
    for name in ("vocab.json", "scenes.jsonl", "captions.jsonl"):
        (edited / name).write_bytes((data_dir / name).read_bytes())
    meta = json.loads((data_dir / "meta.json").read_text())
    meta["spec"]["k_min"] = 4
    (edited / "meta.json").write_text(json.dumps(meta))
    assert run(["eval", "--checkpoint", str(checkpoint), "--data", str(edited)]) == 2
    captured = capsys.readouterr()
    assert "data error" in captured.err and "k_min" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_meta_scene_count_off_the_scenes_exits_2(data_dir, checkpoint, tmp_path, capsys):
    # the 24-scene corpus with a meta that names 999 scenes of another seed
    edited = tmp_path / "data"
    edited.mkdir()
    for name in ("vocab.json", "scenes.jsonl", "captions.jsonl"):
        (edited / name).write_bytes((data_dir / name).read_bytes())
    meta = json.loads((data_dir / "meta.json").read_text())
    meta["spec"].update(n_scenes=999, seed=4)
    (edited / "meta.json").write_text(json.dumps(meta))
    assert run(["eval", "--checkpoint", str(checkpoint), "--data", str(edited)]) == 2
    captured = capsys.readouterr()
    assert "data error" in captured.err and "999" in captured.err and "24" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_missing_scene_exits_2(data_dir, checkpoint):
    assert run(["caption", "--checkpoint", str(checkpoint),
                "--data", str(data_dir), "--scene", "99999"]) == 2


def copy_checkpoint(checkpoint, tmp_path) -> Path:
    path = tmp_path / "model.bin"
    path.write_bytes(checkpoint.read_bytes())
    Path(str(path) + ".meta.json").write_text(
        Path(str(checkpoint) + ".meta.json").read_text())
    return path


def edit_meta(path, edit) -> None:
    meta_file = Path(str(path) + ".meta.json")
    meta = json.loads(meta_file.read_text())
    edit(meta)
    meta_file.write_text(json.dumps(meta))


def assert_data_error(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err


def test_unknown_model_field_exits_2(data_dir, checkpoint, tmp_path, capsys):
    path = copy_checkpoint(checkpoint, tmp_path)
    edit_meta(path, lambda meta: meta["model"].update(bogus=1))
    assert_data_error(["eval", "--checkpoint", str(path), "--data", str(data_dir)], capsys)


def test_missing_adam_step_exits_2(data_dir, checkpoint, tmp_path, capsys):
    path = copy_checkpoint(checkpoint, tmp_path)
    edit_meta(path, lambda meta: meta["adam_t"].pop(sorted(meta["adam_t"])[0]))
    assert_data_error(["eval", "--checkpoint", str(path), "--data", str(data_dir)], capsys)


def rewrite_checkpoint(path, edit) -> None:
    """Load the checkpoint at ``path``, let ``edit(tensors, adam_t)`` change
    its entries and step counts, and write it back with the new file's
    sha256 in its meta."""
    from modcap.training import CKPT_MAGIC, CKPT_VERSION, load_checkpoint

    tensors, meta = load_checkpoint(str(path))
    edit(tensors, meta["adam_t"])
    blob = bytearray(CKPT_MAGIC) + struct.pack("<II", CKPT_VERSION, len(tensors))
    for name, a in tensors.items():
        key = name.encode("utf-8")
        blob += struct.pack("<I", len(key)) + key + struct.pack("<I", a.ndim)
        blob += struct.pack(f"<{a.ndim}I", *a.shape) + a.astype("<f4").tobytes()
    path.write_bytes(bytes(blob))
    meta["bin_sha256"] = hashlib.sha256(blob).hexdigest()
    Path(str(path) + ".meta.json").write_text(json.dumps(meta))


UNPAIRED_ADAM = {
    "m_without_v": lambda tensors, steps: tensors.pop("adam.v.embed.W"),
    "v_without_m": lambda tensors, steps: tensors.pop("adam.m.embed.W"),
    "moments_without_step": lambda tensors, steps: steps.pop("embed.W"),
    "step_without_moments": lambda tensors, steps: (tensors.pop("adam.m.embed.W"),
                                                    tensors.pop("adam.v.embed.W")),
    "moments_of_no_parameter": lambda tensors, steps: (
        tensors.update({"adam.m.nope": tensors["adam.m.embed.W"],
                        "adam.v.nope": tensors["adam.v.embed.W"]}),
        steps.update(nope=1)),
    "step_of_no_parameter": lambda tensors, steps: steps.update(nope=1),
    "stray_adam_entry": lambda tensors, steps: tensors.update(
        {"adam.q.embed.W": tensors["adam.m.embed.W"]}),
}


@pytest.mark.parametrize("case", UNPAIRED_ADAM)
def test_unpaired_adam_state_exits_2(data_dir, checkpoint, tmp_path, capsys, case):
    # unchecked, all but moments_without_step loaded silently: a resume
    # restarted a parameter's bias correction, or ignored the entry
    path = copy_checkpoint(checkpoint, tmp_path)
    rewrite_checkpoint(path, lambda tensors, steps: None)
    assert path.read_bytes() == checkpoint.read_bytes()     # the rewrite alone is exact
    rewrite_checkpoint(path, UNPAIRED_ADAM[case])
    assert_data_error(["eval", "--checkpoint", str(path), "--data", str(data_dir)], capsys)


def test_negative_width_in_meta_exits_2(data_dir, checkpoint, tmp_path, capsys):
    path = copy_checkpoint(checkpoint, tmp_path)
    edit_meta(path, lambda meta: meta["model"].update(d_v=-4))
    assert_data_error(["eval", "--checkpoint", str(path), "--data", str(data_dir)], capsys)


def test_mis_shaped_adam_moment_exits_2(data_dir, checkpoint, tmp_path, capsys):
    from modcap.training import restore_training, save_checkpoint

    path = copy_checkpoint(checkpoint, tmp_path)
    state, vocab = restore_training(str(path))
    state.opt.state[sorted(state.opt.state)[0]].m = np.zeros(3, dtype=np.float32)
    # the save records the rewritten tensor file's sha256; epoch 0 makes the
    # resume run an update, where the moment would otherwise first be used
    state.epoch, state.history = 0, []
    save_checkpoint(str(path), state, vocab)
    assert_data_error(["train", "--data", str(data_dir), "--out", str(path), "--resume"],
                      capsys)


@pytest.mark.parametrize("step", [-1, 2.5, "3"])
def test_bad_adam_step_exits_2(data_dir, checkpoint, tmp_path, capsys, step):
    path = copy_checkpoint(checkpoint, tmp_path)
    edit_meta(path, lambda meta: meta["adam_t"].update({sorted(meta["adam_t"])[0]: step}))
    assert_data_error(["eval", "--checkpoint", str(path), "--data", str(data_dir)], capsys)


@pytest.mark.parametrize("field,value", [
    ("rng", "abc"), ("rng", []), ("rng", 5), ("rng", [2**64, None]), ("rng", [-1, None]),
    ("rng", [True, None]), ("rng", [7, "0.5"]), ("epoch", "abc"), ("epoch", -3),
    ("epoch", 1.7), ("epoch", True), ("history", 5)])
def test_malformed_resume_state_exits_2(data_dir, checkpoint, tmp_path, capsys, field,
                                        value):
    # unchecked, these ended in a ValueError, IndexError or TypeError
    # traceback, or loaded silently (a negative or fractional epoch)
    path = copy_checkpoint(checkpoint, tmp_path)
    edit_meta(path, lambda meta: meta.update({field: value}))
    assert_data_error(["caption", "--checkpoint", str(path), "--data", str(data_dir),
                       "--greedy"], capsys)
    assert_data_error(["train", "--data", str(data_dir), "--out", str(path), "--resume"],
                      capsys)


def test_checkpoint_of_another_vocabulary_exits_2(data_dir, checkpoint, tmp_path, capsys):
    # the same words under other ids: the corpus loads, but the checkpoint's
    # embedding and word head rows would name the wrong words
    swapped = tmp_path / "swapped"
    swapped.mkdir()
    for name in ("meta.json", "scenes.jsonl", "captions.jsonl"):
        (swapped / name).write_text((data_dir / name).read_text())
    vocab = json.loads((data_dir / "vocab.json").read_text())
    tokens = vocab["tokens"]
    tokens[4], tokens[5] = tokens[5], tokens[4]
    (swapped / "vocab.json").write_text(json.dumps(vocab))
    scene_id = json.loads((data_dir / "scenes.jsonl").read_text().splitlines()[0])["id"]
    path = copy_checkpoint(checkpoint, tmp_path)
    opened = ["--checkpoint", str(path), "--data", str(swapped)]
    for argv in (["eval"] + opened, ["caption", "--greedy"] + opened,
                 ["trace", "--scene", str(scene_id)] + opened,
                 ["train", "--data", str(swapped), "--out", str(path), "--resume"]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "data error: checkpoint vocabulary does not match the corpus" in err
        assert "Traceback" not in err
    assert path.read_bytes() == checkpoint.read_bytes()


def test_caption_greedy_and_sample_together_is_a_usage_error(data_dir, checkpoint, capsys):
    assert run(["caption", "--checkpoint", str(checkpoint), "--data", str(data_dir),
                "--greedy", "--sample"]) == 1
    captured = capsys.readouterr()
    assert "not allowed with argument" in captured.err
    assert captured.out == ""


def test_adam_steps_not_a_mapping_exit_2(data_dir, checkpoint, tmp_path, capsys):
    path = copy_checkpoint(checkpoint, tmp_path)
    edit_meta(path, lambda meta: meta.update(adam_t=sorted(meta["adam_t"])))
    assert_data_error(["eval", "--checkpoint", str(path), "--data", str(data_dir)], capsys)


@pytest.mark.parametrize("field,value", [("decay_every", 0), ("grad_clip", -5.0),
                                         ("lambda_xe", -1.0), ("lambda_rl", -0.5)])
def test_invalid_training_setting_in_meta_exits_2(data_dir, checkpoint, tmp_path, capsys,
                                                  field, value):
    # epoch 0 leaves the resumed run an epoch to train: unchecked, decay_every 0
    # ended in a ZeroDivisionError and a negative grad_clip trained uphill
    path = copy_checkpoint(checkpoint, tmp_path)
    edit_meta(path, lambda meta: (meta["train"].update({field: value}),
                                  meta.update(epoch=0)))
    assert_data_error(["train", "--data", str(data_dir), "--out", str(path), "--resume"],
                      capsys)


def test_non_finite_gradient_exits_3_naming_the_parameter(data_dir, tmp_path, capsys,
                                                          monkeypatch):
    import modcap.training
    real_clip = modcap.training.clip_global_norm

    def poisoning_clip(arena, max_norm):
        arena.grads[arena.names.index("head.W")][0, 0] = np.nan
        return real_clip(arena, max_norm)

    monkeypatch.setattr(modcap.training, "clip_global_norm", poisoning_clip)
    path = tmp_path / "m.bin"
    assert run(["train", "--data", str(data_dir), "--out", str(path)] + TRAIN_FLAGS) == 3
    err = capsys.readouterr().err
    assert "'head.W'" in err and "Traceback" not in err
    assert not path.exists()


def nan_checkpoint(checkpoint, tmp_path) -> Path:
    """A copy of the checkpoint with a NaN in ``unit1.lstm2.W``."""
    from modcap.training import restore_training, save_checkpoint

    path = copy_checkpoint(checkpoint, tmp_path)
    state, vocab = restore_training(str(path))
    weight = state.model.named_parameters()["unit1.lstm2.W"].data.copy()
    weight[0, 0] = np.nan
    state.model.arena.assign({"unit1.lstm2.W": weight})
    save_checkpoint(str(path), state, vocab)
    return path


def test_debug_finite_eval_names_the_op(data_dir, checkpoint, tmp_path, capsys):
    import modcap.tensor

    path = nan_checkpoint(checkpoint, tmp_path)
    capsys.readouterr()
    assert run(["eval", "--checkpoint", str(path), "--data", str(data_dir),
                "--debug-finite"]) == 3
    err = capsys.readouterr().err
    assert "numeric error: unit_kernel produced a non-finite value" in err
    assert "Traceback" not in err
    assert modcap.tensor._debug_finite is False     # the flag lasts one command


@pytest.mark.parametrize("command", [["eval"], ["eval", "--greedy"], ["caption"],
                                     ["caption", "--greedy"]])
def test_nan_checkpoint_exits_3_naming_the_decode_step(data_dir, checkpoint, tmp_path,
                                                       capsys, command):
    # without --debug-finite every word distribution is NaN: the decoders
    # stop at the first step instead of returning no beam or argmaxing
    # NaN rows to token 0
    path = nan_checkpoint(checkpoint, tmp_path)
    capsys.readouterr()
    assert run(command + ["--checkpoint", str(path), "--data", str(data_dir)]) == 3
    err = capsys.readouterr().err
    assert "numeric error: non-finite word distribution at decode step 0" in err
    assert "Traceback" not in err


def test_failed_save_keeps_the_previous_checkpoint(data_dir, checkpoint, tmp_path, capsys):
    from modcap.training import restore_training, save_checkpoint

    path = copy_checkpoint(checkpoint, tmp_path)
    before = path.read_bytes()
    state, vocab = restore_training(str(path))
    # the last tensor cannot be converted, so the save fails
    state.opt.state[sorted(state.opt.state)[-1]].v = np.array(["not a number"], dtype=object)
    state.epoch += 1
    with pytest.raises(ValueError):
        save_checkpoint(str(path), state, vocab)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin", "model.bin.meta.json"]
    assert run(["eval", "--checkpoint", str(path), "--data", str(data_dir),
                "--greedy"]) == 0


# -- seeds and configuration echo ----------------------------------------------


def echoed_config(capsys):
    err = capsys.readouterr().err
    return json.loads(next(line for line in err.splitlines()
                           if line.startswith("{")))


def test_seed_flag_lands_in_the_echo(data_dir, tmp_path, capsys):
    run(["train", "--data", str(data_dir), "--out", str(tmp_path / "m.bin"),
         "--seed", "42", "--xe-epochs", "0", "--rl-epochs", "0",
         "--d-v", "8", "--d-a", "4"])
    assert echoed_config(capsys)["train"]["seed"] == 42


def test_cnm_seed_env_is_the_fallback(data_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CNM_SEED", "77")
    run(["train", "--data", str(data_dir), "--out", str(tmp_path / "m.bin"),
         "--xe-epochs", "0", "--rl-epochs", "0", "--d-v", "8", "--d-a", "4"])
    assert echoed_config(capsys)["train"]["seed"] == 77


def test_explicit_seed_beats_the_env(data_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CNM_SEED", "77")
    run(["train", "--data", str(data_dir), "--out", str(tmp_path / "m.bin"),
         "--seed", "5", "--xe-epochs", "0", "--rl-epochs", "0",
         "--d-v", "8", "--d-a", "4"])
    assert echoed_config(capsys)["train"]["seed"] == 5


def test_malformed_cnm_seed_exits_1(tmp_path, monkeypatch):
    monkeypatch.setenv("CNM_SEED", "not-a-number")
    assert run(["corpus", "--out", str(tmp_path / "c")]) == 1


def test_preset_flags_override_order(data_dir, tmp_path, capsys):
    run(["train", "--data", str(data_dir), "--out", str(tmp_path / "m.bin"),
         "--preset", "Col/H", "--m-units", "3",
         "--xe-epochs", "0", "--rl-epochs", "0", "--d-v", "8", "--d-a", "4"])
    doc = echoed_config(capsys)
    assert doc["model"]["strategy"] == "hard"
    assert doc["model"]["m_units"] == 3


# -- the subcommands, end to end ------------------------------------------------


def test_corpus_reports_split_sizes(tmp_path, capsys):
    assert run(["corpus", "--out", str(tmp_path / "c"), "--scenes", "20"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenes"] == 20
    assert doc["splits"]["train"] + doc["splits"]["val"] + doc["splits"]["test"] == 20


@pytest.mark.parametrize("scenes,split", [(3, "val"), (1, "train")])
@pytest.mark.parametrize("command", ["train", "ablate"])
def test_an_empty_split_exits_2_before_any_epoch(tmp_path, capsys, monkeypatch, command,
                                                 scenes, split):
    # 3 scenes split 2/0/1 and 1 scene 0/0/1; unchecked, training ended in a
    # ZeroDivisionError traceback
    import modcap.training

    epochs = []
    monkeypatch.setattr(modcap.training, "run_xe_epoch", lambda *args: epochs.append(args))
    data = tmp_path / "data"
    assert run(["corpus", "--out", str(data), "--scenes", str(scenes), "--seed", "1"]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    presets = ["--presets", "Col/S"] if command == "ablate" else []
    assert run([command, "--data", str(data), "--out", str(out)] + presets + TRAIN_FLAGS) == 2
    err = capsys.readouterr().err
    assert f"data error: the corpus has no {split} scenes" in err and "Traceback" not in err
    assert epochs == [] and not out.exists()


def test_eval_of_an_empty_split_exits_2_before_decoding(tmp_path, capsys):
    # unchecked, a ValueError traceback from the metrics, after decoding
    from modcap.config import ModelConfig, TrainConfig
    from modcap.corpus import load_corpus
    from modcap.decoder import CaptionModel
    from modcap.tensor import Rng
    from modcap.training import TrainState, save_checkpoint

    data = tmp_path / "data"
    assert run(["corpus", "--out", str(data), "--scenes", "3", "--seed", "1"]) == 0
    corpus = load_corpus(str(data))
    model = CaptionModel(ModelConfig(vocab_size=len(corpus.vocab), d_r=corpus.spec.d_r,
                                     d_v=8, d_a=4, heads=2), Rng(0))
    path = tmp_path / "m.bin"
    save_checkpoint(str(path), TrainState(model, TrainConfig()), corpus.vocab)
    capsys.readouterr()
    assert_data_error(["eval", "--checkpoint", str(path), "--data", str(data)], capsys)
    assert run(["eval", "--checkpoint", str(path), "--data", str(data), "--split", "val",
                "--greedy"]) == 2
    assert "the corpus has no val scenes" in capsys.readouterr().err
    assert run(["eval", "--checkpoint", str(path), "--data", str(data), "--split", "test",
                "--beam", "2", "--max-len", "4"]) == 0


def test_train_writes_checkpoint_and_summary(checkpoint, capsys):
    assert checkpoint.exists()
    assert Path(str(checkpoint) + ".meta.json").exists()


def test_few_shot_resume_equals_the_uninterrupted_run(data_dir, tmp_path):
    # the cap is part of the stored configuration; a resume that lost it
    # trained its remaining epochs on every caption
    flags = ["--data", str(data_dir), "--few-shot", "1"] + TRAIN_FLAGS + ["--xe-epochs", "3"]
    straight, split = tmp_path / "straight.bin", tmp_path / "split.bin"
    assert run(["train", "--out", str(straight)] + flags) == 0
    assert run(["train", "--out", str(split), "--max-epochs", "1"] + flags) == 0
    assert run(["train", "--data", str(data_dir), "--out", str(split), "--resume"]) == 0
    for suffix in ("", ".meta.json"):
        assert (Path(str(split) + suffix).read_bytes()
                == Path(str(straight) + suffix).read_bytes())
    assert json.loads(Path(str(split) + ".meta.json").read_text())["train"]["few_shot"] == 1


def test_few_shot_self_critical_resume_equals_the_uninterrupted_run(data_dir, tmp_path):
    flags = (["--data", str(data_dir), "--few-shot", "1"] + TRAIN_FLAGS
             + ["--xe-epochs", "2", "--rl-epochs", "1"])
    straight, split = tmp_path / "straight.bin", tmp_path / "split.bin"
    assert run(["train", "--out", str(straight)] + flags) == 0
    assert run(["train", "--out", str(split), "--max-epochs", "2"] + flags) == 0
    assert run(["train", "--data", str(data_dir), "--out", str(split), "--resume"]) == 0
    for suffix in ("", ".meta.json"):
        assert (Path(str(split) + suffix).read_bytes()
                == Path(str(straight) + suffix).read_bytes())


RETIRED = {"model": {"d_c": 8, "leaky_slope": 0.01},
           "train": {"lambda_xe": 1.0, "lambda_rl": 0.5, "rl_lr_scale": 0.1,
                     "lr_decay": 0.8, "decay_every": 5, "grad_clip": 5.0}}


def test_meta_with_retired_settings_resumes_to_the_uninterrupted_bytes(data_dir,
                                                                        tmp_path):
    # a version-1 meta written before these settings were fixed stores them
    # (d_c equal to --d-v 8)
    flags = ["--data", str(data_dir)] + TRAIN_FLAGS + ["--xe-epochs", "2"]
    straight, split = tmp_path / "straight.bin", tmp_path / "split.bin"
    assert run(["train", "--out", str(straight)] + flags) == 0
    assert run(["train", "--out", str(split), "--max-epochs", "1"] + flags) == 0
    edit_meta(split, lambda meta: [meta[block].update(keys)
                                   for block, keys in RETIRED.items()])
    assert run(["train", "--data", str(data_dir), "--out", str(split), "--resume"]) == 0
    for suffix in ("", ".meta.json"):
        assert (Path(str(split) + suffix).read_bytes()
                == Path(str(straight) + suffix).read_bytes())
    meta = json.loads(Path(str(split) + ".meta.json").read_text())
    assert not set(RETIRED["model"]) & set(meta["model"])
    assert not set(RETIRED["train"]) & set(meta["train"])


@pytest.mark.parametrize("block,key,value", [
    ("model", "d_c", 16), ("model", "leaky_slope", 0.1), ("train", "lambda_xe", 2.0),
    ("train", "decay_every", 5.5)])
def test_retired_setting_off_its_value_exits_2(data_dir, checkpoint, tmp_path, capsys, block,
                                               key, value):
    path = copy_checkpoint(checkpoint, tmp_path)
    edit_meta(path, lambda meta: meta[block].update({key: value}))
    for argv in (["eval", "--checkpoint", str(path), "--data", str(data_dir)],
                 ["train", "--data", str(data_dir), "--out", str(path), "--resume"]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"data error: checkpoint metadata holds an invalid configuration: {key} " in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def narrow_data_dir(tmp_path_factory):
    """The ``data_dir`` corpus with 32-wide region features."""
    from modcap.corpus import CorpusSpec, generate_corpus, save_corpus

    path = tmp_path_factory.mktemp("cli-narrow") / "data"
    save_corpus(generate_corpus(CorpusSpec(n_scenes=24, seed=5, d_r=32)), str(path))
    return path


def test_corpus_of_another_feature_width_trains_and_evals(narrow_data_dir, tmp_path,
                                                          capsys):
    # the model took the default width 64: training ended in a ShapeError
    # traceback
    path = tmp_path / "narrow.bin"
    assert run(["train", "--data", str(narrow_data_dir), "--out", str(path)]
               + TRAIN_FLAGS) == 0
    assert json.loads(Path(str(path) + ".meta.json").read_text())["model"]["d_r"] == 32
    capsys.readouterr()
    assert run(["eval", "--checkpoint", str(path), "--data", str(narrow_data_dir)]) == 0
    assert json.loads(capsys.readouterr().out)["split"] == "val"


def test_checkpoint_of_another_feature_width_exits_2(data_dir, narrow_data_dir, checkpoint,
                                                     capsys):
    # the same vocabulary, so only the width tells the corpora apart; the
    # decode ended in a ShapeError traceback
    opened = ["--checkpoint", str(checkpoint), "--data", str(narrow_data_dir)]
    for argv in (["eval"] + opened, ["caption", "--greedy"] + opened,
                 ["trace", "--scene", "0"] + opened):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert ("data error: checkpoint reads 64-wide region features, the corpus has "
                "32-wide ones") in err
        assert "Traceback" not in err


def test_eval_reports_metrics(data_dir, checkpoint, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["eval", "--checkpoint", str(checkpoint), "--data", str(data_dir),
                "--split", "val", "--beam", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    for key in ("bleu1", "bleu4", "cider_d", "pos_recall", "token_acc"):
        assert key in doc
    assert json.loads(out.read_text()) == doc


def test_eval_greedy_mode(data_dir, checkpoint, capsys):
    code = run(["eval", "--checkpoint", str(checkpoint), "--data", str(data_dir),
                "--split", "val", "--greedy"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["decode"]["mode"] == "greedy"


def test_caption_prints_one_line_per_scene(data_dir, checkpoint, capsys):
    code = run(["caption", "--checkpoint", str(checkpoint), "--data", str(data_dir),
                "--split", "val", "--greedy"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # 24 scenes split 80/10/10 leaves 2 in val
    for line in lines:
        scene_id, caption = line.split("\t")
        assert scene_id.isdigit()
        assert caption


def test_caption_sampling_is_seeded(data_dir, checkpoint, capsys):
    argv = ["caption", "--checkpoint", str(checkpoint), "--data", str(data_dir),
            "--split", "val", "--sample", "--seed", "9"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_trace_writes_json_and_svg(data_dir, checkpoint, tmp_path, capsys):
    out, svg = tmp_path / "t.json", tmp_path / "t.svg"
    scene_id = json.loads((data_dir / "scenes.jsonl").read_text()
                          .splitlines()[0])["id"]
    code = run(["trace", "--checkpoint", str(checkpoint), "--data", str(data_dir),
                "--scene", str(scene_id), "--out", str(out), "--svg", str(svg)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "teacher_forced"
    assert doc["scene_id"] == scene_id
    assert svg.read_text().startswith("<svg")
    summary = json.loads(capsys.readouterr().out)
    assert summary["steps"] == len(doc["steps"])


def test_trace_generated_mode(data_dir, checkpoint, capsys):
    scene_id = json.loads((data_dir / "scenes.jsonl").read_text()
                          .splitlines()[0])["id"]
    code = run(["trace", "--checkpoint", str(checkpoint), "--data", str(data_dir),
                "--scene", str(scene_id), "--generated", "--max-len", "6"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "generated"
    assert len(doc["steps"]) <= 6


def test_gradcheck_prints_a_line_per_case(capsys):
    assert run(["gradcheck", "--sections", "primitives"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 30
    assert "FAIL" not in out


def test_gradcheck_unknown_section_exits_1():
    assert run(["gradcheck", "--sections", "nonsense"]) == 1


def test_gradcheck_failures_exit_3(capsys):
    assert run(["gradcheck", "--sections", "primitives", "--tol", "1e-15"]) == 3
    assert "FAIL" in capsys.readouterr().out


def ablation_rows(out_dir):
    with open(out_dir / "ablation.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_ablate_writes_csv_and_json(data_dir, tmp_path, capsys):
    out = tmp_path / "abl"
    code = run(["ablate", "--data", str(data_dir), "--out", str(out),
                "--presets", "Col/S,Col/1", "--beam", "2"] + TRAIN_FLAGS)
    assert code == 0
    rows = ablation_rows(out)
    assert [r["preset"] for r in rows] == ["Col/1", "Col/S"]  # sorted
    doc = json.loads((out / "ablation.json").read_text())
    assert [r["preset"] for r in doc["rows"]] == ["Col/1", "Col/S"]
    for row in rows:
        assert row["runtime_seconds"]  # present, value not asserted


def test_ablate_is_deterministic_apart_from_runtime(data_dir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["ablate", "--data", str(data_dir), "--out", str(out),
                    "--presets", "Col/1,Module/O", "--beam", "2"] + TRAIN_FLAGS) == 0
        rows = ablation_rows(out)
        for row in rows:
            row.pop("runtime_seconds")
        outs.append(rows)
    assert outs[0] == outs[1]
