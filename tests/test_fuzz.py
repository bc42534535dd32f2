"""Damaged checkpoints and corpora through the command line.

Every truncation or flipped byte of a checkpoint's tensor file or of its
meta JSON, or of one of a corpus's four files, either leaves files the
loaders accept or exits 2 with a data error; none ends in a traceback.
The tensor file's sha256 sits in the meta file, so every change to the
tensor file exits 2.
"""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modcap.cli import main as cli_main

EXAMPLES = 200
FUZZ = settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])


def run(argv):
    try:
        return cli_main(argv)
    except SystemExit as ex:
        return int(ex.code or 0)


CORPUS_FILES = ("meta.json", "vocab.json", "scenes.jsonl", "captions.jsonl")


class Saved:
    """A corpus, a checkpoint trained one epoch on it, and the bytes of the
    checkpoint's two files and of the corpus's files."""

    def __init__(self, data, path, meta):
        self.data, self.path, self.meta = data, path, meta
        self.bin_bytes, self.meta_bytes = path.read_bytes(), meta.read_bytes()
        self.corpus_bytes = {name: (data / name).read_bytes() for name in CORPUS_FILES}

    def __repr__(self):
        return f"Saved({self.path})"


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data"
    assert run(["corpus", "--out", str(data), "--scenes", "24", "--seed", "5"]) == 0
    path = root / "model.bin"
    assert run(["train", "--data", str(data), "--out", str(path), "--d-v", "8",
                "--d-a", "4", "--heads", "2", "--xe-epochs", "1", "--rl-epochs", "0",
                "--batch-size", "8", "--seed", "3"]) == 0
    return Saved(data, path, Path(str(path) + ".meta.json"))


def damage(blob: bytes):
    """A truncation or a one-byte flip of ``blob``."""
    n = len(blob)
    truncate = st.integers(0, n - 1).map(lambda k: blob[:k])
    flip = st.tuples(st.integers(0, n - 1), st.integers(1, 255)).map(
        lambda f: blob[:f[0]] + bytes([blob[f[0]] ^ f[1]]) + blob[f[0] + 1:])
    return st.one_of(truncate, flip)


def caption(saved, capsys):
    """Greedy-caption one scene from the damaged checkpoint; returns the exit
    code and stderr."""
    capsys.readouterr()
    code = run(["caption", "--checkpoint", str(saved.path), "--data", str(saved.data),
                "--scene", "0", "--greedy", "--max-len", "4"])
    return code, capsys.readouterr().err


def restore(saved):
    saved.path.write_bytes(saved.bin_bytes)
    saved.meta.write_bytes(saved.meta_bytes)
    for name, blob in saved.corpus_bytes.items():
        (saved.data / name).write_bytes(blob)


def test_undamaged_checkpoint_loads(saved, capsys):
    restore(saved)
    assert caption(saved, capsys)[0] == 0


@FUZZ
@given(data=st.data())
def test_damaged_tensor_file_exits_2(saved, capsys, data):
    restore(saved)
    saved.path.write_bytes(data.draw(damage(saved.bin_bytes)))
    code, err = caption(saved, capsys)
    assert code == 2 and "data error" in err and "Traceback" not in err


@FUZZ
@given(data=st.data())
def test_damaged_meta_exits_2_or_loads(saved, capsys, data):
    restore(saved)
    damaged = data.draw(damage(saved.meta_bytes))
    saved.meta.write_bytes(damaged)
    code, err = caption(saved, capsys)
    assert "Traceback" not in err
    try:
        parsed = json.loads(damaged)
    except ValueError:           # not JSON, or not UTF-8
        parsed = None
    if parsed is None:
        assert code == 2 and "data error" in err
    elif parsed == json.loads(saved.meta_bytes):
        assert code == 0
    else:
        # a changed value the caption command does not use (a history
        # entry, the epoch) still loads
        assert code in (0, 2) and (code == 0 or "data error" in err)


@pytest.mark.parametrize("name", CORPUS_FILES)
@FUZZ
@given(data=st.data())
def test_damaged_corpus_file_exits_2_or_loads(saved, capsys, name, data):
    restore(saved)
    (saved.data / name).write_bytes(data.draw(damage(saved.corpus_bytes[name])))
    code, err = caption(saved, capsys)
    assert "Traceback" not in err
    assert code == 0 or (code == 2 and "data error" in err)
