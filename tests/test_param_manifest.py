"""Parameter manifest of every preset: names, shapes and initial bytes.

A checkpoint stores parameters by name, so renaming or reshaping one
breaks loading of existing files; the initial bytes also pin the order
in which the model draws its initial weights from the seeded stream.
The expected manifest lives in param_manifest.json; after a deliberate
change to the model, regenerate it with

    PYTHONPATH=src python tests/test_param_manifest.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from modcap.config import PRESET_GRID, ModelConfig, TrainConfig, apply_preset
from modcap.decoder import CaptionModel
from modcap.tensor import Rng
from modcap.training import MODEL_INIT_TAG

MANIFEST = Path(__file__).with_name("param_manifest.json")
VOCAB_SIZE = 12


def manifest(preset: str) -> dict:
    model_cfg, _ = apply_preset(preset, ModelConfig(vocab_size=VOCAB_SIZE), TrainConfig())
    params = CaptionModel(model_cfg, Rng(0).derive(MODEL_INIT_TAG)).named_parameters()
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(params[name].data.tobytes())
    return {"params": [[name, list(params[name].shape)] for name in sorted(params)],
            "sha256": digest.hexdigest()}


@pytest.fixture(scope="module")
def expected():
    return json.loads(MANIFEST.read_text())


def test_manifest_covers_the_preset_grid(expected):
    assert sorted(expected) == sorted(PRESET_GRID)


@pytest.mark.parametrize("preset", PRESET_GRID)
def test_names_shapes_and_initial_bytes(preset, expected):
    got = manifest(preset)
    assert got["params"] == expected[preset]["params"]
    assert got["sha256"] == expected[preset]["sha256"]


if __name__ == "__main__":
    blocks = []
    for preset in sorted(PRESET_GRID):
        got = manifest(preset)
        rows = ",\n".join(f"   {json.dumps(row)}" for row in got["params"])
        blocks.append(f' {json.dumps(preset)}: {{\n  "params": [\n{rows}\n  ],\n'
                      f'  "sha256": {json.dumps(got["sha256"])}\n }}')
    MANIFEST.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
