"""Trace documents and their SVG rendering."""

import json
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import pytest

from modcap.config import ModelConfig, TrainConfig, apply_preset
from modcap.corpus import CorpusSpec, FeatureSynthesizer, generate_corpus
from modcap.decoder import CaptionModel, greedy_decode, strip_sequence
from modcap.tensor import Rng
from modcap.trace import (
    MODULE_COLORS,
    MODULE_ORDER,
    render_svg,
    trace_example,
    trace_generated,
)
from reference import no_grad, reference_forced

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "trace.schema.json").read_text())


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusSpec(n_scenes=12, seed=3))


@pytest.fixture(scope="module")
def synth(corpus):
    return FeatureSynthesizer(corpus.spec)


def make_model(corpus, **over):
    kwargs = dict(vocab_size=len(corpus.vocab), d_v=8, d_a=4,
                  heads=2, m_units=2)
    kwargs.update(over)
    return CaptionModel(ModelConfig(**kwargs), Rng(11))


@pytest.fixture(scope="module")
def model(corpus):
    return make_model(corpus)


@pytest.fixture(scope="module")
def forced_doc(model, corpus, synth):
    return trace_example(model, corpus, synth, corpus.examples[0])


def test_teacher_forced_doc_matches_schema(forced_doc):
    jsonschema.validate(forced_doc, SCHEMA)


def test_generated_doc_matches_schema(model, corpus, synth):
    doc = trace_generated(model, corpus, synth, corpus.scenes[0], max_len=8)
    jsonschema.validate(doc, SCHEMA)
    assert doc["kind"] == "generated"
    assert doc["slot"] is None
    assert all(s["target_token"] is None for s in doc["steps"])
    assert all(s["target_label"] is None for s in doc["steps"])


def test_forced_doc_covers_every_caption_step(forced_doc, corpus):
    example = corpus.examples[0]
    assert forced_doc["kind"] == "teacher_forced"
    assert forced_doc["scene_id"] == example.scene_id
    assert forced_doc["words"] == example.words
    # One step per predicted position: the words plus the end token.
    assert len(forced_doc["steps"]) == len(example.words) + 1
    assert forced_doc["steps"][0]["input_token"] == "<bos>"
    assert forced_doc["steps"][-1]["target_token"] == "<eos>"
    for t, step in enumerate(forced_doc["steps"]):
        assert step["t"] == t
        assert len(step["units"]) == forced_doc["m_units"]


def test_forced_doc_weights_are_distributions(forced_doc):
    for step in forced_doc["steps"]:
        for unit in step["units"]:
            assert abs(sum(unit["weights"]) - 1.0) < 1e-5
            assert abs(sum(unit["soft"]) - 1.0) < 1e-5
            for alpha in unit["alphas"].values():
                assert abs(sum(alpha) - 1.0) < 1e-5


def test_alphas_keyed_by_attended_module(forced_doc):
    for step in forced_doc["steps"]:
        for unit in step["units"]:
            assert sorted(unit["alphas"]) == ["attribute", "object", "relation"]


def test_single_module_trace_has_null_weights(corpus, synth):
    model = make_model(corpus, modules=("object",), m_units=1)
    doc = trace_example(model, corpus, synth, corpus.examples[0])
    jsonschema.validate(doc, SCHEMA)
    assert doc["modules"] == ["object"]
    for step in doc["steps"]:
        unit = step["units"][0]
        assert unit["weights"] is None
        assert unit["soft"] is None
        assert list(unit["alphas"]) == ["object"]


def preset_model(corpus, preset):
    model_cfg, _ = apply_preset(preset, ModelConfig(vocab_size=len(corpus.vocab), d_v=8,
                                                    d_a=4, heads=2),
                                TrainConfig())
    return CaptionModel(model_cfg, Rng(11))


def reference_units(model, corpus, synth, doc):
    """The unit entries of every step of ``doc`` as the op-composed step
    chain (``reference.reference_forced``) computes them on the document's
    input tokens, without selection noise."""
    scene = next(s for s in corpus.scenes if s.scene_id == doc["scene_id"])
    inputs = [[corpus.vocab.index[step["input_token"]] for step in doc["steps"]]]
    with no_grad():
        _, traces = reference_forced(model, inputs, model.encode(*synth.features(scene)))

    def row(value):
        return None if value is None else [float(w) for w in value[0]]

    return [[{"weights": row(tr.weights), "soft": row(None if tr.soft is None else tr.soft.data),
              "alphas": {name: row(a) for name, a in sorted(tr.alphas.items())}}
             for tr in step] for step in traces]


@pytest.mark.parametrize("preset", ["Col/S", "Col/H", "Col/1", "Module/O"])
def test_trace_units_match_the_reference_step_chain(corpus, synth, preset):
    # both kinds read one teacher-forced pass; what each unit chose must be
    # the op-composed steps' bit for bit
    model = preset_model(corpus, preset)
    docs = [trace_example(model, corpus, synth, e) for e in corpus.examples[:3]]
    docs += [trace_generated(model, corpus, synth, scene, max_len=8)
             for scene in corpus.scenes[:3]]
    for doc in docs:
        assert doc["steps"]
        assert [step["units"] for step in doc["steps"]] == \
            reference_units(model, corpus, synth, doc)


@pytest.mark.parametrize("preset", ["CNM#2", "Col/H", "Module/O"])
def test_generated_trace_replays_its_own_caption(corpus, synth, preset):
    model = preset_model(corpus, preset)
    vocab = corpus.vocab
    for scene in corpus.scenes[:4]:
        doc = trace_generated(model, corpus, synth, scene, max_len=8)
        with no_grad():
            (tokens,) = greedy_decode(model, model.encode(*synth.features(scene)), 8)
        inputs = [step["input_token"] for step in doc["steps"]]
        predicted = [step["predicted_token"] for step in doc["steps"]]
        assert inputs[0] == "<bos>"
        assert predicted[:-1] == inputs[1:]
        assert predicted == vocab.decode(tokens)
        assert doc["words"] == vocab.decode(strip_sequence(tokens))


def test_trace_is_deterministic(model, corpus, synth, forced_doc):
    again = trace_example(model, corpus, synth, corpus.examples[0])
    assert json.dumps(again, sort_keys=True) == json.dumps(forced_doc, sort_keys=True)


def test_svg_is_wellformed_and_deterministic(forced_doc):
    svg = render_svg(forced_doc)
    assert svg == render_svg(forced_doc)
    assert svg.endswith("\n")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


def test_svg_uses_the_module_palette(forced_doc):
    svg = render_svg(forced_doc)
    for module in MODULE_ORDER:
        assert MODULE_COLORS[module] in svg
        assert f">{module}</text>" in svg


def test_svg_last_unit_by_default_all_units_on_request(forced_doc):
    assert render_svg(forced_doc).count("unit ") == 1
    assert "unit 2" in render_svg(forced_doc)
    both = render_svg(forced_doc, all_units=True)
    assert "unit 1" in both and "unit 2" in both
    assert both.count("unit ") == 2


def test_svg_cell_count_scales_with_steps(forced_doc):
    svg = render_svg(forced_doc)
    n_cells = svg.count("<title>")
    assert n_cells == len(forced_doc["steps"]) * len(forced_doc["modules"])
