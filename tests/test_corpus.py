"""Scene corpus: generation, captions, features, persistence."""

import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modcap.controller import ModuleLabel
from modcap.corpus import (
    ADJ_POOL,
    BOS_ID,
    CAPTIONS_PER_SCENE,
    CONTEXT_BLOCK,
    EOS_ID,
    K_MAX,
    K_MIN,
    NOISE_SIGMA,
    NOUN_POOL,
    PRED_POOL,
    PRED_TAGS,
    QUANT_WORDS,
    UNK_ID,
    CaptionExample,
    Corpus,
    CorpusSpec,
    FeatureSynthesizer,
    Region,
    Relation,
    Scene,
    Vocabulary,
    _DRAW_BLOCK,
    _captions,
    _draw_stream,
    build_vocabulary,
    few_shot_subset,
    generate_corpus,
    load_corpus,
    save_corpus,
)
from modcap.errors import CorpusSpecError, DataError, FormatError
from modcap.tensor import Rng
from reference import reference_features, reference_generate_corpus

SMALL = CorpusSpec(n_scenes=40, seed=7)


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(SMALL)


class TestSpecValidation:
    def test_defaults_pass(self):
        CorpusSpec().validate()

    @pytest.mark.parametrize("kwargs", [
        {"n_scenes": 0},
        {"k_min": 1},
        {"k_max": 4},
        {"n_objects": 1},
        {"n_attributes": True},
        {"n_attributes": 0},
        {"n_predicates": 0},
        {"n_function": 3},     # no "then", which slot-3 captions open with
        {"captions_per_scene": 0},
        {"d_r": CONTEXT_BLOCK + 3},
        {"noise_sigma": 0.0},
    ])
    def test_rejects(self, kwargs, small_corpus, tmp_path):
        # the spec's settings are its fields; a retired one can only come
        # from the meta of a corpus saved while it was a setting
        (key, value), = kwargs.items()
        if key in {f.name for f in dataclasses.fields(CorpusSpec)}:
            with pytest.raises(CorpusSpecError):
                CorpusSpec(**kwargs).validate()
            return
        save_corpus(small_corpus, str(tmp_path))
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["spec"][key] = value
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=f"{key} is no longer a setting"):
            load_corpus(str(tmp_path))


class TestVocabulary:
    def test_reserved_prefix(self):
        v = build_vocabulary()
        assert v.tokens[:4] == ["<pad>", "<bos>", "<eos>", "<unk>"]
        assert v.id("<pad>") == 0 and v.id("<eos>") == 2

    def test_round_trip_and_unknown(self):
        v = build_vocabulary()
        ids = v.encode(["a", "red", "cat", "on", "two"])
        assert v.decode(ids) == ["a", "red", "cat", "on", "two"]
        assert v.id("zebra") == UNK_ID

    def test_tags(self):
        v = build_vocabulary()
        assert v.tag("cat") == "NN"
        assert v.tag("red") == "ADJ"
        assert v.tag("on") == "PREP"
        assert v.tag("watches") == "VB"
        assert v.tag("two") == "CD"
        assert v.tag("a") == "DT"
        assert v.tag("<eos>") == "OTHER"

    def test_serialization(self):
        v = build_vocabulary()
        again = Vocabulary.from_dict(v.to_dict())
        assert again.tokens == v.tokens and again.pos == v.pos

    def test_requires_reserved(self):
        with pytest.raises(DataError):
            Vocabulary(["a", "b", "c", "d"], {})

    def test_duplicate_rejected(self):
        with pytest.raises(DataError):
            Vocabulary(["<pad>", "<bos>", "<eos>", "<unk>", "cat", "cat"], {})


class TestGeneration:
    def test_deterministic(self, small_corpus):
        again = generate_corpus(SMALL)
        assert again.scenes == small_corpus.scenes
        assert again.examples == small_corpus.examples

    def test_seed_changes_content(self, small_corpus):
        other = generate_corpus(CorpusSpec(n_scenes=40, seed=8))
        assert other.scenes != small_corpus.scenes

    def test_scene_shapes(self, small_corpus):
        for s in small_corpus.scenes:
            assert K_MIN <= len(s.regions) <= K_MAX
            for r in s.regions:
                assert 0 <= r.object_id < len(NOUN_POOL)
                assert r.attributes == sorted(set(r.attributes))
                assert 1 <= len(r.attributes) <= 2
                assert all(0 <= a < len(ADJ_POOL) for a in r.attributes)
                assert 0.0 <= r.x < 1.0 and 0.0 <= r.y < 1.0
            assert len(s.relations) == 2  # k_min=3 guarantees a chain of two
            for rel in s.relations:
                assert 0 <= rel.subject < len(s.regions)
                assert 0 <= rel.object < len(s.regions)

    def test_relations_follow_roles(self, small_corpus):
        for s in small_corpus.scenes:
            roles = s.roles()
            for i, rel in enumerate(s.relations):
                assert rel.subject == roles[i]
                assert rel.object == roles[i + 1]
                assert rel.predicate == s.regions[rel.subject].object_id % len(PRED_POOL)

    def test_split_partition(self):
        corpus = generate_corpus(CorpusSpec(n_scenes=500))
        sizes = {name: len(corpus.scenes_in(name)) for name in ("train", "val", "test")}
        assert sizes == {"train": 400, "val": 50, "test": 50}
        seen = [s.scene_id for name in sizes for s in corpus.scenes_in(name)]
        assert sorted(seen) == list(range(500))

    def test_examples_follow_scene_split(self, small_corpus):
        val_ids = {s.scene_id for s in small_corpus.scenes_in("val")}
        for e in small_corpus.examples_in("val"):
            assert e.scene_id in val_ids

    def test_references_grouping(self, small_corpus):
        refs = small_corpus.references("val")
        assert set(refs) == {s.scene_id for s in small_corpus.scenes_in("val")}
        for ref_list in refs.values():
            assert len(ref_list) == CAPTIONS_PER_SCENE

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 3 * _DRAW_BLOCK + 1))
    @example(seed=9, n=_DRAW_BLOCK + 1)
    def test_draw_stream_is_the_scalar_stream(self, seed, n):
        # up to and across block boundaries, each draw the one u64 would return
        blocks = _draw_stream(Rng(seed))
        scalar = Rng(seed)
        assert [next(blocks) for _ in range(n)] == [scalar.u64() for _ in range(n)]


def saved_bytes(corpus) -> dict:
    with tempfile.TemporaryDirectory() as out:
        save_corpus(corpus, out)
        return {name: open(os.path.join(out, name), "rb").read()
                for name in sorted(os.listdir(out))}


def assert_features_match_the_oracle(synth, scenes):
    for scene in scenes:
        for got, want in zip(synth.features(scene), reference_features(synth, scene)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**64 - 1), n_scenes=st.integers(1, 60),
       d_r=st.sampled_from([32, 64]))
def test_generation_and_features_match_the_scalar_oracles(seed, n_scenes, d_r):
    # block draws and one caption per repeated slot against one scalar
    # draw at a time and every slot built afresh; array features against
    # features filled one region at a time
    spec = CorpusSpec(n_scenes=n_scenes, d_r=d_r, seed=seed)
    corpus = generate_corpus(spec)
    assert saved_bytes(corpus) == saved_bytes(reference_generate_corpus(spec))
    assert_features_match_the_oracle(FeatureSynthesizer(spec), corpus.scenes)


def _scene(regions, relations, sid=0):
    return Scene(scene_id=sid, split="train", regions=regions, relations=relations)


class TestCaptionTemplates:
    def make_base_scene(self):
        regions = [
            Region(object_id=3, attributes=[1, 4], x=0.1, y=0.5),
            Region(object_id=7, attributes=[0], x=0.4, y=0.2),
            Region(object_id=2, attributes=[2], x=0.9, y=0.9),
        ]
        relations = [Relation(0, 3 % 8, 1), Relation(1, 7 % 8, 2)]
        return _scene(regions, relations)

    def test_base_slot(self):
        scene = self.make_base_scene()
        (words, tags), _ = _captions(scene, scene.roles())
        assert words == ["a", ADJ_POOL[1], NOUN_POOL[3], PRED_POOL[3], "a", NOUN_POOL[7]]
        assert tags == ["DT", "ADJ", "NN", PRED_TAGS[3], "DT", "NN"]

    def test_base_slots_repeat_the_base_in_lists_of_their_own(self, small_corpus):
        fields = ("words", "tags", "labels", "token_ids")
        by_scene = {}
        for e in small_corpus.examples:
            by_scene.setdefault(e.scene_id, []).append(e)
        for group in by_scene.values():
            assert [e.slot for e in group] == list(range(CAPTIONS_PER_SCENE))
            base = [getattr(group[0], f) for f in fields]
            for e in group:
                if e.slot != 3:
                    assert [getattr(e, f) for f in fields] == base
            # no two examples share a list: a caller may edit one alone
            lists = [getattr(e, f) for e in group for f in fields]
            assert len({id(x) for x in lists}) == len(lists)

    def test_variant_second_relation(self):
        scene = self.make_base_scene()
        _, (words, tags) = _captions(scene, scene.roles())
        assert words == ["then", "a", ADJ_POOL[1], NOUN_POOL[3],
                         PRED_POOL[7], "a", NOUN_POOL[2]]
        assert tags == ["RB", "DT", "ADJ", "NN", PRED_TAGS[7], "DT", "NN"]

    def test_variant_quantifier(self):
        regions = [
            Region(object_id=5, attributes=[0], x=0.1, y=0.1),
            Region(object_id=5, attributes=[1], x=0.5, y=0.5),
            Region(object_id=5, attributes=[2], x=0.9, y=0.9),
        ]
        relations = [Relation(0, 5, 1), Relation(1, 5, 2)]
        scene = _scene(regions, relations)
        _, (words, tags) = _captions(scene, scene.roles())
        assert words == ["then", "a", ADJ_POOL[0], NOUN_POOL[5],
                         "and", QUANT_WORDS[3], NOUN_POOL[5]]
        assert tags == ["RB", "DT", "ADJ", "NN", "CC", "CD", "NN"]

    def test_variant_is_announced_by_its_first_word(self, small_corpus):
        """Teacher forcing relies on the split point being visible up front:
        the variant opens with "then", the base slots never do."""
        for e in small_corpus.examples:
            if e.slot == 3:
                assert e.words[0] == "then" or e.words[0] == "a"
            else:
                assert e.words[0] == "a"
        variants = [e for e in small_corpus.examples
                    if e.slot == 3 and e.words[0] == "then"]
        assert variants  # the small corpus does exercise the variant path

    def test_variant_falls_back_to_base(self):
        # two regions, distinct classes, a single relation: nothing to vary
        regions = [
            Region(object_id=1, attributes=[0], x=0.2, y=0.2),
            Region(object_id=2, attributes=[1], x=0.8, y=0.8),
        ]
        relations = [Relation(0, 1, 1)]
        scene = _scene(regions, relations)
        assert _captions(scene, scene.roles())[1] is None

    def test_grounding(self, small_corpus):
        """Every caption is entailed by its scene."""
        by_id = {s.scene_id: s for s in small_corpus.scenes}
        for e in small_corpus.examples:
            s = by_id[e.scene_id]
            classes = {NOUN_POOL[r.object_id] for r in s.regions}
            roles = s.roles()
            leftmost = s.regions[roles[0]]
            off = 1 if e.words[0] == "then" else 0
            assert e.words[off + 2] == NOUN_POOL[leftmost.object_id]
            assert e.words[off + 1] == ADJ_POOL[min(leftmost.attributes)]
            if "CD" in e.tags:
                dup_word = e.words[off + 5]
                count = sum(1 for r in s.regions
                            if NOUN_POOL[r.object_id] == dup_word)
                assert QUANT_WORDS[count] == e.words[off + 4]
            else:
                assert e.words[off + 5] in classes
                rel_preds = {PRED_POOL[r.predicate] for r in s.relations}
                assert e.words[off + 3] in rel_preds

    def test_token_framing_and_labels(self, small_corpus):
        vocab = small_corpus.vocab
        for e in small_corpus.examples:
            assert e.token_ids[0] == BOS_ID and e.token_ids[-1] == EOS_ID
            assert UNK_ID not in e.token_ids
            assert len(e.token_ids) == len(e.words) + 2
            assert len(e.tags) == len(e.labels) == len(e.words) + 1
            assert e.tags[-1] == "EOS"
            assert e.labels[-1] == int(ModuleLabel.FUNCTION)
            assert vocab.decode(e.token_ids[1:-1]) == e.words

    def test_all_modules_supervised(self, small_corpus):
        seen = {lab for e in small_corpus.examples for lab in e.labels}
        assert seen == {0, 1, 2, 3}


class TestFewShot:
    def test_subsets_per_scene(self, small_corpus):
        subset = few_shot_subset(small_corpus.examples, shots=2, seed=11)
        per_scene = {}
        for e in subset:
            per_scene.setdefault(e.scene_id, []).append(e)
        assert all(len(v) == 2 for v in per_scene.values())
        assert set(per_scene) == {s.scene_id for s in small_corpus.scenes}
        originals = {(e.scene_id, e.slot) for e in small_corpus.examples}
        assert all((e.scene_id, e.slot) in originals for e in subset)

    def test_deterministic_and_seed_sensitive(self, small_corpus):
        a = few_shot_subset(small_corpus.examples, shots=2, seed=11)
        b = few_shot_subset(small_corpus.examples, shots=2, seed=11)
        c = few_shot_subset(small_corpus.examples, shots=2, seed=12)
        key = lambda xs: [(e.scene_id, e.slot) for e in xs]
        assert key(a) == key(b)
        assert key(a) != key(c)

    def test_enough_shots_keeps_all(self, small_corpus):
        subset = few_shot_subset(small_corpus.examples, shots=99, seed=0)
        assert len(subset) == len(small_corpus.examples)

    def test_rejects_bad_count(self, small_corpus):
        with pytest.raises(ValueError):
            few_shot_subset(small_corpus.examples, shots=0, seed=0)


class TestFeatures:
    def test_shapes_and_determinism(self, small_corpus):
        synth_a = FeatureSynthesizer(SMALL)
        synth_b = FeatureSynthesizer(SMALL)
        for s in small_corpus.scenes[:6]:
            ro_a, ra_a = synth_a.features(s)
            ro_b, ra_b = synth_b.features(s)
            assert ro_a.shape == (len(s.regions), SMALL.d_r)
            assert ra_a.shape == (len(s.regions), SMALL.d_r)
            assert ro_a.dtype == np.float32
            np.testing.assert_array_equal(ro_a, ro_b)
            np.testing.assert_array_equal(ra_a, ra_b)

    def test_context_block(self, small_corpus):
        synth = FeatureSynthesizer(SMALL)
        d = SMALL.d_r - CONTEXT_BLOCK
        for s in small_corpus.scenes[:6]:
            ro, ra = synth.features(s)
            ranks = {idx: pos for pos, idx in enumerate(s.roles())}
            counts = s.class_counts()
            for i, reg in enumerate(s.regions):
                hot = [0.0] * 8
                hot[min(ranks[i], 7)] = 1.0
                np.testing.assert_allclose(
                    ro[i, d:],
                    [reg.x, reg.y, ranks[i] / 8.0,
                     counts[reg.object_id] / 8.0] + hot,
                    rtol=0, atol=1e-6)
                np.testing.assert_allclose(
                    ra[i, d:], [reg.x, reg.y, ranks[i] / 8.0, 0.0] + hot,
                    rtol=0, atol=1e-6)

    def test_rank_onehot_separates_reading_order(self, small_corpus):
        """Each region's rank block is a distinct unit basis vector."""
        synth = FeatureSynthesizer(SMALL)
        scene = small_corpus.scenes[0]
        ro, _ = synth.features(scene)
        block = ro[:, SMALL.d_r - 8:]
        assert block.sum() == len(scene.regions)
        for pos, idx in enumerate(scene.roles()):
            assert block[idx, min(pos, 7)] == 1.0

    def test_object_rows_ignore_attributes(self, small_corpus):
        """Recoloring a region must not change R_O."""
        scene = small_corpus.scenes[0]
        ro_before, ra_before = FeatureSynthesizer(SMALL).features(scene)
        bent = Scene(scene_id=scene.scene_id, split=scene.split,
                     regions=[Region(r.object_id,
                                     [(a + 1) % len(ADJ_POOL) for a in r.attributes],
                                     r.x, r.y)
                              for r in scene.regions],
                     relations=scene.relations)
        ro_after, ra_after = FeatureSynthesizer(SMALL).features(bent)
        np.testing.assert_array_equal(ro_before, ro_after)
        assert not np.array_equal(ra_before, ra_after)

    def test_attribute_rows_ignore_classes(self, small_corpus):
        scene = small_corpus.scenes[1]
        ro_before, ra_before = FeatureSynthesizer(SMALL).features(scene)
        bent = Scene(scene_id=scene.scene_id, split=scene.split,
                     regions=[Region((r.object_id + 1) % len(NOUN_POOL),
                                     list(r.attributes), r.x, r.y)
                              for r in scene.regions],
                     relations=scene.relations)
        ro_after, ra_after = FeatureSynthesizer(SMALL).features(bent)
        np.testing.assert_array_equal(ra_before, ra_after)
        assert not np.array_equal(ro_before, ro_after)

    def test_zero_noise_matches_tables(self):
        """The content block is the table rows plus the scene's own noise
        draw, object rows first."""
        spec = CorpusSpec(n_scenes=4, seed=3)
        corpus = generate_corpus(spec)
        synth = FeatureSynthesizer(spec)
        d = spec.d_r - CONTEXT_BLOCK
        for s in corpus.scenes:
            ro, ra = synth.features(s)
            noise = Rng(spec.seed).derive(50000 + s.scene_id).normal(
                (2, len(s.regions), d), scale=NOISE_SIGMA, dtype=np.float32)
            for i, reg in enumerate(s.regions):
                np.testing.assert_array_equal(ro[i, :d],
                                              synth.obj_table[reg.object_id] + noise[0, i])
                np.testing.assert_array_equal(
                    ra[i, :d], synth.attr_table[reg.attributes].sum(axis=0) + noise[1, i])

    def test_loaded_scene_shapes_match_the_oracle(self):
        # a loaded corpus may hold more regions than the one-hot has rank
        # slots, and any number of attributes per region, none included
        regions = [Region(object_id=i % 3, attributes=list(range(i % 5)),
                          x=0.5 if i % 2 else 0.1 * i, y=0.3)
                   for i in range(11)]
        scene = _scene(regions, [Relation(0, 0, 1)], sid=3)
        assert_features_match_the_oracle(FeatureSynthesizer(SMALL), [scene])

    def test_a_scene_without_regions_has_empty_features(self):
        r_obj, r_attr = FeatureSynthesizer(SMALL).features(_scene([], [], sid=4))
        assert r_obj.shape == r_attr.shape == (0, SMALL.d_r)

    def test_noise_scale(self):
        spec = CorpusSpec(n_scenes=2, seed=3)
        scene = generate_corpus(spec).scenes[0]
        d = spec.d_r - CONTEXT_BLOCK
        synth = FeatureSynthesizer(spec)
        ro, _ = synth.features(scene)
        delta = ro[:, :d] - synth.obj_table[[r.object_id for r in scene.regions]]
        assert 0 < np.abs(delta).max() < NOISE_SIGMA * 6


class TestPersistence:
    def test_round_trip(self, small_corpus, tmp_path):
        save_corpus(small_corpus, str(tmp_path))
        loaded = load_corpus(str(tmp_path))
        assert loaded.spec == small_corpus.spec
        assert loaded.vocab.tokens == small_corpus.vocab.tokens
        assert loaded.scenes == small_corpus.scenes
        assert loaded.examples == small_corpus.examples

    def test_parent_format_meta_loads_to_the_same_corpus(self, small_corpus, tmp_path):
        # a meta saved while the corpus design was settable stores all
        # eleven settings; at their fixed values it loads as before
        save_corpus(small_corpus, str(tmp_path))
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert sorted(meta["spec"]) == ["d_r", "n_scenes", "seed"]
        meta["spec"].update(k_min=3, k_max=6, n_objects=20, n_attributes=10, n_predicates=8,
                            n_function=6, captions_per_scene=5, noise_sigma=0.05)
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        loaded = load_corpus(str(tmp_path))
        assert loaded.spec == small_corpus.spec
        assert loaded.vocab.tokens == small_corpus.vocab.tokens
        assert loaded.scenes == small_corpus.scenes
        assert loaded.examples == small_corpus.examples
        ours, theirs = FeatureSynthesizer(SMALL), FeatureSynthesizer(loaded.spec)
        for scene in loaded.scenes:
            for a, b in zip(ours.features(scene), theirs.features(scene)):
                assert a.tobytes() == b.tobytes()

    def test_regeneration_writes_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        save_corpus(generate_corpus(SMALL), str(a))
        save_corpus(generate_corpus(SMALL), str(b))
        for name in ("scenes.jsonl", "captions.jsonl", "vocab.json", "meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_corrupt_line_reports_location(self, small_corpus, tmp_path):
        save_corpus(small_corpus, str(tmp_path))
        path = tmp_path / "scenes.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=r"scenes\.jsonl:3"):
            load_corpus(str(tmp_path))

    def test_unknown_word_rejected(self, small_corpus, tmp_path):
        save_corpus(small_corpus, str(tmp_path))
        path = tmp_path / "captions.jsonl"
        lines = path.read_text().splitlines()
        rec = json.loads(lines[0])
        rec["words"][0] = "zebra"
        lines[0] = json.dumps(rec, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="zebra"):
            load_corpus(str(tmp_path))

    def test_bad_version_rejected(self, small_corpus, tmp_path):
        save_corpus(small_corpus, str(tmp_path))
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["format_version"] = 99
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="format_version"):
            load_corpus(str(tmp_path))

    def test_meta_scene_count_must_match_the_scenes(self, tmp_path):
        # a meta whose spec disagrees with the scenes it sits beside; only
        # the count shows: a seed alone is not checked against the files
        save_corpus(generate_corpus(CorpusSpec(n_scenes=24, seed=5)), str(tmp_path))
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["spec"].update(n_scenes=999, seed=4)
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=r"999 scenes, but .*scenes\.jsonl holds 24"):
            load_corpus(str(tmp_path))

    def test_missing_dir_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_corpus(str(tmp_path / "nope"))

    def test_dangling_caption_rejected(self, small_corpus, tmp_path):
        save_corpus(small_corpus, str(tmp_path))
        path = tmp_path / "captions.jsonl"
        rec = json.loads(path.read_text().splitlines()[0])
        rec["scene"] = 999999
        with open(path, "a") as fh:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        with pytest.raises(DataError, match="999999"):
            load_corpus(str(tmp_path))
