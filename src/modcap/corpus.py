"""Procedural scene corpus: scenes, captions, features, persistence.

A scene is K regions (object class, attribute set, a position in the unit
square) plus relation triples between them.  Captions are filled-in
templates anchored on a deterministic region ordering (left to right by
position), so given a scene and a caption prefix the next token is almost
always unambiguous; that keeps teacher-forced prediction a fair test of
whether the model reads the features rather than a guessing game.

Region features come in two matrices per scene.  Rows of R_O carry the
object-class embedding, rows of R_A the summed attribute embeddings;
both end in a four-value context block derived from geometry (x, y,
rank in the left-to-right order, and for R_O the count of that object
class in the scene).  Gaussian noise of the fixed sigma ``NOISE_SIGMA``
is added to the content block only, from a per-scene stream, so features
are a pure function of (corpus seed, scene id).
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .config import _drop_retired
from .controller import pos_to_module_label
from .errors import ConfigError, CorpusSpecError, DataError, FormatError
from .tensor import Rng

PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"
RESERVED = (PAD, BOS, EOS, UNK)
PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3

NOUN_POOL = (
    "cat", "dog", "bird", "horse", "sheep", "cow", "car", "truck", "boat", "bike",
    "tree", "bush", "house", "barn", "table", "chair", "lamp", "cup", "book", "ball",
)
ADJ_POOL = ("red", "blue", "green", "small", "large", "old", "shiny", "dark", "pale", "dirty")
PRED_POOL = ("watches", "follows", "chases", "touches", "on", "under", "beside", "near")
PRED_TAGS = ("VB", "VB", "VB", "VB", "PREP", "PREP", "PREP", "PREP")
FUNC_POOL = ("a", "the", "and", "so", "then", "now")
FUNC_TAGS = ("DT", "DT", "CC", "CC", "RB", "RB")
QUANT_WORDS = {2: "two", 3: "three", 4: "four"}

_RANK_SLOTS = 8  # one-hot reading-order rank; ranks past the last slot share it
CONTEXT_BLOCK = 4 + _RANK_SLOTS  # x, y, rank, class count, then the rank one-hot
_RANK_SCALE = 8.0

SPLITS = ("train", "val", "test")
_SPLIT_FRACTIONS = (0.8, 0.1)  # train, val; the remainder is test

K_MIN, K_MAX = 3, 6       # regions per scene; captions describe relations between them
CAPTIONS_PER_SCENE = 5
NOISE_SIGMA = 0.05        # of the Gaussian noise on a region's content features

# the settings version-1 corpus metas store, at the values they must hold
_RETIRED_SPEC = {"k_min": K_MIN, "k_max": K_MAX, "n_objects": len(NOUN_POOL),
                 "n_attributes": len(ADJ_POOL), "n_predicates": len(PRED_POOL),
                 "n_function": len(FUNC_POOL), "captions_per_scene": CAPTIONS_PER_SCENE,
                 "noise_sigma": NOISE_SIGMA}


@dataclass
class CorpusSpec:
    """What varies between corpora: the scene count, the region feature
    width and the seed.  Every corpus uses the whole word pools and the
    constants above."""

    n_scenes: int = 500
    d_r: int = 64
    seed: int = 0

    def validate(self) -> None:
        if self.n_scenes < 1:
            raise CorpusSpecError(f"n_scenes must be positive, got {self.n_scenes}")
        if self.d_r < CONTEXT_BLOCK + 4:
            raise CorpusSpecError(f"d_r={self.d_r} leaves no room for content features")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CorpusSpec":
        spec = cls(**_drop_retired(d, _RETIRED_SPEC))
        for f in fields(cls):      # every field an int
            value = getattr(spec, f.name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{f.name} must be int, got {value!r}")
        return spec


class Vocabulary:
    """Token table with four reserved ids at the front."""

    def __init__(self, tokens: list[str], pos: dict[str, str]):
        if tuple(tokens[:4]) != RESERVED:
            raise DataError(f"vocabulary must start with {RESERVED}")
        self.tokens = list(tokens)
        self.pos = dict(pos)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise DataError("vocabulary contains duplicate tokens")

    def __len__(self):
        return len(self.tokens)

    def id(self, token: str) -> int:
        return self.index.get(token, UNK_ID)

    def encode(self, words) -> list[int]:
        return [self.id(w) for w in words]

    def decode(self, ids) -> list[str]:
        return [self.tokens[i] for i in ids]

    def tag(self, token: str) -> str:
        return self.pos.get(token, "OTHER")

    def to_dict(self) -> dict:
        return {"tokens": self.tokens, "pos": self.pos,
                "reserved": {"pad": PAD_ID, "bos": BOS_ID, "eos": EOS_ID, "unk": UNK_ID}}

    @classmethod
    def from_dict(cls, d: dict) -> "Vocabulary":
        try:
            return cls(d["tokens"], d["pos"])
        except KeyError as exc:
            raise FormatError(f"vocabulary is missing field {exc}") from exc
        except TypeError as exc:
            raise FormatError(f"malformed vocabulary: {exc}") from exc


def build_vocabulary() -> Vocabulary:
    tokens = list(RESERVED)
    pos: dict[str, str] = {}
    for word, tag in zip(FUNC_POOL, FUNC_TAGS):
        tokens.append(word)
        pos[word] = tag
    for count_word in QUANT_WORDS.values():
        tokens.append(count_word)
        pos[count_word] = "CD"
    for word in NOUN_POOL:
        tokens.append(word)
        pos[word] = "NN"
    for word in ADJ_POOL:
        tokens.append(word)
        pos[word] = "ADJ"
    for word, tag in zip(PRED_POOL, PRED_TAGS):
        tokens.append(word)
        pos[word] = tag
    return Vocabulary(tokens, pos)


@dataclass
class Region:
    object_id: int
    attributes: list[int]
    x: float
    y: float


@dataclass
class Relation:
    subject: int      # region index
    predicate: int    # index into the predicate pool
    object: int       # region index


@dataclass
class Scene:
    scene_id: int
    split: str
    regions: list[Region]
    relations: list[Relation]

    def roles(self) -> list[int]:
        """Region indices ordered left to right (x, then y, then index)."""
        return sorted(range(len(self.regions)),
                      key=lambda i: (self.regions[i].x, self.regions[i].y, i))

    def class_counts(self) -> Counter:
        return Counter(r.object_id for r in self.regions)


@dataclass
class CaptionExample:
    scene_id: int
    slot: int
    words: list[str]          # surface tokens, no begin/end markers
    tags: list[str]           # one per predicted position: words then EOS
    labels: list[int]         # module labels aligned with tags
    token_ids: list[int] = field(default_factory=list)  # bos + words + eos

    def finalize(self, vocab: Vocabulary) -> "CaptionExample":
        self.token_ids = [BOS_ID] + vocab.encode(self.words) + [EOS_ID]
        return self


@dataclass
class Corpus:
    spec: CorpusSpec
    vocab: Vocabulary
    scenes: list[Scene]
    examples: list[CaptionExample]

    def scenes_in(self, split: str) -> list[Scene]:
        if split not in SPLITS:
            raise ValueError(f"unknown split {split!r}")
        return [s for s in self.scenes if s.split == split]

    def require(self, *splits: str) -> None:
        """Raise DataError naming the first of ``splits`` without a scene."""
        for split in splits:
            if not self.scenes_in(split):
                raise DataError(f"the corpus has no {split} scenes")

    def examples_in(self, split: str) -> list[CaptionExample]:
        if split not in SPLITS:
            raise ValueError(f"unknown split {split!r}")
        by_id = {s.scene_id: s.split for s in self.scenes}
        return [e for e in self.examples if by_id[e.scene_id] == split]

    def references(self, split: str | None = None) -> dict[int, list[list[str]]]:
        """scene id -> list of gold word sequences."""
        return references_of(self.examples if split is None else self.examples_in(split))


def references_of(examples) -> dict[int, list[list[str]]]:
    """Scene id -> the word sequences of its examples, in their order."""
    refs: dict[int, list[list[str]]] = {}
    for e in examples:
        refs.setdefault(e.scene_id, []).append(list(e.words))
    return refs


# -- generation ---------------------------------------------------------------


def _caption_words(scene: Scene, slot: int):
    """Template fill for one caption slot.  Slot 3 (when present) carries the
    variant reading; every other slot repeats the base description.  Variants
    open with the marker word "then" so the reading is announced before the
    captions diverge: given the scene and the visible prefix, every later
    token has a unique right answer under teacher forcing."""
    regions = scene.regions
    roles = scene.roles()
    r0 = regions[roles[0]]
    adj1 = ADJ_POOL[min(r0.attributes)]
    nn1 = NOUN_POOL[r0.object_id]
    rel1 = scene.relations[0]
    pred1 = PRED_POOL[rel1.predicate]
    nn2 = NOUN_POOL[regions[rel1.object].object_id]

    base = (["a", adj1, nn1, pred1, "a", nn2],
            ["DT", "ADJ", "NN", PRED_TAGS[rel1.predicate], "DT", "NN"])
    if slot != 3:
        return base

    counts = scene.class_counts()
    dups = sorted(c for c, n in counts.items() if n in QUANT_WORDS)
    if dups:
        dup = dups[0]
        cd = QUANT_WORDS[counts[dup]]
        return (["then", "a", adj1, nn1, "and", cd, NOUN_POOL[dup]],
                ["RB", "DT", "ADJ", "NN", "CC", "CD", "NN"])
    if len(scene.relations) >= 2:
        rel2 = scene.relations[1]
        pred2 = PRED_POOL[rel2.predicate]
        nn3 = NOUN_POOL[regions[rel2.object].object_id]
        return (["then", "a", adj1, nn1, pred2, "a", nn3],
                ["RB", "DT", "ADJ", "NN", PRED_TAGS[rel2.predicate], "DT", "NN"])
    return base


def generate_corpus(spec: CorpusSpec) -> Corpus:
    spec.validate()
    vocab = build_vocabulary()

    scene_rng = Rng(spec.seed).derive(101)
    split_rng = Rng(spec.seed).derive(202)

    order = list(range(spec.n_scenes))
    split_rng.shuffle(order)
    n_train = int(spec.n_scenes * _SPLIT_FRACTIONS[0])
    n_val = int(spec.n_scenes * _SPLIT_FRACTIONS[1])
    split_of = {}
    for pos, sid in enumerate(order):
        split_of[sid] = "train" if pos < n_train else ("val" if pos < n_train + n_val else "test")

    scenes = []
    examples = []
    for sid in range(spec.n_scenes):
        k = K_MIN + scene_rng.randint(K_MAX - K_MIN + 1)
        regions = []
        for _ in range(k):
            object_id = scene_rng.randint(len(NOUN_POOL))
            n_attr = 1 + scene_rng.randint(2)
            attrs = set()
            while len(attrs) < n_attr:
                attrs.add(scene_rng.randint(len(ADJ_POOL)))
            regions.append(Region(object_id=object_id, attributes=sorted(attrs),
                                  x=scene_rng.uniform(), y=scene_rng.uniform()))
        scene = Scene(scene_id=sid, split=split_of[sid], regions=regions, relations=[])
        roles = scene.roles()
        # relations chain the left-to-right roles; the predicate is a fixed
        # function of the subject class, so it is recoverable from features
        for a, b in list(zip(roles, roles[1:]))[:2]:
            subj_class = regions[a].object_id
            scene.relations.append(Relation(subject=a,
                                            predicate=subj_class % len(PRED_POOL),
                                            object=b))
        scenes.append(scene)

        for slot in range(CAPTIONS_PER_SCENE):
            words, tags = _caption_words(scene, slot)
            tags_full = tags + ["EOS"]
            labels = [int(pos_to_module_label(t)) for t in tags_full]
            examples.append(CaptionExample(scene_id=sid, slot=slot, words=words,
                                           tags=tags_full, labels=labels).finalize(vocab))

    return Corpus(spec=spec, vocab=vocab, scenes=scenes, examples=examples)


def few_shot_subset(examples: list[CaptionExample], shots: int, seed: int) -> list[CaptionExample]:
    """Keep at most ``shots`` captions per scene, sampled without replacement."""
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    rng = Rng(seed).derive(303)
    by_scene: dict[int, list[CaptionExample]] = {}
    for e in examples:
        by_scene.setdefault(e.scene_id, []).append(e)
    kept = []
    for sid in sorted(by_scene):
        group = by_scene[sid]
        if len(group) <= shots:
            kept.extend(group)
            continue
        idx = list(range(len(group)))
        rng.shuffle(idx)
        kept.extend(group[i] for i in sorted(idx[:shots]))
    return kept


# -- feature synthesis ---------------------------------------------------


class FeatureSynthesizer:
    """Materializes (R_O, R_A) for a scene on demand.

    The class/attribute embedding tables stand in for a pretrained vision
    backbone: they are derived from the corpus seed, never trained, and
    never stored.  R_O depends on object classes and geometry only, R_A on
    attribute sets and geometry only.
    """

    def __init__(self, spec: CorpusSpec):
        spec.validate()
        self.spec = spec
        d_content = spec.d_r - CONTEXT_BLOCK
        table_rng = Rng(spec.seed).derive(404)
        self.obj_table = table_rng.normal((len(NOUN_POOL), d_content), dtype=np.float32)
        self.attr_table = table_rng.normal((len(ADJ_POOL), d_content), dtype=np.float32)
        self._cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def features(self, scene: Scene):
        hit = self._cache.get(scene.scene_id)
        if hit is not None:
            return hit
        spec = self.spec
        d_content = spec.d_r - CONTEXT_BLOCK
        k = len(scene.regions)
        noise_rng = Rng(spec.seed).derive(50000 + scene.scene_id)
        rank_of = {idx: pos for pos, idx in enumerate(scene.roles())}
        counts = scene.class_counts()

        def rank_onehot(rank):
            hot = np.zeros(_RANK_SLOTS, dtype=np.float32)
            hot[min(rank, _RANK_SLOTS - 1)] = 1.0
            return hot

        # the scene's noise in one draw: object rows first, then attribute rows
        noise = noise_rng.normal((2, k, d_content), scale=NOISE_SIGMA, dtype=np.float32)
        r_obj = np.zeros((k, spec.d_r), dtype=np.float32)
        r_attr = np.zeros((k, spec.d_r), dtype=np.float32)
        for i, reg in enumerate(scene.regions):
            r_obj[i, :d_content] = self.obj_table[reg.object_id] + noise[0, i]
            r_obj[i, d_content:d_content + 4] = (reg.x, reg.y,
                                                 rank_of[i] / _RANK_SCALE,
                                                 counts[reg.object_id] / _RANK_SCALE)
            r_obj[i, d_content + 4:] = rank_onehot(rank_of[i])
        for i, reg in enumerate(scene.regions):
            r_attr[i, :d_content] = self.attr_table[reg.attributes].sum(axis=0) + noise[1, i]
            r_attr[i, d_content:d_content + 4] = (reg.x, reg.y,
                                                  rank_of[i] / _RANK_SCALE, 0.0)
            r_attr[i, d_content + 4:] = rank_onehot(rank_of[i])
        out = (r_obj, r_attr)
        self._cache[scene.scene_id] = out
        return out


# -- persistence ----------------------------------------------------------

_FORMAT_VERSION = 1


def save_corpus(corpus: Corpus, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "scenes.jsonl"), "w") as fh:
        for s in corpus.scenes:
            rec = {
                "id": s.scene_id,
                "split": s.split,
                "regions": [
                    {"object": NOUN_POOL[r.object_id],
                     "attributes": [ADJ_POOL[a] for a in r.attributes],
                     "x": r.x, "y": r.y}
                    for r in s.regions
                ],
                "relations": [
                    {"subject": rel.subject, "predicate": PRED_POOL[rel.predicate],
                     "object": rel.object}
                    for rel in s.relations
                ],
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    with open(os.path.join(out_dir, "captions.jsonl"), "w") as fh:
        for e in corpus.examples:
            rec = {"scene": e.scene_id, "slot": e.slot, "words": e.words,
                   "tags": e.tags[:-1]}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    with open(os.path.join(out_dir, "vocab.json"), "w") as fh:
        json.dump(corpus.vocab.to_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump({"format_version": _FORMAT_VERSION, "spec": corpus.spec.to_dict()},
                  fh, sort_keys=True, indent=1)
        fh.write("\n")


def _jsonl_records(path: str):
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc


def _json_object(path: str) -> dict:
    """The JSON object stored in the file at ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def load_corpus(data_dir: str) -> Corpus:
    meta_path = os.path.join(data_dir, "meta.json")
    meta = _json_object(meta_path)
    if meta.get("format_version") != _FORMAT_VERSION:
        raise FormatError(f"{meta_path}: unsupported format_version {meta.get('format_version')!r}")
    try:
        spec = CorpusSpec.from_dict(meta["spec"])
    except (KeyError, TypeError, ConfigError) as exc:
        raise FormatError(f"{meta_path}: bad spec block: {exc}") from exc

    vocab = Vocabulary.from_dict(_json_object(os.path.join(data_dir, "vocab.json")))

    noun_index = {w: i for i, w in enumerate(NOUN_POOL)}
    adj_index = {w: i for i, w in enumerate(ADJ_POOL)}
    pred_index = {w: i for i, w in enumerate(PRED_POOL)}

    scenes_path = os.path.join(data_dir, "scenes.jsonl")
    scenes = []
    for lineno, rec in _jsonl_records(scenes_path):
        try:
            regions = [Region(object_id=noun_index[r["object"]],
                              attributes=sorted(adj_index[a] for a in r["attributes"]),
                              x=float(r["x"]), y=float(r["y"]))
                       for r in rec["regions"]]
            relations = [Relation(subject=int(r["subject"]),
                                  predicate=pred_index[r["predicate"]],
                                  object=int(r["object"]))
                         for r in rec["relations"]]
            scene = Scene(scene_id=int(rec["id"]), split=rec["split"],
                          regions=regions, relations=relations)
        except KeyError as exc:
            raise FormatError(f"{scenes_path}:{lineno}: missing or unknown field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{scenes_path}:{lineno}: malformed record: {exc}") from exc
        if scene.split not in SPLITS:
            raise FormatError(f"{scenes_path}:{lineno}: unknown split {scene.split!r}")
        if not regions:
            raise FormatError(f"{scenes_path}:{lineno}: a scene needs at least one region")
        for rel in scene.relations:
            if not (0 <= rel.subject < len(regions) and 0 <= rel.object < len(regions)):
                raise FormatError(f"{scenes_path}:{lineno}: relation endpoint out of range")
        scenes.append(scene)
    if len(scenes) != spec.n_scenes:
        raise FormatError(f"{meta_path}: the spec names {spec.n_scenes} scenes, but "
                          f"{scenes_path} holds {len(scenes)}")

    captions_path = os.path.join(data_dir, "captions.jsonl")
    examples = []
    for lineno, rec in _jsonl_records(captions_path):
        try:
            words = [str(w) for w in rec["words"]]
            tags = [str(t) for t in rec["tags"]]
            scene_id = int(rec["scene"])
            slot = int(rec.get("slot", 0))
        except KeyError as exc:
            raise FormatError(f"{captions_path}:{lineno}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{captions_path}:{lineno}: malformed record: {exc}") from exc
        if len(words) != len(tags):
            raise FormatError(f"{captions_path}:{lineno}: {len(words)} words vs {len(tags)} tags")
        for w in words:
            if w not in vocab.index:
                raise DataError(f"{captions_path}:{lineno}: word {w!r} not in vocabulary")
        tags_full = tags + ["EOS"]
        labels = [int(pos_to_module_label(t)) for t in tags_full]
        examples.append(CaptionExample(scene_id=scene_id, slot=slot, words=words,
                                       tags=tags_full, labels=labels).finalize(vocab))

    scene_ids = {s.scene_id for s in scenes}
    for e in examples:
        if e.scene_id not in scene_ids:
            raise DataError(f"caption refers to unknown scene {e.scene_id}")
    # every scene needs a caption: training feeds a scene its first one
    uncaptioned = scene_ids - {e.scene_id for e in examples}
    if uncaptioned:
        raise DataError(f"scene {min(uncaptioned)} has no captions")

    return Corpus(spec=spec, vocab=vocab, scenes=scenes, examples=examples)
