"""Caption metrics against hand-worked values and brute-force oracles.

The oracle implementations below share no code with the package: they
count n-grams by scanning lists, build dense dictionaries per call, and
take the slow path everywhere.  Values asserted to literals were worked
out on paper first.
"""

import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modcap import metrics
from modcap.metrics import (
    IdfTable,
    bleu_n,
    cider_d,
    corpus_bleu,
    evaluate_captions,
    ngram_counts,
    pos_recall,
)
from reference import (
    reference_cider_d,
    reference_evaluate_captions,
    reference_idf,
    reference_ngram_counts,
)


# -- independent oracles -------------------------------------------------


def oracle_ngrams(seq, n):
    return [tuple(seq[i:i + n]) for i in range(len(seq) - n + 1)]


def oracle_bleu(cand, refs, n):
    precisions = []
    for k in range(1, n + 1):
        grams = oracle_ngrams(cand, k)
        if not grams:
            return 0.0
        matched = 0
        for gram in set(grams):
            in_cand = grams.count(gram)
            in_refs = max(oracle_ngrams(r, k).count(gram) for r in refs)
            matched += min(in_cand, in_refs)
        if matched == 0:
            return 0.0
        precisions.append(matched / len(grams))
    best = None
    for r in refs:
        entry = (abs(len(r) - len(cand)), len(r))
        if best is None or entry < best:
            best = entry
    r_len = best[1]
    if len(cand) == 0:
        bp = 0.0
    elif len(cand) > r_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - r_len / len(cand))
    product = 1.0
    for p in precisions:
        product *= p
    return bp * product ** (1.0 / n)


def oracle_cider(cand, refs, refs_by_image, sigma=6.0, max_n=4):
    n_images = len(refs_by_image)
    df = {}
    for image_refs in refs_by_image.values():
        grams = set()
        for r in image_refs:
            for k in range(1, max_n + 1):
                grams.update(oracle_ngrams(r, k))
        for g in grams:
            df[g] = df.get(g, 0) + 1

    def idf(g):
        return math.log(n_images) - math.log(max(1, df.get(g, 0)))

    def vec(seq, k):
        grams = oracle_ngrams(seq, k)
        return {g: grams.count(g) * idf(g) for g in set(grams)}

    total = 0.0
    for ref in refs:
        delta = len(cand) - len(ref)
        penalty = math.exp(-(delta * delta) / (2.0 * sigma * sigma))
        for k in range(1, max_n + 1):
            cv, rv = vec(cand, k), vec(ref, k)
            cn = math.sqrt(sum(x * x for x in cv.values()))
            rn = math.sqrt(sum(x * x for x in rv.values()))
            if cn == 0.0 or rn == 0.0:
                continue
            clipped_dot = sum(min(x, rv.get(g, 0.0)) * rv.get(g, 0.0)
                              for g, x in cv.items())
            total += penalty * clipped_dot / (cn * rn)
    return 10.0 * total / (max_n * len(refs))


# -- BLEU ------------------------------------------------------------------


class TestBleu:
    def test_ngram_counts(self):
        got = ngram_counts(["a", "b", "a", "b"], 2)
        assert got == {("a", "b"): 2, ("b", "a"): 1}
        assert ngram_counts(["a"], 2) == {}

    def test_hand_case_clipping(self):
        # p1 = 2/3 (second 'a' clipped), p2 = 1/2, candidate longer: BP = 1
        got = bleu_n(["a", "a", "b"], [["a", "b"]], n=2)
        assert got == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-12)

    def test_hand_case_brevity(self):
        # perfect precisions, half-length candidate: e^(1 - 4/2)
        got = bleu_n(["a", "b"], [["a", "b", "c", "d"]], n=2)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_tie_goes_to_shorter_reference(self):
        # |2-3| == |4-3|; shorter wins, so the candidate counts as long enough
        got = bleu_n(["a", "b", "c"], [["a", "b"], ["a", "b", "c", "d"]], n=2)
        assert got == 1.0

    def test_self_match_is_one(self):
        sent = ["a", "red", "cat", "on", "a", "mat"]
        assert bleu_n(sent, [sent], n=4) == 1.0

    def test_short_candidate_scores_zero(self):
        assert bleu_n(["a", "b", "c"], [["a", "b", "c"]], n=4) == 0.0
        assert bleu_n([], [["a"]], n=1) == 0.0

    def test_no_overlap_scores_zero(self):
        assert bleu_n(["x", "y"], [["a", "b"]], n=1) == 0.0

    def test_matches_oracle_on_random_pairs(self):
        rnd = random.Random(1234)
        alphabet = list("abcdefg")
        for _ in range(30):
            cand = [rnd.choice(alphabet) for _ in range(rnd.randint(1, 10))]
            refs = [[rnd.choice(alphabet) for _ in range(rnd.randint(1, 10))]
                    for _ in range(rnd.randint(1, 3))]
            for n in (1, 2, 3, 4):
                assert bleu_n(cand, refs, n) == pytest.approx(
                    oracle_bleu(cand, refs, n), abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bleu_n(["a"], [], n=1)
        with pytest.raises(ValueError):
            bleu_n(["a"], [["a"]], n=0)


class TestCorpusBleu:
    def test_single_sentence_matches_sentence_bleu(self):
        cand = ["a", "a", "b"]
        refs = [["a", "b"]]
        assert corpus_bleu([cand], [refs], n=2) == pytest.approx(
            bleu_n(cand, refs, n=2), abs=1e-12)

    def test_pooling_differs_from_averaging(self):
        # sentence 1 scores zero alone but its counts still pool in
        cands = [["x", "y"], ["a", "b", "c", "d"]]
        refs = [[["a", "b"]], [["a", "b", "c", "d"]]]
        pooled = corpus_bleu(cands, refs, n=1)
        assert pooled == pytest.approx(4.0 / 6.0, abs=1e-12)
        averaged = (bleu_n(cands[0], refs[0], 1) + bleu_n(cands[1], refs[1], 1)) / 2
        assert pooled != pytest.approx(averaged)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            corpus_bleu([["a"]], [])
        with pytest.raises(ValueError):
            corpus_bleu([], [])


# -- CIDEr-D ---------------------------------------------------------------


def record_counts(monkeypatch) -> list:
    """The (sentence, order) of every ``ngram_counts`` call from now on."""
    counted = []
    original = metrics.ngram_counts

    def counting(tokens, n):
        counted.append((tuple(tokens), n))
        return original(tokens, n)

    monkeypatch.setattr(metrics, "ngram_counts", counting)
    return counted


def small_reference_set():
    return {
        0: [["a", "red", "cat", "on", "a", "mat"]],
        1: [["a", "blue", "dog", "under", "a", "tree"]],
        2: [["two", "green", "birds", "beside", "a", "house"]],
    }


# references draw from four words; candidates also from two no reference
# holds, and may be empty.  Small alphabets repeat n-grams.
REF_WORDS = st.lists(st.sampled_from("abcd"), min_size=1, max_size=8)
CAND_WORDS = st.lists(st.sampled_from("abcdxy"), max_size=10)
SCORING = settings(max_examples=200, deadline=None, derandomize=True, database=None)


class TestCiderD:
    @SCORING
    @given(st.dictionaries(st.integers(0, 5), st.lists(REF_WORDS, min_size=1, max_size=3),
                           min_size=1, max_size=6),
           st.lists(st.tuples(CAND_WORDS, st.integers(0, 5)), min_size=1, max_size=4))
    def test_matches_the_per_gram_formulas_bit_for_bit(self, refs_by_image, scored):
        # the table precomputes idf for the n-grams of df only, and the dot
        # product skips the n-grams a reference lacks: neither may move a bit
        idf = IdfTable(refs_by_image)
        keys = sorted(refs_by_image)
        for cand, pick in scored:
            refs = refs_by_image[keys[pick % len(keys)]]
            assert cider_d(cand, refs, idf).hex() == reference_cider_d(cand, refs, idf).hex()
            grams = [g for order in range(1, 5) for g in ngram_counts(cand, order)]
            assert [idf.idf(g).hex() for g in grams] == [reference_idf(idf, g).hex()
                                                         for g in grams]

    def test_self_match_is_ten(self):
        refs = small_reference_set()
        idf = IdfTable(refs)
        for key, ref_list in refs.items():
            got = cider_d(list(ref_list[0]), ref_list, idf)
            assert got == pytest.approx(10.0, abs=1e-9)

    def test_disjoint_is_zero(self):
        refs = small_reference_set()
        idf = IdfTable(refs)
        assert cider_d(["p", "q", "r", "s"], refs[0], idf) == 0.0

    def test_length_penalty_factor(self):
        refs = small_reference_set()
        ref = refs[0][0]
        cand = list(ref) + ["x1", "x2", "x3", "x4", "x5", "x6"]  # delta = 6
        idf = IdfTable(refs)
        with_penalty = cider_d(cand, [ref], idf)
        cosine_only = oracle_cider(cand, [ref], refs, sigma=math.inf)
        assert cosine_only > 0
        assert with_penalty / cosine_only == pytest.approx(
            math.exp(-0.5), abs=1e-6)

    def test_matches_oracle_on_random_pairs(self):
        rnd = random.Random(99)
        alphabet = list("abcdefgh")
        refs_by_image = {
            i: [[rnd.choice(alphabet) for _ in range(rnd.randint(4, 9))]
                for _ in range(2)]
            for i in range(8)
        }
        idf = IdfTable(refs_by_image)
        for trial in range(20):
            cand = [rnd.choice(alphabet) for _ in range(rnd.randint(1, 10))]
            key = rnd.randint(0, 7)
            got = cider_d(cand, refs_by_image[key], idf)
            want = oracle_cider(cand, refs_by_image[key], refs_by_image)
            assert got == pytest.approx(want, abs=1e-9), f"trial {trial}"

    def test_unseen_gram_idf_falls_back(self):
        refs = small_reference_set()
        idf = IdfTable(refs)
        assert idf.idf(("never", "seen")) == pytest.approx(math.log(3))
        assert idf.idf(("a",)) == pytest.approx(math.log(3 / 3))

    def test_df_counts_once_per_image(self):
        refs = {0: [["a", "cat"], ["a", "cat"]], 1: [["a", "dog"]]}
        idf = IdfTable(refs)
        assert idf.df[("a", "cat")] == 1
        assert idf.df[("a",)] == 2

    def test_checksum_stable_and_sensitive(self):
        refs = small_reference_set()
        a = IdfTable(refs).checksum()
        b = IdfTable(refs).checksum()
        assert a == b and len(a) == 64
        refs[2] = [["something", "else", "entirely", "here"]]
        assert IdfTable(refs).checksum() != a

    def test_vectors_built_once_per_call_and_reference(self, monkeypatch):
        # self-critical training scores many candidates against the same
        # references: each candidate's n-grams are counted once per call,
        # each reference's once per table
        refs = small_reference_set()
        refs[0].append(["the", "red", "cat", "sits"])
        idf = IdfTable(refs)
        counted = record_counts(monkeypatch)
        cands = (["a", "cat", "on", "a", "mat"], ["a", "red", "dog"])
        scores = [cider_d(cand, refs[0], idf) for cand in cands]
        monkeypatch.undo()
        ref_keys = {(tuple(r), order) for r in refs[0] for order in range(1, 5)}
        assert sorted(b for b in counted if b in ref_keys) == sorted(ref_keys)
        assert sorted(b for b in counted if b not in ref_keys) == sorted(
            (tuple(c), order) for c in cands for order in range(1, 5))
        assert scores == [cider_d(cand, refs[0], IdfTable(refs)) for cand in cands]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IdfTable({})
        with pytest.raises(ValueError):
            cider_d(["a"], [], IdfTable(small_reference_set()))


# -- POS recall -----------------------------------------------------------


_TAGS = {"cat": "NN", "dog": "NN", "red": "ADJ", "on": "PREP",
         "watches": "VB", "two": "CD", "a": "DT"}


def _tag_of(word):
    return _TAGS.get(word, "OTHER")


class TestPosRecall:
    def test_hand_case(self):
        references = {
            1: [["a", "red", "cat", "on", "a", "dog"]],
            2: [["a", "cat", "watches", "a", "dog"]],
        }
        predictions = {
            1: ["a", "cat"],
            2: ["a", "cat", "watches", "a", "dog"],
        }
        got = pos_recall(predictions, references, _tag_of)
        assert got["noun"] == pytest.approx(75.0)        # (1/2 + 2/2) / 2
        assert got["adjective"] == pytest.approx(0.0)    # 'red' missed
        assert got["verb"] == pytest.approx(100.0)       # image 2 only
        assert got["preposition"] == pytest.approx(0.0)
        assert got["quantifier"] is None                 # no CD words anywhere

    def test_missing_prediction_counts_as_empty(self):
        references = {1: [["a", "cat"]]}
        got = pos_recall({}, references, _tag_of)
        assert got["noun"] == 0.0

    def test_gold_set_pools_all_references(self):
        references = {1: [["a", "cat"], ["a", "dog"]]}
        got = pos_recall({1: ["cat", "dog"]}, references, _tag_of)
        assert got["noun"] == pytest.approx(100.0)


# references draw from "abcd", candidates also from "xy"; no reference
# word is a preposition, so that class reads None
_LETTER_TAGS = {"a": "NN", "b": "ADJ", "c": "VB", "d": "CD", "x": "NN"}


def _letter_tag(word):
    return _LETTER_TAGS.get(word, "OTHER")


def hashed_report() -> dict:
    references = small_reference_set()
    references[0].append(["a", "red", "dog", "on", "a", "tree"])
    predictions = {0: ["a", "red", "cat", "on", "a", "tree"],
                   1: ["a", "blue", "dog", "under", "a", "mat"]}
    return evaluate_captions(predictions, references, _tag_of)


HASHED_REPORT = "from test_metrics import hashed_report; print(sorted(hashed_report().items()))"


class TestEvaluateCaptions:
    @SCORING
    @given(st.dictionaries(st.integers(0, 5), st.lists(REF_WORDS, min_size=1, max_size=3),
                           min_size=1, max_size=6),
           st.dictionaries(st.integers(0, 7), CAND_WORDS, max_size=8),
           st.integers(1, 4))
    # an empty and a one-token caption, a missing prediction, repeated
    # n-grams, and a caption that shares no n-gram with its references
    @example({0: [["a", "b"]], 1: [["a", "a", "b"], ["b", "a", "a"]], 2: [["c"]]},
             {0: [], 1: ["a", "a", "a", "b"]}, 4)
    @example({0: [["a", "b", "a", "b"]], 1: [["c", "d"], ["d", "c", "d"]]},
             {0: ["x", "y"], 1: ["d"]}, 2)
    def test_report_equals_the_reference_scorers(self, references, predictions, max_n):
        # one count per sentence moves no score, no idf and no bit
        assert evaluate_captions(predictions, references, _letter_tag, max_n) == \
            reference_evaluate_captions(predictions, references, _letter_tag, max_n)

    @SCORING
    @given(CAND_WORDS, st.integers(1, 5))
    def test_ngram_counts_equal_the_slicing_count(self, tokens, n):
        # the same counts, in the same first-occurrence order
        assert list(ngram_counts(tokens, n).items()) == \
            list(reference_ngram_counts(tokens, n).items())

    def test_a_report_counts_each_sentence_once(self, monkeypatch):
        references = small_reference_set()
        references[0].append(["a", "blue", "dog", "under", "a", "tree"])   # image 1's
        references[2].append(["a", "red", "cat"])
        predictions = {0: ["a", "red", "cat"], 1: ["a", "dog"]}         # image 2's missing
        counted, tagged = record_counts(monkeypatch), []

        def tag_of(word):
            tagged.append(word)
            return _tag_of(word)

        evaluate_captions(predictions, references, tag_of, max_n=3)
        monkeypatch.undo()
        sentences = {tuple(r) for refs in references.values() for r in refs}
        sentences |= {tuple(p) for p in predictions.values()} | {()}
        assert Counter(counted) == {(s, n): 1 for s in sentences for n in (1, 2, 3)}
        assert Counter(tagged) == {w: 1 for refs in references.values() for r in refs
                                   for w in r}

    def test_perfect_predictions(self):
        references = small_reference_set()
        predictions = {k: list(v[0]) for k, v in references.items()}
        report = evaluate_captions(predictions, references, _tag_of)
        assert report["cider_d"] == pytest.approx(10.0, abs=1e-9)
        assert report["bleu4"] == pytest.approx(1.0)
        assert report["bleu1"] == pytest.approx(1.0)
        assert report["n_images"] == 3
        assert len(report["idf_checksum"]) == 64

    def test_report_does_not_depend_on_the_hash_seed(self):
        # the document frequencies are counted from sets: no score may
        # follow their order
        root = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"),
                                                            str(root / "tests")])}
        reports = [subprocess.run([sys.executable, "-c", HASHED_REPORT], capture_output=True,
                                  text=True, check=True, env={**env, "PYTHONHASHSEED": seed}
                                  ).stdout for seed in ("0", "1")]
        assert reports[0] == reports[1] == repr(sorted(hashed_report().items())) + "\n"
        assert 0.0 < hashed_report()["cider_d"] and 0.0 < hashed_report()["bleu4"]

    def test_deterministic(self):
        references = small_reference_set()
        predictions = {0: ["a", "red", "cat"], 1: ["a", "dog"]}
        a = evaluate_captions(predictions, references, _tag_of)
        b = evaluate_captions(predictions, references, _tag_of)
        assert a == b

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            evaluate_captions({}, {}, _tag_of)
