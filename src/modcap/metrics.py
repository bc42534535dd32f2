"""Caption quality metrics: BLEU, CIDEr-D, and per-class word recall.

All functions work on token lists (already split).  CIDEr-D needs
corpus-level document frequencies, so those live in an ``IdfTable`` built
once from the evaluation references and passed in; the table exposes a
checksum so runs can assert they scored against the same statistics.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter

DEFAULT_MAX_N = 4
CIDER_SIGMA = 6.0


def ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _closest_ref_length(cand_len: int, references) -> int:
    """Reference length nearest the candidate; ties go to the shorter one."""
    return min((len(r) for r in references),
               key=lambda rl: (abs(rl - cand_len), rl))


def _brevity_penalty(cand_len: int, ref_len: int) -> float:
    if cand_len == 0:
        return 0.0
    if cand_len > ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / cand_len)


def _clipped_counts(candidate, references, order: int) -> tuple[int, int]:
    """(clipped matches, total) of the candidate's n-grams of one order:
    each n-gram counts at most as often as in the reference that holds it
    most often."""
    cand = ngram_counts(candidate, order)
    best = Counter()
    for ref in references:
        for gram, count in ngram_counts(ref, order).items():
            if count > best[gram]:
                best[gram] = count
    return sum(min(c, best[g]) for g, c in cand.items()), sum(cand.values())


def bleu_n(candidate, references, n: int = DEFAULT_MAX_N) -> float:
    """Sentence BLEU with clipped counts and no smoothing.

    Any order with zero matches (or too few tokens to form an n-gram)
    zeroes the whole score, which is the honest reading for short
    synthetic captions; corpus_bleu is the aggregate variant that
    smooths nothing away either but pools counts before the ratio.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not references:
        raise ValueError("bleu_n needs at least one reference")
    log_sum = 0.0
    for order in range(1, n + 1):
        clipped, total = _clipped_counts(candidate, references, order)
        if total == 0 or clipped == 0:
            return 0.0
        log_sum += math.log(clipped / total)
    bp = _brevity_penalty(len(candidate), _closest_ref_length(len(candidate), references))
    return bp * math.exp(log_sum / n)


def corpus_bleu(candidates, references_list, n: int = DEFAULT_MAX_N) -> float:
    """Corpus BLEU: counts pooled across sentences before the precision ratio."""
    return corpus_bleu_orders(candidates, references_list, n)[-1]


def corpus_bleu_orders(candidates, references_list, max_n: int = DEFAULT_MAX_N) -> list:
    """Corpus BLEU-1 to BLEU-``max_n`` from one pooled count of every order."""
    if len(candidates) != len(references_list):
        raise ValueError(
            f"{len(candidates)} candidates vs {len(references_list)} reference sets")
    if not candidates:
        raise ValueError("corpus_bleu needs at least one sentence")
    clipped = [0] * max_n
    totals = [0] * max_n
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(candidates, references_list):
        if not refs:
            raise ValueError("every candidate needs at least one reference")
        cand_len += len(cand)
        ref_len += _closest_ref_length(len(cand), refs)
        for order in range(1, max_n + 1):
            matched, total = _clipped_counts(cand, refs, order)
            clipped[order - 1] += matched
            totals[order - 1] += total
    penalty = _brevity_penalty(cand_len, ref_len)
    scores = []
    log_sum = 0.0
    for order in range(max_n):
        if clipped[order] == 0 or totals[order] == 0:
            return scores + [0.0] * (max_n - order)
        log_sum += math.log(clipped[order] / totals[order])
        scores.append(penalty * math.exp(log_sum / (order + 1)))
    return scores


class IdfTable:
    """Document frequencies over the reference corpus.

    A "document" is one image: an n-gram counts once per image no matter
    how many of that image's references contain it.  The idf,
    log(n_images / df), is computed once per n-gram of ``df``; an n-gram
    never seen in the references falls back to log(n_images), the same
    value as a frequency of one.  The table also keeps the tf-idf vectors
    of the references it has scored against, because self-critical
    training scores every scene against the same references again and
    again.
    """

    def __init__(self, references_by_image: dict, max_n: int = DEFAULT_MAX_N):
        if not references_by_image:
            raise ValueError("idf table needs at least one image")
        self.max_n = max_n
        self.n_images = len(references_by_image)
        self.df: Counter = Counter()
        for refs in references_by_image.values():
            seen = set()
            for ref in refs:
                for order in range(1, max_n + 1):
                    seen.update(ngram_counts(ref, order))
            self.df.update(seen)
        self._idf = {g: math.log(self.n_images / d) for g, d in self.df.items()}
        self._unseen = math.log(self.n_images)
        self._grams = dict(zip(self.df, self.df))   # each n-gram's one tuple
        self._ref_vectors: dict = {}

    def idf(self, gram) -> float:
        return self._idf.get(gram, self._unseen)

    def reference_vectors(self, ref, max_n: int) -> list:
        """(vector, norm) of ``ref`` for orders 1..max_n, built once."""
        key = (tuple(ref), max_n)
        vectors = self._ref_vectors.get(key)
        if vectors is None:
            vectors = [_tfidf_vector(ref, order, self) for order in range(1, max_n + 1)]
            self._ref_vectors[key] = vectors
        return vectors

    def checksum(self) -> str:
        payload = {
            "n_images": self.n_images,
            "max_n": self.max_n,
            "df": sorted((" ".join(g), c) for g, c in self.df.items()),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _tfidf_vector(tokens, order: int, idf: IdfTable):
    """(tf-idf vector, norm) of the n-grams of one order, keyed on the
    table's own tuple of each n-gram it holds, not on a fresh copy."""
    vec = {idf._grams.get(g, g): c * idf.idf(g) for g, c in ngram_counts(tokens, order).items()}
    norm = math.sqrt(sum(w * w for w in vec.values()))
    return vec, norm


def cider_d(candidate, references, idf: IdfTable,
            sigma: float = CIDER_SIGMA, max_n: int = DEFAULT_MAX_N) -> float:
    """Consensus score: clipped tf-idf cosine per order, Gaussian length
    penalty, averaged over orders then references, scaled by 10."""
    if not references:
        raise ValueError("cider_d needs at least one reference")
    per_order_sum = [0.0] * max_n
    cand = [_tfidf_vector(candidate, order, idf) for order in range(1, max_n + 1)]
    for ref in references:
        penalty = math.exp(-((len(candidate) - len(ref)) ** 2) / (2.0 * sigma * sigma))
        for k, ((cand_vec, cand_norm), (ref_vec, ref_norm)) in enumerate(
                zip(cand, idf.reference_vectors(ref, max_n))):
            if cand_norm == 0.0 or ref_norm == 0.0:
                continue
            # an n-gram the reference lacks adds an exact zero: skip it
            dot = sum(min(w, r) * r for g, w in cand_vec.items()
                      if (r := ref_vec.get(g)) is not None)
            per_order_sum[k] += penalty * dot / (cand_norm * ref_norm)
    mean_over_orders = sum(per_order_sum) / max_n
    return 10.0 * mean_over_orders / len(references)


POS_CLASSES = {
    "noun": ("NN",),
    "adjective": ("ADJ",),
    "verb": ("VB",),
    "preposition": ("PREP",),
    "quantifier": ("CD",),
}


def pos_recall(predictions: dict, references: dict, tag_of) -> dict:
    """Per-class recall of reference words, as percentages.

    For each image and word class, the gold set is every reference word
    of that class; recall is the fraction the prediction mentions.
    Images whose references contain no word of a class do not count
    toward that class; a class absent from the whole corpus maps to None.
    """
    sums = {name: 0.0 for name in POS_CLASSES}
    counts = {name: 0 for name in POS_CLASSES}
    for key, refs in references.items():
        pred_words = set(predictions.get(key, ()))
        for name, tags in POS_CLASSES.items():
            gold = {w for ref in refs for w in ref if tag_of(w) in tags}
            if not gold:
                continue
            counts[name] += 1
            sums[name] += len(gold & pred_words) / len(gold)
    return {name: (100.0 * sums[name] / counts[name] if counts[name] else None)
            for name in POS_CLASSES}


def evaluate_captions(predictions: dict, references: dict, tag_of,
                      max_n: int = DEFAULT_MAX_N) -> dict:
    """Full report for a prediction set.

    predictions: image key -> token list.  references: image key -> list
    of token lists.  Only keys present in the references are scored;
    missing predictions score as empty captions.
    """
    if not references:
        raise ValueError("nothing to evaluate")
    idf = IdfTable(references, max_n=max_n)
    keys = sorted(references)
    cands = [list(predictions.get(k, ())) for k in keys]
    refs_list = [references[k] for k in keys]
    report = {
        "n_images": len(keys),
        "idf_checksum": idf.checksum(),
        "cider_d": sum(cider_d(c, r, idf, max_n=max_n)
                       for c, r in zip(cands, refs_list)) / len(keys),
        "pos_recall": pos_recall(predictions, references, tag_of),
    }
    for order, score in enumerate(corpus_bleu_orders(cands, refs_list, max_n), start=1):
        report[f"bleu{order}"] = score
    return report
