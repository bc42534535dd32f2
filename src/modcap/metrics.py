"""Caption quality metrics: BLEU, CIDEr-D, and per-class word recall.

All functions work on token lists (already split).  CIDEr-D needs
corpus-level document frequencies, so those live in an ``IdfTable`` built
once from the evaluation references and passed in; the table exposes a
checksum so runs can assert they scored against the same statistics.

A report (``evaluate_captions``) counts each distinct sentence's n-grams
once per order, in one table that every score reads: the document
frequencies, the tf-idf vectors of references and candidates, and
BLEU's clipped counts.  It also tags each reference word once.  The
table lives for that one call; an ``IdfTable`` keeps only its document
frequencies and the reference vectors CIDEr-D asked it for.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter

DEFAULT_MAX_N = 4
CIDER_SIGMA = 6.0


def ngram_counts(tokens, n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _orders(tokens, max_n: int) -> list:
    """The n-gram counts of ``tokens`` for orders 1..max_n."""
    return [ngram_counts(tokens, n) for n in range(1, max_n + 1)]


class _Memo(dict):
    """key -> make(key), made on the first lookup of the key."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _counts_table(max_n: int) -> _Memo:
    """A tuple of tokens -> its n-gram counts of orders 1..max_n, each
    distinct sentence counted once."""
    return _Memo(lambda tokens: _orders(tokens, max_n))


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


def _clipped_counts(cand: list, refs: list) -> list:
    """Per order, (clipped matches, total) of a candidate's n-grams, from
    the per-order counts of the candidate and of each of its references:
    each n-gram counts at most as often as in the reference that holds it
    most often."""
    out = []
    for k, grams in enumerate(cand):
        held = [ref[k] for ref in refs]
        out.append((sum(min(c, max([r.get(g, 0) for r in held])) for g, c in grams.items()),
                    sum(grams.values())))
    return out


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
    for clipped, total in _clipped_counts(_orders(candidate, n),
                                          [_orders(r, n) for r in references]):
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
    return _pooled_bleu(candidates, references_list, _counts_table(max_n), max_n)


def _pooled_bleu(candidates, references_list, counts: _Memo, max_n: int) -> list:
    """``corpus_bleu_orders`` reading each sentence's n-grams from ``counts``."""
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
        for k, (matched, total) in enumerate(_clipped_counts(
                counts[tuple(cand)], [counts[tuple(r)] for r in refs])):
            clipped[k] += matched
            totals[k] += total
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
        # each reference's counts go as soon as they are read: a table that
        # lives for a whole run holds none of them
        self._count(references_by_image, lambda ref: _orders(ref, max_n), max_n)

    @classmethod
    def _counted(cls, references_by_image: dict, counts: _Memo, max_n: int) -> IdfTable:
        """The table of ``references_by_image``, its n-grams read from ``counts``."""
        table = cls.__new__(cls)
        table._count(references_by_image, lambda ref: counts[tuple(ref)], max_n)
        return table

    def _count(self, references_by_image: dict, orders_of, max_n: int) -> None:
        if not references_by_image:
            raise ValueError("idf table needs at least one image")
        self.max_n = max_n
        self.n_images = len(references_by_image)
        self.df: Counter = Counter()
        for refs in references_by_image.values():
            seen = set()
            for ref in refs:
                for grams in orders_of(ref):
                    seen.update(grams)
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
            vectors = self._ref_vectors[key] = self.vectors(_orders(ref, max_n))
        return vectors

    def vectors(self, counts: list) -> list:
        """(tf-idf vector, norm) of each order's n-gram counts, the vector
        keyed on the table's own tuple of each n-gram it holds, not on a
        fresh copy."""
        own, idf, unseen = self._grams.get, self._idf.get, self._unseen
        out = []
        for grams in counts:
            vec = {own(g, g): c * idf(g, unseen) for g, c in grams.items()}
            out.append((vec, math.sqrt(sum(w * w for w in vec.values()))))
        return out

    def checksum(self) -> str:
        payload = {
            "n_images": self.n_images,
            "max_n": self.max_n,
            "df": sorted((" ".join(g), c) for g, c in self.df.items()),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def cider_d(candidate, references, idf: IdfTable,
            sigma: float = CIDER_SIGMA, max_n: int = DEFAULT_MAX_N) -> float:
    """Consensus score: clipped tf-idf cosine per order, Gaussian length
    penalty, averaged over orders then references, scaled by 10."""
    return _consensus(len(candidate), idf.vectors(_orders(candidate, max_n)),
                      [(len(r), idf.reference_vectors(r, max_n)) for r in references],
                      sigma, max_n)


def _consensus(cand_len: int, cand: list, refs: list, sigma: float, max_n: int) -> float:
    """CIDEr-D of a candidate's length and per-order (vector, norm) against
    each reference's (length, per-order (vector, norm))."""
    if not refs:
        raise ValueError("cider_d needs at least one reference")
    per_order_sum = [0.0] * max_n
    for ref_len, ref_vectors in refs:
        penalty = math.exp(-((cand_len - ref_len) ** 2) / (2.0 * sigma * sigma))
        for k, ((cand_vec, cand_norm), (ref_vec, ref_norm)) in enumerate(
                zip(cand, ref_vectors)):
            if cand_norm == 0.0 or ref_norm == 0.0:
                continue
            # an n-gram the reference lacks adds an exact zero: skip it
            dot = sum(min(w, r) * r for g, w in cand_vec.items()
                      if (r := ref_vec.get(g)) is not None)
            per_order_sum[k] += penalty * dot / (cand_norm * ref_norm)
    mean_over_orders = sum(per_order_sum) / max_n
    return 10.0 * mean_over_orders / len(refs)


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
    Each distinct word is tagged once.
    """
    tags = _Memo(tag_of)
    sums = {name: 0.0 for name in POS_CLASSES}
    counts = {name: 0 for name in POS_CLASSES}
    for key, refs in references.items():
        pred_words = set(predictions.get(key, ()))
        words = {w for ref in refs for w in ref}
        for name, classes in POS_CLASSES.items():
            gold = {w for w in words if tags[w] in classes}
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
    missing predictions score as empty captions.  Every sentence's
    n-grams are counted once, and its tf-idf vectors built once from
    them, in tables that go with the call.
    """
    if not references:
        raise ValueError("nothing to evaluate")
    counts = _counts_table(max_n)
    idf = IdfTable._counted(references, counts, max_n)
    keys = sorted(references)
    cands = [tuple(predictions.get(k, ())) for k in keys]
    refs_list = [[tuple(r) for r in references[k]] for k in keys]
    bleu = _pooled_bleu(cands, refs_list, counts, max_n)
    cider = _mean_cider_d(cands, refs_list, counts, idf, max_n)
    report = {
        "n_images": len(keys),
        "idf_checksum": idf.checksum(),
        "cider_d": cider,
        "pos_recall": pos_recall(predictions, references, tag_of),
    }
    for order, score in enumerate(bleu, start=1):
        report[f"bleu{order}"] = score
    return report


def _mean_cider_d(cands: list, refs_list: list, counts: _Memo, idf: IdfTable,
                  max_n: int) -> float:
    """The mean CIDEr-D of the candidates, with each sentence's vectors
    built once from ``counts``, which it empties: a sentence's counts go
    as its vectors come."""
    vectors = {}
    while counts:
        tokens, grams = counts.popitem()
        vectors[tokens] = idf.vectors(grams)
    return sum(_consensus(len(c), vectors[c], [(len(r), vectors[r]) for r in refs],
                          CIDER_SIGMA, max_n)
               for c, refs in zip(cands, refs_list)) / len(cands)
