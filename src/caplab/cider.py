"""Consensus n-gram reward: clipped tf-idf cosine over 1..4-grams with a
Gaussian length penalty, scaled to [0, 10].

Document frequencies are built once from the training references.  An n-gram
with no document-frequency entry carries zero weight, so candidate tokens
unseen in the reference corpus influence the score only through the length
penalty.

Each reference's tf-idf vectors and norms are memoized on the statistics
object, keyed by the reference's token tuple, the first time ``cider_d``
scores against it: an SCST step scores every reference once per rollout,
and a multi-epoch run or a fine-tune sweep scores the same references at
every pass.  The cache lives as long as the ``CiderCorpusStats`` object and
is only correct for the statistics it was filled under, so do not mutate
the statistics after ``build_cider_stats``; build a new object instead.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Sequence


def ngram_counts(tokens: Sequence[str], n_max: int) -> Counter:
    counts = Counter()
    for n in range(1, n_max + 1):
        for i in range(len(tokens) - n + 1):
            counts[tuple(tokens[i : i + n])] += 1
    return counts


@dataclass
class CiderCorpusStats:
    """Per-n-gram document frequency over the reference corpus, plus the
    memoized tf-idf vectors of every reference scored so far."""

    doc_freq: dict = field(default_factory=dict)
    log_num_images: float = 0.0
    n_max: int = 4
    sigma: float = 6.0
    ref_vectors: dict = field(default_factory=dict, repr=False, compare=False)


def build_cider_stats(reference_sets: Sequence[Sequence[Sequence[str]]],
                      n_max: int = 4, sigma: float = 6.0) -> CiderCorpusStats:
    """Count, for each n-gram, the number of images whose references contain it."""
    if len(reference_sets) == 0:
        raise ValueError("cannot build corpus statistics from zero reference sets")
    doc_freq: dict = defaultdict(int)
    for refs in reference_sets:
        seen = set()
        for ref in refs:
            seen.update(ngram_counts(ref, n_max).keys())
        for ngram in seen:
            doc_freq[ngram] += 1
    return CiderCorpusStats(
        doc_freq=dict(doc_freq),
        log_num_images=math.log(len(reference_sets)),
        n_max=n_max,
        sigma=sigma,
    )


def _tfidf_vectors(tokens: Sequence[str], stats: CiderCorpusStats):
    """Per-n tf-idf vectors and their norms; idf = log(N / df)."""
    vecs = [dict() for _ in range(stats.n_max)]
    norms = [0.0] * stats.n_max
    for ngram, tf in ngram_counts(tokens, stats.n_max).items():
        df = stats.doc_freq.get(ngram)
        if df is None:
            continue
        weight = tf * (stats.log_num_images - math.log(df))
        slot = len(ngram) - 1
        vecs[slot][ngram] = weight
        norms[slot] += weight * weight
    return vecs, [math.sqrt(v) for v in norms]


def cider_d(candidate: Sequence[str], references: Sequence[Sequence[str]],
            stats: CiderCorpusStats) -> float:
    """Score a candidate against the references of one image.

    Per n, the candidate tf-idf vector is clipped elementwise to the
    reference vector before the cosine; each reference similarity is damped
    by exp(-(len_c - len_r)^2 / (2 sigma^2)).  Similarities are averaged
    over references, then over n, then multiplied by 10.
    """
    if len(references) == 0:
        raise ValueError("need at least one reference")
    if len(candidate) == 0:
        return 0.0
    cand_vecs, cand_norms = _tfidf_vectors(candidate, stats)
    cache = stats.ref_vectors
    totals = [0.0] * stats.n_max
    for ref in references:
        key = tuple(ref)
        cached = cache.get(key)
        if cached is None:
            cached = cache[key] = _tfidf_vectors(ref, stats)
        ref_vecs, ref_norms = cached
        delta = float(len(candidate) - len(ref))
        penalty = math.exp(-(delta * delta) / (2.0 * stats.sigma**2))
        for slot in range(stats.n_max):
            dot = 0.0
            ref_vec = ref_vecs[slot]
            for ngram, weight in cand_vecs[slot].items():
                ref_weight = ref_vec.get(ngram, 0.0)
                dot += min(weight, ref_weight) * ref_weight
            if cand_norms[slot] != 0.0 and ref_norms[slot] != 0.0:
                dot /= cand_norms[slot] * ref_norms[slot]
            else:
                dot = 0.0
            totals[slot] += penalty * dot
    per_n = [total / len(references) for total in totals]
    return 10.0 * sum(per_n) / stats.n_max
