"""Evaluation suite: vocabulary statistics, repetition rate, out-of-reference
analysis, retrieval recall, consensus score, and report assembly.

The retrieval scorer is a deterministic tf-idf oracle: each image is
represented by the bag of its attribute tokens plus all of its reference
tokens, captions are scored against every image document by cosine
similarity, and R@K is the percentage of captions whose own image ranks
within K (ties resolved toward the lower image id).  It stands in for a
pretrained cross-modal retrieval model and rewards exactly the behavior
under study: mentioning image-specific low-frequency content.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cider import CiderCorpusStats, cider_d
from .corpus import Dataset, Vocabulary, mapped_references


@dataclass
class MetricsReport:
    unique_1: int
    unique_s: int
    mean_length: float
    cider: float
    rep: float
    r_at: dict[int, float]
    oor_count: int
    oor_mean_rank: float
    oor_rank_defined: bool = True

    def as_dict(self) -> dict:
        row = {
            "unique_1": self.unique_1,
            "unique_s": self.unique_s,
            "mean_length": self.mean_length,
            "cider": self.cider,
            "rep": self.rep,
            "oor_count": self.oor_count,
            "oor_mean_rank": self.oor_mean_rank,
            "oor_rank_defined": self.oor_rank_defined,
        }
        for k in sorted(self.r_at):
            row[f"r_at_{k}"] = self.r_at[k]
        return row

    def format_table(self) -> str:
        rows = [(key, f"{val:.4f}" if isinstance(val, float) else str(val))
                for key, val in self.as_dict().items()]
        width = max(len(key) for key, _ in rows)
        return "\n".join(f"{key.ljust(width)}  {val}" for key, val in rows)


def vocab_stats(captions: Sequence[Sequence[str]], vocab: Vocabulary) -> tuple[int, int, float]:
    """(unique unigrams, unique sentences, mean token length).

    Special tokens are excluded from the unigram count and from lengths;
    sentences are compared as exact token sequences.
    """
    specials = {vocab.tokens[i] for i in range(vocab.n_words, len(vocab))}
    unigrams = set()
    sentences = set()
    total_len = 0
    n = 0
    for caption in captions:
        words = [tok for tok in caption if tok not in specials]
        unigrams.update(words)
        sentences.add(tuple(caption))
        total_len += len(words)
        n += 1
    mean_length = total_len / n if n else 0.0
    return len(unigrams), len(sentences), mean_length


def repetition_rate(captions: Sequence[Sequence[str]], n_max: int = 4) -> float:
    """Mean over captions and n-gram orders of (1 - unique/total n-grams).

    Orders with zero n-grams (captions shorter than n) contribute 0.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not captions:
        return 0.0
    total = 0.0
    for caption in captions:
        for n in range(1, n_max + 1):
            grams = [tuple(caption[i : i + n]) for i in range(len(caption) - n + 1)]
            if grams:
                total += 1.0 - len(set(grams)) / len(grams)
    return total / (len(captions) * n_max)


def oor_analysis(captions: Sequence[Sequence[str]], references: Sequence[Sequence[Sequence[str]]],
                 vocab: Vocabulary) -> tuple[int, float, bool]:
    """Count output tokens absent from every reference of their own image and
    average their training-frequency ranks.

    Tokens without a rank (specials, e.g. <unk>) count toward the total but
    are excluded from the mean.  When no ranked token is out-of-reference the
    mean is reported as 0 with the defined flag cleared.
    """
    if len(captions) != len(references):
        raise ValueError("captions and references must align one-to-one")
    count = 0
    rank_sum = 0
    ranked = 0
    for caption, refs in zip(captions, references):
        ref_words = set()
        for ref in refs:
            ref_words.update(ref)
        for token in caption:
            if token in ref_words:
                continue
            count += 1
            token_id = vocab.id_of.get(token)
            if token_id is not None and not vocab.is_special_id(token_id):
                rank_sum += vocab.frequency_rank(token)
                ranked += 1
    if ranked == 0:
        return count, 0.0, False
    return count, rank_sum / ranked, True


def _document_vectors(dataset: Dataset) -> tuple[list[Counter], dict[str, float]]:
    docs = []
    for rec in dataset.records:
        bag = Counter(sorted(rec.attributes))
        for ref in rec.references:
            bag.update(ref)
        docs.append(bag)
    n_docs = len(docs)
    doc_count = Counter()
    for bag in docs:
        doc_count.update(set(bag))
    idf = {word: math.log((1 + n_docs) / (1 + df)) + 1.0 for word, df in doc_count.items()}
    return docs, idf


def rk_retrieval(captions: Sequence[Sequence[str]], dataset: Dataset,
                 ks: Sequence[int] = (1, 5, 10)) -> dict[int, float]:
    """Caption-to-image retrieval recall over the whole split.

    Exactly one caption per record, aligned with ``dataset.records``.
    """
    if len(captions) != len(dataset.records):
        raise ValueError(
            f"{len(captions)} captions for {len(dataset.records)} images")
    docs, idf = _document_vectors(dataset)
    words = sorted(idf)
    word_index = {word: i for i, word in enumerate(words)}
    doc_matrix = np.zeros((len(docs), len(words)))
    for row, bag in enumerate(docs):
        for word, tf in bag.items():
            doc_matrix[row, word_index[word]] = tf * idf[word]
    doc_norms = np.linalg.norm(doc_matrix, axis=1)
    doc_norms[doc_norms == 0.0] = 1.0
    doc_matrix /= doc_norms[:, None]
    ids = np.array([rec.id for rec in dataset.records])

    ranks = np.empty(len(captions), dtype=np.int64)
    for i, caption in enumerate(captions):
        vec = np.zeros(len(words))
        for word, tf in Counter(caption).items():
            col = word_index.get(word)
            if col is not None:
                vec[col] = tf * idf[word]
        scores = doc_matrix @ vec  # caption norm does not affect the ranking
        own = scores[i]
        better = int((scores > own).sum())
        tied_lower = int(((scores == own) & (ids < ids[i])).sum())
        ranks[i] = 1 + better + tied_lower
    return {int(k): float(100.0 * (ranks <= k).mean()) for k in ks}


def evaluate(captions: Sequence[Sequence[str]], dataset: Dataset, vocab: Vocabulary,
             stats: CiderCorpusStats, ks: Sequence[int] = (1, 5, 10),
             rep_n: int = 4) -> MetricsReport:
    """Assemble the full report for one caption per image, aligned with
    ``dataset.records``."""
    if len(captions) != len(dataset.records):
        raise ValueError(
            f"{len(captions)} captions for {len(dataset.records)} images")
    refs_by_id = mapped_references(vocab, dataset.records)
    mapped_refs = [refs_by_id[rec.id] for rec in dataset.records]
    unique_1, unique_s, mean_length = vocab_stats(captions, vocab)
    rep = repetition_rate(captions, rep_n)
    cider_scores = [
        cider_d(caption, refs, stats) for caption, refs in zip(captions, mapped_refs)
    ]
    oor_count, oor_rank, oor_defined = oor_analysis(captions, mapped_refs, vocab)
    r_at = rk_retrieval(captions, dataset, ks)
    return MetricsReport(
        unique_1=unique_1,
        unique_s=unique_s,
        mean_length=mean_length,
        cider=float(np.mean(cider_scores)) if cider_scores else 0.0,
        rep=rep,
        r_at=r_at,
        oor_count=oor_count,
        oor_mean_rank=oor_rank,
        oor_rank_defined=oor_defined,
    )
