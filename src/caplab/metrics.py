"""Evaluation suite: vocabulary statistics, repetition rate, out-of-reference
analysis, retrieval recall, consensus score, and report assembly.

The retrieval scorer is a deterministic tf-idf oracle: each image is
represented by the bag of its attribute tokens plus all of its reference
tokens, captions are scored against every image document by cosine
similarity, and R@K is the percentage of captions whose own image ranks
within K (ties resolved toward the lower image id).  It stands in for a
pretrained cross-modal retrieval model and rewards exactly the behavior
under study: mentioning image-specific low-frequency content.  All
captions are ranked in one product of their tf-idf matrix with the document
matrix; near ties are rechecked on exactly rounded sums.

What scoring a split needs from the split alone is built the first time the
split is scored and kept: the retrieval index (the L2-normalized tf-idf
document matrix), each image's set of reference words, and the CIDEr-D
reference table (see ``cider.reference_table``) that ``evaluate`` passes to
the scorer, the latter two over the references mapped into the vocabulary.
They are keyed weakly on the ``Dataset`` object, so they die with the split,
and are rebuilt when a call passes another vocabulary or statistics object
than the one they were built for.  A split must therefore not be modified
after it is first scored; build a new ``Dataset`` instead.
"""

from __future__ import annotations

import math
import weakref
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .cider import CiderCorpusStats, ReferenceTable, cider_d_batch, reference_table
from .cider import cider_d  # noqa: F401  -- perfbench's tracer test looks up metrics.cider_d
from .corpus import Dataset, ImageRecord, Vocabulary, mapped_references


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


def _oor_counts(captions: Sequence[Sequence[str]], ref_words: Sequence[set],
                vocab: Vocabulary) -> tuple[int, float, bool]:
    """Count output tokens absent from their own image's set of reference
    words and average their training-frequency ranks.

    Tokens without a rank (specials, e.g. <unk>) count toward the total but
    are excluded from the mean.  When no ranked token is out-of-reference the
    mean is reported as 0 with the defined flag cleared.
    """
    count = 0
    rank_sum = 0
    ranked = 0
    for caption, words in zip(captions, ref_words):
        for token in caption:
            if token in words:
                continue
            count += 1
            token_id = vocab.id_of.get(token)
            if token_id is not None and not vocab.is_special_id(token_id):
                rank_sum += vocab.frequency_rank(token)
                ranked += 1
    if ranked == 0:
        return count, 0.0, False
    return count, rank_sum / ranked, True


class _RetrievalIndex(NamedTuple):
    """A split's tf-idf documents: the bag of an image's attribute tokens plus
    all of its reference tokens, in lowest terms (its counts divided by their
    gcd).  Images whose bags are equal in lowest terms share one column."""

    word_index: dict        # document word -> row of docs_t, words sorted
    idf: np.ndarray         # (words,) log((1 + N) / (1 + df)) + 1
    docs_t: np.ndarray      # (words, columns) L2-normalized distinct document vectors
    doc_column: np.ndarray  # (docs,) each image's column of docs_t
    ids: np.ndarray         # (docs,) image ids


def _retrieval_index(records: Sequence[ImageRecord]) -> _RetrievalIndex:
    bags = []
    for rec in records:
        bag = Counter(rec.attributes)
        for ref in rec.references:
            bag.update(ref)
        bags.append(bag)
    doc_count = Counter(word for bag in bags for word in bag)
    words = sorted(doc_count)
    word_index = {word: i for i, word in enumerate(words)}
    n_docs = len(bags)
    idf = np.array([math.log((1 + n_docs) / (1 + doc_count[word])) + 1.0 for word in words])
    columns: dict[frozenset, int] = {}  # (word row, count) terms in lowest terms -> column
    doc_column = []
    for bag in bags:
        divisor = math.gcd(*bag.values()) or 1
        terms = frozenset((word_index[word], count // divisor) for word, count in bag.items())
        doc_column.append(columns.setdefault(terms, len(columns)))
    tf = np.zeros((len(columns), len(words)))
    for column, terms in enumerate(columns):
        for row, count in terms:
            tf[column, row] = count
    docs = tf * idf
    norms = np.linalg.norm(docs, axis=1)
    norms[norms == 0.0] = 1.0
    docs /= norms[:, None]
    return _RetrievalIndex(word_index, idf, np.ascontiguousarray(docs.T), np.array(doc_column),
                           np.array([rec.id for rec in records]))


@dataclass(eq=False)
class _SplitContext:
    """What scoring a split needs from the split; the fields after
    ``retrieval`` are built for one vocabulary and one statistics object,
    the one ``cider_table`` carries."""

    retrieval: _RetrievalIndex
    vocab: Vocabulary | None = None
    ref_words: list | None = None              # per image: its mapped reference words
    cider_table: ReferenceTable | None = None  # the split's mapped reference sets


_contexts: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # Dataset -> _SplitContext


def _split_context(dataset: Dataset) -> _SplitContext:
    context = _contexts.get(dataset)
    if context is None:
        context = _contexts[dataset] = _SplitContext(_retrieval_index(dataset.records))
    return context


def _scoring_context(dataset: Dataset, vocab: Vocabulary,
                     stats: CiderCorpusStats) -> _SplitContext:
    context = _split_context(dataset)
    if context.vocab is not vocab or context.cider_table.stats is not stats:
        refs = mapped_references(vocab, dataset.records)
        context.cider_table = reference_table(refs, stats)
        context.ref_words = [set().union(*image_refs) for image_refs in refs]
        context.vocab = vocab
    return context


def rk_retrieval(captions: Sequence[Sequence[str]], dataset: Dataset,
                 ks: Sequence[int] = (1, 5, 10)) -> dict[int, float]:
    """Caption-to-image retrieval recall over the whole split.

    Exactly one caption per record, aligned with ``dataset.records``.
    Each document's term counts are divided by their gcd before weighting,
    and documents equal in lowest terms (identical bags, or one bag three
    times another) share one column of the product, so they tie exactly
    with every caption, whatever order the product sums in.  Other documents
    whose scores lie within rounding of the caption's own are ranked on the
    exactly rounded sums (``math.fsum``) of their terms.
    """
    if len(captions) != len(dataset.records):
        raise ValueError(
            f"{len(captions)} captions for {len(dataset.records)} images")
    index = _split_context(dataset).retrieval
    tokens = [word for caption in captions for word in caption]
    cols = np.fromiter(map(index.word_index.get, tokens, repeat(-1)), dtype=np.int64,
                       count=len(tokens))
    rows = np.repeat(np.arange(len(captions)), [len(caption) for caption in captions])
    known = cols >= 0
    # only the document words some caption holds; the rest add nothing
    used, col = np.unique(cols[known], return_inverse=True)
    tf = np.bincount(rows[known] * len(used) + col, minlength=len(captions) * len(used))
    queries = tf.reshape(len(captions), len(used)) * index.idf[used]
    docs = index.docs_t[used]
    # caption norms do not affect the ranking
    scores = (queries @ docs)[:, index.doc_column]
    own = np.diagonal(scores)[:, None]
    order = np.sign(scores - own)
    # Every term is >= 0, so a score differs from the exactly rounded sum of
    # its terms by at most about len(used) unit roundoffs relative to its
    # size, and two documents that tie exactly may round apart.  Such near
    # ties are decided on the exact sums.
    tol = (len(used) + 2) * np.finfo(np.float64).eps * np.maximum(scores, own)
    column = index.doc_column
    near = (np.abs(scores - own) <= tol) & (tol > 0) & (column != column[:, None])
    for i, j in zip(*np.nonzero(near)):
        order[i, j] = np.sign(math.fsum(queries[i] * docs[:, column[j]])
                              - math.fsum(queries[i] * docs[:, column[i]]))
    better = (order > 0).sum(axis=1)
    tied_lower = ((order == 0) & (index.ids < index.ids[:, None])).sum(axis=1)
    ranks = 1 + better + tied_lower
    return {int(k): float(100.0 * (ranks <= k).mean()) for k in ks}


def evaluate(captions: Sequence[Sequence[str]], dataset: Dataset, vocab: Vocabulary,
             stats: CiderCorpusStats, ks: Sequence[int] = (1, 5, 10),
             rep_n: int = 4) -> MetricsReport:
    """Assemble the full report for one caption per image, aligned with
    ``dataset.records``."""
    if len(captions) != len(dataset.records):
        raise ValueError(
            f"{len(captions)} captions for {len(dataset.records)} images")
    context = _scoring_context(dataset, vocab, stats)
    unique_1, unique_s, mean_length = vocab_stats(captions, vocab)
    rep = repetition_rate(captions, rep_n)
    cider_scores = cider_d_batch(captions, np.arange(len(captions)), context.cider_table)
    oor_count, oor_rank, oor_defined = _oor_counts(captions, context.ref_words, vocab)
    r_at = rk_retrieval(captions, dataset, ks)
    return MetricsReport(
        unique_1=unique_1,
        unique_s=unique_s,
        mean_length=mean_length,
        cider=float(np.mean(cider_scores)) if len(cider_scores) else 0.0,
        rep=rep,
        r_at=r_at,
        oor_count=oor_count,
        oor_mean_rank=oor_rank,
        oor_rank_defined=oor_defined,
    )
