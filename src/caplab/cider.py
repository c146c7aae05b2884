"""Consensus n-gram reward: clipped tf-idf cosine over 1..4-grams with a
Gaussian length penalty of width 6, scaled to [0, 10].  The orders and the
width are CIDEr-D's and are constants here (``N_MAX``, ``SIGMA``).

N-grams are coded as integers order by order: a unigram by its token's rank
among the sorted corpus tokens, an n-gram by its (n-1)-gram prefix's rank in
the corpus table times the number of corpus tokens plus its last token's
rank.  ``build_cider_stats`` codes every reference n-gram this way and keeps
in a ``CiderCorpusStats``, per order, the sorted code table and each code's
idf, log(N / df), where df counts the images whose references hold the
n-gram.  Every prefix of a corpus n-gram is itself a corpus n-gram, so a
candidate n-gram whose prefix is not in the table is not in it either.  An
n-gram outside the tables carries zero weight, so candidate tokens unseen in
the reference corpus influence the score only through the length penalty.

``cider_d_batch`` scores many candidates in one vectorized pass, each against
the reference set it names in a ``reference_table``: the tf-idf weights,
norms and lengths of every reference of the sets scored against, coded
together and keyed by (set, n-gram).  The caller builds the table once for
the sets it scores against and passes it to every call; ``cider_d`` scores
one candidate against a one-set table.  Scoring reads the statistics and the
table and changes neither.

The vectorized sums add the same terms in the same order as a scalar loop
over each candidate's distinct n-grams in order of first occurrence, order by
order (``np.bincount`` accumulates its input sequentially); references are
summed one at a time, then the orders left to right.  The scores therefore
equal, bit for bit, those of the per-candidate loop kept in the tests as the
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

N_MAX = 4      # n-gram orders 1..N_MAX
SIGMA = 6.0    # width of the Gaussian length penalty


class _Entries(NamedTuple):
    """Distinct n-grams with document frequency of a list of token sequences,
    ordered by order, then sequence, then first occurrence."""

    row: np.ndarray         # owning sequence
    slot: np.ndarray        # order - 1
    ids: np.ndarray         # global n-gram id
    weight: np.ndarray      # tf * idf
    norms: np.ndarray       # (rows, N_MAX) per-order vector norms


@dataclass(eq=False, repr=False)
class CiderCorpusStats:
    """The n-gram index of the reference corpus: sorted integer codes of the
    corpus n-grams, per order, and their idf."""

    token_rank: dict        # corpus token -> rank among the sorted corpus tokens
    codes: list             # per order: sorted int64 codes
    offsets: np.ndarray     # per order: first global id of the order's table
    idf: np.ndarray         # per global id: log(N) - log(df)


def _lookup(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Position of each code in the sorted ``table``, -1 where absent."""
    if len(table) == 0:
        return np.full(len(codes), -1, dtype=np.int64)
    at = np.minimum(np.searchsorted(table, codes), len(table) - 1)
    return np.where(table[at] == codes, at, -1)


def _extend(prefix_rank: np.ndarray, token: np.ndarray, n_tokens: int) -> np.ndarray:
    """Codes of n-grams from their prefix ranks and last tokens; -1 where
    either is unknown."""
    return np.where((prefix_rank >= 0) & (token >= 0), prefix_rank * n_tokens + token, -1)


def _flat_ranks(sequences: Sequence[Sequence[str]],
                token_rank: dict) -> tuple[np.ndarray, np.ndarray]:
    """The sequences' token ranks laid end to end, each sequence followed by
    -1 so that no n-gram spans two (-1 also marks unknown tokens), and the
    sequence each position belongs to."""
    tokens = []
    for seq in sequences:
        tokens.extend(seq)
        tokens.append(None)
    flat = np.fromiter(map(token_rank.get, tokens, repeat(-1)), dtype=np.int64,
                       count=len(tokens))
    return flat, np.repeat(np.arange(len(sequences)), [len(seq) + 1 for seq in sequences])


def build_cider_stats(reference_sets: Sequence[Sequence[Sequence[str]]]) -> CiderCorpusStats:
    """Code every reference n-gram and count, for each, the number of images
    whose references contain it."""
    n_images = len(reference_sets)
    if n_images == 0:
        raise ValueError("cannot build corpus statistics from zero reference sets")
    all_refs = [ref for refs in reference_sets for ref in refs]
    tokens = sorted({tok for ref in all_refs for tok in ref})
    token_rank = {tok: rank for rank, tok in enumerate(tokens)}
    flat, ref_of = _flat_ranks(all_refs, token_rank)
    image = np.repeat(np.arange(n_images), [len(refs) for refs in reference_sets])[ref_of]
    log_num_images = math.log(n_images)
    codes, idfs = [], []
    rank = flat
    for n in range(1, N_MAX + 1):
        code = _extend(rank[:-1], flat[n - 1:], len(token_rank)) if n > 1 else flat
        pos = np.flatnonzero(code >= 0)
        # one key per (n-gram, image) pair; the images per n-gram are its df.
        # A sort, not np.unique's hash table: faster here, and smaller.
        keys = np.sort(code[pos] * n_images + image[pos])
        pairs = keys[np.diff(keys, prepend=-1) != 0]
        table, df = np.unique(pairs // n_images, return_counts=True)
        codes.append(table)
        idfs.append(np.array([log_num_images - math.log(d) for d in df.tolist()],
                             dtype=np.float64))
        rank = _lookup(table, code)
    offsets = np.cumsum([0] + [len(c) for c in codes[:-1]]).astype(np.int64)
    return CiderCorpusStats(token_rank, codes, offsets, np.concatenate(idfs))


def _tfidf_entries(sequences: Sequence[Sequence[str]], stats: CiderCorpusStats) -> _Entries:
    """Per-sequence tf-idf entries and norms; idf = log(N / df)."""
    n_tokens = len(stats.token_rank)
    flat, row_of = _flat_ranks(sequences, stats.token_rank)
    rows, slots, ids, tfs = [], [], [], []
    rank = flat
    for n in range(1, N_MAX + 1):
        if n > 1:
            rank = _lookup(stats.codes[n - 1], _extend(rank[:-1], flat[n - 1:], n_tokens))
        pos = np.flatnonzero(rank >= 0)
        key = row_of[pos] * len(stats.codes[n - 1]) + rank[pos]
        _, first, tf = np.unique(key, return_index=True, return_counts=True)
        by_first = np.argsort(first)
        at = pos[first[by_first]]
        rows.append(row_of[at])
        slots.append(np.full(len(at), n - 1))
        ids.append(stats.offsets[n - 1] + rank[at])
        tfs.append(tf[by_first])
    row, slot, gid = np.concatenate(rows), np.concatenate(slots), np.concatenate(ids)
    weight = np.concatenate(tfs) * stats.idf[gid]
    sq = np.bincount(row * N_MAX + slot, weights=weight * weight,
                     minlength=len(sequences) * N_MAX)
    return _Entries(row, slot, gid, weight, np.sqrt(sq).reshape(len(sequences), N_MAX))


class ReferenceTable(NamedTuple):
    """The reference half of a ``cider_d_batch`` call: every set's n-grams in
    one sorted table keyed by (set, global id), plus a zero row that absent
    n-grams read.  A set with fewer than ``width`` references is padded with
    zero weights, norms and lengths."""

    stats: CiderCorpusStats  # the statistics the table was built under
    keys: np.ndarray         # (rows,) set * n_ids + global id, sorted
    weights: np.ndarray      # (rows + 1, width)
    norms: np.ndarray        # (sets, width, N_MAX)
    lengths: np.ndarray      # (sets, width)
    n_refs: np.ndarray       # (sets,)


def reference_table(reference_sets: Sequence[Sequence[Sequence[str]]],
                    stats: CiderCorpusStats) -> ReferenceTable:
    """Code the reference sets scored against into one table, all their
    references in one ``_tfidf_entries`` pass; every set must hold at least
    one reference.

    A reference's entries keep their order in the joint pass, so every
    per-reference sum equals that of coding the reference on its own.
    """
    if any(len(refs) == 0 for refs in reference_sets):
        raise ValueError("need at least one reference")
    n_refs = np.array([len(refs) for refs in reference_sets], dtype=np.int64)
    refs = [ref for image_refs in reference_sets for ref in image_refs]
    set_of = np.repeat(np.arange(len(n_refs)), n_refs)
    slot = np.arange(len(refs)) - (np.cumsum(n_refs) - n_refs)[set_of]  # place in its set
    entries = _tfidf_entries(refs, stats)
    n_ids = len(stats.idf)
    keys, row = np.unique(set_of[entries.row] * n_ids + entries.ids, return_inverse=True)
    width = int(n_refs.max(initial=0))
    weights = np.zeros((len(keys) + 1, width))
    weights[row, slot[entries.row]] = entries.weight
    norms = np.zeros((len(n_refs), width, N_MAX))
    norms[set_of, slot] = entries.norms
    lengths = np.zeros((len(n_refs), width), dtype=np.int64)
    lengths[set_of, slot] = [len(ref) for ref in refs]
    return ReferenceTable(stats, keys, weights, norms, lengths, n_refs)


def cider_d_batch(candidates: Sequence[Sequence[str]], owner: Sequence[int],
                  table: ReferenceTable) -> np.ndarray:
    """Score every candidate against its own image's references.

    ``owner[i]`` indexes candidate i's set in ``table``, the
    ``reference_table`` of the sets scored against, which carries the
    statistics it was built under.  Per n, the candidate tf-idf vector is
    clipped elementwise to the reference vector before the cosine; each
    reference similarity is damped by exp(-(len_c - len_r)^2 / (2 SIGMA^2)).
    Similarities are averaged over references, then over n, then multiplied
    by 10.  An empty candidate scores 0.
    """
    stats = table.stats
    owner = np.asarray(owner, dtype=np.int64).reshape(-1)
    if len(owner) != len(candidates):
        raise ValueError(f"{len(owner)} owners for {len(candidates)} candidates")
    if len(owner) == 0:
        return np.zeros(0)
    if owner.min() < 0 or owner.max() >= len(table.n_refs):
        raise ValueError("owner indexes outside the reference table")
    width, n_ids = table.weights.shape[1], len(stats.idf)

    cand = _tfidf_entries(candidates, stats)
    ref_weight = table.weights[_lookup(table.keys, owner[cand.row] * n_ids + cand.ids)]
    # a term whose reference weight is 0 adds exactly 0.0 to its dot product
    terms = np.minimum(cand.weight[:, None], ref_weight) * ref_weight
    bins = (cand.row[:, None] * width + np.arange(width)) * N_MAX + cand.slot[:, None]
    dots = np.bincount(bins.ravel(), weights=terms.ravel(),
                       minlength=len(owner) * width * N_MAX).reshape(len(owner), width, N_MAX)

    cand_norms, ref_norms = cand.norms[:, None, :], table.norms[owner]
    sims = np.zeros(dots.shape)
    np.divide(dots, cand_norms * ref_norms, out=sims,
              where=(cand_norms != 0.0) & (ref_norms != 0.0))
    deltas = np.array([len(c) for c in candidates], dtype=np.int64)[:, None] - table.lengths[owner]
    low = int(deltas.min())
    two_var = 2.0 * SIGMA**2
    penalty = np.array([math.exp(-(d * d) / two_var)
                        for d in map(float, range(low, int(deltas.max()) + 1))])
    penalties = penalty[deltas - low]

    # a padded reference has zero norms, so it adds exactly 0.0
    totals = np.zeros((len(owner), N_MAX))
    for j in range(width):
        totals += penalties[:, j, None] * sims[:, j]
    per_n = totals / table.n_refs[owner][:, None]
    total = per_n[:, 0]
    for slot in range(1, N_MAX):
        total = total + per_n[:, slot]
    return 10.0 * total / N_MAX


def cider_d(candidate: Sequence[str], references: Sequence[Sequence[str]],
            stats: CiderCorpusStats) -> float:
    """Score one candidate against the references of one image; see
    ``cider_d_batch``."""
    return float(cider_d_batch([candidate], [0], reference_table([references], stats))[0])
