import math
from collections import Counter
from itertools import permutations
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caplab import metrics, rl
from caplab.cider import (_RefSet, _ref_sets, _tfidf_entries, build_cider_stats, cider_d,
                          cider_d_batch, reference_table)
from caplab.corpus import Dataset, build_vocab, mapped_references
from caplab.decode import DecodeConfig, decode_dataset
from caplab.model import ModelDims, init_params
from caplab.synth import SynthConfig, generate_synthetic_dataset


def ngram_counts(tokens, n_max):
    """Occurrences of each 1..n_max-gram of ``tokens``, keyed by tuple."""
    counts = Counter()
    for n in range(1, n_max + 1):
        for i in range(len(tokens) - n + 1):
            counts[tuple(tokens[i : i + n])] += 1
    return counts


class OracleStats(NamedTuple):
    """Tuple-keyed document frequencies: n-gram -> number of images whose
    references contain it."""

    doc_freq: dict
    log_num_images: float
    n_max: int = 4
    sigma: float = 6.0


def oracle_stats(reference_sets, n_max=4, sigma=6.0):
    """The pure-Python count that ``build_cider_stats`` replaced, kept as the
    document-frequency oracle that ``_tfidf_vectors`` and ``reference_cider``
    read."""
    doc_freq = Counter()
    for refs in reference_sets:
        doc_freq.update({ngram for ref in refs for ngram in ngram_counts(ref, n_max)})
    return OracleStats(dict(doc_freq), math.log(len(reference_sets)), n_max, sigma)


def _tfidf_vectors(tokens, stats):
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


def scalar_cider_d(candidate, references, stats):
    """The per-candidate loop that ``cider_d_batch`` replaced, kept as the
    oracle over ``oracle_stats``: its scores must equal the batch scores bit
    for bit."""
    if len(references) == 0:
        raise ValueError("need at least one reference")
    if len(candidate) == 0:
        return 0.0
    cand_vecs, cand_norms = _tfidf_vectors(candidate, stats)
    totals = [0.0] * stats.n_max
    for ref in references:
        ref_vecs, ref_norms = _tfidf_vectors(ref, stats)
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


@pytest.fixture(scope="module")
def corpus_stats():
    # two images with partially overlapping references
    refs = [
        [["a", "red", "bird", "flies"], ["a", "red", "bird", "sits"]],
        [["a", "blue", "fish", "swims"]],
    ]
    return refs, build_cider_stats(refs)


def global_id(ngram, index):
    """``ngram``'s position in the index under the coding the ``cider``
    module describes, asserting that it and each of its prefixes are in
    their order's table."""
    code = index.token_rank[ngram[0]]
    for n in range(1, len(ngram) + 1):
        table = index.codes[n - 1]
        rank = int(np.searchsorted(table, code))
        assert rank < len(table) and table[rank] == code, f"{ngram[:n]} is not in its table"
        if n < len(ngram):
            code = rank * len(index.token_rank) + index.token_rank[ngram[n]]
    return int(index.offsets[len(ngram) - 1]) + rank


def reference_cider(candidate, references, stats):
    """Independent formula evaluation used as the oracle."""
    def vectors(tokens):
        vecs = [dict() for _ in range(4)]
        for ng, tf in ngram_counts(tokens, 4).items():
            df = stats.doc_freq.get(ng)
            if df is None:
                continue
            vecs[len(ng) - 1][ng] = tf * (stats.log_num_images - math.log(df))
        return vecs

    cand = vectors(candidate)
    score = 0.0
    for ref in references:
        rv = vectors(ref)
        penalty = math.exp(-((len(candidate) - len(ref)) ** 2) / (2 * stats.sigma**2))
        for n in range(4):
            num = sum(min(w, rv[n].get(ng, 0.0)) * rv[n].get(ng, 0.0)
                      for ng, w in cand[n].items())
            nc = math.sqrt(sum(w * w for w in cand[n].values()))
            nr = math.sqrt(sum(w * w for w in rv[n].values()))
            score += penalty * (num / (nc * nr) if nc > 0 and nr > 0 else 0.0)
    return 10.0 * score / (4 * len(references))


class TestCiderD:
    def test_exact_self_match_scores_ten(self, corpus_stats):
        refs, stats = corpus_stats
        candidate = ["a", "blue", "fish", "swims"]
        assert cider_d(candidate, [candidate], stats) == pytest.approx(10.0, abs=1e-6)

    def test_zero_overlap_scores_zero(self, corpus_stats):
        _, stats = corpus_stats
        assert cider_d(["purple", "cow"], [["a", "red", "bird", "flies"]], stats) == 0.0

    def test_reference_order_invariance(self, corpus_stats):
        refs, stats = corpus_stats
        candidate = ["a", "red", "bird"]
        base = None
        for perm in permutations(refs[0]):
            score = cider_d(candidate, list(perm), stats)
            if base is None:
                base = score
            assert score == pytest.approx(base, abs=1e-12)

    def test_empty_candidate_scores_zero_not_error(self, corpus_stats):
        refs, stats = corpus_stats
        assert cider_d([], refs[0], stats) == 0.0

    def test_matches_independent_formula(self, corpus_stats):
        refs, stats = corpus_stats
        candidates = [
            ["a", "red", "bird", "flies"],
            ["a", "red", "fish"],
            ["a", "a", "red", "bird", "swims"],
        ]
        for cand in candidates:
            for ref_set in refs:
                assert cider_d(cand, ref_set, stats) == pytest.approx(
                    reference_cider(cand, ref_set, oracle_stats(refs)), abs=1e-12)

    def test_unseen_tokens_only_shift_length_penalty(self, corpus_stats):
        """Tokens absent from all references and the df table change the
        score only through the length penalty."""
        refs, stats = corpus_stats
        base = ["a", "red", "bird", "flies"]
        padded = base + ["qqq"]  # never seen anywhere
        ref_set = refs[0]
        score_base = cider_d(base, ref_set, stats)
        score_padded = cider_d(padded, ref_set, stats)

        def penalty(lc, lr):
            return math.exp(-((lc - lr) ** 2) / (2 * stats.sigma**2))

        # per-reference rescaling of the length penalty, holding cosines fixed
        penalties_base = [penalty(len(base), len(r)) for r in ref_set]
        penalties_padded = [penalty(len(padded), len(r)) for r in ref_set]
        # both references in this set have equal length, so the ratio is uniform
        expected = score_base * penalties_padded[0] / penalties_base[0]
        assert score_padded == pytest.approx(expected, abs=1e-12)

    def test_score_range(self, corpus_stats):
        refs, stats = corpus_stats
        rng = np.random.default_rng(0)
        pool = ["a", "red", "blue", "bird", "fish", "flies", "sits", "swims", "zzz"]
        for _ in range(50):
            cand = list(rng.choice(pool, size=rng.integers(1, 8)))
            for ref_set in refs:
                score = cider_d(cand, ref_set, stats)
                assert 0.0 <= score <= 10.0 + 1e-9

    def test_short_candidate_misses_higher_orders(self, corpus_stats):
        refs, stats = corpus_stats
        # 2 tokens: no 3- or 4-grams, so the mean over n cannot reach 10
        assert cider_d(["a", "red"], [["a", "red"]], stats) <= 5.0 + 1e-9


class TestCorpusStats:
    def test_df_counts_images_not_occurrences(self):
        refs = [
            [["a", "cat"], ["a", "cat"]],   # same image mentions twice
            [["a", "dog"]],
        ]
        stats, oracle = build_cider_stats(refs), oracle_stats(refs)
        assert oracle.doc_freq[("a",)] == 2
        assert oracle.doc_freq[("cat",)] == 1
        for ngram, df in ((("a",), 2), (("cat",), 1), (("a", "cat"), 1)):
            assert stats.index.idf[global_id(ngram, stats.index)] == math.log(2) - math.log(df)

    def test_df_at_least_one(self, corpus_stats):
        refs, stats = corpus_stats
        doc_freq = oracle_stats(refs).doc_freq
        assert all(df >= 1 for df in doc_freq.values())
        # df >= 1 is idf <= log(N); every entry is some corpus n-gram's
        assert len(stats.index.idf) == len(doc_freq)
        assert (stats.index.idf <= stats.log_num_images).all()

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_cider_stats([])

    def test_empty_reference_list_rejected(self, corpus_stats):
        _, stats = corpus_stats
        with pytest.raises(ValueError):
            cider_d(["a"], [], stats)


class TestReferenceCache:
    REFS = [
        [["a", "red", "bird", "flies"], ["a", "red", "bird", "sits"], ["red", "bird"]],
        [["a", "blue", "fish", "swims"], ["a", "fish"]],
        [["a", "red", "fish"], ["blue", "bird", "sits", "a", "red", "bird"]],
    ]
    CANDIDATES = [["a", "red", "bird"], ["blue", "fish", "swims", "a"], ["a", "a", "a"],
                  ["red", "bird", "sits", "on", "a", "fish"]]

    def test_cached_scores_equal_uncached(self):
        warm = build_cider_stats(self.REFS)
        for _ in range(2):  # the second pass reads every reference set from the cache
            for cand in self.CANDIDATES:
                for refs in self.REFS:
                    assert cider_d(cand, refs, warm) == cider_d(cand, refs, build_cider_stats(self.REFS))

    def test_cache_filled_lazily_with_reference_vectors(self):
        stats = build_cider_stats(self.REFS)
        assert stats.ref_sets == {}
        cider_d(self.CANDIDATES[0], self.REFS[0], stats)
        assert set(stats.ref_sets) == {tuple(tuple(ref) for ref in self.REFS[0])}
        cached = stats.ref_sets[tuple(tuple(ref) for ref in self.REFS[0])]
        assert cached.lengths.tolist() == [len(ref) for ref in self.REFS[0]]
        for j, ref in enumerate(self.REFS[0]):
            vecs, norms = _tfidf_vectors(ref, oracle_stats(self.REFS))
            assert cached.norms[j].tolist() == norms
            weights = cached.weights[:, j]
            assert sorted(weights[weights != 0.0]) == sorted(
                w for vec in vecs for w in vec.values() if w != 0.0)

    def test_stats_objects_do_not_share_a_cache(self):
        first, second = build_cider_stats(self.REFS), build_cider_stats(self.REFS)
        assert first.ref_sets is not second.ref_sets
        cider_d(self.CANDIDATES[0], self.REFS[0], first)
        assert first.ref_sets
        assert second.ref_sets == {}
        # scoring left the index as built
        assert first.index.token_rank == second.index.token_rank
        assert len(first.index.codes) == len(second.index.codes)
        for a, b in zip(first.index.codes, second.index.codes):
            assert np.array_equal(a, b)
        assert np.array_equal(first.index.offsets, second.index.offsets)
        assert np.array_equal(first.index.idf, second.index.idf)


WORDS = ["a", "b", "c", "d", "e"]
UNSEEN = ["x", "y"]  # never in the corpus: no document frequency
tokens = st.lists(st.sampled_from(WORDS), max_size=9)
reference_set = st.lists(tokens, min_size=1, max_size=4)


@st.composite
def scoring_batches(draw):
    corpus = draw(st.lists(reference_set, min_size=1, max_size=5))
    # sets scored against may hold n-grams and tokens absent from the corpus
    extra = draw(st.lists(st.lists(st.lists(st.sampled_from(WORDS + UNSEEN), max_size=9),
                                   min_size=1, max_size=4), max_size=2))
    sets = corpus + extra
    candidates = draw(st.lists(st.lists(st.sampled_from(WORDS + UNSEEN), max_size=12),
                               min_size=1, max_size=12))
    owner = draw(st.lists(st.integers(0, len(sets) - 1), min_size=len(candidates),
                          max_size=len(candidates)))
    return corpus, sets, candidates, owner


@settings(max_examples=150, deadline=None)
@given(scoring_batches())
@example((  # empty and short candidates, unseen tokens, repeated n-grams, unequal sets
    [[["a", "b", "a", "b", "a"], ["c"]], [["a", "b", "c", "d", "e", "a", "b"]],
     [["d", "d", "d", "d", "d"], ["b", "c"], ["a"], []]],
    [[["a", "b", "a", "b", "a"], ["c"]], [["a", "b", "c", "d", "e", "a", "b"]],
     [["d", "d", "d", "d", "d"], ["b", "c"], ["a"], []], [["x", "a", "b"]]],
    [[], ["a"], ["a", "b"], ["x", "y", "x"], ["a", "b", "a", "b", "a", "b"],
     ["d", "d", "d", "d", "d", "d"], ["a", "b", "x", "a", "b"], ["a", "b", "c", "d", "e"]],
    [0, 1, 2, 3, 0, 2, 2, 1],
))
def test_batch_scores_equal_scalar_oracle(batch):
    corpus, sets, candidates, owner = batch
    stats, oracle = build_cider_stats(corpus), oracle_stats(corpus)
    scores = cider_d_batch(candidates, owner, sets, stats)
    assert scores.shape == (len(candidates),)
    assert scores.tolist() == [scalar_cider_d(c, sets[k], oracle)
                               for c, k in zip(candidates, owner)]
    # a second call reads every reference set from the cache
    assert cider_d_batch(candidates, owner, sets, stats).tolist() == scores.tolist()


# a three-word alphabet repeats n-grams within and across references; images
# may have no references and references may be empty
corpora = st.lists(st.lists(st.lists(st.sampled_from(WORDS[:3]), max_size=7), max_size=4),
                   min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(corpora, st.integers(1, 4),
       st.lists(st.lists(st.sampled_from(WORDS + UNSEEN), max_size=8), min_size=1, max_size=4))
@example([[[], []], [[]]], 4, [["a"], []])                        # every reference empty
@example([[["a", "b", "a", "b", "a"], ["c"]]], 2, [["a", "b"]])   # a single image
@example([[["a", "b", "a", "b"], ["a", "b", "a", "b"]], [["b", "a"]]], 4,
         [["a", "b", "a"], ["b", "a", "b", "a"]])                  # n-grams repeated in one image
@example([[["a", "b"], []], [], [["c", "a"]]], 1, [["a", "c"], ["x"]])  # empty ref, no refs
def test_build_matches_tuple_oracle(corpus, n_max, candidates):
    stats, oracle = build_cider_stats(corpus, n_max=n_max), oracle_stats(corpus, n_max=n_max)
    index = stats.index
    assert stats.log_num_images == oracle.log_num_images
    for n, table in enumerate(index.codes, start=1):
        assert (np.diff(table) > 0).all()
        assert len(table) == sum(len(ngram) == n for ngram in oracle.doc_freq)
    assert len(index.codes) == n_max and len(index.idf) == len(oracle.doc_freq)
    for ngram, df in oracle.doc_freq.items():
        assert index.idf[global_id(ngram, index)] == oracle.log_num_images - math.log(df)
    # every candidate against every non-empty image's references and one outside set
    sets = [refs for refs in corpus if refs] + [[["a", "b", "x"], []]]
    owner = [k for k in range(len(sets)) for _ in candidates]
    assert cider_d_batch(candidates * len(sets), owner, sets, stats).tolist() == [
        scalar_cider_d(c, sets[k], oracle) for k in range(len(sets)) for c in candidates]


def one_at_a_time_ref_set(refs, stats):
    """One reference set coded on its own, as the cache was filled before the
    sets a call misses were coded together; kept as the oracle."""
    entries = _tfidf_entries(refs, stats)
    ids, col = np.unique(entries.ids, return_inverse=True)
    weights = np.zeros((len(ids), len(refs)))
    weights[col, entries.row] = entries.weight
    lengths = np.array([len(ref) for ref in refs], dtype=np.int64)
    return _RefSet(ids, weights, entries.norms, lengths)


@settings(max_examples=150, deadline=None)
@given(corpora.filter(lambda corpus: any(corpus)),
       st.lists(st.lists(st.lists(st.sampled_from(WORDS + UNSEEN), max_size=7),
                         min_size=1, max_size=4), min_size=1, max_size=6),
       st.integers(0, 3))
def test_joint_ref_set_fill_is_byte_equal_to_one_at_a_time(corpus, sets, n_cached):
    stats = build_cider_stats(corpus)
    sets = sets + sets[:2]  # a set may repeat within one call
    _ref_sets(sets[:n_cached], stats)  # some sets are cached before the joint fill
    got = _ref_sets(sets, stats)
    assert len(stats.ref_sets) == len({tuple(map(tuple, refs)) for refs in sets})
    for refs, ref_set in zip(sets, got):
        expected = one_at_a_time_ref_set(refs, stats)
        for field, want in zip(_RefSet._fields, expected):
            have = getattr(ref_set, field)
            assert have.dtype == want.dtype and have.shape == want.shape, field
            assert np.ascontiguousarray(have).tobytes() == want.tobytes(), field


class TestReferenceTable:
    def test_table_scores_equal_reference_sets(self, corpus_stats):
        refs, stats = corpus_stats
        candidates = [["a", "red", "bird"], ["a", "blue", "fish", "swims"], []]
        table = reference_table(refs, stats)
        owner = [0, 1, 1]
        assert cider_d_batch(candidates, owner, table, stats).tolist() == \
            cider_d_batch(candidates, owner, refs, stats).tolist()

    def test_table_of_other_stats_rejected(self, corpus_stats):
        refs, stats = corpus_stats
        with pytest.raises(ValueError):
            cider_d_batch([["a"]], [0], reference_table(refs, build_cider_stats(refs)), stats)

    def test_owner_must_index_a_set_of_the_table(self, corpus_stats):
        refs, stats = corpus_stats
        with pytest.raises(ValueError):
            cider_d_batch([["a"]], [2], reference_table(refs, stats), stats)


class TestBatchScorer:
    def test_empty_batch_returns_empty_array(self, corpus_stats):
        refs, stats = corpus_stats
        scores = cider_d_batch([], [], refs, stats)
        assert scores.shape == (0,) and scores.dtype == np.float64

    def test_empty_reference_set_rejected(self, corpus_stats):
        refs, stats = corpus_stats
        with pytest.raises(ValueError):
            cider_d_batch([["a"]], [0], [refs[0], []], stats)

    @pytest.mark.parametrize("owner", [[0, 2], [-1, 0], [0]])
    def test_owner_must_index_a_set(self, corpus_stats, owner):
        refs, stats = corpus_stats
        with pytest.raises(ValueError):
            cider_d_batch([["a"], ["red"]], owner, refs, stats)

    def test_scalar_call_is_the_batch_of_one(self, corpus_stats):
        refs, stats = corpus_stats
        for cand in (["a", "red", "bird"], ["fish"], []):
            assert cider_d(cand, refs[0], stats) == cider_d_batch([cand], [0], refs, stats)[0]


@pytest.fixture(scope="module")
def bench_scale():
    """The benchmark's bench-scale data and a one-epoch CE checkpoint."""
    data = generate_synthetic_dataset(SynthConfig(n_train=200, n_val=40, n_test=40), seed=1)
    vocab = build_vocab(data.train.all_references(), 3)
    params = init_params(vocab, ModelDims(hidden_dim=64, feature_dim=32, max_len=16), 7,
                         scale=0.1)
    params, _ = rl.train_ce(params, data.train, 1, 1.0, np.random.default_rng(1))
    refs = mapped_references(vocab, data.train.records)
    oracle = oracle_stats([refs[rec.id] for rec in data.train.records])
    return data, params, rl.corpus_stats_for(vocab, data.train), oracle


def test_scst_rewards_equal_scalar_oracle_at_bench_scale(bench_scale, monkeypatch):
    data, params, stats, oracle = bench_scale
    calls = []

    def recorded(candidates, owner, sets, stats):
        scores = cider_d_batch(candidates, owner, sets, stats)
        calls.append((candidates, owner, sets, scores))
        return scores

    monkeypatch.setattr(rl, "cider_d_batch", recorded)
    trained, log = rl.train_rl(params, Dataset("train", data.train.records[:30]), stats, 1,
                               0.05, np.random.default_rng(2), 10, 5)
    assert len(calls) == 3  # one call per step scores its baselines and samples
    for candidates, owner, sets, scores in calls:
        assert len(candidates) == 10 + 50
        assert scores.tolist() == [scalar_cider_d(c, sets[k], oracle)
                                   for c, k in zip(candidates, owner)]
    assert 0.0 < log[0]["mean_reward"]


def test_evaluate_cider_equals_scalar_oracle_at_bench_scale(bench_scale):
    data, params, stats, oracle = bench_scale
    decoded = decode_dataset(params, data.val, DecodeConfig(method="greedy", max_len=16))
    captions = [dec.tokens for dec in decoded]
    report = metrics.evaluate(captions, data.val, params.vocab, stats)
    refs = mapped_references(params.vocab, data.val.records)
    expected = [scalar_cider_d(cap, refs[rec.id], oracle)
                for cap, rec in zip(captions, data.val.records)]
    assert report.cider == float(np.mean(expected)) and report.cider > 0.0
