import math
from collections import Counter
from itertools import permutations
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caplab import metrics, rl
from caplab.cider import (N_MAX, SIGMA, _tfidf_entries, build_cider_stats, cider_d, cider_d_batch,
                          reference_table)
from caplab.corpus import Dataset, ImageRecord, build_vocab, mapped_references
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


def global_id(ngram, stats):
    """``ngram``'s position in the statistics' index under the coding the
    ``cider`` module describes, asserting that it and each of its prefixes
    are in their order's table."""
    code = stats.token_rank[ngram[0]]
    for n in range(1, len(ngram) + 1):
        table = stats.codes[n - 1]
        rank = int(np.searchsorted(table, code))
        assert rank < len(table) and table[rank] == code, f"{ngram[:n]} is not in its table"
        if n < len(ngram):
            code = rank * len(stats.token_rank) + stats.token_rank[ngram[n]]
    return int(stats.offsets[len(ngram) - 1]) + rank


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
            return math.exp(-((lc - lr) ** 2) / (2 * SIGMA**2))

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
            assert stats.idf[global_id(ngram, stats)] == math.log(2) - math.log(df)

    def test_df_at_least_one(self, corpus_stats):
        refs, stats = corpus_stats
        doc_freq = oracle_stats(refs).doc_freq
        assert all(df >= 1 for df in doc_freq.values())
        # df >= 1 is idf <= log(N); every entry is some corpus n-gram's
        assert len(stats.idf) == len(doc_freq)
        assert (stats.idf <= math.log(len(refs))).all()

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_cider_stats([])

    def test_empty_reference_list_rejected(self, corpus_stats):
        _, stats = corpus_stats
        with pytest.raises(ValueError):
            cider_d(["a"], [], stats)


def stats_snapshot(stats):
    """Every field of ``stats``, its arrays as bytes."""
    return (dict(stats.token_rank), [codes.tobytes() for codes in stats.codes],
            stats.offsets.tobytes(), stats.idf.tobytes())


class TestReferenceTable:
    REFS = [
        [["a", "red", "bird", "flies"], ["a", "red", "bird", "sits"], ["red", "bird"]],
        [["a", "blue", "fish", "swims"], ["a", "fish"]],
        [["a", "red", "fish"], ["blue", "bird", "sits", "a", "red", "bird"]],
    ]
    CANDIDATES = [["a", "red", "bird"], ["blue", "fish", "swims", "a"], ["a", "a", "a"],
                  ["red", "bird", "sits", "on", "a", "fish"]]

    def test_reused_table_scores_equal_a_fresh_one(self):
        stats = build_cider_stats(self.REFS)
        table = reference_table(self.REFS, stats)
        owner = [k for k in range(len(self.REFS)) for _ in self.CANDIDATES]
        candidates = self.CANDIDATES * len(self.REFS)
        for _ in range(2):  # the second pass scores against the same table again
            fresh = reference_table(self.REFS, build_cider_stats(self.REFS))
            assert cider_d_batch(candidates, owner, table).tolist() == \
                cider_d_batch(candidates, owner, fresh).tolist()

    def test_table_holds_each_references_vectors(self):
        stats = build_cider_stats(self.REFS)
        table = reference_table(self.REFS, stats)
        assert table.stats is stats and table.n_refs.tolist() == [3, 2, 2]
        oracle = oracle_stats(self.REFS)
        for k, refs in enumerate(self.REFS):
            rows = (table.keys >= k * len(stats.idf)) & (table.keys < (k + 1) * len(stats.idf))
            assert table.lengths[k].tolist() == [len(ref) for ref in refs] + [0] * (3 - len(refs))
            for j, ref in enumerate(refs):
                vecs, norms = _tfidf_vectors(ref, oracle)
                assert table.norms[k, j].tolist() == norms
                weights = table.weights[:-1][rows, j]
                assert sorted(weights[weights != 0.0]) == sorted(
                    w for vec in vecs for w in vec.values() if w != 0.0)
            # padding references and the absent row carry zeros
            assert not table.weights[:-1][rows, len(refs):].any()
            assert not table.norms[k, len(refs):].any()
        assert not table.weights[-1].any()

    def test_scoring_leaves_the_statistics_as_built(self):
        stats = build_cider_stats(self.REFS)
        built = stats_snapshot(stats)
        assert set(vars(stats)) == {"token_rank", "codes", "offsets", "idf"}
        table = reference_table(self.REFS, stats)
        for k, refs in enumerate(self.REFS):
            cider_d(self.CANDIDATES[k], refs, stats)
            cider_d_batch(self.CANDIDATES, [k] * len(self.CANDIDATES), table)
        split = Dataset("val", [ImageRecord(id=k, features=np.zeros(2), references=refs)
                                for k, refs in enumerate(self.REFS)])
        vocab = build_vocab([ref for refs in self.REFS for ref in refs], 1)
        metrics.evaluate(self.CANDIDATES[:3], split, vocab, stats)
        assert stats_snapshot(stats) == built

    def test_table_scores_equal_reference_sets(self, corpus_stats):
        refs, stats = corpus_stats
        candidates = [["a", "red", "bird"], ["a", "blue", "fish", "swims"], []]
        owner = [0, 1, 1]
        assert cider_d_batch(candidates, owner, reference_table(refs, stats)).tolist() == \
            [cider_d(cand, refs[k], stats) for cand, k in zip(candidates, owner)]

    def test_owner_must_index_a_set_of_the_table(self, corpus_stats):
        refs, stats = corpus_stats
        with pytest.raises(ValueError):
            cider_d_batch([["a"]], [2], reference_table(refs, stats))


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
    table = reference_table(sets, stats)
    scores = cider_d_batch(candidates, owner, table)
    assert scores.shape == (len(candidates),)
    assert scores.tolist() == [scalar_cider_d(c, sets[k], oracle)
                               for c, k in zip(candidates, owner)]
    # a second call scores against the same table again
    assert cider_d_batch(candidates, owner, table).tolist() == scores.tolist()


# a three-word alphabet repeats n-grams within and across references; images
# may have no references and references may be empty
corpora = st.lists(st.lists(st.lists(st.sampled_from(WORDS[:3]), max_size=7), max_size=4),
                   min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(corpora,
       st.lists(st.lists(st.sampled_from(WORDS + UNSEEN), max_size=8), min_size=1, max_size=4))
@example([[[], []], [[]]], [["a"], []])                        # every reference empty
@example([[["a", "b", "a", "b", "a"], ["c"]]], [["a", "b"]])   # a single image
@example([[["a", "b", "a", "b"], ["a", "b", "a", "b"]], [["b", "a"]]],
         [["a", "b", "a"], ["b", "a", "b", "a"]])               # n-grams repeated in one image
@example([[["a", "b"], []], [], [["c", "a"]]], [["a", "c"], ["x"]])  # empty ref, no refs
def test_build_matches_tuple_oracle(corpus, candidates):
    stats, oracle = build_cider_stats(corpus), oracle_stats(corpus)
    for n, table in enumerate(stats.codes, start=1):
        assert (np.diff(table) > 0).all()
        assert len(table) == sum(len(ngram) == n for ngram in oracle.doc_freq)
    assert len(stats.codes) == N_MAX and len(stats.idf) == len(oracle.doc_freq)
    for ngram, df in oracle.doc_freq.items():
        assert stats.idf[global_id(ngram, stats)] == oracle.log_num_images - math.log(df)
    # every candidate against every non-empty image's references and one outside set
    sets = [refs for refs in corpus if refs] + [[["a", "b", "x"], []]]
    owner = [k for k in range(len(sets)) for _ in candidates]
    assert cider_d_batch(candidates * len(sets), owner, reference_table(sets, stats)).tolist() == [
        scalar_cider_d(c, sets[k], oracle) for k in range(len(sets)) for c in candidates]


def one_at_a_time_ref_set(refs, stats):
    """One reference set coded on its own, as a per-set cache was once filled;
    kept as the oracle: its sorted global n-gram ids, their weight in each
    reference, and the references' norms and lengths."""
    entries = _tfidf_entries(refs, stats)
    ids, col = np.unique(entries.ids, return_inverse=True)
    weights = np.zeros((len(ids), len(refs)))
    weights[col, entries.row] = entries.weight
    lengths = np.array([len(ref) for ref in refs], dtype=np.int64)
    return ids, weights, entries.norms, lengths


def table_set(table, k):
    """Set ``k`` of a reference table in the oracle's form, its padding cut."""
    n_ids = len(table.stats.idf)
    at = np.flatnonzero((table.keys >= k * n_ids) & (table.keys < (k + 1) * n_ids))
    n = table.n_refs[k]
    return (table.keys[at] - k * n_ids, table.weights[at, :n], table.norms[k, :n],
            table.lengths[k, :n])


def assert_byte_equal(have, want, what):
    have = np.ascontiguousarray(have)
    assert have.dtype == want.dtype and have.shape == want.shape, what
    assert have.tobytes() == want.tobytes(), what


@settings(max_examples=150, deadline=None)
@given(corpora.filter(lambda corpus: any(corpus)),
       st.lists(st.lists(st.lists(st.sampled_from(WORDS + UNSEEN), max_size=7),
                         min_size=1, max_size=4), min_size=1, max_size=6))
def test_joint_table_is_byte_equal_to_one_set_tables(corpus, sets):
    stats = build_cider_stats(corpus)
    sets = sets + sets[:2]  # a set may repeat within one table
    table = reference_table(sets, stats)
    width = int(table.n_refs.max())
    assert table.weights.shape[1] == width and table.norms.shape[:2] == (len(sets), width)
    assert not table.weights[-1].any()
    assert (np.diff(table.keys) > 0).all()
    for k, refs in enumerate(sets):
        fields = ("ids", "weights", "norms", "lengths")
        one = table_set(reference_table([refs], stats), 0)
        for field, have, want in zip(fields, table_set(table, k), one):
            assert_byte_equal(have, want, field)
        for field, have, want in zip(fields, one, one_at_a_time_ref_set(refs, stats)):
            assert_byte_equal(have, want, field)
        # padding references carry zeros
        assert not table.norms[k, len(refs):].any() and not table.lengths[k, len(refs):].any()


class TestBatchScorer:
    def test_empty_batch_returns_empty_array(self, corpus_stats):
        refs, stats = corpus_stats
        scores = cider_d_batch([], [], reference_table(refs, stats))
        assert scores.shape == (0,) and scores.dtype == np.float64

    def test_empty_reference_set_rejected(self, corpus_stats):
        refs, stats = corpus_stats
        with pytest.raises(ValueError):
            reference_table([refs[0], []], stats)

    @pytest.mark.parametrize("owner", [[0, 2], [-1, 0], [0]])
    def test_owner_must_index_a_set(self, corpus_stats, owner):
        refs, stats = corpus_stats
        with pytest.raises(ValueError):
            cider_d_batch([["a"], ["red"]], owner, reference_table(refs, stats))

    def test_scalar_call_is_the_batch_of_one(self, corpus_stats):
        refs, stats = corpus_stats
        for cand in (["a", "red", "bird"], ["fish"], []):
            assert cider_d(cand, refs[0], stats) == \
                cider_d_batch([cand], [0], reference_table(refs, stats))[0]


@pytest.fixture(scope="module")
def bench_scale():
    """The benchmark's bench-scale data and a one-epoch CE checkpoint."""
    data = generate_synthetic_dataset(SynthConfig(n_train=200, n_val=40, n_test=40), seed=1)
    vocab = build_vocab(data.train.all_references(), 3)
    params = init_params(vocab, ModelDims(hidden_dim=64, feature_dim=32, max_len=16), 7,
                         scale=0.1)
    params, _ = rl.train_ce(params, data.train, 1, 1.0, np.random.default_rng(1))
    oracle = oracle_stats(mapped_references(vocab, data.train.records))
    return data, params, rl.corpus_stats_for(vocab, data.train), oracle


def test_scst_rewards_equal_scalar_oracle_at_bench_scale(bench_scale, monkeypatch):
    data, params, stats, oracle = bench_scale
    calls = []

    def recorded(candidates, owner, table):
        scores = cider_d_batch(candidates, owner, table)
        calls.append((candidates, owner, scores))
        return scores

    monkeypatch.setattr(rl, "cider_d_batch", recorded)
    train = Dataset("train", data.train.records[:30])
    trained, log = rl.train_rl(params, train, stats, 1, 0.05, np.random.default_rng(2), 10, 5)
    sets = mapped_references(params.vocab, train.records)  # the run's table holds them in order
    assert len(calls) == 3  # one call per step scores its baselines and samples
    for candidates, owner, scores in calls:
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
    expected = [scalar_cider_d(cap, image_refs, oracle) for cap, image_refs in zip(captions, refs)]
    assert report.cider == float(np.mean(expected)) and report.cider > 0.0
