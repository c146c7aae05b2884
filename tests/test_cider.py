import math
from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from caplab.cider import _tfidf_vectors, build_cider_stats, cider_d, ngram_counts


@pytest.fixture(scope="module")
def corpus_stats():
    # two images with partially overlapping references
    refs = [
        [["a", "red", "bird", "flies"], ["a", "red", "bird", "sits"]],
        [["a", "blue", "fish", "swims"]],
    ]
    return refs, build_cider_stats(refs)


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
                    reference_cider(cand, ref_set, stats), abs=1e-12)

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
        stats = build_cider_stats(refs)
        assert stats.doc_freq[("a",)] == 2
        assert stats.doc_freq[("cat",)] == 1

    def test_df_at_least_one(self, corpus_stats):
        refs, stats = corpus_stats
        assert all(df >= 1 for df in stats.doc_freq.values())

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
        for _ in range(2):  # the second pass reads every reference from the cache
            for cand in self.CANDIDATES:
                for refs in self.REFS:
                    assert cider_d(cand, refs, warm) == cider_d(cand, refs, build_cider_stats(self.REFS))

    def test_cache_filled_lazily_with_reference_vectors(self):
        stats = build_cider_stats(self.REFS)
        assert stats.ref_vectors == {}
        cider_d(self.CANDIDATES[0], self.REFS[0], stats)
        assert set(stats.ref_vectors) == {tuple(ref) for ref in self.REFS[0]}
        for key, cached in stats.ref_vectors.items():
            assert cached == _tfidf_vectors(list(key), stats)

    def test_stats_objects_do_not_share_a_cache(self):
        first, second = build_cider_stats(self.REFS), build_cider_stats(self.REFS)
        assert first.ref_vectors is not second.ref_vectors
        cider_d(self.CANDIDATES[0], self.REFS[0], first)
        assert first.ref_vectors and second.ref_vectors == {}
        assert first == second  # the cache takes no part in equality
