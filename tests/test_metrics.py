import gc
import itertools
import math
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caplab import metrics
from caplab.cider import build_cider_stats, cider_d_batch, reference_table
from caplab.corpus import Dataset, ImageRecord, build_vocab, mapped_references
from caplab.metrics import (
    MetricsReport,
    evaluate,
    repetition_rate,
    rk_retrieval,
    vocab_stats,
)
from oracles import oor_analysis
from oracles import repetition_rate as sliced_repetition_rate


def oracle_document_vectors(dataset):
    """The per-split document build that the cached retrieval index replaced,
    each bag in lowest terms: its counts divided by their gcd."""
    docs = []
    for rec in dataset.records:
        bag = Counter(sorted(rec.attributes))
        for ref in rec.references:
            bag.update(ref)
        divisor = math.gcd(*bag.values()) or 1
        docs.append(Counter({word: count // divisor for word, count in bag.items()}))
    n_docs = len(docs)
    doc_count = Counter()
    for bag in docs:
        doc_count.update(set(bag))
    idf = {word: math.log((1 + n_docs) / (1 + df)) + 1.0 for word, df in doc_count.items()}
    return docs, idf


def oracle_rk_retrieval(captions, dataset, ks=(1, 5, 10)):
    """The per-caption ranking loop that the one-product ``rk_retrieval``
    replaced, kept as the oracle: R@K must be equal."""
    docs, idf = oracle_document_vectors(dataset)
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
        # caption norm does not affect the ranking; an exactly rounded sum per
        # document, so equal documents score equally wherever they sit
        scores = np.array([math.fsum(row * vec) for row in doc_matrix])
        own = scores[i]
        better = int((scores > own).sum())
        tied_lower = int(((scores == own) & (ids < ids[i])).sum())
        ranks[i] = 1 + better + tied_lower
    return {int(k): float(100.0 * (ranks <= k).mean()) for k in ks}


def oracle_evaluate(captions, dataset, vocab, stats, ks=(1, 5, 10)):
    """``evaluate`` as it was before the per-split context: every part
    rebuilt from the split on every call."""
    mapped_refs = mapped_references(vocab, dataset.records)
    unique_1, unique_s, mean_length = vocab_stats(captions, vocab)
    cider_scores = cider_d_batch(captions, np.arange(len(captions)),
                                 reference_table(mapped_refs, stats))
    oor_count, oor_rank, oor_defined = oor_analysis(captions, mapped_refs, vocab)
    return MetricsReport(
        unique_1=unique_1, unique_s=unique_s, mean_length=mean_length,
        cider=float(np.mean(cider_scores)), rep=repetition_rate(captions),
        r_at=oracle_rk_retrieval(captions, dataset, ks), oor_count=oor_count,
        oor_mean_rank=oor_rank, oor_rank_defined=oor_defined)


@pytest.fixture(scope="module")
def stats_vocab():
    corpus = [["a", "cat"], ["a", "cat"], ["a", "dog"], ["zebra", "stands", "here", "now"]]
    return build_vocab(corpus, 1)


class TestVocabStats:
    def test_hand_enumeration(self, stats_vocab):
        captions = [["a", "cat"], ["a", "cat"], ["a", "dog"]]
        unique_1, unique_s, mean_length = vocab_stats(captions, stats_vocab)
        assert (unique_1, unique_s, mean_length) == (3, 2, 2.0)

    def test_empty(self, stats_vocab):
        assert vocab_stats([], stats_vocab) == (0, 0, 0.0)

    def test_duplication_invariance(self, stats_vocab):
        captions = [["a", "cat"], ["a", "dog"]]
        u1, s1, _ = vocab_stats(captions, stats_vocab)
        u2, s2, _ = vocab_stats(captions * 3, stats_vocab)
        assert (u1, s1) == (u2, s2)

    def test_unk_excluded_from_unigrams_but_counted_in_length(self, stats_vocab):
        unique_1, unique_s, mean_length = vocab_stats([["a", "<unk>"]], stats_vocab)
        assert unique_1 == 1
        assert unique_s == 1
        assert mean_length == 1.0  # specials excluded from length

    def test_bounds(self, stats_vocab):
        captions = [["a", "cat", "dog"], ["zebra"]]
        unique_1, unique_s, _ = vocab_stats(captions, stats_vocab)
        assert unique_1 <= len(stats_vocab)
        assert unique_s <= len(captions)


class TestRepetitionRate:
    def test_hand_value_four_identical_tokens(self):
        # n=1: 1-1/4, n=2: 1-1/3, n=3: 1-1/2, n=4: 0 -> mean 0.479167
        assert repetition_rate([["a", "a", "a", "a"]]) == pytest.approx(0.479167, abs=1e-6)

    def test_all_distinct_is_zero(self):
        assert repetition_rate([["v", "w", "x", "y", "z"]]) == 0.0

    def test_order_invariance(self):
        caps = [["a", "b", "a"], ["c", "c"], ["d"]]
        assert repetition_rate(caps) == repetition_rate(list(reversed(caps)))

    def test_short_captions_contribute_zero_for_missing_orders(self):
        assert repetition_rate([["a"]]) == 0.0
        assert repetition_rate([["a", "a"]]) == pytest.approx((0.5 + 0.0) / 4)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            caps = [[str(t) for t in rng.integers(0, 3, size=rng.integers(1, 8))]
                    for _ in range(4)]
            assert 0.0 <= repetition_rate(caps) <= 1.0


class TestOorAnalysis:
    def test_verbatim_copies_have_none(self, stats_vocab):
        refs = [[["a", "cat"]], [["a", "dog"]]]
        captions = [["a", "cat"], ["a", "dog"]]
        count, mean_rank, defined = oor_analysis(captions, refs, stats_vocab)
        assert count == 0 and mean_rank == 0.0 and defined is False

    def test_single_novel_word(self, stats_vocab):
        refs = [[["a", "cat"]]]
        count, mean_rank, defined = oor_analysis([["zebra"]], refs, stats_vocab)
        assert count == 1 and defined is True
        assert mean_rank == stats_vocab.frequency_rank("zebra")

    def test_equal_counts_different_ranks(self, stats_vocab):
        refs = [[["a"]]]
        high_freq = oor_analysis([["cat"]], refs, stats_vocab)
        low_freq = oor_analysis([["zebra"]], refs, stats_vocab)
        assert high_freq[0] == low_freq[0] == 1
        assert low_freq[1] > high_freq[1]

    def test_tokens_counted_not_types(self, stats_vocab):
        refs = [[["a"]]]
        count, _, _ = oor_analysis([["zebra", "zebra", "cat"]], refs, stats_vocab)
        assert count == 3

    def test_unranked_tokens_counted_but_excluded_from_mean(self, stats_vocab):
        refs = [[["a"]]]
        count, mean_rank, defined = oor_analysis([["<unk>", "zebra"]], refs, stats_vocab)
        assert count == 2
        assert mean_rank == stats_vocab.frequency_rank("zebra")
        assert defined

    def test_alignment_enforced(self, stats_vocab):
        with pytest.raises(ValueError):
            oor_analysis([["a"]], [], stats_vocab)


def make_retrieval_dataset():
    recs = [
        ImageRecord(id=0, features=np.zeros(2), references=[["red", "ball"]],
                    attributes={"red", "ball"}),
        ImageRecord(id=1, features=np.zeros(2), references=[["green", "cube"]],
                    attributes={"green", "cube"}),
        ImageRecord(id=2, features=np.zeros(2), references=[["blue", "cone"]],
                    attributes={"blue", "cone"}),
    ]
    return Dataset(split="test", records=recs)


class TestRetrieval:
    def test_single_image_is_always_recalled(self):
        ds = Dataset(split="test", records=[
            ImageRecord(id=5, features=np.zeros(2), references=[["x"]], attributes={"x"})])
        assert rk_retrieval([["anything"]], ds, ks=(1,))[1] == 100.0

    def test_exact_attribute_caption_ranks_first(self):
        ds = make_retrieval_dataset()
        captions = [["red", "ball"], ["green", "cube"], ["blue", "cone"]]
        r = rk_retrieval(captions, ds, ks=(1, 2, 3))
        assert r[1] == 100.0

    def test_monotone_in_k(self):
        ds = make_retrieval_dataset()
        captions = [["red"], ["red"], ["red"]]  # degenerate: same caption everywhere
        r = rk_retrieval(captions, ds, ks=(1, 2, 3))
        assert r[1] <= r[2] <= r[3]
        assert r[3] == 100.0

    def test_tie_goes_to_lower_image_id(self):
        ds = make_retrieval_dataset()
        # a caption matching nothing ties all images at score zero
        r = rk_retrieval([["zzz"], ["green", "cube"], ["blue", "cone"]], ds, ks=(1,))
        # image 0 wins its tie (lowest id), so its useless caption still ranks 1
        assert r[1] == 100.0

    def test_count_mismatch_rejected(self):
        ds = make_retrieval_dataset()
        with pytest.raises(ValueError):
            rk_retrieval([["a"]], ds)


@pytest.fixture(scope="module")
def eval_setup():
    recs = [
        ImageRecord(id=0, features=np.zeros(2),
                    references=[["a", "red", "bird", "flies"]],
                    attributes={"red", "bird"}),
        ImageRecord(id=1, features=np.zeros(2),
                    references=[["a", "blue", "fish", "swims"]],
                    attributes={"blue", "fish"}),
    ]
    ds = Dataset(split="test", records=recs)
    vocab = build_vocab([r for rec in recs for r in rec.references], 1)
    stats = build_cider_stats([rec.references for rec in recs])
    return ds, vocab, stats


class TestEvaluate:
    def test_self_evaluation_oracle(self, eval_setup):
        ds, vocab, stats = eval_setup
        captions = [rec.references[0] for rec in ds.records]
        report = evaluate(captions, ds, vocab, stats)
        assert report.oor_count == 0
        assert report.cider == pytest.approx(10.0, abs=1e-6)
        assert report.rep == repetition_rate(captions)
        assert report.r_at[1] == 100.0
        assert report.unique_s == 2
        assert report.mean_length == 4.0

    def test_determinism(self, eval_setup):
        ds, vocab, stats = eval_setup
        captions = [["a", "red", "bird"], ["a", "blue", "fish"]]
        r1 = evaluate(captions, ds, vocab, stats)
        r2 = evaluate(captions, ds, vocab, stats)
        assert r1.as_dict() == r2.as_dict()

    def test_image_order_invariance(self, eval_setup):
        ds, vocab, stats = eval_setup
        captions = [["a", "red", "bird"], ["a", "blue", "fish"]]
        base = evaluate(captions, ds, vocab, stats).as_dict()
        flipped_ds = Dataset(split="test", records=list(reversed(ds.records)))
        flipped = evaluate(list(reversed(captions)), flipped_ds, vocab, stats).as_dict()
        assert base == flipped

    def test_report_schema(self, eval_setup):
        ds, vocab, stats = eval_setup
        captions = [["a"], ["a"]]
        row = evaluate(captions, ds, vocab, stats).as_dict()
        for key in ("unique_1", "unique_s", "mean_length", "cider", "rep",
                    "oor_count", "oor_mean_rank", "r_at_1", "r_at_5", "r_at_10"):
            assert key in row

    def test_r_at_bounds_and_monotonicity(self, eval_setup):
        ds, vocab, stats = eval_setup
        report = evaluate([["a", "red"], ["zzz"]], ds, vocab, stats)
        ks = sorted(report.r_at)
        assert all(0.0 <= report.r_at[k] <= 100.0 for k in ks)
        assert all(report.r_at[a] <= report.r_at[b] for a, b in zip(ks, ks[1:]))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=6),
                min_size=1, max_size=5))
def test_repetition_rate_bounds_property(captions):
    assert 0.0 <= repetition_rate(captions) <= 1.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "c"]), max_size=9), min_size=1, max_size=6))
def test_repetition_rate_equals_sliced_ngrams(captions):
    assert repetition_rate(captions) == sliced_repetition_rate(captions)


WORDS = ["a", "b", "c", "d", "e", "f"]
UNSEEN = ["x", "y"]  # in no document and in no vocabulary
word_lists = st.lists(st.sampled_from(WORDS), min_size=1, max_size=5)


@st.composite
def scored_splits(draw):
    """A small split, a vocabulary over part of its words, its corpus
    statistics, one caption per image and recall cut-offs.

    Images may repeat an earlier image's document exactly (score ties), ids
    are shuffled so ties do not resolve in record order, and captions may be
    empty, hold unseen words or <unk>, or copy a reference of any image."""
    n = draw(st.integers(1, 6))
    ids = draw(st.permutations(range(10, 10 + 3 * n, 3)))
    records = []
    for i in range(n):
        if records and draw(st.booleans()):
            twin = records[draw(st.integers(0, len(records) - 1))]
            refs, attributes = [list(ref) for ref in twin.references], set(twin.attributes)
        else:
            refs = draw(st.lists(word_lists, min_size=1, max_size=3))
            attributes = set(draw(st.lists(st.sampled_from(WORDS), max_size=3)))
        records.append(ImageRecord(id=ids[i], features=np.zeros(2), references=refs,
                                   attributes=attributes))
    split = Dataset("val", records)
    # words seen fewer than twice in the split become <unk>
    vocab = build_vocab(split.all_references(), 2)
    stats = build_cider_stats(mapped_references(vocab, records))
    all_refs = split.all_references()
    captions = []
    for rec in records:
        kind = draw(st.sampled_from(["own", "other", "free"]))
        if kind == "own":
            captions.append(list(draw(st.sampled_from(rec.references))))
        elif kind == "other":
            captions.append(list(draw(st.sampled_from(all_refs))))
        else:
            captions.append(draw(st.lists(st.sampled_from(WORDS + UNSEEN + ["<unk>"]),
                                          max_size=6)))
    ks = draw(st.lists(st.integers(1, 10), min_size=1, max_size=3, unique=True))
    return split, vocab, stats, captions, tuple(ks)


@settings(max_examples=200, deadline=None)
@given(scored_splits())
def test_report_equals_per_call_oracle(case):
    split, vocab, stats, captions, ks = case
    expected = oracle_evaluate(captions, split, vocab, stats, ks)
    assert rk_retrieval(captions, split, ks) == expected.r_at
    assert evaluate(captions, split, vocab, stats, ks) == expected
    # the second call reads the split's context
    assert evaluate(captions, split, vocab, stats, ks) == expected


def test_retrieval_ties_and_empty_captions():
    """Duplicate documents tie exactly; the lower id wins, whatever the record
    order, and a caption matching no document ties with every image."""
    twin = dict(features=np.zeros(2), references=[["red", "ball"]], attributes={"red"})
    split = Dataset("val", [ImageRecord(id=7, **twin), ImageRecord(id=3, **twin),
                            ImageRecord(id=5, features=np.zeros(2), references=[["blue"]])])
    captions = [["red", "ball"], ["red", "ball"], []]
    # ranks 2 (id 3 wins the tie), 1, and 2 (id 3 again)
    assert rk_retrieval(captions, split, (1, 2, 3, 50)) == {1: 100.0 * (1 / 3), 2: 100.0,
                                                            3: 100.0, 50: 100.0}
    assert rk_retrieval(captions, split, (1, 2, 3, 50)) == oracle_rk_retrieval(
        captions, split, (1, 2, 3, 50))


def test_documents_with_permuted_counts_tie_exactly():
    """Two documents whose counts are a permutation of each other's, under
    equal idf, score a caption equally though the product sums their terms
    in another order; the tie goes to the lower ids."""
    first = [["a", "a", "b", "d"], ["b", "c", "c", "e"]]
    second = [["a", "c", "e"], ["a", "b", "b", "d", "e"]]
    refs = [first] * 4 + [second] * 4 + [first]
    split = Dataset("val", [ImageRecord(id=10 + 3 * i, features=np.zeros(2), references=r)
                            for i, r in enumerate(refs)])
    captions = [[]] * 8 + [["a", "a", "c", "e"]]
    # the last caption ties with all eight other images, each with a lower id
    expected = {k: 100.0 * (k / 9) for k in (1, 2, 3, 5, 9)}
    assert rk_retrieval(captions, split, (1, 2, 3, 5, 9)) == expected
    assert oracle_rk_retrieval(captions, split, (1, 2, 3, 5, 9)) == expected


@st.composite
def proportional_splits(draw):
    """A split whose images repeat one of a few reference lists 1-3 times and
    have no attributes, so the documents of one list are integer multiples
    of one another; ids are shuffled, and one caption per image."""
    lists = draw(st.lists(st.lists(word_lists, min_size=1, max_size=3), min_size=1,
                          max_size=4))
    n = draw(st.integers(2, 12))
    ids = draw(st.permutations(range(10, 10 + 3 * n, 3)))
    records = [ImageRecord(id=ids[i], features=np.zeros(2),
                           references=[list(ref) for ref in draw(st.sampled_from(lists))]
                           * draw(st.integers(1, 3)))
               for i in range(n)]
    captions = draw(st.lists(st.lists(st.sampled_from(WORDS), max_size=6), min_size=n,
                             max_size=n))
    return Dataset("val", records), captions


@settings(max_examples=300, deadline=None)
@given(proportional_splits())
def test_proportional_documents_tie_exactly(case):
    """Documents equal in lowest terms share a column, so the one product
    ranks like the per-caption oracle, lower id first among them."""
    split, captions = case
    ks = (1, 2, 3, 5)
    assert rk_retrieval(captions, split, ks) == oracle_rk_retrieval(captions, split, ks)
    lowest_terms, _ = oracle_document_vectors(split)
    column = metrics._split_context(split).retrieval.doc_column
    for a, b in itertools.combinations(range(len(split)), 2):
        assert (column[a] == column[b]) == (lowest_terms[a] == lowest_terms[b])


class TestSplitContext:
    @staticmethod
    def split(refs=(["a", "red", "bird"], ["a", "blue", "fish"])):
        return Dataset("val", [ImageRecord(id=i, features=np.zeros(2), references=[list(ref)],
                                           attributes=set(ref[1:])) for i, ref in enumerate(refs)])

    CAPTIONS = [["a", "red", "bird"], ["a", "red", "fish"]]

    def test_second_evaluate_reuses_the_context(self, eval_setup):
        _, vocab, stats = eval_setup
        split = self.split()
        first = evaluate(self.CAPTIONS, split, vocab, stats)
        context = metrics._contexts[split]
        table = context.cider_table
        assert evaluate(self.CAPTIONS, split, vocab, stats) == first
        assert metrics._contexts[split] is context and context.cider_table is table

    def test_new_split_with_edited_references_is_not_served_the_old_context(self, eval_setup):
        _, vocab, stats = eval_setup
        split = self.split()
        first = evaluate(self.CAPTIONS, split, vocab, stats)
        edited = self.split((["a", "red", "bird"], ["a", "red", "fish"]))
        report = evaluate(self.CAPTIONS, edited, vocab, stats)
        assert report == oracle_evaluate(self.CAPTIONS, edited, vocab, stats)
        assert report != first
        assert metrics._contexts[edited] is not metrics._contexts[split]

    def test_other_vocab_or_stats_object_rebuilds(self, eval_setup):
        ds, vocab, stats = eval_setup
        split = self.split()
        evaluate(self.CAPTIONS, split, vocab, stats)
        context = metrics._contexts[split]
        old_table, old_words = context.cider_table, context.ref_words
        equal_vocab = build_vocab([r for rec in ds.records for r in rec.references], 1)
        assert equal_vocab == vocab and equal_vocab is not vocab
        evaluate(self.CAPTIONS, split, equal_vocab, stats)
        assert context.vocab is equal_vocab and context.ref_words is not old_words
        # a vocabulary without "fish" maps it to <unk> in the references
        small_vocab = build_vocab([["a", "red", "bird", "blue"]], 1)
        report = evaluate(self.CAPTIONS, split, small_vocab, stats)
        assert report == oracle_evaluate(self.CAPTIONS, split, small_vocab, stats)
        other_stats = build_cider_stats([rec.references for rec in split.records])
        report = evaluate(self.CAPTIONS, split, small_vocab, other_stats)
        assert context.cider_table is not old_table and context.cider_table.stats is other_stats
        assert report == oracle_evaluate(self.CAPTIONS, split, small_vocab, other_stats)

    def test_context_dies_with_the_split(self, eval_setup):
        _, vocab, stats = eval_setup
        split = self.split()
        evaluate(self.CAPTIONS, split, vocab, stats)
        alive, context = weakref.ref(split), weakref.ref(metrics._contexts[split])
        del split
        gc.collect()
        assert alive() is None
        assert context() is None  # the entry went with its key
