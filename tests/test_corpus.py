import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caplab.corpus import (
    BOS,
    EOS,
    SPECIALS,
    UNK,
    Dataset,
    ImageRecord,
    Vocabulary,
    atomic_write,
    build_vocab,
    bin_sizes,
    check_count,
    check_number,
    freq_histogram,
    load_dataset_split,
    record_from_json,
    record_to_json,
    save_dataset_split,
)


class TestBuildVocab:
    def test_threshold_boundary(self):
        corpus = [["cat"]] * 5 + [["ocelot"]] * 4
        vocab = build_vocab(corpus, min_count=5)
        assert "cat" in vocab.id_of
        assert "ocelot" not in vocab.id_of

    def test_min_count_one_keeps_everything(self):
        corpus = [["x", "y"], ["z"]]
        vocab = build_vocab(corpus, min_count=1)
        assert set(vocab.tokens) == {"x", "y", "z", UNK, BOS, EOS}

    def test_rare_token_maps_to_unk(self):
        vocab = build_vocab([["a", "a", "b"]], min_count=2)
        assert vocab.tokens == ["a", UNK, BOS, EOS]
        assert vocab.encode(["b"]) == [vocab.unk_id]
        assert vocab.freq[vocab.unk_id] == 1  # the dropped "b" occurrence

    def test_empty_corpus_errors(self):
        with pytest.raises(ValueError):
            build_vocab([], min_count=1)

    def test_ids_contiguous_and_consistent(self, tiny_vocab):
        for i, tok in enumerate(tiny_vocab.tokens):
            assert tiny_vocab.id_of[tok] == i

    def test_order_insensitive(self):
        corpus = [["a", "b"], ["c", "a"], ["b", "a"]]
        v1 = build_vocab(corpus, 1)
        v2 = build_vocab(list(reversed(corpus)), 1)
        assert v1 == v2
        assert build_vocab(corpus, 1) == v1  # idempotent

    def test_frequency_rank_consistency(self):
        corpus = [["w"] * 5 + ["x"] * 3 + ["y"] * 3 + ["z"]]
        vocab = build_vocab(corpus, 1)
        assert vocab.frequency_rank("w") == 1
        # ties broken lexicographically
        assert vocab.frequency_rank("x") == 2
        assert vocab.frequency_rank("y") == 3
        assert vocab.frequency_rank("z") == 4
        counts = Counter(corpus[0])
        for t1 in "wxyz":
            for t2 in "wxyz":
                if counts[t1] > counts[t2]:
                    assert vocab.frequency_rank(t1) < vocab.frequency_rank(t2)

    def test_no_rank_for_specials(self, tiny_vocab):
        with pytest.raises(KeyError):
            tiny_vocab.frequency_rank(UNK)

    @pytest.mark.parametrize("min_count", [4.5, 2.0, True, "2", None, 0])
    def test_min_count_must_be_an_integer_of_at_least_one(self, min_count):
        """A float is not truncated: the vocabulary would record another
        threshold than the one it was built with."""
        with pytest.raises(ValueError, match="min_count must be an integer >= 1"):
            build_vocab([["a", "a", "b"]], min_count)
        with pytest.raises(ValueError, match="min_count must be an integer >= 1"):
            Vocabulary(["a", *SPECIALS], [2, 0, 0, 0], min_count)

    def test_numpy_min_count_recorded_as_int(self):
        vocab = build_vocab([["a", "a", "b"]], np.int64(2))
        assert vocab == build_vocab([["a", "a", "b"]], 2)
        assert type(vocab.min_count) is int


class TestValueChecks:
    @pytest.mark.parametrize("value", [1, 10**30, np.int64(3), np.int32(1), np.uint8(7)])
    def test_count_accepts_integers_of_any_kind(self, value):
        check_count("k", value, 1)

    @pytest.mark.parametrize("value", [
        True, False, np.bool_(True), 0, -1, np.int64(0), 2.5, 3.0, np.float32(3.0), math.nan,
        math.inf, -math.inf, "3", None, [3],
    ])
    def test_count_rejects(self, value):
        with pytest.raises(ValueError, match=r"k must be an integer >= 1, got "):
            check_count("k", value, 1)

    @pytest.mark.parametrize("value", [0, 0.0, 2.5, 10**30, np.float32(0.5), np.float64(1e300),
                                       np.int64(3)])
    def test_number_accepts_finite_reals_of_any_kind(self, value):
        check_number("x", value)

    @pytest.mark.parametrize("value", [
        True, False, np.bool_(False), math.nan, math.inf, -math.inf, np.float32("nan"),
        np.float32("inf"), np.float64("-inf"), -0.5, np.int64(-1), "1", "nan", None, [1.0],
    ])
    def test_number_rejects(self, value):
        with pytest.raises(ValueError, match=r"x must be a finite number >= 0, got "):
            check_number("x", value)

    def test_number_bounds(self):
        check_number("x", 1e-300, positive=True)
        check_number("x", 1.0, most=1.0)
        with pytest.raises(ValueError, match=r"x must be a finite number > 0, got 0"):
            check_number("x", 0.0, positive=True)
        with pytest.raises(ValueError, match=r"x must be a finite number >= 0 and <= 1.0"):
            check_number("x", 1.5, most=1.0)


def _tally_histogram(captions, vocab, n_bins):
    """Independent oracle: direct tally of caption tokens into bins."""
    sizes = bin_sizes(vocab.n_words, n_bins)
    bin_of = {}
    start = 0
    for b, size in enumerate(sizes):
        for i in range(start, start + size):
            bin_of[vocab.tokens[i]] = b
        start += size
    bins = np.zeros(n_bins)
    tail = 0
    total = 0
    for cap in captions:
        for tok in cap:
            total += 1
            if tok in bin_of:
                bins[bin_of[tok]] += 1
            else:
                tail += 1
    return bins / total, tail / total


class TestFreqHistogram:
    def test_self_comparison(self):
        corpus = [["a", "a", "b"], ["a", "c"], ["b", "c", "c", "c"]]
        vocab = build_vocab(corpus, 1)
        hist = freq_histogram(corpus, vocab, n_bins=3)
        expected_bins, expected_tail = _tally_histogram(corpus, vocab, 3)
        np.testing.assert_allclose(hist.bins, expected_bins)
        assert hist.tail == expected_tail == 0.0

    def test_point_mass_on_most_frequent(self):
        corpus = [["a", "a", "a"], ["b", "c"]]
        vocab = build_vocab(corpus, 1)
        hist = freq_histogram([["a", "a"]], vocab, n_bins=3)
        assert hist.bins[0] == 1.0
        assert hist.bins[1:].sum() == 0.0

    def test_normalization(self, tiny_vocab):
        hist = freq_histogram([["a", "b", "b"], ["a"]], tiny_vocab, n_bins=2)
        assert hist.bins.sum() + hist.tail == pytest.approx(1.0, abs=1e-9)

    def test_unk_mass_lands_in_tail(self):
        vocab = build_vocab([["a", "a", "b", "b"]], 2)
        hist = freq_histogram([["a", "zebra"]], vocab, n_bins=2)
        assert hist.tail == pytest.approx(0.5)
        assert hist.bins.sum() == pytest.approx(0.5)

    def test_too_many_bins_errors(self, tiny_vocab):
        with pytest.raises(ValueError):
            freq_histogram([["a"]], tiny_vocab, n_bins=tiny_vocab.n_words + 1)

    def test_order_invariance(self):
        corpus = [["a", "b"], ["b", "b", "c"], ["c"]]
        vocab = build_vocab(corpus, 1)
        h1 = freq_histogram(corpus, vocab, 2)
        h2 = freq_histogram(list(reversed(corpus)), vocab, 2)
        np.testing.assert_array_equal(h1.bins, h2.bins)
        assert h1.tail == h2.tail

    def test_earlier_bins_take_remainder(self):
        assert bin_sizes(7, 3) == [3, 2, 2]
        assert bin_sizes(200, 200) == [1] * 200

    def test_csv_schema(self, tiny_vocab, tmp_path):
        hist = freq_histogram([["a", "b"]], tiny_vocab, 2)
        path = tmp_path / "hist.csv"
        hist.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_index,relative_frequency"
        assert lines[-1].startswith("tail,")
        assert len(lines) == 2 + 2  # header + 2 bins + tail


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=5),
                min_size=1, max_size=8))
def test_build_vocab_multiset_property(corpus):
    shuffled = list(reversed(corpus))
    assert build_vocab(corpus, 1) == build_vocab(shuffled, 1)


class TestDatasetIO:
    def test_record_round_trip(self):
        rec = ImageRecord(id=3, features=np.array([0.5, -1.25]),
                          references=[["a", "b"]], attributes={"a"})
        back = record_from_json(record_to_json(rec))
        assert back.id == rec.id
        np.testing.assert_array_equal(back.features, rec.features)
        assert back.references == rec.references
        assert back.attributes == rec.attributes

    def test_split_file_round_trip(self, micro_bundle, tmp_path):
        path = tmp_path / "train.jsonl"
        save_dataset_split(micro_bundle.train, path)
        loaded = load_dataset_split(path, "train", micro_bundle.config.feature_dim)
        assert len(loaded) == len(micro_bundle.train)
        for a, b in zip(loaded.records, micro_bundle.train.records):
            assert a.id == b.id
            np.testing.assert_array_equal(a.features, b.features)
            assert a.references == b.references
            assert a.attributes == b.attributes

    def test_duplicate_ids_rejected(self):
        rec = ImageRecord(id=1, features=np.zeros(2), references=[["a"]])
        rec2 = ImageRecord(id=1, features=np.zeros(2), references=[["b"]])
        with pytest.raises(ValueError):
            Dataset(split="train", records=[rec, rec2])

    def test_special_token_in_reference_rejected(self):
        rec = ImageRecord(id=1, features=np.zeros(2), references=[[BOS, "a"]])
        with pytest.raises(ValueError):
            rec.validate()


class TestAtomicWrite:
    def test_replaces_target_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with atomic_write(path) as fh:
            fh.write("new\n")
            assert path.read_text() == "old\n"  # nothing is visible before the block ends
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("binary", [False, True])
    def test_error_mid_write_keeps_previous_file(self, tmp_path, binary):
        path = tmp_path / "out.bin"
        path.write_bytes(b"previous")
        with pytest.raises(RuntimeError):
            with atomic_write(path, binary=binary) as fh:
                fh.write(b"partial" if binary else "partial")
                raise RuntimeError("writer failed")
        assert path.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_error_without_previous_file_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            with atomic_write(tmp_path / "out.txt") as fh:
                fh.write("partial")
                raise RuntimeError("writer failed")
        assert list(tmp_path.iterdir()) == []
