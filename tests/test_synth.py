from collections import Counter

import numpy as np
import pytest

from caplab.corpus import record_to_json
from caplab.synth import (
    SynthConfig,
    generate_synthetic_dataset,
    largest_remainder_quota,
    rare_words,
    zipf_probs,
)

from conftest import micro_synth_config


def _bundle_bytes(bundle):
    chunks = []
    for split, ds in bundle.splits().items():
        chunks.append(split)
        chunks.extend(record_to_json(rec) for rec in ds.records)
    return "\n".join(chunks)


class TestDeterminism:
    def test_bit_identical_regeneration(self):
        config = micro_synth_config()
        b1 = generate_synthetic_dataset(config, seed=7)
        b2 = generate_synthetic_dataset(micro_synth_config(), seed=7)
        assert _bundle_bytes(b1) == _bundle_bytes(b2)

    def test_seed_changes_output(self):
        b1 = generate_synthetic_dataset(micro_synth_config(), seed=7)
        b2 = generate_synthetic_dataset(micro_synth_config(), seed=8)
        assert _bundle_bytes(b1) != _bundle_bytes(b2)


class TestStructure:
    def test_splits_disjoint_ids(self, micro_bundle):
        seen = set()
        for ds in micro_bundle.splits().values():
            ids = {rec.id for rec in ds.records}
            assert not ids & seen
            seen |= ids

    def test_reference_counts_and_validity(self, micro_bundle):
        config = micro_bundle.config
        for ds in micro_bundle.splits().values():
            for rec in ds.records:
                assert len(rec.references) == config.refs_per_image
                assert rec.features.shape == (config.feature_dim,)
                assert np.all(np.isfinite(rec.features))

    def test_rare_mention_rate_one_mentions_everything(self):
        config = micro_synth_config(rare_mention_rate=1.0)
        bundle = generate_synthetic_dataset(config, seed=3)
        rares = set(rare_words(config))
        for rec in bundle.train.records:
            image_rares = rec.attributes & rares
            assert image_rares
            for ref in rec.references:
                assert image_rares <= set(ref)

    def test_pool_too_small_errors(self):
        with pytest.raises(ValueError, match="common"):
            generate_synthetic_dataset(micro_synth_config(common_per_image=6, n_common=5), 0)
        with pytest.raises(ValueError, match="rare"):
            generate_synthetic_dataset(micro_synth_config(rare_per_image=20, n_rare=12), 0)

    def test_zero_images_names_field(self):
        with pytest.raises(ValueError, match="n_train"):
            generate_synthetic_dataset(micro_synth_config(n_train=0), 0)

    def test_zipf_quota_larger_than_a_split_names_field(self):
        # at exponent 3 the head rare attribute's quota is 50 of n_train's 30 images
        config = micro_synth_config(zipf_exponent=3.0)
        with pytest.raises(ValueError, match=r"^zipf_exponent .* 50 in n_train = 30$"):
            config.validate()
        micro_synth_config(zipf_exponent=1.5).validate()

    def test_references_without_attributes_rejected(self):
        with pytest.raises(ValueError, match="every reference is empty"):
            generate_synthetic_dataset(micro_synth_config(common_per_image=0, rare_per_image=0), 0)
        generate_synthetic_dataset(micro_synth_config(common_per_image=0, n_common=0), 0)

    def test_distinct_rare_attributes_per_image(self, micro_bundle):
        rares = set(rare_words(micro_bundle.config))
        for rec in micro_bundle.train.records:
            got = sorted(rec.attributes & rares)
            assert len(got) == micro_bundle.config.rare_per_image


class TestZipfOrdering:
    def test_quota_preserves_ordering(self):
        probs = zipf_probs(40, 1.2)
        quota = largest_remainder_quota(probs, 173)
        assert quota.sum() == 173
        assert all(quota[i] >= quota[i + 1] for i in range(len(quota) - 1))

    def test_rank_frequency_tally_monotone(self):
        """Tally oracle: realized counts, ordered by the configured Zipf
        rank, must be non-increasing."""
        config = micro_synth_config(n_train=120, n_rare=15)
        bundle = generate_synthetic_dataset(config, seed=11)
        counts = Counter()
        for rec in bundle.train.records:
            for ref in rec.references:
                counts.update(ref)
        tallies = [counts[w] for w in rare_words(config)]
        assert all(tallies[i] >= tallies[i + 1] for i in range(len(tallies) - 1))
        assert tallies[0] > tallies[-1]  # the head genuinely dominates the tail

    def test_rare_words_rarer_than_common_words(self, micro_bundle):
        counts = Counter()
        for rec in micro_bundle.train.records:
            for ref in rec.references:
                counts.update(ref)
        rare_total = sum(counts[w] for w in rare_words(micro_bundle.config))
        assert counts["a"] > rare_total / micro_bundle.config.n_rare
