import math
import sys

import numpy as np
import pytest

from caplab import model
from caplab.corpus import build_vocab
from caplab.decode import DecodeConfig
from caplab.finetune import (FinetuneConfig, check_vocab_hash, classifier_step, finetune, sweep,
                             sweep_grids)
from caplab.losses import FrozenReference, anti_focal_batch, bp_batch, ce_batch, focal_batch
from caplab.model import CLASSIFIER_ARRAYS, ModelDims, init_params
from caplab.rl import corpus_stats_for, reference_pairs, train_ce


@pytest.fixture(scope="module")
def ft_setup(micro_bundle):
    vocab = build_vocab(micro_bundle.train.all_references(), 1)
    dims = ModelDims(hidden_dim=8, feature_dim=micro_bundle.config.feature_dim, max_len=12)
    init = init_params(vocab, dims, 1, 0.2)
    checkpoint, _ = train_ce(init, micro_bundle.train, epochs=2, lr=0.3,
                             rng=np.random.default_rng(0))
    return vocab, checkpoint


class TestFinetune:
    def test_zero_lr_is_identity(self, ft_setup, micro_bundle):
        _, checkpoint = ft_setup
        result = finetune(checkpoint, micro_bundle, FinetuneConfig(method="sft", lr=0.0), seed=1)
        assert result.params.full_hash() == checkpoint.full_hash()

    def test_sft_changes_classifier_only(self, ft_setup, micro_bundle):
        _, checkpoint = ft_setup
        result = finetune(checkpoint, micro_bundle, FinetuneConfig(method="sft", lr=0.01), seed=1)
        assert result.params.encoder_hash() == checkpoint.encoder_hash()
        assert result.params.classifier_hash() != checkpoint.classifier_hash()
        assert result.frozen is None

    def test_wft_frozen_reference_untouched(self, ft_setup, micro_bundle):
        _, checkpoint = ft_setup
        result = finetune(checkpoint, micro_bundle,
                          FinetuneConfig(method="wft", lr=0.01, beta_prime=0.1), seed=1)
        assert result.frozen is not None
        assert result.frozen.hash_hex() == checkpoint.full_hash()
        assert result.params.encoder_hash() == checkpoint.encoder_hash()
        assert result.params.classifier_hash() != checkpoint.classifier_hash()

    def test_focal_variants_run(self, ft_setup, micro_bundle):
        _, checkpoint = ft_setup
        for method in ("fl", "afl"):
            result = finetune(checkpoint, micro_bundle,
                              FinetuneConfig(method=method, lr=0.01), seed=2)
            assert result.params.encoder_hash() == checkpoint.encoder_hash()

    def test_deterministic(self, ft_setup, micro_bundle):
        _, checkpoint = ft_setup
        config = FinetuneConfig(method="wft", lr=0.02, beta_prime=1.0)
        r1 = finetune(checkpoint, micro_bundle, config, seed=3)
        r2 = finetune(checkpoint, micro_bundle, config, seed=3)
        assert r1.params.full_hash() == r2.params.full_hash()

    def test_checkpoint_agnostic(self, ft_setup, micro_bundle):
        vocab, _ = ft_setup
        dims = ModelDims(hidden_dim=8, feature_dim=micro_bundle.config.feature_dim, max_len=12)
        untrained = init_params(vocab, dims, 44, 0.2)
        result = finetune(untrained, micro_bundle, FinetuneConfig(method="sft", lr=0.01), seed=1)
        assert result.params.encoder_hash() == untrained.encoder_hash()

    def test_vocab_mismatch_rejected(self, ft_setup, micro_bundle):
        wrong_vocab = build_vocab([["alien", "words"]], 1)
        dims = ModelDims(hidden_dim=8, feature_dim=micro_bundle.config.feature_dim, max_len=12)
        wrong = init_params(wrong_vocab, dims, 0)
        with pytest.raises(ValueError):
            finetune(wrong, micro_bundle, FinetuneConfig(method="sft", lr=0.01), seed=1)
        with pytest.raises(ValueError):
            check_vocab_hash(wrong, micro_bundle)

    def test_unknown_method_rejected(self, ft_setup, micro_bundle):
        _, checkpoint = ft_setup
        with pytest.raises(ValueError):
            finetune(checkpoint, micro_bundle, FinetuneConfig(method="scst", lr=0.01), seed=1)

    def test_wft_runs_one_forward_pass_per_batch(self, ft_setup, micro_bundle, monkeypatch):
        _, checkpoint = ft_setup
        calls = []
        original = model.forward_sequences

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for mod in [m for name, m in sys.modules.items() if name.startswith("caplab")]:
            for attr in [a for a, obj in vars(mod).items() if obj is original]:
                monkeypatch.setattr(mod, attr, counted)
        config = FinetuneConfig(method="wft", lr=0.01, batch_size=7)
        finetune(checkpoint, micro_bundle, config, seed=1)
        assert len(calls) == math.ceil(len(reference_pairs(micro_bundle.train)) / 7)


class TestClassifierStep:
    """The fine-tune step's classifier gradient is the classifier block of
    the matching sequence loss's full gradient, bit for bit."""

    @pytest.mark.parametrize("method", ["sft", "fl", "afl", "wft"])
    def test_matches_sequence_loss(self, ft_setup, micro_bundle, method):
        _, checkpoint = ft_setup
        pairs = reference_pairs(micro_bundle.train)[:9]
        feats = np.stack([rec.features for rec, _ in pairs])
        captions = [ref for _, ref in pairs]
        beta, gamma, alpha = 1.3, 1.5, 0.7
        frozen = FrozenReference(checkpoint, 0.6)
        # mid fine-tune: same encoder as the frozen copy, another classifier
        params = checkpoint.copy()
        params.cls_w *= 1.5
        config = FinetuneConfig(method=method, beta=beta, gamma=gamma, alpha=alpha)
        full = {
            "sft": lambda: ce_batch(params, feats, captions, beta),
            "fl": lambda: focal_batch(params, feats, captions, beta, gamma),
            "afl": lambda: anti_focal_batch(params, feats, captions, beta, gamma, alpha),
            "wft": lambda: bp_batch(params, frozen, feats, captions, beta),
        }[method]()
        out = classifier_step(config, frozen if method == "wft" else None)(params, feats, captions)
        assert out.loss == full.loss
        assert set(out.grads) == set(CLASSIFIER_ARRAYS)
        for name, grad in out.grads.items():
            assert np.abs(grad).max() > 0.0
            np.testing.assert_array_equal(grad, full.grads[name])


@pytest.fixture(scope="module")
def sweep_setup(micro_bundle):
    vocab = build_vocab(micro_bundle.train.all_references(), 1)
    dims = ModelDims(hidden_dim=8, feature_dim=micro_bundle.config.feature_dim, max_len=12)
    init = init_params(vocab, dims, 1, 0.2)
    checkpoint, _ = train_ce(init, micro_bundle.train, epochs=2, lr=0.3,
                             rng=np.random.default_rng(0))
    stats = corpus_stats_for(vocab, micro_bundle.train)
    decode_config = DecodeConfig(method="beam", beam_size=3, max_len=12)
    return checkpoint, stats, decode_config


class TestSweep:
    def test_single_point_grid(self, sweep_setup, micro_bundle):
        checkpoint, stats, decode_config = sweep_setup
        result = sweep(checkpoint, micro_bundle, stats, "sft", lr_grid=[0.01],
                       seed=0, decode_config=decode_config)
        assert len(result.rows) == 1
        assert result.best["lr"] == 0.01

    def test_wft_grid_is_cartesian_product(self, sweep_setup, micro_bundle):
        checkpoint, stats, decode_config = sweep_setup
        result = sweep(checkpoint, micro_bundle, stats, "wft",
                       lr_grid=[0.02, 0.002], beta_prime_grid=[0.1, 1.0],
                       seed=0, decode_config=decode_config)
        assert len(result.rows) == 4
        assert {(row["lr"], row["beta_prime"]) for row in result.rows} == \
            {(0.02, 0.1), (0.02, 1.0), (0.002, 0.1), (0.002, 1.0)}

    def test_plain_and_bp_sweeps_are_independent(self, sweep_setup, micro_bundle):
        checkpoint, stats, decode_config = sweep_setup
        plain = sweep(checkpoint, micro_bundle, stats, "wft", lr_grid=[0.02, 0.002],
                      beta_prime_grid=[0.1, 1.0], seed=0, decode_config=decode_config,
                      decode_variant="plain")
        bp = sweep(checkpoint, micro_bundle, stats, "wft", lr_grid=[0.02, 0.002],
                   beta_prime_grid=[0.1, 1.0], seed=0, decode_config=decode_config,
                   decode_variant="bp")
        assert len(plain.rows) == len(bp.rows) == 4
        # selections are made from separately decoded validation scores; the
        # harness never couples them
        assert plain.best is not bp.best

    def test_tie_breaks_to_smaller_lr(self, sweep_setup, micro_bundle):
        checkpoint, stats, decode_config = sweep_setup
        # lr=0 twice: identical models, identical scores; smaller lr wins
        result = sweep(checkpoint, micro_bundle, stats, "sft", lr_grid=[0.0, 0.0],
                       seed=0, decode_config=decode_config)
        assert result.best["lr"] == 0.0

    @pytest.mark.parametrize("method", ["sft", "fl", "afl"])
    def test_bp_decoding_needs_wft(self, sweep_setup, micro_bundle, method):
        checkpoint, stats, decode_config = sweep_setup
        with pytest.raises(ValueError, match="wft"):
            sweep(checkpoint, micro_bundle, stats, method, lr_grid=[0.01], seed=0,
                  decode_config=decode_config, decode_variant="bp")

    def test_empty_grid_rejected(self, sweep_setup, micro_bundle):
        checkpoint, stats, decode_config = sweep_setup
        with pytest.raises(ValueError):
            sweep(checkpoint, micro_bundle, stats, "sft", lr_grid=[], seed=0,
                  decode_config=decode_config)

    def test_empty_beta_prime_grid_rejected(self, sweep_setup, micro_bundle):
        checkpoint, stats, decode_config = sweep_setup
        with pytest.raises(ValueError, match="beta-prime"):
            sweep(checkpoint, micro_bundle, stats, "wft", lr_grid=[0.01], beta_prime_grid=[],
                  seed=0, decode_config=decode_config)

    def test_sweep_grids(self):
        assert sweep_grids("wft", [0.1], [0.5, 1.0]) == ([0.1], [0.5, 1.0])
        assert sweep_grids("wft", (0.1, 0.2)) == ([0.1, 0.2], [None])
        assert sweep_grids("sft", [0.1], []) == ([0.1], [None])
        with pytest.raises(ValueError, match="learning-rate"):
            sweep_grids("sft", [], [1.0])
