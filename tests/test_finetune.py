import gc
import importlib
import math
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

from caplab import model
from caplab.corpus import Dataset, build_vocab
from caplab.decode import DecodeConfig
from caplab.finetune import FinetuneConfig, classifier_step, encode_pairs, finetune, sweep
from caplab.losses import (FrozenReference, anti_focal_terms, bp_batch, caption_targets, ce_batch,
                           focal_terms, frame_targets, gold_index, logit_grad, teacher_forced)
from caplab.model import (CLASSIFIER_ARRAYS, ModelDims, TrainScope, backward_sequences,
                          classifier_grads, forward_sequences, init_params)
from caplab.rl import corpus_stats_for, reference_pairs, train_ce
from oracles import per_batch_oracle, pointwise_batch

# ``caplab.finetune`` is the re-exported function; the module is in sys.modules
finetune_mod = importlib.import_module("caplab.finetune")


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

    def test_unknown_method_rejected(self, ft_setup, micro_bundle):
        _, checkpoint = ft_setup
        with pytest.raises(ValueError):
            finetune(checkpoint, micro_bundle, FinetuneConfig(method="scst", lr=0.01), seed=1)

    def test_encodes_each_distinct_prefix_once(self, ft_setup, micro_bundle, monkeypatch):
        """No per-batch forward pass: one ``initial_hidden`` row per image,
        then one recurrent step per depth whose rows are the distinct
        (image, input prefix) pairs at that depth."""
        _, checkpoint = ft_setup
        forwards, encodes, step_rows = [], [], []
        wrappers = {
            model.forward_sequences: lambda fn: lambda *a: forwards.append(1) or fn(*a),
            model.initial_hidden: lambda fn: lambda params, feats: (
                encodes.append(len(feats)) or fn(params, feats)),
            model.recurrent_step: lambda fn: lambda params, h_prev, ids: (
                step_rows.append(len(h_prev)) or fn(params, h_prev, ids)),
        }
        for mod in [m for name, m in sys.modules.items() if name.startswith("caplab")]:
            for attr, obj in list(vars(mod).items()):
                if callable(obj) and obj in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[obj](obj))
        pairs = reference_pairs(micro_bundle.train)
        distinct = distinct_prefixes(pairs, checkpoint.dims.max_len)
        # the references share prefixes, so the table is smaller than the frame
        assert sum(distinct) < len(pairs) * len(distinct)
        for method in ("sft", "wft"):
            for counts in (forwards, encodes, step_rows):
                counts.clear()
            finetune(checkpoint, micro_bundle,
                     FinetuneConfig(method=method, lr=0.01, batch_size=7), seed=1)
            assert forwards == []
            assert encodes == [len(micro_bundle.train)]
            assert step_rows == distinct

    @pytest.mark.parametrize("hidden_dim, tol", [(64, 0.0), (8, 0.0), (33, 1e-12)])
    def test_prefix_table_states_against_teacher_forced_pass(self, micro_bundle, hidden_dim,
                                                             tol):
        """The table's states are those of one teacher-forced pass over all
        pairs: bit for bit at hidden sizes where the cell's products round a
        row the same whatever the row count, the default 64 among them, and
        bit-close at others, such as 33, where they do not."""
        vocab = build_vocab(micro_bundle.train.all_references(), 1)
        params = init_params(vocab, ModelDims(hidden_dim=hidden_dim,
                                              feature_dim=micro_bundle.config.feature_dim,
                                              max_len=12), 1, 0.3)
        pairs = reference_pairs(micro_bundle.train)
        table = encode_pairs(params, pairs)
        feats = np.stack([rec.features for rec, _ in pairs])
        inputs, targets, lengths = frame_targets(
            vocab, caption_targets(params, [ref for _, ref in pairs]))
        want = forward_sequences(params, feats, inputs, lengths).h
        got = table.states[table.index]
        np.testing.assert_array_equal(table.targets, targets)
        if tol == 0.0:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.abs(got - want).max() <= tol

    def test_duplicate_references_share_index_rows(self, ft_setup, micro_bundle):
        _, checkpoint = ft_setup
        first, second = micro_bundle.train.records[:2]
        ref, other = first.references[:2]
        assert ref != other
        pairs = [(first, ref), (second, ref), (first, list(ref)), (first, other)]
        table = encode_pairs(checkpoint, pairs)
        np.testing.assert_array_equal(table.index[0], table.index[2])
        # another image shares no state, even with the same words
        assert not set(table.index[0]) & set(table.index[1])
        # one image's references share their <bos> state
        assert table.index[0, 0] == table.index[3, 0]
        assert len(table.states) == sum(distinct_prefixes(pairs, checkpoint.dims.max_len))
        batch = table.batch(np.array([0, 2]))
        np.testing.assert_array_equal(batch.h[0], batch.h[1])

    @pytest.mark.parametrize("method", ["sft", "fl", "afl", "wft"])
    @pytest.mark.parametrize("batch_size", [4, 7])
    def test_prefix_table_matches_per_batch_oracle(self, ft_setup, micro_bundle, method,
                                                   batch_size):
        """90 pairs in batches of 4 (the last of 2) or of 7 (the last of 6):
        bit-identical to one teacher-forced pass per batch.  No batch here
        has one row; see the next test."""
        _, checkpoint = ft_setup
        n_pairs = len(reference_pairs(micro_bundle.train))
        assert n_pairs % batch_size > 1
        config = FinetuneConfig(method=method, lr=0.5, beta_prime=0.4, gamma=1.5, alpha=0.7,
                                batch_size=batch_size)
        result = finetune(checkpoint, micro_bundle, config, seed=4)
        params, frozen, log = per_batch_oracle(checkpoint, micro_bundle, config, seed=4)
        assert result.params.classifier_hash() == params.classifier_hash()
        assert result.params.full_hash() == params.full_hash()
        assert result.log == log
        assert (result.frozen and result.frozen.hash_hex()) == (frozen and frozen.hash_hex())

    def test_one_row_batch_is_close_to_per_batch_oracle(self, ft_setup, micro_bundle):
        """A batch of one pair takes its states from the table, while a pass
        of its own multiplies one-row matrices, which numpy hands to BLAS
        gemv instead of gemm: the two agree to rounding, not bit for bit."""
        _, checkpoint = ft_setup
        n_pairs = len(reference_pairs(micro_bundle.train))
        self.assert_close_to_oracle(checkpoint, micro_bundle,
                                    FinetuneConfig(method="wft", lr=0.5, batch_size=n_pairs - 1))

    def test_one_image_split_is_close_to_per_batch_oracle(self, ft_setup, micro_bundle):
        """With one image, the table's depth 0 holds one row, as does every
        depth where the image's references agree, so those states come from
        gemv where the per-batch pass, over three rows, uses gemm: the two
        agree to rounding, not bit for bit."""
        _, checkpoint = ft_setup
        data = replace(micro_bundle, train=Dataset("train", micro_bundle.train.records[:1]))
        assert len(reference_pairs(data.train)) == 3
        self.assert_close_to_oracle(checkpoint, data,
                                    FinetuneConfig(method="wft", lr=0.5, batch_size=3))

    @staticmethod
    def assert_close_to_oracle(checkpoint, data, config):
        result = finetune(checkpoint, data, config, seed=4)
        params, _, log = per_batch_oracle(checkpoint, data, config, seed=4)
        for name in CLASSIFIER_ARRAYS:
            np.testing.assert_allclose(getattr(result.params, name), getattr(params, name),
                                       rtol=0, atol=1e-12)
        assert result.params.encoder_hash() == params.encoder_hash()
        assert result.log[0]["mean_loss"] == pytest.approx(log[0]["mean_loss"], rel=1e-12)

    @pytest.mark.parametrize("field, value, message", [
        ("lr", -1.0, "lr must be"),
        ("lr", math.nan, "lr must be"),
        ("lr", math.inf, "lr must be"),
        ("gamma", math.nan, "gamma must be"),
        ("alpha", math.inf, "alpha must be"),
        ("batch_size", 2.5, "batch_size must be an integer"),
    ], ids=["lr-negative", "lr-nan", "lr-inf", "gamma-nan", "alpha-inf", "batch-size-float"])
    def test_bad_config_rejected_before_any_work(self, ft_setup, micro_bundle, monkeypatch,
                                                 field, value, message):
        _, checkpoint = ft_setup
        steps = []
        cell = model.gru_cell
        monkeypatch.setattr(model, "gru_cell", lambda *a: steps.append(1) or cell(*a))
        config = FinetuneConfig(**{"method": "afl", "lr": 0.01} | {field: value})
        with pytest.raises(ValueError, match=message):
            finetune(checkpoint, micro_bundle, config, seed=1)
        assert steps == []


def distinct_prefixes(pairs, max_len):
    """Per depth of the pairs' teacher-forcing frame, the number of distinct
    (image, input prefix): each caption cut to ``max_len - 1`` words, fed
    after <bos> and followed by <eos> up to the longest caption's depth."""
    captions = [list(ref)[: max_len - 1] for _, ref in pairs]
    depth = max(len(cap) for cap in captions) + 1
    streams = [(id(rec), ["<bos>", *cap] + ["<eos>"] * depth)
               for (rec, _), cap in zip(pairs, captions)]
    return [len({(image, tuple(stream[: t + 1])) for image, stream in streams})
            for t in range(depth)]


class TestClassifierStep:
    """The fine-tune step's classifier gradient, from states gathered out of
    a larger prefix table, is the classifier block of the matching sequence
    loss's full gradient, bit for bit."""

    @pytest.mark.parametrize("method", ["sft", "fl", "afl", "wft"])
    def test_matches_sequence_loss(self, ft_setup, micro_bundle, method):
        _, checkpoint = ft_setup
        table_pairs = reference_pairs(micro_bundle.train)[:20]
        pairs = table_pairs[5:14]
        feats = np.stack([rec.features for rec, _ in pairs])
        captions = [ref for _, ref in pairs]
        gamma, alpha = 1.5, 0.7
        frozen = FrozenReference(checkpoint, 0.6)
        # mid fine-tune: same encoder as the frozen copy, another classifier
        params = checkpoint.copy()
        params.cls_w *= 1.5
        config = FinetuneConfig(method=method, gamma=gamma, alpha=alpha)
        full = {
            "sft": lambda: ce_batch(params, feats, captions),
            "fl": lambda: pointwise_batch(params, feats, captions, focal_terms(gamma)),
            "afl": lambda: pointwise_batch(params, feats, captions,
                                           anti_focal_terms(gamma, alpha)),
            "wft": lambda: bp_batch(params, frozen, feats, captions),
        }[method]()
        batch = encode_pairs(checkpoint, table_pairs).batch(np.arange(5, 14))
        out = classifier_step(config, frozen if method == "wft" else None)(params, batch)
        assert out.loss == full.loss
        assert set(out.grads) == set(CLASSIFIER_ARRAYS)
        for name, grad in out.grads.items():
            assert np.abs(grad).max() > 0.0
            np.testing.assert_array_equal(grad, full.grads[name])
        np.testing.assert_array_equal(out.details["per_item"], full.details["per_item"])

    def test_classifier_grads_is_the_classifier_half_of_backward(self, ft_setup, micro_bundle):
        _, checkpoint = ft_setup
        pairs = reference_pairs(micro_bundle.train)[:6]
        feats = np.stack([rec.features for rec, _ in pairs])
        fwd, logp, targets = teacher_forced(checkpoint, feats, [ref for _, ref in pairs])
        d_logits = logit_grad(np.exp(logp), gold_index(targets, logp.shape[-1]), fwd.mask)
        full = backward_sequences(checkpoint, fwd, d_logits, TrainScope.ALL)
        cls = classifier_grads(fwd.h, d_logits)
        assert set(cls) == set(CLASSIFIER_ARRAYS)
        for name, grad in cls.items():
            np.testing.assert_array_equal(grad, full[name])


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


def _points(method, lr_grid, bp_grid=None):
    """The sweep points of a learning-rate grid crossed with a β′ grid
    (the default β′ when none is given), in the order the CLI lists them."""
    return [FinetuneConfig(method=method, lr=lr, beta_prime=beta_prime)
            for lr in lr_grid for beta_prime in (bp_grid or [FinetuneConfig.beta_prime])]


class TestSweep:
    def test_single_point_grid(self, sweep_setup, micro_bundle):
        checkpoint, stats, decode_config = sweep_setup
        result = sweep(checkpoint, micro_bundle, stats, _points("sft", [0.01]), 0, decode_config)
        assert len(result.rows) == 1
        assert result.best["lr"] == 0.01
        assert result.best["beta_prime"] == ""

    def test_wft_grid_is_cartesian_product(self, sweep_setup, micro_bundle):
        checkpoint, stats, decode_config = sweep_setup
        result = sweep(checkpoint, micro_bundle, stats, _points("wft", [0.02, 0.002], [0.1, 1.0]),
                       0, decode_config)
        assert [(row["lr"], row["beta_prime"]) for row in result.rows] == \
            [(0.02, 0.1), (0.02, 1.0), (0.002, 0.1), (0.002, 1.0)]

    def test_tie_breaks_to_smaller_lr(self, sweep_setup, micro_bundle):
        checkpoint, stats, decode_config = sweep_setup
        # lr=0 twice: identical models, identical scores; smaller lr wins
        result = sweep(checkpoint, micro_bundle, stats, _points("sft", [0.0, 0.0]), 0,
                       decode_config)
        assert result.best["lr"] == 0.0

    @pytest.mark.parametrize("method, lr_grid, bp_grid", [
        ("wft", [0.02, 0.002], [0.1, 1.0]),
        ("sft", [0.0, 0.0], None),  # a tie: the first row and its model are kept
    ])
    def test_only_the_best_model_is_kept(self, sweep_setup, micro_bundle, monkeypatch,
                                         method, lr_grid, bp_grid):
        checkpoint, stats, decode_config = sweep_setup
        trained, alive, train = [], [], finetune_mod.fit_classifier

        def recorded(*args):
            gc.collect()
            alive.append(sum(ref() is not None for ref in trained))
            result = train(*args)
            trained.append(weakref.ref(result))
            return result

        monkeypatch.setattr(finetune_mod, "fit_classifier", recorded)
        result = sweep(checkpoint, micro_bundle, stats, _points(method, lr_grid, bp_grid), 0,
                       decode_config)
        # while a point trains, at most the best model so far and the last one live
        assert max(alive) <= 2
        gc.collect()
        best = result.rows.index(result.best)
        assert [ref() is not None for ref in trained] == [k == best for k in range(len(trained))]
        assert trained[best]() is result.best_result
        assert result.best == min(result.rows, key=lambda row: (-row["r_at_1"], row["lr"],
                                                                row["beta_prime"] or 0.0))
        if method == "sft":
            assert best == 0

    def test_one_encode_per_sweep(self, sweep_setup, micro_bundle, monkeypatch):
        """The points train on one prefix table, each to the classifier a
        stand-alone fine-tune gives."""
        checkpoint, stats, decode_config = sweep_setup
        encodes, trained = [], []
        start, fit = finetune_mod.initial_hidden, finetune_mod.fit_classifier
        monkeypatch.setattr(finetune_mod, "initial_hidden",
                            lambda *a: encodes.append(1) or start(*a))
        monkeypatch.setattr(finetune_mod, "fit_classifier",
                            lambda *a: trained.append(fit(*a)) or trained[-1])
        points = [FinetuneConfig(method="wft", lr=0.5, beta_prime=0.4),
                  FinetuneConfig(method="sft", lr=0.3, batch_size=7),
                  FinetuneConfig(method="afl", lr=0.5, gamma=1.5, alpha=0.7)]
        result = sweep(checkpoint, micro_bundle, stats, points, 0, decode_config)
        assert len(encodes) == 1
        assert len(trained) == len(result.rows) == 3
        for point, got in zip(points, trained):
            alone = finetune(checkpoint, micro_bundle, point, 0)
            assert got.params.classifier_hash() == alone.params.classifier_hash()
            assert got.log == alone.log
        assert len(encodes) == 4

    def test_invalid_point_rejected_before_any_work(self, sweep_setup, micro_bundle,
                                                    monkeypatch):
        checkpoint, stats, decode_config = sweep_setup
        steps = []
        cell = model.gru_cell
        monkeypatch.setattr(model, "gru_cell", lambda *a: steps.append(1) or cell(*a))
        for bad, named in ((FinetuneConfig(method="wft", lr=-1.0), "lr"),
                           (FinetuneConfig(method="wft", lr=0.01, beta_prime=-1.0), "beta_prime")):
            with pytest.raises(ValueError, match=f"{named} must be"):
                sweep(checkpoint, micro_bundle, stats, [FinetuneConfig(method="wft", lr=0.01), bad],
                      0, decode_config)
        assert steps == []

    @pytest.mark.parametrize("method", ["sft", "wft", "fl", "afl"])
    def test_sweep_decodes_with_the_model_alone(self, sweep_setup, micro_bundle, method):
        """The sweep passes no frozen reference to the decoder, wft's frozen
        copy included, so bp decoding finds none."""
        checkpoint, stats, decode_config = sweep_setup
        with pytest.raises(ValueError, match="frozen reference"):
            sweep(checkpoint, micro_bundle, stats, _points(method, [0.01]), 0,
                  replace(decode_config, method="bp"))

    def test_empty_grid_rejected(self, sweep_setup, micro_bundle):
        checkpoint, stats, decode_config = sweep_setup
        with pytest.raises(ValueError, match="no fine-tune points"):
            sweep(checkpoint, micro_bundle, stats, [], 0, decode_config)
