import math
from dataclasses import replace

import numpy as np
import pytest

from caplab import rl
from caplab.cider import build_cider_stats, cider_d, reference_table
from caplab.corpus import Dataset, ImageRecord, build_vocab
from caplab.decode import DecodeConfig
from caplab.model import (
    ALL_ARRAYS,
    ModelDims,
    TrainScope,
    backward_sequences,
    forward_sequences,
    init_params,
    logits_from_hidden,
)
from caplab.rl import (
    SampledSeq,
    corpus_stats_for,
    mapped_references,
    sample_sequences,
    scst_step,
    train_ce,
    train_rl,
)
from oracles import (along_axis_logit_grad, batch_table, decode_greedy, forced_token_model,
                     forward_targets, grad_check, per_batch_train_ce, per_batch_train_rl,
                     sequence_logprob_loss, softmax_temp, target_ids)

# the rows of a three-image ``batch_table``, image k's set at row k
ROWS = np.arange(3)


def sample_sequence(params, image, beta, rng):
    """One rollout for one image: row 0 of a ``sample_sequences`` batch of one."""
    return sample_sequences(params, image.features[None, :], beta, rng)[0]


class TestSampling:
    def test_point_mass_equals_greedy_any_seed(self, tiny_vocab, tiny_dims, tiny_image):
        params = forced_token_model(tiny_vocab, tiny_dims, token_id=0)
        greedy = decode_greedy(params, tiny_image, DecodeConfig(method="greedy"))
        for seed in (0, 1, 123):
            sample = sample_sequence(params, tiny_image, 1.0, np.random.default_rng(seed))
            assert sample.tokens == greedy.ids

    def test_same_seed_identical(self, tiny_model, tiny_image):
        s1 = sample_sequence(tiny_model, tiny_image, 1.0, np.random.default_rng(9))
        s2 = sample_sequence(tiny_model, tiny_image, 1.0, np.random.default_rng(9))
        assert s1.tokens == s2.tokens
        np.testing.assert_array_equal(s1.logps, s2.logps)

    def test_length_bounded_and_logps_finite(self, tiny_model, tiny_image):
        for seed in range(20):
            s = sample_sequence(tiny_model, tiny_image, 1.0, np.random.default_rng(seed))
            assert len(s.tokens) <= tiny_model.dims.max_len
            assert np.all(np.isfinite(s.logps))

    def test_empirical_frequencies_match_distribution(self, tiny_vocab, tiny_dims, tiny_image):
        # bias-only model: the first-step distribution is exactly softmax(b);
        # the shortest model keeps the 100k-row rollout small
        params = init_params(tiny_vocab, replace(tiny_dims, max_len=2), 0)
        for name in ALL_ARRAYS:
            getattr(params, name)[:] = 0.0
        params.cls_b[:] = np.array([1.0, 0.3, -0.5, -10.0, -0.2])
        probs = softmax_temp(params.cls_b, 1.0)

        n = 100_000
        feats = np.repeat(tiny_image.features[None, :], n, axis=0)
        samples = sample_sequences(params, feats, 1.0, np.random.default_rng(7))
        first = np.zeros(len(tiny_vocab))
        for s in samples:
            ids = s.tokens + ([tiny_vocab.eos_id] if s.ended else [])
            first[ids[0]] += 1
        for token_id in range(len(tiny_vocab)):
            p = probs[token_id]
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(first[token_id] / n - p) <= 3 * sigma + 1e-9


class TestSampleBatch:
    @pytest.fixture
    def batch(self, tiny_model, tiny_image):
        feats = np.repeat(tiny_image.features[None, :], 12, axis=0)
        return sample_sequences(tiny_model, feats, 1.3, np.random.default_rng(4))

    def test_forward_equals_teacher_forced_pass(self, tiny_model, batch):
        fwd = batch.fwd
        expected = forward_sequences(tiny_model, fwd.feats, fwd.tokens, fwd.lengths)
        for name in ("tokens", "lengths", "mask", "feats", "h0", "z", "r", "n", "h"):
            np.testing.assert_array_equal(getattr(fwd, name), getattr(expected, name),
                                          err_msg=name)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n_rows", [1, 3, 12])
    def test_forward_bit_identical_at_bench_dims(self, wide_model, n_rows, seed):
        """The rollout's per-step input products and the teacher-forced
        pass's hoisted ones give the same bits, a one-row batch included."""
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(n_rows, wide_model.dims.feature_dim))
        fwd = sample_sequences(wide_model, feats, 1.0, rng).fwd
        expected = forward_sequences(wide_model, fwd.feats, fwd.tokens, fwd.lengths)
        for name in ("tokens", "lengths", "mask", "feats", "h0", "z", "r", "n", "h"):
            have, want = getattr(fwd, name), getattr(expected, name)
            assert have.shape == want.shape and have.tobytes() == want.tobytes(), name

    def test_probs_are_the_step_distributions(self, tiny_model, batch):
        expected = softmax_temp(logits_from_hidden(tiny_model, batch.fwd.h), 1.3)
        real = batch.fwd.mask > 0
        np.testing.assert_allclose(batch.probs[real], expected[real], rtol=0.0, atol=1e-13)
        drawn = np.take_along_axis(expected, batch.targets[..., None], axis=-1)[..., 0]
        np.testing.assert_allclose(np.exp(batch.logps[real]), drawn[real], rtol=1e-12)

    def test_inputs_are_bos_then_targets(self, tiny_vocab, batch):
        np.testing.assert_array_equal(batch.fwd.tokens[:, 0], tiny_vocab.bos_id)
        np.testing.assert_array_equal(batch.fwd.tokens[:, 1:], batch.targets[:, :-1])

    def test_sequence_protocol(self, tiny_vocab, batch):
        rows = list(batch)
        assert len(batch) == len(rows) == 12
        assert all(isinstance(seq, SampledSeq) for seq in rows)
        assert batch[-1].tokens == rows[-1].tokens
        with pytest.raises(IndexError):
            batch[12]
        for i, seq in enumerate(rows):
            length = int(batch.fwd.lengths[i])
            assert len(seq.logps) == length
            assert target_ids(seq, tiny_vocab) == batch.targets[i, :length].tolist()
            assert seq.ended == (tiny_vocab.eos_id in target_ids(seq, tiny_vocab))
            assert tiny_vocab.eos_id not in seq.tokens
            np.testing.assert_array_equal(seq.logps, batch.logps[i, :length])


def teacher_forced_scst(params, images, stats, rng, samples_per_image):
    """SCST gradients with the samples re-scored by a separate teacher-forced
    pass, the reference form of ``scst_step``."""
    vocab = params.vocab
    refs = mapped_references(vocab, images)
    feats = np.stack([img.features for img in images])
    greedy = [decode_greedy(params, img, DecodeConfig(method="greedy")).ids for img in images]
    baselines = np.array([cider_d(vocab.words(ids), image_refs, stats)
                          for ids, image_refs in zip(greedy, refs)])
    samples = sample_sequences(params, np.repeat(feats, samples_per_image, axis=0), 1.0, rng)
    rewards = np.array([cider_d(vocab.words(seq.tokens), refs[k // samples_per_image], stats)
                        for k, seq in enumerate(samples)])
    advantages = rewards - np.repeat(baselines, samples_per_image)
    fwd, logp, targets = forward_targets(
        params, np.repeat(feats, samples_per_image, axis=0),
        [target_ids(seq, vocab) for seq in samples])
    coef = (advantages / len(samples))[:, None] * fwd.mask
    return backward_sequences(params, fwd, along_axis_logit_grad(np.exp(logp), targets, coef),
                              TrainScope.ALL)


def three_word_batch(max_len, eos_bias):
    """Three images whose references use the words a, b and c, their
    statistics, a model over those words with <eos> bias ``eos_bias``, and
    the images' ``batch_table``."""
    rng = np.random.default_rng(8)
    refs = ([["a", "b"], ["a", "c", "b"]], [["b", "c"], ["c", "c", "b"]], [["c", "a", "a"]])
    images = [ImageRecord(id=i, features=rng.normal(size=4), references=list(r))
              for i, r in enumerate(refs)]
    stats = build_cider_stats([img.references for img in images])
    vocab = build_vocab([["a", "b", "c"], ["b", "a"], ["c", "a"]], min_count=1)
    params = init_params(vocab, ModelDims(hidden_dim=6, feature_dim=4, max_len=max_len), seed=2,
                         scale=0.8)
    params.cls_b[vocab.eos_id] = eos_bias
    return images, stats, params, batch_table(vocab, images, stats)


class TestScstStep:
    @pytest.fixture
    def setup(self, tiny_vocab, tiny_dims):
        rng = np.random.default_rng(3)
        images = [
            ImageRecord(id=i, features=rng.normal(size=4),
                        references=[["a", "b", "a", "b"], ["b", "a", "b", "a"]])
            for i in range(3)
        ]
        stats = build_cider_stats([img.references for img in images])
        return images, stats, batch_table(tiny_vocab, images, stats)

    def test_constant_reward_zero_gradient(self, tiny_vocab, tiny_dims, setup):
        """Under a point-mass policy every sample is its image's greedy
        rollout, so every advantage, and every gradient, is exactly zero."""
        images, _, table = setup
        params = forced_token_model(tiny_vocab, tiny_dims, token_id=0)
        out = scst_step(params, images, table, ROWS, np.random.default_rng(0),
                        samples_per_image=4)
        assert set(out.grads) == set(ALL_ARRAYS)
        for grad in out.grads.values():
            np.testing.assert_array_equal(grad, 0.0)
        assert out.details["mean_reward"] == out.details["mean_greedy_reward"]
        assert out.details["zero_advantage"] == 3 * 4

    def test_log_likelihood_factor_gradient(self, tiny_model, tiny_image):
        sample = sample_sequence(tiny_model, tiny_image, 1.0, np.random.default_rng(2))
        err = grad_check(lambda p: sequence_logprob_loss(p, tiny_image, sample),
                         tiny_model, eps=1e-5)
        assert err <= 1e-4

    def test_deterministic_given_rng(self, tiny_model, setup):
        images, _, table = setup
        o1 = scst_step(tiny_model, images, table, ROWS, np.random.default_rng(5))
        o2 = scst_step(tiny_model, images, table, ROWS, np.random.default_rng(5))
        assert o1.loss == o2.loss
        for name in ALL_ARRAYS:
            np.testing.assert_array_equal(o1.grads[name], o2.grads[name])

    def test_matches_teacher_forced_oracle(self):
        # an <eos> bias of -1 gives samples of varying lengths
        images, stats, params, table = three_word_batch(max_len=8, eos_bias=-1.0)
        # the batch's images in another order than the table's sets
        batch = images[::-1]
        out = scst_step(params, batch, table, ROWS[::-1], np.random.default_rng(11), 6)
        expected = teacher_forced_scst(params, batch, stats, np.random.default_rng(11), 6)
        assert out.details["mean_reward"] > 0
        assert set(out.grads) == set(ALL_ARRAYS)
        for name in ALL_ARRAYS:
            scale = np.abs(expected[name]).max()
            assert scale > 0, name
            assert np.abs(out.grads[name] - expected[name]).max() <= 1e-12 * scale, name

    def test_rollout_cut_before_max_len_matches_along_axis_path(self, monkeypatch):
        """A rollout that stops before max_len hands ``logit_grad`` its
        ``probs[:, :steps]``, a non-contiguous view: the gradients keep the
        bits of the ``take_along_axis``/``put_along_axis`` form."""
        # an <eos> bias of 2 ends every sample within 8 of the 12 steps
        images, _, params, table = three_word_batch(max_len=12, eos_bias=2.0)
        feats = np.repeat(np.stack([img.features for img in images]), 6, axis=0)
        probs = sample_sequences(params, feats, 1.0, np.random.default_rng(11)).probs
        assert probs.shape[1] == 8 and not probs.flags.c_contiguous
        out = scst_step(params, images, table, ROWS, np.random.default_rng(11), 6)
        monkeypatch.setattr(rl, "gold_index", lambda targets, n_vocab: targets)
        monkeypatch.setattr(rl, "logit_grad", along_axis_logit_grad)
        expected = scst_step(params, images, table, ROWS, np.random.default_rng(11), 6)
        assert out.details == expected.details and out.details["zero_advantage"] == 10
        for name in ALL_ARRAYS:
            assert np.abs(expected.grads[name]).max() > 0, name
            assert out.grads[name].tobytes() == expected.grads[name].tobytes(), name

    def test_details_reported(self, tiny_model, setup):
        images, _, table = setup
        out = scst_step(tiny_model, images, table, ROWS, np.random.default_rng(5))
        assert "mean_reward" in out.details and "mean_greedy_reward" in out.details


class TestTrainingLoops:
    def test_train_ce_zero_lr_noop(self, tiny_model, micro_bundle):
        vocab = build_vocab(micro_bundle.train.all_references(), 1)
        dims = ModelDims(hidden_dim=6, feature_dim=micro_bundle.config.feature_dim, max_len=12)
        params = init_params(vocab, dims, 0)
        trained, log = train_ce(params, micro_bundle.train, epochs=1, lr=0.0,
                                rng=np.random.default_rng(0))
        assert trained.full_hash() == params.full_hash()
        assert len(log) == 1

    def test_train_ce_matches_plain_loop(self, micro_bundle):
        """Two epochs over 90 pairs in batches of 7 (the last of 6) end with
        the bytes and the log of ``pointwise_batch`` CE steps run by a loop
        of their own."""
        vocab = build_vocab(micro_bundle.train.all_references(), 1)
        dims = ModelDims(hidden_dim=6, feature_dim=micro_bundle.config.feature_dim, max_len=12)
        params = init_params(vocab, dims, 0, scale=0.5)
        assert len(micro_bundle.train.all_references()) % 7 == 6
        args = (micro_bundle.train, 2, 0.5)
        trained, log = train_ce(params, *args, np.random.default_rng(3), 7)
        expected, expected_log = per_batch_train_ce(params, *args, np.random.default_rng(3), 7)
        assert trained.full_hash() == expected.full_hash() != params.full_hash()
        assert log == expected_log and len(log) == 2

    def test_train_rl_zero_lr_noop(self, micro_bundle):
        vocab = build_vocab(micro_bundle.train.all_references(), 1)
        dims = ModelDims(hidden_dim=6, feature_dim=micro_bundle.config.feature_dim, max_len=12)
        params = init_params(vocab, dims, 0)
        stats = corpus_stats_for(vocab, micro_bundle.train)
        trained, log = train_rl(params, micro_bundle.train, stats, epochs=1, lr=0.0,
                                rng=np.random.default_rng(0), batch_size=10)
        assert trained.full_hash() == params.full_hash()
        assert set(log[0]) == {"epoch", "mean_reward", "mean_greedy_reward",
                               "useful_sample_ratio"}

    def test_train_rl_maps_references_once(self, micro_bundle, monkeypatch):
        """Every SCST step of a run scores against the one table of <unk>-mapped
        references the run builds before its first step, each image against
        the set at its index in the split."""
        records = micro_bundle.train.records[:12]
        # an out-of-vocabulary word, so unmapped references would score differently
        train = Dataset("train", [ImageRecord(id=rec.id, features=rec.features,
                                              references=rec.references + [["zebra"]])
                                  for rec in records])
        vocab = build_vocab(Dataset("train", records).all_references(), 1)
        dims = ModelDims(hidden_dim=6, feature_dim=micro_bundle.config.feature_dim, max_len=12)
        params = init_params(vocab, dims, 0, scale=0.5)
        stats = corpus_stats_for(vocab, train)
        calls, given = [], []
        mapped, step = rl.mapped_references, rl.scst_step

        def counted(vocab, records):
            calls.append([rec.id for rec in records])
            return mapped(vocab, records)

        def recorded(params, images, table, rows, *args):
            given.append((table, rows, images))
            return step(params, images, table, rows, *args)

        monkeypatch.setattr(rl, "mapped_references", counted)
        monkeypatch.setattr(rl, "scst_step", recorded)
        train_rl(params, train, stats, epochs=2, lr=0.5, rng=np.random.default_rng(0),
                 batch_size=5, samples_per_image=2)
        assert calls == [[rec.id for rec in records]]
        table = given[0][0]
        assert len(given) == 2 * 3 and all(t is table for t, _, _ in given)
        for _, rows, images in given:
            assert [train.records[row] for row in rows] == images
        refs = mapped(vocab, train.records)
        assert all(["<unk>"] in image_refs for image_refs in refs)
        expected = reference_table(refs, stats)
        for have, want in zip(table[1:], expected[1:]):
            assert have.tobytes() == want.tobytes()

    def test_train_rl_logs_useful_sample_ratio(self, micro_bundle, monkeypatch):
        vocab = build_vocab(micro_bundle.train.all_references(), 1)
        dims = ModelDims(hidden_dim=6, feature_dim=micro_bundle.config.feature_dim, max_len=12)
        params = init_params(vocab, dims, 0, scale=0.5)
        stats = corpus_stats_for(vocab, micro_bundle.train)
        scored, score = [], rl.cider_d_batch

        def recorded(*args):
            scored.append(score(*args))
            return scored[-1]

        monkeypatch.setattr(rl, "cider_d_batch", recorded)
        _, log = train_rl(params, micro_bundle.train, stats, epochs=2, lr=0.5,
                          rng=np.random.default_rng(0), batch_size=7, samples_per_image=3)
        steps_per_epoch = math.ceil(len(micro_bundle.train) / 7)
        for epoch in range(2):
            useful = total = 0
            for scores in scored[epoch * steps_per_epoch : (epoch + 1) * steps_per_epoch]:
                n_images = len(scores) // 4
                baselines, rewards = scores[:n_images], scores[n_images:]
                useful += int((rewards != np.repeat(baselines, 3)).sum())
                total += len(rewards)
            assert log[epoch]["useful_sample_ratio"] == useful / total
        assert any(0.0 < row["useful_sample_ratio"] < 1.0 for row in log)

    def test_run_table_trains_like_a_table_per_batch(self, micro_bundle):
        """A run scoring every step against its one table of all training
        images ends where steps scoring against their own batch's table end."""
        vocab = build_vocab(micro_bundle.train.all_references(), 1)
        dims = ModelDims(hidden_dim=6, feature_dim=micro_bundle.config.feature_dim, max_len=12)
        params = init_params(vocab, dims, 0, scale=0.5)
        stats = corpus_stats_for(vocab, micro_bundle.train)
        args = (micro_bundle.train, stats, 2, 0.5)
        trained, _ = train_rl(params, *args, np.random.default_rng(3), 7, 3)
        expected = per_batch_train_rl(params, *args, np.random.default_rng(3), 7, 3)
        assert trained.full_hash() == expected.full_hash() != params.full_hash()


class TestMappedReferences:
    def test_oov_replaced_by_unk_token(self, micro_bundle):
        vocab = build_vocab(micro_bundle.train.all_references(), 1)
        records = micro_bundle.train.records
        # with min_count=1 every word maps to itself: the references, in record order
        assert mapped_references(vocab, records) == [rec.references for rec in records]
        no_words = build_vocab(micro_bundle.train.all_references(), 10**6)
        assert mapped_references(no_words, records[:1]) == [
            [["<unk>"] * len(ref) for ref in records[0].references]]
