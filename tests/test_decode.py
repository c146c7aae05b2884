import itertools

import numpy as np
import pytest

from caplab.corpus import ImageRecord, build_vocab
from caplab.decode import (
    DecodeConfig,
    decode_beam,
    decode_bp,
    decode_dataset,
    decode_greedy,
    decode_nucleus,
    greedy_rollout_batch,
    load_captions,
    nucleus_set,
    save_captions,
)
from caplab.losses import FrozenReference, bp_prob
from caplab.model import ALL_ARRAYS, ModelDims, init_params, log_softmax_temp, score_step, softmax_temp
from test_rl import forced_token_model


@pytest.fixture(scope="module")
def small_vocab():
    return build_vocab([["a", "b"], ["b", "a"]], 1)  # 5 tokens with specials


@pytest.fixture(scope="module")
def small_dims():
    return ModelDims(hidden_dim=5, feature_dim=3, max_len=4)


def random_image(seed, dim=3):
    rng = np.random.default_rng(seed)
    return ImageRecord(id=seed, features=rng.normal(size=dim), references=[["a"]])


def exhaustive_best(params, image, max_len):
    """Enumerate every sequence (eos-terminated or cut at max_len), score by
    summed log-probs, break ties by the lexicographically smaller sequence."""
    vocab = params.vocab
    eos, bos = vocab.eos_id, vocab.bos_id
    non_eos = [i for i in range(len(vocab)) if i != eos]

    def total_logprob(seq):
        total, prefix = 0.0, [bos]
        for token in seq:
            lp = log_softmax_temp(score_step(params, image.features, prefix), 1.0)
            total += float(lp[token])
            prefix.append(token)
        return total

    candidates = []
    for m in range(max_len):
        for body in itertools.product(non_eos, repeat=m):
            candidates.append(body + (eos,))
    candidates.extend(itertools.product(non_eos, repeat=max_len))
    scored = [(total_logprob(seq), seq) for seq in candidates]
    best_score, best_seq = min(scored, key=lambda item: (-item[0], item[1]))
    return list(best_seq), best_score


class TestGreedy:
    def test_point_mass_emits_forced_sequence(self, small_vocab, small_dims):
        params = forced_token_model(small_vocab, small_dims, token_id=0)
        out = decode_greedy(params, random_image(0), DecodeConfig(method="greedy"))
        assert out.ids == [0] * small_dims.max_len  # never reaches <eos>

    def test_exact_tie_takes_lowest_id(self, small_vocab, small_dims):
        params = init_params(small_vocab, small_dims, 0)
        for name in ALL_ARRAYS:
            getattr(params, name)[:] = 0.0  # all logits zero at every step
        out = decode_greedy(params, random_image(1), DecodeConfig(method="greedy"))
        assert out.ids == [0] * small_dims.max_len

    def test_batch_rollout_matches_single(self, small_vocab, small_dims):
        params = init_params(small_vocab, small_dims, 5, 0.5)
        images = [random_image(i) for i in range(6)]
        feats = np.stack([img.features for img in images])
        seqs, totals = greedy_rollout_batch(params, feats, 1.0, small_dims.max_len)
        for img, seq, total in zip(images, seqs, totals):
            single = decode_greedy(params, img, DecodeConfig(method="greedy"))
            assert single.ids == seq
            assert single.logprob == pytest.approx(total, abs=1e-9)


class TestBeam:
    def test_beam_one_equals_greedy(self, small_vocab, small_dims):
        for trial in range(100):
            params = init_params(small_vocab, small_dims, trial, 0.5)
            image = random_image(trial)
            g = decode_greedy(params, image, DecodeConfig(method="greedy"))
            b = decode_beam(params, image, DecodeConfig(method="beam", beam_size=1))
            assert b.ids == g.ids
            assert b.logprob == pytest.approx(g.logprob, abs=1e-12)

    def test_beam_never_below_greedy(self, small_vocab, small_dims):
        for trial in range(40):
            params = init_params(small_vocab, small_dims, 1000 + trial, 0.8)
            image = random_image(trial)
            g = decode_greedy(params, image, DecodeConfig(method="greedy"))
            for k in (2, 3, 5):
                b = decode_beam(params, image, DecodeConfig(method="beam", beam_size=k))
                assert b.logprob >= g.logprob - 1e-12

    def test_wide_beam_matches_exhaustive_enumeration(self, small_vocab, small_dims):
        for trial in range(10):
            params = init_params(small_vocab, small_dims, 50 + trial, 0.6)
            image = random_image(trial)
            expected_seq, expected_score = exhaustive_best(params, image, small_dims.max_len)
            out = decode_beam(params, image,
                              DecodeConfig(method="beam", beam_size=400, max_len=4))
            got = out.ids + ([small_vocab.eos_id] if len(out.ids) < 4 else [])
            assert got == expected_seq
            assert out.logprob == pytest.approx(expected_score, abs=1e-9)

    def test_deterministic(self, small_vocab, small_dims):
        params = init_params(small_vocab, small_dims, 3, 0.5)
        image = random_image(3)
        config = DecodeConfig(method="beam", beam_size=5)
        r1 = decode_beam(params, image, config)
        r2 = decode_beam(params, image, config)
        assert r1.ids == r2.ids and r1.logprob == r2.logprob

    def test_invalid_beam_size(self, small_vocab, small_dims):
        params = init_params(small_vocab, small_dims, 3)
        for method, decoder in (("beam", decode_beam), ("greedy", decode_greedy)):
            with pytest.raises(ValueError):
                decoder(params, random_image(0), DecodeConfig(method=method, beam_size=0))


class TestNucleus:
    def test_singleton_nucleus_is_greedy(self, small_vocab, small_dims):
        params = init_params(small_vocab, small_dims, 7, 0.5)
        image = random_image(7)
        greedy = decode_greedy(params, image, DecodeConfig(method="greedy"))
        # p below any achievable top probability forces the argmax token
        config = DecodeConfig(method="nucleus", nucleus_p=1e-9)
        for seed in (0, 5):
            out = decode_nucleus(params, image, config, np.random.default_rng(seed))
            assert out.ids == greedy.ids

    def test_emitted_tokens_inside_nucleus(self, small_vocab, small_dims):
        params = init_params(small_vocab, small_dims, 8, 0.7)
        image = random_image(8)
        config = DecodeConfig(method="nucleus", nucleus_p=0.8)
        out = decode_nucleus(params, image, config, np.random.default_rng(4))
        # replay the decode, recomputing each step's nucleus set
        prefix = [small_vocab.bos_id]
        emitted = out.ids + [small_vocab.eos_id] if len(out.ids) < small_dims.max_len else out.ids
        for token in emitted:
            probs = softmax_temp(score_step(params, image.features, prefix), 1.0)
            kept, _ = nucleus_set(probs, 0.8)
            assert token in set(kept.tolist())
            prefix.append(token)

    def test_full_mass_equals_plain_multinomial_statistically(self, small_vocab, small_dims):
        params = init_params(small_vocab, small_dims, 9, 0.4)
        for name in ("embed", "img_w", "img_b", "wz", "uz", "bz", "wr", "ur", "br", "wn", "un", "bn"):
            getattr(params, name)[:] = 0.0
        params.cls_w[:] = 0.0
        params.cls_b[:] = np.array([0.9, 0.1, -0.7, -0.3, 0.2])
        probs = softmax_temp(params.cls_b, 1.0)
        image = random_image(9)
        config = DecodeConfig(method="nucleus", nucleus_p=1.0, max_len=1)
        rng = np.random.default_rng(11)
        counts = np.zeros(len(small_vocab))
        n = 40_000
        for _ in range(n):
            out = decode_nucleus(params, image, config, rng)
            token = out.ids[0] if out.ids else small_vocab.eos_id
            counts[token] += 1
        for t in range(len(small_vocab)):
            sigma = np.sqrt(probs[t] * (1 - probs[t]) / n)
            assert abs(counts[t] / n - probs[t]) <= 3 * sigma + 1e-9

    def test_deterministic_given_seed(self, small_vocab, small_dims):
        params = init_params(small_vocab, small_dims, 10, 0.6)
        image = random_image(10)
        config = DecodeConfig(method="nucleus", nucleus_p=0.9)
        a = decode_nucleus(params, image, config, np.random.default_rng(3))
        b = decode_nucleus(params, image, config, np.random.default_rng(3))
        assert a.ids == b.ids

    def test_invalid_p(self, small_vocab, small_dims):
        params = init_params(small_vocab, small_dims, 3)
        with pytest.raises(ValueError):
            decode_nucleus(params, random_image(0), DecodeConfig(method="nucleus", nucleus_p=0.0),
                           np.random.default_rng(0))


class TestBiasProductDecoding:
    def test_beta_prime_zero_identical_to_plain(self, small_vocab, small_dims):
        params = init_params(small_vocab, small_dims, 12, 0.5)
        other = init_params(small_vocab, small_dims, 13, 0.5)
        frozen = FrozenReference(other, beta_prime=0.0)
        image = random_image(12)
        for base, plain_fn in (("greedy", decode_greedy), ("beam", decode_beam)):
            config = DecodeConfig(method="bp", bp_base=base, beam_size=4)
            bp = decode_bp(params, frozen, image, config)
            plain = plain_fn(params, image, DecodeConfig(method=base, beam_size=4))
            assert bp.ids == plain.ids

    def test_self_reference_same_temperature_greedy_identical(self, small_vocab, small_dims):
        params = init_params(small_vocab, small_dims, 14, 0.5)
        frozen = FrozenReference(params, beta_prime=1.0)
        image = random_image(14)
        bp = decode_bp(params, frozen, image, DecodeConfig(method="bp", bp_base="greedy"))
        plain = decode_greedy(params, image, DecodeConfig(method="greedy"))
        assert bp.ids == plain.ids

    def test_per_step_distribution_matches_bp_prob(self, small_vocab, small_dims):
        params = init_params(small_vocab, small_dims, 15, 0.6)
        frozen = FrozenReference(init_params(small_vocab, small_dims, 16, 0.6), 0.5)
        image = random_image(15)
        out = decode_bp(params, frozen, image, DecodeConfig(method="bp", bp_base="greedy"))
        prefix = [small_vocab.bos_id]
        for token in out.ids:
            q = bp_prob(params, frozen, image, prefix, beta=1.0)
            assert token == int(np.argmax(q))
            prefix.append(token)

    def test_missing_frozen_errors(self, small_vocab, small_dims):
        params = init_params(small_vocab, small_dims, 17)
        with pytest.raises(ValueError):
            decode_bp(params, None, random_image(0), DecodeConfig(method="bp"))


class TestHygiene:
    def test_decoding_never_mutates_params(self, small_vocab, small_dims):
        params = init_params(small_vocab, small_dims, 18, 0.5)
        frozen = FrozenReference(init_params(small_vocab, small_dims, 19, 0.5), 1.0)
        image = random_image(18)
        before = params.full_hash()
        decode_greedy(params, image, DecodeConfig(method="greedy"))
        decode_beam(params, image, DecodeConfig(method="beam", beam_size=3))
        decode_nucleus(params, image, DecodeConfig(method="nucleus"), np.random.default_rng(0))
        decode_bp(params, frozen, image, DecodeConfig(method="bp"))
        assert params.full_hash() == before

    def test_all_methods_terminate_within_max_len(self, small_vocab, small_dims):
        params = init_params(small_vocab, small_dims, 20, 1.5)
        image = random_image(20)
        for config in (
            DecodeConfig(method="greedy", max_len=3),
            DecodeConfig(method="beam", beam_size=3, max_len=3),
            DecodeConfig(method="nucleus", max_len=3),
        ):
            fn = {"greedy": decode_greedy, "beam": decode_beam}.get(config.method)
            if fn is None:
                out = decode_nucleus(params, image, config, np.random.default_rng(0))
            else:
                out = fn(params, image, config)
            assert len(out.ids) <= 3

    def test_caption_file_round_trip(self, small_vocab, small_dims, micro_bundle, tmp_path):
        dims = ModelDims(hidden_dim=5, feature_dim=micro_bundle.config.feature_dim, max_len=6)
        vocab = build_vocab(micro_bundle.train.all_references(), 1)
        params = init_params(vocab, dims, 21, 0.4)
        decoded = decode_dataset(params, micro_bundle.val, DecodeConfig(method="greedy"))
        path = tmp_path / "caps.jsonl"
        save_captions(path, micro_bundle.val, decoded)
        loaded = load_captions(path)
        assert len(loaded) == len(micro_bundle.val)
        for rec, dec in zip(micro_bundle.val.records, decoded):
            assert loaded[rec.id] == dec.tokens
