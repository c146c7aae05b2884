import itertools
import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caplab import decode as decode_mod
from caplab.corpus import Dataset, ImageRecord, build_vocab
from caplab.decode import (
    DecodeConfig,
    _PolicyStepper,
    _top_k,
    decode_beam,
    decode_bp,
    decode_dataset,
    greedy_rollout_batch,
    load_captions,
    save_captions,
)
from caplab.losses import FrozenReference, check_shared_encoder
from caplab.model import ALL_ARRAYS, ENCODER_ARRAYS, ModelDims, init_params, log_softmax_temp
import oracles
from oracles import (TwoRecurrenceStepper, bp_prob, decode_greedy, forced_token_model,
                     score_step, softmax_temp)


@pytest.fixture(scope="module")
def small_vocab():
    return build_vocab([["a", "b"], ["b", "a"]], 1)  # 5 tokens with specials


@pytest.fixture(scope="module")
def small_dims():
    return ModelDims(hidden_dim=5, feature_dim=3, max_len=4)


def random_image(seed, dim=3):
    rng = np.random.default_rng(seed)
    return ImageRecord(id=seed, features=rng.normal(size=dim), references=[["a"]])


def bp_greedy(params, frozen, records, beta=1.0):
    """Greedy rollout of every record over the bias product with ``frozen``:
    ``_greedy`` over the bp stepper, which ``_beam`` runs for the images
    whose greedy child it did not keep."""
    feats = np.stack([rec.features for rec in records])
    seqs, totals, _ = decode_mod._greedy(_PolicyStepper(params, beta, frozen), feats,
                                         params.dims.max_len)
    return [decode_mod._finish(seq, total, params.vocab) for seq, total in zip(seqs, totals)]


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


def oracle_greedy(stepper, features, max_len):
    """Single-image greedy rollout: ids (final <eos> included), summed log-prob."""
    state = stepper.start(features)
    ids, total = [], 0.0
    for _ in range(max_len):
        lp = stepper.logprobs(state)[0]
        token = int(np.argmax(lp))
        total += float(lp[token])
        ids.append(token)
        if token == stepper.eos_id:
            break
        state = stepper.advance(state, np.array([token]))
    return ids, total


def oracle_beam(stepper, features, max_len, beam_size, kept=None):
    """Single-image beam search with an explicit (score desc, sequence asc)
    sort of every step's candidates.  Returns the best ids (final <eos>
    included), their summed log-prob, and the number of steps the beam ran.
    A set passed as ``kept`` receives every sequence the beam kept."""
    alive_seqs = [()]
    alive_scores = np.array([0.0])
    state = stepper.start(features)
    pool = []
    steps = 0
    for _ in range(max_len):
        steps += 1
        lp = stepper.logprobs(state)
        flat = (alive_scores[:, None] + lp).ravel()
        order = np.argsort(-flat, kind="stable")[:beam_size]
        n_vocab = lp.shape[1]
        new_seqs, new_rows, new_tokens, new_scores = [], [], [], []
        for pos in order:
            hyp, token = divmod(int(pos), n_vocab)
            seq = alive_seqs[hyp] + (token,)
            if kept is not None:
                kept.add(seq)
            if token == stepper.eos_id:
                pool.append((float(flat[pos]), seq))
            else:
                new_seqs.append(seq)
                new_rows.append(hyp)
                new_tokens.append(token)
                new_scores.append(float(flat[pos]))
        if not new_seqs:
            alive_seqs, alive_scores = [], np.array([])
            break
        lex = sorted(range(len(new_seqs)), key=lambda i: new_seqs[i])
        alive_seqs = [new_seqs[i] for i in lex]
        alive_scores = np.array([new_scores[i] for i in lex])
        state = stepper.advance(state[np.array([new_rows[i] for i in lex])],
                                np.array([new_tokens[i] for i in lex]))
    pool.extend(zip(alive_scores.tolist(), alive_seqs))
    greedy_ids, greedy_score = oracle_greedy(stepper, features, max_len)
    pool.append((greedy_score, tuple(greedy_ids)))
    best_score, best_seq = min(pool, key=lambda item: (-item[0], item[1]))
    return list(best_seq), best_score, steps


def strip_eos(ids, vocab):
    return ids[:-1] if ids and ids[-1] == vocab.eos_id else ids


def random_split(n, dim=3, offset=0):
    return Dataset("val", [random_image(offset + i, dim) for i in range(n)])


def shared_encoder_pair(vocab, dims, seed, beta_prime=0.7):
    """A model and a frozen copy of it whose classifiers differ, as after a
    classifier-only fine-tune."""
    base = init_params(vocab, dims, seed, 0.8)
    frozen = FrozenReference(base, beta_prime)
    rng = np.random.default_rng(seed)
    base.cls_w += rng.normal(scale=0.5, size=base.cls_w.shape)
    base.cls_b += rng.normal(scale=0.5, size=base.cls_b.shape)
    return base, frozen


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


class TestBiasProductDecoding:
    def test_beta_prime_zero_identical_to_plain(self, small_vocab, small_dims):
        params, frozen = shared_encoder_pair(small_vocab, small_dims, 12, beta_prime=0.0)
        image = random_image(12)
        plain = decode_greedy(params, image, DecodeConfig(method="greedy"))
        assert bp_greedy(params, frozen, [image])[0].ids == plain.ids
        config = DecodeConfig(method="bp", beam_size=4)
        plain = decode_beam(params, image, replace(config, method="beam"))
        assert decode_bp(params, frozen, image, config).ids == plain.ids

    def test_self_reference_same_temperature_greedy_identical(self, small_vocab, small_dims):
        params = init_params(small_vocab, small_dims, 14, 0.5)
        frozen = FrozenReference(params, beta_prime=1.0)
        image = random_image(14)
        bp = bp_greedy(params, frozen, [image])[0]
        plain = decode_greedy(params, image, DecodeConfig(method="greedy"))
        assert bp.ids == plain.ids

    def test_per_step_distribution_matches_bp_prob(self, small_vocab, small_dims):
        params, frozen = shared_encoder_pair(small_vocab, small_dims, 15, beta_prime=0.5)
        image = random_image(15)
        out = bp_greedy(params, frozen, [image])[0]
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
        params, frozen = shared_encoder_pair(small_vocab, small_dims, 18)
        image = random_image(18)
        before = params.full_hash()
        decode_greedy(params, image, DecodeConfig(method="greedy"))
        decode_beam(params, image, DecodeConfig(method="beam", beam_size=3))
        decode_bp(params, frozen, image, DecodeConfig(method="bp"))
        assert params.full_hash() == before

    def test_all_methods_terminate_within_max_len(self, small_vocab, small_dims):
        params = init_params(small_vocab, small_dims, 20, 1.5)
        image = random_image(20)
        for config in (
            DecodeConfig(method="greedy", max_len=3),
            DecodeConfig(method="beam", beam_size=3, max_len=3),
        ):
            fn = {"greedy": decode_greedy, "beam": decode_beam}
            assert len(fn[config.method](params, image, config).ids) <= 3

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

    def test_crlf_caption_file_loads(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        lines = [json.dumps({"id": i, "caption": f"a b{i}", "logprob": -1.0}) for i in range(3)]
        path.write_bytes("\r\n".join(lines).encode("utf-8") + b"\r\n")
        assert load_captions(path) == {i: ["a", f"b{i}"] for i in range(3)}

    def test_caption_line_not_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        lines = [json.dumps({"id": i, "caption": "a b c d e f g h", "logprob": -1.0})
                 .encode("utf-8") for i in range(300)]
        lines[250] = lines[250].replace(b"a b", b"\xff b")
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert len(b"\n".join(lines[:250])) > 8192
        with pytest.raises(ValueError) as info:
            load_captions(path)
        assert str(info.value).startswith(f"{path}, line 251: not UTF-8")

    def test_split_decoding_never_mutates_params_or_frozen(self, small_vocab, small_dims):
        params, frozen = shared_encoder_pair(small_vocab, small_dims, 22)
        split = random_split(5)
        before, frozen_before = params.full_hash(), frozen.hash_hex()
        for config in (DecodeConfig(method="greedy"), DecodeConfig(method="beam", beam_size=3)):
            decode_dataset(params, split, config)
        decode_dataset(params, split, DecodeConfig(method="bp"), frozen=frozen)
        bp_greedy(params, frozen, split.records)
        assert params.full_hash() == before
        assert frozen.hash_hex() == frozen_before


@pytest.fixture(scope="module")
def wide_vocab():
    return build_vocab([["a", "b", "c", "d", "e", "f", "g"]], 1)  # 10 tokens with specials


class TestLockstep:
    """decode_dataset decodes a split in lockstep; it must give what the
    single-image oracle gives, image by image."""

    def check_plain(self, params, split, config):
        got = decode_dataset(params, split, config)
        max_len = config.max_len or params.dims.max_len
        steps = []
        for rec, dec in zip(split.records, got):
            ids, logprob, ran = oracle_beam(_PolicyStepper(params, config.beta), rec.features,
                                            max_len, config.beam_size)
            assert dec.ids == strip_eos(ids, params.vocab)
            assert abs(dec.logprob - logprob) <= 1e-12
            steps.append(ran)
        return steps

    @pytest.mark.parametrize("beam_size", [1, 2, 5])
    def test_matches_oracle(self, wide_vocab, small_dims, beam_size):
        for trial in range(4):
            params = init_params(wide_vocab, small_dims, 300 + trial, 1.2)
            self.check_plain(params, random_split(7, offset=10 * trial),
                             DecodeConfig(method="beam", beam_size=beam_size))

    @pytest.mark.parametrize("beam_size", [7, 40])
    def test_beam_wider_than_vocabulary(self, small_vocab, small_dims, beam_size):
        assert beam_size > len(small_vocab)
        for trial in range(3):
            params = init_params(small_vocab, small_dims, 400 + trial, 1.0)
            self.check_plain(params, random_split(4, offset=10 * trial),
                             DecodeConfig(method="beam", beam_size=beam_size))

    @pytest.mark.parametrize("max_len", [1, 2])
    def test_short_max_len(self, wide_vocab, small_dims, max_len):
        for trial in range(3):
            params = init_params(wide_vocab, small_dims, 500 + trial, 1.5)
            self.check_plain(params, random_split(6, offset=10 * trial),
                             DecodeConfig(method="beam", beam_size=3, max_len=max_len))

    def test_beams_retire_at_different_steps(self, small_vocab):
        dims = ModelDims(hidden_dim=5, feature_dim=3, max_len=10)
        # a beam retires only when all its picks are <eos>; this seed's images
        # retire at steps 3 and 5 or run to max_len
        params = init_params(small_vocab, dims, 681, 2.0)
        steps = self.check_plain(params, random_split(12),
                                 DecodeConfig(method="beam", beam_size=2))
        assert len(set(steps)) >= 3 and min(steps) < dims.max_len

    @pytest.mark.parametrize("base", ["greedy", "beam"])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared-encoder", "own-encoder"])
    def test_bp_matches_two_recurrence_oracle(self, wide_vocab, small_dims, base, shared):
        """bp decoding is the beam; the greedy rollout over the bp stepper is
        what the beam reruns.  A frozen reference of its own encoder would
        need the oracle's two recurrences; decode_dataset rejects it before
        either search runs."""
        for trial in range(3):
            params, frozen = shared_encoder_pair(wide_vocab, small_dims, 700 + trial)
            split = random_split(6, offset=10 * trial)
            config = DecodeConfig(method="bp", beam_size=3)
            if not shared:
                own = FrozenReference(init_params(wide_vocab, small_dims, 750 + trial, 0.8), 0.6)
                with pytest.raises(ValueError, match="encoder"):
                    decode_dataset(params, split, config, frozen=own)
                continue
            if base == "greedy":
                got = bp_greedy(params, frozen, split.records, config.beta)
            else:
                got = decode_dataset(params, split, config, frozen=frozen)
            for rec, dec in zip(split.records, got):
                stepper = TwoRecurrenceStepper(params, frozen, config.beta)
                if base == "greedy":
                    ids, logprob = oracle_greedy(stepper, rec.features, small_dims.max_len)
                else:
                    ids, logprob, _ = oracle_beam(stepper, rec.features, small_dims.max_len, 3)
                assert dec.ids == strip_eos(ids, wide_vocab)
                assert abs(dec.logprob - logprob) <= 1e-12

    def test_top_k_is_a_stable_descending_sort_cut_at_k(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            cand = rng.integers(-3, 3, size=(6, 12)).astype(float)  # many ties
            cand[rng.random(cand.shape) < 0.3] = -np.inf
            full = np.argsort(-cand, axis=1, kind="stable")
            for k in (1, 3, 5, 12, 20):
                assert np.array_equal(_top_k(cand, k), full[:, :k])

    def test_top_k_sorts_nan_last_like_a_full_argsort(self):
        rng = np.random.default_rng(1)
        for trial in range(50):
            cand = rng.integers(-3, 3, size=(6, 12)).astype(float)
            cand[rng.random(cand.shape) < 0.3] = -np.inf
            cand[rng.random(cand.shape) < 0.5] = np.nan   # some rows keep < k numbers
            full = np.argsort(-cand, axis=1, kind="stable")
            for k in (1, 3, 5, 12):
                assert np.array_equal(_top_k(cand, k), full[:, :k])


class TableStepper:
    """A stepper whose step scores are looked up from the image and the
    prefix: small multiples of 0.5, whose sums are exact, so sequences from
    different hypotheses tie often.  A state row is the image id followed by
    the prefix."""

    eos_id = 0
    n_vocab = 4

    def start(self, features):
        return np.atleast_2d(np.asarray(features, dtype=np.int64))[:, :1]

    def logprobs(self, state):
        return np.array([np.random.default_rng(row.tolist()).integers(-4, 0, self.n_vocab) * 0.5
                         for row in state])

    def advance(self, state, token_ids):
        return np.column_stack([state, token_ids])


class TestLockstepTieRule:
    @pytest.mark.parametrize("beam_size", [1, 2, 3, 5])
    def test_ties_broken_like_oracle(self, beam_size):
        # about one image in fifty decodes differently when the alive rows
        # leave lexicographic order or the pool ignores the sequence
        stepper = TableStepper()
        feats = np.arange(200, dtype=float)[:, None]
        for max_len in (1, 3, 5):
            got = decode_mod._beam(stepper, feats, max_len, beam_size)
            for features, (ids, total) in zip(feats, got):
                oracle_ids, oracle_total, _ = oracle_beam(stepper, features, max_len, beam_size)
                assert (ids, total) == (oracle_ids, oracle_total)


class SeededTableStepper(TableStepper):
    """A ``TableStepper`` whose table also depends on a seed and whose
    vocabulary size is chosen."""

    def __init__(self, seed, n_vocab):
        self.seed, self.n_vocab = seed, n_vocab

    def logprobs(self, state):
        return np.array([np.random.default_rng([self.seed, *row.tolist()])
                         .integers(-4, 0, self.n_vocab) * 0.5 for row in state])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**16), n_vocab=st.integers(2, 5), n_images=st.integers(1, 8),
       beam_size=st.integers(1, 6), max_len=st.integers(1, 5))
def test_lockstep_beam_equals_oracle_under_ties(seed, n_vocab, n_images, beam_size, max_len):
    """Equal to the oracle, with a greedy rollout after the beam exactly for
    the images whose greedy path the oracle's beam did not keep."""
    stepper = SeededTableStepper(seed, n_vocab)
    feats = np.arange(n_images, dtype=float)[:, None]
    reruns = []
    original = decode_mod._greedy

    def recording(stepper, feats, max_len):
        reruns.append(np.array(feats))
        return original(stepper, feats, max_len)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decode_mod, "_greedy", recording)
        got = decode_mod._beam(stepper, feats, max_len, beam_size)
    left = []
    for features, (ids, total) in zip(feats, got):
        kept = set()
        oracle_ids, oracle_total, _ = oracle_beam(stepper, features, max_len, beam_size, kept)
        assert (ids, total) == (oracle_ids, oracle_total)
        greedy_ids, _ = oracle_greedy(stepper, features, max_len)
        if any(tuple(greedy_ids[:m]) not in kept for m in range(1, len(greedy_ids) + 1)):
            left.append(features)
    assert [feats.tolist() for feats in reruns] == ([np.array(left).tolist()] if left else [])


class GreedyTrapStepper(TableStepper):
    """Exact step scores built so that, at beam size 2, odd images lose their
    greedy path and even images keep it.

    Odd image: the greedy first token 1 has only poor children, so the beam
    keeps two children of token 2 and drops the greedy path at the second
    step; the greedy rollout (1, <eos>) then scores best, since every
    continuation of token 2 is worse still.  Even image: the greedy path
    1, 1, 1, <eos> leads the beam at every step."""

    def __init__(self):
        self.calls = []   # rows of each logprobs call

    def logprobs(self, state):
        self.calls.append(len(state))
        return np.array([self.scores(int(row[0]), tuple(row[1:].tolist())) for row in state])

    @staticmethod
    def scores(image, prefix):
        if image % 2 == 0:
            return [-4.0, -0.5, -4.0, -4.0] if len(prefix) < 3 else [-0.5, -4.0, -4.0, -4.0]
        if not prefix:
            return [-4.0, -0.5, -1.0, -4.0]
        if prefix[0] == 1:
            return [-8.0] * 4
        return [-4.0, -0.5, -0.5, -4.0] if len(prefix) == 1 else [-20.0] * 4


class TestGreedyPathInBeam:
    """The beam carries each image's greedy rollout and rolls out again only
    the images whose greedy child it did not keep."""

    @pytest.fixture
    def reruns(self, monkeypatch):
        rerun_feats = []
        original = decode_mod._greedy

        def recording(stepper, feats, max_len):
            rerun_feats.append(np.array(feats))
            return original(stepper, feats, max_len)

        monkeypatch.setattr(decode_mod, "_greedy", recording)
        return rerun_feats

    def test_rerun_only_over_images_the_greedy_path_left(self, reruns):
        stepper = GreedyTrapStepper()
        feats = np.arange(10, dtype=float)[:, None]
        got = decode_mod._beam(stepper, feats, 5, 2)
        assert len(reruns) == 1 and np.array_equal(reruns[0], feats[1::2])
        for features, (ids, total) in zip(feats, got):
            oracle_ids, oracle_total, _ = oracle_beam(GreedyTrapStepper(), features, 5, 2)
            assert (ids, total) == (oracle_ids, oracle_total)
        # the rolled-out greedy path wins where the beam dropped it
        assert got[1] == ([1, 0], -8.5)

    def test_no_step_follows_the_beam_when_greedy_stays(self, reruns):
        stepper = GreedyTrapStepper()
        feats = np.arange(0, 10, 2, dtype=float)[:, None]
        got = decode_mod._beam(stepper, feats, 5, 2)
        steps = [oracle_beam(GreedyTrapStepper(), features, 5, 2)[2] for features in feats]
        assert reruns == [] and len(stepper.calls) == max(steps)
        assert all(result == ([1, 1, 1, 0], -2.0) for result in got)

    def test_no_step_follows_the_beam_at_beam_size_one(self, wide_vocab, small_dims,
                                                        monkeypatch, reruns):
        calls = []
        original = _PolicyStepper.logprobs

        def counting(self, state):
            calls.append(len(state))
            return original(self, state)

        monkeypatch.setattr(_PolicyStepper, "logprobs", counting)
        config = DecodeConfig(method="beam", beam_size=1)
        for trial in range(5):
            params = init_params(wide_vocab, small_dims, 600 + trial, 1.5)
            split = random_split(7, offset=10 * trial)
            steps = [oracle_beam(_PolicyStepper(params, 1.0), rec.features, small_dims.max_len,
                                 1)[2] for rec in split.records]
            calls.clear()
            decode_dataset(params, split, config)
            assert len(calls) == max(steps) and calls[0] == len(split)
        assert reruns == []


class TestSharedEncoder:
    """Bias-product decoding reads one recurrence through both classifiers.
    A frozen reference whose encoder differs from the model's, if only by an
    ulp or a signed zero, would take two recurrences: it is rejected."""

    def test_step_log_probs_equal_two_recurrence_stepper(self, wide_vocab, small_dims):
        params, frozen = shared_encoder_pair(wide_vocab, small_dims, 800)
        one = _PolicyStepper(params, 0.9, frozen)
        two = TwoRecurrenceStepper(params, frozen, 0.9)
        feats = np.stack([random_image(i).features for i in range(4)])
        state_one, state_two = one.start(feats), two.start(feats)
        rng = np.random.default_rng(1)
        for _ in range(small_dims.max_len):
            lp = one.logprobs(state_one)
            assert np.array_equal(lp, two.logprobs(state_two))
            rows = rng.integers(0, len(lp), size=5)
            tokens = rng.integers(0, len(wide_vocab), size=5)
            state_one = one.advance(state_one[rows], tokens)
            state_two = two.advance(state_two[rows], tokens)

    def test_bp_recurrent_rows_halve(self, wide_vocab, small_dims, monkeypatch):
        params, frozen = shared_encoder_pair(wide_vocab, small_dims, 801)
        split = random_split(6)
        rows = []
        original = decode_mod.recurrent_step

        def counting(p, h_prev, token_ids):
            rows.append(len(h_prev))
            return original(p, h_prev, token_ids)

        monkeypatch.setattr(decode_mod, "recurrent_step", counting)
        monkeypatch.setattr(oracles, "recurrent_step", counting)
        feats = np.stack([rec.features for rec in split.records])
        max_len = small_dims.max_len

        def greedy(stepper):
            seqs, totals, ended = decode_mod._greedy(stepper, feats, max_len)
            return seqs, totals.tolist(), ended.tolist()

        for search in (greedy, lambda stepper: decode_mod._beam(stepper, feats, max_len, 4)):
            rows.clear()
            one = search(_PolicyStepper(params, 1.0, frozen))
            shared_rows = sum(rows)
            rows.clear()
            two = search(TwoRecurrenceStepper(params, frozen, 1.0))
            assert shared_rows > 0 and sum(rows) == 2 * shared_rows
            assert one == two

    @staticmethod
    def assert_rejected(params, other):
        frozen = FrozenReference(other, 1.0)
        with pytest.raises(ValueError, match="encoder"):
            check_shared_encoder(params, frozen)
        with pytest.raises(ValueError, match="encoder"):
            decode_dataset(params, random_split(2), DecodeConfig(method="bp"), frozen=frozen)
        with pytest.raises(ValueError, match="encoder"):
            decode_bp(params, frozen, random_image(0), DecodeConfig(method="bp"))

    @pytest.mark.parametrize("name", ("embed",) + ENCODER_ARRAYS)
    def test_one_ulp_in_a_frozen_encoder_array_takes_two_recurrences(self, wide_vocab,
                                                                      small_dims, name):
        params, frozen = shared_encoder_pair(wide_vocab, small_dims, 803)
        check_shared_encoder(params, frozen)
        other = frozen.params.copy()
        arr = getattr(other, name).reshape(-1)
        arr[0] = np.nextafter(arr[0], np.inf)
        self.assert_rejected(params, other)

    def test_signed_zero_takes_two_recurrences(self, wide_vocab, small_dims):
        # -0.0 == 0.0 as values, but not as bytes
        params, _ = shared_encoder_pair(wide_vocab, small_dims, 804)
        params.bz[0] = 0.0
        other = params.copy()
        other.bz[0] = -0.0
        assert np.array_equal(other.bz, params.bz)
        self.assert_rejected(params, other)

    def test_other_encoder_takes_two_recurrences(self, wide_vocab, small_dims):
        params = init_params(wide_vocab, small_dims, 802, 0.8)
        other = init_params(wide_vocab, small_dims, 802, 0.8)
        other.wz[0, 0] += 1e-3  # one encoder entry differs
        self.assert_rejected(params, other)


class TestSplitEdgeCases:
    @pytest.mark.parametrize("method", ["greedy", "beam", "bp"])
    def test_empty_split_decodes_to_nothing(self, small_vocab, small_dims, method):
        params, frozen = shared_encoder_pair(small_vocab, small_dims, 900)
        empty = Dataset("val", [])
        assert decode_dataset(params, empty, DecodeConfig(method=method), frozen=frozen) == []

    def test_one_image_split_equals_single_image_decoders(self, wide_vocab, small_dims):
        params, frozen = shared_encoder_pair(wide_vocab, small_dims, 901)
        split = random_split(1, offset=3)
        image = split.records[0]
        beam = DecodeConfig(method="beam", beam_size=4)
        assert decode_dataset(params, split, beam) == [decode_beam(params, image, beam)]
        bp = DecodeConfig(method="bp", beam_size=4)
        assert (decode_dataset(params, split, bp, frozen=frozen)
                == [decode_bp(params, frozen, image, bp)])

    def test_decoding_is_search_only(self):
        """Every method is a deterministic search: the config carries no
        seed and no sampling setting, and a sampling method is rejected."""
        assert [f.name for f in fields(DecodeConfig)] == [
            "method", "beam_size", "max_len", "beta", "bp_base"]
        with pytest.raises(ValueError, match="greedy, beam or bp"):
            DecodeConfig(method="nucleus").validate()

    @pytest.mark.parametrize("method", ["greedy", "beam", "bp"])
    def test_decoding_draws_no_random_numbers(self, wide_vocab, small_dims, method,
                                             monkeypatch):
        """With numpy's generator constructor made to fail, each method
        decodes a split as before and leaves the global random state as it
        was."""
        params, frozen = shared_encoder_pair(wide_vocab, small_dims, 902)
        split = random_split(4)
        config = DecodeConfig(method=method, beam_size=3)
        expected = decode_dataset(params, split, config, frozen=frozen)

        def no_generator(*args, **kwargs):
            raise AssertionError("decoding built a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        state = np.random.get_state()
        assert decode_dataset(params, split, config, frozen=frozen) == expected
        after = np.random.get_state()
        assert after[0] == state[0] and after[2:] == state[2:]
        np.testing.assert_array_equal(after[1], state[1])

    def test_bp_searches_by_beam_only(self):
        with pytest.raises(ValueError, match="bp_base"):
            DecodeConfig(method="bp", bp_base="greedy").validate()

    @pytest.mark.parametrize("field, value", [
        ("beta", -1.0), ("beta", float("nan")), ("beta", float("inf")), ("max_len", 0),
    ])
    def test_bad_temperatures_and_max_len_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            DecodeConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field, value", [
        ("beam_size", 2.5), ("beam_size", 3.0), ("beam_size", True), ("beam_size", "5"),
        ("beam_size", None), ("max_len", 2.5), ("max_len", True), ("max_len", "4"),
        ("beta", True), ("beta", False), ("beta", "1"),
    ])
    def test_wrong_types_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            DecodeConfig(**{field: value}).validate()

    def test_integers_and_reals_of_any_kind_accepted(self):
        DecodeConfig(beam_size=np.int64(3), max_len=np.int32(4), beta=np.float32(0.5)).validate()
        DecodeConfig(beta=1).validate()
