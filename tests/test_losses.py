import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from caplab.corpus import ImageRecord, build_vocab
from caplab.finetune import FinetuneConfig, classifier_step, encode_pairs
from caplab.losses import (
    LOG_EPS,
    PROB_EPS,
    FrozenReference,
    LossOutput,
    _gold_stats,
    _temper,
    bp_batch,
    bp_head,
    bp_log_probs,
    caption_targets,
    ce_batch,
    ce_terms,
    frame_targets,
    gold_index,
    logit_grad,
    loss_surface,
    pointwise_head,
    teacher_forced,
)
from caplab.model import (
    CLASSIFIER_ARRAYS,
    ModelDims,
    TrainScope,
    backward_sequences,
    forward_sequences,
    init_params,
)
from oracles import (along_axis_gold_stats, along_axis_logit_grad, bp_prob, fresh_bp_head,
                     fresh_bp_log_probs, fresh_log_softmax_temp, grad_check, per_row_frame_targets,
                     score_step, softmax_temp)


def ce_loss(params, image, caption):
    """``ce_batch`` over a batch of one (image, caption) pair."""
    return ce_batch(params, image.features[None, :], [caption])


def bp_loss(params, frozen, image, caption):
    """``bp_batch`` over a batch of one (image, caption) pair."""
    return bp_batch(params, frozen, image.features[None, :], [caption])


def head_loss(params, image, caption, method, frozen=None, **config):
    """The fine-tune's classifier step over one (image, caption) pair encoded
    by ``params``: the loss the fl, afl and wft fine-tunes train on."""
    step = classifier_step(FinetuneConfig(method=method, **config), frozen)
    return step(params, encode_pairs(params, [(image, caption)]).batch(np.arange(1)))


def frame_caption(params, caption):
    """(inputs, targets) id lists of one caption's teacher-forcing frame."""
    inputs, targets, _ = frame_targets(params.vocab, caption_targets(params, [caption]))
    return inputs[0].tolist(), targets[0].tolist()


def solve_exact_logits(params, image, caption, target_logits):
    """Set the classifier so each position of the framed caption produces the
    requested logit row exactly (up to lstsq rounding)."""
    inputs, targets = frame_caption(params, caption)
    fwd = forward_sequences(params, image.features[None, :], np.array([inputs]),
                            np.array([len(inputs)]))
    hidden = fwd.h[0]  # (T, d)
    solution, *_ = np.linalg.lstsq(hidden, np.asarray(target_logits, float), rcond=None)
    out = params.copy()
    out.cls_w = solution
    out.cls_b[:] = 0.0
    return out, targets


class TestCrossEntropy:
    def test_confident_model_zero_loss(self, tiny_model, tiny_image, tiny_vocab):
        caption = ["a"]
        _, targets = frame_caption(tiny_model, caption)
        big = 2000.0
        rows = np.full((len(targets), len(tiny_vocab)), -big)
        for t, gold in enumerate(targets):
            rows[t, gold] = big
        params, _ = solve_exact_logits(tiny_model, tiny_image, caption, rows)
        out = ce_loss(params, tiny_image, caption)
        assert out.loss == 0.0

    def test_uniform_model_log_vocab(self, tiny_model, tiny_image, tiny_vocab):
        params = tiny_model.copy()
        for arr in params.arrays().values():
            arr[:] = 0.0
        out = ce_loss(params, tiny_image, ["a", "b", "a"])
        assert out.loss == pytest.approx(math.log(len(tiny_vocab)), rel=1e-14)

    def test_gradient_matches_finite_differences(self, tiny_model, tiny_image):
        err = grad_check(lambda p: ce_loss(p, tiny_image, ["a", "b", "a"]), tiny_model, eps=1e-5)
        assert err <= 1e-4

    def test_empty_caption_errors(self, tiny_model, tiny_image):
        with pytest.raises(ValueError):
            ce_loss(tiny_model, tiny_image, [])

    def test_oov_maps_to_unk(self, tiny_model, tiny_image, tiny_vocab):
        inputs, targets = frame_caption(tiny_model, ["zebra"])
        assert targets == [tiny_vocab.unk_id, tiny_vocab.eos_id]
        assert inputs == [tiny_vocab.bos_id, tiny_vocab.unk_id]
        out = ce_loss(tiny_model, tiny_image, ["zebra"])
        assert np.isfinite(out.loss)

    def test_classifier_scope_grads_absent_outside(self, tiny_model, tiny_image):
        feats = tiny_image.features[None, :]
        fwd, logp, targets = teacher_forced(tiny_model, feats, [["a", "b"]])
        _, d_logits = pointwise_head(logp, targets, fwd.mask, fwd.lengths, ce_terms)
        grads = backward_sequences(tiny_model, fwd, d_logits, TrainScope.CLASSIFIER_ONLY)
        full = ce_loss(tiny_model, tiny_image, ["a", "b"]).grads
        assert set(grads) == set(CLASSIFIER_ARRAYS)
        for name in CLASSIFIER_ARRAYS:
            assert np.abs(grads[name]).max() > 0.0
            np.testing.assert_array_equal(grads[name], full[name])


class TestBiasProduct:
    @pytest.mark.parametrize("beta_prime", [-1.0, math.nan, math.inf, -math.inf])
    def test_frozen_reference_rejects_bad_beta_prime(self, tiny_model, beta_prime):
        with pytest.raises(ValueError, match="beta_prime"):
            FrozenReference(tiny_model, beta_prime)

    def test_beta_prime_zero_reduces_to_policy(self, tiny_model, tiny_image, tiny_vocab):
        frozen = FrozenReference(init_params(tiny_vocab, tiny_model.dims, 99, 0.3), 0.0)
        prefix = [tiny_vocab.bos_id, 0]
        q = bp_prob(tiny_model, frozen, tiny_image, prefix, beta=1.0)
        p = softmax_temp(score_step(tiny_model, tiny_image.features, prefix), 1.0)
        np.testing.assert_allclose(q, p, atol=1e-12)

    def test_same_model_doubles_temperature(self, tiny_model, tiny_image, tiny_vocab):
        beta = 0.8
        frozen = FrozenReference(tiny_model, beta)
        prefix = [tiny_vocab.bos_id, 1]
        q = bp_prob(tiny_model, frozen, tiny_image, prefix, beta=beta)
        p2b = softmax_temp(score_step(tiny_model, tiny_image.features, prefix), 2 * beta)
        np.testing.assert_allclose(q, p2b, atol=1e-10)

    def test_brute_force_three_word_formula(self, tiny_image):
        vocab = build_vocab([["x", "y", "z"]], 1)  # 3 words + specials
        dims = ModelDims(hidden_dim=4, feature_dim=4, max_len=6)
        params = init_params(vocab, dims, 21, 0.4)
        ref_params = init_params(vocab, dims, 22, 0.4)
        beta, beta_prime = 1.2, 0.6
        frozen = FrozenReference(ref_params, beta_prime)
        prefix = [vocab.bos_id, 0]
        q = bp_prob(params, frozen, tiny_image, prefix, beta)

        # independent evaluation of the combined softmax from raw logits
        z1 = score_step(params, tiny_image.features, prefix)
        z2 = score_step(ref_params, tiny_image.features, prefix)
        p1 = np.exp(beta * z1) / np.exp(beta * z1).sum()
        p2 = np.exp(beta_prime * z2) / np.exp(beta_prime * z2).sum()
        expected = np.exp(np.log(p1) + np.log(p2))
        expected /= expected.sum()
        np.testing.assert_allclose(q, expected, atol=1e-12)

    def test_loss_reduces_to_ce_at_beta_prime_zero(self, tiny_model, tiny_image, tiny_vocab):
        frozen = FrozenReference(init_params(tiny_vocab, tiny_model.dims, 99, 0.3), 0.0)
        bp = bp_loss(tiny_model, frozen, tiny_image, ["a", "b"])
        ce = ce_loss(tiny_model, tiny_image, ["a", "b"])
        assert bp.loss == pytest.approx(ce.loss, abs=1e-10)

    def test_gradient_matches_finite_differences(self, tiny_model, tiny_image, tiny_vocab):
        frozen = FrozenReference(init_params(tiny_vocab, tiny_model.dims, 77, 0.3), 0.7)
        err = grad_check(lambda p: bp_loss(p, frozen, tiny_image, ["b", "a"]), tiny_model,
                         eps=1e-5)
        assert err <= 1e-4

    def test_classifier_step_gradient_matches_finite_differences(self, tiny_model, tiny_image):
        """The wft fine-tune's classifier gradient, at beta' != 1, against a
        frozen copy whose classifier differs from the trained one."""
        frozen = FrozenReference(tiny_model, 0.7)
        params = tiny_model.copy()
        params.cls_w *= 1.5
        batch = encode_pairs(tiny_model, [(tiny_image, ["b", "a"]),
                                          (tiny_image, ["a"])]).batch(np.arange(2))
        step = classifier_step(FinetuneConfig(method="wft", beta_prime=0.7), frozen)
        assert set(step(params, batch).grads) == set(CLASSIFIER_ARRAYS)
        assert grad_check(lambda p: step(p, batch), params, eps=1e-5) <= 1e-4

    def test_frozen_gets_no_gradient_and_stays_immutable(self, tiny_model, tiny_image, tiny_vocab):
        frozen = FrozenReference(tiny_model, 1.0)
        before = frozen.hash_hex()
        bp_loss(tiny_model, frozen, tiny_image, ["a"])
        assert frozen.hash_hex() == before
        with pytest.raises(ValueError):
            frozen.params.cls_w[0, 0] = 5.0

    def test_shape_mismatch_errors(self, tiny_model, tiny_image):
        other_vocab = build_vocab([["p", "q", "r"]], 1)
        other = init_params(other_vocab, tiny_model.dims, 0)
        with pytest.raises(ValueError):
            bp_loss(tiny_model, FrozenReference(other, 1.0), tiny_image, ["a"])


def read_only_log_probs(shape, spread, beta, seed):
    """Read-only log-probs at inverse temperature ``beta`` of logits uniform
    over a width of ``spread``, with components 0 and 1 of every row from
    logits -0.0 and 0.0."""
    z = np.random.default_rng(seed).uniform(-spread / 2, spread / 2, size=shape)
    z[..., 0], z[..., 1] = -0.0, 0.0
    logp = fresh_log_softmax_temp(z, beta)
    logp.flags.writeable = False
    return logp


class TestBiasProductPasses:
    """``bp_log_probs`` and ``bp_head`` write each pass into an array of their
    own: the bits of ``oracles``' fresh-array forms, and the caller's arrays
    untouched.  A logit spread of 80 floors components of the model's
    log-probs; one of 5 floors none."""

    @pytest.mark.parametrize("spread", [5.0, 80.0], ids=["unfloored", "floored"])
    @pytest.mark.parametrize("beta_prime", [0.0, 0.3, 1.0, 2.0])
    @pytest.mark.parametrize("shape", [(9,), (4, 9), (2, 3, 9)], ids=["1d", "2d", "3d"])
    def test_bp_log_probs_matches_fresh_form(self, shape, beta_prime, spread):
        logp = read_only_log_probs(shape, spread, 1.0, seed=1)
        logp_ref = read_only_log_probs(shape, spread, beta_prime, seed=2)
        assert (logp <= LOG_EPS).any() == (spread > 30)
        before = logp.tobytes(), logp_ref.tobytes()
        want = fresh_bp_log_probs(logp, logp_ref)
        assert bp_log_probs(logp, logp_ref).tobytes() == want.tobytes()
        assert (logp.tobytes(), logp_ref.tobytes()) == before

    @pytest.mark.parametrize("spread", [5.0, 80.0], ids=["unfloored", "floored"])
    @pytest.mark.parametrize("beta_prime", [0.0, 0.3, 1.0, 2.0])
    def test_bp_head_matches_fresh_form(self, beta_prime, spread):
        rng = np.random.default_rng(3)
        shape = (3, 4, 9)
        logp = read_only_log_probs(shape, spread, 1.0, seed=1)
        logp_ref = read_only_log_probs(shape, spread, beta_prime, seed=2)
        targets = rng.integers(0, shape[-1], size=shape[:2])
        lengths = np.array([4, 2, 1])
        mask = (np.arange(shape[1])[None, :] < lengths[:, None]).astype(np.float64)
        frame = (targets, mask, lengths)
        for arr in frame:
            arr.flags.writeable = False
        assert (logp <= LOG_EPS).any() == (spread > 30)
        before = [arr.tobytes() for arr in (logp, logp_ref, *frame)]
        want = fresh_bp_head(logp, logp_ref, *frame)
        got = bp_head(logp, logp_ref, *frame)
        assert [arr.tobytes() for arr in got] == [arr.tobytes() for arr in want]
        assert [arr.tobytes() for arr in (logp, logp_ref, *frame)] == before


def rollout_case(seed, spread=6.0):
    """A random frame: log-probs at (B, T + 3) positions over V words, as a
    rollout's ``max_len`` steps, whose first T steps a test takes as the
    non-contiguous view ``[:, :T]``; targets, ragged lengths and their mask
    at those T steps.  A logit spread of 80 floors some log-probs."""
    rng = np.random.default_rng(seed)
    b, t, v = (int(n) for n in (rng.integers(1, 7), rng.integers(1, 10), rng.integers(2, 31)))
    logp = fresh_log_softmax_temp(rng.uniform(-spread / 2, spread / 2, size=(b, t + 3, v)), 1.0)
    targets = rng.integers(0, v, size=(b, t))
    lengths = rng.integers(1, t + 1, size=b)
    mask = (np.arange(t)[None, :] < lengths[:, None]).astype(np.float64)
    return rng, logp, targets, mask


class TestGoldPath:
    """The loss heads reach each position's gold entry through one flat
    ``gold_index``: the bits of ``oracles``' ``take_along_axis`` and
    ``put_along_axis`` forms, on contiguous arrays and on a rollout's
    ``probs[:, :steps]`` view alike."""

    @pytest.mark.parametrize("layout", ["contiguous", "view"])
    @pytest.mark.parametrize("coef", ["one", "scalar", "per_position", "zero"])
    @pytest.mark.parametrize("seed", range(6))
    def test_logit_grad_matches_along_axis_form(self, seed, coef, layout):
        rng, logp, targets, mask = rollout_case(seed)
        full = np.exp(logp)
        steps = targets.shape[1]
        p = full[:, :steps] if layout == "view" else np.ascontiguousarray(full[:, :steps])
        assert p.flags.c_contiguous == (layout == "contiguous")
        coef = {"one": 1, "scalar": -0.37,
                "per_position": rng.normal(size=targets.shape) * mask,
                "zero": np.zeros(targets.shape)}[coef]
        before = full.tobytes()
        want = along_axis_logit_grad(p, targets, coef)
        got = logit_grad(p, gold_index(targets, p.shape[-1]), coef)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert full.tobytes() == before

    def test_logit_grad_at_coef_one_works_in_place_on_a_contiguous_p(self):
        _, logp, targets, _ = rollout_case(0)
        p = np.exp(logp[:, : targets.shape[1]])
        want = along_axis_logit_grad(p, targets, 1)
        got = logit_grad(p, gold_index(targets, p.shape[-1]), 1)
        assert got is p and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("layout", ["contiguous", "view"])
    @pytest.mark.parametrize("spread", [6.0, 80.0], ids=["unfloored", "floored"])
    @pytest.mark.parametrize("seed", range(6))
    def test_gold_stats_matches_along_axis_form(self, seed, spread, layout):
        _, logp, targets, mask = rollout_case(seed, spread)
        steps = targets.shape[1]
        view = logp[:, :steps] if layout == "view" else np.ascontiguousarray(logp[:, :steps])
        want = along_axis_gold_stats(view, targets, mask)
        got = _gold_stats(view, gold_index(targets, view.shape[-1]), mask)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert [a.shape for a in got] == [a.shape for a in want]

    @pytest.mark.parametrize("seed", range(6))
    def test_frame_targets_matches_per_row_form(self, seed):
        """Ragged captions, some cut at max_len - 1 words, some with words
        outside the vocabulary, and raw id sequences without an <eos>."""
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(8)]
        vocab = build_vocab([words], min_count=1)
        params = init_params(vocab, ModelDims(hidden_dim=4, feature_dim=3, max_len=6), 0)
        pool = words + ["zebra", "yak"]
        captions = [[pool[i] for i in rng.integers(0, len(pool), size=rng.integers(1, 10))]
                    for _ in range(int(rng.integers(1, 12)))]
        captions += [["zebra"] * 9, ["w1"]]
        ids = caption_targets(params, captions)
        assert max(map(len, ids)) == params.dims.max_len
        assert any(vocab.unk_id in tgt for tgt in ids)
        raw = [list(rng.integers(0, len(vocab), size=rng.integers(1, 7))) for _ in range(5)]
        for target_ids in (ids, raw, ids[:1]):
            want = per_row_frame_targets(vocab, target_ids)
            got = frame_targets(vocab, target_ids)
            assert [(a.dtype, a.shape, a.tobytes()) for a in got] == \
                [(a.dtype, a.shape, a.tobytes()) for a in want]

    @pytest.mark.parametrize("target_ids", [[], [[3], []]], ids=["no-target", "empty-target"])
    def test_frame_targets_rejects_empty(self, tiny_vocab, target_ids):
        with pytest.raises(ValueError):
            frame_targets(tiny_vocab, target_ids)


class TestFocalFamily:
    """The focal and anti-focal losses as the fl and afl fine-tunes compute
    them: the classifier step over encoded (image, caption) pairs."""

    def test_focal_gamma_zero_is_ce(self, tiny_model, tiny_image):
        fl = head_loss(tiny_model, tiny_image, ["a", "b"], "fl", gamma=0.0)
        ce = ce_loss(tiny_model, tiny_image, ["a", "b"])
        assert fl.loss == pytest.approx(ce.loss, abs=1e-12)

    def test_anti_focal_alpha_zero_is_ce(self, tiny_model, tiny_image):
        afl = head_loss(tiny_model, tiny_image, ["a", "b"], "afl", gamma=2.0, alpha=0.0)
        ce = ce_loss(tiny_model, tiny_image, ["a", "b"])
        assert afl.loss == pytest.approx(ce.loss, abs=1e-12)

    def _half_prob_model(self, tiny_model, tiny_image, tiny_vocab):
        # every position's gold holds probability exactly 1/2:
        # logit ln(3) for the gold of the step, 0 elsewhere (|W| = 5)
        caption = ["a"]
        _, targets = frame_caption(tiny_model, caption)
        rows = np.zeros((len(targets), len(tiny_vocab)))
        for t, gold in enumerate(targets):
            rows[t, gold] = math.log(len(tiny_vocab) - 1)
        params, _ = solve_exact_logits(tiny_model, tiny_image, caption, rows)
        return params, caption

    def test_focal_half_prob_value(self, tiny_model, tiny_image, tiny_vocab):
        params, caption = self._half_prob_model(tiny_model, tiny_image, tiny_vocab)
        out = head_loss(params, tiny_image, caption, "fl", gamma=1.0)
        assert out.loss == pytest.approx(0.346574, abs=1e-6)  # -0.5 * ln 0.5

    def test_anti_focal_half_prob_value(self, tiny_model, tiny_image, tiny_vocab):
        params, caption = self._half_prob_model(tiny_model, tiny_image, tiny_vocab)
        out = head_loss(params, tiny_image, caption, "afl", gamma=1.0, alpha=1.0)
        assert out.loss == pytest.approx(1.039721, abs=1e-6)  # -1.5 * ln 0.5

    def test_gradients_match_finite_differences(self, tiny_model, tiny_image):
        batch = encode_pairs(tiny_model, [(tiny_image, ["b", "a"]),
                                          (tiny_image, ["a", "a"])]).batch(np.arange(2))
        for config in (FinetuneConfig(method="fl", gamma=2.0),
                       FinetuneConfig(method="afl", gamma=1.5, alpha=0.8)):
            step = classifier_step(config)
            assert grad_check(lambda p: step(p, batch), tiny_model, eps=1e-5) <= 1e-4

    def test_negative_hyperparameters_rejected(self, tiny_model, tiny_image):
        with pytest.raises(ValueError):
            head_loss(tiny_model, tiny_image, ["a"], "fl", gamma=-1.0)
        with pytest.raises(ValueError):
            head_loss(tiny_model, tiny_image, ["a"], "afl", alpha=-0.5)


class TestGradCheckOracle:
    def test_corrupted_gradient_detected(self, tiny_model, tiny_image):
        def corrupted(params):
            out = ce_loss(params, tiny_image, ["a", "b"])
            grads = {k: v.copy() for k, v in out.grads.items()}
            flat = grads["cls_w"]
            idx = np.unravel_index(np.argmax(np.abs(flat)), flat.shape)
            flat[idx] *= 2.0
            return LossOutput(loss=out.loss, grads=grads)

        err = grad_check(corrupted, tiny_model, eps=1e-5)
        assert err >= 0.3

    def test_bad_eps_rejected(self, tiny_model, tiny_image):
        with pytest.raises(ValueError):
            grad_check(lambda p: ce_loss(p, tiny_image, ["a"]), tiny_model, eps=0.0)


class TestLossSurface:
    def test_confident_limit(self):
        rows = loss_surface([1.0 - 5e-9])
        row = rows[0]
        for key in ("ce", "bp", "fl", "afl"):
            assert row[key] == pytest.approx(0.0, abs=1e-6)

    def test_focal_below_ce(self):
        for row in loss_surface(np.linspace(0.01, 0.99, 25), gamma=1.0):
            assert row["fl"] <= row["ce"] + 1e-15

    def test_bp_ce_single_crossing(self):
        grid = np.linspace(0.01, 0.99, 197)
        rows = loss_surface(grid, beta=1.0, beta_prime=1.0)
        signs = [np.sign(row["bp"] - row["ce"]) for row in rows]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b and a != 0 and b != 0)
        assert changes == 1
        # the product sharpens the peak: higher loss below the crossing,
        # lower loss above it
        assert rows[0]["bp"] > rows[0]["ce"]
        assert rows[-1]["bp"] < rows[-1]["ce"]

    def test_fig_construction_qualitative_orderings(self):
        rows = loss_surface([0.05, 0.9])
        low, high = rows
        assert low["bp"] > low["ce"]
        assert high["bp"] < high["ce"]

    def test_grid_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            loss_surface([0.0])
        with pytest.raises(ValueError):
            loss_surface([1.0])

    def test_gold_probability_that_underflows_warns_nothing(self):
        # at beta 200 the gold word's tempered probability is subnormal at
        # p1 = 0.005 and 0 at p1 = 0.001; a RuntimeWarning fails the test
        for row in loss_surface([0.001, 0.005], beta=200.0, gamma=2.0, alpha=0.5):
            assert row["ce"] == row["fl"] == row["afl"] == -math.log(PROB_EPS)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 3.0, 10.0, 1000.0])
    @pytest.mark.parametrize("p1", [0.1, 0.3, 0.9])
    def test_temper_takes_log_space_only_where_every_power_underflows(self, p1, beta):
        p = np.array([p1] + [(1.0 - p1) / 5.0] * 5)
        q = p**beta
        got = _temper(p, beta)
        if q.sum() > 0.0:
            assert got.tobytes() == (q / q.sum()).tobytes()
            return
        assert (beta, p1) in {(1000.0, 0.1), (1000.0, 0.3)}
        assert np.all(np.isfinite(got)) and got.sum() == pytest.approx(1.0, abs=1e-15)
        assert got.argmax() == p.argmax()
        if got[0] > 0.0 and got[1] > 0.0:  # the tempered gold-to-filler ratio
            assert math.log(got[0] / got[1]) == pytest.approx(beta * math.log(p[0] / p[1]),
                                                              rel=1e-9)

    def test_large_beta_rows_are_finite(self):
        # at beta 1000 every tempered p**beta of about half the rows underflows
        rows = loss_surface(np.linspace(0.005, 0.995, 199), beta=1000.0)
        assert all(math.isfinite(value) for row in rows for value in row.values())

    def test_columns_present(self):
        row = loss_surface([0.3])[0]
        assert set(row) == {"p1", "ce", "bp", "fl", "afl"}


@settings(max_examples=25, deadline=None)
@given(st.floats(0.01, 0.99))
def test_surface_identities_pointwise(p1):
    row_g0 = loss_surface([p1], gamma=0.0)[0]
    assert row_g0["fl"] == pytest.approx(row_g0["ce"], abs=1e-12)
    row_a0 = loss_surface([p1], alpha=0.0, gamma=2.0)[0]
    assert row_a0["afl"] == pytest.approx(row_a0["ce"], abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.02, 0.98), st.floats(0.02, 0.98))
@example(p_low=0.020000000000000004, p_high=0.02)
def test_ce_monotone_in_gold_probability(p_low, p_high):
    lo, hi = sorted([p_low, p_high])
    # gold probabilities an ulp apart give the same float64 losses, so
    # strict monotonicity is asserted only across a relative gap of 1e-9
    assume(hi - lo >= 1e-9 * hi)
    rows = loss_surface([lo, hi])
    assert rows[0]["ce"] > rows[1]["ce"]
    assert rows[0]["fl"] > rows[1]["fl"]
    assert rows[0]["afl"] > rows[1]["afl"]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 30.0))
def test_losses_finite_under_parameter_fuzz(seed, scale):
    vocab = build_vocab([["a", "b"], ["b", "a"]], 1)
    dims = ModelDims(hidden_dim=4, feature_dim=3, max_len=6)
    params = init_params(vocab, dims, seed, scale=scale)
    rng = np.random.default_rng(seed)
    image = ImageRecord(id=0, features=rng.normal(size=3) * scale, references=[["a"]])
    frozen = FrozenReference(init_params(vocab, dims, seed + 1, scale=scale), 1.0)
    shared = FrozenReference(params, 0.5)
    for out in (
        ce_loss(params, image, ["a", "b"]),
        bp_loss(params, frozen, image, ["a", "b"]),
        head_loss(params, image, ["a", "b"], "fl", gamma=2.0),
        head_loss(params, image, ["a", "b"], "afl", gamma=2.0, alpha=1.0),
        head_loss(params, image, ["a", "b"], "wft", frozen=shared, beta_prime=0.5),
    ):
        assert np.isfinite(out.loss)
        assert out.loss >= 0.0
        for grad in out.grads.values():
            assert np.all(np.isfinite(grad))
