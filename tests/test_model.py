import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caplab.corpus import ImageRecord, build_vocab
from caplab.decode import DecodeConfig, decode_greedy
from caplab.model import (
    ALL_ARRAYS,
    ModelDims,
    TrainScope,
    _backward_recurrence,
    _sigmoid,
    apply_sgd,
    backward_sequences,
    forward_sequences,
    init_params,
    load_checkpoint,
    log_softmax_temp,
    save_checkpoint,
    score_step,
    scoped_arrays,
    softmax_temp,
    tau_normalize,
    zero_grads,
)


def zeroed(params):
    out = params.copy()
    for arr in out.arrays().values():
        arr[:] = 0.0
    return out


class TestInit:
    def test_deterministic(self, tiny_vocab, tiny_dims):
        p1 = init_params(tiny_vocab, tiny_dims, seed=3)
        p2 = init_params(tiny_vocab, tiny_dims, seed=3)
        assert p1.full_hash() == p2.full_hash()

    def test_seed_matters(self, tiny_vocab, tiny_dims):
        assert init_params(tiny_vocab, tiny_dims, 3).full_hash() != \
            init_params(tiny_vocab, tiny_dims, 4).full_hash()

    def test_zero_init_gives_zero_logits(self, tiny_model, tiny_image, tiny_vocab):
        params = zeroed(tiny_model)
        z = score_step(params, tiny_image.features, [tiny_vocab.bos_id])
        np.testing.assert_array_equal(z, np.zeros(len(tiny_vocab)))

    def test_bad_dims(self, tiny_vocab):
        with pytest.raises(ValueError):
            init_params(tiny_vocab, ModelDims(hidden_dim=0, feature_dim=4), 0)


class TestScoreStep:
    def test_zero_classifier_returns_bias(self, tiny_model, tiny_image, tiny_vocab):
        params = tiny_model.copy()
        params.cls_w[:] = 0.0
        params.cls_b[:] = np.arange(len(tiny_vocab), dtype=float)
        for prefix in ([tiny_vocab.bos_id], [tiny_vocab.bos_id, 0, 1]):
            z = score_step(params, tiny_image.features, prefix)
            np.testing.assert_array_equal(z, params.cls_b)

    def test_linearity_in_classifier(self, tiny_model, tiny_image, tiny_vocab):
        params = tiny_model.copy()
        params.cls_b[:] = 0.3
        doubled = params.copy()
        doubled.cls_w *= 2.0
        doubled.cls_b *= 2.0
        prefix = [tiny_vocab.bos_id, 0]
        z = score_step(params, tiny_image.features, prefix)
        z2 = score_step(doubled, tiny_image.features, prefix)
        np.testing.assert_allclose(z2, 2.0 * z, rtol=1e-12)

    def test_distinct_prefixes_distinct_logits(self, tiny_model, tiny_image, tiny_vocab):
        z1 = score_step(tiny_model, tiny_image.features, [tiny_vocab.bos_id, 0, 1])
        z2 = score_step(tiny_model, tiny_image.features, [tiny_vocab.bos_id, 1, 0])
        assert not np.allclose(z1, z2)

    def test_out_of_range_token_errors(self, tiny_model, tiny_image, tiny_vocab):
        with pytest.raises(ValueError):
            score_step(tiny_model, tiny_image.features, [tiny_vocab.bos_id, len(tiny_vocab)])

    def test_prefix_must_start_with_bos(self, tiny_model, tiny_image):
        with pytest.raises(ValueError):
            score_step(tiny_model, tiny_image.features, [0, 1])

    def test_prefix_length_bound(self, tiny_model, tiny_image, tiny_vocab):
        too_long = [tiny_vocab.bos_id] + [0] * tiny_model.dims.max_len
        with pytest.raises(ValueError):
            score_step(tiny_model, tiny_image.features, too_long)


class TestSoftmaxTemp:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_temp(np.array([0.0, 0.0]), 1.0), [0.5, 0.5])

    def test_beta_zero_uniform(self):
        z = np.array([5.0, -3.0, 100.0])
        np.testing.assert_allclose(softmax_temp(z, 0.0), np.full(3, 1 / 3))

    def test_two_logit_value(self):
        # direct evaluation: e^2 / (e^2 + 1)
        expected = math.exp(2.0) / (math.exp(2.0) + 1.0)
        p = softmax_temp(np.array([2.0, 0.0]), 1.0)
        assert p[0] == pytest.approx(0.880797, abs=1e-6)
        assert p[1] == pytest.approx(0.119203, abs=1e-6)
        assert p[0] == pytest.approx(expected, rel=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            softmax_temp(np.array([np.inf, 0.0]), 1.0)
        with pytest.raises(ValueError):
            softmax_temp(np.array([np.nan, 0.0]), 1.0)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            softmax_temp(np.array([1.0]), -0.1)

    def test_extreme_logits_stable(self):
        p = softmax_temp(np.array([1000.0, -1000.0]), 1.0)
        assert p[0] == 1.0 and p[1] == 0.0
        lp = log_softmax_temp(np.array([1000.0, -1000.0]), 1.0)
        assert np.all(np.isfinite(lp) | (lp == -np.inf)) or np.all(np.isfinite(lp))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=6),
    st.floats(-30, 30),
    st.floats(0.01, 4.0),
)
def test_softmax_shift_invariance(z, c, beta):
    z = np.array(z)
    p1 = softmax_temp(z, beta)
    p2 = softmax_temp(z + c, beta)
    np.testing.assert_allclose(p1, p2, atol=1e-12)
    assert p1.sum() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=6), st.floats(0.05, 5.0))
def test_softmax_argmax_invariance(z, beta):
    # integer-valued logits keep tied maxima exactly tied after scaling
    z = np.array(z, dtype=float)
    assert int(np.argmax(softmax_temp(z, beta))) == int(np.argmax(z))


class TestTauNormalize:
    def test_tau_zero_identity(self, tiny_model):
        out = tau_normalize(tiny_model, 0.0)
        assert out.full_hash() == tiny_model.full_hash()
        assert out is not tiny_model

    def test_column_three_four(self, tiny_vocab):
        dims = ModelDims(hidden_dim=2, feature_dim=2, max_len=4)
        params = init_params(tiny_vocab, dims, 0)
        params.cls_w[:, 0] = [3.0, 4.0]
        out = tau_normalize(params, 1.0, normalize_bias=False)
        np.testing.assert_allclose(out.cls_w[:, 0], [0.6, 0.8], rtol=1e-12)

    def test_unit_norm_after_one_application(self, tiny_model):
        out = tau_normalize(tiny_model, 1.0, normalize_bias=False)
        np.testing.assert_allclose(np.linalg.norm(out.cls_w, axis=0), 1.0, rtol=1e-12)

    def test_not_idempotent_in_general(self, tiny_model):
        params = tiny_model.copy()
        params.cls_b[:] = 0.4
        once = tau_normalize(params, 0.5)
        twice = tau_normalize(once, 0.5)
        assert once.classifier_hash() != twice.classifier_hash()

    def test_only_classifier_touched(self, tiny_model):
        params = tiny_model.copy()
        params.cls_b[:] = 0.4
        out = tau_normalize(params, 0.7)
        assert out.encoder_hash() == params.encoder_hash()

    def test_zero_norm_column_errors(self, tiny_model):
        params = tiny_model.copy()
        params.cls_w[:, 1] = 0.0
        with pytest.raises(ValueError):
            tau_normalize(params, 0.5)

    def test_zero_norm_bias_errors(self, tiny_model):
        with pytest.raises(ValueError):
            tau_normalize(tiny_model, 0.5)  # init biases are zero

    def test_bias_normalized_by_default(self, tiny_model):
        params = tiny_model.copy()
        params.cls_b[:] = np.linspace(0.5, 1.0, len(params.cls_b))
        out = tau_normalize(params, 1.0)
        np.testing.assert_allclose(np.linalg.norm(out.cls_b), 1.0, rtol=1e-12)

    def test_tau_zero_greedy_identical(self, tiny_model, tiny_image):
        config = DecodeConfig(method="greedy", max_len=6)
        base = decode_greedy(tiny_model, tiny_image, config)
        normed = decode_greedy(tau_normalize(tiny_model, 0.0), tiny_image, config)
        assert base.ids == normed.ids and base.logprob == normed.logprob


class TestScope:
    def test_classifier_only_sgd_preserves_encoder(self, tiny_model):
        params = tiny_model.copy()
        grads = zero_grads(params)
        for name, g in grads.items():
            g[:] = 1.0
        before = params.encoder_hash()
        apply_sgd(params, grads, lr=0.1, scope=TrainScope.CLASSIFIER_ONLY)
        assert params.encoder_hash() == before
        assert params.classifier_hash() != tiny_model.classifier_hash()

    def test_all_scope_touches_everything(self, tiny_model):
        params = tiny_model.copy()
        grads = {name: np.ones_like(arr) for name, arr in params.arrays().items()}
        apply_sgd(params, grads, lr=0.1, scope=TrainScope.ALL)
        assert params.encoder_hash() != tiny_model.encoder_hash()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tiny_model, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(tiny_model, path, config_hash="deadbeef")
        loaded, meta = load_checkpoint(path)
        assert meta["config_hash"] == "deadbeef"
        assert loaded.full_hash() == tiny_model.full_hash()
        assert loaded.vocab == tiny_model.vocab
        for name in ALL_ARRAYS:
            np.testing.assert_array_equal(getattr(loaded, name), getattr(tiny_model, name))

    def test_score_step_preserved(self, tiny_model, tiny_image, tiny_vocab, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(tiny_model, path)
        loaded, _ = load_checkpoint(path)
        prefix = [tiny_vocab.bos_id, 0, 1]
        z1 = score_step(tiny_model, tiny_image.features, prefix)
        z2 = score_step(loaded, tiny_image.features, prefix)
        np.testing.assert_array_equal(z1, z2)

    def test_save_load_save_stable(self, tiny_model, tmp_path):
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        save_checkpoint(tiny_model, p1)
        loaded, _ = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        again, _ = load_checkpoint(p2)
        assert again.full_hash() == tiny_model.full_hash()

    @pytest.mark.parametrize("name", ["cls_b", "embed", "wz"])
    def test_wrong_array_shape_rejected(self, tiny_model, tmp_path, name):
        bad = tiny_model.copy()
        setattr(bad, name, getattr(bad, name)[:1])  # a broadcastable (1, ...) array
        path = tmp_path / "bad.npz"
        save_checkpoint(bad, path)
        with pytest.raises(ValueError, match=name):
            load_checkpoint(path)


def masked_sigmoid(x):
    """The logistic function with a per-sign branch, the reference form."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_matches_masked_form_without_warnings(self):
        x = np.linspace(-800.0, 800.0, 160_001)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            y = _sigmoid(x)
        np.testing.assert_allclose(y, masked_sigmoid(x), rtol=0.0, atol=1e-15)
        assert y.min() >= 0.0 and y.max() <= 1.0
        assert _sigmoid(np.array([0.0]))[0] == 0.5


class TestBackwardContractions:
    @pytest.mark.parametrize("b,t,d,n_words", [(2, 3, 4, 5), (5, 7, 6, 20), (3, 16, 8, 40)])
    def test_matches_einsum_reference(self, b, t, d, n_words):
        rng = np.random.default_rng(b * 100 + t)
        words = [f"w{i}" for i in range(n_words)]
        vocab = build_vocab([words], min_count=1)
        params = init_params(vocab, ModelDims(hidden_dim=d, feature_dim=3, max_len=t), seed=t,
                             scale=0.5)
        params.cls_b[:] = rng.normal(size=len(vocab))
        lengths = rng.integers(1, t + 1, size=b)
        lengths[0] = t
        fwd = forward_sequences(params, rng.normal(size=(b, 3)),
                                rng.integers(0, len(vocab), size=(b, t)), lengths)
        d_logits = rng.normal(size=(b, t, len(vocab))) * fwd.mask[:, :, None]

        expected = zero_grads(params)
        expected["cls_w"] = np.einsum("btd,btv->dv", fwd.h, d_logits)
        expected["cls_b"] = d_logits.sum(axis=(0, 1))
        _backward_recurrence(params, fwd, np.einsum("btv,dv->btd", d_logits, params.cls_w),
                             expected)
        for scope in TrainScope:
            grads = backward_sequences(params, fwd, d_logits, scope)
            for name in ALL_ARRAYS:
                want = expected[name] if name in scoped_arrays(scope) else 0.0
                np.testing.assert_allclose(grads[name], np.broadcast_to(want, grads[name].shape),
                                           rtol=0.0, atol=1e-12, err_msg=f"{scope} {name}")
