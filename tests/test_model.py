import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caplab.corpus import ImageRecord, build_vocab
from caplab.losses import LOG_EPS
from caplab.model import (
    ALL_ARRAYS,
    CLASSIFIER_ARRAYS,
    ModelDims,
    TrainScope,
    _backward_recurrence,
    _scatter_add,
    _sigmoid,
    apply_sgd,
    backward_sequences,
    forward_sequences,
    gru_cell,
    init_params,
    input_projections,
    load_checkpoint,
    log_softmax_temp,
    logits_from_hidden,
    recurrent_step,
    save_checkpoint,
)
from oracles import (fresh_backward_recurrence, fresh_forward_sequences, fresh_gru_cell,
                     fresh_log_softmax_temp, fresh_logits_from_hidden, fresh_sigmoid, score_step,
                     softmax_temp)


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


def signed_zero_logits(shape, spread, seed):
    """Logits uniform over a width of ``spread``, with components 0 and 1 of
    every row -0.0 and 0.0 and, past one dimension, row 0 all -0.0."""
    z = np.random.default_rng(seed).uniform(-spread / 2, spread / 2, size=shape)
    z[..., 0], z[..., 1] = -0.0, 0.0
    if z.ndim > 1:
        z.reshape(-1, shape[-1])[0] = -0.0
    return z


def read_only(arr):
    arr.flags.writeable = False
    return arr


class TestVocabularyPasses:
    """``log_softmax_temp`` and ``logits_from_hidden`` write each pass into an
    array of their own: the bits of ``oracles``' fresh-array forms, and the
    caller's arrays untouched.  At beta = 1 no scaled copy is made and the
    first pass reads the caller's own array, so every input is read-only."""

    @pytest.mark.parametrize("spread", [5.0, 80.0], ids=["unfloored", "floored"])
    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0, 2.0])
    @pytest.mark.parametrize("shape", [(9,), (4, 9), (2, 3, 9)], ids=["1d", "2d", "3d"])
    def test_log_softmax_temp_matches_fresh_form(self, shape, beta, spread):
        z = read_only(signed_zero_logits(shape, spread, seed=len(shape)))
        before = z.tobytes()
        assert (fresh_log_softmax_temp(z, 1.0) <= LOG_EPS).any() == (spread > 30)
        out = log_softmax_temp(z, beta)
        assert out.tobytes() == fresh_log_softmax_temp(z, beta).tobytes()
        assert not np.shares_memory(out, z)
        assert z.tobytes() == before

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_log_softmax_temp_rejects_non_finite_at_beta_one(self, bad):
        with pytest.raises(ValueError, match="non-finite logits"):
            log_softmax_temp(np.array([[0.0, 1.0], [bad, 0.0]]), 1.0)

    @pytest.mark.parametrize("shape", [(6,), (4, 6), (2, 3, 6)], ids=["1d", "2d", "3d"])
    def test_logits_from_hidden_matches_fresh_form(self, tiny_model, shape):
        params = tiny_model.copy()
        params.cls_b[:] = signed_zero_logits(params.cls_b.shape, 4.0, seed=7)
        for arr in params.arrays().values():
            read_only(arr)
        hidden = read_only(signed_zero_logits(shape, 2.0, seed=len(shape)))
        before = hidden.tobytes(), params.full_hash()
        want = fresh_logits_from_hidden(params, hidden)
        assert logits_from_hidden(params, hidden).tobytes() == want.tobytes()
        assert (hidden.tobytes(), params.full_hash()) == before


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


class TestScope:
    def test_classifier_only_sgd_preserves_encoder(self, tiny_model):
        params = tiny_model.copy()
        grads = {name: np.ones_like(getattr(params, name)) for name in CLASSIFIER_ARRAYS}
        before = params.encoder_hash()
        apply_sgd(params, grads, lr=0.1)
        assert params.encoder_hash() == before
        assert params.classifier_hash() != tiny_model.classifier_hash()

    def test_all_scope_touches_everything(self, tiny_model):
        params = tiny_model.copy()
        grads = {name: np.ones_like(arr) for name, arr in params.arrays().items()}
        apply_sgd(params, grads, lr=0.1)
        for name in ALL_ARRAYS:
            assert not np.array_equal(getattr(params, name), getattr(tiny_model, name)), name


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

    @pytest.mark.parametrize("name, value", [
        ("max_len", 0), ("max_len", -3), ("max_len", 1), ("max_len", 2.5), ("hidden_dim", 0),
        ("feature_dim", 0), ("hidden_dim", True),
    ])
    def test_dims_out_of_bounds_rejected(self, tiny_model, tmp_path, name, value):
        bad = tiny_model.copy()
        bad.dims = replace(bad.dims, **{name: value})
        path = tmp_path / "bad.npz"
        save_checkpoint(bad, path)
        with pytest.raises(ValueError, match=f"checkpoint {name} must be an integer"):
            load_checkpoint(path)

    def test_unknown_dims_key_rejected(self, tiny_model, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(tiny_model, path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["dims"]["depth"] = 2
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="checkpoint dims"):
            load_checkpoint(path)

    @staticmethod
    def rewrite_meta(path, edit):
        """Rewrite the checkpoint at ``path`` with ``edit`` applied to its
        metadata, the arrays untouched."""
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        edit(meta)
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(path, **arrays)

    def test_metadata_has_no_extra(self, tiny_model, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(tiny_model, path, config_hash="deadbeef")
        _, meta = load_checkpoint(path)
        assert set(meta) == {"version", "dims", "vocab", "vocab_hash", "config_hash"}

    @pytest.mark.parametrize("extra", [{"beta_prime": 0.3}, None, [0.7]],
                             ids=["object", "null", "list"])
    def test_extra_of_an_older_checkpoint_is_ignored(self, tiny_model, tmp_path, extra):
        path = tmp_path / "model.npz"
        save_checkpoint(tiny_model, path)
        self.rewrite_meta(path, lambda meta: meta.update(extra=extra))
        loaded, meta = load_checkpoint(path)
        assert meta["extra"] == extra
        assert loaded.full_hash() == tiny_model.full_hash()

    @pytest.mark.parametrize("content, message", [
        (lambda good: b"", "not an .npz archive: No data left in file"),
        (lambda good: good[: len(good) // 2], "not an .npz archive: File is not a zip file"),
        (lambda good: good[-len(good) // 2:], "not an .npz archive"),
        (None, "not an .npz archive but a single .npy array"),
    ], ids=["empty", "truncated", "tail", "npy"])
    def test_file_that_is_not_an_archive_rejected(self, tiny_model, tmp_path, content,
                                                   message):
        path = tmp_path / "model.npz"
        save_checkpoint(tiny_model, path)
        if content is None:
            with open(path, "wb") as fh:
                np.save(fh, tiny_model.cls_w)
        else:
            path.write_bytes(content(path.read_bytes()))
        with pytest.raises(ValueError, match=message):
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
            y = x.copy()
            assert _sigmoid(y) is y  # in place, on the array it is given
        np.testing.assert_allclose(y, masked_sigmoid(x), rtol=0.0, atol=1e-15)
        assert y.min() >= 0.0 and y.max() <= 1.0
        assert _sigmoid(np.array([0.0]))[0] == 0.5

    def test_bit_identical_to_out_of_place_form(self):
        x = np.random.default_rng(0).normal(scale=4.0, size=(50, 64))
        assert _sigmoid(x.copy()).tobytes() == fresh_sigmoid(x).tobytes()


SEQ_FIELDS = ("tokens", "lengths", "mask", "feats", "h0", "z", "r", "n", "h")


def random_batch(params, b, t, seed):
    """Features, tokens and lengths (the first row full length) of a random
    (b, t) batch."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, t + 1, size=b)
    lengths[0] = t
    return (rng.normal(size=(b, params.dims.feature_dim)),
            rng.integers(0, len(params.vocab), size=(b, t)), lengths)


def snapshot(*arrays):
    return [a.tobytes() for a in arrays]


class TestCellBitIdentity:
    """The cell on hoisted input projections and the in-place backward give
    the bits of the per-step, every-pass-into-a-new-array forms."""

    @pytest.mark.parametrize("t", [1, 2, 12, 16])
    @pytest.mark.parametrize("b", [1, 2, 10, 50])
    def test_forward_sequences(self, wide_model, b, t):
        batch = random_batch(wide_model, b, t, seed=b * 100 + t)
        got = forward_sequences(wide_model, *batch)
        expected = fresh_forward_sequences(wide_model, *batch)
        for name in SEQ_FIELDS:
            have, want = getattr(got, name), getattr(expected, name)
            assert have.flags.c_contiguous, name
            assert have.shape == want.shape and have.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("m", [1, 2, 5, 200])
    def test_recurrent_step_and_cell(self, wide_model, m):
        rng = np.random.default_rng(m)
        h_prev = np.tanh(rng.normal(size=(m, 64)))
        ids = rng.integers(0, len(wide_model.vocab), size=m)
        expected = fresh_gru_cell(wide_model, wide_model.embed[ids], h_prev)
        got = gru_cell(wide_model, *input_projections(wide_model, wide_model.embed[ids]), h_prev)
        assert snapshot(*got) == snapshot(*expected)
        assert recurrent_step(wide_model, h_prev, ids).tobytes() == expected[3].tobytes()

    @pytest.mark.parametrize("b", [1, 10, 50])
    def test_backward_recurrence(self, wide_model, b):
        feats, tokens, lengths = random_batch(wide_model, b, 16, seed=b)
        fwd = forward_sequences(wide_model, feats, tokens, lengths)
        dh = np.random.default_rng(b + 1).normal(size=(b, 16, 64)) * fwd.mask[:, :, None]
        got = _backward_recurrence(wide_model, fwd, dh)
        expected = fresh_backward_recurrence(wide_model, fwd, dh)
        assert set(got) == set(expected)
        for name in expected:
            assert got[name].tobytes() == expected[name].tobytes(), name

    def test_inputs_left_unchanged(self, wide_model):
        params_before = snapshot(*wide_model.arrays().values())
        rng = np.random.default_rng(5)
        x, h_prev = rng.normal(size=(7, 64)), rng.normal(size=(7, 64))
        before = snapshot(x)
        proj = input_projections(wide_model, x)
        assert snapshot(x) == before
        before = snapshot(*proj, h_prev)
        gru_cell(wide_model, *proj, h_prev)
        assert snapshot(*proj, h_prev) == before

        fwd = forward_sequences(wide_model, *random_batch(wide_model, 4, 6, seed=5))
        dh = rng.normal(size=(4, 6, 64)) * fwd.mask[:, :, None]
        before = snapshot(dh, *(getattr(fwd, name) for name in SEQ_FIELDS))
        _backward_recurrence(wide_model, fwd, dh)
        assert snapshot(dh, *(getattr(fwd, name) for name in SEQ_FIELDS)) == before
        assert snapshot(*wide_model.arrays().values()) == params_before


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

        expected = _backward_recurrence(params, fwd,
                                        np.einsum("btv,dv->btd", d_logits, params.cls_w))
        expected["cls_w"] = np.einsum("btd,btv->dv", fwd.h, d_logits)
        expected["cls_b"] = d_logits.sum(axis=(0, 1))
        grads = backward_sequences(params, fwd, d_logits, TrainScope.ALL)
        assert set(grads) == set(ALL_ARRAYS)
        for name in ALL_ARRAYS:
            np.testing.assert_allclose(grads[name], expected[name], rtol=0.0, atol=1e-12,
                                       err_msg=name)


def per_step_backward(params, fwd, dh_from_logits):
    """The recurrence backward with every contraction done time step by time
    step, the reference form of ``_backward_recurrence``."""
    grads = {name: np.zeros_like(getattr(params, name))
             for name in ("embed", "wz", "uz", "bz", "wr", "ur", "br", "wn", "un", "bn")}
    b, t_max, d = fwd.h.shape
    dh_next = np.zeros((b, d))
    for t in reversed(range(t_max)):
        dh = dh_from_logits[:, t] + dh_next
        zt, rt, nt, xt = fwd.z[:, t], fwd.r[:, t], fwd.n[:, t], params.embed[fwd.tokens[:, t]]
        h_prev = fwd.h[:, t - 1] if t > 0 else fwd.h0
        dn_pre = dh * (1.0 - zt) * (1.0 - nt * nt)
        d_rh = dn_pre @ params.un.T
        dr_pre = d_rh * h_prev * rt * (1.0 - rt)
        dz_pre = dh * (h_prev - nt) * zt * (1.0 - zt)
        for gate, pre, inp in (("z", dz_pre, h_prev), ("r", dr_pre, h_prev),
                               ("n", dn_pre, rt * h_prev)):
            grads[f"w{gate}"] += xt.T @ pre
            grads[f"u{gate}"] += inp.T @ pre
            grads[f"b{gate}"] += pre.sum(axis=0)
        np.add.at(grads["embed"], fwd.tokens[:, t],
                  dz_pre @ params.wz.T + dr_pre @ params.wr.T + dn_pre @ params.wn.T)
        dh_next = dh * zt + d_rh * rt + dz_pre @ params.uz.T + dr_pre @ params.ur.T
    dh0_pre = dh_next * (1.0 - fwd.h0 * fwd.h0)
    grads["img_w"] = fwd.feats.T @ dh0_pre
    grads["img_b"] = dh0_pre.sum(axis=0)
    return grads


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 9), st.integers(0, 10_000))
def test_batched_backward_matches_per_step_oracle(b, t, seed):
    rng = np.random.default_rng(seed)
    vocab = build_vocab([[f"w{i}" for i in range(6)]], min_count=1)
    params = init_params(vocab, ModelDims(hidden_dim=5, feature_dim=3, max_len=max(t, 2)),
                         seed=seed, scale=0.5)
    lengths = rng.integers(1, t + 1, size=b)
    fwd = forward_sequences(params, rng.normal(size=(b, 3)),
                            rng.integers(0, len(vocab), size=(b, t)), lengths)
    dh = rng.normal(size=(b, t, 5)) * fwd.mask[:, :, None]
    got = _backward_recurrence(params, fwd, dh)
    expected = per_step_backward(params, fwd, dh)
    assert set(got) == set(expected)
    for name in expected:
        np.testing.assert_allclose(got[name], expected[name], rtol=0.0, atol=1e-12,
                                   err_msg=name)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 5), st.lists(st.integers(0, 7), max_size=40),
       st.integers(0, 10_000))
@example(4, 3, [2, 2, 2, 0, 2], 0)  # a repeated id, and ids 1 and 3 unused
@example(3, 2, [], 1)                # no rows at all
def test_scatter_add_is_bit_identical_to_add_at(n, d, ids, seed):
    ids = np.array([i % n for i in ids], dtype=np.int64)
    rng = np.random.default_rng(seed)
    # magnitudes from 1e-8 to 1e8, so any change of summation order shows
    rows = rng.normal(size=(len(ids), d)) * 10.0 ** rng.integers(-8, 9, size=(len(ids), d))
    expected = np.zeros((n, d))
    np.add.at(expected, ids, rows)
    got = _scatter_add(ids, rows, n)
    assert got.shape == (n, d) and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
