"""Feature-conditioned sequence scorer with hand-derived gradients.

The scorer projects the image feature vector to the initial hidden state of a
single gated recurrent cell, runs the cell over the embedded token prefix,
and maps the final hidden state through a linear classifier:

    logits = W^T h + b

Parameters are grouped so that training can be restricted to the classifier
{W, b} while the embedding and encoder stay bit-identical.  No autodiff is
used anywhere; the backward pass below is checked against central finite
differences by the test suite.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .corpus import Vocabulary, atomic_write

CHECKPOINT_VERSION = 1

ENCODER_ARRAYS = ("img_w", "img_b", "wz", "uz", "bz", "wr", "ur", "br", "wn", "un", "bn")
CLASSIFIER_ARRAYS = ("cls_w", "cls_b")
ALL_ARRAYS = ("embed",) + ENCODER_ARRAYS + CLASSIFIER_ARRAYS


class TrainScope(Enum):
    ALL = "all"
    CLASSIFIER_ONLY = "classifier_only"


def scoped_arrays(scope: TrainScope) -> tuple[str, ...]:
    return CLASSIFIER_ARRAYS if scope is TrainScope.CLASSIFIER_ONLY else ALL_ARRAYS


@dataclass
class ModelDims:
    hidden_dim: int = 64
    feature_dim: int = 32
    max_len: int = 16  # caption tokens including <eos>


@dataclass(eq=False)
class ModelParams:
    vocab: Vocabulary
    dims: ModelDims
    embed: np.ndarray   # (V, d)
    img_w: np.ndarray   # (f, d)
    img_b: np.ndarray   # (d,)
    wz: np.ndarray      # (d, d) input->update gate
    uz: np.ndarray      # (d, d) hidden->update gate
    bz: np.ndarray      # (d,)
    wr: np.ndarray
    ur: np.ndarray
    br: np.ndarray
    wn: np.ndarray
    un: np.ndarray
    bn: np.ndarray
    cls_w: np.ndarray   # (d, V) one column per word
    cls_b: np.ndarray   # (V,)

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in ALL_ARRAYS}

    def copy(self) -> "ModelParams":
        return ModelParams(
            vocab=self.vocab,
            dims=ModelDims(**asdict(self.dims)),
            **{name: arr.copy() for name, arr in self.arrays().items()},
        )

    def hash_arrays(self, names) -> str:
        digest = hashlib.sha256()
        for name in names:
            digest.update(np.ascontiguousarray(getattr(self, name)).tobytes())
        return digest.hexdigest()

    def encoder_hash(self) -> str:
        """Hash of embedding + encoder bytes (everything but the classifier)."""
        return self.hash_arrays(("embed",) + ENCODER_ARRAYS)

    def classifier_hash(self) -> str:
        return self.hash_arrays(CLASSIFIER_ARRAYS)

    def full_hash(self) -> str:
        return self.hash_arrays(ALL_ARRAYS)

    def check_finite(self) -> None:
        for name, arr in self.arrays().items():
            if not np.all(np.isfinite(arr)):
                raise FloatingPointError(f"non-finite values in {name}")


def array_shapes(dims: ModelDims, n_vocab: int) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter array, in ``ALL_ARRAYS`` order."""
    d, f, v = dims.hidden_dim, dims.feature_dim, n_vocab
    return {
        "embed": (v, d),
        "img_w": (f, d), "img_b": (d,),
        "wz": (d, d), "uz": (d, d), "bz": (d,),
        "wr": (d, d), "ur": (d, d), "br": (d,),
        "wn": (d, d), "un": (d, d), "bn": (d,),
        "cls_w": (d, v), "cls_b": (v,),
    }


def init_params(vocab: Vocabulary, dims: ModelDims, seed: int, scale: float = 0.1) -> ModelParams:
    """Small random initialization, deterministic in the seed.

    Matrices are drawn in ``ALL_ARRAYS`` order; bias vectors start at zero.
    """
    if dims.hidden_dim < 1 or dims.feature_dim < 1:
        raise ValueError("hidden_dim and feature_dim must be >= 1")
    rng = np.random.default_rng(seed)
    arrays = {name: rng.normal(0.0, scale, size=shape) if len(shape) == 2 else np.zeros(shape)
              for name, shape in array_shapes(dims, len(vocab)).items()}
    return ModelParams(vocab=vocab, dims=dims, **arrays)


def zero_grads(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.arrays().items()}


def apply_sgd(params: ModelParams, grads: dict[str, np.ndarray], lr: float, scope: TrainScope) -> None:
    """Plain SGD step restricted to the scope; out-of-scope arrays untouched."""
    for name in scoped_arrays(scope):
        getattr(params, name).__isub__(lr * grads[name])


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function through tanh, which saturates instead of overflowing."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


@dataclass(eq=False)
class SeqForward:
    """Cached activations of one batched forward pass.

    ``tokens[:, t]`` is the input consumed at step t (column 0 is <bos>);
    ``h[:, t]`` is the hidden state after consuming it, i.e. the state that
    scores the token at position t of the target sequence.  Positions at or
    beyond ``lengths[b]`` are padding; their activations are never read.
    """

    tokens: np.ndarray   # (B, T) int64
    lengths: np.ndarray  # (B,)
    mask: np.ndarray     # (B, T) float64
    feats: np.ndarray    # (B, f)
    x: np.ndarray        # (B, T, d)
    h0: np.ndarray       # (B, d)
    z: np.ndarray        # (B, T, d)
    r: np.ndarray        # (B, T, d)
    n: np.ndarray        # (B, T, d)
    h: np.ndarray        # (B, T, d)


def forward_sequences(params: ModelParams, feats: np.ndarray, tokens: np.ndarray,
                      lengths: np.ndarray) -> SeqForward:
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    tokens = np.atleast_2d(np.asarray(tokens, dtype=np.int64))
    lengths = np.asarray(lengths, dtype=np.int64)
    b, t_max = tokens.shape
    d = params.dims.hidden_dim
    if tokens.min(initial=0) < 0 or tokens.max(initial=0) >= len(params.vocab):
        raise ValueError("token id out of range")

    h0 = np.tanh(feats @ params.img_w + params.img_b)
    x = params.embed[tokens]
    z = np.empty((b, t_max, d))
    r = np.empty((b, t_max, d))
    n = np.empty((b, t_max, d))
    h = np.empty((b, t_max, d))
    h_prev = h0
    for t in range(t_max):
        xt = x[:, t]
        z[:, t] = _sigmoid(xt @ params.wz + h_prev @ params.uz + params.bz)
        r[:, t] = _sigmoid(xt @ params.wr + h_prev @ params.ur + params.br)
        n[:, t] = np.tanh(xt @ params.wn + (r[:, t] * h_prev) @ params.un + params.bn)
        h[:, t] = (1.0 - z[:, t]) * n[:, t] + z[:, t] * h_prev
        h_prev = h[:, t]
    mask = (np.arange(t_max)[None, :] < lengths[:, None]).astype(np.float64)
    return SeqForward(tokens=tokens, lengths=lengths, mask=mask, feats=feats,
                      x=x, h0=h0, z=z, r=r, n=n, h=h)


def logits_from_hidden(params: ModelParams, hidden: np.ndarray) -> np.ndarray:
    return hidden @ params.cls_w + params.cls_b


def recurrent_step(params: ModelParams, h_prev: np.ndarray, token_ids: np.ndarray) -> np.ndarray:
    """One cell step for a batch of hidden states (used by decoders)."""
    xt = params.embed[np.asarray(token_ids, dtype=np.int64)]
    z = _sigmoid(xt @ params.wz + h_prev @ params.uz + params.bz)
    r = _sigmoid(xt @ params.wr + h_prev @ params.ur + params.br)
    n = np.tanh(xt @ params.wn + (r * h_prev) @ params.un + params.bn)
    return (1.0 - z) * n + z * h_prev


def initial_hidden(params: ModelParams, feats: np.ndarray) -> np.ndarray:
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    return np.tanh(feats @ params.img_w + params.img_b)


def backward_sequences(params: ModelParams, fwd: SeqForward, d_logits: np.ndarray,
                       scope: TrainScope) -> dict[str, np.ndarray]:
    """Backpropagate per-step logit gradients through the scorer.

    ``d_logits`` must already be zero at padded positions.  In classifier
    scope the recurrence is skipped entirely and only {W, b} receive
    gradients; every other entry of the result is exactly zero.
    """
    grads = zero_grads(params)
    b, t_max, d = fwd.h.shape
    d_flat = d_logits.reshape(b * t_max, -1)
    grads["cls_w"] = fwd.h.reshape(b * t_max, d).T @ d_flat
    grads["cls_b"] = d_logits.sum(axis=(0, 1))
    if scope is TrainScope.CLASSIFIER_ONLY:
        return grads
    _backward_recurrence(params, fwd, (d_flat @ params.cls_w.T).reshape(b, t_max, d), grads)
    return grads


def _backward_recurrence(params: ModelParams, fwd: SeqForward, dh_from_logits: np.ndarray,
                         grads: dict[str, np.ndarray]) -> None:
    """Add the embedding and encoder gradients to ``grads``, given the
    gradient ``dh_from_logits`` (B, T, d) the classifier sends to each
    hidden state."""
    b, t_max, d = fwd.h.shape
    dh_next = np.zeros((b, d))
    for t in reversed(range(t_max)):
        dh = dh_from_logits[:, t] + dh_next
        zt, rt, nt = fwd.z[:, t], fwd.r[:, t], fwd.n[:, t]
        h_prev = fwd.h[:, t - 1] if t > 0 else fwd.h0
        xt = fwd.x[:, t]

        dz = dh * (h_prev - nt)
        dn = dh * (1.0 - zt)
        dh_prev = dh * zt

        dn_pre = dn * (1.0 - nt * nt)
        grads["wn"] += xt.T @ dn_pre
        grads["un"] += (rt * h_prev).T @ dn_pre
        grads["bn"] += dn_pre.sum(axis=0)
        d_rh = dn_pre @ params.un.T
        dr = d_rh * h_prev
        dh_prev += d_rh * rt

        dr_pre = dr * rt * (1.0 - rt)
        dz_pre = dz * zt * (1.0 - zt)
        grads["wr"] += xt.T @ dr_pre
        grads["ur"] += h_prev.T @ dr_pre
        grads["br"] += dr_pre.sum(axis=0)
        grads["wz"] += xt.T @ dz_pre
        grads["uz"] += h_prev.T @ dz_pre
        grads["bz"] += dz_pre.sum(axis=0)
        dh_prev += dz_pre @ params.uz.T + dr_pre @ params.ur.T

        dx = dz_pre @ params.wz.T + dr_pre @ params.wr.T + dn_pre @ params.wn.T
        np.add.at(grads["embed"], fwd.tokens[:, t], dx)
        dh_next = dh_prev

    dh0_pre = dh_next * (1.0 - fwd.h0 * fwd.h0)
    grads["img_w"] = fwd.feats.T @ dh0_pre
    grads["img_b"] = dh0_pre.sum(axis=0)


def score_step(params: ModelParams, features: np.ndarray, prefix: list[int] | np.ndarray) -> np.ndarray:
    """Logits over the vocabulary after consuming a <bos>-led prefix."""
    prefix = np.asarray(prefix, dtype=np.int64)
    if prefix.ndim != 1 or len(prefix) == 0:
        raise ValueError("prefix must be a non-empty id sequence")
    if prefix[0] != params.vocab.bos_id:
        raise ValueError("prefix must begin with <bos>")
    if len(prefix) > params.dims.max_len:
        raise ValueError(f"prefix longer than max_len={params.dims.max_len}")
    fwd = forward_sequences(params, features, prefix[None, :], np.array([len(prefix)]))
    return logits_from_hidden(params, fwd.h[0, len(prefix) - 1])


def _shifted_scaled(z: np.ndarray, beta: float) -> np.ndarray:
    """beta*z minus its maximum along the last axis, after checking inputs."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logits")
    a = beta * z
    return a - a.max(axis=-1, keepdims=True)


def softmax_temp(z: np.ndarray, beta: float) -> np.ndarray:
    """exp(beta*z) / sum exp(beta*z), computed with max subtraction.

    beta = 0 gives the uniform distribution.
    """
    e = np.exp(_shifted_scaled(z, beta))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax_temp(z: np.ndarray, beta: float) -> np.ndarray:
    a = _shifted_scaled(z, beta)
    return a - np.log(np.exp(a).sum(axis=-1, keepdims=True))


def tau_normalize(params: ModelParams, tau: float, normalize_bias: bool = True) -> ModelParams:
    """Rescale each classifier column by its norm to the power tau.

    Returns a modified copy; every non-classifier parameter is untouched.
    With ``normalize_bias`` the bias vector is rescaled by its own norm the
    same way.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    out = params.copy()
    if tau == 0:
        return out  # x / ||x||^0 == x
    col_norms = np.linalg.norm(params.cls_w, axis=0)
    if np.any(col_norms == 0.0):
        raise ValueError("zero-norm classifier column cannot be tau-normalized")
    out.cls_w = params.cls_w / col_norms**tau
    if normalize_bias:
        b_norm = np.linalg.norm(params.cls_b)
        if b_norm == 0.0:
            raise ValueError("zero-norm classifier bias cannot be tau-normalized")
        out.cls_b = params.cls_b / b_norm**tau
    return out


# ---------------------------------------------------------------------------
# Checkpointing: a single .npz archive (little-endian float64 .npy members)
# holding every parameter array plus a JSON metadata entry with the format
# version, model dims, and the vocabulary (tokens, counts, min_count) with
# its hash.  Round trips are bit-exact because float64 buffers are stored raw.
# ---------------------------------------------------------------------------

def save_checkpoint(params: ModelParams, path, config_hash: str = "", extra: dict | None = None) -> None:
    meta = {
        "version": CHECKPOINT_VERSION,
        "dims": asdict(params.dims),
        "vocab": {
            "tokens": params.vocab.tokens,
            "freq": params.vocab.freq,
            "min_count": params.vocab.min_count,
        },
        "vocab_hash": params.vocab.hash_hex(),
        "config_hash": config_hash,
        "extra": extra or {},
    }
    meta_bytes = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    arrays = {name: np.ascontiguousarray(arr, dtype=np.float64) for name, arr in params.arrays().items()}
    with atomic_write(path, binary=True) as fh:
        np.savez(fh, meta=meta_bytes, **arrays)


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
        vocab = Vocabulary(meta["vocab"]["tokens"], meta["vocab"]["freq"], meta["vocab"]["min_count"])
        if vocab.hash_hex() != meta["vocab_hash"]:
            raise ValueError("vocabulary hash mismatch in checkpoint")
        dims = ModelDims(**meta["dims"])
        arrays = {name: np.array(data[name], dtype=np.float64) for name in ALL_ARRAYS}
    for name, shape in array_shapes(dims, len(vocab)).items():
        if arrays[name].shape != shape:
            raise ValueError(f"checkpoint array {name} has shape {arrays[name].shape},"
                             f" expected {shape}")
    params = ModelParams(vocab=vocab, dims=dims, **arrays)
    params.check_finite()
    return params, meta


def config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()


def stage_rng(seed: int, stage: str) -> np.random.Generator:
    """One seeded generator per pipeline stage, derived from the master seed."""
    digest = hashlib.sha256(f"{seed}:{stage}".encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))
