"""Feature-conditioned sequence scorer with hand-derived gradients.

The scorer projects the image feature vector to the initial hidden state of a
single gated recurrent cell, runs the cell over the embedded token prefix,
and maps the final hidden state through a linear classifier:

    logits = W^T h + b

Every forward computation, teacher-forced passes, decoder steps and policy
rollouts alike, runs the one cell ``gru_cell``, which consumes the input
projections ``x @ w`` of ``input_projections``, so they agree bit for bit.
A decoder step or a rollout step projects its own (rows, d) inputs; a
teacher-forced pass projects every position before its time loop, as one
(T, B, d) stack that numpy multiplies slice by slice, so each step's rows
get the bits of a (B, d) product of their own.  The hoisting therefore does
not rest on row-count invariance, which fails for one row: numpy sends a
one-row product through a matrix-vector kernel that can round differently
from the matrix-matrix one.  From two rows up it holds only for some
hidden sizes: with OpenBLAS on x86-64, each row of the cell's
(rows, d) @ (d, d) products got the same bits whatever the row count at
every d up to 16 and at every multiple of 8 up to 128 (the default 64
included), but not at d = 33 or 50, where a row's last bits moved with the
row count.  The fine-tune's prefix table (``finetune.encode_pairs``)
computes its states with other row counts than a teacher-forced pass, so at
such sizes they are bit-close (within about 1e-15), not bit-identical.
Parameters are grouped so that training can be restricted to the classifier
{W, b} while the embedding and encoder stay bit-identical.  No autodiff is
used anywhere; the backward pass below is checked against central finite
differences by the test suite.  Its time loop carries only the hidden-state
gradient; each weight gradient is one contraction over every position of
the batch.  The classifier's (rows, d) @ (d, V) products, unlike the cell's,
can round a row differently with the number of rows, so a cache of
classifier outputs across batch shapes can be only bit-close, not
bit-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .corpus import Vocabulary, atomic_write, check_count

CHECKPOINT_VERSION = 1

ENCODER_ARRAYS = ("img_w", "img_b", "wz", "uz", "bz", "wr", "ur", "br", "wn", "un", "bn")
CLASSIFIER_ARRAYS = ("cls_w", "cls_b")
ALL_ARRAYS = ("embed",) + ENCODER_ARRAYS + CLASSIFIER_ARRAYS


class TrainScope(Enum):
    ALL = "all"
    CLASSIFIER_ONLY = "classifier_only"


@dataclass
class ModelDims:
    hidden_dim: int = 64
    feature_dim: int = 32
    max_len: int = 16  # caption tokens including <eos>

    def validate(self) -> None:
        """Raise ValueError unless every dim is an integer: ``hidden_dim`` and
        ``feature_dim`` >= 1, ``max_len`` >= 2 (a word and <eos>)."""
        for name, least in (("hidden_dim", 1), ("feature_dim", 1), ("max_len", 2)):
            check_count(name, getattr(self, name), least)


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


def check_matches(params: ModelParams, vocab: Vocabulary, dims: ModelDims) -> None:
    """Raise ValueError, naming the first field that differs, unless
    ``params`` was built on ``vocab`` (by hash) and has the dimensions
    ``dims``."""
    if params.vocab.hash_hex() != vocab.hash_hex():
        raise ValueError("vocabulary hash mismatch")
    for key, want in asdict(dims).items():
        have = getattr(params.dims, key)
        if have != want:
            raise ValueError(f"{key} is {have}, expected {want}")


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
    dims.validate()
    rng = np.random.default_rng(seed)
    arrays = {name: rng.normal(0.0, scale, size=shape) if len(shape) == 2 else np.zeros(shape)
              for name, shape in array_shapes(dims, len(vocab)).items()}
    return ModelParams(vocab=vocab, dims=dims, **arrays)


def apply_sgd(params: ModelParams, grads: dict[str, np.ndarray], lr: float) -> None:
    """Plain SGD step on exactly the arrays named in ``grads``; every other
    array is untouched."""
    for name, grad in grads.items():
        getattr(params, name).__isub__(lr * grad)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function through tanh, which saturates instead of overflowing,
    computed in place: ``x`` is overwritten with the result and returned."""
    x *= 0.5
    np.tanh(x, out=x)
    x += 1.0
    x *= 0.5
    return x


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
    h0: np.ndarray       # (B, d)
    z: np.ndarray        # (B, T, d)
    r: np.ndarray        # (B, T, d)
    n: np.ndarray        # (B, T, d)
    h: np.ndarray        # (B, T, d)


def input_projections(params: ModelParams, x: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cell's input products ``(x @ wz, x @ wr, x @ wn)``, one product per
    gate over every row of ``x``.

    ``x`` is (rows, d) embedded inputs, or a (T, rows, d) stack of them; numpy
    multiplies a stack slice by slice, so each slice gets the bits a product
    of its own rows would, a one-row slice included."""
    return x @ params.wz, x @ params.wr, x @ params.wn


def gru_cell(params: ModelParams, xz: np.ndarray, xr: np.ndarray, xn: np.ndarray,
             h_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One cell step on the input projections ``xz, xr, xn`` of
    ``input_projections``: the update gate z, the reset gate r, the
    candidate n and the new hidden state h.  Each gate sums in the order
    ``(x @ w + h @ u) + b`` within the product it owns; no input is
    written to."""
    z = h_prev @ params.uz
    z += xz
    z += params.bz
    _sigmoid(z)
    r = h_prev @ params.ur
    r += xr
    r += params.br
    _sigmoid(r)
    n = (r * h_prev) @ params.un
    n += xn
    n += params.bn
    np.tanh(n, out=n)
    h = 1.0 - z
    h *= n
    h += z * h_prev
    return z, r, n, h


def forward_sequences(params: ModelParams, feats: np.ndarray, tokens: np.ndarray,
                      lengths: np.ndarray) -> SeqForward:
    """The teacher-forced pass over ``tokens`` (B, T) from the image rows
    ``feats``.  Every position's input projections are taken before the time
    loop; the loop runs on time-major rows, and the activations come back
    batch-major."""
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    tokens = np.atleast_2d(np.asarray(tokens, dtype=np.int64))
    lengths = np.asarray(lengths, dtype=np.int64)
    b, t_max = tokens.shape
    d = params.dims.hidden_dim
    if tokens.min(initial=0) < 0 or tokens.max(initial=0) >= len(params.vocab):
        raise ValueError("token id out of range")

    h0 = initial_hidden(params, feats)
    xz, xr, xn = input_projections(params, params.embed[tokens.T])
    z, r, n, h = (np.empty((t_max, b, d)) for _ in range(4))
    h_prev = h0
    for t in range(t_max):
        z[t], r[t], n[t], h[t] = gru_cell(params, xz[t], xr[t], xn[t], h_prev)
        h_prev = h[t]
    z, r, n, h = (a.transpose(1, 0, 2).copy() for a in (z, r, n, h))
    mask = (np.arange(t_max)[None, :] < lengths[:, None]).astype(np.float64)
    return SeqForward(tokens=tokens, lengths=lengths, mask=mask, feats=feats,
                      h0=h0, z=z, r=r, n=n, h=h)


def logits_from_hidden(params: ModelParams, hidden: np.ndarray) -> np.ndarray:
    logits = hidden @ params.cls_w
    logits += params.cls_b
    return logits


def recurrent_step(params: ModelParams, h_prev: np.ndarray, token_ids: np.ndarray) -> np.ndarray:
    """One cell step for a batch of hidden states (used by the decoders and
    by ``finetune.encode_pairs``)."""
    ids = np.asarray(token_ids, dtype=np.int64)
    return gru_cell(params, *input_projections(params, params.embed[ids]), h_prev)[3]


def initial_hidden(params: ModelParams, feats: np.ndarray) -> np.ndarray:
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    return np.tanh(feats @ params.img_w + params.img_b)


def backward_sequences(params: ModelParams, fwd: SeqForward, d_logits: np.ndarray,
                       scope: TrainScope) -> dict[str, np.ndarray]:
    """Backpropagate per-step logit gradients through the scorer.

    ``d_logits`` must already be zero at padded positions.  The result
    holds a gradient for every array the scope trains and for no other: in
    classifier scope only {W, b}, and the recurrence is skipped entirely.
    """
    grads = classifier_grads(fwd.h, d_logits)
    if scope is TrainScope.CLASSIFIER_ONLY:
        return grads
    b, t_max, d = fwd.h.shape
    dh = (d_logits.reshape(b * t_max, -1) @ params.cls_w.T).reshape(b, t_max, d)
    return _backward_recurrence(params, fwd, dh) | grads


def classifier_grads(h: np.ndarray, d_logits: np.ndarray) -> dict[str, np.ndarray]:
    """The {W, b} gradients from hidden states ``h`` (B, T, d) and the logit
    gradients ``d_logits`` (B, T, V) read from them, zero at padding."""
    b, t_max, d = h.shape
    return {"cls_w": h.reshape(b * t_max, d).T @ d_logits.reshape(b * t_max, -1),
            "cls_b": d_logits.sum(axis=(0, 1))}


def _scatter_add(ids: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, d) sums of the ``rows`` (N, d) by their ``ids`` (N,).  One weighted
    ``np.bincount`` adds each bin's terms in input order from 0.0, as
    ``np.add.at`` does, so the sums are bit-identical to it."""
    d = rows.shape[1]
    bins = (ids[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(bins, weights=rows.ravel(), minlength=n * d)
    return sums.reshape(n, d).astype(rows.dtype, copy=False)  # no rows: bincount gives ints


def _backward_recurrence(params: ModelParams, fwd: SeqForward,
                         dh_from_logits: np.ndarray) -> dict[str, np.ndarray]:
    """The embedding and encoder gradients, given the gradient
    ``dh_from_logits`` (B, T, d) the classifier sends to each hidden state.

    The time loop carries only the hidden-state gradient and records each
    position's pre-activation gate gradients; every weight gradient is then
    one contraction over all B*T positions, the input weights' against the
    embedded inputs it gathers from ``fwd.tokens``.  Each step copies its
    z, r, n and previous-state rows out of the batch-major arrays once and
    works on those copies in place, in the association order of

        dn = dh * (1 - z) * (1 - n*n)
        dr = (dn @ un.T) * h_prev * r * (1 - r)
        dz = dh * (h_prev - n) * z * (1 - z)
        dh_next = dh * z + (dn @ un.T) * r + (dz @ uz.T + dr @ ur.T)"""
    b, t_max, d = fwd.h.shape
    h_prev = np.concatenate((fwd.h0[:, None], fwd.h[:, :-1]), axis=1)
    dz_pre = np.empty((b, t_max, d))
    dr_pre = np.empty((b, t_max, d))
    dn_pre = np.empty((b, t_max, d))
    un_t, uz_t, ur_t = params.un.T, params.uz.T, params.ur.T
    dh_next = np.zeros((b, d))
    for t in reversed(range(t_max)):
        zt, rt, nt, ht = (a[:, t].copy() for a in (fwd.z, fwd.r, fwd.n, h_prev))
        dh = dh_from_logits[:, t] + dh_next
        dz = ht - nt
        dz *= dh
        dz *= zt
        dn = 1.0 - zt
        dz *= dn
        dn *= dh
        nt *= nt
        np.subtract(1.0, nt, out=nt)
        dn *= nt
        d_rh = dn @ un_t
        dr = d_rh * ht
        dr *= rt
        np.multiply(d_rh, rt, out=ht)  # ht is free once dr has read it
        np.subtract(1.0, rt, out=rt)
        dr *= rt
        dh *= zt
        dh += ht
        dh_gates = dz @ uz_t
        dh_gates += dr @ ur_t
        dh += dh_gates
        dh_next = dh
        dz_pre[:, t], dr_pre[:, t], dn_pre[:, t] = dz, dr, dn

    def flat(a):
        return a.reshape(b * t_max, d)

    x = flat(params.embed[fwd.tokens])
    hp, dz_pre, dr_pre, dn_pre = map(flat, (h_prev, dz_pre, dr_pre, dn_pre))
    embed = _scatter_add(fwd.tokens.ravel(),
                         dz_pre @ params.wz.T + dr_pre @ params.wr.T + dn_pre @ params.wn.T,
                         len(params.embed))
    dh0_pre = dh_next * (1.0 - fwd.h0 * fwd.h0)
    return {
        "embed": embed,
        "img_w": fwd.feats.T @ dh0_pre, "img_b": dh0_pre.sum(axis=0),
        "wz": x.T @ dz_pre, "uz": hp.T @ dz_pre, "bz": dz_pre.sum(axis=0),
        "wr": x.T @ dr_pre, "ur": hp.T @ dr_pre, "br": dr_pre.sum(axis=0),
        "wn": x.T @ dn_pre, "un": (flat(fwd.r) * hp).T @ dn_pre, "bn": dn_pre.sum(axis=0),
    }


def _shifted_scaled(z: np.ndarray, beta: float) -> np.ndarray:
    """beta*z minus its maximum along the last axis, after checking inputs,
    in a new array.  At beta = 1 the product is skipped: for finite z,
    1.0 * z is z bit for bit, -0.0 included."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logits")
    if beta == 1.0:
        return z - z.max(axis=-1, keepdims=True)
    a = beta * z
    a -= a.max(axis=-1, keepdims=True)
    return a


def log_softmax_temp(z: np.ndarray, beta: float) -> np.ndarray:
    """log(exp(beta*z) / sum exp(beta*z)) along the last axis, computed with
    max subtraction; beta = 0 gives the uniform distribution."""
    a = _shifted_scaled(z, beta)
    a -= np.log(np.exp(a).sum(axis=-1, keepdims=True))
    return a


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
    """The parameters and metadata ``save_checkpoint`` wrote to ``path``;
    ValueError if the file is not such a checkpoint."""
    with np.load(path) as data:
        missing = [name for name in ("meta", *ALL_ARRAYS) if name not in data]
        if missing:
            raise ValueError(f"checkpoint has no {', '.join(missing)} member")
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        arrays = {name: np.array(data[name], dtype=np.float64) for name in ALL_ARRAYS}
    if not isinstance(meta, dict):
        raise ValueError("checkpoint metadata is not a JSON object")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
    try:
        vocab = Vocabulary(meta["vocab"]["tokens"], meta["vocab"]["freq"], meta["vocab"]["min_count"])
        vocab_hash, dims = meta["vocab_hash"], meta["dims"]
    except KeyError as exc:
        raise ValueError(f"checkpoint metadata has no field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"checkpoint vocabulary is malformed: {exc}") from None
    if vocab.hash_hex() != vocab_hash:
        raise ValueError("vocabulary hash mismatch in checkpoint")
    try:
        dims = ModelDims(**dims)
        dims.validate()
    except TypeError as exc:
        raise ValueError(f"checkpoint dims are not a model's: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"checkpoint {exc}") from None
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
