"""Teacher-forced training objectives with analytic gradients, plus the
synthetic loss-surface tabulation.  The reward objective lives in ``rl``.

Every loss is an average over predicted positions (the <eos> prediction
included) and then over batch items.  Probabilities are floored at
``PROB_EPS`` before any log; a floored position contributes a constant to
the loss and therefore no gradient.  Each objective's *head* maps the
trainable model's log-probs to per-item losses and logit gradients; the
``*_batch`` functions wrap it in one teacher-forced pass and a backward pass
through the whole model.  A temperature enters training only as the frozen
reference's β′.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .corpus import Vocabulary, check_number
from .model import (
    ENCODER_ARRAYS,
    ModelParams,
    TrainScope,
    backward_sequences,
    check_matches,
    forward_sequences,
    log_softmax_temp,
    logits_from_hidden,
)

PROB_EPS = 1e-12
LOG_EPS = math.log(PROB_EPS)


@dataclass
class LossOutput:
    loss: float
    grads: dict[str, np.ndarray]
    details: dict = field(default_factory=dict)


class FrozenReference:
    """An immutable copy of a model plus its inverse temperature.

    The arrays are deep-copied and marked read-only at construction; the
    reference stays bit-identical for as long as it lives.
    """

    def __init__(self, params: ModelParams, beta_prime: float):
        check_number("beta_prime", beta_prime)
        self.params = params.copy()
        for arr in self.params.arrays().values():
            arr.flags.writeable = False
        self.beta_prime = float(beta_prime)

    def hash_hex(self) -> str:
        return self.params.full_hash()


def _bytes(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr).view(np.uint8)


def check_shared_encoder(params: ModelParams, frozen: FrozenReference) -> None:
    """Accept a frozen reference only if it matches the model's vocabulary
    and dims and its embedding and encoder bytes are the model's, as after a
    classifier-only fine-tune, so that one recurrence computes the states of
    both.  Bytes, not values: -0.0 and 0.0 differ."""
    check_matches(frozen.params, params.vocab, params.dims)
    if not all(np.array_equal(_bytes(getattr(params, name)), _bytes(getattr(frozen.params, name)))
               for name in ("embed",) + ENCODER_ARRAYS):
        raise ValueError("the frozen reference has another embedding or encoder than the model;"
                         " bias-product decoding needs one that shares the model's")


def frame_targets(vocab: Vocabulary, target_ids: Sequence[Sequence[int]],
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The teacher-forcing frame of non-empty target id sequences.

    Row i feeds <bos> + t[:-1] and predicts t; both are padded with <eos> to
    the longest target.  Returns the inputs, the targets and the lengths.
    The ids of every target are scattered into their rows' real positions
    at once, through one boolean mask, and the inputs are the targets
    shifted one position right behind <bos>.  An empty target raises.
    """
    lengths = np.fromiter(map(len, target_ids), dtype=np.int64, count=len(target_ids))
    if not len(lengths) or lengths.min() < 1:
        raise ValueError("frame_targets needs at least one target and no empty one")
    real = np.arange(lengths.max()) < lengths[:, None]
    targets = np.full(real.shape, vocab.eos_id, dtype=np.int64)
    targets[real] = np.fromiter(chain.from_iterable(target_ids), dtype=np.int64,
                                count=int(lengths.sum()))
    inputs = np.full_like(targets, vocab.eos_id)
    inputs[:, 0] = vocab.bos_id
    inputs[:, 1:] = np.where(real[:, 1:], targets[:, :-1], vocab.eos_id)
    return inputs, targets, lengths


def caption_targets(params: ModelParams, captions: Sequence[Sequence[str]]) -> list[list[int]]:
    """Each caption's ids plus <eos>, the caption truncated to max_len - 1
    tokens so that its <eos> target still fits.  An empty caption raises."""
    vocab, max_len = params.vocab, params.dims.max_len
    targets = []
    for cap in captions:
        words = list(cap)[: max_len - 1]
        if not words:
            raise ValueError("empty caption")
        targets.append(vocab.encode(words) + [vocab.eos_id])
    return targets


def teacher_forced(params, feats, captions: Sequence[Sequence[str]]):
    """Teacher-forced pass over the ``frame_targets`` frame of the
    ``caption_targets`` of ``captions``.

    Returns the pass, the log-softmax of every position's logits and the
    padded targets.
    """
    inputs, targets, lengths = frame_targets(params.vocab, caption_targets(params, captions))
    fwd = forward_sequences(params, feats, inputs, lengths)
    return fwd, log_softmax_temp(logits_from_hidden(params, fwd.h), 1.0), targets


def gold_index(targets: np.ndarray, n_vocab: int) -> np.ndarray:
    """The flat position of each target's entry in a C-ordered
    ``targets.shape + (n_vocab,)`` array: ``arange(B·T)·V + targets``.  A
    loss head builds it once and reads and writes its gold entries through
    it."""
    return np.arange(targets.size) * n_vocab + targets.reshape(-1)


def logit_grad(p: np.ndarray, gold: np.ndarray, coef) -> np.ndarray:
    """coef * (p - onehot) along the last axis of ``p``, the one-hot at the
    ``gold_index`` entries ``gold``.

    This is the gradient of coef * (-log p_gold) with respect to the logits
    of a softmax ``p``; ``coef`` broadcasts against ``p.shape[:-1]``.  At
    the scalar coef 1 the multiply is skipped and the one-hot is subtracted
    in place: a C-contiguous ``p`` is the caller's to hand over, becomes the
    result and must not be read afterwards (any other ``p`` is copied
    first).  Any other coef multiplies into a new C-contiguous array and
    leaves ``p`` as it is, so ``p`` may be a view, such as a rollout's
    ``probs[:, :steps]``, or read-only.
    """
    if np.ndim(coef) == 0 and coef == 1:
        d_logits = np.ascontiguousarray(p)
        d_logits.reshape(-1)[gold] -= 1.0
        return d_logits
    c = np.asarray(coef, dtype=np.float64)
    d_logits = np.ascontiguousarray(c[..., None] * p)
    d_logits.reshape(-1)[gold] -= np.broadcast_to(c, p.shape[:-1]).reshape(-1)
    return d_logits


def _gold_stats(logp, gold, mask):
    """Per-position floored gold log-prob and an active-gradient mask, the
    gold log-probs read through the ``gold_index`` ``gold``."""
    lp_gold = logp.reshape(-1)[gold].reshape(mask.shape)
    active = (lp_gold > LOG_EPS) & (mask > 0)
    lp_eff = np.maximum(lp_gold, LOG_EPS)
    return lp_eff, active


# Per-position terms of the pointwise losses: ``terms(p, lp)`` returns the
# loss and its derivative with respect to the gold probability p = exp(lp).

def ce_terms(p, lp):
    return -lp, -1.0 / p


def focal_terms(gamma):
    """CE reweighted by (1 - p)^gamma."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")

    def terms(p, lp):
        omp = np.maximum(1.0 - p, 0.0)
        loss = -(omp**gamma) * lp
        omp_safe = np.where(omp > 0, omp, 1.0)
        grad_term = np.where(omp > 0, gamma * omp_safe ** (gamma - 1.0) * lp, 0.0)
        return loss, grad_term - (omp**gamma) / p

    return terms


def anti_focal_terms(gamma, alpha):
    """CE reweighted by (1 + alpha * p)^gamma."""
    if gamma < 0 or alpha < 0:
        raise ValueError("gamma and alpha must be >= 0")

    def terms(p, lp):
        w = (1.0 + alpha * p) ** gamma
        loss = -w * lp
        return loss, -(gamma * alpha * (1.0 + alpha * p) ** (gamma - 1.0) * lp + w / p)

    return terms


def pointwise_head(logp, targets, mask, lengths, terms):
    """Per-item loss and logit gradient of sum_t f(p_gold_t), from the
    log-probs ``logp`` and one of the term functions above."""
    gold = gold_index(targets, logp.shape[-1])
    lp_eff, active = _gold_stats(logp, gold, mask)
    p_eff = np.exp(lp_eff)

    loss_bt, dldp_bt = terms(p_eff, lp_eff)
    per_item = (loss_bt * mask).sum(axis=1) / lengths

    b = len(lengths)
    scale = np.where(active, 1.0, 0.0) / (b * lengths[:, None])
    coef = scale * dldp_bt * p_eff  # (B, T)
    return per_item, logit_grad(np.exp(logp), gold, -coef)


def ce_batch(params, feats, captions) -> LossOutput:
    """Mean negative log-likelihood of each caption (with <eos>) given its
    feature row."""
    fwd, logp, targets = teacher_forced(params, feats, captions)
    per_item, d_logits = pointwise_head(logp, targets, fwd.mask, fwd.lengths, ce_terms)
    grads = backward_sequences(params, fwd, d_logits, TrainScope.ALL)
    return LossOutput(loss=float(per_item.mean()), grads=grads, details={"per_item": per_item})


def bp_log_probs(logp_main: np.ndarray, logp_ref: np.ndarray) -> np.ndarray:
    """Renormalized product of two probability vectors in log space.

    Both factors are floored at PROB_EPS before the logs are summed, so the
    result stays finite for any inputs.  Both arguments must have the same
    shape: the result is built in place on the floored ``logp_main``.
    """
    u = np.maximum(logp_main, LOG_EPS)
    u += np.maximum(logp_ref, LOG_EPS)
    u -= u.max(axis=-1, keepdims=True)
    u -= np.log(np.exp(u).sum(axis=-1, keepdims=True))
    return u


def bp_head(logp, logp_ref, targets, mask, lengths):
    """Per-item bias-product loss and its logit gradient, from the trainable
    model's and the frozen reference's log-probs at the same positions.
    ``logp`` and ``logp_ref`` must have the same shape; neither is changed.
    The gold entries are read and written through one ``gold_index``, and
    q - onehot is formed in place on the head's own exp(log q)."""
    logq = bp_log_probs(logp, logp_ref)
    gold = gold_index(targets, logq.shape[-1])
    lq_eff, active = _gold_stats(logq, gold, mask)
    per_item = (-lq_eff * mask).sum(axis=1) / lengths

    # d(-log q_gold)/dz = (q - e) * m - p * sum((q - e) * m),
    # where m masks components whose inner log-prob was floored.  The frozen
    # factor contributes no gradient.  Everything from ``exp(log q)`` on
    # works in place on arrays the head owns.
    b = len(lengths)
    p = np.exp(logp)
    gm = logit_grad(np.exp(logq, out=logq), gold, 1)
    gm *= logp > LOG_EPS
    scale = (np.where(active, 1.0, 0.0) / (b * lengths[:, None]))[..., None]
    p *= gm.sum(axis=-1, keepdims=True)
    gm -= p
    gm *= scale
    return per_item, gm


def bp_batch(params, frozen: FrozenReference, feats, captions) -> LossOutput:
    """Bias-product loss against a frozen reference with its own encoder."""
    check_matches(frozen.params, params.vocab, params.dims)
    fwd, logp, targets = teacher_forced(params, feats, captions)
    h_ref = forward_sequences(frozen.params, feats, fwd.tokens, fwd.lengths).h
    logp_ref = log_softmax_temp(logits_from_hidden(frozen.params, h_ref), frozen.beta_prime)
    per_item, d_logits = bp_head(logp, logp_ref, targets, fwd.mask, fwd.lengths)
    grads = backward_sequences(params, fwd, d_logits, TrainScope.ALL)
    return LossOutput(loss=float(per_item.mean()), grads=grads, details={"per_item": per_item})


def _temper(p: np.ndarray, beta: float) -> np.ndarray:
    if beta < 0:
        raise ValueError("beta must be >= 0")
    q = p**beta
    total = q.sum()
    if total == 0.0:
        # every p**beta underflowed: temper in log space, normalized by the max
        a = beta * np.log(p)
        q = np.exp(a - a.max())
        total = q.sum()
    return q / total


def loss_surface(p1_grid: Sequence[float], beta: float = 1.0, beta_prime: float = 1.0,
                 gamma: float = 1.0, alpha: float = 1.0) -> list[dict]:
    """Tabulate CE/BP/FL/AFL on the synthetic peaked-distribution family.

    At each grid point the gold word holds probability p1 and the next five
    words share the remainder equally; the reference distribution uses the
    same construction.  Temperatures reshape the constructed distributions
    as p^beta (renormalized).
    """
    focal, anti_focal = focal_terms(gamma), anti_focal_terms(gamma, alpha)
    rows = []
    for p1 in p1_grid:
        if not 0.0 < p1 < 1.0:
            raise ValueError("p1 grid values must lie strictly inside (0, 1)")
        base = np.array([p1] + [(1.0 - p1) / 5.0] * 5)
        p = _temper(base, beta)
        p_ref = _temper(base, beta_prime)
        lp = np.log(np.maximum(p, PROB_EPS))
        lp_ref = np.log(np.maximum(p_ref, PROB_EPS))
        q = np.exp(bp_log_probs(lp, lp_ref))
        gold_lp = math.log(max(p[0], PROB_EPS))
        # only the losses are tabulated; their gradients may divide by a gold p of 0
        with np.errstate(divide="ignore", over="ignore"):
            ce, fl, afl = (float(terms(p[0], gold_lp)[0])
                           for terms in (ce_terms, focal, anti_focal))
        bp = -math.log(max(q[0], PROB_EPS))
        rows.append({"p1": float(p1), "ce": ce, "bp": bp, "fl": fl, "afl": afl})
    return rows
