"""Training objectives with analytic gradients, plus the finite-difference
gradient oracle and the synthetic loss-surface tabulation.

Every loss is an average over predicted positions (the <eos> prediction
included) and then over batch items.  Probabilities are floored at
``PROB_EPS`` before any log; a floored position contributes a constant to
the loss and therefore no gradient.  Gradients outside the requested
training scope are exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .corpus import ImageRecord, Vocabulary
from .model import (
    ModelParams,
    TrainScope,
    backward_sequences,
    forward_sequences,
    log_softmax_temp,
    logits_from_hidden,
    scoped_arrays,
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
        if beta_prime < 0:
            raise ValueError("beta_prime must be >= 0")
        self.params = params.copy()
        for arr in self.params.arrays().values():
            arr.flags.writeable = False
        self.beta_prime = float(beta_prime)

    def hash_hex(self) -> str:
        return self.params.full_hash()


def check_compatible(params: ModelParams, frozen: FrozenReference) -> None:
    if len(params.vocab) != len(frozen.params.vocab):
        raise ValueError("vocabulary size mismatch between model and frozen reference")
    if params.vocab.hash_hex() != frozen.params.vocab.hash_hex():
        raise ValueError("vocabulary mismatch between model and frozen reference")
    if params.dims != frozen.params.dims:
        raise ValueError("dimension mismatch between model and frozen reference")


def encode_caption(vocab: Vocabulary, caption: Sequence[str]) -> tuple[list[int], list[int]]:
    """(inputs, targets) id sequences: <bos>+caption scores caption+<eos>."""
    if len(caption) == 0:
        raise ValueError("empty caption")
    ids = vocab.encode(caption)
    return [vocab.bos_id] + ids, ids + [vocab.eos_id]


def frame_targets(target_ids: Sequence[Sequence[int]], bos_id: int, eos_id: int):
    """Teacher-forcing arrays for non-empty target id sequences.

    Row i feeds <bos> + t[:-1] and predicts t; both are padded with <eos> to
    the longest target.  Returns (inputs, targets, lengths).
    """
    b = len(target_ids)
    t_max = max(len(tgt) for tgt in target_ids)
    inputs = np.full((b, t_max), eos_id, dtype=np.int64)
    targets = np.full((b, t_max), eos_id, dtype=np.int64)
    lengths = np.empty(b, dtype=np.int64)
    for i, tgt in enumerate(target_ids):
        inputs[i, : len(tgt)] = [bos_id, *tgt[:-1]]
        targets[i, : len(tgt)] = tgt
        lengths[i] = len(tgt)
    return inputs, targets, lengths


def batch_arrays(vocab: Vocabulary, captions: Sequence[Sequence[str]], max_len: int):
    """Pad framed captions to a common length.

    Captions longer than max_len - 1 tokens are truncated so the <eos>
    target still fits.  Returns (inputs, targets, lengths).
    """
    targets = [encode_caption(vocab, list(cap)[: max_len - 1])[1] for cap in captions]
    return frame_targets(targets, vocab.bos_id, vocab.eos_id)


def logit_grad(p: np.ndarray, targets: np.ndarray, coef) -> np.ndarray:
    """coef * (p - onehot(targets)) along the last axis of ``p``.

    This is the gradient of coef * (-log p_target) with respect to the
    logits of a softmax ``p``; ``coef`` broadcasts against ``targets``.
    """
    c = np.asarray(coef, dtype=np.float64)[..., None]
    d_logits = c * p
    idx = targets[..., None]
    np.put_along_axis(d_logits, idx, np.take_along_axis(d_logits, idx, axis=-1) - c, axis=-1)
    return d_logits


def forward_log_probs(params, feats, inputs, lengths, beta):
    """Teacher-forced forward pass and the temperature-scaled log-softmax of
    every position's logits."""
    fwd = forward_sequences(params, feats, inputs, lengths)
    logits = logits_from_hidden(params, fwd.h)
    return fwd, log_softmax_temp(logits, beta)


def _gold_stats(logp, targets, mask):
    """Per-position floored gold log-prob and an active-gradient mask."""
    lp_gold = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    active = (lp_gold > LOG_EPS) & (mask > 0)
    lp_eff = np.maximum(lp_gold, LOG_EPS)
    return lp_eff, active


def _pointwise_batch(params, feats, captions, beta, scope, loss_and_dldp) -> LossOutput:
    """Shared core for losses of the form sum_t f(p_gold_t).

    ``loss_and_dldp(p, lp)`` returns the per-position loss and its
    derivative with respect to the gold probability.
    """
    inputs, targets, lengths = batch_arrays(params.vocab, captions, params.dims.max_len)
    fwd, logp = forward_log_probs(params, feats, inputs, lengths, beta)
    lp_eff, active = _gold_stats(logp, targets, fwd.mask)
    p_eff = np.exp(lp_eff)

    loss_bt, dldp_bt = loss_and_dldp(p_eff, lp_eff)
    per_item = (loss_bt * fwd.mask).sum(axis=1) / lengths
    loss = float(per_item.mean())

    b = len(lengths)
    scale = np.where(active, 1.0, 0.0) / (b * lengths[:, None])
    coef = scale * dldp_bt * beta * p_eff  # (B, T)
    d_logits = logit_grad(np.exp(logp), targets, -coef)
    grads = backward_sequences(params, fwd, d_logits, scope)
    return LossOutput(loss=loss, grads=grads, details={"per_item": per_item})


def ce_batch(params, feats, captions, beta=1.0, scope=TrainScope.ALL) -> LossOutput:
    def loss_and_dldp(p, lp):
        return -lp, -1.0 / p

    return _pointwise_batch(params, feats, captions, beta, scope, loss_and_dldp)


def focal_batch(params, feats, captions, beta=1.0, gamma=1.0, scope=TrainScope.ALL) -> LossOutput:
    if gamma < 0:
        raise ValueError("gamma must be >= 0")

    def loss_and_dldp(p, lp):
        omp = np.maximum(1.0 - p, 0.0)
        loss = -(omp**gamma) * lp
        omp_safe = np.where(omp > 0, omp, 1.0)
        grad_term = np.where(omp > 0, gamma * omp_safe ** (gamma - 1.0) * lp, 0.0)
        return loss, grad_term - (omp**gamma) / p

    return _pointwise_batch(params, feats, captions, beta, scope, loss_and_dldp)


def anti_focal_batch(params, feats, captions, beta=1.0, gamma=1.0, alpha=1.0,
                     scope=TrainScope.ALL) -> LossOutput:
    if gamma < 0 or alpha < 0:
        raise ValueError("gamma and alpha must be >= 0")

    def loss_and_dldp(p, lp):
        w = (1.0 + alpha * p) ** gamma
        loss = -w * lp
        return loss, -(gamma * alpha * (1.0 + alpha * p) ** (gamma - 1.0) * lp + w / p)

    return _pointwise_batch(params, feats, captions, beta, scope, loss_and_dldp)


def bp_log_probs(logp_main: np.ndarray, logp_ref: np.ndarray) -> np.ndarray:
    """Renormalized product of two probability vectors in log space.

    Both factors are floored at PROB_EPS before the logs are summed, so the
    result stays finite for any inputs.
    """
    u = np.maximum(logp_main, LOG_EPS) + np.maximum(logp_ref, LOG_EPS)
    u = u - u.max(axis=-1, keepdims=True)
    return u - np.log(np.exp(u).sum(axis=-1, keepdims=True))


def bp_batch(params, frozen: FrozenReference, feats, captions, beta=1.0,
             scope=TrainScope.ALL) -> LossOutput:
    check_compatible(params, frozen)
    inputs, targets, lengths = batch_arrays(params.vocab, captions, params.dims.max_len)
    fwd, logp = forward_log_probs(params, feats, inputs, lengths, beta)
    _, logp_ref = forward_log_probs(frozen.params, feats, inputs, lengths, frozen.beta_prime)

    logq = bp_log_probs(logp, logp_ref)
    lq_eff, active = _gold_stats(logq, targets, fwd.mask)
    per_item = (-lq_eff * fwd.mask).sum(axis=1) / lengths
    loss = float(per_item.mean())

    # d(-log q_gold)/dz = beta * ((q - e) * m - p * sum((q - e) * m)),
    # where m masks components whose inner log-prob was floored.  The frozen
    # factor contributes no gradient.
    b = len(lengths)
    p = np.exp(logp)
    g = logit_grad(np.exp(logq), targets, 1.0)
    inner_mask = (logp > LOG_EPS).astype(np.float64)
    gm = g * inner_mask
    scale = (np.where(active, 1.0, 0.0) / (b * lengths[:, None]))[..., None]
    d_logits = scale * beta * (gm - p * gm.sum(axis=-1, keepdims=True))
    grads = backward_sequences(params, fwd, d_logits, scope)
    return LossOutput(loss=loss, grads=grads, details={"per_item": per_item})


# ---------------------------------------------------------------------------
# Single-example operations
# ---------------------------------------------------------------------------

def ce_loss(params: ModelParams, image: ImageRecord, gt_caption: Sequence[str],
            beta: float = 1.0, scope: TrainScope = TrainScope.ALL) -> LossOutput:
    """Mean negative log-likelihood of the caption (with <eos>) given the image."""
    return ce_batch(params, image.features[None, :], [gt_caption], beta, scope)


def focal_loss(params, image, gt_caption, beta=1.0, gamma=1.0,
               scope=TrainScope.ALL) -> LossOutput:
    """CE reweighted per position by (1 - p_gold)^gamma."""
    return focal_batch(params, image.features[None, :], [gt_caption], beta, gamma, scope)


def anti_focal_loss(params, image, gt_caption, beta=1.0, gamma=1.0, alpha=1.0,
                    scope=TrainScope.ALL) -> LossOutput:
    """CE reweighted per position by (1 + alpha * p_gold)^gamma."""
    return anti_focal_batch(params, image.features[None, :], [gt_caption], beta, gamma, alpha, scope)


def bp_prob(params: ModelParams, frozen: FrozenReference, image: ImageRecord,
            prefix: Sequence[int], beta: float = 1.0) -> np.ndarray:
    """Next-token distribution of the bias product of the trainable model and
    the frozen reference, both conditioned on the same prefix."""
    from .model import score_step

    check_compatible(params, frozen)
    z_main = score_step(params, image.features, prefix)
    z_ref = score_step(frozen.params, image.features, prefix)
    logq = bp_log_probs(
        log_softmax_temp(z_main, beta), log_softmax_temp(z_ref, frozen.beta_prime)
    )
    return np.exp(logq)


def bp_loss(params, frozen: FrozenReference, image, gt_caption, beta=1.0,
            scope=TrainScope.ALL) -> LossOutput:
    """Mean negative log bias-product probability of the caption."""
    return bp_batch(params, frozen, image.features[None, :], [gt_caption], beta, scope)


def joint_loss(params: ModelParams, batch: Sequence[tuple[ImageRecord, Sequence[str]]],
               lam: float, rl_context) -> LossOutput:
    """Convex combination of the policy-gradient estimate and the CE loss.

    ``rl_context`` supplies the reward machinery (see rl.RLContext); its rng
    is consumed by the sampling step, so fixing it makes the combination
    reproducible.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    from . import rl

    images = []
    seen = set()
    for image, _ in batch:
        if image.id not in seen:
            seen.add(image.id)
            images.append(image)
    rl_out = rl.scst_step(
        params, images, rl_context.stats, rl_context.rng,
        samples_per_image=rl_context.samples_per_image,
        beta=rl_context.beta, scope=rl_context.scope,
        reward_fn=rl_context.reward_fn,
        refs_by_id=rl_context.refs_by_id,
    )
    feats = np.stack([image.features for image, _ in batch])
    ce_out = ce_batch(params, feats, [cap for _, cap in batch], rl_context.beta, rl_context.scope)
    grads = {
        name: lam * rl_out.grads[name] + (1.0 - lam) * ce_out.grads[name]
        for name in rl_out.grads
    }
    loss = lam * rl_out.loss + (1.0 - lam) * ce_out.loss
    return LossOutput(loss=loss, grads=grads,
                      details={"rl_loss": rl_out.loss, "ce_loss": ce_out.loss})


def grad_check(loss_fn: Callable[[ModelParams], LossOutput], params: ModelParams,
               eps: float = 1e-5, scope: TrainScope = TrainScope.ALL) -> float:
    """Max relative error between analytic gradients and central differences.

    Perturbs every parameter entry in scope.  The relative error of an entry
    is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    analytic = loss_fn(params).grads
    work = params.copy()
    max_rel = 0.0
    for name in scoped_arrays(scope):
        arr = getattr(work, name)
        grad = analytic[name]
        for idx in range(arr.size):
            orig = arr.flat[idx]
            arr.flat[idx] = orig + eps
            up = loss_fn(work).loss
            arr.flat[idx] = orig - eps
            down = loss_fn(work).loss
            arr.flat[idx] = orig
            numeric = (up - down) / (2.0 * eps)
            a = grad.flat[idx]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            max_rel = max(max_rel, rel)
    return max_rel


def _temper(p: np.ndarray, beta: float) -> np.ndarray:
    if beta < 0:
        raise ValueError("beta must be >= 0")
    q = p**beta
    return q / q.sum()


def loss_surface(p1_grid: Sequence[float], beta: float = 1.0, beta_prime: float = 1.0,
                 gamma: float = 1.0, alpha: float = 1.0) -> list[dict]:
    """Tabulate CE/BP/FL/AFL on the synthetic peaked-distribution family.

    At each grid point the gold word holds probability p1 and the next five
    words share the remainder equally; the reference distribution uses the
    same construction.  Temperatures reshape the constructed distributions
    as p^beta (renormalized).
    """
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
        ce = -math.log(max(p[0], PROB_EPS))
        bp = -math.log(max(q[0], PROB_EPS))
        fl = (1.0 - p[0]) ** gamma * ce
        afl = (1.0 + alpha * p[0]) ** gamma * ce
        rows.append({"p1": float(p1), "ce": ce, "bp": bp, "fl": fl, "afl": afl})
    return rows
