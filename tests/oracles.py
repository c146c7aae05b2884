"""Reference forms the tests compare ``caplab`` against.

Each oracle computes one quantity the slow, direct way: one image and one
prefix at a time, one sequence at a time, or by finite differences.  None of
them is on a pipeline path; they live here so that every test module can
import them without importing another test module.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from caplab.cider import CiderCorpusStats, ReferenceTable, reference_table
from caplab.corpus import Dataset, ImageRecord, Vocabulary, mapped_references
from caplab.decode import decode_dataset
from caplab.losses import (LOG_EPS, FrozenReference, LossOutput, anti_focal_terms, bp_head,
                           bp_log_probs, ce_terms, focal_terms, frame_targets, pointwise_head,
                           teacher_forced)
from caplab.metrics import _oor_counts
from caplab.model import (ALL_ARRAYS, ModelParams, SeqForward, TrainScope, _scatter_add,
                          _shifted_scaled, apply_sgd, backward_sequences, check_matches,
                          classifier_grads, forward_sequences, init_params, initial_hidden,
                          log_softmax_temp, logits_from_hidden, recurrent_step, stage_rng)
from caplab.rl import SampledSeq, mean_loss_log, reference_pairs, scst_step


def softmax_temp(z: np.ndarray, beta: float) -> np.ndarray:
    """exp(beta*z) / sum exp(beta*z), computed with max subtraction.

    beta = 0 gives the uniform distribution.
    """
    e = np.exp(_shifted_scaled(z, beta))
    return e / e.sum(axis=-1, keepdims=True)


def fresh_logits_from_hidden(params: ModelParams, hidden: np.ndarray) -> np.ndarray:
    """``model.logits_from_hidden`` with the bias added into a new array."""
    return hidden @ params.cls_w + params.cls_b


def fresh_log_softmax_temp(z: np.ndarray, beta: float) -> np.ndarray:
    """``model.log_softmax_temp`` with every pass into a new array, beta*z
    formed at every beta."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logits")
    a = beta * z
    a = a - a.max(axis=-1, keepdims=True)
    return a - np.log(np.exp(a).sum(axis=-1, keepdims=True))


def fresh_bp_log_probs(logp_main: np.ndarray, logp_ref: np.ndarray) -> np.ndarray:
    """``losses.bp_log_probs`` with every pass into a new array."""
    u = np.maximum(logp_main, LOG_EPS) + np.maximum(logp_ref, LOG_EPS)
    u = u - u.max(axis=-1, keepdims=True)
    return u - np.log(np.exp(u).sum(axis=-1, keepdims=True))


def per_row_frame_targets(vocab: Vocabulary, target_ids: Sequence[Sequence[int]],
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``losses.frame_targets`` with one slice assignment per row."""
    b = len(target_ids)
    t_max = max(len(tgt) for tgt in target_ids)
    inputs = np.full((b, t_max), vocab.eos_id, dtype=np.int64)
    targets = np.full((b, t_max), vocab.eos_id, dtype=np.int64)
    lengths = np.empty(b, dtype=np.int64)
    for i, tgt in enumerate(target_ids):
        inputs[i, : len(tgt)] = [vocab.bos_id, *tgt[:-1]]
        targets[i, : len(tgt)] = tgt
        lengths[i] = len(tgt)
    return inputs, targets, lengths


def along_axis_logit_grad(p: np.ndarray, targets: np.ndarray, coef) -> np.ndarray:
    """``losses.logit_grad`` with the one-hot subtracted through
    ``take_along_axis``/``put_along_axis`` on ``targets``, the product
    ``coef * p`` formed at every coef, ``p`` left as it is."""
    c = np.asarray(coef, dtype=np.float64)[..., None]
    d_logits = c * p
    idx = targets[..., None]
    np.put_along_axis(d_logits, idx, np.take_along_axis(d_logits, idx, axis=-1) - c, axis=-1)
    return d_logits


def along_axis_gold_stats(logp, targets, mask):
    """``losses._gold_stats`` with the gold log-probs read through
    ``take_along_axis`` on ``targets``."""
    lp_gold = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    active = (lp_gold > LOG_EPS) & (mask > 0)
    lp_eff = np.maximum(lp_gold, LOG_EPS)
    return lp_eff, active


def fresh_bp_head(logp, logp_ref, targets, mask, lengths):
    """``losses.bp_head`` with every pass into a new array, the inner mask
    as a float array of its own, and the gold entries reached through
    ``take_along_axis``/``put_along_axis``."""
    logq = fresh_bp_log_probs(logp, logp_ref)
    lq_eff, active = along_axis_gold_stats(logq, targets, mask)
    per_item = (-lq_eff * mask).sum(axis=1) / lengths
    b = len(lengths)
    p = np.exp(logp)
    g = along_axis_logit_grad(np.exp(logq), targets, 1.0)
    inner_mask = (logp > LOG_EPS).astype(np.float64)
    gm = g * inner_mask
    scale = (np.where(active, 1.0, 0.0) / (b * lengths[:, None]))[..., None]
    return per_item, scale * (gm - p * gm.sum(axis=-1, keepdims=True))


def fresh_sigmoid(x: np.ndarray) -> np.ndarray:
    """``model._sigmoid`` into a new array."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def fresh_gru_cell(params: ModelParams, xt: np.ndarray, h_prev: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``model.gru_cell`` on embedded inputs ``xt``, each step taking its own
    input products, every pass into a new array."""
    z = fresh_sigmoid(xt @ params.wz + h_prev @ params.uz + params.bz)
    r = fresh_sigmoid(xt @ params.wr + h_prev @ params.ur + params.br)
    n = np.tanh(xt @ params.wn + (r * h_prev) @ params.un + params.bn)
    return z, r, n, (1.0 - z) * n + z * h_prev


def fresh_forward_sequences(params: ModelParams, feats: np.ndarray, tokens: np.ndarray,
                            lengths: np.ndarray) -> SeqForward:
    """``model.forward_sequences`` with ``fresh_gru_cell`` at every step,
    reading and writing batch-major (B, T, d) arrays."""
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    tokens = np.atleast_2d(np.asarray(tokens, dtype=np.int64))
    lengths = np.asarray(lengths, dtype=np.int64)
    b, t_max = tokens.shape
    d = params.dims.hidden_dim
    h0 = np.tanh(feats @ params.img_w + params.img_b)
    x = params.embed[tokens]
    z, r, n, h = (np.empty((b, t_max, d)) for _ in range(4))
    h_prev = h0
    for t in range(t_max):
        z[:, t], r[:, t], n[:, t], h[:, t] = fresh_gru_cell(params, x[:, t], h_prev)
        h_prev = h[:, t]
    mask = (np.arange(t_max)[None, :] < lengths[:, None]).astype(np.float64)
    return SeqForward(tokens=tokens, lengths=lengths, mask=mask, feats=feats,
                      h0=h0, z=z, r=r, n=n, h=h)


def fresh_backward_recurrence(params: ModelParams, fwd: SeqForward,
                              dh_from_logits: np.ndarray) -> dict[str, np.ndarray]:
    """``model._backward_recurrence`` with each step's gate arithmetic on
    strided (B, T, d) slices, every pass into a new array."""
    b, t_max, d = fwd.h.shape
    h_prev = np.concatenate((fwd.h0[:, None], fwd.h[:, :-1]), axis=1)
    dz_pre, dr_pre, dn_pre = (np.empty((b, t_max, d)) for _ in range(3))
    dh_next = np.zeros((b, d))
    for t in reversed(range(t_max)):
        dh = dh_from_logits[:, t] + dh_next
        zt, rt, nt, ht = fwd.z[:, t], fwd.r[:, t], fwd.n[:, t], h_prev[:, t]
        dn = dh * (1.0 - zt) * (1.0 - nt * nt)
        d_rh = dn @ params.un.T
        dr = d_rh * ht * rt * (1.0 - rt)
        dz = dh * (ht - nt) * zt * (1.0 - zt)
        dh_next = dh * zt + d_rh * rt + (dz @ params.uz.T + dr @ params.ur.T)
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


def bp_prob(params: ModelParams, frozen: FrozenReference, image: ImageRecord,
            prefix: Sequence[int], beta: float = 1.0) -> np.ndarray:
    """Next-token distribution of the bias product of the model at inverse
    temperature ``beta`` and the frozen reference, both conditioned on the
    same prefix."""
    check_matches(frozen.params, params.vocab, params.dims)
    z_main = score_step(params, image.features, prefix)
    z_ref = score_step(frozen.params, image.features, prefix)
    logq = bp_log_probs(
        log_softmax_temp(z_main, beta), log_softmax_temp(z_ref, frozen.beta_prime)
    )
    return np.exp(logq)


class TwoRecurrenceStepper:
    """Bias-product decoding steps with one recurrence per model: the model at
    inverse temperature ``beta`` and the frozen reference at its β′ each step
    their own states, so the reference may have an encoder of its own.  A
    state row holds the row's two states, (rows, 2, d), so a beam indexes it
    as it indexes a one-model state."""

    def __init__(self, params: ModelParams, frozen: FrozenReference, beta: float):
        check_matches(frozen.params, params.vocab, params.dims)
        self.models = ((params, beta), (frozen.params, frozen.beta_prime))
        self.eos_id = params.vocab.eos_id

    def start(self, features: np.ndarray) -> np.ndarray:
        rows = []
        for params, _ in self.models:
            h0 = initial_hidden(params, features)
            rows.append(recurrent_step(params, h0, np.full(len(h0), params.vocab.bos_id)))
        return np.stack(rows, axis=1)

    def logprobs(self, state: np.ndarray) -> np.ndarray:
        main, ref = (log_softmax_temp(logits_from_hidden(params, np.ascontiguousarray(h)), beta)
                     for h, (params, beta) in zip(state.swapaxes(0, 1), self.models))
        return bp_log_probs(main, ref)

    def advance(self, state: np.ndarray, token_ids: np.ndarray) -> np.ndarray:
        return np.stack([recurrent_step(params, np.ascontiguousarray(h), token_ids)
                         for h, (params, _) in zip(state.swapaxes(0, 1), self.models)], axis=1)


def grad_check(loss_fn: Callable[[ModelParams], LossOutput], params: ModelParams,
               eps: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences.

    Perturbs every entry of each array the loss returns a gradient for.  The
    relative error of an entry is |analytic - numeric| / max(|analytic|,
    |numeric|, 1e-8).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    analytic = loss_fn(params).grads
    work = params.copy()
    max_rel = 0.0
    for name, grad in analytic.items():
        arr = getattr(work, name)
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


def target_ids(sample: SampledSeq, vocab: Vocabulary) -> list[int]:
    """The ids a sample scores: its tokens, plus <eos> if it ended."""
    return sample.tokens + [vocab.eos_id] if sample.ended else list(sample.tokens)


def forward_targets(params, feats, targets: Sequence[Sequence[int]]):
    """Teacher-forced pass over the ``frame_targets`` frame of target id
    sequences: the pass, every position's log-softmax and the padded targets."""
    inputs, padded, lengths = frame_targets(params.vocab, targets)
    fwd = forward_sequences(params, feats, inputs, lengths)
    return fwd, log_softmax_temp(logits_from_hidden(params, fwd.h), 1.0), padded


def sequence_logprob_loss(params: ModelParams, image: ImageRecord,
                          sample: SampledSeq) -> LossOutput:
    """Negative log-likelihood of a fixed sampled sequence, the
    differentiable factor of the policy gradient."""
    tgt = target_ids(sample, params.vocab)
    if not tgt:
        raise ValueError("cannot score an empty sample")
    fwd, logp, targets = forward_targets(params, image.features[None, :], [tgt])
    lp_gold = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    loss = float(-(lp_gold * fwd.mask).sum())
    d_logits = along_axis_logit_grad(np.exp(logp), targets, fwd.mask)
    grads = backward_sequences(params, fwd, d_logits, TrainScope.ALL)
    return LossOutput(loss=loss, grads=grads)


def pointwise_batch(params, feats, captions, terms) -> LossOutput:
    """A pointwise loss (``ce_terms``, ``focal_terms``, ``anti_focal_terms``)
    over one teacher-forced pass, backpropagated through the whole model."""
    fwd, logp, targets = teacher_forced(params, feats, captions)
    per_item, d_logits = pointwise_head(logp, targets, fwd.mask, fwd.lengths, terms)
    grads = backward_sequences(params, fwd, d_logits, TrainScope.ALL)
    return LossOutput(loss=float(per_item.mean()), grads=grads, details={"per_item": per_item})


def decode_greedy(params, image, config):
    """Greedy decoding of one image: ``decode_dataset`` over a split of one,
    which runs the split decoder's greedy rollout."""
    assert config.method == "greedy"
    return decode_dataset(params, Dataset("val", [image]), config)[0]


def forced_token_model(vocab, dims, token_id, margin=50.0):
    """Bias-only model that puts (float-exact) full probability on one token."""
    params = init_params(vocab, dims, 0)
    for name in ALL_ARRAYS:
        getattr(params, name)[:] = 0.0
    params.cls_b[:] = -margin
    params.cls_b[token_id] = margin
    return params


def batch_table(vocab: Vocabulary, images: Sequence[ImageRecord],
                stats: CiderCorpusStats) -> ReferenceTable:
    """The reference table of one batch's images alone, image k's set at
    row k."""
    return reference_table(mapped_references(vocab, images), stats)


def plain_sgd_epochs(params, n_items, epochs, lr, rng, batch_size, step):
    """``rl.sgd_epochs`` written out on its own: per epoch one
    ``rng.permutation(n_items)`` cut into slices of up to ``batch_size``,
    each slice handed to ``step`` in order and its gradients applied.
    Returns, per epoch, every batch's (size, loss, details)."""
    history = []
    for _ in range(epochs):
        order = rng.permutation(n_items)
        batches = [order[start : start + batch_size] for start in range(0, n_items, batch_size)]
        epoch = []
        for idx in batches:
            out = step(params, idx)
            apply_sgd(params, out.grads, lr)
            epoch.append((len(idx), out.loss, out.details))
        history.append(epoch)
    return history


def per_batch_train_ce(params, train: Dataset, epochs, lr, rng, batch_size=10):
    """``train_ce`` as ``pointwise_batch`` with ``ce_terms`` over each batch
    of pairs, run by ``plain_sgd_epochs``.  Returns the trained parameters
    and the loss log."""
    params = params.copy()
    pairs = reference_pairs(train)

    def step(p, idx):
        batch = [pairs[i] for i in idx]
        return pointwise_batch(p, np.stack([rec.features for rec, _ in batch]),
                               [ref for _, ref in batch], ce_terms)

    history = plain_sgd_epochs(params, len(pairs), epochs, lr, rng, batch_size, step)
    return params, mean_loss_log(history)


def per_batch_train_rl(params, train: Dataset, stats, epochs, lr, rng, batch_size=10,
                       samples_per_image=5) -> ModelParams:
    """``train_rl`` with every step scoring against a table of its own
    batch's references instead of the run's one table, run by
    ``plain_sgd_epochs``."""
    params = params.copy()

    def step(p, idx):
        images = [train.records[i] for i in idx]
        return scst_step(p, images, batch_table(p.vocab, images, stats), np.arange(len(images)),
                         rng, samples_per_image)

    plain_sgd_epochs(params, len(train), epochs, lr, rng, batch_size, step)
    return params


def per_batch_oracle(checkpoint, data, config, seed):
    """``finetune`` as one teacher-forced ``forward_sequences`` pass per
    batch, the method's head, and the classifier-scope
    ``backward_sequences``, run by ``plain_sgd_epochs``.  Returns the
    trained parameters, the frozen reference (None but for "wft") and the
    loss log."""
    params = checkpoint.copy()
    wft = config.method == "wft"
    frozen = FrozenReference(checkpoint, config.beta_prime) if wft else None
    terms = {"sft": ce_terms, "wft": None, "fl": focal_terms(config.gamma),
             "afl": anti_focal_terms(config.gamma, config.alpha)}[config.method]
    pairs = reference_pairs(data.train)

    def step(params, idx):
        batch = [pairs[i] for i in idx]
        fwd, logp, targets = teacher_forced(params, np.stack([rec.features for rec, _ in batch]),
                                            [ref for _, ref in batch])
        if wft:
            logp_ref = log_softmax_temp(logits_from_hidden(frozen.params, fwd.h), frozen.beta_prime)
            per_item, d_logits = bp_head(logp, logp_ref, targets, fwd.mask, fwd.lengths)
        else:
            per_item, d_logits = pointwise_head(logp, targets, fwd.mask, fwd.lengths, terms)
        grads = classifier_grads(fwd.h, d_logits)
        return LossOutput(loss=float(per_item.mean()), grads=grads, details={"per_item": per_item})

    rng = stage_rng(seed, f"finetune:{config.method}")
    history = plain_sgd_epochs(params, len(pairs), 1, config.lr, rng, config.batch_size, step)
    return params, frozen, mean_loss_log(history)


def repetition_rate(captions: Sequence[Sequence[str]]) -> float:
    """``metrics.repetition_rate`` with each order's n-grams, 1 to 4, listed
    one slice at a time, adding the same terms in the same order."""
    total = 0.0
    for caption in captions:
        for n in range(1, 5):
            grams = [tuple(caption[i : i + n]) for i in range(len(caption) - n + 1)]
            if grams:
                total += 1.0 - len(set(grams)) / len(grams)
    return total / (len(captions) * 4)


def oor_analysis(captions: Sequence[Sequence[str]], references: Sequence[Sequence[Sequence[str]]],
                 vocab: Vocabulary) -> tuple[int, float, bool]:
    """``metrics``' out-of-reference count and mean rank, with each image's
    references given as lists of captions rather than one set of words."""
    if len(captions) != len(references):
        raise ValueError("captions and references must align one-to-one")
    return _oor_counts(captions, [set().union(*refs) for refs in references], vocab)
