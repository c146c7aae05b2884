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
from caplab.losses import (FrozenReference, LossOutput, anti_focal_terms, bp_head, bp_log_probs,
                           ce_terms, focal_terms, frame_targets, logit_grad, pointwise_head,
                           teacher_forced)
from caplab.metrics import _oor_counts
from caplab.model import (ALL_ARRAYS, ModelParams, TrainScope, _shifted_scaled,
                          backward_sequences, check_matches, forward_sequences, init_params,
                          initial_hidden, log_softmax_temp, logits_from_hidden, recurrent_step,
                          stage_rng)
from caplab.rl import (SampledSeq, joint_loss, mean_loss_log, pair_step, reference_pairs,
                       scst_step, sgd_epochs)


def softmax_temp(z: np.ndarray, beta: float) -> np.ndarray:
    """exp(beta*z) / sum exp(beta*z), computed with max subtraction.

    beta = 0 gives the uniform distribution.
    """
    e = np.exp(_shifted_scaled(z, beta))
    return e / e.sum(axis=-1, keepdims=True)


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
    d_logits = logit_grad(np.exp(logp), targets, fwd.mask)
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
                stats: CiderCorpusStats) -> tuple[ReferenceTable, dict[int, int]]:
    """The reference table of one batch's images alone, and each image id's
    set in it."""
    table = reference_table(mapped_references(vocab, images), stats)
    return table, {img.id: row for row, img in enumerate(images)}


def per_batch_train_rl(params, train: Dataset, stats, epochs, lr, rng, batch_size=10,
                       samples_per_image=5) -> ModelParams:
    """``train_rl`` with every step scoring against a table of its own
    batch's references instead of the run's one table."""
    params = params.copy()

    def step(p, images):
        table, row_of = batch_table(p.vocab, images, stats)
        return scst_step(p, images, table, row_of, rng, samples_per_image)

    sgd_epochs(params, train.records, epochs, lr, rng, batch_size, step)
    return params


def per_batch_train_joint(params, train: Dataset, stats, epochs, lr, lam, rng, batch_size=10,
                          samples_per_image=5) -> ModelParams:
    """``train_joint`` with every step scoring against a table of the
    references of its batch's distinct images."""
    params = params.copy()

    def step(p, batch):
        images = list({img.id: img for img, _ in batch}.values())
        table, row_of = batch_table(p.vocab, images, stats)
        return joint_loss(p, batch, lam, table, row_of, rng, samples_per_image)

    sgd_epochs(params, reference_pairs(train), epochs, lr, rng, batch_size, step)
    return params


def per_batch_oracle(checkpoint, data, config, seed):
    """``finetune`` as one teacher-forced ``forward_sequences`` pass per
    batch, the method's head, and the classifier-scope
    ``backward_sequences``.  Returns the trained parameters, the frozen
    reference (None but for "wft") and the loss log."""
    params = checkpoint.copy()
    wft = config.method == "wft"
    frozen = FrozenReference(checkpoint, config.beta_prime) if wft else None
    terms = {"sft": ce_terms, "wft": None, "fl": focal_terms(config.gamma),
             "afl": anti_focal_terms(config.gamma, config.alpha)}[config.method]

    def batch_loss(params, feats, captions):
        fwd, logp, targets = teacher_forced(params, feats, captions)
        if wft:
            logp_ref = log_softmax_temp(logits_from_hidden(frozen.params, fwd.h), frozen.beta_prime)
            per_item, d_logits = bp_head(logp, logp_ref, targets, fwd.mask, fwd.lengths)
        else:
            per_item, d_logits = pointwise_head(logp, targets, fwd.mask, fwd.lengths, terms)
        grads = backward_sequences(params, fwd, d_logits, TrainScope.CLASSIFIER_ONLY)
        return LossOutput(loss=float(per_item.mean()), grads=grads, details={"per_item": per_item})

    rng = stage_rng(seed, f"finetune:{config.method}")
    history = sgd_epochs(params, reference_pairs(data.train), 1, config.lr, rng,
                         config.batch_size, pair_step(batch_loss))
    return params, frozen, mean_loss_log(history)


def repetition_rate(captions: Sequence[Sequence[str]], n_max: int = 4) -> float:
    """``metrics.repetition_rate`` with each order's n-grams listed one
    slice at a time, adding the same terms in the same order."""
    total = 0.0
    for caption in captions:
        for n in range(1, n_max + 1):
            grams = [tuple(caption[i : i + n]) for i in range(len(caption) - n + 1)]
            if grams:
                total += 1.0 - len(set(grams)) / len(grams)
    return total / (len(captions) * n_max)


def oor_analysis(captions: Sequence[Sequence[str]], references: Sequence[Sequence[Sequence[str]]],
                 vocab: Vocabulary) -> tuple[int, float, bool]:
    """``metrics``' out-of-reference count and mean rank, with each image's
    references given as lists of captions rather than one set of words."""
    if len(captions) != len(references):
        raise ValueError("captions and references must align one-to-one")
    return _oor_counts(captions, [set().union(*refs) for refs in references], vocab)
