"""Sequence sampling, the self-critical policy-gradient step, and the
training loops (CE pretraining, reward training, and their convex joint).

The policy-gradient step samples sequences from the current policy, scores
them with the consensus reward against the image's references, subtracts the
greedy-decode reward of the same image as baseline, and accumulates
advantage-weighted log-likelihood gradients.  One greedy baseline per image
applies to all of its samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cider import CiderCorpusStats, build_cider_stats, cider_d
from .corpus import Dataset, ImageRecord, Vocabulary, mapped_references
from .decode import greedy_rollout_batch, rollout_batch
from .losses import LossOutput, ce_batch, forward_log_probs, frame_targets, joint_loss, logit_grad
from .model import ModelParams, TrainScope, apply_sgd, backward_sequences


def corpus_stats_for(vocab: Vocabulary, train: Dataset) -> CiderCorpusStats:
    refs = mapped_references(vocab, train.records)
    return build_cider_stats([refs[rec.id] for rec in train.records])


@dataclass
class SampledSeq:
    """A policy sample: emitted tokens (without <eos>) plus the log-prob of
    every step taken, including the terminal <eos> step when one occurred."""

    tokens: list[int]
    logps: np.ndarray
    ended: bool

    def target_ids(self, vocab: Vocabulary) -> list[int]:
        return self.tokens + [vocab.eos_id] if self.ended else list(self.tokens)


def sample_sequences(params: ModelParams, feats: np.ndarray, beta: float,
                     rng: np.random.Generator, max_len: int | None = None) -> list[SampledSeq]:
    """Multinomial rollout for a batch of feature rows; deterministic in rng."""
    if max_len is None:
        max_len = params.dims.max_len

    def draw(lp):
        # one uniform per row and step, inverted through the row's CDF
        probs = np.exp(lp)
        u = rng.random(len(lp))
        draws = (np.cumsum(probs, axis=1) < u[:, None]).sum(axis=1)
        return np.minimum(draws, probs.shape[1] - 1)

    ids, logps, ended = rollout_batch(params, feats, beta, max_len, draw)
    return [
        SampledSeq(tokens=ids[i], logps=np.array(logps[i]), ended=bool(ended[i]))
        for i in range(len(ids))
    ]


def sample_sequence(params: ModelParams, image: ImageRecord, beta: float,
                    rng: np.random.Generator, max_len: int | None = None) -> SampledSeq:
    return sample_sequences(params, image.features[None, :], beta, rng, max_len)[0]


@dataclass
class RLContext:
    """Everything the policy-gradient step needs besides the parameters."""

    stats: CiderCorpusStats
    rng: np.random.Generator
    samples_per_image: int = 5
    beta: float = 1.0
    scope: TrainScope = TrainScope.ALL
    reward_fn: Callable | None = None
    refs_by_id: dict[int, list[list[str]]] | None = None


def _default_reward(vocab: Vocabulary, stats: CiderCorpusStats,
                    refs_by_id: dict[int, list[list[str]]] | None):
    def reward(token_ids: Sequence[int], image: ImageRecord) -> float:
        if refs_by_id is not None and image.id in refs_by_id:
            refs = refs_by_id[image.id]
        else:
            refs = mapped_references(vocab, [image])[image.id]
        return cider_d(vocab.words(token_ids), refs, stats)

    return reward


def scst_step(params: ModelParams, images: Sequence[ImageRecord], stats: CiderCorpusStats,
              rng: np.random.Generator, samples_per_image: int = 5, beta: float = 1.0,
              scope: TrainScope = TrainScope.ALL, reward_fn: Callable | None = None,
              refs_by_id: dict[int, list[list[str]]] | None = None) -> LossOutput:
    """Gradient estimate for one image batch.

    A sample whose reward equals its image's greedy baseline contributes
    exactly zero.  The returned loss is the negative mean sampled reward.
    """
    if samples_per_image < 1:
        raise ValueError("samples_per_image must be >= 1")
    vocab = params.vocab
    reward = reward_fn or _default_reward(vocab, stats, refs_by_id)
    feats = np.stack([img.features for img in images])
    max_len = params.dims.max_len

    greedy_seqs, _ = greedy_rollout_batch(params, feats, beta, max_len)
    baselines = np.array([reward(seq, img) for seq, img in zip(greedy_seqs, images)])

    rep_feats = np.repeat(feats, samples_per_image, axis=0)
    samples = sample_sequences(params, rep_feats, beta, rng, max_len)
    rewards = np.array([
        reward(samples[k].tokens, images[k // samples_per_image])
        for k in range(len(samples))
    ])
    advantages = rewards - np.repeat(baselines, samples_per_image)

    total = len(samples)
    inputs, targets, lengths = frame_targets(
        [sample.target_ids(vocab) for sample in samples], vocab.bos_id, vocab.eos_id)
    fwd, logp = forward_log_probs(params, rep_feats, inputs, lengths, beta)
    # d L / d z_t = (advantage * beta / N) * (p - onehot(w_t)) per sampled step
    coef = (advantages / total)[:, None] * fwd.mask * beta
    d_logits = logit_grad(np.exp(logp), targets, coef)
    grads = backward_sequences(params, fwd, d_logits, scope)
    return LossOutput(
        loss=float(-rewards.mean()),
        grads=grads,
        details={
            "mean_reward": float(rewards.mean()),
            "mean_greedy_reward": float(baselines.mean()),
        },
    )


def sequence_logprob_loss(params: ModelParams, image: ImageRecord, sample: SampledSeq,
                          beta: float = 1.0, scope: TrainScope = TrainScope.ALL) -> LossOutput:
    """Negative log-likelihood of a fixed sampled sequence (the differentiable
    factor of the policy gradient), exposed for the gradient oracle."""
    vocab = params.vocab
    tgt = sample.target_ids(vocab)
    if not tgt:
        raise ValueError("cannot score an empty sample")
    inputs, targets, lengths = frame_targets([tgt], vocab.bos_id, vocab.eos_id)
    fwd, logp = forward_log_probs(params, image.features[None, :], inputs, lengths, beta)
    lp_gold = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    loss = float(-(lp_gold * fwd.mask).sum())
    d_logits = logit_grad(np.exp(logp), targets, beta * fwd.mask)
    grads = backward_sequences(params, fwd, d_logits, scope)
    return LossOutput(loss=loss, grads=grads)


def reference_pairs(train: Dataset) -> list[tuple[ImageRecord, list[str]]]:
    return [(rec, ref) for rec in train.records for ref in rec.references]


def sgd_epochs(params: ModelParams, items: Sequence, epochs: int, lr: float,
               rng: np.random.Generator, batch_size: int, scope: TrainScope,
               step: Callable[[ModelParams, list], LossOutput]) -> list[list[tuple[int, float, dict]]]:
    """Shuffle-batch SGD on ``params`` in place, shared by every trainer.

    Each epoch draws one permutation of ``items`` from ``rng``; each batch
    of up to ``batch_size`` items goes to ``step(params, batch)`` and its
    gradients are applied in ``scope``.  Returns, per epoch, every batch's
    (size, loss, details); gradients are not kept.
    """
    history = []
    for _ in range(epochs):
        order = rng.permutation(len(items))
        batches = []
        for start in range(0, len(items), batch_size):
            batch = [items[i] for i in order[start : start + batch_size]]
            out = step(params, batch)
            apply_sgd(params, out.grads, lr, scope)
            batches.append((len(batch), out.loss, out.details))
        history.append(batches)
    return history


def pair_step(batch_loss: Callable[..., LossOutput]) -> Callable[[ModelParams, list], LossOutput]:
    """Adapt ``batch_loss(params, feats, captions)`` to a step over
    (image, reference) pairs."""
    def step(params, batch):
        feats = np.stack([rec.features for rec, _ in batch])
        return batch_loss(params, feats, [ref for _, ref in batch])

    return step


def mean_loss_log(history: list[list[tuple[int, float, dict]]]) -> list[dict]:
    """Per-epoch item-weighted mean loss of an ``sgd_epochs`` history."""
    log = []
    for epoch, batches in enumerate(history):
        total = sum(loss * size for size, loss, _ in batches)
        log.append({"epoch": epoch, "mean_loss": total / sum(size for size, _, _ in batches)})
    return log


def train_ce(params: ModelParams, train: Dataset, epochs: int, lr: float,
             rng: np.random.Generator, batch_size: int = 10, beta: float = 1.0,
             scope: TrainScope = TrainScope.ALL) -> tuple[ModelParams, list[dict]]:
    """Teacher-forced pretraining; returns a trained copy and per-epoch log."""
    params = params.copy()
    step = pair_step(lambda p, feats, caps: ce_batch(p, feats, caps, beta, scope))
    history = sgd_epochs(params, reference_pairs(train), epochs, lr, rng, batch_size, scope, step)
    return params, mean_loss_log(history)


def train_rl(params: ModelParams, train: Dataset, stats: CiderCorpusStats, epochs: int,
             lr: float, rng: np.random.Generator, batch_size: int = 10,
             samples_per_image: int = 5, beta: float = 1.0,
             scope: TrainScope = TrainScope.ALL) -> tuple[ModelParams, list[dict]]:
    """Self-critical reward training starting from a pretrained policy."""
    params = params.copy()
    refs_by_id = mapped_references(params.vocab, train.records)

    def step(p, images):
        return scst_step(p, images, stats, rng, samples_per_image, beta, scope,
                         refs_by_id=refs_by_id)

    history = sgd_epochs(params, train.records, epochs, lr, rng, batch_size, scope, step)
    log = []
    for epoch, batches in enumerate(history):
        # each batch counts once, whatever its size
        log.append({
            "epoch": epoch,
            "mean_reward": sum(d["mean_reward"] for _, _, d in batches) / len(batches),
            "mean_greedy_reward": sum(d["mean_greedy_reward"] for _, _, d in batches) / len(batches),
        })
    return params, log


def train_joint(params: ModelParams, train: Dataset, stats: CiderCorpusStats, epochs: int,
                lr: float, lam: float, rng: np.random.Generator, batch_size: int = 10,
                samples_per_image: int = 5, beta: float = 1.0,
                scope: TrainScope = TrainScope.ALL) -> tuple[ModelParams, list[dict]]:
    """Optimize lam * reward loss + (1 - lam) * CE over reference pairs."""
    params = params.copy()
    ctx = RLContext(stats=stats, rng=rng, samples_per_image=samples_per_image, beta=beta,
                    scope=scope, refs_by_id=mapped_references(params.vocab, train.records))
    history = sgd_epochs(params, reference_pairs(train), epochs, lr, rng, batch_size, scope,
                         lambda p, batch: joint_loss(p, batch, lam, ctx))
    return params, mean_loss_log(history)
