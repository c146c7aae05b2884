"""Sequence sampling, the self-critical policy-gradient step, and the
training loops (CE pretraining and reward training).

The policy-gradient step samples sequences from the current policy, scores
them with the consensus reward against the image's references, subtracts the
greedy-decode reward of the same image as baseline, and accumulates
advantage-weighted log-likelihood gradients.  One greedy baseline per image
applies to all of its samples.  The rollout records the cell activations and
the step distributions it draws from, so the gradient backpropagates through
the rollout itself instead of re-running a teacher-forced pass.  Training
runs the policy at inverse temperature 1; ``sample_sequences`` keeps its β
for ``caplab analyze sample-freq``.

A training run codes the references of its images into one CIDEr-D
reference table before its first step, and every step scores against that
table, reading its images' sets by their index in the training split.
CE pretraining, reward training and the fine-tunes of ``finetune`` all run
the one SGD loop ``sgd_epochs``, each as a step over an index batch.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cider import (CiderCorpusStats, ReferenceTable, build_cider_stats, cider_d_batch,
                    reference_table)
from .cider import cider_d  # noqa: F401  -- perfbench's tracer test looks up rl.cider_d
from .corpus import Dataset, ImageRecord, Vocabulary, mapped_references
from .decode import greedy_rollout_batch
from .losses import LossOutput, ce_batch, gold_index, logit_grad
from .model import (
    ModelParams,
    SeqForward,
    TrainScope,
    apply_sgd,
    backward_sequences,
    gru_cell,
    initial_hidden,
    input_projections,
    log_softmax_temp,
    logits_from_hidden,
)


def corpus_stats_for(vocab: Vocabulary, train: Dataset) -> CiderCorpusStats:
    return build_cider_stats(mapped_references(vocab, train.records))


@dataclass
class SampledSeq:
    """A policy sample: emitted tokens (without <eos>) plus the log-prob of
    every step taken, including the terminal <eos> step when one occurred."""

    tokens: list[int]
    logps: np.ndarray
    ended: bool


@dataclass(eq=False)
class SampleBatch(abc.Sequence):
    """A batch of policy samples together with the forward pass that drew them.

    ``fwd`` is the teacher-forced pass over the sampled tokens (bit-identical
    to ``forward_sequences`` on ``fwd.tokens``), ``probs[:, t]`` the
    temperature-scaled distribution step t drew from, ``targets`` the drawn
    ids padded with <eos>, and ``logps`` the log-prob of each drawn id.  Row
    i's first ``fwd.lengths[i]`` steps are real.  Indexing gives row i as a
    ``SampledSeq``.
    """

    fwd: SeqForward
    probs: np.ndarray    # (n, T, V)
    targets: np.ndarray  # (n, T) int64
    logps: np.ndarray    # (n, T)
    ended: np.ndarray    # (n,) bool

    def __len__(self) -> int:
        return len(self.targets)

    def __getitem__(self, i: int) -> SampledSeq:
        length, ended = int(self.fwd.lengths[i]), bool(self.ended[i])
        return SampledSeq(tokens=self.targets[i, : length - ended].tolist(),
                          logps=self.logps[i, :length].copy(), ended=ended)


def sample_sequences(params: ModelParams, feats: np.ndarray, beta: float,
                     rng: np.random.Generator) -> SampleBatch:
    """Multinomial rollout for a batch of feature rows; deterministic in rng.

    Each step draws one uniform per row and inverts it through the row's
    CDF.  A row stops at its first <eos> and is fed <eos> until every row
    has stopped or the model's ``max_len`` steps have run.  The rollout
    records the cell's activations as it goes, so the batch carries its own
    forward pass.
    """
    max_len = params.dims.max_len
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    vocab = params.vocab
    n_rows, d, n_vocab = len(feats), params.dims.hidden_dim, len(vocab)
    rows = np.arange(n_rows)
    tokens = np.full((n_rows, max_len), vocab.eos_id, dtype=np.int64)
    tokens[:, 0] = vocab.bos_id
    targets = np.full((n_rows, max_len), vocab.eos_id, dtype=np.int64)
    logps = np.empty((n_rows, max_len))
    probs = np.empty((n_rows, max_len, n_vocab))
    z, r, n, h = (np.empty((n_rows, max_len, d)) for _ in range(4))
    done = np.zeros(n_rows, dtype=bool)
    h0 = h_prev = initial_hidden(params, feats)
    steps = max_len
    for t in range(max_len):
        cell = gru_cell(params, *input_projections(params, params.embed[tokens[:, t]]), h_prev)
        z[:, t], r[:, t], n[:, t], h[:, t] = cell
        h_prev = cell[3]
        lp = log_softmax_temp(logits_from_hidden(params, h_prev), beta)
        p = probs[:, t] = np.exp(lp)
        u = rng.random(n_rows)
        drawn = np.minimum((np.cumsum(p, axis=1) < u[:, None]).sum(axis=1), n_vocab - 1)
        logps[:, t] = lp[rows, drawn]
        done |= drawn == vocab.eos_id
        targets[:, t] = np.where(done, vocab.eos_id, drawn)
        if done.all():
            steps = t + 1
            break
        if t + 1 < max_len:
            tokens[:, t + 1] = targets[:, t]

    targets = targets[:, :steps]
    is_eos = targets == vocab.eos_id
    ended = is_eos.any(axis=1)
    lengths = np.where(ended, is_eos.argmax(axis=1) + 1, steps)
    mask = (np.arange(steps)[None, :] < lengths[:, None]).astype(np.float64)
    fwd = SeqForward(tokens=tokens[:, :steps], lengths=lengths, mask=mask, feats=feats, h0=h0,
                     z=z[:, :steps], r=r[:, :steps], n=n[:, :steps], h=h[:, :steps])
    return SampleBatch(fwd=fwd, probs=probs[:, :steps], targets=targets,
                       logps=logps[:, :steps], ended=ended)


def scst_step(params: ModelParams, images: Sequence[ImageRecord], table: ReferenceTable,
              rows: np.ndarray, rng: np.random.Generator,
              samples_per_image: int = 5) -> LossOutput:
    """Gradient estimate for one image batch.

    Rewards are CIDEr-D against ``table``, in which ``rows[k]`` is the set
    of ``images[k]``'s references mapped into the vocabulary, scored for
    every greedy baseline and sample of the batch in one ``cider_d_batch``
    call.  A sample whose reward equals its image's greedy baseline
    contributes exactly zero; ``details["zero_advantage"]`` counts them.
    The returned loss is the negative mean sampled reward.
    """
    if samples_per_image < 1:
        raise ValueError("samples_per_image must be >= 1")
    vocab = params.vocab
    feats = np.stack([img.features for img in images])

    greedy_seqs, _ = greedy_rollout_batch(params, feats, 1.0, params.dims.max_len)
    rep_feats = np.repeat(feats, samples_per_image, axis=0)
    samples = sample_sequences(params, rep_feats, 1.0, rng)
    # the greedy baselines first, then the samples, image by image
    seqs = list(greedy_seqs) + [sample.tokens for sample in samples]
    owner = np.concatenate([rows, np.repeat(rows, samples_per_image)])
    scores = cider_d_batch([vocab.words(ids) for ids in seqs], owner, table)
    baselines, rewards = scores[: len(images)], scores[len(images) :]
    sample_baselines = np.repeat(baselines, samples_per_image)
    advantages = rewards - sample_baselines

    # d L / d z_t = (advantage / N) * (p - onehot(w_t)) per sampled step
    coef = (advantages / len(samples))[:, None] * samples.fwd.mask
    d_logits = logit_grad(samples.probs, gold_index(samples.targets, len(vocab)), coef)
    grads = backward_sequences(params, samples.fwd, d_logits, TrainScope.ALL)
    return LossOutput(
        loss=float(-rewards.mean()),
        grads=grads,
        details={
            "mean_reward": float(rewards.mean()),
            "mean_greedy_reward": float(baselines.mean()),
            "zero_advantage": int((rewards == sample_baselines).sum()),
        },
    )


def reference_pairs(train: Dataset) -> list[tuple[ImageRecord, list[str]]]:
    return [(rec, ref) for rec in train.records for ref in rec.references]


def sgd_epochs(params: ModelParams, n_items: int, epochs: int, lr: float,
               rng: np.random.Generator, batch_size: int,
               step: Callable[[ModelParams, np.ndarray], LossOutput],
               ) -> list[list[tuple[int, float, dict]]]:
    """SGD on ``params`` in place, the one loop every trainer runs.

    Each epoch draws ``rng.permutation(n_items)`` before its first step, so
    a step may draw from the same generator, and hands each slice of up to
    ``batch_size`` indices to ``step(params, idx)``; the arrays the step
    returns gradients for are updated.  Returns, per epoch, every batch's
    (size, loss, details); gradients are not kept.
    """
    history = []
    for _ in range(epochs):
        order = rng.permutation(n_items)
        log = []
        for start in range(0, n_items, batch_size):
            idx = order[start : start + batch_size]
            out = step(params, idx)
            apply_sgd(params, out.grads, lr)
            log.append((len(idx), out.loss, out.details))
        history.append(log)
    return history


def mean_loss_log(history: list[list[tuple[int, float, dict]]]) -> list[dict]:
    """Per-epoch item-weighted mean loss of an ``sgd_epochs`` history."""
    log = []
    for epoch, batches in enumerate(history):
        total = sum(loss * size for size, loss, _ in batches)
        log.append({"epoch": epoch, "mean_loss": total / sum(size for size, _, _ in batches)})
    return log


def train_ce(params: ModelParams, train: Dataset, epochs: int, lr: float,
             rng: np.random.Generator, batch_size: int = 10) -> tuple[ModelParams, list[dict]]:
    """Teacher-forced pretraining; returns a trained copy and per-epoch log."""
    params = params.copy()
    pairs = reference_pairs(train)

    def step(p, idx):
        return ce_batch(p, np.stack([pairs[i][0].features for i in idx]),
                        [pairs[i][1] for i in idx])

    history = sgd_epochs(params, len(pairs), epochs, lr, rng, batch_size, step)
    return params, mean_loss_log(history)


def train_rl(params: ModelParams, train: Dataset, stats: CiderCorpusStats, epochs: int,
             lr: float, rng: np.random.Generator, batch_size: int = 10,
             samples_per_image: int = 5) -> tuple[ModelParams, list[dict]]:
    """Self-critical reward training starting from a pretrained policy."""
    params = params.copy()
    images = train.records
    table = reference_table(mapped_references(params.vocab, images), stats)

    def step(p, idx):
        return scst_step(p, [images[i] for i in idx], table, idx, rng, samples_per_image)

    history = sgd_epochs(params, len(images), epochs, lr, rng, batch_size, step)
    log = []
    for epoch, batches in enumerate(history):
        # each batch counts once, whatever its size
        sampled = samples_per_image * sum(size for size, _, _ in batches)
        log.append({
            "epoch": epoch,
            "mean_reward": sum(d["mean_reward"] for _, _, d in batches) / len(batches),
            "mean_greedy_reward": sum(d["mean_greedy_reward"] for _, _, d in batches) / len(batches),
            # share of samples whose reward differs from their greedy baseline
            "useful_sample_ratio":
                (sampled - sum(d["zero_advantage"] for _, _, d in batches)) / sampled,
        })
    return params, log
