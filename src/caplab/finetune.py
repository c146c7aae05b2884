"""Single-epoch, classifier-only fine-tuning of a trained checkpoint, plus
the hyperparameter sweep harness.

Both headline methods update only the classifier weight and bias for one
epoch over the training references: "sft" minimizes the plain CE loss, and
"wft" minimizes the bias-product loss against a frozen copy of the same
checkpoint at inverse temperature β′.  The reweighting baselines "fl" and
"afl" run the same protocol with the focal and anti-focal losses.  The
trainable model has no temperature of its own.

Each is softmax regression over frozen encoder states.  The embedding and
encoder never receive a gradient, so every pair's teacher-forced hidden
states are fixed before the epoch starts, and a batch needs no recurrent
pass of its own.  The fine-tune encodes a block of upcoming batches (about
``BLOCK_PAIRS`` pairs) in one lockstep recurrence that keeps only the hidden
states; each batch of the block then reads its rows through the trainable
classifier and, for "wft", through the frozen copy's classifier, since both
models have the same encoder bytes.  A block holds about a megabyte, where
the states of every pair would take tens.

A sweep fine-tunes the points its caller lists, decodes the validation
split of each with the caller's decoding settings (bp decoding through the
point's frozen copy), and keeps the model with the best validation
retrieval R@1, ties toward the smaller learning rate and then the smaller
reference temperature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .cider import CiderCorpusStats
from .corpus import check_count, check_number
from .decode import DecodeConfig, decode_dataset
from .losses import (FrozenReference, LossOutput, anti_focal_terms, bp_head, caption_targets,
                     ce_terms, focal_terms, frame_targets, pointwise_head)
from .metrics import evaluate
from .model import (ModelParams, classifier_grads, initial_hidden, log_softmax_temp,
                    logits_from_hidden, recurrent_step, stage_rng)
from .rl import epoch_batches, mean_loss_log, reference_pairs, sgd_pass
from .synth import DataBundle

FINETUNE_METHODS = ("sft", "wft", "fl", "afl")

# Pairs per lockstep encode, rounded down to whole batches (at least one).
# At the default dimensions a block's states take about 1 MB; larger blocks
# trained no faster on the benchmark and raised its peak memory.
BLOCK_PAIRS = 128


@dataclass
class FinetuneConfig:
    method: str = "sft"
    lr: float = 1e-3
    beta_prime: float = 1.0       # wft only
    batch_size: int = 10
    gamma: float = 1.0            # fl / afl
    alpha: float = 1.0            # afl

    def validate(self) -> None:
        if self.method not in FINETUNE_METHODS:
            raise ValueError(f"unknown fine-tune method {self.method!r}")
        check_count("batch_size", self.batch_size, 1)
        for name in ("lr", "gamma", "alpha"):
            check_number(name, getattr(self, name))


@dataclass
class FinetuneResult:
    params: ModelParams
    frozen: FrozenReference | None
    log: list[dict] = field(default_factory=list)


@dataclass(eq=False)
class EncodedPairs:
    """Teacher-forced hidden states of (image, reference) pairs.

    ``h[:, t]`` scores ``targets[:, t]``; positions at or beyond a row's
    length are <eos>-padded, as in ``forward_sequences``.
    """

    h: np.ndarray        # (B, T, d)
    targets: np.ndarray  # (B, T) int64
    lengths: np.ndarray  # (B,)

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def mask(self) -> np.ndarray:
        positions = np.arange(self.targets.shape[1])
        return (positions[None, :] < self.lengths[:, None]).astype(np.float64)

    def rows(self, start: int, stop: int) -> "EncodedPairs":
        """Rows ``start:stop``, cut to their longest target and copied into
        an array of their own, so the products over them see the shape and
        layout a batch framed on its own has."""
        t_max = self.lengths[start:stop].max()
        return EncodedPairs(h=np.ascontiguousarray(self.h[start:stop, :t_max]),
                            targets=self.targets[start:stop, :t_max],
                            lengths=self.lengths[start:stop])


def encode_pairs(encoder: ModelParams, pairs: Sequence) -> EncodedPairs:
    """One lockstep recurrence over the pairs' teacher-forced inputs that
    keeps only the hidden states."""
    feats = np.stack([rec.features for rec, _ in pairs])
    inputs, targets, lengths = frame_targets(encoder.vocab,
                                             caption_targets(encoder, [ref for _, ref in pairs]))
    h = np.empty(inputs.shape + (encoder.dims.hidden_dim,))
    h_prev = initial_hidden(encoder, feats)
    for t in range(inputs.shape[1]):
        h[:, t] = h_prev = recurrent_step(encoder, h_prev, inputs[:, t])
    return EncodedPairs(h=h, targets=targets, lengths=lengths)


def encoded_batches(encoder: ModelParams, pairs: Sequence, batches: Sequence[np.ndarray],
                    batch_size: int) -> Iterator[EncodedPairs]:
    """The encoded states of each batch of ``pairs`` in order, encoding each
    block of ``BLOCK_PAIRS // batch_size`` batches when its first batch is
    due, so one block is held at a time."""
    per_block = max(1, BLOCK_PAIRS // batch_size)
    for first in range(0, len(batches), per_block):
        block = batches[first : first + per_block]
        encoded = encode_pairs(encoder, [pairs[i] for idx in block for i in idx])
        start = 0
        for idx in block:
            yield encoded.rows(start, start + len(idx))
            start += len(idx)


def classifier_step(config: FinetuneConfig, frozen: FrozenReference | None = None):
    """The fine-tune's batch loss ``(params, batch: EncodedPairs) -> LossOutput``.

    Only the classifier receives gradients.  "wft" needs ``frozen``, whose
    embedding and encoder must be those that encoded the batch.
    """
    wft = config.method == "wft"
    if not wft:
        terms = {"sft": lambda: ce_terms, "fl": lambda: focal_terms(config.gamma),
                 "afl": lambda: anti_focal_terms(config.gamma, config.alpha)}[config.method]()

    def batch_loss(params, batch):
        logp = log_softmax_temp(logits_from_hidden(params, batch.h), 1.0)
        frame = (batch.targets, batch.mask, batch.lengths)
        if wft:
            logp_ref = log_softmax_temp(logits_from_hidden(frozen.params, batch.h),
                                        frozen.beta_prime)
            per_item, d_logits = bp_head(logp, logp_ref, *frame)
        else:
            per_item, d_logits = pointwise_head(logp, *frame, terms)
        return LossOutput(loss=float(per_item.mean()), grads=classifier_grads(batch.h, d_logits),
                          details={"per_item": per_item})

    return batch_loss


def finetune(checkpoint: ModelParams, data: DataBundle, config: FinetuneConfig,
             seed: int) -> FinetuneResult:
    """One classifier-only epoch over the training references.

    The checkpoint's vocabulary must be the one built from ``data``, as the
    CLI checks when it loads the checkpoint.  The data order is a single
    seeded shuffle.  The returned parameters share the checkpoint's
    embedding and encoder bytes; for "wft" the frozen copy of the checkpoint
    is returned alongside.
    """
    config.validate()
    params = checkpoint.copy()
    frozen = FrozenReference(checkpoint, config.beta_prime) if config.method == "wft" else None
    step = classifier_step(config, frozen)
    pairs = reference_pairs(data.train)
    batches = epoch_batches(stage_rng(seed, f"finetune:{config.method}"), len(pairs),
                            config.batch_size)
    log = sgd_pass(params, encoded_batches(checkpoint, pairs, batches, config.batch_size),
                   config.lr, step)
    return FinetuneResult(params=params, frozen=frozen, log=mean_loss_log([log]))


@dataclass
class SweepResult:
    best: dict
    best_result: FinetuneResult
    rows: list[dict]


def sweep(checkpoint: ModelParams, data: DataBundle, stats: CiderCorpusStats,
          points: Sequence[FinetuneConfig], seed: int,
          decode_config: DecodeConfig) -> SweepResult:
    """Fine-tune each point, decode the validation split with
    ``decode_config`` and keep the best R@1, as the module docstring says.
    An empty point list raises ValueError."""
    if not points:
        raise ValueError("empty sweep: no fine-tune points")

    def sort_key(row):
        bp = row["beta_prime"] if row["beta_prime"] != "" else 0.0
        return (-row["r_at_1"], row["lr"], bp)

    rows = []
    best = best_result = None
    for config in points:
        result = finetune(checkpoint, data, config, seed)
        decoded = decode_dataset(result.params, data.val, decode_config, frozen=result.frozen)
        report = evaluate([dec.tokens for dec in decoded], data.val, checkpoint.vocab, stats,
                          ks=(1,))
        row = {
            "method": config.method,
            "lr": config.lr,
            "beta_prime": config.beta_prime if config.method == "wft" else "",
            "r_at_1": report.r_at[1],
            "unique_1": report.unique_1,
            "cider": report.cider,
        }
        rows.append(row)
        # only the best model so far is kept; a tie keeps the earlier row
        if best is None or sort_key(row) < sort_key(best):
            best, best_result = row, result
    return SweepResult(best=best, best_result=best_result, rows=rows)
