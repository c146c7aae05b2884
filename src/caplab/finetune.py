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
pass of its own.  The state at a position depends only on the image and the
input prefix up to it, and an image's references share their opening words,
so the fine-tune encodes each distinct (image, input prefix) once, into a
*prefix table* (``encode_pairs``): one recurrent step per depth over that
depth's distinct prefixes, and an index from each pair's positions to its
rows.  Each batch gathers its states from the table and reads them through
the trainable classifier and, for "wft", through the frozen copy's
classifier, since both models have the same encoder bytes.  At the
benchmark's scale about 28% of the padded positions are distinct and the
table takes about 1.6 MiB; at the default config it takes 16 MiB (22 MiB
with ``rare_mention_rate`` 0.3), where the states of every pair would take
59 MiB.

A sweep encodes the table once and fine-tunes each point its caller lists
on it, decodes the validation split of each with the caller's decoding
settings (bp decoding through the point's frozen copy), and keeps the model
with the best validation retrieval R@1, ties toward the smaller learning
rate and then the smaller reference temperature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cider import CiderCorpusStats
from .corpus import check_count, check_number
from .decode import DecodeConfig, decode_dataset
from .losses import (FrozenReference, LossOutput, anti_focal_terms, bp_head, caption_targets,
                     ce_terms, focal_terms, frame_targets, pointwise_head)
from .metrics import evaluate
from .model import (ModelParams, classifier_grads, initial_hidden, log_softmax_temp,
                    logits_from_hidden, recurrent_step, stage_rng)
from .rl import mean_loss_log, reference_pairs, sgd_epochs
from .synth import DataBundle

FINETUNE_METHODS = ("sft", "wft", "fl", "afl")


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
        for name in ("lr", "beta_prime", "gamma", "alpha"):
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


@dataclass(eq=False)
class PrefixTable:
    """The teacher-forced hidden states of (image, reference) pairs, each
    distinct (image, input prefix) stored once.

    ``states[index[i, t]]`` scores ``targets[i, t]``.  Every pair is framed
    to the longest target, <eos>-padded as in ``forward_sequences``.
    """

    states: np.ndarray   # (nodes, d)
    index: np.ndarray    # (pairs, T) int64 rows of ``states``
    targets: np.ndarray  # (pairs, T) int64
    lengths: np.ndarray  # (pairs,)

    def __len__(self) -> int:
        return len(self.lengths)

    def batch(self, idx) -> EncodedPairs:
        """Pairs ``idx``, cut to their longest target, with their states
        gathered into an array of their own."""
        lengths = self.lengths[idx]
        t_max = lengths.max()
        return EncodedPairs(h=self.states[self.index[idx, :t_max]],
                            targets=self.targets[idx, :t_max], lengths=lengths)


def encode_pairs(encoder: ModelParams, pairs: Sequence) -> PrefixTable:
    """The prefix table of the pairs' teacher-forced inputs.

    At each depth, the distinct (parent row, input id) keys are that depth's
    rows; depth 0's parents are one ``initial_hidden`` row per distinct
    image (pairs share an image when they share its record).  One
    ``recurrent_step`` per depth computes the rows.  Where the rows of the
    cell's (rows, d) @ (d, d) products, its input projections and its
    hidden-state products alike, do not depend on how many rows a product
    has (from two rows up, at the hidden sizes ``model`` names, the default
    64 among them), the states are those a lockstep pass over all pairs
    would compute; at other hidden sizes they are bit-close to them.  Since
    every pair is padded to the same depth, each depth holds a row per
    image.  The table holds ``d`` floats per distinct prefix (the module
    docstring gives its size) and two ``(pairs, T)`` integer arrays.
    """
    records = {id(rec): rec for rec, _ in pairs}  # the distinct images, first seen first
    row_of = {key: row for row, key in enumerate(records)}
    images = np.array([row_of[id(rec)] for rec, _ in pairs])
    feats = np.stack([rec.features for rec in records.values()])
    inputs, targets, lengths = frame_targets(encoder.vocab,
                                             caption_targets(encoder, [ref for _, ref in pairs]))
    n_vocab = len(encoder.vocab)
    index = np.empty_like(inputs)
    parents, ids = [], []
    node, offset = images, 0
    for t in range(inputs.shape[1]):
        keys, node = np.unique(node * n_vocab + inputs[:, t], return_inverse=True)
        parents.append(keys // n_vocab)
        ids.append(keys % n_vocab)
        index[:, t] = offset + node
        offset += len(keys)
    states = np.empty((offset, encoder.dims.hidden_dim))
    h_prev, offset = initial_hidden(encoder, feats), 0
    for parent, step_ids in zip(parents, ids):
        h_prev = recurrent_step(encoder, h_prev[parent], step_ids)
        states[offset : offset + len(h_prev)] = h_prev
        offset += len(h_prev)
    return PrefixTable(states=states, index=index, targets=targets, lengths=lengths)


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


def fit_classifier(checkpoint: ModelParams, table: PrefixTable, config: FinetuneConfig,
                   seed: int) -> FinetuneResult:
    """One classifier-only epoch of ``config`` over the pairs of ``table``,
    which ``checkpoint`` encoded; ``config`` must have passed ``validate``.

    The epoch is one ``rl.sgd_epochs`` epoch over the pair indices of
    ``table``: a single seeded shuffle, and each batch's states gathered by
    ``PrefixTable.batch``.  The returned parameters share the checkpoint's
    embedding and encoder bytes; for "wft" the frozen copy of the checkpoint
    is returned alongside.
    """
    params = checkpoint.copy()
    frozen = FrozenReference(checkpoint, config.beta_prime) if config.method == "wft" else None
    batch_loss = classifier_step(config, frozen)
    history = sgd_epochs(params, len(table), 1, config.lr,
                         stage_rng(seed, f"finetune:{config.method}"), config.batch_size,
                         lambda p, idx: batch_loss(p, table.batch(idx)))
    return FinetuneResult(params=params, frozen=frozen, log=mean_loss_log(history))


def finetune(checkpoint: ModelParams, data: DataBundle, config: FinetuneConfig,
             seed: int) -> FinetuneResult:
    """One classifier-only epoch over the training references: their prefix
    table, then ``fit_classifier``.

    The checkpoint's vocabulary must be the one built from ``data``, as the
    CLI checks when it loads the checkpoint.
    """
    config.validate()
    return fit_classifier(checkpoint, encode_pairs(checkpoint, reference_pairs(data.train)),
                          config, seed)


@dataclass
class SweepResult:
    best: dict
    best_result: FinetuneResult
    rows: list[dict]


def sweep(checkpoint: ModelParams, data: DataBundle, stats: CiderCorpusStats,
          points: Sequence[FinetuneConfig], seed: int,
          decode_config: DecodeConfig) -> SweepResult:
    """Fine-tune each point on one prefix table of the training references,
    decode the validation split with ``decode_config`` and keep the best R@1,
    as the module docstring says.  An empty point list, or any invalid
    point, raises ValueError before any work."""
    if not points:
        raise ValueError("empty sweep: no fine-tune points")
    for config in points:
        config.validate()
    table = encode_pairs(checkpoint, reference_pairs(data.train))

    def sort_key(row):
        bp = row["beta_prime"] if row["beta_prime"] != "" else 0.0
        return (-row["r_at_1"], row["lr"], bp)

    rows = []
    best = best_result = None
    for config in points:
        result = fit_classifier(checkpoint, table, config, seed)
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
