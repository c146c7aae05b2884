"""Single-epoch, classifier-only fine-tuning of a trained checkpoint, plus
the hyperparameter sweep harness.

Both headline methods update only the classifier weight and bias for one
epoch over the training references: "sft" minimizes the plain CE loss, and
"wft" minimizes the bias-product loss against a frozen copy of the same
checkpoint.  The reweighting baselines "fl" and "afl" run the same protocol
with the focal and anti-focal losses.  Each is softmax regression over
frozen encoder states: a batch gets one teacher-forced pass, and the loss
head shared with the sequence losses reads its hidden states through the
trainable classifier and, for "wft", through the frozen copy's classifier,
since both models have the same encoder bytes.  Sweeps select
hyperparameters by validation retrieval R@1, ties toward the smaller
learning rate and then the smaller reference temperature.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .cider import CiderCorpusStats
from .corpus import build_vocab
from .decode import DecodeConfig, decode_dataset
from .losses import (FrozenReference, LossOutput, anti_focal_terms, bp_head, ce_terms, focal_terms,
                     pointwise_head, teacher_forced)
from .metrics import evaluate
from .model import (ModelParams, TrainScope, backward_sequences, log_softmax_temp,
                    logits_from_hidden, stage_rng)
from .rl import mean_loss_log, pair_step, reference_pairs, sgd_epochs
from .synth import DataBundle

FINETUNE_METHODS = ("sft", "wft", "fl", "afl")


@dataclass
class FinetuneConfig:
    method: str = "sft"
    lr: float = 1e-3
    beta: float = 1.0
    beta_prime: float = 1.0       # wft only
    epochs: int = 1
    batch_size: int = 10
    gamma: float = 1.0            # fl / afl
    alpha: float = 1.0            # afl

    def validate(self) -> None:
        if self.method not in FINETUNE_METHODS:
            raise ValueError(f"unknown fine-tune method {self.method!r}")
        if self.epochs != 1:
            raise ValueError("fine-tuning is single-epoch by definition")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class FinetuneResult:
    params: ModelParams
    frozen: FrozenReference | None
    log: list[dict] = field(default_factory=list)


def check_vocab_hash(checkpoint: ModelParams, data: DataBundle) -> None:
    rebuilt = build_vocab(data.train.all_references(), checkpoint.vocab.min_count)
    if rebuilt.hash_hex() != checkpoint.vocab.hash_hex():
        raise ValueError("checkpoint vocabulary does not match the dataset")


def classifier_step(config: FinetuneConfig, frozen: FrozenReference | None = None):
    """The fine-tune's batch loss ``(params, feats, captions) -> LossOutput``.

    Only the classifier receives gradients.  "wft" needs ``frozen``, whose
    embedding and encoder must be those of ``params``.
    """
    beta, wft = config.beta, config.method == "wft"
    if not wft:
        terms = {"sft": lambda: ce_terms, "fl": lambda: focal_terms(config.gamma),
                 "afl": lambda: anti_focal_terms(config.gamma, config.alpha)}[config.method]()

    def batch_loss(params, feats, captions):
        fwd, logp, targets = teacher_forced(params, feats, captions, beta)
        if wft:
            logp_ref = log_softmax_temp(logits_from_hidden(frozen.params, fwd.h), frozen.beta_prime)
            per_item, d_logits = bp_head(logp, logp_ref, targets, fwd.mask, fwd.lengths, beta)
        else:
            per_item, d_logits = pointwise_head(logp, targets, fwd.mask, fwd.lengths, beta, terms)
        grads = backward_sequences(params, fwd, d_logits, TrainScope.CLASSIFIER_ONLY)
        return LossOutput(loss=float(per_item.mean()), grads=grads, details={"per_item": per_item})

    return batch_loss


def finetune(checkpoint: ModelParams, data: DataBundle, config: FinetuneConfig,
             seed: int) -> FinetuneResult:
    """One classifier-only epoch over the training references.

    The data order is a single seeded shuffle.  The returned parameters share
    the checkpoint's embedding and encoder bytes; for "wft" the frozen copy
    of the checkpoint is returned alongside.
    """
    config.validate()
    check_vocab_hash(checkpoint, data)
    params = checkpoint.copy()
    frozen = FrozenReference(checkpoint, config.beta_prime) if config.method == "wft" else None
    rng = stage_rng(seed, f"finetune:{config.method}")
    history = sgd_epochs(params, reference_pairs(data.train), config.epochs, config.lr, rng,
                         config.batch_size, TrainScope.CLASSIFIER_ONLY,
                         pair_step(classifier_step(config, frozen)))
    return FinetuneResult(params=params, frozen=frozen, log=mean_loss_log(history))


@dataclass
class SweepResult:
    best: dict
    best_result: FinetuneResult
    rows: list[dict]


def sweep_grids(method: str, lr_grid, beta_prime_grid=None) -> tuple[list, list]:
    """The learning-rate and reference-temperature grids a sweep runs.

    The temperature grid is ``[None]`` (the base config's β′) for methods
    without a reference temperature, and for "wft" when no grid is given.
    An empty grid raises ValueError.
    """
    lr_grid = list(lr_grid)
    if not lr_grid:
        raise ValueError("empty learning-rate grid")
    if method != "wft" or beta_prime_grid is None:
        return lr_grid, [None]
    bp_grid = list(beta_prime_grid)
    if not bp_grid:
        raise ValueError("empty beta-prime grid")
    return lr_grid, bp_grid


def sweep(checkpoint: ModelParams, data: DataBundle, stats: CiderCorpusStats,
          method: str, lr_grid, beta_prime_grid=None, seed: int = 0,
          decode_config: DecodeConfig | None = None,
          decode_variant: str = "plain", base_config: FinetuneConfig | None = None) -> SweepResult:
    """Train one model per grid point and pick the best validation R@1.

    Ties go to the smaller learning rate, then the smaller reference
    temperature.  For methods without a reference temperature the grid is
    learning rates only.
    """
    lr_grid, bp_grid = sweep_grids(method, lr_grid, beta_prime_grid)
    if decode_variant not in ("plain", "bp"):
        raise ValueError(f"unknown decode variant {decode_variant!r}")
    if decode_variant == "bp" and method != "wft":
        raise ValueError("bp decoding needs the frozen reference that only wft trains against")
    decode_config = decode_config or DecodeConfig()
    base = base_config or FinetuneConfig()

    rows = []
    results = {}
    for lr in lr_grid:
        for beta_prime in bp_grid:
            config = replace(base, method=method, lr=lr,
                             beta_prime=beta_prime if beta_prime is not None else base.beta_prime)
            result = finetune(checkpoint, data, config, seed)
            if decode_variant == "bp":
                bp_base = decode_config.method if decode_config.method in ("greedy", "beam") else "beam"
                val_config = replace(decode_config, method="bp", bp_base=bp_base)
                decoded = decode_dataset(result.params, data.val, val_config, frozen=result.frozen)
            else:
                decoded = decode_dataset(result.params, data.val, decode_config)
            report = evaluate([dec.tokens for dec in decoded], data.val, checkpoint.vocab, stats,
                              ks=(1,))
            row = {
                "method": method,
                "lr": lr,
                "beta_prime": beta_prime if beta_prime is not None else "",
                "r_at_1": report.r_at[1],
                "unique_1": report.unique_1,
                "cider": report.cider,
            }
            rows.append(row)
            results[(lr, beta_prime)] = result

    def sort_key(row):
        bp = row["beta_prime"] if row["beta_prime"] != "" else 0.0
        return (-row["r_at_1"], row["lr"], bp)

    best = min(rows, key=sort_key)
    best_key = (best["lr"], best["beta_prime"] if best["beta_prime"] != "" else None)
    return SweepResult(best=best, best_result=results[best_key], rows=rows)
