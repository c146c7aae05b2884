"""Greedy, beam, nucleus, and bias-product decoding.

All decoders terminate within ``max_len`` steps, never mutate the model, and
break score ties toward the lowest token id (greedy/nucleus) or the
lexicographically smaller token-id sequence (beam).  Beam search keeps
summed log-probabilities without length normalization; hypotheses that emit
<eos> retire from the beam, and the greedy rollout is always included in the
final pool so the returned hypothesis never scores below it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .corpus import Dataset, ImageRecord, atomic_write
from .losses import FrozenReference, bp_log_probs, check_compatible
from .model import (
    ModelParams,
    initial_hidden,
    log_softmax_temp,
    logits_from_hidden,
    recurrent_step,
)


@dataclass
class DecodeConfig:
    method: str = "beam"        # greedy | beam | nucleus | bp
    beam_size: int = 5
    nucleus_p: float = 0.95
    max_len: int | None = None  # defaults to the model's max_len
    beta: float = 1.0
    beta_prime: float = 1.0     # used when building the frozen reference for bp
    bp_base: str = "beam"       # search strategy driving bp decoding
    seed: int | None = None     # nucleus sampling only

    def validate(self) -> None:
        if self.method not in ("greedy", "beam", "nucleus", "bp"):
            raise ValueError(f"unknown decode method {self.method!r}")
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if not 0.0 < self.nucleus_p <= 1.0:
            raise ValueError("nucleus_p must lie in (0, 1]")
        if self.bp_base not in ("greedy", "beam"):
            raise ValueError(f"bp_base must be greedy or beam, got {self.bp_base!r}")


@dataclass
class Decoded:
    ids: list[int]        # emitted token ids, <eos> stripped
    tokens: list[str]
    logprob: float        # summed step log-probs, including the <eos> step

    def text(self) -> str:
        return " ".join(self.tokens)


class _PolicyStepper:
    """Step-wise log-probabilities of a single model."""

    def __init__(self, params: ModelParams, beta: float):
        self.params = params
        self.beta = beta
        self.eos_id = params.vocab.eos_id

    def start(self, features: np.ndarray) -> np.ndarray:
        """States after <bos>, one row per feature row."""
        h0 = initial_hidden(self.params, features)
        bos = np.full(len(h0), self.params.vocab.bos_id, dtype=np.int64)
        return recurrent_step(self.params, h0, bos)

    def logprobs(self, state: np.ndarray) -> np.ndarray:
        return log_softmax_temp(logits_from_hidden(self.params, state), self.beta)

    def advance(self, state: np.ndarray, token_ids: np.ndarray) -> np.ndarray:
        return recurrent_step(self.params, state, token_ids)

    def select(self, state: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return state[rows]


class _BiasProductStepper:
    """Step-wise log-probabilities of the renormalized product of the
    trainable model and a frozen reference."""

    def __init__(self, params: ModelParams, frozen: FrozenReference, beta: float):
        check_compatible(params, frozen)
        self.main = _PolicyStepper(params, beta)
        self.ref = _PolicyStepper(frozen.params, frozen.beta_prime)
        self.eos_id = params.vocab.eos_id

    def start(self, features):
        return (self.main.start(features), self.ref.start(features))

    def logprobs(self, state):
        return bp_log_probs(self.main.logprobs(state[0]), self.ref.logprobs(state[1]))

    def advance(self, state, token_ids):
        return (self.main.advance(state[0], token_ids),
                self.ref.advance(state[1], token_ids))

    def select(self, state, rows):
        return (state[0][rows], state[1][rows])


def _finish(ids: list[int], logprob: float, vocab) -> Decoded:
    emitted = ids[:-1] if ids and ids[-1] == vocab.eos_id else ids
    return Decoded(ids=list(emitted), tokens=vocab.words(emitted), logprob=float(logprob))


def _rollout_one(stepper, features: np.ndarray, max_len: int,
                 choose: Callable[[np.ndarray], int]) -> tuple[list[int], float]:
    """Single-image rollout through any stepper; ``choose(lp)`` picks the
    next token id from the step log-probs.  Returns the ids (the final
    <eos> included) and their summed log-prob."""
    state = stepper.start(features)
    ids: list[int] = []
    total = 0.0
    for _ in range(max_len):
        lp = stepper.logprobs(state)[0]
        token = int(choose(lp))
        total += float(lp[token])
        ids.append(token)
        if token == stepper.eos_id:
            break
        state = stepper.advance(state, np.array([token]))
    return ids, total


def _greedy(stepper, features: np.ndarray, max_len: int) -> tuple[list[int], float]:
    # np.argmax takes the first maximum: the lowest id on ties
    return _rollout_one(stepper, features, max_len, np.argmax)


def _beam(stepper, features: np.ndarray, max_len: int, beam_size: int) -> tuple[list[int], float]:
    # alive hypotheses are kept sorted lexicographically by token sequence so
    # that a stable sort on scores realizes the (score, sequence) tie rule
    alive_seqs: list[tuple[int, ...]] = [()]
    alive_scores = np.array([0.0])
    state = stepper.start(features)
    pool: list[tuple[float, tuple[int, ...]]] = []

    for _ in range(max_len):
        lp = stepper.logprobs(state)                      # (n_alive, V)
        scores = alive_scores[:, None] + lp
        flat = scores.ravel()
        order = np.argsort(-flat, kind="stable")[: beam_size]
        n_vocab = lp.shape[1]

        new_seqs, new_rows, new_tokens, new_scores = [], [], [], []
        for pos in order:
            hyp, token = divmod(int(pos), n_vocab)
            seq = alive_seqs[hyp] + (token,)
            if token == stepper.eos_id:
                pool.append((float(flat[pos]), seq))
            else:
                new_seqs.append(seq)
                new_rows.append(hyp)
                new_tokens.append(token)
                new_scores.append(float(flat[pos]))
        if not new_seqs:
            alive_seqs, alive_scores = [], np.array([])
            break
        lex = sorted(range(len(new_seqs)), key=lambda i: new_seqs[i])
        alive_seqs = [new_seqs[i] for i in lex]
        alive_scores = np.array([new_scores[i] for i in lex])
        state = stepper.select(state, np.array([new_rows[i] for i in lex]))
        state = stepper.advance(state, np.array([new_tokens[i] for i in lex]))

    pool.extend(zip(alive_scores.tolist(), alive_seqs))
    greedy_ids, greedy_score = _greedy(stepper, features, max_len)
    pool.append((greedy_score, tuple(greedy_ids)))
    best_score, best_seq = min(pool, key=lambda item: (-item[0], item[1]))
    return list(best_seq), best_score


def _nucleus(stepper, features: np.ndarray, max_len: int, p_threshold: float,
             rng: np.random.Generator) -> tuple[list[int], float]:
    def choose(lp):
        kept, weights = nucleus_set(np.exp(lp), p_threshold)
        draw = np.searchsorted(np.cumsum(weights), rng.random(), side="right")
        return kept[min(draw, len(kept) - 1)]

    return _rollout_one(stepper, features, max_len, choose)


def nucleus_set(probs: np.ndarray, p_threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Smallest prefix of probability-sorted tokens with mass >= p_threshold,
    with the kept probabilities renormalized.  Probability ties keep the
    lower token id first."""
    order = np.argsort(-probs, kind="stable")
    csum = np.cumsum(probs[order])
    k = int(np.searchsorted(csum, p_threshold, side="left")) + 1
    k = min(k, len(order))
    kept = order[:k]
    weights = probs[kept]
    return kept, weights / weights.sum()


def _resolve_max_len(params: ModelParams, config: DecodeConfig) -> int:
    max_len = config.max_len if config.max_len is not None else params.dims.max_len
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    return max_len


def decode_greedy(params: ModelParams, image: ImageRecord, config: DecodeConfig) -> Decoded:
    config.validate()
    ids, logprob = _greedy(_PolicyStepper(params, config.beta), image.features,
                           _resolve_max_len(params, config))
    return _finish(ids, logprob, params.vocab)


def decode_beam(params: ModelParams, image: ImageRecord, config: DecodeConfig) -> Decoded:
    config.validate()
    ids, logprob = _beam(_PolicyStepper(params, config.beta), image.features,
                         _resolve_max_len(params, config), config.beam_size)
    return _finish(ids, logprob, params.vocab)


def decode_nucleus(params: ModelParams, image: ImageRecord, config: DecodeConfig,
                   rng: np.random.Generator) -> Decoded:
    config.validate()
    ids, logprob = _nucleus(_PolicyStepper(params, config.beta), image.features,
                            _resolve_max_len(params, config), config.nucleus_p, rng)
    return _finish(ids, logprob, params.vocab)


def decode_bp(params: ModelParams, frozen: FrozenReference | None, image: ImageRecord,
              config: DecodeConfig) -> Decoded:
    """Greedy or beam decoding over the bias-product distribution."""
    if frozen is None:
        raise ValueError("bp decoding requires a frozen reference model")
    config.validate()
    stepper = _BiasProductStepper(params, frozen, config.beta)
    max_len = _resolve_max_len(params, config)
    if config.bp_base == "greedy":
        ids, logprob = _greedy(stepper, image.features, max_len)
    else:
        ids, logprob = _beam(stepper, image.features, max_len, config.beam_size)
    return _finish(ids, logprob, params.vocab)


def rollout_batch(params: ModelParams, feats: np.ndarray, beta: float, max_len: int,
                  choose: Callable[[np.ndarray], np.ndarray],
                  ) -> tuple[list[list[int]], list[list[float]], np.ndarray]:
    """Batched left-to-right rollout of one model over a feature batch.

    ``choose(lp)`` picks every row's next token from the (n, V) step
    log-probs.  A row stops at its first <eos>; finished rows are fed <eos>
    until the whole batch is done.  Returns, per row, the emitted ids (<eos>
    stripped), the log-prob of every step taken (the <eos> step included)
    and whether the row emitted <eos>.
    """
    stepper = _PolicyStepper(params, beta)
    state = stepper.start(feats)
    n, eos = len(state), params.vocab.eos_id
    done = np.zeros(n, dtype=bool)
    ids: list[list[int]] = [[] for _ in range(n)]
    logps: list[list[float]] = [[] for _ in range(n)]
    for _ in range(max_len):
        lp = stepper.logprobs(state)
        tokens = choose(lp)
        step_lp = lp[np.arange(n), tokens]
        for i in range(n):
            if done[i]:
                continue
            logps[i].append(float(step_lp[i]))
            if tokens[i] == eos:
                done[i] = True
            else:
                ids[i].append(int(tokens[i]))
        if done.all():
            break
        state = stepper.advance(state, np.where(done, eos, tokens))
    return ids, logps, done


def greedy_rollout_batch(params: ModelParams, feats: np.ndarray, beta: float,
                         max_len: int) -> tuple[list[list[int]], np.ndarray]:
    """Vectorized greedy decoding for a feature batch (used as the reward
    baseline and for fast whole-split decoding).  <eos> is stripped from the
    returned id lists; log-probs include the <eos> step."""
    ids, logps, _ = rollout_batch(params, feats, beta, max_len,
                                  lambda lp: np.argmax(lp, axis=1))
    # Python's sum adds in step order, as a running total does; np.sum pairs
    # terms differently and could change the last bit
    return ids, np.array([sum(steps, 0.0) for steps in logps])


def decode_dataset(params: ModelParams, dataset: Dataset, config: DecodeConfig,
                   frozen: FrozenReference | None = None,
                   rng: np.random.Generator | None = None) -> list[Decoded]:
    """Decode every record of a split with the configured method."""
    config.validate()
    if config.method == "greedy":
        feats = np.stack([rec.features for rec in dataset.records])
        seqs, totals = greedy_rollout_batch(params, feats, config.beta,
                                            _resolve_max_len(params, config))
        return [_finish(seq, total, params.vocab) for seq, total in zip(seqs, totals)]
    if config.method == "nucleus":
        if rng is None:
            rng = np.random.default_rng(config.seed)
        return [decode_nucleus(params, rec, config, rng) for rec in dataset.records]
    if config.method == "bp":
        return [decode_bp(params, frozen, rec, config) for rec in dataset.records]
    return [decode_beam(params, rec, config) for rec in dataset.records]


def save_captions(path, dataset: Dataset, decoded: Sequence[Decoded]) -> None:
    """One line per image: id, caption text, total log-prob."""
    with atomic_write(path) as fh:
        for rec, dec in zip(dataset.records, decoded):
            fh.write(json.dumps(
                {"id": rec.id, "caption": dec.text(), "logprob": dec.logprob},
                separators=(",", ":")) + "\n")


def load_captions(path) -> dict[int, list[str]]:
    """id -> caption tokens, read back from a caption file."""
    captions = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            captions[int(obj["id"])] = obj["caption"].split()
    return captions
