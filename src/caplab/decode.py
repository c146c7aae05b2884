"""Greedy, beam, nucleus, and bias-product decoding; ``decode_dataset`` is
the one dispatch, which picks the decoder by ``DecodeConfig.method``.

All decoders terminate within ``max_len`` steps, never mutate the model, and
break score ties toward the lowest token id (greedy/nucleus) or the
lexicographically smaller token-id sequence (beam).  Beam search keeps
summed log-probabilities without length normalization; hypotheses that emit
<eos> retire from the beam, and the greedy rollout is always included in the
final pool so the returned hypothesis never scores below it.

Greedy and beam search decode a whole split in lockstep: the alive
hypotheses of every image share one (rows, d) state, so each step makes one
recurrent step and one log-softmax for the split.  The single-image
decoders, ``decode_beam`` and ``decode_bp``, are ``decode_dataset`` run on a
split of one.  Nucleus sampling draws
from one generator, seeded by ``DecodeConfig.seed``, image by image, so
``decode_dataset`` runs it as a one-row loop over the split's records.

An image's alive rows stay contiguous and in lexicographic order of their
sequences, so in the image's flattened candidate row the index
``hyp * V + token`` orders the extended sequences lexicographically too; a
stable descending sort of that row (ties keep the lower index) therefore
realizes the (score desc, sequence asc) rule, and the kept picks, in index
order, are the next beam already in lexicographic order.  Images with fewer
alive rows than the step's largest beam are padded with -inf candidates
that are never kept.

The greedy rollout is carried by the beam: each image's greedy path starts
at its root row and steps to the row's argmax child, and while that child
is among the kept picks the beam scores it with the same step-order sum a
greedy rollout makes.  Only the images whose greedy child was not kept are
rolled out again, over their own features.  With beam size 1 the greedy
child is always the kept pick, so no second recurrence runs.

Bias-product (bp) decoding is beam search through the frozen reference,
over the renormalized product of the model at β and the reference at β′.
It runs one recurrence and reads each state through both classifiers.
That is exact only when both models compute the same states, so the frozen
reference must share the model's embedding and encoder byte for byte, as
it does after a classifier-only fine-tune; any other reference is rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .corpus import Dataset, ImageRecord, atomic_write, check_count, check_number
from .losses import FrozenReference, bp_log_probs, check_shared_encoder
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
    beta_prime: float = 1.0     # CLI bp only: β′ when the --frozen checkpoint records none
    bp_base: str = "beam"       # bp decoding searches by beam only
    seed: int = 0               # nucleus sampling only

    def validate(self) -> None:
        if self.method not in ("greedy", "beam", "nucleus", "bp"):
            raise ValueError(f"method must be greedy, beam, nucleus or bp, got {self.method!r}")
        check_count("beam_size", self.beam_size, 1)
        if self.max_len is not None:
            check_count("max_len", self.max_len, 1)
        check_number("nucleus_p", self.nucleus_p, positive=True, most=1.0)
        check_number("beta", self.beta)
        check_number("beta_prime", self.beta_prime)
        check_count("seed", self.seed, 0)
        if self.bp_base != "beam":
            raise ValueError(f"bp_base must be beam, got {self.bp_base!r}")


@dataclass
class Decoded:
    ids: list[int]        # emitted token ids, <eos> stripped
    tokens: list[str]
    logprob: float        # summed step log-probs, including the <eos> step

    def text(self) -> str:
        return " ".join(self.tokens)


class _PolicyStepper:
    """Step-wise log-probabilities of a model at inverse temperature β or,
    given a frozen reference that shares its encoder, of the renormalized
    bias product with that reference at β′, read from the same states."""

    def __init__(self, params: ModelParams, beta: float, frozen: FrozenReference | None = None):
        self.params = params
        self.beta = beta
        self.frozen = frozen
        self.eos_id = params.vocab.eos_id

    def start(self, features: np.ndarray) -> np.ndarray:
        """States after <bos>, one row per feature row."""
        h0 = initial_hidden(self.params, features)
        bos = np.full(len(h0), self.params.vocab.bos_id, dtype=np.int64)
        return recurrent_step(self.params, h0, bos)

    def logprobs(self, state: np.ndarray) -> np.ndarray:
        lp = log_softmax_temp(logits_from_hidden(self.params, state), self.beta)
        if self.frozen is None:
            return lp
        ref = log_softmax_temp(logits_from_hidden(self.frozen.params, state),
                               self.frozen.beta_prime)
        return bp_log_probs(lp, ref)

    def advance(self, state: np.ndarray, token_ids: np.ndarray) -> np.ndarray:
        return recurrent_step(self.params, state, token_ids)


def _finish(ids: list[int], logprob: float, vocab) -> Decoded:
    emitted = ids[:-1] if ids and ids[-1] == vocab.eos_id else ids
    return Decoded(ids=list(emitted), tokens=vocab.words(emitted), logprob=float(logprob))


def _greedy(stepper, feats: np.ndarray, max_len: int,
            ) -> tuple[list[list[int]], np.ndarray, np.ndarray]:
    """Batched greedy rollout through any stepper: per row, the emitted ids
    (<eos> stripped), the summed step log-probs (the <eos> step included)
    and whether the row emitted <eos>.  np.argmax takes the first maximum:
    the lowest id on ties.  A row stops at its first <eos>; finished rows
    are fed <eos> until the whole batch is done."""
    state = stepper.start(feats)
    n, eos = len(feats), stepper.eos_id
    rows = np.arange(n)
    done = np.zeros(n, dtype=bool)
    chosen = np.full((n, max_len), eos, dtype=np.int64)
    # a running total adds in step order; adding 0.0 leaves finished rows as they are
    totals = np.zeros(n)
    for step in range(max_len):
        lp = stepper.logprobs(state)
        tokens = np.argmax(lp, axis=1)
        totals += np.where(done, 0.0, lp[rows, tokens])
        done |= tokens == eos
        chosen[:, step] = np.where(done, eos, tokens)
        if done.all():
            break
        if step + 1 < max_len:
            state = stepper.advance(state, chosen[:, step])
    lengths = np.where(done, (chosen == eos).argmax(axis=1), max_len)
    return [row[:k] for row, k in zip(chosen.tolist(), lengths.tolist())], totals, done


def _top_k(cand: np.ndarray, k: int) -> np.ndarray:
    """Per row, the column indices of the k largest entries, largest first
    and the lower index first among equals: a stable descending sort cut at
    k.  A partition finds each row's k-th largest value, and only the
    entries at or above it (ties included) are sorted.  NaN entries are
    kept too and sort last, as in a full argsort, so a row never has fewer
    than k survivors."""
    n_rows, n_cols = cand.shape
    if k >= n_cols:
        return np.argsort(-cand, axis=1, kind="stable")
    neg = -cand
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1:k]
    flat = np.flatnonzero(~(neg > kth))           # survivors in row-major order
    rows, cols = np.divmod(flat, n_cols)
    order = np.lexsort((cols, neg.ravel()[flat], rows))
    first = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))[:-1]))
    return cols[order][first[:, None] + np.arange(k)]


def _beam(stepper, feats: np.ndarray, max_len: int,
          beam_size: int) -> list[tuple[list[int], float]]:
    """Lockstep beam search over every feature row; per row, the best ids
    (a final <eos> included) and their summed log-prob.  Each image's
    greedy path is followed in the beam; its child is the np.argmax token
    (the lowest id on ties), as in ``_greedy``.  Only the images whose
    greedy child was not kept are rolled out again."""
    n, eos = len(feats), stepper.eos_id
    state = stepper.start(feats)
    owner = np.arange(n)                 # image of each alive row, non-decreasing
    seqs = np.empty((n, 0), dtype=np.int64)   # ids of each alive row so far
    scores = np.zeros(n)
    greedy_row = np.arange(n)            # per image, the alive row on its greedy path, or -1
    left = np.zeros(n, dtype=bool)       # images whose greedy child was not kept
    pools: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in range(n)]

    for step in range(max_len):
        lp = stepper.logprobs(state)                      # (rows, V)
        n_rows, n_vocab = lp.shape
        first = np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))
        counts = np.diff(np.append(first, n_rows))
        images = owner[first]
        group = np.repeat(np.arange(len(images)), counts)
        cand = np.full((len(images), counts.max(), n_vocab), -np.inf)
        cand[group, np.arange(n_rows) - first[group]] = scores[:, None] + lp
        cand = cand.reshape(len(images), -1)

        # index order within an image is lexicographic order of the new sequences
        picks = np.sort(_top_k(cand, beam_size), axis=1)
        at, col = np.nonzero(picks < (counts * n_vocab)[:, None])   # drop padded slots
        pos = picks[at, col]
        parent = first[at] + pos // n_vocab
        tokens = pos % n_vocab
        totals = cand[at, pos]
        retired = tokens == eos

        # (parent, token) keys of the picks increase, so each greedy child is
        # found by one search
        following = np.flatnonzero(greedy_row >= 0)
        rows = greedy_row[following]
        wanted = rows * n_vocab + np.argmax(lp[rows], axis=1)
        keys = parent * n_vocab + tokens
        child = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        kept = keys[child] == wanted
        left[following[~kept]] = True
        alive_row = np.cumsum(~retired) - 1
        greedy_row[following] = np.where(kept & ~retired[child], alive_row[child], -1)

        for i, row, total in zip(images[at[retired]].tolist(),
                                 seqs[parent[retired]].tolist(), totals[retired].tolist()):
            pools[i].append((total, tuple(row) + (eos,)))
        alive = ~retired
        owner, parent, tokens = images[at[alive]], parent[alive], tokens[alive]
        seqs = np.concatenate((seqs[parent], tokens[:, None]), axis=1)
        scores = totals[alive]
        if not len(owner):
            break
        if step + 1 < max_len:
            state = stepper.advance(state[parent], tokens)

    for i, total, seq in zip(owner.tolist(), scores.tolist(), seqs.tolist()):
        pools[i].append((total, tuple(seq)))
    rerun = np.flatnonzero(left)
    if len(rerun):
        for i, seq, total, ended in zip(rerun.tolist(),
                                        *_greedy(stepper, feats[rerun], max_len)):
            pools[i].append((total, tuple(seq) + ((eos,) if ended else ())))
    best = [min(pool, key=lambda item: (-item[0], item[1])) for pool in pools]
    return [(list(seq), total) for total, seq in best]


def _nucleus(stepper, features: np.ndarray, max_len: int, p_threshold: float,
             rng: np.random.Generator) -> tuple[list[int], float]:
    """One image's nucleus sample: the emitted ids (<eos> stripped) and their
    summed log-prob, the <eos> step included.  Sampling draws from ``rng``
    image by image, so it runs as a plain one-row loop."""
    state = stepper.start(np.atleast_2d(features))
    ids: list[int] = []
    total = 0.0
    for step in range(max_len):
        lp = stepper.logprobs(state)[0]
        kept, weights = nucleus_set(np.exp(lp), p_threshold)
        draw = np.searchsorted(np.cumsum(weights), rng.random(), side="right")
        token = int(kept[min(draw, len(kept) - 1)])
        total += float(lp[token])
        if token == stepper.eos_id:
            break
        ids.append(token)
        if step + 1 < max_len:
            state = stepper.advance(state, np.array([token]))
    return ids, total


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


def decode_beam(params: ModelParams, image: ImageRecord, config: DecodeConfig) -> Decoded:
    """Beam decoding of one image: ``decode_dataset`` run on a split of one."""
    return decode_dataset(params, Dataset("val", [image]), replace(config, method="beam"))[0]


def decode_bp(params: ModelParams, frozen: FrozenReference | None, image: ImageRecord,
              config: DecodeConfig) -> Decoded:
    """Beam decoding of one image through the frozen reference's bias
    product: ``decode_dataset`` run on a split of one."""
    return decode_dataset(params, Dataset("val", [image]), replace(config, method="bp"),
                          frozen)[0]


def greedy_rollout_batch(params: ModelParams, feats: np.ndarray, beta: float,
                         max_len: int) -> tuple[list[list[int]], np.ndarray]:
    """Vectorized greedy decoding for a feature batch (used as the reward
    baseline and for fast whole-split decoding).  <eos> is stripped from the
    returned id lists; log-probs include the <eos> step."""
    ids, totals, _ = _greedy(_PolicyStepper(params, beta), feats, max_len)
    return ids, totals


def decode_dataset(params: ModelParams, dataset: Dataset, config: DecodeConfig,
                   frozen: FrozenReference | None = None) -> list[Decoded]:
    """Decode every record of a split with the configured method: the one
    place that picks a decoder.  bp is beam search through ``frozen``, which
    must share the model's encoder; the other methods ignore ``frozen``.
    Nucleus sampling draws from one generator seeded with ``config.seed``."""
    config.validate()
    if config.method == "bp":
        if frozen is None:
            raise ValueError("bp decoding requires a frozen reference model")
        check_shared_encoder(params, frozen)
    else:
        frozen = None
    if not dataset.records:
        return []
    max_len = params.dims.max_len if config.max_len is None else config.max_len
    feats = np.stack([rec.features for rec in dataset.records])
    if config.method == "greedy":
        found = zip(*greedy_rollout_batch(params, feats, config.beta, max_len))
    elif config.method == "nucleus":
        stepper, rng = _PolicyStepper(params, config.beta), np.random.default_rng(config.seed)
        found = (_nucleus(stepper, row, max_len, config.nucleus_p, rng) for row in feats)
    else:
        found = _beam(_PolicyStepper(params, config.beta, frozen), feats, max_len,
                      config.beam_size)
    return [_finish(ids, logprob, params.vocab) for ids, logprob in found]


def save_captions(path, dataset: Dataset, decoded: Sequence[Decoded]) -> None:
    """One line per image: id, caption text, total log-prob."""
    with atomic_write(path) as fh:
        for rec, dec in zip(dataset.records, decoded):
            fh.write(json.dumps(
                {"id": rec.id, "caption": dec.text(), "logprob": dec.logprob},
                separators=(",", ":")) + "\n")


def load_captions(path) -> dict[int, list[str]]:
    """id -> caption tokens, read back from a caption file.

    A line that is not a JSON object with an integer ``id`` and a string
    ``caption``, or whose id an earlier line gave, raises ValueError naming
    the file and the line number.
    """
    captions = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}, line {number}: not JSON ({exc})") from None
            record = obj if isinstance(obj, dict) else {}
            image_id, caption = record.get("id"), record.get("caption")
            if not (type(image_id) is int and isinstance(caption, str)):  # bool is not an id
                raise ValueError(f"{path}, line {number}: a caption record needs an integer"
                                 ' "id" and a string "caption"')
            if image_id in captions:
                raise ValueError(f"{path}, line {number}: image id {image_id} has a caption"
                                 " on an earlier line")
            captions[image_id] = caption.split()
    return captions
