"""Vocabulary construction with frequency statistics, image records and
splits, frequency histograms of caption sets, the atomic file writer every
output of the package goes through, and the two value checks every
settings object uses.

The vocabulary orders regular tokens by descending training-corpus frequency
(ties alphabetical), so the most frequent word has id 0 and frequency rank 1.
The three special tokens are appended after the regular ones.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import secrets
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

UNK = "<unk>"
BOS = "<bos>"
EOS = "<eos>"
SPECIALS = (UNK, BOS, EOS)


def check_count(name: str, value, least: int) -> None:
    """Raise ValueError unless ``value`` is an integer (numpy's too, but not
    a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_number(name: str, value, positive: bool = False, most: float = math.inf) -> None:
    """Raise ValueError unless ``value`` is a finite real number (numpy's too,
    but not a bool) >= 0, or > 0 when ``positive``, and <= ``most``."""
    real = not isinstance(value, bool) and isinstance(value, numbers.Real)
    if not (real and (0 < value if positive else 0 <= value) and value <= most
            and value < math.inf):
        bound = ("> 0" if positive else ">= 0") + (f" and <= {most}" if most < math.inf else "")
        raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")


@contextmanager
def atomic_write(path, binary: bool = False, newline: str | None = None):
    """Open a new temporary file beside ``path`` for writing (UTF-8 text
    unless ``binary``).

    When the block exits normally the file is flushed to disk and renamed
    over ``path`` in one step; when it raises, the temporary file is
    deleted.  Either way ``path`` holds its previous content or the complete
    new one, never a partial write.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    text = {} if binary else {"encoding": "utf-8", "newline": newline}
    try:
        with open(tmp, "xb" if binary else "x", **text) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class Vocabulary:
    """Token/id map with per-token counts from the training references.

    ids are contiguous; ``tokens[i]`` has id ``i``.  Regular tokens come
    first, sorted by (-frequency, token); <unk>/<bos>/<eos> follow.  The
    <unk> count records how many training occurrences fell below the
    ``min_count`` threshold.
    """

    def __init__(self, tokens: Sequence[str], freq: Sequence[int], min_count: int):
        if len(tokens) != len(freq):
            raise ValueError("tokens and freq must have equal length")
        check_count("min_count", min_count, 1)
        if list(tokens[-3:]) != list(SPECIALS):
            raise ValueError("vocabulary must end with the special tokens %s" % (SPECIALS,))
        self.tokens = list(tokens)
        self.freq = [int(c) for c in freq]
        self.min_count = int(min_count)
        self.id_of = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.id_of) != len(self.tokens):
            raise ValueError("duplicate token in vocabulary")
        self.unk_id = self.id_of[UNK]
        self.bos_id = self.id_of[BOS]
        self.eos_id = self.id_of[EOS]

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def n_words(self) -> int:
        """Number of non-special tokens."""
        return len(self.tokens) - len(SPECIALS)

    def is_special_id(self, token_id: int) -> bool:
        return token_id >= self.n_words

    def encode(self, tokens: Iterable[str]) -> list[int]:
        """Map tokens to ids; out-of-vocabulary tokens map to <unk>."""
        return [self.id_of.get(tok, self.unk_id) for tok in tokens]

    def words(self, ids: Iterable[int]) -> list[str]:
        return [self.tokens[i] for i in ids]

    def frequency_rank(self, token: str) -> int:
        """1-based rank by descending training frequency (regular tokens only)."""
        token_id = self.id_of.get(token)
        if token_id is None or self.is_special_id(token_id):
            raise KeyError(f"no frequency rank for {token!r}")
        return token_id + 1

    def hash_hex(self) -> str:
        payload = json.dumps([self.tokens, self.freq, self.min_count]).encode()
        return hashlib.sha256(payload).hexdigest()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Vocabulary)
            and self.tokens == other.tokens
            and self.freq == other.freq
            and self.min_count == other.min_count
        )


def build_vocab(training_references: Iterable[Sequence[str]], min_count: int) -> Vocabulary:
    """Build a Vocabulary from tokenized training references.

    Tokens occurring fewer than ``min_count`` times are dropped; their
    occurrences are tallied under <unk>.
    """
    check_count("min_count", min_count, 1)
    counts = Counter()
    n_refs = 0
    for ref in training_references:
        counts.update(ref)
        n_refs += 1
    if n_refs == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    for special in SPECIALS:
        if special in counts:
            raise ValueError(f"special token {special!r} occurs in the corpus")
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_count),
        key=lambda tok: (-counts[tok], tok),
    )
    dropped_total = sum(c for tok, c in counts.items() if c < min_count)
    tokens = kept + list(SPECIALS)
    freq = [counts[tok] for tok in kept] + [dropped_total, 0, 0]
    return Vocabulary(tokens, freq, min_count)


@dataclass(eq=False)
class ImageRecord:
    """One image: feature vector, reference captions, and the latent
    attribute set the features were generated from."""

    id: int
    features: np.ndarray
    references: list[list[str]]
    attributes: set[str] = field(default_factory=set)

    def validate(self, feature_dim: int | None = None) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 1:
            raise ValueError(f"record {self.id}: features must be a vector")
        if feature_dim is not None and self.features.shape[0] != feature_dim:
            raise ValueError(f"record {self.id}: expected {feature_dim} features")
        if not np.all(np.isfinite(self.features)):
            raise ValueError(f"record {self.id}: non-finite feature")
        if not self.references:
            raise ValueError(f"record {self.id}: no references")
        for ref in self.references:
            if not ref:
                raise ValueError(f"record {self.id}: empty reference")
            if any(tok in SPECIALS for tok in ref):
                raise ValueError(f"record {self.id}: special token inside a stored reference")


@dataclass(eq=False)
class Dataset:
    """A named split of image records with unique ids.

    Do not mutate a split after it is built: ``metrics`` keeps what scoring
    it needs (retrieval index, mapped reference words, CIDEr-D table) keyed
    on the object, so an edited split would be scored against its old
    references.  Build a new ``Dataset`` instead.
    """

    split: str
    records: list[ImageRecord]

    def __post_init__(self):
        seen = set()
        for rec in self.records:
            if rec.id in seen:
                raise ValueError(f"split {self.split!r} repeats image id {rec.id}")
            seen.add(rec.id)

    def __len__(self) -> int:
        return len(self.records)

    def all_references(self) -> list[list[str]]:
        return [ref for rec in self.records for ref in rec.references]


def mapped_references(vocab: Vocabulary, records: Sequence[ImageRecord]) -> list[list[list[str]]]:
    """Each record's references, in record order, with out-of-vocabulary
    words replaced by <unk>, so rewards and metrics operate in the model's
    token space."""
    known = vocab.id_of
    return [[[tok if tok in known else UNK for tok in ref] for ref in rec.references]
            for rec in records]


def record_to_json(rec: ImageRecord) -> str:
    payload = {
        "id": rec.id,
        "features": [float(v) for v in rec.features],
        "references": rec.references,
        "attributes": sorted(rec.attributes),
    }
    return json.dumps(payload, separators=(",", ":"))


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def record_from_json(line: str) -> ImageRecord:
    """The record of one JSON line, not yet validated; ValueError unless the
    line is a JSON object holding the fields ``record_to_json`` writes, each
    of the JSON type it writes and none coerced (``attributes`` may be
    absent).  A feature too large for a float raises OverflowError."""
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("malformed record: not a JSON object")
    try:
        rec_id, features, references = obj["id"], obj["features"], obj["references"]
    except KeyError as exc:
        raise ValueError(f"record has no field {exc}") from None
    attributes = obj.get("attributes", [])
    if type(rec_id) is not int:  # a JSON true is a bool, not an int
        raise ValueError(f"record id must be an integer, got {rec_id!r}")
    if not (isinstance(features, list) and all(type(v) in (int, float) for v in features)):
        raise ValueError(f"record {rec_id}: features must be a list of numbers")
    if not (isinstance(references, list) and all(map(_is_strings, references))):
        raise ValueError(f"record {rec_id}: references must be a list of lists of strings")
    if not _is_strings(attributes):
        raise ValueError(f"record {rec_id}: attributes must be a list of strings")
    return ImageRecord(id=rec_id, features=np.asarray(features, dtype=np.float64),
                       references=references, attributes=set(attributes))


def save_dataset_split(dataset: Dataset, path) -> None:
    """Write one image record per line (documented JSON schema)."""
    with atomic_write(path) as fh:
        for rec in dataset.records:
            fh.write(record_to_json(rec) + "\n")


def load_dataset_split(path, split: str, feature_dim: int) -> Dataset:
    """The split ``save_dataset_split`` wrote to ``path``, each record
    validated to hold ``feature_dim`` features.  A line that is not JSON,
    not such a record, or whose image id an earlier line gave, raises
    ValueError naming the file and the line number, as does a file with no
    record."""
    records, line_of = [], {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = record_from_json(line)
                rec.validate(feature_dim)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}, line {number}: not JSON ({exc})") from None
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{path}, line {number}: {exc}") from None
            if rec.id in line_of:
                raise ValueError(f"{path}, line {number}: image id {rec.id} repeats"
                                 f" line {line_of[rec.id]}")
            line_of[rec.id] = number
            records.append(rec)
    if not records:
        raise ValueError(f"{path} holds no record")
    return Dataset(split=split, records=records)


@dataclass
class FreqHistogram:
    """Relative token frequency of a caption set, binned by ground-truth
    word frequency.

    ``bins[k]`` is the share of caption tokens falling in bin k, where
    regular vocabulary words sorted by descending training frequency are
    split into near-equal contiguous bins (earlier bins absorb the
    remainder).  ``tail`` is the share of tokens excluded from binning
    (<unk> and any special token).
    """

    bins: np.ndarray
    tail: float

    def write_csv(self, path) -> None:
        """Emit (bin_index, relative_frequency) rows; the excluded-token
        share goes in a final row labelled 'tail'."""
        with atomic_write(path) as fh:
            fh.write("bin_index,relative_frequency\n")
            for i, v in enumerate(self.bins):
                fh.write(f"{i},{float(v)!r}\n")
            fh.write(f"tail,{float(self.tail)!r}\n")


def bin_sizes(n_words: int, n_bins: int) -> list[int]:
    base, rem = divmod(n_words, n_bins)
    return [base + 1 if i < rem else base for i in range(n_bins)]


def check_histogram_bins(n_bins: int, vocab: Vocabulary) -> None:
    """Raise ValueError unless ``n_bins`` is an integer in [1, the number of
    regular words]."""
    check_count("n_bins", n_bins, 1)
    if n_bins > vocab.n_words:
        raise ValueError(
            f"n_bins={n_bins} exceeds the {vocab.n_words} non-special vocabulary words"
        )


def freq_histogram(
    captions: Iterable[Sequence[str]], vocab: Vocabulary, n_bins: int = 200
) -> FreqHistogram:
    """Histogram caption tokens into ``n_bins`` ground-truth-frequency bins.

    <unk> is excluded from binning; its mass (plus any stray special token)
    is reported in ``tail`` so that bins + tail account for every token.
    Invariant to caption order.
    """
    check_histogram_bins(n_bins, vocab)
    sizes = bin_sizes(vocab.n_words, n_bins)
    bin_of_id = np.empty(vocab.n_words, dtype=np.int64)
    start = 0
    for b, size in enumerate(sizes):
        bin_of_id[start : start + size] = b
        start += size

    bin_counts = np.zeros(n_bins, dtype=np.float64)
    tail_count = 0
    total = 0
    for caption in captions:
        for token_id in vocab.encode(caption):
            total += 1
            if vocab.is_special_id(token_id):
                tail_count += 1
            else:
                bin_counts[bin_of_id[token_id]] += 1
    if total == 0:
        return FreqHistogram(bins=bin_counts, tail=0.0)
    return FreqHistogram(bins=bin_counts / total, tail=tail_count / total)
