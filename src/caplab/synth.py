"""Synthetic caption corpus with a Zipfian long tail.

Each image carries a few common attributes (small high-frequency pool) and a
few rare attributes (large pool, Zipf-distributed).  Every reference mentions
all common attributes; each rare attribute is mentioned in a fixed fraction
of the image's references and replaced by a generic filler word in the rest.
Rare words are therefore genuinely low-frequency yet discriminative: mention
rates are applied as exact per-image quotas so the realized rank-frequency
tally follows the configured Zipf ordering.

Features deterministically encode the attribute set: a seeded Gaussian
projection of the attribute multi-hot vector plus small noise.  The same
projection is used for all splits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .corpus import Dataset, ImageRecord

FILLER_A = "a"
FILLER_AND = "and"
FILLER_WITH = "with"


@dataclass
class SynthConfig:
    n_train: int = 2000
    n_val: int = 200
    n_test: int = 200
    refs_per_image: int = 5
    feature_dim: int = 32
    n_common: int = 24
    n_rare: int = 260
    n_generic: int = 4
    common_per_image: int = 2
    rare_per_image: int = 2
    zipf_exponent: float = 1.0
    rare_mention_rate: float = 0.7
    noise_std: float = 0.02

    def validate(self) -> None:
        if min(self.n_train, self.n_val, self.n_test) < 1:
            raise ValueError("every split needs at least one image")
        if self.refs_per_image < 1:
            raise ValueError("refs_per_image must be >= 1")
        if self.common_per_image > self.n_common:
            raise ValueError("common attribute pool smaller than common_per_image")
        if self.rare_per_image > self.n_rare:
            raise ValueError("rare attribute pool smaller than rare_per_image")
        if self.n_generic < 1:
            raise ValueError("need at least one generic word")
        if not 0.0 <= self.rare_mention_rate <= 1.0:
            raise ValueError("rare_mention_rate must lie in [0, 1]")
        if self.zipf_exponent < 0:
            raise ValueError("zipf_exponent must be >= 0")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")


@dataclass
class DataBundle:
    train: Dataset
    val: Dataset
    test: Dataset
    config: SynthConfig
    seed: int

    def splits(self) -> dict[str, Dataset]:
        return {"train": self.train, "val": self.val, "test": self.test}


def common_words(config: SynthConfig) -> list[str]:
    return [f"c{i:02d}" for i in range(config.n_common)]


def rare_words(config: SynthConfig) -> list[str]:
    return [f"r{i:03d}" for i in range(config.n_rare)]


def generic_words(config: SynthConfig) -> list[str]:
    return [f"g{i}" for i in range(config.n_generic)]


def zipf_probs(n: int, exponent: float) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=np.float64) ** (-exponent)
    return weights / weights.sum()


def largest_remainder_quota(probs: np.ndarray, total: int) -> np.ndarray:
    """Integer quotas summing to ``total``; preserves the ordering of probs."""
    raw = probs * total
    quota = np.floor(raw).astype(np.int64)
    short = total - int(quota.sum())
    if short > 0:
        # ties on the fractional part go to the lower index (the larger prob)
        order = np.lexsort((np.arange(len(probs)), -(raw - quota)))
        quota[order[:short]] += 1
    return quota


def _deal_rare_attributes(rng, n_images: int, per_image: int, quota: np.ndarray) -> list[list[int]]:
    """Assign each image ``per_image`` distinct rare-attribute indices while
    honouring the per-attribute quotas exactly.

    Slots are laid out attribute-by-attribute and dealt to a random image
    permutation with stride ``n_images``; distinctness holds because no
    quota exceeds the image count.
    """
    if int(quota.max(initial=0)) > n_images:
        raise ValueError(
            "rare-attribute quota exceeds the split size; "
            "increase images or flatten the Zipf exponent"
        )
    slots = np.repeat(np.arange(len(quota)), quota)
    assert len(slots) == n_images * per_image
    perm = rng.permutation(n_images)
    assigned = [[] for _ in range(n_images)]
    for t, attr in enumerate(slots):
        assigned[perm[t % n_images]].append(int(attr))
    return [sorted(attrs) for attrs in assigned]


def reference_tokens(commons: list[str], slot_words: list[str]) -> list[str]:
    """Template sentence: 'a C and a C with a X and a X ...'."""
    tokens: list[str] = []
    for i, word in enumerate(commons):
        if i > 0:
            tokens.append(FILLER_AND)
        tokens += [FILLER_A, word]
    for i, word in enumerate(slot_words):
        tokens.append(FILLER_WITH if i == 0 else FILLER_AND)
        tokens += [FILLER_A, word]
    return tokens


def _mention_count(rate: float, n_refs: int) -> int:
    return min(n_refs, int(rate * n_refs + 0.5))


def _generate_split(
    rng, config: SynthConfig, split: str, n_images: int, id_offset: int, proj: np.ndarray
) -> Dataset:
    commons = common_words(config)
    rares = rare_words(config)
    generics = generic_words(config)
    probs = zipf_probs(config.n_rare, config.zipf_exponent)
    quota = largest_remainder_quota(probs, n_images * config.rare_per_image)
    rare_assignment = _deal_rare_attributes(rng, n_images, config.rare_per_image, quota)
    n_refs = config.refs_per_image
    k_mention = _mention_count(config.rare_mention_rate, n_refs)

    records = []
    for i in range(n_images):
        common_idx = np.sort(rng.choice(config.n_common, size=config.common_per_image, replace=False))
        rare_idx = rare_assignment[i]
        img_commons = [commons[j] for j in common_idx]
        img_rares = [rares[j] for j in rare_idx]

        # which references mention each rare attribute (exact quota per image)
        mentioned = np.zeros((len(rare_idx), n_refs), dtype=bool)
        for s in range(len(rare_idx)):
            if k_mention > 0:
                mentioned[s, rng.choice(n_refs, size=k_mention, replace=False)] = True

        references = []
        for ref_i in range(n_refs):
            slot_words = []
            for s, rare in enumerate(img_rares):
                if mentioned[s, ref_i]:
                    slot_words.append(rare)
                else:
                    slot_words.append(generics[int(rng.integers(config.n_generic))])
            references.append(reference_tokens(img_commons, slot_words))

        multihot = np.zeros(config.n_common + config.n_rare, dtype=np.float64)
        multihot[common_idx] = 1.0
        for j in rare_idx:
            multihot[config.n_common + j] = 1.0
        features = multihot @ proj + config.noise_std * rng.normal(size=config.feature_dim)

        rec = ImageRecord(
            id=id_offset + i,
            features=features,
            references=references,
            attributes=set(img_commons) | set(img_rares),
        )
        rec.validate(config.feature_dim)
        records.append(rec)
    return Dataset(split=split, records=records, seed=None, config=asdict(config))


def generate_synthetic_dataset(config: SynthConfig, seed: int) -> DataBundle:
    """Generate disjoint train/val/test splits; bit-identical for a fixed
    (config, seed)."""
    config.validate()
    rng = np.random.default_rng(seed)
    n_attr = config.n_common + config.n_rare
    proj = rng.normal(0.0, 0.5, size=(n_attr, config.feature_dim))
    offsets = {
        "train": 0,
        "val": config.n_train,
        "test": config.n_train + config.n_val,
    }
    train = _generate_split(rng, config, "train", config.n_train, offsets["train"], proj)
    val = _generate_split(rng, config, "val", config.n_val, offsets["val"], proj)
    test = _generate_split(rng, config, "test", config.n_test, offsets["test"], proj)
    for ds in (train, val, test):
        ds.seed = seed
    return DataBundle(train=train, val=val, test=test, config=config, seed=seed)
