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

from dataclasses import dataclass

import numpy as np

from .corpus import Dataset, ImageRecord, check_count, check_number

FILLER_A = "a"
FILLER_AND = "and"
FILLER_WITH = "with"


@dataclass
class SynthConfig:
    """Sizes and rates of the synthetic world.

    ``rare_mention_rate`` is rounded to a whole number of an image's
    ``refs_per_image`` references by ``_mention_count``: at 5 references
    0.7 gives 4, and 0.3 and 0.4 both give 2; at 3 references 0.7 gives 2.
    """

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
        """Raise ValueError, its message starting with the field's name, on
        the first field out of bounds."""
        for name, least in (("n_train", 1), ("n_val", 1), ("n_test", 1), ("refs_per_image", 1),
                            ("feature_dim", 1), ("n_common", 0), ("n_rare", 0), ("n_generic", 1),
                            ("common_per_image", 0), ("rare_per_image", 0)):
            check_count(name, getattr(self, name), least)
        for per_image, pool in (("common_per_image", "n_common"), ("rare_per_image", "n_rare")):
            if getattr(self, per_image) > getattr(self, pool):
                raise ValueError(f"{per_image} must be <= {pool} ({getattr(self, pool)}),"
                                 f" got {getattr(self, per_image)}")
        if self.common_per_image + self.rare_per_image < 1:
            raise ValueError("common_per_image + rare_per_image must be >= 1, or every"
                             " reference is empty")
        check_number("zipf_exponent", self.zipf_exponent)
        for split in ("n_train", "n_val", "n_test"):
            n_images = getattr(self, split)
            largest = int(rare_quota(self, n_images).max(initial=0))
            if largest > n_images:
                raise ValueError(f"zipf_exponent must be flat enough to give no rare attribute"
                                 f" more images than a split has, got {self.zipf_exponent}, which"
                                 f" gives the most frequent one {largest} in {split} = {n_images}")
        check_number("rare_mention_rate", self.rare_mention_rate, most=1.0)
        check_number("noise_std", self.noise_std)


@dataclass
class DataBundle:
    train: Dataset
    val: Dataset
    test: Dataset
    config: SynthConfig

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


def rare_quota(config: SynthConfig, n_images: int) -> np.ndarray:
    """How many of a split's ``n_images`` images carry each rare attribute:
    the Zipf shares of all their rare slots."""
    return largest_remainder_quota(zipf_probs(config.n_rare, config.zipf_exponent),
                                   n_images * config.rare_per_image)


def _deal_rare_attributes(rng, n_images: int, per_image: int, quota: np.ndarray) -> list[list[int]]:
    """Assign each image ``per_image`` distinct rare-attribute indices while
    honouring the per-attribute quotas exactly.

    Slots are laid out attribute-by-attribute and dealt to a random image
    permutation with stride ``n_images``; distinctness holds because no
    quota exceeds the image count, which ``SynthConfig.validate`` ensures.
    """
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
    quota = rare_quota(config, n_images)
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
    return Dataset(split=split, records=records)


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
    return DataBundle(train=train, val=val, test=test, config=config)
