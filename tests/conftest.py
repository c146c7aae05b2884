import numpy as np
import pytest

from caplab.corpus import ImageRecord, build_vocab
from caplab.model import ModelDims, init_params
from caplab.synth import SynthConfig, generate_synthetic_dataset


@pytest.fixture(scope="session")
def tiny_vocab():
    # five tokens total: a, b + <unk>/<bos>/<eos>
    return build_vocab([["a", "b"], ["b", "a"], ["a", "a"]], min_count=1)


@pytest.fixture(scope="session")
def tiny_dims():
    return ModelDims(hidden_dim=6, feature_dim=4, max_len=8)


@pytest.fixture
def tiny_model(tiny_vocab, tiny_dims):
    return init_params(tiny_vocab, tiny_dims, seed=11, scale=0.3)


@pytest.fixture
def wide_model():
    """A model at the benchmark's dims (hidden 64, features 32, max_len 16)
    over 40 words, with every bias nonzero."""
    vocab = build_vocab([[f"w{i}" for i in range(40)]], min_count=1)
    params = init_params(vocab, ModelDims(hidden_dim=64, feature_dim=32, max_len=16), seed=1,
                         scale=0.3)
    rng = np.random.default_rng(2)
    for name in ("img_b", "bz", "br", "bn", "cls_b"):
        bias = getattr(params, name)
        bias[:] = rng.normal(scale=0.3, size=bias.shape)
    return params


@pytest.fixture
def tiny_image():
    rng = np.random.default_rng(42)
    return ImageRecord(id=0, features=rng.normal(size=4), references=[["a", "b"], ["b", "a"]])


def micro_synth_config(**overrides):
    base = dict(
        n_train=30, n_val=8, n_test=8, refs_per_image=3, feature_dim=6,
        n_common=5, n_rare=12, n_generic=2, common_per_image=2, rare_per_image=2,
        zipf_exponent=1.0, rare_mention_rate=0.7, noise_std=0.02,
    )
    base.update(overrides)
    return SynthConfig(**base)


@pytest.fixture(scope="session")
def micro_bundle():
    return generate_synthetic_dataset(micro_synth_config(), seed=5)
