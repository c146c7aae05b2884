"""The three caplab pipeline stages as benchmark workloads.

Set-up builds everything a workload starts from: the synthetic data, the
vocabulary, the CIDEr-D corpus statistics and a seeded CE checkpoint (one
teacher-forced epoch from ``init_params``).  A workload *unit* is one
training call followed by a validation decode-and-score phase.  Units of one
run repeat the same seeded computation, so their outputs must agree
bit-for-bit; the benchmark checks that and the sanity conditions below, and
counts every training step, decoded image and evaluation as attempted or
failed.

Functions that the tracer wraps are called through their module
(``metrics.evaluate``, not an imported name), so a wrapper installed after
this module is imported still sees the call.
"""

from __future__ import annotations

import importlib
import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from caplab import corpus, decode, losses, metrics, model, rl, synth
from caplab.synth import SynthConfig

# ``caplab.finetune`` is the re-exported function; the module is in sys.modules
finetune = importlib.import_module("caplab.finetune")


@dataclass(frozen=True)
class Scale:
    synth: SynthConfig
    min_count: int
    dims: model.ModelDims
    init_scale: float = 0.1
    batch_size: int = 10
    ce_lr: float = 1.0
    rl_lr: float = 0.05
    samples_per_image: int = 5
    rl_images: int = 100          # SCST trains on this many leading training images
    wft_lr: float = 1e-3          # first point of the default sweep grid
    wft_beta_prime: float = 1.0
    beam_size: int = 5


# Default SynthConfig shape with 200 training and 40 validation images, and
# SCST on the first 100 of them.  A unit then takes 0.35-0.65 s on an idle
# core, shorter than the fast stretches of a shared machine, and repeats
# 30-65 times in a 30-second run (see "Statistics" in README.md).  min_count
# 3 keeps the vocabulary near the size 500 images give at the default 5.
# With CE lr 1.0 the one-epoch checkpoint decodes greedy captions of the same
# length on nearly every seed, so the probes do the same work whatever the
# seed.
SCALES = {
    "bench": Scale(
        synth=SynthConfig(n_train=200, n_val=40, n_test=40),
        min_count=3,
        dims=model.ModelDims(hidden_dim=64, feature_dim=32, max_len=16),
    ),
    # mirrors micro_synth_config in tests/conftest.py; used by the smoke test
    "micro": Scale(
        synth=SynthConfig(n_train=30, n_val=8, n_test=8, refs_per_image=3, feature_dim=6,
                          n_common=5, n_rare=12, n_generic=2),
        min_count=1,
        dims=model.ModelDims(hidden_dim=8, feature_dim=6, max_len=12),
    ),
}


@dataclass
class Setup:
    scale: Scale
    seed: int
    data: synth.DataBundle
    vocab: corpus.Vocabulary
    stats: object
    init: model.ModelParams
    checkpoint: model.ModelParams
    first_loss: float = math.nan  # see first_batch_loss; filled in outside the timed set-up

    def hashes(self) -> tuple[str, str, str]:
        return self.vocab.hash_hex(), self.init.full_hash(), self.checkpoint.full_hash()


def _ce_rng(seed: int) -> np.random.Generator:
    return model.stage_rng(seed, "bench:ce")


def set_up(scale: Scale, seed: int) -> Setup:
    data = synth.generate_synthetic_dataset(replace(scale.synth), seed)
    vocab = corpus.build_vocab(data.train.all_references(), scale.min_count)
    stats = rl.corpus_stats_for(vocab, data.train)
    init_seed = int(model.stage_rng(seed, "bench:init").integers(0, 2**31 - 1))
    init = model.init_params(vocab, scale.dims, init_seed, scale=scale.init_scale)
    checkpoint, _ = rl.train_ce(init, data.train, 1, scale.ce_lr, _ce_rng(seed), scale.batch_size)
    return Setup(scale, seed, data, vocab, stats, init, checkpoint)


def first_batch_loss(s: Setup) -> float:
    """CE loss of the first batch ``train_ce`` draws, at ``init_params``."""
    pairs = rl.reference_pairs(s.data.train)
    first = _ce_rng(s.seed).permutation(len(pairs))[: s.scale.batch_size]
    feats = np.stack([pairs[i][0].features for i in first])
    return losses.ce_batch(s.init, feats, [pairs[i][1] for i in first]).loss


@dataclass
class Unit:
    train_segments: list[float]  # see timed
    eval_segments: list[float]
    train_items: int
    eval_images: int
    attempted: int
    failed: int
    fingerprint: dict

    @property
    def train_s(self) -> float:
        return sum(self.train_segments)

    @property
    def eval_s(self) -> float:
        return sum(self.eval_segments)


class _Ops:
    """Attempted and failed operation counts of one unit."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, count: int, ok: bool) -> None:
        self.attempted += count
        self.failed += 0 if ok else count


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _params_finite(params: model.ModelParams) -> bool:
    return all(np.all(np.isfinite(arr)) for arr in params.arrays().values())


def phase(tracer, name: str):
    """A ``phase.<name>`` span when tracing, else nothing."""
    return tracer.span(f"phase.{name}") if tracer is not None else nullcontext()


@contextmanager
def timed(tracer, ticker, name: str):
    """Time a phase; yields a list that receives its segment durations.

    The phase is cut at every stamp the ticker takes inside it; without a
    ticker it is one segment.
    """
    segments: list[float] = []
    with phase(tracer, name):
        first = len(ticker.stamps) if ticker else 0
        start = perf_counter()
        yield segments
        end = perf_counter()
    stamps = [start, *(ticker.stamps[first:] if ticker else ()), end]
    segments += [b - a for a, b in zip(stamps, stamps[1:])]


def _steps(n_items: int, batch_size: int) -> int:
    return -(-n_items // batch_size)


def _score(s: Setup, decoded, ops: _Ops) -> metrics.MetricsReport:
    """Check each decoded caption, then evaluate them against the split."""
    n_vocab, max_len = len(s.vocab), s.scale.dims.max_len
    for dec in decoded:
        ops.add(1, len(dec.ids) <= max_len and all(0 <= i < n_vocab for i in dec.ids))
    report = metrics.evaluate([dec.tokens for dec in decoded], s.data.val, s.vocab, s.stats)
    ops.add(1, all(0.0 <= r <= 100.0 for r in report.r_at.values())
            and _finite(report.cider, report.oor_mean_rank, report.mean_length))
    return report


def _report_fingerprint(report: metrics.MetricsReport) -> dict:
    return {"unique_1": report.unique_1, "r_at_1": report.r_at[1],
            "oor_mean_rank": report.oor_mean_rank}


def _greedy_probe(s: Setup, params, tracer, ticker, ops: _Ops) -> tuple[list[float], dict]:
    config = decode.DecodeConfig(method="greedy", max_len=s.scale.dims.max_len)
    with timed(tracer, ticker, "eval") as eval_segments:
        report = _score(s, decode.decode_dataset(params, s.data.val, config), ops)
    return eval_segments, _report_fingerprint(report)


def ce_epoch(s: Setup, tracer=None, ticker=None) -> Unit:
    ops = _Ops()
    with timed(tracer, ticker, "train") as train_segments:
        params, log = rl.train_ce(s.init, s.data.train, 1, s.scale.ce_lr, _ce_rng(s.seed),
                                  s.scale.batch_size)
    n_pairs = len(rl.reference_pairs(s.data.train))
    mean_loss = log[0]["mean_loss"]
    # the unit repeats set-up's CE epoch, so it must reproduce the checkpoint
    ops.add(_steps(n_pairs, s.scale.batch_size),
            _finite(mean_loss) and _params_finite(params) and mean_loss < s.first_loss
            and params.full_hash() == s.checkpoint.full_hash())
    eval_segments, probe = _greedy_probe(s, params, tracer, ticker, ops)
    return Unit(train_segments, eval_segments, n_pairs, len(s.data.val), ops.attempted,
                ops.failed, {"mean_loss": mean_loss, "probe": probe})


def scst_epoch(s: Setup, tracer=None, ticker=None) -> Unit:
    ops = _Ops()
    train = corpus.Dataset("train", s.data.train.records[: s.scale.rl_images])
    with timed(tracer, ticker, "train") as train_segments:
        params, log = rl.train_rl(s.checkpoint, train, s.stats, 1, s.scale.rl_lr,
                                  model.stage_rng(s.seed, "bench:rl"), s.scale.batch_size,
                                  s.scale.samples_per_image)
    reward, greedy = log[0]["mean_reward"], log[0]["mean_greedy_reward"]
    n_images = len(train)
    ops.add(_steps(n_images, s.scale.batch_size),
            _finite(reward, greedy) and 0.0 <= reward <= 10.0 and 0.0 <= greedy <= 10.0
            and _params_finite(params))
    eval_segments, probe = _greedy_probe(s, params, tracer, ticker, ops)
    return Unit(train_segments, eval_segments, n_images * s.scale.samples_per_image,
                len(s.data.val), ops.attempted, ops.failed,
                {"mean_reward": reward, "mean_greedy_reward": greedy, "probe": probe})


def wft_point(s: Setup, tracer=None, ticker=None) -> Unit:
    ops = _Ops()
    config = finetune.FinetuneConfig(method="wft", lr=s.scale.wft_lr,
                                     beta_prime=s.scale.wft_beta_prime,
                                     batch_size=s.scale.batch_size)
    with timed(tracer, ticker, "train") as train_segments:
        result = finetune.finetune(s.checkpoint, s.data, config, s.seed)
    params = result.params
    n_pairs = len(rl.reference_pairs(s.data.train))
    ops.add(_steps(n_pairs, s.scale.batch_size),
            _finite(result.log[0]["mean_loss"]) and _params_finite(params)
            and params.encoder_hash() == s.checkpoint.encoder_hash()
            and result.frozen.hash_hex() == s.checkpoint.full_hash())
    max_len, beam_size = s.scale.dims.max_len, s.scale.beam_size
    beam = decode.DecodeConfig(method="beam", beam_size=beam_size, max_len=max_len)
    bp = decode.DecodeConfig(method="bp", beam_size=beam_size, max_len=max_len, bp_base="beam")
    with timed(tracer, ticker, "eval") as eval_segments:
        beam_report = _score(s, decode.decode_dataset(params, s.data.val, beam), ops)
        bp_report = _score(s, decode.decode_dataset(params, s.data.val, bp,
                                                    frozen=result.frozen), ops)
    return Unit(train_segments, eval_segments, n_pairs, 2 * len(s.data.val), ops.attempted,
                ops.failed,
                {"classifier_hash": params.classifier_hash(),
                 "beam": _report_fingerprint(beam_report),
                 "bp": _report_fingerprint(bp_report)})


WORKLOADS = {"ce_epoch": ce_epoch, "scst_epoch": scst_epoch, "wft_point": wft_point}
