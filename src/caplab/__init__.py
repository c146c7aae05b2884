"""Desk-scale captioning laboratory.

Synthetic Zipfian caption corpus, a small recurrent caption scorer with
hand-derived gradients, CE and self-critical reward training,
classifier-only rebalancing fine-tunes with a bias-product loss, decoding
strategies, and a deterministic evaluation suite.
"""

from .cider import CiderCorpusStats, build_cider_stats, cider_d, cider_d_batch, reference_table
from .corpus import (
    BOS,
    EOS,
    UNK,
    Dataset,
    FreqHistogram,
    ImageRecord,
    Vocabulary,
    build_vocab,
    freq_histogram,
)
from .decode import DecodeConfig, Decoded, decode_beam, decode_bp
from .finetune import FinetuneConfig, FinetuneResult, SweepResult, finetune, sweep
from .losses import FrozenReference, LossOutput, loss_surface
from .metrics import MetricsReport, evaluate, repetition_rate, rk_retrieval, vocab_stats
from .model import ModelDims, ModelParams, TrainScope, init_params, load_checkpoint, save_checkpoint
from .rl import SampledSeq, scst_step, train_ce, train_rl
from .synth import DataBundle, SynthConfig, generate_synthetic_dataset

__version__ = "0.1.0"
