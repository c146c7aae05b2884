"""Command-line front end.

Subcommands: gen-data, train {ce,rl}, finetune {sft,wft,fl,afl}, decode,
eval and analyze {histogram,sample-freq,loss-surface}.  Each leaf parser
declares only the flags its mode reads, so a flag the run would not read
(``--init`` on ``train ce``, ``--beta-prime`` outside ``finetune wft``,
``--data`` on ``analyze loss-surface``) is an argparse usage error.  A JSON
experiment file supplies every stage's settings.  A flag that overrides a
setting has its config key as destination (``analyze loss-surface --gamma``
is ``finetune.gamma``; ``finetune sft --lr x`` sets the one-point grid
``finetune.lr_grid = [x]``), and every given flag is folded into the config
before it is hashed, so a flag and the same value in the file make the same
run and hash.  An integer in the file where the default is a float is read
as that float, so ``1`` and ``1.0`` do too.  Commands read settings from
that config only, the decoding with which ``finetune --sweep`` scores the
validation split included: it is the ``decode`` section that ``decode``
reads, so ``decode.method: "bp"`` makes a wft sweep decode through the bias
product with each point's frozen copy.  One setting can come from an input
instead: bp ``decode`` takes β′ from the ``--frozen`` checkpoint's
``extra.beta_prime`` when it records one, as ``finetune wft`` writes it, and
from ``decode.beta_prime`` only otherwise.  All randomness is funneled through
one seeded generator per stage, derived from the master seed, so every
command is reproducible from (config, seed).  Checkpoints,
``dataset.meta.json`` (for the splits) and the eval CSV carry the config
hash.  Every file is written through ``corpus.atomic_write``, so a failed
run leaves a previous output whole.

The whole config, flags folded in, is checked once, before any command
reads data or writes a file: each section by the ``validate`` of the
dataclass it feeds (``SynthConfig``, ``ModelDims``, ``DecodeConfig``,
``FinetuneConfig``) or, for the sections no dataclass takes (ce, rl,
metrics), by a short check here.  A bad value in any section, even one the
command does not use, is a usage error (exit 2) that names ``section.key``.
A checkpoint given by ``--init``, ``--checkpoint`` or ``--frozen`` is
checked once, as it is loaded, against the data's vocabulary and the
config's model dimensions (``model.check_matches``).  ``decode`` reads its
method from the config, which the parser cannot see, so ``cmd_decode``
checks the flags that only some methods read: ``--frozen`` only bp,
``--beam-size`` only beam and bp, ``--nucleus-p`` only nucleus.

Exit codes: 0 success, 1 runtime failure, 2 usage or validation error.  A
config key that ``DEFAULT_CONFIG`` does not have, at any level, is a usage
error.  The environment variable CAPLAB_OUT_ROOT, when set, anchors relative
output paths.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .corpus import (Dataset, atomic_write, build_vocab, check_count, check_histogram_bins,
                     check_number, freq_histogram, load_dataset_split, save_dataset_split)
from .decode import DecodeConfig, decode_dataset, load_captions, save_captions
from .finetune import FinetuneConfig, finetune, sweep
from .losses import FrozenReference, check_shared_encoder, loss_surface
from .metrics import evaluate
from .model import (
    ModelDims,
    ModelParams,
    check_matches,
    config_hash,
    init_params,
    load_checkpoint,
    save_checkpoint,
    stage_rng,
)
from .rl import corpus_stats_for, sample_sequences, train_ce, train_rl
from .synth import DataBundle, SynthConfig, generate_synthetic_dataset


class UsageError(Exception):
    """Invalid arguments or configuration; exits with code 2."""


DEFAULT_CONFIG: dict = {
    "seed": 7,
    "dataset": asdict(SynthConfig()) | {"min_count": 5},
    "model": {"hidden_dim": 64, "max_len": 16, "init_scale": 0.1},
    "ce": {"epochs": 10, "lr": 0.5, "batch_size": 10},
    "rl": {"epochs": 8, "lr": 0.05, "batch_size": 10, "samples_per_image": 5},
    "finetune": {
        "lr_grid": [1e-3, 1e-4, 1e-5, 1e-6],
        "beta_prime_grid": [0.1, 1.0],
        "batch_size": 10,
        "gamma": 1.0,
        "alpha": 1.0,
    },
    "decode": {"method": "beam", "beam_size": 5, "nucleus_p": 0.95, "beta": 1.0, "beta_prime": 1.0},
    "metrics": {"recall_ks": [1, 5, 10], "repetition_n": 4, "histogram_bins": 200},
}


def _to_float(value: int, name: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise UsageError(f"{name} must be a finite number, got an integer too large"
                         " for a float") from None


def _merged(default: dict, user, section: str = "") -> dict:
    """``default`` with ``user``'s values in its place, checked against it.

    A key ``default`` lacks, or a non-object where it has one, is a usage
    error.  An integer where ``default`` has a float, or a list of floats, is
    read as that float, so that ``1`` and ``1.0`` make one config and one
    hash."""
    where = section or "top-level"
    if not isinstance(user, dict):
        raise UsageError(f"{where} config must be a JSON object")
    out = copy.deepcopy(default)
    for key, value in user.items():
        if key not in default:
            raise UsageError(f"unknown key {key!r} in {where} config")
        ref, name = default[key], f"{section}.{key}" if section else key
        if isinstance(ref, dict):
            value = _merged(ref, value, key)
        elif isinstance(ref, float) and type(value) is int:
            value = _to_float(value, name)
        elif (isinstance(ref, list) and ref and all(isinstance(v, float) for v in ref)
              and isinstance(value, list)):
            value = [_to_float(v, f"{name}[{i}]") if type(v) is int else v
                     for i, v in enumerate(value)]
        out[key] = value
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    config_path = Path(path)
    if not config_path.exists():
        raise UsageError(f"config file not found: {config_path}")
    try:
        with open(config_path, encoding="utf-8") as fh:
            user = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    return _merged(DEFAULT_CONFIG, user)


def _resolve_config(args) -> tuple[dict, str]:
    """The experiment config with every given flag folded in, and its hash.

    A flag's destination is ``section.key``, or ``key`` at the top level; a
    flag for a list-valued key sets a one-value list."""
    config = load_config(args.config)
    for dest, value in vars(args).items():
        section, _, key = dest.rpartition(".")
        if value is None or (section or key) not in DEFAULT_CONFIG:
            continue  # not given, or not a setting
        target, default = ((config[section], DEFAULT_CONFIG[section]) if section
                           else (config, DEFAULT_CONFIG))
        target[key] = [value] if isinstance(default[key], list) else value
    _check_config(config)
    return config, config_hash(config)


@contextmanager
def _usage(prefix: str = ""):
    """Re-raise a ValueError from the block as a UsageError, ``prefix`` first."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"{prefix}{exc}") from None


def _check_config(config: dict) -> None:
    """Check every setting of ``config``, whichever command runs.

    Every check's message starts with the key, so the UsageError names
    ``section.key``.  Here, counts are integers (``epochs`` may be 0, which
    keeps the starting model) and learning rates finite and > 0."""
    with _usage():
        check_count("seed", config["seed"], 0)
    with _usage("invalid dataset config: dataset."):
        _synth_config(config["dataset"]).validate()
        check_count("min_count", config["dataset"]["min_count"], 1)
    with _usage("invalid model config: model."):
        _model_dims(config).validate()
        check_number("init_scale", config["model"]["init_scale"])
    with _usage("invalid decode config: decode."):
        _decode_config(config).validate()
    section = config["finetune"]
    with _usage("invalid finetune config: finetune."):
        for key, positive in (("lr_grid", True), ("beta_prime_grid", False)):
            grid = section[key]
            if not isinstance(grid, list) or not grid:
                raise ValueError(f"{key} must be a non-empty list, got {grid!r}")
            for i, value in enumerate(grid):
                check_number(f"{key}[{i}]", value, positive=positive)
        FinetuneConfig(batch_size=section["batch_size"], gamma=section["gamma"],
                       alpha=section["alpha"]).validate()
    for stage in ("ce", "rl"):
        section = config[stage]
        with _usage(f"invalid {stage} config: {stage}."):
            check_count("epochs", section["epochs"], 0)
            check_count("batch_size", section["batch_size"], 1)
            if stage == "rl":
                check_count("samples_per_image", section["samples_per_image"], 1)
            check_number("lr", section["lr"], positive=True)
    section = config["metrics"]
    with _usage("invalid metrics config: metrics."):
        ks = section["recall_ks"]
        if not isinstance(ks, list) or not ks:
            raise ValueError(f"recall_ks must be a non-empty list, got {ks!r}")
        for i, k in enumerate(ks):
            check_count(f"recall_ks[{i}]", k, 1)
        for key in ("repetition_n", "histogram_bins"):
            check_count(key, section[key], 1)


def _out_path(raw: str) -> Path:
    root = os.environ.get("CAPLAB_OUT_ROOT")
    path = Path(raw)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _write_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row.get(key, "") for key in columns})


def _synth_config(dataset: dict) -> SynthConfig:
    return SynthConfig(**{key: value for key, value in dataset.items() if key != "min_count"})


def _load_bundle(data_dir: str, config: dict) -> DataBundle:
    """The dataset in ``data_dir``, after checking that ``config``'s dataset
    section is the one ``gen-data`` wrote it with (``min_count`` aside).  A
    metadata or split file that is malformed raises UsageError."""
    base = _out_path(data_dir)
    if not base.is_dir():
        raise UsageError(f"dataset directory not found: {base}")
    meta_path = base / "dataset.meta.json"
    if not meta_path.exists():
        raise UsageError(f"missing dataset metadata: {meta_path}")
    with open(meta_path, encoding="utf-8") as fh, _usage(f"{meta_path} is not JSON: "):
        meta = json.load(fh)
    generated = meta.get("dataset") if isinstance(meta, dict) else None
    if not isinstance(generated, dict):
        raise UsageError(f'{meta_path} holds no "dataset" object')
    for key, value in config["dataset"].items():
        if key != "min_count" and generated.get(key) != value:
            raise UsageError(f"dataset.{key} is {value!r} in the config but the data in {base}"
                             f" was generated with {generated.get(key)!r}")
    synth = _synth_config(config["dataset"])
    splits = {}
    for split in ("train", "val", "test"):
        path = base / f"{split}.jsonl"
        if not path.exists():
            raise UsageError(f"missing dataset split file: {path}")
        with _usage():
            splits[split] = load_dataset_split(path, split, synth.feature_dim)
    return DataBundle(train=splits["train"], val=splits["val"], test=splits["test"], config=synth)


def _vocab_for(config: dict, bundle: DataBundle):
    return build_vocab(bundle.train.all_references(), config["dataset"]["min_count"])


def _decode_config(config: dict) -> DecodeConfig:
    """Every key of the decode section is a ``DecodeConfig`` field."""
    return DecodeConfig(**config["decode"], max_len=config["model"]["max_len"],
                        seed=config["seed"])


def _model_dims(config: dict) -> ModelDims:
    return ModelDims(hidden_dim=config["model"]["hidden_dim"],
                     feature_dim=config["dataset"]["feature_dim"],
                     max_len=config["model"]["max_len"])


def cmd_gen_data(args) -> int:
    config, cfg_hash = _resolve_config(args)
    synth = _synth_config(config["dataset"])
    bundle = generate_synthetic_dataset(synth, config["seed"])
    out = _out_path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for split, dataset in bundle.splits().items():
        save_dataset_split(dataset, out / f"{split}.jsonl")
    with atomic_write(out / "dataset.meta.json") as fh:
        json.dump({"config_hash": cfg_hash, "seed": config["seed"],
                   "dataset": config["dataset"]}, fh, indent=2)
    print(f"wrote {out}/{{train,val,test}}.jsonl")
    return 0


def _init_model(config: dict, vocab) -> ModelParams:
    seed = int(stage_rng(config["seed"], "init").integers(0, 2**31 - 1))
    return init_params(vocab, _model_dims(config), seed, scale=config["model"]["init_scale"])


def _require_checkpoint(path_str: str, flag: str, vocab,
                        config: dict) -> tuple[ModelParams, dict]:
    """Load the checkpoint that ``flag`` names and check that it was trained
    on ``vocab`` and has the config's model dimensions."""
    path = _out_path(path_str)
    if not path.exists():
        raise UsageError(f"missing upstream checkpoint: {path}")
    with _usage(f"invalid checkpoint {path}: "):
        params, meta = load_checkpoint(path)
    with _usage(f"{flag} {path}: "):
        check_matches(params, vocab, _model_dims(config))
    return params, meta


def _split(bundle: DataBundle, name: str) -> Dataset:
    dataset = bundle.splits().get(name)
    if dataset is None:
        raise UsageError(f"unknown split {name!r}")
    return dataset


def cmd_train(args) -> int:
    config, cfg_hash = _resolve_config(args)
    seed, section = config["seed"], config[args.stage]
    bundle = _load_bundle(args.data, config)
    vocab = _vocab_for(config, bundle)
    if args.stage == "ce":
        params = _init_model(config, vocab)
        rng = stage_rng(seed, "train:ce")
        params, log = train_ce(params, bundle.train, section["epochs"], section["lr"],
                               rng, section["batch_size"])
        log_columns = ["epoch", "mean_loss"]
    else:
        checkpoint, _ = _require_checkpoint(args.init, "--init", vocab, config)
        stats = corpus_stats_for(vocab, bundle.train)
        rng = stage_rng(seed, "train:rl")
        params, log = train_rl(checkpoint, bundle.train, stats, section["epochs"],
                               section["lr"], rng, section["batch_size"],
                               section["samples_per_image"])
        log_columns = ["epoch", "mean_reward", "mean_greedy_reward", "useful_sample_ratio"]

    out = _out_path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt_path = out / f"{args.stage}.npz"
    save_checkpoint(params, ckpt_path, config_hash=cfg_hash)
    log_path = out / f"{args.stage}_log.csv"
    _write_csv(log_path, log, log_columns)
    print(f"wrote {ckpt_path}")
    return 0


def cmd_finetune(args) -> int:
    config, cfg_hash = _resolve_config(args)
    seed = config["seed"]
    section = config["finetune"]
    for key, flag in (("lr_grid", "--lr"), ("beta_prime_grid", "--beta-prime")):
        if not args.sweep and len(section[key]) > 1 and (key == "lr_grid" or args.method == "wft"):
            raise UsageError(f"finetune.{key} has {len(section[key])} values; without --sweep,"
                             f" give one with {flag}")
    decode_config = _decode_config(config)
    if args.sweep and decode_config.method == "bp" and args.method != "wft":
        raise UsageError("decode.method bp needs finetune wft: the sweep decodes through the"
                         " frozen reference that only wft trains against")
    bundle = _load_bundle(args.data, config)
    vocab = _vocab_for(config, bundle)
    checkpoint, _ = _require_checkpoint(args.checkpoint, "--checkpoint", vocab, config)
    out = _out_path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    beta_primes = section["beta_prime_grid"][: None if args.method == "wft" else 1]
    points = [FinetuneConfig(method=args.method, lr=lr, beta_prime=beta_prime,
                             batch_size=section["batch_size"], gamma=section["gamma"],
                             alpha=section["alpha"])
              for lr in section["lr_grid"] for beta_prime in beta_primes]

    if args.sweep:
        stats = corpus_stats_for(vocab, bundle.train)
        result = sweep(checkpoint, bundle, stats, points, seed, decode_config)
        variant = "bp" if decode_config.method == "bp" else "plain"
        sweep_path = out / f"{args.method}_{variant}_sweep.csv"
        _write_csv(sweep_path, result.rows,
                   ["method", "lr", "beta_prime", "r_at_1", "unique_1", "cider"])
        best = result.best_result
        print(f"best grid point: lr={result.best['lr']} beta_prime={result.best['beta_prime']}"
              f" r@1={result.best['r_at_1']:.2f}")
    else:
        best = finetune(checkpoint, bundle, points[0], seed)

    ckpt_path = out / f"{args.method}.npz"
    save_checkpoint(best.params, ckpt_path, config_hash=cfg_hash)
    if best.frozen is not None:
        frozen_path = out / f"{args.method}_frozen.npz"
        save_checkpoint(best.frozen.params, frozen_path, config_hash=cfg_hash,
                        extra={"beta_prime": best.frozen.beta_prime})
    print(f"wrote {ckpt_path}")
    return 0


def cmd_decode(args) -> int:
    config, _ = _resolve_config(args)
    decode_config = _decode_config(config)
    method = decode_config.method
    if method == "bp" and args.frozen is None:
        raise UsageError("--frozen is required for bp decoding")
    for flag, value, readers in (("--frozen", args.frozen, ("bp",)),
                                 ("--beam-size", getattr(args, "decode.beam_size"), ("beam", "bp")),
                                 ("--nucleus-p", getattr(args, "decode.nucleus_p"), ("nucleus",))):
        if value is not None and method not in readers:
            raise UsageError(f"{flag} is used only by {' and '.join(readers)} decoding,"
                             f" not {method}")
    bundle = _load_bundle(args.data, config)
    dataset = _split(bundle, args.split)
    vocab = _vocab_for(config, bundle)
    params, _ = _require_checkpoint(args.checkpoint, "--checkpoint", vocab, config)
    frozen = None
    if decode_config.method == "bp":
        frozen_params, meta = _require_checkpoint(args.frozen, "--frozen", vocab, config)
        beta_prime = meta.get("extra", {}).get("beta_prime", decode_config.beta_prime)
        with _usage(f"invalid frozen checkpoint {args.frozen}: "):
            frozen = FrozenReference(frozen_params, beta_prime)
            check_shared_encoder(params, frozen)
    decoded = decode_dataset(params, dataset, decode_config, frozen=frozen)
    out = _out_path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_captions(out, dataset, decoded)
    print(f"wrote {out} ({len(decoded)} captions)")
    return 0


def _captions_for(dataset: Dataset, path: Path) -> list[list[str]]:
    """The captions a caption file gives the split's images, in split order."""
    if not path.exists():
        raise UsageError(f"caption file not found: {path}")
    with _usage():
        captions_by_id = load_captions(path)
    missing = [rec.id for rec in dataset.records if rec.id not in captions_by_id]
    if missing:
        raise UsageError(f"caption file is missing image ids, e.g. {missing[:3]}")
    return [captions_by_id[rec.id] for rec in dataset.records]


def cmd_eval(args) -> int:
    config, cfg_hash = _resolve_config(args)
    bundle = _load_bundle(args.data, config)
    dataset = _split(bundle, args.split)
    captions_path = _out_path(args.captions)
    captions = _captions_for(dataset, captions_path)
    vocab = _vocab_for(config, bundle)
    stats = corpus_stats_for(vocab, bundle.train)
    report = evaluate(captions, dataset, vocab, stats,
                      ks=config["metrics"]["recall_ks"],
                      rep_n=config["metrics"]["repetition_n"])
    out_prefix = _out_path(args.out)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    table_path = Path(str(out_prefix) + ".txt")
    with atomic_write(table_path) as fh:
        fh.write(report.format_table() + "\n")
    run_id = args.run_id or captions_path.stem
    row = {"run_id": run_id, "config_hash": cfg_hash} | report.as_dict()
    csv_path = Path(str(out_prefix) + ".csv")
    _write_csv(csv_path, [row], list(row.keys()))
    print(report.format_table())
    return 0


def cmd_analyze(args) -> int:
    config, _ = _resolve_config(args)
    out = _out_path(args.out)

    if args.what == "loss-surface":
        temps, weights = config["decode"], config["finetune"]
        with _usage():
            check_count("--grid-points", args.grid_points, 1)
            rows = loss_surface(np.linspace(args.p1_min, args.p1_max, args.grid_points),
                                beta=temps["beta"], beta_prime=temps["beta_prime"],
                                gamma=weights["gamma"], alpha=weights["alpha"])
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(out, rows, ["p1", "ce", "bp", "fl", "afl"])
        print(f"wrote {out}")
        return 0

    bundle = _load_bundle(args.data, config)
    vocab = _vocab_for(config, bundle)
    n_bins = config["metrics"]["histogram_bins"]
    with _usage("metrics.histogram_bins: "):  # before any caption is loaded or sampled
        check_histogram_bins(n_bins, vocab)

    if args.what == "histogram":
        dataset = _split(bundle, args.split)
        captions = (_captions_for(dataset, _out_path(args.captions)) if args.captions
                    else dataset.all_references())
    else:  # sample-freq
        with _usage():
            check_count("--samples", args.samples, 1)
        params, _ = _require_checkpoint(args.checkpoint, "--checkpoint", vocab, config)
        rng = stage_rng(config["seed"], "analyze:sample-freq")
        feats = np.stack([rec.features for rec in bundle.train.records])
        # chunks of one SCST batch, so the rollout's activations stay small
        chunk = config["rl"]["batch_size"]
        captions = []
        for _ in range(args.samples):
            for start in range(0, len(feats), chunk):
                for seq in sample_sequences(params, feats[start : start + chunk],
                                            config["decode"]["beta"], rng):
                    captions.append(vocab.words(seq.tokens))

    hist = freq_histogram(captions, vocab, n_bins)
    out.parent.mkdir(parents=True, exist_ok=True)
    hist.write_csv(out)
    print(f"wrote {out}")
    return 0


def _modes(sub, command: str, dest: str, summary: str, func) -> argparse._SubParsersAction:
    """A subcommand whose first argument, stored as ``dest``, picks its mode."""
    p = sub.add_parser(command, help=summary)
    p.set_defaults(func=func)
    return p.add_subparsers(dest=dest, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="caplab",
                                     description="Synthetic captioning lab: train, fine-tune, decode, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared by every command (run), by the commands that read the
    # dataset (data) and by those whose --seed overrides the config's (seeded)
    run, data, seeded = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)
    data.add_argument("--data", required=True)
    seeded.add_argument("--seed", type=int)
    pipeline = [run, data, seeded]  # train, finetune and decode

    p = sub.add_parser("gen-data", parents=[run, seeded], help="generate the synthetic dataset")
    p.set_defaults(func=cmd_gen_data)

    stages = _modes(sub, "train", "stage", "run a training stage", cmd_train)
    stages.add_parser("ce", parents=pipeline, help="cross-entropy training of a new model")
    p = stages.add_parser("rl", parents=pipeline, help="rl training from --init")
    p.add_argument("--init", required=True, help="upstream checkpoint")

    methods = _modes(sub, "finetune", "method", "classifier-only fine-tuning", cmd_finetune)
    for method in ("sft", "wft", "fl", "afl"):
        p = methods.add_parser(method, parents=pipeline)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--sweep", action="store_true",
                       help="grid-search lr (and beta') by validation R@1")
        p.add_argument("--lr", dest="finetune.lr_grid", type=float, help="one-point lr grid")
        if method == "wft":
            p.add_argument("--beta-prime", dest="finetune.beta_prime_grid", type=float,
                           help="one-point beta' grid")

    p = sub.add_parser("decode", parents=pipeline, help="decode a split to a caption file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--method", dest="decode.method", choices=["greedy", "beam", "nucleus", "bp"])
    p.add_argument("--beam-size", dest="decode.beam_size", type=int)
    p.add_argument("--nucleus-p", dest="decode.nucleus_p", type=float)
    p.add_argument("--frozen", help="frozen reference checkpoint (bp decoding)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", parents=[run, data], help="score a caption file against a split",
                       description="Writes OUT.txt and OUT.csv.")
    p.add_argument("--captions", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--run-id", dest="run_id")
    p.set_defaults(func=cmd_eval)

    analyses = _modes(sub, "analyze", "what", "emit plot data (CSV)", cmd_analyze)
    p = analyses.add_parser("histogram", parents=[run, data], help="word-frequency histogram")
    p.add_argument("--split", default="train")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--captions")
    source.add_argument("--references", action="store_true")
    p = analyses.add_parser("sample-freq", parents=[run, data],
                            help="word-frequency histogram of captions sampled on the train split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--beta", dest="decode.beta", type=float)
    p = analyses.add_parser("loss-surface", parents=[run],
                            help="CE, BP, FL and AFL losses over the gold word's probability")
    p.add_argument("--beta", dest="decode.beta", type=float)
    p.add_argument("--beta-prime", dest="decode.beta_prime", type=float)
    p.add_argument("--gamma", dest="finetune.gamma", type=float)
    p.add_argument("--alpha", dest="finetune.alpha", type=float)
    p.add_argument("--p1-min", dest="p1_min", type=float, default=0.005)
    p.add_argument("--p1-max", dest="p1_max", type=float, default=0.995)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=199)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 1 by contract
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
