"""Command-line front end.

Subcommands: gen-data, train, finetune, decode, eval, analyze.  A JSON
experiment file supplies every stage's settings; individual flags override
file fields.  All randomness is funneled through one seeded generator per
stage, derived from the master seed, so every command is reproducible from
(config, seed).  Each output file gets a ``<name>.meta.json`` sidecar
carrying the resolved-config hash.  Every file is written through
``corpus.atomic_write``, so a failed run leaves a previous output whole.

Exit codes: 0 success, 1 runtime failure, 2 usage or validation error.
The environment variable CAPLAB_OUT_ROOT, when set, anchors relative output
paths.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .corpus import (Dataset, atomic_write, build_vocab, freq_histogram, load_dataset_split,
                     save_dataset_split)
from .decode import DecodeConfig, decode_dataset, load_captions, save_captions
from .finetune import FinetuneConfig, finetune, sweep, sweep_grids
from .losses import FrozenReference, loss_surface
from .metrics import evaluate
from .model import (
    ModelDims,
    ModelParams,
    config_hash,
    init_params,
    load_checkpoint,
    save_checkpoint,
    stage_rng,
)
from .rl import corpus_stats_for, sample_sequences, train_ce, train_joint, train_rl
from .synth import DataBundle, SynthConfig, generate_synthetic_dataset


class UsageError(Exception):
    """Invalid arguments or configuration; exits with code 2."""


DEFAULT_CONFIG: dict = {
    "seed": 7,
    "dataset": {
        "n_train": 2000,
        "n_val": 200,
        "n_test": 200,
        "refs_per_image": 5,
        "feature_dim": 32,
        "n_common": 24,
        "n_rare": 260,
        "n_generic": 4,
        "common_per_image": 2,
        "rare_per_image": 2,
        "zipf_exponent": 1.0,
        "rare_mention_rate": 0.7,
        "noise_std": 0.02,
        "min_count": 5,
    },
    "model": {"hidden_dim": 64, "max_len": 16, "init_scale": 0.1},
    "ce": {"epochs": 10, "lr": 0.5, "batch_size": 10},
    "rl": {"epochs": 8, "lr": 0.05, "batch_size": 10, "samples_per_image": 5},
    "joint": {"lam": 0.5, "epochs": 8, "lr": 0.05, "batch_size": 10, "samples_per_image": 5},
    "finetune": {
        "lr_grid": [1e-3, 1e-4, 1e-5, 1e-6],
        "beta_prime_grid": [0.1, 1.0],
        "batch_size": 10,
        "epochs": 1,
        "gamma": 1.0,
        "alpha": 1.0,
    },
    "decode": {"method": "beam", "beam_size": 5, "nucleus_p": 0.95, "beta": 1.0, "beta_prime": 1.0},
    "metrics": {"recall_ks": [1, 5, 10], "repetition_n": 4, "histogram_bins": 200},
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
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
    return _deep_merge(DEFAULT_CONFIG, user)


def _resolve_config(args) -> tuple[dict, str]:
    """The experiment config with ``--seed`` applied, and its hash."""
    config = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    return config, config_hash(config)


def _out_path(raw: str) -> Path:
    root = os.environ.get("CAPLAB_OUT_ROOT")
    path = Path(raw)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _write_sidecar(path: Path, cfg_hash: str, seed: int, stage: str) -> None:
    sidecar = path.with_name(path.name + ".meta.json")
    with atomic_write(sidecar) as fh:
        json.dump({"config_hash": cfg_hash, "seed": seed, "created_by": stage}, fh)


def _write_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row.get(key, "") for key in columns})


def _synth_config(config: dict) -> SynthConfig:
    fields = dict(config["dataset"])
    fields.pop("min_count", None)
    try:
        synth = SynthConfig(**fields)
        synth.validate()
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid dataset config: {exc}") from exc
    return synth


def _load_bundle(data_dir: str | None, config: dict) -> DataBundle:
    if data_dir is None:
        raise UsageError("--data is required for this command")
    base = _out_path(data_dir)
    if not base.is_dir():
        raise UsageError(f"dataset directory not found: {base}")
    synth = _synth_config(config)
    splits = {}
    for split in ("train", "val", "test"):
        path = base / f"{split}.jsonl"
        if not path.exists():
            raise UsageError(f"missing dataset split file: {path}")
        splits[split] = load_dataset_split(path, split)
    return DataBundle(train=splits["train"], val=splits["val"], test=splits["test"],
                      config=synth, seed=config["seed"])


def _vocab_for(config: dict, bundle: DataBundle):
    return build_vocab(bundle.train.all_references(), config["dataset"]["min_count"])


def _dims(config: dict) -> ModelDims:
    return ModelDims(hidden_dim=config["model"]["hidden_dim"],
                     feature_dim=config["dataset"]["feature_dim"],
                     max_len=config["model"]["max_len"])


def _stage_seed(seed: int, stage: str) -> int:
    return int(stage_rng(seed, stage).integers(0, 2**31 - 1))


def _decode_config(config: dict, args) -> DecodeConfig:
    section = config["decode"]

    def flag_or_config(name):
        value = getattr(args, name, None)
        return section[name] if value is None else value

    decode_config = DecodeConfig(
        method=flag_or_config("method"),
        beam_size=flag_or_config("beam_size"),
        nucleus_p=flag_or_config("nucleus_p"),
        max_len=config["model"]["max_len"],
        beta=section["beta"],
        beta_prime=section["beta_prime"],
        seed=config["seed"],
    )
    try:
        decode_config.validate()
    except ValueError as exc:
        raise UsageError(f"invalid decode config: {exc}") from exc
    return decode_config


def cmd_gen_data(args) -> int:
    config, cfg_hash = _resolve_config(args)
    synth = _synth_config(config)
    bundle = generate_synthetic_dataset(synth, config["seed"])
    out = _out_path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for split, dataset in bundle.splits().items():
        path = out / f"{split}.jsonl"
        save_dataset_split(dataset, path)
        _write_sidecar(path, cfg_hash, config["seed"], "gen-data")
    with atomic_write(out / "dataset.meta.json") as fh:
        json.dump({"config_hash": cfg_hash, "seed": config["seed"],
                   "dataset": config["dataset"]}, fh, indent=2)
    print(f"wrote {out}/{{train,val,test}}.jsonl")
    return 0


def _init_model(config: dict, vocab) -> ModelParams:
    return init_params(vocab, _dims(config), _stage_seed(config["seed"], "init"),
                       scale=config["model"]["init_scale"])


def _require_checkpoint(path_str: str | None, what: str, vocab) -> tuple[ModelParams, dict]:
    """Load an upstream checkpoint and check it was trained on ``vocab``."""
    if path_str is None:
        raise UsageError(f"--init is required for the {what} stage")
    path = _out_path(path_str)
    if not path.exists():
        raise UsageError(f"missing upstream checkpoint: {path}")
    try:
        params, meta = load_checkpoint(path)
    except ValueError as exc:
        raise UsageError(f"invalid checkpoint {path}: {exc}") from exc
    if params.vocab.hash_hex() != vocab.hash_hex():
        raise UsageError("vocabulary hash mismatch between checkpoint and dataset")
    return params, meta


def _split(bundle: DataBundle, name: str) -> Dataset:
    dataset = bundle.splits().get(name)
    if dataset is None:
        raise UsageError(f"unknown split {name!r}")
    return dataset


def cmd_train(args) -> int:
    config, cfg_hash = _resolve_config(args)
    seed = config["seed"]
    bundle = _load_bundle(args.data, config)
    vocab = _vocab_for(config, bundle)
    out = _out_path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.stage == "ce":
        section = config["ce"]
        params = _init_model(config, vocab)
        rng = stage_rng(seed, "train:ce")
        params, log = train_ce(params, bundle.train, section["epochs"], section["lr"],
                               rng, section["batch_size"])
        log_columns = ["epoch", "mean_loss"]
    else:
        checkpoint, _ = _require_checkpoint(args.init, args.stage, vocab)
        stats = corpus_stats_for(vocab, bundle.train)
        section = config[args.stage]
        rng = stage_rng(seed, f"train:{args.stage}")
        if args.stage == "rl":
            params, log = train_rl(checkpoint, bundle.train, stats, section["epochs"],
                                   section["lr"], rng, section["batch_size"],
                                   section["samples_per_image"])
            log_columns = ["epoch", "mean_reward", "mean_greedy_reward"]
        else:
            lam = args.lam if args.lam is not None else section["lam"]
            if not 0.0 <= lam <= 1.0:
                raise UsageError("--lam must lie in [0, 1]")
            params, log = train_joint(checkpoint, bundle.train, stats, section["epochs"],
                                      section["lr"], lam, rng, section["batch_size"],
                                      section["samples_per_image"])
            log_columns = ["epoch", "mean_loss"]

    ckpt_path = out / f"{args.stage}.npz"
    save_checkpoint(params, ckpt_path, config_hash=cfg_hash)
    _write_sidecar(ckpt_path, cfg_hash, seed, f"train:{args.stage}")
    log_path = out / f"{args.stage}_log.csv"
    _write_csv(log_path, log, log_columns)
    _write_sidecar(log_path, cfg_hash, seed, f"train:{args.stage}")
    print(f"wrote {ckpt_path}")
    return 0


def cmd_finetune(args) -> int:
    if args.decode_variant == "bp" and args.method != "wft":
        raise UsageError("--decode-variant bp needs --method wft (a frozen reference)")
    config, cfg_hash = _resolve_config(args)
    seed = config["seed"]
    section = config["finetune"]
    if args.sweep:
        try:
            sweep_grids(args.method, section["lr_grid"], section["beta_prime_grid"])
        except (TypeError, ValueError) as exc:
            raise UsageError(f"invalid finetune config: {exc}") from exc
    bundle = _load_bundle(args.data, config)
    vocab = _vocab_for(config, bundle)
    checkpoint, _ = _require_checkpoint(args.checkpoint, "finetune", vocab)
    out = _out_path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base = FinetuneConfig(method=args.method, batch_size=section["batch_size"],
                          epochs=section["epochs"], gamma=section["gamma"],
                          alpha=section["alpha"])

    if args.sweep:
        stats = corpus_stats_for(vocab, bundle.train)
        decode_config = _decode_config(config, argparse.Namespace())
        result = sweep(checkpoint, bundle, stats, args.method,
                       lr_grid=section["lr_grid"],
                       beta_prime_grid=section["beta_prime_grid"],
                       seed=seed, decode_config=decode_config,
                       decode_variant=args.decode_variant, base_config=base)
        sweep_path = out / f"{args.method}_{args.decode_variant}_sweep.csv"
        _write_csv(sweep_path, result.rows,
                   ["method", "lr", "beta_prime", "r_at_1", "unique_1", "cider"])
        _write_sidecar(sweep_path, cfg_hash, seed, "finetune:sweep")
        best = result.best_result
        print(f"best grid point: lr={result.best['lr']} beta_prime={result.best['beta_prime']}"
              f" r@1={result.best['r_at_1']:.2f}")
    else:
        if args.lr is None:
            raise UsageError("--lr is required unless --sweep is given")
        base.lr = args.lr
        if args.beta_prime is not None:
            base.beta_prime = args.beta_prime
        best = finetune(checkpoint, bundle, base, seed)

    ckpt_path = out / f"{args.method}.npz"
    save_checkpoint(best.params, ckpt_path, config_hash=cfg_hash)
    _write_sidecar(ckpt_path, cfg_hash, seed, f"finetune:{args.method}")
    if best.frozen is not None:
        frozen_path = out / f"{args.method}_frozen.npz"
        save_checkpoint(best.frozen.params, frozen_path, config_hash=cfg_hash,
                        extra={"beta_prime": best.frozen.beta_prime})
        _write_sidecar(frozen_path, cfg_hash, seed, f"finetune:{args.method}")
    print(f"wrote {ckpt_path}")
    return 0


def cmd_decode(args) -> int:
    config, cfg_hash = _resolve_config(args)
    bundle = _load_bundle(args.data, config)
    dataset = _split(bundle, args.split)
    vocab = _vocab_for(config, bundle)
    params, _ = _require_checkpoint(args.checkpoint, "decode", vocab)
    decode_config = _decode_config(config, args)
    frozen = None
    if decode_config.method == "bp":
        if args.frozen is None:
            raise UsageError("--frozen is required for bp decoding")
        frozen_params, meta = _require_checkpoint(args.frozen, "decode", vocab)
        beta_prime = meta.get("extra", {}).get("beta_prime", decode_config.beta_prime)
        frozen = FrozenReference(frozen_params, beta_prime)
    rng = np.random.default_rng(decode_config.seed)
    decoded = decode_dataset(params, dataset, decode_config, frozen=frozen, rng=rng)
    out = _out_path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_captions(out, dataset, decoded)
    _write_sidecar(out, cfg_hash, config["seed"], "decode")
    print(f"wrote {out} ({len(decoded)} captions)")
    return 0


def _captions_for(dataset: Dataset, captions_by_id: dict[int, list[str]]) -> list[list[str]]:
    missing = [rec.id for rec in dataset.records if rec.id not in captions_by_id]
    if missing:
        raise UsageError(f"caption file is missing image ids, e.g. {missing[:3]}")
    return [captions_by_id[rec.id] for rec in dataset.records]


def cmd_eval(args) -> int:
    config, cfg_hash = _resolve_config(args)
    bundle = _load_bundle(args.data, config)
    dataset = _split(bundle, args.split)
    captions_path = _out_path(args.captions)
    if not captions_path.exists():
        raise UsageError(f"caption file not found: {captions_path}")
    vocab = _vocab_for(config, bundle)
    stats = corpus_stats_for(vocab, bundle.train)
    captions = _captions_for(dataset, load_captions(captions_path))
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
    for path in (table_path, csv_path):
        _write_sidecar(path, cfg_hash, config["seed"], "eval")
    print(report.format_table())
    return 0


def cmd_analyze(args) -> int:
    config, cfg_hash = _resolve_config(args)
    seed = config["seed"]
    out = _out_path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)

    if args.what == "loss-surface":
        grid = np.linspace(args.p1_min, args.p1_max, args.grid_points)
        try:
            rows = loss_surface(grid, beta=args.beta, beta_prime=args.beta_prime,
                                gamma=args.gamma, alpha=args.alpha)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        _write_csv(out, rows, ["p1", "ce", "bp", "fl", "afl"])
        _write_sidecar(out, cfg_hash, seed, "analyze:loss-surface")
        print(f"wrote {out}")
        return 0

    bundle = _load_bundle(args.data, config)
    vocab = _vocab_for(config, bundle)
    n_bins = config["metrics"]["histogram_bins"]

    if args.what == "histogram":
        dataset = _split(bundle, args.split)
        if args.captions:
            captions = _captions_for(dataset, load_captions(_out_path(args.captions)))
        elif args.references:
            captions = dataset.all_references()
        else:
            raise UsageError("histogram needs --captions FILE or --references")
        hist = freq_histogram(captions, vocab, n_bins)
    elif args.what == "sample-freq":
        if args.checkpoint is None:
            raise UsageError("sample-freq needs --checkpoint")
        params, _ = _require_checkpoint(args.checkpoint, "analyze", vocab)
        rng = stage_rng(seed, "analyze:sample-freq")
        train = bundle.train
        sampled = []
        feats = np.stack([rec.features for rec in train.records])
        for _ in range(args.samples):
            for seq in sample_sequences(params, feats, config["decode"]["beta"], rng):
                sampled.append(vocab.words(seq.tokens))
        hist = freq_histogram(sampled, vocab, n_bins)
    else:
        raise UsageError(f"unknown analysis {args.what!r}")

    hist.write_csv(out)
    _write_sidecar(out, cfg_hash, seed, f"analyze:{args.what}")
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="caplab",
                                     description="Synthetic captioning lab: train, fine-tune, decode, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run a training stage")
    p.add_argument("--stage", choices=["ce", "rl", "joint"], required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--init", help="upstream checkpoint (required for rl/joint)")
    p.add_argument("--lam", type=float, help="joint mixing weight")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("finetune", help="classifier-only fine-tuning")
    p.add_argument("--method", choices=["sft", "wft", "fl", "afl"], required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sweep", action="store_true", help="grid-search lr (and beta') by validation R@1")
    p.add_argument("--lr", type=float)
    p.add_argument("--beta-prime", dest="beta_prime", type=float)
    p.add_argument("--decode-variant", dest="decode_variant", choices=["plain", "bp"], default="plain")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("decode", help="decode a split to a caption file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=["greedy", "beam", "nucleus", "bp"])
    p.add_argument("--beam-size", dest="beam_size", type=int)
    p.add_argument("--nucleus-p", dest="nucleus_p", type=float)
    p.add_argument("--frozen", help="frozen reference checkpoint (bp decoding)")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="score a caption file against a split")
    p.add_argument("--captions", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", required=True, help="output prefix: writes PREFIX.txt and PREFIX.csv")
    p.add_argument("--run-id", dest="run_id")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="emit plot data (CSV)")
    p.add_argument("--what", choices=["histogram", "loss-surface", "sample-freq"], required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--data")
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="train")
    p.add_argument("--captions")
    p.add_argument("--references", action="store_true")
    p.add_argument("--checkpoint")
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--beta-prime", dest="beta_prime", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--p1-min", dest="p1_min", type=float, default=0.005)
    p.add_argument("--p1-max", dest="p1_max", type=float, default=0.995)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=199)
    p.set_defaults(func=cmd_analyze)
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
