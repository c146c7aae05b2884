import argparse
import copy
import csv
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from caplab import cli
from caplab.cli import main
from caplab.corpus import (Dataset, build_vocab, freq_histogram, load_dataset_split,
                           save_dataset_split)
from caplab.decode import DecodeConfig, Decoded, decode_dataset, save_captions
from caplab.losses import loss_surface
from caplab.metrics import evaluate
from caplab.model import (ModelDims, config_hash, init_params, load_checkpoint, save_checkpoint,
                          stage_rng)
from caplab.rl import corpus_stats_for


MICRO_CONFIG = {
    "seed": 13,
    "dataset": {
        "n_train": 24, "n_val": 6, "n_test": 6, "refs_per_image": 3,
        "feature_dim": 6, "n_common": 5, "n_rare": 10, "n_generic": 2,
        "common_per_image": 2, "rare_per_image": 2, "zipf_exponent": 1.0,
        "rare_mention_rate": 0.7, "noise_std": 0.02, "min_count": 1,
    },
    "model": {"hidden_dim": 8, "max_len": 12},
    "ce": {"epochs": 2, "lr": 0.3, "batch_size": 8},
    "rl": {"epochs": 1, "lr": 0.02, "batch_size": 8, "samples_per_image": 2},
    "finetune": {"lr_grid": [0.01, 0.001], "beta_prime_grid": [0.1, 1.0],
                 "batch_size": 8, "gamma": 1.0, "alpha": 1.0},
    "decode": {"method": "beam", "beam_size": 3, "beta": 1.0},
    "metrics": {"histogram_bins": 5},
}

# loss-surface reads one β′, and MICRO_CONFIG's grid has two
ONE_BETA_PRIME = ["--beta-prime", "1.0"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(MICRO_CONFIG))
    data_dir = root / "data"
    assert main(["gen-data", "--config", str(config_path), "--out", str(data_dir)]) == 0
    return root, config_path, data_dir


@pytest.fixture(scope="module")
def ce_checkpoint(workdir):
    root, config_path, data_dir = workdir
    run_dir = root / "run"
    code = main(["train", "ce", "--config", str(config_path),
                 "--data", str(data_dir), "--out", str(run_dir)])
    assert code == 0
    return run_dir / "ce.npz"


class TestConfig:
    @pytest.mark.parametrize("command, section, key, value, message", [
        ("train", "ce", "learning_rate", 99, "unknown key 'learning_rate' in ce config"),
        ("decode", "decode", "bp_base", "greedy", "unknown key 'bp_base' in decode config"),
        ("train", None, "bogus", {}, "unknown key 'bogus' in top-level config"),
        ("finetune", "finetune", "epochs", 2, "unknown key 'epochs' in finetune config"),
        ("train", None, "ce", 0.3, "ce config must be a JSON object"),
        ("train", None, "joint", {"lam": 0.5}, "unknown key 'joint' in top-level config"),
        ("train", "metrics", "recall_ks", [1, 5], "unknown key 'recall_ks' in metrics config"),
        ("decode", "metrics", "repetition_n", 4,
         "unknown key 'repetition_n' in metrics config"),
        ("finetune", "model", "init_scale", 0.1, "unknown key 'init_scale' in model config"),
        ("decode", "decode", "nucleus_p", 0.95, "unknown key 'nucleus_p' in decode config"),
        ("decode", "decode", "beta_prime", 1.0, "unknown key 'beta_prime' in decode config"),
    ], ids=["ce-key", "decode-key", "top-level-key", "finetune-epochs", "section-not-object",
            "joint-section", "recall-ks", "repetition-n", "init-scale", "nucleus-p",
            "beta-prime"])
    def test_unknown_key_is_usage_error(self, workdir, ce_checkpoint, tmp_path, command,
                                        section, key, value, message, capsys):
        _, config_path, data_dir = workdir
        config = json.loads(config_path.read_text())
        (config if section is None else config[section])[key] = value
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = {
            "train": ["train", "ce", "--out", str(out)],
            "decode": ["decode", "--checkpoint", str(ce_checkpoint), "--out", str(out)],
            "finetune": ["finetune", "sft", "--checkpoint", str(ce_checkpoint),
                         "--lr", "0.01", "--out", str(out)],
        }[command]
        assert main([*argv, "--config", str(bad_path), "--data", str(data_dir)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_not_utf8_is_usage_error(self, workdir, tmp_path, capsys):
        """A config file that is not UTF-8 is an error naming the file."""
        _, config_path, data_dir = workdir
        bad_path = tmp_path / "bad.json"
        bad_path.write_bytes(config_path.read_bytes().replace(b'"beam"', b'"be\xffam"'))
        out = tmp_path / "out"
        assert main(["train", "ce", "--config", str(bad_path), "--data", str(data_dir),
                     "--out", str(out)]) == 2
        assert f"config file {bad_path} is not UTF-8" in capsys.readouterr().err
        assert not out.exists()


def _set(field, value):
    """An edit of a split line that sets ``field`` to ``value(record)``."""
    def edit(line):
        rec = json.loads(line)
        return json.dumps(rec | {field: value(rec)})
    return edit


def _write_config(tmp_path, config_path, section, key, value):
    config = json.loads(config_path.read_text())
    config[section][key] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(config))  # NaN is written as a bare NaN token
    return path


class TestDataCheck:
    @pytest.mark.parametrize("command", ["train", "decode"])
    def test_config_that_did_not_make_the_data_is_usage_error(self, workdir, ce_checkpoint,
                                                              tmp_path, command, capsys):
        _, config_path, data_dir = workdir
        bad_path = _write_config(tmp_path, config_path, "dataset", "feature_dim", 7)
        out = tmp_path / "out"
        argv = {
            "train": ["train", "ce", "--out", str(out)],
            "decode": ["decode", "--checkpoint", str(ce_checkpoint), "--out", str(out)],
        }[command]
        assert main([*argv, "--config", str(bad_path), "--data", str(data_dir)]) == 2
        assert "dataset.feature_dim" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_metadata_is_usage_error(self, workdir, tmp_path, capsys):
        _, config_path, data_dir = workdir
        copy_dir = tmp_path / "data"
        copy_dir.mkdir()
        for split in ("train", "val", "test"):
            (copy_dir / f"{split}.jsonl").write_bytes((data_dir / f"{split}.jsonl").read_bytes())
        assert main(["train", "ce", "--config", str(config_path),
                     "--data", str(copy_dir), "--out", str(tmp_path / "out")]) == 2
        assert "dataset.meta.json" in capsys.readouterr().err

    @staticmethod
    def copied_data(data_dir, copy_dir):
        copy_dir.mkdir()
        for path in data_dir.iterdir():
            (copy_dir / path.name).write_bytes(path.read_bytes())
        return copy_dir

    @pytest.mark.parametrize("text", ['{"dataset": {', "[1]", '{"dataset": 3}'],
                             ids=["not-json", "not-object", "dataset-not-object"])
    def test_malformed_metadata_is_usage_error(self, workdir, tmp_path, text, capsys):
        _, config_path, data_dir = workdir
        copy_dir = self.copied_data(data_dir, tmp_path / "data")
        (copy_dir / "dataset.meta.json").write_text(text)
        assert main(["train", "ce", "--config", str(config_path),
                     "--data", str(copy_dir), "--out", str(tmp_path / "out")]) == 2
        assert f"{copy_dir / 'dataset.meta.json'}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda line: line[:-2], "not JSON"),
        (lambda line: json.dumps({**json.loads(line), "features": [0.5, 0.5, 0.5]}),
         "expected 6 features"),
        (lambda line: json.dumps({k: v for k, v in json.loads(line).items()
                                  if k != "references"}), "no field 'references'"),
        (lambda line: "[1]", "not a JSON object"),
        (_set("id", lambda rec: 1.9), "id must be an integer, got 1.9"),
        (_set("id", lambda rec: "1"), "id must be an integer, got '1'"),
        (_set("id", lambda rec: True), "id must be an integer, got True"),
        (_set("references", lambda rec: "abc"), "references must be a list of lists of strings"),
        (_set("references", lambda rec: [[5, *rec["references"][0][1:]], *rec["references"][1:]]),
         "references must be a list of lists of strings"),
        (_set("references",
              lambda rec: [[None, *rec["references"][0][1:]], *rec["references"][1:]]),
         "references must be a list of lists of strings"),
        (_set("references", lambda rec: [*rec["references"][1:], "a b"]),
         "references must be a list of lists of strings"),
        (_set("attributes", lambda rec: "xy"), "attributes must be a list of strings"),
        (_set("attributes", lambda rec: [*rec["attributes"], 1]),
         "attributes must be a list of strings"),
        (_set("features", lambda rec: [str(rec["features"][0]), *rec["features"][1:]]),
         "features must be a list of numbers"),
        (_set("features", lambda rec: [True, *rec["features"][1:]]),
         "features must be a list of numbers"),
        (_set("features", lambda rec: [rec["features"]]), "features must be a list of numbers"),
        (_set("features", lambda rec: [10**400, *rec["features"][1:]]), "too large"),
        (_set("id", lambda rec: 0), "image id 0 repeats line 1"),
    ], ids=["not-json", "three-features", "no-references", "not-object", "id-float", "id-string",
            "id-bool", "references-string", "token-number", "token-null", "one-reference-string",
            "attributes-string", "attribute-number", "feature-string", "feature-bool",
            "features-nested", "feature-too-large", "id-repeats"])
    def test_malformed_split_line_is_usage_error(self, workdir, tmp_path, edit, message,
                                                 capsys):
        """A bad second line of train.jsonl is an error naming the file and
        the line, before any training; no field is coerced into a record.
        Line 2 holds image 1, so an id that ``int()`` would turn into 1 is
        no duplicate."""
        _, config_path, data_dir = workdir
        copy_dir = self.copied_data(data_dir, tmp_path / "data")
        path = copy_dir / "train.jsonl"
        lines = path.read_text().splitlines()
        assert json.loads(lines[1])["id"] == 1
        lines[1] = edit(lines[1])
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["train", "ce", "--config", str(config_path),
                     "--data", str(copy_dir), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{path}, line 2: " in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_split_line_not_utf8_is_usage_error(self, workdir, ce_checkpoint, tmp_path, split,
                                                capsys):
        """A byte that is not UTF-8 on line 2 is an error naming the file and
        that line."""
        _, config_path, data_dir = workdir
        copy_dir = self.copied_data(data_dir, tmp_path / "data")
        path = copy_dir / f"{split}.jsonl"
        first, second, *rest = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join([first, second.replace(b'"id"', b'"\xffid"'), *rest]))
        out = tmp_path / "out"
        argv = {"train": ["train", "ce"],
                "val": ["decode", "--checkpoint", str(ce_checkpoint), "--split", "val"]}[split]
        assert main([*argv, "--config", str(config_path), "--data", str(copy_dir),
                     "--out", str(out)]) == 2
        assert f"{path}, line 2: not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_empty_split_file_is_usage_error(self, workdir, ce_checkpoint, tmp_path, split,
                                             capsys):
        """A split file with no record, blank lines aside, is an error naming
        the file: ``gen-data`` never writes one."""
        _, config_path, data_dir = workdir
        copy_dir = self.copied_data(data_dir, tmp_path / "data")
        path = copy_dir / f"{split}.jsonl"
        path.write_text("\n")
        out = tmp_path / "out"
        argv = {"train": ["train", "ce"],
                "val": ["decode", "--checkpoint", str(ce_checkpoint), "--split", "val"]}[split]
        assert main([*argv, "--config", str(config_path), "--data", str(copy_dir),
                     "--out", str(out)]) == 2
        assert f"{path} holds no record" in capsys.readouterr().err
        assert not out.exists()

    def test_min_count_may_differ(self, workdir, tmp_path):
        _, config_path, data_dir = workdir
        path = _write_config(tmp_path, config_path, "dataset", "min_count", 2)
        assert main(["train", "ce", "--config", str(path),
                     "--data", str(data_dir), "--out", str(tmp_path / "out")]) == 0

    def test_bundle_config_is_the_generating_config(self, workdir):
        _, config_path, data_dir = workdir
        config = cli.load_config(str(config_path))
        generated = json.loads((data_dir / "dataset.meta.json").read_text())["dataset"]
        bundle = cli._load_bundle(str(data_dir), config)
        assert bundle.config == cli._synth_config(generated)
        assert bundle.config.feature_dim == MICRO_CONFIG["dataset"]["feature_dim"]


class TestGenData:
    def test_deterministic_files(self, workdir, tmp_path):
        root, config_path, data_dir = workdir
        other = tmp_path / "data2"
        assert main(["gen-data", "--config", str(config_path), "--out", str(other)]) == 0
        for split in ("train", "val", "test"):
            assert (data_dir / f"{split}.jsonl").read_bytes() == \
                (other / f"{split}.jsonl").read_bytes()

    def test_missing_config_usage_error(self, tmp_path):
        assert main(["gen-data", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "d")]) == 2

    def test_zero_images_validation_error(self, tmp_path, capsys):
        bad = dict(MICRO_CONFIG)
        bad["dataset"] = dict(MICRO_CONFIG["dataset"], n_train=0)
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(bad))
        assert main(["gen-data", "--config", str(config_path),
                     "--out", str(tmp_path / "d")]) == 2
        assert "dataset.n_train must be" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("seed, flags", [
        (True, []), (2.5, []), ("7", []), (MICRO_CONFIG["seed"], ["--seed", "-1"]),
    ], ids=["config-bool", "config-float", "config-string", "flag-negative"])
    def test_bad_seed_is_usage_error(self, tmp_path, seed, flags, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(MICRO_CONFIG | {"seed": seed}))
        out = tmp_path / "d"
        assert main(["gen-data", "--config", str(config_path), "--out", str(out), *flags]) == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_sidecars_carry_config_hash(self, workdir):
        _, config_path, data_dir = workdir
        meta = json.loads((data_dir / "dataset.meta.json").read_text())
        assert meta["config_hash"] == config_hash(cli.load_config(str(config_path)))
        assert meta["seed"] == MICRO_CONFIG["seed"]
        assert list(data_dir.glob("*.meta.json")) == [data_dir / "dataset.meta.json"]


class TestWholeConfigChecked:
    @pytest.mark.parametrize("command", ["gen-data", "train"])
    @pytest.mark.parametrize("key, value", [
        ("n_train", True), ("noise_std", -1), ("n_train", 2.5), ("noise_std", float("nan")),
        ("zipf_exponent", float("nan")), ("refs_per_image", 2.0), ("feature_dim", 6.0),
        ("common_per_image", -1), ("min_count", 0), ("min_count", 4.5), ("zipf_exponent", 3.0),
    ], ids=["n-train-bool", "noise-negative", "n-train-float", "noise-nan", "zipf-nan",
            "refs-float", "feature-dim-float", "common-negative", "min-count-0",
            "min-count-float", "zipf-quota-beyond-split"])
    def test_bad_dataset_value_is_usage_error(self, workdir, tmp_path, command, key, value,
                                              capsys):
        _, config_path, data_dir = workdir
        bad_path = _write_config(tmp_path, config_path, "dataset", key, value)
        out = tmp_path / "out"
        argv = {"gen-data": ["gen-data"],
                "train": ["train", "ce", "--data", str(data_dir)]}[command]
        assert main([*argv, "--config", str(bad_path), "--out", str(out)]) == 2
        assert f"dataset.{key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, section, key, value", [
        ("gen-data", "rl", "lr", 0), ("gen-data", "metrics", "histogram_bins", 0),
        ("train", "decode", "beam_size", 0), ("train", "finetune", "gamma", -1),
        ("decode", "ce", "epochs", -1), ("gen-data", "model", "hidden_dim", 0),
        ("loss-surface", "dataset", "n_rare", -2), ("loss-surface", "rl", "lr", -1.5),
    ], ids=["gen-data-rl", "gen-data-metrics", "train-decode", "train-finetune", "decode-ce",
            "gen-data-model", "loss-surface-dataset", "loss-surface-rl"])
    def test_bad_value_in_a_section_the_command_does_not_use(self, workdir, ce_checkpoint,
                                                              tmp_path, command, section, key,
                                                              value, capsys):
        _, config_path, data_dir = workdir
        bad_path = _write_config(tmp_path, config_path, section, key, value)
        out = tmp_path / "out"
        argv = {
            "gen-data": ["gen-data"],
            "train": ["train", "ce", "--data", str(data_dir)],
            "decode": ["decode", "--checkpoint", str(ce_checkpoint), "--data", str(data_dir)],
            "loss-surface": ["analyze", "loss-surface"],
        }[command]
        assert main([*argv, "--config", str(bad_path), "--out", str(out)]) == 2
        assert f"{section}.{key} must be" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_ce_zero_epochs_equals_initialization(self, workdir, tmp_path):
        root, config_path, data_dir = workdir
        frozen_cfg = json.loads(config_path.read_text())
        frozen_cfg["ce"]["epochs"] = 0
        cfg2 = tmp_path / "cfg0.json"
        cfg2.write_text(json.dumps(frozen_cfg))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["train", "ce", "--config", str(cfg2),
                     "--data", str(data_dir), "--out", str(out1)]) == 0
        assert main(["train", "ce", "--config", str(cfg2),
                     "--data", str(data_dir), "--out", str(out2)]) == 0
        p1, _ = load_checkpoint(out1 / "ce.npz")
        p2, _ = load_checkpoint(out2 / "ce.npz")
        assert p1.full_hash() == p2.full_hash()

    def test_ce_starts_from_init_params_at_scale_0_1(self, workdir, tmp_path):
        """``train ce`` starts from ``init_params`` at its default scale, 0.1,
        seeded from the config's "init" stage."""
        _, config_path, data_dir = workdir
        config = copy.deepcopy(MICRO_CONFIG)
        config["ce"]["epochs"] = 0
        path = tmp_path / "cfg0.json"
        path.write_text(json.dumps(config))
        assert main(["train", "ce", "--config", str(path),
                     "--data", str(data_dir), "--out", str(tmp_path / "r")]) == 0
        params, _ = load_checkpoint(tmp_path / "r" / "ce.npz")
        loaded = cli.load_config(str(path))
        vocab = cli._vocab_for(loaded, cli._load_bundle(str(data_dir), loaded))
        seed = int(stage_rng(config["seed"], "init").integers(0, 2**31 - 1))
        dims = ModelDims(hidden_dim=8, feature_dim=6, max_len=12)
        assert params.full_hash() == init_params(vocab, dims, seed, scale=0.1).full_hash()

    @pytest.mark.parametrize("stage, key, value", [
        ("ce", "epochs", -1), ("ce", "epochs", 1.5), ("ce", "batch_size", 0),
        ("ce", "lr", 0.0), ("ce", "lr", float("nan")), ("ce", "lr", float("inf")),
        ("rl", "samples_per_image", 0), ("rl", "batch_size", True), ("rl", "lr", -0.1),
    ])
    def test_bad_training_section_is_usage_error(self, workdir, ce_checkpoint, tmp_path,
                                                 stage, key, value, capsys):
        _, config_path, data_dir = workdir
        bad_path = _write_config(tmp_path, config_path, stage, key, value)
        out = tmp_path / "out"
        init = [] if stage == "ce" else ["--init", str(ce_checkpoint)]
        assert main(["train", stage, "--config", str(bad_path),
                     "--data", str(data_dir), "--out", str(out), *init]) == 2
        assert f"{stage}.{key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("hidden_dim", 0), ("hidden_dim", 2.5), ("hidden_dim", True), ("max_len", 0),
        ("max_len", -3), ("max_len", 1), ("max_len", 1.5),
    ])
    def test_bad_model_section_is_usage_error(self, workdir, tmp_path, key, value, capsys):
        _, config_path, data_dir = workdir
        bad_path = _write_config(tmp_path, config_path, "model", key, value)
        out = tmp_path / "out"
        assert main(["train", "ce", "--config", str(bad_path),
                     "--data", str(data_dir), "--out", str(out)]) == 2
        assert f"model.{key} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_rl_requires_init(self, workdir, tmp_path, capsys):
        root, config_path, data_dir = workdir
        with pytest.raises(SystemExit) as exc:
            main(["train", "rl", "--config", str(config_path),
                  "--data", str(data_dir), "--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert "required: --init" in capsys.readouterr().err

    def test_ce_with_init_is_usage_error_before_data_is_read(self, workdir, ce_checkpoint,
                                                             tmp_path, capsys):
        _, config_path, _ = workdir
        out = tmp_path / "r"
        with pytest.raises(SystemExit) as exc:
            main(["train", "ce", "--config", str(config_path),
                  "--data", str(tmp_path / "no_data"), "--out", str(out),
                  "--init", str(ce_checkpoint)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--init" in err and "dataset directory" not in err
        assert not out.exists()

    def test_rl_stage_runs_and_logs(self, workdir, ce_checkpoint):
        root, config_path, data_dir = workdir
        out = root / "rl_run"
        assert main(["train", "rl", "--config", str(config_path),
                     "--data", str(data_dir), "--out", str(out),
                     "--init", str(ce_checkpoint)]) == 0
        with open(out / "rl_log.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {"epoch", "mean_reward", "mean_greedy_reward",
                                         "useful_sample_ratio"}
        assert all(0.0 <= float(row["useful_sample_ratio"]) <= 1.0 for row in rows)
        assert sorted(path.name for path in out.iterdir()) == ["rl.npz", "rl_log.csv"]


class TestModeFlags:
    """Each command takes only its own modes, and each mode only the flags
    it reads, so a flag the run would ignore exits 2 and writes nothing."""

    @pytest.mark.parametrize("argv, named, parser_rejects", [
        (["train", "rl", "--init", "{ckpt}", "--data", "{data}", "--beta-prime", "0.3"],
         "--beta-prime", True),
        (["train", "joint", "--init", "{ckpt}", "--data", "{data}"], "invalid choice: 'joint'",
         True),
        (["train", "ce", "--init", "{ckpt}", "--data", "{data}"], "--init", True),
        (["train", "rl", "--data", "{data}"], "--init", True),
        (["finetune", "sft", "--checkpoint", "{ckpt}", "--data", "{data}", "--lr", "0.01",
          "--beta-prime", "0.5"], "--beta-prime", True),
        (["analyze", "loss-surface", "--data", "{nowhere}"], "--data", True),
        (["analyze", "histogram", "--references", "--data", "{data}",
          "--checkpoint", "{nowhere}"], "--checkpoint", True),
        (["analyze", "sample-freq", "--checkpoint", "{ckpt}", "--data", "{data}",
          "--captions", "{caps}"], "--captions", True),
        (["analyze", "sample-freq", "--checkpoint", "{ckpt}", "--data", "{data}",
          "--split", "val"], "--split", True),
        (["decode", "--checkpoint", "{ckpt}", "--data", "{nowhere}", "--method", "greedy",
          "--beam-size", "3"], "--beam-size is used only by beam decoding, not greedy", False),
        (["decode", "--checkpoint", "{ckpt}", "--data", "{data}", "--method", "nucleus"],
         "invalid choice: 'nucleus'", True),
        (["decode", "--checkpoint", "{ckpt}", "--data", "{data}", "--nucleus-p", "0.9"],
         "--nucleus-p", True),
        (["decode", "--checkpoint", "{ckpt}", "--data", "{data}", "--seed", "3"], "--seed",
         True),
        (["decode", "--checkpoint", "{ckpt}", "--data", "{data}", "--method", "bp"],
         "invalid choice: 'bp'", True),
        (["decode", "--checkpoint", "{ckpt}", "--data", "{data}", "--frozen", "{ckpt}"],
         "--frozen", True),
    ], ids=["rl-beta-prime", "train-joint", "ce-init", "rl-without-init", "sft-beta-prime",
            "loss-surface-data", "histogram-checkpoint", "sample-freq-captions",
            "sample-freq-split", "greedy-beam-size", "decode-nucleus", "decode-nucleus-p",
            "decode-seed", "decode-bp", "decode-frozen"])
    def test_flag_of_another_mode_exits_2_and_writes_nothing(
            self, workdir, ce_checkpoint, tmp_path, argv, named, parser_rejects, capsys):
        _, config_path, data_dir = workdir
        out = tmp_path / "out"
        places = {"ckpt": ce_checkpoint, "data": data_dir, "nowhere": tmp_path / "nowhere",
                  "caps": _reference_captions(data_dir, tmp_path / "caps.jsonl")}
        argv = [arg.format(**places) for arg in argv]
        argv += ["--config", str(config_path), "--out", str(out)]
        if parser_rejects:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        else:
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert named in err and "dataset directory" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, recorded", [
        (["train", "rl", "--init"],
         "b61f7b8dc3c25b8530d39ac7cc44d47f28fa4232f83a53b5f9b48699098f1187"),
        (["finetune", "wft", "--sweep", "--beta-prime", "0.5", "--checkpoint"],
         "33bd5eaed9bdec4fa474f31c319c741d964bb27cbab652a267ade816d7bd2479"),
    ], ids=["train-rl", "finetune-wft-sweep"])
    def test_mode_is_not_a_setting(self, workdir, ce_checkpoint, tmp_path, argv, recorded):
        """A run records the hash of its config alone: these are the hashes
        that the same runs recorded when the mode was a flag (``--stage rl``,
        ``--method wft``), with the config's former ``joint`` section and
        its former ``metrics.recall_ks``, ``metrics.repetition_n``,
        ``model.init_scale``, ``decode.nucleus_p`` and ``decode.beta_prime``
        keys deleted."""
        _, config_path, data_dir = workdir
        out = tmp_path / "out"
        assert main([*argv, str(ce_checkpoint), "--config", str(config_path),
                     "--data", str(data_dir), "--out", str(out)]) == 0
        assert _recorded_hash(out) == recorded


def _reference_captions(data_dir, path):
    """A caption file that copies each test image's first reference."""
    with open(data_dir / "test.jsonl") as fh, open(path, "w") as out:
        for line in fh:
            rec = json.loads(line)
            out.write(json.dumps({"id": rec["id"], "caption": " ".join(rec["references"][0]),
                                  "logprob": 0.0}) + "\n")
    return path


class TestMetricsSection:
    @pytest.mark.parametrize("command", ["eval", "analyze"])
    @pytest.mark.parametrize("key, value", [
        ("histogram_bins", 0), ("histogram_bins", True),
    ], ids=["bins-0", "bins-bool"])
    def test_bad_metrics_section_is_usage_error(self, workdir, tmp_path, command, key, value,
                                                capsys):
        _, config_path, data_dir = workdir
        bad_path = _write_config(tmp_path, config_path, "metrics", key, value)
        out = tmp_path / "out"
        if command == "eval":
            args = ["eval", "--captions", str(_reference_captions(data_dir, tmp_path / "c.jsonl")),
                    "--out", str(out)]
        else:
            args = ["analyze", "histogram", "--references", "--out", str(out)]
        assert main([*args, "--config", str(bad_path), "--data", str(data_dir)]) == 2
        assert f"metrics.{key}" in capsys.readouterr().err
        assert list(tmp_path.glob("out*")) == []

    def test_more_histogram_bins_than_words_is_usage_error(self, workdir, tmp_path, capsys):
        _, config_path, data_dir = workdir
        bad_path = _write_config(tmp_path, config_path, "metrics", "histogram_bins", 10_000)
        out = tmp_path / "hist.csv"
        assert main(["analyze", "histogram", "--references", "--out", str(out),
                     "--config", str(bad_path), "--data", str(data_dir)]) == 2
        err = capsys.readouterr().err
        assert "metrics.histogram_bins" in err and "exceeds" in err
        assert not out.exists()

    def test_more_histogram_bins_than_words_rejected_before_sampling(
            self, workdir, ce_checkpoint, tmp_path, capsys, monkeypatch):
        _, config_path, data_dir = workdir
        bad_path = _write_config(tmp_path, config_path, "metrics", "histogram_bins", 10_000)
        calls = []
        monkeypatch.setattr(cli, "sample_sequences", lambda *args: calls.append(args))
        out = tmp_path / "sf.csv"
        assert main(["analyze", "sample-freq", "--checkpoint", str(ce_checkpoint),
                     "--out", str(out), "--config", str(bad_path), "--data", str(data_dir)]) == 2
        err = capsys.readouterr().err
        assert "metrics.histogram_bins" in err and "exceeds" in err
        assert calls == [] and not out.exists()


class TestDecodeEval:
    def test_decode_default_beam_and_line_count(self, workdir, ce_checkpoint):
        root, config_path, data_dir = workdir
        out = root / "caps.jsonl"
        assert main(["decode", "--checkpoint", str(ce_checkpoint),
                     "--config", str(config_path), "--data", str(data_dir),
                     "--split", "test", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == MICRO_CONFIG["dataset"]["n_test"]
        first = json.loads(lines[0])
        assert set(first) == {"id", "caption", "logprob"}

    @pytest.mark.parametrize("method", ["greedy", "beam"])
    def test_decode_stops_at_the_models_max_len(self, workdir, ce_checkpoint, tmp_path, method):
        """The CLI leaves ``DecodeConfig.max_len`` to the checkpoint, whose
        ``max_len`` is the config's, so its captions are those of a decode
        given ``model.max_len``."""
        _, config_path, data_dir = workdir
        out = tmp_path / "caps.jsonl"
        assert main(["decode", "--checkpoint", str(ce_checkpoint), "--method", method,
                     "--config", str(config_path), "--data", str(data_dir),
                     "--out", str(out)]) == 0
        config = cli.load_config(str(config_path))
        split = cli._load_bundle(str(data_dir), config).test
        params, _ = load_checkpoint(ce_checkpoint)
        decode_config = DecodeConfig(**config["decode"] | {"method": method},
                                     max_len=config["model"]["max_len"])
        expected = tmp_path / "expected.jsonl"
        save_captions(expected, split, decode_dataset(params, split, decode_config))
        assert out.read_bytes() == expected.read_bytes()

    def test_invalid_decode_flag_is_usage_error(self, workdir, ce_checkpoint, capsys):
        root, config_path, data_dir = workdir
        code = main(["decode", "--checkpoint", str(ce_checkpoint),
                     "--config", str(config_path), "--data", str(data_dir),
                     "--out", str(root / "bad_flag.jsonl"), "--beam-size", "0"])
        assert code == 2
        assert "decode config" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("beta", -1.0), ("beta", float("nan"))],
                             ids=["beta-negative", "beta-nan"])
    def test_bad_decode_temperature_is_usage_error(self, workdir, ce_checkpoint, tmp_path,
                                                   key, value, capsys):
        _, config_path, data_dir = workdir
        bad = json.loads(config_path.read_text())
        bad["decode"][key] = value
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))  # NaN is written as a bare NaN token
        out = tmp_path / "caps.jsonl"
        code = main(["decode", "--checkpoint", str(ce_checkpoint), "--config", str(bad_path),
                     "--data", str(data_dir), "--out", str(out)])
        assert code == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("beam_size", 2.5), ("beam_size", True), ("beam_size", "5"),
        ("beta", True),
    ], ids=["beam-size-float", "beam-size-bool", "beam-size-string", "beta-bool"])
    def test_decode_value_of_wrong_type_is_usage_error(self, workdir, ce_checkpoint, tmp_path,
                                                       key, value, capsys):
        _, config_path, data_dir = workdir
        bad = json.loads(config_path.read_text())
        bad["decode"][key] = value
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        out = tmp_path / "caps.jsonl"
        code = main(["decode", "--checkpoint", str(ce_checkpoint), "--config", str(bad_path),
                     "--data", str(data_dir), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid decode config" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["decode", "wft-sweep", "wft", "train-ce", "train-rl",
                                         "gen-data", "loss-surface"])
    def test_bp_decoding_in_the_config_is_usage_error(self, workdir, ce_checkpoint, tmp_path,
                                                      command, capsys):
        """The pipeline decodes with the model alone, so ``decode.method:
        "bp"`` exits 2 naming the key, before any data is read, whichever
        command reads the config."""
        _, config_path, data_dir = workdir
        bp_path = _write_config(tmp_path, config_path, "decode", "method", "bp")
        out = tmp_path / "out"
        data = ["--data", str(data_dir)]
        argv = {"decode": ["decode", "--checkpoint", str(ce_checkpoint), *data],
                "wft-sweep": ["finetune", "wft", "--sweep", "--checkpoint", str(ce_checkpoint),
                              *data],
                "wft": ["finetune", "wft", "--checkpoint", str(ce_checkpoint), "--lr", "0.01",
                        "--beta-prime", "1.0", *data],
                "train-ce": ["train", "ce", *data],
                "train-rl": ["train", "rl", "--init", str(ce_checkpoint), *data],
                "gen-data": ["gen-data"],
                "loss-surface": ["analyze", "loss-surface", *ONE_BETA_PRIME],
                }[command]
        assert main([*argv, "--config", str(bp_path), "--out", str(out)]) == 2
        assert "decode.method must be greedy or beam, got 'bp'" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_from_other_dataset_rejected(self, workdir, ce_checkpoint, tmp_path):
        _, config_path, _ = workdir
        other = tmp_path / "other_data"
        assert main(["gen-data", "--config", str(config_path), "--out", str(other),
                     "--seed", "99"]) == 0
        out = tmp_path / "caps.jsonl"
        assert main(["decode", "--checkpoint", str(ce_checkpoint),
                     "--config", str(config_path), "--data", str(other),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_checkpoint_with_wrong_array_shape_rejected(self, workdir, ce_checkpoint, tmp_path,
                                                        capsys):
        _, config_path, data_dir = workdir
        params, _ = load_checkpoint(ce_checkpoint)
        params.cls_b = params.cls_b[:1]
        save_checkpoint(params, tmp_path / "bad.npz")
        out = tmp_path / "caps.jsonl"
        assert main(["decode", "--checkpoint", str(tmp_path / "bad.npz"),
                     "--config", str(config_path), "--data", str(data_dir),
                     "--out", str(out)]) == 2
        assert "cls_b" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_dataset_key_is_usage_error(self, workdir, ce_checkpoint, tmp_path, capsys):
        _, config_path, data_dir = workdir
        bad = json.loads(config_path.read_text())
        bad["dataset"]["bogus"] = 1
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        code = main(["decode", "--checkpoint", str(ce_checkpoint), "--config", str(bad_path),
                     "--data", str(data_dir), "--out", str(tmp_path / "caps.jsonl")])
        assert code == 2
        assert "dataset config" in capsys.readouterr().err

    def test_eval_deterministic_bytes_and_schema(self, workdir, ce_checkpoint):
        root, config_path, data_dir = workdir
        caps = root / "caps.jsonl"
        if not caps.exists():
            main(["decode", "--checkpoint", str(ce_checkpoint), "--config", str(config_path),
                  "--data", str(data_dir), "--split", "test", "--out", str(caps)])
        out1, out2 = root / "rep1", root / "rep2"
        for out in (out1, out2):
            assert main(["eval", "--captions", str(caps), "--config", str(config_path),
                         "--data", str(data_dir), "--split", "test",
                         "--out", str(out), "--run-id", "same"]) == 0
        assert (Path(str(out1) + ".csv")).read_bytes() == (Path(str(out2) + ".csv")).read_bytes()
        with open(str(out1) + ".csv") as fh:
            row = next(csv.DictReader(fh))
        for column in ("rep", "oor_count", "oor_mean_rank", "r_at_1", "unique_1", "cider"):
            assert column in row

    def test_eval_reports_evaluate_at_its_default_recalls(self, workdir, tmp_path):
        """eval's row is ``evaluate``'s report, with R@1, R@5 and R@10."""
        _, config_path, data_dir = workdir
        caps = _reference_captions(data_dir, tmp_path / "caps.jsonl")
        out = tmp_path / "eval"
        assert main(["eval", "--captions", str(caps), "--config", str(config_path),
                     "--data", str(data_dir), "--out", str(out)]) == 0
        with open(str(out) + ".csv") as fh:
            row = next(csv.DictReader(fh))
        assert [key for key in row if key.startswith("r_at_")] == ["r_at_1", "r_at_5", "r_at_10"]
        config = cli.load_config(str(config_path))
        bundle = cli._load_bundle(str(data_dir), config)
        vocab = cli._vocab_for(config, bundle)
        report = evaluate(cli._captions_for(bundle.test, caps), bundle.test, vocab,
                          corpus_stats_for(vocab, bundle.train))
        assert {key: row[key] for key in report.as_dict()} == {
            key: str(value) for key, value in report.as_dict().items()}

    def test_eval_references_self_scores_zero_oor(self, workdir):
        root, config_path, data_dir = workdir
        refs_file = _reference_captions(data_dir, root / "ref_caps.jsonl")
        assert main(["eval", "--captions", str(refs_file), "--config", str(config_path),
                     "--data", str(data_dir), "--split", "test",
                     "--out", str(root / "selfrep")]) == 0
        with open(str(root / "selfrep") + ".csv") as fh:
            row = next(csv.DictReader(fh))
        assert row["oor_count"] == "0"

    @pytest.mark.parametrize("bad_line", [
        "not json", json.dumps({"id": 0}), json.dumps({"caption": "a b"}),
        json.dumps({"id": 0.5, "caption": "a b"}), json.dumps([0, "a b"]), None,
    ], ids=["not-json", "no-caption", "no-id", "id-not-integer", "not-an-object", "repeated-id"])
    def test_malformed_caption_line_is_usage_error(self, workdir, tmp_path, bad_line, capsys):
        _, config_path, data_dir = workdir
        caps = _reference_captions(data_dir, tmp_path / "caps.jsonl")
        lines = caps.read_text().splitlines()
        if bad_line is None:  # line 3 repeats line 1's image id
            bad_line = lines[0]
        caps.write_text("\n".join([lines[0], "", bad_line, *lines[1:]]) + "\n")
        out = tmp_path / "rep"
        assert main(["eval", "--captions", str(caps), "--config", str(config_path),
                     "--data", str(data_dir), "--out", str(out)]) == 2
        assert f"{caps}, line 3:" in capsys.readouterr().err
        assert list(tmp_path.glob("rep*")) == []

    def test_caption_line_not_utf8_is_usage_error(self, workdir, tmp_path, capsys):
        _, config_path, data_dir = workdir
        caps = _reference_captions(data_dir, tmp_path / "caps.jsonl")
        lines = caps.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"caption"', b'"\xffcaption"')
        caps.write_bytes(b"".join(lines))
        out = tmp_path / "rep"
        assert main(["eval", "--captions", str(caps), "--config", str(config_path),
                     "--data", str(data_dir), "--out", str(out)]) == 2
        assert f"{caps}, line 3: not UTF-8" in capsys.readouterr().err
        assert list(tmp_path.glob("rep*")) == []


class TestFinetuneCommand:
    def test_sft_fixed_lr(self, workdir, ce_checkpoint):
        root, config_path, data_dir = workdir
        out = root / "ft_sft"
        assert main(["finetune", "sft", "--config", str(config_path),
                     "--data", str(data_dir), "--checkpoint", str(ce_checkpoint),
                     "--out", str(out), "--lr", "0.01"]) == 0
        ft, _ = load_checkpoint(out / "sft.npz")
        base, _ = load_checkpoint(ce_checkpoint)
        assert ft.encoder_hash() == base.encoder_hash()
        assert ft.classifier_hash() != base.classifier_hash()

    def test_wft_sweep_writes_rows_and_the_model_alone(self, workdir, ce_checkpoint):
        root, config_path, data_dir = workdir
        out = root / "ft_wft"
        assert main(["finetune", "wft", "--config", str(config_path),
                     "--data", str(data_dir), "--checkpoint", str(ce_checkpoint),
                     "--out", str(out), "--sweep"]) == 0
        with open(out / "wft_sweep.csv") as fh:
            rows = [(float(row["lr"]), float(row["beta_prime"])) for row in csv.DictReader(fh)]
        grids = MICRO_CONFIG["finetune"]
        assert rows == [(lr, bp) for lr in grids["lr_grid"] for bp in grids["beta_prime_grid"]]
        assert sorted(path.name for path in out.iterdir()) == ["wft.npz", "wft_sweep.csv"]
        _, meta = load_checkpoint(out / "wft.npz")
        assert "extra" not in meta

    def test_sweep_of_another_method_ignores_the_beta_prime_grid(self, workdir, ce_checkpoint,
                                                                 tmp_path):
        _, config_path, data_dir = workdir
        out = tmp_path / "ft"
        assert main(["finetune", "sft", "--config", str(config_path),
                     "--data", str(data_dir), "--checkpoint", str(ce_checkpoint),
                     "--out", str(out), "--sweep"]) == 0
        with open(out / "sft_sweep.csv") as fh:
            rows = [(float(row["lr"]), row["beta_prime"]) for row in csv.DictReader(fh)]
        assert rows == [(lr, "") for lr in MICRO_CONFIG["finetune"]["lr_grid"]]

    @pytest.mark.parametrize("method,grids", [
        ("sft", {"lr_grid": []}),
        ("wft", {"lr_grid": []}),
        ("wft", {"beta_prime_grid": []}),
        ("sft", {"lr_grid": 0.01}),
    ], ids=["sft-lr", "wft-lr", "wft-beta-prime", "sft-lr-not-a-list"])
    def test_bad_sweep_grid_rejected(self, workdir, ce_checkpoint, tmp_path, method, grids,
                                     capsys):
        _, _, data_dir = workdir
        config = dict(MICRO_CONFIG, finetune={**MICRO_CONFIG["finetune"], **grids})
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "ft"
        assert main(["finetune", method, "--config", str(config_path),
                     "--data", str(data_dir), "--checkpoint", str(ce_checkpoint),
                     "--out", str(out), "--sweep"]) == 2
        assert "invalid finetune config" in capsys.readouterr().err
        assert not out.exists()

    def test_lr_required_without_sweep(self, workdir, ce_checkpoint):
        root, config_path, data_dir = workdir
        assert main(["finetune", "sft", "--config", str(config_path),
                     "--data", str(data_dir), "--checkpoint", str(ce_checkpoint),
                     "--out", str(root / "x")]) == 2


def _checkpoint_argv(flag, ce_checkpoint, path, out):
    """A command line that loads ``path`` through ``--flag``."""
    return {
        "init": ["train", "rl", "--init", str(path), "--out", str(out)],
        "checkpoint": ["finetune", "sft", "--lr", "0.01", "--checkpoint", str(path),
                       "--out", str(out)],
    }[flag]


class TestCheckpointChecks:
    """Every checkpoint a command loads is checked, once, against the data's
    vocabulary and the config's model dimensions."""

    @pytest.mark.parametrize("problem, message", [
        ("vocab", "vocabulary hash mismatch"),
        ("hidden_dim", "hidden_dim is 9, expected 8"),
        ("max_len", "max_len is 13, expected 12"),
    ], ids=["vocab", "hidden-dim", "max-len"])
    @pytest.mark.parametrize("flag", ["init", "checkpoint"])
    def test_checkpoint_not_of_this_data_and_config_is_usage_error(
            self, workdir, ce_checkpoint, tmp_path, flag, problem, message, capsys):
        _, config_path, data_dir = workdir
        params, _ = load_checkpoint(ce_checkpoint)
        if problem == "vocab":
            bad = init_params(build_vocab([["alien", "words"]], 1), params.dims, 0)
        else:
            bad = init_params(params.vocab, replace(params.dims, **{
                problem: getattr(params.dims, problem) + 1}), 0)
        bad_path = tmp_path / "bad.npz"
        save_checkpoint(bad, bad_path)
        out = tmp_path / "out"
        argv = _checkpoint_argv(flag, ce_checkpoint, bad_path, out)
        assert main([*argv, "--config", str(config_path), "--data", str(data_dir)]) == 2
        assert f"--{flag} {bad_path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("malformation", ["no-meta", "meta-without-vocab", "no-cls-w",
                                              "meta-is-list", "tokens-not-a-list", "empty",
                                              "truncated", "npy"])
    @pytest.mark.parametrize("flag", ["init", "checkpoint"])
    def test_malformed_checkpoint_is_usage_error(self, workdir, ce_checkpoint, tmp_path, flag,
                                                 malformation, capsys):
        _, config_path, data_dir = workdir
        with np.load(ce_checkpoint) as data:
            members = dict(data)
        bad_path = tmp_path / "bad.npz"
        good = ce_checkpoint.read_bytes()
        if malformation == "empty":
            bad_path.write_bytes(b"")
        elif malformation == "truncated":
            bad_path.write_bytes(good[: len(good) // 2])
        elif malformation == "npy":
            with open(bad_path, "wb") as fh:
                np.save(fh, members["cls_w"])
        else:
            if malformation in ("meta-without-vocab", "meta-is-list", "tokens-not-a-list"):
                meta = json.loads(bytes(members["meta"]).decode("utf-8"))
                if malformation == "meta-without-vocab":
                    del meta["vocab"]
                elif malformation == "meta-is-list":
                    meta = [meta]
                else:
                    meta["vocab"]["tokens"] = 7
                members["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
            else:
                del members[{"no-meta": "meta", "no-cls-w": "cls_w"}[malformation]]
            np.savez(bad_path, **members)
        out = tmp_path / "out"
        argv = _checkpoint_argv(flag, ce_checkpoint, bad_path, out)
        assert main([*argv, "--config", str(config_path), "--data", str(data_dir)]) == 2
        assert f"invalid checkpoint {bad_path}: " in capsys.readouterr().err
        assert not out.exists()


def _outputs(out_dir):
    """Every file under ``out_dir``; checkpoints as (parameter hash, metadata)."""
    outputs = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".npz":
            params, meta = load_checkpoint(path)
            outputs[path.name] = (params.full_hash(), meta)
        else:
            outputs[path.name] = path.read_bytes()
    return outputs


def _recorded_hash(out_dir):
    """The config hash of every checkpoint in ``out_dir``, which must agree."""
    hashes = {load_checkpoint(path)[1]["config_hash"] for path in out_dir.glob("*.npz")}
    assert len(hashes) == 1
    return hashes.pop()


def _resolved_hash(argv):
    """The config hash a command line runs under, for a command whose outputs
    record none."""
    return cli._resolve_config(cli.build_parser().parse_args(argv))[1]


def _run_hash(workdir, ce_checkpoint, command, config_path, out_dir, flags=()):
    """The config hash a ``_run`` ran under: the one its checkpoints record,
    or, for decode and loss-surface, which write none, the one its command
    line resolves to."""
    if command in ("decode", "loss-surface"):
        return _resolved_hash(_argv(workdir, ce_checkpoint, command, config_path, out_dir, flags))
    return _recorded_hash(out_dir)


def _run(workdir, ce_checkpoint, command, config_path, out_dir, flags=()):
    return main(_argv(workdir, ce_checkpoint, command, config_path, out_dir, flags))


def _argv(workdir, ce_checkpoint, command, config_path, out_dir, flags=()):
    _, _, data_dir = workdir
    if command == "loss-surface":  # reads no data, and one β′
        return ["analyze", "loss-surface", "--out", str(out_dir / "surface.csv"),
                "--config", str(config_path), *ONE_BETA_PRIME, *flags]
    argv = {
        "decode": ["decode", "--checkpoint", str(ce_checkpoint), "--out", str(out_dir / "caps.jsonl")],
        "wft": ["finetune", "wft", "--checkpoint", str(ce_checkpoint),
                "--out", str(out_dir)],
        "sft-sweep": ["finetune", "sft", "--sweep", "--checkpoint", str(ce_checkpoint),
                      "--out", str(out_dir)],
    }[command]
    return [*argv, "--config", str(config_path), "--data", str(data_dir), *flags]


def _leaf_parsers(parser=None, path=()):
    """(command words, parser) for every parser that takes no further
    subcommand, ``train ce`` and ``analyze loss-surface`` among them."""
    parser = parser or cli.build_parser()
    modes = [action for action in parser._actions
             if isinstance(action, argparse._SubParsersAction)]
    if not modes:
        return [(path, parser)]
    return [leaf for name, child in modes[0].choices.items()
            for leaf in _leaf_parsers(child, (*path, name))]


class TestFlagsFoldIntoConfig:
    @pytest.mark.parametrize("command, flags, section, edits", [
        ("decode", ["--beam-size", "2"], "decode", {"beam_size": 2}),
        ("decode", ["--method", "greedy"], "decode", {"method": "greedy"}),
        ("loss-surface", ["--gamma", "0.2"], "finetune", {"gamma": 0.2, "beta_prime_grid": [1.0]}),
        ("wft", ["--lr", "0.05", "--beta-prime", "0.5"], "finetune",
         {"lr_grid": [0.05], "beta_prime_grid": [0.5]}),
    ], ids=["beam-size", "method", "gamma", "lr-beta-prime"])
    def test_flag_equals_config_value(self, workdir, ce_checkpoint, tmp_path, command, flags,
                                      section, edits):
        _, config_path, _ = workdir
        config = json.loads(config_path.read_text())
        config[section].update(edits)
        edited_path = tmp_path / "edited.json"
        edited_path.write_text(json.dumps(config))
        by_flag, by_file = tmp_path / "flag", tmp_path / "file"
        assert _run(workdir, ce_checkpoint, command, config_path, by_flag, flags) == 0
        assert _run(workdir, ce_checkpoint, command, edited_path, by_file) == 0
        assert _outputs(by_flag) == _outputs(by_file)
        by_file_hash = _run_hash(workdir, ce_checkpoint, command, edited_path, by_file)
        by_flag_hash = _run_hash(workdir, ce_checkpoint, command, config_path, by_flag, flags)
        assert by_flag_hash == by_file_hash == config_hash(cli.load_config(str(edited_path)))
        assert by_flag_hash != config_hash(cli.load_config(str(config_path)))

    @pytest.mark.parametrize("command, variants", [
        ("decode", [[], ["--beam-size", "1"], ["--beam-size", "2"], ["--method", "greedy"]]),
        ("loss-surface", [["--gamma", "0.2"], ["--gamma", "0.8"]]),
    ], ids=["decode", "gamma"])
    def test_different_flags_give_different_hashes(self, workdir, ce_checkpoint, tmp_path,
                                                   command, variants):
        _, config_path, _ = workdir
        hashes = []
        for i, flags in enumerate(variants):
            assert _run(workdir, ce_checkpoint, command, config_path, tmp_path / str(i), flags) == 0
            hashes.append(_run_hash(workdir, ce_checkpoint, command, config_path,
                                    tmp_path / str(i), flags))
        assert len(set(hashes)) == len(variants)

    def test_sweep_with_lr_flag_sweeps_that_point(self, workdir, ce_checkpoint, tmp_path):
        _, config_path, _ = workdir
        out = tmp_path / "ft"
        assert _run(workdir, ce_checkpoint, "sft-sweep", config_path, out, ["--lr", "0.5"]) == 0
        with open(out / "sft_sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(row["lr"]) for row in rows] == [0.5]

    @pytest.mark.parametrize("flags, named", [
        (["--lr", "0.01"], "--beta-prime"),
        (["--beta-prime", "0.1"], "--lr"),
    ], ids=["beta-prime-grid", "lr-grid"])
    def test_wft_without_sweep_needs_one_point(self, workdir, ce_checkpoint, tmp_path, flags,
                                               named, capsys):
        _, config_path, _ = workdir
        out = tmp_path / "ft"
        assert _run(workdir, ce_checkpoint, "wft", config_path, out, flags) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edits, flags, named", [
        ({"batch_size": 0}, [], "finetune.batch_size"),
        ({"gamma": -1}, [], "finetune.gamma"),
        ({"alpha": float("nan")}, [], "finetune.alpha"),
        ({"lr_grid": ["x"]}, [], "finetune.lr_grid[0]"),
        ({"lr_grid": [0.01, -1.0]}, [], "finetune.lr_grid[1]"),
        ({"beta_prime_grid": None}, [], "finetune.beta_prime_grid"),
        ({}, ["--lr", "nan"], "finetune.lr_grid[0]"),
        ({}, ["--lr", "-1"], "finetune.lr_grid[0]"),
        ({}, ["--beta-prime", "-1"], "finetune.beta_prime_grid[0]"),
    ], ids=["batch-size", "gamma", "alpha-nan", "lr-not-number", "lr-negative",
            "beta-prime-null", "lr-flag-nan", "lr-flag-negative", "beta-prime-flag-negative"])
    def test_bad_finetune_section_is_usage_error(self, workdir, ce_checkpoint, tmp_path, edits,
                                                 flags, named, capsys):
        _, config_path, _ = workdir
        config = json.loads(config_path.read_text())
        config["finetune"].update(edits)
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(config))  # NaN is written as a bare NaN token
        out = tmp_path / "ft"
        assert _run(workdir, ce_checkpoint, "wft", bad_path, out, ["--sweep", *flags]) == 2
        assert f"{named} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_config_flags_name_config_keys(self):
        """Every flag whose destination looks like a config key names a leaf
        of DEFAULT_CONFIG and is None unless given, so folding flags into the
        config never writes an unknown key or a value nobody passed."""
        dests = set()
        for _, command in _leaf_parsers():
            for action in command._actions:
                section, _, key = action.dest.rpartition(".")
                if not section and key not in cli.DEFAULT_CONFIG:
                    continue
                default = cli.DEFAULT_CONFIG[section] if section else cli.DEFAULT_CONFIG
                assert key in default and not isinstance(default[key], dict), action.dest
                assert action.default is None, action.dest
                dests.add(action.dest)
        assert dests == {"seed", "decode.method", "decode.beam_size", "decode.beta",
                         "finetune.lr_grid", "finetune.beta_prime_grid", "finetune.gamma",
                         "finetune.alpha"}

    def test_one_settings_path(self):
        """Every option of every leaf command is a config key, which the hash
        covers, or names a path or a mode: no setting reaches a run outside
        the hashed config.  The one exception is the extent of an analysis
        (how many samples, which p1 grid), whose CSV records no hash."""
        paths_and_modes = {"config", "data", "out", "init", "checkpoint", "captions",
                           "references", "split", "run_id", "sweep", "help"}
        extents = {"samples", "p1_min", "p1_max", "grid_points"}
        for path, command in _leaf_parsers():
            for action in command._actions:
                section, _, key = action.dest.rpartition(".")
                in_config = (key in cli.DEFAULT_CONFIG.get(section, {}) if section
                             else key in cli.DEFAULT_CONFIG)
                assert (in_config or action.dest in paths_and_modes
                        or (path[0] == "analyze" and action.dest in extents)), (path, action.dest)

    @pytest.mark.parametrize("path", [path for path, _ in _leaf_parsers()],
                             ids=lambda path: "-".join(path))
    def test_help_exits_zero(self, path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*path, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: caplab {' '.join(path)} ")


class TestConfigHash:
    ARGV = {
        "loss-surface": ["analyze", "loss-surface", "--out", "o"],
        "finetune": ["finetune", "sft", "--data", "d", "--checkpoint", "c",
                     "--out", "o"],
    }

    def _resolve(self, tmp_path, name, config, command, flags=()):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        args = cli.build_parser().parse_args([*self.ARGV[command], "--config", str(path), *flags])
        return cli._resolve_config(args)

    @pytest.mark.parametrize("command, section, key, as_int, as_float, flags", [
        ("loss-surface", "finetune", "gamma", 2, 2.0, ["--gamma", "2"]),
        ("finetune", "finetune", "lr_grid", [1], [1.0], ["--lr", "1"]),
    ], ids=["gamma", "lr-grid"])
    def test_integer_float_and_flag_give_one_hash(self, tmp_path, command, section, key, as_int,
                                                  as_float, flags):
        resolved = []
        for name, value in (("int", as_int), ("float", as_float)):
            config = copy.deepcopy(MICRO_CONFIG)
            config[section][key] = value
            resolved.append(self._resolve(tmp_path, name, config, command))
        resolved.append(self._resolve(tmp_path, "flag", MICRO_CONFIG, command, flags))
        assert len({cfg_hash for _, cfg_hash in resolved}) == 1
        assert resolved[0][0][section][key] == as_float
        assert type(resolved[0][0][section][key]) is type(as_float)

    def test_integer_grid_entries_read_as_floats(self, tmp_path):
        config = copy.deepcopy(MICRO_CONFIG)
        by_int = self._resolve(tmp_path, "int", config | {
            "finetune": config["finetune"] | {"lr_grid": [1, 0.001], "beta_prime_grid": [0, 1]}},
            "finetune")
        by_float = self._resolve(tmp_path, "float", config | {
            "finetune": config["finetune"] | {"lr_grid": [1.0, 0.001],
                                              "beta_prime_grid": [0.0, 1.0]}}, "finetune")
        assert by_int == by_float
        assert [type(v) for v in by_int[0]["finetune"]["lr_grid"]] == [float, float]

    def test_integer_leaves_of_integer_keys_and_booleans_stay(self, tmp_path):
        resolved, _ = self._resolve(tmp_path, "cfg", MICRO_CONFIG, "loss-surface")
        assert type(resolved["ce"]["batch_size"]) is int
        config = copy.deepcopy(MICRO_CONFIG)
        config["ce"]["lr"] = True  # not cast to 1.0: a bool is not a number here
        with pytest.raises(cli.UsageError, match=r"ce\.lr must be .*got True"):
            self._resolve(tmp_path, "bool", config, "loss-surface")

    @pytest.mark.parametrize("section, key, value, named", [
        ("ce", "lr", 10**400, "ce.lr"),
        ("finetune", "lr_grid", [0.01, 10**400], "finetune.lr_grid[1]"),
    ], ids=["ce-lr", "lr-grid"])
    def test_integer_too_large_for_a_float_is_usage_error(self, workdir, tmp_path, section,
                                                          key, value, named, capsys):
        _, config_path, data_dir = workdir
        bad_path = _write_config(tmp_path, config_path, section, key, value)
        out = tmp_path / "out"
        assert main(["train", "ce", "--config", str(bad_path), "--data",
                     str(data_dir), "--out", str(out)]) == 2
        assert f"{named} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_default_config_hash_unchanged(self, tmp_path):
        default_hash = "0e6d185b0b0951b65b8586cc01c13d825bf8bad2e53eb8600019a16695be95ca"
        assert config_hash(cli.load_config(None)) == default_hash
        path = tmp_path / "default.json"
        path.write_text(json.dumps(cli.DEFAULT_CONFIG))
        assert config_hash(cli.load_config(str(path))) == default_hash


def _analysis_inputs(what, data_dir, ce_checkpoint):
    """The inputs each analysis reads: sample-freq samples a checkpoint on the
    dataset; loss-surface reads neither."""
    return {"sample-freq": ["--data", str(data_dir), "--checkpoint", str(ce_checkpoint),
                            "--samples", "2"],
            "loss-surface": []}[what]


class TestAnalyze:
    def test_histogram_of_references_matches_corpus(self, workdir):
        root, config_path, data_dir = workdir
        out = root / "hist.csv"
        assert main(["analyze", "histogram", "--config", str(config_path),
                     "--data", str(data_dir), "--references", "--split", "train",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "bin_index,relative_frequency"
        assert lines[-1].startswith("tail,")
        bins = [float(line.split(",")[1]) for line in lines[1:-1]]
        tail = float(lines[-1].split(",")[1])
        assert sum(bins) + tail == pytest.approx(1.0, abs=1e-9)

    def test_histogram_unknown_split(self, workdir, tmp_path, capsys):
        _, config_path, data_dir = workdir
        assert main(["analyze", "histogram", "--config", str(config_path),
                     "--data", str(data_dir), "--references", "--split", "bogus",
                     "--out", str(tmp_path / "newdir" / "sub" / "h.csv")]) == 2
        assert "unknown split" in capsys.readouterr().err
        assert not (tmp_path / "newdir").exists()

    def test_histogram_of_missing_caption_file_is_usage_error(self, workdir, tmp_path, capsys):
        _, config_path, data_dir = workdir
        missing, out = tmp_path / "nope.jsonl", tmp_path / "hist.csv"
        assert main(["analyze", "histogram", "--config", str(config_path),
                     "--data", str(data_dir), "--captions", str(missing), "--split", "test",
                     "--out", str(out)]) == 2
        assert f"caption file not found: {missing}" in capsys.readouterr().err
        assert not out.exists()

    def test_histogram_of_captions_and_references_is_usage_error(self, workdir, tmp_path,
                                                                capsys):
        _, config_path, data_dir = workdir
        captions, out = tmp_path / "caps.jsonl", tmp_path / "hist.csv"
        _reference_captions(data_dir, captions)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "histogram", "--config", str(config_path),
                  "--data", str(data_dir), "--captions", str(captions), "--references",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_loss_surface_schema(self, workdir):
        root, config_path, _ = workdir
        out = root / "surface.csv"
        assert main(["analyze", "loss-surface", "--config", str(config_path),
                     "--out", str(out), *ONE_BETA_PRIME]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["p1", "ce", "bp", "fl", "afl"]

    def test_loss_surface_reads_the_fine_tunes_beta_prime(self, workdir, tmp_path):
        """β′ is ``finetune.beta_prime_grid``'s, as for ``finetune wft``: the
        flag sets a one-point grid, and the surface is the library's at it."""
        _, config_path, _ = workdir
        out = tmp_path / "surface.csv"
        assert main(["analyze", "loss-surface", "--config", str(config_path),
                     "--out", str(out), "--beta-prime", "0.3", "--grid-points", "5"]) == 0
        expected = tmp_path / "expected.csv"
        cli._write_csv(expected, loss_surface(np.linspace(0.005, 0.995, 5), beta=1.0,
                                              beta_prime=0.3, gamma=1.0, alpha=1.0),
                       ["p1", "ce", "bp", "fl", "afl"])
        assert out.read_bytes() == expected.read_bytes()

    def test_loss_surface_of_a_two_value_grid_is_usage_error(self, workdir, tmp_path, capsys):
        _, config_path, _ = workdir
        out = tmp_path / "surface.csv"
        assert main(["analyze", "loss-surface", "--config", str(config_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "finetune.beta_prime_grid has 2 values" in err and "--beta-prime" in err
        assert not out.exists()

    def test_loss_surface_at_large_beta_is_finite(self, workdir, tmp_path):
        # at decode.beta 1000 every tempered p**beta of about half the grid
        # underflows; no row may be NaN and no RuntimeWarning may be raised
        _, config_path, _ = workdir
        config = json.loads(config_path.read_text())
        config["decode"]["beta"] = 1000.0
        edited = tmp_path / "beta1000.json"
        edited.write_text(json.dumps(config))
        out = tmp_path / "surface.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["analyze", "loss-surface", "--config", str(edited),
                         "--out", str(out), *ONE_BETA_PRIME]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 199
        assert all(math.isfinite(float(value)) for row in rows for value in row.values())

    @pytest.mark.parametrize("flag, value, named", [
        ("--beta", "nan", "decode.beta"), ("--gamma", "nan", "finetune.gamma"),
        ("--beta-prime", "inf", "finetune.beta_prime_grid[0]"),
        ("--beta-prime", "nan", "finetune.beta_prime_grid[0]"),
        ("--beta-prime", "-1", "finetune.beta_prime_grid[0]"),
        ("--gamma", "-1", "finetune.gamma"),
        ("--alpha", "-0.5", "finetune.alpha"),
    ], ids=["beta-nan", "gamma-nan", "beta-prime-inf", "beta-prime-nan", "beta-prime-negative",
            "gamma-negative", "alpha-negative"])
    def test_loss_surface_bad_number_is_usage_error(self, workdir, tmp_path, flag, value,
                                                    named, capsys):
        _, config_path, _ = workdir
        out = tmp_path / "surface.csv"
        assert main(["analyze", "loss-surface", "--config", str(config_path),
                     "--out", str(out), *ONE_BETA_PRIME, f"{flag}={value}"]) == 2
        assert f"{named} must be a finite number >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("what, flags, edits", [
        ("sample-freq", ["--beta", "0.2"], {"decode.beta": 0.2}),
        ("loss-surface", ["--beta", "0.3"], {"decode.beta": 0.3}),
        ("loss-surface", ["--beta-prime", "0.5", "--gamma", "2", "--alpha", "0.5"],
         {"finetune.beta_prime_grid": [0.5], "finetune.gamma": 2.0, "finetune.alpha": 0.5}),
    ], ids=["sample-freq-beta", "loss-surface-beta", "loss-surface-beta-prime-gamma-alpha"])
    def test_analysis_flags_fold_into_config(self, workdir, ce_checkpoint, tmp_path, what,
                                             flags, edits):
        _, config_path, data_dir = workdir
        config = json.loads(config_path.read_text())
        config["finetune"]["beta_prime_grid"] = [1.0]  # the one β′ loss-surface reads
        config_path = tmp_path / "one_beta_prime.json"
        config_path.write_text(json.dumps(config))
        for dest, value in edits.items():
            section, key = dest.split(".")
            config[section][key] = value
        edited_path = tmp_path / "edited.json"
        edited_path.write_text(json.dumps(config))
        runs = {}
        for name, path, extra in (("default", config_path, []), ("flag", config_path, flags),
                                  ("file", edited_path, [])):
            out = tmp_path / name / "an.csv"
            out.parent.mkdir()
            argv = ["analyze", what, "--config", str(path), "--out", str(out),
                    *_analysis_inputs(what, data_dir, ce_checkpoint), *extra]
            assert main(argv) == 0
            runs[name] = (out.read_bytes(), _resolved_hash(argv))
        assert runs["flag"] == runs["file"]
        assert runs["flag"][0] != runs["default"][0]
        assert runs["flag"][1] == config_hash(cli.load_config(str(edited_path)))
        assert runs["flag"][1] != runs["default"][1]

    def test_sample_freq_requires_checkpoint(self, workdir, tmp_path, capsys):
        _, config_path, data_dir = workdir
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "sample-freq", "--config", str(config_path),
                  "--data", str(data_dir), "--out", str(tmp_path / "newdir" / "sf.csv")])
        assert exc.value.code == 2
        assert "required: --checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "newdir").exists()

    def test_sample_freq_runs(self, workdir, ce_checkpoint):
        root, config_path, data_dir = workdir
        out = root / "sf.csv"
        assert main(["analyze", "sample-freq", "--config", str(config_path),
                     "--data", str(data_dir), "--checkpoint", str(ce_checkpoint),
                     "--samples", "2", "--out", str(out)]) == 0
        assert out.exists()

    def test_sample_freq_draws_in_rl_batches(self, workdir, ce_checkpoint, tmp_path,
                                             monkeypatch):
        _, _, data_dir = workdir
        config = copy.deepcopy(MICRO_CONFIG)
        config["rl"]["batch_size"] = 7  # 24 training images: chunks of 7, 7, 7 and 3
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        rows, captions = [], []
        sample, histogram = cli.sample_sequences, cli.freq_histogram

        def counted_sample(params, feats, *args):
            rows.append(len(feats))
            return sample(params, feats, *args)

        def counted_histogram(sampled, *args):
            captions.append(len(sampled))
            return histogram(sampled, *args)

        monkeypatch.setattr(cli, "sample_sequences", counted_sample)
        monkeypatch.setattr(cli, "freq_histogram", counted_histogram)
        outputs = []
        for run in range(2):
            out = tmp_path / f"sf{run}.csv"
            assert main(["analyze", "sample-freq", "--config", str(config_path),
                         "--data", str(data_dir), "--checkpoint", str(ce_checkpoint),
                         "--samples", "3", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert rows == [7, 7, 7, 3] * 3 * 2
        assert captions == [3 * MICRO_CONFIG["dataset"]["n_train"]] * 2
        assert outputs[0] == outputs[1]

    def test_sample_freq_bad_rl_batch_size_is_usage_error(self, workdir, ce_checkpoint,
                                                           tmp_path, capsys):
        _, _, data_dir = workdir
        config = copy.deepcopy(MICRO_CONFIG)
        config["rl"]["batch_size"] = 0
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "sf.csv"
        assert main(["analyze", "sample-freq", "--config", str(config_path),
                     "--data", str(data_dir), "--checkpoint", str(ce_checkpoint),
                     "--out", str(out)]) == 2
        assert "rl.batch_size must be" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("what, flag", [
        ("sample-freq", ["--samples", "0"]), ("sample-freq", ["--samples", "-3"]),
        ("loss-surface", [*ONE_BETA_PRIME, "--grid-points", "0"]),
        ("loss-surface", [*ONE_BETA_PRIME, "--grid-points", "-1"]),
    ], ids=["samples-0", "samples-negative", "grid-points-0", "grid-points-negative"])
    def test_count_below_one_is_usage_error(self, workdir, ce_checkpoint, tmp_path, what, flag,
                                            capsys):
        _, config_path, data_dir = workdir
        out = tmp_path / "an.csv"
        assert main(["analyze", what, "--config", str(config_path), "--out", str(out),
                     *_analysis_inputs(what, data_dir, ce_checkpoint), *flag]) == 2
        assert f"{flag[-2]} must be" in capsys.readouterr().err
        assert not out.exists()


def _writers(data_dir, config_path):
    """name -> (file the writer produces, writer(out_dir, variant)).

    Variants 0 and 1 write different content to the same file."""
    val = load_dataset_split(data_dir / "val.jsonl", "val",
                             MICRO_CONFIG["dataset"]["feature_dim"])
    vocab = build_vocab([["a", "b"]], min_count=1)

    def checkpoint(out, variant):
        save_checkpoint(init_params(vocab, ModelDims(4, 3, 5), seed=variant), out / "m.npz")

    def captions(out, variant):
        decoded = [Decoded(ids=[], tokens=["a"] * (variant + 1), logprob=-1.0)
                   for _ in val.records]
        save_captions(out / "caps.jsonl", val, decoded)

    def gen_data(out, variant):
        return main(["gen-data", "--config", str(config_path), "--out", str(out),
                     "--seed", str(variant)])

    return {
        "save_checkpoint": ("m.npz", checkpoint),
        "write_csv": ("log.csv", lambda out, v: cli._write_csv(out / "log.csv", [{"x": v}], ["x"])),
        "save_captions": ("caps.jsonl", captions),
        "save_dataset_split": ("val.jsonl", lambda out, v: save_dataset_split(
            val if v else Dataset("val", val.records[:1]), out / "val.jsonl")),
        "histogram": ("hist.csv", lambda out, v: freq_histogram(
            [["a"] * (v + 1), ["b"]], vocab, n_bins=2).write_csv(out / "hist.csv")),
        "gen_data_meta": ("dataset.meta.json", gen_data),
    }


class TestAtomicOutputs:
    @pytest.mark.parametrize("writer", ["save_checkpoint", "write_csv", "save_captions",
                                        "save_dataset_split", "histogram", "gen_data_meta"])
    def test_failed_write_keeps_previous_file(self, workdir, tmp_path, monkeypatch, writer):
        _, config_path, data_dir = workdir
        name, write = _writers(data_dir, config_path)[writer]
        out = tmp_path / "out"
        out.mkdir()
        write(out, 0)
        previous = (out / name).read_bytes()
        listing = sorted(p.name for p in out.iterdir())

        real_replace = os.replace

        def failing_replace(src, dst):
            if Path(dst).name == name:
                raise OSError("rename failed")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        if writer == "gen_data_meta":
            assert write(out, 1) == 1  # the CLI reports a runtime failure
        else:
            with pytest.raises(OSError, match="rename failed"):
                write(out, 1)
        assert (out / name).read_bytes() == previous
        assert sorted(p.name for p in out.iterdir()) == listing


class TestModuleEntryPoint:
    """``python -m caplab`` runs the command line and exits with its code."""

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["bogus"], 2)],
                             ids=["help", "unknown-subcommand"])
    def test_exit_code(self, argv, code):
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-m", "caplab", *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert done.returncode == code, done.stderr
        assert "usage: caplab" in done.stdout + done.stderr
