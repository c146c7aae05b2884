import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from caplab import cli
from caplab.cli import main
from caplab.corpus import (Dataset, build_vocab, freq_histogram, load_dataset_split,
                           save_dataset_split)
from caplab.decode import Decoded, save_captions
from caplab.model import ModelDims, init_params, load_checkpoint, save_checkpoint


MICRO_CONFIG = {
    "seed": 13,
    "dataset": {
        "n_train": 24, "n_val": 6, "n_test": 6, "refs_per_image": 3,
        "feature_dim": 6, "n_common": 5, "n_rare": 10, "n_generic": 2,
        "common_per_image": 2, "rare_per_image": 2, "zipf_exponent": 1.0,
        "rare_mention_rate": 0.7, "noise_std": 0.02, "min_count": 1,
    },
    "model": {"hidden_dim": 8, "max_len": 12, "init_scale": 0.1},
    "ce": {"epochs": 2, "lr": 0.3, "batch_size": 8},
    "rl": {"epochs": 1, "lr": 0.02, "batch_size": 8, "samples_per_image": 2},
    "joint": {"lam": 0.5, "epochs": 1, "lr": 0.02, "batch_size": 8, "samples_per_image": 2},
    "finetune": {"lr_grid": [0.01, 0.001], "beta_prime_grid": [0.1, 1.0],
                 "batch_size": 8, "epochs": 1, "gamma": 1.0, "alpha": 1.0},
    "decode": {"method": "beam", "beam_size": 3, "nucleus_p": 0.95, "beta": 1.0,
               "beta_prime": 1.0},
    "metrics": {"recall_ks": [1, 5], "repetition_n": 4, "histogram_bins": 5},
}


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
    code = main(["train", "--stage", "ce", "--config", str(config_path),
                 "--data", str(data_dir), "--out", str(run_dir)])
    assert code == 0
    return run_dir / "ce.npz"


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
        assert "split" in capsys.readouterr().err

    def test_sidecars_carry_config_hash(self, workdir):
        _, _, data_dir = workdir
        sidecar = json.loads((data_dir / "train.jsonl.meta.json").read_text())
        assert sidecar["config_hash"]
        assert sidecar["seed"] == MICRO_CONFIG["seed"]


class TestTrain:
    def test_ce_zero_epochs_equals_initialization(self, workdir, tmp_path):
        root, config_path, data_dir = workdir
        frozen_cfg = json.loads(config_path.read_text())
        frozen_cfg["ce"]["epochs"] = 0
        cfg2 = tmp_path / "cfg0.json"
        cfg2.write_text(json.dumps(frozen_cfg))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["train", "--stage", "ce", "--config", str(cfg2),
                     "--data", str(data_dir), "--out", str(out1)]) == 0
        assert main(["train", "--stage", "ce", "--config", str(cfg2),
                     "--data", str(data_dir), "--out", str(out2)]) == 0
        p1, _ = load_checkpoint(out1 / "ce.npz")
        p2, _ = load_checkpoint(out2 / "ce.npz")
        assert p1.full_hash() == p2.full_hash()

    def test_rl_requires_init(self, workdir, tmp_path):
        root, config_path, data_dir = workdir
        assert main(["train", "--stage", "rl", "--config", str(config_path),
                     "--data", str(data_dir), "--out", str(tmp_path / "r")]) == 2

    def test_rl_stage_runs_and_logs(self, workdir, ce_checkpoint):
        root, config_path, data_dir = workdir
        out = root / "rl_run"
        assert main(["train", "--stage", "rl", "--config", str(config_path),
                     "--data", str(data_dir), "--out", str(out),
                     "--init", str(ce_checkpoint)]) == 0
        with open(out / "rl_log.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {"epoch", "mean_reward", "mean_greedy_reward"}

    def test_joint_lambda_validated(self, workdir, ce_checkpoint, tmp_path):
        root, config_path, data_dir = workdir
        assert main(["train", "--stage", "joint", "--config", str(config_path),
                     "--data", str(data_dir), "--out", str(tmp_path / "j"),
                     "--init", str(ce_checkpoint), "--lam", "1.5"]) == 2


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

    def test_bp_without_frozen_names_flag(self, workdir, ce_checkpoint, capsys):
        root, config_path, data_dir = workdir
        code = main(["decode", "--checkpoint", str(ce_checkpoint),
                     "--config", str(config_path), "--data", str(data_dir),
                     "--method", "bp", "--out", str(root / "x.jsonl")])
        assert code == 2
        assert "--frozen" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--beam-size", "0"], ["--nucleus-p", "0"]],
                             ids=["beam-size", "nucleus-p"])
    def test_invalid_decode_flag_is_usage_error(self, workdir, ce_checkpoint, flag, capsys):
        root, config_path, data_dir = workdir
        code = main(["decode", "--checkpoint", str(ce_checkpoint),
                     "--config", str(config_path), "--data", str(data_dir),
                     "--out", str(root / "bad_flag.jsonl"), *flag])
        assert code == 2
        assert "decode config" in capsys.readouterr().err

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

    def test_frozen_checkpoint_missing_or_from_other_vocab(self, workdir, ce_checkpoint,
                                                           tmp_path, capsys):
        _, config_path, data_dir = workdir
        params, _ = load_checkpoint(ce_checkpoint)
        alien = init_params(build_vocab([["alien", "words"]], 1), params.dims, 0)
        save_checkpoint(alien, tmp_path / "alien.npz")
        for frozen, message in ((tmp_path / "missing.npz", "missing upstream checkpoint"),
                                (tmp_path / "alien.npz", "vocabulary hash mismatch")):
            out = tmp_path / "bp.jsonl"
            code = main(["decode", "--checkpoint", str(ce_checkpoint), "--config", str(config_path),
                         "--data", str(data_dir), "--method", "bp", "--frozen", str(frozen),
                         "--out", str(out)])
            assert code == 2
            assert message in capsys.readouterr().err
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

    def test_eval_references_self_scores_zero_oor(self, workdir):
        root, config_path, data_dir = workdir
        # craft a caption file that copies each test image's first reference
        refs_file = root / "ref_caps.jsonl"
        with open(data_dir / "test.jsonl") as fh, open(refs_file, "w") as out:
            for line in fh:
                rec = json.loads(line)
                out.write(json.dumps({"id": rec["id"],
                                      "caption": " ".join(rec["references"][0]),
                                      "logprob": 0.0}) + "\n")
        assert main(["eval", "--captions", str(refs_file), "--config", str(config_path),
                     "--data", str(data_dir), "--split", "test",
                     "--out", str(root / "selfrep")]) == 0
        with open(str(root / "selfrep") + ".csv") as fh:
            row = next(csv.DictReader(fh))
        assert row["oor_count"] == "0"


class TestFinetuneCommand:
    def test_sft_fixed_lr(self, workdir, ce_checkpoint):
        root, config_path, data_dir = workdir
        out = root / "ft_sft"
        assert main(["finetune", "--method", "sft", "--config", str(config_path),
                     "--data", str(data_dir), "--checkpoint", str(ce_checkpoint),
                     "--out", str(out), "--lr", "0.01"]) == 0
        ft, _ = load_checkpoint(out / "sft.npz")
        base, _ = load_checkpoint(ce_checkpoint)
        assert ft.encoder_hash() == base.encoder_hash()
        assert ft.classifier_hash() != base.classifier_hash()

    def test_wft_sweep_writes_rows_and_frozen(self, workdir, ce_checkpoint):
        root, config_path, data_dir = workdir
        out = root / "ft_wft"
        assert main(["finetune", "--method", "wft", "--config", str(config_path),
                     "--data", str(data_dir), "--checkpoint", str(ce_checkpoint),
                     "--out", str(out), "--sweep"]) == 0
        with open(out / "wft_plain_sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        grids = MICRO_CONFIG["finetune"]
        assert len(rows) == len(grids["lr_grid"]) * len(grids["beta_prime_grid"])
        updated, _ = load_checkpoint(out / "wft.npz")
        frozen, meta = load_checkpoint(out / "wft_frozen.npz")
        assert updated.full_hash() != frozen.full_hash()
        assert "beta_prime" in meta["extra"]

    @pytest.mark.parametrize("sweep", [[], ["--sweep"]], ids=["fixed-lr", "sweep"])
    def test_bp_variant_needs_wft(self, workdir, ce_checkpoint, tmp_path, sweep, capsys):
        _, config_path, data_dir = workdir
        out = tmp_path / "ft"
        assert main(["finetune", "--method", "sft", "--config", str(config_path),
                     "--data", str(data_dir), "--checkpoint", str(ce_checkpoint),
                     "--out", str(out), "--lr", "0.01", "--decode-variant", "bp", *sweep]) == 2
        assert "wft" in capsys.readouterr().err
        assert not out.exists()

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
        assert main(["finetune", "--method", method, "--config", str(config_path),
                     "--data", str(data_dir), "--checkpoint", str(ce_checkpoint),
                     "--out", str(out), "--sweep"]) == 2
        assert "invalid finetune config" in capsys.readouterr().err
        assert not out.exists()

    def test_lr_required_without_sweep(self, workdir, ce_checkpoint):
        root, config_path, data_dir = workdir
        assert main(["finetune", "--method", "sft", "--config", str(config_path),
                     "--data", str(data_dir), "--checkpoint", str(ce_checkpoint),
                     "--out", str(root / "x")]) == 2

    def test_bp_decoded_captions_from_wft(self, workdir, ce_checkpoint):
        root, config_path, data_dir = workdir
        out = root / "ft_wft"
        if not (out / "wft.npz").exists():
            main(["finetune", "--method", "wft", "--config", str(config_path),
                  "--data", str(data_dir), "--checkpoint", str(ce_checkpoint),
                  "--out", str(out), "--lr", "0.01", "--beta-prime", "1.0"])
        caps = root / "bp_caps.jsonl"
        assert main(["decode", "--checkpoint", str(out / "wft.npz"),
                     "--config", str(config_path), "--data", str(data_dir),
                     "--method", "bp", "--frozen", str(out / "wft_frozen.npz"),
                     "--split", "val", "--out", str(caps)]) == 0
        assert len(caps.read_text().strip().splitlines()) == MICRO_CONFIG["dataset"]["n_val"]


class TestAnalyze:
    def test_histogram_of_references_matches_corpus(self, workdir):
        root, config_path, data_dir = workdir
        out = root / "hist.csv"
        assert main(["analyze", "--what", "histogram", "--config", str(config_path),
                     "--data", str(data_dir), "--references", "--split", "train",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "bin_index,relative_frequency"
        assert lines[-1].startswith("tail,")
        bins = [float(line.split(",")[1]) for line in lines[1:-1]]
        tail = float(lines[-1].split(",")[1])
        assert sum(bins) + tail == pytest.approx(1.0, abs=1e-9)

    def test_histogram_unknown_split(self, workdir, capsys):
        root, config_path, data_dir = workdir
        assert main(["analyze", "--what", "histogram", "--config", str(config_path),
                     "--data", str(data_dir), "--references", "--split", "bogus",
                     "--out", str(root / "bogus_hist.csv")]) == 2
        assert "unknown split" in capsys.readouterr().err

    def test_loss_surface_schema(self, workdir):
        root, config_path, _ = workdir
        out = root / "surface.csv"
        assert main(["analyze", "--what", "loss-surface", "--config", str(config_path),
                     "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["p1", "ce", "bp", "fl", "afl"]

    def test_sample_freq_requires_checkpoint(self, workdir):
        root, config_path, data_dir = workdir
        assert main(["analyze", "--what", "sample-freq", "--config", str(config_path),
                     "--data", str(data_dir), "--out", str(root / "sf.csv")]) == 2

    def test_sample_freq_runs(self, workdir, ce_checkpoint):
        root, config_path, data_dir = workdir
        out = root / "sf.csv"
        assert main(["analyze", "--what", "sample-freq", "--config", str(config_path),
                     "--data", str(data_dir), "--checkpoint", str(ce_checkpoint),
                     "--samples", "2", "--out", str(out)]) == 0
        assert out.exists()


def _writers(data_dir, config_path):
    """name -> (file the writer produces, writer(out_dir, variant)).

    Variants 0 and 1 write different content to the same file."""
    val = load_dataset_split(data_dir / "val.jsonl", "val")
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
        "write_sidecar": ("log.csv.meta.json",
                          lambda out, v: cli._write_sidecar(out / "log.csv", str(v), v, "test")),
        "save_captions": ("caps.jsonl", captions),
        "save_dataset_split": ("val.jsonl", lambda out, v: save_dataset_split(
            val if v else Dataset("val", val.records[:1]), out / "val.jsonl")),
        "histogram": ("hist.csv", lambda out, v: freq_histogram(
            [["a"] * (v + 1), ["b"]], vocab, n_bins=2).write_csv(out / "hist.csv")),
        "gen_data_meta": ("dataset.meta.json", gen_data),
    }


class TestAtomicOutputs:
    @pytest.mark.parametrize("writer", ["save_checkpoint", "write_csv", "write_sidecar",
                                        "save_captions", "save_dataset_split", "histogram",
                                        "gen_data_meta"])
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
