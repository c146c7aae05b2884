"""Smoke test of the benchmark at micro scale.

Each workload runs for a fraction of a second on a micro data set.  The test
checks that every end-to-end and per-layer metric named in BENCHMARK.json is
emitted with its unit, that no operation fails, that the output fingerprint
repeats under tracing and that a second seed runs clean.  It says nothing
about speed.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--scale", "micro"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _result(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = _run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    detail, result = proc.stdout.splitlines()[-2:]
    return json.loads(detail), json.loads(result)


def _declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in DECLARED[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_workload_emits_every_metric_and_repeats_its_fingerprint(workload):
    plain_detail, plain = _result(workload, seed=3, trace=0)
    traced_detail, traced = _result(workload, seed=3, trace=1)
    other_detail, other = _result(workload, seed=4, trace=0)

    for detail, result, kind in ((plain_detail, plain, "end_to_end"),
                                 (traced_detail, traced, "per_layer"),
                                 (other_detail, other, "end_to_end")):
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert (detail["ops_attempted"], detail["ops_failed"]) == (result["attempted"], 0)
        emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert emitted == _declared(kind)
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        assert detail["env"]["nproc"] >= 1 and detail["env"]["numpy"]
    assert all(metric["value"] > 0 for metric in plain["metrics"].values())
    assert traced_detail["fingerprint"] == plain_detail["fingerprint"]
    assert traced["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_tracer_wraps_every_importer_and_restores_it():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import spans
        rl = importlib.import_module("caplab.rl")
        metrics = importlib.import_module("caplab.metrics")
    finally:
        del sys.path[:2]
    original = rl.cider_d
    with spans.Tracer().installed():
        assert rl.cider_d is not original and metrics.cider_d is rl.cider_d
    assert rl.cider_d is original and metrics.cider_d is original


def test_segment_floor_adds_each_segments_fastest_time():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
    finally:
        del sys.path[0]
    assert spans.segment_floor_s([[1.0, 5.0, 2.0], [3.0, 1.0, 2.5]]) == 4.0
    # units cut differently: the fastest whole unit
    assert spans.segment_floor_s([[1.0, 5.0], [3.0, 1.0, 1.5]]) == 5.5


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("ce_epoch", seed=3, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
