"""caplab benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload ce_epoch --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ``caplab`` is imported from its ``src``
directory.  The run repeats the workload unit until ``--seconds`` of unit
time have passed.  Untraced units are cut into segments of a few
milliseconds, and the time metrics add up each segment's fastest time over
the units; the run sets up five times, spread over the run, and reports the
median set-up time.  With ``--trace 1`` units alternate between untraced and
traced, and the traced ones give the per-layer metrics.  The last line of standard output is the JSON result; the
line before it records the environment, operation counts, per-unit times and
the output fingerprint.  The exit code is 0 when every check passed, 1 when
one failed and 2 when ``caplab`` cannot be found.  See perfbench/README.md.
"""

import os

# BLAS threads are pinned before numpy loads; at these shapes more threads
# gave no gain and add run-to-run spread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def _declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in declared}


def _number_or_none(value):
    return value if value is not None and value == value else None


def _import_caplab():
    """Import caplab from ROOT/src, or return None when it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import caplab
    except ImportError:
        return None
    if Path(caplab.__file__).resolve().parent != src / "caplab":
        return None
    return caplab


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "git_revision": _git_revision(),
        "timer": "time.perf_counter",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "micro"), default="bench",
                        help="micro is a seconds-long run for the smoke test")
    args = parser.parse_args(argv)

    if _import_caplab() is None:
        print(f"error: caplab not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import numpy as np

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    run_unit = workloads.WORKLOADS[args.workload]
    scale = workloads.SCALES[args.scale]
    tracer = spans.Tracer() if args.trace else None
    ticker = spans.Ticker()

    setup_s, setup_samples = [], []

    def set_up():
        with tracer.installed() if tracer else contextlib.nullcontext():
            with workloads.phase(tracer, "setup"):
                start = perf_counter()
                result = workloads.set_up(scale, args.seed)
                setup_s.append(perf_counter() - start)
        if tracer:
            setup_samples.append(spans.setup_metrics(tracer.take()))
        return result

    setup = set_up()
    setup.first_loss = workloads.first_batch_loss(setup)

    units, traced_units, layer_samples, step_ms = [], [], [], []
    attempted = failed = 0
    fingerprint = None
    last_trace = []
    elapsed = 0.0  # unit time, set-ups excluded
    while True:
        traced = bool(tracer) and (len(units) + len(traced_units)) % 2 == 1
        start = perf_counter()
        try:
            if traced:
                with tracer.installed():
                    unit = run_unit(setup, tracer)
                last_trace = tracer.take()
                layer_samples.append(spans.unit_metrics(last_trace))
                step_ms += spans.scst_step_durations_ms(last_trace)
            else:
                with ticker.installed():
                    unit = run_unit(setup, ticker=ticker)
                ticker.stamps.clear()
        except Exception:  # noqa: BLE001 - a failed unit is counted, not fatal
            traceback.print_exc()
            attempted += 1
            failed += 1
            break
        elapsed += perf_counter() - start
        if fingerprint is None:
            fingerprint = unit.fingerprint
        attempted += unit.attempted
        failed += unit.failed if unit.fingerprint == fingerprint else unit.attempted
        (traced_units if traced else units).append(unit)
        # spread the set-ups over the run, so they see more than one machine state
        if len(setup_s) < SETUP_REPEATS and elapsed >= len(setup_s) * args.seconds / SETUP_REPEATS:
            if set_up().hashes() != setup.hashes():
                print("error: repeated set-up gave different data or checkpoints",
                      file=sys.stderr)
                return 1
        done = elapsed >= args.seconds and len(setup_s) == SETUP_REPEATS
        if done and units and (traced_units or not tracer):
            break

    def median_run_s(group):
        return statistics.median(u.train_s + u.eval_s for u in group) if group else float("nan")

    if tracer:
        values = spans.median_metrics(setup_samples)
        if layer_samples:
            values |= spans.median_metrics(layer_samples)
        values |= spans.step_percentiles(step_ms)
        values["trace.overhead_ratio"] = median_run_s(traced_units) / median_run_s(units)
        if last_trace:
            print(spans.self_time_table(last_trace), file=sys.stderr)
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if units:
            # fastest time of each segment: see "Statistics" in README.md
            train_s = spans.segment_floor_s([u.train_segments for u in units])
            eval_s = spans.segment_floor_s([u.eval_segments for u in units])
            values |= {
                "run_s": train_s + eval_s,
                "train_items_per_s": units[0].train_items / train_s,
                "eval_images_per_s": units[0].eval_images / eval_s,
            }
    declared = _declared_units(args.trace)
    # a run cut short by a failure may lack some metrics; they are reported as null
    if set(values) != set(declared) and failed == 0:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(declared))}")
    result = {name: {"value": _number_or_none(values.get(name)), "unit": unit}
              for name, unit in declared.items()}

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "scale": args.scale, "trace": args.trace,
        "units": len(units), "traced_units": len(traced_units),
        "segments": [len(units[0].train_segments), len(units[0].eval_segments)] if units else [],
        "unit_train_s": [u.train_s for u in units], "unit_eval_s": [u.eval_s for u in units],
        "setup_s": setup_s,
        "ops_attempted": attempted, "ops_failed": failed,
        "fingerprint": fingerprint, "env": _environment(np),
    }))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
