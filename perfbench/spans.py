"""Span tracing for the caplab benchmark.

A ``Tracer`` wraps public functions of the ``caplab`` modules in spans.  Each
span records its name, the span open when it started (its parent), start and
end times from ``time.perf_counter``, and one number: a work count (positions,
rows, tokens) or, for ``cider_d``, the reward it returned.  ``caplab`` modules
import each other's functions by name, so ``Tracer.installed`` replaces a
function in every loaded ``caplab`` module that holds it and puts the
originals back when its block ends.  Spans stay in memory until ``take``
hands them to the aggregation functions below; nothing inside
``src/caplab`` is changed.  A ``Ticker`` patches the same way but only
time-stamps each call of a few per-step functions; the untraced run uses it
to cut a workload unit into short segments.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _backward_name(args, kwargs):
    scope = args[3] if len(args) > 3 else kwargs["scope"]
    return "model.backward_cls" if scope.value == "classifier_only" else "model.backward_all"


# (defining module, function, span name or name(args, kwargs), value(args, result))
SPANS = (
    ("synth", "generate_synthetic_dataset", "synth.generate", None),
    ("corpus", "build_vocab", "corpus.build_vocab", None),
    ("cider", "build_cider_stats", "cider.build_stats", None),
    ("cider", "cider_d", "cider.cider_d", lambda args, result: result),
    ("model", "forward_sequences", "model.forward", lambda args, result: result.tokens.size),
    ("model", "backward_sequences", _backward_name, None),
    ("model", "recurrent_step", "model.step", lambda args, result: result.shape[0]),
    ("model", "apply_sgd", "model.sgd", None),
    ("losses", "ce_batch", "losses.ce_batch", None),
    ("losses", "bp_batch", "losses.bp_batch", None),
    ("rl", "scst_step", "rl.scst_step", lambda args, result: len(args[1])),
    ("rl", "sample_sequences", "rl.sample",
     lambda args, result: sum(len(seq.logps) for seq in result)),
    ("decode", "greedy_rollout_batch", "decode.greedy_rollout", None),
    ("decode", "decode_beam", "decode.beam", None),
    ("decode", "decode_bp", "decode.bp", None),
    ("finetune", "finetune", "finetune.finetune", None),
    ("metrics", "evaluate", "metrics.evaluate", None),
    ("metrics", "rk_retrieval", "metrics.rk_retrieval", None),
)

DECODE_SPANS = ("decode.greedy_rollout", "decode.beam", "decode.bp")


@contextmanager
def _patched(replacements):
    """Replace ``caplab.<module>.<function>`` by ``make(original)`` in every
    loaded ``caplab`` module that holds it, and put the originals back when
    the block ends."""
    modules = [mod for key, mod in list(sys.modules.items())
               if key == "caplab" or key.startswith("caplab.")]
    patches = []
    try:
        for module_name, fn_name, make in replacements:
            original = getattr(importlib.import_module(f"caplab.{module_name}"), fn_name)
            wrapped = make(original)
            for mod in modules:
                for attr in [a for a, obj in vars(mod).items() if obj is original]:
                    patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        yield
    finally:
        for mod, attr, original in reversed(patches):
            setattr(mod, attr, original)


# Functions whose every call the untraced run time-stamps: one call per
# training step, decoded image or scored split.  The stamps cut a unit into
# segments of a few milliseconds each; see segment_floor_s.
TICKS = (
    ("model", "apply_sgd"),
    ("decode", "greedy_rollout_batch"),
    ("decode", "decode_beam"),
    ("decode", "decode_bp"),
    ("metrics", "evaluate"),
)


class Ticker:
    """Time stamps taken when a function in TICKS is entered."""

    def __init__(self):
        self.stamps: list[float] = []

    def _wrap(self, fn):
        stamps = self.stamps

        @functools.wraps(fn)
        def ticked(*args, **kwargs):
            stamps.append(perf_counter())
            return fn(*args, **kwargs)

        return ticked

    @contextmanager
    def installed(self):
        with _patched([(module_name, fn_name, self._wrap) for module_name, fn_name in TICKS]):
            yield self


def segment_floor_s(runs: list[list[float]]) -> float:
    """Estimate of a phase's time on an uncontended machine.

    ``runs`` holds the segment durations of the same seeded phase run several
    times.  Each segment is a few milliseconds long, short enough to fall
    into one of the machine's fast stretches in some run; the estimate adds
    up each segment's fastest time.  When the runs were cut differently it
    falls back to the fastest whole run.
    """
    if len({len(segments) for segments in runs}) != 1:
        return min(sum(segments) for segments in runs)
    return sum(min(times) for times in zip(*runs))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, value]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, self._open[-1] if self._open else -1, perf_counter(), 0.0, 0]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = perf_counter()
            self._open.pop()

    def _wrap(self, fn, *, name, value):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name(args, kwargs) if callable(name) else name,
                      stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if value is not None:
                record[4] = value(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every function in SPANS for the duration of the block."""
        with _patched([(module_name, fn_name, functools.partial(self._wrap, name=name,
                                                                value=value))
                       for module_name, fn_name, name, value in SPANS]):
            yield self

    def take(self) -> list[list]:
        """Hand over the closed spans recorded so far and start a new list."""
        if self._open:
            raise RuntimeError("spans still open")
        spans = self.spans[:]
        self.spans.clear()
        return spans


class _Summary:
    """Per-name totals of one span list, split by the phase span at its root."""

    def __init__(self, spans: list[list]):
        n = len(spans)
        child = [0.0] * n
        phase = [""] * n
        for i, (name, parent, start, end, _) in enumerate(spans):
            phase[i] = name if parent < 0 else phase[parent]
            if parent >= 0:
                child[parent] += end - start
        self.spans = spans
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.value = defaultdict(float)
        self.phase_total = defaultdict(float)
        self.phase_self = defaultdict(float)
        self.phase_calls = defaultdict(int)
        for i, (name, parent, start, end, value) in enumerate(spans):
            key = (phase[i], name)
            self.total[name] += end - start
            self.self_time[name] += end - start - child[i]
            self.calls[name] += 1
            self.value[name] += value
            self.phase_total[key] += end - start
            self.phase_self[key] += end - start - child[i]
            self.phase_calls[key] += 1

    def under(self, ancestor: str) -> list[bool]:
        """For each span, whether it lies below a span called ``ancestor``."""
        inside = [False] * len(self.spans)
        for i, (name, parent, *_rest) in enumerate(self.spans):
            if parent >= 0:
                inside[i] = inside[parent] or self.spans[parent][0] == ancestor
        return inside


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def setup_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced set-up (seconds)."""
    s = _Summary(spans)
    return {
        "synth.generate_s": s.total["synth.generate"],
        "corpus.build_vocab_s": s.total["corpus.build_vocab"],
        "cider.build_stats_s": s.total["cider.build_stats"],
    }


def _useful_sample_ratio(spans: list[list]) -> tuple[int, int]:
    """(samples whose reward differs from their image's greedy baseline, samples).

    ``scst_step`` scores the greedy baselines of its images first and then
    their samples, image by image, so its ``cider_d`` children arrive in that
    order.
    """
    rewards = defaultdict(list)
    for name, parent, _start, _end, value in spans:
        if name == "cider.cider_d" and parent >= 0 and spans[parent][0] == "rl.scst_step":
            rewards[parent].append(value)
    useful = total = 0
    for step, values in rewards.items():
        n_images = spans[step][4]
        baselines, samples = values[:n_images], values[n_images:]
        if not samples or len(samples) % n_images:
            continue  # not the call pattern described above
        per_image = len(samples) // n_images
        for k, reward in enumerate(samples):
            useful += reward != baselines[k // per_image]
        total += len(samples)
    return useful, total


def unit_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced workload unit (milliseconds unless named)."""
    s = _Summary(spans)

    def ms(name):
        return 1e3 * s.total[name]

    def self_ms(name):
        return 1e3 * s.self_time[name]

    bp_step_rows = sum(span[4] for span, inside in zip(spans, s.under("decode.bp"))
                       if inside and span[0] == "model.step")
    # decoders do not call each other, so their spans do not nest
    decode_eval = sum(s.phase_total[("phase.eval", name)] for name in DECODE_SPANS)
    useful, sampled = _useful_sample_ratio(spans)
    return {
        "model.forward_ms": ms("model.forward"),
        "model.forward_calls": s.calls["model.forward"],
        "model.forward_positions": s.value["model.forward"],
        "model.backward_all_ms": ms("model.backward_all"),
        "model.backward_cls_ms": ms("model.backward_cls"),
        "model.step_ms": ms("model.step"),
        "model.step_rows": s.value["model.step"],
        "model.sgd_ms": ms("model.sgd"),
        "losses.ce_batch_self_ms": self_ms("losses.ce_batch"),
        "losses.bp_batch_self_ms": self_ms("losses.bp_batch"),
        "rl.scst_step_self_ms": self_ms("rl.scst_step"),
        "rl.sample_ms": ms("rl.sample"),
        "rl.sampled_tokens": s.value["rl.sample"],
        "rl.useful_sample_ratio": _ratio(useful, sampled),
        "cider.cider_d_ms": ms("cider.cider_d"),
        "cider.cider_d_calls": s.calls["cider.cider_d"],
        "cider.cider_d_us_per_call": 1e3 * _ratio(ms("cider.cider_d"), s.calls["cider.cider_d"]),
        "cider.train_share": _ratio(s.phase_total[("phase.train", "cider.cider_d")],
                                    s.total["phase.train"]),
        "decode.greedy_rollout_ms": ms("decode.greedy_rollout"),
        "decode.beam_ms_per_image": _ratio(ms("decode.beam"), s.calls["decode.beam"]),
        "decode.bp_ms_per_image": _ratio(ms("decode.bp"), s.calls["decode.bp"]),
        "decode.bp_step_rows_per_image": _ratio(bp_step_rows, s.calls["decode.bp"]),
        "decode.eval_share": _ratio(decode_eval, s.total["phase.eval"]),
        "finetune.finetune_self_ms": self_ms("finetune.finetune"),
        "metrics.evaluate_ms": ms("metrics.evaluate"),
        "metrics.rk_retrieval_ms": ms("metrics.rk_retrieval"),
        "phase.train_ms": ms("phase.train"),
        "phase.eval_ms": ms("phase.eval"),
    }


def step_percentiles(durations_ms: list[float]) -> dict[str, float]:
    """Nearest-rank p50 and p99 of the pooled ``scst_step`` durations."""
    if not durations_ms:
        return {"rl.step_ms_p50": 0.0, "rl.step_ms_p99": 0.0}
    ordered = sorted(durations_ms)

    def rank(q):
        return ordered[max(0, math.ceil(q * len(ordered)) - 1)]

    return {"rl.step_ms_p50": rank(0.50), "rl.step_ms_p99": rank(0.99)}


def scst_step_durations_ms(spans: list[list]) -> list[float]:
    return [1e3 * (end - start) for name, _p, start, end, _v in spans if name == "rl.scst_step"]


def self_time_table(spans: list[list]) -> str:
    """Self time per (phase, span name), largest first, for reading a trace."""
    s = _Summary(spans)
    lines = [f"{'phase':<12} {'span':<26} {'calls':>8} {'self_ms':>10}"]
    for key, self_s in sorted(s.phase_self.items(), key=lambda kv: -kv[1]):
        lines.append(f"{key[0]:<12} {key[1]:<26} {s.phase_calls[key]:>8} {1e3 * self_s:>10.1f}")
    return "\n".join(lines)


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(sample[key] for sample in samples) for key in samples[0]}
