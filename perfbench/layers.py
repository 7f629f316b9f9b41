"""What the traced run wraps, and the per-layer metrics derived from it.

Each target is ``(module, attribute, span name, hook)``; the hook runs after
the call returns, outside the span, and records counters taken from the
call's operands or result. This file imports nothing from blamebox or
numpy, so run.py can use ``METRICS`` without loading the program.
"""
from __future__ import annotations

import math
import os


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _read_bytes(tracer, args, kwargs, result):
    tracer.count("store.read_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _grid_flop(tracer, args, kwargs, result):
    # deviation_grid multiplies the (F, T) model mean and variance and the
    # (..., F, T) counts by a dense (T, T) kernel: five products, two of
    # them over every stacked fingerprint.
    model = _arg(args, kwargs, 0, "model")
    counts = _arg(args, kwargs, 1, "counts")
    F, T = model.mean.shape
    n = math.prod(counts.shape[:-2])
    tracer.count("fpf.deviation_grid.flop", 2.0 * T * T * F * (3 + 2 * n))


def _gain_samples(tracer, args, kwargs, result):
    tracer.count("planner.gain_samples", result.n_samples)


def _bayes_columns(tracer, args, kwargs, result):
    # deviation_at builds the whole (F, T) grid and reads one column of it.
    fpfs = _arg(args, kwargs, 1, "fpf_by_skill")
    obs = _arg(args, kwargs, 2, "obs")
    tracer.count("blame.columns_built", fpfs[obs.skill].T)
    tracer.count("blame.columns_used", 1)


TARGETS = (
    ("blamebox.core", "validate_observation", "core.validate_observation", None),
    ("blamebox.store", "load_study", "store.load_study", None),
    ("blamebox.store", "load_db", "store.load_db", None),
    ("blamebox.store", "load_recorded", "store.load_recorded", None),
    ("blamebox.store", "_load_matrix", "store._load_matrix", _read_bytes),
    ("blamebox.store", "_read_json", "store._read_json", _read_bytes),
    ("blamebox.store", "save_model", "store.save_model", None),
    ("blamebox.harness", "build_database", "harness.build_database", None),
    ("blamebox.fpf", "fit_fpf", "fpf.fit_fpf", None),
    ("blamebox.fpf", "deviation_grid", "fpf.deviation_grid", _grid_flop),
    ("blamebox.planner", "SkillCache", "planner.SkillCache", None),
    ("blamebox.planner", "select_skill", "planner.select_skill", None),
    ("blamebox.planner", "information_gain_stats", "planner.information_gain_stats",
     _gain_samples),
    ("blamebox.planner", "run_testing_loop", "planner.run_testing_loop", None),
    ("blamebox.blame", "bayes_update", "blame.bayes_update", _bayes_columns),
    ("blamebox.mom", "train", "mom.train", None),
    ("blamebox.mom", "loss_and_gradients", "mom.loss_and_gradients", None),
    ("blamebox.mom", "fit_error_stats", "mom.fit_error_stats", None),
    ("blamebox.mom", "error_series", "mom.error_series", None),
    ("blamebox.mom", "detect_failure_time", "mom.detect_failure_time", None),
    ("blamebox.reports", "write_trace_files", "reports.write_trace_files", None),
)

# (name, unit, better), in the order BENCHMARK.json lists them.
METRICS = (
    ("core.validate_observation.calls", "count", "lower"),
    ("core.validate_observation.s", "s", "lower"),
    ("store.load_study.s", "s", "lower"),
    ("store.load_db.calls", "count", "lower"),
    ("store.load_db.s", "s", "lower"),
    ("store.load_recorded.s", "s", "lower"),
    ("store.read_mb", "MB", "lower"),
    ("store.save_model.s", "s", "lower"),
    ("harness.build_database.s", "s", "lower"),
    ("fpf.fit_fpf.calls", "count", "lower"),
    ("fpf.fit_fpf.s", "s", "lower"),
    ("fpf.deviation_grid.calls", "count", "lower"),
    ("fpf.deviation_grid.s", "s", "lower"),
    ("fpf.deviation_grid.self_s", "s", "lower"),
    ("fpf.deviation_grid.gflop", "GFLOP", "lower"),
    ("planner.SkillCache.s", "s", "lower"),
    ("planner.select_skill.calls", "count", "lower"),
    ("planner.select_skill.s", "s", "lower"),
    ("planner.information_gain_stats.calls", "count", "lower"),
    ("planner.information_gain_stats.s", "s", "lower"),
    ("planner.thread_speedup", "ratio", "higher"),
    ("planner.gain_samples", "count", "lower"),
    ("planner.run_testing_loop.s", "s", "lower"),
    ("blame.bayes_update.calls", "count", "lower"),
    ("blame.bayes_update.s", "s", "lower"),
    ("blame.bayes_update.cols_used_ratio", "ratio", "higher"),
    ("mom.train.s", "s", "lower"),
    ("mom.loss_and_gradients.calls", "count", "lower"),
    ("mom.epoch_ms", "ms", "lower"),
    ("mom.fit_error_stats.s", "s", "lower"),
    ("mom.error_series.calls", "count", "lower"),
    ("mom.error_series.s", "s", "lower"),
    ("mom.detect_failure_time.s", "s", "lower"),
    ("reports.write_trace_files.s", "s", "lower"),
    ("reports.write_mb", "MB", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(spans: dict, counters: dict, overhead_s: float, write_bytes: int) -> dict:
    """Per-layer metric values from a traced child's span summary and counters.

    A layer the workload never enters reads 0, and so does a ratio whose
    base is 0.
    """
    def get(name, key):
        return spans.get(name, {}).get(key, 0.0)

    values = {}
    for name, _, _ in METRICS:
        layer, _, key = name.rpartition(".")
        if key in ("calls", "s", "self_s"):
            values[name] = get(layer, key)
    values.update({
        "store.read_mb": counters.get("store.read_bytes", 0.0) / 1e6,
        "fpf.deviation_grid.gflop": counters.get("fpf.deviation_grid.flop", 0.0) / 1e9,
        "planner.thread_speedup": _ratio(get("planner.information_gain_stats", "s"),
                                         get("planner.select_skill", "s")),
        "planner.gain_samples": counters.get("planner.gain_samples", 0.0),
        "blame.bayes_update.cols_used_ratio": _ratio(counters.get("blame.columns_used", 0.0),
                                                     counters.get("blame.columns_built", 0.0)),
        "mom.epoch_ms": 1000.0 * _ratio(get("mom.train", "s"),
                                        get("mom.loss_and_gradients", "calls")),
        "reports.write_mb": write_bytes / 1e6,
        "trace.overhead_s": overhead_s,
    })
    return values
