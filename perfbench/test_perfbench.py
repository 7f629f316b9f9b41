"""Tests of the benchmark itself: tracing changes no output byte, every
workload runs end to end at a small size, and BENCHMARK.json names what
run.py prints.

    python3 -m pytest -q perfbench
"""
import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from layers import METRICS  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("long-horizon", "wide-registry", "sensor-model")


def _benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _generate(workload, seed, work):
    subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--scale", "small", "--dir", str(work)],
                   env=run._child_env(), check=True, timeout=120)


@pytest.mark.parametrize("workload", ["long-horizon", "wide-registry"])
def test_traced_run_writes_identical_bytes(workload, tmp_path):
    _generate(workload, 3, tmp_path)
    inputs = str(tmp_path / "inputs")
    bundles, traced_spans = [], None
    for trace in (False, True):
        out = tmp_path / f"out-{int(trace)}"
        os.makedirs(out)
        spec = {"argvs": run._commands(workload, inputs, str(out), 3),
                "trace": trace, "result": str(tmp_path / f"result-{int(trace)}.json")}
        _, result, error = run.run_child(spec, str(tmp_path))
        assert error is None and result["codes"] == [0]
        if trace:
            traced_spans = result["spans"]
        bundles.append({name: (out / name).read_bytes()
                        for name in ("summary.json", "gains.csv", "belief.csv")})
    assert bundles[0] == bundles[1]
    # the wrappers were really in place, including on the pool threads
    assert traced_spans["planner.information_gain_stats"]["calls"] > 0
    assert traced_spans["fpf.deviation_grid"]["calls"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", "2", "--seconds", "1",
                           "--trace", str(trace), "--scale", "small"],
                          capture_output=True, text=True, timeout=170, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    spec = _benchmark_json()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in line["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_benchmark_json_lists_the_traced_layers():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "long-horizon",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_merges_concurrent_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.05)

    def parent():
        traced_leaf = tracer.wrap(leaf, "leaf")
        workers = [threading.Thread(target=traced_leaf) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=5)
        assert not any(w.is_alive() for w in workers)
        time.sleep(0.05)

    tracer.wrap(parent, "parent")()
    spans = tracer.summary()
    assert spans["leaf"]["calls"] == 2
    assert all(s.parent == 0 for s in tracer.spans[1:])
    # the two leaves overlap, so only one leaf interval is subtracted
    assert spans["parent"]["self_s"] == pytest.approx(
        spans["parent"]["s"] - 0.05, abs=0.03)
    assert spans["parent"]["self_s"] >= 0.04


def test_recording_loses_nothing_across_threads():
    tracer = Tracer()
    traced = tracer.wrap(lambda: tracer.count("n", 1), "leaf")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: [traced() for _ in range(300)])
                   for _ in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
    assert [s.id for s in tracer.spans] == list(range(1800))
    assert all(s.end >= s.start > 0 for s in tracer.spans)
    assert tracer.counters["n"] == 1800
    assert tracer.summary()["leaf"]["calls"] == 1800
    assert all(not stack for stack in tracer._stacks.values())


def test_restore_puts_originals_back():
    import importlib
    sys.path.insert(0, run.SRC)
    try:
        planner = importlib.import_module("blamebox.planner")
        fpf = importlib.import_module("blamebox.fpf")
        original = fpf.deviation_grid
        tracer = Tracer()
        tracer.install([("blamebox.fpf", "deviation_grid", "grid", None)])
        assert planner.deviation_grid is fpf.deviation_grid is not original
        tracer.restore()
        assert planner.deviation_grid is fpf.deviation_grid is original
    finally:
        sys.path.remove(run.SRC)
