"""blamebox benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. For one workload it

1. generates the workload's inputs from ``--seed`` in a separate
   interpreter (perfbench/gen.py), outside every timed run;
2. starts one import-only child to compile bytecode and read library
   versions;
3. runs the workload's blamebox command lines in fresh child interpreters,
   one after another, as many repetitions as fit in ``--seconds``, checks
   every output, and adds import-only children until there are
   ``MIN_SETUP_SAMPLES`` set-up times;
4. with ``--trace 1``, runs one more child with the layer wrappers of
   layers.py installed;
5. writes everything it measured, with machine facts, to
   ``.perfbench/results/<workload>-seed<n>-trace<t>.json`` and prints the
   summary as the last line of stdout.

Only one child runs at a time, so the only parallelism is blamebox's own
gain pool and its BLAS threads. This process imports nothing but the
standard library.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
from layers import METRICS, derive  # noqa: E402

CHILD_TIMEOUT_S = 150.0
# Times are reported at the machine speed where child.py's reference work
# takes this long (see _speed_scale).
REFERENCE_NOMINAL_S = 0.11
MIN_SETUP_SAMPLES = 7
SENSOR_EPOCHS = 60


# ---------------------------------------------------------------------------
# Workloads: the command lines of one repetition and the check of its output.

def _commands(workload: str, inputs: str, out: str, seed: int) -> list[list[str]]:
    if workload == "long-horizon":
        return [["simulate", "--scenario", os.path.join(inputs, "scenario.json"),
                 "--out", out]]
    if workload == "wide-registry":
        return [["localize", "--study", os.path.join(inputs, "study"),
                 "--out", out, "--seed", str(seed)]]
    model = os.path.join(out, "model.mom.json")
    return [["train-mom", "--db", os.path.join(inputs, "train_db"), "--out", model,
             "--epochs", str(SENSOR_EPOCHS), "--seed", str(seed)],
            ["eval-mom", "--model", model, "--db", os.path.join(inputs, "probe_db"),
             "--out", os.path.join(out, "eval")]]


def _report_dir(workload: str, out: str) -> str:
    return os.path.join(out, "eval") if workload == "sensor-model" else out


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check(workload: str, out: str, truth: dict) -> tuple[list[str], int]:
    """Problems found in one repetition's output, and its skill executions.

    For the loop workloads the executions are the loop steps; for
    sensor-model they are the recorded runs eval-mom scored.
    """
    report = _report_dir(workload, out)
    summary = _read_json(os.path.join(report, "summary.json"))
    problems = []
    if workload == "sensor-model":
        window = _read_json(os.path.join(report, "run.json"))["config"]["smoothing_window"]
        flags = [s["t_fail"] for s in summary["sequences"]]
        hits = sum(1 for i in truth["anomalous"] if flags[i] is not None
                   and abs(flags[i] - truth["onset"]) <= 2 * window)
        alarms = sum(1 for i in truth["clean"] if flags[i] is not None)
        if hits < math.ceil(0.9 * len(truth["anomalous"])):
            problems.append(f"{hits}/{len(truth['anomalous'])} anomalies flagged near the onset")
        if alarms > math.floor(0.2 * len(truth["clean"])):
            problems.append(f"{alarms}/{len(truth['clean'])} clean probes flagged")
        return problems, len(flags)
    top = summary["top"][0]["function"] if summary["top"] else None
    if top != truth["bug"]:
        problems.append(f"top suspect {top!r}, injected bug {truth['bug']!r}")
    if not summary["converged"] or summary["aborted"] is not None:
        problems.append(f"loop converged={summary['converged']} aborted={summary['aborted']!r}")
    return problems, summary["steps"]


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


# ---------------------------------------------------------------------------
# Children.

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # The default thread cap is what users get, so measure that.
    env.pop("BLAMEBOX_THREADS", None)
    return env


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_child(spec: dict, cwd: str) -> tuple[float | None, dict | None, str | None]:
    """Start one child; return (set-up seconds, its result, error text)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                            stdout=subprocess.PIPE, cwd=cwd, env=_child_env(), text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - start
        if line != "ready\n":
            return None, None, "child did not import blamebox.cli"
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None, "child timed out"
    finally:
        _stop(proc)
        proc.stdout.close()
    if proc.returncode != 0:
        return setup_s, None, f"child exited with {proc.returncode}"
    result = _read_json(spec["result"])
    if not os.path.realpath(result["blamebox_file"]).startswith(os.path.realpath(SRC) + os.sep):
        return setup_s, None, f"imported blamebox from {result['blamebox_file']}, not {SRC}"
    return setup_s, result, None


def _speed_scale(result: dict) -> float:
    """Factor that turns the child's wall times into times at nominal speed.

    The vCPUs of the machines this runs on change speed by 20 % and more
    within seconds to minutes, because of load outside the virtual
    machine. Every child times a fixed reference workload right before and
    right after its commands, and its times are scaled by how much longer
    or shorter the reference took than ``REFERENCE_NOMINAL_S``.
    """
    return REFERENCE_NOMINAL_S / statistics.fmean(result["reference_s"])


def _nominal_solve_s(reps: list[dict]) -> float:
    """The run's solve time at nominal speed: summed wall time over summed
    reference time.

    A reference taken a second before or after a command says little about
    the speed during it, so scaling each repetition by its own reference
    adds noise. Over a whole run both sums see the same machine, and their
    ratio cancels the slow drift that dominates run-to-run differences.
    """
    return REFERENCE_NOMINAL_S * sum(r["solve_wall_s"] for r in reps) / sum(
        statistics.fmean(r["reference_s"]) for r in reps)


class Run:
    """All repetitions of one workload in one invocation."""

    def __init__(self, workload: str, seed: int, work: str):
        self.workload, self.seed, self.work = workload, seed, work
        self.inputs = os.path.join(work, "inputs")
        self.truth = _read_json(os.path.join(work, "truth.json"))
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.reps: list[dict] = []

    def repetition(self, trace: bool) -> dict | None:
        i = len(self.reps)
        out = os.path.join(self.work, f"rep{i:03d}")
        os.makedirs(out)
        argvs = _commands(self.workload, self.inputs, out, self.seed)
        spec = {"argvs": argvs, "trace": trace,
                "result": os.path.join(self.work, f"rep{i:03d}.json")}
        setup_s, result, error = run_child(spec, self.work)
        self.attempted += len(argvs)
        rep = {"trace": trace, "setup_wall_s": setup_s}
        # A command that did not exit with 0, or never ran after an earlier
        # one raised, is a failed operation.
        failed = len(argvs)
        if result is not None:
            scale = _speed_scale(result)
            rep.update(reference_s=result["reference_s"], setup_s=setup_s * scale)
            failed -= sum(1 for c in result["codes"] if c == 0)
            error = result["error"] or (f"exit codes {result['codes']}" if failed else None)
        if error is None:
            try:
                problems, executions = _check(self.workload, out, self.truth)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems, executions = [f"unreadable output: {exc!r}"], None
            if problems:
                error, failed = "; ".join(problems), 1
            if executions is not None:
                # Timed even when a check failed, so a wrong answer still
                # reports its cost next to correct=false.
                rep.update(solve_s=result["solve_s"] * scale, solve_wall_s=result["solve_s"],
                           peak_rss_mb=result["peak_rss_mb"],
                           executions=executions,
                           write_bytes=_dir_bytes(_report_dir(self.workload, out)))
                if trace:
                    rep.update(spans=result["spans"], counters=result["counters"],
                               span_records=result["span_records"])
        if error is not None:
            self.failed += failed
            self.problems.append(f"rep {i}: {error}")
            rep["error"] = error
        self.reps.append(rep)
        shutil.rmtree(out, ignore_errors=True)
        return rep if "solve_s" in rep else None


def _loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def main() -> int:
    ap = argparse.ArgumentParser(description="blamebox benchmark")
    ap.add_argument("--workload", required=True,
                    choices=["long-horizon", "wide-registry", "sensor-model"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "small"], default="full",
                    help="input size; small is for the smoke tests")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "blamebox", "__init__.py")):
        print(f"error: no blamebox sources under {SRC}", file=sys.stderr)
        return 2

    # Turn a termination request into an exception, so that every child is
    # stopped and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = os.path.join(STATE, "work", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, work: str) -> int:
    t = time.perf_counter()
    gen = subprocess.run([sys.executable, os.path.join(HERE, "gen.py"),
                          "--workload", args.workload, "--seed", str(args.seed),
                          "--scale", args.scale, "--dir", work],
                         env=_child_env(), timeout=CHILD_TIMEOUT_S)
    if gen.returncode != 0:
        print("error: input generation failed", file=sys.stderr)
        return 1
    gen_s = time.perf_counter() - t

    _, warm, error = run_child({"argvs": [], "facts": True,
                                "result": os.path.join(work, "warm.json")}, work)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 1

    run = Run(args.workload, args.seed, work)
    load_before = _loadavg()
    start = last = time.perf_counter()
    walls = []
    # Start a repetition only when it should end within the budget.
    while not walls or last - start + statistics.median(walls) <= args.seconds:
        run.repetition(trace=False)
        now = time.perf_counter()
        walls.append(now - last)
        last = now
    setups = [r["setup_s"] for r in run.reps if "setup_s" in r]
    while len(setups) < MIN_SETUP_SAMPLES:
        setup_s, result, error = run_child(
            {"argvs": [], "result": os.path.join(work, "setup.json")}, work)
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            return 1
        setups.append(setup_s * _speed_scale(result))
    traced = run.repetition(trace=True) if args.trace else None
    load_after = _loadavg()

    good = [r for r in run.reps if "solve_s" in r and not r["trace"]]
    if not good or (args.trace and traced is None):
        print(f"error: no repetition ran to the end: {run.problems}", file=sys.stderr)
        return 1
    solve_s = _nominal_solve_s(good)
    if args.trace:
        values = derive(traced["spans"], traced["counters"],
                        traced["solve_s"] - solve_s, traced["write_bytes"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}
    else:
        metrics = {
            "solve_s": {"value": solve_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in good),
                            "unit": "MB"},
            "executions": {"value": statistics.median(r["executions"] for r in good),
                           "unit": "count"},
        }
    line = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "result": line,
        "problems": run.problems, "gen_s": gen_s, "repetitions": run.reps,
        "setup_samples": setups,
        "machine": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_before": load_before, "loadavg_after": load_after,
            "python": platform.python_version(), "platform": platform.platform(),
            # children always run with it unset; this is the caller's value
            "BLAMEBOX_THREADS_caller": os.environ.get("BLAMEBOX_THREADS"),
            **warm["facts"],
        },
    }
    results = os.path.join(STATE, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"results: {path}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
