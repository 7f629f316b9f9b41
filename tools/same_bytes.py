"""Compare the bytes of every output file between a parent commit and this checkout.

    python3 tools/same_bytes.py --parent <rev>

Writes the committed files of ``--parent`` and this checkout's tracked and
unignored files as they stand (uncommitted edits included) into two fresh
directories, through the same routines as tools/ab_pairs.py. Generates
perfbench's seed-1 long-horizon, wide-registry and sensor-model inputs once,
with the parent tree's ``perfbench/gen.py``. Then runs, on both trees:

- ``simulate`` for every built-in scenario at seeds 1, 2 and 3;
- ``simulate`` of the long-horizon scenario, and of the same scenario at
  T = 1,600, where each skill's counts stack is largest;
- ``localize --seed 1`` over the wide-registry study, and over a small
  study that the script writes with ``save_study`` (see ``_MIXED_STUDY``),
  whose runs have two lengths and some carry sensors;
- ``train-mom --epochs 60 --seed 1`` followed by ``eval-mom`` on the
  sensor-model databases;
- ``report`` on the long-horizon and the wide-registry ``trace.json``.

The small study is written once, on the parent tree. Each command runs in
a fresh interpreter on its tree's ``src``. Both sides write under output
directories of the same relative names, so no file names the side that
wrote it. The script lists every output file whose bytes
differ or that only one side wrote, and exits 1 if there is any (or if a
command fails). Only the standard library is used, besides the checkout's
own list of built-in scenarios.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
from ab_pairs import _files, _git, _write  # noqa: E402
from blamebox.harness import BUILT_IN_SCENARIOS  # noqa: E402

SEEDS = (1, 2, 3)
WORKLOADS = ("long-horizon", "wide-registry", "sensor-model")
SENSOR_EPOCHS = 60
LONG_T = 1600
_MAIN = "import sys; from blamebox.cli import main; sys.exit(main(sys.argv[1:]))"
MIXED_STUDY = "mixed-study"
# Writes a study at argv[1]: four skills over 60 functions, the bug in a
# function two of them run; databases of T = 40 runs and recordings of runs
# of T = 40 and 28, every third run of each with three sensor channels. The
# wide-registry study has one T and no sensors, so this one reaches the
# store's batching by run length and its sensors branch.
_MIXED_STUDY = """
import sys
from dataclasses import replace
import numpy as np
from blamebox import ExperienceDb, FunctionRegistry, SensorSeries, save_study
from blamebox.harness import SimSkillSpec, SimWorld, build_database, simulate_execution

def sensed(run, i):
    data = rng.normal(size=(3, run.fingerprint.T))
    return replace(run, sensors=SensorSeries(data, dt=0.05)) if i % 3 == 0 else run

rng = np.random.default_rng(1)
registry = FunctionRegistry([f"fn{i:02d}" for i in range(60)])
world = SimWorld(registry=registry, buggy_functions=frozenset({"fn07"}))
used = [("fn07", "fn11", "fn23"), ("fn07", "fn31"), ("fn02", "fn11", "fn44"), ("fn23", "fn50")]
specs = {f"skill{k}": SimSkillSpec(skill=f"skill{k}", used_functions=fns, T=40, dt=0.05)
         for k, fns in enumerate(used)}
dbs = {s: ExperienceDb(s, [sensed(o, i) for i, o in
                           enumerate(build_database(spec, registry, rng, 8).observations)])
       for s, spec in specs.items()}
replay = {s: [sensed(simulate_execution(replace(spec, T=(40, 28)[i % 2]), world, rng), i)
              for i in range(6)] for s, spec in specs.items()}
save_study(sys.argv[1], registry, dbs, dt=0.05, replay=replay)
"""


def _commands(inputs: str) -> list[list[str]]:
    """The command lines to run on each side, in order, with output paths
    relative to the side's working directory; ``inputs`` holds one directory
    per workload, as ``perfbench/gen.py --dir`` fills it, the long-horizon
    scenario at ``LONG_T`` (see ``_long_scenario``) and the study
    ``MIXED_STUDY`` (see ``_MIXED_STUDY``). Each ``report`` reads a
    trace that an earlier command wrote."""
    def given(workload: str, name: str) -> str:
        return os.path.join(inputs, workload, "inputs", name)

    model = "sensor-model.mom.json"
    return ([["simulate", "--scenario", name, "--seed", str(seed), "--out", f"{name}-seed{seed}"]
             for name in BUILT_IN_SCENARIOS for seed in SEEDS]
            + [["simulate", "--scenario", given("long-horizon", "scenario.json"),
                "--out", "long-horizon"],
               ["simulate", "--scenario", os.path.join(inputs, f"long-horizon-T{LONG_T}.json"),
                "--out", f"long-horizon-T{LONG_T}"],
               ["localize", "--study", given("wide-registry", "study"), "--out",
                "wide-registry", "--seed", "1"],
               ["localize", "--study", os.path.join(inputs, MIXED_STUDY), "--out",
                MIXED_STUDY, "--seed", "1"],
               ["train-mom", "--db", given("sensor-model", "train_db"), "--out", model,
                "--epochs", str(SENSOR_EPOCHS), "--seed", "1"],
               ["eval-mom", "--model", model, "--db", given("sensor-model", "probe_db"),
                "--out", "sensor-model-eval"]]
            + [["report", "--trace", os.path.join(traced, "trace.json"),
                "--out", f"{traced}-report"] for traced in ("long-horizon", "wide-registry")])


def _long_scenario(inputs: str) -> None:
    """Write the generated long-horizon scenario with its T set to ``LONG_T``."""
    with open(os.path.join(inputs, "long-horizon", "inputs", "scenario.json"),
              encoding="utf-8") as fh:
        scenario = json.load(fh)
    scenario["T"] = LONG_T
    with open(os.path.join(inputs, f"long-horizon-T{LONG_T}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(scenario, fh, indent=2)


def _outputs(dest: str) -> dict[str, bytes]:
    """Every file under ``dest``, by its path relative to ``dest``."""
    found = {}
    for top, _, names in os.walk(dest):
        for name in names:
            path = os.path.join(top, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, dest)] = fh.read()
    return found


def _differences(parent: dict[str, bytes], change: dict[str, bytes]) -> list[str]:
    """One line per file whose bytes differ, that the change no longer
    writes, or that only the change writes, in the order of the names."""
    lines = []
    for name in sorted(parent.keys() | change.keys()):
        if name not in change:
            lines.append(f"missing in the change: {name}")
        elif name not in parent:
            lines.append(f"only in the change: {name}")
        elif parent[name] != change[name]:
            lines.append(f"differs: {name}")
    return lines


def _env(tree: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(tree, "src")
    return env


def _run_side(tree: str, out: str, commands: list[list[str]]) -> None:
    os.makedirs(out)
    for argv in commands:
        proc = subprocess.run([sys.executable, "-c", _MAIN, *argv], cwd=out, env=_env(tree),
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: {' '.join(argv)} exited {proc.returncode} in {tree}: "
                             f"{proc.stderr.strip()[-500:]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    args = ap.parse_args()
    # A termination request unwinds through the finally block, which removes
    # the temporary trees.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    temp = tempfile.mkdtemp(prefix="same_bytes-")
    try:
        parent = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
        trees = {"parent": os.path.join(temp, "parent"), "change": os.path.join(temp, "change")}
        _write(_files(parent), trees["parent"])
        _write(_files(None), trees["change"])
        inputs = os.path.join(temp, "inputs")
        for workload in WORKLOADS:
            subprocess.run([sys.executable, os.path.join(trees["parent"], "perfbench", "gen.py"),
                            "--workload", workload, "--seed", "1", "--scale", "full",
                            "--dir", os.path.join(inputs, workload)],
                           env=_env(trees["parent"]), check=True)
        _long_scenario(inputs)
        subprocess.run([sys.executable, "-c", _MIXED_STUDY, os.path.join(inputs, MIXED_STUDY)],
                       env=_env(trees["parent"]), check=True)
        commands = _commands(inputs)
        outputs = {}
        for side, tree in trees.items():
            _run_side(tree, os.path.join(temp, "out", side), commands)
            outputs[side] = _outputs(os.path.join(temp, "out", side))
    finally:
        shutil.rmtree(temp, ignore_errors=True)
    lines = _differences(outputs["parent"], outputs["change"])
    for line in lines:
        print(line)
    print(f"{len(commands)} commands per side, {len(outputs['parent'])} output files of "
          f"{parent[:12]}, {len(lines)} differing")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
