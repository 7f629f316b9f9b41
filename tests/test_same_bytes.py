"""The pure parts of tools/same_bytes.py: what it runs and how it compares."""
import importlib.util
import os

from blamebox.harness import BUILT_IN_SCENARIOS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "same_bytes", os.path.join(ROOT, "tools", "same_bytes.py"))
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def test_runs_every_built_in_scenario_and_workload():
    commands = same_bytes._commands("inputs")
    simulated = [(argv[2], argv[4]) for argv in commands
                 if argv[0] == "simulate" and argv[2] in BUILT_IN_SCENARIOS]
    assert simulated == [(name, str(seed)) for name in BUILT_IN_SCENARIOS for seed in (1, 2, 3)]
    assert [argv[0] for argv in commands[len(simulated):]] == [
        "simulate", "simulate", "localize", "train-mom", "eval-mom"]
    assert commands[len(simulated) + 1][2].endswith(f"long-horizon-T{same_bytes.LONG_T}.json")
    assert same_bytes.LONG_T == 1600
    # every output lands under the side's working directory
    outs = [argv[argv.index("--out") + 1] for argv in commands]
    assert len(set(outs)) == len(outs) and not any(os.path.isabs(o) for o in outs)


def test_differences_name_changed_missing_and_extra_files():
    parent = {"a/gains.csv": b"1\n", "a/run.json": b"{}", "gone.csv": b"x"}
    change = {"a/gains.csv": b"2\n", "a/run.json": b"{}", "new.csv": b"y"}
    assert same_bytes._differences(parent, change) == [
        "differs: a/gains.csv", "missing in the change: gone.csv", "only in the change: new.csv"]
    assert same_bytes._differences(parent, dict(parent)) == []
