"""The benchmark's traced run replaces the functions perfbench/layers.py
names with timing wrappers, at every module that binds them, and so changes
what a name refers to while the program runs: ``planner.SkillCache``, for
one, becomes a plain function. The benchmark's own test of a traced run
fails for another reason, so a crash under the wrappers would go unseen;
this runs the simulate and localize paths with every wrapper installed, in
this process, and checks that they write the bytes of an untraced run."""
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import blamebox.cli as cli
from blamebox import FunctionRegistry, save_study
from blamebox.harness import SimSkillSpec, SimWorld, build_database, simulate_execution

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BUNDLE = ("summary.json", "gains.csv", "belief.csv")


def _load(name, monkeypatch):
    # neither file imports blamebox or numpy, so loading them runs no program
    # code; a dataclass needs its module registered while it is defined
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def small_study(path):
    """Four skills over eight functions: two pairs of skills whose counts
    stacks share a shape, and a bug in one function of each pair."""
    reg = FunctionRegistry([f"f{i}" for i in range(1, 9)])
    rng = np.random.default_rng(4)
    used = {"a": ("f1", "f2"), "b": ("f3", "f4", "f5"), "c": ("f2", "f6"),
            "d": ("f5", "f7", "f8")}
    specs = {s: SimSkillSpec(skill=s, used_functions=fns, T=24, dt=0.1)
             for s, fns in used.items()}
    dbs = {s: build_database(spec, reg, rng, 6) for s, spec in specs.items()}
    world = SimWorld(registry=reg, buggy_functions=frozenset({"f2"}))
    replay = {s: [simulate_execution(spec, world, rng) for _ in range(8)]
              for s, spec in specs.items()}
    save_study(str(path), reg, dbs, dt=0.1, replay=replay)


def test_traced_runs_write_the_untraced_bytes(tmp_path, monkeypatch):
    layers, tracing = _load("layers", monkeypatch), _load("tracer", monkeypatch)
    for module, *_ in layers.TARGETS:
        importlib.import_module(module)
    small_study(tmp_path / "study")
    bundles, spans = [], None
    for traced in (False, True):
        outs = [tmp_path / f"{name}-{int(traced)}" for name in ("simulate", "localize")]
        tracer = tracing.Tracer()
        if traced:
            tracer.install(layers.TARGETS)
        try:
            assert cli.main(["simulate", "--scenario", "fig3", "--seed", "1",
                             "--out", str(outs[0])]) == 0
            assert cli.main(["localize", "--study", str(tmp_path / "study"),
                             "--out", str(outs[1]), "--seed", "1"]) == 0
        finally:
            tracer.restore()
        if traced:
            spans = tracer.summary()
        bundles.append([(out / name).read_bytes() for out in outs for name in BUNDLE])
    assert bundles[0] == bundles[1]
    # the wrappers were in place: both loops and their planning steps ran under them
    assert spans["planner.run_testing_loop"]["calls"] == 2
    assert spans["planner.select_skill"]["calls"] > 2
