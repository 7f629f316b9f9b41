"""Persist a study to disk and localize a bug from recorded executions only.

This is the offline workflow: experience databases and raw execution records
are written as `.npy` data files with JSON manifests, reloaded, and fed to
the testing loop through the replay executor - no simulator in the loop. The
same directory works with the command line:  blamebox localize --study <dir> --out <dir>

Run:  python demos/replay_study.py
"""
import tempfile

import numpy as np

from blamebox import (BlameConfig, FunctionRegistry, PlannerConfig, ReplayExecutor,
                      load_study, run_testing_loop, save_study)
from blamebox.harness import SimSkillSpec, SimWorld, build_database, simulate_execution

registry = FunctionRegistry(["parse", "plan", "actuate", "log"])
specs = {
    "deliver": SimSkillSpec(skill="deliver", used_functions=("parse", "plan", "actuate"),
                            T=40, dt=0.1),
    "dryrun": SimSkillSpec(skill="dryrun", used_functions=("parse", "plan", "log"),
                           T=40, dt=0.1),
}
rng = np.random.default_rng(7)
dbs = {s: build_database(spec, registry, rng, 25) for s, spec in specs.items()}

# record a testing session against a world where "actuate" is broken
world = SimWorld(registry=registry, buggy_functions=frozenset({"actuate"}))
replay = {s: [simulate_execution(spec, world, rng) for _ in range(15)]
          for s, spec in specs.items()}

with tempfile.TemporaryDirectory() as tmp:
    save_study(tmp, registry, dbs, dt=0.1, replay=replay)
    study = load_study(tmp)
    print(f"study reloaded from {tmp}: skills {tuple(study.dbs)}, "
          f"{len(study.dbs['deliver'])} stored successes each")

    belief, trace = run_testing_loop(ReplayExecutor(study.replay), study.dbs, None,
                                     PlannerConfig(seed=1), BlameConfig.for_sampling(study.dt))

print("\nreplayed steps:")
for step in trace.steps:
    print(f"  step {step.step}: {step.chosen:8s} "
          f"{'succeeded' if step.success else 'FAILED'}")

print("\nfinal blame:")
for i in np.argsort(belief.probs)[::-1]:
    print(f"  {registry.names[i]:8s} {belief.probs[i]:.6f}")
