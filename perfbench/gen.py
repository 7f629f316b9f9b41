"""Seeded input generators for the benchmark workloads.

Run as its own interpreter, before any timed run, so the memory it holds is
returned before measuring starts:

    python3 perfbench/gen.py --workload wide-registry --seed 1 --scale full --dir <dir>

Writes the program's inputs under ``<dir>/inputs`` with blamebox's own
writers, and ``<dir>/truth.json`` with what the checks need to know (the
injected bug, the probe labels). The program never reads ``truth.json``.
"""
from __future__ import annotations

import argparse
import json
import os

import numpy as np

from blamebox import (ExperienceDb, Fingerprint, FunctionRegistry, Observation,
                      SensorSynthSpec, built_in_scenario, gen_sensor_suite,
                      save_db, save_study)
from blamebox.harness import SimSkillSpec, SimWorld, build_database, simulate_execution

# Sizes per workload and scale. "small" is for the smoke tests only.
SIZES = {
    "long-horizon": {"full": {"T": 400}, "small": {"T": 60}},
    "wide-registry": {
        "full": {"F": 2000, "skills": 16, "per_skill": 6, "pool": 32,
                 "db": 16, "recorded": 10, "T": 50},
        "small": {"F": 200, "skills": 6, "per_skill": 4, "pool": 12,
                  "db": 6, "recorded": 6, "T": 30},
    },
    "sensor-model": {
        "full": {"n_train": 30, "n_probe": 10},
        "small": {"n_train": 12, "n_probe": 4},
    },
}


def gen_long_horizon(out: str, seed: int, T: int) -> dict:
    """fig3's structure (241 functions, 4 skills, db_size 70, bug f2) at a
    long execution length."""
    scenario = built_in_scenario("fig3", seed=seed).to_dict()
    scenario.update(name="fig3-long-horizon", T=T)
    with open(os.path.join(out, "scenario.json"), "w", encoding="utf-8") as fh:
        json.dump(scenario, fh, indent=2)
    return {"bug": scenario["buggy"][0]}


def gen_wide_registry(out: str, seed: int, F: int, skills: int, per_skill: int,
                      pool: int, db: int, recorded: int, T: int) -> dict:
    """A replay study over a wide registry.

    Only a hot pool of functions is ever called. The bug sits in a pool
    function every skill runs (a shared dependency), and each skill adds
    ``per_skill - 1`` further pool functions. Every recorded run therefore
    fails, and two failures of skills sharing only the bug isolate it, so
    the loop length does not hinge on which equal-gain skill the planner
    happens to try first. The seed places the pool in the registry and
    drives every count, failure time and skill composition.
    """
    rng = np.random.default_rng(seed)
    dt = 0.05
    names = [f"fn{i:04d}" for i in range(F)]
    registry = FunctionRegistry(names)
    pool_names = [names[i] for i in rng.choice(F, size=pool, replace=False)]
    bug = pool_names[0]
    specs = {}
    for k in range(skills):
        others = rng.choice(np.arange(1, pool), size=per_skill - 1, replace=False)
        used = (bug,) + tuple(pool_names[i] for i in sorted(others))
        specs[f"skill{k:02d}"] = SimSkillSpec(skill=f"skill{k:02d}", used_functions=used,
                                              T=T, dt=dt)
    world = SimWorld(registry=registry, buggy_functions=frozenset({bug}))
    dbs = {s: build_database(spec, registry, rng, db) for s, spec in specs.items()}
    replay = {s: [simulate_execution(spec, world, rng) for _ in range(recorded)]
              for s, spec in specs.items()}
    save_study(os.path.join(out, "study"), registry, dbs, dt=dt, replay=replay)
    return {"bug": bug}


def gen_sensor_model(out: str, seed: int, n_train: int, n_probe: int) -> dict:
    """Training db from ``gen_sensor_suite`` defaults (D=8, T=200, onset 120)
    and a probe db of clean and anomalous runs in a seeded order."""
    spec = SensorSynthSpec()
    suite = gen_sensor_suite(spec, n_train=n_train, n_pos=n_probe, n_neg=n_probe,
                             rng=np.random.default_rng(seed))
    registry = FunctionRegistry(["sensor_rig"])

    def save(series, name):
        obs = [Observation(sensors=s, fingerprint=Fingerprint(np.zeros((1, s.T)), dt=s.dt),
                           success=True, skill="monitor") for s in series]
        save_db(ExperienceDb.from_observations("monitor", obs, registry),
                os.path.join(out, name), registry)

    order = np.random.default_rng([seed, 1]).permutation(2 * n_probe)
    probes = list(suite.positive) + list(suite.negative)
    save(suite.train, "train_db")
    save([probes[i] for i in order], "probe_db")
    anomalous = [i for i, j in enumerate(order) if j >= n_probe]
    return {"onset": suite.onset, "anomalous": anomalous,
            "clean": [i for i in range(2 * n_probe) if i not in anomalous]}


GENERATORS = {"long-horizon": gen_long_horizon, "wide-registry": gen_wide_registry,
              "sensor-model": gen_sensor_model}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=["full", "small"], default="full")
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()
    inputs = os.path.join(args.dir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    truth = GENERATORS[args.workload](inputs, args.seed, **SIZES[args.workload][args.scale])
    with open(os.path.join(args.dir, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh)


if __name__ == "__main__":
    main()
