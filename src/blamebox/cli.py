"""Command line entry point.

Subcommands: ``simulate`` (run a built-in or file-described scenario),
``train-mom`` / ``eval-mom`` (observation model over a stored database),
``localize`` (testing loop over a stored study with replayed executions),
``report`` (re-emit the CSV bundle from a trace.json).

Exit codes: 0 success, 1 validation or configuration problem, 2 I/O problem.
Nothing is ever written outside --out.
"""
from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict

from .errors import BlameboxError, ScenarioError, StoreError, ValidationError
from .fpf import BlameConfig
from .harness import BUILT_IN_SCENARIOS, load_scenario, run_scenario
from .mom import (MomBundle, MomConfig, detect_failure_time, error_rows, fit_error_stats,
                  train)
from .planner import PlannerConfig, run_testing_loop
from .reports import (trace_to_dict, write_mom_eval, write_run_info,
                      write_trace_files)
from .store import (ReplayExecutor, _interpreting, _naming, _read_json, load_db,
                    load_model, load_study, save_model)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2


def _cmd_simulate(args) -> int:
    config = load_scenario(args.scenario, seed=args.seed)
    # a scenario file that no study can be built or run from is named
    with (nullcontext() if args.scenario in BUILT_IN_SCENARIOS
          else _naming(f"scenario file {args.scenario!r}", ScenarioError)):
        run_scenario(config, out_dir=args.out)
    return EXIT_OK


def _sensor_series(path: str) -> list:
    """The sensor series of every run of the database at ``path``."""
    db = load_db(path)
    for i, obs in enumerate(db.observations):
        if obs.sensors is None:
            raise ValidationError(f"{path}: run {i} carries no sensor data, which the "
                                  "observation model needs")
    return [o.sensors for o in db.observations]


def _cmd_train_mom(args) -> int:
    config = MomConfig(bottleneck=args.bottleneck, epochs=args.epochs, seed=args.seed)
    sequences = _sensor_series(args.db)
    try:
        model = train(sequences, config)
    except ValidationError as exc:
        raise type(exc)(f"{args.db}: its runs cannot train the observation model: "
                        f"{exc}") from exc
    stats = fit_error_stats(model, sequences)
    save_model(MomBundle(model=model, error_stats=stats), args.out)
    return EXIT_OK


def _cmd_eval_mom(args) -> int:
    bundle = load_model(args.model, expect="mom")
    config = MomConfig()
    sequences = _sensor_series(args.db)
    try:
        errors = error_rows(bundle.model, sequences, T=bundle.error_stats.T)
    except ValidationError as exc:
        raise ValidationError(f"{args.db}: its runs do not fit the model {args.model}: "
                              f"{exc}") from exc
    names = [f"obs_{i:04d}" for i in range(len(errors))]
    liks, flags = zip(*(detect_failure_time(bundle.error_stats, e, config) for e in errors))
    write_mom_eval(args.out, names, liks, flags)
    write_run_info(args.out, "eval-mom",
                   {"model": args.model, "db": args.db,
                    "smoothing_window": config.smoothing_window,
                    "z_threshold": config.z_threshold})
    return EXIT_OK


def _cmd_localize(args) -> int:
    study = load_study(args.study)
    # a study whose runs the loop cannot replay is named by its manifest
    with _naming(os.path.join(args.study, "manifest.json"), StoreError):
        if not study.replay:
            raise ValidationError(f"study {args.study} holds no recorded executions to replay")
        blame = BlameConfig.for_sampling(study.dt)
        planner = PlannerConfig(seed=args.seed)
        _, trace = run_testing_loop(ReplayExecutor(study.replay), study.dbs, None, planner,
                                    blame)
    write_trace_files(args.out, trace_to_dict(trace, study.registry.names))
    write_run_info(args.out, "localize",
                   {"study": args.study, "executor": args.executor, "seed": args.seed,
                    "planner": asdict(planner), "blame": asdict(blame)})
    return EXIT_OK


def _cmd_report(args) -> int:
    trace_dict = _read_json(args.trace)
    with _interpreting(args.trace), _naming(args.trace, StoreError):
        write_trace_files(args.out, trace_dict)
    write_run_info(args.out, "report", {"trace": args.trace})
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blamebox",
        description="Bayesian fault localization over skill executions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and write its report bundle")
    p.add_argument("--scenario", required=True,
                   help=f"built-in name ({', '.join(BUILT_IN_SCENARIOS)}) or JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train-mom", help="train the observation model on a database")
    p.add_argument("--db", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=MomConfig.epochs)
    p.add_argument("--bottleneck", type=int, default=MomConfig.bottleneck)
    p.add_argument("--seed", type=int, default=MomConfig.seed)
    p.set_defaults(func=_cmd_train_mom)

    p = sub.add_parser("eval-mom", help="per-timestep likelihoods of stored executions")
    p.add_argument("--model", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval_mom)

    p = sub.add_parser("localize", help="run the testing loop over recorded executions")
    p.add_argument("--study", required=True)
    p.add_argument("--executor", choices=["replay"], default="replay")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("report", help="re-emit the CSV bundle from a trace.json")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BlameboxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
