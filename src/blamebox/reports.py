"""Report bundle: the plot-ready CSVs and JSON files behind a run.

gains.csv    one row per loop step, one expected-information-gain column per
             skill (plus stderr columns);
belief.csv   one row per loop step, one posterior column per function;
trace.json   the full loop trace;
summary.json top blamed functions, candidate set, convergence status;
run.json     the fully resolved configuration and seed, enough to reproduce
             the run byte for byte.

Floats are written with repr (shortest round-trip form), and JSON keys are
sorted, so identical runs produce identical bytes.
"""
from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .blame import coverage_indices
from .planner import LoopTrace
from .store import _write_json

# how many of the most blamed functions summary.json lists
_TOP_K = 10


def _fmt(x) -> str:
    return repr(float(x))


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    lines += [",".join(str(c) if isinstance(c, (str, int)) else _fmt(c) for c in row)
              for row in rows]
    return "\n".join(lines) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def trace_to_dict(trace: LoopTrace, function_names: Sequence[str]) -> dict:
    return {
        "skills": list(trace.skills),
        "functions": list(function_names),
        "converged": trace.converged,
        "aborted": trace.aborted,
        "steps": [
            {
                "step": s.step,
                "chosen": s.chosen,
                "success": s.success,
                "t_fail": s.t_fail,
                "entropy": s.entropy,
                "gains": {k: {"gain": g.gain, "stderr": g.stderr,
                              "n_samples": g.n_samples}
                          for k, g in s.gains.items()},
                "posterior": [float(p) for p in s.posterior],
            }
            for s in trace.steps
        ],
    }


def write_trace_files(out_dir: str, trace_dict: dict) -> dict:
    """Emit gains.csv / belief.csv / trace.json / summary.json for a trace.

    Every file's content is built before the first file is written, so a
    malformed trace leaves ``out_dir`` untouched."""
    skills = trace_dict["skills"]
    functions = trace_dict["functions"]
    steps = trace_dict["steps"]

    gain_header = ["step", "chosen", "success"]
    for s in skills:
        gain_header += [s, f"{s}_stderr"]
    gain_rows = []
    for st in steps:
        row = [st["step"], st["chosen"], int(st["success"])]
        for s in skills:
            row += [st["gains"][s]["gain"], st["gains"][s]["stderr"]]
        gain_rows.append(row)
    gains_csv = _csv(gain_header, gain_rows)
    belief_csv = _csv(["step"] + list(functions), ([st["step"]] + st["posterior"] for st in steps))

    if steps:
        final = np.asarray(steps[-1]["posterior"])
    else:
        final = np.full(len(functions), 1.0 / len(functions))
    order = np.argsort(final)[::-1][:_TOP_K]
    summary = {
        "steps": len(steps),
        "converged": trace_dict["converged"],
        "aborted": trace_dict["aborted"],
        "top": [{"function": functions[i], "p": float(final[i])} for i in order],
        "candidates": [functions[i] for i in sorted(coverage_indices(final))],
        "final_entropy": steps[-1]["entropy"] if steps else float(np.log(len(functions))),
    }

    os.makedirs(out_dir, exist_ok=True)
    _write_text(os.path.join(out_dir, "gains.csv"), gains_csv)
    _write_text(os.path.join(out_dir, "belief.csv"), belief_csv)
    _write_json(os.path.join(out_dir, "trace.json"), trace_dict)
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def write_run_info(out_dir: str, command: str, resolved: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "run.json"),
                {"tool": "blamebox", "tool_version": __version__,
                 "command": command, "config": resolved})


def write_scenario_report(out_dir: str, result) -> dict:
    """Full bundle for a scenario run (see :func:`write_trace_files`)."""
    trace_dict = trace_to_dict(result.trace, result.registry.names)
    summary = write_trace_files(out_dir, trace_dict)
    write_run_info(out_dir, "simulate", result.config.to_dict())
    return summary


def write_mom_eval(out_dir: str, names: Sequence[str],
                   likelihoods: Sequence[np.ndarray],
                   flagged: Sequence[int | None]) -> None:
    """Per-sequence, per-timestep success likelihood plus flagged times."""
    os.makedirs(out_dir, exist_ok=True)
    T = len(likelihoods[0]) if likelihoods else 0
    _write_text(os.path.join(out_dir, "mom_likelihood.csv"),
                _csv(["sequence"] + [f"t{t}" for t in range(T)],
                     ([name] + list(lik) for name, lik in zip(names, likelihoods))))
    _write_json(os.path.join(out_dir, "summary.json"),
                {"sequences": [{"sequence": n,
                                "t_fail": None if f is None else int(f)}
                               for n, f in zip(names, flagged)]})
