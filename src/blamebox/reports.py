"""Report bundle: the plot-ready CSVs and JSON files behind a run.

gains.csv    one row per loop step, one expected-information-gain column per
             skill (plus stderr columns);
belief.csv   one row per loop step, one posterior column per function;
trace.json   the full loop trace;
summary.json top blamed functions, candidate set, convergence status;
run.json     the fully resolved configuration and seed, enough to reproduce
             the run byte for byte.

A run moves only the few functions its skills touch away from the value that
every other function shares, so ``trace.json`` holds each step's posterior
in one O(support) form: ``{"shared": p, "index": [...], "value": [...]}``.
``shared`` is the value that most entries hold (the smaller one on a tie),
``index`` lists in ascending order every entry whose float is not bitwise
``shared``, and ``value`` holds the float at each listed index.
``belief.csv`` and ``summary.json`` are built from that form, so the shared
cell is formatted once per step. :func:`write_trace_files` checks the form
before it writes anything: a dense (list) posterior is rejected, and so is a
cell that is not a probability in [0, 1].

Floats are written with repr (shortest round-trip form), and JSON keys are
sorted, so identical runs produce identical bytes.
"""
from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .blame import coverage_indices
from .errors import ValidationError
from .planner import LoopTrace
from .store import (_BOOL, _INT, _NUMBER, _OBJECT, _PROBABILITY, _STRINGS, _field, _objects,
                    _write_json)

# how many of the most blamed functions summary.json lists
_TOP_K = 10


def _fmt(x) -> str:
    return repr(float(x))


def _cell(c) -> str:
    return str(c) if isinstance(c, (str, int)) else _fmt(c)


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    lines += [",".join(_cell(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def posterior_form(posterior: np.ndarray) -> dict:
    """The trace form of a dense posterior (see the module docstring)."""
    bits = np.ascontiguousarray(posterior, dtype=np.float64).view(np.uint64)
    keys, counts = np.unique(bits, return_counts=True)
    shared = keys[counts == counts.max()].view(np.float64).min()
    index = np.flatnonzero(bits != shared.view(np.uint64))
    return {"shared": float(shared), "index": index.tolist(),
            "value": bits[index].view(np.float64).tolist()}


# the list fields of a posterior's trace form
_INDICES = ("a list of JSON integers", lambda v: type(v) is list and all(type(i) is int for i in v))
_PROBABILITIES = ("a list of JSON numbers in [0, 1]",
                  lambda v: type(v) is list and all(_PROBABILITY[1](p) for p in v))


def _checked_form(form, F: int, owner: str) -> tuple[float, list[int], list]:
    """(shared, index, value) of a posterior in trace form over F functions;
    a form that breaks the module docstring's rules is a ValidationError whose
    text starts with ``owner``."""
    if type(form) is not dict:
        raise ValidationError(f"{owner}'posterior' must be an object with shared, index and "
                              f"value, found {type(form).__name__} (a dense posterior of an "
                              "older trace.json is not read)")
    shared, index, value = (_field(form, key, kind, owner, ValidationError, "posterior.")
                            for key, kind in (("shared", _PROBABILITY), ("index", _INDICES),
                                              ("value", _PROBABILITIES)))
    if len(index) != len(value):
        raise ValidationError(f"{owner}'posterior': index lists {len(index)} entries, "
                              f"but value holds {len(value)}")
    if index and not (0 <= index[0] and index[-1] < F
                      and all(a < b for a, b in zip(index, index[1:]))):
        raise ValidationError(f"{owner}'posterior.index' must ascend strictly within [0, {F})")
    return shared, index, value


def expand_posterior(form, F: int) -> np.ndarray:
    """The dense posterior over F functions of a posterior in trace form,
    which is checked first."""
    shared, index, value = _checked_form(form, F, "")
    dense = np.full(F, float(shared))
    dense[index] = np.asarray(value, dtype=np.float64)
    return dense


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
                "posterior": posterior_form(s.posterior),
            }
            for s in trace.steps
        ],
    }


def write_trace_files(out_dir: str, trace_dict: dict) -> dict:
    """Emit gains.csv / belief.csv / trace.json / summary.json for a trace.

    Every field read is checked by its JSON type, and every file's content
    built, before the first file is written, so a malformed trace leaves
    ``out_dir`` untouched."""
    skills, functions = (_field(trace_dict, key, _STRINGS, "the trace's ", ValidationError)
                         for key in ("skills", "functions"))
    converged = _field(trace_dict, "converged", _BOOL, "the trace's ", ValidationError)
    aborted = _field(trace_dict, "aborted", ("null or a string", lambda v: v is None or
                                             type(v) is str), "the trace's ", ValidationError)
    steps = _objects(trace_dict, "steps", "the trace's ", ValidationError)
    F = len(functions)
    if F == 0:
        raise ValidationError("a trace must list at least one function")

    gain_header = ["step", "chosen", "success"]
    for s in skills:
        gain_header += [s, f"{s}_stderr"]
    gain_rows, forms = [], []
    for st in steps:
        step = _field(st, "step", _INT, "a step's ", ValidationError)
        where = f"step {step}'s "
        chosen = _field(st, "chosen", ("one of the trace's skills", lambda v: v in skills),
                        where, ValidationError)
        success = _field(st, "success", _BOOL, where, ValidationError)
        _field(st, "entropy", _NUMBER, where, ValidationError)
        gains = _field(st, "gains", _OBJECT, where, ValidationError)
        row = [step, chosen, int(success)]
        for s in skills:
            gain = _field(gains, s, _OBJECT, where, ValidationError, "gains.")
            row += [_field(gain, key, _NUMBER, f"{where}gains[{s!r}] ", ValidationError)
                    for key in ("gain", "stderr")]
        gain_rows.append(row)
        forms.append(_checked_form(st.get("posterior"), F, where))
    gains_csv = _csv(gain_header, gain_rows)

    belief_lines = [",".join(["step"] + list(functions))]
    for st, (shared, index, value) in zip(steps, forms):
        cells = [_fmt(shared)] * F
        for i, v in zip(index, value):
            cells[i] = _fmt(v)
        belief_lines.append(_cell(st["step"]) + "," + ",".join(cells))
    belief_csv = "\n".join(belief_lines) + "\n"

    if steps:
        final = expand_posterior(steps[-1]["posterior"], F)
    else:
        final = np.full(F, 1.0 / F)
    order = np.argsort(final)[::-1][:_TOP_K]
    summary = {
        "steps": len(steps),
        "converged": converged,
        "aborted": aborted,
        "top": [{"function": functions[i], "p": float(final[i])} for i in order],
        "candidates": [functions[i] for i in sorted(coverage_indices(final))],
        "final_entropy": steps[-1]["entropy"] if steps else float(np.log(F)),
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
    """Per-sequence, per-timestep success likelihood plus flagged times. Each
    row is one join over the ``repr`` of its ``tolist()`` floats, the text
    that :func:`_fmt` gives each cell."""
    os.makedirs(out_dir, exist_ok=True)
    T = len(likelihoods[0]) if likelihoods else 0
    lines = [",".join(["sequence"] + [f"t{t}" for t in range(T)])]
    lines += [",".join([name, *map(repr, np.asarray(lik, dtype=np.float64).tolist())])
              for name, lik in zip(names, likelihoods)]
    _write_text(os.path.join(out_dir, "mom_likelihood.csv"), "\n".join(lines) + "\n")
    _write_json(os.path.join(out_dir, "summary.json"),
                {"sequences": [{"sequence": n,
                                "t_fail": None if f is None else int(f)}
                               for n, f in zip(names, flagged)]})
