"""The report bundle's posterior form: a dense posterior survives the trip
through trace.json bit for bit, and belief.csv is the per-cell join it
always was."""
import json
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blamebox.reports import expand_posterior, posterior_form, write_trace_files

# a few probabilities per posterior, so that counts tie; 0.0 and -0.0 differ bitwise
POOLS = st.lists(st.floats(min_value=-0.0, max_value=1.0), min_size=1, max_size=4)


@st.composite
def posteriors(draw):
    pool = draw(POOLS)
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40)))


def _bundle(posterior: np.ndarray) -> tuple[dict, str]:
    """The trace.json posterior and the belief.csv row that one step with
    ``posterior`` writes."""
    trace = {"skills": ["s"], "functions": [f"f{i}" for i in range(posterior.size)],
             "converged": True, "aborted": None,
             "steps": [{"step": 0, "chosen": "s", "success": False, "t_fail": 3,
                        "entropy": 0.0, "gains": {"s": {"gain": 0.0, "stderr": 0.0,
                                                        "n_samples": 8}},
                        "posterior": posterior_form(posterior)}]}
    with tempfile.TemporaryDirectory() as out:
        write_trace_files(out, trace)
        with open(os.path.join(out, "trace.json"), encoding="utf-8") as fh:
            form = json.load(fh)["steps"][0]["posterior"]
        with open(os.path.join(out, "belief.csv"), encoding="utf-8") as fh:
            row = fh.read().splitlines()[1]
    return form, row


@settings(max_examples=150, deadline=None)
@given(posterior=posteriors())
@example(posterior=np.full(7, 0.125))                      # all equal: nothing listed
@example(posterior=np.array([0.4, 0.1, 0.3, 0.2]))         # all distinct: the smallest shared
@example(posterior=np.array([0.3, 0.1, 0.3, 0.1, 0.2]))    # tied counts
@example(posterior=np.array([1.0]))                        # F = 1
@example(posterior=np.array([0.0, -0.0, -0.0, 0.5]))       # equal floats of other bits
def test_trace_form_round_trips_bitwise(posterior):
    form, row = _bundle(posterior)
    assert form == posterior_form(posterior)
    bits = posterior.view(np.uint64)
    assert np.array_equal(expand_posterior(form, posterior.size).view(np.uint64), bits)
    index, shared = form["index"], np.float64(form["shared"])
    assert all(a < b for a, b in zip(index, index[1:]))
    assert np.array_equal(np.flatnonzero(bits != shared.view(np.uint64)), index)
    keys, counts = np.unique(bits, return_counts=True)
    tied = keys[counts == counts.max()].view(np.float64)
    assert shared.view(np.uint64) in keys[counts == counts.max()] and shared == tied.min()
    assert row == "0," + ",".join(repr(float(p)) for p in posterior)
