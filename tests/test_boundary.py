"""The persistence boundary: every persisted JSON document is read and
written by one pair of functions in ``store``, malformed content surfaces as
a typed error naming the file, manifest entries stay inside their directory,
and run.json serializes the configs by their dataclasses."""
import ast
import contextlib
import importlib.util
import inspect
import io
import json
import os
import re
import shutil
import tempfile
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blamebox
from blamebox import (BlameConfig, ExperienceDb, Fingerprint, FunctionRegistry,
                      MomBundle, MomConfig, Observation, PlannerConfig, SensorSeries,
                      StoreError, fit_error_stats, init_model, load_study, save_db,
                      save_model, save_recorded, save_study)
from blamebox.cli import main
from blamebox.harness import SimSkillSpec, SimWorld, build_database, simulate_execution

SRC = os.path.dirname(os.path.abspath(blamebox.__file__))
LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "layers.py")
REG = FunctionRegistry(["f1", "f2", "f3"])
SPECS = {
    "s1": SimSkillSpec(skill="s1", used_functions=("f1", "f2"), T=16, dt=0.1),
    "s2": SimSkillSpec(skill="s2", used_functions=("f2", "f3"), T=16, dt=0.1),
}


def _save_base(root):
    """A small replay study, the trace.json of localizing over it, a sensor
    database with a model file that scores it, and a scenario file, all under
    ``root``."""
    rng = np.random.default_rng(2)
    dbs = {s: build_database(SPECS[s], REG, rng, 6) for s in SPECS}
    world = SimWorld(registry=REG, buggy_functions=frozenset({"f2"}))
    replay = {s: [simulate_execution(SPECS[s], world, rng) for _ in range(8)]
              for s in SPECS}
    save_study(os.path.join(root, "study"), REG, dbs, dt=0.1, replay=replay)
    assert main(["localize", "--study", os.path.join(root, "study"),
                 "--out", os.path.join(root, "loc"), "--seed", "1"]) == 0
    shutil.copy(os.path.join(root, "loc", "trace.json"), os.path.join(root, "trace.json"))
    sensors = [SensorSeries(rng.uniform(0, 1, (3, 16)), dt=0.1) for _ in range(4)]
    counts = [Fingerprint(np.abs(rng.normal(2, 0.5, (3, 16))), dt=0.1) for _ in range(4)]
    db = ExperienceDb.from_observations("s1", [
        Observation(sensors=x, fingerprint=c, success=True, skill="s1")
        for x, c in zip(sensors, counts)], REG)
    save_db(db, os.path.join(root, "sensor_db"), REG)
    model = init_model(3, MomConfig(bottleneck=2, seed=0))
    save_model(MomBundle(model=model, error_stats=fit_error_stats(model, sensors)),
               os.path.join(root, "mom.json"))
    assert main(_argv(root, "mom.json")) == 0
    with open(os.path.join(root, "scenario.json"), "w", encoding="utf-8") as fh:
        json.dump({"name": "tiny", "functions": ["f1", "f2"],
                   "skills": [{"skill": "s", "functions": ["f1"]}],
                   "buggy": ["f1"], "db_size": 5, "T": 12, "dt": 0.05,
                   "count_mu": 2.0, "count_sigma": 0.5, "seed": 1,
                   "planner": {"max_iterations": 10}, "blame": {"window_steps": 4}}, fh)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("base"))
    _save_base(root)
    return root


def _copy(base, dest):
    for name in os.listdir(base):
        src = os.path.join(base, name)
        (shutil.copytree if os.path.isdir(src) else shutil.copy)(src, os.path.join(dest, name))


def _edit(path, change):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc = change(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _argv(root, target):
    """The command that reads the document ``target`` first."""
    if target == "trace.json":
        return ["report", "--trace", os.path.join(root, target), "--out", os.path.join(root, "o")]
    if target == "mom.json":
        return ["eval-mom", "--model", os.path.join(root, target),
                "--db", os.path.join(root, "sensor_db"), "--out", os.path.join(root, "o")]
    if target == "scenario.json":
        return ["simulate", "--scenario", os.path.join(root, target),
                "--out", os.path.join(root, "o")]
    study = os.path.join(root, target.split(os.sep)[0])
    return ["localize", "--study", study, "--out", os.path.join(root, "o")]


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _drop(key):
    def change(doc):
        del doc[key]
        return doc
    return change


def _set(key, value):
    def change(doc):
        doc[key] = value
        return doc
    return change


def _in_first(list_key, change):
    def outer(doc):
        doc[list_key][0] = change(doc[list_key][0])
        return doc
    return outer


def _in_first_posterior(change):
    return _in_first("steps", lambda step: {**step, "posterior": change(step["posterior"])})


def _in_last_step(key, value):
    def change(doc):
        doc["steps"][-1][key] = value
        return doc
    return change


def _in_first_gains(key, value):
    """Set ``key`` of the first skill's gain entry in the first step."""
    def change(step):
        gains = step["gains"][sorted(step["gains"])[0]]
        gains[key] = value
        return step
    return _in_first("steps", change)


def _with_runs_without_data(T, n):
    """Append ``n`` entries of length ``T`` that hold neither a counts row nor
    sensors, enough to make ``T`` the database's canonical length."""
    def change(doc):
        doc["observations"] += [{"success": True, "t_fail": None, "T": T, "rows": 0,
                                 "D": None}] * n
        doc["canonical_T"] = T
        return doc
    return change


def _ragged(outer, key):
    """Cut the last cell off the first row of the matrix ``doc[outer][key]``."""
    def change(doc):
        rows = doc[outer][key]
        doc[outer][key] = [rows[0][:-1]] + rows[1:]
        return doc
    return change


# what a message carries when an exception escaped the field reader unnamed
RAW = re.compile(r"malformed content: (KeyError|TypeError|AttributeError|IndexError)"
                 r"|malformed scenario description")
STUDY = os.path.join("study", "manifest.json")
DB = os.path.join("study", "dbs", "s1", "manifest.json")
REPLAY = os.path.join("study", "replay", "s1", "manifest.json")
MALFORMED = [
    ("study-no-functions", STUDY, _drop("functions")),
    ("study-null-functions", STUDY, _set("functions", None)),
    ("study-no-dbs", STUDY, _drop("dbs")),
    ("study-int-skills", STUDY, _set("skills", 5)),
    ("db-no-observations", DB, _drop("observations")),
    ("db-entry-no-rows", DB, _in_first("observations", _drop("rows"))),
    ("db-entry-negative-rows", DB, _in_first("observations", _set("rows", -2))),
    ("db-entry-fractional-T", DB, _in_first("observations", _set("T", 15.5))),
    ("db-entries-without-data-huge-T", DB, _with_runs_without_data(10 ** 9, 7)),
    ("db-entry-infinite-t_fail", DB, _in_first("observations", _set("t_fail", float("inf")))),
    ("db-success-entry-int-t_fail", DB, _in_first("observations", _set("t_fail", 3))),
    ("db-canonical_T-999", DB, _set("canonical_T", 999)),
    ("db-string-canonical_T", DB, _set("canonical_T", "16")),
    ("db-infinite-dt", DB, _set("dt", float("inf"))),
    ("db-failed-entry", DB, _in_first("observations", _set("success", False))),
    ("db-empty-observations", DB, _set("observations", [])),
    ("db-dt-not-the-study's", DB, _set("dt", 0.5)),
    ("study-dt-not-the-runs'", STUDY, _set("dt", 0.5)),
    ("replay-entry-negative-t_fail", REPLAY, _in_first("observations", _set("t_fail", -3))),
    ("replay-entry-string-success", REPLAY,
     _in_first("observations", lambda e: {**e, "success": "false", "t_fail": None})),
    ("replay-entry-fractional-t_fail", REPLAY,
     _in_first("observations", lambda e: {**e, "success": False, "t_fail": 7.9})),
    ("replay-entry-boolean-t_fail", REPLAY,
     _in_first("observations", lambda e: {**e, "success": False, "t_fail": True})),
    ("replay-dt-not-the-study's", REPLAY, _set("dt", 0.5)),
    ("trace-step-no-gains", "trace.json", _in_first("steps", _drop("gains"))),
    ("trace-int-steps", "trace.json", _set("steps", 5)),
    ("trace-no-converged", "trace.json", _drop("converged")),
    ("trace-no-functions", "trace.json", _set("functions", [])),
    ("model-int-params", "mom.json", _set("params", 5)),
    ("model-list-top-level", "mom.json", lambda doc: []),
    ("model-null-error_stats", "mom.json", _set("error_stats", None)),
    ("scenario-list-top-level", "scenario.json", lambda doc: []),
    ("study-string-skills", STUDY, _set("skills", "a1")),
    ("study-string-functions", STUDY, _set("functions", "abc")),
    ("study-list-dbs", STUDY, _set("dbs", [])),
    ("study-list-replay", STUDY, _set("replay", [])),
    ("study-nested-skills", STUDY, _set("skills", [["a1"]])),
    ("study-no-functions-listed", STUDY, _set("functions", [])),
    ("study-no-skills-listed", STUDY, _set("skills", [])),
    ("study-no-replay", STUDY, _drop("replay")),
    ("db-int-entry", DB, _set("observations", [1])),
    ("db-object-observations", DB, _set("observations", {})),
    ("db-entry-no-D", DB, _in_first("observations", _drop("D"))),
    ("replay-no-skill", REPLAY, _drop("skill")),
    ("trace-object-steps", "trace.json", _set("steps", {})),
    ("model-no-norm_lo", "mom.json", _drop("norm_lo")),
    ("model-int-enc_w", "mom.json", lambda doc: {**doc, "params": {**doc["params"], "enc_w": 3}}),
    ("scenario-string-planner", "scenario.json", _set("planner", "abc")),
    ("scenario-string-skill-entry", "scenario.json", _set("skills", ["s"])),
    ("scenario-no-functions-listed", "scenario.json", _set("functions", [])),
    ("scenario-no-skills-listed", "scenario.json", _set("skills", [])),
    ("scenario-skill-without-functions", "scenario.json",
     _in_first("skills", _set("functions", []))),
]
# malformed fields that once escaped as a bare exception, each with the
# start of the message that names it
NAMED_FIELDS = [
    ("scenario-overflowing-dt", "scenario.json", _set("dt", 10 ** 400),
     "'dt' must be a number within float range, found 1000"),
    ("db-overflowing-dt", DB, _set("dt", 10 ** 400), "'dt' must be a finite number > 0"),
    ("model-ragged-enc_w", "mom.json", _ragged("params", "enc_w"),
     "'enc_w' must be rectangular, found lists of lengths 2 and 3 at depth 1"),
]
MALFORMED += [c[:3] for c in NAMED_FIELDS]


class TestMalformedDocuments:
    @pytest.mark.parametrize("target,change", [c[1:] for c in MALFORMED],
                             ids=[c[0] for c in MALFORMED])
    def test_exit_one_naming_the_file(self, base, tmp_path, target, change):
        _copy(base, str(tmp_path))
        _edit(str(tmp_path / target), change)
        code, err = _run(_argv(str(tmp_path), target))
        assert code == 1
        assert err.startswith("error: ")
        assert target in err
        assert not RAW.search(err)

    @pytest.mark.parametrize("target,change,message", [c[1:] for c in NAMED_FIELDS],
                             ids=[c[0] for c in NAMED_FIELDS])
    def test_exit_one_naming_the_field(self, base, tmp_path, target, change, message):
        _copy(base, str(tmp_path))
        _edit(str(tmp_path / target), change)
        code, err = _run(_argv(str(tmp_path), target))
        assert code == 1
        assert target in err and message in err
        assert "malformed content" not in err

    @pytest.mark.parametrize("target,change", [
        ("scenario.json", _set("dt", 10 ** 400)),
        (STUDY, _set("functions", list(range(2000)))),
    ], ids=["401-digit-dt", "2000-int-functions"])
    def test_long_bad_value_is_cut_to_one_short_line(self, base, target, change):
        with tempfile.TemporaryDirectory() as root:
            _copy(base, root)
            _edit(os.path.join(root, target), change)
            code, err = _run(_argv(root, target))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err

    @pytest.mark.parametrize("change", [
        _drop("converged"),
        _in_first_posterior(lambda form: {**form, "value": form["value"][:-1] + [None]}),
        _in_first_posterior(lambda form: {**form, "index": form["index"][::-1]}),
        _in_first_posterior(lambda form: {**form, "index": form["index"][:1] * 2}),
        _in_first_posterior(lambda form: {**form, "index": form["index"][:-1] + [3]}),
        _in_first_posterior(lambda form: {**form, "index": form["index"][:-1] + [-1]}),
        _in_first_posterior(lambda form: {**form, "index": [True] + form["index"][1:]}),
        _in_first_posterior(lambda form: {**form, "value": form["value"] + [0.5]}),
        _in_first_posterior(lambda form: {**form, "shared": "0.5"}),
        _in_first_posterior(lambda form: [form["shared"]] * 3),
        _in_first_posterior(lambda form: {**form, "value": [1e308] * len(form["value"])}),
        _in_first_posterior(lambda form: {**form, "shared": 1e308}),
        _in_first_posterior(lambda form: {**form, "shared": -0.5}),
        _in_first_posterior(lambda form: {**form, "value": form["value"][:-1] + [1.5]}),
        _in_first("steps", _set("step", "x,y")),
        _in_first_gains("gain", "abc"),
        _in_first_gains("stderr", True),
        _in_last_step("entropy", [1, 2]),
        _set("converged", "maybe"),
        _set("aborted", 5),
        _set("skills", "s1"),
        lambda doc: {**doc, "functions": [7] + doc["functions"][1:]},
        _in_first("steps", _set("chosen", "nosuch")),
        _in_first("steps", _set("success", 1)),
        _set("steps", {}),
        _set("steps", [1]),
        _in_first("steps", _set("gains", [])),
        _in_first("steps", lambda step: {**step, "gains": {s: 3 for s in step["gains"]}}),
        _in_first_posterior(_drop("index")),
        _in_first("steps", _drop("posterior")),
        _in_first("steps", _set("gains", {})),
    ], ids=["no-converged", "null-posterior-cell", "unsorted-index", "repeated-index",
            "index-past-F", "negative-index", "boolean-index", "length-mismatch",
            "string-shared", "dense-list-posterior", "huge-value-cells", "huge-shared",
            "negative-shared", "value-above-one", "string-step", "string-gain",
            "boolean-stderr", "list-entropy", "string-converged", "int-aborted",
            "string-skills", "int-function", "unknown-chosen", "int-success",
            "object-steps", "int-step-entry", "list-gains", "int-gain-entry",
            "no-posterior-index", "no-posterior", "no-gain-entries"])
    def test_late_malformed_trace_writes_nothing(self, base, tmp_path, change):
        trace, out = tmp_path / "trace.json", tmp_path / "out"
        shutil.copy(os.path.join(base, "trace.json"), trace)
        _edit(str(trace), change)
        code, err = _run(["report", "--trace", str(trace), "--out", str(out)])
        assert code == 1
        assert err.startswith(f"error: {trace}: ")
        assert not RAW.search(err)
        assert not out.exists() or os.listdir(out) == []

    def test_replay_entry_outside_study_rejected(self, base, tmp_path):
        _copy(base, str(tmp_path))
        # a valid recording, but outside the study directory
        elsewhere = str(tmp_path / "elsewhere")
        rng = np.random.default_rng(0)
        world = SimWorld(registry=REG, buggy_functions=frozenset({"f2"}))
        save_recorded([simulate_execution(SPECS["s1"], world, rng)], elsewhere, "s1", REG, 0.1)
        _edit(str(tmp_path / STUDY), _set("replay", {"s1": elsewhere}))
        with pytest.raises(StoreError, match="not a relative path inside"):
            load_study(str(tmp_path / "study"))
        _edit(str(tmp_path / STUDY), _set("replay", {"s1": os.path.join("..", "elsewhere")}))
        with pytest.raises(StoreError, match="not a relative path inside"):
            load_study(str(tmp_path / "study"))

    @pytest.mark.parametrize("entry", [5, None, ["dbs", "s1"], ""])
    def test_db_entry_must_be_a_path_inside(self, base, tmp_path, entry):
        _copy(base, str(tmp_path))
        _edit(str(tmp_path / STUDY), lambda doc: {**doc, "dbs": {**doc["dbs"], "s1": entry}})
        code, err = _run(_argv(str(tmp_path), STUDY))
        assert code == 1
        assert STUDY in err

    @pytest.mark.parametrize("skill", ["s1", [], 5])
    def test_replay_of_another_skill_rejected(self, base, tmp_path, skill):
        _copy(base, str(tmp_path))
        _edit(str(tmp_path / "study" / "replay" / "s2" / "manifest.json"), _set("skill", skill))
        code, err = _run(_argv(str(tmp_path), STUDY))
        assert code == 1
        assert STUDY in err

    def test_study_without_skills_exits_one(self, base, tmp_path):
        _copy(base, str(tmp_path))
        _edit(str(tmp_path / STUDY), _set("skills", []))
        code, err = _run(_argv(str(tmp_path), STUDY))
        assert code == 1
        assert "at least one skill" in err

    def test_missing_file_is_io_error(self, base, tmp_path):
        _copy(base, str(tmp_path))
        missing = os.path.join("study", "dbs", "s1", "counts.npy")
        os.remove(str(tmp_path / missing))
        code, err = _run(_argv(str(tmp_path), STUDY))
        assert code == 2
        assert missing in err


# (document, path to the mutated object inside it) for the fuzz test
FIELDS = [(STUDY, (), k) for k in ("format", "version", "functions", "skills", "dt",
                                   "dbs", "replay")]
FIELDS += [(m, (), k) for m in (DB, os.path.join("study", "replay", "s2", "manifest.json"))
           for k in ("format", "version", "skill", "canonical_T", "dt", "functions",
                     "observations")]
FIELDS += [(DB, ("observations", 1), k) for k in ("success", "t_fail", "T", "rows", "D")]
FIELDS += [("trace.json", (), k) for k in ("skills", "functions", "converged", "aborted",
                                           "steps")]
FIELDS += [("trace.json", ("steps", 0), k) for k in ("step", "chosen", "success", "t_fail",
                                                     "entropy", "gains", "posterior")]
FIELDS += [("trace.json", ("steps", 0, "posterior"), k) for k in ("shared", "index", "value")]
FIELDS += [("mom.json", (), k) for k in ("format", "version", "kind", "params", "norm_lo",
                                         "norm_hi", "loss_history", "error_stats")]
FIELDS += [("scenario.json", (), k) for k in ("name", "functions", "skills", "buggy", "db_size",
                                              "T", "dt", "count_mu", "count_sigma", "seed",
                                              "planner", "blame")]
FIELDS += [("scenario.json", ("skills", 0), k) for k in ("skill", "functions")]
FIELDS += [("scenario.json", ("planner",), k) for k in ("samples_per_observation",
                                                        "convergence_epsilon",
                                                        "convergence_patience",
                                                        "max_iterations", "seed")]
FIELDS += [("mom.json", ("params",), k) for k in ("enc_w", "enc_b", "upd_w", "upd_u", "upd_b",
                                                  "rst_w", "rst_u", "rst_b", "cand_w", "cand_u",
                                                  "cand_b")]
FIELDS += [("mom.json", ("error_stats",), k) for k in ("mu", "sigma")]
DROP = object()
VALUES = st.one_of(st.just(DROP), st.none(), st.integers(-2, 50), st.text(max_size=6),
                   st.lists(st.integers(0, 3), max_size=3),
                   st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2))


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(FIELDS), value=VALUES)
def test_fuzzed_field_never_escapes(base, field, value):
    target, where, key = field
    with tempfile.TemporaryDirectory() as root:
        _copy(base, root)

        def change(doc):
            obj = doc
            for step in where:
                obj = obj[step]
            if value is DROP:   # a planner field may be absent already
                obj.pop(key, None)
            else:
                obj[key] = value
            return doc

        _edit(os.path.join(root, target), change)
        code, err = _run(_argv(root, target))
    assert code in (0, 1, 2)
    assert code == 0 or "error: " in err
    # an exit-1 message names the document, and no exception escaped the field reader
    assert code != 1 or (target in err and not RAW.search(err))


def _data_argv(root, target):
    """The command that reads the data file ``target``: localize for a
    study's, train-mom for a sensor database's."""
    top = target.split(os.sep)[0]
    if top.startswith("study"):
        return _argv(root, target)
    return ["train-mom", "--db", os.path.join(root, top),
            "--out", os.path.join(root, "m.json"), "--epochs", "1"]


# version-3 data files for the .npy fuzz
NPY_FILES = [os.path.join("study", "dbs", "s1", "counts.npy"),
             os.path.join("study", "replay", "s2", "counts.npy"),
             os.path.join("sensor_db", "counts.npy"),
             os.path.join("sensor_db", "sensors.npy")]
NPY_REWRITES = ["nan", "inf", "-1", "+0.5", "cut-bytes", "drop-value", "add-value",
                "int64", "float32", "two-d", "header-byte", "object"]


def _rewrite_npy(path, kind, i, b):
    """Apply the rewrite ``kind`` to value ``i`` or byte ``b`` (taken modulo
    the file's size) of a .npy data file; True when the result is malformed."""
    with open(path, "rb") as fh:
        raw = fh.read()
    arr = np.load(path)
    sensors = path.endswith("sensors.npy")
    malformed = True
    if kind in ("nan", "inf", "-1", "+0.5"):
        if arr.size == 0:
            return False
        if kind == "+0.5":
            arr[i % arr.size] += 0.5   # malformed only on a function index
            malformed = False
        else:
            arr[i % arr.size] = float(kind)
            malformed = not (sensors and kind == "-1")
    elif kind == "drop-value":
        if arr.size == 0:
            return False
        arr = np.delete(arr, i % arr.size)
    elif kind == "add-value":
        arr = np.insert(arr, i % (arr.size + 1), 1.0)
    elif kind in ("int64", "float32", "object"):
        arr = arr.astype(kind)
    elif kind == "two-d":
        arr = arr[None, :]
    if kind in ("cut-bytes", "header-byte"):
        if kind == "cut-bytes":
            raw = raw[:b % len(raw)]
        else:   # the header may still parse to the same array
            raw = raw[:b % 128] + b"\x07" + raw[b % 128 + 1:]
            malformed = False
        with open(path, "wb") as fh:
            fh.write(raw)
    else:
        with open(path, "wb") as fh:
            np.save(fh, arr, allow_pickle=kind == "object")
    return malformed


@settings(max_examples=60, deadline=None)
@given(target=st.sampled_from(NPY_FILES), kind=st.sampled_from(NPY_REWRITES),
       i=st.integers(0, 400), b=st.integers(0, 2000))
def test_fuzzed_npy_never_escapes(base, target, kind, i, b):
    with tempfile.TemporaryDirectory() as root:
        _copy(base, root)
        malformed = _rewrite_npy(os.path.join(root, target), kind, i, b)
        code, err = _run(_data_argv(root, target))
    assert code in (0, 1, 2)
    assert code == 0 or (err.startswith("error: ") and target in err)
    assert code == 1 or not malformed


class TestSingleSerializer:
    def test_simulate_run_json(self, base, tmp_path):
        from blamebox.harness import load_scenario
        out = tmp_path / "r"
        scenario = os.path.join(base, "scenario.json")
        assert main(["simulate", "--scenario", scenario, "--out", str(out)]) == 0
        run = json.loads((out / "run.json").read_text())
        cfg = load_scenario(scenario)
        assert run["config"]["planner"] == asdict(replace(cfg.planner, seed=cfg.seed))
        assert run["config"]["blame"] == asdict(cfg.resolved_blame())
        assert run["tool_version"] == blamebox.__version__

    def test_localize_run_json(self, base):
        run = json.loads(open(os.path.join(base, "loc", "run.json"), encoding="utf-8").read())
        assert run["config"]["planner"] == asdict(PlannerConfig(seed=1))
        assert run["config"]["blame"] == asdict(BlameConfig.for_sampling(0.1))
        assert run["tool_version"] == blamebox.__version__

    def test_json_only_in_store(self):
        # every JSON document is read and written through store's pair of functions
        calling = []
        for name in sorted(os.listdir(SRC)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            calling += [(name, node.attr) for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "json"
                        and node.attr in ("load", "loads", "dump", "dumps")]
        assert {name for name, _ in calling} == {"store.py"}, calling

    def test_one_field_reader(self):
        # a function that reads a document by a key it is given and words a
        # "must be" error is a field reader; store's is the only one
        readers = []
        for name in sorted(os.listdir(SRC)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for fn in ast.walk(tree):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                params = {a.arg for a in fn.args.args}
                nodes = list(ast.walk(fn))
                if (any(isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Name)
                        and n.slice.id in params for n in nodes)
                        and any(isinstance(n, ast.Raise) for n in nodes)
                        and any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                                and "must be" in n.value for n in nodes)):
                    readers.append((name, fn.name))
        assert readers == [("store.py", "_field")], readers

    def test_one_version_string(self):
        assigning = []
        for name in sorted(os.listdir(SRC)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            if any(isinstance(t, ast.Name) and t.id == "__version__"
                   for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AnnAssign))
                   for t in (node.targets if isinstance(node, ast.Assign) else [node.target])):
                assigning.append(name)
        assert assigning == ["__init__.py"]


def test_benchmark_hooks_still_resolve():
    # perfbench/layers.py wraps these by name, and its read hook takes ``path``
    spec = importlib.util.spec_from_file_location("_perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for module, attr, _, _ in layers.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    from blamebox import store
    for fn in (store._read_json, store._load_matrix):
        assert next(iter(inspect.signature(fn).parameters)) == "path"
