import json
import os
import subprocess
import sys

import numpy as np
import pytest

import blamebox
from blamebox import FunctionRegistry, save_db, save_study
from blamebox.cli import main
from blamebox.harness import SimSkillSpec, SimWorld, build_database, simulate_execution

TINY_DT_ERROR = ("dt 1e-320 is too small: a 2 s window at that interval is not a finite "
                 "number of steps")


def make_sensor_db(tmp_path, n=6, D=4, T=30, skill="s1", name="db"):
    """A database whose sensor channels carry real structure."""
    from blamebox.core import ExperienceDb, Fingerprint, Observation, SensorSeries
    reg = FunctionRegistry(["f1", "f2"])
    rng = np.random.default_rng(0)
    t = np.arange(T)
    obs = []
    for _ in range(n):
        phase = rng.uniform(0, 2 * np.pi)
        data = np.vstack([0.5 + 0.3 * np.sin(2 * np.pi * t / T + phase + k)
                          + rng.normal(0, 0.03, T) for k in range(D)])
        counts = np.abs(rng.normal(2, 0.5, (2, T)))
        obs.append(Observation(sensors=SensorSeries(data, dt=0.1),
                               fingerprint=Fingerprint(counts, dt=0.1),
                               success=True, skill=skill))
    db = ExperienceDb.from_observations(skill, obs, reg)
    path = tmp_path / name
    save_db(db, str(path), reg)
    return path


class TestSimulate:
    def test_fig3_summary_blames_f2(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["simulate", "--scenario", "fig3", "--seed", "1",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["top"][0]["function"] == "f2"
        assert summary["top"][0]["p"] >= 0.95
        run = json.loads((out / "run.json").read_text())
        assert run["config"]["seed"] == 1

    def test_unknown_scenario_exits_one_and_lists(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "nosuch", "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        for name in ("fig3", "fig4", "fig5", "exoneration", "localizer-ambiguity"):
            assert name in err

    def test_scenario_file(self, tmp_path):
        from blamebox.harness import built_in_scenario
        cfg = built_in_scenario("exoneration", seed=2)
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "r"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
        assert (out / "belief.csv").exists()

    def test_gains_csv_headers_name_skills(self, tmp_path):
        out = tmp_path / "r"
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps({
            "name": "tiny",
            "functions": ["f1", "f2", "f3"],
            "skills": [{"skill": "alpha", "functions": ["f1", "f2"]}],
            "buggy": ["f1"],
            "db_size": 6, "T": 16, "seed": 2,
        }))
        assert main(["simulate", "--scenario", str(cfg_path), "--out", str(out)]) == 0
        header = (out / "gains.csv").read_text().splitlines()[0]
        assert header.split(",")[:3] == ["step", "chosen", "success"]
        assert "alpha" in header
        belief_header = (out / "belief.csv").read_text().splitlines()[0]
        assert belief_header == "step,f1,f2,f3"

    def test_too_small_dt_exits_one(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "name": "tiny", "functions": ["f1", "f2"],
            "skills": [{"skill": "s", "functions": ["f1"]}], "buggy": ["f1"],
            "db_size": 5, "T": 12, "dt": 1e-320}))
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: scenario file {str(path)!r}: {TINY_DT_ERROR}\n"
        assert not out.exists()

    @pytest.mark.parametrize("exc,line", [
        (MemoryError("Unable to allocate 373. GiB for an array"),
         "Unable to allocate 373. GiB for an array"),
        (MemoryError(), "out of memory")], ids=["numpy", "bare"])
    def test_out_of_memory_exits_one(self, tmp_path, capsys, monkeypatch, exc, line):
        import blamebox.cli as cli

        def exhausted(config):
            raise exc

        monkeypatch.setattr(cli, "run_scenario", exhausted)
        assert main(["simulate", "--scenario", "fig3", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {line}\n"


class TestMomCommands:
    def test_train_then_eval(self, tmp_path):
        db_path = make_sensor_db(tmp_path)
        model_path = tmp_path / "mom.json"
        assert main(["train-mom", "--db", str(db_path), "--out", str(model_path),
                     "--epochs", "30", "--bottleneck", "2", "--seed", "3"]) == 0
        out = tmp_path / "eval"
        assert main(["eval-mom", "--model", str(model_path), "--db", str(db_path),
                     "--out", str(out)]) == 0
        lines = (out / "mom_likelihood.csv").read_text().splitlines()
        assert lines[0].startswith("sequence,t0,t1")
        assert len(lines) == 7  # header + 6 sequences
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["sequences"]) == 6

    def test_train_writes_into_a_directory_not_made_yet(self, tmp_path):
        model_path = tmp_path / "models" / "v1" / "mom.json"
        assert main(["train-mom", "--db", str(make_sensor_db(tmp_path)), "--out", str(model_path),
                     "--epochs", "2", "--bottleneck", "2"]) == 0
        bundle = blamebox.load_model(str(model_path), expect="mom")
        assert bundle.model.D == 4 and len(bundle.model.loss_history) == 2

    @pytest.mark.parametrize("D,T", [(4, 25), (3, 30)], ids=["other-T", "other-D"])
    def test_eval_probe_of_other_shape_exits_one(self, tmp_path, capsys, D, T):
        model_path = tmp_path / "mom.json"
        assert main(["train-mom", "--db", str(make_sensor_db(tmp_path)),  # D=4, T=30
                     "--out", str(model_path), "--epochs", "2", "--bottleneck", "2"]) == 0
        probe_db = make_sensor_db(tmp_path, D=D, T=T, name="probe")
        out = tmp_path / "eval"
        code = main(["eval-mom", "--model", str(model_path), "--db", str(probe_db),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {probe_db}: its runs do not fit the model "
                              f"{model_path}: sequence 0 has shape")
        assert f"(D={D}, T={T})" in err and "(D=4, T=30)" in err
        assert not out.exists()

    def test_eval_requires_mom_kind(self, tmp_path, capsys):
        from blamebox import BlameConfig, fit_fpf, load_db, save_model
        db_path = make_sensor_db(tmp_path)
        fpf_path = tmp_path / "fpf.json"
        save_model(fit_fpf(load_db(str(db_path)), BlameConfig()), str(fpf_path))
        code = main(["eval-mom", "--model", str(fpf_path), "--db", str(db_path),
                     "--out", str(tmp_path / "e")])
        assert code == 1

    def test_train_on_one_channel_names_the_channel_count(self, tmp_path, capsys):
        db_path = make_sensor_db(tmp_path, D=1)
        code = main(["train-mom", "--db", str(db_path), "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {db_path}: its runs cannot train the observation model: "
            "the observation model needs at least 2 sensor channels, got D=1\n")
        assert not (tmp_path / "m.json").exists()

    def test_train_on_one_run_names_the_database(self, tmp_path, capsys):
        db_path = make_sensor_db(tmp_path, n=1)
        code = main(["train-mom", "--db", str(db_path), "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {db_path}: its runs cannot train the observation model: "
            "training needs at least two sequences\n")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("n,D", [(6, 1), (1, 4)], ids=["one-channel", "one-run"])
    def test_train_rejection_keeps_its_class(self, tmp_path, n, D):
        from blamebox import ValidationError
        from blamebox.cli import _build_parser
        db_path = make_sensor_db(tmp_path, n=n, D=D)
        args = _build_parser().parse_args(
            ["train-mom", "--db", str(db_path), "--out", str(tmp_path / "m.json")])
        with pytest.raises(ValidationError) as info:
            args.func(args)
        assert type(info.value) is ValidationError
        assert type(info.value.__cause__) is ValidationError

    def test_database_without_sensors_exits_one_naming_it(self, tmp_path, capsys):
        reg = FunctionRegistry(["f1", "f2"])
        spec = SimSkillSpec(skill="s1", used_functions=("f1",), T=30, dt=0.1)
        bare = tmp_path / "bare"
        save_db(build_database(spec, reg, np.random.default_rng(0), 4), str(bare), reg)
        model_path = tmp_path / "mom.json"
        assert main(["train-mom", "--db", str(bare), "--out", str(model_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bare}: run 0 carries no sensor")
        assert not model_path.exists()
        assert main(["train-mom", "--db", str(make_sensor_db(tmp_path)),
                     "--out", str(model_path), "--epochs", "2", "--bottleneck", "2"]) == 0
        capsys.readouterr()
        assert main(["eval-mom", "--model", str(model_path), "--db", str(bare),
                     "--out", str(tmp_path / "eval")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bare}: run 0 carries no sensor")
        assert not (tmp_path / "eval").exists()

    def test_missing_db_is_io_error(self, tmp_path):
        assert main(["train-mom", "--db", str(tmp_path / "none"),
                     "--out", str(tmp_path / "m.json")]) == 2


class TestLocalize:
    def test_replay_study(self, tmp_path):
        reg = FunctionRegistry(["f1", "f2", "f3"])
        rng = np.random.default_rng(2)
        specs = {
            "s1": SimSkillSpec(skill="s1", used_functions=("f1", "f2"), T=16, dt=0.1),
            "s2": SimSkillSpec(skill="s2", used_functions=("f2", "f3"), T=16, dt=0.1),
        }
        dbs = {s: build_database(specs[s], reg, rng, 8) for s in specs}
        world = SimWorld(registry=reg, buggy_functions=frozenset({"f2"}))
        replay = {s: [simulate_execution(specs[s], world, rng) for _ in range(12)]
                  for s in specs}
        study_path = tmp_path / "study"
        save_study(str(study_path), reg, dbs, dt=0.1, replay=replay)
        out = tmp_path / "loc"
        assert main(["localize", "--study", str(study_path), "--executor", "replay",
                     "--out", str(out), "--seed", "1"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["top"][0]["function"] == "f2"

    @pytest.mark.parametrize("replay_T", [44, 33])
    def test_replay_of_another_length(self, tmp_path, replay_T):
        # replayed runs are cut or padded to the databases' T = 40, as stored runs are
        reg = FunctionRegistry(["f1", "f2", "f3"])
        rng = np.random.default_rng(2)
        used = {"s1": ("f1", "f2"), "s2": ("f2", "f3")}

        def specs(T):
            return {s: SimSkillSpec(skill=s, used_functions=fns, T=T, dt=0.1)
                    for s, fns in used.items()}

        dbs = {s: build_database(spec, reg, rng, 8) for s, spec in specs(40).items()}
        world = SimWorld(registry=reg, buggy_functions=frozenset({"f2"}))
        replay = {s: [simulate_execution(spec, world, rng) for _ in range(12)]
                  for s, spec in specs(replay_T).items()}
        study_path = tmp_path / "study"
        save_study(str(study_path), reg, dbs, dt=0.1, replay=replay)
        out = tmp_path / "loc"
        assert main(["localize", "--study", str(study_path), "--executor", "replay",
                     "--out", str(out), "--seed", "1"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["top"][0]["function"] == "f2"

    def test_negative_seed_names_the_field(self, tmp_path, capsys):
        reg = FunctionRegistry(["f1", "f2"])
        spec = SimSkillSpec(skill="s1", used_functions=("f1",), T=10, dt=0.1)
        rng = np.random.default_rng(0)
        world = SimWorld(registry=reg, buggy_functions=frozenset({"f1"}))
        save_study(str(tmp_path / "study"), reg, {"s1": build_database(spec, reg, rng, 4)},
                   dt=0.1, replay={"s1": [simulate_execution(spec, world, rng)]})
        assert main(["localize", "--study", str(tmp_path / "study"),
                     "--out", str(tmp_path / "o"), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"

    def test_too_small_dt_exits_one(self, tmp_path, capsys):
        reg = FunctionRegistry(["f1", "f2"])
        spec = SimSkillSpec(skill="s1", used_functions=("f1",), T=10, dt=1e-320)
        rng = np.random.default_rng(0)
        world = SimWorld(registry=reg, buggy_functions=frozenset({"f1"}))
        save_study(str(tmp_path / "study"), reg, {"s1": build_database(spec, reg, rng, 4)},
                   dt=1e-320, replay={"s1": [simulate_execution(spec, world, rng)]})
        out = tmp_path / "o"
        assert main(["localize", "--study", str(tmp_path / "study"), "--out", str(out)]) == 1
        manifest = tmp_path / "study" / "manifest.json"
        assert capsys.readouterr().err == f"error: {manifest}: {TINY_DT_ERROR}\n"
        assert not out.exists()

    def test_study_without_replay_fails_cleanly(self, tmp_path, capsys):
        reg = FunctionRegistry(["f1", "f2"])
        spec = SimSkillSpec(skill="s1", used_functions=("f1",), T=10, dt=0.1)
        dbs = {"s1": build_database(spec, reg, np.random.default_rng(0), 4)}
        study_path = tmp_path / "study"
        save_study(str(study_path), reg, dbs, dt=0.1)
        assert main(["localize", "--study", str(study_path),
                     "--out", str(tmp_path / "o")]) == 1


class TestReport:
    def test_round_trip_from_trace(self, tmp_path):
        out1 = tmp_path / "a"
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps({
            "name": "tiny",
            "functions": ["f1", "f2"],
            "skills": [{"skill": "s", "functions": ["f1"]}],
            "buggy": ["f1"],
            "db_size": 5, "T": 12, "seed": 4,
        }))
        assert main(["simulate", "--scenario", str(cfg_path), "--out", str(out1)]) == 0
        out2 = tmp_path / "b"
        assert main(["report", "--trace", str(out1 / "trace.json"),
                     "--out", str(out2)]) == 0
        for name in ("gains.csv", "belief.csv", "trace.json", "summary.json"):
            assert (out2 / name).read_bytes() == (out1 / name).read_bytes(), name

    def test_non_trace_json_rejected(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text("{}")
        assert main(["report", "--trace", str(bad), "--out", str(tmp_path / "o")]) == 1


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_written_json_is_strict(tmp_path):
    """No bundle or model file holds NaN or Infinity, which json.dump would
    write and a strict parser rejects."""
    from blamebox.harness import BUILT_IN_SCENARIOS
    for name in BUILT_IN_SCENARIOS:
        assert main(["simulate", "--scenario", name, "--seed", "1",
                     "--out", str(tmp_path / "sim" / name)]) == 0
    reg = FunctionRegistry(["f1", "f2", "f3"])
    rng = np.random.default_rng(0)
    world = SimWorld(registry=reg, buggy_functions=frozenset({"f2"}))
    specs = [SimSkillSpec(skill=s, used_functions=fs, T=16, dt=0.1)
             for s, fs in (("s1", ("f1", "f2")), ("s2", ("f2", "f3")))]
    save_study(str(tmp_path / "study"), reg,
               {sp.skill: build_database(sp, reg, rng, 6) for sp in specs}, dt=0.1,
               replay={sp.skill: [simulate_execution(sp, world, rng) for _ in range(8)]
                       for sp in specs})
    assert main(["localize", "--study", str(tmp_path / "study"),
                 "--out", str(tmp_path / "loc")]) == 0
    db = make_sensor_db(tmp_path)
    model = tmp_path / "mom" / "model.json"
    model.parent.mkdir()
    assert main(["train-mom", "--db", str(db), "--out", str(model),
                 "--epochs", "5", "--bottleneck", "2"]) == 0
    assert main(["eval-mom", "--model", str(model), "--db", str(db),
                 "--out", str(tmp_path / "mom" / "eval")]) == 0
    # trace, summary and run.json of each bundle; the model, summary and run.json
    written = [p for where in ("sim", "loc", "mom") for p in (tmp_path / where).rglob("*.json")]
    assert len(written) == 3 * len(BUILT_IN_SCENARIOS) + 3 + 3
    for path in written:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_no_constant)


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs about a second to import, which every command would pay
    src = os.path.dirname(os.path.dirname(os.path.abspath(blamebox.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, blamebox.cli; sys.exit('scipy.signal' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


def test_cli_import_loads_no_scipy():
    # the runtime needs numpy only; scipy.special alone loads about 300 modules
    src = os.path.dirname(os.path.dirname(os.path.abspath(blamebox.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, blamebox.cli; "
            "sys.exit(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


def test_commands_leave_numpy_ma_unloaded(tmp_path):
    # numpy's plain np.unique and np.union1d import numpy.ma on their first
    # call, 12-17 ms that every command would pay
    reg = FunctionRegistry(["f1", "f2", "f3"])
    rng = np.random.default_rng(0)
    world = SimWorld(registry=reg, buggy_functions=frozenset({"f2"}))
    specs = [SimSkillSpec(skill=s, used_functions=fs, T=16, dt=0.1)
             for s, fs in (("s1", ("f1", "f2")), ("s2", ("f2", "f3")))]
    save_study(str(tmp_path / "study"), reg,
               {sp.skill: build_database(sp, reg, rng, 6) for sp in specs}, dt=0.1,
               replay={sp.skill: [simulate_execution(sp, world, rng) for _ in range(8)]
                       for sp in specs})
    runs = [["simulate", "--scenario", "fig3", "--out", str(tmp_path / "sim")],
            ["localize", "--study", str(tmp_path / "study"), "--out", str(tmp_path / "loc")],
            ["report", "--trace", str(tmp_path / "loc" / "trace.json"),
             "--out", str(tmp_path / "rep")]]
    src = os.path.dirname(os.path.dirname(os.path.abspath(blamebox.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys\nfrom blamebox.cli import main\n"
            f"assert all(main(argv) == 0 for argv in {runs!r})\n"
            "sys.exit('numpy.ma' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
