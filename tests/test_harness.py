import math
import re
from dataclasses import replace

import numpy as np
import pytest

from blamebox import (AnomalySpec, BUILT_IN_SCENARIOS, BlameConfig, ConfigError,
                      FunctionRegistry, MomConfig, PlannerConfig, ScenarioError,
                      SensorSynthSpec, SimSkillSpec, SimWorld, StoreError, ValidationError,
                      built_in_scenario, gen_fingerprint, gen_fingerprints,
                      gen_sensor_suite, load_scenario, run_scenario, run_testing_loop,
                      simulate_execution, validate_observation)
from blamebox.harness import ScenarioConfig, build_database
from blamebox.reports import write_loop_report

REG6 = FunctionRegistry([f"f{i}" for i in range(1, 7)])


class TestGenFingerprint:
    def test_zero_sigma_gives_exact_rows(self):
        spec = SimSkillSpec(skill="a", used_functions=("f1", "f2"),
                            count_mu=1.0, count_sigma=0.0, T=4)
        fp = gen_fingerprint(spec, REG6, np.random.default_rng(0))
        assert np.array_equal(fp.counts[:2], np.ones((2, 4)))
        assert np.array_equal(fp.counts[2:], np.zeros((4, 4)))

    def test_unused_rows_exactly_zero(self):
        spec = SimSkillSpec(skill="a", used_functions=("f3",), T=16)
        fp = gen_fingerprint(spec, REG6, np.random.default_rng(1))
        used = REG6.index("f3")
        mask = np.ones(6, dtype=bool)
        mask[used] = False
        assert np.all(fp.counts[mask] == 0.0)

    def test_row_mean_converges_to_mu(self):
        # law of large numbers at T = 10^4, tolerance 5 sigma / sqrt(T)
        T, mu, sigma = 10_000, 2.0, 0.5
        spec = SimSkillSpec(skill="a", used_functions=("f1",), count_mu=mu,
                            count_sigma=sigma, T=T)
        fp = gen_fingerprint(spec, REG6, np.random.default_rng(7))
        assert abs(fp.counts[0].mean() - mu) <= 5 * sigma / np.sqrt(T)

    @pytest.mark.parametrize("used", [("f1", "f2"), ("f5", "f2", "f4"), ("f3", "f1", "f3")],
                             ids=["ascending", "unsorted", "repeated"])
    @pytest.mark.parametrize("sigma", [0.5, 0.0, 4.0])
    def test_database_is_a_loop_of_simulated_runs(self, used, sigma):
        # one batched draw: the same runs, bit for bit, and the same generator state
        spec = SimSkillSpec(skill="a", used_functions=used, count_sigma=sigma, T=9)
        batched, looped, drawn = (np.random.default_rng(11) for _ in range(3))
        db = build_database(spec, REG6, batched, 7)
        world = SimWorld(registry=REG6)
        runs = [simulate_execution(spec, world, looped) for _ in range(7)]
        assert batched.bit_generator.state == looped.bit_generator.state
        for got, want in zip(db.observations, runs, strict=True):
            # the per-run rule: one (k, T) draw, clamped; a repeated function keeps its last row
            rows = {REG6.index(f): row for f, row in zip(used, np.maximum(
                drawn.normal(spec.count_mu, sigma, (len(used), spec.T)), 0.0))}
            assert np.array_equal(got.fingerprint.counts[sorted(rows)],
                                  np.array([rows[i] for i in sorted(rows)]))
            assert (got.success, got.t_fail, got.sensors, got.skill) == (True, None, None, "a")
            assert (want.success, want.t_fail, want.sensors) == (True, None, None)
            assert np.array_equal(got.fingerprint.rows, want.fingerprint.rows)
            assert np.array_equal(got.fingerprint.values.view(np.uint64),
                                  want.fingerprint.values.view(np.uint64))
            assert (got.fingerprint.F, got.fingerprint.dt) == (REG6.F, spec.dt)
        assert gen_fingerprints(spec, REG6, np.random.default_rng(0), 0) == []

    def test_counts_validate(self):
        spec = SimSkillSpec(skill="a", used_functions=("f1", "f5"), T=30)
        world = SimWorld(registry=REG6)
        res = simulate_execution(spec, world, np.random.default_rng(3))
        assert validate_observation(res, REG6) is res


class TestSimulateExecution:
    def test_success_is_set_logic(self):
        w = SimWorld(registry=REG6, buggy_functions=frozenset({"f2"}))
        rng = np.random.default_rng(0)
        uses_bug = SimSkillSpec(skill="a", used_functions=("f1", "f2"), T=8)
        clean = SimSkillSpec(skill="b", used_functions=("f3", "f4", "f6"), T=8)
        assert not simulate_execution(uses_bug, w, rng).success
        assert simulate_execution(clean, w, rng).success

    def test_bug_free_world_always_succeeds(self):
        w = SimWorld(registry=REG6)
        spec = SimSkillSpec(skill="a", used_functions=("f1", "f2"), T=8)
        assert simulate_execution(spec, w, np.random.default_rng(1)).success

    def test_failure_time_in_middle_half(self):
        w = SimWorld(registry=REG6, buggy_functions=frozenset({"f1"}))
        spec = SimSkillSpec(skill="a", used_functions=("f1",), T=100)
        rng = np.random.default_rng(5)
        for _ in range(50):
            res = simulate_execution(spec, w, rng)
            assert 25 <= res.t_fail < 75

    def test_unknown_buggy_function_rejected(self):
        with pytest.raises(ValidationError):
            SimWorld(registry=REG6, buggy_functions=frozenset({"nope"}))

    def test_build_database_is_all_success(self):
        spec = SimSkillSpec(skill="a", used_functions=("f1", "f2"), T=10)
        db = build_database(spec, REG6, np.random.default_rng(2), 8)
        assert len(db) == 8
        assert all(o.success for o in db.observations)


class TestSensorSuite:
    def test_negative_set_carries_shift(self):
        spec = SensorSynthSpec(channels=4, T=50,
                               anomaly=AnomalySpec(onset=30, magnitude=3.0))
        suite = gen_sensor_suite(spec, 3, 2, 2, np.random.default_rng(0))
        assert len(suite.train) == 3 and len(suite.positive) == 2
        assert suite.onset == 30

    def test_zero_magnitude_shift_is_no_op_anomaly(self):
        spec = SensorSynthSpec(channels=3, T=40,
                               anomaly=AnomalySpec(onset=20, magnitude=0.0))
        rng = np.random.default_rng(1)
        suite = gen_sensor_suite(spec, 2, 2, 2, rng)
        # same generative family: identical channel-wise value ranges
        neg = np.stack([s.data for s in suite.negative])
        pos = np.stack([s.data for s in suite.positive])
        assert abs(neg.mean() - pos.mean()) < 0.2

    def test_dropout_zeroes_channel(self):
        spec = SensorSynthSpec(channels=3, T=40,
                               anomaly=AnomalySpec(kind="channel-dropout", onset=10,
                                                   channel=1))
        suite = gen_sensor_suite(spec, 1, 1, 2, np.random.default_rng(2))
        for s in suite.negative:
            assert np.all(s.data[1, 10:] == 0.0)
            assert np.any(s.data[1, :10] != 0.0)

    def test_freeze_holds_onset_value(self):
        spec = SensorSynthSpec(channels=2, T=30,
                               anomaly=AnomalySpec(kind="freeze", onset=12))
        suite = gen_sensor_suite(spec, 1, 1, 1, np.random.default_rng(3))
        frozen = suite.negative[0].data
        assert np.all(frozen[:, 12:] == frozen[:, 12][:, None])

    def test_onset_must_precede_end(self):
        with pytest.raises(ValidationError):
            SensorSynthSpec(channels=2, T=30, anomaly=AnomalySpec(onset=30))

    def test_bad_kind_rejected(self):
        with pytest.raises(ValidationError):
            AnomalySpec(kind="meteor")

    @pytest.mark.parametrize("channel", [9, 3, -1])
    def test_anomaly_channel_must_be_a_channel(self, channel):
        anomaly = AnomalySpec(kind="channel-dropout", onset=5, channel=channel)
        with pytest.raises(ValidationError, match=re.escape(
                f"anomaly channel must lie in [0, 3), found {channel}")):
            SensorSynthSpec(channels=3, T=20, anomaly=anomaly)


class TestScenarios:
    def test_unknown_name_lists_built_ins(self):
        with pytest.raises(ScenarioError, match="fig3"):
            load_scenario("nosuch")

    @pytest.mark.parametrize("name", BUILT_IN_SCENARIOS)
    def test_round_trip_through_json(self, name):
        import json
        cfg = built_in_scenario(name, seed=9)
        d = cfg.to_dict()
        back = ScenarioConfig.from_dict(json.loads(json.dumps(d)))
        assert back.to_dict() == d
        assert back == replace(cfg, blame=cfg.resolved_blame())

    def test_load_from_file(self, tmp_path):
        import json
        cfg = built_in_scenario("exoneration", seed=4)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = load_scenario(str(path))
        assert loaded.name == "exoneration"
        assert loaded.buggy == ("planCartesianTrajectory",)

    def test_seed_override_on_file_load(self, tmp_path):
        import json
        cfg = built_in_scenario("fig5", seed=1)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = load_scenario(str(path), seed=77)
        assert loaded.seed == 77

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x"}')
        with pytest.raises(ScenarioError):
            load_scenario(str(path))

    def test_repeated_skill_rejected(self, tmp_path, capsys):
        import json
        from blamebox.cli import main
        skills = (("a1", ("f1",)), ("a2", ("f2",)), ("a1", ("f2", "f3")))
        with pytest.raises(ScenarioError, match="skill 'a1' is listed more than once"):
            ScenarioConfig(name="twice", functions=("f1", "f2", "f3"), skills=skills,
                           buggy=("f2",))
        d = {"name": "twice", "functions": ["f1", "f2", "f3"], "buggy": ["f2"],
             "skills": [{"skill": s, "functions": list(fns)} for s, fns in skills]}
        with pytest.raises(ScenarioError, match="skill 'a1' is listed more than once"):
            ScenarioConfig.from_dict(d)
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(d))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "skill 'a1' is listed more than once" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("where,key,value,want", [
        ("planner", "max_iterations", 2.5, "an integer"),
        ("planner", "samples_per_observation", 2.5, "an integer"),
        ("blame", "window_steps", 3.5, "an integer"),
        ("blame", "alpha", "0.1", "a number"),
        (None, "T", 20.7, "an integer"),
        (None, "T", "20", "an integer"),
        (None, "db_size", True, "an integer"),
        (None, "dt", True, "a number"),
        (None, "count_mu", "2", "a number"),
        (None, "seed", -1, "an integer >= 0"),
        (None, "functions", "abc", "a list of strings"),
        (None, "buggy", [1], "a list of strings"),
        (None, "name", 5, "a string"),
        ("skills", "functions", "f1", "a list of strings"),
        ("skills", "skill", ["s"], "a string"),
        (None, "planner", "abc", "an object"),
        (None, "planner", [1], "an object"),
        (None, "blame", 7, "an object"),
        ("skills", 0, "s", "an object")])
    def test_mistyped_field_names_file_and_field(self, tmp_path, capsys, where, key, value,
                                                 want):
        import json
        from blamebox.cli import main
        d = {"name": "tiny", "functions": ["f1", "f2"],
             "skills": [{"skill": "s", "functions": ["f1"]}], "buggy": ["f1"],
             "db_size": 5, "T": 12, "planner": {"max_iterations": 3}, "blame": {}}
        # an int key replaces an entry of the skills list itself
        target = d if where is None else d[where] if type(key) is int \
            else d[where][0] if where == "skills" else d[where]
        target[key] = value
        field = key if where is None else f"{where}[{key}]" if type(key) is int \
            else f"{where}[0].{key}" if where == "skills" else f"{where}.{key}"
        path = tmp_path / "s.json"
        path.write_text(json.dumps(d))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (f"error: scenario file {str(path)!r}: {field!r} "
                                           f"must be {want}, found {value!r}\n")
        with pytest.raises(ScenarioError, match=re.escape(f"'{field}' must be {want}")):
            ScenarioConfig.from_dict(d)

    @pytest.mark.parametrize("key,value,want,found", [
        ("T", 0, "an integer >= 1", "0"),
        ("db_size", 0, "an integer >= 1", "0"),
        ("dt", 0, "a finite number > 0", "0.0"),
        ("dt", float("inf"), "a finite number > 0", "inf"),
        ("count_mu", float("nan"), "a finite number", "nan"),
        ("count_sigma", float("nan"), "a finite number >= 0", "nan"),
        ("count_sigma", -0.5, "a finite number >= 0", "-0.5")])
    def test_out_of_range_scalar_names_file_and_field(self, tmp_path, capsys, key, value,
                                                      want, found):
        import json
        from blamebox.cli import main
        d = {"name": "tiny", "functions": ["f1", "f2"],
             "skills": [{"skill": "s", "functions": ["f1"]}], "buggy": ["f1"],
             "db_size": 5, "T": 12, key: value}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: scenario file {str(path)!r}: {key!r} "
                                           f"must be {want}, found {found}\n")
        assert not out.exists()

    @pytest.mark.parametrize("where,key", [(None, "bogus"), (None, "db_sise"),
                                           ("planner", "sed"), ("blame", "alfa"),
                                           ("skills", "fns")])
    def test_unknown_field_names_file_and_field(self, tmp_path, capsys, where, key):
        import json
        from blamebox.cli import main
        d = {"name": "tiny", "functions": ["f1", "f2"],
             "skills": [{"skill": "s", "functions": ["f1"]}], "buggy": ["f1"],
             "db_size": 5, "T": 12, "planner": {"max_iterations": 3}, "blame": {}}
        target = d if where is None else d[where][0] if where == "skills" else d[where]
        target[key] = 1
        field = key if where is None else f"{where}[0].{key}" if where == "skills" \
            else f"{where}.{key}"
        path = tmp_path / "s.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: scenario file {str(path)!r}: "
                                           f"unknown field {field!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("content,why", [
        (b"\xff\xfe{}", " is not valid JSON: 'utf-8' codec"),
        (b"[1, 2]", ": expected a JSON object, found list")])
    def test_unreadable_file_names_the_file(self, tmp_path, capsys, content, why):
        from blamebox.cli import main
        path = tmp_path / "s.json"
        path.write_bytes(content)
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}{why}")
        with pytest.raises(StoreError):
            load_scenario(str(path))

    def test_whole_number_fields_load_typed(self, tmp_path):
        d = {"name": "tiny", "functions": ["f1"], "skills": [], "buggy": [], "dt": 1,
             "T": 12, "blame": {"alpha": 1, "window_steps": 4}}
        cfg = ScenarioConfig.from_dict(d)
        assert (type(cfg.dt), type(cfg.T)) == (float, int)
        assert (type(cfg.blame.alpha), type(cfg.blame.window_steps)) == (float, int)

    @pytest.mark.parametrize("where,key", [("blame", "alpha"), ("blame", "var_floor"),
                                           ("planner", "convergence_epsilon")])
    def test_nan_config_names_the_file(self, tmp_path, where, key):
        import json
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "name": "tiny", "functions": ["f1"], "skills": [{"skill": "s", "functions": ["f1"]}],
            "buggy": [], where: {key: float("nan")}}))
        with pytest.raises(ConfigError, match=f"^scenario file {re.escape(repr(str(path)))}: "
                                              f"{key} must"):
            load_scenario(str(path))

    def test_fig3_shapes(self):
        cfg = built_in_scenario("fig3")
        assert len(cfg.functions) == 241
        assert dict(cfg.skills)["a2"] == ("f2", "f4", "f5")
        assert cfg.buggy == ("f2",)
        assert cfg.db_size == 70

    def test_small_scenario_runs_and_reports(self, tmp_path):
        cfg = ScenarioConfig(
            name="tiny",
            functions=("f1", "f2", "f3"),
            skills=(("a1", ("f1", "f2")), ("a2", ("f2", "f3"))),
            buggy=("f2",),
            db_size=10, T=20, seed=3)
        out = tmp_path / "report"
        res = run_scenario(cfg)
        assert res.posterior_of("f2") > 0.5
        write_loop_report(str(out), "simulate", res.trace, res.registry.names,
                          res.config.to_dict())
        for name in ("gains.csv", "belief.csv", "trace.json", "summary.json", "run.json"):
            assert (out / name).exists()

    def test_run_json_records_the_planner_seed_used(self, tmp_path, monkeypatch):
        import json
        import blamebox.harness as harness
        from blamebox.cli import main
        used = []

        def recording_loop(*args):
            used.append(args[3].seed)
            return run_testing_loop(*args)

        monkeypatch.setattr(harness, "run_testing_loop", recording_loop)
        assert built_in_scenario("exoneration").planner.seed == 0
        assert main(["simulate", "--scenario", "exoneration", "--out", str(tmp_path)]) == 0
        run = json.loads((tmp_path / "run.json").read_text())
        assert used == [1] and run["config"]["planner"]["seed"] == 1

    def test_top_level_seed_replaces_the_planner_seed(self, tmp_path):
        # a file's planner.seed is read but never used; the built-in robot
        # scenarios leave it at its default
        import json
        from blamebox.cli import main
        for name in ("exoneration", "localizer-ambiguity"):
            assert built_in_scenario(name).planner == PlannerConfig(max_iterations=25)
        assert PlannerConfig().seed == 0
        base = ScenarioConfig(name="tiny", functions=("f1", "f2", "f3"),
                              skills=(("a1", ("f1", "f2")), ("a2", ("f2", "f3"))),
                              buggy=("f2",), db_size=6, T=12, seed=1).to_dict()
        gains = []
        for planner_seed in (0, 7):
            path, out = tmp_path / f"s{planner_seed}.json", tmp_path / f"out{planner_seed}"
            path.write_text(json.dumps({**base, "planner": {**base["planner"],
                                                            "seed": planner_seed}}))
            assert load_scenario(str(path)).planner.seed == planner_seed
            assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
            run = json.loads((out / "run.json").read_text())
            assert run["config"]["seed"] == run["config"]["planner"]["seed"] == 1
            gains.append((out / "gains.csv").read_bytes())
        assert gains[0] == gains[1]

    def test_same_seed_same_candidates(self):
        cfg = ScenarioConfig(
            name="tiny",
            functions=("f1", "f2", "f3"),
            skills=(("a1", ("f1", "f2")),),
            buggy=("f1",),
            db_size=8, T=16, seed=5)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a.candidates == b.candidates
        assert np.array_equal(a.belief.probs, b.belief.probs)


@pytest.mark.parametrize("config,key", [
    (BlameConfig, "alpha"), (BlameConfig, "window_steps"), (BlameConfig, "epsilon_floor"),
    (BlameConfig, "var_floor"), (BlameConfig, "success_deviation_weight"),
    (PlannerConfig, "samples_per_observation"), (PlannerConfig, "convergence_epsilon"),
    (PlannerConfig, "convergence_patience"), (PlannerConfig, "max_iterations"),
    (MomConfig, "bottleneck"), (MomConfig, "epochs"), (MomConfig, "smoothing_window"),
    (MomConfig, "z_threshold"), (PlannerConfig, "seed"), (MomConfig, "seed")])
def test_nan_fails_config_range_checks(config, key):
    with pytest.raises(ConfigError, match=key):
        config(**{key: math.nan})
