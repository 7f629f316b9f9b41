import json
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from blamebox import (BlameConfig, ExecutorError, ExperienceDb, Fingerprint, FunctionRegistry,
                      KindError, MomBundle, MomConfig, Observation, ReplayExecutor, SensorSeries,
                      StoreError, ValidationError, VersionError, fit_error_stats,
                      fit_fpf, init_model, load_db, load_model, load_recorded,
                      load_study, reconstruct, save_db, save_model, save_recorded,
                      save_study, train)
from blamebox import core, store
from blamebox.cli import main
from blamebox.harness import SimSkillSpec, SimWorld, build_database, simulate_execution

REG = FunctionRegistry(["f1", "f2", "f3"])


def small_db(seed=0, n=4, skill="s1"):
    spec = SimSkillSpec(skill=skill, used_functions=("f1", "f2"), T=12, dt=0.1)
    return build_database(spec, REG, np.random.default_rng(seed), n)


def save_version_1(path, observations):
    """Rewrite the database saved at ``path`` in the dense version-1 layout,
    each counts file holding the full F x T matrix of its observation."""
    manifest = json.loads((path / "manifest.json").read_text())
    for entry, obs in zip(manifest["observations"], observations):
        np.savetxt(path / entry["counts"], obs.fingerprint.counts, delimiter=",", fmt="%.17g")
    manifest["version"] = 1
    (path / "manifest.json").write_text(json.dumps(manifest))


class TestDbRoundTrip:
    def test_value_exact(self, tmp_path):
        db = small_db()
        path = tmp_path / "db"
        save_db(db, str(path), REG)
        loaded = load_db(str(path))
        assert loaded.skill == db.skill
        assert loaded.canonical_T == db.canonical_T
        assert len(loaded) == len(db)
        for a, b in zip(db.observations, loaded.observations):
            assert np.array_equal(a.fingerprint.counts, b.fingerprint.counts)
            assert np.array_equal(a.sensors.data, b.sensors.data)

    def test_unknown_version(self, tmp_path):
        db = small_db()
        path = tmp_path / "db"
        save_db(db, str(path), REG)
        manifest = json.loads((path / "manifest.json").read_text())
        for version in (3, 99):
            manifest["version"] = version
            (path / "manifest.json").write_text(json.dumps(manifest))
            with pytest.raises(VersionError):
                load_db(str(path))

    def test_wrong_format_field(self, tmp_path):
        db = small_db()
        path = tmp_path / "db"
        save_db(db, str(path), REG)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format"] = "something-else"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError):
            load_db(str(path))

    def test_tampered_count_names_file(self, tmp_path):
        db = small_db()
        path = tmp_path / "db"
        save_db(db, str(path), REG)
        target = path / "obs_0001.counts.csv"
        rows = target.read_text().splitlines()
        cells = rows[0].split(",")
        cells[3] = "-4.5"
        rows[0] = ",".join(cells)
        target.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match="obs_0001.counts.csv"):
            load_db(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_db(str(tmp_path / "nowhere"))


def _cell(r, c, value):
    def rewrite(rows):
        rows[r][c] = value
    return rewrite


def _truncate(width):
    def rewrite(rows):
        for row in rows:
            del row[width:]
    return rewrite


# rewrites of a version-2 counts file whose two rows are functions 0 and 1
MALFORMED_ROWS = {
    "fractional-index": _cell(0, 0, "0.5"),
    "index-equal-to-F": _cell(1, 0, "3"),
    "negative-index": _cell(0, 0, "-1"),
    "nan-index": _cell(0, 0, "nan"),
    "repeated-index": _cell(1, 0, "0"),
    "descending-index": lambda rows: rows.reverse(),
    "one-row-short": lambda rows: rows[0].pop(),
    "one-row-long": lambda rows: rows[1].append("1"),
    "every-row-short": _truncate(-1),
    "every-row-long": lambda rows: [row.append("1") for row in rows],
    "index-and-one-count": _truncate(2),
}


class TestCountsFormat:
    def test_version_1_db_loads_equal(self, tmp_path):
        db = small_db()
        save_db(db, str(tmp_path / "v2"), REG)
        save_db(db, str(tmp_path / "v1"), REG)
        save_version_1(tmp_path / "v1", db.observations)
        assert len((tmp_path / "v1" / "obs_0000.counts.csv").read_text().splitlines()) == REG.F
        v1, v2 = load_db(str(tmp_path / "v1")), load_db(str(tmp_path / "v2"))
        assert v1.canonical_T == v2.canonical_T
        for a, b in zip(v1.observations, v2.observations, strict=True):
            assert np.array_equal(a.fingerprint.counts, b.fingerprint.counts)
            assert np.array_equal(a.sensors.data, b.sensors.data)

    def test_version_1_study_loads_equal(self, tmp_path):
        dbs = {"s1": small_db(seed=0, skill="s1"), "s2": small_db(seed=1, skill="s2")}
        spec = SimSkillSpec(skill="s1", used_functions=("f1", "f2"), T=12, dt=0.1)
        world = SimWorld(registry=REG, buggy_functions=frozenset({"f2"}))
        rng = np.random.default_rng(1)
        replay = {"s1": [simulate_execution(spec, world, rng) for _ in range(3)]}
        for name in ("v1", "v2"):
            save_study(str(tmp_path / name), REG, dbs, dt=0.1, replay=replay)
        for skill, db in dbs.items():
            save_version_1(tmp_path / "v1" / "dbs" / skill, db.observations)
        save_version_1(tmp_path / "v1" / "replay" / "s1", replay["s1"])
        v1, v2 = load_study(str(tmp_path / "v1")), load_study(str(tmp_path / "v2"))
        for skill in dbs:
            for a, b in zip(v1.dbs[skill].observations, v2.dbs[skill].observations,
                            strict=True):
                assert np.array_equal(a.fingerprint.counts, b.fingerprint.counts)
        for a, b in zip(v1.replay["s1"], v2.replay["s1"], strict=True):
            assert (a.success, a.t_fail) == (b.success, b.t_fail)
            assert np.array_equal(a.fingerprint.counts, b.fingerprint.counts)

    def test_all_zero_counts_saved_empty(self, tmp_path):
        obs = [Observation(sensors=SensorSeries(np.ones((2, 12)), dt=0.1),
                           fingerprint=Fingerprint(np.zeros((REG.F, 12)), dt=0.1),
                           success=True, skill="s1") for _ in range(2)]
        save_db(ExperienceDb.from_observations("s1", obs, REG), str(tmp_path / "db"), REG)
        assert os.path.getsize(tmp_path / "db" / "obs_0000.counts.csv") == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_db(str(tmp_path / "db"))
        assert np.array_equal(loaded.observations[0].fingerprint.counts, np.zeros((REG.F, 12)))

    def test_one_line_per_active_function(self, tmp_path):
        wide = FunctionRegistry([f"fn{i:04d}" for i in range(2000)])
        used = ("fn0007", "fn0123", "fn0500", "fn1042", "fn1500", "fn1999")
        spec = SimSkillSpec(skill="s1", used_functions=used, T=20, dt=0.1)
        db = build_database(spec, wide, np.random.default_rng(3), 3)
        save_db(db, str(tmp_path / "db"), wide)
        loaded = load_db(str(tmp_path / "db"))
        for i, (a, b) in enumerate(zip(db.observations, loaded.observations, strict=True)):
            counts = a.fingerprint.counts
            lines = (tmp_path / "db" / f"obs_{i:04d}.counts.csv").read_text().splitlines()
            assert 0 < len(lines) == np.count_nonzero(counts.any(axis=1)) <= len(used)
            assert np.array_equal(b.fingerprint.counts, counts)

    def test_all_zero_row_dropped_on_load(self, tmp_path):
        db = small_db()
        save_db(db, str(tmp_path / "db"), REG)
        target = tmp_path / "db" / "obs_0001.counts.csv"
        target.write_text(target.read_text() + "2" + ",0" * db.canonical_T + "\n")
        fp = load_db(str(tmp_path / "db")).observations[1].fingerprint
        assert list(fp.rows) == [0, 1]
        assert np.array_equal(fp.counts, db.observations[1].fingerprint.counts)

    @pytest.mark.parametrize("rewrite", list(MALFORMED_ROWS.values()), ids=list(MALFORMED_ROWS))
    def test_malformed_rows_name_the_file(self, tmp_path, rewrite):
        db = small_db()
        save_db(db, str(tmp_path / "db"), REG)
        target = tmp_path / "db" / "obs_0001.counts.csv"
        rows = [line.split(",") for line in target.read_text().splitlines()]
        assert [row[0] for row in rows] == ["0", "1"]
        rewrite(rows)
        target.write_text("".join(",".join(row) + "\n" for row in rows))
        with pytest.raises(StoreError, match="obs_0001.counts.csv"):
            load_db(str(tmp_path / "db"))

    def test_each_manifest_read_once(self, tmp_path, monkeypatch):
        dbs = {"s1": small_db(seed=0, skill="s1"), "s2": small_db(seed=1, skill="s2")}
        save_study(str(tmp_path / "study"), REG, dbs, dt=0.1)
        read = []
        real = store._read_json
        monkeypatch.setattr(store, "_read_json", lambda path: read.append(path) or real(path))
        load_study(str(tmp_path / "study"))
        assert len(read) == len(set(read)) == 3

    def test_each_record_validated_once(self, tmp_path, monkeypatch):
        save_db(small_db(n=5), str(tmp_path / "db"), REG)
        calls = []
        real = core.validate_observation

        def counting(obs, registry):
            calls.append(obs)
            return real(obs, registry)

        for module in (core, store):
            monkeypatch.setattr(module, "validate_observation", counting)
        assert len(load_db(str(tmp_path / "db"))) == 5
        assert len(calls) == 5

    def test_db_of_another_registry_rejected(self, tmp_path):
        dbs = {"s1": small_db(seed=0, skill="s1")}
        save_study(str(tmp_path / "study"), REG, dbs, dt=0.1)
        manifest_path = tmp_path / "study" / "dbs" / "s1" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["functions"] = ["f1", "f2", "g3"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match=os.path.join("dbs", "s1", "manifest.json")):
            load_study(str(tmp_path / "study"))


class TestModelRoundTrip:
    def test_fpf_exact(self, tmp_path):
        model = fit_fpf(small_db(), BlameConfig())
        path = tmp_path / "model.json"
        save_model(model, str(path))
        loaded = load_model(str(path), expect="fpf")
        assert np.array_equal(loaded.mean, model.mean)
        assert np.array_equal(loaded.var, model.var)
        assert loaded.n_samples == model.n_samples

    def test_mom_reconstruction_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        seqs = [SensorSeries(rng.uniform(0, 1, (3, 10)), dt=0.1) for _ in range(3)]
        model = train(seqs, MomConfig(bottleneck=2, epochs=5, seed=1))
        stats = fit_error_stats(model, seqs)
        path = tmp_path / "mom.json"
        save_model(MomBundle(model=model, error_stats=stats), str(path))
        loaded = load_model(str(path), expect="mom")
        probe = SensorSeries(rng.uniform(0, 1, (3, 10)), dt=0.1)
        assert np.array_equal(reconstruct(model, probe).data,
                              reconstruct(loaded.model, probe).data)
        assert np.array_equal(loaded.error_stats.mu, stats.mu)
        assert np.array_equal(loaded.error_stats.sigma, stats.sigma)
        assert loaded.model.loss_history == model.loss_history

    def test_kind_mismatch(self, tmp_path):
        model = fit_fpf(small_db(), BlameConfig())
        path = tmp_path / "model.json"
        save_model(model, str(path))
        with pytest.raises(KindError):
            load_model(str(path), expect="mom")

    def test_mom_without_stats(self, tmp_path):
        model = init_model(3, MomConfig(bottleneck=2), seed=0)
        path = tmp_path / "m.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.error_stats is None


class TestRecordedAndStudy:
    def _records(self, skill="s1", n=3):
        spec = SimSkillSpec(skill=skill, used_functions=("f1", "f2"), T=12, dt=0.1)
        world = SimWorld(registry=REG, buggy_functions=frozenset({"f2"}))
        rng = np.random.default_rng(1)
        return [simulate_execution(spec, world, rng) for _ in range(n)]

    def test_recorded_round_trip(self, tmp_path):
        records = self._records()
        save_recorded(records, str(tmp_path / "rec"), "s1", REG, dt=0.1)
        loaded = load_recorded(str(tmp_path / "rec"))
        assert [r.success for r in loaded] == [r.success for r in records]
        assert [r.t_fail for r in loaded] == [r.t_fail for r in records]
        assert np.array_equal(loaded[0].fingerprint.counts, records[0].fingerprint.counts)

    def test_replay_executor_order_and_exhaustion(self):
        records = self._records(n=2)
        ex = ReplayExecutor({"s1": records})
        assert ex.execute("s1") is records[0]
        assert ex.execute("s1") is records[1]
        with pytest.raises(ExecutorError):
            ex.execute("s1")
        with pytest.raises(ExecutorError):
            ex.execute("ghost")

    def test_study_round_trip(self, tmp_path):
        dbs = {"s1": small_db(seed=0, skill="s1"), "s2": small_db(seed=1, skill="s2")}
        replay = {"s1": self._records()}
        save_study(str(tmp_path / "study"), REG, dbs, dt=0.1, replay=replay)
        study = load_study(str(tmp_path / "study"))
        assert tuple(study.dbs) == ("s1", "s2")
        assert study.registry.names == REG.names
        assert study.dt == 0.1
        assert len(study.dbs["s2"]) == 4
        assert len(study.replay["s1"]) == 3

    def test_replay_of_another_registry_rejected(self, tmp_path, capsys):
        dbs = {"s1": small_db(seed=0, skill="s1")}
        study = tmp_path / "study"
        save_study(str(study), REG, dbs, dt=0.1, replay={"s1": self._records()})
        manifest_path = study / "replay" / "s1" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["functions"] = ["g1", "g2", "g3"]  # as many functions, other names
        manifest_path.write_text(json.dumps(manifest))
        replay_manifest = os.path.join("replay", "s1", "manifest.json")
        with pytest.raises(StoreError, match=replay_manifest):
            load_study(str(study))
        assert main(["localize", "--study", str(study), "--out", str(tmp_path / "o")]) == 1
        assert replay_manifest in capsys.readouterr().err

    def test_study_saved_at_another_dt_rejected(self, tmp_path):
        # the runs are sampled at 0.1 s; written as 0.5 s, they would reload
        # with a blame window a fifth of the right length
        dbs = {"s1": small_db(seed=0, skill="s1")}
        with pytest.raises(ValidationError, match="run 0 of skill 's1'.*dt=0.5"):
            save_study(str(tmp_path / "a"), REG, dbs, dt=0.5)
        with pytest.raises(ValidationError, match="run 0 of skill 's1'"):
            save_study(str(tmp_path / "b"), REG, {"s1": small_db(seed=0, skill="s1")},
                       dt=0.1, replay={"s1": [replace(r, sensors=SensorSeries(
                           r.sensors.data, dt=0.5)) for r in self._records()]})
        with pytest.raises(ValidationError, match="run 2 of skill 's1'"):
            records = self._records()
            records[2] = replace(records[2], fingerprint=Fingerprint(
                records[2].fingerprint.counts, dt=0.2))
            save_recorded(records, str(tmp_path / "rec"), "s1", REG, dt=0.1)
