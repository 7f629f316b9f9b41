import json
import os
import pickle
import re
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
    """A database of ``n`` runs, each with a two-channel sensor record."""
    spec = SimSkillSpec(skill=skill, used_functions=("f1", "f2"), T=12, dt=0.1)
    db = build_database(spec, REG, np.random.default_rng(seed), n)
    rng = np.random.default_rng([seed, 1])
    return ExperienceDb(skill, [
        replace(o, sensors=SensorSeries(rng.normal(size=(2, o.fingerprint.T)), dt=0.1))
        for o in db.observations])


def run_block(path, i):
    """(counts.npy as an array, the offset of run ``i``'s block, its rows, its T)."""
    manifest = json.loads((path / "manifest.json").read_text())
    entries = manifest["observations"]
    start = sum(e["rows"] * (e["T"] + 1) for e in entries[:i])
    return np.load(path / "counts.npy"), start, entries[i]["rows"], entries[i]["T"]


def assert_same_runs(got, expected):
    for a, b in zip(got, expected, strict=True):
        assert (a.skill, a.success, a.t_fail) == (b.skill, b.success, b.t_fail)
        assert (a.fingerprint.F, a.fingerprint.dt) == (b.fingerprint.F, b.fingerprint.dt)
        assert np.array_equal(a.fingerprint.rows, b.fingerprint.rows)
        assert np.array_equal(a.fingerprint.values, b.fingerprint.values)
        assert (a.sensors is None) == (b.sensors is None)
        if a.sensors is not None:
            assert a.sensors.dt == b.sensors.dt
            assert np.array_equal(a.sensors.data, b.sensors.data)


def mixed_records(Ts=(12, 9, 15, 12), sensed=(True, False, True, False)):
    """Recorded runs of several lengths, failures with a t_fail among them,
    some with sensors of a different D and some without."""
    spec = SimSkillSpec(skill="s1", used_functions=("f1", "f2"), T=12, dt=0.1)
    world = SimWorld(registry=REG, buggy_functions=frozenset({"f2"}))
    rng = np.random.default_rng(5)
    records = []
    for i, (T, with_sensors) in enumerate(zip(Ts, sensed)):
        run = simulate_execution(replace(spec, T=T), world, rng)
        if with_sensors:
            run = replace(run, sensors=SensorSeries(rng.normal(size=(1 + i, T)), dt=0.1))
        records.append(run)
    return records


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
        for version in (1, 2, 4, 99):
            manifest["version"] = version
            (path / "manifest.json").write_text(json.dumps(manifest))
            with pytest.raises(VersionError, match=r"supported: 3\)"):
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
        counts, start, _, _ = run_block(path, 1)
        counts[start + 3] = -4.5   # the third count of the run's first row
        np.save(path / "counts.npy", counts)
        with pytest.raises(ValidationError, match="counts.npy"):
            load_db(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_db(str(tmp_path / "nowhere"))


class TestVersion3:
    def test_ragged_runs_with_and_without_sensors_round_trip(self, tmp_path):
        records = mixed_records()
        save_recorded(records, str(tmp_path / "rec"), "s1", REG, dt=0.1)
        assert sorted(os.listdir(tmp_path / "rec")) == ["counts.npy", "manifest.json",
                                                       "sensors.npy"]
        entries = json.loads((tmp_path / "rec" / "manifest.json").read_text())["observations"]
        assert [(e["T"], e["D"]) for e in entries] == [(12, 1), (9, None), (15, 3), (12, None)]
        assert_same_runs(load_recorded(str(tmp_path / "rec")), records)

    def test_runs_without_sensors_write_no_sensors_file(self, tmp_path):
        records = mixed_records(sensed=(False,) * 4)
        save_recorded(records, str(tmp_path / "rec"), "s1", REG, dt=0.1)
        assert sorted(os.listdir(tmp_path / "rec")) == ["counts.npy", "manifest.json"]
        loaded = load_recorded(str(tmp_path / "rec"))
        assert all(r.sensors is None for r in loaded)
        assert_same_runs(loaded, records)

    def test_run_without_sensors_or_counts_keeps_a_zero_row(self, tmp_path):
        runs = [Observation(sensors=None, fingerprint=Fingerprint(np.zeros((REG.F, T)), dt=0.1),
                            success=True, skill="s1") for T in (7, 5)]
        save_recorded(runs, str(tmp_path / "rec"), "s1", REG, dt=0.1)
        entries = json.loads((tmp_path / "rec" / "manifest.json").read_text())["observations"]
        assert [(e["T"], e["rows"], e["D"]) for e in entries] == [(7, 1, None), (5, 1, None)]
        assert np.array_equal(np.load(tmp_path / "rec" / "counts.npy"), np.zeros(8 + 6))
        loaded = load_recorded(str(tmp_path / "rec"))
        assert [r.fingerprint.rows.size for r in loaded] == [0, 0]
        assert_same_runs(loaded, runs)

    @pytest.mark.parametrize("T", [12, 10 ** 12])
    def test_entry_without_data_rejected_before_any_read(self, tmp_path, T):
        # a T that no value in a file backs would size arrays past memory later
        save_db(small_db(), str(tmp_path / "db"), REG)
        manifest_path = tmp_path / "db" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["canonical_T"] = T
        manifest["observations"] = [{"success": True, "t_fail": None, "T": T, "rows": 0,
                                     "D": None}]
        manifest_path.write_text(json.dumps(manifest))
        for name in ("counts.npy", "sensors.npy"):
            (tmp_path / "db" / name).unlink()
        with pytest.raises(StoreError, match="manifest.json: an entry's 'rows' must be "
                                             "an integer >= 1, found 0"):
            load_db(str(tmp_path / "db"))

    def test_version_1_db_rejected(self, tmp_path):
        save_db(small_db(), str(tmp_path / "db"), REG)
        manifest = json.loads((tmp_path / "db" / "manifest.json").read_text())
        manifest["version"] = 1
        (tmp_path / "db" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(VersionError, match=r"manifest.json: .*supported: 3\)"):
            load_db(str(tmp_path / "db"))

    def test_version_1_study_rejected(self, tmp_path, capsys):
        save_study(str(tmp_path / "study"), REG, {"s1": small_db(skill="s1")}, dt=0.1,
                   replay={"s1": mixed_records()})
        manifest_path = tmp_path / "study" / "dbs" / "s1" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(VersionError):
            load_study(str(tmp_path / "study"))
        assert main(["localize", "--study", str(tmp_path / "study"),
                     "--out", str(tmp_path / "o")]) == 1
        assert os.path.join("dbs", "s1", "manifest.json") in capsys.readouterr().err

    def test_version_2_study_rejected(self, tmp_path, capsys):
        save_study(str(tmp_path / "study"), REG, {"s1": small_db(skill="s1")}, dt=0.1,
                   replay={"s1": mixed_records()})
        manifest_path = tmp_path / "study" / "dbs" / "s1" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 2   # the CSV layout, no longer read
        manifest_path.write_text(json.dumps(manifest))
        assert main(["localize", "--study", str(tmp_path / "study"),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(supported: 3)" in err
        assert os.path.join("dbs", "s1", "manifest.json") in err

    @pytest.mark.parametrize("dt", [float("nan"), float("inf")])
    def test_study_at_a_non_finite_dt_exits_one(self, tmp_path, capsys, dt):
        save_study(str(tmp_path / "study"), REG, {"s1": small_db(skill="s1")}, dt=0.1,
                   replay={"s1": mixed_records()})
        for rel in ("", os.path.join("dbs", "s1"), os.path.join("replay", "s1")):
            manifest_path = tmp_path / "study" / rel / "manifest.json"
            manifest = json.loads(manifest_path.read_text())
            manifest["dt"] = dt
            manifest_path.write_text(json.dumps(manifest))
        assert main(["localize", "--study", str(tmp_path / "study"),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "manifest.json: its 'dt' must be" in err


def _save_npy(path, arr, archive=False, **kwargs):
    with open(path, "wb") as fh:
        if archive:
            np.savez(fh, a=arr)
        else:
            np.save(fh, arr, **kwargs)


def _truncated(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 9])


def _claim_values(path, n):
    """Rewrite the header to claim ``n`` float64 values, keeping the data."""
    data = np.load(path)
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": (n,)})
        fh.write(data.tobytes())


def _pickled(path):
    path.write_bytes(pickle.dumps(np.load(path)))


def _oversized_header(path):
    """Pad the header past the 10,000 bytes that np.load reads."""
    data = np.load(path)
    header = (f"{{'descr': '<f8', 'fortran_order': False, 'shape': ({data.size},), }}"
              + " " * 20000 + "\n").encode()
    path.write_bytes(b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header
                     + data.tobytes())


# rewrites of a version-3 data file, none of which leaves a readable float64
# array of the manifest's size
MALFORMED_NPY = {
    "truncated": _truncated,
    "truncated-header": lambda path: path.write_bytes(path.read_bytes()[:20]),
    "unbalanced-header": lambda path: path.write_bytes(   # {'descr': (<f8', ...
        path.read_bytes()[:20] + b"(" + path.read_bytes()[21:]),
    "empty-file": lambda path: path.write_bytes(b""),
    "object-dtype": lambda path: _save_npy(path, np.load(path).astype(object),
                                           allow_pickle=True),
    "int-dtype": lambda path: _save_npy(path, np.load(path).astype(np.int64)),
    "two-d": lambda path: _save_npy(path, np.load(path)[None, :]),
    "one-value-short": lambda path: _save_npy(path, np.load(path)[:-1]),
    "one-value-long": lambda path: _save_npy(path, np.append(np.load(path), 1.0)),
    "pickle": _pickled,
    "shape-past-memory": lambda path: _claim_values(path, 2 ** 40),
    "npz-archive": lambda path: _save_npy(path, np.load(path), archive=True),
    "csv-text": lambda path: np.savetxt(path, np.load(path)[None, :], delimiter=","),
    "oversized-header": _oversized_header,
}


class TestMalformedVersion3:
    @pytest.mark.parametrize("name", ["counts.npy", "sensors.npy"])
    @pytest.mark.parametrize("rewrite", list(MALFORMED_NPY.values()), ids=list(MALFORMED_NPY))
    def test_names_the_file_and_loads_no_pickle(self, tmp_path, monkeypatch, name, rewrite):
        save_db(small_db(), str(tmp_path / "db"), REG)
        rewrite(tmp_path / "db" / name)

        def refuse(*args, **kwargs):
            raise AssertionError("a pickle was loaded")

        monkeypatch.setattr(pickle, "load", refuse)
        monkeypatch.setattr(pickle, "loads", refuse)
        with pytest.raises(StoreError, match=name):
            load_db(str(tmp_path / "db"))

    @pytest.mark.parametrize("key,value", [
        ("T", 0), ("T", -1), ("T", 12.0), ("T", True), ("T", "12"), ("rows", -1),
        ("rows", 1.5), ("D", 0), ("D", [2]), ("T", None)])
    def test_bad_entry_size_names_the_manifest(self, tmp_path, key, value):
        save_db(small_db(), str(tmp_path / "db"), REG)
        manifest_path = tmp_path / "db" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["observations"][1][key] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="manifest.json"):
            load_db(str(tmp_path / "db"))

    @pytest.mark.parametrize("key,value", [
        ("success", "false"), ("success", 0), ("t_fail", 7.9), ("t_fail", True),
        ("t_fail", -1), ("t_fail", "3")])
    def test_mistyped_entry_field_names_the_manifest(self, tmp_path, key, value):
        save_recorded(mixed_records(), str(tmp_path / "rec"), "s1", REG, dt=0.1)
        manifest_path = tmp_path / "rec" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["observations"][1].update(success=False, t_fail=3)
        manifest["observations"][1][key] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match=f"manifest.json: an entry's '{key}' must be"):
            load_recorded(str(tmp_path / "rec"))

    @pytest.mark.parametrize("where", ["dbs", "replay"])
    def test_t_fail_on_a_success_names_the_manifest_before_any_read(
            self, tmp_path, monkeypatch, capsys, where):
        study = tmp_path / "study"
        save_study(str(study), REG, {"s1": small_db(skill="s1")}, dt=0.1,
                   replay={"s1": mixed_records()})
        directory = study / where / "s1"
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["observations"][1].update(success=True, t_fail=3)
        manifest_path.write_text(json.dumps(manifest))
        read = []
        real = store._load_matrix
        monkeypatch.setattr(store, "_load_matrix", lambda path: read.append(path) or real(path))
        text = f"{manifest_path}: an entry's 't_fail' must be null on a success, found 3"
        with pytest.raises(StoreError, match=re.escape(text)):
            load_recorded(str(directory))
        assert read == []
        assert main(["localize", "--study", str(study), "--executor", "replay",
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {text}\n"
        assert [p for p in read if os.path.dirname(p) == str(directory)] == []

    @pytest.mark.parametrize("value", ["20", 20.0, -1, None])
    def test_mistyped_canonical_T_names_the_manifest(self, tmp_path, value):
        save_db(small_db(), str(tmp_path / "db"), REG)
        manifest_path = tmp_path / "db" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["canonical_T"] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="manifest.json: its 'canonical_T' must be"):
            load_db(str(tmp_path / "db"))

    @pytest.mark.parametrize("dt", [0, -1, float("nan"), float("inf"), "0.1", True])
    def test_bad_dt_names_the_manifest(self, tmp_path, dt):
        save_db(small_db(), str(tmp_path / "db"), REG)
        manifest_path = tmp_path / "db" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["dt"] = dt
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="manifest.json: its 'dt' must be"):
            load_db(str(tmp_path / "db"))

    @pytest.mark.parametrize("key,value,message", [
        ("skill", 3, "its 'skill' must be a string, found 3"),
        ("skill", ["x"], "its 'skill' must be a string, found ['x']"),
        ("functions", [1, 2], "its 'functions' must be a list of strings, found [1, 2]"),
        ("functions", [], "registry needs at least one function"),
        ("observations", [1], "its 'observations[0]' must be an object, found 1"),
        ("observations", {}, "its 'observations' must be a list, found {}")])
    def test_mistyped_manifest_field_names_the_field(self, tmp_path, capsys, key, value,
                                                     message):
        # load_db without a registry, as train-mom and eval-mom read a database
        save_db(small_db(), str(tmp_path / "db"), REG)
        manifest_path = tmp_path / "db" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[key] = value
        manifest_path.write_text(json.dumps(manifest))
        text = f"{manifest_path}: {message}"
        with pytest.raises(StoreError, match=re.escape(text)):
            load_db(str(tmp_path / "db"))
        assert main(["train-mom", "--db", str(tmp_path / "db"), "--out",
                     str(tmp_path / "m.json"), "--epochs", "1"]) == 1
        assert capsys.readouterr().err == f"error: {text}\n"

    @pytest.mark.parametrize("where,key", [
        ((), "skill"), ((), "functions"), ((), "dt"), ((), "canonical_T"), ((), "observations"),
        (("observations", 1), "success"), (("observations", 1), "t_fail"),
        (("observations", 1), "T"), (("observations", 1), "rows"), (("observations", 1), "D")])
    def test_missing_field_is_named_by_its_key(self, tmp_path, where, key):
        save_db(small_db(), str(tmp_path / "db"), REG)
        manifest_path = tmp_path / "db" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        owner = manifest
        for step in where:
            owner = owner[step]
        del owner[key]
        manifest_path.write_text(json.dumps(manifest))
        whose = "an entry's" if where else "its"
        with pytest.raises(StoreError, match=re.escape(f"{manifest_path}: {whose} {key!r} "
                                                       "is missing")):
            load_db(str(tmp_path / "db"))

    @pytest.mark.parametrize("key,value,named", [
        ("rows", 3, "counts.npy"), ("rows", 10 ** 15, "counts.npy"), ("T", 13, "counts.npy"),
        ("D", 3, "sensors.npy"), ("D", None, "sensors.npy")])
    def test_entry_that_does_not_fit_its_file(self, tmp_path, key, value, named):
        save_db(small_db(), str(tmp_path / "db"), REG)
        manifest_path = tmp_path / "db" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["observations"][1][key] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match=named):
            load_db(str(tmp_path / "db"))

    def test_sensors_file_read_only_for_sensed_runs(self, tmp_path):
        save_db(small_db(), str(tmp_path / "db"), REG)
        (tmp_path / "db" / "sensors.npy").unlink()
        with pytest.raises(FileNotFoundError, match="sensors.npy"):
            load_db(str(tmp_path / "db"))
        save_recorded(mixed_records(sensed=(False,) * 4), str(tmp_path / "rec"), "s1", REG, 0.1)
        (tmp_path / "rec" / "sensors.npy").write_bytes(b"not an array")
        assert len(load_recorded(str(tmp_path / "rec"))) == 4

    def test_non_finite_sensor_names_the_file(self, tmp_path):
        save_db(small_db(), str(tmp_path / "db"), REG)
        sensors = np.load(tmp_path / "db" / "sensors.npy")
        sensors[30] = np.inf
        np.save(tmp_path / "db" / "sensors.npy", sensors)
        with pytest.raises(ValidationError, match="sensors.npy: non-finite sensor value"):
            load_db(str(tmp_path / "db"))


def _cell(r, c, value):
    def rewrite(rows):
        rows[r][c] = value
    return rewrite


# rewrites of the rows of a counts block whose two rows are functions 0 and 1
INDEX_REWRITES = {
    "fractional-index": _cell(0, 0, "0.5"),
    "index-equal-to-F": _cell(1, 0, "3"),
    "negative-index": _cell(0, 0, "-1"),
    "nan-index": _cell(0, 0, "nan"),
    "repeated-index": _cell(1, 0, "0"),
    "descending-index": lambda rows: rows.reverse(),
}


class TestCountsFormat:
    def test_all_zero_counts_saved_empty(self, tmp_path):
        obs = [Observation(sensors=SensorSeries(np.ones((2, 12)), dt=0.1),
                           fingerprint=Fingerprint(np.zeros((REG.F, 12)), dt=0.1),
                           success=True, skill="s1") for _ in range(2)]
        save_db(ExperienceDb.from_observations("s1", obs, REG), str(tmp_path / "db"), REG)
        manifest = json.loads((tmp_path / "db" / "manifest.json").read_text())
        assert [e["rows"] for e in manifest["observations"]] == [0, 0]
        assert np.load(tmp_path / "db" / "counts.npy").size == 0
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
        entries = json.loads((tmp_path / "db" / "manifest.json").read_text())["observations"]
        for a, b, entry in zip(db.observations, loaded.observations, entries, strict=True):
            counts = a.fingerprint.counts
            assert 0 < entry["rows"] == np.count_nonzero(counts.any(axis=1)) <= len(used)
            assert np.array_equal(b.fingerprint.counts, counts)
        assert np.load(tmp_path / "db" / "counts.npy").size == sum(
            e["rows"] * (e["T"] + 1) for e in entries)

    def test_all_zero_row_dropped_on_load(self, tmp_path):
        db = small_db()
        save_db(db, str(tmp_path / "db"), REG)
        counts, start, rows, T = run_block(tmp_path / "db", 1)
        end = start + rows * (T + 1)
        np.save(tmp_path / "db" / "counts.npy",
                np.concatenate([counts[:end], [2.0] + [0.0] * T, counts[end:]]))
        manifest = json.loads((tmp_path / "db" / "manifest.json").read_text())
        manifest["observations"][1]["rows"] += 1
        (tmp_path / "db" / "manifest.json").write_text(json.dumps(manifest))
        fp = load_db(str(tmp_path / "db")).observations[1].fingerprint
        assert list(fp.rows) == [0, 1]
        assert np.array_equal(fp.counts, db.observations[1].fingerprint.counts)

    @staticmethod
    def rewrite_block(path, i, kind):
        """Apply ``INDEX_REWRITES[kind]`` to run ``i``'s counts block under ``path``."""
        counts, start, rows, T = run_block(path, i)
        block = counts[start:start + rows * (T + 1)].reshape(rows, T + 1)
        cells = [[repr(v) for v in row] for row in block.tolist()]
        assert [float(row[0]) for row in cells] == [0.0, 1.0]
        INDEX_REWRITES[kind](cells)
        counts[start:start + rows * (T + 1)] = np.array(cells, dtype=float).ravel()
        np.save(path / "counts.npy", counts)

    @pytest.mark.parametrize("kind", INDEX_REWRITES)
    def test_malformed_index_names_the_counts_file(self, tmp_path, kind):
        save_db(small_db(), str(tmp_path / "db"), REG)
        self.rewrite_block(tmp_path / "db", 1, kind)
        with pytest.raises(StoreError, match="counts.npy: row"):
            load_db(str(tmp_path / "db"))

    @pytest.mark.parametrize("kind", INDEX_REWRITES)
    def test_malformed_rows_name_the_file(self, tmp_path, kind):
        # a recording of runs of several T, with and without sensors: the bad
        # block sits among blocks of other widths, and the error names its file
        save_recorded(mixed_records(), str(tmp_path / "rec"), "s1", REG, 0.1)
        self.rewrite_block(tmp_path / "rec", 1, kind)
        counts_file = re.escape(str(tmp_path / "rec" / "counts.npy"))
        with pytest.raises(StoreError, match=counts_file + ": row"):
            load_recorded(str(tmp_path / "rec"))

    # (row, column, value) written into one run's block, the error class and
    # the text that checking that run alone gives
    DEFECTS = {
        "nan-count": ((1, 3, np.nan), ValidationError,
                      "non-finite count at function 1, timestep 2"),
        "negative-count": ((0, 4, -4.5), ValidationError,
                           "negative count -4.5 at function 0, timestep 3"),
        "index-past-F": ((1, 0, 3.0), StoreError, "row 1 has function index 3; indices "
                         "must be integers in [0, 3), ascending and without repeats"),
        "repeated-index": ((1, 0, 0.0), StoreError, "row 1 has function index 0; indices "
                           "must be integers in [0, 3), ascending and without repeats"),
    }

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("defect", DEFECTS)
    def test_defect_in_one_run_reports_that_runs_error(self, tmp_path, k, defect):
        # runs of several T, checked per batch, report the error of the run alone
        save_recorded(mixed_records(), str(tmp_path / "rec"), "s1", REG, 0.1)
        (row, col, value), error, text = self.DEFECTS[defect]
        counts, start, rows, T = run_block(tmp_path / "rec", k)
        assert rows == 2
        counts[start + row * (T + 1) + col] = value
        np.save(tmp_path / "rec" / "counts.npy", counts)
        with pytest.raises(error) as raised:
            load_recorded(str(tmp_path / "rec"))
        assert type(raised.value) is error
        assert str(raised.value) == f"{tmp_path / 'rec' / 'counts.npy'}: {text}"

    @pytest.mark.parametrize("count_run, index_run", [(0, 2), (2, 0), (1, 1), (3, 1)])
    def test_first_bad_run_wins_over_a_later_defect_of_the_other_kind(
            self, tmp_path, count_run, index_run):
        # one batch of four runs of one T; within a run the index is checked first
        save_recorded(mixed_records(Ts=(12,) * 4), str(tmp_path / "rec"), "s1", REG, 0.1)
        counts, _, _, _ = run_block(tmp_path / "rec", 0)
        for defect, k in (("nan-count", count_run), ("index-past-F", index_run)):
            (row, col, value), _, _ = self.DEFECTS[defect]
            _, start, rows, T = run_block(tmp_path / "rec", k)
            assert rows == 2
            counts[start + row * (T + 1) + col] = value
        np.save(tmp_path / "rec" / "counts.npy", counts)
        _, error, text = self.DEFECTS["index-past-F" if index_run <= count_run else "nan-count"]
        with pytest.raises(error) as raised:
            load_recorded(str(tmp_path / "rec"))
        assert type(raised.value) is error
        assert str(raised.value) == f"{tmp_path / 'rec' / 'counts.npy'}: {text}"

    def test_each_manifest_read_once(self, tmp_path, monkeypatch):
        dbs = {"s1": small_db(seed=0, skill="s1"), "s2": small_db(seed=1, skill="s2")}
        save_study(str(tmp_path / "study"), REG, dbs, dt=0.1)
        read = []
        real = store._read_json
        monkeypatch.setattr(store, "_read_json", lambda path: read.append(path) or real(path))
        load_study(str(tmp_path / "study"))
        assert len(read) == len(set(read)) == 3

    def test_each_data_file_read_once(self, tmp_path, monkeypatch):
        dbs = {"s1": small_db(seed=0, skill="s1"), "s2": small_db(seed=1, skill="s2")}
        save_study(str(tmp_path / "study"), REG, dbs, dt=0.1,
                   replay={"s1": mixed_records(sensed=(False,) * 4)})
        read = []
        real = store._load_matrix
        monkeypatch.setattr(store, "_load_matrix", lambda path: read.append(path) or real(path))
        load_study(str(tmp_path / "study"))
        names = sorted(os.path.relpath(p, tmp_path / "study") for p in read)
        assert names == [os.path.join("dbs", "s1", "counts.npy"),
                         os.path.join("dbs", "s1", "sensors.npy"),
                         os.path.join("dbs", "s2", "counts.npy"),
                         os.path.join("dbs", "s2", "sensors.npy"),
                         os.path.join("replay", "s1", "counts.npy")]

    def test_one_registry_per_study(self, tmp_path, monkeypatch):
        dbs = {"s1": small_db(seed=0, skill="s1"), "s2": small_db(seed=1, skill="s2")}
        save_study(str(tmp_path / "study"), REG, dbs, dt=0.1, replay={"s1": mixed_records()})
        built = []
        real = store.FunctionRegistry
        monkeypatch.setattr(store, "FunctionRegistry", lambda names: built.append(names)
                            or real(names))
        load_study(str(tmp_path / "study"))
        assert len(built) == 1
        load_db(str(tmp_path / "study" / "dbs" / "s1"))
        assert len(built) == 2

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

    def test_skill_listed_twice_rejected(self, tmp_path):
        dbs = {"s1": small_db(seed=0, skill="s1"), "s2": small_db(seed=1, skill="s2")}
        save_study(str(tmp_path / "study"), REG, dbs, dt=0.1)
        manifest_path = tmp_path / "study" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["skills"] = ["s1", "s1", "s2"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match=re.escape(
                f"{manifest_path}: skill 's1' is listed more than once")):
            load_study(str(tmp_path / "study"))


def two_length_study(path):
    """Save a study of two databases of T = 12 runs with sensors and a
    recording of runs of T = 12 and 9, two of them with sensors."""
    dbs = {"s1": small_db(seed=0, skill="s1"), "s2": small_db(seed=1, skill="s2")}
    save_study(str(path), REG, dbs, dt=0.1, replay={"s1": mixed_records(Ts=(12, 9, 9, 12))})


class TestStudyBatch:
    def test_study_loads_the_runs_each_directory_loads_alone(self, tmp_path):
        study_path = tmp_path / "study"
        two_length_study(study_path)
        study = load_study(str(study_path))
        for skill, db in study.dbs.items():
            alone = load_db(str(study_path / "dbs" / skill))
            assert (db.skill, db.canonical_T) == (alone.skill, alone.canonical_T)
            assert_same_runs(db.observations, alone.observations)
        assert_same_runs(study.replay["s1"], load_recorded(str(study_path / "replay" / "s1")))
        runs = [o for db in study.dbs.values() for o in db.observations] + study.replay["s1"]
        assert {o.fingerprint.T for o in runs} == {9, 12}
        assert {o.sensors is None for o in study.replay["s1"]} == {True, False}
        for o in runs:
            arrays = [o.fingerprint.rows, o.fingerprint.values]
            arrays += [] if o.sensors is None else [o.sensors.data]
            assert not any(a.flags.writeable for a in arrays)

    def test_one_batch_per_run_length_and_no_header_evaluated(self, tmp_path, monkeypatch):
        import ast
        two_length_study(tmp_path / "study")
        lengths, batch = [], Fingerprint.batch.__func__

        def counting(cls, rows, values, sizes, F, dt=1.0):
            lengths.append(values.shape[1])
            return batch(cls, rows, values, sizes, F, dt)

        def refuse(*args, **kwargs):
            raise AssertionError("a header was evaluated")

        monkeypatch.setattr(Fingerprint, "batch", classmethod(counting))
        monkeypatch.setattr(ast, "literal_eval", refuse)
        load_study(str(tmp_path / "study"))
        assert sorted(lengths) == [9, 12]

    def test_manifest_fault_reported_before_a_bad_counts_file(self, tmp_path):
        two_length_study(tmp_path / "study")
        first = tmp_path / "study" / "dbs" / "s1" / "counts.npy"
        counts = np.load(first)
        counts[1] = np.nan
        np.save(first, counts)
        manifest_path = tmp_path / "study" / "dbs" / "s2" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["observations"][1]["T"] = 0
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match=re.escape(
                f"{manifest_path}: an entry's 'T' must be an integer >= 1, found 0")):
            load_study(str(tmp_path / "study"))

    @pytest.mark.parametrize("where,k", [(("dbs", "s2"), 2), (("replay", "s1"), 1),
                                         (("replay", "s1"), 3)])
    @pytest.mark.parametrize("defect", ["nan-count", "index-past-F"])
    def test_bad_run_in_a_batch_names_its_file(self, tmp_path, where, k, defect):
        # the T = 12 batch spans all three counts files, the T = 9 one the recording's
        two_length_study(tmp_path / "study")
        directory = tmp_path / "study" / os.path.join(*where)
        (row, col, value), error, text = TestCountsFormat.DEFECTS[defect]
        counts, start, rows, T = run_block(directory, k)
        assert rows == 2
        counts[start + row * (T + 1) + col] = value
        np.save(directory / "counts.npy", counts)
        with pytest.raises(error) as raised:
            load_study(str(tmp_path / "study"))
        assert type(raised.value) is error
        assert str(raised.value) == f"{directory / 'counts.npy'}: {text}"

    @pytest.mark.parametrize("rewrite", list(MALFORMED_NPY.values()), ids=list(MALFORMED_NPY))
    def test_malformed_file_in_a_study_names_it(self, tmp_path, rewrite):
        two_length_study(tmp_path / "study")
        path = tmp_path / "study" / "replay" / "s1" / "counts.npy"
        rewrite(path)
        with pytest.raises(StoreError, match=re.escape(str(path))):
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
        with open(TestMomModelFile.FIXTURE, encoding="utf-8") as fh:
            doc = json.load(fh)
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**doc, "error_stats": None}))
        with pytest.raises(StoreError,
                           match=re.escape(f"{path}: its 'error_stats' must be an object")):
            load_model(str(path))


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
                           np.zeros((1, r.fingerprint.T)), dt=0.5)) for r in self._records()]})
        with pytest.raises(ValidationError, match="run 2 of skill 's1'"):
            records = self._records()
            records[2] = replace(records[2], fingerprint=Fingerprint(
                records[2].fingerprint.counts, dt=0.2))
            save_recorded(records, str(tmp_path / "rec"), "s1", REG, dt=0.1)

    def test_empty_recording_at_another_dt_names_its_manifest(self, tmp_path, capsys):
        study = tmp_path / "study"
        save_study(str(study), REG, {"s1": small_db(skill="s1")}, dt=0.1,
                   replay={"s1": self._records()})
        save_recorded([], str(study / "replay" / "s1"), "s1", REG, dt=0.25)
        replay_manifest = os.path.join("study", "replay", "s1", "manifest.json")
        with pytest.raises(StoreError, match=f"{re.escape(replay_manifest)}: .*dt=0.25"):
            load_study(str(study))
        assert main(["localize", "--study", str(study), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and replay_manifest in err

    def test_empty_recording_loads_as_no_runs(self, tmp_path):
        save_recorded([], str(tmp_path / "rec"), "s1", REG, dt=0.1)
        assert load_recorded(str(tmp_path / "rec")) == []
        study = tmp_path / "study"
        save_study(str(study), REG, {"s1": small_db(skill="s1")}, dt=0.1, replay={"s1": []})
        assert load_study(str(study)).replay == {"s1": []}

    @pytest.mark.parametrize("key,value,want", [
        ("skills", "a1", "a list of strings"), ("skills", [["a1"]], "a list of strings"),
        ("functions", "abc", "a list of strings"), ("dbs", [], "an object"),
        ("replay", [], "an object")])
    def test_mistyped_study_field_names_the_field(self, tmp_path, key, value, want):
        study = tmp_path / "study"
        save_study(str(study), REG, {"s1": small_db(skill="s1")}, dt=0.1,
                   replay={"s1": self._records()})
        manifest_path = study / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[key] = value
        manifest_path.write_text(json.dumps(manifest))
        text = f"{manifest_path}: its {key!r} must be {want}, found {value!r}"
        with pytest.raises(StoreError, match=re.escape(text)):
            load_study(str(study))

    @pytest.mark.parametrize("kind", ["dbs", "replay"])
    def test_entry_of_another_skill_names_its_manifest(self, tmp_path, kind):
        study = tmp_path / "study"
        save_study(str(study), REG, {"s1": small_db(skill="s1")}, dt=0.1,
                   replay={"s1": self._records()})
        manifest_path = study / kind / "s1" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["skill"] = "s2"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match=re.escape(os.path.join(kind, "s1", "manifest.json"))
                           + ": holds skill 's2'"):
            load_study(str(study))


def fpf_file(tmp_path, db=None):
    """The path of a saved fpf model of ``db`` (by default ``small_db()``)
    and the saved document."""
    path = tmp_path / "fpf.json"
    save_model(fit_fpf(small_db() if db is None else db, BlameConfig()), str(path))
    return path, json.loads(path.read_text())


def edited(path, doc, **fields):
    path.write_text(json.dumps({**doc, **fields}))
    return str(path)


class TestFpfModelFile:
    def test_written_on_the_support_at_version_2(self, tmp_path):
        used = SimSkillSpec(skill="s1", used_functions=("f1", "f3"), T=12, dt=0.1)
        db = build_database(used, REG, np.random.default_rng(0), 4)
        path, doc = fpf_file(tmp_path, db)
        assert (doc["version"], doc["support"], doc["F"], doc["T"]) == (2, [0, 2], 3, 12)
        assert np.shape(doc["mean"]) == np.shape(doc["var"]) == (2, 12)
        model, loaded = fit_fpf(db, BlameConfig()), load_model(str(path), expect="fpf")
        for name in ("support", "mean", "var"):
            assert np.array_equal(getattr(loaded, name), getattr(model, name))
        assert (loaded.F, loaded.T, loaded.n_samples, loaded.var_floor) == (
            model.F, model.T, model.n_samples, model.var_floor)

    def test_all_zero_db_round_trips_with_its_T(self, tmp_path):
        runs = [Observation(sensors=None, fingerprint=Fingerprint(np.zeros((REG.F, 9)), dt=0.1),
                            success=True, skill="s1") for _ in range(3)]
        path, doc = fpf_file(tmp_path, ExperienceDb("s1", runs))
        assert (doc["support"], doc["mean"], doc["T"]) == ([], [], 9)
        loaded = load_model(str(path), expect="fpf")
        assert loaded.support.size == 0 and loaded.mean.shape == loaded.var.shape == (0, 9)
        assert (loaded.F, loaded.T, loaded.n_samples) == (3, 9, 3)
        dense = loaded.on(np.arange(3))
        assert np.array_equal(dense.mean, np.zeros((3, 9)))
        assert np.array_equal(dense.var, np.full((3, 9), BlameConfig().var_floor))

    def test_version_1_rejected(self, tmp_path, capsys):
        path = tmp_path / "fpf.json"
        dense = fit_fpf(small_db(), BlameConfig()).on(np.arange(REG.F))
        v1 = {"format": "blamebox-model", "version": 1, "kind": "fpf", "n_samples": 4,
              "var_floor": 1e-6, "mean": dense.mean.tolist(), "var": dense.var.tolist()}
        path.write_text(json.dumps(v1))
        for expect in ("fpf", None):
            with pytest.raises(VersionError, match=r"fpf.json: unsupported version 1 "
                                                   r"\(supported: 2\)"):
                load_model(str(path), expect=expect)
        save_db(small_db(), str(tmp_path / "db"), REG)
        assert main(["eval-mom", "--model", str(path), "--db", str(tmp_path / "db"),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and "(supported: 2)" in err

    def test_mom_file_of_version_1_still_loads_and_saves_the_same_bytes(self, tmp_path):
        # written by the code before fpf files moved to version 2
        fixture = os.path.join(os.path.dirname(__file__), "data", "mom_v1.json")
        bundle = load_model(fixture, expect="mom")
        assert bundle.error_stats is not None and len(bundle.model.loss_history) == 2
        save_model(bundle, str(tmp_path / "again.json"))
        with open(fixture, "rb") as fh:
            assert (tmp_path / "again.json").read_bytes() == fh.read()

    @pytest.mark.parametrize("key,value", [
        ("n_samples", 7.9), ("n_samples", True), ("n_samples", -3), ("n_samples", 0),
        ("n_samples", "7"), ("var_floor", "1e-06"), ("var_floor", 0), ("var_floor", -1.0),
        ("var_floor", float("nan")), ("var_floor", float("inf")), ("var_floor", True),
        ("F", 3.0), ("F", 0), ("F", True), ("T", 12.5), ("T", 0), ("T", "12"),
        pytest.param("var_floor", 10 ** 400, id="var_floor-overflowing-int"),
    ])
    def test_mistyped_field_names_the_file(self, tmp_path, key, value):
        path, doc = fpf_file(tmp_path)
        with pytest.raises(StoreError, match=f"fpf.json: its '{key}' must be"):
            load_model(edited(path, doc, **{key: value}))

    @pytest.mark.parametrize("support", [[1, 0], [0, 0], [0, 3], [-1, 0], [0, 0.5], "01",
                                         [[0, 1]], [0, 1, 2], [0, True], [False, 1],
                                         [0, 1.0], [0, "1"]],
                             ids=["unsorted", "repeated", "past-F", "negative", "fractional",
                                  "string", "nested", "longer-than-mean", "bool", "false",
                                  "integral-float", "string-index"])
    def test_bad_support_names_the_file(self, tmp_path, support):
        path, doc = fpf_file(tmp_path)
        assert doc["support"] == [0, 1]
        with pytest.raises(StoreError, match="fpf.json: "):
            load_model(edited(path, doc, support=support))

    @pytest.mark.parametrize("key", ["mean", "var"])
    @pytest.mark.parametrize("cell", [True, False, "1.5", None, {}],
                             ids=["true", "false", "string", "null", "object"])
    def test_cell_that_is_not_a_number_names_the_file(self, tmp_path, key, cell):
        path, doc = fpf_file(tmp_path)
        doc[key][1][3] = cell
        with pytest.raises(StoreError, match=f"fpf.json: its '{key}' must hold JSON numbers "
                                             f"only, found {re.escape(repr(cell))}"):
            load_model(edited(path, doc))

    @pytest.mark.parametrize("key", ["mean", "var"])
    @pytest.mark.parametrize("change", ["drop-row", "drop-column", "flatten", "ragged", "empty"])
    def test_misshapen_matrix_names_the_file(self, tmp_path, key, change):
        path, doc = fpf_file(tmp_path)
        rows = doc[key]
        value = {"drop-row": rows[:1], "drop-column": [r[:-1] for r in rows],
                 "flatten": [x for r in rows for x in r], "ragged": [rows[0], rows[1][:-1]],
                 "empty": []}[change]
        with pytest.raises(StoreError, match="fpf.json: "):
            load_model(edited(path, doc, **{key: value}))


    @pytest.mark.parametrize("key", ["mean", "var"])
    @pytest.mark.parametrize("cell", [10 ** 400, [1.0]], ids=["overflowing-int", "list"])
    def test_cell_that_is_no_float_names_the_field(self, tmp_path, key, cell):
        path, doc = fpf_file(tmp_path)
        doc[key][1][3] = cell
        want = ("must hold numbers within float range" if type(cell) is int
                else "must be rectangular, found a list beside a number at depth 2")
        with pytest.raises(StoreError, match=f"fpf.json: its '{key}' {want}"):
            load_model(edited(path, doc))

    @pytest.mark.parametrize("key", ["mean", "var"])
    def test_ragged_matrix_names_the_field(self, tmp_path, key):
        path, doc = fpf_file(tmp_path)
        rows = doc[key]
        with pytest.raises(StoreError, match=f"fpf.json: its '{key}' must be rectangular, "
                                             "found lists of lengths"):
            load_model(edited(path, doc, **{key: [rows[0], rows[1][:-1]]}))


class TestMomModelFile:
    FIXTURE = os.path.join(os.path.dirname(__file__), "data", "mom_v1.json")

    @pytest.mark.parametrize("where", [("params", "enc_b"), ("params", "enc_w"),
                                       ("params", "cand_u"), ("norm_lo",), ("norm_hi",),
                                       ("error_stats", "mu"), ("error_stats", "sigma"),
                                       ("loss_history",)], ids="-".join)
    @pytest.mark.parametrize("cell", ["0.5", True, False, None],
                             ids=["string", "true", "false", "null"])
    def test_cell_that_is_not_a_number_names_the_file(self, tmp_path, capsys, where, cell):
        with open(self.FIXTURE, encoding="utf-8") as fh:
            doc = json.load(fh)
        cells = doc
        for key in where:
            cells = cells[key]
        while isinstance(cells[0], list):
            cells = cells[0]
        cells[0] = cell
        self._rejected_naming_the_file(tmp_path, capsys, doc,
                                       f"mom.json: its '{where[-1]}' must hold JSON numbers "
                                       f"only, found {re.escape(repr(cell))}")

    def _rejected_naming_the_file(self, tmp_path, capsys, doc, match="mom.json: "):
        """``doc`` written as a mom file fails to load with a StoreError
        matching ``match``, and eval-mom on it exits 1 naming the file."""
        path = tmp_path / "mom.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(StoreError, match=match):
            load_model(str(path), expect="mom")
        save_db(small_db(), str(tmp_path / "db"), REG)
        assert main(["eval-mom", "--model", str(path), "--db", str(tmp_path / "db"),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("where", [
        ("params", name) for name in ("enc_w", "enc_b", "upd_w", "upd_u", "upd_b", "rst_w",
                                      "rst_u", "rst_b", "cand_w", "cand_u", "cand_b")
    ] + [("norm_lo",), ("norm_hi",)], ids="-".join)
    @pytest.mark.parametrize("change", ["cut-short", "nested"])
    def test_array_of_the_wrong_shape_names_the_file(self, tmp_path, capsys, where, change):
        with open(self.FIXTURE, encoding="utf-8") as fh:
            doc = json.load(fh)
        owner = doc
        for key in where[:-1]:
            owner = owner[key]
        value = owner[where[-1]]
        if change == "nested":
            owner[where[-1]] = [value]
        elif isinstance(value[0], list):
            owner[where[-1]] = [row[:-1] for row in value]
        else:
            owner[where[-1]] = value[:-1]
        # a column cut off enc_w changes D, which the gates then no longer fit
        named = "gate_w" if (where[-1], change) == ("enc_w", "cut-short") else where[-1]
        self._rejected_naming_the_file(tmp_path, capsys, doc, f"mom.json: .*{named}")

    @pytest.mark.parametrize("key", ["mu", "sigma"])
    @pytest.mark.parametrize("cell", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_error_stats_name_the_file(self, tmp_path, capsys, key, cell):
        # json reads NaN and Infinity; with either, no failure would ever be detected
        with open(self.FIXTURE, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["error_stats"][key][0] = cell
        self._rejected_naming_the_file(tmp_path, capsys, doc, "mom.json: .*must be finite")

    @pytest.mark.parametrize("cell", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_loss_history_names_the_file(self, tmp_path, capsys, cell):
        # json reads NaN and Infinity; saving such a model again would write
        # JSON that a strict parser rejects
        with open(self.FIXTURE, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["loss_history"][-1] = cell
        self._rejected_naming_the_file(tmp_path, capsys, doc,
                                       "mom.json: .*non-finite values in loss_history")

    def test_model_with_non_finite_loss_history_cannot_be_built(self, tmp_path):
        model = load_model(self.FIXTURE, expect="mom").model
        with pytest.raises(ValidationError, match="loss_history"):
            replace(model, loss_history=model.loss_history + (float("nan"),))
