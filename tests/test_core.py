import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blamebox import (ExperienceDb, Fingerprint, FunctionRegistry, Observation,
                      SensorSeries, ValidationError, canonicalize_length,
                      validate_observation)


def make_obs(F=3, T=4, success=True, skill="s", counts=None, sensors=None, t_fail=None):
    counts = np.ones((F, T)) if counts is None else counts
    sensors = np.zeros((2, T)) if sensors is None else sensors
    return Observation(sensors=SensorSeries(sensors, dt=0.1),
                       fingerprint=Fingerprint(counts, dt=0.1),
                       success=success, skill=skill, t_fail=t_fail)


class TestRegistry:
    def test_basic(self):
        reg = FunctionRegistry(["a", "b", "c"])
        assert reg.F == 3
        assert reg.index("b") == 1
        assert "c" in reg

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            FunctionRegistry(["a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            FunctionRegistry([])

    def test_unknown_lookup(self):
        with pytest.raises(ValidationError):
            FunctionRegistry(["a"]).index("zz")


class TestCanonicalize:
    def test_identity(self):
        fp = Fingerprint(np.arange(12.0).reshape(3, 4))
        assert canonicalize_length(fp, 4) is fp

    def test_pad_with_last_column(self):
        fp = Fingerprint(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = canonicalize_length(fp, 4)
        expected = np.array([[1, 2, 2, 2], [3, 4, 4, 4]], dtype=float)
        assert np.array_equal(out.counts, expected)

    def test_truncate(self):
        s = SensorSeries(np.array([[1.0, 2.0, 3.0]]))
        out = canonicalize_length(s, 2)
        assert np.array_equal(out.data, [[1.0, 2.0]])

    def test_bad_target(self):
        with pytest.raises(ValidationError):
            canonicalize_length(Fingerprint(np.ones((1, 2))), 0)

    @given(T=st.integers(1, 12), target=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, T, target):
        fp = Fingerprint(np.random.default_rng(T * 13 + target).uniform(0, 2, (2, T)))
        once = canonicalize_length(fp, target)
        twice = canonicalize_length(once, target)
        assert once.T == target
        assert np.array_equal(once.counts, twice.counts)


class TestValidateObservation:
    def test_well_formed_passthrough(self):
        reg = FunctionRegistry(["a", "b", "c"])
        obs = make_obs()
        assert validate_observation(obs, reg) is obs

    def test_negative_count_cites_cell(self):
        reg = FunctionRegistry(["a", "b", "c"])
        counts = np.ones((3, 6))
        counts[2, 5] = -1.0
        with pytest.raises(ValidationError, match=r"function 2, timestep 5"):
            validate_observation(make_obs(T=6, counts=counts,
                                          sensors=np.zeros((2, 6))), reg)

    def test_nan_cites_cell(self):
        reg = FunctionRegistry(["a", "b", "c"])
        sensors = np.zeros((2, 4))
        sensors[1, 2] = np.nan
        with pytest.raises(ValidationError, match=r"channel 1, timestep 2"):
            validate_observation(make_obs(sensors=sensors), reg)

    def test_nonfinite_count_cites_cell(self):
        reg = FunctionRegistry(["a", "b", "c"])
        counts = np.ones((3, 4))
        counts[1, 3] = np.inf
        with pytest.raises(ValidationError, match=r"non-finite count at function 1, timestep 3"):
            validate_observation(make_obs(counts=counts), reg)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, -1.0])
    def test_first_bad_count_in_row_major_order(self, bad):
        reg = FunctionRegistry(["a", "b", "c"])
        counts = np.ones((3, 4))
        counts[2, 0] = counts[1, 2] = bad
        with pytest.raises(ValidationError, match=r"function 1, timestep 2$"):
            validate_observation(make_obs(counts=counts), reg)

    def test_first_bad_sensor_in_row_major_order(self):
        reg = FunctionRegistry(["a", "b", "c"])
        sensors = np.zeros((2, 4))
        sensors[1, 0] = sensors[0, 3] = np.nan
        with pytest.raises(ValidationError, match=r"channel 0, timestep 3"):
            validate_observation(make_obs(sensors=sensors), reg)

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf])
    def test_sampling_interval_must_be_positive_and_finite(self, dt):
        for build in (lambda: SensorSeries(np.zeros((2, 4)), dt=dt),
                      lambda: Fingerprint(np.ones((3, 4)), dt=dt),
                      lambda: Fingerprint.from_rows([0], np.ones((1, 4)), F=3, dt=dt)):
            with pytest.raises(ValidationError, match="positive and finite"):
                build()

    def test_row_count_mismatch(self):
        reg = FunctionRegistry(["a", "b", "c"])
        with pytest.raises(ValidationError, match="4 function rows"):
            validate_observation(make_obs(F=4), reg)

    def test_length_mismatch(self):
        reg = FunctionRegistry(["a", "b", "c"])
        with pytest.raises(ValidationError, match="T=5"):
            validate_observation(make_obs(sensors=np.zeros((2, 5))), reg)

    @pytest.mark.parametrize("bad,match", [
        (-1.0, r"negative count -1.0 at function 2, timestep 1$"),
        (np.nan, r"non-finite count at function 2, timestep 1$"),
        (np.inf, r"non-finite count at function 2, timestep 1$"),
        ({"success": True, "t_fail": 3}, r"successful run has no failure time, got t_fail=3$"),
        ({"success": False, "t_fail": -1}, r"failure time t_fail=-1 is negative$"),
    ])
    def test_records_check_themselves(self, bad, match):
        # no registry involved: the fingerprint rejects a bad count cell, and
        # the observation a bad failure time, when built
        counts = np.ones((3, 4))
        with pytest.raises(ValidationError, match=match):
            if isinstance(bad, dict):
                make_obs(**bad)
            else:
                counts[2, 1] = bad
                Fingerprint(counts)

    def test_random_mutations_are_caught(self):
        # any single bad cell must be rejected, anywhere in either matrix
        reg = FunctionRegistry(["a", "b", "c"])
        rng = np.random.default_rng(7)
        for _ in range(200):
            counts = rng.uniform(0, 3, (3, 5))
            sensors = rng.normal(size=(2, 5))
            if rng.integers(2):
                counts[rng.integers(3), rng.integers(5)] = rng.choice(
                    [np.nan, np.inf, -np.inf, -0.5])
            else:
                sensors[rng.integers(2), rng.integers(5)] = rng.choice(
                    [np.nan, np.inf, -np.inf])
            with pytest.raises(ValidationError):
                validate_observation(make_obs(counts=counts, sensors=sensors), reg)


class TestExperienceDb:
    def test_median_canonical_length(self):
        reg = FunctionRegistry(["a", "b"])
        obs = [make_obs(F=2, T=t, sensors=np.zeros((1, t))) for t in (4, 8, 6)]
        db = ExperienceDb.from_observations("s", obs, reg)
        assert db.canonical_T == 6
        assert all(o.fingerprint.T == 6 and o.sensors.T == 6 for o in db.observations)

    def test_runs_already_canonical_are_kept_as_given(self):
        # only the runs whose length differs are rebuilt
        runs = [make_obs(F=2, T=t) for t in (6, 4, 6, 8)]
        runs[2] = Observation(sensors=None, fingerprint=runs[2].fingerprint,
                              success=True, skill="s")   # a fingerprint-only run
        db = ExperienceDb("s", runs)
        assert db.canonical_T == 6
        kept = [got is given for got, given in zip(db.observations, runs)]
        assert kept == [True, False, True, False]

    def test_rejects_failures(self):
        reg = FunctionRegistry(["a", "b"])
        with pytest.raises(ValidationError, match="successful"):
            ExperienceDb.from_observations(
                "s", [make_obs(F=2, success=False, sensors=np.zeros((1, 4)))], reg)

    def test_rejects_foreign_skill(self):
        reg = FunctionRegistry(["a", "b"])
        with pytest.raises(ValidationError):
            ExperienceDb.from_observations(
                "s", [make_obs(F=2, skill="other", sensors=np.zeros((1, 4)))], reg)

    @pytest.mark.parametrize("runs,match", [
        ([], "at least one observation"),
        ([make_obs(success=False)], "successful"),
        ([make_obs(), make_obs(skill="other")], "'other' added to db of 's'"),
        ([make_obs(), make_obs(F=4)], "4 function rows added to a db whose first run has 3"),
    ], ids=["no-runs", "failed-run", "foreign-skill", "other-F"])
    def test_constructor_checks_its_runs(self, runs, match):
        with pytest.raises(ValidationError, match=match):
            ExperienceDb("s", runs)

    def test_arrays_are_frozen(self):
        obs = make_obs()
        with pytest.raises(ValueError):
            obs.fingerprint.counts[0, 0] = 5.0

    def test_support_and_row_stack(self):
        reg = FunctionRegistry(["a", "b", "c", "d", "e"])
        counts = [np.zeros((5, 4)) for _ in range(3)]
        counts[0][1, 2] = 3.0      # b: one cell of one run
        counts[2][3] = 0.5         # d: a whole row of another run
        db = ExperienceDb.from_observations(
            "s", [make_obs(F=5, counts=c) for c in counts], reg)
        support = db.support
        assert support.dtype == np.intp and list(support) == [1, 3]
        full = db.counts_stack(np.arange(5))
        assert full.shape == (3, 5, 4)
        assert np.array_equal(full, np.stack(counts))
        sub = db.counts_stack(support)
        assert sub.shape == (3, 2, 4)
        assert np.array_equal(sub, full[:, [1, 3]])
        assert db.counts_stack(np.empty(0, dtype=np.intp)).shape == (3, 0, 4)

    def test_support_of_silent_db_is_empty(self):
        reg = FunctionRegistry(["a", "b"])
        db = ExperienceDb.from_observations(
            "s", [make_obs(F=2, counts=np.zeros((2, 4)), sensors=np.zeros((1, 4)))], reg)
        assert db.support.size == 0


@st.composite
def sparse_counts(draw):
    """A dense F x T count matrix in which some rows are all zero."""
    F, T = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.uniform(0, 3, (F, T)) * (rng.uniform(size=(F, T)) < 0.5)
    counts[rng.uniform(size=F) < 0.5] = 0.0
    return counts


class TestRowSparse:
    @given(counts=sparse_counts())
    @settings(max_examples=60, deadline=None)
    def test_dense_round_trip(self, counts):
        fp = Fingerprint(counts, dt=0.1)
        rows = np.flatnonzero(counts.any(axis=1))
        assert fp.rows.dtype == np.intp and np.array_equal(fp.rows, rows)
        assert np.array_equal(fp.values, counts[rows])
        assert (fp.F, fp.T) == counts.shape
        assert np.array_equal(fp.counts, counts)
        again = Fingerprint.from_rows(fp.rows, fp.values, fp.F, dt=0.1)
        assert np.array_equal(again.counts, counts)

    @given(counts=sparse_counts(), bad=st.sampled_from([np.nan, np.inf, -np.inf, -2.5]),
           cell=st.tuples(st.integers(0, 7), st.integers(0, 5)))
    @settings(max_examples=60, deadline=None)
    def test_bad_cell_same_message_both_ways(self, counts, bad, cell):
        r, t = cell[0] % counts.shape[0], cell[1] % counts.shape[1]
        counts[r, t] = bad
        with pytest.raises(ValidationError) as dense:
            Fingerprint(counts)
        rows = np.flatnonzero((counts != 0).any(axis=1))
        with pytest.raises(ValidationError) as sparse:
            Fingerprint.from_rows(rows, counts[rows], counts.shape[0])
        assert str(dense.value) == str(sparse.value)
        assert f"function {r}, timestep {t}" in str(dense.value)

    @pytest.mark.parametrize("rows,match", [
        ([2, 1], "row 1 has function index 1"),
        ([1, 1], "row 1 has function index 1"),
        ([0, 3], "row 1 has function index 3"),
        ([-1, 0], "row 0 has function index -1"),
        ([0.5, 1], "row 0 has function index 0.5"),
        ([0], "1 function rows but 2 rows of counts"),
    ], ids=["unsorted", "repeated", "equal-to-F", "negative", "fractional", "count-mismatch"])
    def test_from_rows_rejects_bad_rows(self, rows, match):
        with pytest.raises(ValidationError, match=match):
            Fingerprint.from_rows(rows, np.ones((2, 4)), F=3)

    def test_zero_rows_dropped(self):
        values = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        fp = Fingerprint.from_rows([0, 2, 4], values, F=5)
        assert list(fp.rows) == [0, 4]
        cut = canonicalize_length(fp, 1)
        assert list(cut.rows) == [0] and np.array_equal(cut.values, [[1.0]])
        assert np.array_equal(cut.counts, fp.counts[:, :1])

    def test_counts_stack_is_zero_off_a_runs_rows(self):
        reg = FunctionRegistry(["a", "b", "c", "d"])
        fps = [Fingerprint.from_rows([1], [[2.0, 3.0]], F=4, dt=0.1),
               Fingerprint.from_rows([0, 3], [[1.0, 1.0], [4.0, 0.0]], F=4, dt=0.1)]
        db = ExperienceDb.from_observations("s", [
            Observation(sensors=SensorSeries(np.zeros((1, 2)), dt=0.1), fingerprint=fp,
                        success=True, skill="s") for fp in fps], reg)
        assert list(db.support) == [0, 1, 3]
        stack = db.counts_stack([3, 2, 1])
        assert np.array_equal(stack, [[[0.0, 0.0], [0.0, 0.0], [2.0, 3.0]],
                                      [[4.0, 0.0], [0.0, 0.0], [0.0, 0.0]]])

    def test_wide_db_stays_small(self):
        # One dense 50,000 x 200 fingerprint would take 80 MB.
        F, T = 50_000, 200
        rows = np.array([17, 20_000, 49_999])
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            runs = [Observation(sensors=SensorSeries(np.zeros((1, T + k % 2)), dt=0.1),
                                fingerprint=Fingerprint.from_rows(
                                    rows, rng.uniform(1, 2, (3, T + k % 2)), F, dt=0.1),
                                success=True, skill="s") for k in range(3)]
            db = ExperienceDb("s", runs)
            support = db.support
            stack = db.counts_stack(support)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        assert db.canonical_T == T and np.array_equal(support, rows)
        assert stack.shape == (3, 3, T)
