import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from blamebox import (BlameConfig, ConfigError, ExperienceDb, Fingerprint, FunctionRegistry,
                      Observation, ValidationError, deviation_mass, fit_fpf)
from blamebox import fpf
from blamebox.core import _UFUNC_BUFFER
from blamebox.fpf import (DeviationGrid, FpfModel, _grid, _mass, _window_sums, deviation_at,
                          deviation_grid)
from blamebox.planner import _loop_caches
from tests.test_core import make_obs

REG = FunctionRegistry(["a", "b", "c"])


def db_from_counts(stacks, skill="s"):
    obs = [make_obs(F=3, T=stacks[0].shape[1], counts=c,
                    sensors=np.zeros((1, stacks[0].shape[1])), skill=skill)
           for c in stacks]
    return ExperienceDb.from_observations(skill, obs, REG)


def direct_window(rows, t_fail, cfg, power=1):
    """Direct window sum of ``rows`` (..., T) at ``t_fail``: weights
    exp(-alpha*(t_fail - s)) over the window's timesteps s, normalized by
    1/n_w. ``power=2`` squares both, giving the variance of the weighted mean."""
    t0 = max(0, t_fail - cfg.window_steps + 1)
    w = np.exp(-cfg.alpha * (t_fail - np.arange(t0, t_fail + 1.0)))
    n_w = t_fail - t0 + 1
    return rows[..., t0:t_fail + 1] @ w ** power / n_w ** power


def model_window(model, t_fail, cfg, f=slice(None)):
    """The model's direct weighted window mean for row(s) ``f`` and the
    variance of that mean."""
    return direct_window(model.mean[f], t_fail, cfg), direct_window(model.var[f], t_fail, cfg, 2)


def dense_fit(db, cfg):
    """The fit over the whole (n, F, T) stack, as an oracle for the support fit."""
    stack = db.counts_stack(np.arange(REG.F))
    return stack.mean(axis=0), np.maximum(stack.var(axis=0), cfg.var_floor)


@pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
def test_window_for_a_bad_sampling_interval_rejected(dt):
    with pytest.raises(ConfigError, match="positive and finite"):
        BlameConfig.for_sampling(dt)


class TestFit:
    def test_constant_counts_hit_variance_floor(self):
        cfg = BlameConfig()
        db = db_from_counts([np.full((3, 4), 2.5)] * 5)
        model = fit_fpf(db, cfg)
        assert np.allclose(model.mean, 2.5)
        assert np.all(model.var == cfg.var_floor)

    def test_two_sample_population_variance(self):
        # counts {1, 3} at one cell: mean 2, ML variance 1 (hand computed)
        cfg = BlameConfig()
        a = np.ones((3, 4))
        b = np.ones((3, 4))
        a[0, 3], b[0, 3] = 1.0, 3.0
        model = fit_fpf(db_from_counts([a, b]), cfg)
        assert model.mean[0, 3] == pytest.approx(2.0)
        assert model.var[0, 3] == pytest.approx(1.0)

    def test_unused_row_floored(self):
        cfg = BlameConfig()
        counts = np.ones((3, 4))
        counts[2] = 0.0
        model = fit_fpf(db_from_counts([counts, counts.copy()]), cfg).on(np.arange(3))
        assert np.all(model.mean[2] == 0.0)
        assert np.all(model.var[2] == cfg.var_floor)

    def test_matches_numpy_moments(self):
        rng = np.random.default_rng(3)
        stacks = [rng.uniform(0, 4, (3, 6)) for _ in range(9)]
        model = fit_fpf(db_from_counts(stacks), BlameConfig(var_floor=1e-12))
        arr = np.stack(stacks)
        assert np.allclose(model.mean, arr.mean(axis=0))
        assert np.allclose(model.var, arr.var(axis=0))

    @pytest.mark.parametrize("shape", [(70, 4, 400), (16, 6, 50), (1000, 3, 100), (1, 2, 5)])
    def test_run_by_run_variance_equals_ndarray_var(self, shape, monkeypatch):
        # counts spread over 16 orders of magnitude, a third of them exactly 0
        rng = np.random.default_rng(shape[0])
        stack = 10.0 ** rng.uniform(-8, 8, shape) * (rng.random(shape) < 2 / 3)
        n, R, T = shape
        db = ExperienceDb("s", [Observation(sensors=None, success=True, skill="s",
                                            fingerprint=Fingerprint(np.ones((R, T))))] * n)
        monkeypatch.setattr(ExperienceDb, "counts_stack", lambda self, rows: stack)
        cfg = BlameConfig(var_floor=1e-300)
        model = fit_fpf(db, cfg)
        assert model.mean.tobytes() == stack.mean(axis=0).tobytes()
        assert model.var.tobytes() == np.maximum(stack.var(axis=0), cfg.var_floor).tobytes()

    def test_fit_of_a_given_stack_reads_it_and_leaves_it(self):
        rng = np.random.default_rng(6)
        db = db_from_counts([rng.uniform(0, 4, (3, 9)) * (rng.random((3, 1)) < 0.7)
                             for _ in range(6)])
        cfg = BlameConfig()
        stack = db.counts_stack(db.support)
        before = stack.copy()
        given, own = fit_fpf(db, cfg, stack), fit_fpf(db, cfg)
        assert stack.tobytes() == before.tobytes()
        for name in ("support", "mean", "var"):
            assert getattr(given, name).tobytes() == getattr(own, name).tobytes(), name

    def test_model_keeps_its_own_read_only_copies(self):
        support, mean, var = np.array([0, 2]), np.zeros((2, 4)), np.ones((2, 4))
        model = FpfModel(support=support, mean=mean, var=var, F=3, n_samples=1,
                         var_floor=1e-6)
        for mine, theirs in ((model.support, support), (model.mean, mean), (model.var, var)):
            assert theirs.flags.writeable and not mine.flags.writeable
            assert not np.shares_memory(mine, theirs)
        mean[0, 0] = 5.0
        assert model.mean[0, 0] == 0.0

    @pytest.mark.parametrize("case", ["silent-rows", "one-run", "one-cell", "single-run",
                                      "floor", "all-zero"])
    def test_support_fit_equals_dense_fit(self, case):
        rng = np.random.default_rng(len(case))
        cfg = BlameConfig(var_floor=0.37) if case == "floor" else BlameConfig()
        n, T = (1 if case == "single-run" else 7), 9
        stacks = [rng.uniform(0, 4, (3, T)) for _ in range(n)]
        for c in stacks:
            c[0] = 0.0                        # row a is silent in every run
            if case == "all-zero":
                c[:] = 0.0
            elif case in ("one-run", "one-cell"):
                c[2] = 0.0
        if case == "one-run":
            stacks[3][2] = rng.uniform(0, 4, T)   # row c runs in one run only
        elif case == "one-cell":
            stacks[5][2, 4] = 1.25                # ... or at one timestep only
        db = db_from_counts(stacks)
        model = fit_fpf(db, cfg)
        dense = model.on(np.arange(3))
        mean, var = dense_fit(db, cfg)
        assert np.array_equal(dense.mean, mean)
        assert np.array_equal(dense.var, var)
        assert model.n_samples == n and model.var_floor == cfg.var_floor


class TestWeightedStats:
    def test_constant_mean_alpha_zero(self):
        cfg = BlameConfig(alpha=0.0, window_steps=4)
        counts = np.full((3, 8), 3.0)
        model = fit_fpf(db_from_counts([counts] * 4), cfg)
        assert deviation_grid(model, counts[None], cfg).mean[6, 0] == pytest.approx(3.0)

    def test_half_decay_hand_value(self):
        # alpha = ln 2, W = 2, means (2, 2): (2*0.5 + 2*1)/2 = 1.5
        cfg = BlameConfig(alpha=math.log(2.0), window_steps=2)
        counts = np.full((3, 8), 2.0)
        model = fit_fpf(db_from_counts([counts] * 4), cfg)
        assert deviation_grid(model, counts[None], cfg).mean[5, 1] == pytest.approx(1.5)

    def test_large_alpha_limit(self):
        # only the t_fail term survives, still divided by the window length
        cfg = BlameConfig(alpha=50.0, window_steps=4)
        counts = np.full((3, 8), 2.0)
        model = fit_fpf(db_from_counts([counts] * 4), cfg)
        assert deviation_grid(model, counts[None], cfg).mean[6, 0] == pytest.approx(0.5, abs=1e-12)

    def test_exec_mean_hand_value(self):
        # alpha = 0, W = 4, window counts (1, 2, 3, 4) -> 2.5
        cfg = BlameConfig(alpha=0.0, window_steps=4)
        model = fit_fpf(db_from_counts([np.ones((3, 8))] * 2), cfg)
        counts = np.zeros((3, 8))
        counts[1, 2:6] = [1, 2, 3, 4]
        assert deviation_grid(model, counts[None], cfg).exec_mean[5, 0, 1] == pytest.approx(2.5)

    def test_exec_zero_window(self):
        cfg = BlameConfig(alpha=0.3, window_steps=4)
        model = fit_fpf(db_from_counts([np.ones((3, 8))] * 2), cfg)
        assert deviation_grid(model, np.zeros((1, 3, 8)), cfg).exec_mean[5, 0, 0] == 0.0

    def test_exec_matches_model_on_same_input(self):
        cfg = BlameConfig()
        counts = np.abs(np.random.default_rng(1).normal(2, 0.5, (3, 50)))
        db = db_from_counts([counts, counts.copy()])
        model = fit_fpf(db, cfg)
        grid = deviation_grid(model, counts[None], cfg)
        for f in range(3):
            assert grid.exec_mean[30, 0, f] == pytest.approx(grid.mean[30, f])

    def test_full_window_alpha_zero_equals_plain_average(self):
        # direct-summation oracle for the unweighted full-window case
        T = 12
        cfg = BlameConfig(alpha=0.0, window_steps=T)
        rng = np.random.default_rng(5)
        stacks = [rng.uniform(0, 4, (3, T)) for _ in range(6)]
        model = fit_fpf(db_from_counts(stacks), cfg)
        grid = deviation_grid(model, np.stack(stacks[:1]), cfg)
        for f in range(3):
            assert grid.mean[T - 1, f] == pytest.approx(model.mean[f].mean())

    def test_t_fail_out_of_range(self):
        cfg = BlameConfig()
        model = fit_fpf(db_from_counts([np.ones((3, 8))] * 2), cfg)
        for t_fail in (8, -1):
            with pytest.raises(ValidationError, match=rf"t_fail={t_fail} outside \[0, 8\)"):
                deviation_at(model, Fingerprint(np.ones((3, 8))), t_fail, cfg)


class TestDeviationMass:
    def test_center_is_zero(self):
        assert deviation_mass(2.0, 2.0, 0.5) == 0.0

    def test_one_sigma_against_quadrature(self):
        # independent oracle: integrate the standard normal pdf over [0, 1]
        oracle, _ = quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), 0.0, 1.0)
        assert oracle == pytest.approx(0.3413447, abs=1e-6)
        assert deviation_mass(3.0, 2.0, 1.0) == pytest.approx(oracle, abs=1e-6)

    def test_quadrature_grid(self):
        for z in (0.25, 0.7, 1.5, 2.2):
            oracle, _ = quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), 0.0, z)
            assert deviation_mass(z, 0.0, 1.0) == pytest.approx(oracle, abs=1e-9)

    def test_asymptote_open(self):
        assert deviation_mass(1e9, 0.0, 1.0) < 0.5

    def test_grid_erf_is_math_erf_and_matches_scipy(self):
        from scipy.special import erf as scipy_erf
        zs = np.concatenate([np.linspace(-40.0, 40.0, 4001), [0.0, -0.0, 1e-300, -5e-324]])
        grid = DeviationGrid(mean=np.zeros((1, zs.size)), var=np.ones((1, zs.size)),
                             exec_mean=zs[None, None, :],
                             model_active=np.ones((1, zs.size), dtype=bool),
                             exec_active=np.ones((1, 1, zs.size), dtype=bool))
        pd, _ = grid.at(0, 0)
        assert pd.dtype == np.float64 and pd.shape == zs.shape
        half_open = float(np.nextafter(0.5, 0.0))
        exact = [min(0.5 * abs(math.erf(z / math.sqrt(2.0))), half_open) for z in zs]
        assert pd.tolist() == exact
        assert [deviation_mass(z, 0.0, 1.0) for z in zs] == exact
        reference = np.minimum(0.5 * np.abs(scipy_erf(zs / math.sqrt(2.0))), half_open)
        assert np.max(np.abs(pd - reference)) <= 1e-15

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValidationError):
            deviation_mass(1.0, 0.0, 0.0)

    @given(d=st.floats(0, 50), var=st.floats(1e-6, 10))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_exact_at_zero_mean(self, d, var):
        # mean 0 keeps x - mean exact, so symmetry must hold bit for bit
        assert deviation_mass(d, 0.0, var) == deviation_mass(-d, 0.0, var)

    @given(d=st.floats(0, 50), mean=st.floats(-10, 10), var=st.floats(1e-6, 10))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_general(self, d, mean, var):
        # mean +- d rounds, so compare at matching tolerance
        assert deviation_mass(mean + d, mean, var) == pytest.approx(
            deviation_mass(mean - d, mean, var), rel=1e-6, abs=1e-9)

    @given(st.lists(st.floats(0, 100), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_distance(self, ds):
        ds = sorted(ds)
        vals = [deviation_mass(1.0 + d, 1.0, 2.0) for d in ds]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v < 0.5 for v in vals)


class TestVectorizedGrid:
    def test_grid_matches_scalar_ops(self):
        cfg = BlameConfig(alpha=0.21, window_steps=5)
        rng = np.random.default_rng(11)
        stacks = [np.abs(rng.normal(2, 0.5, (3, 10))) for _ in range(6)]
        model = fit_fpf(db_from_counts(stacks), cfg)
        probe = np.abs(rng.normal(2, 0.7, (3, 10)))
        pd, inactive = deviation_at(model, Fingerprint(probe), 7, cfg)
        for f in range(3):
            mean_exp, var_exp = model_window(model, 7, cfg, f)
            x = direct_window(probe[f], 7, cfg)
            assert pd[f] == pytest.approx(deviation_mass(x, mean_exp, var_exp), abs=1e-12)
            assert not inactive[f]

    def test_inactive_requires_both_sides_silent(self):
        cfg = BlameConfig(alpha=0.1, window_steps=3)
        counts = np.ones((3, 8))
        counts[2] = 0.0
        model = fit_fpf(db_from_counts([counts, counts.copy()]), cfg)
        silent_probe = np.ones((3, 8))
        silent_probe[2] = 0.0
        _, inactive = deviation_at(model, Fingerprint(silent_probe), 5, cfg)
        assert list(inactive) == [False, False, True]
        loud_probe = silent_probe.copy()
        loud_probe[2, 4] = 1.0  # executed inside the window
        _, inactive = deviation_at(model, Fingerprint(loud_probe), 5, cfg)
        assert not inactive[2]

    @pytest.mark.parametrize("alpha,W,T", [
        (0.5, 3, 6),                 # t < W: window lengths 1, 2, 3, 3, ...
        (0.3, 10, 6),                # W > T
        (0.3, 6, 6),                 # W == T
        (0.7, 4, 1),                 # T == 1
        (0.0, 4, 9),                 # alpha == 0: a plain sliding sum
        (math.log(10) / 40, 40, 120),
    ])
    def test_recursion_matches_direct_window(self, alpha, W, T):
        cfg = BlameConfig(alpha=alpha, window_steps=W)
        rng = np.random.default_rng(T + W)
        stacks = [rng.uniform(0, 4, (3, T)) for _ in range(4)]
        model = fit_fpf(db_from_counts(stacks), cfg)
        grid = deviation_grid(model, np.stack(stacks[:2]), cfg)
        assert grid.mean.shape == grid.var.shape == (T, 3)
        assert grid.exec_mean.shape == (T, 2, 3)
        for t in range(T):
            for f in range(3):
                mean_exp, var_exp = model_window(model, t, cfg, f)
                assert grid.mean[t, f] == pytest.approx(mean_exp, rel=1e-12, abs=1e-12)
                assert grid.var[t, f] == pytest.approx(var_exp, rel=1e-12, abs=1e-12)
                for i in range(2):
                    x = direct_window(stacks[i][f], t, cfg)
                    assert grid.exec_mean[t, i, f] == pytest.approx(x, rel=1e-12, abs=1e-12)
        for c in stacks[:2]:   # the one-column form agrees with the grid's column
            single = deviation_grid(model, c[None], cfg)
            for t in range(T):
                pd, inactive = deviation_at(model, Fingerprint(c), t, cfg)
                grid_pd, grid_inactive = single.at(t, 0)
                assert np.allclose(pd, grid_pd, rtol=0.0, atol=1e-12)
                assert np.array_equal(inactive, grid_inactive)

    def test_lazy_columns_match_scalar_ops(self):
        cfg = BlameConfig(alpha=0.3, window_steps=4)
        rng = np.random.default_rng(8)
        T = 15
        stacks = [rng.uniform(0, 3, (3, T)) for _ in range(4)]
        for c in stacks:
            c[2, :9] = 0.0           # f2 silent early in every stored run
        probes = np.stack([c.copy() for c in stacks[:3]])
        probes[0, 2, :] = 0.0        # ... and silent throughout in one probe
        probes[1, 2, 3] = 1.5        # ... or briefly called inside the silence
        probes[2, 2, 5] = 5e-9       # active by its plain window sum, not its weighted mean
        model = fit_fpf(db_from_counts(stacks), cfg)
        pd, inactive = deviation_grid(model, probes, cfg).at(
            np.arange(T)[:, None], np.arange(3)[None, :])
        assert pd.shape == inactive.shape == (T, 3, 3)
        assert inactive.any() and not inactive.all()
        for t in range(T):
            t0 = max(0, t - cfg.window_steps + 1)
            for i in range(3):
                for f in range(3):
                    mean_exp, var_exp = model_window(model, t, cfg, f)
                    x = direct_window(probes[i, f], t, cfg)
                    assert pd[t, i, f] == pytest.approx(
                        deviation_mass(x, mean_exp, var_exp), abs=1e-12)
                    silent = (model.mean[f, t0:t + 1].sum() <= 1e-9
                              and probes[i, f, t0:t + 1].sum() <= 1e-9)
                    assert inactive[t, i, f] == silent

    def test_mismatched_counts_rejected(self):
        cfg = BlameConfig()
        model = fit_fpf(db_from_counts([np.ones((3, 8))] * 2), cfg)
        for bad in (np.ones((2, 8)), np.ones((3, 7)), np.ones(8), np.ones((1, 1, 3, 8))):
            with pytest.raises(ValidationError):
                deviation_grid(model, bad, cfg)

    def test_stacked_input(self):
        cfg = BlameConfig()
        rng = np.random.default_rng(2)
        stacks = [np.abs(rng.normal(2, 0.5, (3, 12))) for _ in range(5)]
        model = fit_fpf(db_from_counts(stacks), cfg)
        batch = np.stack(stacks[:2])
        ts = np.arange(12)
        pd, inactive = deviation_grid(model, batch, cfg).at(ts[:, None], np.arange(2)[None, :])
        assert pd.shape == (12, 2, 3) and inactive.shape == (12, 2, 3)
        single, _ = deviation_grid(model, stacks[0][None], cfg).at(ts, 0)
        assert np.array_equal(pd[:, 0], single)


def direct_sums(y, r, W):
    """sum_{k < W, k <= t} r**k * y[t - k] for every t, one lag at a time:
    the O(T*W) oracle for the kernel's scan."""
    out = np.zeros_like(y)
    for k in range(min(W, len(y))):
        out[k:] += r ** k * y[:len(y) - k]
    return out


class TestWindowSums:
    WINDOWS = {"one": lambda T: 1, "below-T": lambda T: max(1, T // 3),
               "T": lambda T: T, "above-T": lambda T: T + 7}

    @staticmethod
    def series(T, shape, seed):
        """Counts over ``shape`` = (T, ...) with silent stretches: the first
        quarter of the run, and a quarter of it from its middle on."""
        y = np.random.default_rng(seed).uniform(0, 4, shape)
        y[:T // 4] = 0.0
        y[T // 2:T // 2 + T // 4 + 1] = 0.0
        return y

    @pytest.mark.parametrize("alpha", [0.0, math.log(10) / 40, 50.0, 400.0, 800.0])
    @pytest.mark.parametrize("window", WINDOWS)
    # blocks of B = ceil(sqrt(T)) steps: T = 7 ends in a one-row block, and
    # B = 21 does not divide 401
    @pytest.mark.parametrize("T", [1, 2, 7, 50, 401, 1600])
    def test_scan_matches_the_direct_sum(self, alpha, window, T):
        W = self.WINDOWS[window](T)
        for i, shape in enumerate([(T,), (T, 3), (T, 2, 3)]):
            y = self.series(T, shape, seed=[T, W, i])
            for r in (math.exp(-alpha), math.exp(-2 * alpha)):   # the mean's and the var's
                got = y.copy()
                assert _window_sums(got, r, W) is got   # in place
                np.testing.assert_allclose(got, direct_sums(y, r, W), rtol=1e-12, atol=1e-12)
            # with r = 1 a silent window sums to exactly 0, as the activity masks need
            silent = direct_sums((y != 0).astype(float), 1.0, W) == 0
            assert silent.any() or T == 2   # at T = 2 only W = 1 leaves a silent window
            assert np.all(_window_sums(y.copy(), 1.0, W)[silent] == 0.0)


def temporary_window_sums(y, r, W):
    """The scan with every product in a temporary of its own and numpy's
    default ufunc buffer, as the kernel was first written: the oracle for
    the kernel's scratch buffer, which must not change a bit."""
    T = y.shape[0]
    B = max(1, math.ceil(math.sqrt(T)))
    for j in range(1, B):
        row = y[j::B]
        row += r * y[j - 1::B][:len(row)]
    decay = (r ** np.arange(1.0, B + 1.0)).reshape((B,) + (1,) * (y.ndim - 1))
    for start in range(B, T, B):
        block = y[start:start + B]
        block += decay[:len(block)] * y[start - 1]
    step, rW = max(W, B), r ** W
    for end in range(T, W, -step):
        start = max(W, end - step)
        y[start:end] -= rW * y[start - W:end - W]
    return y


class TestWindowKernelScratch:
    @pytest.mark.parametrize("shape", [(400, 71, 4), (50, 16, 17, 6), (1, 3, 2), (2, 5),
                                       (7, 2, 3, 1), (33, 1, 0, 4)])
    @pytest.mark.parametrize("r", [0.0, 1.0, 0.3, math.exp(-math.log(10) / 40)])
    def test_bits_equal_the_kernel_of_temporaries(self, shape, r):
        T = shape[0]
        y = TestWindowSums.series(T, shape, seed=list(shape))
        for W in {1, 3, 40, T - 1, T, T + 5} - {0}:
            want = temporary_window_sums(y.copy(), r, W)
            got = _window_sums(y.copy(), r, W)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), W

    @pytest.mark.parametrize("shape,W", [((400, 71, 4), 40), ((50, 16, 17, 6), 40),
                                         ((50, 16, 17, 6), 12)],
                             ids=["long-horizon", "group", "group-short-window"])
    def test_scratch_is_one_subtraction_slice(self, shape, W):
        # beside its input the kernel holds one slice of the subtraction
        # (at most max(W, B) rows, and no more than T - W of them) and
        # numpy's ufunc buffers, capped as _grid caps them
        import tracemalloc
        T = shape[0]
        B = math.ceil(math.sqrt(T))
        y = np.random.default_rng(0).uniform(0, 3, shape)
        slice_bytes = min(max(W, B), T - W) * y[0].nbytes
        old = np.setbufsize(_UFUNC_BUFFER)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _window_sums(y, 0.9, W)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
            np.setbufsize(old)
        assert peak <= slice_bytes + 16 * 1024

    def test_ufunc_buffer_is_restored(self, monkeypatch):
        # _grid caps the buffer once around its three kernel calls
        sizes, kernel = [], fpf._window_sums
        monkeypatch.setattr(fpf, "_window_sums",
                            lambda y, r, W: sizes.append(np.getbufsize()) or kernel(y, r, W))
        before = np.getbufsize()
        model = np.ones((2, 50))
        _grid([model], [model], [np.ones((3, 2, 50))], BlameConfig(window_steps=4))
        assert sizes == [_UFUNC_BUFFER] * 3
        assert np.getbufsize() == before


def dense_deviation_at(model, counts, t_fail, cfg):
    """deviation_at over every row of the dense (F, T) ``counts``: the oracle
    for the form that evaluates live rows only."""
    mean, var = model_window(model, t_fail, cfg)
    x = direct_window(counts, t_fail, cfg)
    window = slice(max(0, t_fail - cfg.window_steps + 1), t_fail + 1)
    inactive = ~((model.mean[:, window].sum(axis=1) > 1e-9)
                 | (counts[:, window].sum(axis=1) > 1e-9))
    return _mass((x - mean) / np.sqrt(var)), inactive


class TestDeviationAtOracle:
    @given(seed=st.integers(0, 2**32 - 1), F=st.integers(1, 60), T=st.integers(1, 50),
           W=st.integers(1, 45))
    @settings(max_examples=80, deadline=None)
    def test_live_rows_match_the_dense_formula(self, seed, F, T, W):
        rng = np.random.default_rng(seed)
        cfg = BlameConfig(alpha=rng.uniform(0, 0.5), window_steps=W, var_floor=1e-6)
        # The run's called rows count 2-3 in every cell and the model expects
        # at most 1, so the deviation never cancels: the executed window mean,
        # formed on fewer rows, may differ from the dense one in its last bit,
        # and the mass then differs by a few ulps only.
        mean = (rng.uniform(0, 1, (F, T)) * (rng.uniform(size=(F, 1)) < 0.3)
                * (rng.uniform(size=(F, T)) < 0.6))
        var = cfg.var_floor + rng.uniform(0, 200, (F, T))
        support = np.flatnonzero(mean.any(axis=1))
        model = FpfModel(support=support, mean=mean[support], var=var[support], F=F,
                         n_samples=5, var_floor=cfg.var_floor)
        counts = rng.uniform(2, 3, (F, T)) * (rng.uniform(size=(F, 1)) < 0.3)
        fingerprint = Fingerprint(counts)
        for t_fail in {0, T - 1, int(rng.integers(0, T))}:
            pd, inactive = deviation_at(model, fingerprint, t_fail, cfg)
            ref_pd, ref_inactive = dense_deviation_at(model.on(np.arange(F)), counts,
                                                      t_fail, cfg)
            np.testing.assert_allclose(pd, ref_pd, rtol=1e-14, atol=0.0)
            assert np.array_equal(inactive, ref_inactive)


def sparse_model(support=(0, 2), rows=2, T=4, F=3):
    return FpfModel(support=support, mean=np.zeros((rows, T)), var=np.ones((rows, T)), F=F,
                    n_samples=1, var_floor=1e-6)


class TestRowSparseModel:
    @pytest.mark.parametrize("support", [(2, 0), (1, 1), (0, 3), (-1, 2), (0, 1.5)],
                             ids=["unsorted", "repeated", "past-F", "negative", "fractional"])
    def test_bad_support_rejected(self, support):
        with pytest.raises(ValidationError, match="integers in \\[0, 3\\), ascending"):
            sparse_model(support)

    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_one_matrix_row_per_support_function(self, rows):
        with pytest.raises(ValidationError, match=r"matching \(2, T\) matrices"):
            sparse_model(rows=rows)
        with pytest.raises(ValidationError, match=r"matching \(2, T\) matrices"):
            FpfModel(support=(0, 2), mean=np.zeros((2, 4)), var=np.ones((rows, 4)), F=3,
                     n_samples=1, var_floor=1e-6)

    def test_wide_registry_fit_holds_the_support_only(self):
        F, T, rows = 100_000, 50, [7, 4_242, 99_999]
        rng = np.random.default_rng(4)
        runs = [Observation(sensors=None, success=True, skill="s", fingerprint=(
            Fingerprint.from_rows(rows, rng.uniform(0.5, 3.0, (3, T)), F))) for _ in range(5)]
        db = ExperienceDb("s", runs)
        model = fit_fpf(db, BlameConfig())
        assert model.mean.shape == model.var.shape == (db.support.size, T) == (3, T)
        assert list(model.support) == rows and (model.F, model.T) == (F, T)
        stack = db.counts_stack(db.support)
        assert np.array_equal(model.mean, stack.mean(axis=0))

    @pytest.mark.parametrize("rows", [[], [0], [1], [0, 1, 2], [2, 0]])
    def test_on_equals_the_dense_fit_on_every_row(self, rows):
        rng = np.random.default_rng(9)
        stacks = [rng.uniform(0, 4, (3, 7)) for _ in range(5)]
        for c in stacks:
            c[0] = 0.0                      # row a is silent in every run
        db = db_from_counts(stacks)
        cfg = BlameConfig(var_floor=0.01)
        model = fit_fpf(db, cfg)
        assert list(model.support) == [1, 2]
        held = model.on(rows)
        mean, var = dense_fit(db, cfg)
        assert list(held.support) == sorted({1, 2} | set(rows))
        assert np.array_equal(held.mean, mean[held.support])
        assert np.array_equal(held.var, var[held.support])
        assert (held.F, held.n_samples, held.var_floor) == (3, 5, cfg.var_floor)

    def test_on_rejects_rows_outside_the_registry(self):
        with pytest.raises(ValidationError):
            sparse_model().on([3])


def five_call_grid(mean, var, counts, config):
    """The grid as five kernel calls, one per statistic and input: the oracle
    for the stacked three-call form."""
    x = np.moveaxis(counts, -1, 0).copy()
    W, r = config.window_steps, math.exp(-config.alpha)
    n_w = np.minimum(np.arange(1.0, mean.shape[1] + 1.0), W)[:, None]
    exec_mean = _window_sums(x.copy(), r, W)
    exec_mean /= n_w[:, :, None]
    mean, var = mean.T, var.T
    return DeviationGrid(
        mean=_window_sums(mean.copy(), r, W) / n_w,
        var=_window_sums(var.copy(), r * r, W) / (n_w * n_w),
        exec_mean=exec_mean,
        model_active=_window_sums(mean.copy(), 1.0, W) > 1e-9,
        exec_active=_window_sums(x, 1.0, W) > 1e-9,
    )


class TestStackedGrid:
    @pytest.mark.parametrize("T,W", [(1, 1), (1, 6), (2, 1), (7, 3), (7, 7), (7, 20),
                                     (50, 12), (401, 40)])
    @pytest.mark.parametrize("n", [1, 4])
    def test_equals_the_five_call_form_bitwise(self, T, W, n):
        rng = np.random.default_rng([T, W, n])
        R = 5
        # silent rows and cells, and cells near the 1e-9 activity threshold
        scale = rng.choice([0.0, 1e-10, 3e-10, 1.0], size=(R, T))
        scale[0], scale[1] = 0.0, 1.0   # one silent and one active row at least
        mean = rng.uniform(0, 2, (R, T)) * scale
        var = 1e-6 + rng.uniform(0, 3, (R, T))
        counts = rng.uniform(0, 3, (n, R, T)) * rng.choice([0.0, 4e-10, 1.0], size=(n, R, T))
        cfg = BlameConfig(alpha=rng.uniform(0, 0.3), window_steps=W)
        got = _grid([mean], [var], [counts], cfg)
        want = five_call_grid(mean, var, counts, cfg)
        for name in ("mean", "var", "exec_mean"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape
            assert np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                  np.ascontiguousarray(b).view(np.uint64)), name
        for name in ("model_active", "exec_active"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert want.model_active.any() and not want.model_active.all()

    def test_deviation_at_gathers_the_window_only(self, monkeypatch):
        rng = np.random.default_rng(1)
        F, T, W = 6, 50, 8
        mean = rng.uniform(0, 2, (F, T))
        model = FpfModel(support=[1, 3], mean=mean[[1, 3]], var=np.ones((2, T)), F=F,
                         n_samples=3, var_floor=1e-6)
        fingerprint = Fingerprint.from_rows([0, 3], rng.uniform(1, 2, (2, T)), F)
        cfg = BlameConfig(window_steps=W)
        want = deviation_at(model, fingerprint, 30, cfg)
        widths = []
        real = fpf.gather_rows

        def spy(held, values, rows, fill):
            widths.append(values.shape[1])
            return real(held, values, rows, fill)

        monkeypatch.setattr(fpf, "gather_rows", spy)
        got = deviation_at(model, fingerprint, 30, cfg)
        assert widths == [W, W]   # the model's mean and var, on its support and the run's rows
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _same_bits(a, b):
    if a.dtype == bool:
        return a.shape == b.shape and np.array_equal(a, b)
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                                 np.ascontiguousarray(b).view(np.uint64))


class TestGridLayout:
    """A group grid of K same-shape skills holds skill k's failure time t in
    row t*K + k; a skill alone is the group of one."""

    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("n,R,T,W", [(3, 4, 9, 4), (2, 3, 1, 1), (2, 3, 1, 5),
                                         (2, 3, 5, 12), (2, 0, 6, 3)])
    @pytest.mark.parametrize("silent", [False, True])
    def test_row_t_K_plus_k_is_the_skill_alone(self, K, n, R, T, W, silent):
        rng = np.random.default_rng([K, n, R, T, W])
        cfg = BlameConfig(alpha=rng.uniform(0, 0.3), window_steps=W)
        live = 0.0 if silent else 1.0
        models = [FpfModel(support=np.arange(R),
                           mean=live * rng.uniform(0, 2, (R, T)) * rng.choice([0.0, 1.0], (R, T)),
                           var=1e-6 + rng.uniform(0, 3, (R, T)), F=R + 1, n_samples=n,
                           var_floor=1e-6)
                  for _ in range(K)]
        stacks = [live * rng.uniform(0, 3, (n, R, T)) * rng.choice([0.0, 1.0], (n, R, T))
                  for _ in range(K)]
        group = _grid([m.mean for m in models], [m.var for m in models], stacks, cfg)
        assert group.mean.shape == group.var.shape == group.model_active.shape == (T * K, R)
        assert group.exec_mean.shape == group.exec_active.shape == (T * K, n, R)
        for k, (model, stack) in enumerate(zip(models, stacks)):
            alone = deviation_grid(model, stack, cfg)
            for name, want in vars(alone).items():
                assert _same_bits(getattr(group, name)[k::K], want), (k, name)
        if silent:
            assert not group.model_active.any() and not group.exec_active.any()

    def test_loop_cache_grids_view_the_group_grid(self):
        rng = np.random.default_rng(3)
        dbs = {s: db_from_counts([rng.uniform(1, 2, (3, 6)) for _ in range(4)], skill=s)
               for s in ("s1", "s2", "s3")}
        caches = _loop_caches(dbs, BlameConfig(window_steps=3))
        group = caches["s1"]._group
        assert all(cache._group is group for cache in caches.values())
        for k, cache in enumerate(caches.values()):
            for name, got in vars(cache.grid).items():
                whole = getattr(group.grid, name)
                assert np.shares_memory(got, whole), name
                assert _same_bits(got, whole[k::3]), name
