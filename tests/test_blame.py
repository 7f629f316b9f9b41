import math

import numpy as np
import pytest

from blamebox import (Belief, BlameConfig, Fingerprint, FunctionRegistry,
                      ValidationError, bayes_update, entropy, fit_fpf,
                      likelihood_vector)
from blamebox.blame import combine_deviation
from tests.test_core import make_obs
from tests.test_fpf import db_from_counts

REG = FunctionRegistry(["a", "b", "c"])
CFG = BlameConfig(alpha=0.2, window_steps=4)


def fitted_model(rng_seed=0, T=10, mu=2.0, sigma=0.5, n=20, silent_rows=()):
    rng = np.random.default_rng(rng_seed)
    stacks = []
    for _ in range(n):
        counts = np.abs(rng.normal(mu, sigma, (3, T)))
        for r in silent_rows:
            counts[r] = 0.0
        stacks.append(counts)
    return fit_fpf(db_from_counts(stacks), CFG), stacks


class TestBelief:
    def test_uniform(self):
        b = Belief.uniform(4)
        assert np.allclose(b.probs, 0.25)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            Belief(np.array([0.5, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            Belief(np.array([1.5, -0.5]))


class TestEntropy:
    def test_uniform_four(self):
        assert entropy(Belief.uniform(4)) == pytest.approx(math.log(4), abs=1e-12)

    def test_point_mass(self):
        assert entropy(Belief(np.array([1.0, 0.0, 0.0]))) == 0.0

    def test_half_half(self):
        assert entropy(Belief(np.array([0.5, 0.5, 0.0, 0.0]))) == pytest.approx(
            math.log(2), abs=1e-12)


    @pytest.mark.parametrize("F", [1, 2, 7, 33, 241, 1000, 4097])
    def test_shared_plogp_keeps_both_formulas_bits(self, F):
        # the record's entropy sums the compacted non-zero terms in double; the
        # planner's total sums the full-length terms, 0 where p = 0, in long double
        rng = np.random.default_rng(F)
        w = rng.random(F) ** 4 * (rng.random(F) < 0.6)
        w[0] = 1.0
        if F > 2:
            w[-1] = 0.0
        belief = Belief(w / w.sum())
        p = belief.probs
        nz = p[p > 0]
        assert entropy(belief) == float(-(nz * np.log(nz)).sum())
        with np.errstate(divide="ignore", invalid="ignore"):
            full = np.where(p > 0, p * np.log(p), 0.0)
        assert belief.plogp.tobytes() == full.tobytes()
        ld = np.longdouble
        assert belief.plogp.sum(dtype=ld).tobytes() == full.sum(dtype=ld).tobytes()
        assert belief.plogp is belief.plogp and not belief.plogp.flags.writeable

    def test_entropy_of_an_array(self):
        assert entropy(np.array([0.5, 0.5, 0.0])) == pytest.approx(math.log(2), abs=1e-12)


class TestLikelihood:
    def test_failure_matching_profile_is_half(self):
        model, stacks = fitted_model()
        # executed counts equal to the model mean: zero deviation
        exact = Fingerprint(model.mean.copy())
        lik = likelihood_vector(model, exact, success=False, t_fail=6, config=CFG)[0]
        assert lik == pytest.approx(0.5, abs=1e-12)

    def test_success_matching_profile_hits_floor(self):
        model, _ = fitted_model()
        exact = Fingerprint(model.mean.copy())
        lik = likelihood_vector(model, exact, success=True, t_fail=6, config=CFG)[0]
        assert lik == pytest.approx(CFG.epsilon_floor, abs=1e-12)

    def test_failure_extreme_deviation_approaches_three_quarters(self):
        model, _ = fitted_model()
        probe = Fingerprint(np.full((3, 10), 500.0))
        lik = likelihood_vector(model, probe, success=False, t_fail=6, config=CFG)[1]
        assert 0.74 < lik <= 0.75

    def test_inactive_function_is_neutral_on_success(self):
        model, _ = fitted_model(silent_rows=(2,))
        probe = np.abs(np.random.default_rng(5).normal(2, 0.5, (3, 10)))
        probe[2] = 0.0
        lik = likelihood_vector(model, Fingerprint(probe), success=True, t_fail=6, config=CFG)[2]
        assert lik == 0.5

    def test_inactive_function_is_cleared_on_failure(self):
        model, _ = fitted_model(silent_rows=(2,))
        probe = np.abs(np.random.default_rng(5).normal(2, 0.5, (3, 10)))
        probe[2] = 0.0
        lik = likelihood_vector(model, Fingerprint(probe), success=False, t_fail=6, config=CFG)[2]
        assert lik == CFG.epsilon_floor

    def test_bounds_and_failure_floor_randomized(self):
        # criterion-9 style bounds on a small model, many random probes
        model, _ = fitted_model(silent_rows=(2,))
        rng = np.random.default_rng(42)
        for _ in range(300):
            probe = np.abs(rng.normal(rng.uniform(0, 4), rng.uniform(0.1, 2), (3, 10)))
            if rng.integers(2):
                probe[2] = 0.0
            t_fail = int(rng.integers(0, 10))
            success = bool(rng.integers(2))
            lik = likelihood_vector(model, Fingerprint(probe), success, t_fail, CFG)
            assert np.all(lik >= CFG.epsilon_floor)
            assert np.all(lik <= 0.75)
            if not success:
                active = ~np.isclose(probe[:, max(0, t_fail - 3):t_fail + 1], 0).all(axis=1)
                assert np.all(lik[active] >= 0.5)

    def test_success_ignores_given_t_fail(self):
        model, _ = fitted_model()
        probe = Fingerprint(np.abs(np.random.default_rng(9).normal(2, 1, (3, 10))))
        a = likelihood_vector(model, probe, True, 0, CFG)
        b = likelihood_vector(model, probe, True, 9, CFG)
        assert np.array_equal(a, b)

    def test_success_judged_over_its_last_window_only(self):
        # T = 100, W = 40: "a" runs in steps 0-49, "b" in steps 50-99, "c" never
        T, cfg = 100, BlameConfig(window_steps=40)
        rng = np.random.default_rng(0)
        stacks = []
        for _ in range(20):
            counts = np.zeros((3, T))
            counts[0, :50] = np.abs(rng.normal(2.0, 0.5, 50))
            counts[1, 50:] = np.abs(rng.normal(2.0, 0.5, 50))
            stacks.append(counts)
        model = fit_fpf(db_from_counts(stacks), cfg)
        obs = make_obs(F=3, T=T, counts=np.mean(stacks, axis=0), sensors=np.zeros((1, T)))
        lik = likelihood_vector(model, obs.fingerprint, True, 0, cfg)
        # a success clears "b" but leaves "a" as it leaves the uncalled "c"
        assert lik[0] == lik[2] == 0.5
        assert lik[1] == pytest.approx(cfg.epsilon_floor, abs=1e-12)
        post, t_used = bayes_update(Belief.uniform(3), {"s": model}, obs, True, None, cfg)
        assert t_used == T - 1
        assert post.probs[0] == post.probs[2] > 1e3 * post.probs[1]


class TestCombine:
    def test_shapes_and_cases(self):
        pd = np.array([0.0, 0.3, 0.49])
        inactive = np.array([False, False, True])
        fail = combine_deviation(pd, inactive, False, CFG)
        assert fail[0] == 0.5 and fail[1] == pytest.approx(0.65)
        assert fail[2] == CFG.epsilon_floor
        succ = combine_deviation(pd, inactive, True, CFG)
        assert succ[0] == CFG.epsilon_floor
        assert succ[1] == pytest.approx(CFG.epsilon_floor + 0.3 * CFG.success_deviation_weight)
        assert succ[2] == 0.5


class TestBayesUpdate:
    def _setup(self):
        model, stacks = fitted_model()
        obs = make_obs(F=3, T=10, counts=stacks[0], sensors=np.zeros((1, 10)))
        return model, obs

    def test_hand_normalized_posterior(self):
        # uniform prior over 2 functions, likelihoods (0.75, 0.5) -> (0.6, 0.4)
        w = np.array([0.75, 0.5]) * 0.5
        assert np.allclose(w / w.sum(), [0.6, 0.4])

    def test_equal_likelihoods_keep_prior(self):
        model, obs = self._setup()
        prior = Belief(np.array([0.2, 0.3, 0.5]))
        lik = likelihood_vector(model, obs.fingerprint, False, 6, CFG)
        posterior, _ = bayes_update(prior, {"s": model}, obs, False, 6, CFG)
        manual = lik * prior.probs
        assert np.allclose(posterior.probs, manual / manual.sum(), atol=1e-12)

    def test_point_mass_is_absorbing(self):
        model, obs = self._setup()
        prior = Belief(np.array([1.0, 0.0, 0.0]))
        posterior, _ = bayes_update(prior, {"s": model}, obs, False, 5, CFG)
        assert np.array_equal(posterior.probs, prior.probs)

    def test_normalization_within_tolerance(self):
        model, obs = self._setup()
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.dirichlet(np.ones(3))
            posterior, _ = bayes_update(Belief(p), {"s": model}, obs,
                                        bool(rng.integers(2)), int(rng.integers(10)), CFG)
            assert abs(posterior.probs.sum() - 1.0) <= 1e-9
            assert not np.any(np.isnan(posterior.probs))

    def test_update_order_invariance(self):
        model, stacks = fitted_model()
        obs1 = make_obs(F=3, T=10, counts=stacks[0], sensors=np.zeros((1, 10)))
        obs2 = make_obs(F=3, T=10, counts=stacks[1], sensors=np.zeros((1, 10)))
        prior = Belief(np.array([0.2, 0.3, 0.5]))
        fpfs = {"s": model}
        a, _ = bayes_update(prior, fpfs, obs1, False, 4, CFG)
        a, _ = bayes_update(a, fpfs, obs2, True, None, CFG)
        b, _ = bayes_update(prior, fpfs, obs2, True, None, CFG)
        b, _ = bayes_update(b, fpfs, obs1, False, 4, CFG)
        assert np.allclose(a.probs, b.probs, atol=1e-12)

    def test_success_never_raises_matching_active_mass(self):
        model, _ = fitted_model(silent_rows=(2,))
        exact = model.on(np.arange(3)).mean.copy()
        obs = make_obs(F=3, T=10, counts=exact, sensors=np.zeros((1, 10)))
        prior = Belief(np.array([0.4, 0.4, 0.2]))
        posterior, _ = bayes_update(prior, {"s": model}, obs, True, None, CFG)
        assert posterior.probs[0] <= prior.probs[0]
        assert posterior.probs[1] <= prior.probs[1]

    def test_time_judged_at(self):
        # a failure is judged at its t_fail, a success at T - 1 = 9 whatever is passed
        model, obs = self._setup()
        for success, t_fail, expected in [(False, 0, 0), (False, 6, 6), (True, None, 9),
                                          (True, 0, 9), (True, 6, 9)]:
            _, t_used = bayes_update(Belief.uniform(3), {"s": model}, obs, success, t_fail, CFG)
            assert t_used == expected

    def test_missing_model_rejected(self):
        _, obs = self._setup()
        with pytest.raises(ValidationError):
            bayes_update(Belief.uniform(3), {}, obs, False, 1, CFG)

    def test_failure_requires_t_fail(self):
        model, obs = self._setup()
        with pytest.raises(ValidationError):
            bayes_update(Belief.uniform(3), {"s": model}, obs, False, None, CFG)

    def test_update_builds_no_all_time_grid(self, monkeypatch):
        # a real execution is judged at one failure time, so no grid is needed
        import blamebox.fpf as fpf_mod

        def no_grid(*args, **kwargs):
            raise AssertionError("bayes_update built an all-T deviation grid")

        monkeypatch.setattr(fpf_mod, "deviation_grid", no_grid)
        model, obs = self._setup()
        for success, t_fail in ((False, 6), (True, None)):
            posterior, _ = bayes_update(Belief.uniform(3), {"s": model}, obs,
                                        success, t_fail, CFG)
            assert abs(posterior.probs.sum() - 1.0) <= 1e-9

    def test_update_reads_a_window_sized_grid(self, monkeypatch):
        # the update sums its window with the planner's kernel, over the
        # blame window alone, not over the whole run
        import blamebox.fpf as fpf_mod
        kernel, lengths = fpf_mod._window_sums, []

        def spy(y, r, W):
            lengths.append(y.shape[0])
            return kernel(y, r, W)

        monkeypatch.setattr(fpf_mod, "_window_sums", spy)
        T = 400
        model, stacks = fitted_model(T=T)
        obs = make_obs(F=3, T=T, counts=stacks[0], sensors=np.zeros((1, T)))
        for success, t_fail in ((False, 200), (True, None)):
            lengths.clear()
            bayes_update(Belief.uniform(3), {"s": model}, obs, success, t_fail, CFG)
            assert lengths and max(lengths) <= CFG.window_steps

    @pytest.mark.parametrize("F,T", [(2, 10), (3, 9)], ids=["other-F", "other-T"])
    def test_fingerprint_of_another_shape_rejected(self, F, T):
        model, _ = self._setup()
        obs = make_obs(F=F, T=T, counts=np.ones((F, T)), sensors=np.zeros((1, T)))
        with pytest.raises(ValidationError, match=rf"\({F}, {T}\).*\(3, 10\)"):
            bayes_update(Belief.uniform(3), {"s": model}, obs, False, 5, CFG)
