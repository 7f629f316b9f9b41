import tracemalloc

import numpy as np
import pytest

from blamebox import (Belief, BlameConfig, ExperienceDb,
                      ExecutorError, FunctionRegistry, MomBundle, PlannerConfig, SkillCache,
                      ValidationError, bayes_update, entropy,
                      information_gain_stats,
                      run_testing_loop, select_skill)
from blamebox.harness import (SimExecutor, SimSkillSpec, SimWorld, build_database,
                              built_in_scenario)
from blamebox.blame import combine_deviation
from blamebox.core import Fingerprint, Observation, SensorSeries
from blamebox.fpf import _window_sums, deviation_grid, fit_fpf
from blamebox.mom import ErrorStats, MomConfig, init_model
import blamebox.planner as planner_mod
from blamebox.planner import _posterior_entropies, _sampled_entropies

CFG = BlameConfig(alpha=0.2, window_steps=3)
PLAN = PlannerConfig(samples_per_observation=64, seed=0)


def toy_setup(used_by_skill, F=2, T=4, n=3, seed=0, mu=2.0, sigma=0.4):
    registry = FunctionRegistry([f"f{i+1}" for i in range(F)])
    specs = {
        s: SimSkillSpec(skill=s, used_functions=fns, count_mu=mu, count_sigma=sigma, T=T)
        for s, fns in used_by_skill.items()
    }
    rng = np.random.default_rng(seed)
    dbs = {s: build_database(specs[s], registry, rng, n) for s in specs}
    fpfs = {s: fit_fpf(dbs[s], CFG) for s in specs}
    return registry, specs, dbs, fpfs


def caches_of(dbs, fpfs, skills):
    """The skills' caches, in the order of ``skills``."""
    return {s: SkillCache(dbs[s], fpfs[s], CFG) for s in skills}


def enumerate_expected_entropy(belief, db, fpf, blame):
    """Exact expected posterior entropy of the uniform (success, t_fail)
    sampler: success outcomes use the final timestep, failure outcomes range
    over every timestep with equal weight."""
    T = fpf.T
    total = 0.0
    for obs in db.observations:
        h_succ = entropy(bayes_update(belief, {db.skill: fpf}, obs, True, None, blame)[0])
        h_fail = [entropy(bayes_update(belief, {db.skill: fpf}, obs, False, t, blame)[0])
                  for t in range(T)]
        total += 0.5 * h_succ + 0.5 * float(np.mean(h_fail))
    return total / len(db.observations)


def full_registry_entropies(belief, db, fpf, samples, seed):
    """Sampled posterior entropies with the deviation grid over every registry
    row and the per-function normalization, from the same draws as
    ``_sampled_entropies``; also returns the success draws."""
    n, T = len(db), fpf.T
    rng = np.random.default_rng(seed)
    succ = rng.integers(0, 2, size=(n, samples)).astype(bool)
    t_eff = np.where(succ, T - 1, rng.integers(0, T, size=(n, samples)))
    rows = np.arange(fpf.F)
    pd, inactive = deviation_grid(fpf.on(rows), db.counts_stack(rows), CFG).at(
        t_eff, np.arange(n)[:, None])
    lik = np.where(succ[:, :, None], combine_deviation(pd, inactive, True, CFG),
                   combine_deviation(pd, inactive, False, CFG))
    w = lik * belief.probs
    w /= w.sum(axis=2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.where(w > 0, w * np.log(w), 0.0).sum(axis=2).ravel(), succ


def gathered_entropies(belief, cache, samples, seed):
    """``_sampled_entropies`` with every sampled time, successes' T - 1
    included, gathered from the grid, from the same draws and with the same
    arithmetic: row sums by ``np.add.reduceat``, and the off-support sums as
    the belief's totals minus the support's, in long double."""
    n, T, R = len(cache.db), cache.fpf.T, cache.support.size
    rng = np.random.default_rng(seed)
    succ = rng.integers(0, 2, size=(n, samples)).astype(bool)
    t_eff = np.where(succ, T - 1, rng.integers(0, T, size=(n, samples)))
    pd, inactive = cache.grid.at(t_eff, np.arange(n)[:, None])
    lik = np.where(succ[:, :, None], combine_deviation(pd, inactive, True, CFG),
                   combine_deviation(pd, inactive, False, CFG)).ravel()
    c = np.where(succ, combine_deviation(0.0, True, True, CFG),
                 combine_deviation(0.0, True, False, CFG)).ravel()
    p, rows = belief.probs, np.arange(0, lik.size, R)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(p), 0.0)
        ld = np.longdouble
        mass_out = float(max(p.sum(dtype=ld) - np.add.reduceat(p[cache.support].astype(ld),
                                                               [0])[0], 0.0))
        plogp_out = float(plogp.sum(dtype=ld) - np.add.reduceat(
            plogp[cache.support].astype(ld), [0])[0]) if mass_out > 0 else 0.0
        w = lik * np.tile(p[cache.support], n * samples)
        z = np.add.reduceat(w, rows) + c * mass_out
        w /= np.repeat(z, R)
        q = c / z
        terms = np.where(w > 0, w * np.log(w), 0.0)
        return -(np.add.reduceat(terms, rows) + q * (plogp_out + np.log(q) * mass_out))


class TestExpectedInformationGain:
    def test_point_mass_is_exactly_zero(self):
        _, _, dbs, fpfs = toy_setup({"s1": ("f1", "f2")})
        belief = Belief(np.array([1.0, 0.0]))
        g = information_gain_stats(belief, dbs["s1"], fpfs["s1"], PLAN, CFG,
                                   np.random.default_rng(0)).gain
        assert abs(g) <= 1e-9

    def test_sampled_matches_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        zscores = []
        for case in range(12):
            _, _, dbs, fpfs = toy_setup({"s1": ("f2",)}, seed=case)
            belief = Belief(rng.dirichlet(np.ones(2)))
            exact = entropy(belief) - enumerate_expected_entropy(
                belief, dbs["s1"], fpfs["s1"], CFG)
            plan = PlannerConfig(samples_per_observation=512, seed=0)
            est = information_gain_stats(belief, dbs["s1"], fpfs["s1"], plan, CFG,
                                         np.random.default_rng(1000 + case))
            zscores.append(abs(est.gain - exact) / max(est.stderr, 1e-12))
        assert sum(1 for z in zscores if z <= 3.0) >= 11, zscores
        assert max(zscores) <= 4.5

    def test_positive_for_discriminating_skill(self):
        _, _, dbs, fpfs = toy_setup({"s1": ("f2",)})
        belief = Belief(np.array([0.5, 0.5]))
        g = information_gain_stats(belief, dbs["s1"], fpfs["s1"], PLAN, CFG,
                                   np.random.default_rng(3)).gain
        assert g > 0.1

    def test_disjoint_support_gains_nothing(self):
        registry, _, dbs, fpfs = toy_setup({"s1": ("f3", "f4")}, F=4)
        belief = Belief(np.array([0.5, 0.5, 0.0, 0.0]))
        est = information_gain_stats(belief, dbs["s1"], fpfs["s1"], PLAN, CFG,
                                     np.random.default_rng(4))
        assert abs(est.gain) <= max(3.0 * est.stderr, 1e-6)

    def test_nonnegative_at_uniform(self):
        for seed in range(5):
            _, _, dbs, fpfs = toy_setup({"s1": ("f1", "f2")}, F=3, seed=seed)
            est = information_gain_stats(Belief.uniform(3), dbs["s1"], fpfs["s1"],
                                         PLAN, CFG, np.random.default_rng(seed))
            assert est.gain >= -3.0 * est.stderr

    def test_cache_reuse_identical(self):
        _, _, dbs, fpfs = toy_setup({"s1": ("f1",)})
        cache = SkillCache(dbs["s1"], fpfs["s1"], CFG)
        belief = Belief(np.array([0.7, 0.3]))
        a = information_gain_stats(belief, dbs["s1"], fpfs["s1"], PLAN, CFG,
                                   np.random.default_rng(9)).gain
        b = information_gain_stats(belief, dbs["s1"], fpfs["s1"], PLAN, CFG,
                                   np.random.default_rng(9), cache=cache).gain
        assert a == b

    def test_sampled_entropies_gather_from_every_column(self):
        # erf on the sampled support columns plus the closed-form block for the
        # rest must equal a grid over every registry row
        _, _, dbs, fpfs = toy_setup({"s1": ("f1", "f2")}, F=3, T=9, n=4, seed=3)
        cache = SkillCache(dbs["s1"], fpfs["s1"], CFG)
        belief = Belief(np.array([0.5, 0.3, 0.2]))
        got = _sampled_entropies(belief, cache, CFG, 5, np.random.default_rng(6))
        expected, _ = full_registry_entropies(belief, dbs["s1"], fpfs["s1"], 5, 6)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_success_column_cached_bit_for_bit(self, seed):
        _, _, dbs, fpfs = toy_setup({"s1": ("f1", "f3")}, F=4, T=10, n=5, seed=seed)
        cache = SkillCache(dbs["s1"], fpfs["s1"], CFG)
        pd, inactive = cache.grid.at(9, np.arange(5))
        assert np.array_equal(cache.success_lik, combine_deviation(pd, inactive, True, CFG))
        belief = Belief(np.array([0.4, 0.3, 0.2, 0.1]))
        got = _sampled_entropies(belief, cache, CFG, 16, np.random.default_rng(seed))
        assert np.array_equal(got, gathered_entropies(belief, cache, 16, seed))
        # from three support functions on, ndarray.sum adds a row in another
        # order than np.add.reduceat, so only a wider skill pins the order
        _, _, dbs, fpfs = toy_setup({"s1": ("f1", "f2", "f4", "f5", "f7")}, F=7, T=10, n=5,
                                    seed=seed)
        cache = SkillCache(dbs["s1"], fpfs["s1"], CFG)
        assert cache.support.size == 5
        belief = Belief(np.random.default_rng(seed).dirichlet(np.ones(7)))
        got = _sampled_entropies(belief, cache, CFG, 16, np.random.default_rng(seed))
        assert np.array_equal(got, gathered_entropies(belief, cache, 16, seed))

    def test_support_block_matches_full_registry(self):
        _, _, dbs, fpfs = toy_setup({"s1": ("f2", "f3", "f5")}, F=6, T=12, n=5, seed=7)
        cache = SkillCache(dbs["s1"], fpfs["s1"], CFG)
        assert list(cache.support) == [1, 2, 4]
        # zero mass on f2 (in the support) and on f4 (outside it)
        belief = Belief(np.array([0.2, 0.0, 0.3, 0.0, 0.4, 0.1]))
        got = _sampled_entropies(belief, cache, CFG, 16, np.random.default_rng(8))
        expected, succ = full_registry_entropies(belief, dbs["s1"], fpfs["s1"], 16, 8)
        assert succ.any() and not succ.all()
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_support_includes_rows_the_model_expects(self):
        # a model fitted elsewhere can expect calls the scored runs never made
        _, _, dbs, fpfs = toy_setup({"s1": ("f1", "f3"), "s2": ("f1",)}, F=4, T=8, n=4)
        cache = SkillCache(dbs["s2"], fpfs["s1"], CFG)
        assert list(cache.support) == [0, 2]
        assert list(dbs["s2"].support) == [0]
        assert np.array_equal(cache.grid.exec_mean[:, :, 1], np.zeros((8, 4)))
        belief = Belief(np.array([0.1, 0.2, 0.3, 0.4]))
        got = _sampled_entropies(belief, cache, CFG, 8, np.random.default_rng(2))
        expected, _ = full_registry_entropies(belief, dbs["s2"], fpfs["s1"], 8, 2)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_grid_covers_only_the_support(self):
        _, _, dbs, fpfs = toy_setup({"s1": ("f2", "f4")}, F=7, T=6)
        cache = SkillCache(dbs["s1"], fpfs["s1"], CFG)
        assert list(cache.support) == [1, 3]
        assert cache.grid.mean.shape[1] == cache.grid.exec_mean.shape[2] == 2

    def test_empty_support_gains_nothing(self):
        registry, _, dbs, _ = toy_setup({"s1": ("f1",)}, F=3, T=6)
        zeros = [Observation(sensors=o.sensors, skill="s1", success=True,
                             fingerprint=Fingerprint(np.zeros((3, 6)), dt=o.fingerprint.dt))
                 for o in dbs["s1"].observations]
        db = ExperienceDb.from_observations("s1", zeros, registry)
        fpf = fit_fpf(db, CFG)
        cache = SkillCache(db, fpf, CFG)
        assert cache.support.size == 0
        est = information_gain_stats(Belief(np.array([0.6, 0.4, 0.0])), db, fpf, PLAN, CFG,
                                     np.random.default_rng(0), cache=cache)
        assert abs(est.gain) <= 1e-12

    def test_belief_of_another_registry_rejected(self):
        _, _, dbs, fpfs = toy_setup({"s1": ("f1",)})
        with pytest.raises(ValidationError):
            information_gain_stats(Belief.uniform(3), dbs["s1"], fpfs["s1"], PLAN, CFG,
                                   np.random.default_rng(0))

    def test_empty_db_rejected(self):
        with pytest.raises(ValidationError):
            ExperienceDb(skill="s1", observations=())


class TestSelectSkill:
    def test_single_skill(self):
        _, _, dbs, fpfs = toy_setup({"s1": ("f1",)})
        chosen, est, gains = select_skill(Belief.uniform(2), caches_of(dbs, fpfs, ("s1",)),
                                          PLAN, CFG, np.random.default_rng(0))
        assert chosen == "s1" and set(gains) == {"s1"}

    def test_tie_breaks_to_lowest_index(self, monkeypatch):
        _, _, dbs, fpfs = toy_setup({"s1": ("f1",), "s2": ("f1",)})
        monkeypatch.setattr(
            planner_mod, "_gain_estimates",
            lambda belief, caches, *a, **k: [
                planner_mod.GainEstimate(gain=0.25, stderr=0.0, n_samples=1)] * len(caches))
        chosen, _, _ = select_skill(Belief.uniform(2), caches_of(dbs, fpfs, ("s2", "s1")),
                                    PLAN, CFG, np.random.default_rng(0))
        assert chosen == "s2"  # first in the given ordering

    def test_each_gain_is_the_skills_own(self):
        # skills that differ in support, database size and T, scored in one
        # step, each get the gain their own evaluation gives from their stream
        caches = {}
        for skill, used, T, n in (("s1", ("f1", "f2"), 6, 4), ("s2", ("f3",), 9, 7),
                                  ("s3", ("f2", "f4", "f5"), 5, 3)):
            _, _, dbs, fpfs = toy_setup({skill: used}, F=6, T=T, n=n, seed=T)
            caches[skill] = SkillCache(dbs[skill], fpfs[skill], CFG)
        assert len({c.support.size for c in caches.values()}) == 3
        belief = Belief(np.random.default_rng(5).dirichlet(np.ones(6)))
        _, _, gains = select_skill(belief, caches, PLAN, CFG, np.random.default_rng(7))
        streams = np.random.default_rng(7).spawn(3)
        for (skill, c), stream in zip(caches.items(), streams):
            own = information_gain_stats(belief, c.db, c.fpf, PLAN, CFG, stream, cache=c)
            assert gains[skill].n_samples == own.n_samples == len(c.db) * 64
            assert abs(gains[skill].gain - own.gain) <= 1e-12
            assert abs(gains[skill].stderr - own.stderr) <= 1e-12

    @pytest.mark.parametrize("probs", [
        [0.0, 0.3, 0.0, 0.2, 0.5, 0.0],     # s1's support holds all the mass
        [0.3, 0.0, 0.1, 0.2, 0.15, 0.25],   # zero on part of s1's and s2's supports
    ])
    def test_one_pass_matches_full_registry(self, probs):
        _, _, dbs, fpfs = toy_setup({"s1": ("f2", "f4", "f5"), "s2": ("f2", "f4"),
                                     "s3": ("f1",)}, F=6, T=7, n=4, seed=2)
        registry, _, _, _ = toy_setup({"s1": ("f1",)}, F=6, T=7, n=4)
        # a skill whose runs call nothing has an empty support
        empty = ExperienceDb.from_observations("s3", [
            Observation(sensors=None, skill="s3", success=True,
                        fingerprint=Fingerprint(np.zeros((6, 7)), dt=o.fingerprint.dt))
            for o in dbs["s3"].observations], registry)
        pairs = [(dbs["s1"], fpfs["s1"]), (empty, fit_fpf(empty, CFG)), (dbs["s2"], fpfs["s2"])]
        caches = [SkillCache(db, fpf, CFG) for db, fpf in pairs]
        assert [c.support.size for c in caches] == [3, 0, 2]
        belief = Belief(np.array(probs))
        h, rows, prior = _posterior_entropies(belief, caches, CFG, 6,
                                              [np.random.default_rng(s) for s in (1, 2, 3)])
        assert np.isfinite(h).all() and list(rows) == [24, 24, 24]
        assert prior == pytest.approx(entropy(belief), abs=1e-15)
        for (db, fpf), block, seed in zip(pairs, np.split(h, 3), (1, 2, 3)):
            expected, _ = full_registry_entropies(belief, db, fpf, 6, seed)
            np.testing.assert_allclose(block, expected, rtol=0, atol=1e-12)

    def test_discriminating_skill_wins(self):
        _, _, dbs, fpfs = toy_setup({"s1": ("f1", "f2"), "s2": ("f2",)}, F=3)
        belief = Belief(np.array([0.5, 0.5, 0.0]))
        chosen, _, gains = select_skill(belief, caches_of(dbs, fpfs, ("s1", "s2")), PLAN, CFG,
                                        np.random.default_rng(2))
        assert chosen == "s2"
        assert gains["s2"].gain > gains["s1"].gain


class TestLoop:
    def _world(self, used_by_skill, buggy, F=4, seed=0, n=20):
        registry, specs, dbs, _ = toy_setup(used_by_skill, F=F, T=8, n=n, seed=seed)
        world = SimWorld(registry=registry, buggy_functions=frozenset(buggy))
        executor = SimExecutor(specs, world, seed=seed + 100)
        return registry, executor, dbs

    def test_identifies_buggy_function(self):
        registry, executor, dbs = self._world(
            {"s1": ("f1", "f2"), "s2": ("f2", "f3")}, buggy=("f2",))
        plan = PlannerConfig(samples_per_observation=16, max_iterations=30, seed=3)
        belief, trace = run_testing_loop(executor, dbs, None, plan, CFG)
        assert registry.names[int(np.argmax(belief.probs))] == "f2"
        assert trace.aborted is None

    def test_deterministic_given_seed(self):
        def run():
            _, executor, dbs = self._world(
                {"s1": ("f1", "f2"), "s2": ("f2", "f3")}, buggy=("f2",))
            plan = PlannerConfig(samples_per_observation=8, max_iterations=12, seed=5)
            return run_testing_loop(executor, dbs, None, plan, CFG)

        (b1, t1), (b2, t2) = run(), run()
        assert np.array_equal(b1.probs, b2.probs)
        assert [s.chosen for s in t1.steps] == [s.chosen for s in t2.steps]
        for a, b in zip(t1.steps, t2.steps):
            assert np.array_equal(a.posterior, b.posterior)
            assert a.gains == b.gains

    def test_bug_free_world_suppresses_used_functions(self):
        registry, executor, dbs = self._world(
            {"s1": ("f1", "f2")}, buggy=(), F=4)
        plan = PlannerConfig(samples_per_observation=8, max_iterations=6,
                             convergence_epsilon=1e-12, seed=1)
        belief, trace = run_testing_loop(executor, dbs, None, plan, CFG)
        assert all(s.success for s in trace.steps)
        used = belief.probs[[0, 1]]
        untouched = belief.probs[[2, 3]]
        assert used.max() < untouched.min()

    def test_terminates_at_max_iterations(self):
        _, executor, dbs = self._world({"s1": ("f1", "f2")}, buggy=("f1",))
        plan = PlannerConfig(samples_per_observation=4, max_iterations=5,
                             convergence_epsilon=1e-12, seed=0)
        _, trace = run_testing_loop(executor, dbs, None, plan, CFG)
        assert len(trace.steps) == 5 and not trace.converged

    def test_converges_and_stops(self):
        _, executor, dbs = self._world(
            {"s1": ("f1", "f2"), "s2": ("f2", "f3")}, buggy=("f2",))
        plan = PlannerConfig(samples_per_observation=16, max_iterations=50, seed=2)
        _, trace = run_testing_loop(executor, dbs, None, plan, CFG)
        assert trace.converged
        assert len(trace.steps) < 50

    def test_executor_failure_aborts_with_trace(self):
        class Flaky:
            def __init__(self, inner, fail_after):
                self.inner, self.n, self.fail_after = inner, 0, fail_after

            def execute(self, skill):
                self.n += 1
                if self.n > self.fail_after:
                    raise ExecutorError("hardware unavailable")
                return self.inner.execute(skill)

        _, executor, dbs = self._world({"s1": ("f1", "f2")}, buggy=("f1",))
        plan = PlannerConfig(samples_per_observation=4, max_iterations=10,
                             convergence_epsilon=1e-12, seed=0)
        _, trace = run_testing_loop(Flaky(executor, 3), dbs, None, plan, CFG)
        assert trace.aborted == "hardware unavailable"
        assert len(trace.steps) == 3

    def test_skills_in_the_order_of_the_databases(self):
        _, executor, dbs = self._world({"s1": ("f1", "f2"), "s2": ("f2", "f3")},
                                       buggy=("f2",))
        plan = PlannerConfig(samples_per_observation=4, max_iterations=2, seed=0)
        _, trace = run_testing_loop(executor, {"s2": dbs["s2"], "s1": dbs["s1"]}, None,
                                    plan, CFG)
        assert trace.skills == ("s2", "s1") and trace.steps
        assert all(list(step.gains) == ["s2", "s1"] for step in trace.steps)

    def test_registries_of_another_size_name_both_skills(self):
        _, executor, dbs = self._world({"s1": ("f1", "f2")}, buggy=("f1",), F=5)
        _, _, wider, _ = toy_setup({"s2": ("f2", "f3")}, F=7, T=8, n=4)
        with pytest.raises(ValidationError, match="^the database of skill 's2' covers 7 "
                                                  "functions, that of skill 's1' 5$"):
            run_testing_loop(executor, {**dbs, **wider}, None, PLAN, CFG)

    def test_epsilon_mass_stays_suppressed(self):
        registry, executor, dbs = self._world(
            {"s1": ("f1", "f2"), "s2": ("f3",)}, buggy=("f1",), F=4)
        plan = PlannerConfig(samples_per_observation=8, max_iterations=20, seed=4)
        belief, trace = run_testing_loop(executor, dbs, None, plan, CFG)
        # f4 is never used by any skill: failures clear it and it must not recover
        assert belief.probs[3] < 1e-3


class TestExecutionResultTFail:
    def test_loop_uses_executor_t_fail_without_detector(self):
        _, executor, dbs = self._records()
        plan = PlannerConfig(samples_per_observation=4, max_iterations=1, seed=0)
        _, trace = run_testing_loop(executor, dbs, None, plan, CFG)
        assert trace.steps[0].t_fail == 5

    def test_detector_of_another_sensor_dimension_rejected(self):
        _, executor, dbs = self._records()
        D = executor.execute("s1").sensors.D
        model = init_model(D + 2, MomConfig(bottleneck=2, seed=0))
        stats = ErrorStats(mu=np.zeros(8), sigma=np.ones(8))
        plan = PlannerConfig(samples_per_observation=4, max_iterations=1, seed=0)
        with pytest.raises(ValidationError, match="D="):
            run_testing_loop(executor, dbs, {"s1": MomBundle(model, stats)}, plan, CFG)

    def test_detector_for_a_skill_without_database_rejected(self):
        _, executor, dbs = self._records()
        model = init_model(3, MomConfig(bottleneck=2, seed=0))
        bundle = MomBundle(model, ErrorStats(mu=np.zeros(8), sigma=np.ones(8)))
        with pytest.raises(ValidationError, match="skill 'S1-typo', which has no"):
            run_testing_loop(executor, dbs, {"S1-typo": bundle}, PLAN, CFG)

    def test_detector_needs_sensors(self):
        _, executor, dbs = self._records(sensors=False)
        model = init_model(3, MomConfig(bottleneck=2, seed=0))
        bundle = MomBundle(model, ErrorStats(mu=np.zeros(8), sigma=np.ones(8)))
        plan = PlannerConfig(samples_per_observation=4, max_iterations=1, seed=0)
        with pytest.raises(ValidationError, match="skill 's1' carries no sensor data"):
            run_testing_loop(executor, dbs, {"s1": bundle}, plan, CFG)
        assert run_testing_loop(executor, dbs, None, plan, CFG)[1].steps[0].t_fail == 5

    def test_detector_without_error_stats_rejected(self):
        model = init_model(3, MomConfig(bottleneck=2))
        with pytest.raises(ValidationError, match="needs its error statistics, found NoneType"):
            MomBundle(model, None)

    @pytest.mark.parametrize("T_run,t_fail,expected", [(11, 9, 7), (11, 5, 5), (6, 5, 5)])
    def test_run_of_another_length_is_cut_or_padded(self, T_run, t_fail, expected):
        # the databases hold T = 8; a failure time past that end is taken at 7
        _, executor, dbs = self._records(T_run, t_fail)
        plan = PlannerConfig(samples_per_observation=4, max_iterations=1, seed=0)
        _, trace = run_testing_loop(executor, dbs, None, plan, CFG)
        assert trace.steps[0].t_fail == expected

    @pytest.mark.parametrize("bad,match", [
        (-1.0, r"negative count -1.0 at function 0, timestep 3$"),
        (np.nan, r"non-finite count at function 0, timestep 3$"),
    ], ids=["negative", "nan"])
    def test_malformed_run_rejected_citing_its_cell(self, bad, match):
        _, executor, dbs = self._records(bad_count=bad)
        plan = PlannerConfig(samples_per_observation=4, max_iterations=1, seed=0)
        with pytest.raises(ValidationError, match=match):
            run_testing_loop(executor, dbs, None, plan, CFG)

    def test_run_of_another_skill_rejected(self):
        _, executor, dbs = self._records(skill="s2")
        plan = PlannerConfig(samples_per_observation=4, max_iterations=1, seed=0)
        with pytest.raises(ValidationError, match="skill 's1' with a run of skill 's2'"):
            run_testing_loop(executor, dbs, None, plan, CFG)

    def _records(self, T_run=8, t_fail=5, bad_count=None, skill="s1", sensors=True):
        registry, _, dbs, _ = toy_setup({"s1": ("f1",)}, F=2, T=8)

        class Fixed:
            def execute(self, _):
                obs = dbs["s1"].observations[0]
                # one sensor channel, for the detector tests
                series = SensorSeries(np.zeros((1, T_run))) if sensors else None
                counts = np.hstack([obs.fingerprint.counts] * 2)[:, :T_run]
                if bad_count is not None:
                    counts[0, 3] = bad_count
                return Observation(sensors=series, fingerprint=Fingerprint(counts),
                                   success=False, skill=skill, t_fail=t_fail)

        return registry, Fixed(), dbs


def long_horizon_db(seed=1):
    """fig3's widest skill (4 of 241 functions, 70 runs) at the long-horizon
    length, and the blame configuration of its sampling interval."""
    scen = built_in_scenario("fig3", seed)
    skill, fns = max(scen.skills, key=lambda sk: len(sk[1]))
    spec = SimSkillSpec(skill=skill, used_functions=fns, count_mu=scen.count_mu,
                        count_sigma=scen.count_sigma, T=400, dt=scen.dt)
    db = build_database(spec, FunctionRegistry(scen.functions), np.random.default_rng(seed),
                        scen.db_size)
    return db, scen.resolved_blame()


def ragged_db():
    """Runs of different lengths, each calling a different part of the
    support; the run of 34 steps calls f11 only past the canonical length 30."""
    rng = np.random.default_rng(5)
    obs = []
    for i, T in enumerate([30, 34, 27, 30, 31, 29, 33]):
        counts = np.zeros((12, T))
        for f in (1, 3, 4, 7, 9):
            if (f + i) % 3:
                counts[f] = rng.poisson(2.0, T)
        if T == 34:
            counts[11, 32:] = 5.0
        obs.append(Observation(sensors=None, fingerprint=Fingerprint(counts, dt=0.05),
                               success=True, skill="s"))
    return ExperienceDb("s", obs)


def _bits(a):
    return a.shape, a.dtype, a.tobytes()


def _kept_bytes(cache):
    """Bytes of the distinct arrays a cache holds: its model, grid and
    success likelihoods (a grid field may be a view of a shared buffer)."""
    arrays = [cache.fpf.mean, cache.fpf.var, cache.support, cache.success_lik,
              *(getattr(cache.grid, name) for name in
                ("mean", "var", "exec_mean", "model_active", "exec_active"))]
    bases = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        bases[id(a)] = a.nbytes
    return sum(bases.values())


def _traced_peak(build):
    """(result, peak bytes traced above the start) of ``build()``."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestOneStackPerSkill:
    """The loop's caches fit the model and build the grid from one counts stack."""

    @pytest.mark.parametrize("make", [long_horizon_db, lambda: (ragged_db(), CFG)],
                             ids=["long-horizon", "ragged"])
    def test_loop_cache_equals_cache_of_fitted_model(self, make):
        db, cfg = make()
        got, want = SkillCache(db, None, cfg), SkillCache(db, fit_fpf(db, cfg), cfg)
        for name in ("mean", "var", "exec_mean", "model_active", "exec_active"):
            assert _bits(getattr(got.grid, name)) == _bits(getattr(want.grid, name)), name
        assert _bits(got.success_lik) == _bits(want.success_lik)
        assert _bits(got.support) == _bits(want.support)
        for name in ("mean", "var", "support"):
            assert _bits(getattr(got.fpf, name)) == _bits(getattr(want.fpf, name)), name

    def test_ragged_runs_are_canonicalized_first(self):
        db = ragged_db()
        assert db.canonical_T == 30 and 11 not in db.support
        assert SkillCache(db, None, CFG).grid.exec_mean.shape == (30, 7, db.support.size)

    def test_loop_builds_one_stack_per_skill(self, monkeypatch):
        _, _, dbs, _ = toy_setup({"s1": ("f1", "f2"), "s2": ("f2", "f3")}, F=4, T=8, n=6)
        built = []
        original = ExperienceDb.counts_stack

        def counted(self, rows):
            built.append(self.skill)
            return original(self, rows)

        monkeypatch.setattr(ExperienceDb, "counts_stack", counted)
        plan = PlannerConfig(samples_per_observation=4, max_iterations=1, seed=0)

        class Failing:
            def execute(self, _):
                raise ExecutorError("stop")

        run_testing_loop(Failing(), dbs, None, plan, CFG)
        assert built == ["s1", "s2"]

    def test_stack_allocates_only_itself(self):
        db, _ = long_horizon_db()
        stack, peak = _traced_peak(lambda: db.counts_stack(db.support))
        run = stack[0].nbytes
        assert peak < stack.nbytes + run + 32 * 1024

    def test_fit_allocates_one_stack_and_a_few_model_rows(self):
        db, cfg = long_horizon_db()
        model, peak = _traced_peak(lambda: fit_fpf(db, cfg))
        assert peak < db.counts_stack(db.support).nbytes + 8 * model.mean.nbytes + 32 * 1024

    def test_cache_peak_is_what_it_keeps_plus_one_stack(self):
        # beside the kept arrays and the one stack, only the window kernel's
        # own scratch may be live: no second stack, no stack-sized temporary,
        # no second copy of the model
        db, cfg = long_horizon_db()
        n, R, T = len(db), db.support.size, db.canonical_T
        stack_bytes = n * R * T * 8
        grid_buffer = np.ones((T, n + 1, R))
        _, scratch = _traced_peak(lambda: _window_sums(grid_buffer, 0.5, cfg.window_steps))
        del grid_buffer
        cache, peak = _traced_peak(lambda: SkillCache(db, None, cfg))
        assert peak < _kept_bytes(cache) + stack_bytes + scratch


def grouped_dbs():
    """Skills whose same-shape groups interleave in skill order: s1 and s3
    share (6, 2, 8) with different supports, s2 and s4 share (6, 3, 8), s5
    stands alone, and z1, z2 are all-zero databases (|S| = 0) of one shape."""
    registry, _, dbs, _ = toy_setup({"s1": ("f1", "f2"), "s2": ("f2", "f3", "f4"),
                                     "s3": ("f5", "f6"), "s4": ("f1", "f5", "f6"),
                                     "s5": ("f3",)}, F=6, T=8, n=6, seed=4)
    for name in ("z1", "z2"):
        dbs[name] = ExperienceDb.from_observations(name, [
            Observation(sensors=None, skill=name, success=True,
                        fingerprint=Fingerprint(np.zeros((6, 8)), dt=o.fingerprint.dt))
            for o in dbs["s5"].observations], registry)
    return dbs


class TestSkillGroups:
    """The loop builds one grid per group of skills whose counts stacks
    share one shape, and a gain evaluation scores a group in one pass."""

    def test_groups_follow_the_stack_shape(self):
        caches = planner_mod._loop_caches(grouped_dbs(), CFG)
        assert [c.support.size for c in caches.values()] == [2, 3, 2, 3, 1, 0, 0]
        groups = {s: id(c._group) for s, c in caches.items()}
        assert groups["s1"] == groups["s3"] and groups["s2"] == groups["s4"]
        assert groups["z1"] == groups["z2"]
        assert len(set(groups.values())) == 4
        assert list(caches["s1"].support) == [0, 1] and list(caches["s3"].support) == [4, 5]

    def test_loop_caches_equal_caches_built_alone(self):
        dbs = grouped_dbs()
        for skill, got in planner_mod._loop_caches(dbs, CFG).items():
            want = SkillCache(dbs[skill], fit_fpf(dbs[skill], CFG), CFG)
            assert got.db is dbs[skill]
            for name in ("mean", "var", "exec_mean", "model_active", "exec_active"):
                assert _bits(getattr(got.grid, name)) == _bits(getattr(want.grid, name)), \
                    (skill, name)
            assert _bits(got.success_lik) == _bits(want.success_lik), skill
            assert _bits(got.support) == _bits(want.support), skill
            for name in ("mean", "var", "support"):
                assert _bits(getattr(got.fpf, name)) == _bits(getattr(want.fpf, name)), \
                    (skill, name)

    @pytest.mark.parametrize("skills", [None, ("s4", "z2", "s1", "s2")],
                             ids=["every-skill", "subset"])
    def test_group_pass_equals_each_skill_scored_alone(self, skills):
        dbs = grouped_dbs()
        caches = planner_mod._loop_caches(dbs, CFG)
        skills = skills or tuple(caches)
        belief = Belief(np.random.default_rng(3).dirichlet(np.ones(6)))
        h, rows, prior = _posterior_entropies(belief, [caches[s] for s in skills], CFG, 5,
                                              np.random.default_rng(11).spawn(len(skills)))
        assert prior == pytest.approx(entropy(belief), abs=1e-15)
        assert list(rows) == [len(dbs[s]) * 5 for s in skills]
        blocks = np.split(h, np.cumsum(rows)[:-1])
        for skill, block, stream in zip(skills, blocks,
                                        np.random.default_rng(11).spawn(len(skills))):
            alone = SkillCache(dbs[skill], fit_fpf(dbs[skill], CFG), CFG)
            assert _bits(block) == _bits(_sampled_entropies(belief, alone, CFG, 5, stream)), \
                skill

    def test_group_peak_is_what_it_keeps_plus_one_group_stack(self):
        # four skills of fig3's widest shape at T = 400 form one group; beside
        # the arrays the caches keep, only the group's counts stacks and the
        # window kernel's scratch on the group's buffer may be live
        db, cfg = long_horizon_db()
        dbs = {f"s{k}": ExperienceDb(db.skill, db.observations) for k in range(4)}
        n, R, T = len(db), db.support.size, db.canonical_T
        for d in dbs.values():
            d.support   # computed once per database, before measuring
        group_buffer = np.ones((T, len(dbs), n + 1, R))
        _, scratch = _traced_peak(lambda: _window_sums(group_buffer, 0.5, cfg.window_steps))
        del group_buffer
        caches, peak = _traced_peak(lambda: planner_mod._loop_caches(dbs, cfg))
        assert len({id(c._group) for c in caches.values()}) == 1
        bases = {}
        for cache in caches.values():
            for a in (cache.fpf.mean, cache.fpf.var, cache.support, cache.success_lik,
                      *(getattr(cache.grid, name) for name in
                        ("mean", "var", "exec_mean", "model_active", "exec_active"))):
                while isinstance(a.base, np.ndarray):
                    a = a.base
                bases[id(a)] = a.nbytes
        assert peak < sum(bases.values()) + len(dbs) * n * R * T * 8 + scratch
