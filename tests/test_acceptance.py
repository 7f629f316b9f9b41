"""Acceptance gate: every criterion as one test, at its stated tolerance.

Heavier fixtures (scenario sweeps, the trained observation model) are
module-scoped so each expensive artifact is built once.
"""
import math
import time

import numpy as np
import pytest

from blamebox import (Belief, BlameConfig, MomConfig, PlannerConfig, SkillCache,
                      deviation_mass, entropy, fit_error_stats, fit_fpf,
                      gen_sensor_suite, information_gain_stats, likelihood_vector,
                      run_scenario, train)
from blamebox.blame import bayes_update
from blamebox.core import Fingerprint
from blamebox.harness import SensorSynthSpec, built_in_scenario
from blamebox.mom import detect_failure_time, error_series, loss_and_gradients
from blamebox.planner import _posterior_entropies
from tests.test_fpf import db_from_counts
from tests.test_mom import fd_gradients, max_relative_error, random_params
from tests.test_planner import enumerate_expected_entropy, toy_setup

SEEDS = tuple(range(1, 11))


# ---------------------------------------------------------------------------
# Shared expensive artifacts.

@pytest.fixture(scope="module")
def fig3_runs():
    runs = []
    for seed in SEEDS:
        t0 = time.perf_counter()
        res = run_scenario(built_in_scenario("fig3", seed=seed))
        runs.append((res, time.perf_counter() - t0))
    return runs


@pytest.fixture(scope="module")
def fig4_runs():
    return [run_scenario(built_in_scenario("fig4", seed=seed)) for seed in SEEDS]


@pytest.fixture(scope="module")
def mom_suite():
    spec = SensorSynthSpec()  # D=8, T=200, shift anomaly at 120, magnitude 3x noise
    suite = gen_sensor_suite(spec, n_train=30, n_pos=10, n_neg=10,
                             rng=np.random.default_rng(0))
    config = MomConfig(seed=0)  # defaults: bottleneck 32 capped at D-1, 500 epochs
    t0 = time.perf_counter()
    model = train(list(suite.train), config)
    train_seconds = time.perf_counter() - t0
    stats = fit_error_stats(model, list(suite.train))
    return suite, model, stats, config, train_seconds


def _flag(model, stats, config, seq):
    _, t_fail = detect_failure_time(stats, error_series(model, seq), config)
    return t_fail


# ---------------------------------------------------------------------------
# Criteria.

def test_c01_fig3_reproduction(fig3_runs):
    passes = 0
    for res, seconds in fig3_runs:
        probs = res.belief.probs
        names = res.registry.names
        argmax_is_f2 = names[int(np.argmax(probs))] == "f2"
        outside = max(float(probs[i]) for i, n in enumerate(names)
                      if n not in ("f1", "f2"))
        ok = (argmax_is_f2
              and res.posterior_of("f2") >= 0.95
              and len(res.trace.steps) <= 60
              and outside <= 0.01)
        passes += ok
        assert seconds <= 60.0, f"run took {seconds:.1f}s"
    assert passes >= 9, f"fig3 reproduced in only {passes}/10 seeds"


def test_c02_skill_switch_window(fig3_runs):
    hits = 0
    for res, _ in fig3_runs:
        chosen = [s.chosen for s in res.trace.steps]
        for i in range(1, len(chosen)):
            if chosen[i - 1] == "a1" and chosen[i] == "a2" and 5 <= i + 1 <= 40:
                hits += 1
                break
    assert hits >= 8, f"a1->a2 switch inside steps [5, 40] in only {hits}/10 seeds"


def test_c03_fig4_gain_ordering(fig4_runs):
    majority = 0
    for res in fig4_runs:
        gains = res.trace.steps[0].gains  # evaluated at the uniform prior
        g2, g3, g4 = gains["a2"], gains["a3"], gains["a4"]
        close = abs(g2.gain - g3.gain) <= 2.0 * math.hypot(g2.stderr, g3.stderr)
        above = g2.gain > g4.gain and g3.gain > g4.gain
        majority += close and above
    assert majority >= 6, f"gain ordering held in only {majority}/10 seeds"


def test_c04_fig5_alternation():
    res = run_scenario(built_in_scenario("fig5", seed=1))
    chosen = [s.chosen for s in res.trace.steps]
    window = chosen[2:22]  # loop steps 3..22, 1-indexed
    n_a1, n_a2 = window.count("a1"), window.count("a2")
    assert res.posterior_of("f2") >= 0.95
    assert n_a1 >= 5 and n_a2 >= 5, (
        f"steps 3-22 selected a1 x{n_a1}, a2 x{n_a2} (need >= 5 each)")


def test_c05_exoneration():
    res = run_scenario(built_in_scenario("exoneration", seed=1))
    used_by = dict(res.config.skills)
    buggy = set(res.config.buggy)
    failing = {s for s, fns in used_by.items() if set(fns) & buggy}
    succeeding = set(used_by) - failing
    # every successful execution must drop each used function by >= 10x
    prior = np.full(res.registry.F, 1.0 / res.registry.F)
    for step in res.trace.steps:
        if step.success:
            for fn in used_by[step.chosen]:
                i = res.registry.index(fn)
                assert step.posterior[i] <= prior[i] / 10.0, (
                    f"{fn} dropped only {prior[i] / step.posterior[i]:.1f}x "
                    f"after {step.chosen} succeeded")
        prior = step.posterior
    failing_only = set().union(*(used_by[s] for s in failing)) - \
        set().union(*(used_by[s] for s in succeeding))
    assert set(res.candidates) == failing_only


def test_c06_ambiguity_split():
    res = run_scenario(built_in_scenario("localizer-ambiguity", seed=1))
    group_a = ("localiseObject",)
    group_b = ("planCartesianTrajectory", "cartesianPtp", "computeIk")
    p = {n: res.posterior_of(n) for n in res.registry.names}
    assert max(p.values()) < 0.9, f"a single function reached {max(p.values()):.3f}"
    mass_a = sum(p[n] for n in group_a)
    mass_b = sum(p[n] for n in group_b)
    assert mass_a >= 0.05 and mass_b >= 0.05
    assert mass_a + mass_b >= 0.99


def test_c07_mom_synthetic_detection(mom_suite):
    suite, model, stats, config, train_seconds = mom_suite
    assert train_seconds <= 300.0, f"training took {train_seconds:.0f}s"
    tol = 2 * config.smoothing_window
    neg_flags = [_flag(model, stats, config, s) for s in suite.negative]
    pos_flags = [_flag(model, stats, config, s) for s in suite.positive]
    detected = sum(1 for t in neg_flags
                   if t is not None and abs(t - suite.onset) <= tol)
    false_alarms = sum(1 for t in pos_flags if t is not None)
    assert detected >= 9, f"negatives detected within tolerance: {detected}/10 ({neg_flags})"
    assert false_alarms <= 2, f"positives falsely flagged: {false_alarms}/10 ({pos_flags})"
    # anomalous reconstructions are worse than training ones past the onset
    train_err = np.mean([error_series(model, s)[suite.onset:].mean()
                         for s in suite.train])
    neg_err = np.mean([error_series(model, s)[suite.onset:].mean()
                       for s in suite.negative])
    assert neg_err > train_err


def test_c08_gradient_check():
    rng = np.random.default_rng(2024)
    X = rng.uniform(0.05, 0.95, (2, 3, 5))
    worst = 0.0
    for _ in range(100):
        params = random_params(3, 2, rng)
        _, analytic = loss_and_gradients(params, X)
        numeric = fd_gradients(params, X, step=1e-5)
        worst = max(worst, max_relative_error(analytic, numeric))
    assert worst <= 1e-4, f"max relative gradient error {worst:.2e}"


class TestC09InvariantSuite:
    N = 10_000

    def test_c09a_belief_normalization(self):
        cfg = BlameConfig(alpha=0.2, window_steps=3)
        rng = np.random.default_rng(0)
        stacks = [np.abs(rng.normal(2, 0.5, (3, 8))) for _ in range(10)]
        model = fit_fpf(db_from_counts(stacks), cfg)
        from tests.test_core import make_obs
        for _ in range(self.N):
            obs = make_obs(F=3, T=8, counts=np.abs(rng.normal(2, 1, (3, 8))),
                           sensors=np.zeros((1, 8)))
            belief = Belief(rng.dirichlet(np.full(3, 0.5)))
            posterior, _ = bayes_update(belief, {"s": model}, obs,
                                        bool(rng.integers(2)),
                                        int(rng.integers(8)), cfg)
            assert abs(posterior.probs.sum() - 1.0) <= 1e-9
            assert not np.any(np.isnan(posterior.probs))

    def test_c09b_deviation_mass_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(self.N):
            mean = rng.normal(0, 5)
            var = rng.uniform(1e-6, 9.0)
            d1, d2 = sorted(rng.uniform(0, 40, 2))
            lo, hi = deviation_mass(mean + d1, mean, var), deviation_mass(mean + d2, mean, var)
            assert 0.0 <= lo < 0.5 and 0.0 <= hi < 0.5
            assert hi >= lo
            assert deviation_mass(mean - d1, mean, var) == pytest.approx(lo, abs=1e-15)

    def test_c09c_likelihood_bounds(self):
        cfg = BlameConfig(alpha=0.15, window_steps=4)
        rng = np.random.default_rng(2)
        models = []
        for m in range(20):
            stacks = [np.abs(rng.normal(rng.uniform(1, 3), 0.5, (3, 8)))
                      for _ in range(8)]
            for s in stacks:
                s[2] = 0.0  # one silent function per model
            models.append(fit_fpf(db_from_counts(stacks), cfg))
        per_model = self.N // len(models)
        for model in models:
            for _ in range(per_model):
                probe = np.abs(rng.normal(rng.uniform(0, 4), rng.uniform(0.2, 2), (3, 8)))
                if rng.integers(2):
                    probe[2] = 0.0
                success = bool(rng.integers(2))
                t_fail = int(rng.integers(8))
                lik = likelihood_vector(model, Fingerprint(probe), success, t_fail, cfg)
                assert np.all(lik >= cfg.epsilon_floor) and np.all(lik <= 0.75)
                if not success:
                    t0 = max(0, t_fail - cfg.window_steps + 1)
                    active = probe[:, t0:t_fail + 1].max(axis=1) > 1e-9
                    assert np.all(lik[active] >= 0.5)

    def test_c09d_uniform_entropy(self):
        rng = np.random.default_rng(3)
        for _ in range(self.N):
            k = int(rng.integers(1, 500))
            assert entropy(Belief.uniform(k)) == pytest.approx(math.log(k), abs=1e-12)

    def test_c09e_point_mass_gain_zero(self):
        cfg = BlameConfig(alpha=0.2, window_steps=3)
        _, _, dbs, fpfs = toy_setup({"s1": ("f1", "f2")}, F=2, T=4, n=2)
        cache = SkillCache(dbs["s1"], fpfs["s1"], cfg)
        plan = PlannerConfig(samples_per_observation=2, seed=0)
        rng = np.random.default_rng(4)
        point = Belief(np.array([0.0, 1.0]))
        h0 = entropy(point)
        for _ in range(self.N):
            h_sam = _posterior_entropies(point, [cache], cfg,
                                         plan.samples_per_observation, [rng])[0]
            assert abs(h0 - h_sam.mean()) <= 1e-9

    def test_c09f_eig_matches_enumeration(self):
        cfg = BlameConfig(alpha=0.2, window_steps=3)
        rng = np.random.default_rng(5)
        zscores = []
        for case in range(20):
            _, _, dbs, fpfs = toy_setup({"s1": ("f2",)}, F=2, T=4, n=3, seed=case)
            belief = Belief(rng.dirichlet(np.ones(2)))
            exact = entropy(belief) - enumerate_expected_entropy(
                belief, dbs["s1"], fpfs["s1"], cfg)
            plan = PlannerConfig(samples_per_observation=512, seed=0)
            est = information_gain_stats(belief, dbs["s1"], fpfs["s1"], plan, cfg,
                                         np.random.default_rng(900 + case))
            zscores.append(abs(est.gain - exact) / max(est.stderr, 1e-12))
        # an unbiased estimator stays within 3 SE per case up to multiplicity:
        # allow the expected handful of 3-sigma excursions over 20 cases, but
        # nothing a systematic bias could hide behind
        within = sum(1 for z in zscores if z <= 3.0)
        assert within >= 18, f"only {within}/20 cases within 3 SE: {zscores}"
        assert max(zscores) <= 4.5, f"outlier beyond 4.5 SE: {max(zscores):.2f}"


class TestC10DeterminismPersistence:
    def test_c10a_byte_identical_report_bundle(self, tmp_path):
        from blamebox.cli import main
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert main(["simulate", "--scenario", "fig3", "--seed", "3",
                         "--out", str(out)]) == 0
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted(p.name for p in outs[1].iterdir())
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (
                f"{name} differs between identical runs")

    def test_c10b_round_trips_value_exact(self, tmp_path):
        # exercised in depth in test_store; asserted here as the gate
        from blamebox import (MomBundle, SensorSeries, load_db, load_model,
                              save_db, save_model)
        from tests.test_store import REG, small_db
        db = small_db(seed=3)
        save_db(db, str(tmp_path / "db"), REG)
        loaded = load_db(str(tmp_path / "db"))
        for a, b in zip(db.observations, loaded.observations):
            assert np.array_equal(a.fingerprint.counts, b.fingerprint.counts)
            assert np.array_equal(a.sensors.data, b.sensors.data)

        fpf = fit_fpf(db, BlameConfig())
        save_model(fpf, str(tmp_path / "fpf.json"))
        loaded_fpf = load_model(str(tmp_path / "fpf.json"), expect="fpf")
        assert np.array_equal(loaded_fpf.mean, fpf.mean)
        assert np.array_equal(loaded_fpf.var, fpf.var)

        rng = np.random.default_rng(0)
        seqs = [SensorSeries(rng.uniform(0, 1, (3, 12)), dt=0.1) for _ in range(3)]
        mom = train(seqs, MomConfig(bottleneck=2, epochs=5, seed=1))
        stats = fit_error_stats(mom, seqs)
        save_model(MomBundle(model=mom, error_stats=stats), str(tmp_path / "mom.json"))
        bundle = load_model(str(tmp_path / "mom.json"), expect="mom")
        from blamebox import reconstruct
        probe = SensorSeries(rng.uniform(0, 1, (3, 12)), dt=0.1)
        assert np.array_equal(reconstruct(mom, probe).data,
                              reconstruct(bundle.model, probe).data)
        assert np.array_equal(bundle.error_stats.sigma, stats.sigma)
