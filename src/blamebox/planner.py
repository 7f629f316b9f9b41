"""Skill selection by expected information gain and the outer testing loop.

The loop fits each skill's fingerprint model from the skill's experience
database and builds its :class:`SkillCache` itself. The skills come in the
order of the databases, which orders the gain columns and breaks gain ties.

The gain of a skill is estimated by hypothetical Bayesian updates: for every
stored observation of that skill, sample (success, t_fail) pairs with success
uniform over {true, false} and t_fail uniform over the execution window (a
success is judged at T - 1, over the W-step window that ends there), apply
the belief update, and average the posterior entropies.
E[I] = H[prior] - mean(H_posterior).

Per (skill, step) randomness comes from spawned generator streams, one per
skill, so each skill's gain is reproducible on its own. Beyond its draws and
its gathers, no work is per skill: a step scores the skills in array passes
over their concatenated samples, and takes the belief's totals once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence

import numpy as np

from .blame import Belief, bayes_update, combine_deviation, entropy
from .core import ExperienceDb, Observation, SkillId, _canonicalize_observation
from .errors import ConfigError, ExecutorError, ValidationError
from .fpf import BlameConfig, FpfModel, deviation_grid, fit_fpf, window_mass
from .mom import MomBundle, MomConfig, detect_failure_time, error_rows

_TIE_TOL = 1e-12
# entries that one pass holds at most, about two benchmark skills' worth,
# so that a step's memory does not grow with the number of skills
_PASS_ENTRIES = 2048


@dataclass(frozen=True)
class PlannerConfig:
    samples_per_observation: int = 8
    convergence_epsilon: float = 0.01
    convergence_patience: int = 3
    max_iterations: int = 60
    seed: int = 0

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.samples_per_observation >= 1:
            raise ConfigError("samples_per_observation must be >= 1")
        if not self.convergence_epsilon > 0:
            raise ConfigError("convergence_epsilon must be positive")
        if not self.convergence_patience >= 1:
            raise ConfigError("convergence_patience must be >= 1")
        if not self.max_iterations >= 1:
            raise ConfigError("max_iterations must be >= 1")


@dataclass(frozen=True)
class GainEstimate:
    """Monte-Carlo estimate of E[I(a)] with the standard error of the mean."""

    gain: float
    stderr: float
    n_samples: int


class SkillExecutor(Protocol):
    """Boundary to whatever actually runs a skill (simulator, replay, robot).

    ``execute`` returns the run's :class:`Observation`; a failure may carry
    the failure time the executor saw in ``t_fail``. The records of a run
    check themselves when they are built, so a malformed run (a negative or
    non-finite count or sensor value, sensors and counts of different
    lengths, a negative failure time or one on a success) raises a
    ValidationError before the loop sees it. The loop rejects a run of
    another skill than the one it asked for.
    """

    def execute(self, skill: SkillId) -> Observation:  # pragma: no cover
        ...


class SkillCache:
    """Window statistics of one skill's database for every failure time.

    Built once per loop in O(n_obs * |S| * T) by ``deviation_grid`` on the
    skill's support S: the functions with a non-zero count in a stored run or
    in the model's support. A success is judged at the last timestep, so its
    likelihood ``success_lik`` (n_obs, |S|) is evaluated here once; a gain
    evaluation evaluates the deviation mass (erf) only at sampled failures.
    """

    def __init__(self, db: ExperienceDb, fpf: FpfModel, config: BlameConfig):
        self.db, self.fpf = db, fpf
        model = fpf.on(db.support)
        self.support = model.support
        self.grid = deviation_grid(model, db.counts_stack(self.support), config)
        self.success_lik = combine_deviation(*self.grid.at(fpf.T - 1, np.arange(len(db))),
                                             True, config)


def _segment_sums(x: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sums of ``x`` over consecutive segments; an empty one sums to 0."""
    full = lengths > 0
    if full.all():
        return np.add.reduceat(x, starts)
    sums = np.zeros(starts.size, dtype=x.dtype)
    if full.any():
        sums[full] = np.add.reduceat(x, starts[full])
    return sums


def _posterior_entropies(belief: Belief, caches: Sequence[SkillCache], config: BlameConfig,
                         samples: int, streams: Sequence[np.random.Generator],
                         ) -> tuple[np.ndarray, np.ndarray, float]:
    """Sampled posterior entropies of the caches' skills, skill after skill,
    each in row-major (observation, sample) order; each skill's number of
    them; and the belief's entropy.

    Per skill this only draws from the skill's stream and gathers its rows.
    The rest is one pass over the concatenated (skill, observation, sample,
    support function) entries of a block of skills, reduced per row with
    ``np.add.reduceat``.
    """
    for cache in caches:
        if len(belief) != cache.fpf.F:
            raise ValidationError(f"belief has {len(belief)} entries, the model {cache.fpf.F}")
    p, ld = belief.probs, np.longdouble
    sizes = np.array([c.support.size for c in caches])
    rows = np.array([len(c.db) * samples for c in caches])
    support, starts = np.concatenate([c.support for c in caches]), np.cumsum(sizes) - sizes
    # Off the support pd = 0 and both sides are inactive, so every such
    # function has the same likelihood c and the block of them has a closed
    # form: with q = c/Z, it adds -q * (sum p log p + log(q) * sum p), the
    # belief's sums less the support's. In double that difference would keep
    # a few 1e-16 of error, which q (up to 1e4) magnifies.
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(p), 0.0)
        total, plogp = plogp.sum(dtype=ld), plogp[support]
        mass_out = np.maximum(p.sum(dtype=ld) - _segment_sums(p[support].astype(ld), starts,
                                                               sizes), 0.0)
        plogp_out = total - _segment_sums(plogp.astype(ld), starts, sizes)
        plogp_out[mass_out == 0] = 0.0
        mass_out, plogp_out = mass_out.astype(float), plogp_out.astype(float)
        c_succ, c_fail = (float(combine_deviation(0.0, True, s, config)) for s in (True, False))

        def block(lo: int, hi: int) -> np.ndarray:
            draws = [(rng.integers(0, 2, size=(len(c.db), samples)),
                      rng.integers(0, c.fpf.T, size=(len(c.db), samples)))
                     for c, rng in zip(caches[lo:hi], streams[lo:hi])]
            n_rows = rows[lo:hi]
            row_len = np.repeat(sizes[lo:hi], n_rows)
            row_start, first = np.cumsum(row_len) - row_len, np.cumsum(n_rows) - n_rows
            obs = (np.arange(n_rows.sum()) - np.repeat(first, n_rows)) // samples
            succ = np.concatenate([s.ravel() for s, _ in draws]) != 0
            # a success keeps its cached likelihood; failures gather their
            # window statistics, for one erf call
            lik = np.empty(row_len.sum())
            n_fail = row_len[~succ].sum()
            dev, mean, var = (np.empty(n_fail) for _ in range(3))
            exec_on, model_on = np.empty(n_fail, bool), np.empty(n_fail, bool)
            e = f = 0
            for cache, (_, t), i, k in zip(caches[lo:hi], draws, first, n_rows):
                g, o, fails = cache.grid, obs[i:i + k], ~succ[i:i + k]
                t, fo, R = t.ravel()[fails], o[fails], cache.support.size
                lik[e:e + k * R] = cache.success_lik[o].ravel()
                for out, part in ((dev, g.exec_mean[t, fo]), (mean, g.mean[t]), (var, g.var[t]),
                                  (exec_on, g.exec_active[t, fo]), (model_on, g.model_active[t])):
                    out[f:f + part.size] = part.ravel()
                e, f = e + k * R, f + t.size * R
            dev -= mean       # as DeviationGrid.at
            del mean
            lik[np.repeat(~succ, row_len)] = combine_deviation(
                window_mass(dev, var), ~(exec_on | model_on), False, config)
            del dev, var, exec_on, model_on
            e = 0
            for cache, k in zip(caches[lo:hi], n_rows):   # times the prior
                R = cache.support.size
                lik[e:e + k * R].reshape(k, R)[...] *= p[cache.support]
                e += k * R
            c = np.where(succ, c_succ, c_fail)
            m_out, pl_out = np.repeat(mass_out[lo:hi], n_rows), np.repeat(plogp_out[lo:hi], n_rows)
            z = _segment_sums(lik, row_start, row_len) + c * m_out
            lik /= np.repeat(z, row_len)
            zero, q = lik == 0, c / z
            lik *= np.log(lik)
            lik[zero] = 0.0
            return -(_segment_sums(lik, row_start, row_len) + q * (pl_out + np.log(q) * m_out))

        h, lo, held = [], 0, 0
        for i, n in enumerate(rows * sizes):
            if i > lo and held + n > _PASS_ENTRIES:
                h.append(block(lo, i))
                lo, held = i, 0
            held += n
        h.append(block(lo, len(caches)))
    return np.concatenate(h), rows, float(-total)


def _sampled_entropies(belief: Belief, cache: SkillCache, config: BlameConfig,
                       samples: int, rng: np.random.Generator) -> np.ndarray:
    return _posterior_entropies(belief, [cache], config, samples, [rng])[0]


def _gain_estimates(belief: Belief, caches: Sequence[SkillCache], planner: PlannerConfig,
                    blame: BlameConfig, streams: Sequence[np.random.Generator],
                    ) -> list[GainEstimate]:
    """E[I] with its Monte-Carlo standard error for every cache's skill, in
    order, each from its own stream of ``streams``."""
    h, rows, prior = _posterior_entropies(belief, caches, blame,
                                          planner.samples_per_observation, streams)
    starts = np.cumsum(rows) - rows
    mean = np.add.reduceat(h, starts) / rows
    dev = h - np.repeat(mean, rows)
    se = np.sqrt(np.add.reduceat(dev * dev, starts) / np.maximum(rows - 1, 1)) / np.sqrt(rows)
    return [GainEstimate(gain=float(prior - m), stderr=float(e) if k > 1 else 0.0,
                         n_samples=int(k))
            for m, e, k in zip(mean, se, rows)]


def information_gain_stats(belief: Belief, db: ExperienceDb, fpf: FpfModel,
                           planner: PlannerConfig, blame: BlameConfig,
                           rng: np.random.Generator,
                           cache: SkillCache | None = None) -> GainEstimate:
    """E[I] with its Monte-Carlo standard error."""
    if cache is None:
        cache = SkillCache(db, fpf, blame)
    return _gain_estimates(belief, [cache], planner, blame, [rng])[0]


def select_skill(belief: Belief, caches: Mapping[SkillId, SkillCache],
                 planner: PlannerConfig, blame: BlameConfig, rng: np.random.Generator,
                 ) -> tuple[SkillId, GainEstimate, dict[SkillId, GainEstimate]]:
    """Gain-maximizing skill of ``caches``; ties within 1e-12 go to the one
    that comes first."""
    skills = tuple(caches)
    if not skills:
        raise ValidationError("need at least one skill to select from")
    estimates = _gain_estimates(belief, list(caches.values()), planner, blame,
                                rng.spawn(len(skills)))
    best = 0
    for i in range(1, len(skills)):
        if estimates[i].gain > estimates[best].gain + _TIE_TOL:
            best = i
    return skills[best], estimates[best], dict(zip(skills, estimates))


@dataclass(frozen=True)
class LoopStep:
    step: int
    chosen: SkillId
    gains: dict[SkillId, GainEstimate]
    success: bool
    t_fail: int
    posterior: np.ndarray
    entropy: float


@dataclass
class LoopTrace:
    skills: tuple[SkillId, ...]
    steps: list[LoopStep] = field(default_factory=list)
    converged: bool = False
    aborted: str | None = None


def _resolve_t_fail(obs: Observation, mom: MomBundle | None, T: int) -> int:
    if mom is not None:   # error_rows rejects sensors of another D
        if obs.sensors is None:
            raise ValidationError(f"a run of skill {obs.skill!r} carries no sensor data, "
                                  "but the skill has an observation model")
        _, detected = detect_failure_time(
            mom.error_stats, error_rows(mom.model, [obs.sensors])[0], MomConfig())
        if detected is not None:
            return detected
    if obs.t_fail is not None:
        return int(obs.t_fail)
    return T - 1


def run_testing_loop(world: SkillExecutor, dbs: Mapping[SkillId, ExperienceDb],
                     mom_by_skill: Mapping[SkillId, MomBundle] | None,
                     planner: PlannerConfig, blame: BlameConfig,
                     ) -> tuple[Belief, LoopTrace]:
    """The autonomous testing loop over the skills of ``dbs``, in its order.

    Fits each skill's fingerprint model from its database and builds its
    cache once; every skill in ``mom_by_skill`` must have a database.
    Starts from a uniform belief, repeatedly selects the gain-maximizing
    skill, executes it, locates the failure time (detector first, then the
    executor's report, then the final timestep), and updates the belief.
    Each executed run is cut or padded to its skill's database length first,
    as stored runs are; a failure time past that end is taken at its last
    timestep.
    Stops once the best gain stays below convergence_epsilon for
    convergence_patience consecutive planning rounds, or at max_iterations.
    An executor error aborts the loop and returns the trace so far; a run of
    another skill than the chosen one raises a ValidationError.
    """
    if not dbs:
        raise ValidationError("the testing loop needs at least one skill")
    mom_by_skill = mom_by_skill or {}
    for s in mom_by_skill:
        if s not in dbs:
            raise ValidationError(f"an observation model is given for skill {s!r}, "
                                  "which has no experience database")
    caches = {s: SkillCache(db, fit_fpf(db, blame), blame) for s, db in dbs.items()}
    trace = LoopTrace(skills=tuple(caches))
    belief = Belief.uniform(caches[trace.skills[0]].fpf.F)
    root = np.random.default_rng(planner.seed)
    below = 0
    for step in range(planner.max_iterations):
        chosen, best, gains = select_skill(belief, caches, planner, blame, root.spawn(1)[0])
        if best.gain < planner.convergence_epsilon:
            below += 1
            if below >= planner.convergence_patience:
                trace.converged = True
                break
        else:
            below = 0
        try:
            obs = world.execute(chosen)
        except ExecutorError as exc:
            trace.aborted = str(exc)
            break
        if obs.skill != chosen:
            raise ValidationError(f"the executor answered skill {chosen!r} "
                                  f"with a run of skill {obs.skill!r}")
        fpf = caches[chosen].fpf
        obs = _canonicalize_observation(obs, fpf.T)
        t_fail = (None if obs.success else
                  min(_resolve_t_fail(obs, mom_by_skill.get(chosen), fpf.T), fpf.T - 1))
        belief, t_used = bayes_update(belief, {chosen: fpf}, obs, obs.success, t_fail, blame)
        trace.steps.append(LoopStep(
            step=step, chosen=chosen, gains=gains, success=obs.success,
            t_fail=t_used, posterior=belief.probs, entropy=entropy(belief)))
    return belief, trace
