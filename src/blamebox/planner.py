"""Skill selection by expected information gain and the outer testing loop.

The loop fits each skill's fingerprint model from the skill's experience
database and builds its :class:`SkillCache` itself, both from one counts
stack per skill. Skills whose stacks (n_obs, |S|, T) share one shape form a
group, which gets one deviation grid: skill k of K at failure time t is its
row t*K + k, and skill k's cache holds the view of rows k, K + k, .... The
skills come in the order of the databases, which orders the gain columns
and breaks gain ties.

The gain of a skill is estimated by hypothetical Bayesian updates: for every
stored observation of that skill, sample (success, t_fail) pairs with success
uniform over {true, false} and t_fail uniform over the execution window (a
success is judged at T - 1, over the W-step window that ends there), apply
the belief update, and average the posterior entropies.
E[I] = H[prior] - mean(H_posterior).

Per (skill, step) randomness comes from spawned generator streams, one per
skill, so each skill's gain is reproducible on its own. A step takes the
belief's totals once and then scores the skills group by group, each group
in one dense array pass over its skills' samples and supports, with one
gather per grid array and one erf call; a skill whose shape no other skill
shares is a group of one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence

import numpy as np

from .blame import Belief, bayes_update, combine_deviation, entropy
from .core import ExperienceDb, Observation, SkillId, _canonicalize_observation
from .errors import ConfigError, ExecutorError, ValidationError
from .fpf import BlameConfig, DeviationGrid, FpfModel, _grid, deviation_grid, fit_fpf
from .mom import MomBundle, MomConfig, detect_failure_time, error_rows

_TIE_TOL = 1e-12


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
        if not self.seed >= 0:
            raise ConfigError("seed must be >= 0")


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

    Built once per loop in O(n_obs * |S| * T) on the skill's support S: the
    functions with a non-zero count in a stored run or in the model's
    support. A success is judged at the last timestep, so its likelihood
    ``success_lik`` (n_obs, |S|) is evaluated here once; a gain evaluation
    evaluates the deviation mass (erf) only at sampled failures.

    The loop builds one grid for each group of K skills whose counts stacks
    (n_obs, |S|, T) share one shape, skill k's failure time t in its row
    t*K + k, and ``grid`` views skill k's rows of it; a gain evaluation
    scores a group in one pass. Built directly, a cache is a group of one.
    With ``fpf=None`` the model is fitted on the database here, and one
    counts stack of S serves both the fit and the grid.
    """

    def __init__(self, db: ExperienceDb, fpf: FpfModel | None, config: BlameConfig):
        stack = None
        if fpf is None:
            stack = db.counts_stack(db.support)
            fpf = fit_fpf(db, config, stack)
        model = fpf.on(db.support)
        grid = deviation_grid(model, db.counts_stack(model.support) if stack is None else stack,
                              config)
        _fill_group([self], [db], [fpf], [model.support], grid, config)


# The loop makes its caches through this name, so that rebinding the public
# one (to a timing wrapper, say) leaves the loop working.
_SkillCache = SkillCache


@dataclass(frozen=True)
class _Group:
    """What a gain evaluation reads of a group of K skills: their grid, skill
    k's failure time t in row t*K + k, success likelihoods (K, n_obs, |S|)
    and supports (K, |S|)."""

    grid: DeviationGrid
    success_lik: np.ndarray
    support: np.ndarray


def _fill_group(caches, dbs, fpfs, supports, grid: DeviationGrid, config: BlameConfig) -> None:
    """Make ``caches`` those of the skills of ``dbs``, with models ``fpfs``
    held on ``supports``, from their group's ``grid``; each cache's grid
    holds views of its skill's rows."""
    K, (rows, n) = len(caches), grid.exec_mean.shape[:2]
    # every skill's successes, judged at T - 1
    last = rows - K + np.arange(K)[:, None]
    group = _Group(grid, combine_deviation(*grid.at(last, np.arange(n)), True, config),
                   np.stack(supports))
    for k, (cache, db, fpf) in enumerate(zip(caches, dbs, fpfs)):
        cache.db, cache.fpf, cache.support = db, fpf, group.support[k]
        cache.grid = DeviationGrid(*(a[k::K] for a in vars(grid).values()))
        cache.success_lik, cache._group, cache._k = group.success_lik[k], group, k


def _loop_caches(dbs: Mapping[SkillId, ExperienceDb], config: BlameConfig,
                 ) -> dict[SkillId, SkillCache]:
    """Every skill's cache, its model fitted on its database: one grid per
    group of skills whose counts stacks share one shape. A group's stacks
    live until its grid is built."""
    groups: dict[tuple[int, int, int], list[SkillId]] = {}
    for s, db in dbs.items():
        groups.setdefault((len(db), db.support.size, db.canonical_T), []).append(s)
    caches = {s: object.__new__(_SkillCache) for s in dbs}
    for skills in groups.values():
        group = [dbs[s] for s in skills]
        stacks = [db.counts_stack(db.support) for db in group]
        fpfs = [fit_fpf(db, config, stack) for db, stack in zip(group, stacks)]
        grid = _grid([f.mean for f in fpfs], [f.var for f in fpfs], stacks, config)
        del stacks
        _fill_group([caches[s] for s in skills], group, fpfs, [db.support for db in group],
                    grid, config)
    return caches


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis, added in ``np.add.reduceat``'s order (which
    ``ndarray.sum`` leaves once a row holds three entries); an empty row sums
    to 0."""
    if x.shape[-1] == 0:
        return np.zeros(x.shape[:-1], dtype=x.dtype)
    return np.add.reduceat(x, [0], axis=-1)[..., 0]


def _posterior_entropies(belief: Belief, caches: Sequence[SkillCache], config: BlameConfig,
                         samples: int, streams: Sequence[np.random.Generator],
                         ) -> tuple[np.ndarray, np.ndarray, float]:
    """Sampled posterior entropies of the caches' skills, skill after skill,
    each in row-major (observation, sample) order; each skill's number of
    them; and the belief's entropy.

    Each skill draws its samples from its own stream. The caches of one
    group, any of them, are scored in one dense pass over their (skill,
    observation and sample, support function) array.
    """
    for cache in caches:
        if len(belief) != cache.fpf.F:
            raise ValidationError(f"belief has {len(belief)} entries, the model {cache.fpf.F}")
    members: dict[int, list[int]] = {}
    for i, cache in enumerate(caches):
        members.setdefault(id(cache._group), []).append(i)
    p, ld = belief.probs, np.longdouble
    # Off the support pd = 0 and both sides are inactive, so every such
    # function has the same likelihood c and the block of them has a closed
    # form: with q = c/Z, it adds -q * (sum p log p + log(q) * sum p), the
    # belief's sums less the support's. In double that difference would keep
    # a few 1e-16 of error, which q (up to 1e4) magnifies.
    plogp = belief.plogp
    h: list[np.ndarray] = [np.empty(0)] * len(caches)
    with np.errstate(divide="ignore", invalid="ignore"):
        total, mass = plogp.sum(dtype=ld), p.sum(dtype=ld)
        c_succ, c_fail = (float(combine_deviation(0.0, True, s, config)) for s in (True, False))
        for idx in members.values():
            group = caches[idx[0]]._group
            ks = np.array([caches[i]._k for i in idx])
            g, S, K = group.grid, group.support[ks], len(group.support)
            T, n = g.exec_mean.shape[0] // K, g.exec_mean.shape[1]
            succ, t = [], []
            for i in idx:
                drawn = streams[i].integers(0, 2, size=(n, samples)).ravel() != 0
                succ.append(drawn)
                t.append(streams[i].integers(0, T, size=drawn.size)[~drawn])
            succ = np.array(succ)
            fail = ~succ
            j, o = fail.nonzero()
            # a success keeps its cached likelihood; failures gather their
            # window statistics at grid row t * K + k, for one erf call
            lik = np.repeat(group.success_lik[ks], samples, axis=1)
            lik[fail] = combine_deviation(*g.at(np.concatenate(t) * K + ks[j], o // samples),
                                          False, config)
            lik *= p[S][:, None]
            mass_out = np.maximum(mass - _row_sums(p[S].astype(ld)), 0.0)
            plogp_out = np.where(mass_out > 0, total - _row_sums(plogp[S].astype(ld)), 0.0)
            mass_out, plogp_out = (x.astype(np.float64)[:, None] for x in (mass_out, plogp_out))
            c = np.where(succ, c_succ, c_fail)
            z = _row_sums(lik) + c * mass_out
            lik /= z[..., None]
            zero, q = lik == 0, c / z
            lik *= np.log(lik)
            lik[zero] = 0.0
            for i, row in zip(idx, -(_row_sums(lik) + q * (plogp_out + np.log(q) * mass_out))):
                h[i] = row
    return np.concatenate(h), np.array([x.size for x in h]), float(-total)


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
    cache once; every database must cover the same functions, and every
    skill in ``mom_by_skill`` must have a database.
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
    widths = {s: db.observations[0].fingerprint.F for s, db in dbs.items()}
    first = next(iter(widths))
    for s, F in widths.items():
        if F != widths[first]:
            raise ValidationError(f"the database of skill {s!r} covers {F} functions, "
                                  f"that of skill {first!r} {widths[first]}")
    mom_by_skill = mom_by_skill or {}
    for s in mom_by_skill:
        if s not in dbs:
            raise ValidationError(f"an observation model is given for skill {s!r}, "
                                  "which has no experience database")
    caches = _loop_caches(dbs, blame)
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
