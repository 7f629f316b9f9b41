"""Blame distribution over functions and its Bayesian update.

The likelihood of one executed observation given "function f is the bug"
follows the generative reading of skill testing:

* failure, f active in the blame window   -> (1 + p_dev) / 2, so every
  executed function is at least suspicious (>= 1/2) and more so the more its
  call profile deviates from successful experience;
* failure, f inactive in the window       -> epsilon_floor: an inactive
  function cannot have produced the failure;
* success, f active                       -> epsilon_floor + w * p_dev with a
  small weight w: a successful run exonerates the functions it used, but a
  strongly deviating profile keeps a trace of suspicion;
* success, f inactive                     -> 1/2 exactly: the observation
  carries no evidence about functions it never touched.

A success has no failure time, so it is judged at its last timestep T - 1,
over the W steps that end there: a function active only before them counts
as inactive and gets 1/2, as a function the run never called does.

Likelihood values always lie in [epsilon_floor, 0.75].
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .core import Fingerprint, Observation, SkillId
from .errors import ValidationError
from .fpf import BlameConfig, FpfModel, deviation_at

_NORM_TOL = 1e-9
# share of the blame mass the candidate set covers
_COVERAGE = 0.99


@dataclass(frozen=True, eq=False)
class Belief:
    """Normalized blame probabilities, aligned with the function registry."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.ascontiguousarray(np.asarray(self.probs, dtype=np.float64))
        if p.ndim != 1 or p.size < 1:
            raise ValidationError("belief must be a non-empty vector")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise ValidationError("belief entries must be finite and non-negative")
        if abs(p.sum() - 1.0) > _NORM_TOL:
            raise ValidationError(f"belief must sum to 1 within {_NORM_TOL}, got {p.sum()!r}")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @classmethod
    def uniform(cls, n: int) -> "Belief":
        return cls(np.full(n, 1.0 / n))

    def __len__(self) -> int:
        return self.probs.size

    @cached_property
    def plogp(self) -> np.ndarray:
        """p * log(p) entrywise, 0 where p = 0; taken once per belief and
        shared by its entropy and the planner's totals."""
        p = self.probs
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(p > 0, p * np.log(p), 0.0)
        plogp.setflags(write=False)
        return plogp


def entropy(belief) -> float:
    """Shannon entropy in nats, with 0*log(0) = 0."""
    if isinstance(belief, Belief):
        return float(-belief.plogp[belief.probs > 0].sum())
    nz = np.asarray(belief, dtype=np.float64)
    nz = nz[nz > 0]
    return float(-(nz * np.log(nz)).sum())


def coverage_indices(probs) -> np.ndarray:
    """Indices of the smallest set of functions covering ``_COVERAGE`` of the
    blame mass, in descending-probability order (the candidate set)."""
    p = probs.probs if isinstance(probs, Belief) else np.asarray(probs, dtype=np.float64)
    order = np.argsort(p, kind="stable")[::-1]
    cum = np.cumsum(p[order])
    keep = int(np.searchsorted(cum, _COVERAGE)) + 1
    return order[:min(keep, p.size)]


def combine_deviation(pd, inactive, success: bool, config: BlameConfig):
    """Two-case likelihood from deviation mass and window-inactivity.

    Works elementwise on arrays of any matching shape.
    """
    pd = np.asarray(pd, dtype=np.float64)
    inactive = np.asarray(inactive, dtype=bool)
    if success:
        active_lik = config.epsilon_floor + config.success_deviation_weight * pd
        return np.where(inactive, 0.5, active_lik)
    return np.where(inactive, config.epsilon_floor, (1.0 + pd) / 2.0)


def likelihood_vector(fpf: FpfModel, fingerprint_exec: Fingerprint, success: bool,
                      t_fail: int, config: BlameConfig) -> np.ndarray:
    """Per-function likelihood of the executed observation, registry order."""
    if success:
        t_fail = fpf.T - 1  # no failure time exists; judge the last W steps
    pd, inactive = deviation_at(fpf, fingerprint_exec, t_fail, config)
    return combine_deviation(pd, inactive, success, config)


def bayes_update(belief: Belief, fpf_by_skill: Mapping[SkillId, FpfModel],
                 obs: Observation, success: bool, t_fail: int | None,
                 config: BlameConfig) -> tuple[Belief, int]:
    """Posterior ~ likelihood * prior, renormalized, and the failure time
    the run was judged at.

    On success ``t_fail`` is ignored and the run is judged at its last
    timestep T - 1, over the W-step window that ends there, not the whole run.
    The epsilon floor keeps the unnormalized posterior strictly positive
    wherever the prior is positive.
    """
    model = fpf_by_skill.get(obs.skill)
    if model is None:
        raise ValidationError(f"no fingerprint model for skill {obs.skill!r}")
    if success:
        t_used = model.T - 1
    else:
        if t_fail is None:
            raise ValidationError("failed execution needs a failure time")
        t_used = int(t_fail)
    lik = likelihood_vector(model, obs.fingerprint, success, t_used, config)
    if lik.size != len(belief):
        raise ValidationError(
            f"likelihood has {lik.size} entries, belief has {len(belief)}")
    weights = lik * belief.probs
    return Belief(weights / weights.sum()), t_used
