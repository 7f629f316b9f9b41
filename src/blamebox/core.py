"""Shared domain types: function registry, sensor series, call-count
fingerprints, observations, and the per-skill experience database.

An :class:`Observation` is the one record of a run, down to the failure
time its executor reported.

Every type checks its own content invariants when it is constructed,
citing the first bad cell (row and column) of bad data, so callers need no
separate validation step. A loader builds its objects inside a context that
names the file they came from. Arrays are marked read-only on construction, so objects
can be shared freely. :func:`validate_observation` adds the one check that
needs outside context: that an observation's function rows match a registry.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ValidationError

SkillId = str
FunctionId = str


def _as_matrix(data, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"{what} must be a 2-d matrix, got ndim={arr.ndim}")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FunctionRegistry:
    """Ordered set of function identifiers under study.

    Indices 0..F-1 are stable for the lifetime of a study; every matrix row
    and belief entry is aligned with this ordering.
    """

    names: tuple[FunctionId, ...]

    def __init__(self, names: Sequence[FunctionId]):
        names = tuple(str(n) for n in names)
        if len(names) == 0:
            raise ValidationError("registry needs at least one function")
        if len(set(names)) != len(names):
            raise ValidationError("function names must be unique")
        object.__setattr__(self, "names", names)

    @property
    def F(self) -> int:
        return len(self.names)

    def index(self, name: FunctionId) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(f"unknown function {name!r}") from None

    def indices(self, names: Sequence[FunctionId]) -> np.ndarray:
        return np.array([self.index(n) for n in names], dtype=np.intp)

    def __contains__(self, name: object) -> bool:
        return name in self.names

    def __len__(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class SensorSeries:
    """One execution's sensor record: rows are channels, columns timesteps."""

    data: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        d = _as_matrix(self.data, "sensor data")
        object.__setattr__(self, "data", d)
        object.__setattr__(self, "dt", float(self.dt))
        if d.shape[0] < 1 or d.shape[1] < 1:
            raise ValidationError(f"sensor series needs D >= 1 and T >= 1, got shape {d.shape}")
        if self.dt <= 0:
            raise ValidationError(f"sampling interval must be positive, got {self.dt}")
        if not np.isfinite(d).all():
            r, c = np.argwhere(~np.isfinite(d))[0]
            raise ValidationError(f"non-finite sensor value at channel {r}, timestep {c}")

    @property
    def D(self) -> int:
        return self.data.shape[0]

    @property
    def T(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class Fingerprint:
    """Call-profile matrix: counts[i, t] is how many executions of function i
    were active during timestep t. Counts are kept real-valued so synthetic
    (Gaussian) and recorded profiles share one representation."""

    counts: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        c = _as_matrix(self.counts, "fingerprint counts")
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "dt", float(self.dt))
        if c.shape[0] < 1 or c.shape[1] < 1:
            raise ValidationError(f"fingerprint needs F >= 1 and T >= 1, got shape {c.shape}")
        if self.dt <= 0:
            raise ValidationError(f"sampling interval must be positive, got {self.dt}")
        if not np.isfinite(c).all():
            r, t = np.argwhere(~np.isfinite(c))[0]
            raise ValidationError(f"non-finite count at function {r}, timestep {t}")
        if not (c >= 0).all():
            r, t = np.argwhere(c < 0)[0]
            raise ValidationError(f"negative count {c[r, t]} at function {r}, timestep {t}")

    @property
    def F(self) -> int:
        return self.counts.shape[0]

    @property
    def T(self) -> int:
        return self.counts.shape[1]


@dataclass(frozen=True)
class Observation:
    """Everything recorded for one skill execution. ``t_fail`` is the failure
    time its executor reported: a failure may carry one, a success never does.
    It may lie past the last timestep."""

    sensors: SensorSeries
    fingerprint: Fingerprint
    success: bool
    skill: SkillId
    t_fail: int | None = None

    def __post_init__(self):
        if self.sensors.T != self.fingerprint.T:
            raise ValidationError(f"sensor series has T={self.sensors.T} "
                                  f"but fingerprint has T={self.fingerprint.T}")
        if self.t_fail is not None:
            if self.success:
                raise ValidationError(
                    f"a successful run has no failure time, got t_fail={self.t_fail}")
            if self.t_fail < 0:
                raise ValidationError(f"failure time t_fail={self.t_fail} is negative")


@dataclass(frozen=True)
class ExperienceDb:
    """Per-skill store of positive (successful) executions.

    Holds at least one run, each a success of ``skill``. ``canonical_T`` is
    the lower-median length of the given runs; every run is canonicalized to
    it so per-timestep models stay well defined.
    """

    skill: SkillId
    observations: tuple[Observation, ...]
    canonical_T: int = field(init=False)

    def __post_init__(self):
        obs = tuple(self.observations)
        if not obs:
            raise ValidationError("experience database needs at least one observation")
        for o in obs:
            if not o.success:
                raise ValidationError(
                    f"experience databases hold successful executions only; "
                    f"got a failure for skill {o.skill!r}")
            if o.skill != self.skill:
                raise ValidationError(
                    f"observation for skill {o.skill!r} added to db of {self.skill!r}")
        lengths = sorted(o.fingerprint.T for o in obs)
        canonical_T = int(lengths[(len(lengths) - 1) // 2])
        object.__setattr__(self, "canonical_T", canonical_T)
        object.__setattr__(self, "observations",
                           tuple(_canonicalize_observation(o, canonical_T) for o in obs))

    @classmethod
    def from_observations(cls, skill: SkillId, observations: Sequence[Observation],
                          registry: FunctionRegistry) -> "ExperienceDb":
        """A database of runs whose function rows each match ``registry``."""
        return cls(skill, [validate_observation(o, registry) for o in observations])

    def __len__(self) -> int:
        return len(self.observations)

    def counts_stack(self, rows: np.ndarray | None = None) -> np.ndarray:
        """(n, F, T) array of all stored fingerprints, or (n, |rows|, T) of
        the given function rows only."""
        rows = slice(None) if rows is None else rows
        return np.stack([o.fingerprint.counts[rows] for o in self.observations])

    @cached_property
    def support(self) -> np.ndarray:
        """Sorted indices of the functions with a non-zero count in some
        stored run, computed once per database."""
        support = np.flatnonzero(np.logical_or.reduce(
            [o.fingerprint.counts.any(axis=1) for o in self.observations]))
        support.setflags(write=False)
        return support


def canonicalize_length(item, target_T: int):
    """Force a series or fingerprint to ``target_T`` timesteps.

    Shorter inputs are padded by repeating the final column, longer ones are
    truncated. Idempotent for matching lengths (the same object is returned).
    """
    if target_T < 1:
        raise ValidationError(f"target_T must be >= 1, got {target_T}")
    if isinstance(item, SensorSeries):
        mat, rebuild = item.data, lambda m: SensorSeries(m, dt=item.dt)
    elif isinstance(item, Fingerprint):
        mat, rebuild = item.counts, lambda m: Fingerprint(m, dt=item.dt)
    else:
        raise ValidationError(f"cannot canonicalize {type(item).__name__}")
    T = mat.shape[1]
    if T == target_T:
        return item
    if T < target_T:
        pad = np.repeat(mat[:, -1:], target_T - T, axis=1)
        return rebuild(np.hstack([mat, pad]))
    return rebuild(mat[:, :target_T])


def _canonicalize_observation(obs: Observation, target_T: int) -> Observation:
    return replace(obs, sensors=canonicalize_length(obs.sensors, target_T),
                   fingerprint=canonicalize_length(obs.fingerprint, target_T))


def validate_observation(obs: Observation, registry: FunctionRegistry) -> Observation:
    """Return ``obs`` unchanged iff its function rows match ``registry``; its
    contents were checked when it was built."""
    if obs.fingerprint.F != registry.F:
        raise ValidationError(
            f"fingerprint has {obs.fingerprint.F} function rows, registry has {registry.F}")
    return obs
