"""Shared domain types: function registry, sensor series, call-count
fingerprints, observations, and the per-skill experience database.

An :class:`Observation` is the one record of a run, down to the failure
time its executor reported.

A run calls few of the registered functions, so a :class:`Fingerprint` is
held row-sparse: the indices of the functions it called and their counts
only. Building, checking, canonicalizing and gathering fingerprints, and a
database's support, cost O(called functions x T) and allocate no F x T
matrix; ``Fingerprint.counts`` builds the dense matrix for a caller that
asks for it.

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
        if not 0 < self.dt < np.inf:
            raise ValidationError(f"sampling interval must be positive and finite, got {self.dt}")
        if not np.isfinite(d).all():
            r, c = np.argwhere(~np.isfinite(d))[0]
            raise ValidationError(f"non-finite sensor value at channel {r}, timestep {c}")

    @property
    def D(self) -> int:
        return self.data.shape[0]

    @property
    def T(self) -> int:
        return self.data.shape[1]


def gather_rows(held: np.ndarray, values: np.ndarray, rows, fill: float) -> np.ndarray:
    """(|rows|, T) rows of a row-sparse matrix whose row r, ``values[r]``, is
    function ``held[r]`` (ascending); ``fill`` in every row it does not hold."""
    rows = np.asarray(rows, dtype=np.intp)
    out = np.full((rows.size, values.shape[1]), fill)
    pos = np.searchsorted(held, rows)
    hit = pos < held.size
    hit[hit] = held[pos[hit]] == rows[hit]
    out[hit] = values[pos[hit]]
    return out


@dataclass(frozen=True, init=False)
class Fingerprint:
    """Call profile of one run: how many executions of each function were
    active during each timestep. Counts are kept real-valued so synthetic
    (Gaussian) and recorded profiles share one representation.

    A run calls few of the registered functions, so only their rows are held:
    ``rows`` lists, ascending, the functions with a non-zero count, and row r
    of ``values`` (|rows| x T) holds the counts of function ``rows[r]``; every
    other count is 0. ``Fingerprint(counts, dt)`` takes a dense F x T matrix
    and :meth:`from_rows` the rows themselves; both run the same checks and
    drop rows that are all zero.
    """

    rows: np.ndarray
    values: np.ndarray
    F: int
    dt: float

    def __init__(self, counts, dt: float = 1.0):
        c = _as_matrix(counts, "fingerprint counts")
        # a NaN or negative cell is non-zero, so its row is kept and checked
        rows = np.flatnonzero((c != 0).any(axis=1))
        self._init(rows, c[rows], c.shape[0], dt)

    @classmethod
    def from_rows(cls, rows, values, F: int, dt: float = 1.0) -> "Fingerprint":
        """The fingerprint in which function ``rows[r]`` has the counts
        ``values[r]`` and every other function of the F has none."""
        fp = cls.__new__(cls)
        fp._init(rows, values, F, dt)
        return fp

    def _init(self, rows, values, F: int, dt: float) -> None:
        values = _as_matrix(values, "fingerprint values")
        F, T, dt = int(F), values.shape[1], float(dt)
        if F < 1 or T < 1:
            raise ValidationError(f"fingerprint needs F >= 1 and T >= 1, got shape ({F}, {T})")
        if not 0 < dt < np.inf:
            raise ValidationError(f"sampling interval must be positive and finite, got {dt}")
        rows = self.check_rows(rows, F)
        if rows.size != values.shape[0]:
            raise ValidationError(f"fingerprint has {rows.size} function rows but "
                                  f"{values.shape[0]} rows of counts")
        keep = values.any(axis=1)
        if not keep.all():
            rows, values = rows[keep], values[keep]
        if not np.isfinite(values).all():
            r, t = np.argwhere(~np.isfinite(values))[0]
            raise ValidationError(f"non-finite count at function {rows[r]}, timestep {t}")
        if not (values >= 0).all():
            r, t = np.argwhere(values < 0)[0]
            raise ValidationError(
                f"negative count {values[r, t]} at function {rows[r]}, timestep {t}")
        rows.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "dt", dt)

    @staticmethod
    def check_rows(rows, F: int) -> np.ndarray:
        """``rows`` as function indices, which must be integers in [0, F),
        ascending and without repeats; a ValidationError cites the first
        that is not."""
        idx = np.asarray(rows, dtype=np.float64)
        if idx.ndim != 1:
            raise ValidationError(f"function rows must be a 1-d array, got ndim={idx.ndim}")
        ok = (idx >= 0) & (idx < F) & (idx == np.floor(idx))
        ok[1:] &= idx[1:] > idx[:-1]
        if not ok.all():
            r = int(np.argmin(ok))
            raise ValidationError(f"row {r} has function index {idx[r]:g}; indices must be "
                                  f"integers in [0, {F}), ascending and without repeats")
        return idx.astype(np.intp)

    @property
    def T(self) -> int:
        return self.values.shape[1]

    def gather(self, rows) -> np.ndarray:
        """(|rows|, T) counts of the functions ``rows``; 0 for a function
        this run never called."""
        return gather_rows(self.rows, self.values, rows, 0.0)

    @property
    def counts(self) -> np.ndarray:
        """The dense F x T count matrix, built on each access (read-only)."""
        counts = self.gather(np.arange(self.F))
        counts.setflags(write=False)
        return counts


@dataclass(frozen=True)
class Observation:
    """Everything recorded for one skill execution. ``sensors`` is None for a
    fingerprint-only run. ``t_fail`` is the failure time its executor
    reported: a failure may carry one, a success never does. It may lie past
    the last timestep."""

    sensors: SensorSeries | None
    fingerprint: Fingerprint
    success: bool
    skill: SkillId
    t_fail: int | None = None

    def __post_init__(self):
        if self.sensors is not None and self.sensors.T != self.fingerprint.T:
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
            if o.fingerprint.F != obs[0].fingerprint.F:
                raise ValidationError(
                    f"a run with {o.fingerprint.F} function rows added to a db whose "
                    f"first run has {obs[0].fingerprint.F}")
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

    def counts_stack(self, rows: np.ndarray) -> np.ndarray:
        """(n, |rows|, T) counts of the given function rows in every stored
        run, gathered from each run's rows."""
        return np.stack([o.fingerprint.gather(rows) for o in self.observations])

    @cached_property
    def support(self) -> np.ndarray:
        """Sorted indices of the functions with a non-zero count in some
        stored run: the union of the runs' rows, computed once per database."""
        support = np.unique(np.concatenate([o.fingerprint.rows for o in self.observations]))
        support.setflags(write=False)
        return support


def canonicalize_length(item, target_T: int):
    """Force a series or fingerprint to ``target_T`` timesteps.

    Shorter inputs are padded by repeating the final column, longer ones are
    truncated; a fingerprint's rows alone are, and a row that truncation
    leaves all zero is dropped. Idempotent for matching lengths (the same
    object is returned).
    """
    if target_T < 1:
        raise ValidationError(f"target_T must be >= 1, got {target_T}")
    if isinstance(item, SensorSeries):
        mat, rebuild = item.data, lambda m: SensorSeries(m, dt=item.dt)
    elif isinstance(item, Fingerprint):
        mat, rebuild = item.values, lambda m: Fingerprint.from_rows(item.rows, m, item.F, item.dt)
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
    """``obs`` at ``target_T`` timesteps; ``obs`` itself when it is already."""
    if obs.fingerprint.T == target_T:   # the sensors match it, as Observation checks
        return obs
    sensors = None if obs.sensors is None else canonicalize_length(obs.sensors, target_T)
    return replace(obs, sensors=sensors,
                   fingerprint=canonicalize_length(obs.fingerprint, target_T))


def validate_observation(obs: Observation, registry: FunctionRegistry) -> Observation:
    """Return ``obs`` unchanged iff its function rows match ``registry``; its
    contents were checked when it was built."""
    if obs.fingerprint.F != registry.F:
        raise ValidationError(
            f"fingerprint has {obs.fingerprint.F} function rows, registry has {registry.F}")
    return obs
