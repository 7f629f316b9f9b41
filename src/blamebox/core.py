"""Shared domain types: function registry, sensor series, call-count
fingerprints, observations, and the per-skill experience database.

An :class:`Observation` is the one record of a run, down to the failure
time its executor reported.

A run calls few of the registered functions, so a :class:`Fingerprint` is
held row-sparse: the indices of the functions it called and their counts
only. Building, checking, canonicalizing and gathering fingerprints, and a
database's support, cost O(called functions x T) and allocate no F x T
matrix; ``Fingerprint.counts`` builds the dense matrix for a caller that
asks for it. Runs are built and checked per batch: :meth:`Fingerprint.batch`
checks every run of a database in a few array operations over their
concatenated rows, and :meth:`ExperienceDb.counts_stack` stacks them with one
assignment per run. A batch that fails those whole-array tests is named by its
first bad row's run, which is checked alone by the rules of a batch of one.

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

from .errors import FunctionIndexError, ValidationError

SkillId = str
FunctionId = str
# numpy's ufunc buffer, in elements, for passes over strided operands: numpy's
# 8192 exceed a (T, n) column of an observation-model pass and a strided slice
# of the window kernel
_UFUNC_BUFFER = 1024


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
    and belief entry is aligned with this ordering. A name's index is looked
    up in O(1).
    """

    names: tuple[FunctionId, ...]

    def __init__(self, names: Sequence[FunctionId]):
        names = tuple(str(n) for n in names)
        if len(names) == 0:
            raise ValidationError("registry needs at least one function")
        positions = {name: i for i, name in enumerate(names)}
        if len(positions) != len(names):
            raise ValidationError("function names must be unique")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_positions", positions)

    @property
    def F(self) -> int:
        return len(self.names)

    def index(self, name: FunctionId) -> int:
        try:
            return self._positions[name]
        except (KeyError, TypeError):   # TypeError: an unhashable name
            raise ValidationError(f"unknown function {name!r}") from None

    def indices(self, names: Sequence[FunctionId]) -> np.ndarray:
        return np.array([self.index(n) for n in names], dtype=np.intp)

    def __contains__(self, name: object) -> bool:
        try:
            return name in self._positions
        except TypeError:   # an unhashable object is no name
            return False

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


def union_rows(*arrays) -> np.ndarray:
    """The ascending distinct entries of the given index arrays, by a sort and
    an adjacent difference (``np.unique`` would import ``numpy.ma``)."""
    idx = np.sort(np.concatenate([np.asarray(a, dtype=np.intp).ravel() for a in arrays]))
    new = np.ones(idx.size, dtype=bool)
    new[1:] = idx[1:] != idx[:-1]
    return idx[new]


def _index_column(rows, sizes) -> tuple[np.ndarray, np.ndarray]:
    """(``rows`` as float64, where each run of the given sizes starts in it and
    where the last one ends); one run holds all rows when ``sizes`` is None."""
    idx = np.asarray(rows, dtype=np.float64)
    if idx.ndim != 1:
        raise ValidationError(f"function rows must be a 1-d array, got ndim={idx.ndim}")
    starts = np.concatenate(([0], np.cumsum([idx.size] if sizes is None else sizes,
                                            dtype=np.intp)))
    if starts[-1] != idx.size:
        raise ValidationError(f"runs of {starts[-1]} rows in all given for "
                              f"{idx.size} function rows")
    return idx, starts


def _bad_indices(idx: np.ndarray, F: int, starts) -> np.ndarray:
    """Where a function index is not an integer in [0, F) above the one
    before it in its run, the runs starting at ``starts`` (the last entry is
    the end of the last run)."""
    bad = ~((idx >= 0) & (idx < F) & (idx == np.floor(idx)))
    first = np.zeros(idx.size + 1, dtype=bool)
    first[starts] = True   # a run's first row follows another run's last
    bad[1:] |= ~((idx[1:] > idx[:-1]) | first[1:-1])
    return bad


def _check_run(idx: np.ndarray, values, F: int) -> None:
    """Raise the first fault of one run: its first bad function index (a
    FunctionIndexError), else its first non-finite count in row-major order,
    else its first negative count. ``values`` None checks the indices alone."""
    bad = _bad_indices(idx, F, [0, idx.size])
    if bad.any():
        r = int(np.argmax(bad))
        raise FunctionIndexError(f"row {r} has function index {idx[r]:g}; indices must be "
                                 f"integers in [0, {F}), ascending and without repeats")
    if values is None:
        return
    nonfinite = ~np.isfinite(values)
    if nonfinite.any():
        r, t = np.argwhere(nonfinite)[0]
        raise ValidationError(f"non-finite count at function {int(idx[r])}, timestep {t}")
    if (values < 0).any():
        r, t = np.argwhere(values < 0)[0]
        raise ValidationError(f"negative count {values[r, t]} at function {int(idx[r])}, "
                              f"timestep {t}")


@dataclass(frozen=True, init=False)
class Fingerprint:
    """Call profile of one run: how many executions of each function were
    active during each timestep. Counts are kept real-valued so synthetic
    (Gaussian) and recorded profiles share one representation.

    A run calls few of the registered functions, so only their rows are held:
    ``rows`` lists, ascending, the functions with a non-zero count, and row r
    of ``values`` (|rows| x T) holds the counts of function ``rows[r]``; every
    other count is 0. ``Fingerprint(counts, dt)`` takes a dense F x T matrix,
    :meth:`from_rows` the rows themselves and :meth:`batch` the rows of many
    runs at once. The first two are a batch of one, so all three run the same
    checks and drop rows that are all zero.
    """

    rows: np.ndarray
    values: np.ndarray
    F: int
    dt: float

    def __init__(self, counts, dt: float = 1.0):
        c = _as_matrix(counts, "fingerprint counts")
        # a NaN or negative cell is non-zero, so its row is kept and checked
        rows = np.flatnonzero((c != 0).any(axis=1))
        (fp,) = self.batch(rows, c[rows], [rows.size], c.shape[0], dt)
        for name in ("rows", "values", "F", "dt"):
            object.__setattr__(self, name, getattr(fp, name))

    @classmethod
    def from_rows(cls, rows, values, F: int, dt: float = 1.0) -> "Fingerprint":
        """The fingerprint in which function ``rows[r]`` has the counts
        ``values[r]`` and every other function of the F has none."""
        return cls.batch(rows, values, [np.size(rows)], F, dt)[0]

    @classmethod
    def batch(cls, rows, values, sizes, F: int, dt: float = 1.0) -> list["Fingerprint"]:
        """The fingerprints of runs over F functions that share T and ``dt``,
        whose rows come one after another: run i holds the next ``sizes[i]``
        entries of ``rows`` and rows of ``values`` (N x T).

        Every run is checked in a few array operations over the whole batch:
        F, T >= 1 and ``dt`` > 0 and finite; each run's rows ascending, unique
        and in [0, F) (:meth:`check_rows`); as many rows of counts as function
        rows; and every count finite and >= 0. Only a batch that fails these
        tests is looked at row by row: the run of its first bad row is its
        first bad run, and that run's own check raises, with the class and
        text a batch of that run alone gives: its first bad index (a
        FunctionIndexError), else its first non-finite count in row-major
        order, else its first negative one. The runs' arrays are read-only
        views of one array.
        """
        values = _as_matrix(values, "fingerprint values")
        F, T, dt = int(F), values.shape[1], float(dt)
        if F < 1 or T < 1:
            raise ValidationError(f"fingerprint needs F >= 1 and T >= 1, got shape ({F}, {T})")
        if not 0 < dt < np.inf:
            raise ValidationError(f"sampling interval must be positive and finite, got {dt}")
        idx, starts = _index_column(rows, sizes)
        bad = _bad_indices(idx, F, starts)
        counted = idx.size == values.shape[0]
        if counted and not (np.isfinite(values).all() and (values >= 0).all()):
            bad |= ~np.isfinite(values).all(axis=1) | (values < 0).any(axis=1)
        if bad.any():   # the first bad row's run is the first bad run
            k = int(np.searchsorted(starts, np.argmax(bad), "right")) - 1
            a, b = starts[k], starts[k + 1]
            _check_run(idx[a:b], values[a:b] if counted else None, F)
        if not counted:
            raise ValidationError(f"fingerprint has {idx.size} function rows but "
                                  f"{values.shape[0]} rows of counts")
        rows = idx.astype(np.intp)
        keep = values.any(axis=1)
        if not keep.all():
            rows, values = rows[keep], values[keep]
            starts = np.concatenate(([0], np.cumsum(keep)))[starts]
        rows.setflags(write=False)
        values.setflags(write=False)
        fingerprints = []
        for a, b in zip(starts[:-1].tolist(), starts[1:].tolist()):
            fp = cls.__new__(cls)
            object.__setattr__(fp, "rows", rows[a:b])
            object.__setattr__(fp, "values", values[a:b])
            object.__setattr__(fp, "F", F)
            object.__setattr__(fp, "dt", dt)
            fingerprints.append(fp)
        return fingerprints

    @staticmethod
    def check_rows(rows, F: int) -> np.ndarray:
        """``rows`` as function indices, which must be integers in [0, F),
        ascending and without repeats. A FunctionIndexError cites the first
        index that is not."""
        idx, _ = _index_column(rows, None)
        _check_run(idx, None, F)
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

    def counts_stack(self, rows) -> np.ndarray:
        """(n, |rows|, T) counts of the functions ``rows`` in every stored run;
        0 where a run did not call the function. ``rows`` may come in any
        order, repeat, and name functions off the support. The columns come
        from one search over the runs' concatenated rows; then one assignment
        per run fills its slice of the stack."""
        rows = np.asarray(rows, dtype=np.intp)
        fingerprints = [o.fingerprint for o in self.observations]
        sizes = [fp.rows.size for fp in fingerprints]
        held = np.concatenate([fp.rows for fp in fingerprints])
        # held row p fills every column j with rows[j] == held[p]
        order = np.argsort(rows, kind="stable")
        lo = np.searchsorted(rows[order], held, "left")
        hits = np.searchsorted(rows[order], held, "right") - lo
        src = np.repeat(np.arange(held.size), hits)
        within = np.arange(src.size) - np.repeat(np.cumsum(hits) - hits, hits)
        col = order[lo[src] + within]
        ends = np.cumsum(sizes)
        cuts, firsts = np.searchsorted(src, ends).tolist(), (ends - sizes).tolist()
        gather = not (hits == 1).all()   # else every run's rows go once, in order
        out = np.zeros((len(fingerprints), rows.size, self.canonical_T))
        a = 0
        for i, (fp, b) in enumerate(zip(fingerprints, cuts)):
            out[i, col[a:b]] = fp.values[src[a:b] - firsts[i]] if gather else fp.values
            a = b
        return out

    @cached_property
    def support(self) -> np.ndarray:
        """Sorted indices of the functions with a non-zero count in some
        stored run: the union of the runs' rows, computed once per database."""
        support = union_rows(*(o.fingerprint.rows for o in self.observations))
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
