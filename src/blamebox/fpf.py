"""Functional profiling fingerprint: per-function, per-timestep Gaussians
fitted over successful executions, plus the exponentially weighted window
statistics that feed the blame likelihood.

A model is held row-sparse, as a :class:`Fingerprint` is: on its support,
the functions some stored run called. Every other function has mean 0 and
variance the floor; :meth:`FpfModel.on` adds such rows where a caller needs them.

Every window statistic comes from one kernel, ``_window_sums``, through one
grid builder, ``_grid``, which takes a group of K skills whose count stacks
share one shape and keeps skill k's statistics at failure time t in row
t*K + k. The planner's grids cover the whole run, for its hypothetical
failures; ``deviation_grid`` is the grid of one skill, K = 1, with one row
per failure time. A real execution's update, ``deviation_at``, builds the
grid of one skill over the blame window alone and reads its last row. The
kernel is a decayed prefix sum taken by a two-level scan over blocks of
about sqrt(T) timesteps, so a call costs about 3*sqrt(T) array steps rather
than 2*T; it multiplies only by powers of the decay, all at most 1, so it
needs no scaling against overflow.

Both the expected statistic and the executed statistic are normalized by the
same 1/N_w factor over the same window, so they are directly comparable in
``deviation_mass``; the variance combination rule assumes per-timestep
independence (diagonal covariance).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import _UFUNC_BUFFER, ExperienceDb, Fingerprint, gather_rows, union_rows
from .errors import ConfigError, ValidationError

# deviation_mass asymptotically approaches 0.5 but must never attain it
_HALF_OPEN = float(np.nextafter(0.5, 0.0))
# the wall time the blame window covers in BlameConfig.for_sampling
_WINDOW_SECONDS = 2.0


@dataclass(frozen=True)
class BlameConfig:
    """Knobs shared by the fingerprint statistics and the blame likelihood.

    alpha is the exponential decay per timestep inside the blame window;
    window_steps is the window length W in timesteps. The default pairing
    makes the oldest in-window weight exp(-alpha*W) ~ 0.1.
    """

    alpha: float = math.log(10.0) / 40.0
    window_steps: int = 40
    epsilon_floor: float = 1e-6
    var_floor: float = 1e-6
    success_deviation_weight: float = 0.05

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.alpha >= 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if not self.window_steps >= 1:
            raise ConfigError(f"window_steps must be >= 1, got {self.window_steps}")
        if not (0.0 < self.epsilon_floor < 0.5):
            raise ConfigError(f"epsilon_floor must lie in (0, 0.5), got {self.epsilon_floor}")
        if not self.var_floor > 0:
            raise ConfigError(f"var_floor must be positive, got {self.var_floor}")
        if not (0.0 <= self.success_deviation_weight < 1.0):
            raise ConfigError("success_deviation_weight must lie in [0, 1)")

    @classmethod
    def for_sampling(cls, dt: float) -> "BlameConfig":
        """Window covering 2 s of wall time at interval ``dt``."""
        if not 0 < dt < math.inf:
            raise ConfigError(f"dt must be positive and finite, got {dt}")
        steps = _WINDOW_SECONDS / dt
        if steps == math.inf:
            raise ConfigError(f"dt {dt} is too small: a {_WINDOW_SECONDS:g} s window "
                              "at that interval is not a finite number of steps")
        w = max(1, math.ceil(steps))
        return cls(alpha=math.log(10.0) / w, window_steps=w)


@dataclass(frozen=True, eq=False)
class FpfModel:
    """Per-cell Gaussian fit of call counts across a skill's experiences, held
    on its support: row r of ``mean`` and ``var`` (|support| x T) is the fit of
    function ``support[r]`` (ascending); each other of the F functions has
    mean 0 and variance ``var_floor``."""

    support: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    F: int
    n_samples: int
    var_floor: float

    def __post_init__(self):
        # the record's own read-only copies; the caller's arrays stay writeable
        support = Fingerprint.check_rows(self.support, self.F)
        mean = np.array(self.mean, dtype=np.float64, order="C")
        var = np.array(self.var, dtype=np.float64, order="C")
        if mean.shape != var.shape or mean.ndim != 2 or mean.shape[0] != support.size:
            raise ValidationError(f"mean and var must be matching ({support.size}, T) matrices")
        if np.any(var < self.var_floor):
            raise ValidationError("variance entries below the configured floor")
        for name, arr in (("support", support), ("mean", mean), ("var", var)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def T(self) -> int:
        return self.mean.shape[1]

    def on(self, rows) -> "FpfModel":
        """This fit held on its support and ``rows``; a new row has mean 0, variance the floor."""
        live = union_rows(self.support, rows)
        if live.size == self.support.size:
            return self
        return replace(self, support=live,
                       mean=gather_rows(self.support, self.mean, live, 0.0),
                       var=gather_rows(self.support, self.var, live, self.var_floor))


def fit_fpf(db: ExperienceDb, config: BlameConfig, stack: np.ndarray | None = None) -> FpfModel:
    """Cell-wise sample mean and maximum-likelihood (population) variance,
    floored at ``config.var_floor``, of the database's support rows, read from
    ``stack``, ``db.counts_stack(db.support)``, when the caller holds it. The
    squared deviations are added run by run, in ``stack.var(axis=0)``'s order."""
    if stack is None:
        stack = db.counts_stack(db.support)
    mean = stack.mean(axis=0)
    var, dev = np.zeros_like(mean), np.empty_like(mean)
    for run in stack:
        np.subtract(run, mean, out=dev)
        dev *= dev
        var += dev
    var /= len(stack)
    return FpfModel(support=db.support, mean=mean, var=np.maximum(var, config.var_floor, out=var),
                    F=db.observations[0].fingerprint.F, n_samples=len(db),
                    var_floor=config.var_floor)


def _mass(z):
    """|Phi(z) - 0.5| elementwise, clamped below the unattained 0.5."""
    z = np.asarray(z, dtype=np.float64) / math.sqrt(2.0)
    # math.erf element by element, read as doubles: numpy has no erf of its
    # own, and a ufunc over math.erf would hold every value as an object
    erf = np.fromiter(map(math.erf, memoryview(z.ravel())), np.float64, z.size)
    return np.minimum(0.5 * np.abs(erf.reshape(z.shape)), _HALF_OPEN)


def deviation_mass(x: float, mean: float, var: float) -> float:
    """Gaussian probability mass between ``x`` and ``mean`` under N(mean, var).

    Equals |Phi((x - mean)/sqrt(var)) - 0.5|; symmetric in the deviation,
    non-decreasing in |x - mean|, and clamped into [0, 0.5) because the
    half-mass asymptote is never attained.
    """
    if var <= 0:
        raise ValidationError(f"variance must be positive, got {var}")
    return float(_mass((x - mean) / math.sqrt(var)))


# ---------------------------------------------------------------------------
# Vectorized forms. Every window sum goes through _window_sums, and a grid
# keeps the window statistics for every failure time of its time axis; erf is
# evaluated only at the times a caller reads. The planner scores hypothetical
# failures of every stored observation at sampled failure times, so its grid
# covers the whole run; a real execution is judged at one failure time, so
# deviation_at builds a grid over that window alone and reads its last row.


def _window_sums(y: np.ndarray, r: float, W: int) -> np.ndarray:
    """In place, y[t] <- sum_{k < W, k <= t} r**k * y[t - k] along the leading
    (time) axis, for 0 <= r <= 1; returns ``y``.

    The window is a truncated exponential, so this is the decayed prefix sum
    P[t] = r*P[t-1] + y[t] minus r**W * P[t-W]. P comes from a two-level scan
    (Blelloch 1990) over blocks of B = ceil(sqrt(T)) timesteps: the recursion
    runs inside every block at once (B strided array steps; the last block may
    be shorter), then block by block adds r**(j+1) times the previous block's
    last prefix to its row j (one step per block). The subtraction runs from
    the end in slices of max(W, B) rows, whose sources are still prefixes.
    That is about 3*sqrt(T) array steps. Every product goes to one scratch
    buffer of the largest slice a step reads, and the caller caps numpy's
    ufunc buffer for the strided operands (``_grid`` does, once for its three
    calls), so nothing else of that size is made.
    Only powers r**k <= 1 multiply the data, so nothing can overflow
    and no scaling is needed: r = 0, r**k underflowing to 0, W >= T and T = 1
    need no special case. With r = 1 every weight is exactly 1, so a window
    of zeros sums to exactly 0: its two prefix sums are the same float.
    """
    T = y.shape[0]
    B = max(1, math.ceil(math.sqrt(T)))
    scratch = np.empty((max(B, min(W, T - W)),) + y.shape[1:])
    for j in range(1, B):
        row = y[j::B]
        row += np.multiply(y[j - 1::B][:len(row)], r, out=scratch[:len(row)])
    decay = (r ** np.arange(1.0, B + 1.0)).reshape((B,) + (1,) * (y.ndim - 1))
    for start in range(B, T, B):
        block = y[start:start + B]
        block += np.multiply(decay[:len(block)], y[start - 1], out=scratch[:len(block)])
    step, rW = max(W, B), r ** W
    for end in range(T, W, -step):   # backwards: rows below ``end`` still hold P
        start = max(W, end - step)
        y[start:end] -= np.multiply(y[start - W:end - W], rW, out=scratch[:end - start])
    return y


@dataclass(frozen=True, eq=False)
class DeviationGrid:
    """Window statistics for every failure time, stored time-major so that
    gathering failure times reads contiguous rows.

    ``mean``/``var`` (T, R), on the model's R rows: its weighted window mean and
    the variance of that mean; ``exec_mean`` (T, n, R): each fingerprint's
    weighted window mean; ``model_active``/``exec_active``: the window sum of the
    model mean or of the executed counts is above 1e-9. The grid of a group of
    K skills whose stacks share one shape holds skill k's statistics at failure
    time t in row t*K + k, (T*K, R) and (T*K, n, R); a skill alone is K = 1.
    """

    mean: np.ndarray
    var: np.ndarray
    exec_mean: np.ndarray
    model_active: np.ndarray
    exec_active: np.ndarray

    def at(self, rows, obs_idx) -> tuple[np.ndarray, np.ndarray]:
        """Deviation mass and inactivity mask at broadcast (row, observation)
        index arrays; outputs have the broadcast shape plus a trailing R axis.
        A function is inactive when neither side is active in the window."""
        pd = _mass((self.exec_mean[rows, obs_idx] - self.mean[rows]) / np.sqrt(self.var[rows]))
        inactive = ~(self.model_active[rows] | self.exec_active[rows, obs_idx])
        return pd, inactive


def _grid(mean, var, counts, config: BlameConfig) -> DeviationGrid:
    """Window statistics of a group of K skills for every failure time
    0..T-1: lists of K raw (R, T) model means and variances and K (n, R, T)
    count stacks, all of one shape. Skill k's row for failure time t is
    t*K + k.

    The model mean rides along as each stack's last run, so three kernel
    calls cover everything: the activity sums at 1, the means at r, and the
    variance at r**2. The first two share one (T, K, n + 1, R) buffer,
    filled again after the in-place activity sums; the grid's fields are
    views of it with the time and group axes merged."""
    K, (n, R, T) = len(counts), counts[0].shape
    x = np.empty((T, K, n + 1, R))
    W, r = config.window_steps, math.exp(-config.alpha)

    def fill():
        for k, (c, m) in enumerate(zip(counts, mean)):
            x[:, k, :n], x[:, k, n] = c.transpose(2, 0, 1), m.T

    fill()
    old = np.setbufsize(_UFUNC_BUFFER)   # the kernel's strided operands need the cap
    try:
        active = (_window_sums(x, 1.0, W) > 1e-9).reshape(T * K, n + 1, R)
        fill()
        _window_sums(x, r, W)
        v = _window_sums(np.stack([m.T for m in var], axis=1), r * r, W)
    finally:
        np.setbufsize(old)
    n_w = np.minimum(np.arange(1.0, T + 1.0), W)[:, None]
    x /= n_w[:, :, None, None]
    x = x.reshape(T * K, n + 1, R)
    v = v / (n_w * n_w)[:, :, None]
    return DeviationGrid(mean=x[:, n], var=v.reshape(T * K, R), exec_mean=x[:, :n],
                         model_active=active[:, n], exec_active=active[:, :n])


def deviation_grid(model: FpfModel, counts: np.ndarray, config: BlameConfig) -> DeviationGrid:
    """Window statistics of a stack (n, |support|, T) of counts of the model's
    support functions against ``model`` for all failure times."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 3 or counts.shape[1:] != model.mean.shape:
        raise ValidationError(
            f"counts of shape {counts.shape} do not match the model's {model.mean.shape}")
    return _grid([model.mean], [model.var], [counts], config)


def deviation_at(model: FpfModel, fingerprint: Fingerprint, t_fail: int,
                 config: BlameConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-function deviation mass and inactivity mask at one failure time.

    The grid covers exactly the blame window, so its last row is the window
    statistic. It is built on the model's support and the run's rows only:
    every other function has window means of exactly 0 on both sides, so its
    mass is 0, and it is inactive.
    """
    if (fingerprint.F, fingerprint.T) != (model.F, model.T):
        raise ValidationError(f"counts of shape {(fingerprint.F, fingerprint.T)} "
                              f"do not match the model's {(model.F, model.T)}")
    if not (0 <= t_fail < model.T):
        raise ValidationError(f"t_fail={t_fail} outside [0, {model.T})")
    window = slice(max(0, t_fail - config.window_steps + 1), t_fail + 1)
    live = replace(model, mean=model.mean[:, window],
                   var=model.var[:, window]).on(fingerprint.rows)
    live_pd, live_inactive = _grid([live.mean], [live.var],
                                   [fingerprint.gather(live.support)[None, :, window]],
                                   config).at(-1, 0)
    pd = np.zeros(model.F)
    pd[live.support] = live_pd
    inactive = np.ones(model.F, dtype=bool)
    inactive[live.support] = live_inactive
    return pd, inactive
