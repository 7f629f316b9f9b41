"""Measurement observation model: a per-timestep bottleneck encoder feeding a
recurrent (gated) decoder, trained to reproduce successful sensor sequences.

Architecture, forward pass:

    e_t = relu(enc_w @ x_t + enc_b)                 encoding, per timestep
    z_t = sigmoid(upd_w @ e_t + upd_u @ h_{t-1} + upd_b)     update gate
    r_t = sigmoid(rst_w @ e_t + rst_u @ h_{t-1} + rst_b)     reset gate
    c_t = tanh(cand_w @ e_t + cand_u @ (r_t * h_{t-1}) + cand_b)
    h_t = z_t * h_{t-1} + (1 - z_t) * c_t
    y_t = sigmoid(h_t)                              output, one per channel

The hidden state has the input dimensionality D, starts at zero, and the
decoder consumes the whole encoded sequence, so y_t depends only on
x_0..x_t. The training objective is the negated mean per-timestep cosine
similarity between input and output; because the output is sigmoid-bounded,
inputs are min-max normalized per channel (constants learned from the
training set and stored on the model).

Training is full batch with ADAM and a fixed epoch count; everything is a
deterministic function of (data, config, seed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import SensorSeries
from .errors import ConfigError, ValidationError

_NORM_GUARD = 1e-12  # additive guard on vector norms in the cosine

_PARAM_FIELDS = (
    "enc_w", "enc_b",
    "upd_w", "upd_u", "upd_b",
    "rst_w", "rst_u", "rst_b",
    "cand_w", "cand_u", "cand_b",
)


@dataclass(frozen=True)
class MomConfig:
    bottleneck: int = 32
    epochs: int = 500
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    smoothing_window: int = 25
    z_threshold: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.bottleneck < 1:
            raise ConfigError("bottleneck must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.smoothing_window < 1:
            raise ConfigError("smoothing_window must be >= 1")
        if self.z_threshold <= 0:
            raise ConfigError("z_threshold must be positive")


@dataclass(frozen=True)
class MomModel:
    enc_w: np.ndarray
    enc_b: np.ndarray
    upd_w: np.ndarray
    upd_u: np.ndarray
    upd_b: np.ndarray
    rst_w: np.ndarray
    rst_u: np.ndarray
    rst_b: np.ndarray
    cand_w: np.ndarray
    cand_u: np.ndarray
    cand_b: np.ndarray
    norm_lo: np.ndarray
    norm_hi: np.ndarray
    loss_history: tuple[float, ...] = ()

    def __post_init__(self):
        for name in _PARAM_FIELDS + ("norm_lo", "norm_hi"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.float64))
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"non-finite values in {name}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.bottleneck >= self.D:
            raise ConfigError(
                f"bottleneck ({self.bottleneck}) must be smaller than the "
                f"input dimensionality ({self.D})")
        object.__setattr__(self, "loss_history", tuple(float(x) for x in self.loss_history))

    @property
    def D(self) -> int:
        return self.enc_w.shape[1]

    @property
    def bottleneck(self) -> int:
        return self.enc_w.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _PARAM_FIELDS}

    def normalize(self, data: np.ndarray) -> np.ndarray:
        """Map raw channels into the model's trained [0, 1] box."""
        span = self.norm_hi - self.norm_lo
        span = np.where(span < _NORM_GUARD, 1.0, span)
        return (data - self.norm_lo[:, None]) / span[:, None]


def init_model(D: int, config: MomConfig, seed: int | None = None) -> MomModel:
    """Fresh model with weights ~ U(-1/sqrt(fan_in), +1/sqrt(fan_in)) and zero
    biases; identity normalization until trained. Deterministic given seed."""
    B = config.bottleneck
    if B >= D:
        raise ConfigError(f"bottleneck ({B}) must be smaller than D ({D})")
    rng = np.random.default_rng(config.seed if seed is None else seed)

    def u(fan_in, shape):
        s = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-s, s, size=shape)

    return MomModel(
        enc_w=u(D, (B, D)), enc_b=np.zeros(B),
        upd_w=u(B, (D, B)), upd_u=u(D, (D, D)), upd_b=np.zeros(D),
        rst_w=u(B, (D, B)), rst_u=u(D, (D, D)), rst_b=np.zeros(D),
        cand_w=u(B, (D, B)), cand_u=u(D, (D, D)), cand_b=np.zeros(D),
        norm_lo=np.zeros(D), norm_hi=np.ones(D),
    )


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _forward(p: dict[str, np.ndarray], X: np.ndarray, keep_cache: bool):
    """Run the network over a batch X of shape (n, D, T)."""
    n, D, T = X.shape
    h = np.zeros((n, D))
    Y = np.empty_like(X)
    cache = [] if keep_cache else None
    for t in range(T):
        x = X[:, :, t]
        pre = x @ p["enc_w"].T + p["enc_b"]
        e = np.maximum(pre, 0.0)
        z = _sigmoid(e @ p["upd_w"].T + h @ p["upd_u"].T + p["upd_b"])
        r = _sigmoid(e @ p["rst_w"].T + h @ p["rst_u"].T + p["rst_b"])
        c = np.tanh(e @ p["cand_w"].T + (r * h) @ p["cand_u"].T + p["cand_b"])
        h_new = z * h + (1.0 - z) * c
        y = _sigmoid(h_new)
        Y[:, :, t] = y
        if keep_cache:
            cache.append((x, pre, e, z, r, c, h, y))
        h = h_new
    return Y, cache


def _cos_columns(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Per-(sequence, timestep) cosine similarity of (n, D, T) column pairs."""
    dot = (X * Y).sum(axis=1)
    nx = np.sqrt((X * X).sum(axis=1))
    ny = np.sqrt((Y * Y).sum(axis=1))
    return dot / ((nx + _NORM_GUARD) * (ny + _NORM_GUARD))


def cosine_objective(original, reconstruction) -> float:
    """Negated mean per-timestep cosine similarity; -1 is a perfect match,
    0 orthogonal, +1 antiparallel. Zero columns are handled by the norm guard."""
    X = original.data if isinstance(original, SensorSeries) else np.asarray(original, float)
    Y = (reconstruction.data if isinstance(reconstruction, SensorSeries)
         else np.asarray(reconstruction, float))
    if X.shape != Y.shape:
        raise ValidationError(f"shape mismatch {X.shape} vs {Y.shape}")
    return float(-_cos_columns(X[None], Y[None]).mean())


def reconstruct(model: MomModel, seq: SensorSeries) -> SensorSeries:
    """Network output for one sequence, in the model's normalized domain."""
    if seq.D != model.D:
        raise ValidationError(f"sequence has D={seq.D}, model expects {model.D}")
    X = model.normalize(seq.data)
    Y, _ = _forward(model.params(), X[None], keep_cache=False)
    return SensorSeries(Y[0], dt=seq.dt)


def error_series(model: MomModel, seq: SensorSeries) -> np.ndarray:
    """Per-timestep reconstruction error 1 - cos_sim, each in [0, 2]."""
    if seq.D != model.D:
        raise ValidationError(f"sequence has D={seq.D}, model expects {model.D}")
    X = model.normalize(seq.data)
    Y, _ = _forward(model.params(), X[None], keep_cache=False)
    return 1.0 - _cos_columns(X[None], Y)[0]


def loss_and_gradients(params: dict[str, np.ndarray],
                       X: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """Batch cosine loss and its exact gradients for every parameter.

    ``X`` is a (n, D, T) batch already living in the normalized domain. The
    loss is the mean over sequences of the per-sequence cosine objective.
    """
    n, D, T = X.shape
    Y, cache = _forward(params, X, keep_cache=True)
    cos = _cos_columns(X, Y)
    loss = float(-(cos.mean(axis=1)).mean())

    dot = (X * Y).sum(axis=1)
    nx = np.sqrt((X * X).sum(axis=1))
    ny = np.sqrt((Y * Y).sum(axis=1))
    denom = (nx + _NORM_GUARD) * (ny + _NORM_GUARD)
    # d cos / d y for each column; the sigmoid keeps ny > 0
    coef = dot / (ny * (nx + _NORM_GUARD) * (ny + _NORM_GUARD) ** 2)
    dY = (X / denom[:, None, :] - Y * coef[:, None, :]) * (-1.0 / (n * T))

    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dh_next = np.zeros((n, D))
    for t in range(T - 1, -1, -1):
        x, pre, e, z, r, c, h_prev, y = cache[t]
        dh = dh_next + dY[:, :, t] * y * (1.0 - y)
        dzp = dh * (h_prev - c) * z * (1.0 - z)
        dcp = dh * (1.0 - z) * (1.0 - c * c)
        du = dcp @ params["cand_u"]          # gradient wrt (r * h_prev)
        drp = du * h_prev * r * (1.0 - r)
        grads["upd_w"] += dzp.T @ e
        grads["upd_u"] += dzp.T @ h_prev
        grads["upd_b"] += dzp.sum(axis=0)
        grads["rst_w"] += drp.T @ e
        grads["rst_u"] += drp.T @ h_prev
        grads["rst_b"] += drp.sum(axis=0)
        grads["cand_w"] += dcp.T @ e
        grads["cand_u"] += dcp.T @ (r * h_prev)
        grads["cand_b"] += dcp.sum(axis=0)
        de = dzp @ params["upd_w"] + drp @ params["rst_w"] + dcp @ params["cand_w"]
        dh_next = dh * z + dzp @ params["upd_u"] + drp @ params["rst_u"] + du * r
        dpre = de * (pre > 0)
        grads["enc_w"] += dpre.T @ x
        grads["enc_b"] += dpre.sum(axis=0)
    return loss, grads


def train(sequences: Sequence[SensorSeries], config: MomConfig) -> MomModel:
    """Fit the model on successful sensor sequences.

    The bottleneck is capped at D-1 so the configured default works on
    low-dimensional data. Normalization constants come from the training
    set; the per-epoch loss trace is stored on the returned model.
    """
    seqs = list(sequences)
    if len(seqs) < 2:
        raise ValidationError("training needs at least two sequences")
    D, T = seqs[0].D, seqs[0].T
    for s in seqs:
        if s.D != D or s.T != T:
            raise ValidationError(
                f"inconsistent sequence shapes: ({s.D}, {s.T}) vs ({D}, {T})")
    raw = np.stack([s.data for s in seqs])
    lo = raw.min(axis=(0, 2))
    hi = raw.max(axis=(0, 2))
    span = np.where(hi - lo < _NORM_GUARD, 1.0, hi - lo)
    X = (raw - lo[None, :, None]) / span[None, :, None]

    eff = replace(config, bottleneck=min(config.bottleneck, D - 1)) \
        if config.bottleneck >= D else config
    model = init_model(D, eff, seed=config.seed)
    params = {k: v.copy() for k, v in model.params().items()}

    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(vv) for k, vv in params.items()}
    losses = []
    for step in range(1, config.epochs + 1):
        loss, grads = loss_and_gradients(params, X)
        losses.append(loss)
        b1c = 1.0 - config.beta1 ** step
        b2c = 1.0 - config.beta2 ** step
        for k in params:
            m[k] = config.beta1 * m[k] + (1.0 - config.beta1) * grads[k]
            v[k] = config.beta2 * v[k] + (1.0 - config.beta2) * grads[k] ** 2
            params[k] -= config.learning_rate * (m[k] / b1c) / (np.sqrt(v[k] / b2c)
                                                                + config.adam_eps)
    return MomModel(**params, norm_lo=lo, norm_hi=hi, loss_history=tuple(losses))


@dataclass(frozen=True)
class ErrorStats:
    """Per-timestep Gaussian fit of reconstruction errors on successes."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = np.ascontiguousarray(np.asarray(self.mu, dtype=np.float64))
        sigma = np.ascontiguousarray(np.asarray(self.sigma, dtype=np.float64))
        if mu.shape != sigma.shape or mu.ndim != 1:
            raise ValidationError("mu and sigma must be matching vectors")
        if np.any(sigma <= 0):
            raise ValidationError("sigma entries must be positive")
        mu.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def T(self) -> int:
        return self.mu.size


def fit_error_stats(model: MomModel, sequences: Sequence[SensorSeries],
                    sigma_floor: float = 1e-6) -> ErrorStats:
    """Mean and maximum-likelihood std of the reconstruction error at each
    timestep across successful sequences, std floored at ``sigma_floor``."""
    seqs = list(sequences)
    if len(seqs) < 2:
        raise ValidationError("error statistics need at least two sequences")
    errs = np.stack([error_series(model, s) for s in seqs])
    return ErrorStats(mu=errs.mean(axis=0),
                      sigma=np.maximum(errs.std(axis=0), sigma_floor))


def _centered_moving_average(x: np.ndarray, width: int) -> np.ndarray:
    """Mean of x over steps t - width//2 .. t + width//2, the window shrunk at
    the boundaries, as a difference of prefix sums."""
    half = width // 2
    t = np.arange(x.size)
    lo = np.maximum(t - half, 0)
    hi = np.minimum(t + half + 1, x.size)
    prefix = np.concatenate(([0.0], np.cumsum(x)))
    return (prefix[hi] - prefix[lo]) / (hi - lo)


def detect_failure_time(stats: ErrorStats, errors: np.ndarray,
                        config: MomConfig) -> tuple[np.ndarray, int | None]:
    """Per-timestep success likelihood and the earliest detected failure.

    The likelihood is the Gaussian density of the observed error under the
    per-timestep statistics. Detection runs on the one-sided z-score
    max(0, (e - mu)/sigma), smoothed by a centered moving average (window
    shrunk at the boundaries); the failure time is the earliest step whose
    smoothed z exceeds ``config.z_threshold``, None when no step does.
    Only unusually high errors are suspicious; unusually low ones are
    better-than-typical reconstructions.
    """
    errors = np.asarray(errors, dtype=np.float64)
    if errors.shape != stats.mu.shape:
        raise ValidationError(
            f"errors have length {errors.size}, stats have {stats.T}")
    dev = (errors - stats.mu) / stats.sigma
    likelihood = np.exp(-0.5 * dev ** 2) / (stats.sigma * math.sqrt(2.0 * math.pi))
    z = np.maximum(0.0, dev)
    smoothed = _centered_moving_average(z, config.smoothing_window)
    above = np.nonzero(smoothed > config.z_threshold)[0]
    t_fail = int(above[0]) if above.size else None
    return likelihood, t_fail
