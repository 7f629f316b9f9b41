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

Layout. The model holds the gates stacked in the order z, r, c, as the
passes use them: ``gate_w`` = [upd_w; rst_w; cand_w] (3, D, B), ``gate_u`` =
[upd_u; rst_u; cand_u] (3, D, D) and ``gate_b`` (3, D). A batch of n
sequences runs time-major, as (T, n, D) arrays, in a ``_Workspace`` that
holds every large array a pass writes: the input, the encodings, the gates,
the states, the output and the gate gradients. ``train`` builds one
workspace and reuses it on every epoch, so a warm epoch allocates nothing of
(T, n) size, and no memory goes back to the system only to be faulted in
again by the next epoch. It also holds each loop's per-step views and small
buffers, built once, so a step creates no array object. Scoring
(``error_rows``, ``error_series``, ``reconstruct``) builds one without the
backward buffers and views. Scratch products and the loss's (T, n) columns
go into buffers that are dead at that moment: the gradient slab before the
backward pass, the output and candidate buffers after it.

Whatever does not depend on the hidden state is computed for all T at once
(after Appleyard, Kocisky & Blunsom 2016, arXiv:1604.01946): the encodings
as one (T n, D) GEMM, and each gate's input product as one GEMM over all T n
rows, every weight operand a contiguous copy. The update and reset gates
share one time-major slab ZR (T, 2, n, D), so each step's z|r block is one
contiguous (2, n, D) array; the candidate gate has its own (T, n, D) array
C. z and r are held negated until their sigmoid, through -gate_w[:2],
-gate_b[:2] and -gate_u[:2]: IEEE negation is exact, so each step's sigmoid
is three in-place ufuncs on the slab (exp, += 1, reciprocal) with the bits
of 1 / (1 + exp(-x)). The recurrence makes two products per step, h with the
negated gate_u[:2] (one batched matmul) and r * h with gate_u[2] (np.dot,
cheaper to call than matmul and bit-equal to it on contiguous operands), and
writes them and every other per-step product into the workspace's buffers,
each loop call passing its output positionally. The backward pass forms the
gates' local derivatives for all T before its loop, reading z and r as views
of ZR, makes the two products that depend on dh per step into preallocated
buffers (again np.dot for the 2-D one), and forms each weight gradient after
the loop as a product over all T n rows. Sums over the short D axis (the
cosine's dot products and norms) and over all T n rows (the bias gradients)
are matrix-vector products against a vector of ones. ``train`` runs ADAM in
place on one flat vector that the parameters view, with the operations of
the per-array formulas in their order, and so with their bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import _UFUNC_BUFFER, SensorSeries
from .errors import ConfigError, ValidationError

_NORM_GUARD = 1e-12  # additive guard on vector norms in the cosine
# ADAM's step size, moment decay rates and denominator guard
_LEARNING_RATE = 1e-3
_BETA1 = 0.9
_BETA2 = 0.999
_ADAM_EPS = 1e-8
# lower bound on the per-timestep error std of ErrorStats
_SIGMA_FLOOR = 1e-6

_PARAM_FIELDS = ("enc_w", "enc_b", "gate_w", "gate_u", "gate_b")


@dataclass(frozen=True)
class MomConfig:
    bottleneck: int = 32
    epochs: int = 500
    smoothing_window: int = 25
    z_threshold: float = 3.0
    seed: int = 0

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.bottleneck >= 1:
            raise ConfigError("bottleneck must be >= 1")
        if not self.epochs >= 1:
            raise ConfigError("epochs must be >= 1")
        if not self.smoothing_window >= 1:
            raise ConfigError("smoothing_window must be >= 1")
        if not self.z_threshold > 0:
            raise ConfigError("z_threshold must be positive")
        if not self.seed >= 0:
            raise ConfigError("seed must be >= 0")


@dataclass(frozen=True)
class MomModel:
    """The encoder (``enc_w`` B x D, ``enc_b``), the gates stacked as the
    module docstring lays out, and the normalization box."""

    enc_w: np.ndarray
    enc_b: np.ndarray
    gate_w: np.ndarray
    gate_u: np.ndarray
    gate_b: np.ndarray
    norm_lo: np.ndarray
    norm_hi: np.ndarray
    loss_history: tuple[float, ...] = ()

    def __post_init__(self):
        # each array is the record's own read-only copy; the caller's stays writeable
        for name in _PARAM_FIELDS + ("norm_lo", "norm_hi"):
            arr = np.array(getattr(self, name), dtype=np.float64, order="C")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"non-finite values in {name}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.enc_w.ndim != 2:
            raise ValidationError(f"enc_w must be a B x D matrix, found shape {self.enc_w.shape}")
        B, D = self.enc_w.shape
        shapes = {"enc_b": (B,), "gate_w": (3, D, B), "gate_u": (3, D, D),
                  "gate_b": (3, D), "norm_lo": (D,), "norm_hi": (D,)}
        for name, shape in shapes.items():
            if getattr(self, name).shape != shape:
                raise ValidationError(f"{name} has shape {getattr(self, name).shape}, "
                                      f"expected {shape} for B={B}, D={D}")
        if B >= D:
            raise ConfigError(
                f"bottleneck ({B}) must be smaller than the input dimensionality ({D})")
        history = tuple(float(x) for x in self.loss_history)
        if not np.all(np.isfinite(history)):
            raise ValidationError("non-finite values in loss_history")
        object.__setattr__(self, "loss_history", history)

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


def init_model(D: int, config: MomConfig) -> MomModel:
    """Fresh model with weights ~ U(-1/sqrt(fan_in), +1/sqrt(fan_in)) and zero
    biases; identity normalization until trained. Deterministic given
    ``config.seed``: enc_w is drawn first, then each gate's w and u in turn."""
    B = config.bottleneck
    rng = np.random.default_rng(config.seed)

    def u(fan_in, shape):
        s = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-s, s, size=shape)

    enc_w = u(D, (B, D))
    gate_w, gate_u = zip(*[(u(B, (D, B)), u(D, (D, D))) for _ in range(3)])
    return MomModel(enc_w=enc_w, enc_b=np.zeros(B), gate_w=np.stack(gate_w),
                    gate_u=np.stack(gate_u), gate_b=np.zeros((3, D)),
                    norm_lo=np.zeros(D), norm_hi=np.ones(D))


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function, written into ``out`` when given (it may be ``x``)."""
    out = np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


class _Workspace:
    """Every buffer that one pass over an (n, D, T) batch writes, for a
    bottleneck B, allocated once so that repeated passes over batches of that
    shape reuse the same memory.

    ``Xt`` is the time-major input (T, n, D); ``E`` the encodings (T, n, B);
    ``ZR`` the update and reset gates (T, 2, n, D); ``C`` the candidate gate
    (T, n, D); ``H`` the states (T + 1, n, D) with H[0] = 0; ``Y`` the output
    (T, n, D), which the backward pass turns into dL/dh; ``K`` the gate
    pre-activation gradients (3, T, n, D) in the order z, r, c; and ``ones``
    T n ones, against which the gradients are summed over all rows. Each loop
    has its per-step products (``uh``, ``rh``, ``uc``; ``dh_next``, ``du``,
    ``ud``) and its per-step views of the slabs in the order it visits them
    (``forward_steps``, ``backward_steps``). A forward-only workspace, for
    scoring, has none of the backward pass's buffers or views.
    """

    def __init__(self, n: int, D: int, T: int, B: int, backward: bool = True):
        self.Xt = np.empty((T, n, D))
        self.E = np.empty((T, n, B))
        self.ZR = np.empty((T, 2, n, D))
        self.C = np.empty((T, n, D))
        self.H = np.zeros((T + 1, n, D))
        self.Y = np.empty((T, n, D))
        self.uh, self.rh, self.uc = np.empty((2, n, D)), np.empty((n, D)), np.empty((n, D))
        ZR, H = self.ZR, self.H
        self.forward_steps = list(zip(H[:-1], H[1:], ZR, ZR[:, 0], ZR[:, 1], self.C))
        if backward:
            K = self.K = np.empty((3, T, n, D))
            self.ones = np.ones(T * n)
            self.dh_next, self.du, self.ud = np.empty((n, D)), np.empty((n, D)), np.empty((2, n, D))
            steps = (self.Y, K[:2].swapaxes(0, 1), *K, ZR[:, 0], ZR[:, 1])
            self.backward_steps = list(zip(*(a[::-1] for a in steps)))

    def load(self, X: np.ndarray) -> None:
        """Copy an (n, D, T) batch into ``Xt``, time-major."""
        np.copyto(self.Xt, X.transpose(2, 0, 1))


def _forward(p: dict[str, np.ndarray], work: _Workspace) -> None:
    """Run the network over the time-major batch in ``work.Xt``, filling the
    encodings E, the gates ZR and C, the states H and the output Y."""
    Xt, E, ZR, C, H = work.Xt, work.E, work.ZR, work.C, work.H
    T, n, D = Xt.shape
    E2, C2 = E.reshape(T * n, -1), C.reshape(T * n, D)
    np.matmul(Xt.reshape(T * n, D), p["enc_w"].T.copy(), out=E2)
    E2 += p["enc_b"]
    np.maximum(E2, 0.0, out=E2)
    U, b = p["gate_u"], p["gate_b"]
    # Transposed weights as contiguous copies (.copy() is C order): BLAS runs
    # a transposed operand at half the speed.
    W_T, Uzr_T = p["gate_w"].swapaxes(1, 2).copy(), U[:2].swapaxes(1, 2).copy()
    Uc_T = U[2].T.copy()
    # z and r are held negated until their sigmoid. IEEE negation is exact, so
    # (-w) e - b + (-u) h is -(w e + b + u h) bit for bit, and exp, += 1 and
    # reciprocal on it give the bits of _sigmoid. Each gate's input product
    # passes through C's buffer on its way into ZR.
    np.negative(W_T[:2], out=W_T[:2])
    np.negative(Uzr_T, out=Uzr_T)
    for k in range(2):
        np.matmul(E2, W_T[k], out=C2)
        np.subtract(C, b[k], out=ZR[:, k])
    np.matmul(E2, W_T[2], out=C2)
    C2 += b[2]
    H[0] = 0.0
    uh, rh, uc = work.uh, work.rh, work.uc
    for h, h_new, zr, z, r, c in work.forward_steps:
        zr += np.matmul(h, Uzr_T, uh)
        np.exp(zr, zr)
        zr += 1.0
        np.reciprocal(zr, zr)
        np.multiply(r, h, rh)
        c += np.dot(rh, Uc_T, uc)
        np.tanh(c, c)
        np.multiply(z, h, h_new)
        np.subtract(1.0, z, rh)               # rh is spent: it takes 1 - z
        rh *= c
        h_new += rh
    _sigmoid(H[1:], out=work.Y)


def _columns(slab: np.ndarray, k: int) -> np.ndarray:
    """k <= D contiguous (T, n) columns in a (T, n, D) slab's memory."""
    T, n, _ = slab.shape
    return slab.reshape(-1)[:k * T * n].reshape(k, T, n)


def _cos_terms(Xt: np.ndarray, Y: np.ndarray, scratch: np.ndarray, cols):
    """Dot products and both norms of each (timestep, sequence) pair of
    D-vectors of two (T, n, D) batches, written into the three contiguous
    (T, n) arrays of ``cols`` and returned. Each product passes through
    ``scratch`` (T, n, D) and is summed over D as one matrix-vector product."""
    T, n, D = Xt.shape
    rows, ones = scratch.reshape(T * n, D), np.ones(D)
    for a, b, col in ((Xt, Y, cols[0]), (Xt, Xt, cols[1]), (Y, Y, cols[2])):
        np.multiply(a, b, out=scratch)
        np.matmul(rows, ones, out=col.reshape(T * n))
    dot, nx, ny = cols
    return dot, np.sqrt(nx, out=nx), np.sqrt(ny, out=ny)


def _cos_columns(Xt: np.ndarray, Y: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Per-(timestep, sequence) cosine similarity of two (T, n, D) batches,
    overwriting ``scratch`` (T, n, D)."""
    dot, nx, ny = _cos_terms(Xt, Y, scratch, np.empty((3,) + Xt.shape[:2]))
    return dot / ((nx + _NORM_GUARD) * (ny + _NORM_GUARD))


def _normalized_batch(model: MomModel, sequences: Sequence[SensorSeries],
                      T: int | None = None) -> np.ndarray:
    """The sequences in the model's normalized domain, stacked as (n, D, T).
    Each must have the model's D and the T of ``T`` when given, else of the
    first sequence; they are checked before they are stacked."""
    seqs = list(sequences)
    if not seqs:
        raise ValidationError("no sequences to score")
    T = seqs[0].T if T is None else T
    for i, s in enumerate(seqs):
        if s.D != model.D or s.T != T:
            raise ValidationError(f"sequence {i} has shape (D={s.D}, T={s.T}), "
                                  f"expected (D={model.D}, T={T})")
    return model.normalize(np.stack([s.data for s in seqs]))


def _scored(model: MomModel, X: np.ndarray) -> _Workspace:
    """A forward-only workspace after one pass over the normalized batch X."""
    work = _Workspace(*X.shape, model.bottleneck, backward=False)
    work.load(X)
    _forward(model.params(), work)
    return work


def error_rows(model: MomModel, sequences: Sequence[SensorSeries],
               T: int | None = None) -> np.ndarray:
    """Per-timestep reconstruction errors 1 - cos_sim, each in [0, 2], of
    every sequence, one row each, from one batched forward pass. The
    sequences must share the model's D and one T (``T`` when given)."""
    work = _scored(model, _normalized_batch(model, sequences, T))
    return 1.0 - _cos_columns(work.Xt, work.Y, work.C).T   # C is spent


def error_series(model: MomModel, seq: SensorSeries) -> np.ndarray:
    """Per-timestep reconstruction error 1 - cos_sim of one sequence."""
    return error_rows(model, [seq])[0]


def reconstruct(model: MomModel, seq: SensorSeries) -> SensorSeries:
    """Network output for one sequence, in the model's normalized domain."""
    Y = _scored(model, _normalized_batch(model, [seq])).Y
    return SensorSeries(Y[:, 0].T, dt=seq.dt)


def _output_gradient(Xt: np.ndarray, Y: np.ndarray,
                     scratch: np.ndarray) -> tuple[float, np.ndarray]:
    """The batch loss of output Y (T, n, D) against Xt and its gradient with
    respect to the states h, formed in Y's buffer. Overwrites ``scratch``
    (3, T, n, D)."""
    T, n, _ = Xt.shape
    # Every (T, n) column lies in a slab of scratch that is dead at the time
    # (a slab holds D >= 2 of them) and is updated in place where it is spent.
    slope, q, spare = scratch
    dot, ratio = _columns(q, 2)
    gx, ny = _columns(spare, 2)
    _cos_terms(Xt, Y, slope, (dot, gx, ny))        # gx holds the norm of x
    gy, g = _columns(slope, 2)
    gx += _NORM_GUARD
    np.add(ny, _NORM_GUARD, out=gy)
    np.multiply(gx, gy, out=g)
    loss = float(-(np.divide(dot, g, out=ratio).mean(axis=0)).mean())
    # dL/dy per column (the sigmoid keeps ny > 0), then through y = sigmoid(h)
    gx *= ny
    gx *= np.square(gy, out=gy)
    a = np.divide(dot, gx, out=ny)                  # dot / (ny gx gy^2); ny is spent
    np.divide(Xt, g[:, :, None], out=q)             # dot and ratio are spent
    np.subtract(1.0, Y, out=slope)                  # gy and g are spent
    slope *= Y
    Y *= a[:, :, None]
    Y -= q
    Y *= 1.0 / (n * T)
    Y *= slope
    return loss, Y


def _backward(p: dict[str, np.ndarray], work: _Workspace) -> np.ndarray:
    """The loop back through time: from dL/dh in ``work.Y`` and the gates as
    the forward pass leaves them, the gradients of the gate pre-activations,
    written into K (3, T, n, D) in the order z, r, c. Overwrites Y and C."""
    ZR, C, H_prev, K = work.ZR, work.C, work.H[:-1], work.K
    Z, R = ZR.swapaxes(0, 1)
    # The coefficients of dh in the gate gradients, for all t at once:
    # dz' = dh (h - c) z (1 - z), dc' = dh (1 - z)(1 - c^2) and dr' = du h r (1 - r)
    # with du = dc' gate_u[2]. Step t overwrites K[:, t] by dz', dr' and dc'.
    Kz, Kr, Kc = K
    np.subtract(1.0, R, out=Kc)               # Kc holds 1 - r until its own turn
    np.multiply(R, H_prev, out=Kr)
    Kr *= Kc
    np.subtract(1.0, Z, out=Kc)
    np.subtract(H_prev, C, out=Kz)
    Kz *= Z
    Kz *= Kc
    np.multiply(C, C, out=C)
    Kc *= np.subtract(1.0, C, out=C)

    Uzr, Uc = p["gate_u"][:2], p["gate_u"][2]
    # dh_next is spent by the first line of each step, so one buffer serves
    dh_next, du, ud = work.dh_next, work.du, work.ud
    ud_z, ud_r = ud
    dh_next.fill(0.0)
    for dh, dzr, dz, dr, dc, z, r in work.backward_steps:
        dh += dh_next
        dz *= dh
        dc *= dh
        np.dot(dc, Uc, du)                    # gradient wrt r * h_prev
        dr *= du
        np.multiply(dh, z, dh_next)
        np.matmul(dzr, Uzr, ud)
        dh_next += np.add(ud_z, ud_r, ud_z)
        du *= r
        dh_next += du
    return K


def loss_and_gradients(params: dict[str, np.ndarray], X: np.ndarray,
                       work: _Workspace | None = None
                       ) -> tuple[float, dict[str, np.ndarray]]:
    """Batch cosine loss and its exact gradients for every parameter.

    ``X`` is a (n, D, T) batch already living in the normalized domain. The
    loss is the mean over sequences of the per-sequence cosine objective.
    The weight gradients are products over all T n rows at once, formed
    after the loop back through time. The pass runs in ``work``, a
    workspace for X's shape and the parameters' bottleneck, built afresh
    when omitted.
    """
    old = np.setbufsize(_UFUNC_BUFFER)
    try:
        return _pass(params, X, work)
    finally:
        np.setbufsize(old)


def _pass(params, X, work):
    n, D, T = X.shape
    B, N = params["enc_w"].shape[0], T * n
    if work is None:
        work = _Workspace(n, D, T, B)
    work.load(X)
    _forward(params, work)
    Xt, E, ZR, C, H, Y, K = work.Xt, work.E, work.ZR, work.C, work.H, work.Y, work.K
    # K is free until the backward pass, so it holds the loss's scratch products
    loss = _output_gradient(Xt, Y, K)[0]   # dL/dh goes into Y
    dG = _backward(params, work).reshape(3, N, D)
    # dH (in Y) and C are spent: Y takes r_t * h_{t-1}, then the per-gate
    # products of the encoder's gradient, which accumulates in C (an (N, B)
    # array fits in an (N, D) buffer, as B < D)
    E2, H2 = E.reshape(N, B), H[:-1].reshape(N, D)
    gU = np.empty((3, D, D))
    np.multiply(ZR[:, 1], H[:-1], out=Y)
    np.matmul(dG[2].T, Y.reshape(N, D), out=gU[2])
    np.matmul(dG[:2].swapaxes(1, 2), H2, out=gU[:2])
    de, tmp = C.reshape(-1)[:N * B].reshape(N, B), Y.reshape(-1)[:N * B].reshape(N, B)
    W = params["gate_w"]
    np.matmul(dG[0], W[0], out=de)
    for g, w in zip(dG[1:], W[1:]):
        de += np.matmul(g, w, out=tmp)
    # relu: e > 0 exactly where its input is, and e >= 0, so sign(e) is the mask
    de *= np.sign(E2, out=tmp)
    return loss, {"enc_w": de.T @ Xt.reshape(N, D), "enc_b": work.ones @ de,
                  "gate_w": np.matmul(dG.swapaxes(1, 2), E2), "gate_u": gU,
                  "gate_b": work.ones @ dG}


def train(sequences: Sequence[SensorSeries], config: MomConfig) -> MomModel:
    """Fit the model on successful sensor sequences.

    The data needs D >= 2 channels; the bottleneck is capped at D-1 so the
    configured default works on low-dimensional data. Normalization
    constants come from the training set; the per-epoch loss trace is stored
    on the returned model.
    """
    seqs = list(sequences)
    if len(seqs) < 2:
        raise ValidationError("training needs at least two sequences")
    D, T = seqs[0].D, seqs[0].T
    for s in seqs:
        if s.D != D or s.T != T:
            raise ValidationError(
                f"inconsistent sequence shapes: ({s.D}, {s.T}) vs ({D}, {T})")
    if D < 2:
        raise ValidationError(
            f"the observation model needs at least 2 sensor channels, got D={D}")
    raw = np.stack([s.data for s in seqs])
    model = replace(init_model(D, replace(config, bottleneck=min(config.bottleneck, D - 1))),
                    norm_lo=raw.min(axis=(0, 2)), norm_hi=raw.max(axis=(0, 2)))
    X = model.normalize(raw)
    # The parameters are views into one flat vector, which ADAM updates in
    # place with the operations, in their order, of its per-array formulas
    start = model.params()
    theta = np.concatenate(list(start.values()), axis=None)
    params, at = {}, 0
    for k, arr in start.items():
        params[k] = theta[at:at + arr.size].reshape(arr.shape)
        at += arr.size
    work = _Workspace(*X.shape, model.bottleneck)
    g, m, v, num, den = (np.zeros_like(theta) for _ in range(5))
    losses = []
    for step in range(1, config.epochs + 1):
        loss, grads = loss_and_gradients(params, X, work=work)
        losses.append(loss)
        np.concatenate([grads[k] for k in params], axis=None, out=g)
        b1c = 1.0 - _BETA1 ** step
        b2c = 1.0 - _BETA2 ** step
        m *= _BETA1                           # m = b1 m + (1 - b1) g
        m += np.multiply(g, 1.0 - _BETA1, num)
        v *= _BETA2                           # v = b2 v + (1 - b2) g^2
        g *= g
        v += np.multiply(g, 1.0 - _BETA2, num)
        np.divide(m, b1c, num)                # lr (m / b1c) / (sqrt(v / b2c) + eps)
        num *= _LEARNING_RATE
        np.divide(v, b2c, den)
        np.sqrt(den, den)
        den += _ADAM_EPS
        num /= den
        theta -= num
    return replace(model, **params, loss_history=tuple(losses))


@dataclass(frozen=True)
class ErrorStats:
    """Per-timestep Gaussian fit of reconstruction errors on successes."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        # the record's own read-only copies; the caller's arrays stay writeable
        mu = np.array(self.mu, dtype=np.float64, order="C")
        sigma = np.array(self.sigma, dtype=np.float64, order="C")
        if mu.shape != sigma.shape or mu.ndim != 1:
            raise ValidationError("mu and sigma must be matching vectors")
        if not (np.all(np.isfinite(mu)) and np.all((sigma > 0) & (sigma < np.inf))):
            raise ValidationError("mu must be finite and sigma entries finite and positive")
        mu.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def T(self) -> int:
        return self.mu.size


@dataclass(frozen=True)
class MomBundle:
    """An observation model and the error statistics fitted alongside it."""

    model: MomModel
    error_stats: ErrorStats

    def __post_init__(self):
        if not isinstance(self.error_stats, ErrorStats):
            raise ValidationError("an observation model needs its error statistics, "
                                  f"found {type(self.error_stats).__name__}")


def fit_error_stats(model: MomModel, sequences: Sequence[SensorSeries]) -> ErrorStats:
    """Mean and maximum-likelihood std of the reconstruction error at each
    timestep across successful sequences, std floored at ``_SIGMA_FLOOR``."""
    seqs = list(sequences)
    if len(seqs) < 2:
        raise ValidationError("error statistics need at least two sequences")
    errs = error_rows(model, seqs)
    return ErrorStats(mu=errs.mean(axis=0),
                      sigma=np.maximum(errs.std(axis=0), _SIGMA_FLOOR))


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
