import json
import os
import tracemalloc

import numpy as np
import pytest

from blamebox import (ConfigError, ErrorStats, MomConfig, MomModel, SensorSeries,
                      ValidationError, detect_failure_time, error_rows,
                      error_series, fit_error_stats, init_model, load_model,
                      mom, reconstruct, train)
from blamebox.mom import (_PARAM_FIELDS, _SIGMA_FLOOR, _centered_moving_average,
                          _cos_columns, _Workspace, loss_and_gradients)


def fd_gradients(params, X, step=1e-5):
    """Central finite differences through the full network loss."""
    out = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up, _ = loss_and_gradients(params, X)
            flat[i] = orig - step
            down, _ = loss_and_gradients(params, X)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * step)
        out[name] = g
    return out


def max_relative_error(analytic, numeric):
    worst = 0.0
    for name in analytic:
        a, n = analytic[name].ravel(), numeric[name].ravel()
        rel = np.abs(a - n) / np.maximum(np.abs(a) + np.abs(n), 1e-4)
        worst = max(worst, float(rel.max()))
    return worst


def random_params(D, B, rng):
    model = init_model(D, MomConfig(bottleneck=B, seed=int(rng.integers(2**31))))
    return {k: rng.uniform(-0.6, 0.6, size=v.shape) for k, v in model.params().items()}


def zero_model(D=4, B=2):
    fields = {}
    for name in _PARAM_FIELDS:
        ref = init_model(D, MomConfig(bottleneck=B, seed=0))
        fields[name] = np.zeros_like(getattr(ref, name))
    return MomModel(**fields, norm_lo=np.zeros(D), norm_hi=np.ones(D))


class TestInit:
    def test_deterministic(self):
        cfg = MomConfig(bottleneck=2, seed=7)
        a = init_model(8, cfg)
        b = init_model(8, cfg)
        for name in _PARAM_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_bottleneck_must_compress(self):
        with pytest.raises(ConfigError):
            init_model(8, MomConfig(bottleneck=8, seed=0))

    def test_fan_in_bounds(self):
        m = init_model(3, MomConfig(bottleneck=2, seed=1))
        assert np.all(np.abs(m.enc_w) <= 1.0 / np.sqrt(3))
        assert np.all(np.abs(m.gate_w) <= 1.0 / np.sqrt(2))
        assert np.all(np.abs(m.gate_u) <= 1.0 / np.sqrt(3))
        assert np.all(m.enc_b == 0.0)


class TestForward:
    def test_zero_weights_give_half(self):
        m = zero_model()
        seq = SensorSeries(np.random.default_rng(0).uniform(0, 1, (4, 6)))
        out = reconstruct(m, seq)
        assert np.allclose(out.data, 0.5)

    def test_causality_bit_exact(self):
        rng = np.random.default_rng(3)
        m = init_model(5, MomConfig(bottleneck=3, seed=11))
        base = rng.uniform(0, 1, (5, 9))
        for t in (0, 4, 8):
            bumped = base.copy()
            bumped[:, t] += 0.25
            ya = reconstruct(m, SensorSeries(base)).data
            yb = reconstruct(m, SensorSeries(bumped)).data
            assert np.array_equal(ya[:, :t], yb[:, :t])

    def test_perturbation_reaches_later_outputs(self):
        # all-positive encoder keeps units live, so the bump must propagate
        ref = init_model(5, MomConfig(bottleneck=3, seed=11))
        fields = {name: np.abs(getattr(ref, name)) + 0.05 for name in _PARAM_FIELDS}
        m = MomModel(**fields, norm_lo=np.zeros(5), norm_hi=np.ones(5))
        base = np.random.default_rng(3).uniform(0, 1, (5, 9))
        bumped = base.copy()
        bumped[:, 4] += 0.25
        ya = reconstruct(m, SensorSeries(base)).data
        yb = reconstruct(m, SensorSeries(bumped)).data
        assert np.array_equal(ya[:, :4], yb[:, :4])
        assert not np.array_equal(ya[:, 4:], yb[:, 4:])

    def test_dimension_mismatch(self):
        m = init_model(5, MomConfig(bottleneck=3, seed=0))
        with pytest.raises(ValidationError):
            reconstruct(m, SensorSeries(np.zeros((4, 6))))


def cosine_objective(x, y):
    """Negated mean per-timestep cosine similarity of two (D, T) matrices,
    taken through the per-column cosines that training and scoring use."""
    xt, yt = x.T[:, None], y.T[:, None]
    return float(-_cos_columns(xt, yt, np.empty(xt.shape)).mean())


class TestCosineObjective:
    def test_identity_is_minus_one(self):
        x = np.random.default_rng(0).uniform(0.1, 1, (4, 7))
        assert cosine_objective(x, x) == pytest.approx(-1.0)

    def test_orthogonal_is_zero(self):
        x = np.zeros((2, 3))
        y = np.zeros((2, 3))
        x[0], y[1] = 1.0, 1.0
        assert cosine_objective(x, y) == pytest.approx(0.0)

    def test_antiparallel_is_plus_one(self):
        x = np.random.default_rng(1).uniform(0.1, 1, (3, 5))
        assert cosine_objective(x, -x) == pytest.approx(1.0)

    def test_zero_columns_guarded(self):
        assert cosine_objective(np.zeros((2, 3)), np.ones((2, 3))) == pytest.approx(0.0)


class TestGradients:
    def test_small_instance_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(3):
            params = random_params(3, 2, rng)
            X = rng.uniform(0.05, 0.95, (2, 3, 5))
            _, g = loss_and_gradients(params, X)
            worst = max(worst, max_relative_error(g, fd_gradients(params, X)))
        assert worst <= 1e-4


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_loss_and_gradients(p, X):
    """The network's loss and gradients written as one step at a time: every
    product inside the loop over t, and every weight gradient accumulated
    step by step. An oracle for the batched implementation."""
    n, D, T = X.shape
    h = np.zeros((n, D))
    Y = np.empty_like(X)
    cache = []
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
        cache.append((x, pre, e, z, r, c, h, y))
        h = h_new
    dot = (X * Y).sum(axis=1)
    nx = np.sqrt((X * X).sum(axis=1))
    ny = np.sqrt((Y * Y).sum(axis=1))
    denom = (nx + 1e-12) * (ny + 1e-12)
    loss = float(-((dot / denom).mean(axis=1)).mean())
    coef = dot / (ny * (nx + 1e-12) * (ny + 1e-12) ** 2)
    dY = (X / denom[:, None, :] - Y * coef[:, None, :]) * (-1.0 / (n * T))
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    dh_next = np.zeros((n, D))
    for t in range(T - 1, -1, -1):
        x, pre, e, z, r, c, h_prev, y = cache[t]
        dh = dh_next + dY[:, :, t] * y * (1.0 - y)
        dzp = dh * (h_prev - c) * z * (1.0 - z)
        dcp = dh * (1.0 - z) * (1.0 - c * c)
        du = dcp @ p["cand_u"]
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
        de = dzp @ p["upd_w"] + drp @ p["rst_w"] + dcp @ p["cand_w"]
        dh_next = dh * z + dzp @ p["upd_u"] + drp @ p["rst_u"] + du * r
        dpre = de * (pre > 0)
        grads["enc_w"] += dpre.T @ x
        grads["enc_b"] += dpre.sum(axis=0)
    return loss, grads, Y


GATES = ("upd", "rst", "cand")


def per_gate(params):
    """Stacked parameters (or gradients) under the oracle's per-gate names."""
    named = {"enc_w": params["enc_w"], "enc_b": params["enc_b"]}
    for i, gate in enumerate(GATES):
        named.update({f"{gate}_{part}": params[f"gate_{part}"][i] for part in "wub"})
    return named


def stacked(named):
    """Per-gate parameters (or gradients) stacked as the model holds them."""
    return {"enc_w": named["enc_w"], "enc_b": named["enc_b"],
            **{f"gate_{part}": np.stack([named[f"{gate}_{part}"] for gate in GATES])
               for part in "wub"}}


def relative_difference(a, b):
    """Largest entry of |a - b| relative to the largest entry of |b|."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    scale = np.abs(b).max()
    return float(np.abs(a - b).max() / scale) if scale > 0 else float(np.abs(a).max())


class TestStepwiseOracle:
    @pytest.mark.parametrize("n,D,B,T", [(30, 8, 7, 200), (1, 2, 1, 1), (3, 5, 2, 1)])
    def test_loss_and_gradients_match(self, n, D, B, T):
        rng = np.random.default_rng(n * 1000 + T)
        params = init_model(D, MomConfig(bottleneck=B, seed=n + T)).params()
        params = {k: v + rng.uniform(-0.3, 0.3, v.shape) for k, v in params.items()}
        X = rng.uniform(0.0, 1.0, (n, D, T))
        loss, grads = loss_and_gradients(params, X)
        ref_loss, ref_grads, _ = reference_loss_and_gradients(per_gate(params), X)
        ref_grads = stacked(ref_grads)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert set(grads) == set(ref_grads)
        for name in ref_grads:
            assert grads[name].shape == ref_grads[name].shape
            assert relative_difference(grads[name], ref_grads[name]) <= 1e-12, name

    @pytest.mark.parametrize("n,D,B,T", [(6, 5, 3, 40), (1, 2, 1, 7)])
    def test_saturated_gates_match(self, n, D, B, T):
        # update and reset pre-activations near +-30: far into the sigmoid's
        # tails, yet exp(30) is far from overflow
        rng = np.random.default_rng(n + D + T)
        params = random_params(D, B, rng)
        params["gate_b"][:2] = 30.0 * rng.choice([-1.0, 1.0], (2, D))
        X = rng.uniform(0.0, 1.0, (n, D, T))
        e = np.maximum(np.einsum("bd,ndt->ntb", params["enc_w"], X) + params["enc_b"], 0.0)
        inputs = np.einsum("kdb,ntb->kntd", params["gate_w"][:2], e)
        # |h| <= 1, so the recurrent term moves each pre-activation by at most this
        reach = np.abs(params["gate_u"][:2]).sum(axis=2)[:, None, None, :]
        pre = params["gate_b"][:2, None, None, :] + inputs
        assert np.all(np.abs(pre) - reach > 25.0) and np.all(np.abs(pre) + reach < 35.0)
        loss, grads = loss_and_gradients(params, X)
        ref_loss, ref_grads, _ = reference_loss_and_gradients(per_gate(params), X)
        ref_grads = stacked(ref_grads)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        for name in ref_grads:
            assert relative_difference(grads[name], ref_grads[name]) <= 1e-12, name

    def test_parameters_and_batch_left_unchanged(self):
        rng = np.random.default_rng(11)
        params = random_params(6, 3, rng)
        X = rng.uniform(0.0, 1.0, (4, 6, 25))
        before = {k: v.copy() for k, v in params.items()}
        X_before = X.copy()
        loss_and_gradients(params, X)
        assert set(params) == set(before)
        for name, arr in params.items():
            assert arr.tobytes() == before[name].tobytes(), name
        assert X.tobytes() == X_before.tobytes()

    def test_reconstruction_matches(self):
        rng = np.random.default_rng(5)
        model = init_model(6, MomConfig(bottleneck=3, seed=2))
        seq = SensorSeries(rng.uniform(0.0, 1.0, (6, 40)))
        _, _, Y = reference_loss_and_gradients(per_gate(model.params()), seq.data[None])
        assert relative_difference(reconstruct(model, seq).data, Y[0]) <= 1e-12

    def test_model_file_names_map_to_gate_slots(self):
        # the oracle reads the file's per-gate names directly, so a gate
        # loaded into the wrong slot changes the loaded model's output
        fixture = os.path.join(os.path.dirname(__file__), "data", "mom_v1.json")
        with open(fixture, encoding="utf-8") as fh:
            named = {k: np.array(v) for k, v in json.load(fh)["params"].items()}
        model = load_model(fixture, expect="mom").model
        seq = SensorSeries(np.random.default_rng(7).uniform(-1.0, 2.0, (model.D, 30)))
        _, _, Y = reference_loss_and_gradients(named, model.normalize(seq.data)[None])
        assert relative_difference(reconstruct(model, seq).data, Y[0]) <= 1e-12

    def test_batched_rows_equal_error_series(self):
        rng = np.random.default_rng(6)
        model = init_model(8, MomConfig(bottleneck=7, seed=4))
        model = MomModel(**model.params(), norm_lo=np.full(8, -0.5), norm_hi=np.full(8, 1.5))
        seqs = [SensorSeries(rng.normal(0.5, 0.4, (8, 60))) for _ in range(12)]
        rows = error_rows(model, seqs)
        assert rows.shape == (12, 60)
        for row, s in zip(rows, seqs):
            np.testing.assert_allclose(row, error_series(model, s), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape,T", [((4, 9), None), ((3, 10), None), ((4, 10), 9)])
    def test_shape_mismatch_named_before_stacking(self, shape, T):
        model = init_model(4, MomConfig(bottleneck=2, seed=0))
        seqs = [SensorSeries(np.zeros((4, 10))), SensorSeries(np.zeros(shape))]
        expected = 0 if T is not None else 1
        with pytest.raises(ValidationError, match=f"sequence {expected} has shape"):
            error_rows(model, seqs, T=T)
        if T is None:
            with pytest.raises(ValidationError, match=r"sequence 1 .*\(D=4, T=10\)"):
                fit_error_stats(model, seqs)


class TestWorkspace:
    def test_reused_workspace_matches_fresh_bit_for_bit(self):
        rng = np.random.default_rng(21)
        n, D, B, T = 5, 6, 3, 30
        X = rng.uniform(0.0, 1.0, (n, D, T))
        work = _Workspace(n, D, T, B)
        for poison in (False, False, True):
            if poison:   # a pass reads nothing that it did not write itself
                for name, buf in vars(work).items():
                    if name != "ones":
                        buf.fill(np.nan)
            params = random_params(D, B, rng)
            loss, grads = loss_and_gradients(params, X, work=work)
            fresh_loss, fresh = loss_and_gradients(params, X)
            assert loss == fresh_loss
            assert set(grads) == set(fresh)
            for name in fresh:
                assert grads[name].tobytes() == fresh[name].tobytes(), name

    def test_warm_epoch_allocates_less_than_one_slab(self):
        # the sensor-model benchmark's batch shape
        rng = np.random.default_rng(22)
        n, D, B, T = 30, 8, 7, 200
        slab = T * n * D * 8
        params = random_params(D, B, rng)
        X = rng.uniform(0.0, 1.0, (n, D, T))
        work = _Workspace(n, D, T, B)
        loss_and_gradients(params, X, work=work)
        tracemalloc.start()
        try:
            loss_and_gradients(params, X)
            cold = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loss_and_gradients(params, X, work=work)
            warm = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the fresh workspace shows that numpy's buffers are traced at all
        assert cold > 9 * slab
        assert warm < slab

    def test_warm_epoch_allocates_less_than_one_column(self):
        # the sensor-model benchmark's batch shape; a (T, n) column of the
        # cosine is the smallest array a pass could allocate per epoch
        rng = np.random.default_rng(24)
        n, D, B, T = 30, 8, 7, 200
        params = random_params(D, B, rng)
        X = rng.uniform(0.0, 1.0, (n, D, T))
        work = _Workspace(n, D, T, B)
        loss_and_gradients(params, X, work=work)
        tracemalloc.start()
        try:
            loss_and_gradients(params, X, work=work)
            warm = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert warm < T * n * 8

    def test_train_calls_loss_and_gradients_once_per_epoch(self, monkeypatch):
        rng = np.random.default_rng(23)
        seqs = [SensorSeries(rng.uniform(0.0, 1.0, (4, 12))) for _ in range(3)]
        works = []
        real = mom.loss_and_gradients

        def counting(params, X, work=None):
            works.append(work)
            return real(params, X, work=work)

        monkeypatch.setattr(mom, "loss_and_gradients", counting)
        train(seqs, MomConfig(bottleneck=2, epochs=7, seed=0))
        assert len(works) == 7
        # one workspace, built once by train, serves every epoch
        assert works[0] is not None and all(w is works[0] for w in works)


class TestTrain:
    def _sequences(self, n=6, D=4, T=20, seed=0):
        rng = np.random.default_rng(seed)
        t = np.arange(T)
        seqs = []
        for _ in range(n):
            phase = rng.uniform(0, 2 * np.pi)
            base = 0.5 + 0.3 * np.sin(2 * np.pi * t / T + phase)
            seqs.append(SensorSeries(np.vstack([base + rng.normal(0, 0.05, T)
                                                for _ in range(D)])))
        return seqs

    def test_loss_decreases(self):
        seqs = self._sequences()
        model = train(seqs, MomConfig(bottleneck=2, epochs=60, seed=1))
        assert model.loss_history[-1] <= model.loss_history[0]

    def test_deterministic(self):
        seqs = self._sequences()
        cfg = MomConfig(bottleneck=2, epochs=15, seed=5)
        a, b = train(seqs, cfg), train(seqs, cfg)
        assert a.loss_history == b.loss_history
        for name in _PARAM_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_bottleneck_capped_at_d_minus_one(self):
        model = train(self._sequences(), MomConfig(epochs=2, seed=0))  # default 32 >> D=4
        assert model.bottleneck == 3

    def test_shape_mismatch_rejected(self):
        seqs = self._sequences()
        seqs.append(SensorSeries(np.zeros((4, 21))))
        with pytest.raises(ValidationError):
            train(seqs, MomConfig(bottleneck=2, epochs=2))

    def test_needs_two_sequences(self):
        with pytest.raises(ValidationError):
            train(self._sequences(n=1), MomConfig(bottleneck=2, epochs=2))

    def test_normalization_stored(self):
        seqs = self._sequences()
        model = train(seqs, MomConfig(bottleneck=2, epochs=2, seed=0))
        raw = np.stack([s.data for s in seqs])
        assert np.array_equal(model.norm_lo, raw.min(axis=(0, 2)))
        assert np.array_equal(model.norm_hi, raw.max(axis=(0, 2)))


class TestErrorStats:
    def test_identical_sequences_hit_floor(self):
        seq = SensorSeries(np.random.default_rng(0).uniform(0, 1, (4, 8)))
        model = init_model(4, MomConfig(bottleneck=2, seed=3))
        stats = fit_error_stats(model, [seq, seq, seq])
        assert np.all(stats.sigma == _SIGMA_FLOOR)
        assert stats.T == 8

    def test_moments_match_direct_computation(self):
        rng = np.random.default_rng(4)
        model = init_model(3, MomConfig(bottleneck=2, seed=9))
        seqs = [SensorSeries(rng.uniform(0, 1, (3, 6))) for _ in range(5)]
        errs = np.stack([error_series(model, s) for s in seqs])
        stats = fit_error_stats(model, seqs)
        assert np.allclose(stats.mu, errs.mean(axis=0))
        assert np.allclose(stats.sigma, np.maximum(errs.std(axis=0), _SIGMA_FLOOR))

    def test_two_point_hand_value(self):
        # errors {0.1, 0.3} at a timestep: mean 0.2, ML std 0.1
        assert np.std([0.1, 0.3]) == pytest.approx(0.1)

    def test_error_series_bounds(self):
        rng = np.random.default_rng(8)
        model = init_model(4, MomConfig(bottleneck=2, seed=2))
        for _ in range(20):
            e = error_series(model, SensorSeries(rng.normal(0.5, 2.0, (4, 12))))
            assert np.all(e >= 0.0) and np.all(e <= 2.0)


class TestDetect:
    def _stats(self, T=20):
        return ErrorStats(mu=np.zeros(T), sigma=np.ones(T))

    def test_no_deviation_no_detection(self):
        cfg = MomConfig(bottleneck=2, smoothing_window=3)
        lik, t_fail = detect_failure_time(self._stats(), np.zeros(20), cfg)
        assert t_fail is None
        assert np.allclose(lik, 1.0 / np.sqrt(2 * np.pi))

    def test_forced_crossing_at_seven(self):
        cfg = MomConfig(bottleneck=2, smoothing_window=1, z_threshold=3.0)
        errors = np.zeros(20)
        errors[7:] = 5.0
        _, t_fail = detect_failure_time(self._stats(), errors, cfg)
        assert t_fail == 7

    def test_low_errors_never_flag(self):
        cfg = MomConfig(bottleneck=2, smoothing_window=1, z_threshold=1.0)
        _, t_fail = detect_failure_time(self._stats(), np.full(20, -9.0), cfg)
        assert t_fail is None

    def test_monotone_in_threshold(self):
        # raising the threshold never yields an earlier detection
        rng = np.random.default_rng(0)
        for _ in range(30):
            errors = np.abs(rng.normal(0, 2, 40))
            stats = self._stats(T=40)
            found = [detect_failure_time(stats, errors,
                                         MomConfig(bottleneck=2, smoothing_window=5,
                                                   z_threshold=k))[1]
                     for k in (1.0, 2.0, 3.0, 5.0)]
            for low, high in zip(found, found[1:]):
                if high is not None:
                    assert low is not None and low <= high

    def test_smoothing_shrinks_at_boundaries(self):
        cfg = MomConfig(bottleneck=2, smoothing_window=5, z_threshold=0.5)
        errors = np.zeros(10)
        errors[0] = 10.0
        _, t_fail = detect_failure_time(self._stats(T=10), errors, cfg)
        assert t_fail == 0

    def test_length_mismatch(self):
        cfg = MomConfig(bottleneck=2)
        with pytest.raises(ValidationError):
            detect_failure_time(self._stats(), np.zeros(19), cfg)

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 7, 10, 25, 39, 40, 41, 80])
    def test_moving_average_matches_loop(self, width):
        x = np.random.default_rng(width).uniform(0.0, 3.0, 40)
        half = width // 2
        loop = np.array([x[max(0, i - half):min(x.size, i + half + 1)].mean()
                         for i in range(x.size)])
        np.testing.assert_allclose(_centered_moving_average(x, width), loop,
                                   rtol=0, atol=1e-12)
