import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiledflow import optim
from tiledflow.errors import BoundsError, ConfigError, OptimizationError
from tiledflow.lattice import DenseLatent, Dims, SparseLatent, init_sparse_noise
from tiledflow.optim import (
    AdamParams,
    LossWeights,
    OptimState,
    PriorCells,
    RenderTarget,
    SsimTarget,
    _box_adjoint,
    _box_sum,
    _Columns,
    _render_mean,
    _sigmoid,
    adam_step,
    optimize_vector,
    projection_render,
    slat_objective,
    ss_loss,
    ssim,
    ssim_with_grad,
)
from tiledflow.pipeline import _adam_hook
from tiledflow.structedit import ToyCodec

from reference_copies import point_sums_by_bincount, render_mean_per_channel, ss_loss_by_bincount


def finite_difference(objective, v, h=1e-6):
    """Central finite differences of objective(v)[0]."""
    v = v.astype(np.float64).copy()
    grad = np.zeros_like(v)
    flat, gflat = v.ravel(), grad.ravel()
    for idx in range(flat.size):
        keep = flat[idx]
        flat[idx] = keep + h
        up = objective(v)[0]
        flat[idx] = keep - h
        down = objective(v)[0]
        flat[idx] = keep
        gflat[idx] = (up - down) / (2 * h)
    return grad


def relative_error(analytic, numeric):
    denom = max(np.linalg.norm(numeric.ravel()), 1e-12)
    return np.linalg.norm((analytic - numeric).ravel()) / denom


class TestAdamStep:
    def test_zero_gradient_no_move(self):
        state = OptimState.zeros((3,))
        value = np.array([1.0, -2.0, 3.0])
        new, state = adam_step(value, np.zeros(3), state, AdamParams())
        assert np.array_equal(new, value)
        assert state.step == 1

    def test_first_step_hand_evaluated(self):
        state = OptimState.zeros(())
        value = np.array(0.0)
        new, _ = adam_step(value, np.array(0.5), state, AdamParams(lr=0.01))
        assert new == pytest.approx(-0.01, rel=1e-6)

    def test_bias_correction_keeps_step_size(self):
        state = OptimState.zeros(())
        value = np.array(0.0)
        g = np.array(0.3)
        v1, _ = adam_step(value, g, state, AdamParams(lr=0.01))
        d1 = abs(v1 - value)
        v2, _ = adam_step(v1, g, state, AdamParams(lr=0.01))
        d2 = abs(v2 - v1)
        assert d2 <= d1 * 1.01

    def test_non_finite_gradient(self):
        with pytest.raises(OptimizationError):
            adam_step(np.zeros(2), np.array([np.nan, 0.0]), OptimState.zeros((2,)), AdamParams())


class TestOptimizeVector:
    def test_zero_steps_identity(self):
        v = np.array([1.0, 2.0], dtype=np.float32)
        out, losses = optimize_vector(v, lambda x: (0.0, np.zeros_like(x)), AdamParams(steps=0))
        assert np.array_equal(out, v)
        assert losses == []

    def test_zero_gradient_objective_exact_identity(self):
        v = np.array([0.5, -1.25, 3.0], dtype=np.float32)
        out, _ = optimize_vector(v, lambda x: (1.0, np.zeros_like(x)), AdamParams(steps=5))
        assert np.array_equal(out, v)

    def test_quadratic_strictly_decreases(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            target = rng.standard_normal(8)
            v0 = rng.standard_normal(8)

            def objective(v):
                d = v - target
                return float(d @ d), 2 * d

            _, losses = optimize_vector(v0, objective, AdamParams(lr=1e-2, steps=5))
            assert len(losses) == 6
            assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_non_finite_loss_aborts_with_trace(self):
        def objective(v):
            return float("nan"), np.zeros_like(v)

        with pytest.raises(OptimizationError):
            optimize_vector(np.zeros(2), objective, AdamParams(steps=3))


DIMS = Dims(1, 1, 4, 8, C=1, l=4)
CODEC = ToyCodec(DIMS)


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    Z = DenseLatent(DIMS, rng.standard_normal(DIMS.dense_shape, dtype=np.float32))
    v = rng.standard_normal(DIMS.dense_shape)
    n_points = rng.integers(1, 30)
    P = rng.integers(0, [DIMS.M, DIMS.M, DIMS.M], size=(n_points, 3))
    t = float(rng.uniform(0.05, 1.0))
    return Z, v, P, t


class TestSsLoss:
    def test_large_logits_drive_loss_to_zero(self):
        Z = DenseLatent.full(DIMS, 30.0)  # decoded logits all +30
        v = np.zeros(DIMS.dense_shape)
        loss, _ = ss_loss(v, Z, 0.5, np.array([[0, 0, 0], [3, 3, 3]]), CODEC)
        assert loss < 1e-12

    def test_zero_logit_gives_log_two(self):
        Z = DenseLatent.zeros(DIMS)
        loss, _ = ss_loss(np.zeros(DIMS.dense_shape), Z, 0.5, np.array([[0, 0, 0]]), CODEC)
        assert loss == pytest.approx(np.log(2), rel=1e-9)

    def test_loss_non_negative(self):
        for seed in range(5):
            Z, v, P, t = _random_instance(seed)
            loss, _ = ss_loss(v, Z, t, P, CODEC)
            assert loss >= 0

    def test_empty_prior_rejected(self):
        with pytest.raises(ValueError):
            ss_loss(np.zeros(DIMS.dense_shape), DenseLatent.zeros(DIMS), 0.5, np.zeros((0, 3)), CODEC)

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_finite_differences(self, seed):
        Z, v, P, t = _random_instance(seed)
        objective = lambda vec: ss_loss(vec, Z, t, P, CODEC)
        _, analytic = objective(v)
        numeric = finite_difference(objective, v)
        assert relative_error(analytic, numeric) < 1e-4

    def test_adjoint_sparsity(self):
        # only lattice cells feeding sampled logits may carry gradient
        Z, v, P, t = _random_instance(42)
        _, grad = ss_loss(v, Z, t, P, CODEC)
        fed = set(map(tuple, (P // DIMS.ratio).tolist()))
        nz = np.argwhere(np.abs(grad[:, :, :, 0]) > 0)
        assert set(map(tuple, nz.tolist())) <= fed

    def test_duplicates_weigh_more(self):
        Z = DenseLatent.zeros(DIMS)
        v = np.zeros(DIMS.dense_shape)
        single = np.array([[0, 0, 0], [7, 7, 4]])
        doubled = np.array([[0, 0, 0], [0, 0, 0], [0, 0, 0], [7, 7, 4]])
        _, g1 = ss_loss(v, Z, 0.5, single, CODEC)
        _, g2 = ss_loss(v, Z, 0.5, doubled, CODEC)
        assert abs(g2[0, 0, 0, 0]) > abs(g1[0, 0, 0, 0])


class TestProjectionRender:
    def test_single_entry_pixel(self):
        slat = SparseLatent(
            DIMS, np.array([[2, 3, 1]]), np.array([[1.0, 0, 0, 0]], dtype=np.float32)
        )
        img = projection_render(slat)
        assert img.shape == (8, 8, 3)
        assert img[2, 3, 0] == 1.0
        assert img[2, 3, 1] == 0.0

    def test_empty_black(self):
        img = projection_render(SparseLatent.empty(DIMS))
        assert np.all(img == 0)

    def test_column_mean(self):
        coords = np.array([[1, 1, 0], [1, 1, 5]])
        feats = np.array([[0.2, 0.4, 0.0, 0.0], [0.6, 0.0, 0.8, 0.0]], dtype=np.float32)
        img = projection_render(SparseLatent(DIMS, coords, feats))
        assert np.allclose(img[1, 1], [(0.2 + 0.6) / 2, 0.2, 0.4], atol=1e-7)

    @settings(max_examples=150)
    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 5),
        st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_one_bincount_equals_per_channel_bincounts(self, a, b, l, density, seed):
        # density 0 renders no voxel; 0.1 and 0.5 leave empty columns
        dims = Dims(a, b, 4, 8, l=l)
        rng = np.random.default_rng(seed)
        coords = np.argwhere(rng.random(dims.grid_shape) < density)
        shape = (len(coords), min(3, l))
        # mixed signs and exponents round differently in every addition order
        pool = np.array([0.0, -0.0, 1e-30, -1e-30, 1e30, -1e30, 1.0, -0.75])
        scaled = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-30, 30, size=shape)
        feats = np.where(rng.random(shape) < 0.4, rng.choice(pool, size=shape), scaled)
        columns = _Columns.build(dims, coords)
        assert _same_bytes(_render_mean(columns, feats), render_mean_per_channel(columns, feats))


class TestSsim:
    def test_identical_images(self):
        rng = np.random.default_rng(0)
        img = rng.random((12, 12, 3))
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)

    def test_constant_zero_vs_one(self):
        a = np.zeros((8, 8))
        b = np.ones((8, 8))
        # closed form for constant patches: (C1 / (1 + C1)) * 1
        expected = (2 * 0 * 1 + 0.01**2) / (0 + 1 + 0.01**2)
        value = ssim(a, b)
        assert value == pytest.approx(expected, rel=1e-9)
        assert value < 1e-3

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((4, 4)), np.zeros((5, 4)))

    def test_gradient_zero_at_equality(self):
        rng = np.random.default_rng(1)
        img = rng.random((10, 10, 3))
        _, grad = ssim_with_grad(img, img)
        assert np.abs(grad).max() < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        shape = (8, 8) if seed % 2 == 0 else (11, 9, 3)
        a = rng.random(shape)
        b = rng.random(shape)

        def objective(x):
            val, grad = ssim_with_grad(x, b)
            return val, grad

        _, analytic = objective(a)
        numeric = finite_difference(objective, a)
        assert relative_error(analytic, numeric) < 1e-3


class TestSlatObjective:
    def _instance(self, seed, n_entries=6):
        rng = np.random.default_rng(seed)
        flat = rng.choice(DIMS.M**2, size=n_entries, replace=False)
        coords = np.stack(
            [flat // DIMS.M, flat % DIMS.M, rng.integers(0, DIMS.M, n_entries)], axis=1
        )
        Z = init_sparse_noise(coords, DIMS, seed=seed)
        target = rng.random((8, 8, 3))
        v = rng.standard_normal(Z.features.shape)
        t = float(rng.uniform(0.05, 1.0))
        return Z, v, target, t

    def test_perfect_render_zero_l2(self):
        Z, _, _, _ = self._instance(0)
        v = np.zeros(Z.features.shape)
        target = projection_render(Z).astype(np.float64)
        loss, grad = slat_objective(v, Z, 0.5, target, LossWeights(l2=1.0, ssim=0.0))
        assert loss == pytest.approx(0.0, abs=1e-10)
        assert np.abs(grad).max() < 1e-10

    def test_single_pixel_difference(self):
        Z, _, _, _ = self._instance(1)
        v = np.zeros(Z.features.shape)
        target = projection_render(Z).astype(np.float64)
        delta = 0.25
        target[Z.coords[0, 0], Z.coords[0, 1], 0] += delta
        loss, _ = slat_objective(v, Z, 0.5, target, LossWeights(l2=1.0, ssim=0.0))
        assert loss == pytest.approx(delta**2 / 64, rel=1e-9)

    def test_missing_target_is_config_error(self):
        Z, v, _, t = self._instance(2)
        with pytest.raises(ConfigError):
            slat_objective(v, Z, t, None, LossWeights())

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_finite_differences(self, seed):
        Z, v, target, t = self._instance(seed)
        objective = lambda vec: slat_objective(vec, Z, t, target, LossWeights(1.0, 1.0))
        _, analytic = objective(v)
        numeric = finite_difference(objective, v)
        assert relative_error(analytic, numeric) < 1e-3


# Reference copies of the objectives as they were before the per-stage
# plans: one np.add.at scatter per call, the target's SSIM statistics and
# the image columns recomputed on every call.  The planned code must give
# equal loss floats and equal gradient and state bytes.


def _ref_adam_step(value, grad, state, params):
    grad = grad.astype(np.float64, copy=False)
    state.step += 1
    t = state.step
    state.m = params.beta1 * state.m + (1.0 - params.beta1) * grad
    state.v = params.beta2 * state.v + (1.0 - params.beta2) * grad * grad
    m_hat = state.m / (1.0 - params.beta1**t)
    v_hat = state.v / (1.0 - params.beta2**t)
    new_value = value - params.lr * m_hat / (np.sqrt(v_hat) + params.eps)
    return new_value, state


def _ref_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _ref_ss_loss(v_hat, Z_t, t, P, codec):
    P = np.asarray(P, dtype=np.int64).reshape(-1, 3)
    dims = codec.dims
    x = Z_t.data.astype(np.float64) - t * v_hat.astype(np.float64)
    r = dims.ratio
    cx, cy, cz = P[:, 0] // r, P[:, 1] // r, P[:, 2] // r
    logits = x[cx, cy, cz, :].mean(axis=1)
    loss = float(np.mean(np.logaddexp(0.0, -logits)))
    dz = (_ref_sigmoid(logits) - 1.0) / len(P)
    grad_x = np.zeros_like(x)
    np.add.at(grad_x, (cx, cy, cz), np.repeat(dz[:, None] / dims.C, dims.C, axis=1))
    return loss, -t * grad_x


def _ref_render_mean(dims, coords, feats64):
    h, w = dims.a * dims.M, dims.b * dims.M
    rgb = np.zeros((len(coords), 3), dtype=np.float64)
    rgb[:, : min(3, dims.l)] = feats64[:, : min(3, dims.l)]
    img = np.zeros((h, w, 3), dtype=np.float64)
    cnt = np.zeros((h, w), dtype=np.int64)
    np.add.at(img, (coords[:, 0], coords[:, 1]), rgb)
    np.add.at(cnt, (coords[:, 0], coords[:, 1]), 1)
    nz = cnt > 0
    img[nz] /= cnt[nz][:, None]
    return img, cnt


def _ref_box_sum(x, k):
    c = np.cumsum(np.cumsum(x, axis=0), axis=1)
    pad = [(1, 0), (1, 0)] + [(0, 0)] * (x.ndim - 2)
    c = np.pad(c, pad)
    return c[k:, k:] - c[:-k, k:] - c[k:, :-k] + c[:-k, :-k]


def _ref_box_adjoint(g, k):
    pad = [(k - 1, k - 1), (k - 1, k - 1)] + [(0, 0)] * (g.ndim - 2)
    return _ref_box_sum(np.pad(g, pad), k)


def _ref_ssim_with_grad(img_a, img_b, need_grad=True):
    a = np.asarray(img_a, dtype=np.float64)
    b = np.asarray(img_b, dtype=np.float64)
    squeeze = a.ndim == 2
    if squeeze:
        a, b = a[:, :, None], b[:, :, None]
    h, w, ch = a.shape
    k = min(8, h, w)
    n = k * k
    mu_a = _ref_box_sum(a, k) / n
    mu_b = _ref_box_sum(b, k) / n
    saa = _ref_box_sum(a * a, k) / n - mu_a**2
    sbb = _ref_box_sum(b * b, k) / n - mu_b**2
    sab = _ref_box_sum(a * b, k) / n - mu_a * mu_b
    a1 = 2.0 * mu_a * mu_b + 0.01**2
    a2 = 2.0 * sab + 0.03**2
    b1 = mu_a**2 + mu_b**2 + 0.01**2
    b2 = saa + sbb + 0.03**2
    s = (a1 * a2) / (b1 * b2)
    n_windows = s.shape[0] * s.shape[1]
    value = float(s.mean())
    if not need_grad:
        return value, None
    d = b1 * b2
    ds_dmu_a = (a2 / d) * 2.0 * mu_b - (s / b1) * 2.0 * mu_a
    ds_dsaa = -s / b2
    ds_dsab = (a1 / d) * 2.0
    scale = 1.0 / (n_windows * ch * n)
    grad = scale * (
        _ref_box_adjoint(ds_dmu_a, k)
        + 2.0 * a * _ref_box_adjoint(ds_dsaa, k)
        - 2.0 * _ref_box_adjoint(ds_dsaa * mu_a, k)
        + b * _ref_box_adjoint(ds_dsab, k)
        - _ref_box_adjoint(ds_dsab * mu_b, k)
    )
    if squeeze:
        grad = grad[:, :, 0]
    return value, grad


def _ref_slat_objective(v_hat, Z_t, t, target_image, weights):
    dims = Z_t.dims
    target = np.asarray(target_image, dtype=np.float64)
    h, w = dims.a * dims.M, dims.b * dims.M
    feats0 = Z_t.features.astype(np.float64) - t * v_hat.astype(np.float64)
    img, cnt = _ref_render_mean(dims, Z_t.coords, feats0)
    diff = img - target
    l2 = float((diff * diff).sum() / (h * w))
    sval, sgrad = _ref_ssim_with_grad(img, target, need_grad=weights.ssim > 0)
    loss = weights.l2 * l2 - weights.ssim * sval
    d_img = weights.l2 * 2.0 * diff / (h * w)
    if weights.ssim > 0:
        d_img = d_img - weights.ssim * sgrad
    grad_feats = np.zeros_like(feats0)
    cols = cnt[Z_t.coords[:, 0], Z_t.coords[:, 1]].astype(np.float64)
    nch = min(3, dims.l)
    grad_feats[:, :nch] = d_img[Z_t.coords[:, 0], Z_t.coords[:, 1], :nch] / cols[:, None]
    return loss, -t * grad_feats


def _same_bytes(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


_WEIGHTS = [
    LossWeights(1.0, 1.0), LossWeights(1.0, 0.0), LossWeights(0.0, 1.0), LossWeights(0.3, 2.5)
]


@st.composite
def _plan_cases(draw):
    N = draw(st.sampled_from([1, 2, 4]))
    dims = Dims(
        draw(st.integers(1, 3)),
        draw(st.integers(1, 2)),
        N,
        N * draw(st.sampled_from([1, 2])),
        C=draw(st.integers(1, 3)),
        l=draw(st.integers(1, 5)),
    )
    return dims, draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from(_WEIGHTS))


class TestPlannedObjectivesBitEqual:
    """The per-stage plans reproduce the reference objectives bit for bit."""

    @settings(max_examples=150)
    @given(_plan_cases())
    def test_ss_loss(self, case):
        dims, seed, _ = case
        rng = np.random.default_rng(seed)
        codec = ToyCodec(dims)
        Z = DenseLatent(dims, rng.standard_normal(dims.dense_shape, dtype=np.float32) * 4)
        v = rng.standard_normal(dims.dense_shape)
        n = int(rng.integers(1, 40))
        # a small box makes duplicate points and shared cells likely
        hi = np.minimum(dims.grid_shape, rng.integers(1, 5, size=3))
        P = rng.integers(0, hi, size=(n, 3))
        t = float(rng.uniform(0.01, 1.0))
        want = _ref_ss_loss(v, Z, t, P, codec)
        cells = PriorCells.build(P, dims)
        for prior in (P, cells):
            loss, grad = ss_loss(v, Z, t, prior, codec)
            assert loss == want[0]
            assert _same_bytes(grad, want[1])
        assert len(cells.inverse) == n

    @settings(max_examples=150)
    @given(_plan_cases())
    def test_render_and_slat_objective(self, case):
        dims, seed, weights = case
        rng = np.random.default_rng(seed)
        h, w, depth = dims.grid_shape
        n = int(rng.integers(1, min(h * w * depth, 60) + 1))
        flat = rng.choice(h * w * depth, size=n, replace=False)
        coords = np.stack(np.unravel_index(flat, (h, w, depth)), axis=1)
        Z = init_sparse_noise(coords, dims, seed=seed)
        v = rng.standard_normal(Z.features.shape)
        t = float(rng.uniform(0.01, 1.0))
        target = rng.random((h, w, 3))

        feats = Z.features.astype(np.float64) - t * v
        img = _render_mean(_Columns.build(dims, Z.coords), feats[:, : min(3, dims.l)])
        assert _same_bytes(img, _ref_render_mean(dims, Z.coords, feats)[0])

        want = _ref_slat_objective(v, Z, t, target, weights)
        for given_target in (target, RenderTarget.build(dims, Z.coords, target)):
            loss, grad = slat_objective(v, Z, t, given_target, weights)
            assert loss == want[0]
            assert _same_bytes(grad, want[1])

    @settings(max_examples=150)
    @given(
        st.integers(1, 12), st.integers(1, 12), st.sampled_from([0, 1, 3]),
        st.integers(0, 2**32 - 1), st.booleans(),
    )
    def test_ssim(self, h, w, ch, seed, need_grad):
        rng = np.random.default_rng(seed)
        shape = (h, w) if ch == 0 else (h, w, ch)
        a, b = rng.random(shape), rng.random(shape)
        if seed % 3 == 0:
            a[: h // 2] = -0.0  # signed zeros through the padded adjoint
        want = _ref_ssim_with_grad(a, b, need_grad)
        for target in (b, SsimTarget.build(b)):
            value, grad = ssim_with_grad(a, target, need_grad)
            assert value == want[0]
            assert (grad is None) == (want[1] is None)
            if grad is not None:
                assert _same_bytes(grad, want[1])

    @settings(max_examples=150)
    @given(
        st.integers(1, 9), st.integers(1, 9), st.sampled_from([(), (1,), (3,)]),
        st.integers(1, 9), st.integers(0, 2**32 - 1),
    )
    def test_box_sums(self, h, w, tail, k, seed):
        rng = np.random.default_rng(seed)
        k = min(k, h, w)
        # signed zeros and large magnitudes make a changed summation order visible
        x = rng.choice([-0.0, 0.0, 0.0, 1.0, -2.5, 3e-17, 1e16], size=(h, w) + tail)
        assert _same_bytes(_box_sum(x, k), _ref_box_sum(x, k))
        assert _same_bytes(_box_adjoint(x, k), _ref_box_adjoint(x, k))

    @settings(max_examples=150)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40))
    def test_sigmoid(self, seed, n):
        rng = np.random.default_rng(seed)
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, 745.2, -745.2, 800.0, -800.0]
        z = np.concatenate([
            rng.choice(edges, size=n),
            rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3),
            rng.uniform(-800.0, 800.0, size=n),
        ])
        assert _same_bytes(_sigmoid(z), _ref_sigmoid(z))

    @settings(max_examples=100)
    @given(
        st.sampled_from([(), (1,), (3,), (2, 3)]),
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
    )
    def test_adam_step(self, shape, seed, steps):
        rng = np.random.default_rng(seed)
        params = AdamParams(lr=float(rng.uniform(1e-4, 1.0)), beta1=0.8, beta2=0.99)
        value = np.asarray(rng.standard_normal(shape))
        ref_value = value.copy()
        state, ref_state = OptimState.zeros(shape), OptimState.zeros(shape)
        for _ in range(steps):
            grad = np.asarray(rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6))
            value, state = adam_step(value, grad, state, params)
            ref_value, ref_state = _ref_adam_step(ref_value, grad, ref_state, params)
            assert np.asarray(value).tobytes() == np.asarray(ref_value).tobytes()
            assert np.asarray(state.m).tobytes() == np.asarray(ref_state.m).tobytes()
            assert np.asarray(state.v).tobytes() == np.asarray(ref_state.v).tobytes()
            assert state.step == ref_state.step


class TestObjectivePlans:
    def test_single_point_prior(self):
        Z = DenseLatent.zeros(DIMS)
        v = np.zeros(DIMS.dense_shape)
        cells = PriorCells.build(np.array([[5, 2, 7]]), DIMS)
        assert len(cells.inverse) == 1
        assert ss_loss(v, Z, 0.5, cells, CODEC)[0] == pytest.approx(np.log(2), rel=1e-12)

    def test_prior_cells_checked_once_at_build(self):
        with pytest.raises(ValueError):
            PriorCells.build(np.zeros((0, 3)), DIMS)
        with pytest.raises(BoundsError):
            PriorCells.build(np.array([[0, 0, DIMS.M]]), DIMS)

    @pytest.mark.parametrize(
        "P, named",
        [
            ([[0.9, 3.7, 1.2]], r"\[0\.9, 3\.7, 1\.2\] of point 0"),
            ([[1, 2, 3], [0.0, 2.5, 0.0]], r"\[0\.0, 2\.5, 0\.0\] of point 1"),
            ([[0, np.inf, 0]], r"\[0\.0, inf, 0\.0\] of point 0"),
            ([[0, 0, -np.inf]], r"\[0\.0, 0\.0, -inf\] of point 0"),
            ([[2, 2, 2], [np.nan, 0, 0]], r"\[nan, 0\.0, 0\.0\] of point 1"),
        ],
        ids=["fraction", "second-point", "inf", "minus-inf", "nan"],
    )
    def test_prior_cells_refuse_coordinates_that_are_not_whole(self, P, named):
        # refused before any cast: no truncation to cell (0, 0, 0), and no
        # "invalid value encountered in cast" warning first
        v, Z = np.zeros(DIMS.dense_shape), DenseLatent.zeros(DIMS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BoundsError, match=rf"prior coordinate {named} is not a finite whole number"):
                PriorCells.build(np.array(P), DIMS)
            with pytest.raises(BoundsError, match=named):
                ss_loss(v, Z, 0.5, np.array(P), CODEC)

    def test_prior_cells_name_an_unsigned_coordinate_as_given(self):
        P = np.array([[2**63 + 5, 0, 0]], np.uint64)
        with pytest.raises(BoundsError, match=r"prior coordinate \(9223372036854775813, 0, 0\) outside grid"):
            PriorCells.build(P, Dims(2, 2, 4, 8))

    def test_prior_cells_take_whole_floats_as_their_integers(self):
        P = np.array([[5, 2, 7], [0, 0, 0], [5, 3, 6]])
        ints, floats = PriorCells.build(P, DIMS), PriorCells.build(P.astype(np.float64), DIMS)
        assert all(np.array_equal(i, f) for i, f in zip(ints.cells, floats.cells))
        assert np.array_equal(ints.inverse, floats.inverse) and ints.ends == floats.ends

    def test_t_checked_on_every_call(self):
        cells = PriorCells.build(np.array([[0, 0, 0]]), DIMS)
        with pytest.raises(ValueError):
            ss_loss(np.zeros(DIMS.dense_shape), DenseLatent.zeros(DIMS), 0.0, cells, CODEC)

    def test_prior_cells_for_other_dims_rejected(self):
        other = Dims(2, 1, 4, 8, C=1, l=4)
        cells = PriorCells.build(np.array([[0, 0, 0]]), other)
        with pytest.raises(ConfigError):
            ss_loss(np.zeros(DIMS.dense_shape), DenseLatent.zeros(DIMS), 0.5, cells, CODEC)

    def test_render_target_for_other_coordinates_rejected(self):
        Z = init_sparse_noise(np.array([[0, 0, 0], [1, 2, 3]]), DIMS, seed=0)
        moved = init_sparse_noise(np.array([[0, 0, 0], [1, 2, 4]]), DIMS, seed=0)
        target = RenderTarget.build(DIMS, Z.coords, np.zeros((8, 8, 3)))
        v = np.zeros(Z.features.shape)
        slat_objective(v, Z, 0.5, target)
        # an equal coordinate array that is another object passes too
        slat_objective(v, init_sparse_noise(Z.coords.copy(), DIMS, seed=1), 0.5, target)
        with pytest.raises(ConfigError):
            slat_objective(v, moved, 0.5, target)
        wider = init_sparse_noise(Z.coords, Dims(2, 1, 4, 8, C=1, l=4), seed=0)
        with pytest.raises(ConfigError):
            slat_objective(v, wider, 0.5, target)


# The per-step hook as it was before Adam ran on the support: Adam over the
# whole step vector against the full-vector objective.


def _prior_of_counts(dims, rng):
    """Prior points in some coarse cells of `dims`, each cell holding
    between 1 and ratio**3 distinct fine points (one cell the most), in
    shuffled point order."""
    r = dims.ratio
    coarse = np.argwhere(np.ones(dims.dense_shape[:3], dtype=bool))
    chosen = coarse[rng.random(len(coarse)) < 0.6]
    chosen = chosen if len(chosen) else coarse[:1]
    counts = rng.integers(1, r**3 + 1, size=len(chosen))
    counts[rng.integers(len(counts))] = r**3
    offsets = np.argwhere(np.ones((r, r, r), dtype=bool))
    P = np.concatenate([c * r + offsets[rng.permutation(r**3)[:k]] for c, k in zip(chosen, counts)])
    return P[rng.permutation(len(P))], np.sort(counts)[::-1]


def _values_across_exponents(rng, n):
    """n float64 values of both signs with exponents from the subnormal
    range to 2**1000, some of them -0.0, +0.0 or the least subnormal."""
    y = np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-1074, 1000, n)) * rng.choice([-1.0, 1.0], n)
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.0**-1060, -(2.0**-1030)])
    pick = rng.random(n) < 0.2
    y[pick] = rng.choice(special, pick.sum())
    return y


@st.composite
def _count_cases(draw):
    N, M = draw(st.sampled_from([(8, 8), (4, 8), (2, 8)]))  # at most 1, 8 or 64 distinct points a cell
    dims = Dims(draw(st.integers(1, 2)), draw(st.integers(1, 2)), N, M, C=draw(st.sampled_from([1, 2, 3])), l=4)
    return dims, draw(st.integers(0, 2**32 - 1))


class TestCountOrderedSum:
    """`PriorCells.point_sums` adds each cell's value once per point from
    0.0, in the bits of a point-order `np.bincount`."""

    @settings(max_examples=150)
    @given(_count_cases())
    def test_point_sums_equal_bincount(self, case):
        dims, seed = case
        rng = np.random.default_rng(seed)
        P, counts = _prior_of_counts(dims, rng)
        cells = PriorCells.build(P, dims)
        assert np.bincount(cells.inverse).tolist() == counts.tolist()  # cells by descending count
        assert len(cells.ends) == counts[0] and cells.ends[0] == len(counts)
        y = _values_across_exponents(rng, len(counts))
        assert _same_bytes(cells.point_sums(y), point_sums_by_bincount(cells, y))

    @settings(max_examples=100)
    @given(_count_cases())
    def test_ss_loss_equals_bincount_form(self, case):
        dims, seed = case
        rng = np.random.default_rng(seed)
        P, _ = _prior_of_counts(dims, rng)
        codec = ToyCodec(dims)
        scale = 10.0 ** rng.uniform(-6, 3)
        Z = DenseLatent(dims, (rng.standard_normal(dims.dense_shape) * scale).astype(np.float32))
        t = float(rng.uniform(0.01, 1.0))
        step = PriorCells.build(P, dims).at(Z, t)
        u = rng.standard_normal(step.z.shape) * scale
        u[rng.random(u.shape) < 0.1] = -0.0
        loss, grad = ss_loss(u, Z, t, step, codec)
        want_loss, want_grad = ss_loss_by_bincount(u, Z, t, step, codec)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert _same_bytes(grad, want_grad)


def _old_adam_hook(loss, params, steps):
    def hook(v, Z, t):
        sparse = isinstance(v, SparseLatent)
        objective = lambda vec: loss(vec, Z, t)
        v_opt, losses = optimize_vector(v.features if sparse else v.data, objective, params)
        steps.append({"t": float(t), "loss": losses})
        v_opt = v_opt.astype(np.float32)
        return v.with_features(v_opt) if sparse else v.with_data(v_opt)

    return hook


@st.composite
def _hook_cases(draw):
    N = draw(st.sampled_from([1, 2, 4]))
    dims = Dims(
        draw(st.integers(1, 3)),
        draw(st.integers(1, 2)),
        N,
        N * draw(st.sampled_from([1, 2])),
        C=draw(st.integers(1, 3)),
        l=draw(st.integers(1, 4)),
    )
    weights = draw(st.sampled_from([LossWeights(1.0, 0.0), LossWeights(0.0, 1.0), LossWeights(0.3, 2.5)]))
    return dims, draw(st.integers(0, 2**32 - 1)), weights, draw(st.integers(1, 4))


class TestSupportHookBitEqual:
    """Adam on the objective's support gives the full-vector hook's bits."""

    @staticmethod
    def _run(hook, v, Z, t):
        steps = []
        return hook(steps)(v, Z, t), steps

    @settings(max_examples=150)
    @given(_hook_cases())
    def test_structure_stage(self, case):
        dims, seed, _, n_steps = case
        rng = np.random.default_rng(seed)
        codec = ToyCodec(dims)
        params = AdamParams(lr=float(rng.uniform(1e-3, 0.5)), steps=n_steps)
        Z = DenseLatent(dims, rng.standard_normal(dims.dense_shape, dtype=np.float32) * 4)
        v = Z.with_data(rng.standard_normal(dims.dense_shape, dtype=np.float32))
        # a small box makes duplicate points and shared cells likely
        hi = np.minimum(dims.grid_shape, rng.integers(1, 4, size=3))
        P = rng.integers(0, hi, size=(int(rng.integers(1, 60)), 3))
        t = float(rng.uniform(0.01, 1.0))
        cells = PriorCells.build(P, dims)

        new, new_steps = self._run(
            lambda steps: _adam_hook(lambda u, Z, t, b: ss_loss(u, Z, t, b, codec), cells.at, params, steps),
            v, Z, t,
        )
        old, old_steps = self._run(
            lambda steps: _old_adam_hook(lambda vec, Z, t: _ref_ss_loss(vec, Z, t, P, codec), params, steps),
            v, Z, t,
        )
        assert _same_bytes(new.data, old.data)
        assert new_steps == old_steps and len(new_steps[0]["loss"]) == n_steps + 1

    @settings(max_examples=150)
    @given(_hook_cases())
    def test_feature_stage(self, case):
        dims, seed, weights, n_steps = case
        rng = np.random.default_rng(seed)
        params = AdamParams(lr=float(rng.uniform(1e-3, 0.5)), steps=n_steps)
        h, w, depth = dims.grid_shape
        n = int(rng.integers(1, min(h * w * depth, 60) + 1))
        flat = rng.choice(h * w * depth, size=n, replace=False)
        Z = init_sparse_noise(np.stack(np.unravel_index(flat, (h, w, depth)), axis=1), dims, seed=seed)
        v = Z.with_features(rng.standard_normal(Z.features.shape, dtype=np.float32))
        t = float(rng.uniform(0.01, 1.0))
        image = rng.random((h, w, 3))
        target = RenderTarget.build(dims, Z.coords, image)

        new, new_steps = self._run(
            lambda steps: _adam_hook(
                lambda u, Z, t, b: slat_objective(u, Z, t, b, weights), target.at, params, steps
            ),
            v, Z, t,
        )
        old, old_steps = self._run(
            lambda steps: _old_adam_hook(
                lambda vec, Z, t: _ref_slat_objective(vec, Z, t, image, weights), params, steps
            ),
            v, Z, t,
        )
        assert new.coords is v.coords
        assert _same_bytes(new.features, old.features)
        assert new_steps == old_steps and len(new_steps[0]["loss"]) == n_steps + 1


    @pytest.mark.parametrize("scene", ["deep columns", "empty pixels"])
    def test_feature_stage_column_layouts(self, scene):
        dims = Dims(2, 1, 4, 8, C=1, l=4)
        h, w, depth = dims.grid_shape
        rng = np.random.default_rng(7)
        if scene == "deep columns":
            # six columns holding 1 to 8 voxels each
            pixels = rng.choice(h * w, size=6, replace=False)
            coords = [(p // w, p % w, z) for p, k in zip(pixels, (1, 2, 3, 5, 8, 8)) for z in range(k)]
        else:
            # one voxel in every other pixel, the rest of the image empty
            coords = [(x, y, (3 * x + y) % depth) for x in range(h) for y in range(w) if (x + y) % 2 == 0]
        Z = init_sparse_noise(np.array(coords), dims, seed=8)
        v = Z.with_features(rng.standard_normal(Z.features.shape, dtype=np.float32))
        image = rng.random((h, w, 3))
        target = RenderTarget.build(dims, Z.coords, image)
        weights, params = LossWeights(0.3, 2.5), AdamParams(lr=0.2, steps=4)
        new, new_steps = self._run(
            lambda steps: _adam_hook(
                lambda u, Z, t, b: slat_objective(u, Z, t, b, weights), target.at, params, steps
            ),
            v, Z, 0.6,
        )
        old, old_steps = self._run(
            lambda steps: _old_adam_hook(
                lambda vec, Z, t: _ref_slat_objective(vec, Z, t, image, weights), params, steps
            ),
            v, Z, 0.6,
        )
        assert _same_bytes(new.features, old.features)
        assert new_steps == old_steps


class TestClassAdam:
    """Adam's moments live on the gradient's classes, and a run's final
    evaluation computes no gradient."""

    @staticmethod
    def _spy(monkeypatch, name, record):
        real = getattr(optim, name)

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            record(*args, **kwargs)
            return out

        monkeypatch.setattr(optim, name, spy)

    def test_feature_stage(self, monkeypatch):
        moments, asked = [], []
        self._spy(monkeypatch, "_adam_delta", lambda grad, state, params: moments.append(state.m.shape))
        self._spy(monkeypatch, "ssim_with_grad", lambda a, b, need_grad=True: asked.append(need_grad))
        dims = Dims(2, 1, 4, 8, C=1, l=2)
        # pixel (0, 0) holds three voxels, (1, 1) one; every other pixel is empty
        Z = init_sparse_noise(np.array([[0, 0, 0], [0, 0, 3], [0, 0, 7], [1, 1, 2]]), dims, seed=1)
        target = RenderTarget.build(dims, Z.coords, np.full((16, 8, 3), 0.5))
        hook = _adam_hook(
            lambda u, Z, t, b: slat_objective(u, Z, t, b), target.at, AdamParams(steps=3), []
        )
        hook(Z.with_features(np.ones(Z.features.shape, dtype=np.float32)), Z, 0.5)
        assert asked == [True, True, True, False]
        assert moments == [(2, 2)] * 3  # (occupied pixels, min(3, l))
        assert target.classes.tolist() == [0, 0, 0, 1]

    def test_structure_stage(self, monkeypatch):
        moments, sigmoids = [], []
        self._spy(monkeypatch, "_adam_delta", lambda grad, state, params: moments.append(state.m.shape))
        self._spy(monkeypatch, "_sigmoid", lambda z: sigmoids.append(z.shape))
        dims = Dims(2, 1, 4, 8, C=3, l=2)
        # four prior points in two coarse cells
        cells = PriorCells.build(np.array([[0, 0, 0], [1, 1, 1], [1, 0, 1], [7, 3, 4]]), dims)
        Z = DenseLatent.zeros(dims)
        codec = ToyCodec(dims)
        hook = _adam_hook(lambda u, Z, t, b: ss_loss(u, Z, t, b, codec), cells.at, AdamParams(steps=2), [])
        hook(Z, Z, 0.5)
        assert moments == [(2, 1)] * 2  # one column per cell
        assert sigmoids == [(2,)] * 2  # the final evaluation takes no sigmoid


class TestStepBindings:
    def test_binding_serves_only_its_step(self):
        cells = PriorCells.build(np.array([[0, 0, 0], [5, 2, 7]]), DIMS)
        Z = DenseLatent.zeros(DIMS)
        step = cells.at(Z, 0.5)
        u = np.zeros(step.z.shape)
        ss_loss(u, Z, 0.5, step, CODEC)
        for other_Z, other_t in ((DenseLatent.zeros(DIMS), 0.5), (Z, 0.25)):
            with pytest.raises(ConfigError):
                ss_loss(u, other_Z, other_t, step, CODEC)
        with pytest.raises(ValueError):
            ss_loss(np.zeros(DIMS.dense_shape), Z, 0.5, step, CODEC)
        with pytest.raises(ValueError):
            cells.at(Z, 0.0)

    def test_render_binding_checks_coordinates_once_per_step(self):
        Z = init_sparse_noise(np.array([[0, 0, 0], [1, 2, 3]]), DIMS, seed=0)
        moved = init_sparse_noise(np.array([[0, 0, 0], [1, 2, 4]]), DIMS, seed=0)
        target = RenderTarget.build(DIMS, Z.coords, np.zeros((8, 8, 3)))
        step = target.at(Z, 0.5)
        assert step.index == (slice(None), slice(0, min(3, DIMS.l)))
        with pytest.raises(ConfigError):
            target.at(moved, 0.5)
        with pytest.raises(ConfigError):
            slat_objective(np.zeros(step.z.shape), moved, 0.5, step)
