"""Posterior updates, losses, trainer, and inference tests."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from semidanse import dynamics, estimator
from semidanse.dataset import PairedDataset, SplitConfig, generate, split_semi, validation_mask
from semidanse.estimator import (
    BLOCK_STEPS,
    Adam,
    BatchItem,
    TrainConfig,
    _batch_loss_and_grads,
    _posterior,
    _sup_terms,
    _unsup_terms,
    _validation_metric,
    clip_by_global_norm,
    dof_report,
    infer_batch,
    total_loss,
    train,
)
from semidanse.exceptions import NumericError, SingularityError, TrainingError
from semidanse.measurement import MeasModel, builtin_h
from semidanse.numerics import SeededRng, _factor, _sigma, _solve, child_seed
from semidanse.prior_net import (
    NetDims,
    _heads_forward,
    forward_batch,
    init_params,
)

from conftest import (GaussianBelief, gaussian_condition, gaussian_log_density, kf_oracle,
                      zeros_params)

from test_prior_net import perturbed_params


def random_prior(rng) -> tuple[np.ndarray, np.ndarray]:
    """(mean, diagonal covariance) of one Gaussian prior."""
    return rng.standard_normal(3), rng.uniform(0.3, 2.0, size=3)


def priors_b1(p, ys: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-step priors of one (T, n) trajectory: the batched forward at B = 1."""
    mean, var, _ = forward_batch(p, ys[None])
    return [(mean[0, t], var[0, t]) for t in range(ys.shape[0])]


def posterior_b1(prior, y: np.ndarray, model: MeasModel):
    """One closed-form update: _posterior at B = T = 1.

    Returns the posterior belief, the innovation y - H mean and the
    innovation covariance H diag(var) H^T + C_w.
    """
    mean, var = prior
    mu, l = _posterior(mean[None, None], var[None, None], model.h, model.c_w, y[None, None])
    sigma = _sigma(l, full=True)
    r = model.h @ np.diag(var) @ model.h.T + model.c_w
    return GaussianBelief(mu[0, 0], sigma[0, 0]), y - model.h @ mean, 0.5 * (r + r.T)


def predictive_loglik_b1(prior, y: np.ndarray, model: MeasModel) -> float:
    """log N(y; H m, C_w + H L H^T) of one step: _unsup_terms at B = T = 1."""
    mean, var = prior
    nll, _, _ = _unsup_terms(mean[None, None], var[None, None], model.h, model.c_w,
                             y[None, None], want_grads=False)
    return float(-nll[0])


def unsup_nll(p, ys: np.ndarray, model: MeasModel) -> float:
    """Predictive NLL of one trajectory through the batched kernels at B = 1."""
    mean, var, _ = forward_batch(p, ys[None])
    nll, _, _ = _unsup_terms(mean, var, model.h, model.c_w, ys[None], want_grads=False)
    return float(nll[0])


def sup_nll(p, xs: np.ndarray, ys: np.ndarray, model: MeasModel) -> float:
    """Posterior NLL of one labelled pair through the batched kernels at B = 1."""
    mean, var, _ = forward_batch(p, ys[None])
    nll, _, _ = _sup_terms(mean, var, model.h, model.c_w, ys[None], xs[None], want_grads=False)
    return float(nll[0])


def infer_b1(p, ys: np.ndarray, model: MeasModel):
    """Full-covariance inference of one trajectory: infer_batch at B = 1."""
    return infer_batch(p, ys[None], model, keep_full_covs=True)


class TestPosteriorUpdate:
    def test_equal_covariance_average(self):
        prior = (np.zeros(3), np.ones(3))
        model = MeasModel.isotropic(np.eye(3), 1.0)
        belief, innovation, innovation_cov = posterior_b1(prior, np.array([2.0, 0.0, -2.0]), model)
        np.testing.assert_allclose(belief.mean, [1.0, 0.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(belief.cov, 0.5 * np.eye(3), atol=1e-12)
        np.testing.assert_allclose(innovation, [2.0, 0.0, -2.0], atol=1e-12)
        np.testing.assert_allclose(innovation_cov, 2.0 * np.eye(3), atol=1e-12)

    def test_uninformative_measurement_keeps_prior(self, rng):
        mean, var = random_prior(rng)
        model = MeasModel.isotropic(builtin_h("dense2x3"), 1e12)
        belief, _, _ = posterior_b1((mean, var), rng.standard_normal(2), model)
        np.testing.assert_allclose(belief.mean, mean, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(np.diag(belief.cov), var, rtol=1e-6)

    def test_matches_brute_force_conditioning(self, rng):
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
        for _ in range(50):
            mean, var = random_prior(rng)
            y = rng.standard_normal(2)
            belief, _, _ = posterior_b1((mean, var), y, model)
            oracle = gaussian_condition(mean, np.diag(var), model.h, model.c_w, y)
            np.testing.assert_allclose(belief.mean, oracle.mean, atol=1e-10)
            np.testing.assert_allclose(belief.cov, oracle.cov, atol=1e-10)

    def test_posterior_cov_psd(self, rng):
        model = MeasModel.isotropic(builtin_h("partial23"), 0.01)
        for _ in range(50):
            belief, _, _ = posterior_b1(random_prior(rng), rng.standard_normal(2), model)
            assert np.linalg.eigvalsh(belief.cov).min() >= -1e-10


class TestPredictiveLoglik:
    def test_scalar_case(self):
        prior = (np.zeros(3), np.ones(3))
        model = MeasModel.isotropic(builtin_h("extreme1"), 1.0)
        # predictive variance 1 + 1 = 2
        val = predictive_loglik_b1(prior, np.zeros(1), model)
        assert val == pytest.approx(-0.5 * np.log(4 * np.pi), abs=1e-12)

    def test_translation_invariance(self, rng):
        model = MeasModel.isotropic(builtin_h("extreme1"), 0.7)
        mean, var = random_prior(rng)
        y = rng.standard_normal(1)
        shift = 3.7
        shifted = (mean + np.array([shift, 0.0, 0.0]), var)
        a = predictive_loglik_b1((mean, var), y, model)
        b = predictive_loglik_b1(shifted, y + shift, model)
        assert a == pytest.approx(b, abs=1e-10)

    def test_matches_explicit_density(self, rng):
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.4)
        for _ in range(20):
            mean, var = random_prior(rng)
            y = rng.standard_normal(2)
            pred_cov = model.h @ np.diag(var) @ model.h.T + model.c_w
            expected = gaussian_log_density(
                y, GaussianBelief(model.h @ mean, 0.5 * (pred_cov + pred_cov.T))
            )
            assert predictive_loglik_b1((mean, var), y, model) == pytest.approx(expected, abs=1e-12)


class TestLosses:
    def test_unsup_single_step_equals_predictive(self, rng):
        p = perturbed_params(20)
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
        ys = rng.standard_normal((1, 2))
        seq = priors_b1(p, ys)
        expected = -predictive_loglik_b1(seq[0], ys[0], model)
        assert unsup_nll(p, ys, model) == pytest.approx(expected, abs=1e-12)

    def test_unsup_two_steps_hand_unrolled(self, rng):
        p = perturbed_params(21)
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
        ys = rng.standard_normal((2, 2))
        seq = priors_b1(p, ys)
        expected = -(predictive_loglik_b1(seq[0], ys[0], model)
                     + predictive_loglik_b1(seq[1], ys[1], model))
        assert unsup_nll(p, ys, model) == pytest.approx(expected, abs=1e-12)

    def test_unsup_noise_scaling_matches_density(self, rng):
        p = perturbed_params(22)
        ys = rng.standard_normal((4, 2))
        h = builtin_h("dense2x3")
        small = MeasModel.isotropic(h, 0.5)
        big = MeasModel.isotropic(h, 0.5 * 1e6)
        seq = priors_b1(p, ys)
        for model in (small, big):
            expected = -sum(predictive_loglik_b1(seq[t], ys[t], model) for t in range(4))
            assert unsup_nll(p, ys, model) == pytest.approx(expected, rel=1e-12)

    def test_sup_zero_quadratic_reference(self):
        # prior var 2, H = I, sigma_w2 = 2 makes the posterior covariance exactly I;
        # with x set to the posterior means only the constants remain.
        p = zeros_params(NetDims(input_dim=3))
        arrays = p.arrays
        # force diag_cov = 2: softplus(b) = 2  ->  b = log(e^2 - 1)
        arrays["b_var_out"][:] = np.log(np.expm1(2.0))
        model = MeasModel.isotropic(np.eye(3), 2.0)
        rng = np.random.default_rng(3)
        ys = rng.standard_normal((5, 3))
        out = infer_b1(p, ys, model)
        np.testing.assert_allclose(out.covs[0], np.broadcast_to(np.eye(3), (5, 3, 3)), atol=1e-12)
        loss = sup_nll(p, out.means[0], ys, model)
        assert loss == pytest.approx(5 * 1.5 * np.log(2 * np.pi), rel=1e-12)

    def test_sup_single_step_matches_density(self, rng):
        p = perturbed_params(23)
        model = MeasModel.isotropic(builtin_h("partial23"), 0.8)
        ys = rng.standard_normal((1, 2))
        xs = rng.standard_normal((1, 3))
        seq = priors_b1(p, ys)
        belief, _, _ = posterior_b1(seq[0], ys[0], model)
        expected = -gaussian_log_density(xs[0], belief)
        assert sup_nll(p, xs, ys, model) == pytest.approx(expected, abs=1e-10)

    def test_sup_loss_increases_with_error(self, rng):
        p = perturbed_params(24)
        model = MeasModel.isotropic(builtin_h("partial23"), 0.8)
        ys = rng.standard_normal((3, 2))
        out = infer_b1(p, ys, model)
        base = sup_nll(p, out.means[0], ys, model)
        direction = rng.standard_normal((3, 3))
        prev = base
        for scale in (0.5, 1.0, 2.0):
            worse = sup_nll(p, out.means[0] + scale * direction, ys, model)
            assert worse > prev
            prev = worse

    def test_total_loss_additivity(self, rng):
        p = perturbed_params(25)
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
        items = [
            BatchItem(rng.standard_normal((6, 2)), rng.standard_normal((6, 3))),
            BatchItem(rng.standard_normal((6, 2))),
            BatchItem(rng.standard_normal((6, 2))),
        ]
        combined = total_loss(p, items, model)
        separate = sum(total_loss(p, [item], model) for item in items)
        assert combined == pytest.approx(separate, rel=1e-12)

    def test_total_loss_labelled_item_has_both_terms(self, rng):
        p = perturbed_params(26)
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
        ys = rng.standard_normal((5, 2))
        xs = rng.standard_normal((5, 3))
        both = total_loss(p, [BatchItem(ys, xs)], model)
        assert both == pytest.approx(sup_nll(p, xs, ys, model) + unsup_nll(p, ys, model),
                                     rel=1e-12)

    def test_kappa_zero_equals_unsup_objective_bitwise(self, rng):
        p = perturbed_params(27)
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
        measurements = [rng.standard_normal((6, 2)) for _ in range(4)]
        items = [BatchItem(y) for y in measurements]
        ys = np.stack(measurements)
        mean, var, _ = forward_batch(p, ys)
        unsup = float(_unsup_terms(mean, var, model.h, model.c_w, ys, False)[0].sum())
        assert total_loss(p, items, model) == unsup


def _exact_solve(a, cols):
    """Gauss-Jordan solve of a x = c over Fractions for each column c in `cols`."""
    n = len(a)
    aug = [list(a[i]) + [c[i] for c in cols] for i in range(n)]
    for k in range(n):
        pivot = next(r for r in range(k, n) if aug[r][k] != 0)
        aug[k], aug[pivot] = aug[pivot], aug[k]
        aug[k] = [v / aug[k][k] for v in aug[k]]
        for r in range(n):
            if r != k:
                aug[r] = [vr - aug[r][k] * vk for vr, vk in zip(aug[r], aug[k])]
    return [[aug[i][n + j] for i in range(n)] for j in range(len(cols))]


def exact_sup_g_var(mean, var, h, c_w, y, x) -> np.ndarray:
    """d(posterior NLL)/d(var) of one step, evaluated exactly over Fractions.

    The float inputs convert to Fractions without rounding, so only the final
    conversion back to float rounds:
    J = diag(1/var) + H^T C_w^{-1} H, Sigma = J^{-1},
    mu = Sigma (mean/var + H^T C_w^{-1} y) and
    g_var = -((x - mean)^2 - (mu - mean)^2 - diag Sigma) / (2 var^2).
    """
    def exact(values):
        return [Fraction(float(v)) for v in values]

    mean, var, y, x = exact(mean), exact(var), exact(y), exact(x)
    h, c_w = [exact(row) for row in h], [exact(row) for row in c_w]
    m, n = len(mean), len(y)
    cinv_h = _exact_solve(c_w, [[h[i][k] for i in range(n)] for k in range(m)])
    (cinv_y,) = _exact_solve(c_w, [y])
    info = [[sum(h[i][k] * cinv_h[l][i] for i in range(n)) + (1 / var[k] if k == l else 0)
             for l in range(m)] for k in range(m)]
    eta = [mean[k] / var[k] + sum(h[i][k] * cinv_y[i] for i in range(n)) for k in range(m)]
    (mu,) = _exact_solve(info, [eta])
    sigma = _exact_solve(info, [[Fraction(int(i == j)) for i in range(m)] for j in range(m)])
    return np.array([float(-((x[k] - mean[k]) ** 2 - (mu[k] - mean[k]) ** 2 - sigma[k][k])
                           / (2 * var[k] ** 2)) for k in range(m)])


def _random_steps(rng, h, log10_var, b=2, t=3):
    """(mean, var, ys, xs) of b x t random prior steps with var near 10**log10_var."""
    mean = rng.standard_normal((b, t, 3))
    var = 10.0 ** (log10_var + rng.uniform(-0.3, 0.3, (b, t, 3)))
    xs = mean + np.sqrt(var) * rng.standard_normal((b, t, 3))
    return mean, var, rng.standard_normal((b, t, h.shape[0])), xs


class TestPosteriorKernels:
    @pytest.mark.parametrize("h_name", ["dense2x3", "partial23", "extreme1"])
    def test_sup_g_var_matches_exact_reference_at_large_variance(self, rng, h_name):
        # At var ~ 1e4 the posterior barely moves off the prior; a covariance
        # formed by subtraction, diag(var) - K R K^T, loses 8-10 digits of g_var.
        h = builtin_h(h_name)
        c_w = 0.3 * np.eye(h.shape[0])
        mean, var, ys, xs = _random_steps(rng, h, 4.0)
        _, _, g_var = _sup_terms(mean, var, h, c_w, ys, xs, want_grads=True)
        for b, t in np.ndindex(*var.shape[:2]):
            expected = exact_sup_g_var(mean[b, t], var[b, t], h, c_w, ys[b, t], xs[b, t])
            np.testing.assert_allclose(g_var[b, t], expected, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("log10_var", [-8, -4, 0, 2, 4])
    @pytest.mark.parametrize("h", [builtin_h("dense2x3"), builtin_h("partial23"),
                                   np.array([[1.0, 1.0, 0.5], [1.0, 1.0 + 1e-9, 0.5]])],
                             ids=["dense2x3", "partial23", "near_rank_deficient"])
    def test_losses_and_gradients_finite(self, rng, log10_var, h):
        c_w = 0.1 * np.eye(2)
        mean, var, ys, xs = _random_steps(rng, h, log10_var, b=3, t=5)
        for terms in (_sup_terms(mean, var, h, c_w, ys, xs, want_grads=True),
                      _unsup_terms(mean, var, h, c_w, ys, want_grads=True)):
            for arr in terms:
                assert np.all(np.isfinite(arr))

    @pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan, np.inf])
    def test_invalid_prior_variance_is_a_numeric_error(self, rng, bad):
        h = builtin_h("dense2x3")
        mean, var, ys, xs = _random_steps(rng, h, 0.0)
        var[1, 2, 0] = bad
        with pytest.raises(NumericError, match="prior variance"):
            _sup_terms(mean, var, h, np.eye(2), ys, xs, want_grads=True)
        with pytest.raises(NumericError, match="prior variance"):
            _unsup_terms(mean, var, h, np.eye(2), ys, want_grads=False)

    def test_noise_covariance_without_cholesky_factor_is_a_singularity_error(self, rng):
        h = builtin_h("dense2x3")
        mean, var, ys, _ = _random_steps(rng, h, 0.0)
        with pytest.raises(SingularityError, match="C_w"):
            _posterior(mean, var, h, np.diag([1.0, 0.0]), ys)

    def test_subnormal_prior_variance_is_a_numeric_error(self, rng):
        # 1e-320 is positive and finite, but 1/var overflows: unchecked, the NLL is
        # NaN and the variance gradient -inf.
        h = builtin_h("dense2x3")
        mean, var, ys, xs = _random_steps(rng, h, 0.0)
        var[0, 1, 2] = 1e-320
        with pytest.raises(NumericError, match="prior variance"):
            _posterior(mean, var, h, np.eye(2), ys)
        with pytest.raises(NumericError, match="prior variance"):
            _sup_terms(mean, var, h, np.eye(2), ys, xs, want_grads=True)

    def test_tiny_prior_variance_is_a_numeric_error(self, rng):
        # 1/1e-160 is finite, so the posterior and the NLL are too, but 1/var**2 in the
        # supervised variance gradient overflows: unchecked, g_var is -inf.
        h = builtin_h("dense2x3")
        mean, var, ys, xs = _random_steps(rng, h, 0.0)
        var[0, 1, 0] = 1e-160
        assert np.all(np.isfinite(_sup_terms(mean, var, h, np.eye(2), ys, xs, False)[0]))
        with pytest.raises(NumericError, match="prior variance"):
            _sup_terms(mean, var, h, np.eye(2), ys, xs, want_grads=True)


def _planes(a: np.ndarray) -> list:
    """Lower-triangle planes a[..., i, j], j <= i, of a stack of square matrices."""
    return [[a[..., i, j] for j in range(i + 1)] for i in range(a.shape[-1])]


def _from_planes(l: list, shape: tuple) -> np.ndarray:
    """The (..., d, d) lower-triangular stack with the given planes."""
    out = np.zeros(shape + (len(l), len(l)))
    for i, row in enumerate(l):
        for j, plane in enumerate(row):
            out[..., i, j] = plane
    return out


def _relative(a, b) -> float:
    """Largest norm-wise relative difference of the vectors along the last axis."""
    return float(np.max(np.linalg.norm(a - b, axis=-1) / np.linalg.norm(b, axis=-1)))


def _random_spd(rng, d, cond, shape=(6, 40)) -> np.ndarray:
    """Stack of symmetric positive definite d x d matrices with condition number `cond`."""
    q, _ = np.linalg.qr(rng.standard_normal(shape + (d, d)))
    ev = np.logspace(0.0, np.log10(cond), d) * 10.0 ** rng.uniform(-3, 3, shape + (1,))
    a = np.einsum("...ij,...j,...kj->...ik", q, ev, q)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def lapack_kernels(mean, var, h, c_w, ys, xs):
    """The kernels' closed forms through batched LAPACK Cholesky factors and solves.

    Returns (mu, Sigma, unsupervised (nll, g_mean, g_var), supervised (nll, g_mean, g_var)).
    """
    m, n = var.shape[-1], h.shape[0]
    eye = np.eye(m)
    cinv_h = np.linalg.solve(c_w, h)
    chol = np.linalg.cholesky(h.T @ cinv_h + eye * (1.0 / var)[..., None, :])
    l_inv = np.linalg.solve(chol, eye)
    sigma = np.einsum("btki,btkj->btij", l_inv, l_inv)
    mu = np.einsum("btij,btj->bti", sigma, mean / var + ys @ cinv_h)
    delta = xs - mu
    lt_delta = np.einsum("btki,btk->bti", chol, delta)
    logdet_j = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    diag = np.einsum("btkk->btk", sigma)
    sup = (0.5 * np.sum(m * np.log(2 * np.pi) - logdet_j + np.sum(lt_delta**2, axis=-1), axis=1),
           -delta / var, -0.5 * ((xs - mean) ** 2 - (mu - mean) ** 2 - diag) / var**2)
    chol_r = np.linalg.cholesky(np.einsum("ik,btk,jk->btij", h, var, h) + c_w)
    eps = ys - mean @ h.T
    zw = np.linalg.solve(chol_r, np.concatenate(
        [eps[..., None], np.broadcast_to(h, chol_r.shape[:2] + h.shape)], axis=-1))
    z, w = zw[..., 0], zw[..., 1:]
    logdet_r = 2.0 * np.log(np.diagonal(chol_r, axis1=-2, axis2=-1)).sum(axis=-1)
    b_vec = np.einsum("btik,bti->btk", w, z)
    unsup = (0.5 * np.sum(n * np.log(2 * np.pi) + logdet_r + np.sum(z * z, axis=-1), axis=1),
             -b_vec, 0.5 * (np.sum(w * w, axis=-2) - b_vec * b_vec))
    return mu, sigma, unsup, sup


class TestPlaneKernels:
    """The unrolled Cholesky factor and substitutions over (B, T) planes."""

    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_factor_and_substitutions_match_lapack(self, rng, d, cond):
        a = _random_spd(rng, d, cond)
        l = _factor(_planes(a), "A")
        chol = _from_planes(l, a.shape[:-2])
        assert _relative(chol, np.linalg.cholesky(a)) <= 1e-10
        assert _relative(chol @ np.swapaxes(chol, -1, -2), a) <= 1e-14
        b = rng.standard_normal(a.shape[:-1])
        planes_b = [b[..., i] for i in range(d)]
        z = np.stack(_solve(l, planes_b), axis=-1)
        x = np.stack(_solve(l, planes_b, transpose=True), axis=-1)
        assert _relative(z, np.linalg.solve(chol, b[..., None])[..., 0]) <= 1e-10
        assert _relative(x, np.linalg.solve(np.swapaxes(chol, -1, -2), b[..., None])[..., 0]) <= 1e-10

    @pytest.mark.parametrize("bad", [-1.0, np.nan], ids=["not_positive", "nan"])
    def test_bad_pivot_is_a_singularity_error_naming_the_matrix(self, rng, bad):
        a = _random_spd(rng, 3, 10.0)
        a[2, 5, 2, 2] = bad * abs(a[2, 5, 2, 2])  # only the last pivot goes bad
        with pytest.raises(SingularityError, match="posterior precision J"):
            _factor(_planes(a), "posterior precision J")
        h = builtin_h("dense2x3")
        mean, var, ys, _ = _random_steps(rng, h, 0.0)
        with pytest.raises(SingularityError, match="innovation covariance R"):
            _unsup_terms(mean, var, h, np.diag([1.0, bad * 50.0]), ys, want_grads=False)
        with pytest.raises(SingularityError, match="C_w"):
            _posterior(mean, var, h, np.diag([1.0, bad]), ys)

    def test_full_covariances_are_symmetric_inverses_of_j(self, rng):
        p = perturbed_params(48)
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
        ys = rng.standard_normal((3, 40, 2))
        out = infer_batch(p, ys, model, keep_full_covs=True)
        _, var, _ = forward_batch(p, ys)
        info = model.h.T @ np.linalg.solve(model.c_w, model.h) + np.eye(3) * (1.0 / var)[..., None, :]
        assert np.array_equal(out.covs, np.swapaxes(out.covs, -1, -2))
        assert _relative(out.covs, np.linalg.inv(info)) <= 1e-12
        assert np.all(np.einsum("btkk->btk", out.covs) > 0.0)  # the posterior variances

    def test_rows_at_b1_are_bitwise_rows_of_the_batch(self, rng):
        # The plane kernels are elementwise over the stack, so a B = 1 call reproduces
        # each row of a batched call bit for bit.
        h, c_w = builtin_h("dense2x3"), 0.4 * np.eye(2)
        mean, var, ys, xs = _random_steps(rng, h, 0.0, b=4, t=9)
        batch_mu, batch_l = _posterior(mean, var, h, c_w, ys)
        batch_sigma = _sigma(batch_l, full=True)
        batch_unsup = _unsup_terms(mean, var, h, c_w, ys, want_grads=True)
        batch_sup = _sup_terms(mean, var, h, c_w, ys, xs, want_grads=True)
        for i in range(4):
            row = slice(i, i + 1)
            mu, l = _posterior(mean[row], var[row], h, c_w, ys[row])
            assert np.array_equal(mu[0], batch_mu[i])
            assert np.array_equal(_sigma(l, full=True)[0], batch_sigma[i])
            assert np.array_equal(_sigma(l, full=False)[0], np.einsum("tkk->tk", batch_sigma[i]))
            unsup = _unsup_terms(mean[row], var[row], h, c_w, ys[row], want_grads=True)
            sup = _sup_terms(mean[row], var[row], h, c_w, ys[row], xs[row], want_grads=True)
            for single, batched in zip(unsup + sup, batch_unsup + batch_sup):
                assert np.array_equal(single[0], batched[i])

    @pytest.mark.parametrize("log10_var", [-8, -4, 0, 2, 4])
    @pytest.mark.parametrize("h_name", ["dense2x3", "partial23", "extreme1"])
    def test_kernels_match_the_lapack_formulas(self, rng, h_name, log10_var):
        h = builtin_h(h_name)
        c_w = 0.2 * np.eye(h.shape[0]) + 0.05
        mean, var, ys, xs = _random_steps(rng, h, log10_var, b=4, t=25)
        mu_ref, sigma_ref, unsup_ref, sup_ref = lapack_kernels(mean, var, h, c_w, ys, xs)
        mu, l = _posterior(mean, var, h, c_w, ys)
        assert _relative(mu, mu_ref) <= 1e-10
        assert _relative(_sigma(l, full=True), sigma_ref) <= 1e-10
        assert _relative(_sigma(l, full=False), np.einsum("btkk->btk", sigma_ref)) <= 1e-10
        for got, ref in zip(_unsup_terms(mean, var, h, c_w, ys, want_grads=True)
                            + _sup_terms(mean, var, h, c_w, ys, xs, want_grads=True),
                            unsup_ref + sup_ref):
            assert _relative(got, ref) <= 1e-10


def _linear_dataset(n_items, t, master, f, q, h, sw2):
    states, meas, seeds = [], [], []
    for i in range(n_items):
        seed = child_seed(master, i)
        gen = SeededRng(seed)
        x = gen.standard_normal(3)
        xs = [x]
        for _ in range(t - 1):
            x = f @ x + np.sqrt(q) * gen.standard_normal(3)
            xs.append(x)
        xs = np.array(xs)
        ys = xs @ h.T + np.sqrt(sw2) * gen.standard_normal((t, h.shape[0]))
        states.append(xs)
        meas.append(ys)
        seeds.append(seed)
    return PairedDataset(states=states, measurements=meas, item_seeds=seeds, meta={})


class TestTrain:
    def test_toy_linear_gaussian_close_to_kalman(self):
        # Unsupervised training on a full-rank linear-Gaussian system must get
        # within 3 dB of the closed-form Kalman filter on the same test set.
        f = 0.9 * np.eye(3)
        q = 0.1
        h = np.eye(3)
        sw2 = 0.5
        train_ds = _linear_dataset(200, 50, 111, f, q, h, sw2)
        test_ds = _linear_dataset(20, 200, 222, f, q, h, sw2)
        model = MeasModel.isotropic(h, sw2)
        from semidanse.metrics import nmse_db

        kf_est = []
        for ys in test_ds.measurements:
            means, _ = kf_oracle(ys, f, q * np.eye(3), h, sw2 * np.eye(3),
                                 np.zeros(3), np.eye(3))
            kf_est.append(means)
        kf_nmse = nmse_db(test_ds.states, kf_est)

        semi = split_semi(train_ds, SplitConfig(kappa=0.0, seed=1))
        cfg = TrainConfig(batch_size=16, max_epochs=100, init_seed=21, shuffle_seed=22)
        result = train(semi, model, cfg)
        out = infer_batch(result.params, np.stack(test_ds.measurements), model)
        trained_nmse = nmse_db(test_ds.states, [out.means[i] for i in range(len(test_ds))])
        assert abs(trained_nmse - kf_nmse) < 3.0
        assert result.log[-1]["train_loss"] < result.log[0]["train_loss"]

    def test_kappa_zero_step_identical_to_unsupervised_path(self, rng):
        # One Adam step on a kappa = 0 batch must equal the same step driven by
        # the purely unsupervised objective, bit for bit.
        p = perturbed_params(30)
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
        measurements = [rng.standard_normal((8, 2)) for _ in range(5)]
        semi_items = [BatchItem(y) for y in measurements]

        theta0 = p.to_vector()
        results = []
        for items in (semi_items, [BatchItem(y) for y in measurements]):
            adam = Adam(theta0.size, 5e-4)
            _, grads = _batch_loss_and_grads(p, items, model, want_grads=True)
            vec = clip_by_global_norm(grads.to_vector())
            results.append(adam.step(theta0.copy(), vec))
        np.testing.assert_array_equal(results[0], results[1])

    def test_train_determinism(self):
        f = 0.9 * np.eye(3)
        train_ds = _linear_dataset(30, 12, 77, f, 0.1, np.eye(3), 0.5)
        model = MeasModel.isotropic(np.eye(3), 0.5)
        semi = split_semi(train_ds, SplitConfig(kappa=0.2, seed=5))
        cfg = TrainConfig(batch_size=8, max_epochs=3, init_seed=1, shuffle_seed=2)
        a = train(semi, model, cfg).params.to_vector()
        b = train(semi, model, cfg).params.to_vector()
        np.testing.assert_array_equal(a, b)

    def test_nan_loss_aborts_with_diagnostics(self):
        f = 0.9 * np.eye(3)
        train_ds = _linear_dataset(20, 10, 88, f, 0.1, np.eye(3), 0.5)
        train_ds.measurements[3][5, 1] = np.nan
        model = MeasModel.isotropic(np.eye(3), 0.5)
        semi = split_semi(train_ds, SplitConfig(kappa=0.0, seed=5))
        cfg = TrainConfig(batch_size=8, max_epochs=2, init_seed=1, shuffle_seed=2)
        with pytest.raises(TrainingError) as info:
            train(semi, model, cfg)
        assert info.value.epoch is not None

    def test_tiny_prior_variance_fails_at_its_batch_naming_it(self, monkeypatch):
        # softplus(-370 + small) ~ 1e-161: the supervised variance gradient overflows in
        # the first batch. Unchecked, clipping turned it into NaN and the parameter update
        # failed with an untyped ValueError that named neither the variance nor the batch.
        def tiny_var_params(dims, seed):
            p = init_params(dims, seed)
            p.arrays["b_var_out"][:] = -370.0
            return p

        monkeypatch.setattr(estimator, "init_params", tiny_var_params)
        train_ds = _linear_dataset(20, 10, 88, 0.9 * np.eye(3), 0.1, np.eye(3), 0.5)
        model = MeasModel.isotropic(np.eye(3), 0.5)
        semi = split_semi(train_ds, SplitConfig(kappa=1.0, seed=5))
        cfg = TrainConfig(batch_size=8, max_epochs=2, init_seed=1, shuffle_seed=2)
        with pytest.raises(TrainingError, match="prior variance") as info:
            train(semi, model, cfg)
        assert (info.value.epoch, info.value.batch) == (0, 0)
        assert isinstance(info.value.__cause__, NumericError)

    @pytest.mark.parametrize("poison,message", [
        (np.nan, "gradient w_trunk: non-finite entries"),
        (1e300, "gradient norm overflows"),
    ])
    def test_bad_gradient_fails_at_its_batch_naming_it(self, monkeypatch, poison, message):
        # One prior-mean gradient entry is poisoned. A NaN makes the first non-finite
        # PARAM_KEYS block of the gradient (w_trunk: step 0's prior bypasses the cell)
        # fail; 1e300 keeps every entry finite, but the norm overflows, and the clip
        # would scale the step by 10/inf = 0 without a word.
        unsup_terms = estimator._unsup_terms

        def poisoned(*args, **kwargs):
            nll, g_mean, g_var = unsup_terms(*args, **kwargs)
            g_mean = g_mean.copy()
            g_mean[0, 0, 0] = poison
            return nll, g_mean, g_var

        monkeypatch.setattr(estimator, "_unsup_terms", poisoned)
        train_ds = _linear_dataset(20, 10, 88, 0.9 * np.eye(3), 0.1, np.eye(3), 0.5)
        semi = split_semi(train_ds, SplitConfig(kappa=0.0, seed=5))
        cfg = TrainConfig(batch_size=8, max_epochs=2, init_seed=1, shuffle_seed=2)
        with pytest.raises(TrainingError, match=message) as info:
            train(semi, MeasModel.isotropic(np.eye(3), 0.5), cfg)
        assert (info.value.epoch, info.value.batch) == (0, 0)
        assert isinstance(info.value.__cause__, NumericError)

    def test_empty_validation_holdout_raises(self):
        # None of these 4 items is hashed into the hold-out. Early stopping
        # would watch a constant 0.0 and return the epoch-0 parameters.
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
        data = generate(dynamics.make_spec("lorenz63", 0.01), lambda states: model, 4, 20, 1)
        assert not validation_mask(data).any()
        semi = split_semi(data, SplitConfig(kappa=0.0, seed=1))
        cfg = TrainConfig(batch_size=4, max_epochs=30, patience=5, init_seed=1, shuffle_seed=2)
        with pytest.raises(TrainingError, match="validation hold-out is empty .* 4 items"):
            train(semi, model, cfg)

    def test_validation_metric_batched_equals_per_item(self, rng):
        # Both branches against the per-item metric: the mean squared state
        # error of B = 1 inference over the labelled validation items, and the
        # mean B = 1 predictive NLL over all validation items.
        p = perturbed_params(32)
        model = MeasModel.isotropic(builtin_h("partial23"), 0.5)
        data = PairedDataset(states=rng.standard_normal((5, 9, 3)),
                             measurements=rng.standard_normal((5, 9, 2)),
                             item_seeds=list(range(5)), meta={})
        val_idx, labelled_idx = np.array([0, 2, 3, 4]), np.array([0, 3, 4])
        sq = sum(float(np.sum((infer_b1(p, data.measurements[i], model).means[0]
                               - data.states[i]) ** 2)) for i in labelled_idx)
        expected = sq / (len(labelled_idx) * 9 * 3)
        metric = _validation_metric(p, model, data, val_idx, labelled_idx)
        assert metric == pytest.approx(expected, rel=1e-12)
        expected = np.mean([unsup_nll(p, data.measurements[i], model) for i in val_idx])
        metric = _validation_metric(p, model, data, val_idx, np.array([], dtype=int))
        assert metric == pytest.approx(expected, rel=1e-12)

    def test_lr_schedule_decays(self):
        f = 0.9 * np.eye(3)
        train_ds = _linear_dataset(20, 10, 99, f, 0.1, np.eye(3), 0.5)
        model = MeasModel.isotropic(np.eye(3), 0.5)
        semi = split_semi(train_ds, SplitConfig(kappa=0.0, seed=5))
        # max_epochs // 6 = 2: the learning rate decays every second epoch.
        cfg = TrainConfig(batch_size=8, max_epochs=12, patience=1000, init_seed=1, shuffle_seed=2)
        result = train(semi, model, cfg)
        lrs = [e["lr"] for e in result.log]
        assert lrs[0] == pytest.approx(5e-4)
        assert lrs[2] == pytest.approx(5e-4 * 0.9)
        assert lrs[11] == pytest.approx(5e-4 * 0.9**5)

    @pytest.mark.parametrize("patience, learning_rate, epochs_run, reason", [
        (1000, 5e-4, 4, "max_epochs"),
        (0, 1e-12, 2, "patience"),
    ])
    def test_stop_reason_names_what_ended_training(self, patience, learning_rate, epochs_run,
                                                   reason):
        # At a learning rate of 1e-12 the second epoch's validation metric stays within
        # MIN_DELTA of the first's, so with patience 0 early stopping ends training there.
        train_ds = _linear_dataset(20, 10, 99, 0.9 * np.eye(3), 0.1, np.eye(3), 0.5)
        semi = split_semi(train_ds, SplitConfig(kappa=0.0, seed=5))
        cfg = TrainConfig(batch_size=8, max_epochs=4, learning_rate=learning_rate,
                          patience=patience, init_seed=1, shuffle_seed=2)
        result = train(semi, MeasModel.isotropic(np.eye(3), 0.5), cfg)
        assert (len(result.log), result.stop_reason) == (epochs_run, reason)


class TestInfer:
    def test_single_step_composition(self, rng):
        p = perturbed_params(40)
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
        y = rng.standard_normal((1, 2))
        out = infer_b1(p, y, model)
        mean0, var0, *_ = _heads_forward(p, np.zeros((1, p.dims.hidden)))
        belief, _, _ = posterior_b1((mean0[0], var0[0]), y[0], model)
        np.testing.assert_allclose(out.means[0, 0], belief.mean, atol=1e-12)
        np.testing.assert_allclose(out.covs[0, 0], belief.cov, atol=1e-12)

    def test_causality_under_truncation(self, rng):
        p = perturbed_params(41)
        model = MeasModel.isotropic(builtin_h("partial23"), 0.5)
        ys = rng.standard_normal((10, 2))
        full = infer_b1(p, ys, model)
        part = infer_b1(p, ys[:6], model)
        np.testing.assert_allclose(part.means[0], full.means[0, :6], rtol=0, atol=1e-12)

    def test_information_never_hurts(self, rng):
        p = perturbed_params(42, scale=0.3)
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
        ys = rng.standard_normal((20, 2))
        out = infer_b1(p, ys, model)
        _, prior_var, _ = forward_batch(p, ys[None])
        post_trace = np.einsum("tkk->t", out.covs[0])
        prior_trace = prior_var[0].sum(axis=1)
        assert np.all(post_trace <= prior_trace + 1e-10)

    def test_posterior_covs_psd_along_run(self, rng):
        base = init_params(NetDims(input_dim=1), 43)
        gen = np.random.default_rng(44)
        p = base.from_vector(base.to_vector() + 0.05 * gen.standard_normal(base.num_params()))
        model = MeasModel.isotropic(builtin_h("extreme1"), 0.2)
        ys = rng.standard_normal((50, 1))
        out = infer_b1(p, ys, model)
        assert np.linalg.eigvalsh(out.covs[0]).min() >= -1e-10

    def test_batch_matches_single(self, rng):
        p = perturbed_params(44)
        model = MeasModel.isotropic(builtin_h("partial23"), 0.5)
        ys = rng.standard_normal((3, 15, 2))
        batch = infer_batch(p, ys, model, keep_full_covs=True)
        for i in range(3):
            single = infer_b1(p, ys[i], model)
            np.testing.assert_allclose(batch.means[i], single.means[0], atol=1e-12)
            np.testing.assert_allclose(batch.pred_meas_means[i], single.pred_meas_means[0],
                                       atol=1e-12)

    def test_predictive_measurement_belief(self, rng):
        p = perturbed_params(45)
        model = MeasModel.isotropic(builtin_h("partial23"), 0.5)
        ys = rng.standard_normal((4, 2))
        out = infer_b1(p, ys, model)
        prior_mean, prior_var, _ = forward_batch(p, ys[None])
        np.testing.assert_allclose(out.pred_meas_means[0], prior_mean[0] @ model.h.T, atol=1e-12)
        for t in range(4):
            expected = model.h @ np.diag(prior_var[0, t]) @ model.h.T + model.c_w
            np.testing.assert_allclose(out.pred_meas_covs[0, t], expected, atol=1e-12)

    @pytest.mark.parametrize("keep_full_covs", [False, True])
    def test_blocks_equal_the_unblocked_composition(self, rng, keep_full_covs):
        # T = 1, one step short of one block, one block, one step past it and a
        # partial third block: the streamed result equals one unblocked forward_batch
        # followed by _posterior, and each of its rows equals that item's B = 1 run.
        p = perturbed_params(46)
        model = MeasModel.isotropic(builtin_h("partial23"), 0.5)
        h = model.h
        for t_len in (1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1, 2 * BLOCK_STEPS + 3):
            ys = rng.standard_normal((3, t_len, 2))
            out = infer_batch(p, ys, model, keep_full_covs)
            mean, var, _ = forward_batch(p, ys)
            mu, l = _posterior(mean, var, h, model.c_w, ys)
            sigma = _sigma(l, full=True)
            expected = {"means": mu}
            if keep_full_covs:
                expected["pred_meas_means"] = mean @ h.T
                expected["covs"] = sigma
                expected["pred_meas_covs"] = np.einsum("ik,btk,jk->btij", h, var, h) + model.c_w
            else:
                assert out.pred_meas_means is None
                assert out.covs is None and out.pred_meas_covs is None
            rows = [infer_batch(p, ys[i : i + 1], model, keep_full_covs) for i in range(3)]
            for name, value in expected.items():
                np.testing.assert_allclose(getattr(out, name), value, rtol=1e-12)
                for i, row in enumerate(rows):
                    np.testing.assert_allclose(getattr(row, name)[0], getattr(out, name)[i],
                                               rtol=1e-12)

    @pytest.mark.parametrize("block", [None, 8, 32, 64])
    @pytest.mark.parametrize("b", [1, 3, 20])
    def test_prefix_runs_are_the_full_run_bitwise(self, monkeypatch, b, block):
        # Causal bit for bit: an estimate's bits depend only on y_{1:t} and B, wherever
        # the prefix ends within a block and whatever BLOCK_STEPS is (None: the default).
        # B = 1 and 3 put every row, B = 20 none, in the edge rows of a matmul's M
        # dimension.
        p = perturbed_params(48)
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
        ys = np.random.default_rng(b).standard_normal((b, 400, 2))
        for keep_full_covs in (False, True):
            reference = infer_batch(p, ys, model, keep_full_covs)
            monkeypatch.setattr(estimator, "BLOCK_STEPS", block or BLOCK_STEPS)
            runs = {400: infer_batch(p, ys, model, keep_full_covs)}
            runs.update((t1, infer_batch(p, ys[:, :t1], model, keep_full_covs))
                        for t1 in (1, 5, 17, 22, 150, 333))
            monkeypatch.undo()
            for t1, out in runs.items():
                for name, value in vars(out).items():
                    expected = getattr(reference, name)
                    assert (value is None) == (expected is None) == (not keep_full_covs
                                                                     and name != "means")
                    assert value is None or np.array_equal(value, expected[:, :t1]), (name, t1)

    def test_memory_beyond_the_outputs_does_not_grow_with_t(self, rng):
        # Streaming holds one block of priors and posteriors besides the (B, T, .)
        # outputs, so tripling T adds only the outputs' growth to the traced peak.
        # An unblocked pass also holds the (T, B, 3h) input projection and T steps
        # of hidden states and head activations: 3x the excess at T = 500.
        p = perturbed_params(47)
        model = MeasModel.isotropic(builtin_h("partial23"), 0.5)
        excess = []
        for t_len in (500, 1500):
            ys = rng.standard_normal((50, t_len, 2))
            tracemalloc.start()
            try:
                out = infer_batch(p, ys, model)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            excess.append(peak - out.means.nbytes)
        assert excess[1] <= 1.1 * excess[0]

    def test_block_working_set_at_full_batch(self, rng):
        # At B = 100 the traced peak beyond the outputs is one block's working set:
        # about 3.4 MB for 16-step blocks, 6.6 MB for 32-step and 33 MB for 128-step ones.
        p = perturbed_params(49)
        model = MeasModel.isotropic(builtin_h("partial23"), 0.5)
        ys = rng.standard_normal((100, 300, 2))
        tracemalloc.start()
        try:
            out = infer_batch(p, ys, model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - out.means.nbytes < 12e6


class TestDofReport:
    def test_reference_configuration_counts(self):
        # n = 2, m = 3, N = 1000, N_s = 20, T = 100
        states = [np.zeros((100, 3))] * 1000
        meas = [np.zeros((100, 2))] * 1000
        ds = PairedDataset(states=states, measurements=meas,
                           item_seeds=list(range(1000)), meta={})
        semi = split_semi(ds, SplitConfig(kappa=0.02, seed=1))
        model = MeasModel.isotropic(builtin_h("dense2x3"), 1.0)
        params = init_params(NetDims(input_dim=2), 0)
        report = dof_report(semi, params, model)
        assert report["unsup_constraints"] == 200_000
        assert report["sup_constraints"] == 6_000
        assert report["n_labelled"] == 20

    def test_kappa_zero_no_sup_constraints(self):
        ds = PairedDataset(states=[np.zeros((10, 3))] * 5,
                           measurements=[np.zeros((10, 2))] * 5,
                           item_seeds=list(range(5)), meta={})
        semi = split_semi(ds, SplitConfig(kappa=0.0, seed=1))
        model = MeasModel.isotropic(builtin_h("partial23"), 1.0)
        params = init_params(NetDims(input_dim=2), 0)
        assert dof_report(semi, params, model)["sup_constraints"] == 0

    def test_param_count_cross_check(self):
        # independent arithmetic over the architecture shapes
        n, h, h2, h3, m = 2, 30, 30, 32, 3
        expected = 3 * (h * n + h * h + h) + (h2 * h + h2) \
            + 2 * (h3 * h2 + h3 + m * h3 + m)
        params = init_params(NetDims(input_dim=n), 0)
        assert params.num_params() == expected
