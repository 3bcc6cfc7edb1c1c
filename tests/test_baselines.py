"""EKF/UKF reference-filter tests."""

import numpy as np
import pytest

from semidanse import dynamics
from semidanse.baselines import (
    UkfConfig,
    ekf_batch,
    initial_beliefs_from_truth,
    ukf_batch,
    uninformative_belief,
)
from semidanse.measurement import MeasModel, builtin_h, calibrate_sigma_w
from semidanse.metrics import nmse_db
from semidanse.numerics import GaussianBelief, child_seed

from conftest import LinearProcess, kf_oracle, measure_b1


def linear_system_data(rng, t=100, f_scale=0.9, q=0.1, sw2=0.2):
    f = f_scale * np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    h = builtin_h("dense2x3")
    x = rng.standard_normal(3)
    xs, ys = [], []
    for step in range(t):
        if step > 0:
            x = f @ x + np.sqrt(q) * rng.standard_normal(3)
        xs.append(x.copy())
        ys.append(h @ x + np.sqrt(sw2) * rng.standard_normal(2))
    return f, q, h, sw2, np.array(xs), np.array(ys)


class TestLinearReduction:
    def test_ekf_equals_kf(self, rng):
        f, q, h, sw2, _, ys = linear_system_data(rng)
        model = MeasModel.isotropic(h, sw2)
        proc = LinearProcess(f, q * np.eye(3))
        x0 = GaussianBelief(np.zeros(3), 5.0 * np.eye(3))
        out = ekf_batch(ys[None], proc, model, x0.mean, x0.cov, keep_full_covs=True)
        km, kc = kf_oracle(ys, f, q * np.eye(3), h, sw2 * np.eye(2), x0.mean, x0.cov)
        np.testing.assert_allclose(out.means[0], km, atol=1e-8)
        np.testing.assert_allclose(out.covs[0], kc, atol=1e-8)

    def test_ukf_equals_kf(self, rng):
        f, q, h, sw2, _, ys = linear_system_data(rng)
        model = MeasModel.isotropic(h, sw2)
        proc = LinearProcess(f, q * np.eye(3))
        x0 = GaussianBelief(np.zeros(3), 5.0 * np.eye(3))
        out = ukf_batch(ys[None], proc, model, x0.mean, x0.cov, UkfConfig(), keep_full_covs=True)
        km, kc = kf_oracle(ys, f, q * np.eye(3), h, sw2 * np.eye(2), x0.mean, x0.cov)
        np.testing.assert_allclose(out.means[0], km, atol=1e-8)
        np.testing.assert_allclose(out.covs[0], kc, atol=1e-8)

    def test_ukf_linear_reduction_for_several_configs(self, rng):
        f, q, h, sw2, _, ys = linear_system_data(rng, t=40)
        model = MeasModel.isotropic(h, sw2)
        proc = LinearProcess(f, q * np.eye(3))
        x0 = GaussianBelief(np.zeros(3), 2.0 * np.eye(3))
        km, _ = kf_oracle(ys, f, q * np.eye(3), h, sw2 * np.eye(2), x0.mean, x0.cov)
        for cfg in (UkfConfig(1e-3, 2.0, 0.0), UkfConfig(1.0, 0.0, 0.0), UkfConfig(0.5, 2.0, 1.0)):
            out = ukf_batch(ys[None], proc, model, x0.mean, x0.cov, cfg)
            np.testing.assert_allclose(out.means[0], km, atol=1e-8)


class TestNoiselessConsistency:
    def test_exact_tracking_with_perfect_model(self):
        spec = dynamics.make_spec("lorenz63", 0.0)
        states = dynamics.simulate_batch(spec, 50, seeds=[3])[0]
        model = MeasModel.isotropic(builtin_h("dense2x3"), 1e-12)
        ys = states @ model.h.T
        x0 = GaussianBelief(states[0], 1e-10 * np.eye(3))
        for filt in (ekf_batch, ukf_batch):
            out = filt(ys[None], spec, model, x0.mean, x0.cov)
            np.testing.assert_allclose(out.means[0], states, atol=1e-6)


class TestSigmaWeights:
    def test_weights_sum_to_one(self, rng):
        for _ in range(20):
            cfg = UkfConfig(alpha=float(rng.uniform(0.01, 1.0)), beta=float(rng.uniform(0, 3)),
                            kappa=float(rng.uniform(-0.5, 3.0)))
            _, w_mean, w_cov = cfg.weights(3)
            assert np.sum(w_mean) == pytest.approx(1.0, abs=1e-12)
            # covariance weights sum to 1 + (1 - alpha^2 + beta)
            assert np.sum(w_cov) == pytest.approx(1.0 + (1 - cfg.alpha**2 + cfg.beta), abs=1e-12)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            UkfConfig(alpha=0.0)
        with pytest.raises(ValueError):
            UkfConfig(alpha=1.5)


@pytest.fixture(scope="module")
def lorenz_setup():
    spec = dynamics.make_spec("lorenz63", 0.1)
    n_test, t_test = 20, 500
    seeds = [child_seed(child_seed(5150, i), 0) for i in range(n_test)]
    states = dynamics.simulate_batch(spec, t_test, seeds)
    return spec, states


class TestChaoticRuns:

    def test_posterior_covariances_stay_psd(self, lorenz_setup):
        spec, states = lorenz_setup
        truth = [states[i] for i in range(len(states))]
        sw2 = calibrate_sigma_w(truth, builtin_h("dense2x3"), 10.0)
        model = MeasModel.isotropic(builtin_h("dense2x3"), sw2)
        meas = np.stack([measure_b1(states[i], model, 100 + i) for i in range(len(states))])
        x0m, x0c = initial_beliefs_from_truth(states[:, 0], seed=1)
        out = ekf_batch(meas[:4], spec, model, x0m[:4], x0c, keep_full_covs=True)
        assert np.linalg.eigvalsh(out.covs).min() >= -1e-8
        out = ukf_batch(meas[:4], spec, model, x0m[:4], x0c, keep_full_covs=True)
        assert np.linalg.eigvalsh(out.covs).min() >= -1e-8

    def test_nmse_improves_with_smnr(self, lorenz_setup):
        # monotone improvement over the SMNR grid, allowing <= 1 dB violations
        spec, states = lorenz_setup
        truth = [states[i] for i in range(len(states))]
        h = builtin_h("dense2x3")
        x0m, x0c = initial_beliefs_from_truth(states[:, 0], seed=1)
        for filt in (ekf_batch, ukf_batch):
            values = []
            for smnr in (-10.0, 0.0, 10.0, 20.0, 30.0):
                sw2 = calibrate_sigma_w(truth, h, smnr)
                model = MeasModel.isotropic(h, sw2)
                meas = np.stack([measure_b1(states[i], model, 200 + i) for i in range(len(states))])
                means = filt(meas, spec, model, x0m, x0c).means
                values.append(nmse_db(truth, [means[i] for i in range(len(states))]))
            for worse, better in zip(values, values[1:]):
                assert better <= worse + 1.0

    def test_single_matches_batch(self, lorenz_setup):
        spec, states = lorenz_setup
        model = MeasModel.isotropic(builtin_h("partial23"), 0.5)
        meas = np.stack([measure_b1(states[i], model, 300 + i) for i in range(2)])
        x0m, x0c = initial_beliefs_from_truth(states[:2, 0], seed=2)
        means = ekf_batch(meas, spec, model, x0m, x0c).means
        single = ekf_batch(meas[:1], spec, model, x0m[:1], x0c)
        np.testing.assert_allclose(single.means[0], means[0], atol=1e-12)


class TestInitialBeliefs:
    def test_truth_corruption_seeded(self):
        first = np.arange(12, dtype=float).reshape(4, 3)
        m1, c1 = initial_beliefs_from_truth(first, seed=9)
        m2, _ = initial_beliefs_from_truth(first, seed=9)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(c1, np.eye(3))
        assert not np.array_equal(m1, first)

    def test_uninformative(self):
        belief = uninformative_belief()
        np.testing.assert_array_equal(belief.mean, np.zeros(3))
        np.testing.assert_array_equal(belief.cov, 10.0 * np.eye(3))
