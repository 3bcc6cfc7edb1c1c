"""EKF/UKF reference-filter tests."""

from types import SimpleNamespace

import numpy as np
import pytest

from semidanse import baselines, dynamics, harness
from semidanse.baselines import (
    Ekf,
    Ukf,
    UkfConfig,
    ekf_batch,
    filter_batch,
    initial_beliefs_from_truth,
    ukf_batch,
)
from semidanse.exceptions import DimensionError, NumericError, SingularityError
from semidanse.measurement import MeasModel, builtin_h, calibrate_sigma_w
from semidanse.metrics import nmse_db
from semidanse.numerics import child_seed

from conftest import GaussianBelief, LinearProcess, kf_oracle, measure_b1


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
        cfg = harness.ExperimentConfig(filter_init="uninformative")
        mean, cov = harness._filter_init(cfg, np.ones((4, 3)))
        np.testing.assert_array_equal(mean, np.zeros((4, 3)))
        np.testing.assert_array_equal(cov, 10.0 * np.eye(3))

    @pytest.mark.parametrize("filt", [ekf_batch, ukf_batch])
    def test_misshapen_initial_belief_is_a_dimension_error(self, filt):
        spec = dynamics.make_spec("lorenz63", 0.0)
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
        ys = np.zeros((4, 3, 2))
        for x0_mean, x0_cov in ((np.zeros(2), np.eye(3)), (np.zeros((3, 3)), np.eye(3)),
                                (np.zeros(3), np.eye(2))):
            with pytest.raises(DimensionError, match="initial beliefs"):
                filt(ys, spec, model, x0_mean, x0_cov)


class TestSharedTransitionMatrices:
    @pytest.mark.parametrize("system,filt,per_row", [
        ("lorenz63", ekf_batch, 3), ("lorenz63", ukf_batch, 3), ("rossler", ekf_batch, 5),
    ])
    def test_matrices_per_predict_step(self, system, filt, per_row, taylor_matrices):
        # Lorenz's generator reads x1 only: the centre and the two x1-shifted points need
        # an F, for the finite differences and for the Cholesky sigma points (row 0 of the
        # factor is zero past the diagonal). Rossler's also reads x3: 5 of 7 EKF points.
        spec = dynamics.make_spec(system, 0.05)
        b = 6
        states = dynamics.simulate_batch(spec, 2, seeds=list(range(b)))
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
        x0m, x0c = initial_beliefs_from_truth(states[:, 0], seed=3)
        taylor_matrices.clear()  # the simulation's own
        filt(states @ model.h.T, spec, model, x0m, x0c)  # T = 2: one predict step
        assert taylor_matrices == [per_row * b]


def seq_sum(terms):
    """(((+0.0 + t_0) + t_1) + ...) in the order given, one Python float at a time."""
    acc = 0.0
    for t in terms:
        acc = acc + t
    return acc


def planes(a):
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def batch_major(a):
    return np.moveaxis(a, -1, 0)


@pytest.mark.parametrize("b,n", [(1, 1), (1, 2), (3, 1), (4, 2), (5, 3)])
class TestOrderedContractions:
    """Each plane kernel against a scalar loop that spells out its summation order.

    Bitwise against the loop, over several draws, since one draw can round alike in
    two orders; against np.einsum, whose order they were written to match, only to
    1e-13, so that the check does not depend on einsum's internals.
    """

    m = 3
    draws = 8

    def test_innovation_cov(self, rng, b, n):
        for _ in range(self.draws):
            h = rng.standard_normal((n, self.m))
            p = rng.standard_normal((b, self.m, self.m))
            got = batch_major(baselines._innovation_cov(h, planes(p)))
            ref = np.array([[[seq_sum((h[i, k] * p[r, k, l]) * h[j, l]
                                      for k in range(self.m) for l in range(self.m))
                              for j in range(n)] for i in range(n)] for r in range(b)])
            np.testing.assert_array_equal(got, ref)
            np.testing.assert_allclose(got, np.einsum("ik,bkl,jl->bij", h, p, h), rtol=1e-13)

    def test_gain(self, rng, b, n):
        for _ in range(self.draws):
            h = rng.standard_normal((n, self.m))
            p, s_inv = rng.standard_normal((b, self.m, self.m)), rng.standard_normal((b, n, n))
            got = batch_major(baselines._gain(planes(p), h, planes(s_inv)))
            ref = np.array([[[seq_sum(seq_sum((p[r, k, l] * h[i, l]) * s_inv[r, i, j]
                                              for l in range(self.m)) for i in range(n))
                              for j in range(n)] for k in range(self.m)] for r in range(b)])
            np.testing.assert_array_equal(got, ref)
            np.testing.assert_allclose(got, np.einsum("bkl,il,bij->bkj", p, h, s_inv),
                                       rtol=1e-13)

    def test_gain_noise(self, rng, b, n):
        for _ in range(self.draws):
            c = rng.standard_normal((n, n))
            k = rng.standard_normal((b, self.m, n))
            got = batch_major(baselines._gain_noise(planes(k), c))
            ref = np.array([[[seq_sum((k[r, q, i] * c[i, j]) * k[r, l, j]
                                      for i in range(n) for j in range(n))
                              for l in range(self.m)] for q in range(self.m)] for r in range(b)])
            np.testing.assert_array_equal(got, ref)
            np.testing.assert_allclose(got, np.einsum("bki,ij,blj->bkl", k, c, k), rtol=1e-13)

    def test_gain_times(self, rng, b, n):
        for _ in range(self.draws):
            k, e = rng.standard_normal((b, self.m, n)), rng.standard_normal((b, n))
            got = batch_major(baselines._gain_times(planes(k), planes(e)))
            ref = np.array([[seq_sum(k[r, q, i] * e[r, i] for i in range(n))
                             for q in range(self.m)] for r in range(b)])
            np.testing.assert_array_equal(got, ref)
            np.testing.assert_allclose(got, np.einsum("bki,bi->bk", k, e), rtol=1e-13)

    def test_weighted_outer(self, rng, b, n):
        for _ in range(self.draws):
            w = rng.standard_normal(2 * self.m + 1)
            d = rng.standard_normal((b, 2 * self.m + 1, self.m))
            got = batch_major(baselines._weighted_outer(w, planes(d)))
            ref = np.array([[[seq_sum((w[s] * d[r, s, k]) * d[r, s, l] for s in range(len(w)))
                              for l in range(self.m)] for k in range(self.m)] for r in range(b)])
            np.testing.assert_array_equal(got, ref)
            np.testing.assert_allclose(got, np.einsum("s,bsk,bsl->bkl", w, d, d), rtol=1e-13)

    def test_all_negative_zero_terms_sum_to_positive_zero(self, b, n):
        # Every term is -0.0 here; a sum started from the first term would return -0.0.
        m, one = self.m, np.ones
        sums = [
            baselines._innovation_cov(one((n, m)), np.full((m, m, b), -0.0)),
            baselines._gain(np.full((m, m, b), -0.0), one((n, m)), one((n, n, b))),
            baselines._gain_noise(np.full((m, n, b), -0.0), -one((n, n))),
            baselines._gain_times(np.full((m, n, b), -0.0), one((n, b))),
            baselines._weighted_outer(-one(2 * m + 1), np.full((2 * m + 1, m, b), -0.0)),
        ]
        for got in sums:
            assert not np.signbit(got).any() and not got.any()


def _joint_setup(system, h_name, b, t):
    spec = dynamics.make_spec(system, 0.05)
    states = dynamics.simulate_batch(spec, t, seeds=[child_seed(41, i) for i in range(b)])
    model = MeasModel.isotropic(builtin_h(h_name), 0.5)
    ys = np.stack([measure_b1(states[i], model, 700 + i) for i in range(b)])
    x0m, x0c = initial_beliefs_from_truth(states[:, 0], seed=4)
    return ys, spec, model, x0m, x0c


def _same_bits(a, b):
    return (a is None and b is None) or (a.shape == b.shape and a.tobytes() == b.tobytes())


class TestJointLoop:
    @pytest.mark.parametrize("keep_full_covs", [False, True])
    @pytest.mark.parametrize("b", [1, 5])
    @pytest.mark.parametrize("system,h_name", [
        ("lorenz63", "dense2x3"), ("lorenz63", "extreme1"), ("rossler", "dense2x3"),
    ])
    def test_joint_outputs_equal_each_filter_alone_bitwise(self, system, h_name, b,
                                                           keep_full_covs):
        # extreme1 (n = 1) at B = 1 takes _ordered_sum's single-entry branch alone and
        # its reduce branch stacked as B = 2.
        ys, spec, model, x0m, x0c = _joint_setup(system, h_name, b, 25)
        joint = filter_batch([Ekf(), Ukf(3)], ys, spec, model, x0m, x0c, keep_full_covs)
        alone = (ekf_batch(ys, spec, model, x0m, x0c, keep_full_covs),
                 ukf_batch(ys, spec, model, x0m, x0c, keep_full_covs=keep_full_covs))
        for got, want in zip(joint, alone):
            for field in ("means", "pred_meas_means", "covs", "pred_meas_covs"):
                assert _same_bits(getattr(got, field), getattr(want, field)), field
        assert (joint[0].covs is None) == (not keep_full_covs)

    @pytest.mark.parametrize("system,per_row", [("lorenz63", 3 + 3), ("rossler", 5 + 7)])
    def test_joint_step_computes_the_separate_steps_matrices(self, system, per_row,
                                                             taylor_matrices):
        # Sharing is decided per (row, point): the UKF's Rossler sigma points share
        # nothing, and the EKF's groups in the same call still share 2 of 7.
        ys, spec, model, x0m, x0c = _joint_setup(system, "dense2x3", 6, 2)
        taylor_matrices.clear()  # the simulation's own
        filter_batch([Ekf(), Ukf(3)], ys, spec, model, x0m, x0c)  # T = 2: one predict step
        assert taylor_matrices == [per_row * 6]

    @pytest.mark.parametrize("run", [
        lambda ys, spec, model: ekf_batch(ys, spec, model, np.zeros(3), np.eye(3)),
        lambda ys, spec, model: ukf_batch(ys, spec, model, np.zeros(3), np.eye(3)),
        lambda ys, spec, model: filter_batch([Ekf(), Ukf(3)], ys, spec, model, np.zeros(3),
                                             np.eye(3)),
    ], ids=["ekf", "ukf", "joint"])
    def test_two_dimensional_measurements_are_a_dimension_error(self, run):
        spec = dynamics.make_spec("lorenz63", 0.0)
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
        with pytest.raises(DimensionError, match=r"ys \(5, 2\) is not \(B, T, n = 2\)"):
            run(np.zeros((5, 2)), spec, model)


class TestInnovationCheck:
    @pytest.mark.parametrize("filt", [ekf_batch, ukf_batch])
    def test_singular_innovation_covariance_raises(self, filt):
        # C_w = diag(1, 0) and a certain initial state: S = diag(1, 0) at t = 1.
        model = MeasModel(np.eye(3)[:2], np.diag([1.0, 0.0]))
        with pytest.raises(SingularityError, match="innovation covariance"):
            filt(np.zeros((2, 3, 2)), dynamics.make_spec("lorenz63", 0.01), model, np.ones(3),
                 np.zeros((3, 3)))

    @pytest.mark.parametrize("where,bad,error,named", [
        pytest.param("c_e", np.nan, NumericError, "process noise covariance C_e", id="nan"),
        pytest.param("c_e", np.inf, NumericError, "process noise covariance C_e", id="inf"),
        pytest.param("f", np.inf, NumericError, "ekf predicted belief of row 0 at step 1 is "
                     "not finite", id="transition-inf"),
    ])
    def test_non_finite_innovation_covariance_raises(self, where, bad, error, named):
        # A non-finite process noise is named before the loop, as a non-finite initial
        # covariance is; a transition that returns inf turns S non-finite at the first
        # predicted step, where the failed check of S names the predicted belief.
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
        spec = dynamics.make_spec("lorenz63", 0.01)
        c_e, transition = spec.process_noise_cov.copy(), spec.transition_batch
        if where == "c_e":
            c_e[1, 1] = bad
        else:
            transition = lambda xs: np.full(xs.shape, bad)
        process = SimpleNamespace(transition_batch=transition, process_noise_cov=c_e)
        with np.errstate(invalid="ignore"), pytest.raises(error, match=named):
            filter_batch([Ekf(), Ukf(3)], np.zeros((2, 3, 2)), process, model, np.ones(3),
                         np.eye(3))
