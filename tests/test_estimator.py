"""Posterior updates, losses, trainer, and inference tests."""

import numpy as np
import pytest

from semidanse import dynamics
from semidanse.dataset import PairedDataset, SplitConfig, generate, split_semi, validation_mask
from semidanse.estimator import (
    Adam,
    BatchItem,
    TrainConfig,
    _batch_loss_and_grads,
    _sup_terms,
    _unsup_terms,
    clip_by_global_norm,
    dof_report,
    infer_batch,
    posterior_update,
    predictive_loglik,
    total_loss,
    train,
    unsup_objective,
)
from semidanse.exceptions import TrainingError
from semidanse.measurement import MeasModel, builtin_h
from semidanse.numerics import GaussianBelief, SeededRng, child_seed, gaussian_condition, gaussian_log_density
from semidanse.prior_net import (
    NetDims,
    PriorOutput,
    _heads_forward,
    forward_batch,
    init_params,
    zeros_params,
)

from conftest import kf_oracle

from test_prior_net import perturbed_params


def random_prior(rng) -> PriorOutput:
    return PriorOutput(mean=rng.standard_normal(3), diag_cov=rng.uniform(0.3, 2.0, size=3))


def priors_b1(p, ys: np.ndarray) -> list[PriorOutput]:
    """Per-step priors of one (T, n) trajectory: the batched forward at B = 1."""
    mean, var, _ = forward_batch(p, ys[None])
    return [PriorOutput(mean[0, t], var[0, t]) for t in range(ys.shape[0])]


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
        prior = PriorOutput(mean=np.zeros(3), diag_cov=np.ones(3))
        model = MeasModel.isotropic(np.eye(3), 1.0)
        belief, terms = posterior_update(prior, np.array([2.0, 0.0, -2.0]), model)
        np.testing.assert_allclose(belief.mean, [1.0, 0.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(belief.cov, 0.5 * np.eye(3), atol=1e-12)
        np.testing.assert_allclose(terms.innovation, [2.0, 0.0, -2.0], atol=1e-12)
        np.testing.assert_allclose(terms.innovation_cov, 2.0 * np.eye(3), atol=1e-12)

    def test_uninformative_measurement_keeps_prior(self, rng):
        prior = random_prior(rng)
        model = MeasModel.isotropic(builtin_h("dense2x3"), 1e12)
        belief, _ = posterior_update(prior, rng.standard_normal(2), model)
        np.testing.assert_allclose(belief.mean, prior.mean, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(np.diag(belief.cov), prior.diag_cov, rtol=1e-6)

    def test_matches_brute_force_conditioning(self, rng):
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
        for _ in range(50):
            prior = random_prior(rng)
            y = rng.standard_normal(2)
            belief, _ = posterior_update(prior, y, model)
            oracle = gaussian_condition(prior.mean, np.diag(prior.diag_cov),
                                        model.h, model.c_w, y)
            np.testing.assert_allclose(belief.mean, oracle.mean, atol=1e-10)
            np.testing.assert_allclose(belief.cov, oracle.cov, atol=1e-10)

    def test_posterior_cov_psd(self, rng):
        model = MeasModel.isotropic(builtin_h("partial23"), 0.01)
        for _ in range(50):
            belief, _ = posterior_update(random_prior(rng), rng.standard_normal(2), model)
            assert belief.min_eigenvalue() >= -1e-10


class TestPredictiveLoglik:
    def test_scalar_case(self):
        prior = PriorOutput(mean=np.zeros(3), diag_cov=np.ones(3))
        model = MeasModel.isotropic(builtin_h("extreme1"), 1.0)
        # predictive variance 1 + 1 = 2
        val = predictive_loglik(prior, np.zeros(1), model)
        assert val == pytest.approx(-0.5 * np.log(4 * np.pi), abs=1e-12)

    def test_translation_invariance(self, rng):
        model = MeasModel.isotropic(builtin_h("extreme1"), 0.7)
        prior = random_prior(rng)
        y = rng.standard_normal(1)
        shift = 3.7
        shifted = PriorOutput(mean=prior.mean + np.array([shift, 0.0, 0.0]),
                              diag_cov=prior.diag_cov)
        a = predictive_loglik(prior, y, model)
        b = predictive_loglik(shifted, y + shift, model)
        assert a == pytest.approx(b, abs=1e-10)

    def test_matches_explicit_density(self, rng):
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.4)
        for _ in range(20):
            prior = random_prior(rng)
            y = rng.standard_normal(2)
            pred_cov = model.h @ np.diag(prior.diag_cov) @ model.h.T + model.c_w
            expected = gaussian_log_density(
                y, GaussianBelief(model.h @ prior.mean, 0.5 * (pred_cov + pred_cov.T))
            )
            assert predictive_loglik(prior, y, model) == pytest.approx(expected, abs=1e-12)


class TestLosses:
    def test_unsup_single_step_equals_predictive(self, rng):
        p = perturbed_params(20)
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
        ys = rng.standard_normal((1, 2))
        seq = priors_b1(p, ys)
        expected = -predictive_loglik(seq[0], ys[0], model)
        assert unsup_nll(p, ys, model) == pytest.approx(expected, abs=1e-12)

    def test_unsup_two_steps_hand_unrolled(self, rng):
        p = perturbed_params(21)
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
        ys = rng.standard_normal((2, 2))
        seq = priors_b1(p, ys)
        expected = -(predictive_loglik(seq[0], ys[0], model)
                     + predictive_loglik(seq[1], ys[1], model))
        assert unsup_nll(p, ys, model) == pytest.approx(expected, abs=1e-12)

    def test_unsup_noise_scaling_matches_density(self, rng):
        p = perturbed_params(22)
        ys = rng.standard_normal((4, 2))
        h = builtin_h("dense2x3")
        small = MeasModel.isotropic(h, 0.5)
        big = MeasModel.isotropic(h, 0.5 * 1e6)
        seq = priors_b1(p, ys)
        for model in (small, big):
            expected = -sum(predictive_loglik(seq[t], ys[t], model) for t in range(4))
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
        belief, _ = posterior_update(seq[0], ys[0], model)
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
        assert total_loss(p, items, model) == unsup_objective(p, measurements, model)


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
            adam = Adam(theta0.size, 5e-4, 0.9, 0.999, 1e-8)
            _, grads = _batch_loss_and_grads(p, items, model, want_grads=True)
            vec = clip_by_global_norm(grads.to_vector(), 10.0)
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

    def test_empty_validation_holdout_raises(self):
        # None of these 4 items is hashed into the hold-out. Early stopping
        # would watch a constant 0.0 and return the epoch-0 parameters.
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
        data = generate(dynamics.make_spec("lorenz63", 0.01), model, 4, 20, 1)
        assert not validation_mask(data).any()
        semi = split_semi(data, SplitConfig(kappa=0.0, seed=1))
        cfg = TrainConfig(batch_size=4, max_epochs=30, patience=5, init_seed=1, shuffle_seed=2)
        with pytest.raises(TrainingError, match="validation hold-out is empty .* 4 items"):
            train(semi, model, cfg)

    def test_lr_schedule_decays(self):
        f = 0.9 * np.eye(3)
        train_ds = _linear_dataset(20, 10, 99, f, 0.1, np.eye(3), 0.5)
        model = MeasModel.isotropic(np.eye(3), 0.5)
        semi = split_semi(train_ds, SplitConfig(kappa=0.0, seed=5))
        cfg = TrainConfig(batch_size=8, max_epochs=12, decay_every=2, patience=1000,
                          init_seed=1, shuffle_seed=2)
        result = train(semi, model, cfg)
        lrs = [e["lr"] for e in result.log]
        assert lrs[0] == pytest.approx(5e-4)
        assert lrs[2] == pytest.approx(5e-4 * 0.9)
        assert lrs[11] == pytest.approx(5e-4 * 0.9**5)


class TestInfer:
    def test_single_step_composition(self, rng):
        p = perturbed_params(40)
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
        y = rng.standard_normal((1, 2))
        out = infer_b1(p, y, model)
        mean0, var0, *_ = _heads_forward(p, np.zeros((1, p.dims.hidden)))
        belief, _ = posterior_update(PriorOutput(mean0[0], var0[0]), y[0], model)
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
        batch = infer_batch(p, ys, model)
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
