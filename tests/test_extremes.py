"""Extreme inputs end in finite outputs or in a typed error naming the bad quantity.

Each entry point checks the whole (B, T, n) measurement array once, where it first
reads it, so a bad value is named even where no step would read it (the network
never reads ys[:, T-1]) or where it would surface as a misnamed failure further on.
The filters check their initial beliefs the same way, once, after broadcasting (the
covariance also for symmetry and positive semi-definiteness), and a filter step that
fails names the unsound belief it read (in a joint run, the first in filter order);
`measure_states` checks its states and its measurements, `make_spec` and the filters
their process noise and `MeasModel` its measurement noise (each covariance also for
its shape, symmetry and positive semi-definiteness). A non-finite
SMNR target, noise variance or sweep point is refused where it is first read. No
trajectories (B = 0) give empty outputs, not an error.
"""

import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from semidanse import dynamics
from semidanse.baselines import Ekf, Ukf, ekf_batch, filter_batch, ukf_batch
from semidanse.dataset import SplitConfig, generate, split_semi, validation_mask
from semidanse.estimator import TrainConfig, infer_batch, train
from semidanse.exceptions import (CalibrationError, DimensionError, NumericError, SingularityError,
                                  TrainingError)
from semidanse.harness import ExperimentConfig, load_config
from semidanse.measurement import (MeasModel, builtin_h, calibrate_sigma_w, empirical_smnr_db,
                                   measure_states)
from semidanse.prior_net import NetDims, init_params

MODEL = MeasModel.isotropic(builtin_h("partial23"), 0.5)
SPEC = dynamics.make_spec("lorenz63", 0.01)


def _infer(ys):
    return infer_batch(init_params(NetDims(input_dim=MODEL.n), 3), ys, MODEL)


def _ekf(ys):
    return ekf_batch(ys, SPEC, MODEL, np.zeros(3), np.eye(3))


def _ukf(ys):
    return ukf_batch(ys, SPEC, MODEL, np.zeros(3), np.eye(3))


@pytest.mark.parametrize("run", [_infer, _ekf, _ukf])
@pytest.mark.parametrize("shape,bad,named", [
    pytest.param((3, 6, 2), [(1, 5, 0, np.nan)], (1, 5), id="last-step"),
    pytest.param((3, 6, 2), [(2, 2, 1, np.inf)], (2, 2), id="mid-sequence"),
    pytest.param((3, 1, 2), [(1, 0, 0, np.nan)], (1, 0), id="T1"),
    pytest.param((3, 6, 2), [(2, 1, 0, np.nan), (0, 3, 1, -np.inf)], (0, 3), id="first-in-b-t-order"),
])
def test_non_finite_measurement_is_named(run, shape, bad, named):
    ys = np.random.default_rng(5).standard_normal(shape)
    for b, t, i, value in bad:
        ys[b, t, i] = value
    with pytest.raises(NumericError, match=rf"measurement y\[{named[0]}, {named[1]}\] is not finite"):
        run(ys)


def test_non_finite_measurement_in_training_names_the_measurement():
    data = generate(SPEC, lambda states: MODEL, 20, 8, 11)
    val = validation_mask(data)
    assert val.any() and not val.all()
    data.measurements[np.flatnonzero(~val)[0], 3, 1] = np.nan
    semi = split_semi(data, SplitConfig(kappa=0.5, seed=2))
    cfg = TrainConfig(batch_size=32, max_epochs=1, init_seed=1, shuffle_seed=2)
    with pytest.raises(TrainingError) as info:
        train(semi, MODEL, cfg)
    assert isinstance(info.value.__cause__, NumericError)
    assert re.search(r"measurement y\[\d+, 3\] is not finite", str(info.value.__cause__))
    assert (info.value.epoch, info.value.batch) == (0, 0)


def _train_with_nan_in(item):
    data = generate(SPEC, lambda states: MODEL, 20, 8, 11)
    data.measurements[item, 3, 1] = np.nan
    semi = split_semi(data, SplitConfig(kappa=0.5, seed=2))
    cfg = TrainConfig(batch_size=32, max_epochs=1, init_seed=1, shuffle_seed=2)
    with pytest.raises(TrainingError) as info:
        train(semi, MODEL, cfg)
    assert isinstance(info.value.__cause__, NumericError)
    assert (info.value.epoch, info.value.batch) == (0, 0)
    return str(info.value.__cause__)


def test_non_finite_training_measurement_is_named_by_dataset_index():
    assert not validation_mask(generate(SPEC, lambda states: MODEL, 20, 8, 11))[5]
    assert _train_with_nan_in(5) == "measurement y[5, 3] is not finite"


def test_non_finite_validation_measurement_fails_before_training():
    val = np.flatnonzero(validation_mask(generate(SPEC, lambda states: MODEL, 20, 8, 11)))
    assert _train_with_nan_in(val[0]) == f"measurement y[{val[0]}, 3] is not finite"


def _half_labelled():
    data = generate(SPEC, lambda states: MODEL, 20, 8, 11)
    return split_semi(data, SplitConfig(kappa=0.5, seed=2))


def test_non_finite_labelled_state_is_named_by_dataset_index():
    # Once the batch holding it failed with a non-finite loss that named no state.
    semi = _half_labelled()
    cfg = TrainConfig(batch_size=32, max_epochs=1, init_seed=1, shuffle_seed=2)
    semi.parent.states[semi.unlabelled_idx[0], 2, 0] = np.nan  # an unlabelled state is not read
    assert np.isfinite(train(semi, MODEL, cfg).best_val)
    labelled = semi.labelled_idx[0]
    semi.parent.states[labelled, 4, 1] = np.inf
    with pytest.raises(TrainingError) as info:
        train(semi, MODEL, cfg)
    assert str(info.value.__cause__) == f"state x[{labelled}, 4] is not finite"
    assert (info.value.epoch, info.value.batch) == (0, 0)


def test_non_finite_validation_metric_fails_its_epoch():
    # Finite labelled validation states whose squared error overflows. Once every epoch
    # logged an infinite metric, and training returned the last epoch as the best.
    semi = _half_labelled()
    val_labelled = np.intersect1d(np.flatnonzero(validation_mask(semi.parent)), semi.labelled_idx)
    assert len(val_labelled)
    semi.parent.states[val_labelled] = 1e200
    cfg = TrainConfig(batch_size=32, max_epochs=3, init_seed=1, shuffle_seed=2)
    with np.errstate(over="ignore"):
        with pytest.raises(TrainingError,
                           match=r"^validation metric inf is not finite \(epoch 0\)$") as info:
            train(semi, MODEL, cfg)
    assert info.value.epoch == 0


def _beliefs(which, index, value):
    """Three (3,) initial means and (3, 3) covariances, one entry of `which` set to `value`.

    `which` is "mean", "cov" (per-row covariances) or "shared" (one broadcast covariance).
    """
    x0m, x0c = np.zeros((3, 3)), np.stack([np.eye(3)] * 3)
    if which == "shared":
        x0c = np.eye(3)
    (x0m if which == "mean" else x0c)[index] = value
    return x0m, x0c


@pytest.mark.parametrize("run", [
    lambda ys, x0m, x0c: ekf_batch(ys, SPEC, MODEL, x0m, x0c),
    lambda ys, x0m, x0c: ukf_batch(ys, SPEC, MODEL, x0m, x0c),
    lambda ys, x0m, x0c: filter_batch([Ekf(), Ukf(3)], ys, SPEC, MODEL, x0m, x0c),
], ids=["ekf", "ukf", "joint"])
@pytest.mark.parametrize("which,index,value,named", [
    pytest.param("mean", (1, 2), np.nan, r"mean x0\[1\]", id="nan-mean"),
    pytest.param("mean", (2, 0), np.inf, r"mean x0\[2\]", id="inf-mean"),
    pytest.param("cov", (1, 2, 1), np.nan, r"covariance P0\[1\]", id="nan-cov"),
    pytest.param("cov", (2, 0, 0), -np.inf, r"covariance P0\[2\]", id="inf-cov"),
    pytest.param("shared", (0, 2), np.nan, r"covariance P0\[0\]", id="nan-shared-cov"),
])
def test_non_finite_initial_belief_is_named(run, which, index, value, named):
    # Unchecked, a bad mean surfaced as "matrix contains non-finite entries" from the
    # transition and a bad covariance as an S that is not positive definite.
    ys = np.random.default_rng(5).standard_normal((3, 4, 2))
    with pytest.raises(NumericError, match=rf"initial belief {named} is not finite"):
        run(ys, *_beliefs(which, index, value))


@pytest.mark.parametrize("run", [
    lambda ys, x0c: ekf_batch(ys, SPEC, MODEL, np.zeros(3), x0c),
    lambda ys, x0c: ukf_batch(ys, SPEC, MODEL, np.zeros(3), x0c),
    lambda ys, x0c: filter_batch([Ekf(), Ukf(3)], ys, SPEC, MODEL, np.zeros(3), x0c),
], ids=["ekf", "ukf", "joint"])
@pytest.mark.parametrize("x0c,named", [
    pytest.param([[1, 5, 0], [0, 1, 0], [0, 0, 1]], r"P0\[0\] is not symmetric", id="asymmetric"),
    pytest.param(np.diag([1.0, -1.0, 1.0]), r"P0\[0\] is not positive semi-definite",
                 id="indefinite"),
    pytest.param(np.stack([np.eye(3), np.eye(3), np.diag([1.0, 1.0, -1e-6])]),
                 r"P0\[2\] is not positive semi-definite", id="indefinite-row"),
    pytest.param(np.stack([np.eye(3), np.eye(3) + np.triu(np.ones((3, 3)), 1), np.eye(3)]),
                 r"P0\[1\] is not symmetric", id="asymmetric-row"),
])
def test_unsound_initial_covariance_is_named(run, x0c, named):
    # Unchecked, an asymmetric, indefinite P0 ran to finite estimates in the EKF, and the
    # UKF named it only as the belief of step 0.
    ys = np.random.default_rng(5).standard_normal((3, 4, 2))
    with pytest.raises(NumericError, match=rf"^initial belief covariance {named}$"):
        run(ys, x0c)


@pytest.mark.parametrize("x0c", [
    pytest.param(np.eye(3) + 1e-13 * np.triu(np.ones((3, 3)), 1), id="asymmetry-within-tolerance"),
    pytest.param(np.diag([1.0, 1.0, -1e-9]), id="eigenvalue-above-the-floor"),
])
def test_initial_covariance_within_the_tolerances_runs(x0c):
    ys = np.random.default_rng(5).standard_normal((3, 4, 2))
    for out in filter_batch([Ekf(), Ukf(3)], ys, SPEC, MODEL, np.zeros(3), x0c):
        assert np.isfinite(out.means).all()


@pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf])
def test_non_finite_smnr_target_is_named(target):
    # NaN once gave a NaN sigma_w2 and +inf a noise-free model (sigma_w2 = 0.0).
    states = dynamics.simulate_batch(SPEC, 30, seeds=[1, 2, 3])
    with pytest.raises(CalibrationError, match=rf"^target SMNR {target!r} dB is not finite$"):
        calibrate_sigma_w(states, MODEL.h, target)


@pytest.mark.parametrize("sigma_w2", [np.nan, np.inf])
def test_non_finite_noise_variance_smnr_is_named(sigma_w2):
    # Once NaN or -inf dB.
    states = dynamics.simulate_batch(SPEC, 30, seeds=[1, 2, 3])
    with pytest.raises(CalibrationError, match=rf"^sigma_w2 {sigma_w2!r} is not finite$"):
        empirical_smnr_db(states, MODEL.h, sigma_w2)


@pytest.mark.parametrize("target", [np.nan, np.inf])
def test_non_finite_process_noise_target_is_named(target):
    with pytest.raises(CalibrationError,
                       match=rf"^process-noise target {target!r} dB is not finite$"):
        dynamics.calibrate_process_noise(SPEC, target, seed=55)


@pytest.mark.parametrize("point", [np.nan, np.inf, -np.inf])
def test_non_finite_smnr_point_is_refused_by_the_config(point):
    with pytest.raises(ValueError, match=rf"^smnr_db point {point!r} is not finite$"):
        ExperimentConfig(smnr_db=(10.0, point))
    with pytest.raises(ValueError, match=rf"^smnr_db point {point!r} is not finite$"):
        load_config(overrides={"smnr_db": f"0,{point!r}"})


@pytest.mark.parametrize("key,raw,named", [
    pytest.param("kappa", "1.5", r"kappa must be in \[0, 1\]", id="kappa"),
    pytest.param("batch_size", "0", "batch_size and max_epochs must be >= 1", id="batch_size"),
    pytest.param("learning_rate", "0", "learning_rate must be positive", id="learning_rate"),
    pytest.param("ukf_alpha", "0", r"alpha must be in \(0, 1\]", id="ukf_alpha"),
    pytest.param("smnr_db", "", "smnr_db is empty", id="no-smnr-point"),
    pytest.param("methods", "", "methods is empty", id="no-method"),
])
def test_a_setting_a_run_would_refuse_is_refused_at_load(key, raw, named):
    # Once a sweep ran the EKF before a kappa of 1.5 stopped it, and an empty smnr_db
    # swept nothing and exited 0.
    with pytest.raises(ValueError, match=f"^{named}$"):
        load_config(overrides={key: raw})


DENSE = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)


@pytest.mark.parametrize("run,named", [
    pytest.param(lambda ys, x0: ekf_batch(ys, SPEC, DENSE, 1e300 * x0, np.eye(3)),
                 "ekf predicted belief of row 0 at step 1 is not finite", id="ekf-x0"),
    pytest.param(lambda ys, x0: ekf_batch(1e300 * ys, SPEC, DENSE, x0, np.eye(3)),
                 "ekf predicted belief of row 0 at step 1 is not finite", id="ekf-ys"),
    pytest.param(lambda ys, x0: ukf_batch(ys, SPEC, DENSE, x0, 1e300 * np.eye(3)),
                 "ukf predicted belief of row 0 at step 1 cannot be formed: the belief of step 0 "
                 "has a covariance that is not positive semi-definite", id="ukf-P0"),
])
def test_unsound_predicted_belief_is_named(run, named):
    # Finite inputs whose belief overflows in the transition, or loses its PSD-ness in the
    # update: the EKF rows once named S, the UKF row the factor of its sigma points.
    states = dynamics.simulate_batch(SPEC, 30, seeds=[1, 2, 3])
    ys = measure_states(states, DENSE, [4, 5, 6])
    with np.errstate(all="ignore"), pytest.raises(NumericError, match=named):
        run(ys, states[:, 0])


class _SpreadLimited:
    """The identity map, NaN at each point farther than 1e-4 from its group's first point:
    the UKF's sigma points (spread about 1.7e-3 at P = I) but not the EKF's
    finite-difference points (1e-6 times the state's scale)."""

    process_noise_cov = 0.1 * np.eye(3)

    def transition_batch(self, xs):
        return np.where(np.abs(xs - xs[:, :1]).max(axis=-1, keepdims=True) > 1e-4, np.nan, xs)


def test_joint_run_names_the_first_unsound_belief_in_filter_order():
    # Only the UKF rows are unsound, yet the joint step fails in the shared update; the
    # error names the first unsound belief in filter order, then row order, not the EKF
    # that comes first and not both filters.
    ys = np.random.default_rng(5).standard_normal((3, 4, 2))
    assert np.isfinite(ekf_batch(ys, _SpreadLimited(), DENSE, np.zeros(3), np.eye(3)).means).all()
    with pytest.raises(NumericError) as info:
        filter_batch([Ekf(), Ukf(3)], ys, _SpreadLimited(), DENSE, np.zeros(3), np.eye(3))
    assert str(info.value) == "ukf predicted belief of row 0 at step 1 is not finite"


@pytest.mark.parametrize("keep_full_covs", [False, True])
def test_no_trajectories_give_empty_outputs(keep_full_covs):
    # B = 0: every entry point returns (0, T, ...) outputs of the fields it keeps.
    ys = np.empty((0, 6, 2))
    outs = [infer_batch(init_params(NetDims(input_dim=MODEL.n), 3), ys, MODEL, keep_full_covs),
            ekf_batch(ys, SPEC, MODEL, np.zeros(3), np.eye(3), keep_full_covs),
            ukf_batch(ys, SPEC, MODEL, np.zeros(3), np.eye(3), keep_full_covs=keep_full_covs),
            *filter_batch([Ekf(), Ukf(3)], ys, SPEC, MODEL, np.zeros(3), np.eye(3),
                          keep_full_covs)]
    shapes = [(0, 6, 3), (0, 6, 2), (0, 6, 3, 3), (0, 6, 2, 2)] if keep_full_covs else [(0, 6, 3)]
    for out in outs:
        assert [a.shape for a in vars(out).values() if a is not None] == shapes


@pytest.mark.parametrize("sigma_e2", [np.nan, np.inf])
def test_non_finite_process_noise_is_named(sigma_e2):
    # Named before the symmetry check and eigvalsh, which cannot judge a non-finite matrix.
    with np.errstate(invalid="ignore"):  # inf * I puts 0 * inf off the diagonal
        with pytest.raises(NumericError, match="process_noise_cov contains non-finite entries"):
            dynamics.make_spec("lorenz63", sigma_e2)


def test_non_finite_state_is_named_when_measured():
    # A non-finite state would give non-finite measurements, named only by their consumer.
    states = np.random.default_rng(5).standard_normal((3, 6, 3))
    states[2, 1, 0], states[1, 4, 2] = np.inf, np.nan
    with pytest.raises(NumericError, match=r"state x\[1, 4\] is not finite"):
        measure_states(states, MODEL, [1, 2, 3])


def test_overflowing_measurement_is_named():
    # Finite states whose H x overflows would give infinite measurements and a warning.
    states = np.ones((2, 4, 3))
    states[1, 2] = 1e308
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match=r"^measurement y\[1, 2\] is not finite$"):
            measure_states(states, DENSE, [1, 2])


@pytest.mark.parametrize("c_w,error,named", [
    pytest.param([[1.0, 0.5], [0.0, 1.0]], NumericError,
                 "measurement noise covariance C_w must be symmetric", id="asymmetric"),
    pytest.param([[1.0, 0.0], [3e-12, 2.0]], NumericError,
                 "measurement noise covariance C_w must be symmetric",
                 id="asymmetric-past-the-tolerance"),
    pytest.param([[1.0, 2.0], [2.0, 1.0]], NumericError,
                 "measurement noise covariance C_w must be PSD", id="indefinite"),
    pytest.param(np.eye(3), DimensionError,
                 r"measurement noise covariance C_w must be 2x2, got \(3, 3\)", id="3x3"),
])
def test_unsound_noise_covariance_is_refused(c_w, error, named):
    # Unchecked, an asymmetric C_w was read three ways: its lower triangle by the noise
    # factor, whole by the filters' S, and symmetrized by the PSD check. C_w is checked
    # as the process noise is (`numerics.require_covariance`).
    with pytest.raises(error, match=f"^{named}$"):
        MeasModel(MODEL.h, np.array(c_w))


def test_noise_covariance_within_the_symmetry_tolerance_is_accepted():
    c_w = np.array([[2.0, 0.0], [1e-12, 2.0]])  # off by 1e-12 x max(1, max |C_w|) / 2
    np.testing.assert_array_equal(MeasModel(MODEL.h, c_w).c_w, c_w)


@pytest.mark.parametrize("cov,named", [
    pytest.param([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                 "process_noise_cov must be symmetric", id="asymmetric"),
    pytest.param(-np.eye(3), "process_noise_cov must be PSD", id="negative"),
])
def test_unsound_process_noise_is_refused(cov, named):
    with pytest.raises(NumericError, match=f"^{named}$"):
        replace(SPEC, process_noise_cov=np.array(cov))


@pytest.mark.parametrize("c_e,error,named", [
    pytest.param([[0.1, 0.05, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]], NumericError,
                 "must be symmetric", id="asymmetric"),
    pytest.param(np.diag([0.1, -0.1, 0.1]), NumericError, "must be PSD", id="indefinite"),
    pytest.param(0.1 * np.eye(2), DimensionError, r"must be 3x3, got \(2, 2\)", id="2x2"),
])
def test_unsound_process_noise_is_refused_where_the_filters_take_it(c_e, error, named):
    # A process model need not be an SsmSpec, so the filters check its C_e themselves.
    process = SimpleNamespace(transition_batch=SPEC.transition_batch,
                              process_noise_cov=np.array(c_e))
    ys = np.random.default_rng(5).standard_normal((3, 4, 2))
    with pytest.raises(error, match=f"^process noise covariance C_e {named}$"):
        filter_batch([Ekf(), Ukf(3)], ys, process, MODEL, np.zeros(3), np.eye(3))


@pytest.mark.parametrize("c_w", [
    pytest.param(np.ones((2, 2)), id="exact-zero-pivot"),
    pytest.param(0.5 * np.ones((2, 2)), id="rounded-pivot"),
])
def test_noise_covariance_with_a_zero_eigenvalue_runs_the_filters_not_the_posterior(c_w):
    # C_w is PSD, so the model accepts it. The filters only need S = H P H^T + C_w to be
    # positive definite, which P0 = I and the process noise give; the learned posterior
    # needs C_w^{-1}, so inference refuses it, naming C_w.
    model = MeasModel(MODEL.h, c_w)  # eigenvalues 0 and trace(c_w)
    states = dynamics.simulate_batch(SPEC, 30, seeds=[1, 2, 3])
    ys = measure_states(states, model, [4, 5, 6])
    for run in (ekf_batch, ukf_batch):
        assert np.isfinite(run(ys, SPEC, model, states[:, 0], np.eye(3)).means).all()
    with pytest.raises(SingularityError, match="measurement noise covariance C_w"):
        infer_batch(init_params(NetDims(input_dim=model.n), 3), ys, model)
