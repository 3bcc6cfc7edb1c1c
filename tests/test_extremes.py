"""Extreme inputs end in finite outputs or in a typed error naming the bad quantity.

Each entry point checks the whole (B, T, n) measurement array once, where it first
reads it, so a bad value is named even where no step would read it (the network
never reads ys[:, T-1]) or where it would surface as a misnamed failure further on.
The filters check their initial beliefs the same way, once, after broadcasting,
and a filter step that fails names the unsound belief it read; `measure_states`
checks its states, and `make_spec` its process noise.
"""

import re

import numpy as np
import pytest

from semidanse import dynamics
from semidanse.baselines import Ekf, Ukf, ekf_batch, filter_batch, ukf_batch
from semidanse.dataset import SplitConfig, generate, split_semi, validation_mask
from semidanse.estimator import TrainConfig, infer_batch, train
from semidanse.exceptions import NumericError, SingularityError, TrainingError
from semidanse.measurement import MeasModel, builtin_h, measure_states
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
    data = generate(SPEC, MODEL, 20, 8, 11)
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
    data = generate(SPEC, MODEL, 20, 8, 11)
    data.measurements[item, 3, 1] = np.nan
    semi = split_semi(data, SplitConfig(kappa=0.5, seed=2))
    cfg = TrainConfig(batch_size=32, max_epochs=1, init_seed=1, shuffle_seed=2)
    with pytest.raises(TrainingError) as info:
        train(semi, MODEL, cfg)
    assert isinstance(info.value.__cause__, NumericError)
    assert (info.value.epoch, info.value.batch) == (0, 0)
    return str(info.value.__cause__)


def test_non_finite_training_measurement_is_named_by_dataset_index():
    assert not validation_mask(generate(SPEC, MODEL, 20, 8, 11))[5]
    assert _train_with_nan_in(5) == "measurement y[5, 3] is not finite"


def test_non_finite_validation_measurement_fails_before_training():
    val = np.flatnonzero(validation_mask(generate(SPEC, MODEL, 20, 8, 11)))
    assert _train_with_nan_in(val[0]) == f"measurement y[{val[0]}, 3] is not finite"


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
