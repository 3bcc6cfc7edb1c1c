"""Measurement model and SMNR calibration tests."""

import numpy as np
import pytest

from semidanse.exceptions import CalibrationError, DimensionError
from semidanse.measurement import (
    MeasModel,
    builtin_h,
    calibrate_sigma_w,
    empirical_smnr_db,
    measure_states,
)
from semidanse import dynamics

from conftest import measure_b1

# Frozen 10-step state fixture for the hand-computed calibration check.
FIXTURE_STATES = np.array([
    [0.5, -1.2, 2.0],
    [1.0, 0.3, 1.5],
    [-0.7, 0.8, 2.2],
    [0.1, -0.5, 1.9],
    [1.4, 1.1, 2.5],
    [-1.0, -0.9, 1.7],
    [0.8, 0.2, 2.1],
    [0.3, 1.5, 1.4],
    [-0.4, -1.1, 2.6],
    [0.9, 0.6, 1.8],
])


class TestBuiltinH:
    def test_dense_random_2x3_values(self):
        expected = np.array([
            [0.37992, 0.34099, 1.04317],
            [0.98070, -0.70477, 2.17908],
        ])
        np.testing.assert_array_equal(builtin_h("dense2x3"), expected)

    def test_partial_2of3(self):
        np.testing.assert_array_equal(
            builtin_h("partial23"), np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        )

    def test_extreme_first_component(self):
        np.testing.assert_array_equal(builtin_h("extreme1"), np.array([[1.0, 0.0, 0.0]]))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_h("nope")

    def test_returns_copies(self):
        h = builtin_h("partial23")
        h[0, 0] = 99.0
        assert builtin_h("partial23")[0, 0] == 0.0


class TestMeasure:
    def test_noiseless(self):
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.0)
        ys = measure_b1(FIXTURE_STATES, model, 1)
        np.testing.assert_array_equal(ys, FIXTURE_STATES @ model.h.T)

    def test_selector_row(self):
        model = MeasModel.isotropic(builtin_h("extreme1"), 0.0)
        ys = measure_b1(FIXTURE_STATES, model, 1)
        np.testing.assert_array_equal(ys[:, 0], FIXTURE_STATES[:, 0])

    def test_noise_covariance_monte_carlo(self, rng):
        states = rng.standard_normal((100_000, 3))
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.7)
        ys = measure_b1(states, model, 5)
        resid = ys - states @ model.h.T
        emp = np.cov(resid.T)
        np.testing.assert_allclose(emp, model.c_w, atol=0.03 * 0.7)

    def test_determinism_per_seed(self):
        spec = dynamics.make_spec("lorenz63", 0.1)
        states = dynamics.simulate_batch(spec, 50, seeds=[3])[0]
        model = MeasModel.isotropic(builtin_h("partial23"), 0.4)
        a = measure_b1(states, model, 77)
        b = measure_b1(states, model, 77)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (len(states), model.n)

    def test_dimension_mismatch(self):
        model = MeasModel.isotropic(np.eye(2), 0.1)
        with pytest.raises(DimensionError):
            measure_b1(FIXTURE_STATES, model, 0)

    def test_batch_rows_equal_single_calls(self):
        spec = dynamics.make_spec("lorenz63", 0.1)
        states = dynamics.simulate_batch(spec, 40, seeds=[4, 5, 6])
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.3)
        seeds = [11, 12, 13]
        batch = measure_states(states, model, seeds)
        assert batch.shape == (3, 40, model.n)
        for row, x, seed in zip(batch, states, seeds):
            np.testing.assert_array_equal(row, measure_b1(x, model, seed))

    def test_seed_count_mismatch(self):
        model = MeasModel.isotropic(builtin_h("dense2x3"), 0.1)
        with pytest.raises(DimensionError):
            measure_states(np.stack([FIXTURE_STATES] * 2), model, [1])


class TestCalibrateSigmaW:
    def test_db_shift_divides_variance(self):
        h = builtin_h("dense2x3")
        s10 = calibrate_sigma_w([FIXTURE_STATES], h, 10.0)
        s20 = calibrate_sigma_w([FIXTURE_STATES], h, 20.0)
        assert s10 == pytest.approx(10.0 * s20, rel=1e-12)

    def test_hand_computed_zero_db_on_fixture(self):
        # At 0 dB the centered signal energy equals the noise energy:
        # sigma_w2 = P / (n * T) with P the total centered energy of {H x_t}.
        h = builtin_h("dense2x3")
        hx = FIXTURE_STATES @ h.T
        centered = hx - hx.mean(axis=0)
        p_total = float(np.sum(centered**2))
        expected = p_total / (2 * len(FIXTURE_STATES))
        got = calibrate_sigma_w([FIXTURE_STATES], h, 0.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_round_trip_on_same_states(self):
        spec = dynamics.make_spec("lorenz63", 0.1)
        states = dynamics.simulate_batch(spec, 400, seeds=list(range(10)))
        trajs = [states[i] for i in range(10)]
        h = builtin_h("partial23")
        for target in (-5.0, 0.0, 10.0):
            sigma = calibrate_sigma_w(trajs, h, target)
            back = empirical_smnr_db(trajs, h, sigma)
            assert back == pytest.approx(target, abs=1e-9)

    def test_measured_smnr_round_trip(self):
        # calibrate, actually measure, recompute the empirical ratio
        spec = dynamics.make_spec("lorenz63", 0.1)
        states = dynamics.simulate_batch(spec, 2000, seeds=list(range(20)))
        trajs = [states[i] for i in range(20)]
        h = builtin_h("dense2x3")
        sigma = calibrate_sigma_w(trajs, h, 10.0)
        model = MeasModel.isotropic(h, sigma)
        resid_power = []
        for i, traj in enumerate(trajs):
            ys = measure_b1(traj, model, 1000 + i)
            resid_power.append(np.mean(np.sum((ys - traj @ h.T) ** 2, axis=1)))
        # noise power realized matches n * sigma_w2 within a few percent
        assert np.mean(resid_power) == pytest.approx(2 * sigma, rel=0.05)
        assert empirical_smnr_db(trajs, h, sigma) == pytest.approx(10.0, abs=0.3)

    def test_constant_signal_raises(self):
        states = np.ones((20, 3))
        with pytest.raises(CalibrationError):
            calibrate_sigma_w([states], builtin_h("partial23"), 10.0)

    def test_empty_input_raises(self):
        with pytest.raises(CalibrationError):
            calibrate_sigma_w([], builtin_h("partial23"), 10.0)


class TestMeasModel:
    def test_non_psd_noise_rejected(self):
        with pytest.raises(ValueError):
            MeasModel(builtin_h("partial23"), -np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            MeasModel(builtin_h("partial23"), np.eye(3))

    def test_dims(self):
        model = MeasModel.isotropic(builtin_h("extreme1"), 1.0)
        assert (model.n, model.m) == (1, 3)
