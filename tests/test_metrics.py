"""NMSE and empirical SMNR metric tests."""

import numpy as np
import pytest

from semidanse.exceptions import CalibrationError, NumericError
from semidanse.measurement import MeasModel, builtin_h, calibrate_sigma_w, empirical_smnr_db
from semidanse.metrics import (
    NMSE_FLOOR_DB,
    nmse_db,
    nmse_db_per_trajectory,
    nmse_db_stats,
)


class TestNmse:
    def test_zero_estimate_gives_zero_db(self, rng):
        x = rng.standard_normal((50, 3))
        assert nmse_db([x], [np.zeros_like(x)]) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_estimate_hits_floor(self, rng):
        x = rng.standard_normal((50, 3))
        assert nmse_db([x], [x.copy()]) == NMSE_FLOOR_DB

    def test_hand_computed_example(self):
        x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        xh = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert nmse_db([x], [xh]) == pytest.approx(10 * np.log10(0.5), abs=1e-9)

    def test_average_over_trajectories(self, rng):
        xs = [rng.standard_normal((20, 3)) for _ in range(5)]
        es = [x + rng.standard_normal(x.shape) * 0.1 for x in xs]
        per = nmse_db_per_trajectory(xs, es)
        assert nmse_db(xs, es) == pytest.approx(float(np.mean(per)), abs=1e-12)
        assert nmse_db_stats(xs, es) == (nmse_db(xs, es),
                                         float(np.std(per, ddof=1) / np.sqrt(5)))

    def test_coordinate_subset(self, rng):
        x = rng.standard_normal((30, 3))
        xh = x.copy()
        xh[:, 0] = 0.0  # only the first coordinate is wrong
        assert nmse_db([x], [xh], coords=[0]) == pytest.approx(0.0, abs=1e-12)
        assert nmse_db([x], [xh], coords=[1, 2]) == NMSE_FLOOR_DB

    @pytest.mark.parametrize("where,value,message", [
        ("estimates", np.nan, "trajectory 1: non-finite estimates"),
        ("estimates", np.inf, "trajectory 1: non-finite estimates"),
        ("truth", np.nan, "trajectory 1: non-finite truth"),
        ("estimates", 1e200, "trajectory 1: squared error or truth power overflows"),
    ])
    def test_non_finite_raises_naming_the_trajectory(self, rng, where, value, message):
        # A NaN ratio used to fail `ratio > 0` and score as the -300 dB floor: perfect.
        xs = [rng.standard_normal((20, 3)) for _ in range(3)]
        es = [x + 0.1 for x in xs]
        (es if where == "estimates" else xs)[1][-1, 2] = value
        with pytest.raises(NumericError, match=message):
            nmse_db_per_trajectory(xs, es)
        with pytest.raises(NumericError, match=message):
            nmse_db_stats(xs, es)

    def test_overflowing_ratio_raises(self):
        x = np.full((10, 3), 1e-160)  # power 3e-319, subnormal but not zero
        with pytest.raises(NumericError, match="trajectory 0: NMSE ratio inf"):
            nmse_db([x], [x + 1e150])

    def test_all_zero_truth_raises(self):
        with pytest.raises(CalibrationError):
            nmse_db([np.zeros((10, 3))], [np.ones((10, 3))])

    def test_shape_mismatch_raises(self, rng):
        from semidanse.exceptions import DimensionError

        with pytest.raises(DimensionError):
            nmse_db([rng.standard_normal((5, 3))], [rng.standard_normal((6, 3))])


class TestSmnr:
    def test_fixture_zero_db(self, rng):
        states = rng.standard_normal((200, 3)) * 2.0
        h = builtin_h("partial23")
        hx = states @ h.T
        centered = hx - hx.mean(axis=0)
        sigma = float(np.mean(np.sum(centered**2, axis=1))) / 2.0
        model = MeasModel.isotropic(h, sigma)
        assert empirical_smnr_db([states], model.h, sigma) == pytest.approx(0.0, abs=1e-12)

    def test_ten_db_shift(self, rng):
        states = rng.standard_normal((200, 3))
        h = builtin_h("dense2x3")
        model = MeasModel.isotropic(h, 1.0)
        a = empirical_smnr_db([states], model.h, 1.0)
        b = empirical_smnr_db([states], model.h, 0.1)
        assert b - a == pytest.approx(10.0, abs=1e-12)

    def test_round_trip_with_calibration(self, rng):
        states = [rng.standard_normal((300, 3)) for _ in range(6)]
        h = builtin_h("dense2x3")
        sigma = calibrate_sigma_w(states, h, 10.0)
        model = MeasModel.isotropic(h, sigma)
        assert empirical_smnr_db(states, model.h, sigma) == pytest.approx(10.0, abs=0.3)

    def test_constant_signal_raises(self):
        model = MeasModel.isotropic(builtin_h("partial23"), 1.0)
        with pytest.raises(CalibrationError):
            empirical_smnr_db([np.ones((20, 3))], model.h, 1.0)
