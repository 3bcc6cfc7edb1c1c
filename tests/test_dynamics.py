"""Chaotic-system simulation tests."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from semidanse import dynamics
from semidanse.dynamics import (
    CHEN,
    LORENZ63,
    ROSSLER,
    SsmSpec,
    calibrate_process_noise,
    drift_generator_batch,
    drift_matrix_batch,
    make_spec,
    simulate_batch,
)
from semidanse.exceptions import (
    CalibrationError,
    DimensionError,
    DivergenceError,
    SingularityError,
)
from semidanse.numerics import SeededRng

from conftest import matexp_oracle

# sha256 prefixes of simulate_batch(make_spec(system, 0.05), T, [5, 6, 7]), whose
# bytes no change to the simulation's memory handling may move.
SIMULATE_SHA256_PREFIX = {
    (LORENZ63, 1): "16eab11bf7e61972", (LORENZ63, 2): "17d4c38467b35255",
    (LORENZ63, 7): "501ee9c9ecc69e6a", (LORENZ63, 100): "1fa10fb5aa6645f2",
    (CHEN, 1): "16eab11bf7e61972", (CHEN, 2): "d99d601f393f7624",
    (CHEN, 7): "eb237125cd108835", (CHEN, 100): "6db2dfa960938e60",
    (ROSSLER, 1): "16eab11bf7e61972", (ROSSLER, 2): "d0d261dfba80699a",
    (ROSSLER, 7): "89d2af2c59f7ccb2", (ROSSLER, 100): "9ce9d105a35431b3",
}

# Regression value: pilot-based calibration for the default Lorenz spec at
# -10 dB with seed 55, frozen after first computation.
LORENZ_CALIBRATED_SIGMA_E2_MINUS10DB_SEED55 = 0.22683371022511456


def zero_noise_spec(system: str, **kwargs) -> SsmSpec:
    return make_spec(system, 0.0, **kwargs)


def generator_b1(spec: SsmSpec, x: np.ndarray) -> np.ndarray:
    """A(x) of one state: drift_generator_batch at B = 1."""
    return drift_generator_batch(spec, np.asarray(x, dtype=np.float64)[None])[0]


def drift_b1(spec: SsmSpec, x: np.ndarray) -> np.ndarray:
    """F(x) of one state: drift_matrix_batch at B = 1."""
    return drift_matrix_batch(spec, np.asarray(x, dtype=np.float64)[None])[0]


def step_b1(spec: SsmSpec, x: np.ndarray) -> np.ndarray:
    """Noiseless transition f(x) of one state: transition_batch at B = 1."""
    return spec.transition_batch(np.asarray(x, dtype=np.float64)[None])[0]


def simulate_b1(spec: SsmSpec, t: int, seed: int) -> np.ndarray:
    """One (T, 3) trajectory: simulate_batch at B = 1."""
    return simulate_batch(spec, t, [seed])[0]


class TestDriftMatrix:
    def test_zero_step_gives_identity(self):
        spec = SsmSpec(system=LORENZ63, step_size=0.0, process_noise_cov=np.zeros((3, 3)))
        np.testing.assert_array_equal(drift_b1(spec, np.array([3.0, -1.0, 2.0])), np.eye(3))

    def test_lorenz_generator_entries(self):
        spec = zero_noise_spec(LORENZ63)
        a = generator_b1(spec, np.array([1.0, 1.0, 1.0]))
        expected = np.array([[-10.0, 10.0, 0.0], [28.0, -1.0, -1.0], [0.0, 1.0, -8.0 / 3.0]])
        np.testing.assert_array_equal(a, expected)

    def test_lorenz_against_scaling_squaring_oracle(self):
        spec = zero_noise_spec(LORENZ63)
        x = np.array([1.0, 1.0, 1.0])
        ours = drift_b1(spec, x)
        oracle = matexp_oracle(generator_b1(spec, x) * spec.step_size)
        # Taylor-5 at ||A*dt|| ~ 0.7 carries a visible truncation remainder.
        np.testing.assert_allclose(ours, oracle, atol=1e-5)

    def test_chen_at_origin(self):
        spec = zero_noise_spec(CHEN)
        a = generator_b1(spec, np.zeros(3))
        expected = np.array([[-35.0, 35.0, 0.0], [-7.0, 28.0, 0.0], [0.0, 0.0, -3.0]])
        np.testing.assert_array_equal(a, expected)
        oracle = matexp_oracle(expected * 0.002)
        np.testing.assert_allclose(drift_b1(spec, np.zeros(3)), oracle, atol=1e-8)

    def test_rossler_guard(self):
        spec = zero_noise_spec(ROSSLER)
        with pytest.raises(SingularityError):
            drift_b1(spec, np.array([1.0, 1.0, 0.0]))
        with pytest.raises(SingularityError):
            drift_b1(spec, np.array([1.0, 1.0, 1e-7]))

    def test_small_step_identity_bound(self, rng):
        # ||F - I|| <= ||A|| dt e^{||A|| dt} for every system.
        for system in (LORENZ63, CHEN, ROSSLER):
            spec = zero_noise_spec(system)
            for _ in range(10):
                x = rng.uniform(0.5, 5.0, size=3)
                a = generator_b1(spec, x)
                norm = np.linalg.norm(a, 2) * spec.step_size
                f = drift_b1(spec, x)
                assert np.linalg.norm(f - np.eye(3), 2) <= norm * math.exp(norm) + 1e-12


class TestStep:
    def test_zero_state_fixed_point(self):
        spec = zero_noise_spec(LORENZ63)
        np.testing.assert_array_equal(step_b1(spec, np.zeros(3)), np.zeros(3))

    def test_zero_step_size_is_identity(self):
        spec = SsmSpec(system=LORENZ63, step_size=0.0, process_noise_cov=np.zeros((3, 3)))
        x = np.array([2.0, -3.0, 1.5])
        np.testing.assert_array_equal(step_b1(spec, x), x)

    def test_against_oracle_exponential(self):
        spec = zero_noise_spec(LORENZ63)
        x = np.array([1.0, 1.0, 1.0])
        oracle = matexp_oracle(generator_b1(spec, x) * spec.step_size) @ x
        np.testing.assert_allclose(step_b1(spec, x), oracle, atol=1e-5)

    def test_deterministic_without_rng(self):
        spec = make_spec(LORENZ63, 0.5)
        x = np.array([0.3, -0.4, 1.0])
        np.testing.assert_array_equal(step_b1(spec, x), step_b1(spec, x))


class TestSimulate:
    def test_bitwise_determinism(self):
        spec = make_spec(LORENZ63, 0.1)
        a = simulate_b1(spec, 500, seed=42)
        b = simulate_b1(spec, 500, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_lorenz_bounded_over_many_seeds(self):
        spec = make_spec(LORENZ63, 0.1)
        states = simulate_batch(spec, 2000, seeds=list(range(100)))
        assert np.abs(states).max() <= 100.0

    def test_zero_noise_matches_step_composition(self):
        spec = zero_noise_spec(LORENZ63)
        traj = simulate_b1(spec, 3, seed=5)
        x = traj[0]
        for t in (1, 2):
            x = step_b1(spec, x)
            np.testing.assert_array_equal(traj[t], x)

    def test_requested_length(self):
        spec = make_spec(CHEN, 0.05)
        assert simulate_b1(spec, 37, seed=1).shape == (37, 3)

    @pytest.mark.parametrize("system,t", [(s, t) for s in (LORENZ63, CHEN, ROSSLER)
                                          for t in (1, 2, 7, 100)])
    def test_output_bytes_are_pinned(self, system, t):
        states = simulate_batch(make_spec(system, 0.05), t, seeds=[5, 6, 7])
        assert states.shape == (3, t, 3) and states.dtype == np.float64
        digest = hashlib.sha256(np.ascontiguousarray(states).tobytes()).hexdigest()
        assert digest[:16] == SIMULATE_SHA256_PREFIX[system, t]

    @pytest.mark.parametrize("system,bound", [(LORENZ63, 1.1), (CHEN, 11.5)])
    def test_traced_peak_is_the_raw_chain(self, system, bound):
        # One (B, raw_len, 3) buffer holds the noise and then the chain, and is itself the
        # output when nothing is decimated: Lorenz keeps every raw state, Chen every tenth.
        spec = make_spec(system, 0.05)
        tracemalloc.start()
        try:
            states = simulate_batch(spec, 200, seeds=list(range(40)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * states.nbytes

    def test_divergence_error_carries_step(self):
        spec = make_spec(LORENZ63, 1e14)
        with pytest.raises(DivergenceError) as info:
            simulate_b1(spec, 50, seed=0)
        assert info.value.step_index >= 1

    def test_single_trajectory_matches_batch(self):
        spec = make_spec(LORENZ63, 0.1)
        batch = simulate_batch(spec, 100, seeds=[10, 11])
        np.testing.assert_array_equal(simulate_b1(spec, 100, seed=10), batch[0])
        np.testing.assert_array_equal(simulate_b1(spec, 100, seed=11), batch[1])


class TestDecimation:
    def test_chen_raw_step_count(self):
        spec = make_spec(CHEN, 0.01)
        for t in (1, 7, 100):
            assert dynamics._raw_length(spec, t) == math.ceil(t * 10)

    def test_chen_keeps_every_tenth_sample(self):
        spec = make_spec(CHEN, 0.01)
        t = 25
        traj = simulate_b1(spec, t, seed=9)
        # rebuild the raw chain from the same seed and compare
        gen = SeededRng(9)
        x0 = dynamics.DEFAULT_INITIAL_STATE + gen.standard_normal(3)
        raw_len = dynamics._raw_length(spec, t)
        from semidanse.numerics import covariance_factor

        raw = np.empty((1, raw_len, 3))
        raw[0, 0] = x0
        factor = covariance_factor(spec.process_noise_cov)
        raw[0, 1:] = gen.standard_normal((raw_len - 1, 3)) @ factor.T
        raw = dynamics._raw_chain(spec, raw, noisy=True)[0]
        np.testing.assert_array_equal(traj, raw[np.arange(t) * 10])

    def test_rossler_rounds_half_up(self):
        spec = make_spec(ROSSLER, 0.01)
        idx = dynamics._decimation_indices(spec, 5)
        np.testing.assert_array_equal(idx, [0, 3, 5, 8, 10])


class TestCalibrateProcessNoise:
    def test_db_arithmetic(self):
        spec = zero_noise_spec(LORENZ63)
        p0 = calibrate_process_noise(spec, 0.0, seed=55)
        p_minus10 = calibrate_process_noise(spec, -10.0, seed=55)
        assert p_minus10 == pytest.approx(0.1 * p0, rel=1e-12)

    def test_lorenz_golden_value(self):
        spec = zero_noise_spec(LORENZ63)
        got = calibrate_process_noise(spec, -10.0, seed=55)
        assert got == pytest.approx(LORENZ_CALIBRATED_SIGMA_E2_MINUS10DB_SEED55, rel=1e-12)

    def test_degenerate_pilot_raises(self):
        spec = SsmSpec(system=LORENZ63, step_size=0.0, process_noise_cov=np.zeros((3, 3)))
        with pytest.raises(CalibrationError):
            calibrate_process_noise(spec, -10.0, seed=55)

    def test_literal_db(self):
        assert dynamics.literal_db_sigma(-10.0) == pytest.approx(0.1)
        assert dynamics.literal_db_sigma(0.0) == 1.0


class TestSpecValidation:
    def test_rossler_epsilon_rules(self):
        with pytest.raises(ValueError):
            SsmSpec(system=LORENZ63, step_size=0.02,
                    process_noise_cov=np.eye(3), rossler_epsilon=1e-5)
        with pytest.raises(ValueError):
            SsmSpec(system=ROSSLER, step_size=0.008, process_noise_cov=np.eye(3))

    def test_non_psd_noise_rejected(self):
        with pytest.raises(ValueError):
            SsmSpec(system=LORENZ63, step_size=0.02, process_noise_cov=-np.eye(3))


class _GroupRecorder:
    """A process model that keeps every point group the filters pass to transition_batch."""

    def __init__(self, spec: SsmSpec):
        self.spec, self.process_noise_cov, self.groups = spec, spec.process_noise_cov, []

    def transition_batch(self, xs):
        self.groups.append(np.array(xs))
        return self.spec.transition_batch(xs)


def filter_groups(system: str) -> list[np.ndarray]:
    """The EKF finite-difference and UKF sigma-point groups of a 4-step run on 5 trajectories."""
    from semidanse.baselines import ekf_batch, initial_beliefs_from_truth, ukf_batch
    from semidanse.measurement import MeasModel, builtin_h

    spec = make_spec(system, 0.05)
    states = simulate_batch(spec, 5, seeds=[41 + k for k in range(5)])
    model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
    x0m, x0c = initial_beliefs_from_truth(states[:, 0], seed=4)
    recorder = _GroupRecorder(spec)
    for filt in (ekf_batch, ukf_batch):
        filt(states @ model.h.T, recorder, model, x0m, x0c)
    assert len(recorder.groups) == 8 and all(g.shape == (5, 7, 3) for g in recorder.groups)
    return recorder.groups


def assert_rowwise(spec: SsmSpec, group: np.ndarray):
    """The (B, P, 3) call, made first, equals the row-wise (B * P, 3) call bit for bit."""
    grouped = spec.transition_batch(group)
    flat = spec.transition_batch(group.reshape(-1, 3)).reshape(group.shape)
    np.testing.assert_array_equal(grouped, flat)


class TestPointGroups:
    @pytest.mark.parametrize("system", [LORENZ63, CHEN, ROSSLER])
    def test_filter_groups_equal_rowwise_call_bitwise(self, system):
        spec = make_spec(system, 0.05)
        for group in filter_groups(system):
            assert_rowwise(spec, group)

    @pytest.mark.parametrize("system", [LORENZ63, CHEN, ROSSLER])
    def test_dense_spread_group_shares_nothing(self, system, rng, taylor_matrices):
        # An eigenvector factor (covariance_factor's eigh fallback) moves every
        # coordinate of every sigma point, so each point needs its own F.
        spec = make_spec(system, 0.05)
        x = np.array([1.0, -2.0, 20.0]) + rng.standard_normal((4, 3))
        a = rng.standard_normal((4, 3, 3))
        w, v = np.linalg.eigh(a @ a.transpose(0, 2, 1) + 0.1 * np.eye(3))
        factor = v * np.sqrt(w)[:, None, :]
        group = np.concatenate([x[:, None], x[:, None] + np.swapaxes(factor, 1, 2),
                                x[:, None] - np.swapaxes(factor, 1, 2)], axis=1)
        assert_rowwise(spec, group)
        assert taylor_matrices == [4 * 7, 4 * 7]

    @pytest.mark.parametrize("system", [LORENZ63, CHEN, ROSSLER])
    def test_memory_layout_changes_no_bit(self, system):
        # The filters' point groups may be views with the point axis innermost in memory.
        spec = make_spec(system, 0.05)
        for group in filter_groups(system):
            for g in (group[:1], group, group[:, 0]):
                transposed = np.swapaxes(np.ascontiguousarray(np.swapaxes(g, -1, -2)), -1, -2)
                assert spec.transition_batch(transposed).tobytes() == spec.transition_batch(g).tobytes()

    def test_shared_inputs_need_one_matrix_and_signed_zeros_do_not_share(self, taylor_matrices):
        spec = make_spec(LORENZ63, 0.05)
        group = np.array([[[0.0, 1.0, 2.0], [0.0, -3.0, 5.0], [-0.0, 1.0, 2.0]],
                          [[1.5, 1.0, 2.0], [1.5, 7.0, -1.0], [1.5, 4.0, 2.0]]])
        assert_rowwise(spec, group)
        # point 1 reads x1 equal to its row's point 0 in both rows; point 2 does in row 1
        # only, since row 0's -0.0 is a new input: sharing is decided per (row, point)
        assert taylor_matrices == [2 + 1, 2 * 3]

    def test_group_shape_checked(self):
        with pytest.raises(DimensionError, match="point groups must be"):
            make_spec(LORENZ63, 0.05).transition_batch(np.zeros((2, 3, 4)))
