"""Gaussian and linear-algebra primitive tests."""

import subprocess
import sys

import numpy as np
import pytest

from semidanse.exceptions import DimensionError, NumericError, SingularityError
from semidanse.numerics import (
    SeededRng,
    child_seed,
    covariance_factor,
    taylor_matrix_exp,
)

from conftest import (GaussianBelief, gaussian_condition, gaussian_log_density,
                      gaussian_logpdf_oracle, matexp_oracle, psd_repair, random_psd)


class TestTaylorMatrixExp:
    def test_zero_matrix_gives_identity(self):
        out = taylor_matrix_exp(np.zeros((3, 3)))
        np.testing.assert_array_equal(out, np.eye(3))

    def test_nilpotent_is_exact(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        out = taylor_matrix_exp(a)
        np.testing.assert_allclose(out, np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-15)

    def test_diagonal_case_against_oracle(self):
        # Taylor-5 truncation leaves a remainder of about z^6/720, which is
        # 8.6e-8 at z = -0.2; assert against the actual remainder scale.
        a = np.diag([0.1, -0.2, 0.05])
        out = taylor_matrix_exp(a)
        expected = matexp_oracle(a)
        np.testing.assert_allclose(np.diag(out), np.diag(expected), atol=2e-7)
        assert abs(out[1, 1] - expected[1, 1]) < 1.5e-7

    def test_nilpotent_index_le_order_is_exact(self, rng):
        for _ in range(20):
            a = np.triu(rng.standard_normal((4, 4)), k=1)  # nilpotent index <= 4
            out = taylor_matrix_exp(a)
            np.testing.assert_allclose(out, matexp_oracle(a), atol=1e-12)

    def test_stacked_input(self, rng):
        stack = rng.standard_normal((7, 3, 3)) * 0.05
        out = taylor_matrix_exp(stack)
        for i in range(7):
            np.testing.assert_allclose(out[i], taylor_matrix_exp(stack[i]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(DimensionError):
            taylor_matrix_exp(np.zeros((2, 3)))
        with pytest.raises(NumericError):
            taylor_matrix_exp(np.array([[np.nan, 0.0], [0.0, 0.0]]))


class TestGaussianCondition:
    def test_equal_prior_and_noise_average(self):
        belief = gaussian_condition(
            np.zeros(3), np.eye(3), np.eye(3), np.eye(3), np.array([2.0, 0.0, -2.0])
        )
        np.testing.assert_allclose(belief.mean, [1.0, 0.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(belief.cov, 0.5 * np.eye(3), atol=1e-12)

    def test_noiseless_limit_recovers_measurement(self, rng):
        mean = rng.standard_normal(3)
        y = rng.standard_normal(3)
        belief = gaussian_condition(mean, np.eye(3), np.eye(3), 1e-12 * np.eye(3), y)
        np.testing.assert_allclose(belief.mean, y, atol=1e-6)

    def test_result_cov_psd_for_random_inputs(self, rng):
        for _ in range(50):
            cov_x = random_psd(rng, 3)
            h = rng.standard_normal((2, 3))
            c_w = random_psd(rng, 2)
            belief = gaussian_condition(rng.standard_normal(3), cov_x, h, c_w,
                                        rng.standard_normal(2))
            assert np.linalg.eigvalsh(belief.cov).min() >= -1e-10

    def test_singular_innovation_raises(self):
        with pytest.raises(SingularityError):
            gaussian_condition(np.zeros(2), np.zeros((2, 2)), np.eye(2),
                               np.zeros((2, 2)), np.zeros(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            gaussian_condition(np.zeros(3), np.eye(3), np.eye(2), np.eye(2), np.zeros(2))


class TestGaussianLogDensity:
    def test_at_mean_identity_cov(self):
        for d in (1, 2, 3, 5):
            belief = GaussianBelief(np.zeros(d), np.eye(d))
            val = gaussian_log_density(np.zeros(d), belief)
            assert val == pytest.approx(-0.5 * d * np.log(2 * np.pi), abs=1e-12)

    def test_scalar_variance_two(self):
        belief = GaussianBelief(np.zeros(1), 2.0 * np.eye(1))
        assert gaussian_log_density(np.zeros(1), belief) == pytest.approx(
            -0.5 * np.log(4 * np.pi), abs=1e-12
        )

    def test_against_explicit_inverse_oracle(self, rng):
        for _ in range(25):
            cov = random_psd(rng, 3)
            mean = rng.standard_normal(3)
            x = rng.standard_normal(3)
            ours = gaussian_log_density(x, GaussianBelief(mean, cov))
            assert ours == pytest.approx(gaussian_logpdf_oracle(x, mean, cov), abs=1e-10)

    def test_translation_invariance(self, rng):
        cov = random_psd(rng, 3)
        mean = rng.standard_normal(3)
        x = rng.standard_normal(3)
        shift = rng.standard_normal(3)
        a = gaussian_log_density(x, GaussianBelief(mean, cov))
        b = gaussian_log_density(x + shift, GaussianBelief(mean + shift, cov))
        assert a == pytest.approx(b, abs=1e-10)

    def test_non_pd_cov_raises(self):
        belief = GaussianBelief(np.zeros(2), np.zeros((2, 2)))
        with pytest.raises(NumericError):
            gaussian_log_density(np.zeros(2), belief)


def gaussian_draws(seed: int, mean: np.ndarray, cov: np.ndarray, size: int) -> np.ndarray:
    """(size, d) draws the way the simulator and the measurement model make them."""
    z = SeededRng(seed).standard_normal((size, len(mean)))
    return mean + z @ covariance_factor(cov).T


class TestSampleGaussian:
    def test_zero_cov_returns_mean_exactly(self):
        mean = np.array([1.5, -2.0, 0.25])
        out = gaussian_draws(1, mean, np.zeros((3, 3)), 1)
        np.testing.assert_array_equal(out[0], mean)

    def test_seed_determinism(self):
        a = gaussian_draws(42, np.zeros(3), np.eye(3), 10)
        b = gaussian_draws(42, np.zeros(3), np.eye(3), 10)
        np.testing.assert_array_equal(a, b)

    def test_moments_of_many_draws(self):
        draws = gaussian_draws(7, np.zeros(3), np.eye(3), 100_000)
        assert np.abs(draws.mean(axis=0)).max() < 0.02  # about 3 sigma of the CLT bound
        emp_cov = np.cov(draws.T)
        np.testing.assert_allclose(emp_cov, np.eye(3), atol=0.03)

    def test_full_covariance_moments(self, rng):
        cov = random_psd(rng, 3)
        draws = gaussian_draws(11, rng.standard_normal(3), cov, 100_000)
        np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.05 * np.abs(cov).max() + 0.02)

    def test_stream_identical_across_processes(self):
        code = (
            "from semidanse.numerics import SeededRng\n"
            "print(SeededRng(314159).standard_normal((4, 3)).tobytes().hex())\n"
        )
        outs = {
            subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True).stdout
            for _ in range(2)
        }
        assert len(outs) == 1


class TestSeededRng:
    def test_child_seeds_are_stable_and_distinct(self):
        a = child_seed(123, 0)
        b = child_seed(123, 1)
        assert a == child_seed(123, 0)
        assert a != b
        with pytest.raises(ValueError):
            child_seed(123, -1)

    def test_child_generators_decorrelated(self):
        c0 = SeededRng(child_seed(99, 0)).standard_normal(1000)
        c1 = SeededRng(child_seed(99, 1)).standard_normal(1000)
        assert abs(np.corrcoef(c0, c1)[0, 1]) < 0.1


class TestGaussianBelief:
    def test_asymmetric_cov_rejected(self):
        cov = np.array([[1.0, 0.2], [0.1, 1.0]])
        with pytest.raises(NumericError):
            GaussianBelief(np.zeros(2), cov)

    def test_psd_repair_clamps_small_negatives(self):
        cov = np.diag([1.0, -5e-9])
        repaired = psd_repair(cov)
        assert np.linalg.eigvalsh(repaired).min() >= 0.0

    def test_psd_repair_rejects_large_negatives(self):
        with pytest.raises(NumericError):
            psd_repair(np.diag([1.0, -1e-3]))
