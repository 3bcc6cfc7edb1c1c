"""Shared linear-algebra and Gaussian primitives, and the batched estimate record.

All computations are in 64-bit floating point. Randomness goes through
:class:`SeededRng`, a thin wrapper around numpy's counter-based Philox
generator, so that identical seeds give identical streams everywhere.
Parallel tasks never share a generator; they derive child seeds with
:func:`child_seed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, NumericError

_MASK64 = (1 << 64) - 1

# covariance_factor clamps eigenvalues in [PSD_CLAMP_FLOOR, 0) to zero;
# anything below the floor is treated as a real numerical failure.
PSD_CLAMP_FLOOR = -1e-8


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def child_seed(parent_seed: int, index: int) -> int:
    """Derive a decorrelated 64-bit child seed from (parent seed, task index)."""
    if index < 0:
        raise ValueError("child index must be non-negative")
    return _splitmix64((_splitmix64(parent_seed & _MASK64) + index) & _MASK64)


@dataclass
class SeededRng:
    """Deterministic Gaussian/random source with a fixed project-wide algorithm.

    The underlying bit generator is Philox (counter-based), so streams are
    reproducible across platforms for a given integer seed.
    """

    seed: int
    gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self.gen = np.random.Generator(np.random.Philox(key=self.seed & _MASK64))

    def standard_normal(self, size=None) -> np.ndarray:
        return self.gen.standard_normal(size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self.gen.permutation(n)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d float64 array."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-d, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericError(f"{name} contains non-finite entries")
    return a


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A^T)/2 over the last two axes."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


@dataclass
class BatchFilterOutput:
    """Batched causal estimates shared by the learned estimator and the filters.

    Covariances (the estimator's information-form J^{-1}, the filters' Joseph-form
    updates) are kept only with `keep_full_covs=True`, else None; the posterior
    variances are the diagonal of `covs`. The filters keep pred_meas_means only
    then too; the estimator always keeps it.
    """

    means: np.ndarray                    # (B, T, m) posterior means
    pred_meas_means: np.ndarray | None   # (B, T, n) one-step predictive measurement means
    covs: np.ndarray | None = None            # (B, T, m, m) posterior covariances
    pred_meas_covs: np.ndarray | None = None  # (B, T, n, n) predictive measurement covs


def require_finite_measurements(ys: np.ndarray) -> None:
    """NumericError naming the first (b, t) whose (B, T, n) measurement is not finite."""
    if not np.isfinite(ys).all():
        b, t = np.argwhere(~np.isfinite(ys).all(axis=-1))[0]
        raise NumericError(f"measurement y[{b}, {t}] is not finite")


def taylor_matrix_exp(a: np.ndarray, order: int = 5) -> np.ndarray:
    """Truncated Taylor series of the matrix exponential: sum_{k<=order} A^k / k!.

    Accepts stacked square matrices (..., d, d); the series is evaluated in
    Horner form. This is the fixed-order approximation used for the chaotic
    state transitions; high-accuracy exponentials belong to test oracles.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected square matrix, got shape {a.shape}")
    if order < 1:
        raise ValueError("order must be >= 1")
    if not np.all(np.isfinite(a)):
        raise NumericError("matrix contains non-finite entries")
    d = a.shape[-1]
    eye = np.broadcast_to(np.eye(d), a.shape).copy()
    # Horner: E = I + A(I + A/2 (I + A/3 (...)))
    out = eye + a / order
    for k in range(order - 1, 0, -1):
        out = eye + (a @ out) / k
    return out


def covariance_factor(cov: np.ndarray) -> np.ndarray:
    """A factor S with S S^T = cov, valid for any PSD matrix.

    Cholesky when positive definite; otherwise an eigenvalue factor with
    rounding-level negatives clamped to zero.
    """
    cov = symmetrize(np.asarray(cov, dtype=np.float64))
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        if np.any(w < PSD_CLAMP_FLOOR):
            raise NumericError("covariance is not PSD; cannot sample") from None
        return v * np.sqrt(np.maximum(w, 0.0))

