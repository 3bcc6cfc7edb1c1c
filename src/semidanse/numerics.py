"""Shared linear-algebra and Gaussian primitives.

All computations are in 64-bit floating point. Randomness goes through
:class:`SeededRng`, a thin wrapper around numpy's counter-based Philox
generator, so that identical seeds give identical streams everywhere.
Parallel tasks never share a generator; they derive child seeds with
:func:`child_seed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, NumericError, SingularityError

_MASK64 = (1 << 64) - 1

# Eigenvalues of a repaired covariance in [PSD_CLAMP_FLOOR, 0) are clamped
# to zero; anything below the floor is treated as a real numerical failure.
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
    algorithm: str = "philox4x64"
    gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if self.algorithm != "philox4x64":
            raise ValueError(f"unsupported rng algorithm: {self.algorithm}")
        self.gen = np.random.Generator(np.random.Philox(key=self.seed & _MASK64))

    def child(self, index: int) -> "SeededRng":
        """Independent generator for parallel task `index`."""
        return SeededRng(child_seed(self.seed, index))

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


def psd_repair(cov: np.ndarray, floor: float = PSD_CLAMP_FLOOR) -> np.ndarray:
    """Symmetrize and clamp rounding-level negative eigenvalues to zero.

    Covariance subtraction (posterior updates, conditioning) can lose positive
    semi-definiteness by rounding. Eigenvalues in [floor, 0) are set to 0;
    eigenvalues below `floor` indicate a genuine numeric failure and raise.
    Accepts stacked matrices (..., d, d).
    """
    cov = symmetrize(np.asarray(cov, dtype=np.float64))
    w, v = np.linalg.eigh(cov)
    if np.any(w < floor):
        raise NumericError(
            f"covariance has eigenvalue {float(w.min()):.3e} below the repair floor {floor:.1e}"
        )
    if np.all(w >= 0.0):
        return cov
    w = np.maximum(w, 0.0)
    return symmetrize((v * w[..., None, :]) @ np.swapaxes(v, -1, -2))


@dataclass(frozen=True)
class GaussianBelief:
    """Gaussian over a d-dimensional quantity: mean vector plus covariance.

    `diagonal=True` asserts that off-diagonal entries are exactly zero, which
    enables cheaper density/sampling paths.
    """

    mean: np.ndarray
    cov: np.ndarray
    diagonal: bool = False

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.cov, dtype=np.float64)
        if mean.ndim != 1:
            raise DimensionError(f"mean must be 1-d, got shape {mean.shape}")
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise DimensionError(f"cov shape {cov.shape} does not match mean dim {d}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise NumericError("belief contains non-finite entries")
        scale = max(1.0, float(np.abs(cov).max()))
        if np.abs(cov - cov.T).max() > 1e-12 * scale:
            raise NumericError("covariance is not symmetric within tolerance")
        if self.diagonal and np.any(cov[~np.eye(d, dtype=bool)] != 0.0):
            raise NumericError("diagonal belief has nonzero off-diagonal entries")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", symmetrize(cov))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def from_diagonal(cls, mean, var) -> "GaussianBelief":
        var = np.asarray(var, dtype=np.float64)
        return cls(np.asarray(mean, dtype=np.float64), np.diag(var), diagonal=True)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.cov).min())


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


def gaussian_condition(mean_x, cov_x, h, c_w, y) -> GaussianBelief:
    """Condition x on y = Hx + w via explicit joint block-matrix conditioning.

    x ~ N(mean_x, cov_x), w ~ N(0, C_w) independent. Forms the joint Gaussian
    over (x, y) and applies the conditioning identity directly with an explicit
    inverse of the y block. Serves as the brute-force oracle for the estimator's
    closed-form posterior update, so it deliberately avoids shared shortcuts.
    """
    mean_x = np.asarray(mean_x, dtype=np.float64)
    cov_x = as_matrix(cov_x, "cov_x")
    h = as_matrix(h, "H")
    c_w = as_matrix(c_w, "C_w")
    y = np.asarray(y, dtype=np.float64)
    m = mean_x.shape[0]
    n = y.shape[0]
    if cov_x.shape != (m, m) or h.shape != (n, m) or c_w.shape != (n, n):
        raise DimensionError(
            f"inconsistent dims: mean {mean_x.shape}, cov {cov_x.shape}, "
            f"H {h.shape}, C_w {c_w.shape}, y {y.shape}"
        )
    cross = cov_x @ h.T                       # Cov(x, y)
    yy = h @ cov_x @ h.T + c_w                # Cov(y, y)
    try:
        yy_inv = np.linalg.inv(yy)
    except np.linalg.LinAlgError as exc:
        raise SingularityError("innovation covariance is singular") from exc
    if not np.all(np.isfinite(yy_inv)):
        raise SingularityError("innovation covariance is numerically singular")
    mean = mean_x + cross @ yy_inv @ (y - h @ mean_x)
    cov = psd_repair(cov_x - cross @ yy_inv @ cross.T)
    return GaussianBelief(mean, cov)


def gaussian_log_density(x, belief: GaussianBelief) -> float:
    """log N(x; mean, cov); the covariance must be positive definite."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != belief.mean.shape:
        raise DimensionError(f"x shape {x.shape} does not match belief dim {belief.dim}")
    d = belief.dim
    delta = x - belief.mean
    if belief.diagonal:
        var = np.diag(belief.cov)
        if np.any(var <= 0.0):
            raise NumericError("diagonal covariance is not positive definite")
        return float(-0.5 * (d * np.log(2.0 * np.pi) + np.sum(np.log(var)) + np.sum(delta**2 / var)))
    try:
        chol = np.linalg.cholesky(belief.cov)
    except np.linalg.LinAlgError as exc:
        raise NumericError("covariance is not positive definite") from exc
    sol = np.linalg.solve(chol, delta)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return float(-0.5 * (d * np.log(2.0 * np.pi) + logdet + sol @ sol))


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


def sample_gaussian(rng: SeededRng, belief: GaussianBelief, size: int | None = None) -> np.ndarray:
    """Draw from the belief; returns (d,) or (size, d). Deterministic per seed."""
    d = belief.dim
    draws = rng.standard_normal(size=(size or 1, d))
    if belief.diagonal:
        std = np.sqrt(np.maximum(np.diag(belief.cov), 0.0))
        out = belief.mean + draws * std
    else:
        factor = covariance_factor(belief.cov)
        out = belief.mean + draws @ factor.T
    return out[0] if size is None else out
