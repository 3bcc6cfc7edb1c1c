"""Shared linear-algebra and Gaussian primitives, and the batched estimate record.

All computations are in 64-bit floating point. Randomness goes through
:class:`SeededRng`, a thin wrapper around numpy's counter-based Philox
generator, so that identical seeds give identical streams everywhere.
Parallel tasks never share a generator; they derive child seeds with
:func:`child_seed`.

The filters' and the posterior's matrices are tiny (m = 3, n <= 3) and there is
one per (item, t), so they are factored plane-wise: entry (i, j) of every matrix
in a stack is one array, a "plane", and the Cholesky factor and the triangular
solves loop over i and j with elementwise numpy arithmetic on whole planes
(`_factor`, `_solve`, `_sigma`). No batched LAPACK call runs on a stack, and each
matrix gets the same arithmetic whatever the batch, so a B = 1 call reproduces a
row of a batched one bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, NumericError, SingularityError

_MASK64 = (1 << 64) - 1

# covariance_factor clamps eigenvalues in [PSD_CLAMP_FLOOR, 0) to zero;
# anything below the floor is treated as a real numerical failure.
PSD_CLAMP_FLOOR = -1e-8

# The order of the truncated Taylor series of every state transition. Datasets record it.
TAYLOR_ORDER = 5


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


def require_covariance(c, name: str, dim: int) -> np.ndarray:
    """Coerce to a finite (dim, dim) float64 covariance: symmetric within
    1e-12 * max(1, max|c|) and with no eigenvalue below -1e-10, else an error naming `name`."""
    c = as_matrix(c, name)
    if c.shape != (dim, dim):
        raise DimensionError(f"{name} must be {dim}x{dim}, got {c.shape}")
    if np.abs(c - c.T).max() > 1e-12 * max(1.0, np.abs(c).max()):
        raise NumericError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(c).min() < -1e-10:
        raise NumericError(f"{name} must be PSD")
    return c


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A^T)/2 over the last two axes."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


@dataclass
class BatchFilterOutput:
    """Batched causal estimates shared by the learned estimator and the filters.

    One rule for every method, written once in `empty`: `means` is always held;
    the one-step predictive measurement means and the two covariances (the
    estimator's information-form J^{-1}, the filters' Joseph-form updates) only
    with `keep_full_covs=True`, else None. The posterior variances are the
    diagonal of `covs`.
    """

    means: np.ndarray                          # (B, T, m) posterior means
    pred_meas_means: np.ndarray | None = None  # (B, T, n) one-step predictive measurement means
    covs: np.ndarray | None = None             # (B, T, m, m) posterior covariances
    pred_meas_covs: np.ndarray | None = None   # (B, T, n, n) predictive measurement covs

    @classmethod
    def empty(cls, steps: tuple, m: int, n: int, keep_full_covs: bool) -> BatchFilterOutput:
        """Unfilled (B, T, ...) arrays, `steps` = (B, T), of the fields `keep_full_covs` keeps."""
        tails = [(m,), (n,), (m, m), (n, n)] if keep_full_covs else [(m,)]
        return cls(*(np.empty((*steps, *tail)) for tail in tails))


def require_finite_steps(a: np.ndarray, name: str) -> None:
    """NumericError naming the first (b, t) of `name` whose (B, T, ·) entry is not finite."""
    if not np.isfinite(a).all():
        b, t = np.argwhere(~np.isfinite(a).all(axis=-1))[0]
        raise NumericError(f"{name}[{b}, {t}] is not finite")


def taylor_matrix_exp(a: np.ndarray) -> np.ndarray:
    """Truncated Taylor series of the matrix exponential: sum_{k<=TAYLOR_ORDER} A^k / k!.

    Accepts stacked square matrices (..., d, d); the series is evaluated in
    Horner form. This is the fixed-order approximation used for the chaotic
    state transitions; high-accuracy exponentials belong to test oracles.
    TAYLOR_ORDER is read at each call.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericError("matrix contains non-finite entries")
    d = a.shape[-1]
    eye = np.broadcast_to(np.eye(d), a.shape).copy()
    # Horner: E = I + A(I + A/2 (I + A/3 (...)))
    out = eye + a / TAYLOR_ORDER
    for k in range(TAYLOR_ORDER - 1, 0, -1):  # in place: the bits of eye + (a @ out) / k
        out = a @ out
        out /= k
        out += eye
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


def _factor(a, name: str) -> list:
    """Cholesky-Banachiewicz factor L = [l[i][j], j <= i] of symmetric matrices a[i][j].

    Entries are planes: arrays over a stack of matrices, or scalars the stack shares.
    Only the lower triangle of `a` is read. A pivot that is not positive and finite
    is a SingularityError naming `name`.
    """
    l = []
    for i, row in enumerate(a):
        l.append([])
        for j in range(i + 1):
            s = row[j]
            for k in range(j):
                s = s - l[i][k] * l[j][k]
            if j < i:
                l[i].append(s / l[j][j])
            elif np.all((s > 0.0) & (s < np.inf)):  # also False for NaN
                l[i].append(np.sqrt(s))
            else:
                raise SingularityError(f"{name} is not positive definite")
    return l


def _solve(l, b, transpose: bool = False, start: int = 0) -> list:
    """Planes x of L x = b by forward substitution (b zero above row `start`), or of L^T x = b."""
    d = len(l)
    x = [0.0] * d
    for i in reversed(range(d)) if transpose else range(start, d):
        s = b[i]
        for k in range(i + 1, d) if transpose else range(start, i):
            s = s - (l[k][i] if transpose else l[i][k]) * x[k]
        x[i] = s / l[i][i]
    return x


def _sigma(l, full: bool) -> np.ndarray:
    """Sigma = L^{-T} L^{-1} (..., m, m), or its diagonal (..., m), from the factor L of J.

    l_inv[j][k] is entry (k, j) of L^{-1}. Entries (i, j) and (j, i) sum the same
    products in the same order, so Sigma is exactly symmetric.
    """
    m = len(l)
    l_inv = [_solve(l, np.eye(m)[j], start=j) for j in range(m)]

    def entry(i, j):
        return sum(l_inv[i][k] * l_inv[j][k] for k in range(max(i, j), m))

    if not full:
        return np.stack([entry(j, j) for j in range(m)], axis=-1)
    return np.stack([np.stack([entry(i, j) for j in range(m)], axis=-1) for i in range(m)], axis=-2)
