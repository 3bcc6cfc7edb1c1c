"""Model-driven EKF and UKF over the chaotic systems, as comparison references.

Both filters consume the true transition map f(x) = F(x) x (anything exposing
`transition_batch` and `process_noise_cov`, e.g. an SsmSpec) plus the known
linear measurement model. The EKF linearizes f with central finite
differences; the UKF propagates scaled sigma points. Because the measurement
map is linear, the measurement update is the exact linear-Gaussian update for
both filters (for the UKF this coincides with the unscented update). The two
filters share one batched loop and differ only in their predict step; a
single trajectory is the B = 1 case.

The sweep.csv bytes of these references are fixed, so the stacked matmuls,
inv and slogdet stay, and the cost around them is cut without changing a bit:
the filters pass their perturbed points as (B, P, m) groups, so that a process
model can share one transition matrix among points with equal generator inputs,
and the einsum contractions are ordered plane sums that add in einsum's order.

Timing convention: the initial belief describes x_1 before any data; step t
first predicts (for t >= 2) and then conditions on y_t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .exceptions import DimensionError, SingularityError
from .measurement import MeasModel
from .numerics import (BatchFilterOutput, SeededRng, covariance_factor, require_finite_measurements,
                       symmetrize)


class ProcessModel(Protocol):
    """Known transition law: pointwise deterministic map plus noise covariance."""

    process_noise_cov: np.ndarray

    def transition_batch(self, xs: np.ndarray) -> np.ndarray:
        """f applied to each point of (B, P, m) point groups, as (B, P, m)."""


@dataclass(frozen=True)
class UkfConfig:
    """Scaled unscented-transform parameters."""

    alpha: float = 1e-3
    beta: float = 2.0
    kappa: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")

    def weights(self, dim: int) -> tuple[float, np.ndarray, np.ndarray]:
        """(lambda, mean weights, covariance weights) for 2*dim+1 points."""
        lam = self.alpha**2 * (dim + self.kappa) - dim
        if dim + lam <= 0:
            raise ValueError("alpha/kappa give a non-positive sigma-point scale")
        w_mean = np.full(2 * dim + 1, 1.0 / (2.0 * (dim + lam)))
        w_cov = w_mean.copy()
        w_mean[0] = lam / (dim + lam)
        w_cov[0] = lam / (dim + lam) + (1.0 - self.alpha**2 + self.beta)
        return lam, w_mean, w_cov


_FD_STEP = 1e-6


def _fd_jacobian(process: ProcessModel, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f(xs) and the central-difference Jacobian of f there, step 1e-6*max(1, |x_j|).

    Every row and its 2m perturbed copies go through one transition_batch call as
    one (B, 2m + 1, m) point group.
    """
    m = xs.shape[1]
    steps = _FD_STEP * np.maximum(1.0, np.abs(xs))
    shifts = np.eye(m) * steps[:, None, :]  # (b, m, m): row j is step j along axis j
    pts = np.concatenate([xs[:, None], xs[:, None] + shifts, xs[:, None] - shifts], axis=1)
    out = process.transition_batch(pts)
    plus, minus = out[:, 1 : m + 1], out[:, m + 1 :]
    return out[:, 0], np.swapaxes(plus - minus, 1, 2) / (2.0 * steps)[:, None, :]


def _planes(a: np.ndarray) -> np.ndarray:
    """(B, ...) -> contiguous (..., B): one plane per entry, the batch axis innermost."""
    return np.ascontiguousarray(a.transpose((*range(1, a.ndim), 0)))


def _batch_major(a: np.ndarray) -> np.ndarray:
    """(..., B) planes -> a (B, ...) view."""
    return a.transpose((a.ndim - 1, *range(a.ndim - 1)))


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """(((+0.0 + t_0) + t_1) + ...) over axis 0, the order in which einsum sums.

    add.reduce keeps that order unless a term has one entry: then it would sum the
    term axis pairwise, and the last partial sum of accumulate, plus +0.0, is used.
    """
    if terms[0].size == 1:
        return np.add.accumulate(terms, axis=0)[-1] + 0.0
    return np.add.reduce(terms, axis=0, initial=0.0)


# Contraction kernels on (..., B) planes. Each adds its terms in the order np.einsum
# uses for the same contraction, so the two agree bit for bit.


def _innovation_cov(h, p):
    """H P H^T from (k, l, B) covariance planes: S_ij = sum_(k, l) (h_ik p_kl) h_jl, flat."""
    n, m = h.shape
    terms = (h.T[:, None, :, None, None] * p[:, :, None, None]) * h.T[None, :, None, :, None]
    return _ordered_sum(terms.reshape(m * m, n, n, -1))


def _gain(p, h, s_inv):
    """P H^T S^-1 as (k, j, B): K_kj = sum_i (sum_l (p_kl h_il) s^-1_ij), both from +0.0."""
    terms = ((p.transpose(1, 0, 2)[:, None, :, None] * h.T[:, :, None, None, None])
             * s_inv[None, :, None])  # (l, i, k, j, B)
    return _ordered_sum(_ordered_sum(terms))


def _gain_noise(k, c_w):
    """K C_w K^T from (k, i, B) gain planes: sum_(i, j) (k_ki c_ij) k_lj, flat."""
    m, n = k.shape[:2]
    kt = k.transpose(1, 0, 2)
    terms = (kt[:, None, :, None] * c_w[:, :, None, None, None]) * kt[None, :, None]
    return _ordered_sum(terms.reshape(n * n, m, m, -1))


def _gain_times(k, e):
    """K eps from (k, i, B) gain and (i, B) innovation planes: sum_i k_ki e_i."""
    return _ordered_sum(k.transpose(1, 0, 2) * e[:, None])


def _weighted_outer(w, d):
    """sum_s (w_s d_sk) d_sl from (s, k, B) deviation planes, as (k, l, B)."""
    return _ordered_sum((w[:, None, None] * d)[:, :, None] * d[:, None])


def _linear_update(x, p, y, hx, h, c_w):
    """Exact linear-Gaussian measurement update on a batch of beliefs.

    `hx` is H x for the (B, m) prior means. Returns the updated mean/covariance and
    the innovation covariance S, which doubles as the one-step measurement predictive
    covariance (not symmetrized). The stacked matmuls, inv and slogdet run on (B, ...)
    arrays, the contractions on planes.
    """
    pp = _planes(p)
    s = _batch_major(_innovation_cov(h, pp) + c_w[..., None])
    sign, _ = np.linalg.slogdet(s)
    if np.any(sign <= 0):
        raise SingularityError("innovation covariance is singular")
    k = _gain(pp, h, _planes(np.linalg.inv(s)))
    x_new = x + _gain_times(k, _planes(y - hx)).T
    # a strided K would take numpy's own matmul loop, which rounds unlike BLAS's FMA
    ikh = np.eye(h.shape[1]) - np.ascontiguousarray(_batch_major(k)) @ h
    p_new = ikh @ p @ ikh.transpose(0, 2, 1) + _batch_major(_gain_noise(k, c_w))
    return x_new, symmetrize(p_new), s


def _filter_loop(predict, ys: np.ndarray, model: MeasModel, x0_mean: np.ndarray,
                 x0_cov: np.ndarray, keep_full_covs: bool) -> BatchFilterOutput:
    """Lockstep Gaussian filter over (B, T, n) measurements.

    `predict(x, p)` maps the (B, m) means and (B, m, m) covariances of step
    t - 1 to the predicted belief of step t; the measurement update is the
    exact linear one. pred_meas_means holds H times the pre-update estimate, which
    the update reads as its H x. The initial beliefs broadcast to (B, m) and (B, m, m).
    """
    ys = np.asarray(ys, dtype=np.float64)
    b, t_len, n = ys.shape
    m = model.m
    if n != model.n:
        raise DimensionError(f"measurement dim {n} != model n {model.n}")
    require_finite_measurements(ys)
    try:
        x = np.broadcast_to(np.asarray(x0_mean, dtype=np.float64), (b, m)).copy()
        p = np.broadcast_to(np.asarray(x0_cov, dtype=np.float64), (b, m, m)).copy()
    except ValueError as exc:
        raise DimensionError(f"initial beliefs {np.shape(x0_mean)} and {np.shape(x0_cov)} do not "
                             f"broadcast to ({b}, {m}) and ({b}, {m}, {m})") from exc
    means = np.empty((b, t_len, m))
    pred_meas = np.empty((b, t_len, n))
    covs = np.empty((b, t_len, m, m)) if keep_full_covs else None
    pred_meas_covs = np.empty((b, t_len, n, n)) if keep_full_covs else None
    for t in range(t_len):
        if t > 0:
            x, p = predict(x, p)
        pred_meas[:, t] = x @ model.h.T
        x, p, s = _linear_update(x, p, ys[:, t], pred_meas[:, t], model.h, model.c_w)
        means[:, t] = x
        if keep_full_covs:
            covs[:, t] = p
            pred_meas_covs[:, t] = symmetrize(s)
    return BatchFilterOutput(means, pred_meas, covs, pred_meas_covs)


def ekf_batch(ys: np.ndarray, process: ProcessModel, model: MeasModel,
              x0_mean: np.ndarray, x0_cov: np.ndarray,
              keep_full_covs: bool = False) -> BatchFilterOutput:
    """EKF over (B, T, n) measurement batches run in lockstep."""
    c_e = np.asarray(process.process_noise_cov, dtype=np.float64)

    def predict(x, p):
        x, jac = _fd_jacobian(process, x)
        return x, symmetrize(jac @ p @ jac.transpose(0, 2, 1) + c_e)

    return _filter_loop(predict, ys, model, x0_mean, x0_cov, keep_full_covs)


def ukf_batch(ys: np.ndarray, process: ProcessModel, model: MeasModel,
              x0_mean: np.ndarray, x0_cov: np.ndarray,
              cfg: UkfConfig = UkfConfig(), keep_full_covs: bool = False) -> BatchFilterOutput:
    """UKF counterpart of ekf_batch using the scaled unscented transform."""
    c_e = np.asarray(process.process_noise_cov, dtype=np.float64)
    m = model.m
    lam, w_mean, w_cov = cfg.weights(m)
    scale = np.sqrt(m + lam)
    n_pts = 2 * m + 1

    def predict(x, p):
        b = x.shape[0]
        factor = covariance_factor(p) * scale  # columns span the point spread
        pts = np.empty((b, n_pts, m))
        pts[:, 0] = x
        for j in range(m):
            pts[:, 1 + j] = x + factor[:, :, j]
            pts[:, 1 + m + j] = x - factor[:, :, j]
        prop = process.transition_batch(pts)
        x = np.einsum("s,bsk->bk", w_mean, prop)
        cov = _weighted_outer(w_cov, prop.transpose(1, 2, 0) - x.T)
        return x, symmetrize(_batch_major(cov) + c_e)

    return _filter_loop(predict, ys, model, x0_mean, x0_cov, keep_full_covs)


def initial_beliefs_from_truth(first_states: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Filter initialization for reproduction runs: truth corrupted by N(0, I).

    Returns per-trajectory means (B, m) and the shared identity covariance.
    """
    first_states = np.asarray(first_states, dtype=np.float64)
    gen = SeededRng(seed)
    noise = gen.standard_normal(first_states.shape)
    return first_states + noise, np.eye(first_states.shape[1])

