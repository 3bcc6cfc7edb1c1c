"""Model-driven EKF and UKF over the chaotic systems, as comparison references.

Both filters consume the true transition map f(x) = F(x) x (anything exposing
`transition_batch` and `process_noise_cov`, e.g. an SsmSpec) plus the known
linear measurement model. The EKF linearizes f with central finite
differences; the UKF propagates scaled sigma points. Because the measurement
map is linear, the measurement update is the exact linear-Gaussian update for
both filters (for the UKF this coincides with the unscented update). The two
filters share one batched loop and differ only in their predict step; a
single trajectory is the B = 1 case.

Timing convention: the initial belief describes x_1 before any data; step t
first predicts (for t >= 2) and then conditions on y_t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .estimator import BatchFilterOutput
from .exceptions import DimensionError, SingularityError
from .measurement import MeasModel
from .numerics import GaussianBelief, SeededRng, covariance_factor, symmetrize


class ProcessModel(Protocol):
    """Known transition law: row-wise deterministic map plus noise covariance."""

    process_noise_cov: np.ndarray

    def transition_batch(self, xs: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class LinearProcess:
    """x_{t+1} = F x_t + e_t; used by tests to reduce both filters to the KF."""

    f_matrix: np.ndarray
    process_noise_cov: np.ndarray

    def transition_batch(self, xs: np.ndarray) -> np.ndarray:
        return xs @ np.asarray(self.f_matrix).T


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


def _fd_jacobian(process: ProcessModel, xs: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of the transition map, step 1e-6*max(1, |x_j|)."""
    b, m = xs.shape
    jac = np.empty((b, m, m))
    for j in range(m):
        h = _FD_STEP * np.maximum(1.0, np.abs(xs[:, j]))
        xp = xs.copy()
        xp[:, j] += h
        xm = xs.copy()
        xm[:, j] -= h
        jac[:, :, j] = (process.transition_batch(xp) - process.transition_batch(xm)) / (2.0 * h)[:, None]
    return jac


def _linear_update(x, p, y, h, c_w):
    """Exact linear-Gaussian measurement update on a batch of beliefs.

    Returns the updated mean/covariance and the innovation covariance S,
    which doubles as the one-step measurement predictive covariance.
    """
    s = np.einsum("ik,bkl,jl->bij", h, p, h) + c_w
    sign, _ = np.linalg.slogdet(s)
    if np.any(sign <= 0):
        raise SingularityError("innovation covariance is singular")
    s_inv = np.linalg.inv(s)
    k = np.einsum("bkl,il,bij->bkj", p, h, s_inv)
    innov = y - x @ h.T
    x_new = x + np.einsum("bki,bi->bk", k, innov)
    m = x.shape[1]
    ikh = np.broadcast_to(np.eye(m), p.shape) - k @ h
    p_new = ikh @ p @ ikh.transpose(0, 2, 1) + np.einsum("bki,ij,blj->bkl", k, c_w, k)
    return x_new, symmetrize(p_new), symmetrize(s)


def _init_batch(x0_mean, x0_cov, b, m):
    x = np.asarray(x0_mean, dtype=np.float64)
    p = np.asarray(x0_cov, dtype=np.float64)
    x = np.broadcast_to(x, (b, m)).copy() if x.ndim == 1 else x.copy()
    p = np.broadcast_to(p, (b, m, m)).copy() if p.ndim == 2 else p.copy()
    return x, p


def _filter_loop(predict, ys: np.ndarray, model: MeasModel, x0_mean: np.ndarray,
                 x0_cov: np.ndarray, keep_full_covs: bool) -> BatchFilterOutput:
    """Lockstep Gaussian filter over (B, T, n) measurements.

    `predict(x, p)` maps the (B, m) means and (B, m, m) covariances of step
    t - 1 to the predicted belief of step t; the measurement update is the
    exact linear one. pred_meas_means holds H times the pre-update estimate.
    """
    ys = np.asarray(ys, dtype=np.float64)
    b, t_len, n = ys.shape
    m = model.m
    if n != model.n:
        raise DimensionError(f"measurement dim {n} != model n {model.n}")
    x, p = _init_batch(x0_mean, x0_cov, b, m)
    means = np.empty((b, t_len, m))
    cov_diags = np.empty((b, t_len, m))
    pred_meas = np.empty((b, t_len, n))
    covs = np.empty((b, t_len, m, m)) if keep_full_covs else None
    pred_meas_covs = np.empty((b, t_len, n, n)) if keep_full_covs else None
    idx = np.arange(m)
    for t in range(t_len):
        if t > 0:
            x, p = predict(x, p)
        pred_meas[:, t] = x @ model.h.T
        x, p, s = _linear_update(x, p, ys[:, t], model.h, model.c_w)
        means[:, t] = x
        cov_diags[:, t] = np.maximum(p[:, idx, idx], 0.0)
        if keep_full_covs:
            covs[:, t] = p
            pred_meas_covs[:, t] = s
    return BatchFilterOutput(means, cov_diags, pred_meas, covs, pred_meas_covs)


def ekf_batch(ys: np.ndarray, process: ProcessModel, model: MeasModel,
              x0_mean: np.ndarray, x0_cov: np.ndarray,
              keep_full_covs: bool = False) -> BatchFilterOutput:
    """EKF over (B, T, n) measurement batches run in lockstep."""
    c_e = np.asarray(process.process_noise_cov, dtype=np.float64)

    def predict(x, p):
        jac = _fd_jacobian(process, x)
        x = process.transition_batch(x)
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
        prop = process.transition_batch(pts.reshape(b * n_pts, m)).reshape(b, n_pts, m)
        x = np.einsum("s,bsk->bk", w_mean, prop)
        diff = prop - x[:, None, :]
        return x, symmetrize(np.einsum("s,bsk,bsl->bkl", w_cov, diff, diff) + c_e)

    return _filter_loop(predict, ys, model, x0_mean, x0_cov, keep_full_covs)


def initial_beliefs_from_truth(first_states: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Filter initialization for reproduction runs: truth corrupted by N(0, I).

    Returns per-trajectory means (B, m) and the shared identity covariance.
    """
    first_states = np.asarray(first_states, dtype=np.float64)
    gen = SeededRng(seed)
    noise = gen.standard_normal(first_states.shape)
    return first_states + noise, np.eye(first_states.shape[1])


def uninformative_belief(dim: int = 3) -> GaussianBelief:
    """Zero-mean, 10*I belief for runs where the truth is withheld."""
    return GaussianBelief(np.zeros(dim), 10.0 * np.eye(dim))
