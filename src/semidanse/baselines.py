"""Model-driven EKF and UKF over the chaotic systems, as comparison references.

Both filters consume the true transition map f(x) = F(x) x (anything exposing
`transition_batch` and `process_noise_cov`, e.g. an SsmSpec) plus the known
linear measurement model. The EKF linearizes f with central finite
differences; the UKF propagates scaled sigma points. Because the measurement
map is linear, the measurement update is the exact linear-Gaussian update for
both filters (for the UKF this coincides with the unscented update).

The filters differ only in their predict step (`Ekf`, `Ukf`), and all of them
run in one lockstep loop, `filter_batch`: a sweep point runs every filter
method over the shared test measurements at once. Each step stacks all
filters' (B, 2m + 1, m) point groups into one `transition_batch` call and all
beliefs into one measurement update; each filter keeps its own predict
arithmetic and its own outputs. `ekf_batch` and `ukf_batch` are the
one-filter case, and a single trajectory is the B = 1 case.

The sweep.csv bytes of these references are fixed, so the stacked matmuls and
inv stay, and the cost around them is cut without changing a bit. Every
stacked kernel on the path computes each row on its own (H x, whose one-row
product numpy rounds differently, is formed per filter), so stacking filters
changes no output bit. A process model may share one transition matrix within a row's
point group: a point reuses its own row's point-0 F when the generator inputs
agree bit for bit (the per-row rule, so a stacked call never computes more
matrices than the filters' separate calls). The einsum contractions are
ordered sums on planes (the layout `numerics` describes) that add in einsum's
order, and S is checked by the plane Cholesky `numerics._factor`.

Timing convention: the initial belief describes x_1 before any data; step t
first predicts (for t >= 2) and then conditions on y_t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .exceptions import DimensionError, NumericError, SingularityError
from .measurement import MeasModel
from .numerics import (PSD_CLAMP_FLOOR, BatchFilterOutput, SeededRng, _factor, as_matrix,
                       covariance_factor, require_finite_steps, symmetrize)


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


class Predictor(Protocol):
    """One filter's predict step, split around the shared transition call."""

    def points(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        """(B, 2m + 1, m) point groups at which f is evaluated."""

    def moments(self, x: np.ndarray, p: np.ndarray, out: np.ndarray,
                c_e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predicted (B, m) means and (B, m, m) covariances from f at the points."""


def _point_groups(x: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """(B, 2m + 1, m) groups: each row x, then x plus and x minus each row of its (m, m) spread."""
    return np.concatenate([x[:, None], x[:, None] + spread, x[:, None] - spread], axis=1)


def _fd_steps(x: np.ndarray) -> np.ndarray:
    return _FD_STEP * np.maximum(1.0, np.abs(x))


class Ekf:
    """EKF predict step: f and its central-difference Jacobian, step 1e-6*max(1, |x_j|).

    A row's point group is the row and its 2m perturbed copies, (B, 2m + 1, m).
    """

    def points(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        # row j of the spread is step j along axis j
        return _point_groups(x, np.eye(x.shape[1]) * _fd_steps(x)[:, None, :])

    def moments(self, x: np.ndarray, p: np.ndarray, out: np.ndarray,
                c_e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = x.shape[1]
        jac = np.swapaxes(out[:, 1 : m + 1] - out[:, m + 1 :], 1, 2) / (2.0 * _fd_steps(x))[:, None, :]
        return out[:, 0], symmetrize(jac @ p @ jac.transpose(0, 2, 1) + c_e)


class Ukf:
    """UKF predict step: the scaled unscented transform over m-dimensional states.

    A row's point group is its 2m + 1 sigma points, (B, 2m + 1, m).
    """

    def __init__(self, m: int, cfg: UkfConfig = UkfConfig()):
        lam, self.w_mean, self.w_cov = cfg.weights(m)
        self.scale = np.sqrt(m + lam)

    def points(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        # row j of the spread is column j of the scaled factor
        return _point_groups(x, np.swapaxes(covariance_factor(p) * self.scale, 1, 2))

    def moments(self, x: np.ndarray, p: np.ndarray, out: np.ndarray,
                c_e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.einsum("s,bsk->bk", self.w_mean, out)
        cov = _weighted_outer(self.w_cov, _planes(out) - x.T)  # contiguous planes sum fastest
        return x, symmetrize(_batch_major(cov) + c_e)


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
    covariance (not symmetrized). The stacked matmuls and inv run on (B, ...) arrays,
    the contractions and the check of S on planes; the check's factor is discarded.
    """
    pp = _planes(p)
    s_planes = _innovation_cov(h, pp) + c_w[..., None]
    _factor(s_planes, "innovation covariance S")
    s = _batch_major(s_planes)
    k = _gain(pp, h, _planes(np.linalg.inv(s)))
    x_new = x + _gain_times(k, _planes(y - hx)).T
    # a strided K would take numpy's own matmul loop, which rounds unlike BLAS's FMA
    ikh = np.eye(h.shape[1]) - np.ascontiguousarray(_batch_major(k)) @ h
    p_new = ikh @ p @ ikh.transpose(0, 2, 1) + _batch_major(_gain_noise(k, c_w))
    return x_new, symmetrize(p_new), s


def _raise_unsound_belief(filters: list[Predictor], rows: list[slice], x: np.ndarray,
                         p: np.ndarray, t: int, predicted: bool) -> None:
    """After step t failed: NumericError naming the first filter row whose belief (its prediction
    for step t when `predicted`, else the step t - 1 belief it is predicted from) is not finite
    or not PSD (below the floor of `covariance_factor`). Returns if every belief is sound."""
    for flt, r in zip(filters, rows):
        for b, (mean, cov) in enumerate(zip(x[r], p[r])):
            if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
                problem = "is not finite"
            elif np.linalg.eigvalsh(symmetrize(cov))[0] < PSD_CLAMP_FLOOR:
                problem = "has a covariance that is not positive semi-definite"
            else:
                continue
            where = f"{type(flt).__name__.lower()} predicted belief of row {b} at step {t}"
            raise NumericError(f"{where} {problem}" if predicted else
                               f"{where} cannot be formed: the belief of step {t - 1} {problem}")


def filter_batch(filters: list[Predictor], ys: np.ndarray, process: ProcessModel,
                 model: MeasModel, x0_mean: np.ndarray, x0_cov: np.ndarray,
                 keep_full_covs: bool = False) -> list[BatchFilterOutput]:
    """Several Gaussian filters over the same (B, T, n) measurements, in one lockstep loop.

    Each step stacks every filter's (B, 2m + 1, m) point groups into one
    `transition_batch` call, hands each filter its rows of the result for its own
    predict arithmetic, and runs all beliefs through one exact linear measurement
    update on the stacked (F*B)-row arrays. Every kernel on this path computes each
    row on its own, so each filter's output is bit for bit what it computes alone.
    Each output keeps the fields `BatchFilterOutput.empty` gives for `keep_full_covs`;
    pred_meas_means holds H times the pre-update estimate, which the update reads as
    its H x. The initial beliefs broadcast to (B, m) and (B, m, m); a non-finite one
    is a NumericError naming its first row, and a step that fails on an unsound
    belief names that belief (`_raise_unsound_belief`).
    """
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 3 or ys.shape[2] != model.n:
        raise DimensionError(f"ys {ys.shape} is not (B, T, n = {model.n})")
    b, t_len, n = ys.shape
    m = model.m
    require_finite_steps(ys, "measurement y")
    try:
        x = np.broadcast_to(np.asarray(x0_mean, dtype=np.float64), (b, m))
        p = np.broadcast_to(np.asarray(x0_cov, dtype=np.float64), (b, m, m))
    except ValueError as exc:
        raise DimensionError(f"initial beliefs {np.shape(x0_mean)} and {np.shape(x0_cov)} do not "
                             f"broadcast to ({b}, {m}) and ({b}, {m}, {m})") from exc
    for name, belief in (("initial belief mean x0", x), ("initial belief covariance P0", p)):
        finite = np.isfinite(belief).reshape(b, -1).all(axis=1)
        if not finite.all():
            raise NumericError(f"{name}[{np.argmin(finite)}] is not finite")
    x, p = np.concatenate([x] * len(filters)), np.concatenate([p] * len(filters))
    rows = [slice(i * b, (i + 1) * b) for i in range(len(filters))]
    c_e = as_matrix(process.process_noise_cov, "process noise covariance C_e")
    outs = [BatchFilterOutput.empty(ys.shape[:2], m, n, keep_full_covs) for _ in filters]
    for t in range(t_len):
        predicted = t == 0  # the initial belief is the prediction of step 0
        try:
            if t > 0:
                prop = process.transition_batch(
                    np.concatenate([flt.points(x[r], p[r]) for flt, r in zip(filters, rows)]))
                beliefs = [flt.moments(x[r], p[r], prop[r], c_e) for flt, r in zip(filters, rows)]
                x, p = (np.concatenate(parts) for parts in zip(*beliefs))
                predicted = True
            # per filter: numpy computes a one-row product unlike the stacked one
            hx = np.concatenate([x[r] @ model.h.T for r in rows])
            x, p, s = _linear_update(x, p, np.concatenate([ys[:, t]] * len(filters)), hx,
                                     model.h, model.c_w)
        except (NumericError, SingularityError, np.linalg.LinAlgError):
            _raise_unsound_belief(filters, rows, x, p, t, predicted)
            raise
        for out, r in zip(outs, rows):
            out.means[:, t] = x[r]
            if keep_full_covs:
                out.pred_meas_means[:, t] = hx[r]
                out.covs[:, t] = p[r]
                out.pred_meas_covs[:, t] = symmetrize(s[r])
    return outs


def ekf_batch(ys: np.ndarray, process: ProcessModel, model: MeasModel,
              x0_mean: np.ndarray, x0_cov: np.ndarray,
              keep_full_covs: bool = False) -> BatchFilterOutput:
    """EKF over (B, T, n) measurement batches run in lockstep: filter_batch with one filter."""
    return filter_batch([Ekf()], ys, process, model, x0_mean, x0_cov, keep_full_covs)[0]


def ukf_batch(ys: np.ndarray, process: ProcessModel, model: MeasModel,
              x0_mean: np.ndarray, x0_cov: np.ndarray,
              cfg: UkfConfig = UkfConfig(), keep_full_covs: bool = False) -> BatchFilterOutput:
    """UKF counterpart of ekf_batch using the scaled unscented transform."""
    return filter_batch([Ukf(model.m, cfg)], ys, process, model, x0_mean, x0_cov,
                        keep_full_covs)[0]


def initial_beliefs_from_truth(first_states: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Filter initialization for reproduction runs: truth corrupted by N(0, I).

    Returns per-trajectory means (B, m) and the shared identity covariance.
    """
    first_states = np.asarray(first_states, dtype=np.float64)
    gen = SeededRng(seed)
    noise = gen.standard_normal(first_states.shape)
    return first_states + noise, np.eye(first_states.shape[1])

