"""Closed-form posterior updates, maximum-likelihood losses, trainer, inference.

The learned prior network proposes a Gaussian prior (mean, diagonal cov) per
time step; conditioning on the current linear measurement gives the posterior
in closed form, in information form: one Cholesky factor of the precision
J = diag(1/var) + H^T C_w^{-1} H, positive definite by construction, gives the
posterior mean, covariance and density. Training minimizes a supervised
posterior NLL over labelled trajectories plus an unsupervised predictive-
measurement NLL over all trajectories, both with closed-form gradients wrt the
prior; there is no stop-gradient anywhere.

Losses and training run on (B, T, ...) batches through prior_net's forward/backward,
inference on time blocks of its recurrence; a single trajectory is the B = 1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import PairedDataset, SemiDataset, validation_mask
from .exceptions import NumericError, SingularityError, TrainingError
from .measurement import MeasModel
from .numerics import SeededRng, symmetrize
from .prior_net import (
    NetDims,
    PriorNetParams,
    _prior_blocks,
    backward_batch,
    forward_batch,
    init_params,
)

_LOG_2PI = math.log(2.0 * math.pi)
BLOCK_STEPS = 128  # time steps per block of streamed inference


@dataclass
class BatchFilterOutput:
    """Batched causal estimates shared by the learned estimator and the filters.

    Full covariances (the estimator's information-form J^{-1}, the filters'
    Joseph-form updates) are kept only with `keep_full_covs=True`, else None.
    """

    means: np.ndarray            # (B, T, m) posterior means
    cov_diags: np.ndarray        # (B, T, m) posterior variances, never negative
    pred_meas_means: np.ndarray  # (B, T, n) one-step predictive measurement means
    covs: np.ndarray | None = None            # (B, T, m, m) posterior covariances
    pred_meas_covs: np.ndarray | None = None  # (B, T, n, n) predictive measurement covs


# ---------------------------------------------------------------------------
# Batched posterior / loss kernels.
# ---------------------------------------------------------------------------


def _cholesky(a: np.ndarray, name: str) -> np.ndarray:
    """Lower Cholesky factor of (stacked) `a`; failure is a SingularityError naming `name`."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"{name} has no Cholesky factor") from exc


def _unsup_terms(mean, var, h, c_w, ys, want_grads: bool):
    """Per-item predictive NLL and its gradients wrt the prior mean/variance.

    With R = H diag(var) H^T + C_w = L_R L_R^T, one solve L_R [z | W] = [eps | H] gives
    eps^T R^{-1} eps = |z|^2, H^T R^{-1} eps = W^T z and diag(H^T R^{-1} H) = (W * W).sum(-2).
    """
    if not np.all((var > 0.0) & (var < np.inf)):  # also False for NaN
        raise NumericError("prior variance is not positive and finite (softplus underflow?)")
    chol = _cholesky(np.einsum("ik,btk,jk->btij", h, var, h) + c_w, "innovation covariance")
    eps = ys - mean @ h.T
    zw = np.linalg.solve(chol, np.concatenate(
        [eps[..., None], np.broadcast_to(h, chol.shape[:2] + h.shape)], axis=-1))
    z, w = zw[..., 0], zw[..., 1:]
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    nll = 0.5 * np.sum(h.shape[0] * _LOG_2PI + logdet + np.sum(z * z, axis=-1), axis=1)
    if not want_grads:
        return nll, None, None
    b_vec = np.einsum("btik,bti->btk", w, z)
    return nll, -b_vec, 0.5 * (np.sum(w * w, axis=-2) - b_vec * b_vec)


def _posterior(mean, var, h, c_w, ys):
    """Information-form posterior of every (item, t): mean mu, covariance Sigma, factor L.

    J = diag(1/var) + H^T C_w^{-1} H = L L^T is positive definite whenever var > 0
    and C_w is; Sigma = J^{-1} = L^{-T} L^{-1} and mu = Sigma (mean/var + H^T C_w^{-1} y).
    """
    if not np.all((var > 0.0) & (var < np.inf)):
        raise NumericError("prior variance is not positive and finite (softplus underflow?)")
    eye = np.eye(var.shape[-1])
    l_w = _cholesky(c_w, "measurement noise covariance C_w")
    w = np.linalg.solve(l_w, h)                                     # L_w^{-1} H
    chol = np.linalg.cholesky(w.T @ w + eye * (1.0 / var)[..., None, :])
    l_inv = np.linalg.solve(chol, eye)
    sigma = np.einsum("btki,btkj->btij", l_inv, l_inv)
    eta = mean / var + ys @ np.linalg.solve(l_w.T, w)               # + y^T C_w^{-1} H
    return np.einsum("btij,btj->bti", sigma, eta), sigma, chol


def _sup_terms(mean, var, h, c_w, ys, xs, want_grads: bool):
    """Per-item posterior NLL of the true states and its closed-form prior gradients."""
    mu, sigma, chol = _posterior(mean, var, h, c_w, ys)
    delta = xs - mu
    lt_delta = np.einsum("btki,btk->bti", chol, delta)              # L^T (x - mu)
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    nll = 0.5 * np.sum(var.shape[-1] * _LOG_2PI - logdet + np.sum(lt_delta**2, axis=-1), axis=1)
    if not want_grads:
        return nll, None, None
    diag = np.einsum("btkk->btk", sigma)
    return nll, -delta / var, -0.5 * ((xs - mean) ** 2 - (mu - mean) ** 2 - diag) / var**2


@dataclass(frozen=True)
class BatchItem:
    """One training item: measurements always, states only when labelled."""

    measurements: np.ndarray
    states: np.ndarray | None = None

    @property
    def labelled(self) -> bool:
        return self.states is not None


def total_loss(params: PriorNetParams, items: list[BatchItem], model: MeasModel) -> float:
    """Sum of supervised NLL over labelled items plus unsupervised NLL over all items.

    Labelled items contribute both terms. With no labelled items this is
    exactly the unsupervised objective (same kernels, supervised branch never
    evaluated).
    """
    loss, _ = _batch_loss_and_grads(params, items, model, want_grads=False)
    return loss


def _batch_loss_and_grads(params: PriorNetParams, items: list[BatchItem],
                          model: MeasModel, want_grads: bool, ws: dict | None = None):
    """Loss (and gradients) of a mixed labelled/unlabelled batch in one batched pass.

    The items share one trajectory length, as the items of a PairedDataset do.
    """
    if not items:
        raise ValueError("empty batch")
    h, c_w = model.h, model.c_w
    ys = np.stack([np.asarray(item.measurements, dtype=np.float64) for item in items])
    labelled = np.array([item.labelled for item in items], dtype=bool)
    mean, var, cache = forward_batch(params, ys, ws)
    nll_u, g_mean, g_var = _unsup_terms(mean, var, h, c_w, ys, want_grads)
    total = float(nll_u.sum())
    if np.any(labelled):
        xs = np.stack([np.asarray(item.states, dtype=np.float64) for item in items if item.labelled])
        nll_s, gs_mean, gs_var = _sup_terms(mean[labelled], var[labelled], h, c_w,
                                            ys[labelled], xs, want_grads)
        total += float(nll_s.sum())
        if want_grads:
            g_mean[labelled] += gs_mean
            g_var[labelled] += gs_var
    return total, (backward_batch(params, cache, g_mean, g_var, ws) if want_grads else None)


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------


# Optimizer constants: the learning rate is multiplied by LR_DECAY every
# max(1, max_epochs // 6) epochs; early stopping counts an epoch as an
# improvement only when the validation metric drops by more than MIN_DELTA.
LR_DECAY = 0.9
MIN_DELTA = 1e-4
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CLIP_NORM = 10.0


@dataclass
class TrainConfig:
    """Batch size, epoch budget, initial learning rate, patience and seeds.

    The decay schedule, the early-stopping threshold, the Adam moments and
    the gradient clip norm are the module constants above.
    """

    batch_size: int = 64
    max_epochs: int = 2000
    learning_rate: float = 5e-4
    patience: int = 50
    init_seed: int = 1234
    shuffle_seed: int = 5678

    def __post_init__(self):
        if min(self.batch_size, self.max_epochs) < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


class Adam:
    """Standard Adam over the flattened parameter vector."""

    def __init__(self, size: int, lr: float, beta1: float, beta2: float, eps: float):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad**2
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_by_global_norm(grad: np.ndarray, max_norm: float) -> np.ndarray:
    norm = float(np.linalg.norm(grad))
    if norm > max_norm > 0:
        return grad * (max_norm / norm)
    return grad


@dataclass
class TrainResult:
    params: PriorNetParams
    log: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val: float = math.inf


def _validation_metric(params: PriorNetParams, model: MeasModel, data: PairedDataset,
                       val_idx: np.ndarray, labelled_idx: np.ndarray) -> float:
    """State-estimation MSE on the labelled validation items, in one batched pass.

    `val_idx` are the validation items of `data` and `labelled_idx` the labelled
    ones among them. Falls back to the mean per-trajectory predictive NLL over
    `val_idx` when no validation item carries a label (fully unsupervised runs).
    """
    if len(labelled_idx):
        xs = data.states[labelled_idx]
        out = infer_batch(params, data.measurements[labelled_idx], model)
        return float(np.sum((out.means - xs) ** 2)) / xs.size
    unlabelled = [BatchItem(ys) for ys in data.measurements[val_idx]]
    return total_loss(params, unlabelled, model) / len(unlabelled)


def train(semi: SemiDataset, model: MeasModel, cfg: TrainConfig) -> TrainResult:
    """Mini-batch Adam on the semi-supervised objective with early stopping.

    Validation trajectories (selected by child-seed hash in the parent
    dataset) are excluded from gradient batches; the best-validation
    parameters are returned. The log records one entry per epoch.
    """
    parent = semi.parent
    if len(parent) == 0:
        raise ValueError("dataset is empty")
    labelled_set = set(int(i) for i in semi.labelled_idx)
    val_mask = validation_mask(parent)
    train_idx = [i for i in range(len(parent)) if not val_mask[i]]
    if not train_idx:
        raise ValueError("validation hold-out consumed the whole dataset")
    val_idx = np.flatnonzero(val_mask)
    if not len(val_idx):
        raise TrainingError(
            f"validation hold-out is empty for a training set of {len(parent)} items; "
            "early stopping needs at least one validation trajectory"
        )
    val_labelled_idx = np.intersect1d(val_idx, semi.labelled_idx)

    items = {
        i: BatchItem(
            measurements=parent.measurements[i],
            states=parent.states[i] if i in labelled_set else None,
        )
        for i in train_idx
    }

    dims = NetDims(input_dim=model.n, state_dim=model.m)
    params = init_params(dims, cfg.init_seed)
    theta = params.to_vector()
    adam = Adam(theta.size, cfg.learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPS)
    shuffle = SeededRng(cfg.shuffle_seed)
    ws = {}  # network buffers, reused by every batch

    result = TrainResult(params=params.copy())
    decay_every = max(1, cfg.max_epochs // 6)
    epochs_since_best = 0
    for epoch in range(cfg.max_epochs):
        lr = cfg.learning_rate * LR_DECAY ** (epoch // decay_every)
        adam.lr = lr
        order = shuffle.permutation(len(train_idx))
        epoch_loss = 0.0
        for b_start in range(0, len(order), cfg.batch_size):
            batch_ids = [train_idx[j] for j in order[b_start : b_start + cfg.batch_size]]
            batch = [items[i] for i in batch_ids]
            try:
                loss, grads = _batch_loss_and_grads(params, batch, model, want_grads=True, ws=ws)
                if not np.isfinite(loss):
                    raise NumericError(f"non-finite loss {loss}")
            except ValueError as exc:  # NumericError, SingularityError, LinAlgError
                raise TrainingError(
                    f"loss evaluation failed: {exc} (epoch {epoch}, "
                    f"batch {b_start // cfg.batch_size}, "
                    f"parameter norm {float(np.linalg.norm(theta)):.3e})",
                    epoch=epoch, batch=b_start // cfg.batch_size,
                ) from exc
            grad_vec = clip_by_global_norm(grads.to_vector(), CLIP_NORM)
            theta = adam.step(theta, grad_vec)
            params = params.from_vector(theta)
            epoch_loss += loss
        val_metric = _validation_metric(params, model, parent, val_idx, val_labelled_idx)
        result.log.append({"epoch": epoch, "train_loss": epoch_loss,
                           "val_metric": val_metric, "lr": lr})
        if val_metric < result.best_val - MIN_DELTA:
            result.best_val = val_metric
            result.best_epoch = epoch
            result.params = params.copy()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best > cfg.patience:
                break
    if result.best_epoch < 0:
        result.params = params.copy()
        result.best_epoch = len(result.log) - 1
    return result


# ---------------------------------------------------------------------------
# Inference.
# ---------------------------------------------------------------------------


def infer_batch(params: PriorNetParams, ys: np.ndarray, model: MeasModel,
                keep_full_covs: bool = False) -> BatchFilterOutput:
    """Causal inference over (B, T, n) measurements: priors, posteriors, forecasts.

    Streams BLOCK_STEPS-step blocks of priors through the information-form posterior
    (`_posterior`) into the outputs; no array but ys and those spans all T steps. With
    `keep_full_covs` they include the posterior covariances and R = H diag(var) H^T + C_w.
    """
    ys, h, c_w, m, n = np.asarray(ys, dtype=np.float64), model.h, model.c_w, model.m, model.n
    tails = [(m,), (m,), (n,)] + ([(m, m), (n, n)] if keep_full_covs else [])
    out = BatchFilterOutput(*(np.empty(ys.shape[:2] + tail) for tail in tails))
    for t0, _, _, _, mean, var, *_ in _prior_blocks(params, ys, BLOCK_STEPS, {}):
        span = slice(t0, t0 + mean.shape[1])
        mu, sigma, _ = _posterior(mean, var, h, c_w, ys[:, span])
        out.means[:, span], out.cov_diags[:, span] = mu, np.einsum("btkk->btk", sigma)
        out.pred_meas_means[:, span] = mean @ h.T
        if keep_full_covs:
            out.covs[:, span] = sigma
            out.pred_meas_covs[:, span] = symmetrize(np.einsum("ik,btk,jk->btij", h, var, h) + c_w)
    return out


def dof_report(semi: SemiDataset, params: PriorNetParams, model: MeasModel) -> dict:
    """Constraint-counting diagnostics: parameter count versus data constraints."""
    parent = semi.parent
    t = parent.measurements.shape[1]
    n_theta = params.num_params()
    unsup_constraints = model.n * len(parent) * t
    sup_constraints = model.m * semi.n_labelled * t
    return {
        "n_params": n_theta,
        "n_items": len(parent),
        "n_labelled": semi.n_labelled,
        "n_unlabelled": semi.n_unlabelled,
        "unsup_constraints": unsup_constraints,
        "sup_constraints": sup_constraints,
        "total_constraints": unsup_constraints + sup_constraints,
        "unsup_constraints_per_param": unsup_constraints / n_theta,
        "total_constraints_per_param": (unsup_constraints + sup_constraints) / n_theta,
    }
