"""Closed-form posterior updates, maximum-likelihood losses, trainer, inference.

The learned prior network proposes a Gaussian prior (mean, diagonal cov) per
time step; conditioning on the current linear measurement gives the posterior
in closed form via the gain/innovation equations. Training minimizes the sum
of a supervised posterior NLL over labelled trajectories and an unsupervised
predictive-measurement NLL over all trajectories. Gradients flow through both
the prior and the gain terms; there is no stop-gradient anywhere.

Losses, training and inference run on (B, T, ...) batches through prior_net's
batched forward/backward; a single trajectory is the B = 1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import PairedDataset, SemiDataset, validation_mask
from .exceptions import NumericError, SingularityError, TrainingError
from .measurement import MeasModel
from .numerics import SeededRng, psd_repair, symmetrize
from .prior_net import (
    NetDims,
    PriorNetParams,
    backward_batch,
    forward_batch,
    init_params,
)

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class BatchFilterOutput:
    """Batched causal estimates shared by the learned estimator and the filters.

    Full posterior and predictive-measurement covariances are kept only on
    request (`keep_full_covs=True`); otherwise they stay None.
    """

    means: np.ndarray            # (B, T, m) posterior means
    cov_diags: np.ndarray        # (B, T, m) posterior variances, clamped at 0
    pred_meas_means: np.ndarray  # (B, T, n) one-step predictive measurement means
    covs: np.ndarray | None = None            # (B, T, m, m) posterior covariances
    pred_meas_covs: np.ndarray | None = None  # (B, T, n, n) predictive measurement covs


# ---------------------------------------------------------------------------
# Batched innovation / posterior / loss kernels.
# ---------------------------------------------------------------------------


def _innovation(mean: np.ndarray, var: np.ndarray, h: np.ndarray, c_w: np.ndarray,
                ys: np.ndarray):
    """R = H diag(var) H^T + C_w and eps = y - H mean over (B, T) steps."""
    r = np.einsum("ik,btk,jk->btij", h, var, h) + c_w
    if not np.all(np.isfinite(r)):
        raise NumericError("non-finite innovation covariance (non-finite inputs?)")
    sign, logdet = np.linalg.slogdet(r)
    if not np.all(sign > 0):
        raise SingularityError("innovation covariance is singular or indefinite")
    r_inv = np.linalg.inv(r)
    eps = ys - mean @ h.T
    return r, r_inv, logdet, eps


def _unsup_terms(mean, var, h, c_w, ys, want_grads: bool):
    """Per-item predictive NLL and its gradients wrt the prior mean/variance."""
    n = h.shape[0]
    _, r_inv, logdet, eps = _innovation(mean, var, h, c_w, ys)
    b_vec = np.einsum("btij,btj->bti", r_inv, eps)
    quad = np.einsum("bti,bti->bt", eps, b_vec)
    nll = 0.5 * np.sum(n * _LOG_2PI + logdet + quad, axis=1)
    if not want_grads:
        return nll, None, None
    g_mean = -(b_vec @ h)
    g_r = 0.5 * (r_inv - np.einsum("bti,btj->btij", b_vec, b_vec))
    g_var = np.einsum("ik,btij,jk->btk", h, g_r, h)
    return nll, g_mean, g_var


def _posterior_moments(mean, var, h, c_w, ys):
    """Posterior mean/covariance for every (item, t); returns the full cache."""
    r, r_inv, logdet_r, eps = _innovation(mean, var, h, c_w, ys)
    # K = diag(var) H^T R^{-1}
    a_mat = var[..., :, None] * h.T[None, None, :, :]
    k_mat = a_mat @ r_inv
    mu = mean + np.einsum("btki,bti->btk", k_mat, eps)
    krk = np.einsum("btki,btij,btlj->btkl", k_mat, r, k_mat)
    m = var.shape[-1]
    sigma = -krk
    idx = np.arange(m)
    sigma[..., idx, idx] += var
    sigma = symmetrize(sigma)
    return mu, sigma, k_mat, r, r_inv, eps


def _sup_terms(mean, var, h, c_w, ys, xs, want_grads: bool):
    """Per-item posterior NLL of the true states and gradients wrt the prior."""
    m = var.shape[-1]
    mu, sigma, k_mat, r, r_inv, eps = _posterior_moments(mean, var, h, c_w, ys)
    sign, logdet = np.linalg.slogdet(sigma)
    if np.any(sign <= 0):
        raise NumericError("posterior covariance is not positive definite")
    sigma_inv = np.linalg.inv(sigma)
    delta = xs - mu
    a_vec = np.einsum("btkl,btl->btk", sigma_inv, delta)
    quad = np.einsum("btk,btk->bt", delta, a_vec)
    nll = 0.5 * np.sum(m * _LOG_2PI + logdet + quad, axis=1)
    if not want_grads:
        return nll, None, None

    g_sigma = 0.5 * (sigma_inv - np.einsum("btk,btl->btkl", a_vec, a_vec))
    g_mu = -a_vec
    # K receives gradient from the posterior mean and from Sigma = D - K R K^T.
    kr = np.einsum("btki,btij->btkj", k_mat, r)
    g_k = np.einsum("btk,bti->btki", g_mu, eps) - 2.0 * np.einsum("btkl,btli->btki", g_sigma, kr)
    # R receives gradient directly from Sigma and through K = diag(var) H^T R^{-1}.
    kt_gs = np.einsum("btki,btkl->btil", k_mat, g_sigma)
    g_r = -np.einsum("btil,btlj->btij", kt_gs, k_mat)
    kt_gk = np.einsum("btki,btkj->btij", k_mat, g_k)
    g_r = g_r - np.einsum("btij,btjl->btil", kt_gk, r_inv)

    g_eps = np.einsum("btki,btk->bti", k_mat, g_mu)
    g_mean = g_mu - g_eps @ h
    m_mat = np.einsum("jk,btji->btki", h, r_inv)  # H^T R^{-1}
    g_var = (
        np.einsum("btkk->btk", g_sigma)
        + np.einsum("btki,btki->btk", g_k, m_mat)
        + np.einsum("ik,btij,jk->btk", h, g_r, h)
    )
    return nll, g_mean, g_var


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


def unsup_objective(params: PriorNetParams, measurements: list[np.ndarray],
                    model: MeasModel) -> float:
    """The purely unsupervised objective: summed predictive NLL over trajectories."""
    items = [BatchItem(measurements=y) for y in measurements]
    loss, _ = _batch_loss_and_grads(params, items, model, want_grads=False)
    return loss


def _batch_loss_and_grads(params: PriorNetParams, items: list[BatchItem],
                          model: MeasModel, want_grads: bool):
    """Loss (and gradients) of a mixed labelled/unlabelled batch in one batched pass.

    The items share one trajectory length, as the items of a PairedDataset do.
    """
    if not items:
        raise ValueError("empty batch")
    h, c_w = model.h, model.c_w
    ys = np.stack([np.asarray(item.measurements, dtype=np.float64) for item in items])
    labelled = np.array([item.labelled for item in items], dtype=bool)
    mean, var, cache = forward_batch(params, ys)
    nll_u, g_mean, g_var = _unsup_terms(mean, var, h, c_w, ys, want_grads)
    total = float(nll_u.sum())
    if np.any(labelled):
        xs = np.stack([np.asarray(item.states, dtype=np.float64) for item in items if item.labelled])
        nll_s, gs_mean, gs_var = _sup_terms(
            mean[labelled], var[labelled], h, c_w, ys[labelled], xs, want_grads
        )
        total += float(nll_s.sum())
        if want_grads:
            g_mean[labelled] += gs_mean
            g_var[labelled] += gs_var
    grads = backward_batch(params, cache, g_mean, g_var) if want_grads else None
    return total, grads


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
                loss, grads = _batch_loss_and_grads(params, batch, model, want_grads=True)
            except (NumericError, ValueError) as exc:
                raise TrainingError(
                    f"loss evaluation failed: {exc} (epoch {epoch}, "
                    f"batch {b_start // cfg.batch_size}, "
                    f"parameter norm {float(np.linalg.norm(theta)):.3e})",
                    epoch=epoch, batch=b_start // cfg.batch_size,
                ) from exc
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss {loss} (epoch {epoch}, batch {b_start // cfg.batch_size}, "
                    f"parameter norm {float(np.linalg.norm(theta)):.3e})",
                    epoch=epoch, batch=b_start // cfg.batch_size,
                )
            grad_vec = clip_by_global_norm(grads.to_vector(), CLIP_NORM)
            theta = adam.step(theta, grad_vec)
            params = params.from_vector(theta)
            epoch_loss += loss
        val_metric = _validation_metric(params, model, parent, val_idx, val_labelled_idx)
        result.log.append(
            {"epoch": epoch, "train_loss": epoch_loss, "val_metric": val_metric, "lr": lr}
        )
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

    With `keep_full_covs` the result also carries the PSD-repaired posterior
    covariances and the predictive measurement covariances R = H L H^T + C_w.
    """
    ys = np.asarray(ys, dtype=np.float64)
    mean, var, _ = forward_batch(params, ys)
    mu, sigma, _, r, _, _ = _posterior_moments(mean, var, model.h, model.c_w, ys)
    diag = np.einsum("btkk->btk", sigma)
    return BatchFilterOutput(
        means=mu,
        cov_diags=np.maximum(diag, 0.0),
        pred_meas_means=mean @ model.h.T,
        covs=psd_repair(sigma) if keep_full_covs else None,
        pred_meas_covs=symmetrize(r) if keep_full_covs else None,
    )


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
