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

from .dataset import SemiDataset, validation_mask
from .exceptions import DimensionError, NumericError, SingularityError, TrainingError
from .measurement import MeasModel
from .numerics import GaussianBelief, SeededRng, psd_repair, symmetrize
from .prior_net import (
    NetDims,
    PriorNetParams,
    PriorOutput,
    backward_batch,
    forward_batch,
    init_params,
)

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class PosteriorTerms:
    """Gain, innovation and innovation covariance of one posterior update."""

    gain: np.ndarray            # (m, n)
    innovation: np.ndarray      # (n,)
    innovation_cov: np.ndarray  # (n, n), symmetric PD


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


# ---------------------------------------------------------------------------
# Public per-trajectory operations.
# ---------------------------------------------------------------------------


def posterior_update(prior: PriorOutput, y: np.ndarray,
                     model: MeasModel) -> tuple[GaussianBelief, PosteriorTerms]:
    """Closed-form Gaussian posterior given the prior and one measurement.

    mean = m + K eps, cov = L - K R K^T with K = L H^T R^{-1},
    R = H L H^T + C_w, eps = y - H m. The returned covariance is symmetrized
    and PSD-repaired; the raw subtraction can lose PSD by rounding.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (model.n,):
        raise DimensionError(f"y shape {y.shape} does not match model n {model.n}")
    mean = prior.mean[None, None, :]
    var = prior.diag_cov[None, None, :]
    mu, sigma, k_mat, r, _, eps = _posterior_moments(mean, var, model.h, model.c_w, y[None, None, :])
    belief = GaussianBelief(mu[0, 0], psd_repair(sigma[0, 0]))
    terms = PosteriorTerms(gain=k_mat[0, 0], innovation=eps[0, 0],
                           innovation_cov=symmetrize(r[0, 0]))
    return belief, terms


def predictive_loglik(prior: PriorOutput, y: np.ndarray, model: MeasModel) -> float:
    """log N(y; H m, C_w + H L H^T) -- the one-step measurement predictive density."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (model.n,):
        raise DimensionError(f"y shape {y.shape} does not match model n {model.n}")
    mean = prior.mean[None, None, :]
    var = prior.diag_cov[None, None, :]
    nll, _, _ = _unsup_terms(mean, var, model.h, model.c_w, y[None, None, :], want_grads=False)
    return float(-nll[0])


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


def _group_by_length(items: list[BatchItem]) -> list[list[int]]:
    groups: dict[int, list[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault(item.measurements.shape[0], []).append(i)
    return [groups[t] for t in sorted(groups)]


def _batch_loss_and_grads(params: PriorNetParams, items: list[BatchItem],
                          model: MeasModel, want_grads: bool):
    """Loss (and gradients) of a mixed labelled/unlabelled batch.

    Items are grouped by trajectory length and each group is processed with
    one batched forward/backward pass; gradients are accumulated in a fixed
    group order so results are reproducible.
    """
    h, c_w = model.h, model.c_w
    total = 0.0
    grads = None
    for group in _group_by_length(items):
        ys = np.stack([np.asarray(items[i].measurements, dtype=np.float64) for i in group])
        labelled = np.array([items[i].labelled for i in group], dtype=bool)
        mean, var, cache = forward_batch(params, ys)
        nll_u, g_mean, g_var = _unsup_terms(mean, var, h, c_w, ys, want_grads)
        total += float(nll_u.sum())
        if want_grads:
            g_mean = g_mean.copy()
            g_var = g_var.copy()
        if np.any(labelled):
            xs = np.stack([
                np.asarray(items[i].states, dtype=np.float64)
                for i in group if items[i].labelled
            ])
            nll_s, gs_mean, gs_var = _sup_terms(
                mean[labelled], var[labelled], h, c_w, ys[labelled], xs, want_grads
            )
            total += float(nll_s.sum())
            if want_grads:
                g_mean[labelled] += gs_mean
                g_var[labelled] += gs_var
        if want_grads:
            group_grads = backward_batch(params, cache, g_mean, g_var)
            if grads is None:
                grads = group_grads
            else:
                for k in grads.arrays:
                    grads.arrays[k] += group_grads.arrays[k]
    if want_grads and grads is None:
        raise ValueError("empty batch")
    return total, grads


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    """Optimizer schedule and seeds.

    The learning rate starts at `learning_rate` and is multiplied by
    `lr_decay` every `decay_every` epochs (default: max_epochs // 6). Early
    stopping watches the validation metric with the given patience and
    absolute minimum improvement.
    """

    batch_size: int = 64
    max_epochs: int = 2000
    learning_rate: float = 5e-4
    lr_decay: float = 0.9
    decay_every: int | None = None
    patience: int = 50
    min_delta: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 10.0
    init_seed: int = 1234
    shuffle_seed: int = 5678

    def __post_init__(self):
        if min(self.batch_size, self.max_epochs) < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")
        if min(self.learning_rate, self.lr_decay) <= 0:
            raise ValueError("learning-rate settings must be positive")

    @property
    def effective_decay_every(self) -> int:
        if self.decay_every is not None:
            return max(1, self.decay_every)
        return max(1, self.max_epochs // 6)


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


def _validation_metric(params: PriorNetParams, model: MeasModel,
                       val_labelled: list[tuple[np.ndarray, np.ndarray]],
                       val_measurements: list[np.ndarray]) -> float:
    """State-estimation MSE on labelled validation pairs.

    Falls back to the mean per-trajectory predictive NLL when the validation
    set carries no labels (fully unsupervised runs).
    """
    if val_labelled:
        sq_sum = 0.0
        count = 0
        for xs, ys in val_labelled:
            out = infer_batch(params, ys[None], model)
            sq_sum += float(np.sum((out.means[0] - xs) ** 2))
            count += xs.size
        return sq_sum / count
    total = 0.0
    for ys in val_measurements:
        total += total_loss(params, [BatchItem(ys)], model)
    return total / len(val_measurements)


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
    val_idx = [i for i in range(len(parent)) if val_mask[i]]
    if not val_idx:
        raise TrainingError(
            f"validation hold-out is empty for a training set of {len(parent)} items; "
            "early stopping needs at least one validation trajectory"
        )
    val_labelled = [
        (parent.states[i], parent.measurements[i]) for i in val_idx if i in labelled_set
    ]
    val_measurements = [parent.measurements[i] for i in val_idx]

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
    adam = Adam(theta.size, cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    shuffle = SeededRng(cfg.shuffle_seed)

    result = TrainResult(params=params.copy())
    decay_every = cfg.effective_decay_every
    epochs_since_best = 0
    for epoch in range(cfg.max_epochs):
        lr = cfg.learning_rate * cfg.lr_decay ** (epoch // decay_every)
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
            grad_vec = clip_by_global_norm(grads.to_vector(), cfg.clip_norm)
            theta = adam.step(theta, grad_vec)
            params = params.from_vector(theta)
            epoch_loss += loss
        val_metric = _validation_metric(params, model, val_labelled, val_measurements)
        result.log.append(
            {"epoch": epoch, "train_loss": epoch_loss, "val_metric": val_metric, "lr": lr}
        )
        if val_metric < result.best_val - cfg.min_delta:
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
    lengths = parent.lengths
    n_theta = params.num_params()
    unsup_constraints = model.n * sum(lengths)
    sup_constraints = model.m * sum(lengths[i] for i in semi.labelled_idx)
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
