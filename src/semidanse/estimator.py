"""Closed-form posterior updates, maximum-likelihood losses, trainer, inference.

The learned prior network proposes a Gaussian prior (mean, diagonal cov) per
time step; conditioning on the current linear measurement gives the posterior
in closed form, in information form: one Cholesky factor of the precision
J = diag(1/var) + H^T C_w^{-1} H, positive definite by construction, gives the
posterior mean, covariance and density. Training minimizes a supervised
posterior NLL over labelled trajectories plus an unsupervised predictive-
measurement NLL over all trajectories, both with closed-form gradients wrt the
prior; there is no stop-gradient anywhere.

Every (item, t) has its own small matrices, factored on planes by
`numerics._factor` and `_solve` (the plane layout is described there); these
kernels are exact per row, so each (item, t) gets the same bits whatever the
batch. The network's matmuls are not: BLAS rounds the last B mod 4 rows of a
B-row product in an edge kernel, so a B = 1 call need not reproduce a row of a
batched one. Inference runs every matmul once per step on the B rows, so each
estimate's bits depend only on y_{1:t} and B: a prefix of the measurements gives
the prefix of the estimates, bit for bit.

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
from .numerics import (BatchFilterOutput, SeededRng, _factor, _sigma, _solve, require_finite_steps,
                       symmetrize)
from .prior_net import (
    NetDims,
    PriorNetParams,
    _heads_forward,
    _prior_blocks,
    backward_batch,
    forward_batch,
    init_params,
)

_LOG_2PI = math.log(2.0 * math.pi)
_EPS = np.finfo(np.float64).eps
BLOCK_STEPS = 16  # time steps per block of streamed inference; it changes no bit


# ---------------------------------------------------------------------------
# Batched posterior / loss kernels.
# ---------------------------------------------------------------------------


def _unsup_terms(mean, var, h, c_w, ys, want_grads: bool):
    """Per-item predictive NLL and its gradients wrt the prior mean/variance.

    With R = H diag(var) H^T + C_w = L_R L_R^T, z = L_R^{-1} eps and W = L_R^{-1} H give
    eps^T R^{-1} eps = |z|^2, H^T R^{-1} eps = W^T z and diag(H^T R^{-1} H) = (W * W).sum(-2).
    """
    if not np.all((var > 0.0) & (var < np.inf)):  # also False for NaN
        raise NumericError("prior variance is not positive and finite (softplus underflow?)")
    n = h.shape[0]
    l = _factor([[var @ (h[i] * h[j]) + c_w[i, j] for j in range(i + 1)] for i in range(n)],
                "innovation covariance R")
    eps = ys - mean @ h.T
    z = _solve(l, [eps[..., i] for i in range(n)])
    logdet = 2.0 * sum(np.log(l[i][i]) for i in range(n))
    nll = 0.5 * np.sum(n * _LOG_2PI + logdet + sum(zi * zi for zi in z), axis=1)
    if not want_grads:
        return nll, None, None
    w = _solve([[p[..., None] for p in row] for row in l], h)   # rows of W, each (B, T, m)
    b_vec = sum(wi * zi[..., None] for wi, zi in zip(w, z))
    return nll, -b_vec, 0.5 * (sum(wi * wi for wi in w) - b_vec * b_vec)


def _noise_terms(h, c_w):
    """The per-model constants of `_posterior`: C_w^{-1} H and H^T C_w^{-1} H, through the
    Cholesky factor L_w of C_w (W = L_w^{-1} H); refuses a C_w singular to working precision."""
    l_w = _factor(c_w, "measurement noise covariance C_w")
    # A pivot at rounding level is an exact zero that rounding made positive.
    n = len(l_w)
    if any(l_w[i][i] ** 2 <= n * _EPS * c_w[i, i] for i in range(n)):
        raise SingularityError("measurement noise covariance C_w is singular to working precision")
    w = np.array(_solve(l_w, h))
    return np.array(_solve(l_w, w, transpose=True)), w.T @ w


def _posterior(mean, var, h, c_w, ys, noise=None):
    """Information-form posterior of every (item, t): mu (..., m) and the planes of L,
    in the (B, T) or time-major (T, B) layout of mean, var and ys.

    J = diag(1/var) + H^T C_w^{-1} H = L L^T is positive definite whenever var > 0
    and C_w is; Sigma = J^{-1} = L^{-T} L^{-1} and mu = Sigma (mean/var + H^T C_w^{-1} y).
    `noise` is `_noise_terms(h, c_w)` when the caller has it already.
    """
    with np.errstate(divide="ignore", over="ignore"):
        prec = 1.0 / var
    if not np.all((prec > 0.0) & (prec < np.inf)):  # var <= 0, inf, NaN or subnormal
        raise NumericError("prior variance is not positive, finite and invertible "
                           "(softplus underflow?)")
    m, (cinv_h, info) = var.shape[-1], _noise_terms(h, c_w) if noise is None else noise
    eta = [mean[..., k] * prec[..., k] for k in range(m)]          # + (y^T C_w^{-1} H)_k
    for (i, k), c in np.ndenumerate(cinv_h):
        eta[k] += ys[..., i] * c
    l = _factor([[info[i, j] + (prec[..., i] if i == j else 0.0) for j in range(i + 1)]
                 for i in range(m)], "posterior precision J")
    return np.stack(_solve(l, _solve(l, eta), transpose=True), axis=-1), l


def _sup_terms(mean, var, h, c_w, ys, xs, want_grads: bool):
    """Per-item posterior NLL of the true states and its closed-form prior gradients."""
    mu, l = _posterior(mean, var, h, c_w, ys)
    m = len(l)
    delta = xs - mu
    lt_delta = [sum(l[i][k] * delta[..., i] for i in range(k, m)) for k in range(m)]  # L^T (x - mu)
    logdet = 2.0 * sum(np.log(l[k][k]) for k in range(m))
    nll = 0.5 * np.sum(m * _LOG_2PI - logdet + sum(v * v for v in lt_delta), axis=1)
    if not want_grads:
        return nll, None, None
    # 1/var**2 overflows for var below ~1e-154, where 1/var is still finite
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        g_var = -0.5 * ((xs - mean) ** 2 - (mu - mean) ** 2 - _sigma(l, full=False)) / var**2
    if not np.all(np.isfinite(g_var)):
        raise NumericError("prior variance is too small: the supervised gradient wrt it overflows")
    return nll, -delta / var, g_var


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
    """Standard Adam over the flattened parameter vector, with ADAM_BETA1, ADAM_BETA2 and
    ADAM_EPS."""

    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * grad**2
        m_hat = self.m / (1.0 - ADAM_BETA1**self.t)
        v_hat = self.v / (1.0 - ADAM_BETA2**self.t)
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def clip_by_global_norm(grad: np.ndarray) -> np.ndarray:
    """`grad` scaled down to a global norm of CLIP_NORM when it is longer."""
    norm = float(np.linalg.norm(grad))
    if norm > CLIP_NORM:
        return grad * (CLIP_NORM / norm)
    return grad


@dataclass
class TrainResult:
    """The best-validation parameters, one log entry per epoch run, and why training stopped:
    "max_epochs" when the epoch budget ran out, "patience" when early stopping fired."""

    params: PriorNetParams
    log: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val: float = math.inf
    stop_reason: str = "max_epochs"


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
    try:  # once, by dataset index: a batch would name its own reordered index
        require_finite_steps(parent.measurements, "measurement y")
    except NumericError as exc:
        raise TrainingError(f"training data rejected: {exc} (before epoch 0, batch 0)",
                            epoch=0, batch=0) from exc

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
    adam = Adam(theta.size, cfg.learning_rate)
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
                # PriorNetParams names a non-finite gradient block; an overflowing
                # norm would make the clip scale the step by 10/inf = 0.
                grad_vec = grads.to_vector()
                if not np.isfinite(np.linalg.norm(grad_vec)):
                    raise NumericError("gradient norm overflows")
            except ValueError as exc:  # NumericError, SingularityError, LinAlgError
                raise TrainingError(
                    f"training step failed: {exc} (epoch {epoch}, "
                    f"batch {b_start // cfg.batch_size}, "
                    f"parameter norm {float(np.linalg.norm(theta)):.3e})",
                    epoch=epoch, batch=b_start // cfg.batch_size,
                ) from exc
            grad_vec = clip_by_global_norm(grad_vec)
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
                result.stop_reason = "patience"
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

    Streams BLOCK_STEPS-step blocks of the recurrence's time-major (T_blk, B, h) states
    through the heads and the information-form posterior (`_posterior`) into the outputs,
    which it writes through time-major views; no array but ys and the outputs spans all T
    steps, and a block's working set (network state, priors, posterior planes) grows with B
    and BLOCK_STEPS, not with T. Every matmul runs once per step on the B rows, so an
    estimate's bits depend only on y_{1:t} and B, and BLOCK_STEPS changes no bit. The output
    keeps the fields `BatchFilterOutput.empty` gives for `keep_full_covs`, so only with it
    are the forecasts H mean and the covariances Sigma = L^{-T} L^{-1} and
    R = H diag(var) H^T + C_w formed.
    """
    ys, h, c_w = np.asarray(ys, dtype=np.float64), model.h, model.c_w
    out = BatchFilterOutput.empty(ys.shape[:2], model.m, model.n, keep_full_covs)
    means = out.means.swapaxes(0, 1)  # time-major views of the outputs
    if keep_full_covs:
        forecasts, covs, forecast_covs = (a.swapaxes(0, 1) for a in (
            out.pred_meas_means, out.covs, out.pred_meas_covs))
    noise, ws = _noise_terms(h, c_w), {}
    for t0, hidden, _, _ in _prior_blocks(params, ys, BLOCK_STEPS, ws):
        span = slice(t0, t0 + len(hidden))
        mean, var, *_ = _heads_forward(params, hidden, ws)
        mu, l = _posterior(mean, var, h, c_w, ys[:, span].swapaxes(0, 1), noise)
        means[span] = mu
        if keep_full_covs:
            forecasts[span] = mean @ h.T
            covs[span] = _sigma(l, full=True)
            forecast_covs[span] = symmetrize(np.einsum("ik,tbk,jk->tbij", h, var, h) + c_w)
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
