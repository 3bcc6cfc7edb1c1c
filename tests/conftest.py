"""Shared fixtures and independent test oracles.

Oracles here are deliberately separate code paths from the library: the
matrix-exponential oracle uses scaling-and-squaring, the Kalman filter oracle
is a straight-line textbook implementation, Gaussian conditioning inverts the
joint covariance's measurement block explicitly, and Gaussian densities are
checked against an explicit-inverse formula. `LinearProcess` reduces the
library's EKF and UKF to that Kalman filter. `GaussianBelief` is the
oracles' belief type. The helpers after the oracles serve tests only.
"""

import configparser
import io
from dataclasses import dataclass

import numpy as np
import pytest

from semidanse.dataset import PairedDataset
from semidanse.exceptions import DimensionError, NumericError, SingularityError
from semidanse.harness import ExperimentConfig
from semidanse.measurement import measure_states
from semidanse.numerics import PSD_CLAMP_FLOOR, as_matrix, symmetrize
from semidanse.prior_net import NetDims, PriorNetParams, param_shapes
from semidanse.serialize import write_atomic


@dataclass(frozen=True)
class GaussianBelief:
    """Gaussian over a d-dimensional quantity: mean vector plus covariance."""

    mean: np.ndarray
    cov: np.ndarray

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
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", symmetrize(cov))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def matexp_oracle(a: np.ndarray, order: int = 20) -> np.ndarray:
    """High-accuracy matrix exponential: scale so ||A/2^s|| < 1/4, Taylor to
    `order`, then square s times."""
    a = np.asarray(a, dtype=np.float64)
    norm = np.linalg.norm(a, 2)
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.25))))
    m = a / 2.0**s
    term = np.eye(a.shape[0])
    out = np.eye(a.shape[0])
    for k in range(1, order + 1):
        term = term @ m / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def kf_oracle(ys, f, q, h, r, x0_mean, x0_cov):
    """Textbook Kalman filter; initial belief describes the first state."""
    x = np.asarray(x0_mean, dtype=np.float64).copy()
    p = np.asarray(x0_cov, dtype=np.float64).copy()
    means, covs = [], []
    for t in range(len(ys)):
        if t > 0:
            x = f @ x
            p = f @ p @ f.T + q
        s = h @ p @ h.T + r
        k = p @ h.T @ np.linalg.inv(s)
        x = x + k @ (ys[t] - h @ x)
        p = (np.eye(len(x)) - k @ h) @ p
        means.append(x.copy())
        covs.append(0.5 * (p + p.T))
    return np.array(means), np.array(covs)


@dataclass(frozen=True)
class LinearProcess:
    """x_{t+1} = F x_t + e_t: a process model on which both filters reduce to the KF."""

    f_matrix: np.ndarray
    process_noise_cov: np.ndarray

    def transition_batch(self, xs: np.ndarray) -> np.ndarray:
        return xs @ np.asarray(self.f_matrix).T


def gaussian_log_density(x, belief: GaussianBelief) -> float:
    """log N(x; mean, cov) through a Cholesky solve; the covariance must be positive definite."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != belief.mean.shape:
        raise DimensionError(f"x shape {x.shape} does not match belief dim {belief.dim}")
    d = belief.dim
    delta = x - belief.mean
    try:
        chol = np.linalg.cholesky(belief.cov)
    except np.linalg.LinAlgError as exc:
        raise NumericError("covariance is not positive definite") from exc
    sol = np.linalg.solve(chol, delta)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return float(-0.5 * (d * np.log(2.0 * np.pi) + logdet + sol @ sol))


def gaussian_logpdf_oracle(x, mean, cov) -> float:
    """Explicit-inverse log density, independent of the library's solve path."""
    x = np.asarray(x, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    d = len(x)
    delta = x - mean
    inv = np.linalg.inv(cov)
    det = np.linalg.det(cov)
    return float(-0.5 * (d * np.log(2 * np.pi) + np.log(det) + delta @ inv @ delta))


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


def random_psd(rng: np.random.Generator, dim: int, eig_lo: float = 0.1,
               eig_hi: float = 3.0) -> np.ndarray:
    """Random symmetric PD matrix with eigenvalues in [eig_lo, eig_hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = rng.uniform(eig_lo, eig_hi, size=dim)
    return 0.5 * ((q * eigs) @ q.T + ((q * eigs) @ q.T).T)


def measure_b1(states: np.ndarray, model, seed: int) -> np.ndarray:
    """(T, n) measurements of one (T, m) trajectory: the B = 1 case of measure_states."""
    return measure_states(np.asarray(states)[None], model, [seed])[0]


def zeros_params(dims: NetDims) -> PriorNetParams:
    return PriorNetParams(dims, {k: np.zeros(s) for k, s in param_shapes(dims).items()})


def datasets_equal(a: PairedDataset, b: PairedDataset) -> bool:
    """Bitwise structural equality (arrays, seeds, metadata)."""
    return (a.item_seeds == b.item_seeds and a.meta == b.meta
            and np.array_equal(a.states, b.states)
            and np.array_equal(a.measurements, b.measurements))


# The sections of configs/*.cfg; `load_config` reads a key in any section.
CONFIG_SECTIONS = {
    "experiment": ("system", "h_name", "smnr_db", "kappa", "methods"),
    "data": ("n_train", "t_train", "n_test", "t_test", "process_noise_db",
             "process_noise_mode", "smnr_convention", "rossler_epsilon", "burn_in"),
    "train": ("batch_size", "max_epochs", "learning_rate", "patience"),
    "filters": ("ukf_alpha", "ukf_beta", "ukf_kappa", "filter_init"),
    "seeds": ("train_seed", "test_seed", "split_seed", "init_seed", "shuffle_seed",
              "filter_init_seed", "calibration_seed"),
    "output": ("output_dir", "data_dir"),
}


def save_config(cfg: ExperimentConfig, path: str) -> None:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    for section, names in CONFIG_SECTIONS.items():
        parser[section] = {}
        for name in names:
            value = getattr(cfg, name)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            parser[section][name] = str(value)
    text = io.StringIO()
    parser.write(text)
    write_atomic(path, text.getvalue())


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def taylor_matrices(monkeypatch):
    """Counts the matrices each dynamics.taylor_matrix_exp call evaluates, in call order."""
    from semidanse import dynamics

    counts = []
    inner = dynamics.taylor_matrix_exp

    def counted(a, order=5):
        counts.append(a.shape[0])
        return inner(a, order)

    monkeypatch.setattr(dynamics, "taylor_matrix_exp", counted)
    return counts
