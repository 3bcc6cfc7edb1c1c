"""Shared fixtures and independent test oracles.

Oracles here are deliberately separate code paths from the library: the
matrix-exponential oracle uses scaling-and-squaring, the Kalman filter oracle
is a straight-line textbook implementation, and Gaussian densities are checked
against an explicit-inverse formula.
"""

import numpy as np
import pytest

from semidanse.measurement import measure_states


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


def random_psd(rng: np.random.Generator, dim: int, eig_lo: float = 0.1,
               eig_hi: float = 3.0) -> np.ndarray:
    """Random symmetric PD matrix with eigenvalues in [eig_lo, eig_hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = rng.uniform(eig_lo, eig_hi, size=dim)
    return 0.5 * ((q * eigs) @ q.T + ((q * eigs) @ q.T).T)


def measure_b1(states: np.ndarray, model, seed: int) -> np.ndarray:
    """(T, n) measurements of one (T, m) trajectory: the B = 1 case of measure_states."""
    return measure_states(np.asarray(states)[None], model, [seed])[0]


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
