"""Linear compressed measurement model y_t = H x_t + w_t and SMNR calibration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import CalibrationError, DimensionError, NumericError
from .numerics import SeededRng, as_matrix, covariance_factor, require_finite_steps

# The three measurement matrices used across the experiments.
DENSE_RANDOM_2X3 = "dense2x3"
PARTIAL_2OF3 = "partial23"
EXTREME_1OF3 = "extreme1"
BUILTIN_H_NAMES = (DENSE_RANDOM_2X3, PARTIAL_2OF3, EXTREME_1OF3)

_BUILTIN_H = {
    # 2x3 with i.i.d. standard-normal entries, drawn once and fixed.
    DENSE_RANDOM_2X3: np.array(
        [
            [0.37992, 0.34099, 1.04317],
            [0.98070, -0.70477, 2.17908],
        ]
    ),
    # Observe the second and third state components.
    PARTIAL_2OF3: np.array(
        [
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    ),
    # Observe only the first state component.
    EXTREME_1OF3: np.array([[1.0, 0.0, 0.0]]),
}


def builtin_h(name: str) -> np.ndarray:
    """Return a copy of one of the canonical measurement matrices."""
    if name not in _BUILTIN_H:
        raise ValueError(f"unknown builtin H {name!r}; expected one of {BUILTIN_H_NAMES}")
    return _BUILTIN_H[name].copy()


@dataclass(frozen=True)
class MeasModel:
    """Known linear measurement system: H and the noise covariance C_w."""

    h: np.ndarray
    c_w: np.ndarray

    def __post_init__(self):
        h = as_matrix(self.h, "H")
        c_w = as_matrix(self.c_w, "C_w")
        n = h.shape[0]
        if c_w.shape != (n, n):
            raise DimensionError(f"C_w shape {c_w.shape} does not match H rows {n}")
        if np.abs(c_w - c_w.T).max() > 1e-12 * max(1.0, np.abs(c_w).max()):
            raise NumericError("measurement noise covariance C_w is not symmetric")
        if np.linalg.eigvalsh(c_w).min() < -1e-10:
            raise NumericError("C_w must be PSD")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "c_w", c_w)

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @property
    def m(self) -> int:
        return self.h.shape[1]

    @classmethod
    def isotropic(cls, h: np.ndarray, sigma_w2: float) -> "MeasModel":
        h = as_matrix(h, "H")
        return cls(h, sigma_w2 * np.eye(h.shape[0]))


def measure_states(states: np.ndarray, model: MeasModel, seeds: list[int]) -> np.ndarray:
    """Noisy (N, T, n) measurements of raw (N, T, 3) states; item i's noise uses seeds[i]."""
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 3 or states.shape[2] != model.m or len(seeds) != len(states):
        raise DimensionError(f"states shape {states.shape} and {len(seeds)} seeds are "
                             f"incompatible with (N, T, {model.m}) and N seeds")
    require_finite_steps(states, "state x")
    ys = states @ model.h.T
    factor = covariance_factor(model.c_w)
    for y, seed in zip(ys, seeds):
        y += SeededRng(seed).standard_normal(y.shape) @ factor.T
    require_finite_steps(ys, "measurement y")
    return ys


def _signal_powers(states: list[np.ndarray] | np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per-trajectory centered second moments of {H x_t} over time.

    `states` holds (T, 3) trajectories: a list, or a (B, T, 3) array. Both
    SMNR directions share this check: an empty input, or a trajectory with
    zero signal variance under H, is a CalibrationError.
    """
    if len(states) == 0:
        raise CalibrationError("no trajectories supplied")
    powers = np.empty(len(states))
    for j, x in enumerate(states):
        hx = np.asarray(x, dtype=np.float64) @ h.T
        centered = hx - hx.mean(axis=0)
        powers[j] = np.mean(np.sum(centered**2, axis=1))
    if np.any(powers <= 0.0):
        raise CalibrationError("a trajectory has zero signal variance under H")
    return powers


def calibrate_sigma_w(states: list[np.ndarray] | np.ndarray, h: np.ndarray,
                      target_smnr_db: float) -> float:
    """Invert the empirical SMNR for the noise variance sigma_w2.

    The per-trajectory SMNR is 10 log10 of the centered sample second moment of
    {H x_t} over n * sigma_w2; the average over trajectories is set equal to
    `target_smnr_db` and solved in closed form. A non-finite target (NaN would give a
    NaN variance, +inf a noise-free model) is a CalibrationError.
    """
    h = as_matrix(h, "H")
    if not np.isfinite(target_smnr_db):
        raise CalibrationError(f"target SMNR {target_smnr_db!r} dB is not finite")
    powers = _signal_powers(states, h)
    mean_log_power = float(np.mean(np.log10(powers)))
    return 10.0 ** (mean_log_power - target_smnr_db / 10.0) / h.shape[0]


def empirical_smnr_db(states: list[np.ndarray] | np.ndarray, h: np.ndarray,
                      sigma_w2: float) -> float:
    """Empirical SMNR in dB for noise variance sigma_w2 on the given trajectories."""
    h = as_matrix(h, "H")
    if not np.isfinite(sigma_w2):
        raise CalibrationError(f"sigma_w2 {sigma_w2!r} is not finite")
    if sigma_w2 <= 0.0:
        raise CalibrationError("sigma_w2 must be positive")
    powers = _signal_powers(states, h)
    return float(np.mean(10.0 * np.log10(powers / (h.shape[0] * sigma_w2))))
