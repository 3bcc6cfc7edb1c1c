"""Discrete-time simulation of the three chaotic benchmark processes.

Each process evolves as x_{t+1} = F(x_t) x_t + e_t where F(x) is the
truncated-Taylor matrix exponential of a state-dependent drift generator
A(x) times the step size, and e_t is i.i.d. Gaussian process noise.
Finer-stepped systems (Chen, Rossler) are simulated at their native step
size and decimated down to the reference temporal resolution.

The filters evaluate f at point groups whose points mostly differ only in
coordinates that A(x) does not read; `transition_batch` computes one F per
distinct generator input within each row's group, which changes no bit of any
output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import CalibrationError, DimensionError, DivergenceError, SingularityError
from .numerics import SeededRng, covariance_factor, require_covariance, taylor_matrix_exp

STATE_DIM = 3

LORENZ63 = "lorenz63"
CHEN = "chen"
ROSSLER = "rossler"
SYSTEMS = (LORENZ63, CHEN, ROSSLER)

# Native step sizes (seconds) and decimation factors relative to the
# reference 0.02 s resolution.
_STEP_SIZE = {LORENZ63: 0.02, CHEN: 0.002, ROSSLER: 0.008}
_DECIMATION = {LORENZ63: 1.0, CHEN: 10.0, ROSSLER: 2.5}

# State coordinates that each drift generator A(x) reads (see drift_generator_batch).
GENERATOR_READS = {LORENZ63: [0], CHEN: [0], ROSSLER: [0, 2]}

# |x3| at or below this makes the Rossler generator's 0.2/x3 entry unusable.
ROSSLER_X3_GUARD = 1e-6

DIVERGENCE_LIMIT = 1e6

DEFAULT_INITIAL_STATE = np.array([1.0, 1.0, 1.0])


@dataclass(frozen=True)
class SsmSpec:
    """One chaotic-system specification: drift family, step size, noise."""

    system: str
    step_size: float
    process_noise_cov: np.ndarray
    decimation_factor: float = 1.0
    rossler_epsilon: float | None = None

    def __post_init__(self):
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}; expected one of {SYSTEMS}")
        if self.step_size < 0:
            raise ValueError("step_size must be >= 0")
        if self.decimation_factor <= 0:
            raise ValueError("decimation_factor must be positive")
        if (self.rossler_epsilon is not None) != (self.system == ROSSLER):
            raise ValueError("rossler_epsilon is required for rossler and forbidden otherwise")
        if self.rossler_epsilon is not None:
            require_rossler_epsilon(self.rossler_epsilon)
        cov = require_covariance(self.process_noise_cov, "process_noise_cov", STATE_DIM)
        object.__setattr__(self, "process_noise_cov", cov)

    def transition_batch(self, xs: np.ndarray) -> np.ndarray:
        """Deterministic one-step map f(x) = F(x) x for (B, 3) states or (B, P, 3) point groups.

        In a group (a filter's row plus its perturbed copies), a point whose
        GENERATOR_READS coordinates equal its own row's point 0 bit for bit (so +0.0 and
        -0.0 differ) reuses that row's point-0 F: outputs are bitwise the row-wise call's,
        a Lorenz or Chen group of 7 points needs 3 Taylor exponentials, and stacking
        groups of several filters into one call computes no more than the separate calls.
        """
        # the einsum's rounding depends on the memory layout of its operands
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        f = _group_drift_matrices(self, xs) if xs.ndim == 3 else drift_matrix_batch(self, xs)
        rows = xs.reshape(-1, STATE_DIM)
        return np.einsum("bij,bj->bi", f.reshape(-1, STATE_DIM, STATE_DIM), rows).reshape(xs.shape)


def require_rossler_epsilon(eps: float) -> None:
    """Rossler's x3 noise variance must be positive and finite (NaN is neither)."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"rossler_epsilon must be positive and finite, got {eps!r}")


def require_finite_db(name: str, db: float) -> None:
    """The process-noise dB rule of both noise modes: a CalibrationError naming `name`."""
    if not math.isfinite(db):
        raise CalibrationError(f"{name} {db!r} dB is not finite")


def require_sizes(burn_in: int, **counts: int) -> None:
    """The size rule of a simulation: each count of items or steps >= 1 and the burn-in >= 0,
    else a ValueError naming the first that is not by its keyword. `simulate_batch`,
    `dataset.generate` and the config apply it; it simulates nothing."""
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")


def make_spec(system: str, sigma_e2: float, rossler_epsilon: float = 1e-5) -> SsmSpec:
    """Spec with the canonical step size and decimation for the system.

    Process noise is sigma_e2 * I, except for Rossler where the third
    diagonal entry is the small constant `rossler_epsilon` (the truncated,
    reduced noise that keeps the 0.2/x3 term away from trouble).
    """
    if system == ROSSLER:
        cov = np.diag([sigma_e2, sigma_e2, rossler_epsilon])
        eps = rossler_epsilon
    else:
        cov = sigma_e2 * np.eye(STATE_DIM)
        eps = None
    return SsmSpec(
        system=system,
        step_size=_STEP_SIZE[system],
        process_noise_cov=cov,
        decimation_factor=_DECIMATION[system],
        rossler_epsilon=eps,
    )


# The constant entries of the Lorenz and Chen generators; both add -x1 at (1, 2) and x1 at (2, 1).
_CONSTANT_DRIFT = {LORENZ63: np.array([[-10.0, 10, 0], [28, -1, 0], [0, 0, -8 / 3]]),
                   CHEN: np.array([[-35.0, 35, 0], [-7, 28, 0], [0, 0, -3]])}


def drift_generator_batch(spec: SsmSpec, xs: np.ndarray) -> np.ndarray:
    """Continuous-time drift generators A(x) for (B, 3) states, as (B, 3, 3)."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != STATE_DIM:
        raise DimensionError(f"states must be (B, 3), got {xs.shape}")
    x1 = xs[:, 0]
    if spec.system in _CONSTANT_DRIFT:
        a = np.repeat(_CONSTANT_DRIFT[spec.system][None], len(xs), axis=0)
        a[:, 1, 2] = -x1
        a[:, 2, 1] = x1
    else:  # rossler
        a = np.zeros((len(xs), 3, 3))
        x3 = xs[:, 2]
        if np.any(np.abs(x3) <= ROSSLER_X3_GUARD):
            raise SingularityError(
                f"rossler drift undefined: |x3| <= {ROSSLER_X3_GUARD:g}"
            )
        a[:, 0, 1] = -1.0
        a[:, 0, 2] = -1.0
        a[:, 1, 0] = 1.0
        a[:, 1, 1] = 0.2
        a[:, 2, 2] = 0.2 / x3 + (x1 - 5.7)
    return a


def drift_matrix_batch(spec: SsmSpec, xs: np.ndarray) -> np.ndarray:
    """State transition matrices F(x) = taylor_exp(A(x) * step) for (B, 3) states."""
    a = drift_generator_batch(spec, xs)
    a *= spec.step_size
    return taylor_matrix_exp(a)


def _group_drift_matrices(spec: SsmSpec, xs: np.ndarray) -> np.ndarray:
    """F for (B, P, 3) point groups as (B * P, 3, 3), shared where a row's generator inputs agree."""
    if xs.shape[2:] != (STATE_DIM,):
        raise DimensionError(f"point groups must be (B, P, 3), got {xs.shape}")
    n_pts = xs.shape[1]
    key = xs[:, :, GENERATOR_READS[spec.system]].view(np.uint64)
    new = np.any(key != key[:, :1], axis=2)
    new[:, 0] = True
    new = new.ravel()
    pos = np.cumsum(new) - 1  # a new point's index among the new points
    src = np.where(new, pos, np.repeat(pos[::n_pts], n_pts))  # the others take their row's point 0
    rows = xs.reshape(-1, STATE_DIM).take(np.flatnonzero(new), axis=0)
    return drift_matrix_batch(spec, rows).take(src, axis=0)


def _raw_chain(spec: SsmSpec, chain: np.ndarray, noisy: bool) -> np.ndarray:
    """Lockstep simulation of B chains in place in `chain`, (B, raw_len, 3); returns it.

    On entry chain[:, 0] holds the initial states and, when `noisy`, chain[:, k]
    for k >= 1 holds the process noise e_k already scaled by the covariance
    factor. Step k reads e_k and then overwrites it with the state f(x) + e_k.
    """
    x = chain[:, 0]
    for k in range(1, chain.shape[1]):
        x = spec.transition_batch(x)
        if noisy:
            x = x + chain[:, k]
        if np.any(np.abs(x) > DIVERGENCE_LIMIT):
            bad = int(np.argmax(np.any(np.abs(x) > DIVERGENCE_LIMIT, axis=1)))
            raise DivergenceError(
                f"trajectory {bad} diverged at raw step {k} "
                f"(|coordinate| > {DIVERGENCE_LIMIT:g})",
                step_index=k,
            )
        chain[:, k] = x
    return chain


def _raw_length(spec: SsmSpec, t: int) -> int:
    return int(math.ceil(t * spec.decimation_factor))


def _decimation_indices(spec: SsmSpec, t: int) -> np.ndarray:
    # Keep sample round(k * factor) for k = 0..T-1, rounding half up.
    return np.floor(np.arange(t) * spec.decimation_factor + 0.5).astype(np.int64)


def simulate_batch(spec: SsmSpec, t: int, seeds: list[int]) -> np.ndarray:
    """Simulate len(seeds) independent trajectories in lockstep; (B, T, 3).

    Each trajectory consumes its own Philox stream: 3 draws for the randomized
    initial state, then one 3-vector per raw step. Decimated systems simulate
    ceil(T * factor) raw states and keep every factor-th sample.

    The noise is drawn into the rows of the one (B, raw_len, 3) buffer that the
    chain then fills in place (`_raw_chain`). When every raw state is kept, as
    for Lorenz, that buffer is the result; otherwise the kept samples are
    copied out of it.
    """
    require_sizes(0, T=t)
    factor = covariance_factor(spec.process_noise_cov)
    raw_len = _raw_length(spec, t)
    chain = np.empty((len(seeds), raw_len, STATE_DIM))
    for i, seed in enumerate(seeds):
        gen = SeededRng(seed)
        chain[i, 0] = DEFAULT_INITIAL_STATE + gen.standard_normal(STATE_DIM)
        chain[i, 1:] = gen.standard_normal((raw_len - 1, STATE_DIM)) @ factor.T
    _raw_chain(spec, chain, noisy=True)
    keep = _decimation_indices(spec, t)
    return chain if np.array_equal(keep, np.arange(raw_len)) else chain[:, keep]


def calibrate_process_noise(spec: SsmSpec, target_db: float, seed: int) -> float:
    """sigma_e2 placing the noise `target_db` decibels below the drift power.

    Drift power is the per-coordinate mean power of the deterministic raw-step
    increment F(x)x - x over a noiseless pilot chain of 1000 states from the
    default (seeded) initial state. The dB reference convention is a project
    choice; the source material does not define one.
    """
    require_finite_db("process-noise target", target_db)
    pilot = np.empty((1, 1000, STATE_DIM))
    pilot[0, 0] = DEFAULT_INITIAL_STATE + SeededRng(seed).standard_normal(STATE_DIM)
    increments = np.diff(_raw_chain(spec, pilot, noisy=False)[0], axis=0)
    p_drift = float(np.mean(increments**2))
    if p_drift <= 0.0:
        raise CalibrationError("pilot trajectory has zero increment power")
    return p_drift * 10.0 ** (target_db / 10.0)


def literal_db_sigma(target_db: float) -> float:
    """sigma_e2 read literally from decibels: 10^(dB/10), for a finite dB figure."""
    require_finite_db("process-noise target", target_db)
    return 10.0 ** (target_db / 10.0)
