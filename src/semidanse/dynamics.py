"""Discrete-time simulation of the three chaotic benchmark processes.

Each process evolves as x_{t+1} = F(x_t) x_t + e_t where F(x) is the
truncated-Taylor matrix exponential of a state-dependent drift generator
A(x) times the step size, and e_t is i.i.d. Gaussian process noise.
Finer-stepped systems (Chen, Rossler) are simulated at their native step
size and decimated down to the reference temporal resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import CalibrationError, DimensionError, DivergenceError, SingularityError
from .numerics import SeededRng, covariance_factor, taylor_matrix_exp

STATE_DIM = 3

LORENZ63 = "lorenz63"
CHEN = "chen"
ROSSLER = "rossler"
SYSTEMS = (LORENZ63, CHEN, ROSSLER)

# Native step sizes (seconds) and decimation factors relative to the
# reference 0.02 s resolution.
_STEP_SIZE = {LORENZ63: 0.02, CHEN: 0.002, ROSSLER: 0.008}
_DECIMATION = {LORENZ63: 1.0, CHEN: 10.0, ROSSLER: 2.5}

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
    taylor_order: int = 5
    decimation_factor: float = 1.0
    rossler_epsilon: float | None = None
    state_dim: int = STATE_DIM

    def __post_init__(self):
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}; expected one of {SYSTEMS}")
        if self.step_size < 0:
            raise ValueError("step_size must be >= 0")
        if self.decimation_factor <= 0:
            raise ValueError("decimation_factor must be positive")
        if (self.rossler_epsilon is not None) != (self.system == ROSSLER):
            raise ValueError("rossler_epsilon is required for rossler and forbidden otherwise")
        if self.rossler_epsilon is not None and self.rossler_epsilon <= 0:
            raise ValueError("rossler_epsilon must be positive")
        cov = np.asarray(self.process_noise_cov, dtype=np.float64)
        if cov.shape != (STATE_DIM, STATE_DIM):
            raise DimensionError(f"process_noise_cov must be 3x3, got {cov.shape}")
        if np.abs(cov - cov.T).max() > 1e-12 * max(1.0, np.abs(cov).max()):
            raise ValueError("process_noise_cov must be symmetric")
        if np.linalg.eigvalsh(cov).min() < -1e-10:
            raise ValueError("process_noise_cov must be PSD")
        object.__setattr__(self, "process_noise_cov", cov)

    def transition(self, x: np.ndarray) -> np.ndarray:
        """Deterministic one-step map f(x) = F(x) x.

        Routed through the batched kernel so single-step and simulated
        trajectories agree bitwise.
        """
        return self.transition_batch(np.asarray(x, dtype=np.float64)[None, :])[0]

    def transition_batch(self, xs: np.ndarray) -> np.ndarray:
        """f applied row-wise to (B, 3) states."""
        f = drift_matrix_batch(self, xs)
        return np.einsum("bij,bj->bi", f, xs)


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


@dataclass(frozen=True)
class StateTrajectory:
    """A simulated length-T state sequence and the seed that produced it."""

    states: np.ndarray  # (T, 3)
    seed: int
    spec: SsmSpec

    def __post_init__(self):
        states = np.asarray(self.states, dtype=np.float64)
        if states.ndim != 2 or states.shape[1] != STATE_DIM:
            raise DimensionError(f"states must be (T, 3), got {states.shape}")
        if not np.all(np.isfinite(states)):
            raise ValueError("trajectory contains non-finite states")
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return self.states.shape[0]


def drift_generator_batch(spec: SsmSpec, xs: np.ndarray) -> np.ndarray:
    """Continuous-time drift generators A(x) for (B, 3) states, as (B, 3, 3)."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != STATE_DIM:
        raise DimensionError(f"states must be (B, 3), got {xs.shape}")
    b = xs.shape[0]
    a = np.zeros((b, 3, 3))
    x1 = xs[:, 0]
    if spec.system == LORENZ63:
        a[:, 0, 0] = -10.0
        a[:, 0, 1] = 10.0
        a[:, 1, 0] = 28.0
        a[:, 1, 1] = -1.0
        a[:, 1, 2] = -x1
        a[:, 2, 1] = x1
        a[:, 2, 2] = -8.0 / 3.0
    elif spec.system == CHEN:
        a[:, 0, 0] = -35.0
        a[:, 0, 1] = 35.0
        a[:, 1, 0] = -7.0
        a[:, 1, 1] = 28.0
        a[:, 1, 2] = -x1
        a[:, 2, 1] = x1
        a[:, 2, 2] = -3.0
    else:  # rossler
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


def drift_generator(spec: SsmSpec, x: np.ndarray) -> np.ndarray:
    """A(x) for a single state."""
    return drift_generator_batch(spec, np.asarray(x, dtype=np.float64)[None, :])[0]


def drift_matrix_batch(spec: SsmSpec, xs: np.ndarray) -> np.ndarray:
    """State transition matrices F(x) = taylor_exp(A(x) * step) for (B, 3) states."""
    a = drift_generator_batch(spec, xs)
    return taylor_matrix_exp(a * spec.step_size, spec.taylor_order)


def drift_matrix(spec: SsmSpec, x: np.ndarray) -> np.ndarray:
    return drift_matrix_batch(spec, np.asarray(x, dtype=np.float64)[None, :])[0]


def step(spec: SsmSpec, x: np.ndarray, rng: SeededRng | None = None) -> np.ndarray:
    """One Markov transition; with rng=None the noise term is omitted."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("state contains non-finite entries")
    out = spec.transition(x)
    if rng is not None:
        factor = covariance_factor(spec.process_noise_cov)
        out = out + factor @ rng.standard_normal(STATE_DIM)
    return out


def _raw_chain(spec: SsmSpec, x0s: np.ndarray, raw_len: int, noise: np.ndarray | None) -> np.ndarray:
    """Lockstep simulation of B chains for raw_len states (raw_len - 1 transitions).

    `noise` is the pre-drawn (B, raw_len - 1, 3) process-noise block, already
    scaled by the covariance factor, or None for a deterministic chain.
    """
    b = x0s.shape[0]
    out = np.empty((b, raw_len, STATE_DIM))
    out[:, 0] = x0s
    x = x0s
    for k in range(raw_len - 1):
        x = spec.transition_batch(x)
        if noise is not None:
            x = x + noise[:, k]
        if np.any(np.abs(x) > DIVERGENCE_LIMIT):
            bad = int(np.argmax(np.any(np.abs(x) > DIVERGENCE_LIMIT, axis=1)))
            raise DivergenceError(
                f"trajectory {bad} diverged at raw step {k + 1} "
                f"(|coordinate| > {DIVERGENCE_LIMIT:g})",
                step_index=k + 1,
            )
        out[:, k + 1] = x
    return out


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
    """
    if t < 1:
        raise ValueError("T must be >= 1")
    b = len(seeds)
    factor = covariance_factor(spec.process_noise_cov)
    raw_len = _raw_length(spec, t)
    x0s = np.empty((b, STATE_DIM))
    noise = np.empty((b, max(raw_len - 1, 1), STATE_DIM))
    for i, seed in enumerate(seeds):
        gen = SeededRng(seed)
        x0s[i] = DEFAULT_INITIAL_STATE + gen.standard_normal(STATE_DIM)
        noise[i] = gen.standard_normal((max(raw_len - 1, 1), STATE_DIM)) @ factor.T
    raw = _raw_chain(spec, x0s, raw_len, noise if raw_len > 1 else None)
    return raw[:, _decimation_indices(spec, t)]


def simulate(spec: SsmSpec, t: int, seed: int, x0: np.ndarray | None = None) -> StateTrajectory:
    """One length-T trajectory; deterministic in (spec, seed, x0).

    With x0=None the chain starts at (1, 1, 1) plus a seeded standard-normal
    perturbation; an explicit x0 is used verbatim (no perturbation draw).
    """
    if x0 is None:
        states = simulate_batch(spec, t, [seed])[0]
    else:
        if t < 1:
            raise ValueError("T must be >= 1")
        gen = SeededRng(seed)
        gen.standard_normal(STATE_DIM)  # keep stream layout identical to the default path
        factor = covariance_factor(spec.process_noise_cov)
        raw_len = _raw_length(spec, t)
        noise = gen.standard_normal((max(raw_len - 1, 1), STATE_DIM)) @ factor.T
        x0s = np.asarray(x0, dtype=np.float64)[None, :]
        raw = _raw_chain(spec, x0s, raw_len, noise[None] if raw_len > 1 else None)
        states = raw[0, _decimation_indices(spec, t)]
    return StateTrajectory(states=states, seed=seed, spec=spec)


def calibrate_process_noise(spec: SsmSpec, target_db: float, seed: int) -> float:
    """sigma_e2 placing the noise `target_db` decibels below the drift power.

    Drift power is the per-coordinate mean power of the deterministic raw-step
    increment F(x)x - x over a noiseless pilot chain of 1000 states from the
    default (seeded) initial state. The dB reference convention is a project
    choice; the source material does not define one.
    """
    if not np.isfinite(target_db):
        raise ValueError("target_db must be finite")
    gen = SeededRng(seed)
    x0 = DEFAULT_INITIAL_STATE + gen.standard_normal(STATE_DIM)
    pilot = _raw_chain(spec, x0[None, :], 1000, None)[0]
    increments = np.diff(pilot, axis=0)
    p_drift = float(np.mean(increments**2))
    if p_drift <= 0.0:
        raise CalibrationError("pilot trajectory has zero increment power")
    return p_drift * 10.0 ** (target_db / 10.0)


def literal_db_sigma(target_db: float) -> float:
    """sigma_e2 read literally from decibels: 10^(dB/10)."""
    return 10.0 ** (target_db / 10.0)
