"""Performance measure: per-trajectory NMSE over states, in dB."""

from __future__ import annotations

import numpy as np

from .exceptions import CalibrationError, DimensionError, NumericError

# Perfect estimates would give -inf dB; they are floored so that averages
# over trajectories stay finite. Non-finite inputs or sums raise instead: a NaN
# estimate must not score as perfect.
NMSE_FLOOR_DB = -300.0


def nmse_db_per_trajectory(truth: list[np.ndarray], estimates: list[np.ndarray],
                           coords: list[int] | None = None, first: int = 0) -> np.ndarray:
    """Per-trajectory 10*log10(sum ||x - xhat||^2 / sum ||x||^2).

    `coords` restricts both numerator and denominator to a subset of state
    coordinates (e.g. [0] for the first component). `first` is the index of
    truth[0] in its split, so that an error names the trajectory as the split
    numbers it when the split is scored a chunk of trajectories at a time.
    """
    if len(truth) != len(estimates):
        raise DimensionError("truth and estimates must have the same number of trajectories")
    out = np.empty(len(truth))
    for i, (x, xh) in enumerate(zip(truth, estimates)):
        j = first + i  # the trajectory's index in its split
        x = np.asarray(x, dtype=np.float64)
        xh = np.asarray(xh, dtype=np.float64)
        if x.shape != xh.shape:
            raise DimensionError(f"trajectory {j}: shapes {x.shape} vs {xh.shape}")
        if coords is not None:
            x = x[:, coords]
            xh = xh[:, coords]
        denom = float(np.sum(x**2))
        err = float(np.sum((x - xh) ** 2))
        if not (np.isfinite(denom) and np.isfinite(err)):
            if not np.isfinite(x).all():
                raise NumericError(f"trajectory {j}: non-finite truth")
            if not np.isfinite(xh).all():
                raise NumericError(f"trajectory {j}: non-finite estimates")
            raise NumericError(f"trajectory {j}: squared error or truth power overflows")
        if denom == 0.0:
            raise CalibrationError(f"trajectory {j}: all-zero truth, NMSE undefined")
        ratio = err / denom
        if not np.isfinite(ratio):
            raise NumericError(f"trajectory {j}: NMSE ratio {ratio} is not finite")
        out[i] = max(10.0 * np.log10(ratio), NMSE_FLOOR_DB) if ratio > 0.0 else NMSE_FLOOR_DB
    return out


def nmse_db(truth: list[np.ndarray], estimates: list[np.ndarray],
            coords: list[int] | None = None) -> float:
    """Average of the per-trajectory NMSE values, in dB."""
    return float(np.mean(nmse_db_per_trajectory(truth, estimates, coords)))


def mean_and_stderr(per: np.ndarray) -> tuple[float, float]:
    """(average, standard error) of per-trajectory NMSE values, in dB."""
    stderr = float(np.std(per, ddof=1) / np.sqrt(len(per))) if len(per) >= 2 else 0.0
    return float(np.mean(per)), stderr

