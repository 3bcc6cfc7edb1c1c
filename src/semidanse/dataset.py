"""Build, split, persist, and load the semi-supervised training datasets."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .dynamics import SsmSpec, simulate_batch
from .exceptions import ArtifactMismatchError, DimensionError
from .measurement import MeasModel, measure_states
from .numerics import SeededRng, _splitmix64, child_seed
from .serialize import read_container, write_container


@dataclass
class PairedDataset:
    """N state-and-measurement trajectory pairs of one length T, plus generation metadata.

    `states` and `measurements` are coerced to float64 (N, T, m) and (N, T, n)
    arrays; a list of equal-shape (T, .) arrays is stacked.
    """

    states: np.ndarray              # (N, T, m)
    measurements: np.ndarray        # (N, T, n)
    item_seeds: list[int]           # per-pair child seed
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        try:
            self.states = np.asarray(self.states, dtype=np.float64)
            self.measurements = np.asarray(self.measurements, dtype=np.float64)
        except ValueError as exc:
            raise DimensionError(f"trajectories must share one shape: {exc}") from exc
        x, y, n_seeds = self.states.shape, self.measurements.shape, len(self.item_seeds)
        if len(x) != 3 or len(y) != 3 or x[:2] != y[:2] or n_seeds != x[0]:
            raise DimensionError(f"states {x}, measurements {y} and {n_seeds} item seeds "
                                 "must be (N, T, m), (N, T, n) and N")

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class SplitConfig:
    """Fraction of labelled trajectories and the seed of the random split."""

    kappa: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError("kappa must be in [0, 1]")


@dataclass
class SemiDataset:
    """Labelled subset (states kept) and unlabelled subset (states dropped)."""

    parent: PairedDataset
    labelled_idx: np.ndarray
    unlabelled_idx: np.ndarray

    def __post_init__(self):
        n = len(self.parent)
        combined = np.sort(np.concatenate([self.labelled_idx, self.unlabelled_idx]))
        if not np.array_equal(combined, np.arange(n)):
            raise ValueError("labelled and unlabelled indices must partition 0..N-1")

    @property
    def n_labelled(self) -> int:
        return len(self.labelled_idx)

    @property
    def n_unlabelled(self) -> int:
        return len(self.unlabelled_idx)


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def generate(spec: SsmSpec, model: MeasModel | Callable[[np.ndarray], MeasModel],
             n_items: int, t: int, master_seed: int,
             extra_meta: dict | None = None, burn_in: int = 0) -> PairedDataset:
    """N independent pairs; pair i derives its seeds from hash(master_seed, i).

    Within a pair, the state simulation and the measurement noise use separate
    child streams so that either can be regenerated independently. `burn_in`
    extra leading samples are simulated and discarded before measuring.
    `model` is the measurement model, or a function that builds it from the
    simulated (N, T, 3) states (e.g. to calibrate the noise on them); the
    states are simulated once either way.
    """
    if n_items < 1 or t < 1:
        raise ValueError("n_items and t must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    pair_seeds = [child_seed(master_seed, i) for i in range(n_items)]
    sim_seeds = [child_seed(s, 0) for s in pair_seeds]
    meas_seeds = [child_seed(s, 1) for s in pair_seeds]
    states = simulate_batch(spec, t + burn_in, sim_seeds)
    if burn_in:  # a copy, so that the dataset does not keep the burn-in rows alive
        states = states[:, burn_in:].copy()
    if not isinstance(model, MeasModel):
        model = model(states)
    measurements = measure_states(states, model, meas_seeds)
    meta = {
        "system": spec.system,
        "step_size": spec.step_size,
        "taylor_order": spec.taylor_order,
        "decimation_factor": spec.decimation_factor,
        "rossler_epsilon": spec.rossler_epsilon,
        "process_noise_cov": np.asarray(spec.process_noise_cov).tolist(),
        "h": np.asarray(model.h).tolist(),
        "c_w": np.asarray(model.c_w).tolist(),
        "n_items": n_items,
        "t": t,
        "burn_in": burn_in,
        "master_seed": master_seed,
    }
    if extra_meta:
        meta.update(extra_meta)
    return PairedDataset(states=states, measurements=measurements, item_seeds=pair_seeds, meta=meta)


def split_semi(data: PairedDataset, cfg: SplitConfig) -> SemiDataset:
    """Uniformly random disjoint split into labelled and unlabelled subsets.

    N_s = round(kappa * N) with half-up rounding; kappa = 0 is the fully
    unlabelled regime and kappa = 1 the fully labelled one.
    """
    n = len(data)
    n_s = round_half_up(cfg.kappa * n)
    perm = SeededRng(cfg.seed).permutation(n)
    labelled = np.sort(perm[:n_s])
    unlabelled = np.sort(perm[n_s:])
    return SemiDataset(parent=data, labelled_idx=labelled, unlabelled_idx=unlabelled)


def validation_mask(data: PairedDataset) -> np.ndarray:
    """Boolean mask of trajectories held out for early stopping (about 10%).

    Selection hashes each item's child seed, so membership is stable under
    regeneration and independent of the labelled/unlabelled split.
    """
    return np.array([_splitmix64(s) % 10 == 0 for s in data.item_seeds], dtype=bool)


def dataset_spec(data: PairedDataset) -> SsmSpec:
    """Reconstruct the simulation spec recorded in the metadata."""
    meta = data.meta
    return SsmSpec(
        system=meta["system"],
        step_size=meta["step_size"],
        process_noise_cov=np.asarray(meta["process_noise_cov"]),
        taylor_order=meta["taylor_order"],
        decimation_factor=meta["decimation_factor"],
        rossler_epsilon=meta["rossler_epsilon"],
    )


def dataset_model(data: PairedDataset) -> MeasModel:
    return MeasModel(np.asarray(data.meta["h"]), np.asarray(data.meta["c_w"]))


def save(data: PairedDataset, path: str) -> None:
    meta = dict(data.meta)
    meta["item_seeds"] = [int(s) for s in data.item_seeds]
    write_container(path, kind="paired-dataset", meta=meta,
                    blocks=[("states", data.states), ("meas", data.measurements)])


def load(path: str) -> PairedDataset:
    meta, blocks = read_container(path, expected_kind="paired-dataset")
    if sorted(blocks) != ["meas", "states"]:
        raise ArtifactMismatchError(
            f"dataset {path} holds {len(blocks)} blocks, not the two blocks 'states' and "
            "'meas' (it was written in the older per-trajectory layout); delete it so that "
            "it is regenerated"
        )
    item_seeds = [int(s) for s in meta.pop("item_seeds")]
    return PairedDataset(states=blocks["states"], measurements=blocks["meas"],
                         item_seeds=item_seeds, meta=meta)


__all__ = [
    "PairedDataset",
    "SemiDataset",
    "SplitConfig",
    "generate",
    "split_semi",
    "validation_mask",
    "dataset_spec",
    "dataset_model",
    "save",
    "load",
    "round_half_up",
]
