"""Build, split, persist, and load the semi-supervised training datasets."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import SsmSpec, simulate_batch
from .exceptions import DimensionError
from .measurement import MeasModel, measure_states
from .numerics import SeededRng, _splitmix64, child_seed
from .serialize import read_container, write_container


@dataclass
class PairedDataset:
    """N state-and-measurement trajectory pairs plus generation metadata."""

    states: list[np.ndarray]        # item i: (T_i, 3)
    measurements: list[np.ndarray]  # item i: (T_i, n)
    item_seeds: list[int]           # per-pair child seed
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (len(self.states) == len(self.measurements) == len(self.item_seeds)):
            raise DimensionError("states, measurements and item_seeds must have equal length")
        for i, (x, y) in enumerate(zip(self.states, self.measurements)):
            if x.shape[0] != y.shape[0]:
                raise DimensionError(f"item {i}: state length {x.shape[0]} != measurement length {y.shape[0]}")

    def __len__(self) -> int:
        return len(self.states)

    @property
    def lengths(self) -> list[int]:
        return [x.shape[0] for x in self.states]

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """(N, T, 3) and (N, T, n) views; requires uniform lengths."""
        lengths = set(self.lengths)
        if len(lengths) > 1:
            raise DimensionError("dataset has mixed trajectory lengths")
        return np.stack(self.states), np.stack(self.measurements)


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
    kappa: float
    split_seed: int

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

    def unlabelled_measurements(self) -> list[np.ndarray]:
        return [self.parent.measurements[i] for i in self.unlabelled_idx]


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def generate(spec: SsmSpec, model: MeasModel, n_items: int, t: int, master_seed: int,
             extra_meta: dict | None = None, burn_in: int = 0) -> PairedDataset:
    """N independent pairs; pair i derives its seeds from hash(master_seed, i).

    Within a pair, the state simulation and the measurement noise use separate
    child streams so that either can be regenerated independently. `burn_in`
    extra leading samples are simulated and discarded before measuring.
    """
    if n_items < 1 or t < 1:
        raise ValueError("n_items and t must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    pair_seeds = [child_seed(master_seed, i) for i in range(n_items)]
    sim_seeds = [child_seed(s, 0) for s in pair_seeds]
    meas_seeds = [child_seed(s, 1) for s in pair_seeds]
    all_states = simulate_batch(spec, t + burn_in, sim_seeds)[:, burn_in:]
    states = [all_states[i] for i in range(n_items)]
    measurements = [measure_states(states[i], model, meas_seeds[i]) for i in range(n_items)]
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
    return SemiDataset(
        parent=data,
        labelled_idx=labelled,
        unlabelled_idx=unlabelled,
        kappa=cfg.kappa,
        split_seed=cfg.seed,
    )


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
    blocks: list[tuple[str, np.ndarray]] = []
    for i in range(len(data)):
        blocks.append((f"states/{i}", data.states[i]))
        blocks.append((f"meas/{i}", data.measurements[i]))
    meta = dict(data.meta)
    meta["item_seeds"] = [int(s) for s in data.item_seeds]
    write_container(path, kind="paired-dataset", meta=meta, blocks=blocks)


def load(path: str) -> PairedDataset:
    meta, blocks = read_container(path, expected_kind="paired-dataset")
    item_seeds = [int(s) for s in meta.pop("item_seeds")]
    n = len(item_seeds)
    states = [blocks[f"states/{i}"] for i in range(n)]
    measurements = [blocks[f"meas/{i}"] for i in range(n)]
    return PairedDataset(states=states, measurements=measurements, item_seeds=item_seeds, meta=meta)


def datasets_equal(a: PairedDataset, b: PairedDataset) -> bool:
    """Bitwise structural equality (arrays, seeds, metadata)."""
    if len(a) != len(b) or a.item_seeds != b.item_seeds or a.meta != b.meta:
        return False
    return all(
        np.array_equal(xa, xb) and np.array_equal(ya, yb)
        for xa, xb, ya, yb in zip(a.states, b.states, a.measurements, b.measurements)
    )


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
    "datasets_equal",
    "round_half_up",
]
