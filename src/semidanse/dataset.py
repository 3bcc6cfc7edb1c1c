"""Build, split, persist, and load the semi-supervised training datasets."""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .dynamics import SsmSpec, require_sizes, simulate_batch
from .exceptions import ArtifactMismatchError, DimensionError
from .measurement import MeasModel, measure_states
from .numerics import SeededRng, _splitmix64, child_seed
from .serialize import read_container, stream_container, write_container


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


@dataclass
class MeasuredSplit:
    """What an estimator may read of a split: its measurements, its meta and each
    trajectory's first state x_1, from which truth-initialised filters start.

    The states themselves stay out: scoring reads them on its own (for a stored
    split, `stream_states`). So does the process model: the filters take it from the
    config (`harness.build_spec`), which a stored split's meta must match.
    """

    measurements: np.ndarray        # (N, T, n)
    first_states: np.ndarray        # (N, m)
    meta: dict

    def __len__(self) -> int:
        return len(self.measurements)


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


def settings_meta(spec: SsmSpec, h: np.ndarray, n_items: int, t: int, master_seed: int,
                  burn_in: int) -> dict:
    """The meta `generate` records of the settings a split is made from: the process model,
    with `numerics.TAYLOR_ORDER`, H, the sizes and the seed. A stored split is reused only
    while these match the request; C_w is left out, as the simulated states decide it."""
    return {
        "system": spec.system,
        "step_size": spec.step_size,
        "taylor_order": numerics.TAYLOR_ORDER,
        "decimation_factor": spec.decimation_factor,
        "rossler_epsilon": spec.rossler_epsilon,
        "process_noise_cov": spec.process_noise_cov.tolist(),
        "h": h.tolist(),
        "n_items": n_items,
        "t": t,
        "burn_in": burn_in,
        "master_seed": master_seed,
    }


def generate(spec: SsmSpec, model_for: Callable[[np.ndarray], MeasModel],
             n_items: int, t: int, master_seed: int,
             extra_meta: dict | None = None, burn_in: int = 0) -> PairedDataset:
    """N independent pairs; pair i derives its seeds from hash(master_seed, i).

    Within a pair, the state simulation and the measurement noise use separate
    child streams so that either can be regenerated independently. `burn_in`
    extra leading samples are simulated and discarded before measuring.
    `model_for` builds the measurement model from the simulated (N, T, 3)
    states (e.g. to calibrate the noise on them), so the states are simulated
    once. The meta records `settings_meta`, C_w and `extra_meta`.
    """
    require_sizes(burn_in, n_items=n_items, t=t)
    pair_seeds = [child_seed(master_seed, i) for i in range(n_items)]
    sim_seeds = [child_seed(s, 0) for s in pair_seeds]
    meas_seeds = [child_seed(s, 1) for s in pair_seeds]
    states = simulate_batch(spec, t + burn_in, sim_seeds)
    if burn_in:  # a copy, so that the dataset does not keep the burn-in rows alive
        states = states[:, burn_in:].copy()
    model = model_for(states)
    measurements = measure_states(states, model, meas_seeds)
    meta = {**settings_meta(spec, model.h, n_items, t, master_seed, burn_in),
            "c_w": model.c_w.tolist(), **(extra_meta or {})}
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


def dataset_model(data: PairedDataset | MeasuredSplit) -> MeasModel:
    return MeasModel(np.asarray(data.meta["h"]), np.asarray(data.meta["c_w"]))


def save(data: PairedDataset, path: str) -> None:
    meta = dict(data.meta)
    meta["item_seeds"] = [int(s) for s in data.item_seeds]
    write_container(path, kind="paired-dataset", meta=meta,
                    blocks=[("states", data.states), ("meas", data.measurements)])


def load(path: str) -> PairedDataset:
    """A stored split, checked to hold the two blocks 'states' and 'meas', shaped
    (N, T, m) and (N, T, n) for its N item seeds, of at least one step each."""
    meta, blocks = read_container(path, expected_kind="paired-dataset")
    item_seeds = [int(s) for s in meta.pop("item_seeds")]
    if sorted(blocks) != ["meas", "states"]:
        raise ArtifactMismatchError(
            f"dataset {path} holds {len(blocks)} blocks, not the two blocks 'states' and "
            "'meas' (it was written in the older per-trajectory layout); delete it so that "
            "it is regenerated"
        )
    data = PairedDataset(states=blocks["states"], measurements=blocks["meas"],
                         item_seeds=item_seeds, meta=meta)
    if not data.states.shape[1]:
        raise DimensionError(f"dataset {path} holds trajectories of no steps")
    return data


def stream_states(path: str, meta: dict) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, states rows) chunks of a stored split, for scoring; the measurements
    are read in chunks too and dropped, and the whole-file CRC is checked once the last
    chunk is read.

    `meta` is the file's meta as the estimation read (`load`) saw it, item seeds
    included. A file whose meta differs has been replaced since; it is refused with
    ArtifactMismatchError naming the path and the first differing field, before any
    chunk is yielded.
    """
    pieces = stream_container(path, expected_kind="paired-dataset", chunked=True)
    stored, _ = next(pieces)
    if stored != meta:
        for _ in pieces:  # the CRC first: a corrupted file is a CRC mismatch
            pass
        key = next(k for k in sorted(set(stored) | set(meta)) if stored.get(k) != meta.get(k))
        raise ArtifactMismatchError(
            f"dataset {path} changed since its measurements were read: stored {key} "
            f"{stored.get(key)!r}, read {meta.get(key)!r}"
        )
    for name, start, block in pieces:
        if name == "states":
            yield start, block


__all__ = [
    "PairedDataset",
    "SemiDataset",
    "SplitConfig",
    "generate",
    "settings_meta",
    "split_semi",
    "validation_mask",
    "dataset_model",
    "save",
    "load",
    "stream_states",
    "MeasuredSplit",
    "round_half_up",
]
