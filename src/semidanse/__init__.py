"""Semi-supervised data-driven Bayesian state estimation with compressed measurements.

Library layout:

- numerics: Gaussian/linear-algebra primitives and the seeded RNG policy
- dynamics: the three chaotic processes, simulation, noise calibration
- measurement: linear measurement model, builtin H matrices, SMNR calibration
- dataset: paired datasets, semi-supervised splits, container persistence
- prior_net: recurrent Gaussian-prior network with exact reverse-mode gradients
- estimator: posterior updates, losses, trainer, batched causal inference
- baselines: model-driven EKF/UKF references sharing one batched filter loop
- metrics / harness / cli: NMSE/SMNR, experiment sweeps, command line
"""

from .dataset import PairedDataset, SemiDataset, SplitConfig, generate, split_semi
from .dynamics import SsmSpec, StateTrajectory, make_spec, simulate
from .estimator import TrainConfig, infer_batch, posterior_update, train
from .harness import ExperimentConfig, load_config, run_sweep
from .measurement import MeasModel, MeasTrajectory, builtin_h, measure
from .metrics import nmse_db, smnr_db
from .numerics import GaussianBelief, SeededRng
from .prior_net import NetDims, PriorNetParams, init_params

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "GaussianBelief",
    "MeasModel",
    "MeasTrajectory",
    "NetDims",
    "PairedDataset",
    "PriorNetParams",
    "SeededRng",
    "SemiDataset",
    "SplitConfig",
    "SsmSpec",
    "StateTrajectory",
    "TrainConfig",
    "builtin_h",
    "generate",
    "infer_batch",
    "init_params",
    "load_config",
    "make_spec",
    "measure",
    "nmse_db",
    "posterior_update",
    "run_sweep",
    "simulate",
    "smnr_db",
    "split_semi",
    "train",
]
