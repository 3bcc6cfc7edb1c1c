"""Semi-supervised data-driven Bayesian state estimation with compressed measurements.

Library layout:

- numerics: Gaussian/linear-algebra primitives, the plane Cholesky (`_factor`,
  `_solve`, `_sigma`), the seeded RNG policy, the finiteness check and every
  method's estimate record, `BatchFilterOutput`
- dynamics: the three chaotic processes, batched simulation, noise calibration
- measurement: linear measurement model, builtin H matrices, SMNR calibration
- dataset: paired datasets (each split simulated once), semi-supervised
  splits, container persistence
- prior_net: recurrent Gaussian-prior network with exact reverse-mode gradients
- estimator: batched posterior/loss kernels, trainer, batched causal inference
- baselines: model-driven EKF/UKF references, run jointly in one batched filter loop
- serialize: the self-checking container and the one atomic file writer
- metrics / harness / cli: NMSE, experiment sweeps, command line

Simulation, measurement, the prior network, the losses, inference and the
filters each have one implementation over a leading batch axis; a single
trajectory is the B = 1 case of it. Sweeps, `eval` and `dump` reach estimates
through one function, `harness.method_outputs`, which runs the filter methods it
is given in one joint loop (that gives each the bits it gives alone) and each
learned method on its own. It reads only what an estimator may read of the test
split (`dataset.MeasuredSplit`): every split is read through one path
(`harness._load_or_generate`), and a stored test split's states are dropped
before any method runs. The filters' process model comes from the config
(`harness.build_spec`), never from a split: a stored split whose meta records
another one is refused. Fixed settings (the Taylor order, the network widths,
the optimizer constants) are module constants that artifacts record and loads
check. Sweeps and `eval` score its estimates through one function,
`harness.score`, which alone reads the test states, once per method group.
"""

from .dataset import PairedDataset, SemiDataset, SplitConfig, generate, split_semi
from .dynamics import SsmSpec, make_spec, simulate_batch
from .estimator import TrainConfig, infer_batch, train
from .harness import ExperimentConfig, load_config, run_sweep
from .measurement import MeasModel, builtin_h, empirical_smnr_db, measure_states
from .metrics import nmse_db
from .numerics import SeededRng
from .prior_net import NetDims, PriorNetParams, init_params

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "MeasModel",
    "NetDims",
    "PairedDataset",
    "PriorNetParams",
    "SeededRng",
    "SemiDataset",
    "SplitConfig",
    "SsmSpec",
    "TrainConfig",
    "builtin_h",
    "empirical_smnr_db",
    "generate",
    "infer_batch",
    "init_params",
    "load_config",
    "make_spec",
    "measure_states",
    "nmse_db",
    "run_sweep",
    "simulate_batch",
    "split_semi",
    "train",
]
