"""Experiment orchestration: configs, sweeps, trajectory dumps, CSV artifacts.

Configuration lives in flat key=value text files with [section] headers plus
command-line overrides. Every produced CSV row carries a hash of the resolved
configuration so results can be traced back to their settings. Sweeps are
deterministic functions of (config, seeds): rerunning one produces
byte-identical CSV files; wall-clock timings go to a separate JSON run log.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import dataset as dataset_mod
from . import dynamics
from .baselines import UkfConfig, ekf_batch, initial_beliefs_from_truth, ukf_batch
from .dataset import PairedDataset, SplitConfig, split_semi
from .estimator import BatchFilterOutput, TrainConfig, TrainResult, dof_report, infer_batch, train
from .exceptions import SemidanseError
from .measurement import BUILTIN_H_NAMES, MeasModel, builtin_h, calibrate_sigma_w
from .metrics import nmse_db, nmse_db_per_trajectory, nmse_stderr_db
from .numerics import child_seed
from .prior_net import NetDims, init_params, load_params, save_params
from .svg import line_plot, projection_plot

DATA_DIR_ENV = "SEMIDANSE_DATA_DIR"

LEARNED_METHODS = ("danse", "semidanse")
FILTER_METHODS = ("ekf", "ukf")
ALL_METHODS = FILTER_METHODS + LEARNED_METHODS


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep point needs, fully seeded."""

    # experiment
    system: str = "lorenz63"
    h_name: str = "dense2x3"
    smnr_db: tuple[float, ...] = (-10.0, 0.0, 10.0, 20.0, 30.0)
    kappa: float = 0.02
    methods: tuple[str, ...] = ("ekf", "ukf")
    # data
    n_train: int = 1000
    t_train: int = 100
    n_test: int = 100
    t_test: int = 2000
    process_noise_db: float = -10.0
    process_noise_mode: str = "literal"      # literal | calibrated
    smnr_convention: str = "trace"           # trace (n*sigma_w2) | total (sigma_w2)
    rossler_epsilon: float = 1e-5
    burn_in: int = 0
    # training
    batch_size: int = 64
    max_epochs: int = 2000
    learning_rate: float = 5e-4
    patience: int = 50
    # filters
    ukf_alpha: float = 1e-3
    ukf_beta: float = 2.0
    ukf_kappa: float = 0.0
    filter_init: str = "truth"               # truth | uninformative | exact
    # seeds
    train_seed: int = 1001
    test_seed: int = 7
    split_seed: int = 33
    init_seed: int = 11
    shuffle_seed: int = 12
    filter_init_seed: int = 99
    calibration_seed: int = 55
    # output
    output_dir: str = "results"
    data_dir: str | None = None

    def __post_init__(self):
        if self.system not in dynamics.SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}")
        if self.h_name not in BUILTIN_H_NAMES:
            raise ValueError(f"unknown h_name {self.h_name!r}; expected one of {BUILTIN_H_NAMES}")
        if self.process_noise_mode not in ("literal", "calibrated"):
            raise ValueError("process_noise_mode must be 'literal' or 'calibrated'")
        if self.smnr_convention not in ("trace", "total"):
            raise ValueError("smnr_convention must be 'trace' or 'total'")
        if self.filter_init not in ("truth", "uninformative", "exact"):
            raise ValueError("filter_init must be 'truth', 'uninformative' or 'exact'")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise ValueError(f"unknown method {m!r}; expected subset of {ALL_METHODS}")

    def resolved_data_dir(self) -> str:
        return os.environ.get(DATA_DIR_ENV) or self.data_dir or "data"


_CONFIG_SECTIONS = {
    "experiment": ("system", "h_name", "smnr_db", "kappa", "methods"),
    "data": ("n_train", "t_train", "n_test", "t_test", "process_noise_db",
             "process_noise_mode", "smnr_convention", "rossler_epsilon", "burn_in"),
    "train": ("batch_size", "max_epochs", "learning_rate", "patience"),
    "filters": ("ukf_alpha", "ukf_beta", "ukf_kappa", "filter_init"),
    "seeds": ("train_seed", "test_seed", "split_seed", "init_seed", "shuffle_seed",
              "filter_init_seed", "calibration_seed"),
    "output": ("output_dir", "data_dir"),
}

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_value(name: str, raw: str):
    raw = raw.strip()
    if name in ("smnr_db",):
        return tuple(float(v) for v in raw.split(",") if v.strip())
    if name in ("methods",):
        return tuple(v.strip() for v in raw.split(",") if v.strip())
    if name == "data_dir":
        return raw or None
    ftype = _FIELD_TYPES[name]
    if ftype == "int":
        return int(raw)
    if ftype == "float":
        return float(raw)
    return raw


def load_config(path: str | None = None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Config from a key=value file plus flat overrides (key -> raw string)."""
    values: dict[str, object] = {}
    if path is not None:
        parser = configparser.ConfigParser()
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
        known = {name for names in _CONFIG_SECTIONS.values() for name in names}
        for section in parser.sections():
            for key, raw in parser.items(section):
                if key not in known:
                    raise ValueError(f"unknown config key {key!r} in [{section}]")
                values[key] = _parse_value(key, raw)
    for key, raw in (overrides or {}).items():
        values[key] = _parse_value(key, raw)
    return ExperimentConfig(**values)


def save_config(cfg: ExperimentConfig, path: str) -> None:
    parser = configparser.ConfigParser()
    for section, names in _CONFIG_SECTIONS.items():
        parser[section] = {}
        for name in names:
            value = getattr(cfg, name)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            parser[section][name] = str(value)
    os.makedirs(os.path.dirname(os.path.abspath(path)) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def config_hash(cfg: ExperimentConfig) -> str:
    """Short stable digest of every field that affects results."""
    payload = []
    for f in fields(ExperimentConfig):
        if f.name in ("output_dir", "data_dir"):
            continue  # locations do not change the numbers
        payload.append(f"{f.name}={getattr(cfg, f.name)!r}")
    digest = hashlib.sha256("\n".join(payload).encode("utf-8")).hexdigest()
    return digest[:12]


@dataclass
class ResultRow:
    """One (method, SMNR) sweep entry."""

    method: str
    smnr_db: float
    nmse_db: float
    nmse_stderr_db: float
    n_test: int
    t_test: int
    config_hash: str
    wall_time_s: float = 0.0
    error: str = ""


# ---------------------------------------------------------------------------
# Sweep-point assembly.
# ---------------------------------------------------------------------------


def resolve_sigma_e2(cfg: ExperimentConfig) -> float:
    """Process-noise variance per the configured convention.

    'literal' reads the dB figure directly (10^(dB/10)); 'calibrated' places
    the noise relative to the drift-increment power of a pilot run.
    """
    if cfg.process_noise_mode == "literal":
        return dynamics.literal_db_sigma(cfg.process_noise_db)
    base = dynamics.make_spec(cfg.system, 0.0, cfg.rossler_epsilon)
    return dynamics.calibrate_process_noise(base, cfg.process_noise_db, cfg.calibration_seed)


def build_spec(cfg: ExperimentConfig) -> dynamics.SsmSpec:
    return dynamics.make_spec(cfg.system, resolve_sigma_e2(cfg), cfg.rossler_epsilon)


def _sigma_w2_for(cfg: ExperimentConfig, states: list[np.ndarray], smnr_db: float) -> float:
    h = builtin_h(cfg.h_name)
    sigma = calibrate_sigma_w(states, h, smnr_db)
    if cfg.smnr_convention == "total":
        sigma *= h.shape[0]
    return sigma


def dataset_path(cfg: ExperimentConfig, smnr_db: float, which: str) -> str:
    return os.path.join(cfg.resolved_data_dir(), cfg.system, f"{smnr_db:g}", f"{which}.bin")


def _simulate_states(spec, n_items: int, t: int, master_seed: int,
                     burn_in: int = 0) -> list[np.ndarray]:
    seeds = [child_seed(child_seed(master_seed, i), 0) for i in range(n_items)]
    stacked = dynamics.simulate_batch(spec, t + burn_in, seeds)[:, burn_in:]
    return [stacked[i] for i in range(n_items)]


def build_datasets(cfg: ExperimentConfig, smnr_db: float,
                   need_train: bool) -> tuple[PairedDataset | None, PairedDataset]:
    """Load datasets from the data dir when present, otherwise generate them.

    sigma_w2 is calibrated on each split's own states (training noise from
    training statistics, test noise from test statistics).
    """
    spec = build_spec(cfg)
    train_ds = None
    if need_train:
        train_path = dataset_path(cfg, smnr_db, "train")
        if os.path.exists(train_path):
            train_ds = dataset_mod.load(train_path)
        else:
            states = _simulate_states(spec, cfg.n_train, cfg.t_train, cfg.train_seed,
                                      cfg.burn_in)
            model = MeasModel.isotropic(builtin_h(cfg.h_name), _sigma_w2_for(cfg, states, smnr_db))
            train_ds = dataset_mod.generate(
                spec, model, cfg.n_train, cfg.t_train, cfg.train_seed,
                extra_meta={"smnr_db": smnr_db, "split": "train"}, burn_in=cfg.burn_in,
            )
    test_path = dataset_path(cfg, smnr_db, "test")
    if os.path.exists(test_path):
        test_ds = dataset_mod.load(test_path)
    else:
        states = _simulate_states(spec, cfg.n_test, cfg.t_test, cfg.test_seed, cfg.burn_in)
        model = MeasModel.isotropic(builtin_h(cfg.h_name), _sigma_w2_for(cfg, states, smnr_db))
        test_ds = dataset_mod.generate(
            spec, model, cfg.n_test, cfg.t_test, cfg.test_seed,
            extra_meta={"smnr_db": smnr_db, "split": "test"}, burn_in=cfg.burn_in,
        )
    return train_ds, test_ds


def generate_and_save(cfg: ExperimentConfig, smnr_db: float) -> tuple[str, str]:
    """CLI `generate`: persist both splits under the data-dir conventions."""
    train_ds, test_ds = build_datasets(cfg, smnr_db, need_train=True)
    train_path = dataset_path(cfg, smnr_db, "train")
    test_path = dataset_path(cfg, smnr_db, "test")
    dataset_mod.save(train_ds, train_path)
    dataset_mod.save(test_ds, test_path)
    return train_path, test_path


def train_config_from(cfg: ExperimentConfig) -> TrainConfig:
    return TrainConfig(
        batch_size=cfg.batch_size,
        max_epochs=cfg.max_epochs,
        learning_rate=cfg.learning_rate,
        patience=cfg.patience,
        init_seed=cfg.init_seed,
        shuffle_seed=cfg.shuffle_seed,
    )


def checkpoint_path(cfg: ExperimentConfig, method: str, smnr_db: float) -> str:
    kappa = 0.0 if method == "danse" else cfg.kappa
    name = f"{method}_{cfg.system}_{cfg.h_name}_smnr{smnr_db:g}_kappa{kappa:g}.ckpt"
    return os.path.join(cfg.output_dir, "checkpoints", name)


def train_method(cfg: ExperimentConfig, method: str, smnr_db: float,
                 train_ds: PairedDataset, save_checkpoint: bool = True) -> TrainResult:
    """Train danse (kappa = 0) or semidanse (configured kappa) on one SMNR point."""
    if method not in LEARNED_METHODS:
        raise ValueError(f"{method!r} is not a learned method")
    kappa = 0.0 if method == "danse" else cfg.kappa
    semi = split_semi(train_ds, SplitConfig(kappa=kappa, seed=cfg.split_seed))
    model = dataset_mod.dataset_model(train_ds)
    result = train(semi, model, train_config_from(cfg))
    if save_checkpoint:
        path = checkpoint_path(cfg, method, smnr_db)
        save_params(
            result.params, path,
            extra_meta={
                "method": method, "kappa": kappa, "smnr_db": smnr_db,
                "system": cfg.system, "h_name": cfg.h_name,
                "best_epoch": result.best_epoch, "best_val": result.best_val,
                "config_hash": config_hash(cfg),
            },
        )
        log_path = os.path.splitext(path)[0] + ".log.jsonl"
        with open(log_path + ".tmp", "w", encoding="utf-8") as fh:
            for entry in result.log:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
        os.replace(log_path + ".tmp", log_path)
    return result


def _filter_init(cfg: ExperimentConfig, states: np.ndarray, state_dim: int):
    """Initial filter beliefs: corrupted truth, a broad zero prior, or exact truth."""
    if cfg.filter_init == "truth":
        return initial_beliefs_from_truth(states[:, 0], cfg.filter_init_seed)
    if cfg.filter_init == "exact":
        return states[:, 0].copy(), 1e-10 * np.eye(state_dim)
    return np.zeros((states.shape[0], state_dim)), 10.0 * np.eye(state_dim)


def _method_params(cfg: ExperimentConfig, method: str, smnr_db: float, params=None):
    """Network parameters of a learned method, from its checkpoint unless given.

    Filters take no parameters and get None.
    """
    if method in FILTER_METHODS or params is not None:
        return params
    ckpt = checkpoint_path(cfg, method, smnr_db)
    if not os.path.exists(ckpt):
        raise FileNotFoundError(f"missing checkpoint for {method}: {ckpt}")
    return load_params(ckpt)[0]


def _estimate(cfg: ExperimentConfig, method: str, test_ds: PairedDataset, params,
              rows=slice(None), keep_full_covs: bool = False) -> BatchFilterOutput:
    """Causal estimates of one method on the test trajectories selected by `rows`.

    Filter initial beliefs are drawn for the whole test set before selecting
    rows, so a trajectory gets the same initial belief whichever rows run.
    The filters and the estimator are looked up by name at call time.
    """
    model = dataset_mod.dataset_model(test_ds)
    meas = np.stack(test_ds.measurements)[rows]
    if method in LEARNED_METHODS:
        return infer_batch(params, meas, model, keep_full_covs)
    spec = dataset_mod.dataset_spec(test_ds)
    x0_mean, x0_cov = _filter_init(cfg, np.stack(test_ds.states), spec.state_dim)
    if method == "ekf":
        return ekf_batch(meas, spec, model, x0_mean[rows], x0_cov, keep_full_covs)
    ukf_cfg = UkfConfig(alpha=cfg.ukf_alpha, beta=cfg.ukf_beta, kappa=cfg.ukf_kappa)
    return ukf_batch(meas, spec, model, x0_mean[rows], x0_cov, ukf_cfg, keep_full_covs)


def evaluate_method(cfg: ExperimentConfig, method: str, smnr_db: float,
                    test_ds: PairedDataset, params=None) -> tuple[float, float]:
    """(NMSE dB, stderr) of one method on the shared test set."""
    params = _method_params(cfg, method, smnr_db, params)
    estimates = list(_estimate(cfg, method, test_ds, params).means)
    return nmse_db(test_ds.states, estimates), nmse_stderr_db(test_ds.states, estimates)


def _run_point(cfg: ExperimentConfig, smnr_db: float) -> list[ResultRow]:
    digest = config_hash(cfg)
    need_train = any(m in LEARNED_METHODS for m in cfg.methods)
    train_ds, test_ds = build_datasets(cfg, smnr_db, need_train)
    rows = []
    for method in cfg.methods:
        started = time.time()
        try:
            params = None
            if method in LEARNED_METHODS:
                ckpt = checkpoint_path(cfg, method, smnr_db)
                if os.path.exists(ckpt):
                    params, _ = load_params(ckpt)
                else:
                    params = train_method(cfg, method, smnr_db, train_ds).params
            value, stderr = evaluate_method(cfg, method, smnr_db, test_ds, params)
            rows.append(ResultRow(method, smnr_db, value, stderr, len(test_ds),
                                  cfg.t_test, digest, wall_time_s=time.time() - started))
        except (SemidanseError, np.linalg.LinAlgError, OSError) as exc:
            rows.append(ResultRow(method, smnr_db, float("nan"), float("nan"),
                                  len(test_ds), cfg.t_test, digest,
                                  wall_time_s=time.time() - started,
                                  error=f"{type(exc).__name__}: {exc}"))
    return rows


SWEEP_CSV_COLUMNS = ("method", "smnr_db", "nmse_db", "nmse_stderr_db",
                     "n_test", "t_test", "config_hash", "error")


def _format_float(x: float) -> str:
    return "nan" if not np.isfinite(x) else repr(float(x))


def write_sweep_csv(rows: list[ResultRow], path: str) -> None:
    lines = [",".join(SWEEP_CSV_COLUMNS)]
    for r in sorted(rows, key=lambda r: (r.method, r.smnr_db)):
        lines.append(",".join([
            r.method, _format_float(r.smnr_db), _format_float(r.nmse_db),
            _format_float(r.nmse_stderr_db), str(r.n_test), str(r.t_test),
            r.config_hash, r.error,
        ]))
    os.makedirs(os.path.dirname(os.path.abspath(path)) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def run_sweep(cfg: ExperimentConfig, jobs: int = 1) -> list[ResultRow]:
    """All (method, SMNR) points; per-method failures land in the row's error.

    Writes sweep.csv (deterministic bytes) and run_log.json (timings) under
    the configured output directory.
    """
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_run_point, [cfg] * len(cfg.smnr_db), cfg.smnr_db))
    else:
        chunks = [_run_point(cfg, s) for s in cfg.smnr_db]
    rows = [row for chunk in chunks for row in chunk]
    os.makedirs(cfg.output_dir, exist_ok=True)
    write_sweep_csv(rows, os.path.join(cfg.output_dir, "sweep.csv"))
    run_log = {
        "config_hash": config_hash(cfg),
        "points": [
            {"method": r.method, "smnr_db": r.smnr_db, "wall_time_s": round(r.wall_time_s, 3),
             "error": r.error}
            for r in sorted(rows, key=lambda r: (r.method, r.smnr_db))
        ],
    }
    with open(os.path.join(cfg.output_dir, "run_log.json"), "w", encoding="utf-8") as fh:
        json.dump(run_log, fh, indent=2, sort_keys=True)
    return rows


# ---------------------------------------------------------------------------
# Trajectory dumps.
# ---------------------------------------------------------------------------


def dump_trajectory(cfg: ExperimentConfig, method: str, smnr_db: float, index: int,
                    out_path: str, svg: bool = False) -> str:
    """Per-step CSV of truth, measurements, posterior mean, +-1 sigma, forecasts."""
    _, test_ds = build_datasets(cfg, smnr_db, need_train=False)
    if not 0 <= index < len(test_ds):
        raise ValueError(f"trajectory index {index} out of range 0..{len(test_ds) - 1}")
    params = _method_params(cfg, method, smnr_db)
    out = _estimate(cfg, method, test_ds, params, [index], keep_full_covs=True)
    states = test_ds.states[index]
    meas = test_ds.measurements[index]
    est_means = out.means[0]
    est_sigmas = np.sqrt(np.maximum(np.einsum("tkk->tk", out.covs[0]), 0.0))
    pred_means = out.pred_meas_means[0]
    pred_sigmas = np.sqrt(np.maximum(np.einsum("tii->ti", out.pred_meas_covs[0]), 0.0))

    n = meas.shape[1]
    header = (["t"] + [f"x{k+1}" for k in range(3)] + [f"y{i+1}" for i in range(n)]
              + [f"est{k+1}" for k in range(3)] + [f"sigma{k+1}" for k in range(3)]
              + [f"ypred{i+1}" for i in range(n)] + [f"ypred_sigma{i+1}" for i in range(n)])
    lines = [",".join(header)]
    for t in range(len(meas)):
        row = [str(t + 1)]
        row += [repr(float(v)) for v in states[t]]
        row += [repr(float(v)) for v in meas[t]]
        row += [repr(float(v)) for v in est_means[t]]
        row += [repr(float(v)) for v in est_sigmas[t]]
        row += [repr(float(v)) for v in pred_means[t]]
        row += [repr(float(v)) for v in pred_sigmas[t]]
        lines.append(",".join(row))
    os.makedirs(os.path.dirname(os.path.abspath(out_path)) or ".", exist_ok=True)
    tmp = out_path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, out_path)

    if svg:
        base = os.path.splitext(out_path)[0]
        ts = np.arange(1, len(meas) + 1)
        for k in range(3):
            line_plot(
                f"{base}_x{k+1}.svg",
                [(ts, states[:, k], "truth"),
                 (ts, est_means[:, k], f"{method} mean"),
                 (ts, est_means[:, k] + est_sigmas[:, k], "+1 sigma"),
                 (ts, est_means[:, k] - est_sigmas[:, k], "-1 sigma")],
                title=f"{method} coordinate {k+1}",
            )
        projection_plot(f"{base}_3d.svg", [(states, "truth"), (est_means, method)],
                        title=f"{method} trajectory projection")
    return out_path


def dof_report_from_config(cfg: ExperimentConfig, smnr_db: float | None = None) -> dict:
    """Constraint-counting diagnostics for the configured dataset sizes."""
    point = cfg.smnr_db[0] if smnr_db is None else smnr_db
    train_ds, _ = build_datasets(cfg, point, need_train=True)
    semi = split_semi(train_ds, SplitConfig(kappa=cfg.kappa, seed=cfg.split_seed))
    model = dataset_mod.dataset_model(train_ds)
    params = init_params(NetDims(input_dim=model.n, state_dim=model.m), cfg.init_seed)
    report = dof_report(semi, params, model)
    report["config_hash"] = config_hash(cfg)
    return report


def state_coordinate_nmse(cfg: ExperimentConfig, method: str, smnr_db: float,
                          params=None) -> dict:
    """Aggregate plus per-coordinate NMSE for one method on the test set."""
    _, test_ds = build_datasets(cfg, smnr_db, need_train=False)
    truth = test_ds.states
    params = _method_params(cfg, method, smnr_db, params)
    est = list(_estimate(cfg, method, test_ds, params).means)
    report = {"aggregate": nmse_db(truth, est)}
    for k in range(3):
        report[f"coord{k+1}"] = nmse_db(truth, est, coords=[k])
    report["per_trajectory"] = nmse_db_per_trajectory(truth, est).tolist()
    return report


def replace_config(cfg: ExperimentConfig, **kwargs) -> ExperimentConfig:
    return replace(cfg, **kwargs)
