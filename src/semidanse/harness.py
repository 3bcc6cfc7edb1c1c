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
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from . import dataset as dataset_mod
from . import dynamics, metrics
from .baselines import Ekf, Ukf, UkfConfig, filter_batch, initial_beliefs_from_truth
# perfbench/spans.py probes these two names here (ROADMAP item 4 retargets its table).
from .baselines import ekf_batch, ukf_batch  # noqa: F401
from .dataset import MeasuredSplit, PairedDataset, SplitConfig, split_semi
from .estimator import TrainConfig, TrainResult, dof_report, infer_batch, train
from .exceptions import DimensionError, SemidanseError
from .measurement import BUILTIN_H_NAMES, MeasModel, builtin_h, calibrate_sigma_w
from .numerics import BatchFilterOutput
from .prior_net import NetDims, init_params, load_params, save_params
from .serialize import require_match, write_atomic
from .svg import line_plot, projection_plot

DATA_DIR_ENV = "SEMIDANSE_DATA_DIR"

LEARNED_METHODS = ("danse", "semidanse")
FILTER_METHODS = ("ekf", "ukf")
ALL_METHODS = FILTER_METHODS + LEARNED_METHODS

# The values each enumerated config key may take.
CONFIG_CHOICES = {
    "system": dynamics.SYSTEMS, "h_name": BUILTIN_H_NAMES,
    "process_noise_mode": ("literal", "calibrated"), "smnr_convention": ("trace", "total"),
    "filter_init": ("truth", "uninformative", "exact"),
}


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
    process_noise_mode: str = "literal"
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
    filter_init: str = "truth"
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
        """Refuses a setting that a run would refuse later, before any run starts: the
        ranges are those of the split, training and UKF settings the runs build."""
        for key, allowed in CONFIG_CHOICES.items():
            if getattr(self, key) not in allowed:
                raise ValueError(f"{key} {getattr(self, key)!r} is not one of {allowed}")
        for key in ("smnr_db", "methods"):
            if not getattr(self, key):
                raise ValueError(f"{key} is empty")
        for point in self.smnr_db:
            if not np.isfinite(point):
                raise ValueError(f"smnr_db point {point!r} is not finite")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise ValueError(f"unknown method {m!r}; expected subset of {ALL_METHODS}")
        SplitConfig(self.kappa, self.split_seed)
        train_config_from(self)
        UkfConfig(self.ukf_alpha, self.ukf_beta, self.ukf_kappa).weights(dynamics.STATE_DIM)

    def resolved_data_dir(self) -> str:
        return os.environ.get(DATA_DIR_ENV) or self.data_dir or "data"


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}

# The [section] of a config file that holds each key; every field has one.
CONFIG_SECTIONS = {
    "experiment": ("system", "h_name", "smnr_db", "kappa", "methods"),
    "data": ("n_train", "t_train", "n_test", "t_test", "process_noise_db",
             "process_noise_mode", "smnr_convention", "rossler_epsilon", "burn_in"),
    "train": ("batch_size", "max_epochs", "learning_rate", "patience"),
    "filters": ("ukf_alpha", "ukf_beta", "ukf_kappa", "filter_init"),
    "seeds": ("train_seed", "test_seed", "split_seed", "init_seed", "shuffle_seed",
              "filter_init_seed", "calibration_seed"),
    "output": ("output_dir", "data_dir"),
}
_KEY_SECTIONS = {key: section for section, keys in CONFIG_SECTIONS.items() for key in keys}


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
    """Config from a key=value file plus flat overrides (key -> raw string).

    A key outside every section of CONFIG_SECTIONS, or in another section than its own,
    is a ValueError naming the key and the section; so is an unknown section."""
    values: dict[str, object] = {}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
        # configparser shows [DEFAULT] keys in every section, so that section goes first
        for section in [parser.default_section] * bool(parser.defaults()) + parser.sections():
            items = parser.items(section)
            if section not in CONFIG_SECTIONS:
                held = f" holding key {items[0][0]!r}" if items else ""
                raise ValueError(f"unknown config section [{section}]{held}")
            for key, raw in items:
                if key not in _FIELD_TYPES:
                    raise ValueError(f"unknown config key {key!r} in [{section}]")
                if _KEY_SECTIONS[key] != section:
                    raise ValueError(f"config key {key!r} in [{section}] belongs in "
                                     f"[{_KEY_SECTIONS[key]}]")
                values[key] = _parse_value(key, raw)
    for key, raw in (overrides or {}).items():
        values[key] = _parse_value(key, raw)
    return ExperimentConfig(**values)


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


def dataset_path(cfg: ExperimentConfig, smnr_db: float, which: str) -> str:
    """`<data dir>/<system>/<repr(smnr_db)>/<which>.bin`; distinct SMNR points never collide."""
    return os.path.join(cfg.resolved_data_dir(), cfg.system, repr(float(smnr_db)), f"{which}.bin")


def _split_settings(cfg: ExperimentConfig, smnr_db: float, split: str) -> tuple:
    """(n_items, t, master_seed, extra meta) of the train or test split."""
    sizes = ((cfg.n_train, cfg.t_train, cfg.train_seed) if split == "train"
             else (cfg.n_test, cfg.t_test, cfg.test_seed))
    return *sizes, {"smnr_db": smnr_db, "split": split, "smnr_convention": cfg.smnr_convention}


def _generate_split(cfg: ExperimentConfig, spec: dynamics.SsmSpec, smnr_db: float,
                    split: str) -> PairedDataset:
    """Simulate one split; sigma_w2 is calibrated on the split's own states.

    Training noise comes from training statistics, test noise from test
    statistics.
    """
    n_items, t, master_seed, extra_meta = _split_settings(cfg, smnr_db, split)
    h = builtin_h(cfg.h_name)

    def model_for(states: np.ndarray) -> MeasModel:
        sigma_w2 = calibrate_sigma_w(states, h, smnr_db)
        if cfg.smnr_convention == "total":
            sigma_w2 *= h.shape[0]
        return MeasModel.isotropic(h, sigma_w2)

    return dataset_mod.generate(spec, model_for, n_items, t, master_seed,
                                extra_meta=extra_meta, burn_in=cfg.burn_in)


def _load_or_generate(cfg: ExperimentConfig, spec: dynamics.SsmSpec, smnr_db: float,
                      split: str) -> tuple[PairedDataset, str | None]:
    """One split and the path it was read from: from the data dir, or generated, with no path.

    A stored split is used only if its meta matches the request in every setting
    `dataset.settings_meta` records and in its SMNR, SMNR convention and split; otherwise
    the first field that differs is named in an ArtifactMismatchError.
    """
    path = dataset_path(cfg, smnr_db, split)
    if not os.path.exists(path):
        return _generate_split(cfg, spec, smnr_db, split), None
    data = dataset_mod.load(path)
    n_items, t, master_seed, extra_meta = _split_settings(cfg, smnr_db, split)
    require_match("dataset", path, data.meta, {**dataset_mod.settings_meta(
        spec, builtin_h(cfg.h_name), n_items, t, master_seed, cfg.burn_in), **extra_meta})
    return data, path


# The truth of a test split for scoring: called, it gives (first row, states rows) chunks.
Truth = Callable[[], Iterable[tuple[int, np.ndarray]]]


def eval_split(cfg: ExperimentConfig, smnr_db: float) -> tuple[MeasuredSplit, Truth]:
    """The test split in the two parts that evaluation reads in turn: what estimation may
    read, and the truth that only scoring reads.

    The split is read or generated as every split is (`_load_or_generate`). A stored
    split's states are dropped before this returns, and its truth streams them from the
    file again (`dataset.stream_states`), refusing the file if its meta changed in
    between. A generated split keeps its states in memory as the truth's one chunk.
    """
    data, path = _load_or_generate(cfg, build_spec(cfg), smnr_db, "test")
    measured = MeasuredSplit(data.measurements, data.states[:, 0].copy(), data.meta)
    if path is None:
        return measured, lambda: [(0, data.states)]
    stored_meta = {**data.meta, "item_seeds": data.item_seeds}
    return measured, partial(dataset_mod.stream_states, path, stored_meta)


def build_datasets(cfg: ExperimentConfig, smnr_db: float,
                   need_train: bool) -> tuple[PairedDataset | None, PairedDataset]:
    """(train or None, test) datasets: loaded from the data dir when present, else generated."""
    spec = build_spec(cfg)
    train_ds = _load_or_generate(cfg, spec, smnr_db, "train")[0] if need_train else None
    return train_ds, _load_or_generate(cfg, spec, smnr_db, "test")[0]


def train_split(cfg: ExperimentConfig, smnr_db: float) -> PairedDataset:
    """The training split alone, loaded from the data dir when present, else generated."""
    return _load_or_generate(cfg, build_spec(cfg), smnr_db, "train")[0]


def generate_and_save(cfg: ExperimentConfig, smnr_db: float) -> tuple[str, str]:
    """CLI `generate`: simulate both splits from the config and replace their files."""
    spec = build_spec(cfg)
    paths = []
    for split in ("train", "test"):
        paths.append(dataset_path(cfg, smnr_db, split))
        dataset_mod.save(_generate_split(cfg, spec, smnr_db, split), paths[-1])
    return paths[0], paths[1]


def train_config_from(cfg: ExperimentConfig) -> TrainConfig:
    return TrainConfig(**{f.name: getattr(cfg, f.name) for f in fields(TrainConfig)})


def checkpoint_path(cfg: ExperimentConfig, method: str, smnr_db: float) -> str:
    kappa = checkpoint_settings(cfg, method, smnr_db)["kappa"]
    name = f"{method}_{cfg.system}_{cfg.h_name}_smnr{float(smnr_db)!r}_kappa{float(kappa)!r}.ckpt"
    return os.path.join(cfg.output_dir, "checkpoints", name)


def checkpoint_settings(cfg: ExperimentConfig, method: str, smnr_db: float) -> dict:
    """The settings that decide a learned method's trained weights.

    They cover the training data, the labelled split and the optimizer, but no
    test-set or filter key. A checkpoint stores them in its meta and is reused
    only while they match.
    """
    keys = ("system", "rossler_epsilon", "h_name", "process_noise_db", "process_noise_mode",
            "calibration_seed", "smnr_convention", "burn_in", "n_train", "t_train",
            "train_seed", "batch_size", "max_epochs", "learning_rate", "patience",
            "split_seed", "init_seed", "shuffle_seed")
    return {"method": method, "smnr_db": smnr_db, "kappa": 0.0 if method == "danse" else cfg.kappa,
            **{key: getattr(cfg, key) for key in keys}}


def train_method(cfg: ExperimentConfig, method: str, smnr_db: float,
                 train_ds: PairedDataset, save_checkpoint: bool = True) -> TrainResult:
    """Train danse (kappa = 0) or semidanse (configured kappa) on one SMNR point."""
    if method not in LEARNED_METHODS:
        raise ValueError(f"{method!r} is not a learned method")
    settings = checkpoint_settings(cfg, method, smnr_db)
    semi = split_semi(train_ds, SplitConfig(kappa=settings["kappa"], seed=cfg.split_seed))
    model = dataset_mod.dataset_model(train_ds)
    result = train(semi, model, train_config_from(cfg))
    if save_checkpoint:
        path = checkpoint_path(cfg, method, smnr_db)
        save_params(result.params, path,
                    {**settings, "best_epoch": result.best_epoch, "best_val": result.best_val})
        write_atomic(os.path.splitext(path)[0] + ".log.jsonl",
                     "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in result.log))
    return result


def _filter_init(cfg: ExperimentConfig, first_states: np.ndarray):
    """Initial filter beliefs from the (N, m) first states: corrupted truth, exact truth,
    or, where the truth is withheld, a broad zero-mean prior with covariance 10 I."""
    if cfg.filter_init == "truth":
        return initial_beliefs_from_truth(first_states, cfg.filter_init_seed)
    eye = np.eye(first_states.shape[-1])
    if cfg.filter_init == "exact":
        return first_states.copy(), 1e-10 * eye
    return np.zeros_like(first_states), 10.0 * eye


def _method_params(cfg: ExperimentConfig, method: str, smnr_db: float,
                   train_missing: bool = False):
    """Network parameters of a learned method, from its checkpoint.

    A checkpoint is used only if the settings stored in it match
    `checkpoint_settings`; otherwise ArtifactMismatchError names the first
    differing one. A missing checkpoint is a FileNotFoundError, unless
    `train_missing` asks to train (and save) it; only then is the training
    split built.
    """
    ckpt = checkpoint_path(cfg, method, smnr_db)
    if not os.path.exists(ckpt):
        if not train_missing:
            raise FileNotFoundError(f"missing checkpoint for {method}: {ckpt}")
        return train_method(cfg, method, smnr_db, train_split(cfg, smnr_db)).params
    params, meta = load_params(ckpt)
    require_match("checkpoint", ckpt, meta, checkpoint_settings(cfg, method, smnr_db))
    return params


def method_outputs(cfg: ExperimentConfig, methods: list[str], smnr_db: float,
                   measured: MeasuredSplit, rows=slice(None), keep_full_covs: bool = False,
                   train_missing: bool = False) -> list[BatchFilterOutput]:
    """Causal estimates of each of `methods`, in order, on the test trajectories `rows`.

    `measured` is all an estimator may read of the test split: the measurements,
    the meta (H and C_w) and each trajectory's first state, from which
    `cfg.filter_init` draws the filters' initial beliefs. The filters' process model
    comes from the config (`build_spec`), as the split's did, which `_load_or_generate`
    checks for a stored split. The filter methods among them run together, in one
    `filter_batch` loop, from initial beliefs drawn for the whole test set before
    `rows` are selected, so a trajectory gets the same initial belief whichever rows
    run. Each learned method runs `infer_batch` with its checkpoint's parameters
    (`_method_params`).
    """
    ys, model = measured.measurements[rows], dataset_mod.dataset_model(measured)
    filters, filtered = [method for method in methods if method in FILTER_METHODS], []
    if filters:
        spec = build_spec(cfg)
        x0_mean, x0_cov = _filter_init(cfg, measured.first_states)
        ukf_cfg = UkfConfig(alpha=cfg.ukf_alpha, beta=cfg.ukf_beta, kappa=cfg.ukf_kappa)
        predictors = [Ekf() if method == "ekf" else Ukf(model.m, ukf_cfg)
                      for method in filters]
        filtered = filter_batch(predictors, ys, spec, model, x0_mean[rows], x0_cov,
                                keep_full_covs)
    return [filtered.pop(0) if method in FILTER_METHODS
            else infer_batch(_method_params(cfg, method, smnr_db, train_missing), ys, model,
                             keep_full_covs)
            for method in methods]


def score(truth: Truth, estimates: list[np.ndarray],
          per_coordinate: bool = False) -> list[dict[str, float] | SemidanseError]:
    """NMSE of each of a list of (N, T, m) estimate arrays against the truth, which is read
    once for all of them, chunk by chunk.

    Returns, for each array in order, its scores or the error its NMSE raised (the first,
    in coordinate order, as if the split were scored whole). The scores are 'nmse_db' and
    'nmse_stderr_db', the average and standard error of the per-trajectory NMSE over all
    coordinates, and with `per_coordinate` the average 'coord<k>' over coordinate k alone.
    Each trajectory's sums run on its own (T, m) row, so the chunking changes no bit. The
    errors wait until the chunks are all read, so a truth file corrupted since it was first
    read is named as such; that error, and truth chunks that cover another number of
    trajectories than an array, are raised.
    """
    coord_sets = [None] + [[k] for k in range(estimates[0].shape[-1]) if per_coordinate]
    per = [np.empty((len(coord_sets), len(est))) for est in estimates]
    failures, rows = [[None] * len(coord_sets) for _ in estimates], 0
    for start, states in truth():
        rows = start + len(states)
        for est, values, failed in zip(estimates, per, failures):
            for k, coords in enumerate(coord_sets):
                if failed[k] is None:
                    try:
                        values[k, start:rows] = metrics.nmse_db_per_trajectory(
                            states, est[start:rows], coords, first=start)
                    except SemidanseError as exc:
                        failed[k] = exc
    results = []
    for est, values, failed in zip(estimates, per, failures):
        if rows != len(est):
            raise DimensionError(f"truth covers {rows} trajectories, estimates {len(est)}")
        exc = next((exc for exc in failed if exc is not None), None)
        if exc is not None:
            results.append(exc)
            continue
        scores = dict(zip(("nmse_db", "nmse_stderr_db"), metrics.mean_and_stderr(values[0])))
        scores.update((f"coord{k + 1}", float(np.mean(v))) for k, v in enumerate(values[1:]))
        results.append(scores)
    return results


_METHOD_FAILURES = (SemidanseError, np.linalg.LinAlgError, OSError)


def _run_point(cfg: ExperimentConfig, smnr_db: float) -> list[ResultRow]:
    """One row per configured method, in `cfg.methods` order.

    The filter methods run as one group and each learned method alone. A failed
    group of several methods is rerun one method at a time, so a failure lands in
    its own method's row. Estimation runs on the test split with its states dropped
    (`eval_split`); one scoring pass per group reads them again (`score`), and an
    estimate that cannot be scored fails only its own row. A row's time is its
    group's run plus that pass.
    """
    digest = config_hash(cfg)
    measured, truth = eval_split(cfg, smnr_db)

    def row(method, since, stats=(float("nan"), float("nan")), exc=None) -> ResultRow:
        return ResultRow(method, smnr_db, *stats, len(measured), cfg.t_test, digest,
                         wall_time_s=time.time() - since,
                         error="" if exc is None else f"{type(exc).__name__}: {exc}")

    filters = [method for method in cfg.methods if method in FILTER_METHODS]
    groups = ([filters] if filters else []) + [[m] for m in cfg.methods if m in LEARNED_METHODS]
    rows = {}
    for group in groups:  # a failed group of several appends its methods alone
        started = time.time()
        try:
            outs = method_outputs(cfg, group, smnr_db, measured, train_missing=True)
        except _METHOD_FAILURES as exc:
            if len(group) > 1:
                groups += [[method] for method in group]
            else:
                rows[group[0]] = row(group[0], started, exc=exc)
            continue
        try:  # one pass over the truth scores the whole group
            scores = score(truth, [out.means for out in outs])
        except _METHOD_FAILURES as exc:
            scores = [exc] * len(group)
        del outs  # the next group runs without this group's estimates alive
        for method, result in zip(group, scores):
            if isinstance(result, Exception):
                rows[method] = row(method, started, exc=result)
            else:
                rows[method] = row(method, started, (result["nmse_db"], result["nmse_stderr_db"]))
    return [rows[method] for method in cfg.methods]


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
    write_atomic(path, "\n".join(lines) + "\n")


def run_sweep(cfg: ExperimentConfig, jobs: int = 1) -> list[ResultRow]:
    """All (method, SMNR) points; per-method failures land in the row's error.

    Writes sweep.csv (deterministic bytes) and run_log.json (timings) under
    the configured output directory. Up to `jobs` points run at once, each in
    its own worker process.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(cfg.smnr_db))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_point, [cfg] * len(cfg.smnr_db), cfg.smnr_db))
    else:
        chunks = [_run_point(cfg, s) for s in cfg.smnr_db]
    rows = [row for chunk in chunks for row in chunk]
    write_sweep_csv(rows, os.path.join(cfg.output_dir, "sweep.csv"))
    run_log = {
        "config_hash": config_hash(cfg),
        "points": [
            {"method": r.method, "smnr_db": r.smnr_db, "wall_time_s": round(r.wall_time_s, 3),
             "error": r.error}
            for r in sorted(rows, key=lambda r: (r.method, r.smnr_db))
        ],
    }
    write_atomic(os.path.join(cfg.output_dir, "run_log.json"),
                 json.dumps(run_log, indent=2, sort_keys=True))
    return rows


# ---------------------------------------------------------------------------
# Trajectory dumps.
# ---------------------------------------------------------------------------


def dump_trajectory(cfg: ExperimentConfig, method: str, smnr_db: float, index: int,
                    out_path: str, svg: bool = False) -> str:
    """Per-step CSV of truth, measurements, posterior mean, +-1 sigma, forecasts."""
    measured, truth = eval_split(cfg, smnr_db)
    if not 0 <= index < len(measured):
        raise ValueError(f"trajectory index {index} out of range 0..{len(measured) - 1}")
    (out,) = method_outputs(cfg, [method], smnr_db, measured, [index], keep_full_covs=True)
    for start, chunk in truth():  # read to the end, so that the file's CRC is checked
        if start <= index < start + len(chunk):
            states = chunk[index - start]
    meas = measured.measurements[index]
    est_means = out.means[0]
    est_sigmas = np.sqrt(np.maximum(np.einsum("tkk->tk", out.covs[0]), 0.0))
    pred_means = out.pred_meas_means[0]
    pred_sigmas = np.sqrt(np.maximum(np.einsum("tii->ti", out.pred_meas_covs[0]), 0.0))

    m, n = states.shape[1], meas.shape[1]
    header = (["t"] + [f"x{k+1}" for k in range(m)] + [f"y{i+1}" for i in range(n)]
              + [f"est{k+1}" for k in range(m)] + [f"sigma{k+1}" for k in range(m)]
              + [f"ypred{i+1}" for i in range(n)] + [f"ypred_sigma{i+1}" for i in range(n)])
    table = np.concatenate([states, meas, est_means, est_sigmas, pred_means, pred_sigmas], axis=1)
    lines = [",".join(header)]
    lines += [",".join([str(t)] + [repr(v) for v in row]) for t, row in enumerate(table.tolist(), 1)]
    write_atomic(out_path, "\n".join(lines) + "\n")

    if svg:
        base = os.path.splitext(out_path)[0]
        ts = np.arange(1, len(meas) + 1)
        for k in range(m):
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
    train_ds = train_split(cfg, point)
    semi = split_semi(train_ds, SplitConfig(kappa=cfg.kappa, seed=cfg.split_seed))
    model = dataset_mod.dataset_model(train_ds)
    params = init_params(NetDims(input_dim=model.n, state_dim=model.m), cfg.init_seed)
    report = dof_report(semi, params, model)
    report["config_hash"] = config_hash(cfg)
    return report


def replace_config(cfg: ExperimentConfig, **kwargs) -> ExperimentConfig:
    return replace(cfg, **kwargs)
