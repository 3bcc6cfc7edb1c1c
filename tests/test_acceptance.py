"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one `[ACCEPTANCE] ...` pass/fail line (run with -s to stream
them). The heavy desk-scale trainings are shared through session fixtures.
Run only this gate with:

    pytest tests/test_acceptance.py -v -s
"""

import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from semidanse import dynamics, harness
from semidanse.baselines import UkfConfig, ekf_batch, ukf_batch
from semidanse.dataset import PairedDataset, SplitConfig, split_semi
from semidanse.estimator import (
    Adam,
    BatchItem,
    _batch_loss_and_grads,
    _posterior,
    _unsup_terms,
    clip_by_global_norm,
    dof_report,
    infer_batch,
    total_loss,
)
from semidanse.harness import ExperimentConfig, run_sweep
from semidanse.measurement import MeasModel, builtin_h, calibrate_sigma_w, empirical_smnr_db
from semidanse.metrics import nmse_db
from semidanse.numerics import _sigma
from semidanse.prior_net import PARAM_KEYS, NetDims, PriorNetParams, forward_batch, init_params
from conftest import (GaussianBelief, LinearProcess, blas_environment, gaussian_condition,
                      kf_oracle, matexp_oracle)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

PUBLISHED_EKF_NMSE = {-10.0: -1.89, 0.0: -4.26, 10.0: -12.46, 20.0: -26.11, 30.0: -30.62}
PUBLISHED_UKF_NMSE = {-10.0: -5.38, 0.0: -7.83, 10.0: -15.22, 20.0: -25.99, 30.0: -30.52}
REPRODUCTION_TOLERANCE_DB = 1.5
# The C5 sweep.csv sha256 per environment (numpy version, BLAS name, version and core, as
# conftest.blas_environment reports them). BLAS rounding depends on the build and on the
# kernels picked for the CPU, so a digest is checked only where it was recorded.
C5_SWEEP_SHA256 = {
    ("2.4.6", "scipy-openblas", "0.3.31.188.0", "SkylakeX"):
        "be783fcf699aeff28b356cdb9ba1e97030ec6e350a79a4295d094955c2d67d59",
}


def _report(criterion: str, ok: bool, detail: str, elapsed: float | None = None):
    status = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"[ACCEPTANCE] {criterion} {status}{timing}: {detail}")
    assert ok, f"{criterion} failed: {detail}"


def _generic_params(input_dim: int, seed: int):
    """Seeded init plus a dense offset, away from the zero-bias ReLU kinks."""
    base = init_params(NetDims(input_dim=input_dim), seed)
    gen = np.random.default_rng(seed + 1)
    vec = base.to_vector() + 0.05 * gen.standard_normal(base.num_params())
    return base.from_vector(vec)


def _block_direction(params, key: str, rng) -> np.ndarray:
    """A random unit parameter vector that is zero outside block `key`."""
    arrays = {k: np.zeros_like(a) for k, a in params.arrays.items()}
    arrays[key] = rng.standard_normal(arrays[key].shape)
    vec = PriorNetParams(params.dims, arrays).to_vector()
    return vec / np.linalg.norm(vec)


# ---------------------------------------------------------------------------
# Criterion 1: posterior update vs brute-force Gaussian conditioning.
# ---------------------------------------------------------------------------


def test_c01_posterior_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.time()
    worst = 0.0
    for trial in range(1000):
        n = 1 + trial % 2
        h = rng.standard_normal((n, 3))
        sigma_w2 = float(rng.uniform(0.05, 2.0))
        mean = rng.standard_normal(3)
        var = rng.uniform(0.1, 3.0, size=3)
        y = rng.standard_normal(n)
        model = MeasModel.isotropic(h, sigma_w2)
        # The batched posterior kernel at B = T = 1.
        mu, l = _posterior(mean[None, None], var[None, None], model.h,
                           model.c_w, y[None, None])
        sigma = _sigma(l, full=True)
        oracle = gaussian_condition(mean, np.diag(var), h, model.c_w, y)
        worst = max(worst,
                    float(np.abs(mu[0, 0] - oracle.mean).max()),
                    float(np.abs(sigma[0, 0] - oracle.cov).max()))
    elapsed = time.time() - started
    _report("C1 posterior-oracle", worst < 1e-9 and elapsed < 5.0,
            f"max abs deviation {worst:.2e} over 1000 instances (tol 1e-9)", elapsed)


# ---------------------------------------------------------------------------
# Criterion 2: full-chain gradient vs central finite differences.
# ---------------------------------------------------------------------------


def test_c02_full_chain_gradient():
    rng = np.random.default_rng(202)
    started = time.time()
    model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
    params = _generic_params(2, seed=7)
    theta = params.to_vector()
    t_len = 10

    def batch_for(kappa: float):
        items = []
        for i in range(4):
            ys = rng.standard_normal((t_len, 2))
            xs = rng.standard_normal((t_len, 3)) if i < round(kappa * 4) else None
            items.append(BatchItem(measurements=ys, states=xs))
        return items

    worst = 0.0
    for kappa in (0.0, 0.5):
        items = batch_for(kappa)
        _, grads = _batch_loss_and_grads(params, items, model, want_grads=True)
        grad_vec = grads.to_vector()

        def value(vec):
            loss, _ = _batch_loss_and_grads(params.from_vector(vec), items, model,
                                            want_grads=False)
            return loss

        idx = rng.choice(theta.size, size=50, replace=False)
        step = 1e-5
        for i in idx:
            plus = theta.copy()
            plus[i] += step
            minus = theta.copy()
            minus[i] -= step
            fd = (value(plus) - value(minus)) / (2 * step)
            rel = abs(fd - grad_vec[i]) / max(abs(fd), abs(grad_vec[i]), 1e-6)
            worst = max(worst, rel)
        # Every block, however few of the sampled entries fall in it: the derivative
        # along a seeded random unit direction supported on that block alone.
        for key in PARAM_KEYS:
            v = _block_direction(params, key, rng)
            fd = (value(theta + step * v) - value(theta - step * v)) / (2 * step)
            an = float(grad_vec @ v)
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-6))
    elapsed = time.time() - started
    _report("C2 full-chain-gradient", worst < 1e-4 and elapsed < 30.0,
            f"max rel err {worst:.2e} over 100 sampled parameters and a random direction "
            f"in each of the {len(PARAM_KEYS)} blocks ({', '.join(PARAM_KEYS)}), "
            f"kappa 0 and 0.5 (tol 1e-4)", elapsed)


# ---------------------------------------------------------------------------
# Criterion 3: fixed-order Taylor exponential vs scaling-and-squaring.
# ---------------------------------------------------------------------------


def test_c03_matrix_exponential():
    started = time.time()
    rng_states = {
        sys_name: dynamics.simulate_batch(dynamics.make_spec(sys_name, 0.05), 80,
                                          seeds=[303 + k for k in range(3)])
        for sys_name in dynamics.SYSTEMS
    }
    checked = 0
    worst = 0.0
    gen = np.random.default_rng(303)
    while checked < 200:
        sys_name = dynamics.SYSTEMS[checked % 3]
        spec = dynamics.make_spec(sys_name, 0.05)
        states = rng_states[sys_name]
        x = states[gen.integers(0, states.shape[0]), gen.integers(0, states.shape[1])]
        if sys_name == dynamics.ROSSLER and abs(x[2]) <= dynamics.ROSSLER_X3_GUARD:
            continue
        a_dt = dynamics.drift_generator_batch(spec, x[None])[0] * spec.step_size
        checked += 1
        if np.linalg.norm(a_dt, 2) > 0.5:
            continue
        ours = dynamics.taylor_matrix_exp(a_dt)
        oracle = matexp_oracle(a_dt)
        rel = np.linalg.norm(ours - oracle, 2) / np.linalg.norm(oracle, 2)
        worst = max(worst, float(rel))
    elapsed = time.time() - started
    _report("C3 matrix-exponential", worst < 1e-6 and elapsed < 5.0,
            f"max rel err {worst:.2e} on drift matrices with ||A dt|| <= 0.5 "
            f"out of 200 samples (tol 1e-6)", elapsed)


# ---------------------------------------------------------------------------
# Criterion 4: EKF/UKF reduce to the closed-form KF on a linear system.
# ---------------------------------------------------------------------------


def test_c04_filter_reduction():
    rng = np.random.default_rng(404)
    started = time.time()
    f = 0.9 * np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    q = 0.1
    h = builtin_h("dense2x3")
    sw2 = 0.3
    x = rng.standard_normal(3)
    ys = []
    for t in range(100):
        if t > 0:
            x = f @ x + np.sqrt(q) * rng.standard_normal(3)
        ys.append(h @ x + np.sqrt(sw2) * rng.standard_normal(2))
    ys = np.array(ys)
    model = MeasModel.isotropic(h, sw2)
    proc = LinearProcess(f, q * np.eye(3))
    x0 = GaussianBelief(np.zeros(3), 4.0 * np.eye(3))
    km, kc = kf_oracle(ys, f, q * np.eye(3), h, sw2 * np.eye(2), x0.mean, x0.cov)
    worst = 0.0
    for out in (ekf_batch(ys[None], proc, model, x0.mean, x0.cov, keep_full_covs=True),
                ukf_batch(ys[None], proc, model, x0.mean, x0.cov, UkfConfig(), keep_full_covs=True)):
        worst = max(worst, float(np.abs(out.means[0] - km).max()),
                    float(np.abs(out.covs[0] - kc).max()))
    elapsed = time.time() - started
    _report("C4 filter-reduction", worst < 1e-8 and elapsed < 5.0,
            f"max per-step deviation from the KF oracle {worst:.2e} over T=100 "
            f"(tol 1e-8)", elapsed)


# ---------------------------------------------------------------------------
# Criterion 5: full-scale EKF/UKF reproduction of the published curve.
# ---------------------------------------------------------------------------


def test_c05_published_curve_reproduction(tmp_path):
    started = time.time()
    cfg = harness.load_config(
        os.path.join(CONFIG_DIR, "lorenz_dense_full.cfg"),
        overrides={"output_dir": str(tmp_path / "out"), "data_dir": str(tmp_path / "data")},
    )
    rows = run_sweep(cfg)
    elapsed = time.time() - started
    with open(os.path.join(cfg.output_dir, "sweep.csv"), "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    references = {"ekf": PUBLISHED_EKF_NMSE, "ukf": PUBLISHED_UKF_NMSE}
    details = []
    ok = elapsed < 900.0
    for row in sorted(rows, key=lambda r: (r.method, r.smnr_db)):
        ref = references[row.method][row.smnr_db]
        dev = row.nmse_db - ref
        ok &= not row.error and abs(dev) <= REPRODUCTION_TOLERANCE_DB
        details.append(f"{row.method}@{row.smnr_db:+.0f}dB {row.nmse_db:.2f} "
                       f"(ref {ref:.2f}, dev {dev:+.2f})")
    env = blas_environment()
    pinned = C5_SWEEP_SHA256.get(env)
    if pinned is None:
        details.append(f"sweep.csv sha256 {digest} not checked: no digest is recorded for numpy "
                       f"{env[0]} with BLAS {env[1]} {env[2]} on core {env[3]}")
    else:
        ok &= digest == pinned
        details.append(f"sweep.csv sha256 {digest} (recorded {pinned})")
    _report("C5 published-curve-reproduction", ok, "; ".join(details), elapsed)


# ---------------------------------------------------------------------------
# Criteria 6-8: desk-scale failure/success/forecasting signatures.
# ---------------------------------------------------------------------------


def _desk_config(tmp_dir: str, **overrides) -> ExperimentConfig:
    cfg = harness.load_config(os.path.join(CONFIG_DIR, "lorenz_desk.cfg"))
    return harness.replace_config(
        cfg, output_dir=os.path.join(tmp_dir, "out"),
        data_dir=os.path.join(tmp_dir, "data"), **overrides,
    )


@pytest.fixture(scope="session")
def desk_dense_sweep(tmp_path_factory):
    """Criterion 6 artifacts: DANSE (kappa=0) + EKF over four SMNR points."""
    tmp = str(tmp_path_factory.mktemp("desk_dense"))
    cfg = _desk_config(tmp, methods=("danse", "ekf"))
    started = time.time()
    rows = run_sweep(cfg, jobs=min(len(cfg.smnr_db), os.cpu_count() or 1))
    return cfg, rows, time.time() - started


@pytest.fixture(scope="session")
def desk_partial_models(tmp_path_factory):
    """Criteria 7/8 artifacts: kappa=0 and kappa=0.1 models on Partial23 @ 10 dB.

    Both runs share every seed; only the labelled fraction differs. They train in two
    worker processes, which return the parameters by pickle, bits intact.
    """
    tmp = str(tmp_path_factory.mktemp("desk_partial"))
    cfg = _desk_config(tmp, h_name="partial23", smnr_db=(10.0,), methods=("semidanse",))
    started = time.time()
    train_ds, test_ds = harness.build_datasets(cfg, 10.0, need_train=True)
    model = harness.dataset_mod.dataset_model(test_ds)
    truth = test_ds.states
    meas = np.stack(test_ds.measurements)
    runs = {"kappa0": ("danse", 0.0), "kappa01": ("semidanse", 0.1)}
    with ProcessPoolExecutor(max_workers=2) as pool:
        futures = {label: pool.submit(harness.train_method, harness.replace_config(cfg, kappa=k),
                                      method, 10.0, train_ds, save_checkpoint=False)
                   for label, (method, k) in runs.items()}
        results = {label: future.result() for label, future in futures.items()}
    metrics = {}
    for label, result in results.items():
        assert result.log[-1]["train_loss"] < result.log[0]["train_loss"]
        out = infer_batch(result.params, meas, model, keep_full_covs=True)
        est = [out.means[i] for i in range(len(test_ds))]
        pred = [out.pred_meas_means[i] for i in range(len(test_ds))]
        ys = [meas[i] for i in range(len(test_ds))]
        metrics[label] = {
            "state": nmse_db(truth, est),
            "coord1": nmse_db(truth, est, coords=[0]),
            "ypred": nmse_db(ys, pred),
        }
    return metrics, time.time() - started


def test_c06_failure_signature(desk_dense_sweep):
    cfg, rows, elapsed = desk_dense_sweep
    danse = {r.smnr_db: r.nmse_db for r in rows if r.method == "danse"}
    ekf_rows = {r.smnr_db: r.nmse_db for r in rows if r.method == "ekf"}
    spread = max(danse.values()) - min(danse.values())
    improvement = ekf_rows[0.0] - ekf_rows[30.0]
    ok = spread < 4.0 and improvement > 15.0 and elapsed < 1800.0
    _report("C6 failure-signature", ok,
            f"DANSE plateau spread {spread:.2f} dB over SMNR 0..30 (tol < 4); "
            f"EKF improvement {improvement:.2f} dB (need > 15); "
            f"DANSE points {sorted(danse.items())}", elapsed)


def test_c07_success_signature(desk_partial_models):
    metrics, elapsed = desk_partial_models
    agg_gain = metrics["kappa0"]["state"] - metrics["kappa01"]["state"]
    coord1_gain = metrics["kappa0"]["coord1"] - metrics["kappa01"]["coord1"]
    ok = agg_gain >= 5.0 and coord1_gain >= 5.0 and elapsed < 2700.0
    _report("C7 success-signature", ok,
            f"kappa=0.1 beats kappa=0 by {agg_gain:.2f} dB aggregate "
            f"({metrics['kappa01']['state']:.2f} vs {metrics['kappa0']['state']:.2f}) and "
            f"{coord1_gain:.2f} dB on coordinate 1 "
            f"({metrics['kappa01']['coord1']:.2f} vs {metrics['kappa0']['coord1']:.2f}); "
            f"need >= 5 on both", elapsed)


def test_c08_forecasting_property(desk_partial_models):
    metrics, _ = desk_partial_models
    ypred_gap = abs(metrics["kappa0"]["ypred"] - metrics["kappa01"]["ypred"])
    state_gap = abs(metrics["kappa0"]["state"] - metrics["kappa01"]["state"])
    ok = ypred_gap < 3.0 and state_gap >= 5.0
    _report("C8 forecasting-property", ok,
            f"measurement-forecast NMSE gap {ypred_gap:.2f} dB "
            f"({metrics['kappa0']['ypred']:.2f} vs {metrics['kappa01']['ypred']:.2f}; "
            f"tol < 3) while state NMSE gap {state_gap:.2f} dB (need >= 5)")


# ---------------------------------------------------------------------------
# Criterion 9: kappa = 0 objective identity.
# ---------------------------------------------------------------------------


def test_c09_semi_supervised_identity():
    rng = np.random.default_rng(909)
    model = MeasModel.isotropic(builtin_h("dense2x3"), 0.5)
    params = _generic_params(2, seed=17)
    measurements = [rng.standard_normal((12, 2)) for _ in range(6)]
    items = [BatchItem(measurements=y) for y in measurements]

    loss_semi = total_loss(params, items, model)
    ys = np.stack(measurements)
    mean, var, _ = forward_batch(params, ys)
    loss_unsup = float(_unsup_terms(mean, var, model.h, model.c_w, ys, False)[0].sum())
    bitwise = loss_semi == loss_unsup

    theta0 = params.to_vector()
    stepped = []
    for batch in (items, [BatchItem(measurements=y) for y in measurements]):
        adam = Adam(theta0.size, 5e-4)
        _, grads = _batch_loss_and_grads(params, batch, model, want_grads=True)
        stepped.append(adam.step(theta0.copy(), clip_by_global_norm(grads.to_vector())))
    identical_step = bool(np.array_equal(stepped[0], stepped[1]))
    _report("C9 semi-supervised-identity", bitwise and identical_step,
            f"total_loss == unsupervised objective bit-for-bit ({loss_semi!r}); "
            f"one Adam step parameter-identical: {identical_step}")


# ---------------------------------------------------------------------------
# Criterion 10: calibration round trips and counting diagnostics.
# ---------------------------------------------------------------------------


def test_c10_calibration_round_trips():
    started = time.time()
    spec = dynamics.make_spec("lorenz63", 0.1)
    states = dynamics.simulate_batch(spec, 2000, seeds=list(range(100)))
    trajs = [states[i] for i in range(100)]
    h = builtin_h("dense2x3")
    sigma = calibrate_sigma_w(trajs, h, 10.0)
    model = MeasModel.isotropic(h, sigma)
    back = empirical_smnr_db(trajs, model.h, sigma)
    smnr_ok = abs(back - 10.0) <= 0.3

    ds = PairedDataset(states=[np.zeros((100, 3))] * 1000,
                       measurements=[np.zeros((100, 2))] * 1000,
                       item_seeds=list(range(1000)), meta={})
    semi = split_semi(ds, SplitConfig(kappa=0.02, seed=3))
    split_ok = semi.n_labelled == 20 and semi.n_unlabelled == 980

    params = init_params(NetDims(input_dim=2), 0)
    report = dof_report(semi, params, MeasModel.isotropic(h, 1.0))
    dof_ok = report["unsup_constraints"] == 200_000 and report["sup_constraints"] == 6_000
    elapsed = time.time() - started
    _report("C10 calibration-round-trips", smnr_ok and split_ok and dof_ok,
            f"SMNR round trip {back:.3f} dB (target 10 +- 0.3); "
            f"N_s={semi.n_labelled} (need 20); nNT={report['unsup_constraints']} "
            f"mN_sT={report['sup_constraints']}", elapsed)


# ---------------------------------------------------------------------------
# Criterion 11: byte-identical sweep reruns.
# ---------------------------------------------------------------------------


def test_c11_sweep_determinism(tmp_path):
    started = time.time()
    cfg = ExperimentConfig(
        smnr_db=(0.0, 20.0), methods=("ekf", "ukf", "danse"),
        n_train=24, t_train=20, n_test=8, t_test=200,
        batch_size=8, max_epochs=3,
        output_dir=str(tmp_path / "a"), data_dir=str(tmp_path / "data"),
    )
    run_sweep(cfg)
    first = open(os.path.join(cfg.output_dir, "sweep.csv"), "rb").read()
    cfg2 = harness.replace_config(cfg, output_dir=str(tmp_path / "b"))
    run_sweep(cfg2)
    second = open(os.path.join(cfg2.output_dir, "sweep.csv"), "rb").read()
    elapsed = time.time() - started
    _report("C11 sweep-determinism", first == second,
            f"rerun produced byte-identical CSV ({len(first)} bytes)", elapsed)
