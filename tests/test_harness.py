"""Experiment harness and CLI tests (desk-size configurations)."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from semidanse import harness
from semidanse.baselines import ekf_batch, initial_beliefs_from_truth
from semidanse.cli import main as cli_main
from semidanse.dataset import dataset_model, dataset_spec
from semidanse.exceptions import SingularityError
from semidanse.harness import (
    ExperimentConfig,
    config_hash,
    dataset_path,
    load_config,
    run_sweep,
    save_config,
)
from semidanse.numerics import gaussian_condition
from semidanse.prior_net import NetDims, forward_batch, init_params, save_params


def tiny_config(tmp_path, **kwargs) -> ExperimentConfig:
    defaults = dict(
        smnr_db=(0.0, 20.0),
        methods=("ekf",),
        n_train=12,
        t_train=16,
        n_test=6,
        t_test=60,
        batch_size=4,
        max_epochs=2,
        output_dir=str(tmp_path / "out"),
        data_dir=str(tmp_path / "data"),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_round_trip_through_file(self, tmp_path):
        cfg = tiny_config(tmp_path, kappa=0.25, methods=("ekf", "ukf"))
        path = str(tmp_path / "exp.cfg")
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg

    def test_overrides_beat_file(self, tmp_path):
        cfg = tiny_config(tmp_path)
        path = str(tmp_path / "exp.cfg")
        save_config(cfg, path)
        loaded = load_config(path, overrides={"kappa": "0.5", "smnr_db": "5,15"})
        assert loaded.kappa == 0.5
        assert loaded.smnr_db == (5.0, 15.0)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[experiment]\nwhatever = 1\n")
        with pytest.raises(ValueError):
            load_config(str(path))

    def test_hash_tracks_result_relevant_fields(self, tmp_path):
        a = tiny_config(tmp_path)
        b = tiny_config(tmp_path, kappa=0.9)
        c = tiny_config(tmp_path, output_dir=str(tmp_path / "elsewhere"))
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(c)  # output location is not a result knob

    def test_invalid_values_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_config(tmp_path, methods=("bogus",))
        with pytest.raises(ValueError):
            tiny_config(tmp_path, process_noise_mode="wild")


class TestSweep:
    def test_filter_sweep_and_determinism(self, tmp_path):
        cfg = tiny_config(tmp_path)
        rows = run_sweep(cfg)
        assert len(rows) == 2
        assert all(not r.error for r in rows)
        csv_path = os.path.join(cfg.output_dir, "sweep.csv")
        first = open(csv_path, "rb").read()
        run_sweep(cfg)
        assert open(csv_path, "rb").read() == first
        header = first.decode().splitlines()[0]
        assert header.split(",")[:3] == ["method", "smnr_db", "nmse_db"]
        assert config_hash(cfg) in first.decode()

    def test_learned_method_trains_and_reuses_checkpoint(self, tmp_path):
        cfg = tiny_config(tmp_path, methods=("danse",), smnr_db=(10.0,), max_epochs=2)
        rows = run_sweep(cfg)
        assert not rows[0].error
        ckpt = harness.checkpoint_path(cfg, "danse", 10.0)
        assert os.path.exists(ckpt)
        assert os.path.exists(os.path.splitext(ckpt)[0] + ".log.jsonl")
        rows2 = run_sweep(cfg)  # second run loads the checkpoint
        assert rows2[0].nmse_db == rows[0].nmse_db

    def test_per_method_failure_recorded_without_aborting(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, methods=("ekf", "ukf"), smnr_db=(10.0,))

        def failing_ukf(*args, **kwargs):
            raise SingularityError("forced failure")

        monkeypatch.setattr(harness, "ukf_batch", failing_ukf)
        rows = {r.method: r for r in run_sweep(cfg)}
        assert not rows["ekf"].error and np.isfinite(rows["ekf"].nmse_db)
        assert "SingularityError" in rows["ukf"].error
        assert np.isnan(rows["ukf"].nmse_db)
        csv_text = open(os.path.join(cfg.output_dir, "sweep.csv")).read()
        assert "SingularityError: forced failure" in csv_text

    def test_parallel_jobs_match_sequential(self, tmp_path):
        cfg = tiny_config(tmp_path)
        rows_seq = {(r.method, r.smnr_db): r.nmse_db for r in run_sweep(cfg)}
        cfg2 = tiny_config(tmp_path, output_dir=str(tmp_path / "out_par"))
        rows_par = {(r.method, r.smnr_db): r.nmse_db for r in run_sweep(cfg2, jobs=2)}
        assert rows_seq == rows_par

    def test_higher_smnr_helps_ekf(self, tmp_path):
        cfg = tiny_config(tmp_path)
        rows = {r.smnr_db: r.nmse_db for r in run_sweep(cfg)}
        assert rows[20.0] < rows[0.0]

    def test_data_dir_env_override(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere"
        monkeypatch.setenv(harness.DATA_DIR_ENV, str(override))
        cfg = tiny_config(tmp_path)
        assert cfg.resolved_data_dir() == str(override)
        path = dataset_path(cfg, 10.0, "train")
        assert path.startswith(str(override))
        assert path.endswith(os.path.join("lorenz63", "10", "train.bin"))

    def test_generate_then_sweep_uses_saved_data(self, tmp_path):
        cfg = tiny_config(tmp_path, smnr_db=(10.0,))
        train_path, test_path = harness.generate_and_save(cfg, 10.0)
        assert os.path.exists(train_path) and os.path.exists(test_path)
        rows = run_sweep(cfg)
        cfg_fresh = tiny_config(tmp_path, smnr_db=(10.0,),
                                data_dir=str(tmp_path / "nodata"),
                                output_dir=str(tmp_path / "out2"))
        rows_fresh = run_sweep(cfg_fresh)
        assert rows[0].nmse_db == rows_fresh[0].nmse_db


class TestDump:
    def test_noiseless_perfect_model_dump_matches_truth(self, tmp_path):
        # 160 dB SMNR / -160 dB process noise: effectively noiseless while the
        # innovation covariance stays numerically positive definite.
        cfg = tiny_config(
            tmp_path,
            smnr_db=(160.0,),
            process_noise_db=-160.0,
            filter_init="exact",
            n_test=3,
            t_test=40,
        )
        out = str(tmp_path / "dump.csv")
        harness.dump_trajectory(cfg, "ekf", 160.0, 0, out)
        rows = np.genfromtxt(out, delimiter=",", names=True)
        for k in (1, 2, 3):
            np.testing.assert_allclose(rows[f"est{k}"], rows[f"x{k}"], atol=1e-6)

    def test_sigma_columns_match_filter_covariance(self, tmp_path):
        cfg = tiny_config(tmp_path, smnr_db=(10.0,), n_test=3, t_test=30)
        out = str(tmp_path / "dump.csv")
        harness.dump_trajectory(cfg, "ekf", 10.0, 1, out)
        rows = np.genfromtxt(out, delimiter=",", names=True)
        _, test_ds = harness.build_datasets(cfg, 10.0, need_train=False)
        x0m, x0c = initial_beliefs_from_truth(np.stack(test_ds.states)[:, 0],
                                              cfg.filter_init_seed)
        filt = ekf_batch(test_ds.measurements[1][None], dataset_spec(test_ds),
                         dataset_model(test_ds), x0m[1:2], x0c, keep_full_covs=True)
        expected = np.sqrt(np.einsum("tkk->tk", filt.covs[0]))
        for k in (1, 2, 3):
            np.testing.assert_allclose(rows[f"sigma{k}"], expected[:, k - 1], atol=1e-10)

    def test_learned_sigma_columns_match_conditioning(self, tmp_path):
        smnr = 10.0
        cfg = tiny_config(tmp_path, smnr_db=(smnr,), n_test=3, t_test=30)
        _, test_ds = harness.build_datasets(cfg, smnr, need_train=False)
        model = dataset_model(test_ds)
        params = init_params(NetDims(input_dim=model.n, state_dim=model.m), 5)
        save_params(params, harness.checkpoint_path(cfg, "semidanse", smnr))
        out = str(tmp_path / "dump.csv")
        harness.dump_trajectory(cfg, "semidanse", smnr, 1, out)
        rows = np.genfromtxt(out, delimiter=",", names=True)

        ys = test_ds.measurements[1]
        prior_mean, prior_var, _ = forward_batch(params, ys[None])
        sigmas, pred_sigmas = [], []
        for t in range(len(ys)):
            prior_cov = np.diag(prior_var[0, t])
            belief = gaussian_condition(prior_mean[0, t], prior_cov, model.h, model.c_w, ys[t])
            sigmas.append(np.sqrt(np.diag(belief.cov)))
            pred_sigmas.append(np.sqrt(np.diag(model.h @ prior_cov @ model.h.T + model.c_w)))
        for k in (1, 2, 3):
            np.testing.assert_allclose(rows[f"sigma{k}"], np.array(sigmas)[:, k - 1],
                                       rtol=0, atol=1e-10)
        for i in range(model.n):
            np.testing.assert_allclose(rows[f"ypred_sigma{i + 1}"], np.array(pred_sigmas)[:, i],
                                       rtol=0, atol=1e-10)

    def test_svg_written(self, tmp_path):
        cfg = tiny_config(tmp_path, smnr_db=(10.0,), n_test=2, t_test=25)
        out = str(tmp_path / "dump.csv")
        harness.dump_trajectory(cfg, "ukf", 10.0, 0, out, svg=True)
        for suffix in ("_x1.svg", "_x2.svg", "_x3.svg", "_3d.svg"):
            svg_path = out[:-4] + suffix
            assert os.path.exists(svg_path)
            assert open(svg_path).read().startswith("<svg")

    def test_missing_checkpoint_errors(self, tmp_path):
        cfg = tiny_config(tmp_path, smnr_db=(10.0,))
        with pytest.raises(FileNotFoundError):
            harness.dump_trajectory(cfg, "semidanse", 10.0, 0, str(tmp_path / "d.csv"))


class TestDofReportConfig:
    def test_reference_counts_from_config(self, tmp_path):
        cfg = tiny_config(tmp_path, n_train=40, t_train=10, kappa=0.1, smnr_db=(10.0,))
        report = harness.dof_report_from_config(cfg)
        assert report["unsup_constraints"] == 2 * 40 * 10
        assert report["sup_constraints"] == 3 * 4 * 10


class TestCli:
    def test_unknown_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "semidanse.cli", "frobnicate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "usage" in (proc.stderr + proc.stdout).lower()

    def test_sweep_happy_path(self, tmp_path, capsys):
        rc = cli_main([
            "sweep", "--methods", "ekf", "--smnr-db", "10",
            "--n-test", "4", "--t-test", "40",
            "--output-dir", str(tmp_path / "o"), "--data-dir", str(tmp_path / "d"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert json.loads(out.splitlines()[0])["method"] == "ekf"
        assert os.path.exists(tmp_path / "o" / "sweep.csv")
        assert os.path.exists(tmp_path / "o" / "run_log.json")

    def test_train_writes_checkpoint(self, tmp_path, capsys):
        rc = cli_main([
            "train", "--method", "semidanse", "--smnr", "10", "--kappa", "0.2",
            "--n-train", "10", "--t-train", "12", "--n-test", "4", "--t-test", "20",
            "--batch-size", "4", "--max-epochs", "2",
            "--output-dir", str(tmp_path / "o"), "--data-dir", str(tmp_path / "d"),
        ])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        assert os.path.exists(info["checkpoint"])

    def test_eval_reports_nmse(self, tmp_path, capsys):
        rc = cli_main([
            "eval", "--method", "ukf", "--smnr", "20",
            "--n-test", "4", "--t-test", "40",
            "--output-dir", str(tmp_path / "o"), "--data-dir", str(tmp_path / "d"),
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "ukf"
        assert np.isfinite(report["nmse_db"])

    def test_dof_report_command(self, tmp_path, capsys):
        rc = cli_main([
            "dof-report", "--n-train", "40", "--t-train", "10", "--kappa", "0.1",
            "--smnr-db", "10", "--n-test", "2", "--t-test", "10",
            "--output-dir", str(tmp_path / "o"), "--data-dir", str(tmp_path / "d"),
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["unsup_constraints"] == 800

    def test_error_emits_json_on_stderr(self, tmp_path, capsys):
        rc = cli_main([
            "sweep", "--config", str(tmp_path / "missing.cfg"),
        ])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "message" in err and err["error"]

    def test_malformed_config_value(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[experiment]\nkappa = banana\n")
        rc = cli_main(["sweep", "--config", str(path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
