"""Experiment harness and CLI tests (desk-size configurations)."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from semidanse import dataset as dataset_mod
from semidanse import dynamics, exceptions, harness, serialize
from semidanse.baselines import Ukf, ekf_batch, filter_batch, initial_beliefs_from_truth
from semidanse.cli import build_parser, main as cli_main
from semidanse.dataset import dataset_model
from semidanse.exceptions import SemidanseError, SingularityError
from semidanse.harness import (
    CONFIG_SECTIONS,
    ExperimentConfig,
    config_hash,
    dataset_path,
    load_config,
    run_sweep,
)
from semidanse.measurement import MeasModel, builtin_h, calibrate_sigma_w
from semidanse.metrics import nmse_db
from semidanse.prior_net import NetDims, forward_batch, init_params, save_params

from conftest import datasets_equal, gaussian_condition, save_config


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


# Every key a split's meta records but C_w: a stored split must match the request in each.
CHECKED_SPLIT_META = ("system", "step_size", "taylor_order", "decimation_factor",
                      "rossler_epsilon", "process_noise_cov", "h", "n_items", "t", "burn_in",
                      "master_seed", "smnr_db", "split", "smnr_convention")


@pytest.fixture
def filter_calls(monkeypatch):
    """The filter class names of each `harness.filter_batch` call, in call order."""
    calls = []

    def counted(filters, *args, **kwargs):
        calls.append([type(flt).__name__ for flt in filters])
        return filter_batch(filters, *args, **kwargs)

    monkeypatch.setattr(harness, "filter_batch", counted)
    return calls


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

    def test_documented_example_loads_as_the_defaults(self, tmp_path):
        # The `ini` block of docs/formats.md, with its trailing comments, spells out
        # every default.
        docs = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "formats.md")
        with open(docs, encoding="utf-8") as fh:
            block = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "documented.cfg"
        path.write_text(block)
        assert load_config(str(path)) == ExperimentConfig()

    def test_percent_in_a_path_round_trips(self, tmp_path):
        cfg = tiny_config(tmp_path, output_dir=str(tmp_path / "run_%d_100%"))
        path = str(tmp_path / "exp.cfg")
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[experiment]\nwhatever = 1\n")
        with pytest.raises(ValueError):
            load_config(str(path))

    @pytest.mark.parametrize("text, message", [
        ("[nonsense]\nkappa = 0.5\n", r"unknown config section \[nonsense\] holding key 'kappa'"),
        ("[data]\nkappa = 0.5\n", r"config key 'kappa' in \[data\] belongs in \[experiment\]"),
        ("[DEFAULT]\nkappa = 0.5\n[experiment]\n",
         r"unknown config section \[DEFAULT\] holding key 'kappa'"),
        ("[experiment]\nkappa = 0.5\n[nonsense]\n", r"unknown config section \[nonsense\]$"),
    ], ids=["unknown-section", "wrong-section", "default-section", "empty-unknown-section"])
    def test_section_and_key_are_named_when_misplaced(self, tmp_path, text, message):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_config(str(path))

    def test_hash_tracks_result_relevant_fields(self, tmp_path):
        a = tiny_config(tmp_path)
        b = tiny_config(tmp_path, kappa=0.9)
        c = tiny_config(tmp_path, output_dir=str(tmp_path / "elsewhere"))
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(c)  # output location is not a result knob

    def test_saved_sections_hold_every_field_once(self):
        names = [name for names in CONFIG_SECTIONS.values() for name in names]
        assert sorted(names) == sorted(f.name for f in fields(ExperimentConfig))

    def test_invalid_values_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_config(tmp_path, methods=("bogus",))
        with pytest.raises(ValueError):
            tiny_config(tmp_path, process_noise_mode="wild")

    @pytest.mark.parametrize("key, value, allowed", [
        pytest.param("system", "vanderpol", "('lorenz63', 'chen', 'rossler')", id="system"),
        pytest.param("h_name", "dense3x3", "('dense2x3', 'partial23', 'extreme1')", id="h_name"),
        pytest.param("process_noise_mode", "wild", "('literal', 'calibrated')",
                     id="process_noise_mode"),
        pytest.param("smnr_convention", "mean", "('trace', 'total')", id="smnr_convention"),
        pytest.param("filter_init", "zero", "('truth', 'uninformative', 'exact')",
                     id="filter_init"),
    ])
    def test_enum_refusal_names_the_key_and_its_values(self, key, value, allowed):
        with pytest.raises(ValueError, match=f"^{key} {value!r} is not one of "
                                             f"{re.escape(allowed)}$"):
            load_config(overrides={key: value})


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

    def test_nan_estimate_row_carries_the_error(self, tmp_path, monkeypatch):
        # A method that returns a NaN estimate is not scored: its row carries the error.
        def nan_in_ukf(filters, *args, **kwargs):
            outs = filter_batch(filters, *args, **kwargs)
            for flt, out in zip(filters, outs):
                if isinstance(flt, Ukf):
                    out.means[2, -1, 0] = np.nan
            return outs

        monkeypatch.setattr(harness, "filter_batch", nan_in_ukf)
        rows = run_sweep(tiny_config(tmp_path, methods=("ekf", "ukf"), smnr_db=(20.0,)))
        by_method = {r.method: r for r in rows}
        assert not by_method["ekf"].error and np.isfinite(by_method["ekf"].nmse_db)
        assert by_method["ukf"].error == "NumericError: trajectory 2: non-finite estimates"
        assert np.isnan(by_method["ukf"].nmse_db)

    def test_learned_method_trains_and_reuses_checkpoint(self, tmp_path):
        cfg = tiny_config(tmp_path, methods=("danse",), smnr_db=(10.0,), max_epochs=2)
        rows = run_sweep(cfg)
        assert not rows[0].error
        ckpt = harness.checkpoint_path(cfg, "danse", 10.0)
        assert os.path.exists(ckpt)
        assert os.path.exists(os.path.splitext(ckpt)[0] + ".log.jsonl")
        rows2 = run_sweep(cfg)  # second run loads the checkpoint
        assert rows2[0].nmse_db == rows[0].nmse_db

    def test_checkpoint_trained_under_other_settings_raises(self, tmp_path):
        run_sweep(tiny_config(tmp_path, methods=("danse",), smnr_db=(10.0,), max_epochs=2))
        (row,) = run_sweep(tiny_config(tmp_path, methods=("danse",), smnr_db=(10.0,),
                                       max_epochs=3))
        assert row.error.startswith("ArtifactMismatchError: checkpoint ")
        assert "stored max_epochs 2, requested 3" in row.error
        assert np.isnan(row.nmse_db)

    def test_stored_checkpoint_skips_the_training_split(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, methods=("danse",), smnr_db=(10.0,))
        first = run_sweep(cfg)
        splits = []
        original = harness._generate_split

        def recorded(cfg, spec, smnr_db, split):
            splits.append(split)
            return original(cfg, spec, smnr_db, split)

        monkeypatch.setattr(harness, "_generate_split", recorded)
        assert run_sweep(cfg)[0].nmse_db == first[0].nmse_db
        assert splits == ["test"]

    def test_per_method_failure_recorded_without_aborting(self, tmp_path, monkeypatch,
                                                          filter_calls):
        cfg = tiny_config(tmp_path, methods=("ekf", "ukf"), smnr_db=(10.0,))

        def failing_ukf(*args, **kwargs):
            raise SingularityError("forced failure")

        # The UKF's predict step fails in the joint run and when the UKF runs alone;
        # each filter reruns alone through the same filter_batch path.
        monkeypatch.setattr(Ukf, "points", failing_ukf)
        rows = {r.method: r for r in run_sweep(cfg)}
        assert filter_calls == [["Ekf", "Ukf"], ["Ekf"], ["Ukf"]]
        assert not rows["ekf"].error and np.isfinite(rows["ekf"].nmse_db)
        assert "SingularityError" in rows["ukf"].error
        assert np.isnan(rows["ukf"].nmse_db)
        csv_text = open(os.path.join(cfg.output_dir, "sweep.csv")).read()
        assert "SingularityError: forced failure" in csv_text

    def test_mixed_sweep_rows_follow_config_order_and_equal_each_method_alone(self, tmp_path):
        def scored(rows):
            return [(r.method, r.smnr_db, r.nmse_db, r.nmse_stderr_db, r.n_test, r.t_test, r.error)
                    for r in rows]

        methods = ("ekf", "danse", "ukf")
        mixed = run_sweep(tiny_config(tmp_path, methods=methods, smnr_db=(10.0,)))
        assert [r.method for r in mixed] == list(methods)
        for method, row in zip(methods, mixed):
            cfg = tiny_config(tmp_path, methods=(method,), smnr_db=(10.0,),
                              output_dir=str(tmp_path / method))
            assert scored(run_sweep(cfg)) == scored([row])
        assert not any(r.error for r in mixed)

    def test_filters_run_jointly_and_score_as_when_run_alone(self, tmp_path, filter_calls):
        joint = {(r.method, r.smnr_db): (r.nmse_db, r.nmse_stderr_db)
                 for r in run_sweep(tiny_config(tmp_path, methods=("ekf", "ukf")))}
        assert filter_calls == [["Ekf", "Ukf"], ["Ekf", "Ukf"]]  # one joint run per sweep point
        for method in ("ekf", "ukf"):
            cfg = tiny_config(tmp_path, methods=(method,), output_dir=str(tmp_path / method))
            for r in run_sweep(cfg):
                assert joint[r.method, r.smnr_db] == (r.nmse_db, r.nmse_stderr_db)

    @pytest.mark.parametrize("jobs,points,workers", [(8, (0.0, 20.0), [2]), (4, (10.0,), [])])
    def test_sweep_starts_no_more_workers_than_points(self, tmp_path, monkeypatch, jobs,
                                                       points, workers):
        started = []

        class Recording:  # runs the points here, starting no process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Recording)
        rows = run_sweep(tiny_config(tmp_path, smnr_db=points), jobs=jobs)
        assert started == workers
        assert len(rows) == len(points) and not any(r.error for r in rows)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_raise_naming_it(self, tmp_path, jobs):
        with pytest.raises(ValueError, match=rf"^jobs must be >= 1, got {jobs}$"):
            run_sweep(tiny_config(tmp_path), jobs=jobs)

    def test_parallel_jobs_match_sequential(self, tmp_path):
        # The learned method trains its checkpoint in each worker, so the parallel path's
        # training bits are checked as well as its filters'.
        cfg = tiny_config(tmp_path, methods=("ekf", "danse"), max_epochs=1)
        rows = run_sweep(cfg)
        assert len(rows) == 4 and not any(r.error for r in rows)
        rows_seq = {(r.method, r.smnr_db): r.nmse_db for r in rows}
        cfg2 = tiny_config(tmp_path, methods=("ekf", "danse"), max_epochs=1,
                           output_dir=str(tmp_path / "out_par"))
        rows_par = {(r.method, r.smnr_db): r.nmse_db for r in run_sweep(cfg2, jobs=2)}
        assert rows_seq == rows_par
        csv_seq, csv_par = (open(os.path.join(c.output_dir, "sweep.csv"), "rb").read()
                            for c in (cfg, cfg2))
        assert csv_seq == csv_par

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
        assert path.endswith(os.path.join("lorenz63", "10.0", "train.bin"))

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

    @pytest.mark.parametrize("override, field", [
        ({"h_name": "extreme1", "n_test": 6}, "h"),
        ({"n_test": 6}, "n_items"),
        ({"t_test": 50}, "t"),
        ({"burn_in": 2}, "burn_in"),
        ({"test_seed": 8}, "master_seed"),
        ({"process_noise_db": -20.0}, "process_noise_cov"),
        ({"smnr_convention": "total"}, "smnr_convention"),
    ])
    def test_stored_dataset_mismatch_raises(self, tmp_path, override, field):
        # The stored split was made with dense2x3 and n_test = 4; a request
        # that differs in one recorded field must not silently reuse it.
        harness.generate_and_save(tiny_config(tmp_path, n_test=4), 10.0)
        cfg = tiny_config(tmp_path, **{"n_test": 4, **override})
        with pytest.raises(SemidanseError, match=f"stored {field} ") as info:
            harness.build_datasets(cfg, 10.0, need_train=False)
        assert isinstance(info.value, exceptions.ArtifactMismatchError)

    @pytest.mark.parametrize("field", CHECKED_SPLIT_META)
    def test_edited_stored_setting_raises(self, tmp_path, field):
        # The filters take their process model from the config, not from the split's
        # meta, so a split recorded under other settings is refused.
        cfg = tiny_config(tmp_path, n_test=4)
        _, path = harness.generate_and_save(cfg, 10.0)
        data = dataset_mod.load(path)
        data.meta[field] = "edited"
        dataset_mod.save(data, path)
        with pytest.raises(exceptions.ArtifactMismatchError,
                           match=f"^dataset {re.escape(path)} .*stored {field} 'edited', "):
            harness.eval_split(cfg, 10.0)

    def test_every_recorded_setting_but_c_w_is_checked(self, tmp_path):
        # C_w is calibrated on the simulated states, so the request does not know it.
        _, path = harness.generate_and_save(tiny_config(tmp_path, n_test=4), 10.0)
        meta = dataset_mod.load(path).meta
        assert sorted(meta) == sorted(CHECKED_SPLIT_META + ("c_w",))

    def test_nearby_smnr_points_keep_their_own_splits(self, tmp_path, monkeypatch):
        # 10 and 10.0000001 dB print alike under "%g"; each point stores its own
        # split files and checkpoint name, and reloads its own splits.
        cfg = tiny_config(tmp_path)
        points = (10.0, 10.0000001)
        paths = {smnr: harness.generate_and_save(cfg, smnr) for smnr in points}
        assert len({path for pair in paths.values() for path in pair}) == 4
        assert len({harness.checkpoint_path(cfg, "danse", smnr) for smnr in points}) == 2

        def no_generation(*args):
            raise AssertionError("a stored split was regenerated")

        monkeypatch.setattr(harness, "_generate_split", no_generation)
        for smnr, (train_path, test_path) in paths.items():
            train_ds, test_ds = harness.build_datasets(cfg, smnr, need_train=True)
            assert train_ds.meta["smnr_db"] == test_ds.meta["smnr_db"] == smnr
            assert datasets_equal(train_ds, dataset_mod.load(train_path))
            assert datasets_equal(test_ds, dataset_mod.load(test_path))

    def test_nearby_kappas_keep_their_own_checkpoints(self, tmp_path):
        # 0.1 and 0.1000001 print alike under "%g"; each kappa names, saves and
        # reloads its own checkpoint.
        cfgs = [tiny_config(tmp_path, kappa=kappa) for kappa in (0.1, 0.1000001)]
        paths = [harness.checkpoint_path(cfg, "semidanse", 10.0) for cfg in cfgs]
        assert paths[0] != paths[1]
        params = [init_params(NetDims(input_dim=2), seed) for seed in (1, 2)]
        for cfg, path, p in zip(cfgs, paths, params):
            save_params(p, path, harness.checkpoint_settings(cfg, "semidanse", 10.0))
        for cfg, p in zip(cfgs, params):
            loaded = harness._method_params(cfg, "semidanse", 10.0)
            np.testing.assert_array_equal(loaded.to_vector(), p.to_vector())

    def test_each_split_simulated_once(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, burn_in=3, smnr_convention="total")
        calls = []
        for owner in (dynamics, dataset_mod):
            original = owner.simulate_batch

            def counted(*args, _original=original, **kwargs):
                calls.append(args[1])
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, "simulate_batch", counted)
        train_ds, test_ds = harness.build_datasets(cfg, 10.0, need_train=True)
        assert calls == [cfg.t_train + 3, cfg.t_test + 3]
        monkeypatch.undo()

        # Each split equals generate() with H and sigma_w2 calibrated on its own states.
        spec = harness.build_spec(cfg)
        h = builtin_h(cfg.h_name)
        splits = ((train_ds, cfg.n_train, cfg.t_train, cfg.train_seed, "train"),
                  (test_ds, cfg.n_test, cfg.t_test, cfg.test_seed, "test"))
        for data, n_items, t, seed, split in splits:
            sigma_w2 = calibrate_sigma_w(data.states, h, 10.0) * h.shape[0]
            expected = dataset_mod.generate(
                spec, lambda states: MeasModel.isotropic(h, sigma_w2), n_items, t, seed,
                extra_meta={"smnr_db": 10.0, "split": split, "smnr_convention": "total"},
                burn_in=cfg.burn_in,
            )
            assert datasets_equal(data, expected)


class TestStoredSplitEvaluation:
    """A stored test split is evaluated in two phases: it is loaded whole and its states
    are dropped before estimation, which reads its measurements and first states
    (`harness.eval_split`); scoring streams its states back from the file, chunk by
    chunk, checking the file's CRC and meta again."""

    @staticmethod
    def sweeps(tmp_path, **kwargs):
        """(traced peak, sweep.csv bytes) of a sweep on a stored split and on the same
        split generated in memory, both with a trained checkpoint in place."""
        cfg = tiny_config(tmp_path, methods=("ekf", "ukf", "danse"), smnr_db=(10.0,),
                          n_train=20, t_train=20, batch_size=8, max_epochs=1, **kwargs)
        harness.generate_and_save(cfg, 10.0)
        run_sweep(cfg)  # trains the danse checkpoint that both sweeps below load
        out = {}
        for which, data_dir in (("stored", cfg.data_dir), ("generated", str(tmp_path / "none"))):
            tracemalloc.start()
            try:
                rows = run_sweep(harness.replace_config(cfg, data_dir=data_dir))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert not any(r.error for r in rows)
            with open(os.path.join(cfg.output_dir, "sweep.csv"), "rb") as fh:
                out[which] = peak, fh.read()
        return cfg, out

    def test_stored_split_sweep_holds_no_states_block_while_estimating(self, tmp_path):
        # A generated split keeps its states through estimation, as a stored one once
        # did; a stored one now holds one chunk of them, and only while scoring.
        cfg, out = self.sweeps(tmp_path, n_test=40, t_test=500)
        states_bytes = cfg.n_test * cfg.t_test * 3 * 8
        assert out["stored"][0] <= out["generated"][0] - 0.5 * states_bytes

    def test_eval_split_keeps_the_measurements_meta_and_first_states(self, tmp_path):
        cfg = tiny_config(tmp_path, n_test=12, t_test=500, smnr_db=(10.0,))
        _, path = harness.generate_and_save(cfg, 10.0)
        stored = dataset_mod.load(path)
        measured, truth = harness.eval_split(cfg, 10.0)
        np.testing.assert_array_equal(measured.measurements, stored.measurements)
        np.testing.assert_array_equal(measured.first_states, stored.states[:, 0])
        assert measured.meta == stored.meta
        chunks = list(truth())
        assert len(chunks) > 1
        np.testing.assert_array_equal(np.concatenate([c for _, c in chunks]), stored.states)

    def test_eval_split_of_a_stored_split_returns_holding_no_states_block(self, tmp_path):
        cfg = tiny_config(tmp_path, n_test=40, t_test=500, smnr_db=(10.0,))
        harness.generate_and_save(cfg, 10.0)
        tracemalloc.start()
        try:
            measured, _ = harness.eval_split(cfg, 10.0)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 320 kB of measurements and 1 kB of x_1 are held; the 480 kB states block is not
        held = measured.measurements.nbytes + measured.first_states.nbytes
        assert current <= held + 64 * 1024

    def test_stored_and_generated_splits_write_the_same_sweep_csv(self, tmp_path):
        _, out = self.sweeps(tmp_path, n_test=6, t_test=60)
        assert out["stored"][1] == out["generated"][1]

    def test_stored_and_generated_dumps_are_identical(self, tmp_path):
        # Row 7 of a T = 500 split lies in the states' second 64 KiB chunk.
        cfg = tiny_config(tmp_path, n_test=12, t_test=500, smnr_db=(10.0,))
        harness.generate_and_save(cfg, 10.0)
        dumps = []
        for data_dir in (cfg.data_dir, str(tmp_path / "none")):
            path = str(tmp_path / f"dump{len(dumps)}.csv")
            harness.dump_trajectory(harness.replace_config(cfg, data_dir=data_dir), "ekf", 10.0,
                                    7, path)
            dumps.append(open(path, "rb").read())
        assert dumps[0] == dumps[1]

    @pytest.mark.parametrize("per_coordinate", [False, True])
    def test_chunked_scoring_names_the_first_failure_as_whole_scoring_would(self,
                                                                             per_coordinate):
        # Trajectory 1's coordinate 3 is all zero, trajectory 3's estimate is NaN: scored
        # whole, the aggregate fails first, at trajectory 3 (the second chunk's row 1).
        rng = np.random.default_rng(3)
        truth, est = rng.standard_normal((5, 8, 3)), rng.standard_normal((5, 8, 3))
        truth[1, :, 2], est[3, 4, 0] = 0.0, np.nan
        with pytest.raises(exceptions.NumericError) as whole:
            nmse_db(truth, est)
        chunks = lambda: [(0, truth[:2]), (2, truth[2:4]), (4, truth[4:])]
        (chunked,) = harness.score(chunks, [est], per_coordinate)
        assert isinstance(chunked, exceptions.NumericError)
        assert str(chunked) == str(whole.value) == "trajectory 3: non-finite estimates"
        est[3, 4, 0] = 0.0  # now only coordinate 3 of trajectory 1 fails
        assert harness.score(chunks, [est])[0]["nmse_db"] == nmse_db(truth, est)
        if per_coordinate:
            (failed,) = harness.score(chunks, [est], per_coordinate)
            assert isinstance(failed, exceptions.CalibrationError)
            assert re.match("^trajectory 1: all-zero", str(failed))

    @pytest.mark.parametrize("rows,message", [
        (4, "truth covers 4 trajectories, estimates 5"),
        (6, "truth covers 6 trajectories, estimates 5"),
    ])
    def test_truth_covering_other_rows_than_the_estimates_raises(self, rows, message):
        truth = np.random.default_rng(4).standard_normal((rows, 8, 3))
        chunks = lambda: [(0, truth[:3]), (3, truth[3:])]
        with pytest.raises(exceptions.DimensionError, match=f"^{message}$"):
            harness.score(chunks, [np.ones((5, 8, 3))])

    def test_a_filter_point_reads_its_stored_split_once_to_estimate_and_once_to_score(
            self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, methods=("ekf", "ukf"), smnr_db=(10.0,))
        _, path = harness.generate_and_save(cfg, 10.0)
        reads = []
        original = serialize.stream_container

        def counted(*args, **kwargs):
            reads.append(args[0])
            return original(*args, **kwargs)

        for owner in (serialize, dataset_mod):  # read_container and stream_states
            monkeypatch.setattr(owner, "stream_container", counted)
        rows = run_sweep(cfg)
        assert not any(r.error for r in rows)
        assert reads == [path, path]

    @pytest.mark.parametrize("change", ["corrupted", "replaced"])
    def test_split_changed_between_the_two_reads_is_refused_by_name(self, tmp_path,
                                                                     monkeypatch, change):
        cfg = tiny_config(tmp_path, methods=("ekf", "ukf"), smnr_db=(10.0,))
        _, path = harness.generate_and_save(cfg, 10.0)
        original = harness.method_outputs

        def then_change(*args, **kwargs):
            outs = original(*args, **kwargs)
            if change == "corrupted":
                raw = bytearray(open(path, "rb").read())
                raw[len(raw) // 3] ^= 0xFF  # inside the states block
                with open(path, "wb") as fh:
                    fh.write(raw)
            else:
                other = harness.replace_config(cfg, test_seed=cfg.test_seed + 1)
                dataset_mod.save(harness._generate_split(other, harness.build_spec(other), 10.0,
                                                         "test"), path)
            return outs

        monkeypatch.setattr(harness, "method_outputs", then_change)
        rows = run_sweep(cfg)
        expected = {"corrupted": f"ChecksumError: {path}: CRC mismatch, file is corrupted",
                    "replaced": f"ArtifactMismatchError: dataset {path} changed since its "
                                "measurements were read: stored "}[change]
        assert [r.method for r in rows] == ["ekf", "ukf"]
        for r in rows:
            assert r.error.startswith(expected) and np.isnan(r.nmse_db)


class TestMethodOutputs:
    def test_every_method_keeps_the_fields_of_one_rule(self, tmp_path):
        # The means always; the forecasts and both covariances only with keep_full_covs.
        cfg = tiny_config(tmp_path, smnr_db=(10.0,), max_epochs=1, n_test=3, t_test=20)
        measured, _ = harness.eval_split(cfg, 10.0)
        methods, rows = ["ekf", "ukf", "danse", "semidanse"], slice(0, 2)
        lean = harness.method_outputs(cfg, methods, 10.0, measured, rows, train_missing=True)
        full = harness.method_outputs(cfg, methods, 10.0, measured, rows, keep_full_covs=True)
        b, t, m, n = 2, cfg.t_test, 3, 2
        for method, out, kept in zip(methods, lean, full):
            assert out.means.shape == (b, t, m), method
            assert all(field is None for field in (out.pred_meas_means, out.covs,
                                                   out.pred_meas_covs)), method
            shapes = [kept.means.shape, kept.pred_meas_means.shape, kept.covs.shape,
                      kept.pred_meas_covs.shape]
            assert shapes == [(b, t, m), (b, t, n), (b, t, m, m), (b, t, n, n)], method
            np.testing.assert_array_equal(kept.means, out.means)


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
        filt = ekf_batch(test_ds.measurements[1][None], harness.build_spec(cfg),
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
        save_params(params, harness.checkpoint_path(cfg, "semidanse", smnr),
                    harness.checkpoint_settings(cfg, "semidanse", smnr))
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

    def test_every_config_key_is_a_flag(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(harness, "run_sweep", lambda cfg, jobs=1: seen.append(cfg) or [])
        rc = cli_main([
            "sweep", "--calibration-seed", "5", "--filter-init-seed", "6",
            "--rossler-epsilon", "0.001", "--output-dir", str(tmp_path / "o"),
        ])
        assert rc == 0
        (cfg,) = seen
        assert (cfg.calibration_seed, cfg.filter_init_seed, cfg.rossler_epsilon) == (5, 6, 0.001)
        defaults = vars(build_parser().parse_args(["sweep"]))
        assert {f.name for f in fields(ExperimentConfig)} <= set(defaults)

    def test_generate_replaces_stored_splits(self, tmp_path, capsys):
        common = ["generate", "--smnr", "10", "--n-train", "12", "--t-train", "16",
                  "--t-test", "30", "--data-dir", str(tmp_path / "d")]
        assert cli_main(common + ["--n-test", "4"]) == 0
        assert cli_main(common + ["--n-test", "6"]) == 0
        test_path = json.loads(capsys.readouterr().out.splitlines()[-1])["test"]
        assert len(dataset_mod.load(test_path)) == 6

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
        assert (info["epochs_run"], info["stop_reason"]) == (2, "max_epochs")

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

    @pytest.mark.parametrize("command,filters", [
        (["eval", "--method", "ukf", "--smnr", "20"], ["Ukf"]),
        (["dump", "--method", "ekf", "--smnr", "20", "--out", "d.csv"], ["Ekf"]),
    ], ids=["eval-ukf", "dump-ekf"])
    def test_eval_and_dump_make_one_one_filter_call(self, tmp_path, monkeypatch, capsys,
                                                    filter_calls, command, filters):
        monkeypatch.chdir(tmp_path)
        assert cli_main(command + ["--n-test", "3", "--t-test", "20",
                                   "--data-dir", str(tmp_path / "d")]) == 0
        assert filter_calls == [filters]

    @staticmethod
    def eval_per_coordinate_matches_nmse(tmp_path, capsys, t_test, stored):
        cfg = ExperimentConfig(n_test=4, t_test=t_test, output_dir=str(tmp_path / "o"),
                               data_dir=str(tmp_path / "d"))
        if stored:
            harness.generate_and_save(cfg, 20.0)
        rc = cli_main([
            "eval", "--method", "ekf", "--smnr", "20", "--per-coordinate",
            "--n-test", "4", "--t-test", str(t_test),
            "--output-dir", cfg.output_dir, "--data-dir", cfg.data_dir,
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert sorted(report) == ["aggregate", "coord1", "coord2", "coord3"]
        _, test_ds = harness.build_datasets(cfg, 20.0, need_train=False)
        x0m, x0c = initial_beliefs_from_truth(test_ds.states[:, 0], cfg.filter_init_seed)
        est = ekf_batch(test_ds.measurements, harness.build_spec(cfg), dataset_model(test_ds),
                        x0m, x0c).means
        assert report["aggregate"] == nmse_db(test_ds.states, est)
        for k in range(3):
            assert report[f"coord{k + 1}"] == nmse_db(test_ds.states, est, coords=[k])

    def test_eval_per_coordinate_matches_nmse_of_each_coordinate(self, tmp_path, capsys):
        self.eval_per_coordinate_matches_nmse(tmp_path, capsys, t_test=40, stored=False)

    def test_eval_per_coordinate_of_a_stored_split_matches_nmse_of_each_coordinate(
            self, tmp_path, capsys):
        # A stored T = 3000 split streams its states one 72 kB trajectory at a time.
        self.eval_per_coordinate_matches_nmse(tmp_path, capsys, t_test=3000, stored=True)

    def test_dof_report_command(self, tmp_path, capsys):
        rc = cli_main([
            "dof-report", "--n-train", "40", "--t-train", "10", "--kappa", "0.1",
            "--smnr-db", "10", "--n-test", "2", "--t-test", "10",
            "--output-dir", str(tmp_path / "o"), "--data-dir", str(tmp_path / "d"),
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["unsup_constraints"] == 800

    @pytest.mark.parametrize("command", [["dof-report"], ["train", "--smnr", "10"]])
    def test_train_only_commands_build_only_the_train_split(self, tmp_path, monkeypatch,
                                                           capsys, command):
        splits = []
        load_or_generate = harness._load_or_generate

        def recording(cfg, spec, smnr_db, split):
            splits.append(split)
            return load_or_generate(cfg, spec, smnr_db, split)

        monkeypatch.setattr(harness, "_load_or_generate", recording)
        rc = cli_main(command + [
            "--n-train", "10", "--t-train", "12", "--kappa", "0.2", "--smnr-db", "10",
            "--batch-size", "4", "--max-epochs", "1",
            "--output-dir", str(tmp_path / "o"), "--data-dir", str(tmp_path / "d"),
        ])
        assert rc == 0
        assert splits == ["train"]

    def test_error_emits_json_on_stderr(self, tmp_path, capsys):
        rc = cli_main([
            "sweep", "--config", str(tmp_path / "missing.cfg"),
        ])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "message" in err and err["error"]

    def test_split_size_below_one_is_refused_before_any_method_runs(self, tmp_path, capsys):
        # Once an EKF-only sweep accepted n_train = 0 and exited 0, and a sweep with a
        # learned method failed mid-run as "n_items and t must be >= 1", naming no key.
        rc = cli_main([
            "sweep", "--methods", "ekf", "--smnr-db", "10", "--n-train", "0",
            "--n-test", "2", "--t-test", "20", "--output-dir", str(tmp_path / "zero"),
            "--data-dir", str(tmp_path / "d"),
        ])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "n_train" in err["message"]
        assert not (tmp_path / "zero").exists() and not (tmp_path / "d").exists()

    def test_malformed_config_value(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[experiment]\nkappa = banana\n")
        rc = cli_main(["sweep", "--config", str(path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
