"""Dataset generation, splitting, and container persistence tests."""

import json
import os
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from semidanse import dynamics
from semidanse.dataset import (
    PairedDataset,
    SplitConfig,
    dataset_model,
    dataset_spec,
    generate,
    load,
    round_half_up,
    save,
    split_semi,
    validation_mask,
)
from semidanse.exceptions import (ArtifactMismatchError, ChecksumError, DimensionError,
                                  FormatVersionError)
from semidanse.measurement import MeasModel, builtin_h
from semidanse.serialize import read_container, write_container

from conftest import datasets_equal


@pytest.fixture(scope="module")
def small_dataset():
    spec = dynamics.make_spec("lorenz63", 0.1)
    model = MeasModel.isotropic(builtin_h("partial23"), 0.5)
    return generate(spec, model, n_items=24, t=30, master_seed=404)


class TestGenerate:
    def test_single_pair_single_step(self):
        spec = dynamics.make_spec("lorenz63", 0.1)
        model = MeasModel.isotropic(builtin_h("extreme1"), 0.2)
        ds = generate(spec, model, n_items=1, t=1, master_seed=1)
        assert len(ds) == 1
        assert ds.states[0].shape == (1, 3)
        assert ds.measurements[0].shape == (1, 1)

    def test_lengths_match(self, small_dataset):
        for x, y in zip(small_dataset.states, small_dataset.measurements):
            assert x.shape[0] == y.shape[0] == 30

    def test_regeneration_is_byte_identical(self, tmp_path, small_dataset):
        spec = dynamics.make_spec("lorenz63", 0.1)
        model = MeasModel.isotropic(builtin_h("partial23"), 0.5)
        again = generate(spec, model, n_items=24, t=30, master_seed=404)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save(small_dataset, str(p1))
        save(again, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_items_differ_across_indices(self, small_dataset):
        assert not np.array_equal(small_dataset.states[0], small_dataset.states[1])

    def test_metadata_reconstruction(self, small_dataset):
        spec = dataset_spec(small_dataset)
        assert spec.system == "lorenz63"
        model = dataset_model(small_dataset)
        np.testing.assert_array_equal(model.h, builtin_h("partial23"))


class TestPairedDataset:
    def test_ragged_or_mismatched_arrays_raise(self):
        z = np.zeros
        bad = [
            ([z((5, 3)), z((6, 3))], [z((5, 2)), z((6, 2))], 2),  # ragged trajectories
            (z((2, 5, 3)), z((3, 5, 2)), 2),                       # N differs
            (z((2, 5, 3)), z((2, 6, 2)), 2),                       # T differs
            (z((2, 5, 3)), z((2, 5)), 2),                          # not (N, T, n)
            (z((2, 5, 3)), z((2, 5, 2)), 3),                       # item_seeds differs
        ]
        for states, measurements, n_seeds in bad:
            with pytest.raises(DimensionError):
                PairedDataset(states, measurements, item_seeds=list(range(n_seeds)))

    def test_equal_shape_lists_are_stacked(self):
        ds = PairedDataset([np.ones((4, 3))] * 2, [np.ones((4, 1))] * 2, item_seeds=[0, 1])
        assert ds.states.shape == (2, 4, 3) and ds.measurements.shape == (2, 4, 1)
        assert ds.states.dtype == np.float64


class TestSplitSemi:
    def test_kappa_zero_pure_unsupervised(self, small_dataset):
        semi = split_semi(small_dataset, SplitConfig(kappa=0.0, seed=1))
        assert semi.n_labelled == 0
        assert semi.n_unlabelled == len(small_dataset)

    def test_reference_configuration_counts(self):
        # kappa = 0.02 of N = 1000 gives exactly 20 labelled trajectories
        assert round_half_up(0.02 * 1000) == 20

    def test_kappa_one_fully_labelled(self, small_dataset):
        semi = split_semi(small_dataset, SplitConfig(kappa=1.0, seed=1))
        assert semi.n_labelled == len(small_dataset)
        assert semi.n_unlabelled == 0

    def test_partition_property_random_cases(self, small_dataset, rng):
        for _ in range(50):
            kappa = float(rng.uniform(0.0, 1.0))
            seed = int(rng.integers(0, 2**31))
            semi = split_semi(small_dataset, SplitConfig(kappa=kappa, seed=seed))
            union = np.sort(np.concatenate([semi.labelled_idx, semi.unlabelled_idx]))
            np.testing.assert_array_equal(union, np.arange(len(small_dataset)))
            assert semi.n_labelled == round_half_up(kappa * len(small_dataset))

    def test_unlabelled_measurements_bitwise_equal_parent(self, small_dataset):
        semi = split_semi(small_dataset, SplitConfig(kappa=0.25, seed=9))
        # The split keeps the parent by reference, so the unlabelled
        # measurements that training reads are the parent's own arrays.
        assert semi.parent is small_dataset
        assert semi.n_unlabelled == len(small_dataset) - round_half_up(0.25 * len(small_dataset))

    def test_split_deterministic_in_seed(self, small_dataset):
        a = split_semi(small_dataset, SplitConfig(kappa=0.5, seed=3))
        b = split_semi(small_dataset, SplitConfig(kappa=0.5, seed=3))
        np.testing.assert_array_equal(a.labelled_idx, b.labelled_idx)

    def test_invalid_kappa(self):
        with pytest.raises(ValueError):
            SplitConfig(kappa=1.5, seed=0)


class TestValidationMask:
    def test_stable_and_about_ten_percent(self):
        spec = dynamics.make_spec("lorenz63", 0.1)
        model = MeasModel.isotropic(builtin_h("partial23"), 0.5)
        ds = generate(spec, model, n_items=400, t=5, master_seed=11)
        mask = validation_mask(ds)
        np.testing.assert_array_equal(mask, validation_mask(ds))
        frac = mask.mean()
        assert 0.04 < frac < 0.18


class TestPersistence:
    def test_round_trip(self, tmp_path, small_dataset):
        path = str(tmp_path / "ds.bin")
        save(small_dataset, path)
        loaded = load(path)
        assert datasets_equal(small_dataset, loaded)

    def test_load_peaks_near_two_file_sizes(self, tmp_path):
        # One read buffer plus one copy of each block: about 2x the file size.
        gen = np.random.default_rng(6)
        data = PairedDataset(states=gen.standard_normal((40, 2000, 3)),
                             measurements=gen.standard_normal((40, 2000, 2)),
                             item_seeds=list(range(40)), meta={"split": "test"})
        path = str(tmp_path / "ds.bin")
        save(data, path)
        tracemalloc.start()
        try:
            loaded = load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert datasets_equal(data, loaded)
        assert peak <= 2.2 * os.path.getsize(path)

    def test_saved_split_has_two_blocks(self, tmp_path, small_dataset):
        path = str(tmp_path / "ds.bin")
        save(small_dataset, path)
        _, blocks = read_container(path, expected_kind="paired-dataset")
        assert sorted(blocks) == ["meas", "states"]
        assert blocks["states"].shape == (24, 30, 3)
        assert blocks["meas"].shape == (24, 30, 2)

    def test_per_trajectory_layout_raises(self, tmp_path, small_dataset):
        # The layout of older versions: two blocks per trajectory.
        path = str(tmp_path / "old.bin")
        blocks = []
        for i in range(len(small_dataset)):
            blocks += [(f"states/{i}", small_dataset.states[i]),
                       (f"meas/{i}", small_dataset.measurements[i])]
        meta = {**small_dataset.meta, "item_seeds": small_dataset.item_seeds}
        write_container(path, kind="paired-dataset", meta=meta, blocks=blocks)
        with pytest.raises(ArtifactMismatchError, match="per-trajectory layout.*delete it"):
            load(path)

    def test_corrupted_file_fails_checksum(self, tmp_path, small_dataset):
        path = tmp_path / "ds.bin"
        save(small_dataset, str(path))
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load(str(path))

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.bin"
        write_container(str(path), kind="paired-dataset", meta={"item_seeds": []}, blocks=[])
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8 : 8 + header_len])
        header["format_version"] = 99
        new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        body = raw[:4] + struct.pack("<I", len(new_header)) + new_header + raw[8 + header_len : -4]
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(FormatVersionError):
            load(str(path))

    def test_wrong_kind_rejected(self, tmp_path):
        path = str(tmp_path / "x.bin")
        write_container(path, kind="something-else", meta={}, blocks=[("a", np.zeros(3))])
        with pytest.raises(ChecksumError):
            read_container(path, expected_kind="paired-dataset")

    def test_not_a_container(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"hello world")
        with pytest.raises(ChecksumError):
            read_container(str(path))


class TestRounding:
    @pytest.mark.parametrize("value,expected", [(0.0, 0), (0.49, 0), (0.5, 1), (1.5, 2), (2.5, 3)])
    def test_half_up(self, value, expected):
        assert round_half_up(value) == expected
