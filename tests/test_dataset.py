"""Dataset generation, splitting, and container persistence tests."""

import hashlib
import json
import os
import struct
import tracemalloc
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from semidanse import dynamics, serialize
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


def _traced(fn, *args):
    """fn(*args) and the traced peak of the memory it allocated."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture(scope="module")
def large_dataset():
    gen = np.random.default_rng(6)
    return PairedDataset(states=gen.standard_normal((40, 2000, 3)),
                         measurements=gen.standard_normal((40, 2000, 2)),
                         item_seeds=list(range(40)), meta={"split": "test"})


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

    def test_load_peaks_near_one_file_size(self, tmp_path, large_dataset):
        # Each block is read straight into its own array: about 1x the file size.
        path = str(tmp_path / "ds.bin")
        save(large_dataset, path)
        loaded, peak = _traced(load, path)
        assert datasets_equal(large_dataset, loaded)
        assert peak <= 1.1 * os.path.getsize(path)

    def test_save_allocates_almost_nothing_beyond_its_inputs(self, tmp_path, large_dataset):
        # The CRC and the file read each block's own buffer; only the header is built.
        path = str(tmp_path / "ds.bin")
        _, peak = _traced(save, large_dataset, path)
        assert peak <= 0.05 * os.path.getsize(path)
        assert datasets_equal(large_dataset, load(path))

    @pytest.mark.parametrize("system,burn_in,digest", [
        ("lorenz63", 0, "0a8495d77c703eb156096a6b345500db544a25a65507d12fa3257106c1ecbff3"),
        ("chen", 3, "90ee09c9de180399f19ea8d375146dac2a079e8271a963de06f6018b38644b15"),
    ])
    def test_saved_bytes_are_pinned(self, tmp_path, system, burn_in, digest):
        spec = dynamics.make_spec(system, 0.1 if burn_in == 0 else 0.05)
        model = MeasModel.isotropic(builtin_h("partial23"), 0.5)
        n_items, t, seed = (24, 30, 404) if burn_in == 0 else (5, 20, 7)
        data = generate(spec, model, n_items=n_items, t=t, master_seed=seed, burn_in=burn_in)
        # the states own their C-contiguous rows: no burn-in rows kept alive, no copy on save
        assert data.states.flags.c_contiguous and data.states.flags.owndata
        path = tmp_path / "ds.bin"
        save(data, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_container_without_blocks_round_trips(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_container(str(path), kind="k", meta={"a": [1, 2]}, blocks=[])
        header = b'{"blocks":[],"format_version":1,"kind":"k","meta":{"a":[1,2]}}'
        body = b"SDNC" + struct.pack("<I", len(header)) + header
        assert path.read_bytes() == body + struct.pack("<I", zlib.crc32(body))
        assert read_container(str(path), expected_kind="k") == ({"a": [1, 2]}, {})

    def test_zero_size_block_round_trips(self, tmp_path):
        path = str(tmp_path / "z.bin")
        write_container(path, kind="k", meta={},
                        blocks=[("none", np.zeros((0, 3))), ("x", np.arange(4.0).reshape(2, 2))])
        _, blocks = read_container(path)
        assert blocks["none"].shape == (0, 3)
        np.testing.assert_array_equal(blocks["x"], [[0.0, 1.0], [2.0, 3.0]])

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

    def test_block_larger_than_the_file_is_refused_before_allocating(self, tmp_path,
                                                                     large_dataset):
        path = tmp_path / "ds.bin"
        save(large_dataset, str(path))
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8 : 8 + header_len])
        header["blocks"][0]["shape"] = [10**6, 2000, 3]  # 48 GB
        new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        body = raw[:4] + struct.pack("<I", len(new_header)) + new_header + raw[8 + header_len : -4]
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        tracemalloc.start()
        try:
            with pytest.raises(ChecksumError, match="truncated payload for block 'states'"):
                read_container(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < os.path.getsize(path)

    def test_file_cut_inside_a_block_is_refused(self, tmp_path, small_dataset):
        path = tmp_path / "ds.bin"
        save(small_dataset, str(path))
        path.write_bytes(path.read_bytes()[:-1000])
        with pytest.raises(ChecksumError):
            load(str(path))

    def test_file_that_shrinks_while_read_is_refused(self, tmp_path, small_dataset, monkeypatch):
        # The layout is checked against the size the file had when opened; a block the
        # file then cannot fill is a short read.
        path = tmp_path / "ds.bin"
        save(small_dataset, str(path))
        size = os.path.getsize(path)
        path.write_bytes(path.read_bytes()[:-1000])
        monkeypatch.setattr(serialize.os, "fstat", lambda fd: SimpleNamespace(st_size=size))
        with pytest.raises(ChecksumError, match="truncated payload for block 'meas'"):
            load(str(path))


class TestRounding:
    @pytest.mark.parametrize("value,expected", [(0.0, 0), (0.49, 0), (0.5, 1), (1.5, 2), (2.5, 3)])
    def test_half_up(self, value, expected):
        assert round_half_up(value) == expected
