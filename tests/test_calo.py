"""Event generator: conservation, ranges, determinism, schedules, file format."""

import numpy as np
import pytest
from scipy.stats import spearmanr

from rlab.calo import (
    CELLS, GRID, GeneratorConfig, bootstrap_sample, cluster_barycenter,
    cluster_energy_sum, generate_dataset, generate_event, load_dataset,
    sample_size_schedule, save_dataset, split_fixed, subsample,
)
from rlab.errors import ContractError, DatasetFormatError, DegenerateFitError
from rlab.seeding import substream

NOISELESS = GeneratorConfig(resolution_a=0.0, noise_b=0.0)
KIND_B = GeneratorConfig(dataset_kind="B")


class TestGeneratorConfig:
    def test_defaults_valid(self):
        GeneratorConfig()

    @pytest.mark.parametrize("kw", [
        {"dataset_kind": "C"},
        {"energy_range": (0.0, 100.0)},
        {"energy_range": (5.0, 5.0)},
        {"containment_fraction": 0.0},
        {"containment_fraction": 1.5},
        {"core_width": -1.0},
        {"core_fraction": 1.2},
        {"resolution_a": -0.1},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ContractError):
            GeneratorConfig(**kw)

    def test_round_trip(self):
        cfg = GeneratorConfig(dataset_kind="B", resolution_a=0.07)
        assert GeneratorConfig(**cfg.to_dict()) == cfg


class TestEventPhysicsFreeInvariants:
    def test_noiseless_sum_equals_containment_times_energy(self):
        ds = generate_dataset(NOISELESS, 300, seed=1)
        ratio = ds.clusters.sum(axis=(1, 2)) / ds.energy
        np.testing.assert_allclose(ratio, NOISELESS.containment_fraction, rtol=0, atol=1e-9)

    def test_cells_never_negative(self):
        big_noise = GeneratorConfig(resolution_a=3.0, noise_b=1.0)
        ds = generate_dataset(big_noise, 500, seed=2)
        assert ds.clusters.min() >= 0.0

    def test_truth_ranges(self):
        for cfg, seed in ((GeneratorConfig(), 3), (KIND_B, 4)):
            ds = generate_dataset(cfg, 400, seed=seed)
            lo, hi = cfg.energy_range
            assert np.all((ds.energy >= lo) & (ds.energy <= hi))
            assert np.all(np.abs(ds.x) <= 0.5) and np.all(np.abs(ds.y) <= 0.5)

    def test_kind_a_normal_incidence(self):
        ds = generate_dataset(GeneratorConfig(), 50, seed=5)
        assert np.all(ds.theta_x == 0.0) and np.all(ds.theta_y == 0.0)

    def test_kind_a_peak_at_or_adjacent_to_center(self):
        ds = generate_dataset(GeneratorConfig(), 300, seed=6)
        flat_max = ds.clusters.reshape(len(ds), -1).argmax(axis=1)
        rows, cols = flat_max // GRID, flat_max % GRID
        assert np.all(np.abs(rows - GRID // 2) <= 1)
        assert np.all(np.abs(cols - GRID // 2) <= 1)

    def test_kind_b_angles_shrink_with_energy(self):
        ds = generate_dataset(KIND_B, 2000, seed=7)
        hi = KIND_B.energy_range[1]
        cap = KIND_B.angle_bound * (1.0 - ds.energy / hi)
        assert np.all(np.abs(ds.theta_x) <= cap + 1e-12)
        assert np.all(np.abs(ds.theta_y) <= cap + 1e-12)
        assert np.abs(ds.theta_x).max() < KIND_B.angle_bound

    def test_kind_b_spectrum_is_soft(self):
        ds = generate_dataset(KIND_B, 20_000, seed=8)
        frac_low = np.mean(ds.energy <= 20.0)
        assert frac_low == pytest.approx(0.70, abs=0.02)
        assert ds.energy.mean() < 50.5

    def test_noiseless_sum_ranks_match_energy_ranks(self):
        ds = generate_dataset(NOISELESS, 500, seed=9)
        rho = spearmanr(ds.clusters.sum(axis=(1, 2)), ds.energy).statistic
        assert rho == 1.0


class TestDeterminism:
    def test_same_seed_bitwise_equal(self):
        a = generate_dataset(KIND_B, 64, seed=11)
        b = generate_dataset(KIND_B, 64, seed=11)
        assert np.array_equal(a.clusters, b.clusters)
        assert np.array_equal(a.energy, b.energy)

    def test_different_seed_differs(self):
        a = generate_dataset(GeneratorConfig(), 16, seed=11)
        b = generate_dataset(GeneratorConfig(), 16, seed=12)
        assert not np.array_equal(a.energy, b.energy)

    def test_event_i_independent_of_total_count(self):
        short = generate_dataset(GeneratorConfig(), 5, seed=13)
        long = generate_dataset(GeneratorConfig(), 10, seed=13)
        assert np.array_equal(short.clusters, long.clusters[:5])

    def test_single_event_matches_dataset_row(self):
        ev = generate_event(GeneratorConfig(), substream(13, "event", 3))
        ds = generate_dataset(GeneratorConfig(), 5, seed=13)
        assert np.array_equal(ev.cluster, ds.clusters[3])
        assert ev.energy == ds.energy[3]


class TestSampling:
    def pool(self):
        return generate_dataset(GeneratorConfig(), 40, seed=20)

    def test_split_disjoint_exhaustive(self):
        train, test = split_fixed(self.pool(), ratio=0.5, seed=1)
        assert len(train) == 20 and len(test) == 20
        merged = np.concatenate([train.energy, test.energy])
        assert sorted(merged) == sorted(self.pool().energy)

    def test_split_two_events(self):
        two = self.pool().take(np.array([0, 1]))
        train, test = split_fixed(two, ratio=0.5, seed=1)
        assert len(train) == 1 and len(test) == 1

    def test_split_deterministic(self):
        a, _ = split_fixed(self.pool(), seed=5)
        b, _ = split_fixed(self.pool(), seed=5)
        assert np.array_equal(a.energy, b.energy)
        c, _ = split_fixed(self.pool(), seed=6)
        assert not np.array_equal(a.energy, c.energy)

    def test_split_bad_ratio(self):
        with pytest.raises(ContractError):
            split_fixed(self.pool(), ratio=1.0)

    def test_bootstrap_draws_with_replacement(self):
        sample = bootstrap_sample(self.pool(), 200, seed=3)
        assert len(sample) == 200
        # 200 draws from 40 events must repeat something
        assert len(np.unique(sample.energy)) < 200

    def test_bootstrap_deterministic_per_seed(self):
        a = bootstrap_sample(self.pool(), 30, seed=4)
        b = bootstrap_sample(self.pool(), 30, seed=4)
        c = bootstrap_sample(self.pool(), 30, seed=5)
        assert np.array_equal(a.energy, b.energy)
        assert not np.array_equal(a.energy, c.energy)

    def test_subsample_distinct(self):
        sample = subsample(self.pool(), 40, seed=6)
        assert len(np.unique(sample.energy)) == 40
        with pytest.raises(ContractError):
            subsample(self.pool(), 41, seed=6)


class TestSampleSizeSchedule:
    def test_frozen_endpoints(self):
        assert sample_size_schedule(0) == 132
        assert sample_size_schedule(44) == 31_698

    def test_frozen_midpoint(self):
        # exponent at i=22 is exactly 0.01: round(2000 * 10**0.01) = 2047
        assert sample_size_schedule(22) == 2_047

    def test_strictly_increasing(self):
        values = [sample_size_schedule(i) for i in range(46)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_index_bounds(self):
        for bad in (-1, 46):
            with pytest.raises(ContractError):
                sample_size_schedule(bad)


class TestClusterFeatures:
    def test_energy_sum_scalar_and_batch(self):
        one = np.full((GRID, GRID), 2.0)
        assert cluster_energy_sum(one) == pytest.approx(2.0 * CELLS)
        batch = np.stack([one, 0.5 * one])
        np.testing.assert_allclose(cluster_energy_sum(batch), [450.0, 225.0])

    def test_barycenter_single_cell(self):
        c = np.zeros((GRID, GRID))
        c[7, 9] = 5.0
        np.testing.assert_allclose(cluster_barycenter(c), [2.0, 0.0])
        c2 = np.zeros((GRID, GRID))
        c2[4, 7] = 1.0
        np.testing.assert_allclose(cluster_barycenter(c2), [0.0, -3.0])

    def test_barycenter_symmetric_cluster_centered(self):
        c = np.zeros((GRID, GRID))
        c[7, 6] = c[7, 8] = c[6, 7] = c[8, 7] = 1.0
        np.testing.assert_allclose(cluster_barycenter(c), [0.0, 0.0], atol=1e-15)

    def test_barycenter_all_zero_rejected(self):
        with pytest.raises(DegenerateFitError):
            cluster_barycenter(np.zeros((GRID, GRID)))

    def test_barycenter_batch_shape(self):
        ds = generate_dataset(GeneratorConfig(), 10, seed=30)
        out = cluster_barycenter(ds.clusters)
        assert out.shape == (10, 2)


class TestFileFormat:
    def test_round_trip_bitwise(self, tmp_path):
        ds = generate_dataset(KIND_B, 25, seed=40)
        path = str(tmp_path / "events.rlab")
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.clusters, ds.clusters)
        assert np.array_equal(back.energy, ds.energy)
        assert np.array_equal(back.theta_y, ds.theta_y)
        assert back.config == ds.config
        assert back.seed == 40

    def test_file_size_arithmetic(self, tmp_path):
        ds = generate_dataset(GeneratorConfig(), 17, seed=41)
        path = str(tmp_path / "d.rlab")
        save_dataset(ds, path)
        import json, os
        meta = json.dumps({"generator": ds.config.to_dict(), "seed": 40 + 1},
                          sort_keys=True).encode()
        expected = 4 + 2 + 4 + len(meta) + 8 + 17 * (CELLS + 5) * 8 + 4
        assert os.path.getsize(path) == expected

    def test_truncated_file_rejected_whole(self, tmp_path):
        ds = generate_dataset(GeneratorConfig(), 8, seed=42)
        path = str(tmp_path / "t.rlab")
        save_dataset(ds, path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-100])
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "junk.rlab")
        open(path, "wb").write(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DatasetFormatError, match="magic"):
            load_dataset(path)

    def test_flipped_byte_fails_checksum(self, tmp_path):
        ds = generate_dataset(GeneratorConfig(), 8, seed=43)
        path = str(tmp_path / "c.rlab")
        save_dataset(ds, path)
        raw = bytearray(open(path, "rb").read())
        raw[len(raw) // 2] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises(DatasetFormatError, match="checksum"):
            load_dataset(path)

    @staticmethod
    def rewrite_payload(path, edit):
        """Replace the file's payload by edit(payload) and recompute its CRC,
        so that the loader gets past the checksum to the field checks."""
        import struct, zlib
        raw = open(path, "rb").read()
        payload = edit(raw[6:-4])
        open(path, "wb").write(raw[:6] + payload + struct.pack("<I", zlib.crc32(payload)))

    def test_count_field_past_payload_end(self, tmp_path):
        import struct
        ds = generate_dataset(GeneratorConfig(), 4, seed=45)
        path = str(tmp_path / "short.rlab")
        save_dataset(ds, path)

        def drop_count(payload):
            (blob_len,) = struct.unpack_from("<I", payload, 0)
            return payload[:4 + blob_len] + b"\x00" * 3   # 3 of the count's 8 bytes
        self.rewrite_payload(path, drop_count)
        with pytest.raises(DatasetFormatError, match="count"):
            load_dataset(path)

    def test_missing_generator_key(self, tmp_path):
        import json, struct
        ds = generate_dataset(GeneratorConfig(), 4, seed=46)
        path = str(tmp_path / "anon.rlab")
        save_dataset(ds, path)

        def drop_generator(payload):
            (blob_len,) = struct.unpack_from("<I", payload, 0)
            blob = json.dumps({"seed": 46}).encode()
            return struct.pack("<I", len(blob)) + blob + payload[4 + blob_len:]
        self.rewrite_payload(path, drop_generator)
        with pytest.raises(DatasetFormatError, match="generator"):
            load_dataset(path)
