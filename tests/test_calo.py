"""Event generator: conservation, ranges, determinism, schedules, file format."""

import numpy as np
import pytest
from scipy.stats import spearmanr

from rlab.calo import (
    CELLS, GRID, GeneratorConfig, bootstrap_sample, cluster_barycenter,
    cluster_energy_sum, generate_dataset, generate_event, load_dataset,
    sample_size_schedule, save_dataset, subsample,
)
from oracles import split_fixed
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
        row = generate_event(GeneratorConfig(), substream(13, "event", 3))
        ds = generate_dataset(GeneratorConfig(), 5, seed=13)
        assert np.array_equal(row, ds.events[3])
        assert np.array_equal(row[:CELLS], ds.clusters[3].ravel())
        assert row[CELLS] == ds.energy[3]

    def test_clusters_and_truth_are_views_of_the_event_rows(self):
        ds = generate_dataset(KIND_B, 6, seed=14)
        columns = (ds.energy, ds.x, ds.y, ds.theta_x, ds.theta_y)
        for k, column in enumerate(columns):
            assert np.shares_memory(column, ds.events)
            assert np.array_equal(column, ds.events[:, CELLS + k])
        ds.clusters[2, 3, 4] = -1.0
        assert ds.events[2, 3 * GRID + 4] == -1.0


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
    def test_energy_sum_per_cluster(self):
        one = np.full((GRID, GRID), 2.0)
        batch = np.stack([one, 0.5 * one])
        np.testing.assert_allclose(cluster_energy_sum(batch), [450.0, 225.0])

    def test_barycenter_single_cell(self):
        c = np.zeros((GRID, GRID))
        c[7, 9] = 5.0
        np.testing.assert_allclose(cluster_barycenter(c[None]), [[2.0, 0.0]])
        c2 = np.zeros((GRID, GRID))
        c2[4, 7] = 1.0
        np.testing.assert_allclose(cluster_barycenter(c2[None]), [[0.0, -3.0]])

    def test_barycenter_symmetric_cluster_centered(self):
        c = np.zeros((GRID, GRID))
        c[7, 6] = c[7, 8] = c[6, 7] = c[8, 7] = 1.0
        np.testing.assert_allclose(cluster_barycenter(c[None]), [[0.0, 0.0]], atol=1e-15)

    def test_barycenter_all_zero_rejected(self):
        with pytest.raises(DegenerateFitError):
            cluster_barycenter(np.zeros((1, GRID, GRID)))

    @pytest.mark.parametrize("n", [1, 7, 300, 2049])
    def test_event_row_views_give_the_bits_of_contiguous_clusters(self, n):
        # clusters are strided views of the event rows; training pins their sums' bits
        ds = generate_dataset(GeneratorConfig(), n, seed=31)
        dense = np.ascontiguousarray(ds.clusters)
        assert np.shares_memory(ds.clusters, ds.events)
        assert np.array_equal(cluster_energy_sum(ds.clusters), cluster_energy_sum(dense))
        assert np.array_equal(cluster_barycenter(ds.clusters), cluster_barycenter(dense))

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

    # sha256 of save_dataset(generate_dataset(cfg, 40, seed)): pins the generator's
    # draw order and the file layout together
    @pytest.mark.parametrize("kind, seed, digest", [
        ("A", 61, "a1deffe50ffe9bc27982fcab7797816e907249067f8e3d6571cad76c1e9897b6"),
        ("B", 62, "270a9150dba112d7a3d665f6298aae84a31970690fef8e889d3c4e305225de2e"),
    ])
    def test_file_bytes_pinned(self, tmp_path, kind, seed, digest):
        import hashlib
        path = tmp_path / "pinned.rlab"
        save_dataset(generate_dataset(GeneratorConfig(dataset_kind=kind), 40, seed), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("cfg", [GeneratorConfig(), KIND_B], ids=["A", "B"])
    def test_load_then_save_reproduces_the_bytes(self, tmp_path, cfg):
        first, second = str(tmp_path / "first.rlab"), str(tmp_path / "second.rlab")
        save_dataset(generate_dataset(cfg, 12, seed=63), first)
        save_dataset(load_dataset(first), second)
        assert open(first, "rb").read() == open(second, "rb").read()

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

    def test_count_that_no_memory_holds_is_a_format_error(self, tmp_path):
        # a valid CRC over a corrupt count: the count must not size an allocation
        import struct
        path = str(tmp_path / "huge.rlab")
        save_dataset(generate_dataset(GeneratorConfig(), 4, seed=47), path)

        def huge_count(payload):
            (blob_len,) = struct.unpack_from("<I", payload, 0)
            meta_end = 4 + blob_len
            return payload[:meta_end] + struct.pack("<Q", 2 ** 60) + payload[meta_end + 8:]
        self.rewrite_payload(path, huge_count)
        with pytest.raises(DatasetFormatError, match="expected .* event bytes, found 7360"):
            load_dataset(path)

    @pytest.mark.parametrize("blob_len", [0, 3, 2 ** 32 - 1])
    def test_blob_length_that_misses_the_block_is_a_format_error(self, tmp_path, blob_len):
        import struct
        path = str(tmp_path / "blob.rlab")
        save_dataset(generate_dataset(GeneratorConfig(), 4, seed=48), path)
        self.rewrite_payload(path, lambda p: struct.pack("<I", blob_len) + p[4:])
        with pytest.raises(DatasetFormatError, match="provenance block"):
            load_dataset(path)

    def test_every_truncation_is_a_checksum_mismatch(self, tmp_path):
        path = tmp_path / "cut.rlab"
        save_dataset(generate_dataset(GeneratorConfig(), 1, seed=49), str(path))
        raw = path.read_bytes()
        for end in range(10, len(raw)):
            path.write_bytes(raw[:end])
            with pytest.raises(DatasetFormatError, match="checksum mismatch"):
                load_dataset(str(path))


class TestFileMemory:
    """Dataset I/O holds each event byte once: tracemalloc sees numpy's
    allocations, so its peak counts every copy of the events."""

    N = 1000

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_dataset(GeneratorConfig(), self.N, seed=50)

    @staticmethod
    def peak(call):
        import tracemalloc
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = call()
            return result, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_load_holds_the_events_once_plus_its_check(self, tmp_path, dataset):
        path = str(tmp_path / "pool.rlab")
        save_dataset(dataset, path)
        back, peak = self.peak(lambda: load_dataset(path))
        assert np.array_equal(back.events, dataset.events)
        # the events, plus the one bool per value of the finiteness check
        assert peak / dataset.events.nbytes <= 1.25

    def test_save_copies_no_events(self, tmp_path, dataset):
        _, peak = self.peak(lambda: save_dataset(dataset, str(tmp_path / "pool.rlab")))
        assert peak / dataset.events.nbytes <= 0.25
