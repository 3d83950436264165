"""Classical estimators: the energy scale fit and the barycenter S-curve."""

import math

import numpy as np
import pytest

from rlab.baselines import (
    ScurveFit,
    baseline_loss,
    barycenter,
    fit_energy_scale,
    fit_scurve,
    predict_energy,
    predict_position,
)
from rlab.calo import CELLS, Dataset, GeneratorConfig, cluster_barycenter, generate_dataset
from rlab.errors import ContractError, DegenerateFitError
from rlab.training import loss_value


def make_dataset(clusters, energy):
    """Events holding these clusters and energies, at normal incidence on the grid center."""
    n = len(energy)
    events = np.zeros((n, CELLS + 5))
    events[:, :CELLS] = np.reshape(clusters, (n, CELLS))
    events[:, CELLS] = energy
    return Dataset(events, GeneratorConfig())


NOISELESS = GeneratorConfig(resolution_a=0.0, noise_b=0.0)


class TestEnergyScale:
    def test_single_event_fit_is_exact(self):
        cluster = np.zeros((1, 15, 15))
        cluster[0, 7, 7] = 20.0          # sum twice the true energy
        ds = make_dataset(cluster, [10.0])
        c = fit_energy_scale(ds)
        assert c == pytest.approx(0.5, abs=1e-15)
        assert predict_energy(c, ds.clusters)[0] == pytest.approx(10.0, abs=1e-12)

    def test_closed_form_on_two_events(self):
        # ratios r = S/E of 1 and 2: c = (1+2)/(1+4) = 0.6
        clusters = np.zeros((2, 15, 15))
        clusters[0, 7, 7] = 5.0
        clusters[1, 7, 7] = 8.0
        ds = make_dataset(clusters, [5.0, 4.0])
        assert fit_energy_scale(ds) == pytest.approx(0.6, abs=1e-15)

    def test_noiseless_scale_inverts_containment(self):
        ds = generate_dataset(NOISELESS, 200, seed=31)
        c = fit_energy_scale(ds)
        assert c == pytest.approx(1.0 / NOISELESS.containment_fraction, rel=1e-12)

    def test_noiseless_resolution_is_tiny(self):
        train = generate_dataset(NOISELESS, 300, seed=32)
        test = generate_dataset(NOISELESS, 300, seed=33)
        assert baseline_loss(train, test, "energy") < 1e-6

    def test_cluster_scaling_moves_scale_inversely(self):
        ds = generate_dataset(GeneratorConfig(), 150, seed=34)
        scaled = make_dataset(ds.clusters * 4.0, ds.energy)
        assert fit_energy_scale(scaled) == pytest.approx(fit_energy_scale(ds) / 4.0, rel=1e-12)
        pred_a = predict_energy(fit_energy_scale(ds), ds.clusters)
        pred_b = predict_energy(fit_energy_scale(scaled), scaled.clusters)
        np.testing.assert_allclose(pred_a, pred_b, rtol=1e-12)

    def test_agrees_with_scalar_minimizer(self):
        from scipy.optimize import minimize_scalar

        ds = generate_dataset(GeneratorConfig(), 400, seed=35)
        c = fit_energy_scale(ds)

        def objective(v):
            return loss_value("energy", predict_energy(v, ds.clusters), ds.energy)

        res = minimize_scalar(objective, bounds=(0.1, 10.0), method="bounded")
        assert c == pytest.approx(res.x, rel=1e-5)
        assert objective(c) <= res.fun + 1e-12

    def test_all_zero_clusters_rejected(self):
        ds = make_dataset(np.zeros((3, 15, 15)), [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateFitError):
            fit_energy_scale(ds)

    def test_noisy_resolution_matches_noise_model(self):
        # with c ~ 1/containment the relative error is just the noise factor,
        # so the loss must land near sqrt(mean(a^2/E + b^2))
        cfg = GeneratorConfig()
        train = generate_dataset(cfg, 4000, seed=36)
        test = generate_dataset(cfg, 20000, seed=37)
        got = baseline_loss(train, test, "energy")
        expect = math.sqrt(np.mean(cfg.resolution_a**2 / test.energy + cfg.noise_b**2))
        assert got == pytest.approx(expect, rel=0.10)

    def test_bootstrap_scatter_shrinks_with_sample_size(self):
        cfg = GeneratorConfig()
        pool = generate_dataset(cfg, 32000, seed=38)
        r = pool.clusters.sum(axis=(1, 2)) / pool.energy
        rng = np.random.default_rng(39)

        def scatter(size, reps=150):
            cs = []
            for _ in range(reps):
                idx = rng.integers(0, len(r), size=size)
                cs.append(r[idx].sum() / (r[idx] ** 2).sum())
            return float(np.std(cs))

        assert scatter(8000) >= 1.8 * scatter(32000)


class TestScurve:
    def test_edges_and_center_are_fixed_points(self):
        for beta in (0.1, 1.0, 7.0, 50.0):
            fit = ScurveFit(beta)
            assert fit.correct(0.0) == 0.0
            assert fit.correct(0.5) == pytest.approx(0.5, abs=1e-15)
            assert fit.correct(-0.5) == pytest.approx(-0.5, abs=1e-15)

    def test_small_beta_is_near_identity(self):
        fit = ScurveFit(1e-6)
        u = np.linspace(-0.5, 0.5, 11)
        np.testing.assert_allclose(fit.correct(u), u, atol=1e-9)

    def test_correction_is_odd(self):
        fit = ScurveFit(3.0)
        u = np.linspace(0.0, 0.5, 20)
        np.testing.assert_allclose(fit.correct(-u), -fit.correct(u), atol=1e-15)

    def test_monotone_within_cell(self):
        u = np.linspace(-0.5, 0.5, 101)
        for beta in (0.2, 2.0, 30.0):
            out = ScurveFit(beta).correct(u)
            assert np.all(np.diff(out) > 0)

    def test_fit_beats_beta_grid(self):
        ds = generate_dataset(GeneratorConfig(), 500, seed=40)
        fit = fit_scurve(ds)
        assert 0.1 <= fit.beta <= 50.0

        def objective(beta):
            pred = predict_position(ScurveFit(beta), ds.clusters)
            return float(np.sum((pred - ds.x) ** 2))

        best_grid = min(objective(b) for b in np.geomspace(0.1, 50.0, 300))
        assert objective(fit.beta) <= best_grid + 1e-9

    def test_fit_improves_on_raw_barycenter(self):
        train = generate_dataset(GeneratorConfig(), 800, seed=41)
        test = generate_dataset(GeneratorConfig(), 800, seed=42)
        fit = fit_scurve(train)
        raw = loss_value("position_x", cluster_barycenter(test.clusters)[:, 0], test.x)
        corrected = loss_value("position_x", predict_position(fit, test.clusters), test.x)
        assert corrected < raw

    def test_fit_is_deterministic(self):
        ds = generate_dataset(GeneratorConfig(), 200, seed=43)
        assert fit_scurve(ds).beta == fit_scurve(ds).beta

    def test_one_cluster_batch_matches_larger_batch(self):
        ds = generate_dataset(GeneratorConfig(), 5, seed=44)
        fit = fit_scurve(ds)
        out = predict_position(fit, ds.clusters[:1])
        assert out.shape == (1,)
        batch = predict_position(fit, ds.clusters)
        # matmul kernels vary with batch shape, so only near-exact agreement holds
        assert out[0] == pytest.approx(batch[0], rel=1e-12, abs=1e-12)

    def test_bad_beta_range_rejected(self):
        ds = generate_dataset(GeneratorConfig(), 5, seed=45)
        with pytest.raises(ContractError):
            fit_scurve(ds, beta_range=(0.0, 1.0))
        with pytest.raises(ContractError):
            fit_scurve(ds, beta_range=(2.0, 1.0))


class TestBaselineLoss:
    def test_barycenter_alias(self):
        assert barycenter is cluster_barycenter

    def test_position_loss_runs_and_is_reasonable(self):
        train = generate_dataset(GeneratorConfig(), 400, seed=46)
        test = generate_dataset(GeneratorConfig(), 400, seed=47)
        loss = baseline_loss(train, test, "position_x")
        assert 0.0 < loss < 0.3     # impacts live inside one cell

    def test_unknown_target_rejected(self):
        ds = generate_dataset(GeneratorConfig(), 5, seed=48)
        with pytest.raises(ContractError):
            baseline_loss(ds, ds, "position_y")
