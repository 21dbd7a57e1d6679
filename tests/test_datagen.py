import numpy as np
import pytest

from covbvm import (
    DatasetSpec,
    estimate_delta_hat,
    estimate_delta_tilde,
    entry_functional,
    model_from_spectrum,
    sample_dataset,
    trace_functional,
)
from covbvm.datagen import derived_seed
from covbvm.spd import spectral_norm


def identity_model(p):
    return model_from_spectrum([1.0], [p])


class TestSampleDataset:
    def test_gaussian_consistency(self):
        spec = DatasetSpec(identity_model(2), "gaussian", 100_000, seed=42)
        ds = sample_dataset(spec)
        assert spectral_norm(ds.sample_cov.entries - np.eye(2)) < 0.03

    def test_rademacher_support(self):
        spec = DatasetSpec(identity_model(2), "sub_gaussian_rademacher", 500, seed=0)
        ds = sample_dataset(spec)
        assert np.all(np.isin(ds.samples, [-1.0, 1.0]))

    def test_sphere_radius(self):
        p = 6
        spec = DatasetSpec(identity_model(p), "bounded_sphere", 300, seed=1)
        ds = sample_dataset(spec)
        assert np.allclose(np.linalg.norm(ds.samples, axis=1), np.sqrt(p))

    def test_deterministic(self):
        spec = DatasetSpec(identity_model(3), "gaussian", 50, seed=9)
        a = sample_dataset(spec)
        b = sample_dataset(spec)
        assert np.array_equal(a.samples, b.samples)

    def test_sample_cov_matches_outer_products(self):
        spec = DatasetSpec(identity_model(3), "gaussian", 200, seed=2)
        ds = sample_dataset(spec)
        outer = ds.samples.T @ ds.samples / ds.n
        assert np.allclose(ds.sample_cov.entries, outer, atol=1e-12)

    @pytest.mark.parametrize("family", ["gaussian", "sub_gaussian_rademacher", "bounded_sphere"])
    def test_all_families_converge(self, family):
        model = model_from_spectrum([3.0, 1.0], [2, 2], rotation_seed=0)
        snorm = model.sigma_star.spectral_norm
        p, n = 4, 100_000
        hits = 0
        for seed in range(20):
            ds = sample_dataset(DatasetSpec(model, family, n, seed=seed))
            dev = spectral_norm(ds.sample_cov.entries - model.sigma_star.entries)
            hits += dev <= 5 * np.sqrt(p / n) * snorm
        assert hits >= 19


class TestDerivedSeed:
    def test_branch_keys_do_not_alias_seed_arithmetic(self):
        # seed + k made (seed 0, branch 1) and (seed 1, branch 0) one stream
        assert derived_seed(0, 1) != derived_seed(1, 0)
        assert derived_seed(0, 1) == derived_seed(0, 1)
        assert 0 <= derived_seed(0, 1) < 2**62


class TestDeltaHat:
    def test_gaussian_rate(self):
        model = identity_model(5)
        spec = DatasetSpec(model, "gaussian", 500, seed=3)
        est = estimate_delta_hat(spec, replications=200)
        rate = np.sqrt((5 + np.log(500)) / 500)
        assert rate / 3 <= est <= 3 * rate

    def test_shrinks_with_n(self):
        model = identity_model(4)
        small = estimate_delta_hat(DatasetSpec(model, "gaussian", 500, seed=4), 150)
        big = estimate_delta_hat(DatasetSpec(model, "gaussian", 2000, seed=4), 150)
        assert 0.35 <= big / small <= 0.7

    def test_scale_free(self):
        base = identity_model(3)
        scaled = model_from_spectrum([7.5], [3])
        a = estimate_delta_hat(DatasetSpec(base, "gaussian", 300, seed=5), 60)
        b = estimate_delta_hat(DatasetSpec(scaled, "gaussian", 300, seed=5), 60)
        assert a == pytest.approx(b, rel=1e-9)


class TestDeltaTilde:
    def test_dimension_free(self):
        n = 1000
        radii = []
        for p in (5, 50):
            model = identity_model(p)
            func = entry_functional(model, 0, 0)
            spec = DatasetSpec(model, "gaussian", n, seed=6)
            radii.append(estimate_delta_tilde(spec, func, replications=100))
        rate = np.sqrt((1 + np.log(n)) / n)
        for r in radii:
            assert rate / 3 <= r <= 3 * rate

    def test_full_rank_matches_delta_hat(self):
        model = identity_model(4)
        func = trace_functional(model)
        spec = DatasetSpec(model, "gaussian", 800, seed=7)
        tilde = estimate_delta_tilde(spec, func, replications=100)
        hat = estimate_delta_hat(spec, replications=100)
        assert hat / 2 <= tilde <= 2 * hat

    def test_kappa_inequality(self):
        model = model_from_spectrum([4.0, 1.0], [1, 2], rotation_seed=1)
        func = entry_functional(model, 0, 1)
        spec = DatasetSpec(model, "gaussian", 600, seed=8)
        tilde = estimate_delta_tilde(spec, func, replications=80)
        hat = estimate_delta_hat(spec, replications=80)
        kappa = 4.0
        assert tilde <= 1.5 * kappa * hat
