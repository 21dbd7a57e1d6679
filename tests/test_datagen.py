import numpy as np
import pytest
from scipy import stats

from covbvm import (
    DatasetSpec,
    dataset_from_samples,
    estimate_delta_hat,
    estimate_delta_tilde,
    entry_functional,
    model_from_spectrum,
    sample_dataset,
    trace_functional,
)
from covbvm.datagen import _raw_samples, derived_rng, derived_seed
from covbvm.errors import NotPositiveDefinite
from covbvm.spd import relative_deviation, spectral_norm, sym


def identity_model(p):
    return model_from_spectrum([1.0], [p])


class TestSampleDataset:
    def test_gaussian_consistency(self):
        spec = DatasetSpec(identity_model(2), "gaussian", 100_000, seed=42)
        ds = sample_dataset(spec)
        assert spectral_norm(ds.sample_cov.entries - np.eye(2)) < 0.03

    def test_rademacher_support(self):
        samples = _raw_samples(derived_rng(0), "sub_gaussian_rademacher", 500, 2)
        assert np.all(np.isin(samples, [-1.0, 1.0]))

    def test_sphere_radius(self):
        p = 6
        samples = _raw_samples(derived_rng(1), "bounded_sphere", 300, p)
        assert np.allclose(np.linalg.norm(samples, axis=1), np.sqrt(p))

    def test_deterministic(self):
        spec = DatasetSpec(identity_model(3), "gaussian", 50, seed=9)
        a = sample_dataset(spec)
        b = sample_dataset(spec)
        assert a.sample_cov.entries.tobytes() == b.sample_cov.entries.tobytes()

    def test_sample_cov_matches_outer_products(self):
        samples = derived_rng(2).standard_normal((200, 3))
        ds = dataset_from_samples(samples)
        assert (ds.n, ds.dim) == (200, 3)
        outer = samples.T @ samples / ds.n
        assert np.allclose(ds.sample_cov.entries, outer, atol=1e-12)

    @pytest.mark.parametrize("family", ["sub_gaussian_rademacher", "bounded_sphere"])
    def test_other_families_reduce_their_samples(self, family):
        # the draw, restated: n samples from derived_rng(seed, branch), scaled
        # by the covariance's symmetric root and reduced to their outer-product
        # mean, bit for bit
        model = model_from_spectrum([3.0, 1.0], [1, 2], rotation_seed=0)
        n, p = 50, 3
        rng = derived_rng(5, 7)
        if family == "sub_gaussian_rademacher":
            raw = rng.integers(0, 2, size=(n, p)) * 2.0 - 1.0
        else:
            z = rng.standard_normal((n, p))
            raw = z / np.linalg.norm(z, axis=1, keepdims=True) * np.sqrt(p)
        x = raw @ model.sigma_star.sqrtm()
        ds = sample_dataset(DatasetSpec(model, family, n, seed=5), seed_branch=7)
        assert ds.sample_cov.entries.tobytes() == sym(x.T @ x / n).tobytes()

    def test_gaussian_n_below_p_is_singular(self):
        model = identity_model(4)
        with pytest.raises(NotPositiveDefinite, match="n = 3 Gaussian samples in dimension 4"):
            sample_dataset(DatasetSpec(model, "gaussian", 3, seed=0))
        # n = p is the smallest n with a full-rank sample covariance
        assert sample_dataset(DatasetSpec(model, "gaussian", 4, seed=0)).dim == 4

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


class TestGaussianLaw:
    """The Bartlett draw of S against the sample path X^T X / n, X n i.i.d.
    N(0, Sigma*) rows: two-sample KS tests on two scalar statistics, and the
    exact Wishart moments E[S] = Sigma* and
    Var(S_ij) = (Sigma_ij^2 + Sigma_ii Sigma_jj) / n.  Datasets, seeds and
    bounds are fixed: 4000 datasets a path, KS p-value above 1e-3, means
    within 4 standard errors and variances within 10%."""

    N_DATASETS = 4000

    @pytest.fixture(scope="class")
    def paths(self):
        model = model_from_spectrum([3.0, 1.0], [1, 2], rotation_seed=0)
        spec = DatasetSpec(model, "gaussian", 40, seed=21)
        root = model.sigma_star.sqrtm()
        bartlett = np.array([
            sample_dataset(spec, seed_branch=k).sample_cov.entries
            for k in range(self.N_DATASETS)
        ])
        sampled = np.array([
            dataset_from_samples(derived_rng(22, k).standard_normal((spec.n, 3)) @ root)
            .sample_cov.entries
            for k in range(self.N_DATASETS)
        ])
        return model.sigma_star, spec.n, bartlett, sampled

    def test_matches_sample_path(self, paths):
        sigma, _, bartlett, sampled = paths
        for stat in (
            lambda s: relative_deviation(s, sigma),
            lambda s: np.trace(s, axis1=1, axis2=2),
        ):
            assert stats.ks_2samp(stat(bartlett), stat(sampled)).pvalue > 1e-3

    def test_wishart_moments(self, paths):
        sigma, n, bartlett, _ = paths
        s = sigma.entries
        var = (s**2 + np.outer(np.diag(s), np.diag(s))) / n
        mean_err = np.abs(bartlett.mean(axis=0) - s)
        assert np.all(mean_err <= 4 * np.sqrt(var / self.N_DATASETS))
        assert np.allclose(bartlett.var(axis=0, ddof=1), var, rtol=0.1, atol=0)


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
