import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from covbvm import (
    DatasetSpec,
    ExactConjugate,
    GenericPrior,
    InverseWishartPrior,
    Metropolis,
    PosteriorDraws,
    PosteriorSampler,
    RejectionInVicinity,
    SpdMatrix,
    UniformVicinityPrior,
    dataset_from_samples,
    default_inverse_wishart_prior,
    default_sampler,
    localize_draws,
    localized_posterior_mass,
    log_likelihood,
    model_from_spectrum,
    sample_dataset,
    sample_inverse_wishart,
    sample_posterior,
    tv_distance_over_statistics,
)
from covbvm.datagen import derived_rng
from covbvm.errors import BadDegreesOfFreedom, BadDimension, NotPositiveDefinite
from covbvm.diagnostics import default_statistic_battery
from covbvm.posterior import (
    _CHUNK,
    _CholeskyMap,
    _log_target,
    _tril_inv_inplace,
    conjugate_posterior_params,
    vicinity_mask,
)
from covbvm.spd import spectral_norm, sym


def dataset_with_cov(cov, n):
    """Synthetic dataset whose outer-product covariance is exactly cov."""
    p = cov.shape[0]
    root = SpdMatrix(cov).sqrtm()
    # n copies of scaled basis vectors reproduce cov exactly when n % p == 0
    assert n % p == 0
    base = np.tile(np.eye(p), (n // p, 1)) * math.sqrt(p)
    return dataset_from_samples(base @ root)


class TestLogLikelihood:
    def test_identity(self):
        p, n = 4, 8
        ds = dataset_with_cov(np.eye(p), n)
        expect = -0.5 * n * p * (1.0 + math.log(2 * math.pi))
        assert log_likelihood(SpdMatrix(np.eye(p)), ds) == pytest.approx(expect)

    def test_scalar_case(self):
        ds = dataset_with_cov(np.eye(1), 2)
        got = log_likelihood(SpdMatrix([[2.0]]), ds)
        assert got == pytest.approx(-math.log(2) - 0.5 - math.log(2 * math.pi))

    def test_maximized_at_sample_cov(self):
        rng = np.random.default_rng(0)
        model = model_from_spectrum([2.0, 1.0, 0.5], [1, 1, 1], rotation_seed=2)
        ds = sample_dataset(DatasetSpec(model, "gaussian", 60, seed=1))
        best = log_likelihood(ds.sample_cov, ds)
        for _ in range(20):
            h = rng.standard_normal((3, 3))
            h = (h + h.T) / 2
            t = rng.uniform(-1e-3, 1e-3)
            perturbed = SpdMatrix(ds.sample_cov.entries + t * h)
            assert log_likelihood(perturbed, ds) <= best + 1e-12

    def test_rejects_non_spd(self):
        ds = dataset_with_cov(np.eye(2), 4)
        with pytest.raises(NotPositiveDefinite):
            log_likelihood(np.diag([1.0, -1.0]), ds)

    @pytest.mark.parametrize("p", [3, 20])
    def test_matches_scipy_multivariate_normal(self, p):
        rng = np.random.default_rng(p)
        ds = dataset_from_samples(rng.standard_normal((5 * p, p)))
        a = rng.standard_normal((p, p))
        sigma = a @ a.T / p + 0.5 * np.eye(p)
        expect = np.sum(stats.multivariate_normal.logpdf(ds.samples, cov=sigma))
        assert log_likelihood(sigma, ds) == pytest.approx(expect, rel=1e-10)


class TestInverseWishartPrior:
    def test_density_differences_match_scipy(self):
        p = 3
        rng = np.random.default_rng(1)
        g = rng.standard_normal((p, p))
        prior = InverseWishartPrior(SpdMatrix(g @ g.T + np.eye(p)), b=3.0)
        oracle = stats.invwishart(df=prior.dof(), scale=prior.scale.entries)
        base = np.diag([2.0, 1.0, 0.5])
        for _ in range(5):
            h = rng.standard_normal((p, p))
            other = h @ h.T + 0.1 * np.eye(p)
            got = prior.log_density(other) - prior.log_density(base)
            expect = oracle.logpdf(other) - oracle.logpdf(base)
            assert got == pytest.approx(expect, rel=1e-10)

    def test_rejects_non_spd(self):
        with pytest.raises(NotPositiveDefinite):
            default_inverse_wishart_prior(3).log_density(np.diag([1.0, -1.0, 1.0]))


class TestInverseWishart:
    def test_mean_identity_scale(self):
        draws = sample_inverse_wishart(SpdMatrix(np.eye(3)), 10.0, 100_000, seed=0)
        mean = draws.mean(axis=0)
        assert spectral_norm(mean - np.eye(3) / 6.0) < 0.03

    def test_projection_property(self):
        # moments of Q^T W Q match the projected inverse Wishart
        p, q, dof = 4, 2, 12.0
        rng = np.random.default_rng(3)
        qmat, _ = np.linalg.qr(rng.standard_normal((p, q)))
        scale = np.diag([3.0, 2.0, 1.0, 1.0])
        draws = sample_inverse_wishart(SpdMatrix(scale), dof, 60_000, seed=1)
        projected = np.einsum("iq,mij,jr->mqr", qmat, draws, qmat)
        target = qmat.T @ scale @ qmat / ((dof - p + q) - q - 1)
        assert spectral_norm(projected.mean(axis=0) - target) < 0.05

    def test_inverse_sum_representation(self):
        # W^-1 matches a sum of dof Gaussian outer products with the inverse scale
        p, dof, m = 3, 9, 60_000
        scale = SpdMatrix(np.diag([2.0, 1.0, 0.5]))
        draws = sample_inverse_wishart(scale, float(dof), m, seed=2)
        inv_mean = np.linalg.inv(draws).mean(axis=0)
        rng = np.random.default_rng(4)
        root = SpdMatrix(scale.inv()).sqrtm()
        z = rng.standard_normal((m, dof, p)) @ root
        ref_mean = np.einsum("mjp,mjq->pq", z, z) / m
        band = 3 * spectral_norm(ref_mean) * math.sqrt(2 * p / m)
        assert spectral_norm(inv_mean - ref_mean) < band

    def test_bad_dof(self):
        with pytest.raises(BadDegreesOfFreedom):
            sample_inverse_wishart(SpdMatrix(np.eye(3)), 2.0, 10, seed=0)

    def test_all_draws_spd(self):
        draws = sample_inverse_wishart(SpdMatrix(np.eye(4)), 8.0, 2000, seed=5)
        assert np.all(np.linalg.eigvalsh(draws)[:, 0] > 0)
        assert np.allclose(draws, np.swapaxes(draws, 1, 2))


def reference_inverse_wishart(scale: SpdMatrix, dof: float, count: int, seed: int):
    """Bartlett draws inverted by LAPACK: W = (L B)(L B)^T, then inv(W).

    Consumes the same ``derived_rng(seed)`` stream in blocks of 4096 as
    ``sample_inverse_wishart``: the strict lower triangle of B in
    ``np.tril_indices`` order, then its chi-square diagonal.
    """
    p = scale.dim
    chol = np.linalg.cholesky(np.linalg.inv(scale.entries))
    il, jl = np.tril_indices(p, -1)
    diag = np.arange(p)
    rng = derived_rng(seed)
    blocks = []
    for start in range(0, count, 4096):
        m = min(4096, count - start)
        b = np.zeros((m, p, p))
        b[:, il, jl] = rng.standard_normal((m, len(il)))
        b[:, diag, diag] = np.sqrt(rng.chisquare(dof - diag, size=(m, p)))
        t = chol @ b
        blocks.append(np.linalg.inv(t @ t.swapaxes(1, 2)))
    return np.concatenate(blocks)


def whole_block_inverse_wishart(scale: SpdMatrix, dof: float, count: int, rng):
    """The kernel's Bartlett algebra, one whole 4096-draw block at a time.

    Draws the block's strict-lower normals and chi-square diagonal, then forms
    T = L B, inverts it by the same 2x2 block recursion down to 1x1 leaves,
    and symmetrizes X^T X, each stage on the whole block.  Cache blocking must
    reproduce these draws bit for bit.
    """

    def tril_inv(t):
        q = t.shape[-1]
        if q == 1:
            np.reciprocal(t, out=t)
            return
        h = q // 2
        tril_inv(t[:, :h, :h])
        tril_inv(t[:, h:, h:])
        np.matmul(t[:, h:, h:] @ t[:, h:, :h], t[:, :h, :h], out=t[:, h:, :h])
        np.negative(t[:, h:, :h], out=t[:, h:, :h])

    p = scale.dim
    chol = np.linalg.cholesky(sym(scale.inv()))
    il, jl = np.tril_indices(p, -1)
    diag = np.arange(p)
    blocks = []
    for start in range(0, count, 4096):
        m = min(4096, count - start)
        b = np.zeros((m, p, p))
        b[:, il, jl] = rng.standard_normal((m, len(il)))
        b[:, diag, diag] = np.sqrt(rng.chisquare(dof - diag, size=(m, p)))
        x = chol @ b
        tril_inv(x)
        w = x.swapaxes(1, 2) @ x
        blocks.append((w + w.swapaxes(1, 2)) * 0.5)
    return np.concatenate(blocks)


class TestInverseWishartKernel:
    """The triangular Bartlett kernel against LAPACK references."""

    # 5000 draws: one full block of 4096 and a partial one
    COUNT = 5000

    @pytest.fixture(scope="class", params=[3, 50])
    def case(self, request):
        p = request.param
        g = np.random.default_rng(p).standard_normal((p, 2 * p))
        scale, dof = SpdMatrix(g @ g.T / (2 * p) + np.eye(p)), 2.0 * p + 10.0
        return scale, dof, sample_inverse_wishart(scale, dof, self.COUNT, seed=17)

    @pytest.mark.parametrize("p", [1, 2, 3, 8, 9, 17, 50])
    def test_triangular_inverse_matches_linalg(self, p):
        rng = np.random.default_rng(p)
        t = np.tril(rng.standard_normal((64, p, p)), -1) / math.sqrt(p)
        t += np.eye(p) * rng.uniform(1.0, 2.0, size=(64, 1, p))
        ref = np.linalg.inv(t)
        got = t.copy()
        _tril_inv_inplace(got)
        err = np.max(np.abs(got - ref), axis=(1, 2))
        assert np.all(err <= 1e-10 * np.max(np.abs(ref), axis=(1, 2)))
        assert np.array_equal(np.triu(got, 1), np.zeros_like(got))

    def test_factor_exactly_lower_triangular(self):
        # at a small dof the columns of T = L B are far from diagonally dominant,
        # where a pivoted inverse would leave rounding above the diagonal
        p = 8
        g = np.random.default_rng(p).standard_normal((p, 2 * p))
        scale = SpdMatrix(g @ g.T / (2 * p) + np.eye(p))
        x = sample_inverse_wishart(scale, 7.5, _CHUNK, seed=17, factor=True)
        assert np.array_equal(np.triu(x, 1), np.zeros_like(x))

    def test_matches_lapack_reference(self, case):
        scale, dof, draws = case
        ref = reference_inverse_wishart(scale, dof, self.COUNT, seed=17)
        err = np.max(np.abs(draws - ref), axis=(1, 2))
        assert np.all(err <= 1e-10 * np.max(np.abs(ref), axis=(1, 2)))

    def test_draws_exactly_symmetric(self, case):
        draws = case[2]
        assert np.array_equal(draws, draws.swapaxes(1, 2))

    def test_mean_within_clt_band(self, case):
        scale, dof, draws = case
        p, psi = scale.dim, scale.entries
        a = dof - p
        mean = psi / (a - 1)
        # entrywise inverse-Wishart variance (needs dof > p + 3)
        var = ((a + 1) * psi**2 + (a - 1) * np.outer(np.diag(psi), np.diag(psi))) / (
            a * (a - 1) ** 2 * (a - 3)
        )
        # two-sided, alpha = 1e-4 split over the p(p + 1)/2 distinct entries
        z = stats.norm.isf(1e-4 / (p * (p + 1)))
        band = z * np.sqrt(var / self.COUNT)
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= band)


    @pytest.mark.parametrize("p", [3, 20, 50])
    def test_bitwise_equal_to_whole_block_algebra(self, p):
        g = np.random.default_rng(p).standard_normal((p, 2 * p))
        scale, dof = SpdMatrix(g @ g.T / (2 * p) + np.eye(p)), 2.0 * p + 10.0
        # a full block and a ragged one; at p = 20 and 50 the sub-blocks are ragged too
        count = _CHUNK + 117
        got = sample_inverse_wishart(scale, dof, count, seed=17)
        ref = whole_block_inverse_wishart(scale, dof, count, derived_rng(17))
        assert got.tobytes() == ref.tobytes()
        # calls that continue one generator
        rng, ref_rng = derived_rng(5), derived_rng(5)
        for count in (300, 41):
            got = sample_inverse_wishart(scale, dof, count, rng)
            ref = whole_block_inverse_wishart(scale, dof, count, ref_rng)
            assert got.tobytes() == ref.tobytes()

    def test_peak_memory_of_one_block(self):
        # output, one block's normals (about half of it) and cache-sized buffers;
        # whole-block algebra held three block-sized arrays (a peak of 3.0x)
        p = 50
        for factor in (False, True):
            tracemalloc.start()
            try:
                out = sample_inverse_wishart(
                    SpdMatrix(np.eye(p)), 2.0 * p + 10.0, _CHUNK, seed=5, factor=factor
                )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.7 * out.nbytes, factor


class TestDrawStream:
    def test_blocks_continue_one_call(self):
        # two full blocks and a partial one, drawn by calls that share a generator
        count = 2 * _CHUNK + 17
        model = model_from_spectrum([2.0, 1.0, 0.5], [1, 1, 2], rotation_seed=3)
        data = sample_dataset(DatasetSpec(model, "gaussian", 500, seed=4))
        sampler = default_sampler(default_inverse_wishart_prior(4), data, seed=5)
        scale, dof = conjugate_posterior_params(sampler.prior, data)
        whole = sample_inverse_wishart(scale, dof, count, seed=5).tobytes()
        draws = sample_posterior(sampler, count)
        assert len(draws) == count
        blocks = list(draws.blocks())
        assert [len(block) for block in blocks] == [_CHUNK, _CHUNK, 17]
        assert np.concatenate(blocks).tobytes() == whole
        # a second pass draws the same blocks again
        assert np.concatenate(list(draws.blocks())).tobytes() == whole
        assert draws.matrices.tobytes() == whole
        # after materializing, blocks are slices of the stack
        assert np.concatenate(list(draws.blocks())).tobytes() == whole

    def test_factor_blocks_match_blocks(self):
        # the streamed X of each block, squared and symmetrized as the sampler
        # does, gives its Sigma block bit for bit, on every pass
        count = _CHUNK + 17
        model = model_from_spectrum([2.0, 1.0, 0.5], [1, 1, 2], rotation_seed=3)
        data = sample_dataset(DatasetSpec(model, "gaussian", 500, seed=4))
        sampler = default_sampler(default_inverse_wishart_prior(4), data, seed=5)
        draws = sample_posterior(sampler, count)
        sigmas = np.concatenate(list(draws.blocks()))
        for _ in range(2):
            factors = list(draws.factor_blocks())
            assert [len(x) for x in factors] == [_CHUNK, 17]
            x = np.concatenate(factors)
            assert np.array_equal(np.triu(x, 1), np.zeros_like(x))
            squares = x.swapaxes(1, 2) @ x
            assert ((squares + squares.swapaxes(1, 2)) * 0.5).tobytes() == sigmas.tobytes()
        # materializing the stack leaves the factors streamed from the seed
        draws.matrices
        assert np.concatenate(list(draws.factor_blocks())).tobytes() == x.tobytes()

    def test_stored_factor_blocks(self):
        model = model_from_spectrum([2.0, 1.0, 0.5], [1, 1, 2], rotation_seed=3)
        data = sample_dataset(DatasetSpec(model, "gaussian", 500, seed=4))
        scale, dof = conjugate_posterior_params(default_inverse_wishart_prior(4), data)
        mats = sample_inverse_wishart(scale, dof, _CHUNK + 5, seed=6)
        draws = PosteriorDraws.stored(mats)
        factors = list(draws.factor_blocks())
        assert [len(x) for x in factors] == [_CHUNK, 5]
        x = np.concatenate(factors)
        assert np.array_equal(np.tril(x, -1), np.zeros_like(x))
        assert np.allclose(x.swapaxes(1, 2) @ x, mats, rtol=1e-12, atol=0)
        mats[3] = np.diag([1.0, 1.0, -1.0, 1.0])
        with pytest.raises(NotPositiveDefinite):
            list(PosteriorDraws.stored(mats).factor_blocks())


class TestSamplePosterior:
    def setup_method(self):
        self.model = model_from_spectrum([2.0, 1.0, 0.7], [1, 1, 1], rotation_seed=7)
        self.spec = DatasetSpec(self.model, "gaussian", 2000, seed=11)
        self.ds = sample_dataset(self.spec)
        self.prior = default_inverse_wishart_prior(3)

    def test_exact_conjugate_mean(self):
        draws = sample_posterior(
            PosteriorSampler(self.prior, self.ds, ExactConjugate(), 1), 30_000
        )
        n, b = self.ds.n, self.prior.b
        target = (n * self.ds.sample_cov.entries + self.prior.scale.entries) / (n + b - 2)
        assert spectral_norm(draws.matrices.mean(axis=0) - self.ds.sample_cov.entries) < 0.05
        assert spectral_norm(draws.matrices.mean(axis=0) - target) < 0.01

    def test_exact_requires_conjugate_prior(self):
        with pytest.raises(BadDimension):
            PosteriorSampler(
                UniformVicinityPrior(self.model.sigma_star, 0.5), self.ds, ExactConjugate(), 0
            )

    def test_metropolis_matches_exact(self):
        small_spec = DatasetSpec(self.model, "gaussian", 500, seed=12)
        ds = sample_dataset(small_spec)
        exact = sample_posterior(PosteriorSampler(self.prior, ds, ExactConjugate(), 2), 50_000)
        mh = sample_posterior(
            PosteriorSampler(self.prior, ds, Metropolis(burn_in=4000, thin=10), 3), 20_000
        )
        assert tv_distance_over_statistics(exact, mh) <= 0.03

    def test_metropolis_falls_back_to_vicinity_center(self):
        # the sample covariance lies outside a vicinity around 2 Sigma*
        center = SpdMatrix(2.0 * self.model.sigma_star.entries)
        prior = UniformVicinityPrior(center, 0.2)
        assert not vicinity_mask(self.ds.sample_cov.entries, center, 0.2)
        draws = sample_posterior(
            PosteriorSampler(prior, self.ds, Metropolis(burn_in=1000, thin=2), 4), 200
        )
        assert len(draws) == 200
        assert np.all(vicinity_mask(draws.matrices, center, 0.2))

    def test_uniform_vicinity_support(self):
        prior = UniformVicinityPrior(self.model.sigma_star, 0.3)
        draws = sample_posterior(default_sampler(prior, self.ds, 4), 2000)
        dev = spectral_norm(draws.matrices - self.model.sigma_star.entries)
        assert np.all(dev <= 0.3 * self.model.sigma_star.spectral_norm + 1e-12)

    def test_uniform_vicinity_matches_scipy_oracle(self):
        # the uniform-vicinity posterior is the flat likelihood IW(nS, n - p - 1)
        # restricted to the vicinity; radius 0.04 keeps about a third of it
        delta, m = 0.04, 4000
        prior = UniformVicinityPrior(self.model.sigma_star, delta)
        draws = sample_posterior(default_sampler(prior, self.ds, 8), m)
        n, p = self.ds.n, 3
        flat = stats.invwishart.rvs(
            df=n - p - 1,
            scale=n * self.ds.sample_cov.entries,
            size=3 * m,
            random_state=np.random.default_rng(9),
        )
        oracle = flat[vicinity_mask(flat, self.model.sigma_star, delta)]
        battery = default_statistic_battery()
        alpha = 1e-3 / len(battery)
        # two-sample DKW half-width at level alpha per statistic
        bound = math.sqrt(math.log(2 / alpha) / 2 * (1 / len(draws) + 1 / len(oracle)))
        assert len(draws) == m
        assert np.all(vicinity_mask(draws.matrices, self.model.sigma_star, delta))
        assert tv_distance_over_statistics(draws, oracle, battery) <= bound

    def test_uniform_vicinity_reaching_spd_boundary(self):
        # 0.5 * ||Sigma*|| = 1 exceeds the smallest eigenvalue 0.7, so the
        # vicinity holds matrices that are not SPD; draws must stay in its support
        prior = UniformVicinityPrior(self.model.sigma_star, 0.5)
        draws = sample_posterior(default_sampler(prior, self.ds, 10), 2000)
        dev = spectral_norm(draws.matrices - self.model.sigma_star.entries)
        assert np.all(dev <= 0.5 * self.model.sigma_star.spectral_norm)
        assert np.all(np.linalg.eigvalsh(draws.matrices)[:, 0] > 0)

    def test_uniform_vicinity_needs_n_above_2p(self):
        ds = dataset_with_cov(np.eye(3), 6)
        prior = UniformVicinityPrior(SpdMatrix(np.eye(3)), 0.5)
        with pytest.raises(BadDegreesOfFreedom):
            sample_posterior(default_sampler(prior, ds, 0), 10)

    def test_rejection_refuses_generic_prior(self):
        prior = GenericPrior(self.prior.log_density)
        with pytest.raises(BadDimension):
            PosteriorSampler(prior, self.ds, RejectionInVicinity(), 0)

    def test_prior_dimension_must_match_data(self):
        # a 2 x 2 vicinity center on 3-dimensional data
        prior = UniformVicinityPrior(SpdMatrix(np.eye(2)), 0.3)
        with pytest.raises(BadDimension):
            default_sampler(prior, self.ds, 0)
        with pytest.raises(BadDimension):
            PosteriorSampler(prior, self.ds, Metropolis(), 0)

    def test_rejection_refuses_conjugate_prior(self):
        # conjugate priors are sampled exactly; rejection takes only uniform priors
        with pytest.raises(BadDimension):
            PosteriorSampler(self.prior, self.ds, RejectionInVicinity(), 0)

    def test_localized_mass_extremes(self):
        sampler = default_sampler(self.prior, self.ds, 5)
        assert localized_posterior_mass(sampler, 1000.0, 2000) == 1.0
        assert localized_posterior_mass(sampler, 0.0, 1000) == 0.0

    def test_localized_mass_at_contraction_scale(self):
        n, p = self.spec.n, 3
        delta = 3 * math.sqrt((p + math.log(n)) / n)
        hits = 0
        for k in range(10):
            ds = sample_dataset(self.spec, seed_branch=k)
            sampler = default_sampler(self.prior, ds, seed=k)
            hits += localized_posterior_mass(sampler, delta, 4000) >= 1 - 1 / n
        assert hits >= 9

    def test_localize_draws_filters(self):
        draws = sample_posterior(default_sampler(self.prior, self.ds, 6), 5000)
        loc = localize_draws(draws, self.model.sigma_star, 0.1)
        dev = spectral_norm(loc.matrices - self.model.sigma_star.entries)
        assert len(loc.matrices) <= 5000
        assert np.all(dev <= 0.1 * self.model.sigma_star.spectral_norm)

    def test_posterior_params(self):
        scale, dof = conjugate_posterior_params(self.prior, self.ds)
        assert dof == self.ds.n + 3 + self.prior.b - 1
        assert np.allclose(
            scale.entries, self.ds.n * self.ds.sample_cov.entries + 0.01 * np.eye(3)
        )


class TestMetropolisChain:
    def setup_method(self):
        model = model_from_spectrum([2.0, 1.0, 0.7], [1, 1, 1], rotation_seed=7)
        self.ds = sample_dataset(DatasetSpec(model, "gaussian", 500, seed=12))
        self.prior = default_inverse_wishart_prior(3)
        self.theta = np.random.default_rng(5).normal(scale=0.5, size=6)

    def test_log_jacobian_matches_finite_differences(self):
        p, d, h = 3, 6, 1e-6
        cmap = _CholeskyMap(p)
        rows, cols = np.tril_indices(p)

        def vech(theta):
            return cmap.sigma(theta)[rows, cols]

        jac = np.empty((d, d))
        for k in range(d):
            step = np.zeros(d)
            step[k] = h
            jac[:, k] = (vech(self.theta + step) - vech(self.theta - step)) / (2 * h)
        log_abs_det = np.linalg.slogdet(jac)[1]
        assert cmap.log_jacobian(self.theta) == pytest.approx(log_abs_det, abs=1e-6)

    def test_log_target_is_likelihood_prior_and_jacobian(self):
        p = 3
        lmat = np.diag(np.exp(self.theta[:p]))
        lmat[np.tril_indices(p, -1)] = self.theta[p:]
        sigma = lmat @ lmat.T
        # dSigma = 2^p prod_i L_ii^(p - i + 1) dL, and dL_ii = L_ii dtheta_i
        log_jac = p * math.log(2.0) + sum(
            (p - i + 1) * math.log(lmat[i - 1, i - 1]) + math.log(lmat[i - 1, i - 1])
            for i in range(1, p + 1)
        )
        expect = log_likelihood(sigma, self.ds) + self.prior.log_density(sigma) + log_jac
        sampler = PosteriorSampler(self.prior, self.ds, Metropolis(), 0)
        got = _log_target(self.theta, sampler, _CholeskyMap(p))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_rerun_is_byte_identical(self):
        sampler = PosteriorSampler(
            GenericPrior(self.prior.log_density), self.ds, Metropolis(burn_in=1000, thin=2), 9
        )
        first = sample_posterior(sampler, 300).matrices
        assert first.tobytes() == sample_posterior(sampler, 300).matrices.tobytes()

    def test_one_evaluation_per_step_on_fresh_matrices(self):
        # a generic prior may keep what it is given: each evaluation gets its
        # own matrix, and the start point is evaluated once
        seen = []

        def log_density(sigma):
            seen.append((sigma, sigma.copy()))
            return self.prior.log_density(sigma)

        method = Metropolis(burn_in=1000, thin=2)
        sample_posterior(PosteriorSampler(GenericPrior(log_density), self.ds, method, 1), 50)
        assert len(seen) == method.burn_in + 50 * method.thin + 1
        assert all(np.array_equal(kept, copy) for kept, copy in seen)
        assert len({id(kept) for kept, _ in seen}) == len(seen)
