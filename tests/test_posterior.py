import faulthandler
import gc
import hashlib
import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special, stats

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
from covbvm import posterior
from covbvm.datagen import derived_rng
from covbvm.errors import BadDegreesOfFreedom, BadDimension, NotPositiveDefinite, PoorMixing
from covbvm.diagnostics import default_statistic_battery
from covbvm.posterior import (
    _CHUNK,
    _SUB_BYTES,
    conjugate_posterior_params,
    sub_block_size,
    vicinity_mask,
)
from covbvm.spd import spectral_norm, sym
from oracles import planned_tril_inv


def dataset_with_cov(cov, n):
    """Synthetic dataset whose outer-product covariance is exactly cov."""
    p = cov.shape[0]
    root = SpdMatrix(cov).sqrtm()
    # n copies of scaled basis vectors reproduce cov exactly when n % p == 0
    assert n % p == 0
    base = np.tile(np.eye(p), (n // p, 1)) * math.sqrt(p)
    return dataset_from_samples(base @ root)


def chain_ess(x) -> float:
    """Effective sample size of a chain's values, by Geyer's (1992) initial
    positive sequence of autocorrelation pairs."""
    x = np.asarray(x, dtype=np.float64) - np.mean(x)
    n = len(x)
    spec = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(spec * spec.conj())[:n]
    rho = acov / acov[0]
    pairs = rho[0 : n - 1 : 2] + rho[1:n:2]
    ends = np.flatnonzero(pairs <= 0)
    k = ends[0] if len(ends) else len(pairs)
    return n / (2 * pairs[:k].sum() - 1)


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

    @pytest.mark.parametrize("p", [3, 20, 50])
    def test_matches_scipy_multivariate_normal(self, p):
        rng = np.random.default_rng(p)
        samples = rng.standard_normal((5 * p, p))
        ds = dataset_from_samples(samples)
        a = rng.standard_normal((p, p))
        sigma = a @ a.T / p + 0.5 * np.eye(p)
        expect = np.sum(stats.multivariate_normal.logpdf(samples, cov=sigma))
        assert log_likelihood(sigma, ds) == pytest.approx(expect, rel=1e-10)


class TestInverseWishartPrior:
    @pytest.mark.parametrize("p", [3, 20, 50])
    def test_density_differences_match_scipy(self, p):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((p, p))
        prior = InverseWishartPrior(SpdMatrix(g @ g.T + np.eye(p)), b=3.0)
        oracle = stats.invwishart(df=prior.dof(), scale=prior.scale.entries)
        base = np.diag(np.linspace(2.0, 0.5, p))
        for _ in range(5):
            h = rng.standard_normal((p, p))
            other = h @ h.T + 0.1 * np.eye(p)
            got = prior.log_density(other) - prior.log_density(base)
            expect = oracle.logpdf(other) - oracle.logpdf(base)
            assert got == pytest.approx(expect, rel=1e-10)

    def test_rejects_non_spd(self):
        with pytest.raises(NotPositiveDefinite):
            default_inverse_wishart_prior(3).log_density(np.diag([1.0, -1.0, 1.0]))


def density_cases(p):
    """The two densities, each as a function of Sigma alone, at dimension p."""
    rng = np.random.default_rng(p + 100)
    ds = dataset_from_samples(rng.standard_normal((5 * p, p)))
    g = rng.standard_normal((p, p))
    prior = InverseWishartPrior(SpdMatrix(g @ g.T + np.eye(p)), b=3.0)
    return {"prior": prior.log_density, "likelihood": lambda sigma: log_likelihood(sigma, ds)}


class TestDensityContract:
    """Both densities read only Sigma's lower triangle, and raise off the SPD cone."""

    @pytest.mark.parametrize("density", ["prior", "likelihood"])
    @pytest.mark.parametrize(
        "entry, value",
        [((0, 0), math.nan), ((2, 1), math.nan), ((0, 0), math.inf)],
        ids=["nan-diagonal", "nan-below", "inf-diagonal"],
    )
    def test_rejects_non_finite_entries(self, density, entry, value):
        # OpenBLAS's dpotrf does not flag NaN, and factors diag(inf, 1, 1)
        sigma = np.eye(3)
        sigma[entry] = value
        with pytest.raises(NotPositiveDefinite):
            density_cases(3)[density](sigma)

    @pytest.mark.parametrize("density", ["prior", "likelihood"])
    @pytest.mark.parametrize("p", [3, 20])
    def test_reads_only_the_lower_triangle(self, density, p):
        rng = np.random.default_rng(p)
        a = rng.standard_normal((p, 2 * p))
        sigma = a @ a.T / p + 0.5 * np.eye(p)
        garbage = sigma.copy()
        upper = np.triu_indices(p, 1)
        garbage[upper] = rng.standard_normal(len(upper[0])) * 1e3
        garbage[0, -1], garbage[1, -1] = math.nan, -math.inf
        completion = np.tril(garbage) + np.tril(garbage, -1).T
        fn = density_cases(p)[density]
        assert fn(garbage) == fn(completion)


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

    def test_reduce_checks_arguments_at_call(self):
        # a reducing call returns a list, so no error waits for a first draw
        with pytest.raises(BadDegreesOfFreedom):
            sample_inverse_wishart(SpdMatrix(np.eye(3)), 2.0, 10, seed=0, reduce=len)
        with pytest.raises(ValueError):
            sample_inverse_wishart(SpdMatrix(np.eye(3)), 5.0, 0, seed=0, reduce=len)

    def test_all_draws_spd(self):
        draws = sample_inverse_wishart(SpdMatrix(np.eye(4)), 8.0, 2000, seed=5)
        assert np.all(np.linalg.eigvalsh(draws)[:, 0] > 0)
        assert np.allclose(draws, np.swapaxes(draws, 1, 2))


def bartlett_factors(p: int, dof: float, m: int, rng) -> np.ndarray:
    """One block of m <= 4096 Bartlett factors B, drawn as the kernel draws them.

    Each sub-block of ``sub_block_size(p)`` draws from the block's start takes
    the strict lower triangle of its B in ``np.tril_indices`` order, then its
    chi-square diagonal.
    """
    il, jl = np.tril_indices(p, -1)
    diag = np.arange(p)
    b = np.zeros((m, p, p))
    for s in range(0, m, sub_block_size(p)):
        part = b[s : s + sub_block_size(p)]
        part[:, il, jl] = rng.standard_normal((len(part), len(il)))
        part[:, diag, diag] = np.sqrt(rng.chisquare(dof - diag, size=(len(part), p)))
    return b


def reference_inverse_wishart(scale: SpdMatrix, dof: float, count: int, seed: int):
    """Bartlett draws inverted by LAPACK: W = (L B)(L B)^T, then inv(W).

    Consumes the same ``derived_rng(seed)`` stream as
    ``sample_inverse_wishart`` (``bartlett_factors``).
    """
    p = scale.dim
    chol = np.linalg.cholesky(np.linalg.inv(scale.entries))
    rng = derived_rng(seed)
    blocks = []
    for start in range(0, count, 4096):
        t = chol @ bartlett_factors(p, dof, min(4096, count - start), rng)
        blocks.append(np.linalg.inv(t @ t.swapaxes(1, 2)))
    return np.concatenate(blocks)


def recursive_tril_inv(t: np.ndarray) -> None:
    """Invert a stack of lower-triangular matrices in place by 2x2 block
    recursion down to 1x1 leaves, slicing each node's views and forming its
    D^-1 C afresh: the arithmetic that the kernel's planned inverse must
    reproduce bit for bit where no entry below the diagonal is an exact zero
    (the plan negates D^-1 C, not the product, which can flip the sign of an
    exact zero)."""
    q = t.shape[-1]
    if q == 1:
        np.reciprocal(t, out=t)
        return
    h = q // 2
    recursive_tril_inv(t[:, :h, :h])
    recursive_tril_inv(t[:, h:, h:])
    np.matmul(t[:, h:, h:] @ t[:, h:, :h], t[:, :h, :h], out=t[:, h:, :h])
    np.negative(t[:, h:, :h], out=t[:, h:, :h])


def triangular_stack(p: int, m: int, seed: int) -> np.ndarray:
    """m well-conditioned lower-triangular (p, p) matrices."""
    rng = np.random.default_rng(seed)
    t = np.tril(rng.standard_normal((m, p, p)), -1) / math.sqrt(p)
    return t + np.eye(p) * rng.uniform(1.0, 2.0, size=(m, 1, p))


def whole_block_inverse_wishart(scale: SpdMatrix, dof: float, count: int, rng):
    """The kernel's Bartlett algebra, one whole 4096-draw block at a time.

    Draws the block's Bartlett factors (``bartlett_factors``), then forms
    T = L B, inverts it by the same 2x2 block recursion down to 1x1 leaves,
    and symmetrizes X^T X, each stage on the whole block.  Cache blocking must
    reproduce these draws bit for bit.
    """
    p = scale.dim
    chol = np.linalg.cholesky(sym(scale.inv()))
    blocks = []
    for start in range(0, count, 4096):
        x = chol @ bartlett_factors(p, dof, min(4096, count - start), rng)
        recursive_tril_inv(x)
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
        t = triangular_stack(p, 64, p)
        ref = np.linalg.inv(t)
        got = t.copy()
        planned_tril_inv(got)
        err = np.max(np.abs(got - ref), axis=(1, 2))
        assert np.all(err <= 1e-10 * np.max(np.abs(ref), axis=(1, 2)))
        assert np.array_equal(np.triu(got, 1), np.zeros_like(got))

    @pytest.mark.parametrize("p", [1, 2, 3, 8, 9, 17, 50])
    def test_planned_inverse_is_the_recursion_bit_for_bit(self, p):
        for m in (1, 64):
            ref = triangular_stack(p, m, p)
            got = ref.copy()
            recursive_tril_inv(ref)
            planned_tril_inv(got)
            assert got.tobytes() == ref.tobytes(), m
            assert np.array_equal(np.triu(got, 1), np.zeros_like(got)), m
        # with exact zeros below the diagonal only the sign of a zero may move
        ref = triangular_stack(p, 64, p)
        ref -= np.tril(ref, -1) * (np.random.default_rng(p).random(ref.shape) < 0.5)
        got = ref.copy()
        recursive_tril_inv(ref)
        planned_tril_inv(got)
        assert np.array_equal(got, ref)
        # as in the kernel: plans for two sub-block sizes of one buffer share
        # a scratch, and each runs again on the buffer refilled
        buf = np.empty((64, p, p))
        scratch = np.empty(64 * ((p + 1) // 2) * (p // 2))
        plans = {m: posterior._tril_inv_plan(buf[:m], scratch) for m in (64, 1)}
        for seed, m in enumerate((64, 1, 64, 1)):
            ref = triangular_stack(p, m, seed)
            buf[:m] = ref
            recursive_tril_inv(ref)
            posterior._tril_inv_run(plans[m])
            assert buf[:m].tobytes() == ref.tobytes(), (seed, m)
            assert np.array_equal(np.triu(buf[:m], 1), np.zeros_like(ref)), (seed, m)

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
    def test_bitwise_equal_to_whole_block_algebra(self, p, monkeypatch):
        # the reference is the BLAS path's algebra, which the kernel runs at
        # p = 3 only with the elementwise crossover at 0
        monkeypatch.setattr(posterior, "_ELEMENTWISE_P", 0)
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
        # output and cache-sized buffers; whole-block algebra held three
        # block-sized arrays (a peak of 3.0x), and one block's normals 1.57x
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

    @pytest.mark.parametrize(
        "p, digest",
        [
            (3, "bb2eb4b38d6331764ff2318a0468e4ed3ac701dcbff96ba41c445c6136d2fea2"),
            (5, "09f707bf07b14d1fd0d7d5f8c8064fc20d3b07bab7fb1618c1a7a573ec3f42c3"),
        ],
        ids=["3", "5"],
    )
    def test_small_p_stream_is_pinned(self, p, digest, monkeypatch):
        # at p <= 5 a sub-block is the whole 4096-draw block, so these draws
        # are those of a block that takes all its normals, then all its
        # chi-squares; the digests were recorded before the stream was taken
        # per sub-block, and on the BLAS path, which p = 3 takes only with
        # the elementwise crossover at 0 (TestElementwiseAlgebra pins its own)
        monkeypatch.setattr(posterior, "_ELEMENTWISE_P", 0)
        assert sub_block_size(p) >= _CHUNK
        g = np.random.default_rng(p).standard_normal((p, 2 * p))
        scale, dof = SpdMatrix(g @ g.T / (2 * p) + np.eye(p)), 2.0 * p + 10.0
        draws = sample_inverse_wishart(scale, dof, _CHUNK + 117, seed=17)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("p", [20, 50])
    def test_log_det_matches_exact_moments(self, p):
        # under IW(Psi, nu), log det Sigma = log det Psi - sum_i log chi2(nu - i),
        # i = 0..p-1, independent; E log chi2(k) = digamma(k/2) + log 2, and its
        # variance and fourth cumulant are polygamma(1 and 3, k/2)
        g = np.random.default_rng(p).standard_normal((p, 2 * p))
        scale, dof = SpdMatrix(g @ g.T / (2 * p) + np.eye(p)), 2.0 * p + 10.0
        half = (dof - np.arange(p)) / 2
        mean = np.linalg.slogdet(scale.entries)[1] - np.sum(special.digamma(half) + math.log(2))
        var = np.sum(special.polygamma(1, half))
        kappa4 = np.sum(special.polygamma(3, half))
        m = 2 * _CHUNK
        routes = {
            "factor": sample_inverse_wishart(
                scale, dof, m, seed=23, factor=True,
                reduce=lambda x: 2 * np.log(np.abs(np.diagonal(x, axis1=1, axis2=2))).sum(1),
            ),
            "slogdet": sample_inverse_wishart(
                scale, dof, m, seed=23, reduce=lambda s: np.linalg.slogdet(s)[1]
            ),
        }
        # two-sided, alpha = 1e-4 for each check
        z = stats.norm.isf(0.5e-4)
        for route, parts in routes.items():
            log_det = np.concatenate(parts)
            assert len(log_det) == m
            assert abs(log_det.mean() - mean) <= z * math.sqrt(var / m), route
            # Var(s^2) = kappa4 / m + 2 var^2 / (m - 1)
            sd = math.sqrt(kappa4 / m + 2 * var**2 / (m - 1))
            assert abs(log_det.var(ddof=1) - var) <= z * sd, route

    @pytest.mark.parametrize(
        "p, counts",
        [(30, (_CHUNK, 3 * _CHUNK)), (50, (_CHUNK, 2 * _CHUNK)), (100, (600, 1200))],
        ids=["30", "50", "100"],
    )
    def test_reducing_peak_does_not_depend_on_p_or_count(self, p, counts):
        # each sub-block draws its own normals, so a reducing call holds only
        # sub-block buffers (3.8-4.1 MiB); taking a whole block's normals
        # first read 18-50 MiB, growing with p and with count up to a block
        scale = SpdMatrix(np.eye(p))
        peaks = []
        for count in counts:
            tracemalloc.start()
            try:
                sample_inverse_wishart(
                    scale, 2.0 * p + 10.0, count, seed=5,
                    reduce=lambda s: s.trace(axis1=1, axis2=2),
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 6 * _SUB_BYTES
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]

    @pytest.mark.parametrize("factor", [False, True], ids=["sigma", "factor"])
    def test_call_frees_its_buffers_without_the_collector(self, factor):
        # the sub-block buffers, the inverse's plans and its scratch, about
        # 4 MB at p = 50, go when the call returns; a reference cycle through
        # them would hold them until the garbage collector next ran
        p = 50
        scale = SpdMatrix(np.eye(p))
        sample_inverse_wishart(scale, 2.0 * p + 10.0, 500, seed=5, factor=factor, reduce=len)
        gc.disable()
        try:
            tracemalloc.start()
            sample_inverse_wishart(scale, 2.0 * p + 10.0, 500, seed=5, factor=factor, reduce=len)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held < 0.01 * _SUB_BYTES


def elementwise_square(x: np.ndarray) -> np.ndarray:
    """Sigma = X^T X of a stack of lower-triangular X, entry by entry in the
    kernel's elementwise order: Sigma_rc sums X_lr X_lc over l from max(r, c)
    up, and its upper triangle is a copy of its lower one."""
    p = x.shape[-1]
    sigma = np.empty_like(x)
    for r in range(p):
        for c in range(r + 1):
            s = x[:, r, r] * x[:, r, c]
            for l in range(r + 1, p):
                s = s + x[:, l, r] * x[:, l, c]
            sigma[:, r, c] = sigma[:, c, r] = s
    return sigma


class TestElementwiseAlgebra:
    """The kernel's algebra at p <= ``_ELEMENTWISE_P``, run entry by entry over
    the draws of a sub-block, against the BLAS path and LAPACK."""

    # a full block and a ragged one
    COUNT = _CHUNK + 117
    # every draw's max |Sigma - Sigma_blas| <= C_EPS * eps * max |Sigma|, and
    # the same for X; the two paths sum in different orders
    C_EPS = 8

    @pytest.fixture(scope="class", params=[1, 2, 3])
    def case(self, request):
        p = request.param
        g = np.random.default_rng(p).standard_normal((p, 2 * p))
        scale, dof = SpdMatrix(g @ g.T / (2 * p) + np.eye(p)), 2.0 * p + 10.0
        draws = {
            factor: sample_inverse_wishart(scale, dof, self.COUNT, seed=17, factor=factor)
            for factor in (False, True)
        }
        return scale, dof, draws[False], draws[True]

    def test_takes_the_elementwise_path(self, case, monkeypatch):
        # no plan of the triangular inverse is built, and so no scratch
        def no_plan(*args):
            raise AssertionError("plan built")

        monkeypatch.setattr(posterior, "_tril_inv_plan", no_plan)
        scale, dof, sigma, x = case
        assert scale.dim <= posterior._ELEMENTWISE_P
        again = sample_inverse_wishart(scale, dof, self.COUNT, seed=17)
        assert again.tobytes() == sigma.tobytes()

    def test_factor_lower_and_sigma_symmetric(self, case):
        _, _, sigma, x = case
        assert np.array_equal(np.triu(x, 1), np.zeros_like(x))
        assert np.array_equal(sigma, sigma.swapaxes(1, 2))

    def test_sigma_is_the_factor_squared(self, case):
        _, _, sigma, x = case
        assert elementwise_square(x).tobytes() == sigma.tobytes()

    def test_within_rounding_of_the_blas_path(self, case, monkeypatch):
        scale, dof, sigma, x = case
        monkeypatch.setattr(posterior, "_ELEMENTWISE_P", 0)
        eps = np.finfo(float).eps
        for factor, got in ((False, sigma), (True, x)):
            ref = sample_inverse_wishart(scale, dof, self.COUNT, seed=17, factor=factor)
            err = np.max(np.abs(got - ref), axis=(1, 2))
            assert np.all(err <= self.C_EPS * eps * np.max(np.abs(ref), axis=(1, 2))), factor

    def test_matches_lapack_reference(self, case):
        scale, dof, sigma, _ = case
        ref = reference_inverse_wishart(scale, dof, self.COUNT, seed=17)
        err = np.max(np.abs(sigma - ref), axis=(1, 2))
        assert np.all(err <= 1e-10 * np.max(np.abs(ref), axis=(1, 2)))

    @pytest.mark.parametrize(
        "factor, digest",
        [
            (False, "20f5c5ca5ad0283dd392fc0439207fa993eb6150e7de4cd5f71c867da9b6390a"),
            (True, "8b7d39eee916311d597dbc97d2342cdb279fb8bbed99c82742939efc5e0dceab"),
        ],
        ids=["sigma", "factor"],
    )
    def test_p3_is_pinned(self, factor, digest):
        p = 3
        g = np.random.default_rng(p).standard_normal((p, 2 * p))
        scale, dof = SpdMatrix(g @ g.T / (2 * p) + np.eye(p)), 2.0 * p + 10.0
        draws = sample_inverse_wishart(scale, dof, self.COUNT, seed=17, factor=factor)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == digest


class DrawFailed(Exception):
    pass


class FailingGenerator(np.random.Generator):
    """A generator whose third chi-square draw raises ``DrawFailed``."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.chisquares = 0

    def chisquare(self, *args, **kwargs):
        self.chisquares += 1
        if self.chisquares == 3:
            raise DrawFailed("third chi-square draw")
        return super().chisquare(*args, **kwargs)


class TestDrawWorker:
    """The helper thread that draws the Bartlett stream ahead of the kernel's
    algebra, and runs the algebra while a heavy reducer holds the caller:
    errors on either side reach the caller, no thread outlives a call, and
    the draws do not depend on which thread computed them."""

    # 500 draws at p = 50 are 10 sub-blocks
    P, COUNT = 50, 500

    @pytest.fixture(autouse=True)
    def hang_guard(self):
        # a lost wake-up between the caller and the worker would hang the
        # call: end the process then, with the traceback of every thread
        faulthandler.dump_traceback_later(120, exit=True)
        yield
        faulthandler.cancel_dump_traceback_later()

    def draw(self, seed, reduce):
        p = self.P
        assert self.COUNT > 2 * sub_block_size(p)
        return sample_inverse_wishart(SpdMatrix(np.eye(p)), 2.0 * p + 10.0, self.COUNT, seed,
                                      reduce=reduce)

    def test_reducer_error_reaches_caller_after_join(self):
        before = threading.active_count()
        calls = []

        def reduce(block):
            calls.append(len(block))
            if len(calls) == 2:
                raise DrawFailed("second sub-block")

        with pytest.raises(DrawFailed, match="second sub-block"):
            self.draw(3, reduce)
        assert len(calls) == 2
        assert threading.active_count() == before

    def test_draw_error_reaches_caller(self):
        before = threading.active_count()
        rng = FailingGenerator(3)
        reduced = []
        with pytest.raises(DrawFailed, match="third chi-square"):
            self.draw(rng, lambda block: reduced.append(len(block)))
        # the third sub-block's draw failed, no draw followed it, and no
        # sub-block from the third on was reduced
        assert rng.chisquares == 3 and len(reduced) <= 2
        assert threading.active_count() == before

    @pytest.mark.parametrize("p, count", [(3, _CHUNK), (P, COUNT)], ids=["one", "several"])
    def test_worker_only_for_several_sub_blocks(self, p, count, monkeypatch):
        # one sub-block has no draw to overlap, so it starts no thread; more
        # start one worker when the process may run on more than one CPU
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recorded)
        sample_inverse_wishart(SpdMatrix(np.eye(p)), 2.0 * p + 10.0, count, seed=3, reduce=len)
        several = count > sub_block_size(p)
        assert len(started) == (several and posterior._cpu_count() > 1)
        assert not any(thread.is_alive() for thread in started)

    def record_algebra(self, monkeypatch) -> list[bool]:
        """Whether each sub-block's triangular inverse, or at p <= 3 its
        elementwise algebra, runs off the calling thread, in order.
        ``_cpu_count`` reads 2, so the helper runs even on one CPU."""
        caller, off_caller = threading.get_ident(), []

        def recorder(run):
            def recorded(*args):
                off_caller.append(threading.get_ident() != caller)
                run(*args)

            return recorded

        for name in ("_tril_inv_run", "_elementwise_algebra"):
            monkeypatch.setattr(posterior, name, recorder(getattr(posterior, name)))
        monkeypatch.setattr(posterior, "_cpu_count", lambda: 2)
        return off_caller

    @pytest.mark.parametrize("factor", [False, True], ids=["sigma", "factor"])
    @pytest.mark.parametrize("p", [3, 20, 50])
    def test_bytes_do_not_depend_on_the_thread(self, p, factor, monkeypatch):
        # a reducer that sleeps takes longer than the algebra, so the helper
        # computes the sub-block after the one being reduced, in either
        # buffer; once it stops sleeping the caller computes again.  The
        # draws are still those of the calling thread alone
        g = np.random.default_rng(p).standard_normal((p, 2 * p))
        scale, dof = SpdMatrix(g @ g.T / (2 * p) + np.eye(p)), 2.0 * p + 10.0
        count = _CHUNK + 117
        reducers = []

        def reduce(block):
            reducers.append(threading.get_ident())
            if len(reducers) <= 8:
                time.sleep(0.01)
            return block.copy()

        off_caller = self.record_algebra(monkeypatch)
        got = sample_inverse_wishart(scale, dof, count, seed=17, factor=factor, reduce=reduce)
        helped = sum(off_caller)
        monkeypatch.setattr(posterior, "_cpu_count", lambda: 1)
        ref = sample_inverse_wishart(scale, dof, count, seed=17, factor=factor)
        assert np.concatenate(got).tobytes() == ref.tobytes()
        assert set(reducers) == {threading.get_ident()}
        # at p = 3 the call has two sub-blocks, and while the first is reduced
        # no reduce has been timed yet, so the caller computes both
        assert (helped > 0) == (p > 3)

    def test_bytes_when_the_helper_helps_now_and_then(self, monkeypatch):
        # a reducer that sleeps on some calls only turns the help on and off,
        # so the two threads alternate over both buffers; a short switch
        # interval makes a lost update between them likely to show
        p, count = 20, _CHUNK + 117
        scale = SpdMatrix(np.eye(p))
        ref = sample_inverse_wishart(scale, 2.0 * p + 10.0, count, seed=9)
        off_caller = self.record_algebra(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for pattern in range(1, 4):
                calls = []

                def reduce(block):
                    calls.append(len(block))
                    if len(calls) % (pattern + 1):
                        time.sleep(0.01)
                    return block.copy()

                got = sample_inverse_wishart(scale, 2.0 * p + 10.0, count, seed=9, reduce=reduce)
                assert np.concatenate(got).tobytes() == ref.tobytes(), pattern
        finally:
            sys.setswitchinterval(interval)
        assert 0 < sum(off_caller) < len(off_caller)

    @pytest.mark.parametrize("factor", [False, True], ids=["sigma", "factor"])
    @pytest.mark.parametrize("sleeps", [False, True], ids=["light", "sleeps"])
    def test_helper_runs_the_elementwise_algebra(self, sleeps, factor, monkeypatch):
        # four p = 3 sub-blocks, one per block: a reducer that sleeps hands
        # the helper the sub-blocks after the first two, a light one leaves
        # them all to the caller, and the draws are those of one thread
        p, count = 3, 3 * _CHUNK + 117
        assert p <= posterior._ELEMENTWISE_P
        g = np.random.default_rng(p).standard_normal((p, 2 * p))
        scale, dof = SpdMatrix(g @ g.T / (2 * p) + np.eye(p)), 2.0 * p + 10.0
        monkeypatch.setattr(posterior, "_cpu_count", lambda: 1)
        ref = sample_inverse_wishart(scale, dof, count, seed=17, factor=factor)

        def reduce(block):
            if sleeps:
                time.sleep(0.01)
            return block.copy()

        off_caller = self.record_algebra(monkeypatch)
        got = sample_inverse_wishart(scale, dof, count, seed=17, factor=factor, reduce=reduce)
        assert np.concatenate(got).tobytes() == ref.tobytes()
        assert len(off_caller) == 4
        assert any(off_caller) == sleeps

    def test_light_reducer_leaves_the_algebra_to_the_caller(self, monkeypatch):
        off_caller = self.record_algebra(monkeypatch)
        self.draw(3, len)
        assert len(off_caller) == 10 and not any(off_caller)

    def test_reducer_error_while_the_helper_computes(self, monkeypatch):
        before = threading.active_count()
        caller, inside = threading.get_ident(), threading.Event()
        inverse = posterior._tril_inv_run

        def slow_off_caller(plan):
            if threading.get_ident() != caller:
                inside.set()
                time.sleep(0.1)  # the caller raises meanwhile
            inverse(plan)

        def reduce(block):
            # the wait makes the reducer heavier than the algebra, and ends
            # once the helper is inside the next sub-block's inverse
            if inside.wait(timeout=0.01):
                raise DrawFailed("while the helper computes")

        monkeypatch.setattr(posterior, "_tril_inv_run", slow_off_caller)
        monkeypatch.setattr(posterior, "_cpu_count", lambda: 2)
        with pytest.raises(DrawFailed, match="while the helper computes"):
            self.draw(3, reduce)
        assert threading.active_count() == before


class TestDrawStream:
    def test_blocks_continue_one_call(self):
        # two full blocks and a partial one, drawn by calls that share a
        # generator; at p = 4 a sub-block is a whole block
        count = 2 * _CHUNK + 17
        model = model_from_spectrum([2.0, 1.0, 0.5], [1, 1, 2], rotation_seed=3)
        data = sample_dataset(DatasetSpec(model, "gaussian", 500, seed=4))
        sampler = default_sampler(default_inverse_wishart_prior(4), data, seed=5)
        scale, dof = conjugate_posterior_params(sampler.prior, data)
        whole = sample_inverse_wishart(scale, dof, count, seed=5).tobytes()
        draws = sample_posterior(sampler, count)
        assert len(draws) == count
        assert draws.map(len) == [_CHUNK, _CHUNK, 17]
        assert np.concatenate(draws.map(lambda x: x.copy())).tobytes() == whole
        # a second pass draws the same blocks again
        assert np.concatenate(draws.map(lambda x: x.copy())).tobytes() == whole
        first = draws.matrices
        assert first.tobytes() == whole
        # each read builds a fresh stack, and map still draws from the seed
        first[...] = 0.0
        assert draws.matrices.tobytes() == whole
        assert np.concatenate(draws.map(lambda x: x.copy())).tobytes() == whole

    def test_map_matches_blocks(self):
        # map reduces streamed draws in the sampler's sub-blocks (p = 10: 1310
        # draws each, ragged at every block's end) without changing a draw;
        # a result that is a view of the reused buffer is copied
        count = 2 * _CHUNK + 17
        model = model_from_spectrum([2.0, 1.0], [3, 7], rotation_seed=3)
        data = sample_dataset(DatasetSpec(model, "gaussian", 500, seed=4))
        sampler = default_sampler(default_inverse_wishart_prior(10), data, seed=5)
        scale, dof = conjugate_posterior_params(sampler.prior, data)
        draws = sample_posterior(sampler, count)
        for factor in (False, True):
            whole = sample_inverse_wishart(scale, dof, count, seed=5, factor=factor).tobytes()
            for _ in range(2):
                parts = draws.map(lambda x: x.copy(), factor)
                assert max(map(len, parts)) == sub_block_size(10)
                assert np.concatenate(parts).tobytes() == whole
                assert np.concatenate(draws.map(lambda x: x, factor)).tobytes() == whole
            draws.matrices
            parts = draws.map(lambda x: x.copy(), factor)
            assert max(map(len, parts)) == sub_block_size(10)
            assert np.concatenate(parts).tobytes() == whole

    def test_matrices_holds_one_block_while_drawing(self):
        # the stack, the block being copied and the sampler's working set;
        # holding the previous block while the next was drawn read 5.66 blocks
        model = model_from_spectrum([2.0, 1.0], [10, 20], rotation_seed=6)
        data = sample_dataset(DatasetSpec(model, "gaussian", 500, seed=7))
        sampler = default_sampler(default_inverse_wishart_prior(30), data, seed=8)
        draws = sample_posterior(sampler, 3 * _CHUNK)
        tracemalloc.start()
        try:
            draws.matrices
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.7 * _CHUNK * 30 * 30 * 8

    def test_factor_blocks_match_blocks(self):
        # the streamed X of each block, squared and symmetrized as the sampler
        # does, gives its Sigma block bit for bit, on every pass
        count = _CHUNK + 17
        model = model_from_spectrum([2.0, 1.0, 0.5], [1, 1, 2], rotation_seed=3)
        data = sample_dataset(DatasetSpec(model, "gaussian", 500, seed=4))
        sampler = default_sampler(default_inverse_wishart_prior(4), data, seed=5)
        draws = sample_posterior(sampler, count)
        sigmas = np.concatenate(draws.map(lambda s: s.copy()))
        for _ in range(2):
            factors = draws.map(lambda x: x.copy(), factor=True)
            assert [len(x) for x in factors] == [_CHUNK, 17]
            x = np.concatenate(factors)
            assert np.array_equal(np.triu(x, 1), np.zeros_like(x))
            squares = x.swapaxes(1, 2) @ x
            assert ((squares + squares.swapaxes(1, 2)) * 0.5).tobytes() == sigmas.tobytes()
        # reading the stack leaves the factors streamed from the seed
        draws.matrices
        assert np.concatenate(draws.map(lambda x: x.copy(), factor=True)).tobytes() == x.tobytes()

    def test_stored_factor_blocks(self):
        model = model_from_spectrum([2.0, 1.0, 0.5], [1, 1, 2], rotation_seed=3)
        # the sample path of the Gaussian draw, whose data the bounds were set on
        data = dataset_from_samples(
            derived_rng(4).standard_normal((500, 4)) @ model.sigma_star.sqrtm(),
            DatasetSpec(model, "gaussian", 500, seed=4),
        )
        scale, dof = conjugate_posterior_params(default_inverse_wishart_prior(4), data)
        mats = sample_inverse_wishart(scale, dof, _CHUNK + 5, seed=6)
        draws = PosteriorDraws.stored(mats)
        factors = draws.map(lambda x: x, factor=True)
        assert [len(x) for x in factors] == [_CHUNK, 5]
        x = np.concatenate(factors)
        assert np.array_equal(np.tril(x, -1), np.zeros_like(x))
        assert np.allclose(x.swapaxes(1, 2) @ x, mats, rtol=1e-12, atol=0)
        assert PosteriorDraws.stored(mats[:0]).matrices.shape == (0, 4, 4)
        mats[3] = np.diag([1.0, 1.0, -1.0, 1.0])
        with pytest.raises(NotPositiveDefinite):
            PosteriorDraws.stored(mats).map(len, factor=True)


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

    @pytest.mark.parametrize(
        "method, kind",
        [
            (ExactConjugate, "uniform"),
            (ExactConjugate, "generic"),
            (Metropolis, "conjugate"),
            (Metropolis, "uniform"),
        ],
        ids=lambda v: v if isinstance(v, str) else v.__name__,
    )
    def test_method_refuses_other_prior_kinds(self, method, kind):
        # each method samples one prior kind; a conjugate prior runs on the
        # chain only when wrapped in a GenericPrior
        prior = {
            "conjugate": self.prior,
            "uniform": UniformVicinityPrior(self.model.sigma_star, 0.5),
            "generic": GenericPrior(self.prior.log_density),
        }[kind]
        with pytest.raises(BadDimension):
            PosteriorSampler(prior, self.ds, method(), 0)

    def test_rejection_refuses_generic_prior(self):
        prior = GenericPrior(self.prior.log_density)
        with pytest.raises(BadDimension):
            PosteriorSampler(prior, self.ds, RejectionInVicinity(), 0)

    def test_rejection_refuses_conjugate_prior(self):
        # conjugate priors are sampled exactly; rejection takes only uniform priors
        with pytest.raises(BadDimension):
            PosteriorSampler(self.prior, self.ds, RejectionInVicinity(), 0)

    def test_metropolis_matches_exact(self):
        small_spec = DatasetSpec(self.model, "gaussian", 500, seed=12)
        ds = sample_dataset(small_spec)
        exact = sample_posterior(PosteriorSampler(self.prior, ds, ExactConjugate(), 2), 50_000)
        mh = sample_posterior(
            PosteriorSampler(
                GenericPrior(self.prior.log_density), ds, Metropolis(burn_in=4000, thin=10), 3
            ),
            20_000,
        )
        assert tv_distance_over_statistics(exact, mh) <= 0.03

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

    def test_uniform_vicinity_peak_is_its_kept_stack(self):
        # the vicinity test reduces each sub-block of proposals in the kernel
        # and writes the kept draws into one stack (1.07x); a stack of each
        # batch's proposals, a list of kept stacks and their concatenation
        # read 3.0x
        model = model_from_spectrum([2.0, 1.0], [10, 20], rotation_seed=6)
        data = sample_dataset(DatasetSpec(model, "gaussian", 5000, seed=7))
        sampler = default_sampler(UniformVicinityPrior(model.sigma_star, 0.5), data, seed=8)
        count = 10_000
        tracemalloc.start()
        try:
            sample_posterior(sampler, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * count * 30 * 30 * 8

    @pytest.mark.parametrize(
        "method", [RejectionInVicinity, Metropolis], ids=lambda m: m.__name__
    )
    def test_needs_n_above_2p(self, method, monkeypatch):
        # both draw flat-likelihood proposals IW(nS, n - p - 1), and refuse
        # n <= 2p before any draw or prior evaluation
        def never(*args, **kwargs):
            raise AssertionError("called before n > 2p was checked")

        monkeypatch.setattr(posterior, "sample_inverse_wishart", never)
        ds = dataset_with_cov(np.eye(3), 6)
        prior = {
            RejectionInVicinity: UniformVicinityPrior(SpdMatrix(np.eye(3)), 0.5),
            Metropolis: GenericPrior(never),
        }[method]
        with pytest.raises(BadDegreesOfFreedom):
            sample_posterior(PosteriorSampler(prior, ds, method(), 0), 10)

    def test_prior_dimension_must_match_data(self):
        # a 2 x 2 vicinity center or conjugate scale on 3-dimensional data
        with pytest.raises(BadDimension):
            default_sampler(UniformVicinityPrior(SpdMatrix(np.eye(2)), 0.3), self.ds, 0)
        with pytest.raises(BadDimension):
            PosteriorSampler(default_inverse_wishart_prior(2), self.ds, ExactConjugate(), 0)

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

    def test_chain_is_pinned(self):
        # a rounding change in the prior density that flips an accept
        # decision shows here
        sampler = PosteriorSampler(GenericPrior(self.prior.log_density), self.ds, Metropolis(), 3)
        draws = sample_posterior(sampler, 2000).matrices
        digest = "64d7dce11821697152d2dae83c54c7c7bedc9d3c2f011085a2ca18d12224d406"
        assert hashlib.sha256(draws.tobytes()).hexdigest() == digest

    def test_rejects_bad_burn_in_and_thin(self):
        for fields in ({"burn_in": -1}, {"thin": 0}):
            with pytest.raises(ValueError):
                Metropolis(**fields)

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

    def test_log_det_matches_exact_moments(self):
        # the chain on the conjugate prior targets IW(Psi, nu), under which
        # log det Sigma = log det Psi - sum_i log chi2(nu - i), i = 0..p-1,
        # independent (see TestInverseWishartKernel); each check is two-sided
        # at alpha = 1e-4, with the standard error of the chain's own ESS
        scale, dof = conjugate_posterior_params(self.prior, self.ds)
        half = (dof - np.arange(3)) / 2
        mean = np.linalg.slogdet(scale.entries)[1] - np.sum(special.digamma(half) + math.log(2))
        var = np.sum(special.polygamma(1, half))
        kappa4 = np.sum(special.polygamma(3, half))
        sampler = PosteriorSampler(GenericPrior(self.prior.log_density), self.ds, Metropolis(), 4)
        draws = sample_posterior(sampler, 4000)
        log_det = np.concatenate(draws.map(lambda s: np.linalg.slogdet(s)[1]))
        z = stats.norm.isf(0.5e-4)
        assert abs(log_det.mean() - mean) <= z * math.sqrt(var / chain_ess(log_det))
        # the mean square deviation from the known mean has variance
        # (kappa4 + 2 var^2) / ESS
        sq = (log_det - mean) ** 2
        assert abs(sq.mean() - var) <= z * math.sqrt((kappa4 + 2 * var**2) / chain_ess(sq))

    def test_poor_mixing_only_at_low_acceptance(self):
        # a prior concentrated at 1.5 S, far from the flat-likelihood
        # proposals, rejects nearly every step
        target = 1.5 * self.ds.sample_cov.entries

        def concentrated(sigma):
            return -0.5 * np.sum((sigma - target) ** 2) / 0.01**2

        stuck = PosteriorSampler(GenericPrior(concentrated), self.ds, Metropolis(), 5)
        with pytest.warns(PoorMixing, match="below 0.05"):
            draws = sample_posterior(stuck, 500)
        assert len(draws.warnings) == 1 and "acceptance rate" in draws.warnings[0]
        # the conjugate prior is nearly flat, so nearly every proposal is
        # accepted, and that is no warning
        healthy = PosteriorSampler(GenericPrior(self.prior.log_density), self.ds, Metropolis(), 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PoorMixing)
            assert sample_posterior(healthy, 500).warnings == ()
