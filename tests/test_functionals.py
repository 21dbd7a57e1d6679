import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from covbvm import (
    DatasetSpec,
    SpdMatrix,
    default_inverse_wishart_prior,
    default_sampler,
    entry_functional,
    eigenvalue_cluster_functional,
    evaluate,
    evaluate_batch,
    kolmogorov_distance,
    linear_functional,
    log_det_functional,
    model_from_spectrum,
    rank_adjusted_pipeline,
    reduced_inverse_wishart_prior,
    sample_dataset,
    sample_inverse_wishart,
    sample_posterior,
    standardized_statistic,
    trace_functional,
)
from covbvm.errors import BadDimension, DegenerateFunctional, NotPositiveDefinite
from covbvm.posterior import _CHUNK
from covbvm.spd import spectral_norm, sym
from oracles import linearization_residual


class TestBuilders:
    def setup_method(self):
        self.model = model_from_spectrum([4.0, 2.0, 1.0], [1, 1, 2], rotation_seed=0)

    def test_trace(self):
        func = trace_functional(self.model)
        assert func.rank_r == 4
        assert evaluate(func, self.model.sigma_star) == pytest.approx(8.0)
        # || S^1/2 I S^1/2 ||_F = || S ||_F
        frob = np.linalg.norm(self.model.sigma_star.entries)
        assert func.normalizer == pytest.approx(math.sqrt(2.0) * frob)

    def test_entry(self):
        func = entry_functional(self.model, 0, 1)
        sigma = self.model.sigma_star.entries
        assert evaluate(func, sigma) == pytest.approx(sigma[0, 1])
        assert func.rank_r == 2  # symmetrized off-diagonal unit has rank two

    def test_diagonal_entry_rank_one(self):
        func = entry_functional(self.model, 2, 2)
        assert func.rank_r == 1
        assert evaluate(func, self.model.sigma_star) == pytest.approx(
            self.model.sigma_star.entries[2, 2]
        )

    def test_eigenvalue_cluster(self):
        func = eigenvalue_cluster_functional(self.model, 3)
        assert evaluate(func, self.model.sigma_star) == pytest.approx(1.0)
        assert func.c_phi == pytest.approx(2.0 * math.e**2 / 1.0)
        assert func.rank_r == 2

    def test_log_det(self):
        func = log_det_functional(self.model)
        assert evaluate(func, self.model.sigma_star) == pytest.approx(math.log(8.0))
        assert func.c_phi is None

    def test_linear_rejects_wrong_shape(self):
        with pytest.raises(BadDimension):
            linear_functional(self.model, np.eye(3))

    @pytest.mark.parametrize("i, j", [(-1, 0), (0, -4), (4, 0), (1, 7)])
    def test_entry_index_out_of_range(self, i, j):
        # a negative index would otherwise wrap around to the last row
        with pytest.raises(BadDimension):
            entry_functional(self.model, i, j)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateFunctional):
            linear_functional(self.model, np.zeros((4, 4)))

    def test_unit_norm_identity(self):
        # Tr[Phi Sigma] agrees with the thin factorization Tr[Psi U' Sigma U]
        rng = np.random.default_rng(1)
        phi = sym(rng.standard_normal((4, 4)))
        func = linear_functional(self.model, phi)
        sigma = self.model.sigma_star.entries
        via_factors = float(
            np.sum(func.psi * np.diag(func.u.T @ sigma @ func.u))
        )
        assert evaluate(func, sigma) == pytest.approx(via_factors, abs=1e-12)

    def test_normalizer_scale_equivariance(self):
        base = model_from_spectrum([4.0, 2.0, 1.0], [1, 1, 2], rotation_seed=0)
        scaled = model_from_spectrum([8.0, 4.0, 2.0], [1, 1, 2], rotation_seed=0)
        a = trace_functional(base).normalizer
        b = trace_functional(scaled).normalizer
        assert b == pytest.approx(2.0 * a, rel=1e-12)


class TestEvaluate:
    def setup_method(self):
        self.model = model_from_spectrum([5.0, 2.0], [1, 2], rotation_seed=3)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        mats = np.array([sym(rng.standard_normal((3, 3))) + 5 * np.eye(3) for _ in range(7)])
        # evaluate factors its matrix and calls evaluate_batch, so the reference
        # is each functional's closed form, matrix by matrix
        factors = np.linalg.cholesky(mats).swapaxes(1, 2)
        for func, reference in (
            (trace_functional(self.model), np.trace),
            (entry_functional(self.model, 0, 2), lambda m: m[0, 2]),
            # group 2 holds the two smallest eigenvalues
            (eigenvalue_cluster_functional(self.model, 2),
             lambda m: np.mean(np.linalg.eigvalsh(m)[:2])),
            (log_det_functional(self.model), lambda m: math.log(np.linalg.det(m))),
        ):
            batch = evaluate_batch(func, factors)
            singles = [evaluate(func, m) for m in mats]
            expected = [reference(m) for m in mats]
            assert np.allclose(batch, expected, atol=1e-12)
            assert np.allclose(singles, expected, atol=1e-12)

    def test_kernel_factors_match_closed_form(self):
        # each kind on the sampler's X against its closed form on the Sigma draws
        model = model_from_spectrum([4.0, 2.0, 1.0], [5, 15, 30], rotation_seed=2)
        p, n = model.dim, 500
        scale, dof = SpdMatrix(n * model.sigma_star.entries), n + p + 1.0
        sigmas = sample_inverse_wishart(scale, dof, 300, seed=9)
        factors = sample_inverse_wishart(scale, dof, 300, seed=9, factor=True)
        star = model.sigma_star.entries
        off = np.abs(star - np.diag(np.diag(star)))
        i, j = np.unravel_index(np.argmax(off), off.shape)
        g = np.random.default_rng(3).standard_normal((p, 4))
        for func, closed_form in (
            (trace_functional(model), lambda m: np.trace(m, axis1=1, axis2=2)),
            (entry_functional(model, i, j), lambda m: m[:, i, j]),
            (entry_functional(model, 7, 7), lambda m: m[:, 7, 7]),
            (linear_functional(model, g @ g.T), lambda m: np.einsum("ij,mij->m", g @ g.T, m)),
            (log_det_functional(model), lambda m: np.linalg.slogdet(m)[1]),
            # group 2 holds the 15 middle eigenvalues
            (eigenvalue_cluster_functional(model, 2),
             lambda m: np.mean(np.linalg.eigvalsh(m)[:, 30:45], axis=1)),
        ):
            got = evaluate_batch(func, factors)
            assert np.allclose(got, closed_form(sigmas), rtol=1e-12, atol=0), func.kind

    def test_evaluate_rejects_non_spd(self):
        indefinite = np.diag([1.0, -0.5, 2.0])
        for func in (trace_functional(self.model), log_det_functional(self.model)):
            with pytest.raises(NotPositiveDefinite):
                evaluate(func, indefinite)

    def test_cluster_uses_descending_positions(self):
        func = eigenvalue_cluster_functional(self.model, 1)
        shifted = self.model.sigma_star.entries + 0.1 * np.eye(3)
        assert evaluate(func, shifted) == pytest.approx(5.1)

    def test_residual_zero_for_linear(self):
        func = trace_functional(self.model)
        probe = self.model.sigma_star.entries + 0.2 * np.eye(3)
        assert linearization_residual(func, probe, self.model) == pytest.approx(0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_cluster_residual_bound(self, seed):
        model = model_from_spectrum([6.0, 3.0, 1.0], [1, 2, 1], rotation_seed=1)
        func = eigenvalue_cluster_functional(model, 2)
        gap = 2.0
        limit = gap / (2.0 * math.e**2)
        rng = np.random.default_rng(seed)
        for _ in range(100):
            h = sym(rng.standard_normal((4, 4)))
            h *= rng.uniform(0, limit) / spectral_norm(h)
            probe = model.sigma_star.entries + h
            resid = linearization_residual(func, probe, model)
            assert abs(resid) <= func.c_phi * spectral_norm(h) ** 2 + 1e-12


class TestStandardizedStatistic:
    def setup_method(self):
        self.model = model_from_spectrum([2.0, 1.0, 0.5], [1, 1, 1], rotation_seed=4)
        self.data = sample_dataset(DatasetSpec(self.model, "gaussian", 4000, seed=5))
        self.prior = default_inverse_wishart_prior(3)
        self.draws = sample_posterior(
            default_sampler(self.prior, self.data, seed=6), 20_000
        )

    def test_trace_statistic_near_standard_normal(self):
        stat = standardized_statistic(
            trace_functional(self.model), self.draws, self.data
        )
        assert kolmogorov_distance(stat, scipy.stats.norm.cdf) < 0.05

    @staticmethod
    def streamed_peak(count: int) -> int:
        """tracemalloc peak of a trace statistic over count streamed p = 30 draws."""
        model = model_from_spectrum([2.0, 1.0], [10, 20], rotation_seed=6)
        data = sample_dataset(DatasetSpec(model, "gaussian", 500, seed=7))
        sampler = default_sampler(default_inverse_wishart_prior(30), data, seed=8)
        func = trace_functional(model)
        tracemalloc.start()
        try:
            standardized_statistic(func, sample_posterior(sampler, count), data)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_does_not_grow_with_draws(self):
        # draws are reduced block by block, so doubling them leaves the peak
        # at about one block's working set (a (4096, 30, 30) stack is 29 MB)
        peaks = [self.streamed_peak(count) for count in (3 * _CHUNK, 6 * _CHUNK)]
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]

    def test_peak_memory_is_one_block(self):
        # the reducer holds one block at a time, so the peak is the kernel's
        # own bound for one call; holding the previous block while the next
        # is drawn read 2.59 blocks
        assert self.streamed_peak(3 * _CHUNK) <= 1.7 * _CHUNK * 30 * 30 * 8

    def test_peak_memory_is_below_one_block(self):
        # the sampler reduces each cache-sized sub-block as it is computed, so
        # the peak is the sub-block buffers; reducing whole 4096-draw blocks
        # read 1.59 blocks, and taking one block's normals first 0.62
        assert self.streamed_peak(3 * _CHUNK) <= 0.7 * _CHUNK * 30 * 30 * 8


class TestRankAdjusted:
    def setup_method(self):
        self.model = model_from_spectrum([3.0, 1.5, 1.0, 0.5], [1, 1, 1, 2], rotation_seed=7)
        self.data = sample_dataset(DatasetSpec(self.model, "gaussian", 3000, seed=8))
        self.prior = default_inverse_wishart_prior(5)

    def test_reduced_prior_projects_scale(self):
        func = entry_functional(self.model, 0, 0)
        reduced = reduced_inverse_wishart_prior(func, self.prior)
        assert reduced.dim == 1
        assert reduced.b == self.prior.b
        target = func.u.T @ self.prior.scale.entries @ func.u
        assert np.allclose(reduced.scale.entries, target)

    def test_rank_identity_for_normalizer(self):
        # whitened norm is preserved when passing to the reduced model
        rng = np.random.default_rng(9)
        for k in range(50):
            model = model_from_spectrum(
                sorted(rng.uniform(0.5, 5.0, size=3), reverse=True),
                [1, 1, 1],
                rotation_seed=100 + k,
            )
            phi = sym(rng.standard_normal((3, 3)))
            # force a rank deficiency half the time
            if k % 2:
                v = rng.standard_normal(3)
                phi = np.outer(v, v)
            func = linear_functional(model, phi)
            xi = func.u.T @ model.sigma_star.entries @ func.u
            w = np.linalg.eigvalsh(
                _sqrt(sym(xi)) @ np.diag(func.psi) @ _sqrt(sym(xi))
            )
            reduced_norm = math.sqrt(2.0) * float(np.sqrt(np.sum(w**2)))
            assert reduced_norm == pytest.approx(func.normalizer, rel=1e-10)

    def test_pipeline_matches_full_posterior(self):
        func = linear_functional(self.model, np.diag([1.0, 0.5, 0.0, 0.0, 0.0]))
        full = sample_posterior(default_sampler(self.prior, self.data, seed=10), 20_000)
        full_stat = standardized_statistic(func, full, self.data)
        reduced = rank_adjusted_pipeline(
            func, self.data, reduced_inverse_wishart_prior(func, self.prior),
            20_000, seed=11,
        )
        assert kolmogorov_distance(full_stat, reduced) < 0.02

    def test_pipeline_rejects_full_rank(self):
        func = trace_functional(self.model)
        with pytest.raises(BadDimension):
            rank_adjusted_pipeline(func, self.data, self.prior, 1000)

    def test_pipeline_rejects_mismatched_prior(self):
        func = entry_functional(self.model, 0, 0)  # rank one
        with pytest.raises(BadDimension):
            rank_adjusted_pipeline(func, self.data, self.prior, 1000)


def _sqrt(mat):
    w, v = np.linalg.eigh(mat)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
