import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats

from covbvm import (
    ChiSquareMixture,
    DatasetSpec,
    EigenspaceSelection,
    PosteriorDraws,
    build_gamma,
    dataset_from_samples,
    default_inverse_wishart_prior,
    default_sampler,
    kolmogorov_distance,
    model_from_spectrum,
    posterior_projector_statistic,
    sample_dataset,
    sample_posterior,
)
from covbvm.datagen import derived_rng
from covbvm.posterior import sub_block_size
from covbvm.projectors import _RiccatiWorkspace, projector_distances


def projector_from_entries(entries: np.ndarray, index_set: np.ndarray) -> np.ndarray:
    """Projector onto the eigenvectors at the given descending-order positions,
    from a full eigendecomposition: the explicit oracle for the statistic."""
    cols = np.linalg.eigh(entries)[1][..., ::-1][..., index_set]
    return cols @ cols.T


def eigh_distances(mats: np.ndarray, data, index_set: np.ndarray):
    """2n ||V-hat_perp^T V||_F^2 for each matrix of a stack with V from eigh, and
    the number of matrices whose own gap at the selection boundary is below
    1e-6: the eigendecomposition route that projector_distances must match."""
    p = mats.shape[-1]
    vecs = np.linalg.eigh(data.sample_cov.entries)[1][:, ::-1]
    hat_perp = np.delete(vecs, index_set, axis=1)
    w, v = np.linalg.eigh(mats)
    eigs, cols = w[:, ::-1], v[:, :, ::-1][:, :, index_set]
    values = 2.0 * data.n * np.sum((hat_perp.T @ cols) ** 2, axis=(1, 2))
    lo, hi = index_set[0], index_set[-1]
    gaps = np.full(len(mats), np.inf)
    if lo > 0:
        gaps = np.minimum(gaps, eigs[:, lo - 1] - eigs[:, lo])
    if hi < p - 1:
        gaps = np.minimum(gaps, eigs[:, hi] - eigs[:, hi + 1])
    return values, int(np.sum(gaps < 1e-6))


class TestProjectorFromEntries:
    def test_diagonal_leading(self):
        proj = projector_from_entries(np.diag([3.0, 2.0, 1.0]), np.array([0]))
        assert np.allclose(proj, np.diag([1.0, 0.0, 0.0]))

    def test_diagonal_middle_pair(self):
        proj = projector_from_entries(np.diag([3.0, 2.0, 1.0]), np.array([1, 2]))
        assert np.allclose(proj, np.diag([0.0, 1.0, 1.0]))

    @pytest.mark.parametrize("seed", range(3))
    def test_idempotent_with_correct_trace(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 5))
        mat = a @ a.T + np.eye(5)
        idx = np.array([0, 1, 3])
        proj = projector_from_entries(mat, idx)
        assert np.allclose(proj @ proj, proj, atol=1e-12)
        assert np.trace(proj) == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(proj, proj.T)

    def test_rotation_covariance(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        base = np.diag([4.0, 3.0, 2.0, 1.0])
        idx = np.array([0, 1])
        rotated = projector_from_entries(q @ base @ q.T, idx)
        assert np.allclose(rotated, q @ np.diag([1.0, 1.0, 0, 0]) @ q.T, atol=1e-10)

    def test_matches_true_projector_on_ground_truth(self):
        model = model_from_spectrum([4.0, 1.0], [2, 2], rotation_seed=2)
        sel = EigenspaceSelection(1, 1)
        proj = projector_from_entries(model.sigma_star.entries, sel.index_set(model))
        assert np.allclose(proj, model.group_projectors[0], atol=1e-10)


class TestProjectorStatistic:
    def setup_method(self):
        self.model = model_from_spectrum([4.0, 1.0, 0.5], [1, 1, 1], rotation_seed=3)
        self.sel = EigenspaceSelection(1, 1)
        self.data = sample_dataset(DatasetSpec(self.model, "gaussian", 2000, seed=4))
        self.draws = sample_posterior(
            default_sampler(default_inverse_wishart_prior(3), self.data, 5), 5000
        )

    def test_statistic_nonnegative_and_bounded(self):
        stat = posterior_projector_statistic(
            self.model, self.sel, self.draws, self.data
        )
        m_j = 1
        assert np.all(stat.law.values >= 0)
        # || P - Phat ||_F^2 <= 2 m_J for rank-m_J projectors
        assert np.all(stat.law.values <= 2 * m_j * self.data.n)

    def test_empirical_projector_matches(self):
        # the coverage command scores the ground truth with projector_distances;
        # for the middle group of mults [1, 2, 3], eigh picks an arbitrary basis
        # of the two-dimensional true eigenspace
        repeated = model_from_spectrum([4.0, 2.0, 1.0], [1, 2, 3], rotation_seed=8)
        cases = [
            (self.model, self.sel, self.data),
            (
                repeated,
                EigenspaceSelection(2, 2),
                sample_dataset(DatasetSpec(repeated, "gaussian", 500, seed=9)),
            ),
        ]
        for model, sel, data in cases:
            phat = projector_from_entries(data.sample_cov.entries, sel.index_set(model))
            assert np.allclose(phat @ phat, phat, atol=1e-12)
            truth = model.group_projectors[sel.s_minus - 1]
            (dist,), near_degenerate, fallbacks = projector_distances(model, sel, data)(
                model.sigma_star.entries[None]
            )
            assert dist == pytest.approx(data.n * np.sum((truth - phat) ** 2), rel=1e-9)
            assert near_degenerate == fallbacks == 0

    def test_statistic_matches_explicit_frobenius(self):
        # middle group of mults [1, 2, 3]: a two-dimensional eigenspace
        model = model_from_spectrum([4.0, 2.0, 1.0], [1, 2, 3], rotation_seed=8)
        sel = EigenspaceSelection(2, 2)
        data = sample_dataset(DatasetSpec(model, "gaussian", 500, seed=9))
        draws = sample_posterior(
            default_sampler(default_inverse_wishart_prior(6), data, 10), 300
        )
        stat = posterior_projector_statistic(model, sel, draws, data)
        idx = sel.index_set(model)
        assert len(idx) == 2
        phat = projector_from_entries(data.sample_cov.entries, idx)
        explicit = [
            data.n * np.sum((projector_from_entries(mat, idx) - phat) ** 2)
            for mat in draws.matrices
        ]
        assert np.allclose(stat.law.values, np.sort(explicit), rtol=1e-9, atol=0)

    @pytest.mark.parametrize(
        "groups", [(1, 1), (2, 2), (3, 3), (1, 3)], ids=["1-1", "2-2", "3-3", "1-3"]
    )
    def test_matches_eigh_oracle(self, groups):
        # mults [1, 2, 3] at n = 300, the smallest n a projector run of the
        # suite uses, where the subspace refinement converges slowest; 5000
        # draws come as streamed blocks of 4096 and 904, as stored slices, and
        # the truth as a single matrix.  (1, 3) selects every eigenvalue.  The
        # data is the sample path of the Gaussian draw, on which the fallback
        # bound was set.
        model = model_from_spectrum([4.0, 2.0, 1.0], [1, 2, 3], rotation_seed=8)
        sel = EigenspaceSelection(*groups)
        data = dataset_from_samples(
            derived_rng(9).standard_normal((300, 6)) @ model.sigma_star.sqrtm(),
            DatasetSpec(model, "gaussian", 300, seed=9),
        )
        draws = sample_posterior(
            default_sampler(default_inverse_wishart_prior(6), data, 10), 5000
        )
        idx = sel.index_set(model)
        oracle, oracle_degenerate = eigh_distances(draws.matrices, data, idx)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            streamed = posterior_projector_statistic(model, sel, draws, data)
            stored = posterior_projector_statistic(
                model, sel, PosteriorDraws.stored(draws.matrices), data
            )
            truth = projector_distances(model, sel, data)(model.sigma_star.entries[None])
        for stat in (streamed, stored):
            np.testing.assert_allclose(stat.law.values, np.sort(oracle), rtol=1e-12, atol=0)
            assert stat.near_degenerate_count == oracle_degenerate
            # draws that the refinement cannot resolve go to eigh, and few do
            assert stat.eigh_fallback_count < 0.02 * len(draws)
        assert streamed.eigh_fallback_count == stored.eigh_fallback_count
        sigma_oracle, _ = eigh_distances(model.sigma_star.entries[None], data, idx)
        np.testing.assert_allclose(truth[0], sigma_oracle, rtol=1e-12, atol=0)
        assert truth[1:] == (0, 0)

    def test_value_does_not_depend_on_other_draws(self):
        # each draw stops refining on its own residual, so a draw alone and in
        # a stack whose slowest draw takes many more steps get the same bits
        model = model_from_spectrum([4.0, 2.0, 1.0], [1, 2, 3], rotation_seed=8)
        sel = EigenspaceSelection(2, 2)
        data = sample_dataset(DatasetSpec(model, "gaussian", 300, seed=9))
        mats = sample_posterior(
            default_sampler(default_inverse_wishart_prior(6), data, 10), 100
        ).matrices
        distances = projector_distances(model, sel, data)
        stacked = distances(mats)[0]
        alone = [distances(mat[None])[0] for mat in mats]
        assert stacked.tobytes() == np.concatenate(alone).tobytes()

    def test_unresolved_draws_fall_back_to_eigh(self):
        # Draws near S in S's eigenbasis: in some the top eigenvalue drops below
        # the next group's, so the selected positions hold another eigenspace
        # than the refinement starts from; some are the identity, where every
        # gap is 0.  Both go to eigh and get its value and near-degenerate
        # count; the rest stay on the refinement.
        model = model_from_spectrum([4.0, 2.0, 1.0], [1, 2, 3], rotation_seed=8)
        sel = EigenspaceSelection(1, 1)
        data = sample_dataset(DatasetSpec(model, "gaussian", 300, seed=9))
        eigs, vecs = np.linalg.eigh(data.sample_cov.entries)
        rng = np.random.default_rng(11)
        spectra = np.tile(eigs, (30, 1))
        spectra[:10, -1] = eigs[-2] - 0.3
        noise = 0.01 * rng.standard_normal((30, 6, 6))
        mats = vecs @ (spectra[:, :, None] * np.eye(6)) @ vecs.T + noise + noise.swapaxes(1, 2)
        mats[20:] = np.eye(6)
        oracle, oracle_degenerate = eigh_distances(mats, data, sel.index_set(model))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, near_degenerate, fallbacks = projector_distances(model, sel, data)(mats)
        assert fallbacks == 20
        np.testing.assert_allclose(values, oracle, rtol=1e-12, atol=0)
        # a swapped draw's top eigenvector is nearly orthogonal to S's top one,
        # which the refinement would have kept: distance near 2n, not near 0
        assert np.all(values[:10] > 1.9 * data.n)
        assert near_degenerate == oracle_degenerate == 10

    def test_entries_past_squared_overflow_go_to_eigh(self):
        # the refinement stops on squared norms, which overflow for entries
        # above about 1e154: such draws must go to eigh, not pass an
        # overflowed residual against an overflowed bound after one step
        mats = self.draws.matrices[:50] * 2.0**600
        oracle, oracle_degenerate = eigh_distances(mats, self.data, self.sel.index_set(self.model))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, near_degenerate, fallbacks = projector_distances(
                self.model, self.sel, self.data
            )(mats)
        np.testing.assert_allclose(values, oracle, rtol=1e-12, atol=0)
        assert fallbacks == len(mats)
        assert near_degenerate == oracle_degenerate == 0

    def test_draws_sharing_sample_eigenvectors_give_zero(self):
        # S and its positive multiples share S's eigenvectors: every principal
        # angle is zero, and the statistic is 0 up to squared rounding
        model = model_from_spectrum([4.0, 2.0, 1.0], [2, 6, 12], rotation_seed=8)
        data = sample_dataset(DatasetSpec(model, "gaussian", 5000, seed=9))
        scales = [1.0, 1.0 + 2.0**-52, 2.0, *np.geomspace(0.25, 4.0, 97)]
        draws = PosteriorDraws.stored(np.stack([c * data.sample_cov.entries for c in scales]))
        for sel in (EigenspaceSelection(1, 1), EigenspaceSelection(2, 2)):
            stat = posterior_projector_statistic(model, sel, draws, data)
            assert np.all(stat.law.values <= 1e-20)

    def test_blocks_match_whole_stack(self):
        # 5000 draws come in blocks of 4096 and 904; the whole stack is one call
        blocked = posterior_projector_statistic(self.model, self.sel, self.draws, self.data)
        mats = self.draws.matrices
        whole, near_degenerate, _ = projector_distances(self.model, self.sel, self.data)(mats)
        assert blocked.law.values.tobytes() == np.sort(whole).tobytes()
        assert blocked.near_degenerate_count == near_degenerate == 0
        # every eigenvalue gap of the identity is 0
        mats = mats.copy()
        mats[::7] = np.eye(3)
        blocked = posterior_projector_statistic(
            self.model, self.sel, PosteriorDraws.stored(mats), self.data
        )
        whole, near_degenerate, _ = projector_distances(self.model, self.sel, self.data)(mats)
        assert blocked.law.values.tobytes() == np.sort(whole).tobytes()
        assert blocked.near_degenerate_count == near_degenerate == len(mats[::7])

    def test_well_separated_spectrum_has_no_degenerates(self):
        stat = posterior_projector_statistic(
            self.model, self.sel, self.draws, self.data
        )
        assert stat.near_degenerate_count == 0

    def test_statistic_matches_mixture(self):
        stat = posterior_projector_statistic(
            self.model, self.sel, self.draws, self.data
        )
        mixture = ChiSquareMixture(build_gamma(self.model, self.sel))
        ks = kolmogorov_distance(stat.law, mixture.cdf)
        assert ks < 0.08
        assert stat.law.values.mean() == pytest.approx(np.sum(mixture.weights), rel=0.25)


class TestProjectorStatisticAtP20:
    """The model of the projector-p20 benchmark workload: mults [2, 6, 12],
    n = 5000 and selection (1, 1), with sub-blocks of 327 draws."""

    @classmethod
    def setup_class(cls):
        cls.model = model_from_spectrum([4.0, 2.0, 1.0], [2, 6, 12], rotation_seed=8)
        cls.sel = EigenspaceSelection(1, 1)
        cls.data = sample_dataset(DatasetSpec(cls.model, "gaussian", 5000, seed=9))
        cls.mats = sample_posterior(
            default_sampler(default_inverse_wishart_prior(20), cls.data, 10), 2000
        ).matrices
        cls.sub = sub_block_size(20)

    def test_value_does_not_depend_on_other_draws(self):
        # one whole sub-block against each of its draws alone: the squared-norm
        # stopping test must round the same for a stack of one
        distances = projector_distances(self.model, self.sel, self.data)
        part = self.mats[: self.sub]
        stacked = distances(part)[0]
        alone = [distances(mat[None])[0] for mat in part]
        assert stacked.tobytes() == np.concatenate(alone).tobytes()

    def test_matches_eigh_oracle(self):
        idx = self.sel.index_set(self.model)
        oracle, oracle_degenerate = eigh_distances(self.mats, self.data, idx)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, near_degenerate, fallbacks = projector_distances(
                self.model, self.sel, self.data
            )(self.mats)
        np.testing.assert_allclose(values, oracle, rtol=1e-12, atol=0)
        assert near_degenerate == oracle_degenerate == 0
        # every draw of this well-separated spectrum stays on the refinement
        assert fallbacks == 0

    def test_repeat_call_reuses_its_workspace(self):
        # The statistic allocates its refinement buffers once, so a repeated
        # call on a full sub-block makes no stack-sized temporary: its fresh
        # memory stays below a quarter of the workspace (2.6 MB here).  It
        # peaked at 166 KiB with numpy 2.4, mostly the centres and radii of
        # the Gershgorin discs, and at 3.1 MiB when every product made a new
        # array.
        distances = projector_distances(self.model, self.sel, self.data)
        part = self.mats[: self.sub]
        m = len(self.sel.index_set(self.model))
        work = sum(x.nbytes for x in vars(_RiccatiWorkspace(self.sub, 20, m)).values())
        first = distances(part)[0]
        tracemalloc.start()
        try:
            again = distances(part)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert again.tobytes() == first.tobytes()
        assert peak < 0.25 * work


def dkw(m: int, alpha: float) -> float:
    """Two-sided DKW half-width for an empirical CDF of m i.i.d. draws."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * m))


class TestChiSquareMixture:
    @pytest.mark.parametrize(
        "weights",
        [[1.0, 0.0], [], [math.nan, 1.0], [math.inf], [-1.0], [[1.0, 2.0]]],
        ids=["zero", "empty", "nan", "inf", "negative", "matrix"],
    )
    def test_rejects_nonpositive_weight(self, weights):
        with pytest.raises(ValueError):
            ChiSquareMixture(weights)

    def test_equal_weights_closed_form(self):
        # two unit weights: sum of two standard squared normals, exponential
        # with mean two, so the median is 2 log 2
        mix = ChiSquareMixture([1.0, 1.0])
        assert mix.cdf(2 * math.log(2.0)) == pytest.approx(0.5)
        assert mix.cdf(0.0) == 0.0

    def test_cdf_limits(self):
        mix = ChiSquareMixture([0.5, 2.0, 3.0])
        assert mix.cdf(-1.0) == 0.0
        assert mix.cdf(1e6) == pytest.approx(1.0)

    def test_scaled_equal_weights_match_chi2(self):
        mix = ChiSquareMixture([8.0 / 9.0, 8.0 / 9.0])
        x = np.linspace(0.0, 10.0, 50)
        chi2 = scipy.stats.chi2.cdf(x, df=2, scale=8.0 / 9.0)
        np.testing.assert_allclose(mix.cdf(x), chi2, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "weights, grouped",
        [
            ([0.625, 1.5, 4.0], False),
            # mu = [10, 1.1, 1], selection (3, 3): weights 891 apart
            (
                build_gamma(
                    model_from_spectrum([10.0, 1.1, 1.0], [1, 1, 1]), EigenspaceSelection(3, 3)
                ),
                False,
            ),
            # mu = [10, 2, 1], mult [5, 5, 190], selection (2, 2): weights 0.625
            # (x25) and 4 (x950), whose pmf factors leave double range
            (
                build_gamma(
                    model_from_spectrum([10.0, 2.0, 1.0], [5, 5, 190]), EigenspaceSelection(2, 2)
                ),
                True,
            ),
        ],
        ids=["three-distinct", "ratio-891", "large-multiplicity"],
    )
    def test_exact_cdf_matches_oracle(self, weights, grouped):
        mix = ChiSquareMixture(weights)
        m = 1_000_000
        if grouped:
            # sample() holds an m x 975 array; draw lambda * chi2_h per distinct
            # weight lambda of multiplicity h instead, the same law
            rng = np.random.default_rng(1)
            lam, mult = np.unique(mix.weights, return_counts=True)
            oracle = np.sort(sum(l * rng.chisquare(h, m) for l, h in zip(lam, mult)))
        else:
            oracle = np.sort(mix.sample(m, seed=1))
        x = np.quantile(oracle, np.linspace(0.0025, 0.9975, 200))
        oracle_cdf = np.searchsorted(oracle, x, side="right") / m
        assert np.max(np.abs(mix.cdf(x) - oracle_cdf)) <= dkw(m, 1e-3)

    def test_cdf_nondecreasing_in_unit_interval(self):
        mix = ChiSquareMixture(np.r_[np.full(12, 4.0), np.full(24, 8.0 / 9.0)])
        x = np.r_[-5.0, np.linspace(0.0, 12.0 * np.sum(mix.weights), 20_001), 1e300, math.inf]
        f = mix.cdf(x)
        assert np.all(np.diff(f) >= 0)
        assert f[0] == 0.0 and 0.0 <= f.min() and f.max() <= 1.0
        assert f[-1] == pytest.approx(1.0, abs=1e-13)

    def test_series_length_is_capped(self):
        # weights 1e4 apart need about 270k terms, past the cap
        with pytest.raises(ValueError):
            ChiSquareMixture([1e-3, 10.0]).cdf(1.0)

    def test_equal_weight_mc_agrees_with_analytic(self):
        mix = ChiSquareMixture([2.0, 2.0, 2.0])
        x = np.linspace(0.5, 20.0, 21)
        mc = np.searchsorted(np.sort(mix.sample(100_000, seed=2)), x) / 100_000
        assert np.max(np.abs(mc - mix.cdf(x))) < 0.01

    def test_sample_moments(self):
        mix = ChiSquareMixture([1.0, 3.0])
        draws = mix.sample(200_000, seed=3)
        assert draws.mean() == pytest.approx(np.sum(mix.weights), rel=0.02)
        assert draws.var() == pytest.approx(2.0 * np.sum(mix.weights**2), rel=0.05)

    def test_sample_deterministic(self):
        mix = ChiSquareMixture([1.0, 2.0])
        assert np.array_equal(mix.sample(1000, seed=4), mix.sample(1000, seed=4))

