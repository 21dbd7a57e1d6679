import json
import math
import warnings

import numpy as np
import pytest
import scipy.stats

from covbvm import (
    DatasetSpec,
    EmpiricalLaw,
    ErrorBudget,
    InverseWishartPrior,
    SpdMatrix,
    UniformVicinityPrior,
    budget_functional,
    budget_posterior_independence,
    budget_projector,
    default_inverse_wishart_prior,
    default_sampler,
    estimate_contraction_radius,
    flatness_profile,
    kolmogorov_distance,
    localize_draws,
    model_from_spectrum,
    sample_dataset,
    sample_posterior,
    trace_functional,
    tv_distance_over_statistics,
)
from covbvm.cli import run
from covbvm.diagnostics import default_statistic_battery, statistic_columns
from covbvm.posterior import _CHUNK
from covbvm.spectral import EigenspaceSelection
from covbvm.errors import DegenerateNormalizer, UndefinedFlatness


class TestEmpiricalLaw:
    def test_sorted_and_frozen(self):
        law = EmpiricalLaw(np.arange(200)[::-1].astype(float))
        assert np.all(np.diff(law.values) >= 0)
        with pytest.raises(ValueError):
            law.values[0] = 99.0

    def test_too_few_values(self):
        with pytest.raises(ValueError):
            EmpiricalLaw(np.zeros(50))

    def test_rejects_nan(self):
        vals = np.zeros(200)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            EmpiricalLaw(vals)

    def test_cdf_values(self):
        law = EmpiricalLaw(np.arange(1, 101, dtype=float))
        assert law.cdf(0.5) == 0.0
        assert law.cdf(1.0) == pytest.approx(0.01)
        assert law.cdf(100.0) == 1.0


class TestKolmogorovDistance:
    def test_self_distance_zero(self):
        law = EmpiricalLaw(np.random.default_rng(0).standard_normal(500))
        assert kolmogorov_distance(law, law) == 0.0

    def test_point_masses(self):
        a = EmpiricalLaw(np.zeros(100))
        b = EmpiricalLaw(np.ones(100))
        assert kolmogorov_distance(a, b) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = EmpiricalLaw(rng.standard_normal(300))
        b = EmpiricalLaw(rng.standard_normal(400) + 0.3)
        assert kolmogorov_distance(a, b) == pytest.approx(kolmogorov_distance(b, a))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scipy_two_sample(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(731)
        y = rng.standard_normal(548) * 1.4 + 0.2
        ours = kolmogorov_distance(EmpiricalLaw(x), EmpiricalLaw(y))
        ref = scipy.stats.ks_2samp(x, y, method="exact").statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("sizes", [(500, 500), (731, 548), (100, 2000)])
    def test_matches_the_merged_grid_bit_for_bit(self, sizes):
        # values on a coarse lattice tie within each sample and across them
        rng = np.random.default_rng(sum(sizes))
        x = np.round(rng.standard_normal(sizes[0]), 1)
        y = np.round(rng.standard_normal(sizes[1]) * 1.2 + 0.1, 1)
        a, b = EmpiricalLaw(x), EmpiricalLaw(y)
        assert len(np.unique(x)) < len(x) and len(np.intersect1d(x, y)) > 0
        grid = np.concatenate([x, y])
        want = float(np.max(np.abs(a.cdf(grid) - b.cdf(grid))))
        assert kolmogorov_distance(a, b) == want
        assert kolmogorov_distance(b, a) == want

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_scipy_analytic(self, seed):
        x = np.random.default_rng(seed).standard_normal(911)
        ours = kolmogorov_distance(EmpiricalLaw(x), scipy.stats.norm.cdf)
        ref = scipy.stats.kstest(x, scipy.stats.norm.cdf).statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_dkw_large_sample(self):
        x = np.random.default_rng(7).standard_normal(100_000)
        assert kolmogorov_distance(EmpiricalLaw(x), scipy.stats.norm.cdf) <= 0.01


class TestTvDistanceOverStatistics:
    def make_stack(self, seed, scale=1.0, m=3000):
        rng = np.random.default_rng(seed)
        d = scale * (1.0 + 0.1 * rng.standard_normal((m, 2)))
        mats = np.zeros((m, 2, 2))
        mats[:, 0, 0] = np.abs(d[:, 0])
        mats[:, 1, 1] = np.abs(d[:, 1])
        return mats

    def test_same_law_small(self):
        a, b = self.make_stack(0), self.make_stack(1)
        assert tv_distance_over_statistics(a, b) < 0.05

    def test_separated_laws_large(self):
        a, b = self.make_stack(0, scale=1.0), self.make_stack(1, scale=2.0)
        assert tv_distance_over_statistics(a, b) > 0.9

    def test_lower_bound_is_max_over_battery(self):
        a, b = self.make_stack(2), self.make_stack(3, scale=1.3)
        single = tv_distance_over_statistics(
            a, b, {"trace": lambda m: np.trace(m, axis1=-2, axis2=-1)}
        )
        assert tv_distance_over_statistics(a, b) >= single

    def test_empty_battery_rejected(self):
        a = self.make_stack(4)
        with pytest.raises(ValueError):
            tv_distance_over_statistics(a, a, {})

    def test_streamed_draws_match_their_stack(self):
        # streamed draws are reduced in the sampler's sub-blocks (p = 10: 1310
        # draws each); every battery statistic is per matrix, so the columns
        # are bit for bit those of the stack
        model = model_from_spectrum([2.0, 1.0], [3, 7], rotation_seed=1)
        data = sample_dataset(DatasetSpec(model, "gaussian", 400, seed=2))
        prior = default_inverse_wishart_prior(10)
        a, b = (sample_posterior(default_sampler(prior, data, seed=s), _CHUNK + 17)
                for s in (3, 4))
        battery = default_statistic_battery()
        columns = statistic_columns(a, battery)
        streamed = tv_distance_over_statistics(a, b)
        assert columns.tobytes() == statistic_columns(a.matrices, battery).tobytes()
        assert streamed == tv_distance_over_statistics(a.matrices, b.matrices) > 0

    def test_bridge_localized_law_is_the_masked_columns(self, tmp_path):
        # bridge reduces the conjugate draws once, to their battery columns and
        # vicinity mask; its localized law is the localized draws' battery
        n, draws, delta_bar, seed = 2000, _CHUNK + 17, 0.12, 5
        cfg = {
            "schema_version": 1, "command": "bridge", "seed": seed,
            "model": {"mu": [2.0, 1.0], "mult": [2, 4], "rotation_seed": 0},
            "data": {"n": n}, "delta_bar": delta_bar,
            "monte_carlo": {"posterior_draws": draws, "replications": 1},
        }
        run(cfg, out_override=str(tmp_path))
        report = json.loads((tmp_path / "report.json").read_text())
        model = model_from_spectrum([2.0, 1.0], [2, 4], rotation_seed=0)
        dataset = sample_dataset(DatasetSpec(model, "gaussian", n, seed=seed))
        conj = sample_posterior(
            default_sampler(default_inverse_wishart_prior(6), dataset, seed=seed), draws
        )
        localized = localize_draws(conj, model.sigma_star, delta_bar)
        assert 100 <= len(localized) < draws
        assert report["localized_vs_full"] == tv_distance_over_statistics(localized, conj)


class TestContraction:
    def test_radius_near_theoretical_rate(self):
        p, n = 3, 400
        model = model_from_spectrum([2.0, 1.0, 0.7], [1, 1, 1], rotation_seed=0)
        spec = DatasetSpec(model, "gaussian", n, seed=5)
        grid = np.geomspace(0.02, 2.0, 25)
        radius = estimate_contraction_radius(
            default_inverse_wishart_prior(p), spec, grid, 1000, replications=20
        )
        rate = math.sqrt((p + math.log(n)) / n)
        assert rate / 3 <= radius <= 5 * rate

    def test_exhausted_grid_returns_inf(self):
        model = model_from_spectrum([1.0], [2])
        spec = DatasetSpec(model, "gaussian", 50, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            radius = estimate_contraction_radius(
                default_inverse_wishart_prior(2), spec, [1e-6, 2e-6], 1000, 5
            )
        assert radius == math.inf

    def test_requires_enough_draws(self):
        model = model_from_spectrum([1.0], [2])
        spec = DatasetSpec(model, "gaussian", 100, seed=0)
        with pytest.raises(ValueError):
            estimate_contraction_radius(
                default_inverse_wishart_prior(2), spec, [0.1, 0.2], 10, 5
            )

    @pytest.mark.parametrize(
        "grid, replications", [([0.1, 0.2], 0), ([0.1, 0.2], -5), ([], 5)],
        ids=["no-replications", "negative-replications", "empty-grid"],
    )
    def test_refuses_an_empty_estimate(self, grid, replications):
        # no replication, or no grid radius, leaves nothing to estimate from
        model = model_from_spectrum([1.0], [2])
        spec = DatasetSpec(model, "gaussian", 100, seed=0)
        with pytest.raises(ValueError):
            estimate_contraction_radius(
                default_inverse_wishart_prior(2), spec, grid, 1000, replications
            )


class TestFlatness:
    def setup_method(self):
        self.model = model_from_spectrum([2.0, 1.0], [1, 2], rotation_seed=1)

    def test_uniform_prior_is_flat_inside_support(self):
        prior = UniformVicinityPrior(self.model.sigma_star, 0.5)
        assert flatness_profile(prior, self.model, [0.2], 200)[0] == 0.0

    def test_uniform_prior_saturates_outside_support(self):
        prior = UniformVicinityPrior(self.model.sigma_star, 0.1)
        assert flatness_profile(prior, self.model, [0.4], 200)[0] == 1.0

    def test_undefined_off_support(self):
        far = model_from_spectrum([10.0], [3])
        prior = UniformVicinityPrior(far.sigma_star, 0.05)
        with pytest.raises(UndefinedFlatness):
            flatness_profile(prior, self.model, [0.1], 50)

    def test_inverse_wishart_linear_regime(self):
        prior = InverseWishartPrior(SpdMatrix(0.01 * np.eye(3)), b=4.0)
        rho1 = flatness_profile(prior, self.model, [1e-3], 400, seed=3)[0]
        rho2 = flatness_profile(prior, self.model, [2e-3], 400, seed=3)[0]
        assert 0 < rho1 < 0.1
        assert 1.5 <= rho2 / rho1 <= 2.5

    @pytest.mark.parametrize("probe_count", [0, -1])
    def test_refuses_no_probes(self, probe_count):
        # no probe bounds no deviation; it used to read as a perfectly flat prior
        prior = default_inverse_wishart_prior(3)
        with pytest.raises(ValueError):
            flatness_profile(prior, self.model, [0.1], probe_count)
        with pytest.raises(ValueError):
            flatness_profile(prior, self.model, [0.1, 0.2], probe_count)

    def test_profile_shape(self):
        prior = default_inverse_wishart_prior(3)
        prof = flatness_profile(prior, self.model, [1e-3, 1e-2, 1e-1], 100, seed=0)
        assert prof.shape == (3,)
        assert np.all(prof >= 0)


class TestBudgets:
    def setup_method(self):
        self.model = model_from_spectrum([5.0, 2.0, 1.0], [1, 1, 3], rotation_seed=2)

    def test_posterior_independence_sum(self):
        budget = budget_posterior_independence(0.02, 0.03, 100)
        assert budget.total == pytest.approx(0.06)
        assert budget.terms["one_over_n"] == pytest.approx(0.01)

    def test_linear_functional_has_no_nonlinearity_term(self):
        func = trace_functional(self.model)
        budget = budget_functional(
            self.model, func, 1000, delta_w=0.1, delta_hat=0.05,
            delta_tilde=0.02, g_norm_scaled=0.01,
        )
        assert budget.terms["diamond_nl"] == 0.0
        assert budget.total == pytest.approx(budget.terms["diamond_ga"])

    def test_functional_budget_shrinks_with_n(self):
        func = trace_functional(self.model)
        small = budget_functional(self.model, func, 500, 0.0, 0.0, 0.0, 0.5)
        large = budget_functional(self.model, func, 50_000, 0.0, 0.0, 0.0, 0.5)
        assert large.total < small.total

    def test_projector_budget_terms(self):
        sel = EigenspaceSelection(1, 1)
        budget = budget_projector(
            self.model, sel, n=10_000, delta_hat=0.03, g_norm=0.05, l_star_j=1.0
        )
        for key in ("diamond_1", "diamond_2", "diamond_3", "normalizer"):
            assert budget.terms[key] > 0
        raw = sum(budget.terms[k] for k in ("diamond_1", "diamond_2", "diamond_3"))
        assert budget.total == pytest.approx(raw / budget.terms["normalizer"] + 1e-4)

    def test_projector_budget_reproducible(self):
        sel = EigenspaceSelection(1, 2)
        kwargs = dict(n=2000, delta_hat=0.1, g_norm=0.2, l_star_j=2.0)
        a = budget_projector(self.model, sel, **kwargs)
        b = budget_projector(self.model, sel, **kwargs)
        assert a.total == b.total
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )

    def test_degenerate_normalizer(self):
        # one inner-outer eigenvalue pair gives a single limit weight, which
        # cannot be normalized
        model = model_from_spectrum([3.0, 1.0], [1, 1])
        with pytest.raises(DegenerateNormalizer):
            budget_projector(
                model, EigenspaceSelection(1, 1), n=100,
                delta_hat=0.1, g_norm=0.1, l_star_j=1.0,
            )

    def test_budget_serializes(self):
        budget = budget_posterior_independence(0.0, 0.0, 10)
        d = budget.to_json_dict()
        assert d["context"] == "posterior_independence"
        assert isinstance(ErrorBudget(**{
            "context": d["context"], "terms": d["terms"], "total": d["total"]
        }), ErrorBudget)
