"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line (bypassing capture) and asserts the
corresponding guarantees at their stated tolerances.
"""

import json
import math
import sys
import time

import numpy as np
import pytest
import scipy.stats

from covbvm import (
    ChiSquareMixture,
    DatasetSpec,
    EigenspaceSelection,
    EmpiricalLaw,
    ExactConjugate,
    InverseWishartPrior,
    PosteriorDraws,
    PosteriorSampler,
    SpdMatrix,
    UniformVicinityPrior,
    budget_functional,
    budget_posterior_independence,
    budget_projector,
    build_gamma,
    default_inverse_wishart_prior,
    default_sampler,
    entry_functional,
    eigenvalue_cluster_functional,
    estimate_contraction_radius,
    flatness_profile,
    kolmogorov_distance,
    localize_draws,
    model_from_spectrum,
    posterior_projector_statistic,
    rank_adjusted_pipeline,
    reduced_inverse_wishart_prior,
    sample_dataset,
    sample_inverse_wishart,
    sample_posterior,
    standardized_statistic,
    trace_functional,
)
from covbvm.cli import run
from covbvm.errors import DegenerateNormalizer
from covbvm.spd import spectral_norm, sym
from oracles import linearization_residual


_CONSOLE = None


@pytest.fixture(autouse=True)
def _console(capsys):
    global _CONSOLE
    _CONSOLE = capsys
    yield
    _CONSOLE = None


def _verdict(index, name, ok):
    line = f"[acceptance {index:02d}/10] {name}: {'PASS' if ok else 'FAIL'}"
    if _CONSOLE is not None:
        with _CONSOLE.disabled():
            sys.stdout.write("\n" + line + "\n")
            sys.stdout.flush()
    else:
        print(line)
    return ok


def _moment_bands_agree(draws_a, draws_b):
    """First and second moments agree entrywise within combined 3-sigma bands."""
    m = len(draws_a)
    for power in (1, 2):
        a, b = draws_a**power, draws_b**power
        gap = np.abs(a.mean(axis=0) - b.mean(axis=0))
        band = 3.0 * np.sqrt(a.var(axis=0) / m + b.var(axis=0) / m)
        if not np.all(gap <= band):
            return False
    return True


def test_criterion_01_conjugacy_oracle():
    start = time.perf_counter()
    p, n, m = 3, 2000, 100_000
    model = model_from_spectrum([2.0, 1.0, 0.5], [1, 1, 1], rotation_seed=0)
    data = sample_dataset(DatasetSpec(model, "gaussian", n, seed=1))
    prior = default_inverse_wishart_prior(p)
    draws = sample_posterior(PosteriorSampler(prior, data, ExactConjugate(), 2), m)
    target = (n * data.sample_cov.entries + prior.scale.entries) / (n + prior.b - 2)
    dev = spectral_norm(draws.matrices.mean(axis=0) - target)
    tol = 3.0 * spectral_norm(target) * math.sqrt(2 * p / m)
    elapsed = time.perf_counter() - start
    ok = _verdict(1, "conjugacy-oracle", dev <= tol and elapsed < 60.0)
    assert dev <= tol, f"posterior mean deviation {dev:.4g} exceeds {tol:.4g}"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    assert ok


def test_criterion_02_wishart_identity_suite():
    m = 100_000
    # projection law: the compressed inverse Wishart is again inverse Wishart
    p, q, dof = 4, 2, 11.0
    rng = np.random.default_rng(3)
    qmat, _ = np.linalg.qr(rng.standard_normal((p, q)))
    scale = SpdMatrix(np.diag([3.0, 2.0, 1.0, 0.5]))
    full = sample_inverse_wishart(scale, dof, m, seed=4)
    projected = np.einsum("iq,mij,jr->mqr", qmat, full, qmat)
    direct = sample_inverse_wishart(
        SpdMatrix(qmat.T @ scale.entries @ qmat), dof - p + q, m, seed=5
    )
    proj_ok = _moment_bands_agree(projected, direct)
    # inverse-sum representation: the precision is a sum of Gaussian outer
    # products with the inverted scale
    p2, dof2 = 3, 8
    scale2 = SpdMatrix(np.diag([2.0, 1.0, 0.5]))
    inv_draws = np.linalg.inv(sample_inverse_wishart(scale2, float(dof2), m, seed=6))
    root = SpdMatrix(scale2.inv()).sqrtm()
    z = np.random.default_rng(7).standard_normal((m, dof2, p2)) @ root
    sums = np.einsum("mjp,mjq->mpq", z, z)
    sum_ok = _moment_bands_agree(inv_draws, sums)
    ok = _verdict(2, "wishart-identity-suite", proj_ok and sum_ok)
    assert proj_ok, "projection law moments disagree beyond 3-sigma"
    assert sum_ok, "inverse-sum representation moments disagree beyond 3-sigma"
    assert ok


def test_criterion_03_functional_bvm():
    start = time.perf_counter()
    p, m = 5, 20_000
    model = model_from_spectrum([2.0, 1.5, 1.0, 0.7, 0.5], [1] * 5, rotation_seed=8)
    prior = default_inverse_wishart_prior(p)
    func = trace_functional(model)
    ks_by_n = {}
    for n in (500, 2000, 8000):
        data = sample_dataset(DatasetSpec(model, "gaussian", n, seed=9))
        draws = sample_posterior(default_sampler(prior, data, seed=n), m)
        stat = standardized_statistic(func, draws, data)
        ks_by_n[n] = kolmogorov_distance(stat, scipy.stats.norm.cdf)
    seq = [ks_by_n[n] for n in (500, 2000, 8000)]
    monotone = all(seq[i + 1] <= seq[i] + 0.01 for i in range(2))
    elapsed = time.perf_counter() - start
    ok = _verdict(
        3, "functional-bvm", ks_by_n[8000] <= 0.05 and monotone and elapsed < 300.0
    )
    assert ks_by_n[8000] <= 0.05, f"KS at n=8000 is {ks_by_n[8000]:.4f}"
    assert monotone, f"KS sequence not nonincreasing within +0.01: {seq}"
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 300s"
    assert ok


def test_criterion_04_cluster_residual_bound():
    model = model_from_spectrum([6.0, 3.0, 1.0], [1, 2, 1], rotation_seed=10)
    func = eigenvalue_cluster_functional(model, 2)
    gap = 2.0
    limit = gap / (2.0 * math.e**2)
    rng = np.random.default_rng(11)
    violations = 0
    for _ in range(100):
        h = sym(rng.standard_normal((4, 4)))
        h *= rng.uniform(0.0, limit) / spectral_norm(h)
        resid = linearization_residual(func, model.sigma_star.entries + h, model)
        if abs(resid) > func.c_phi * spectral_norm(h) ** 2 + 1e-12:
            violations += 1
    ok = _verdict(4, "cluster-residual-bound", violations == 0)
    assert violations == 0, f"{violations} of 100 probes violate the residual bound"
    assert ok


def test_criterion_05_projector_bvm():
    p, n, m = 3, 4000, 20_000
    model = model_from_spectrum([4.0, 1.0], [1, 2], rotation_seed=12)
    sel = EigenspaceSelection(1, 1)
    data = sample_dataset(DatasetSpec(model, "gaussian", n, seed=13))
    draws = sample_posterior(
        default_sampler(default_inverse_wishart_prior(p), data, seed=14), m
    )
    stat = posterior_projector_statistic(model, sel, draws, data)
    mixture = ChiSquareMixture(build_gamma(model, sel))
    # both limit weights equal 2 * 4 * 1 / (4 - 1)^2
    assert np.allclose(mixture.weights, 8.0 / 9.0)
    ks = kolmogorov_distance(stat.law, lambda x: mixture.cdf(x))
    ref = mixture.sample(100_000, seed=15)
    mean_gap = abs(ref.mean() - np.sum(mixture.weights))
    mean_band = 3.0 * ref.std() / math.sqrt(len(ref))
    ok = _verdict(5, "projector-bvm", ks <= 0.07 and mean_gap <= mean_band)
    assert ks <= 0.07, f"projector-statistic KS {ks:.4f} exceeds 0.07"
    assert mean_gap <= mean_band, "mixture sampler mean outside the 3-sigma band"
    assert ok


def test_criterion_06_prior_independence():
    p, n, m = 3, 4000, 20_000
    model = model_from_spectrum([4.0, 1.0], [1, 2], rotation_seed=16)
    sel = EigenspaceSelection(1, 1)
    data = sample_dataset(DatasetSpec(model, "gaussian", n, seed=17))
    delta_bar = 4.0 * math.sqrt((p + math.log(n)) / n)
    # a conjugate prior whose mode sits at the ground truth is flat over the
    # contraction vicinity, which is what the prior-independence bound assumes
    conj_prior = InverseWishartPrior(
        SpdMatrix((2 * p + 2.0) * model.sigma_star.entries), b=2.0
    )
    conj = sample_posterior(default_sampler(conj_prior, data, seed=18), m)
    uniform = sample_posterior(
        default_sampler(UniformVicinityPrior(model.sigma_star, delta_bar), data, 19),
        10_000,
    )
    localized = localize_draws(conj, model.sigma_star, delta_bar)

    def battery_laws(mats, dataset):
        return {
            "trace": EmpiricalLaw(np.trace(mats, axis1=-2, axis2=-1)),
            "lambda_max": EmpiricalLaw(np.linalg.eigvalsh(mats)[:, -1]),
            "projector": posterior_projector_statistic(
                model, sel, PosteriorDraws.stored(mats), dataset
            ).law,
        }

    conj_laws = battery_laws(conj.matrices, data)
    unif_laws = battery_laws(uniform.matrices, data)
    loc_laws = battery_laws(localized.matrices, data)
    prior_gap = max(
        kolmogorov_distance(unif_laws[k], conj_laws[k]) for k in conj_laws
    )
    local_gap = max(
        kolmogorov_distance(loc_laws[k], conj_laws[k]) for k in conj_laws
    )
    prior_tol = 0.03 + 2.0 / n
    local_tol = 2.0 / n + 0.02
    ok = _verdict(
        6, "prior-independence", prior_gap <= prior_tol and local_gap <= local_tol
    )
    assert prior_gap <= prior_tol, f"prior-swap KS {prior_gap:.4f} > {prior_tol:.4f}"
    assert local_gap <= local_tol, f"localization KS {local_gap:.4f} > {local_tol:.4f}"
    assert ok


def test_criterion_07_rank_adjusted_pipeline():
    m, n = 20_000, 3000
    ks_full = {}
    ks_gauss = {}
    for p in (10, 50):
        model = model_from_spectrum([3.0, 1.0], [1, p - 1], rotation_seed=20 + p)
        data = sample_dataset(DatasetSpec(model, "gaussian", n, seed=21))
        prior = default_inverse_wishart_prior(p)
        func = entry_functional(model, 0, 0)  # rank one
        full = sample_posterior(default_sampler(prior, data, seed=22), m)
        full_stat = standardized_statistic(func, full, data)
        reduced = rank_adjusted_pipeline(
            func, data, reduced_inverse_wishart_prior(func, prior), m, seed=23
        )
        ks_full[p] = kolmogorov_distance(full_stat, reduced)
        ks_gauss[p] = max(
            kolmogorov_distance(reduced, scipy.stats.norm.cdf),
            kolmogorov_distance(full_stat, scipy.stats.norm.cdf),
        )
    agree = all(v <= 0.02 for v in ks_full.values())
    gauss = all(v <= 0.05 for v in ks_gauss.values())
    ok = _verdict(7, "rank-adjusted-pipeline", agree and gauss)
    assert agree, f"full vs rank-adjusted KS too large: {ks_full}"
    assert gauss, f"rank-one statistic KS to N(0,1) too large: {ks_gauss}"
    assert ok


def test_criterion_08_flatness_and_contraction():
    model = model_from_spectrum([1.0], [3])
    prior = default_inverse_wishart_prior(3)
    rho1 = flatness_profile(prior, model, [1e-3], 400, seed=24)[0]
    rho2 = flatness_profile(prior, model, [2e-3], 400, seed=24)[0]
    flat_ok = rho1 > 0 and 1.5 <= rho2 / rho1 <= 2.5
    grid = np.geomspace(0.01, 2.0, 60)
    radii = {}
    for n in (500, 2000):
        spec = DatasetSpec(model, "gaussian", n, seed=25)
        radii[n] = estimate_contraction_radius(
            prior, spec, grid, 1000, replications=20, seed=26
        )
    ratio = radii[2000] / radii[500]
    contraction_ok = 0.3 <= ratio <= 0.8
    ok = _verdict(
        8, "flatness-and-contraction", flat_ok and contraction_ok
    )
    assert flat_ok, f"flatness ratio {rho2 / rho1 if rho1 else math.nan:.3f} outside [1.5, 2.5]"
    assert contraction_ok, f"contraction ratio {ratio:.3f} outside [0.3, 0.8]"
    assert ok


def test_criterion_09_coverage(tmp_path):
    start = time.perf_counter()
    cfg = {
        "schema_version": 1,
        "command": "coverage",
        "seed": 27,
        "model": {"mu": [2.0, 1.0, 0.5], "mult": [1, 1, 1], "rotation_seed": 1},
        "data": {"n": 5000, "seed": 28},
        "prior": {"kind": "inverse_wishart"},
        "functional": {"kind": "trace"},
        "nominal_level": 0.95,
        "monte_carlo": {"posterior_draws": 2000, "replications": 400},
        "output_dir": str(tmp_path),
    }
    report = run(cfg)
    coverage = report["empirical_coverage"]
    elapsed = time.perf_counter() - start
    ok = _verdict(9, "coverage", 0.92 <= coverage <= 0.98 and elapsed < 900.0)
    assert 0.92 <= coverage <= 0.98, f"empirical coverage {coverage:.3f}"
    assert elapsed < 900.0, f"runtime {elapsed:.1f}s exceeds 900s"
    assert ok


def test_criterion_10_budget_calculators():
    model = model_from_spectrum([5.0, 2.0, 1.0], [1, 1, 3], rotation_seed=29)
    func = trace_functional(model)
    budget = budget_functional(model, func, 1000, 0.1, 0.05, 0.02, 0.01)
    linear_ok = budget.terms["diamond_nl"] == 0.0

    kwargs = dict(n=2000, delta_hat=0.1, g_norm=0.2, l_star_j=2.0)
    sel = EigenspaceSelection(1, 2)
    a = budget_projector(model, sel, **kwargs)
    b = budget_projector(model, sel, **kwargs)
    pi = budget_posterior_independence(0.01, 0.02, 300)
    repro_ok = (
        a.total == b.total
        and json.dumps(a.to_json_dict(), sort_keys=True)
        == json.dumps(b.to_json_dict(), sort_keys=True)
        and pi.total == sum(pi.terms.values())
    )
    try:
        budget_projector(
            model_from_spectrum([3.0, 1.0], [1, 1]), EigenspaceSelection(1, 1),
            n=100, delta_hat=0.1, g_norm=0.1, l_star_j=1.0,
        )
        degenerate_ok = False
    except DegenerateNormalizer:
        degenerate_ok = True
    ok = _verdict(
        10, "budget-calculators", linear_ok and repro_ok and degenerate_ok
    )
    assert linear_ok, "linear functional produced a nonzero nonlinearity term"
    assert repro_ok, "budget totals are not bit-reproducible"
    assert degenerate_ok, "degenerate normalizer did not raise"
    assert ok
