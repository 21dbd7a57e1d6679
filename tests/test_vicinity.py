"""Vicinity membership against its eigvalsh oracle.

``spd.vicinity_mask`` decides most matrices by norm bounds and sends the rest
to ``relative_deviation``.  Every decision must be the one a full ``eigvalsh``
makes, and so must every output built from the decisions.
"""

import json
import math

import numpy as np
import pytest

from covbvm import (
    DatasetSpec,
    SpdMatrix,
    UniformVicinityPrior,
    default_inverse_wishart_prior,
    default_sampler,
    estimate_contraction_radius,
    localize_draws,
    localized_posterior_mass,
    model_from_spectrum,
    sample_dataset,
    sample_inverse_wishart,
    sample_posterior,
    tv_distance_over_statistics,
)
from covbvm import spd
from covbvm.cli import run
from covbvm.datagen import derived_seed
from covbvm.diagnostics import default_statistic_battery
from covbvm.posterior import _CHUNK
from covbvm.spd import sym, vicinity_mask

EPS = np.finfo(np.float64).eps


def eigvalsh_deviation(mats, center: SpdMatrix) -> np.ndarray:
    """||A - center||_2 / ||center||_2 from a full eigvalsh of each matrix."""
    eigs = np.linalg.eigvalsh(np.asarray(mats) - center.entries)
    return np.max(np.abs(eigs), axis=-1) / center.spectral_norm


def eigvalsh_mask(mats, center: SpdMatrix, delta) -> np.ndarray:
    dev = eigvalsh_deviation(mats, center)
    return dev[:, None] <= delta if np.ndim(delta) else dev <= delta


@pytest.fixture
def fallback(monkeypatch):
    """Matrices per ``spd.spectral_norm`` call, the eigvalsh that
    ``vicinity_mask`` falls back to through ``relative_deviation``."""
    seen = []
    inner = spd.spectral_norm

    def counting(a):
        seen.append(int(np.prod(np.shape(a)[:-2])))
        return inner(a)

    monkeypatch.setattr(spd, "spectral_norm", counting)
    return seen


def random_center(p: int, seed: int) -> SpdMatrix:
    g = np.random.default_rng(seed).standard_normal((p, 2 * p))
    return SpdMatrix(g @ g.T / (2 * p) + np.eye(p))


def stack_around(center: SpdMatrix, delta: float, count: int, seed: int) -> np.ndarray:
    """Symmetric matrices at relative deviations spread over [0, 2 delta]."""
    rng = np.random.default_rng(seed)
    p = center.dim
    h = sym(rng.standard_normal((count, p, p)))
    h /= np.linalg.norm(h, 2, axis=(1, 2))[:, None, None]
    size = rng.uniform(0.0, 2.0 * delta, count) * center.spectral_norm
    return center.entries + size[:, None, None] * h


class TestMembership:
    @pytest.mark.parametrize("p", [2, 3, 6, 20])
    @pytest.mark.parametrize("delta", [0.15, np.array([0.05, 0.1, 0.15, 0.2, 0.3])],
                             ids=["radius", "grid"])
    def test_seeded_stack_matches_eigvalsh(self, fallback, p, delta):
        center = random_center(p, p)
        mats = stack_around(center, 0.15, 3000, seed=10 + p)
        got = vicinity_mask(mats, center, delta)
        assert got.shape == (3000,) + np.shape(delta)
        assert np.array_equal(got, eigvalsh_mask(mats, center, delta))
        # the bounds decide some draws and leave others to eigvalsh
        assert 0 < sum(fallback) < len(mats)

    @pytest.mark.parametrize("p", [2, 3, 6, 20])
    def test_reads_the_lower_triangle_like_eigvalsh(self, p):
        center = random_center(p, p)
        mats = stack_around(center, 0.15, 1000, seed=20 + p)
        mats += np.triu(np.random.default_rng(p).standard_normal(mats.shape), 1)
        grid = np.array([0.1, 0.15, 0.2])
        assert np.array_equal(vicinity_mask(mats, center, grid),
                              eigvalsh_mask(mats, center, grid))

    def test_one_matrix(self):
        center = random_center(3, 0)
        for a in stack_around(center, 0.15, 50, seed=1):
            assert vicinity_mask(a, center, 0.15) == eigvalsh_mask(a[None], center, 0.15)[0]
            assert np.array_equal(vicinity_mask(a, center, [0.1, 0.2]),
                                  eigvalsh_mask(a[None], center, [0.1, 0.2])[0])

    @pytest.mark.parametrize("p", [2, 3, 6, 20])
    def test_boundary_cases_all_fall_back(self, fallback, p):
        center = random_center(p, 100 + p)
        delta = 0.15
        r = delta * center.spectral_norm
        u = np.random.default_rng(p).standard_normal(p)
        u /= np.linalg.norm(u)
        flip = np.zeros(p)
        flip[:2] = [1.0, -1.0]
        cases = []
        for s in (1 - 4 * EPS, 1.0, 1 + 4 * EPS):
            # rank one: ||D||_F = ||D||_2, at the radius
            cases.append(s * r * np.outer(u, u))
            # ||D||_inf = ||D||_2 = largest row norm, at the radius
            cases.append(s * r * np.diag(flip))
        cases.append(np.zeros((p, p)))
        big = np.zeros((p, p))
        big[0, 0] = 1e200  # its squared Frobenius norm overflows
        cases.append(big)
        mats = center.entries + np.stack(cases)
        grid = np.array([delta * (1 - 8 * EPS), delta, delta * (1 + 8 * EPS)])
        for radii in (delta, grid):
            fallback.clear()
            assert np.array_equal(vicinity_mask(mats, center, radii),
                                  eigvalsh_mask(mats, center, radii))
            assert sum(fallback) == len(mats)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrices_lie_outside(self, bad):
        # eigvalsh reads a NaN as zero and raises on an infinity: a NaN on the
        # identity's diagonal read as norm 1.0, inside every vicinity of I
        center = SpdMatrix(np.eye(3))
        entry = np.eye(3)
        entry[0, 0] = bad
        mats = np.stack([np.eye(3), entry, np.full((3, 3), bad)])
        assert np.array_equal(spd.spectral_norm(mats), [1.0, np.nan, np.nan], equal_nan=True)
        assert np.isnan(spd.spectral_norm(entry))
        grid = np.array([0.1, 1.0, 10.0])
        assert vicinity_mask(mats, center, 0.5).tolist() == [True, False, False]
        assert vicinity_mask(mats, center, grid).tolist() == [[True] * 3] + [[False] * 3] * 2
        prior = UniformVicinityPrior(center, 10.0)
        for a in mats[1:]:
            assert not vicinity_mask(a, center, 10.0)
            assert not vicinity_mask(a, center, grid).any()
            assert prior.log_density(a) == -math.inf

    def test_empty_stack(self):
        center = random_center(3, 0)
        assert vicinity_mask(np.empty((0, 3, 3)), center, [0.1, 0.2]).shape == (0, 2)

    def test_vicinity_bench_like_draws_need_no_eigenvalues(self, fallback):
        # the bridge's p = 3, n = 32000, delta = 0.15 setting: conjugate draws
        # and the flat-likelihood rejection proposals all lie well inside
        model = model_from_spectrum([4.0, 1.0], [1, 2], rotation_seed=0)
        n = 32000
        data = sample_dataset(DatasetSpec(model, "gaussian", n, seed=3))
        conj = sample_posterior(
            default_sampler(default_inverse_wishart_prior(3), data, seed=4), 2 * _CHUNK
        )
        flat = sample_inverse_wishart(
            SpdMatrix(n * data.sample_cov.entries), n - 3 - 1.0, _CHUNK, seed=5
        )
        grid = np.array([0.15, 0.25, 0.35])
        for mats in (conj.matrices, flat):
            assert np.all(vicinity_mask(mats, model.sigma_star, 0.15))
            assert np.all(vicinity_mask(mats, model.sigma_star, grid))
        assert fallback == []


def contraction_reference(prior, data_spec, grid, draws, replications, seed):
    """estimate_contraction_radius with every membership by eigvalsh."""
    center = data_spec.model.sigma_star
    level = 1.0 - 1.0 / data_spec.n
    success = np.zeros(len(grid), dtype=np.int64)
    for k in range(replications):
        dataset = sample_dataset(data_spec, seed_branch=900_000 + k)
        sampler = default_sampler(prior, dataset, seed=derived_seed(seed, k))
        mats = sample_posterior(sampler, draws).matrices
        success += np.mean(eigvalsh_mask(mats, center, grid), axis=0) >= level
    hits = np.nonzero(success >= math.ceil(level * replications))[0]
    return float(grid[hits[0]]) if len(hits) else math.inf


def rejection_reference(prior, data, count, seed):
    """The uniform-vicinity rejection sampler with every membership by eigvalsh."""
    scale = SpdMatrix(data.n * data.sample_cov.entries)
    kept, n_kept = [], 0
    while n_kept < count:
        batch = min(max(count - n_kept, _CHUNK), 4 * _CHUNK)
        draws = sample_inverse_wishart(
            scale, data.n - data.dim - 1.0, batch, derived_seed(seed, len(kept))
        )
        kept.append(draws[eigvalsh_mask(draws, prior.center, prior.delta)])
        n_kept += len(kept[-1])
    return np.concatenate(kept)[:count]


class TestOutputsMatchEigvalsh:
    model = model_from_spectrum([2.0, 1.0, 0.7], [1, 1, 1], rotation_seed=0)
    spec = DatasetSpec(model, "gaussian", 400, seed=5)
    # the draws' deviations straddle these radii, so the bounds leave some
    # draws to eigvalsh
    grid = np.geomspace(0.1, 0.4, 9)

    def test_contraction_radius(self, fallback):
        prior = default_inverse_wishart_prior(3)
        got = estimate_contraction_radius(prior, self.spec, self.grid, 1000, 6, seed=2)
        assert sum(fallback) > 0
        want = contraction_reference(prior, self.spec, self.grid, 1000, 6, seed=2)
        assert self.grid[0] < want < math.inf
        assert got == want

    def test_localized_mass(self, fallback):
        prior = default_inverse_wishart_prior(3)
        sampler = default_sampler(prior, sample_dataset(self.spec), seed=7)
        got = localized_posterior_mass(sampler, 0.15, 5000)
        assert sum(fallback) > 0
        mats = sample_posterior(sampler, 5000).matrices
        want = float(np.mean(eigvalsh_mask(mats, self.model.sigma_star, 0.15)))
        assert 0.0 < want < 1.0
        assert got == want

    @pytest.mark.parametrize("given", [None, 0.12], ids=["estimated", "given"])
    def test_bridge_report_bytes(self, tmp_path, given):
        mu, mult = [2.0, 1.0], [1, 2]
        n, draws, reps, seed = 400, 4000, 6, 17
        grid = [0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.7]
        cfg = {
            "schema_version": 1, "command": "bridge", "seed": seed,
            "model": {"mu": mu, "mult": mult, "rotation_seed": 0},
            "data": {"n": n}, "delta_grid": grid,
            "monte_carlo": {"posterior_draws": draws, "replications": reps},
        }
        if given is not None:
            cfg["delta_bar"] = given
        run(cfg, out_override=str(tmp_path))
        # the same run, built from the library with the same seeds
        model = model_from_spectrum(mu, mult, rotation_seed=0)
        data_spec = DatasetSpec(model, "gaussian", n, seed=seed)
        prior = default_inverse_wishart_prior(3)
        if given is None:
            delta_bar = contraction_reference(
                prior, data_spec, np.array(grid), 1000, reps, derived_seed(seed, 0)
            )
            assert grid[0] < delta_bar < math.inf
        else:
            delta_bar = given
        dataset = sample_dataset(data_spec)
        conj = sample_posterior(default_sampler(prior, dataset, seed=seed), draws)
        inside = eigvalsh_mask(conj.matrices, model.sigma_star, delta_bar)
        localized = localize_draws(conj, model.sigma_star, delta_bar)
        assert np.array_equal(localized.matrices, conj.matrices[inside])
        if given is not None:
            # the given radius leaves some conjugate draws outside
            assert 0 < inside.sum() < draws
        uniform = rejection_reference(
            UniformVicinityPrior(model.sigma_star, delta_bar), dataset, draws,
            derived_seed(seed, 1),
        )
        battery = default_statistic_battery()
        report = {
            "command": "bridge",
            "delta_bar": delta_bar,
            "localized_vs_full": tv_distance_over_statistics(localized, conj, battery),
            "uniform_vs_conjugate": tv_distance_over_statistics(uniform, conj, battery),
            "localization_bound": 2.0 / n,
            "n": n,
        }
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert (tmp_path / "report.json").read_text() == text
