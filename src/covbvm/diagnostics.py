"""Contraction/flatness estimation, distribution distances and error budgets.

The total-variation consequences of the theory are checked through scalar
pushforwards: the Kolmogorov distance over a battery of statistics is a lower
bound on the total variation between matrix-variate posterior laws.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .datagen import DatasetSpec, derived_rng, derived_seed, sample_dataset
from .errors import DegenerateFunctional, DegenerateNormalizer, UndefinedFlatness
from .posterior import (
    PosteriorDraws,
    PriorSpec,
    default_sampler,
    per_draw,
    sample_posterior,
)
from .spd import relative_deviation, spectral_norm, sym
from .spectral import EigenspaceSelection, SpectralModel, build_gamma, selection_gap

MIN_LAW_SIZE = 100
# the fewest posterior draws per grid point that estimate_contraction_radius takes
MIN_CONTRACTION_DRAWS = 1000


@dataclasses.dataclass(frozen=True)
class EmpiricalLaw:
    """Sorted Monte Carlo sample of a scalar statistic."""

    values: np.ndarray

    def __post_init__(self):
        v = np.sort(np.asarray(self.values, dtype=np.float64))
        if len(v) < MIN_LAW_SIZE:
            raise ValueError(f"need at least {MIN_LAW_SIZE} values, got {len(v)}")
        if not np.all(np.isfinite(v)):
            raise ValueError("law contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)

    def cdf(self, x) -> np.ndarray:
        return np.searchsorted(self.values, x, side="right") / len(self.values)


def kolmogorov_distance(a: EmpiricalLaw, b) -> float:
    """Exact sup distance between CDFs.

    b may be another empirical law (two-sample, evaluated at the merged jump
    points) or a vectorized analytic CDF callable.
    """
    if isinstance(b, EmpiricalLaw):
        grid = np.concatenate([a.values, b.values])
        return float(np.max(np.abs(a.cdf(grid) - b.cdf(grid))))
    x = a.values
    m = len(x)
    f = np.asarray(b(x), dtype=np.float64)
    upper = np.arange(1, m + 1) / m
    lower = np.arange(0, m) / m
    return float(np.max(np.maximum(f - lower, upper - f)))


def ks_resolution(draws: int) -> float:
    """Half-width sqrt(log(2/alpha) / (2M)) at alpha = 0.05.

    By the DKW inequality, the KS distance of M i.i.d. draws to their own law
    exceeds it with probability at most alpha; the reference laws are exact,
    so the posterior draws are the only Monte Carlo source in a reported KS.
    By Hoeffding's inequality, so does the error of a proportion over M
    independent trials, such as an empirical coverage over M replications."""
    return math.sqrt(math.log(2.0 / 0.05) / (2.0 * draws))


def default_statistic_battery() -> dict:
    """Scalar pushforwards used for the TV lower bound."""
    return {
        "trace": lambda mats: np.trace(mats, axis1=-2, axis2=-1),
        "spectral": lambda mats: spectral_norm(mats),
        "entry_11": lambda mats: mats[..., 0, 0],
    }


def tv_distance_over_statistics(a, b, statistics: dict | None = None) -> float:
    """Max Kolmogorov distance over a dict of scalar statistics of two draw sets.

    This is a lower bound on the total variation distance between the
    matrix-variate laws; full TV is not estimable from samples.
    """
    if statistics is None:
        statistics = default_statistic_battery()
    if not statistics:
        raise ValueError("need at least one statistic")
    mats_a = a.matrices if isinstance(a, PosteriorDraws) else np.asarray(a)
    mats_b = b.matrices if isinstance(b, PosteriorDraws) else np.asarray(b)
    best = 0.0
    for fn in statistics.values():
        law_a = EmpiricalLaw(np.asarray(fn(mats_a), dtype=np.float64))
        law_b = EmpiricalLaw(np.asarray(fn(mats_b), dtype=np.float64))
        best = max(best, kolmogorov_distance(law_a, law_b))
    return best


# ---------------------------------------------------------------------------
# Contraction and flatness


def estimate_contraction_radius(
    prior: PriorSpec,
    data_spec: DatasetSpec,
    delta_grid,
    draws_per_point: int,
    replications: int,
    seed: int = 0,
) -> float:
    """Smallest grid radius whose vicinity holds posterior mass 1 - 1/n.

    The requirement must hold in at least ceil((1 - 1/n) R) of R independent
    data replications.  Returns inf (with a warning) when the grid is exhausted.
    """
    delta_grid = np.asarray(delta_grid, dtype=np.float64)
    if np.any(np.diff(delta_grid) <= 0):
        raise ValueError("delta grid must be increasing")
    if draws_per_point < MIN_CONTRACTION_DRAWS:
        raise ValueError(f"need at least {MIN_CONTRACTION_DRAWS} draws per grid point")
    n = data_spec.n
    model = data_spec.model
    level = 1.0 - 1.0 / n
    success = np.zeros(len(delta_grid), dtype=np.int64)
    for k in range(replications):
        dataset = sample_dataset(data_spec, seed_branch=900_000 + k)
        sampler = default_sampler(prior, dataset, seed=derived_seed(seed, k))
        draws = sample_posterior(sampler, draws_per_point)
        dev = per_draw(lambda block: relative_deviation(block, model.sigma_star), draws)
        mass = np.mean(dev[:, None] <= delta_grid[None, :], axis=0)
        success += mass >= level
    needed = math.ceil(level * replications)
    hits = np.nonzero(success >= needed)[0]
    if len(hits) == 0:
        warnings.warn("contraction grid exhausted; returning inf", RuntimeWarning)
        return math.inf
    return float(delta_grid[hits[0]])


def _flatness_probes(model: SpectralModel, delta: float, probe_count: int, seed: int):
    """Half boundary probes at the full radius, half interior at half radius.

    Probe directions depend only on the seed, so grids of radii reuse scaled
    versions of the same probes (nested sup estimates).
    """
    rng = derived_rng(seed, 777)
    p = model.dim
    snorm = model.sigma_star.spectral_norm
    center = model.sigma_star.entries
    for i in range(probe_count):
        h = sym(rng.standard_normal((p, p)))
        h /= spectral_norm(h)
        factor = 1.0 if i % 2 == 0 else 0.5
        probe = center + factor * delta * snorm * h
        if np.linalg.eigvalsh(probe)[0] <= 0:
            continue  # non-SPD probe rejected
        yield probe


def estimate_flatness(
    prior: PriorSpec,
    model: SpectralModel,
    delta: float,
    probe_count: int,
    seed: int = 0,
) -> float:
    """Monte Carlo lower bound of the worst relative prior-density deviation
    over the vicinity of the ground truth."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    base = prior.log_density(model.sigma_star.entries)
    if not np.isfinite(base):
        raise UndefinedFlatness("prior density vanishes at the ground truth")
    worst = 0.0
    for probe in _flatness_probes(model, delta, probe_count, seed):
        lr = prior.log_density(probe) - base
        ratio = math.exp(lr) if np.isfinite(lr) else 0.0
        worst = max(worst, abs(ratio - 1.0))
    return worst


def flatness_profile(
    prior: PriorSpec,
    model: SpectralModel,
    delta_grid,
    probe_count: int,
    seed: int = 0,
) -> np.ndarray:
    """estimate_flatness at each radius of the grid, with the same probes."""
    return np.array(
        [estimate_flatness(prior, model, d, probe_count, seed) for d in delta_grid]
    )


# ---------------------------------------------------------------------------
# Error budgets


@dataclasses.dataclass(frozen=True)
class ErrorBudget:
    context: str
    terms: dict
    total: float

    def to_json_dict(self) -> dict:
        return {"context": self.context, "terms": dict(self.terms), "total": self.total}


def budget_posterior_independence(rho: float, rho_w: float, n: int) -> ErrorBudget:
    """Prior-independence budget: flatness of both priors plus 1/n."""
    if rho < 0 or rho_w < 0:
        raise ValueError("flatness terms must be nonnegative")
    terms = {"rho_bar": float(rho), "rho_w_bar": float(rho_w), "one_over_n": 1.0 / n}
    return ErrorBudget("posterior_independence", terms, sum(terms.values()))


def budget_functional(
    model: SpectralModel,
    functional,
    n: int,
    delta_w: float,
    delta_hat: float,
    delta_tilde: float,
    g_norm_scaled: float,
) -> ErrorBudget:
    """Functional budget: nonlinearity term plus Gaussian-approximation term.

    g_norm_scaled is the spectral norm of the whitened prior scale matrix.
    """
    norm2 = functional.normalizer / math.sqrt(2.0)
    if norm2 <= 0:
        raise DegenerateFunctional("zero functional normalizer")
    c_phi = functional.c_phi or 0.0
    snorm = model.sigma_star.spectral_norm
    r = functional.rank_r
    logn = math.log(n)
    diamond_nl = math.sqrt(n) * (delta_w + delta_hat) ** 2 * c_phi * snorm**2 / norm2
    diamond_ga = (
        math.sqrt(r**2 + r * logn) * delta_tilde
        + math.sqrt((r**3 + r**2 * logn) / n)
        + math.sqrt(r / n) * g_norm_scaled
    )
    terms = {"diamond_nl": diamond_nl, "diamond_ga": diamond_ga}
    return ErrorBudget("functional", terms, diamond_nl + diamond_ga)


def budget_projector(
    model: SpectralModel,
    sel: EigenspaceSelection,
    n: int,
    p: int,
    delta_hat: float,
    g_norm: float,
    l_star_j: float,
) -> ErrorBudget:
    """Projector budget with its three raw terms and the limit-law normalizer.

    l_star_j has no computed default and must be supplied by the caller.
    """
    weights = build_gamma(model, sel)
    gap = selection_gap(model, sel)
    m = sel.total_mult(model)
    eigs = model.sigma_star.eigenvalues
    snorm = model.sigma_star.spectral_norm
    tr = float(np.sum(eigs))
    tr_sq = float(np.sum(eigs**2))
    logn = math.log(n)
    d1 = (
        (logn + p)
        * ((1.0 + l_star_j / gap) * math.sqrt(m) * snorm / gap + m)
        * snorm
        + m * g_norm
    ) * (m * snorm / gap**2) * math.sqrt((logn + p) / n)
    d2 = snorm * min(m * snorm**2, tr_sq) / gap**3 * p * (delta_hat + p / n)
    d3 = m**1.5 * snorm * tr / gap**2 * math.sqrt(logn / n)
    frobenius = float(np.sqrt(np.sum(weights**2)))
    spectral = float(np.max(weights))
    denom_sq = frobenius**2 - spectral**2
    if denom_sq <= 0:
        raise DegenerateNormalizer(
            "limit-law weight vector too short to normalize the budget"
        )
    normalizer = math.sqrt(frobenius) * denom_sq**0.25
    terms = {
        "diamond_1": d1,
        "diamond_2": d2,
        "diamond_3": d3,
        "normalizer": normalizer,
    }
    total = (d1 + d2 + d3) / normalizer + 1.0 / n
    return ErrorBudget("projector", terms, total)
