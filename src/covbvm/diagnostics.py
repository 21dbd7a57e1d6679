"""Contraction/flatness estimation, distribution distances and error budgets.

The total-variation consequences of the theory are checked through scalar
pushforwards: the Kolmogorov distance over a battery of statistics is a lower
bound on the total variation between matrix-variate posterior laws.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .datagen import DatasetSpec, derived_rng, derived_seed, sample_dataset
from .errors import DegenerateFunctional, DegenerateNormalizer, UndefinedFlatness
from .posterior import PosteriorDraws, PriorSpec, default_sampler, localized_posterior_mass
from .spd import spectral_norm, sym
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
    points) or a vectorized analytic CDF callable.  The merged jump points are
    taken as each law's own sorted values, one pass per law: a search for
    sorted keys runs faster than one for the unsorted merged grid, and the
    maximum is over the same points.
    """
    if isinstance(b, EmpiricalLaw):
        return float(max(np.max(np.abs(a.cdf(x) - b.cdf(x))) for x in (a.values, b.values)))
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


def statistic_columns(draws, statistics: dict) -> np.ndarray:
    """The (M, S) array of each statistic at each of M draws, one column per
    statistic.

    ``draws`` is a ``PosteriorDraws``, reduced through ``PosteriorDraws.map``
    so that streamed draws never form their (M, p, p) stack, or a stack of
    matrices.  Each statistic maps a stack of matrices to one value per
    matrix.
    """

    def columns(mats):
        return np.stack([np.asarray(fn(mats), dtype=np.float64) for fn in statistics.values()],
                        axis=-1)

    if isinstance(draws, PosteriorDraws):
        return np.concatenate(draws.map(columns))
    return columns(np.asarray(draws))


def max_kolmogorov_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max Kolmogorov distance between the laws of matching columns of two
    (M, S) arrays of statistics (``statistic_columns``)."""
    return max(kolmogorov_distance(EmpiricalLaw(a[:, j]), EmpiricalLaw(b[:, j]))
               for j in range(a.shape[1]))


def tv_distance_over_statistics(a, b, statistics: dict | None = None) -> float:
    """Max Kolmogorov distance over a dict of scalar statistics of two draw sets.

    This is a lower bound on the total variation distance between the
    matrix-variate laws; full TV is not estimable from samples.  Each draw
    set is reduced to its ``statistic_columns``.
    """
    if statistics is None:
        statistics = default_statistic_battery()
    if not statistics:
        raise ValueError("need at least one statistic")
    return max_kolmogorov_distance(
        statistic_columns(a, statistics), statistic_columns(b, statistics)
    )


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
    data replications.  Each replication's mass at every grid radius is
    ``posterior.localized_posterior_mass`` of the grid: one
    ``spd.vicinity_mask`` call per part of the draws for the whole grid, so
    most draws are decided by norm bounds, without eigenvalues, and every
    count is the one the draws' relative deviations give.  Returns inf,
    without a warning, when no grid radius holds the mass; the caller decides
    whether that is an error.
    """
    delta_grid = np.asarray(delta_grid, dtype=np.float64)
    if len(delta_grid) == 0 or np.any(np.diff(delta_grid) <= 0):
        raise ValueError("delta grid must be non-empty and increasing")
    if draws_per_point < MIN_CONTRACTION_DRAWS:
        raise ValueError(f"need at least {MIN_CONTRACTION_DRAWS} draws per grid point")
    if replications < 1:
        raise ValueError("need at least one replication")
    level = 1.0 - 1.0 / data_spec.n
    success = np.zeros(len(delta_grid), dtype=np.int64)
    for k in range(replications):
        dataset = sample_dataset(data_spec, seed_branch=900_000 + k)
        sampler = default_sampler(prior, dataset, seed=derived_seed(seed, k))
        success += localized_posterior_mass(sampler, delta_grid, draws_per_point) >= level
    needed = math.ceil(level * replications)
    hits = np.nonzero(success >= needed)[0]
    if len(hits) == 0:
        return math.inf
    return float(delta_grid[hits[0]])


def flatness_profile(
    prior: PriorSpec,
    model: SpectralModel,
    delta_grid,
    probe_count: int,
    seed: int = 0,
) -> np.ndarray:
    """Monte Carlo lower bound of the worst relative prior-density deviation
    over the vicinity of the ground truth, at each radius of the grid, with
    the same probes.

    Half the probes lie on the boundary, at the full radius, and half inside,
    at half of it; a probe that is not SPD is rejected.  The probe directions
    depend only on the seed, so they are drawn once and each radius scales
    the same ones (nested sup estimates).
    """
    if any(delta <= 0 for delta in delta_grid):
        raise ValueError("delta must be positive")
    if probe_count < 1:
        raise ValueError("need at least one probe")
    base = prior.log_density(model.sigma_star.entries)
    if not np.isfinite(base):
        raise UndefinedFlatness("prior density vanishes at the ground truth")
    rng = derived_rng(seed, 777)
    p = model.dim
    directions = []
    for _ in range(probe_count):
        h = sym(rng.standard_normal((p, p)))
        h /= spectral_norm(h)
        directions.append(h)
    snorm = model.sigma_star.spectral_norm
    center = model.sigma_star.entries
    worst = np.zeros(len(delta_grid))
    for k, delta in enumerate(delta_grid):
        for i, h in enumerate(directions):
            factor = 1.0 if i % 2 == 0 else 0.5
            probe = center + factor * delta * snorm * h
            if np.linalg.eigvalsh(probe)[0] <= 0:
                continue  # non-SPD probe rejected
            lr = prior.log_density(probe) - base
            ratio = math.exp(lr) if np.isfinite(lr) else 0.0
            worst[k] = max(worst[k], abs(ratio - 1.0))
    return worst


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
    p = model.dim
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
