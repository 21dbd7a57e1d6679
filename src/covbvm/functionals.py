"""Approximately linear functionals of covariance matrices and their
standardized posterior statistics, including the rank-adjusted pipeline."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .datagen import Dataset, dataset_from_samples
from .diagnostics import EmpiricalLaw
from .errors import BadDimension, DegenerateFunctional
from .posterior import (
    InverseWishartPrior,
    PosteriorDraws,
    PriorSpec,
    default_sampler,
    sample_posterior,
)
from .spd import SpdMatrix, sym
from .spectral import SpectralModel

_RANK_RTOL = 1e-10


@dataclasses.dataclass(frozen=True)
class FunctionalSpec:
    """A functional described by its linearization matrix and spectral factors.

    phi is the linearization matrix; u/psi give its thin eigenfactorization,
    limit_v/limit_d the factors of S^1/2 phi S^1/2 around the ground truth S.
    The normalizer is sqrt(2) times the Frobenius norm of limit_d.
    """

    kind: str
    phi: np.ndarray
    rank_r: int
    c_phi: float | None
    u: np.ndarray  # (p, r) orthonormal columns
    psi: np.ndarray  # (r,) eigenvalues of phi
    limit_v: np.ndarray  # (p, r) orthonormal columns
    limit_d: np.ndarray  # (r,)
    normalizer: float
    cluster_block: np.ndarray | None = None  # descending-order eigenvalue positions


def _thin_factors(mat: np.ndarray):
    """Nonzero eigenpairs of a symmetric matrix, rank thresholded."""
    w, v = np.linalg.eigh(sym(mat))
    scale = np.max(np.abs(w))
    keep = np.abs(w) > _RANK_RTOL * max(scale, np.finfo(float).tiny)
    return w[keep], v[:, keep]


def _normalizer(cov: SpdMatrix, phi: np.ndarray):
    """sqrt(2) ||D||_F, with (D, V) the thin factors of C^1/2 phi C^1/2.

    Returns (normalizer, D, V); C is the covariance the limit is taken at.
    """
    half = cov.sqrtm()
    d, v = _thin_factors(half @ phi @ half)
    return math.sqrt(2.0) * float(np.sqrt(np.sum(d**2))), d, v


def _build(model: SpectralModel, kind: str, phi: np.ndarray, c_phi, block=None):
    phi = sym(np.asarray(phi, dtype=np.float64))
    if phi.shape != (model.dim, model.dim):
        raise BadDimension(
            f"functional matrix shape {phi.shape} does not match dim {model.dim}"
        )
    psi, u = _thin_factors(phi)
    if len(psi) == 0:
        raise DegenerateFunctional("linearization matrix is numerically zero")
    normalizer, d, v = _normalizer(model.sigma_star, phi)
    return FunctionalSpec(
        kind, phi, len(psi), c_phi, u, psi, v, d, normalizer, block
    )


def linear_functional(model: SpectralModel, phi: np.ndarray) -> FunctionalSpec:
    return _build(model, "linear", phi, 0.0)


def trace_functional(model: SpectralModel) -> FunctionalSpec:
    return _build(model, "trace", np.eye(model.dim), 0.0)


def entry_functional(model: SpectralModel, i: int, j: int) -> FunctionalSpec:
    phi = np.zeros((model.dim, model.dim))
    phi[i, j] += 0.5
    phi[j, i] += 0.5
    return _build(model, "entry", phi, 0.0)


def eigenvalue_cluster_functional(model: SpectralModel, s: int) -> FunctionalSpec:
    """Mean of the eigenvalues in group s (1-based), linearized by P_s / m_s.

    The linearization constant is 2 e^2 over the group's spectral gap.
    """
    if not 1 <= s <= model.num_groups:
        raise BadDimension(f"group {s} outside 1..{model.num_groups}")
    mult = int(model.group_mults[s - 1])
    phi = model.group_projectors[s - 1] / mult
    gap = float(model.gaps[s - 1])
    c_phi = 2.0 * math.e**2 / gap
    block = model.group_index_sets[s - 1]
    return _build(model, "eigenvalue_cluster", phi, c_phi, block)


def log_det_functional(model: SpectralModel) -> FunctionalSpec:
    # approximately linear; no linearization constant is available
    return _build(model, "log_det", model.sigma_star.inv(), None)


def functional_from_json(model: SpectralModel, doc: dict) -> FunctionalSpec:
    kind = doc["kind"]
    if kind == "trace":
        return trace_functional(model)
    if kind == "entry":
        return entry_functional(model, doc["i"], doc["j"])
    if kind == "eigenvalue_cluster":
        return eigenvalue_cluster_functional(model, doc["s"])
    if kind == "log_det":
        return log_det_functional(model)
    if kind == "linear":
        return linear_functional(model, np.asarray(doc["phi"]))
    raise BadDimension(f"unknown functional kind {kind!r}")


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(functional: FunctionalSpec, sigma: SpdMatrix | np.ndarray) -> float:
    a = sigma.entries if isinstance(sigma, SpdMatrix) else np.asarray(sigma)
    return float(evaluate_batch(functional, a[None])[0])


def evaluate_batch(functional: FunctionalSpec, mats: np.ndarray) -> np.ndarray:
    if functional.kind == "eigenvalue_cluster":
        eigs_desc = np.linalg.eigvalsh(mats)[:, ::-1]
        return np.mean(eigs_desc[:, functional.cluster_block], axis=1)
    if functional.kind == "log_det":
        return np.linalg.slogdet(mats)[1]
    return np.einsum("ij,mij->m", functional.phi, mats)


def linearization_residual(
    functional: FunctionalSpec, sigma_tilde, model: SpectralModel
) -> float:
    """Residual of the first-order expansion around the ground truth."""
    a = (
        sigma_tilde.entries
        if isinstance(sigma_tilde, SpdMatrix)
        else np.asarray(sigma_tilde)
    )
    star = model.sigma_star.entries
    lin = float(np.sum(functional.phi * (a - star)))
    return evaluate(functional, a) - evaluate(functional, star) - lin


# ---------------------------------------------------------------------------
# Standardized statistics


@dataclasses.dataclass(frozen=True)
class StandardizedStatistic:
    law: EmpiricalLaw
    normalizer: float
    kind: str


def standardized_statistic(
    functional: FunctionalSpec,
    draws: PosteriorDraws | np.ndarray,
    data: Dataset,
    plugin_normalizer: bool = False,
) -> StandardizedStatistic:
    """Centered and scaled law of the functional over posterior draws.

    The default normalizer uses the ground-truth covariance as in the limit
    theorem; plugin_normalizer swaps in the sample covariance for coverage-style
    experiments.
    """
    mats = draws.matrices if isinstance(draws, PosteriorDraws) else np.asarray(draws)
    norm = functional.normalizer
    if plugin_normalizer:
        norm = _normalizer(data.sample_cov, functional.phi)[0]
    if norm <= 0:
        raise DegenerateFunctional("zero statistic normalizer")
    center = evaluate(functional, data.sample_cov)
    values = math.sqrt(data.n) * (evaluate_batch(functional, mats) - center) / norm
    return StandardizedStatistic(EmpiricalLaw(values), norm, functional.kind)


def rank_adjusted_pipeline(
    functional: FunctionalSpec,
    data: Dataset,
    low_dim_prior: PriorSpec,
    count: int,
    seed: int = 0,
) -> StandardizedStatistic:
    """Project the data through the functional's eigenbasis and run the
    low-dimensional posterior; the standardized law matches the full-space one.
    """
    if data.spec is None:
        raise BadDimension("rank-adjusted pipeline needs a dataset carrying its model")
    p = data.dim
    r = functional.rank_r
    if r >= p:
        raise BadDimension(f"rank {r} must be below the ambient dimension {p}")
    prior_dim = getattr(low_dim_prior, "dim", r)
    if prior_dim != r:
        raise BadDimension(f"low-dimensional prior has dim {prior_dim}, need {r}")
    u = functional.u
    reduced = dataset_from_samples(data.samples @ u)
    xi_star = SpdMatrix(u.T @ data.spec.model.sigma_star.entries @ u)
    norm = _normalizer(xi_star, np.diag(functional.psi))[0]
    if norm <= 0:
        raise DegenerateFunctional("zero rank-adjusted normalizer")
    sampler = default_sampler(low_dim_prior, reduced, seed=seed)
    xi_draws = sample_posterior(sampler, count)
    center = float(np.sum(np.diag(functional.psi) * np.diag(u.T @ data.sample_cov.entries @ u)))
    stat = np.einsum("i,mii->m", functional.psi, xi_draws.matrices)
    values = math.sqrt(data.n) * (stat - center) / norm
    return StandardizedStatistic(EmpiricalLaw(values), norm, "rank_adjusted:" + functional.kind)


def reduced_inverse_wishart_prior(
    functional: FunctionalSpec, prior: InverseWishartPrior
) -> InverseWishartPrior:
    """Push a full-space conjugate prior through the functional's eigenbasis.

    The projection property of the inverse Wishart makes the resulting
    low-dimensional posterior law of the statistic exactly match the
    full-space one.
    """
    u = functional.u
    return InverseWishartPrior(
        SpdMatrix(u.T @ prior.scale.entries @ u), b=prior.b
    )
