"""Approximately linear functionals of covariance matrices and their
standardized posterior statistics, including the rank-adjusted pipeline."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .datagen import Dataset, dataset_from_samples
from .diagnostics import EmpiricalLaw
from .errors import BadDimension, ConfigError, DegenerateFunctional
from .posterior import (
    InverseWishartPrior,
    PosteriorDraws,
    PriorSpec,
    default_sampler,
    sample_posterior,
)
from .spd import SpdMatrix, sym, upper_factors
from .spectral import SpectralModel

_RANK_RTOL = 1e-10


@dataclasses.dataclass(frozen=True)
class FunctionalSpec:
    """A functional described by its linearization matrix and spectral factors.

    phi is the linearization matrix; u/psi give its thin eigenfactorization,
    limit_v the eigenvectors of S^1/2 phi S^1/2 around the ground truth S, and
    the normalizer is sqrt(2) times the Frobenius norm of its eigenvalues.
    """

    kind: str
    phi: np.ndarray
    rank_r: int
    c_phi: float | None
    u: np.ndarray  # (p, r) orthonormal columns
    psi: np.ndarray  # (r,) eigenvalues of phi
    limit_v: np.ndarray  # (p, r) orthonormal columns
    normalizer: float
    cluster_block: np.ndarray | None = None  # descending-order eigenvalue positions


def _thin_factors(mat: np.ndarray):
    """Nonzero eigenpairs of a symmetric matrix, rank thresholded."""
    w, v = np.linalg.eigh(sym(mat))
    scale = np.max(np.abs(w))
    keep = np.abs(w) > _RANK_RTOL * max(scale, np.finfo(float).tiny)
    return w[keep], v[:, keep]


def _build(model: SpectralModel, kind: str, phi: np.ndarray, c_phi, block=None):
    phi = sym(np.asarray(phi, dtype=np.float64))
    if phi.shape != (model.dim, model.dim):
        raise BadDimension(
            f"functional matrix shape {phi.shape} does not match dim {model.dim}"
        )
    psi, u = _thin_factors(phi)
    if len(psi) == 0:
        raise DegenerateFunctional("linearization matrix is numerically zero")
    half = model.sigma_star.sqrtm()
    d, v = _thin_factors(half @ phi @ half)
    normalizer = math.sqrt(2.0) * float(np.sqrt(np.sum(d**2)))
    if normalizer <= 0:
        raise DegenerateFunctional("zero statistic normalizer")
    return FunctionalSpec(kind, phi, len(psi), c_phi, u, psi, v, normalizer, block)


def linear_functional(model: SpectralModel, phi: np.ndarray) -> FunctionalSpec:
    return _build(model, "linear", phi, 0.0)


def trace_functional(model: SpectralModel) -> FunctionalSpec:
    return _build(model, "trace", np.eye(model.dim), 0.0)


def entry_functional(model: SpectralModel, i: int, j: int) -> FunctionalSpec:
    """(Sigma_ij + Sigma_ji) / 2, with 0-based indices below the dimension."""
    for index in (i, j):
        if not 0 <= index < model.dim:
            raise BadDimension(f"entry index {index} outside 0..{model.dim - 1}")
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
    """The functional that a config's ``functional`` section describes.

    A missing field, an unknown kind, or an index or matrix that does not fit
    the model raises ConfigError naming the config path.
    """

    def field(key):
        if key not in doc:
            raise ConfigError(f"config.functional: missing required field {key!r}")
        return doc[key]

    kind = field("kind")
    builders = {
        "trace": lambda: trace_functional(model),
        "entry": lambda: entry_functional(model, field("i"), field("j")),
        "eigenvalue_cluster": lambda: eigenvalue_cluster_functional(model, field("s")),
        "log_det": lambda: log_det_functional(model),
        "linear": lambda: linear_functional(model, np.asarray(field("phi"))),
    }
    if kind not in builders:
        raise ConfigError(f"config.functional.kind: unknown functional kind {kind!r}")
    try:
        return builders[kind]()
    except BadDimension as exc:
        raise ConfigError(f"config.functional: {exc}") from exc


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(functional: FunctionalSpec, sigma: SpdMatrix | np.ndarray) -> float:
    """The functional at one SPD matrix, through its Cholesky factor.

    Raises NotPositiveDefinite if sigma has no Cholesky factor.
    """
    a = sigma.entries if isinstance(sigma, SpdMatrix) else np.asarray(sigma, dtype=np.float64)
    return float(evaluate_batch(functional, upper_factors(a)[None])[0])


def evaluate_batch(functional: FunctionalSpec, factors: np.ndarray) -> np.ndarray:
    """The functional at Sigma = X^T X for each triangular X of an (m, p, p) stack.

    trace: ||X||_F^2; entry and linear: sum_r psi_r ||X u_r||^2 over the thin
    factors of phi; log_det: 2 sum_i log|X_ii|; eigenvalue_cluster: the mean
    of the cluster's eigenvalues of X^T X.
    """
    if functional.kind == "trace":
        flat = factors.reshape(len(factors), -1)
        return np.einsum("mk,mk->m", flat, flat)
    if functional.kind == "log_det":
        return 2.0 * np.log(np.abs(np.diagonal(factors, axis1=1, axis2=2))).sum(axis=1)
    if functional.kind == "eigenvalue_cluster":
        eigs_desc = np.linalg.eigvalsh(factors.swapaxes(1, 2) @ factors)[:, ::-1]
        return np.mean(eigs_desc[:, functional.cluster_block], axis=1)
    xu = factors @ functional.u
    return np.einsum("mpr,mpr->mr", xu, xu) @ functional.psi


def functional_values(functional: FunctionalSpec, draws: PosteriorDraws) -> np.ndarray:
    """The functional at every posterior draw, reduced block by block on the
    draws' factors (``PosteriorDraws.factor_blocks``); no Sigma block is formed
    for streamed draws."""
    return np.concatenate([evaluate_batch(functional, x) for x in draws.factor_blocks()])


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


def standardized_statistic(
    functional: FunctionalSpec,
    draws: PosteriorDraws,
    data: Dataset,
) -> EmpiricalLaw:
    """Centered and scaled law of the functional over posterior draws, which
    are reduced block by block.

    The normalizer is ``functional.normalizer``, which uses the ground-truth
    covariance, as in the limit theorem.
    """
    center = evaluate(functional, data.sample_cov)
    stat = functional_values(functional, draws)
    return EmpiricalLaw(math.sqrt(data.n) * (stat - center) / functional.normalizer)


def rank_adjusted_pipeline(
    functional: FunctionalSpec,
    data: Dataset,
    low_dim_prior: PriorSpec,
    count: int,
    seed: int = 0,
) -> EmpiricalLaw:
    """Project the data through the functional's eigenbasis and run the
    low-dimensional posterior; the standardized law matches the full-space one.

    The statistic is Tr(Psi Xi) over draws Xi of the reduced posterior, and it
    shares the full-space normalizer: with Xi* = U^T S U at the ground truth S,
    Tr((Psi Xi*)^2) = Tr((phi S)^2).
    """
    p = data.dim
    r = functional.rank_r
    if r >= p:
        raise BadDimension(f"rank {r} must be below the ambient dimension {p}")
    prior_dim = getattr(low_dim_prior, "dim", r)
    if prior_dim != r:
        raise BadDimension(f"low-dimensional prior has dim {prior_dim}, need {r}")
    reduced = dataset_from_samples(data.samples @ functional.u)
    sampler = default_sampler(low_dim_prior, reduced, seed=seed)
    xi_draws = sample_posterior(sampler, count)
    # Tr(Psi Xi) is the linear functional whose thin factors are (I_r, psi);
    # evaluation reads only those and the shared normalizer
    xi_functional = dataclasses.replace(
        functional, kind="linear", phi=np.diag(functional.psi), u=np.eye(r), cluster_block=None
    )
    return standardized_statistic(xi_functional, xi_draws, reduced)


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
