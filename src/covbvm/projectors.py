"""Empirical and posterior spectral projectors, the squared-Frobenius
projector statistic, and its chi-square-mixture reference law."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
from scipy import stats

from .datagen import Dataset, DatasetSpec, derived_rng, estimate_delta_hat, sample_dataset
from .diagnostics import EmpiricalLaw, ErrorBudget, budget_projector, kolmogorov_distance
from .posterior import PosteriorDraws, PriorSpec, default_sampler, sample_posterior
from .spd import norms
from .spectral import (
    EigenspaceSelection,
    SpectralModel,
    build_gamma,
    selection_gap,
)
from .errors import PreconditionWarning

_DEGENERATE_GAP_FLOOR = 1e-6


def _descending_eigen(mats: np.ndarray, index_set: np.ndarray):
    """Descending eigenvalues of a matrix or stack, and the eigenvector columns
    at the given descending-order positions."""
    w, v = np.linalg.eigh(mats)
    return w[..., ::-1], v[..., ::-1][..., index_set]


def projector_from_entries(entries: np.ndarray, index_set: np.ndarray) -> np.ndarray:
    """Projector onto the eigenvectors at the given descending-order positions."""
    cols = _descending_eigen(entries, index_set)[1]
    return cols @ cols.T


def empirical_projector(
    dataset: Dataset, model: SpectralModel, sel: EigenspaceSelection
) -> np.ndarray:
    """Projector of the sample covariance over the true index sets."""
    return projector_from_entries(dataset.sample_cov.entries, sel.index_set(model))


@dataclasses.dataclass(frozen=True)
class ProjectorStatistic:
    selection: EigenspaceSelection
    law: EmpiricalLaw
    empirical_projector: np.ndarray
    near_degenerate_count: int = 0


def posterior_projector_statistic(
    model: SpectralModel,
    sel: EigenspaceSelection,
    draws: PosteriorDraws | np.ndarray,
    dataset: Dataset,
) -> ProjectorStatistic:
    """Law of n * squared Frobenius distance between posterior and empirical
    projectors over the true index sets.

    With V (p, m) the orthonormal eigenvector columns of a draw, and V-hat and
    V-hat_perp the selected and the remaining eigenvector columns of the sample
    covariance, ||V V^T - V-hat V-hat^T||_F^2 = 2m - 2||V-hat^T V||_F^2
    = 2||V-hat_perp^T V||_F^2, twice the sum of squared sines of the principal
    angles.  The last form has no cancellation, so a draw sharing the sample
    covariance's eigenvectors gives 0 up to squared rounding, and no p x p
    projector is formed per draw.  Draws whose own spectral gap at the
    selection boundary falls below 1e-6 are kept (the index sets are used
    verbatim) but counted and reported.
    """
    mats = draws.matrices if isinstance(draws, PosteriorDraws) else np.asarray(draws)
    index_set = sel.index_set(model)
    p = model.dim
    vecs = _descending_eigen(dataset.sample_cov.entries, np.arange(p))[1]
    hat, hat_perp = vecs[:, index_set], np.delete(vecs, index_set, axis=1)
    eigs_desc, cols = _descending_eigen(mats, index_set)
    values = 2.0 * dataset.n * np.sum((hat_perp.T @ cols) ** 2, axis=(1, 2))
    # per-draw exterior gap at the selection boundary
    lo_pos, hi_pos = int(index_set[0]), int(index_set[-1])
    gaps = np.full(len(mats), np.inf)
    if lo_pos > 0:
        gaps = np.minimum(gaps, eigs_desc[:, lo_pos - 1] - eigs_desc[:, lo_pos])
    if hi_pos < p - 1:
        gaps = np.minimum(gaps, eigs_desc[:, hi_pos] - eigs_desc[:, hi_pos + 1])
    near_degenerate = int(np.sum(gaps < _DEGENERATE_GAP_FLOOR))
    return ProjectorStatistic(sel, EmpiricalLaw(values), hat @ hat.T, near_degenerate)


# ---------------------------------------------------------------------------
# Reference law


@dataclasses.dataclass(frozen=True)
class ChiSquareMixture:
    """Law of the squared norm of a centered Gaussian with diagonal covariance:
    a positively weighted sum of independent one-degree chi-squares."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if np.any(w <= 0):
            raise ValueError("mixture weights must be positive")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def mean(self) -> float:
        return float(np.sum(self.weights))

    @property
    def variance(self) -> float:
        return 2.0 * float(np.sum(self.weights**2))

    @property
    def equal_weights(self) -> bool:
        w = self.weights
        return bool(np.all(np.abs(w - w[0]) <= 1e-12 * w[0]))

    def sample(self, count: int, seed: int) -> np.ndarray:
        rng = derived_rng(seed, 4242)
        z = rng.standard_normal((count, len(self.weights)))
        return (z**2) @ self.weights

    def cdf(self, x, mc_draws: int = 100_000, seed: int = 0):
        """CDF at x; exact chi-square for equal weights, Monte Carlo otherwise."""
        x = np.asarray(x, dtype=np.float64)
        if self.equal_weights:
            k = len(self.weights)
            return stats.chi2.cdf(x, df=k, scale=float(self.weights[0]))
        if mc_draws < 10_000:
            raise ValueError("need at least 1e4 Monte Carlo draws")
        ref = np.sort(self.sample(mc_draws, seed))
        return np.searchsorted(ref, x, side="right") / mc_draws


# ---------------------------------------------------------------------------
# End-to-end theorem check


@dataclasses.dataclass(frozen=True)
class ProjectorBvmReport:
    ks_distance: float
    budget: ErrorBudget
    precondition_ok: bool
    delta_hat: float
    statistic: ProjectorStatistic

    def to_json_dict(self) -> dict:
        return {
            "ks": self.ks_distance,
            "budget": self.budget.to_json_dict(),
            "precondition_ok": self.precondition_ok,
            "delta_hat": self.delta_hat,
            "near_degenerate_draws": self.statistic.near_degenerate_count,
        }


def projector_bvm_check(
    model: SpectralModel,
    sel: EigenspaceSelection,
    prior: PriorSpec,
    data_spec: DatasetSpec,
    count: int,
    l_star_j: float,
    seed: int = 0,
    reference_draws: int = 100_000,
    concentration_replications: int = 50,
) -> ProjectorBvmReport:
    """Full pipeline: data, posterior, projector statistic, reference mixture.

    The theorem precondition on the concentration radius is checked and
    reported; a violation warns but the run proceeds.
    """
    dataset = sample_dataset(data_spec)
    sampler = default_sampler(prior, dataset, seed=seed)
    draws = sample_posterior(sampler, count)
    stat = posterior_projector_statistic(model, sel, draws, dataset)
    gamma = build_gamma(model, sel)
    mixture = ChiSquareMixture(gamma.diag_weights)
    ks = kolmogorov_distance(
        stat.law, lambda x: mixture.cdf(x, mc_draws=reference_draws, seed=seed)
    )
    delta_hat = estimate_delta_hat(data_spec, concentration_replications).radius
    gap = selection_gap(model, sel)
    model_norms = norms(model.sigma_star)
    bound = min(
        gap / (4.0 * model_norms["spectral"]),
        model_norms["effective_rank"] / model.dim,
    )
    precondition_ok = delta_hat <= bound
    if not precondition_ok:
        warnings.warn(
            f"concentration radius {delta_hat:.3g} exceeds the theorem bound "
            f"{bound:.3g}; proceeding anyway",
            PreconditionWarning,
        )
    g_norm = (
        prior.scale.spectral_norm if hasattr(prior, "scale") else 0.0
    )
    budget = budget_projector(
        model, sel, data_spec.n, model.dim, delta_hat, g_norm, l_star_j
    )
    return ProjectorBvmReport(ks, budget, precondition_ok, delta_hat, stat)
