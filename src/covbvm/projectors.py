"""Posterior spectral projectors: the squared-Frobenius distance between a
draw's and the sample covariance's projectors, and its chi-square-mixture
reference law.

The distance needs only each draw's selected eigenspace, and every posterior
draw lies within O(n^-1/2) of the sample covariance.  So the sample
covariance is decomposed once per dataset, and each draw's eigenspace is
refined from it by an invariant-subspace (Riccati) iteration in that
eigenbasis, a few small batched products per step.  A draw the iteration
cannot resolve, because it did not converge or because its selected
eigenvalues are not provably apart from the rest, goes to ``numpy.linalg.eigh``.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
from scipy.special import gammainc, gammaln

from .datagen import Dataset, DatasetSpec, derived_rng, estimate_delta_hat, sample_dataset
from .diagnostics import (
    EmpiricalLaw,
    ErrorBudget,
    budget_projector,
    kolmogorov_distance,
)
from .posterior import (
    _SUB_BYTES,
    PosteriorDraws,
    PriorSpec,
    default_sampler,
    sample_posterior,
)
from .spd import norms
from .spectral import (
    EigenspaceSelection,
    SpectralModel,
    build_gamma,
    selection_gap,
)
from .errors import PreconditionWarning

_DEGENERATE_GAP_FLOOR = 1e-6
# datasets drawn to estimate the concentration radius delta-hat
_CONCENTRATION_REPLICATIONS = 50
# a draw's subspace refinement stops once its residual is below p times this
# times the size of the residual's terms, a few roundings of a p-term sum; a
# draw not there after _MAX_REFINE_STEPS steps goes to eigh
_REFINE_TOL = 4.0 * np.finfo(np.float64).eps
_MAX_REFINE_STEPS = 50
# Ruben's series stops once the mixing mass it leaves out is below this
_SERIES_TAIL = 1e-13
# a single largest weight needs about 27 series terms per unit of the
# largest-to-smallest weight ratio, so this admits ratios up to about 4000 and
# bounds time and memory; more copies of the larger weights need more terms
_MAX_SERIES_TERMS = 1 << 17


def _descending_eigen(mats: np.ndarray, index_set: np.ndarray):
    """Descending eigenvalues of a matrix or stack, and the eigenvector columns
    at the given descending-order positions."""
    w, v = np.linalg.eigh(mats)
    return w[..., ::-1], v[..., ::-1][..., index_set]


@dataclasses.dataclass(frozen=True)
class ProjectorStatistic:
    law: EmpiricalLaw
    near_degenerate_count: int = 0
    eigh_fallback_count: int = 0


def _eigh_distances(
    mats: np.ndarray, index_set: np.ndarray, hat_perp: np.ndarray
) -> tuple[np.ndarray, int]:
    """||V-hat_perp^T V||_F^2 for each matrix of a stack, V its eigenvectors at
    the given positions, from a full eigendecomposition; and the number of
    matrices whose own spectral gap at the selection boundary falls below
    ``_DEGENERATE_GAP_FLOOR``."""
    p = hat_perp.shape[0]
    eigs_desc, cols = _descending_eigen(mats, index_set)
    values = np.sum((hat_perp.T @ cols) ** 2, axis=(1, 2))
    # per-matrix exterior gap at the selection boundary
    lo_pos, hi_pos = int(index_set[0]), int(index_set[-1])
    gaps = np.full(len(mats), np.inf)
    if lo_pos > 0:
        gaps = np.minimum(gaps, eigs_desc[:, lo_pos - 1] - eigs_desc[:, lo_pos])
    if hi_pos < p - 1:
        gaps = np.minimum(gaps, eigs_desc[:, hi_pos] - eigs_desc[:, hi_pos + 1])
    return values, int(np.sum(gaps < _DEGENERATE_GAP_FLOOR))


def _riccati_distances(
    mats: np.ndarray, basis: np.ndarray, m: int, above: int
) -> tuple[np.ndarray, np.ndarray]:
    """||V-hat_perp^T V||_F^2 for each matrix of a stack by refining the sample
    covariance's selected eigenspace into the matrix's own invariant subspace,
    and whether that value may be kept.

    ``basis`` holds the sample covariance's eigenvectors, the m selected ones
    first, then the rest in descending order, of which the first ``above``
    belong to larger eigenvalues.  In that basis a matrix is A, and the graph
    of Z ((p - m) x m) spans an invariant subspace of A when
    F(Z) = A21 + A22 Z - Z A11 - Z A12 Z = 0 (Stewart 1973, SIAM Rev. 15:727;
    Demmel 1987, Computing 38:43).  From Z = 0, each step subtracts
    F(Z)_ij / ((A22)_ii - (A11)_jj); the rate is about the off-diagonal
    size of A over the eigenvalue gap.  The orthonormal columns
    [I; Z](I + Z^T Z)^-1/2 span the subspace, so the value is
    Tr(Z^T Z (I + Z^T Z)^-1), with no cancellation.

    A value is kept only when its draw's residual reached rounding level
    within ``_MAX_REFINE_STEPS`` steps and the Gershgorin discs of
    blockdiag(A11 + A12 Z, A22 - Z A12), whose eigenvalues are A's, split into
    the groups above, selected and below, in that order, with every gap at
    least ``_DEGENERATE_GAP_FLOOR``.  Then the subspace is the one at the
    selected positions of the matrix's own spectrum, and the matrix is not
    near-degenerate; the residual left in the off-diagonal block and the
    rounding of the discs are a few eps |A|, far below that floor.  Each draw
    stops on its own residual and keeps its Z from then on, so its value does
    not depend on the other matrices of the stack.
    """
    k, p, _ = mats.shape
    a = np.matmul(basis.T, mats @ basis)
    a11, a12, a21 = a[:, :m, :m].copy(), a[:, :m, m:].copy(), a[:, m:, :m].copy()
    a22 = a[:, m:, m:]
    diag = np.diagonal(a, axis1=1, axis2=2)
    denom = diag[:, m:, None] - diag[:, None, :m]
    # A is SPD, so its largest diagonal entry bounds every entry; the terms of
    # F are of size |A21| and |A| |Z|, and sums of p of them round at p eps
    scale = np.max(diag, axis=1)
    a21_size = np.max(np.abs(a21), axis=(1, 2), initial=0.0)
    z = np.zeros((k, p - m, m))
    kept = np.zeros_like(z)
    converged = np.zeros(k, dtype=bool)
    # identity-like draws give zero denominators and non-finite steps, which
    # never pass the residual test
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_REFINE_STEPS):
            f = a22 @ z
            f += a21
            f -= z @ (a11 + a12 @ z)
            residual = np.max(np.abs(f), axis=(1, 2), initial=0.0)
            z_size = np.max(np.abs(z), axis=(1, 2), initial=0.0)
            tol = _REFINE_TOL * p * (a21_size + scale * z_size)
            done = ~converged & (residual <= tol)
            f /= denom
            z -= f
            kept[done] = z[done]
            converged |= done
            if converged.all():
                break
        b1 = a11 + a12 @ kept
        b2 = a22 - kept @ a12
        # Gershgorin intervals: the eigenvalues are real
        centre1 = np.diagonal(b1, axis1=1, axis2=2)
        radius1 = np.sum(np.abs(b1), axis=2) - np.abs(centre1)
        centre2 = np.diagonal(b2, axis1=1, axis2=2)
        radius2 = np.sum(np.abs(b2), axis=2) - np.abs(centre2)
        bound = np.full(k, np.inf)
        if above > 0:
            bound = np.minimum(
                bound,
                np.min(centre2[:, :above] - radius2[:, :above], axis=1)
                - np.max(centre1 + radius1, axis=1),
            )
        if above < p - m:
            bound = np.minimum(
                bound,
                np.min(centre1 - radius1, axis=1)
                - np.max(centre2[:, above:] + radius2[:, above:], axis=1),
            )
        g = np.swapaxes(kept, 1, 2) @ kept
        values = np.trace(np.linalg.solve(np.eye(m) + g, g), axis1=1, axis2=2)
    return values, converged & (bound >= _DEGENERATE_GAP_FLOOR)


def projector_distances(
    model: SpectralModel, sel: EigenspaceSelection, mats: np.ndarray, dataset: Dataset
) -> tuple[np.ndarray, int, int]:
    """n * squared Frobenius distance between the projector of each matrix in a
    (k, p, p) stack and the sample covariance's, over the true index sets; the
    number of matrices whose own spectral gap at the selection boundary falls
    below 1e-6; and the number of matrices whose distance came from a full
    eigendecomposition.

    With V (p, m) the orthonormal eigenvector columns of a matrix, and V-hat
    and V-hat_perp the selected and the remaining eigenvector columns of the
    sample covariance, ||V V^T - V-hat V-hat^T||_F^2 = 2m - 2||V-hat^T V||_F^2
    = 2||V-hat_perp^T V||_F^2, twice the sum of squared sines of the principal
    angles.  The sample covariance is decomposed once; each matrix's selected
    eigenspace is found by refining V-hat into the matrix's own invariant
    subspace (``_riccati_distances``), in cache-sized sub-blocks, with no
    per-matrix eigendecomposition and no p x p projector.  A matrix whose
    refinement did not converge, or whose selected eigenvalues are not
    provably at least 1e-6 from the rest and in the selected positions, goes
    to ``numpy.linalg.eigh`` instead, so the near-degenerate count is
    eigh's.  The two routes agree to about 1e-13 relative; on values near 0
    both carry an absolute error of about eps ||Sigma|| in the eigenspace.
    """
    index_set = sel.index_set(model)
    p, m = model.dim, len(index_set)
    vecs = _descending_eigen(dataset.sample_cov.entries, np.arange(p))[1]
    hat_perp = np.delete(vecs, index_set, axis=1)
    basis = np.concatenate([vecs[:, index_set], hat_perp], axis=1)
    values = np.empty(len(mats))
    kept = np.empty(len(mats), dtype=bool)
    sub = max(1, _SUB_BYTES // (8 * p * p))
    for start in range(0, len(mats), sub):
        part = slice(start, start + sub)
        values[part], kept[part] = _riccati_distances(
            mats[part], basis, m, int(index_set[0])
        )
    fallback = np.flatnonzero(~kept)
    near_degenerate = 0
    if fallback.size:
        values[fallback], near_degenerate = _eigh_distances(mats[fallback], index_set, hat_perp)
    return 2.0 * dataset.n * values, near_degenerate, int(fallback.size)


def posterior_projector_statistic(
    model: SpectralModel,
    sel: EigenspaceSelection,
    draws: PosteriorDraws,
    dataset: Dataset,
) -> ProjectorStatistic:
    """Law of the projector distances (see projector_distances) over
    posterior draws, which are reduced block by block.  Draws whose own
    spectral gap at the selection boundary falls below 1e-6 are kept (the
    index sets are used verbatim) but counted and reported, and so are the
    draws whose distance came from ``numpy.linalg.eigh``.
    """
    parts = [projector_distances(model, sel, block, dataset) for block in draws.blocks()]
    values = np.concatenate([block_values for block_values, _, _ in parts])
    near_degenerate = sum(count for _, count, _ in parts)
    fallbacks = sum(count for _, _, count in parts)
    return ProjectorStatistic(EmpiricalLaw(values), near_degenerate, fallbacks)


# ---------------------------------------------------------------------------
# Reference law


@dataclasses.dataclass(frozen=True)
class ChiSquareMixture:
    """Law of the squared norm of a centered Gaussian with diagonal covariance:
    a positively weighted sum of independent one-degree chi-squares.

    The CDF is deterministic and exact up to rounding (Ruben 1962, Ann. Math.
    Statist. 33:542).  With beta the smallest weight and d the number of
    weights, Q / beta is a mixture of chi-squares with d + 2k degrees of
    freedom.  The mixing coefficients c_k are nonnegative, so truncating the
    series at K terms errs by at most 1 - sum(c_k), which is kept below
    1e-13.  The term count grows with the ratio of the largest to the
    smallest weight, and so does the time: at 20k points, 174 terms and 20 ms
    at ratio 4.5, 24.8k terms and 4-5 s at ratio 891.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0 or not np.all((w > 0) & (w < np.inf)):
            raise ValueError("mixture weights must be a nonempty vector of finite positive numbers")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def mean(self) -> float:
        return float(np.sum(self.weights))

    @property
    def variance(self) -> float:
        return 2.0 * float(np.sum(self.weights**2))

    def sample(self, count: int, seed: int) -> np.ndarray:
        rng = derived_rng(seed, 4242)
        z = rng.standard_normal((count, len(self.weights)))
        return (z**2) @ self.weights

    def _series(self) -> tuple[float, np.ndarray]:
        """beta and Ruben's mixing coefficients c_0 .. c_{K-1}.

        The c_k are the law of a sum of independent negative binomials, one
        per distinct weight lambda with multiplicity h, with pmf proportional
        to Gamma(h/2 + k) / k! * q^k and q = 1 - beta/lambda.  Each pmf and
        their convolution are exact in their first `size` entries; `size`
        doubles until they hold all but 1e-13 of the mass.  The pmf is formed
        in log space: with h in the hundreds, (beta/lambda)^(h/2) underflows
        and the Gamma ratio overflows, though their product is a probability.
        """
        lam, mult = np.unique(self.weights, return_counts=True)
        beta = float(lam[0])
        size = 64
        while size <= _MAX_SERIES_TERMS:
            k = np.arange(size)
            c = np.ones(1)
            for lam_j, h in zip(lam[1:], mult[1:]):
                shape = h / 2.0
                log_pmf = (
                    shape * np.log(beta / lam_j)
                    + k * np.log1p(-beta / lam_j)
                    + gammaln(shape + k)
                    - gammaln(shape)
                    - gammaln(k + 1.0)
                )
                c = np.convolve(c, np.exp(log_pmf))[:size]
            mass = np.cumsum(c)
            if mass[-1] > 1.0 - _SERIES_TAIL:
                return beta, c[: np.argmax(mass > 1.0 - _SERIES_TAIL) + 1]
            size *= 2
        raise ValueError(
            f"weights {lam[-1] / beta:.3g} apart need more than {_MAX_SERIES_TERMS} series terms"
        )

    def cdf(self, x):
        """CDF at x.  Truncating the series errs by less than 1e-13.

        P(chi2_{d+2k} <= x/beta) = P(d/2 + k, y) with y = x / (2 beta) is the
        regularized lower incomplete gamma function; one call gives the k = 0
        term and P(a + 1, y) = P(a, y) - y^a e^-y / Gamma(a + 1) the rest.
        Rounding adds to the truncation: each step subtracts once, and the
        exponents reach the thousands.  Against 50-digit arithmetic the total
        error is 3e-15 at the 174 terms of weights 4 (x12) and 8/9 (x24),
        6e-14 at the 24.8k terms of weights 891 apart, and 2e-12 at the 3.6k
        terms of weights 0.625 (x25) and 4 (x950), where the subtractions
        cancel in the lower tail; there the CDF can dip by 2e-12, and it is
        clipped to [0, 1].  Equal weights leave the single term P(d/2, y), the
        chi-square CDF.
        """
        beta, c = self._series()
        x = np.asarray(x, dtype=np.float64)
        # the largest double stands in for x = inf, which would give inf - inf
        y = np.clip(x / (2.0 * beta), 0.0, np.finfo(np.float64).max)
        a = len(self.weights) / 2.0 + np.arange(len(c))
        log_gamma = gammaln(a)
        with np.errstate(divide="ignore"):
            log_y = np.log(y)
        term = gammainc(a[0], y)
        total = c[0] * term
        for k in range(1, len(c)):
            term = term - np.exp(a[k - 1] * log_y - y - log_gamma[k])
            total += c[k] * term
        return np.clip(total, 0.0, 1.0)


# ---------------------------------------------------------------------------
# End-to-end theorem check


@dataclasses.dataclass(frozen=True)
class ProjectorBvmReport:
    ks_distance: float
    budget: ErrorBudget
    precondition_ok: bool
    delta_hat: float
    statistic: ProjectorStatistic


def projector_bvm_check(
    model: SpectralModel,
    sel: EigenspaceSelection,
    prior: PriorSpec,
    data_spec: DatasetSpec,
    count: int,
    l_star_j: float,
    seed: int = 0,
) -> ProjectorBvmReport:
    """Full pipeline: data, posterior, projector statistic, reference mixture.

    The theorem precondition on the concentration radius is checked and
    reported; a violation warns but the run proceeds.
    """
    dataset = sample_dataset(data_spec)
    sampler = default_sampler(prior, dataset, seed=seed)
    draws = sample_posterior(sampler, count)
    stat = posterior_projector_statistic(model, sel, draws, dataset)
    mixture = ChiSquareMixture(build_gamma(model, sel))
    ks = kolmogorov_distance(stat.law, mixture.cdf)
    delta_hat = estimate_delta_hat(data_spec, _CONCENTRATION_REPLICATIONS)
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
