"""Posterior spectral projectors: the squared-Frobenius distance between a
draw's and the sample covariance's projectors, and its chi-square-mixture
reference law.

The distance needs only each draw's selected eigenspace, and every posterior
draw lies within O(n^-1/2) of the sample covariance.  So the sample
covariance is decomposed once per stack of draws, and each draw's eigenspace
is refined from it by an invariant-subspace (Riccati) iteration in that
eigenbasis, two small batched products per step.  Each draw stops once the
squared Frobenius norm of its residual is below the square of a rounding-level
bound, which costs one ``einsum`` pass over the residual and one over the
iterate per step.  Each statistic allocates one workspace for a sub-block of
draws, and every product of the refinement, the gathered matrices of the
draws still iterating and the Gershgorin matrices are written into it, so a
sub-block makes no (k, p, p) temporary.  A draw the iteration cannot resolve,
because it did not converge or because its selected eigenvalues are not
provably apart from the rest, goes to ``numpy.linalg.eigh``.

The reference law's CDF needs ``scipy.special``'s ``gammaln`` and
``gammainc``; they are imported when a CDF is first evaluated, so the
projector distances alone load no scipy module.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from .datagen import Dataset, derived_rng
from .diagnostics import EmpiricalLaw
from .posterior import PosteriorDraws, sub_block_size
from .spectral import EigenspaceSelection, SpectralModel

_DEGENERATE_GAP_FLOOR = 1e-6
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


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a stack."""
    return np.einsum("kij,kij->k", x, x)


class _RiccatiWorkspace:
    """Buffers for refining a stack of up to ``count`` (p, p) matrices with m
    selected columns, so that the products of a refinement make no
    temporaries.  ``a`` holds A, and ``t`` the half-changed basis, then the A
    of the draws still iterating, then B2; the (count, p, m) buffers hold
    W = [I; Z], A W, [0; Z B1], the reciprocal denominators and the kept W."""

    def __init__(self, count: int, p: int, m: int):
        self.t, self.a = np.empty((count, p, p)), np.empty((count, p, p))
        self.w, self.aw, self.zb1, self.recip, self.kept = (
            np.empty((count, p, m)) for _ in range(5)
        )
        self.b1 = np.empty((count, m, m))


def _riccati_distances(
    mats: np.ndarray,
    basis: np.ndarray,
    m: int,
    above: int,
    work: _RiccatiWorkspace,
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
    F(Z)_ij times 1 / ((A22)_ii - (A11)_jj); the rate is about the
    off-diagonal size of A over the eigenvalue gap.  A step is two small
    batched products: with W = [I; Z], A W = [B1; A21 + A22 Z] with
    B1 = A11 + A12 Z, and F = A21 + A22 Z - Z B1.  Every elementwise update
    runs over the whole contiguous (p, m) arrays, whose top rows leave W's
    identity block as it is.  The orthonormal columns W (I + Z^T Z)^-1/2 span
    the subspace, so the value is Tr(Z^T Z (I + Z^T Z)^-1), with no
    cancellation.

    A draw stops once ||F||_F <= p ``_REFINE_TOL`` (||A21||_F +
    max_i A_ii ||Z||_F), compared in squares, one ``einsum`` pass over F and
    one over Z: A is SPD, so its largest diagonal entry bounds every entry,
    the terms of F are of size |A21| and |A| |Z|, and sums of p of them round
    at p eps.  A bound whose square overflows, as a diverging Z's does or
    that of a matrix with entries above about 1e154, is never met, so an
    overflowed residual cannot meet it and the draw goes to eigh.  A value
    is kept only when its draw's residual reached that level within
    ``_MAX_REFINE_STEPS`` steps and the Gershgorin discs of
    blockdiag(A11 + A12 Z, A22 - Z A12), whose eigenvalues are A's, split into
    the groups above, selected and below, in that order, with every gap at
    least ``_DEGENERATE_GAP_FLOOR``.  Then the subspace is the
    one at the selected positions of the matrix's own spectrum, and the
    matrix is not near-degenerate; the residual left in the off-diagonal
    block and the rounding of the discs are a few eps |A|, far below that
    floor.  Each draw stops on its own residual and keeps its Z from then on,
    so its value does not depend on the other matrices of the stack.
    Converged draws leave the iteration once at least half of the draws
    still in it have converged: the rest are gathered and continue alone, so
    one slow draw does not keep its whole stack iterating.

    Every product, the gathered A of the draws still iterating and B2 are
    written into ``work``, a ``_RiccatiWorkspace`` for at least len(mats)
    matrices.
    """
    k, p, _ = mats.shape
    q = p - m
    a = np.matmul(basis.T, np.matmul(mats, basis, out=work.t[:k]), out=work.a[:k])
    diag = np.diagonal(a, axis1=1, axis2=2)
    scale = np.max(diag, axis=1)
    a21_norm = np.sqrt(_sq_norms(a[:, m:, :m]))
    # W = [I; Z] and the kept W; the top rows of [0; Z B1] and of the
    # reciprocal denominators are 0, so whole-array updates keep W's identity
    w, kept_w, zb1, recip = work.w[:k], work.kept[:k], work.zb1[:k], work.recip[:k]
    for x, top in ((w, np.eye(m)), (kept_w, np.eye(m)), (zb1, 0.0)):
        x[:, :m], x[:, m:] = top, 0.0
    kept = kept_w[:, m:]
    converged = np.zeros(k, dtype=bool)
    # the draws still iterating: their rows of the stack, their A, W and
    # reciprocal denominators, and the parts of their stopping bound
    rows = np.arange(k)
    live, l_scale, l_a21_norm = a, scale, a21_norm
    tol_factor = _REFINE_TOL * p
    # identity-like draws give zero denominators and non-finite steps, which
    # never pass the residual test
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.subtract(diag[:, :, None], diag[:, None, :m], out=recip)
        np.reciprocal(recip, out=recip)
        recip[:, :m] = 0.0
        for _ in range(_MAX_REFINE_STEPS):
            n = len(rows)
            z = w[:, m:]
            # A W = [B1; A21 + A22 Z], less [0; Z B1], is [B1; F]
            aw = np.matmul(live, w, out=work.aw[:n])
            np.matmul(z, aw[:, :m], out=zb1[:n, m:])
            aw -= zb1[:n]
            f = aw[:, m:]
            tol2 = np.square(tol_factor * (l_a21_norm + l_scale * np.sqrt(_sq_norms(z))))
            # an inf squared residual would meet an inf squared bound
            done = (_sq_norms(f) <= tol2) & (tol2 < np.inf)
            # [B1; F] times [0; 1 / denom] is [0; F / denom], but for a B1 that
            # is not finite, whose draw cannot converge
            aw *= recip
            w -= aw
            # a draw keeps its Z from the step where it first converges; the
            # draws still iterating are gathered only once half of them have,
            # since most draws converge together
            first = done & ~converged[rows]
            if first.any():
                kept_w[rows[first]] = w[first]
                converged[rows[first]] = True
                going = ~converged[rows]
                if not going.any():
                    break
                if 2 * going.sum() <= n:
                    rows = rows[going]
                    w, recip = w[going], recip[going]
                    l_scale, l_a21_norm = l_scale[going], l_a21_norm[going]
                    # the rows are in range; the default mode buffers out
                    live = np.take(a, rows, axis=0, out=work.t[: len(rows)], mode="clip")
        b1 = np.matmul(a[:, :m], kept_w, out=work.b1[:k])
        # B2 = A22 - Z A12 goes into the spent basis-change buffer, and |B2|
        # over it
        b2 = work.t.reshape(-1)[: k * q * q].reshape(k, q, q)
        np.subtract(a[:, m:, m:], np.matmul(kept, a[:, :m, m:], out=b2), out=b2)
        # Gershgorin intervals: the eigenvalues are real
        centre1 = np.diagonal(b1, axis1=1, axis2=2)
        radius1 = np.sum(np.abs(b1), axis=2) - np.abs(centre1)
        centre2 = np.diagonal(b2, axis1=1, axis2=2).copy()
        abs_b2 = np.abs(b2, out=b2)
        radius2 = (abs_b2.reshape(k * q, q) @ np.ones(q)).reshape(k, q)
        radius2 -= np.diagonal(abs_b2, axis1=1, axis2=2)
        bound = np.full(k, np.inf)
        if above > 0:
            bound = np.minimum(
                bound,
                np.min(centre2[:, :above] - radius2[:, :above], axis=1)
                - np.max(centre1 + radius1, axis=1),
            )
        if above < q:
            bound = np.minimum(
                bound,
                np.min(centre1 - radius1, axis=1)
                - np.max(centre2[:, above:] + radius2[:, above:], axis=1),
            )
        g = np.swapaxes(kept, 1, 2) @ kept
        values = np.trace(np.linalg.solve(np.eye(m) + g, g), axis1=1, axis2=2)
    return values, converged & (bound >= _DEGENERATE_GAP_FLOOR)


def projector_distances(
    model: SpectralModel, sel: EigenspaceSelection, dataset: Dataset
) -> Callable[[np.ndarray], tuple[np.ndarray, int, int]]:
    """The function that maps a (k, p, p) stack of matrices to: n * squared
    Frobenius distance between the projector of each matrix and the sample
    covariance's, over the true index sets; the number of matrices whose own
    spectral gap at the selection boundary falls below 1e-6; and the number
    of matrices whose distance came from a full eigendecomposition.  The
    index set, the sample covariance's eigenbasis and the refinement's
    workspace are made once, here, so the function must not run in two
    threads at once.

    With V (p, m) the orthonormal eigenvector columns of a matrix, and V-hat
    and V-hat_perp the selected and the remaining eigenvector columns of the
    sample covariance, ||V V^T - V-hat V-hat^T||_F^2 = 2m - 2||V-hat^T V||_F^2
    = 2||V-hat_perp^T V||_F^2, twice the sum of squared sines of the principal
    angles.  The sample covariance's decomposition is the one its SpdMatrix
    caches, so it is made once per dataset; each matrix's selected
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
    vecs = dataset.sample_cov._eigh[1][:, ::-1]
    hat_perp = np.delete(vecs, index_set, axis=1)
    basis = np.concatenate([vecs[:, index_set], hat_perp], axis=1)
    sub = sub_block_size(p)
    work = _RiccatiWorkspace(sub, p, m)

    def distances(mats: np.ndarray) -> tuple[np.ndarray, int, int]:
        values = np.empty(len(mats))
        kept = np.empty(len(mats), dtype=bool)
        for start in range(0, len(mats), sub):
            part = slice(start, start + sub)
            values[part], kept[part] = _riccati_distances(
                mats[part], basis, m, int(index_set[0]), work
            )
        fallback = np.flatnonzero(~kept)
        near_degenerate = 0
        if fallback.size:
            values[fallback], near_degenerate = _eigh_distances(
                mats[fallback], index_set, hat_perp
            )
        return 2.0 * dataset.n * values, near_degenerate, int(fallback.size)

    return distances


def posterior_projector_statistic(
    model: SpectralModel,
    sel: EigenspaceSelection,
    draws: PosteriorDraws,
    dataset: Dataset,
) -> ProjectorStatistic:
    """Law of the projector distances (see projector_distances) over
    posterior draws, reduced part by part through ``PosteriorDraws.map``; the
    index set and the sample covariance's eigenbasis are made once per call.
    Draws whose own spectral gap at the selection boundary falls below 1e-6
    are kept (the index sets are used verbatim) but counted and reported, and
    so are the draws whose distance came from ``numpy.linalg.eigh``.
    """
    values, near_degenerate, fallbacks = zip(*draws.map(projector_distances(model, sel, dataset)))
    return ProjectorStatistic(
        EmpiricalLaw(np.concatenate(values)), sum(near_degenerate), sum(fallbacks)
    )


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
        from scipy.special import gammaln

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
        from scipy.special import gammainc, gammaln

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
