"""Pseudo-posterior sampling for covariance matrices.

The Gaussian log-likelihood is used regardless of the data family.  With an
inverse Wishart prior the posterior is conjugate and sampled exactly: the
Wishart precision is T T^T with T = L B lower triangular (L the Cholesky factor
of the inverse scale, B the Bartlett factor), so each draw is X^T X with
X = T^-1, found by 2x2 block recursion down to T's diagonal without forming or
inverting the full precision, so X is exactly lower triangular.  That algebra
runs on cache-sized sub-blocks of each block of draws, so the sampler holds its
output, one block's normals and three sub-block buffers, not several
block-sized arrays.  With ``factor=True`` the sampler returns the triangular X
itself and skips X^T X, for statistics that reduce the factor (the
functionals).

Arbitrary density-evaluable priors go through a random-walk Metropolis chain
on the Cholesky factor; its theta -> Sigma map and log-Jacobian are set up once
per chain.  The Gaussian-type densities it evaluates (the likelihood and the
inverse Wishart prior) factor Sigma = L L^T with LAPACK ``dpotrf`` and find
each trace term Tr(Sigma^-1 F F^T) = ||L^-1 F||_F^2 with one triangular
``dtrtrs`` solve against a cached Cholesky factor F, called directly because
numpy's ``linalg`` overhead dwarfs the work on small matrices.  A uniform prior
on a vicinity is sampled by exact rejection: draws from the flat-likelihood
inverse Wishart IW(nS, n - p - 1), which needs n > 2p, are kept when they fall
inside the vicinity.

Posterior draws are consumed in blocks of at most ``_CHUNK`` = 4096 matrices.
Exact conjugate draws are streamed: each pass over ``PosteriorDraws.blocks()``
draws them afresh from the sampler's seed, one ``sample_inverse_wishart`` call
per block on one shared generator, so a statistic that reduces each block to
scalars never holds the (M, p, p) stack.  ``PosteriorDraws.matrices`` builds
that stack from the same blocks, byte-identical, for the consumers that need
every draw at once.  ``PosteriorDraws.factor_blocks()`` yields the factors X
with Sigma = X^T X of the same draws: streamed from the seed for exact draws,
by Cholesky of each stored block otherwise.  The Metropolis and rejection
samplers run when ``sample_posterior`` is called, and their blocks are slices
of the stored draws.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Callable, Iterator

import numpy as np
from scipy.linalg import lapack

from .datagen import Dataset, derived_rng, derived_seed
from .errors import (
    BadDegreesOfFreedom,
    BadDimension,
    NotPositiveDefinite,
    PoorMixing,
    RejectionStarved,
)
from .spd import SpdMatrix, relative_deviation, sym, upper_factors

_CHUNK = 4096
# the inverse-Wishart kernel's algebra runs on sub-blocks of about this many
# bytes of (p, p) matrices, so that each stays in cache
_SUB_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# Factor and solve


def _cholesky(a: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of a, by LAPACK ``dpotrf``; raises off the SPD cone."""
    chol, info = lapack.dpotrf(a, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefinite(f"{what} needs an SPD matrix")
    return chol


def _log_det(chol: np.ndarray) -> float:
    """log det(L L^T) from the lower Cholesky factor L."""
    return 2.0 * float(np.log(chol.diagonal()).sum())


def _solved_sq_norm(chol: np.ndarray, factor: np.ndarray) -> float:
    """||L^-1 F||_F^2 for lower-triangular L, by one LAPACK ``dtrtrs`` solve."""
    x, _ = lapack.dtrtrs(chol, factor, lower=1)
    return float(np.vdot(x, x))


# ---------------------------------------------------------------------------
# Priors


@dataclasses.dataclass(frozen=True)
class InverseWishartPrior:
    """Inverse Wishart prior with scale G and degrees of freedom p + b - 1."""

    scale: SpdMatrix
    b: float = 2.0

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("shape offset b must be positive")

    @property
    def dim(self) -> int:
        return self.scale.dim

    def dof(self) -> float:
        return self.dim + self.b - 1.0

    def log_density(self, sigma: np.ndarray) -> float:
        """Unnormalized log density; raises if sigma is not SPD."""
        chol = _cholesky(sigma, "the inverse Wishart prior")
        # Tr(G Sigma^-1) = ||L^-1 G^1/2||_F^2 with G^1/2 the Cholesky factor of G
        trace_term = _solved_sq_norm(chol, self.scale.cholesky)
        return -0.5 * (2 * self.dim + self.b) * _log_det(chol) - 0.5 * trace_term


@dataclasses.dataclass(frozen=True)
class UniformVicinityPrior:
    """Uniform prior on the vicinity of a center matrix (see ``spd.relative_deviation``)."""

    center: SpdMatrix
    delta: float

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("vicinity radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.dim

    def log_density(self, sigma: np.ndarray) -> float:
        return 0.0 if vicinity_mask(sigma, self.center, self.delta) else -math.inf


@dataclasses.dataclass(frozen=True)
class GenericPrior:
    """Density-evaluable prior; sampler-only priors are not representable."""

    log_density_fn: Callable[[np.ndarray], float]

    def log_density(self, sigma: np.ndarray) -> float:
        return float(self.log_density_fn(sigma))


PriorSpec = InverseWishartPrior | UniformVicinityPrior | GenericPrior


def default_inverse_wishart_prior(p: int) -> InverseWishartPrior:
    """Near-flat conjugate prior: tiny scale, b = 2."""
    return InverseWishartPrior(SpdMatrix(0.01 * np.eye(p)), b=2.0)


# ---------------------------------------------------------------------------
# Likelihood


def log_likelihood(sigma: SpdMatrix | np.ndarray, data: Dataset) -> float:
    """Gaussian pseudo-log-likelihood of a covariance matrix given the data."""
    a = sigma.entries if isinstance(sigma, SpdMatrix) else np.asarray(sigma)
    n, p = data.n, data.dim
    chol = _cholesky(a, "the log-likelihood")
    # Tr(Sigma^-1 S) = ||L^-1 C||_F^2 with C the Cholesky factor of S
    trace_term = _solved_sq_norm(chol, data.sample_cov.cholesky)
    return -0.5 * n * _log_det(chol) - 0.5 * n * trace_term - 0.5 * n * p * math.log(2 * math.pi)


# ---------------------------------------------------------------------------
# Inverse Wishart sampling (Bartlett factor, triangular inverse)


def _tril_inv_inplace(t: np.ndarray) -> None:
    """Invert a (count, p, p) stack of lower-triangular matrices in place.

    2x2 block recursion down to the diagonal: the inverse of [[A, 0], [C, D]]
    is [[A^-1, 0], [-D^-1 C A^-1, D^-1]].  A and D are inverted in their own
    views first, then C is overwritten by -(D^-1 C) A^-1; a 1x1 block is its
    reciprocal.  The upper blocks are never written, so the inverse is exactly
    lower triangular.
    """
    p = t.shape[-1]
    if p == 1:
        np.reciprocal(t, out=t)
        return
    h = p // 2
    _tril_inv_inplace(t[:, :h, :h])
    _tril_inv_inplace(t[:, h:, h:])
    lower = t[:, h:, :h]
    np.matmul(t[:, h:, h:] @ lower, t[:, :h, :h], out=lower)
    np.negative(lower, out=lower)


def sample_inverse_wishart(
    scale: SpdMatrix,
    dof: float,
    count: int,
    seed: int | np.random.Generator,
    *,
    factor: bool = False,
) -> np.ndarray:
    """i.i.d. draws from the inverse Wishart with the given scale and dof.

    The precision W ~ Wishart(scale^-1, dof) is T T^T with T = L B, where L is
    the Cholesky factor of scale^-1 and B the Bartlett factor, both lower
    triangular: B's strict lower triangle is standard normal and its diagonal
    is sqrt(chi2(dof - i)).  So the draw W^-1 = X^T X with X = T^-1, inverted by
    triangular block recursion; W itself is never formed.

    Each block of ``_CHUNK`` draws takes its strict-lower normals (row-major
    ``np.tril_indices`` order) and then its chi-square diagonal from the
    stream, which fixes the draws for a seed.  The algebra then runs over
    sub-blocks of max(1, ``_SUB_BYTES`` // 8p^2) draws, small enough to stay
    in cache, in three reused buffers (B, X and A = X^T X), and writes the
    exactly symmetric 0.5 (A + A^T) straight into the (count, p, p) output.
    Besides the output, the call holds one block's normals, about half a
    block, and the three sub-block buffers: one 4096-draw call at p = 50
    peaks at about 1.57 times its output's bytes.

    With ``factor=True`` the call returns the (count, p, p) stack of the
    lower-triangular X instead, inverted in place in the output: the same
    stream and the same X whose X^T X the default call symmetrizes, without
    forming X^T X or its symmetric copy.  X is exactly lower triangular in
    both forms.

    ``seed`` is an int, for the stream ``derived_rng(seed)``, or a generator
    that the call draws from and advances; calls of at most ``_CHUNK`` draws
    each on one generator continue the stream of one call for their total
    count.
    """
    p = scale.dim
    if dof <= p - 1:
        raise BadDegreesOfFreedom(f"dof {dof} must exceed p - 1 = {p - 1}")
    if count < 1:
        raise ValueError("count must be positive")
    chol = np.linalg.cholesky(sym(scale.inv()))
    df = dof - np.arange(p)
    il, jl = np.tril_indices(p, -1)
    lower, diag = il * p + jl, np.arange(p) * (p + 1)
    sub = min(max(1, _SUB_BYTES // (8 * p * p)), count, _CHUNK)
    bart = np.zeros((sub, p, p))  # its upper triangle stays zero
    if not factor:
        x, xtx = np.empty_like(bart), np.empty_like(bart)
    bart_flat = bart.reshape(sub, p * p)
    normals = np.empty((min(count, _CHUNK), len(lower)))
    out = np.empty((count, p, p))
    rng = seed if isinstance(seed, np.random.Generator) else derived_rng(seed)
    for start in range(0, count, _CHUNK):
        k = min(_CHUNK, count - start)
        z = rng.standard_normal(out=normals[:k])
        chi = np.sqrt(rng.chisquare(df, size=(k, p)))
        for s in range(0, k, sub):
            m = min(sub, k - s)
            bart_flat[:m, lower] = z[s : s + m]
            bart_flat[:m, diag] = chi[s : s + m]
            block = out[start + s : start + s + m]
            # T = L B, then X = T^-1
            t = np.matmul(chol, bart[:m], out=block if factor else x[:m])
            _tril_inv_inplace(t)
            if not factor:
                w = np.matmul(t.swapaxes(1, 2), t, out=xtx[:m])
                np.add(w, w.swapaxes(1, 2), out=block)
                block *= 0.5
    return out


# ---------------------------------------------------------------------------
# Posterior samplers


@dataclasses.dataclass(frozen=True)
class ExactConjugate:
    pass


@dataclasses.dataclass(frozen=True)
class Metropolis:
    step_scale: float = 0.1
    burn_in: int = 2000
    thin: int = 5


@dataclasses.dataclass(frozen=True)
class RejectionInVicinity:
    pass


@dataclasses.dataclass(frozen=True)
class PosteriorSampler:
    prior: PriorSpec
    data: Dataset
    method: ExactConjugate | Metropolis | RejectionInVicinity
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.method, ExactConjugate) and not isinstance(
            self.prior, InverseWishartPrior
        ):
            raise BadDimension("exact conjugate sampling needs an inverse Wishart prior")
        if isinstance(self.method, RejectionInVicinity) and not isinstance(
            self.prior, UniformVicinityPrior
        ):
            # conjugate priors are sampled exactly, generic ones by Metropolis
            raise BadDimension("vicinity rejection needs a uniform-vicinity prior")
        prior_dim = getattr(self.prior, "dim", self.data.dim)
        if prior_dim != self.data.dim:
            raise BadDimension(
                f"prior dimension {prior_dim} != data dimension {self.data.dim}"
            )


class PosteriorDraws:
    """Posterior draws, consumed in blocks of at most ``_CHUNK`` matrices.

    ``stream(factor)`` yields the blocks afresh, the same on every call: the
    Sigma draws, or with ``factor=True`` their triangular factors X with
    Sigma = X^T X.  ``matrices`` builds the (M, p, p) stack from them once;
    after that, and for draws made ``stored``, blocks are slices of the stack.
    """

    def __init__(
        self,
        stream: Callable[..., Iterator[np.ndarray]] | None,
        count: int,
        warnings: tuple[str, ...] = (),
    ):
        self._stream = stream
        self._count = count
        self._stack = None
        self.warnings = warnings

    @classmethod
    def stored(cls, matrices: np.ndarray, warnings: tuple[str, ...] = ()) -> PosteriorDraws:
        """Draws already held as an (M, p, p) stack."""
        draws = cls(None, len(matrices), warnings)
        draws._stack = matrices
        return draws

    def __len__(self) -> int:
        return self._count

    def blocks(self) -> Iterator[np.ndarray]:
        if self._stack is None:
            return self._stream(factor=False)
        return (self._stack[start : start + _CHUNK] for start in range(0, self._count, _CHUNK))

    def factor_blocks(self) -> Iterator[np.ndarray]:
        """Blocks of factors X with Sigma = X^T X, one per draw of ``blocks()``.

        Streamed draws yield the sampler's lower-triangular X from the same
        seed; stored draws yield the transposed Cholesky factor of each
        matrix, upper triangular, and raise NotPositiveDefinite if one fails.
        """
        if self._stream is not None:
            return self._stream(factor=True)
        return (upper_factors(block) for block in self.blocks())

    @property
    def matrices(self) -> np.ndarray:
        """The (M, p, p) stack of all draws."""
        if self._stack is None:
            stack = None
            for start, block in zip(range(0, self._count, _CHUNK), self.blocks()):
                if stack is None:
                    stack = np.empty((self._count, *block.shape[1:]))
                stack[start : start + len(block)] = block
            self._stack = stack
        return self._stack


def per_draw(fn: Callable[[np.ndarray], np.ndarray], draws: PosteriorDraws):
    """fn's values over posterior draws, one per matrix, computed block by block."""
    return np.concatenate([fn(block) for block in draws.blocks()])


def conjugate_posterior_params(prior: InverseWishartPrior, data: Dataset):
    """Scale and dof of the exact inverse Wishart posterior."""
    n = data.n
    scale = SpdMatrix(n * data.sample_cov.entries + prior.scale.entries)
    return scale, n + prior.dof()


def _sample_exact(sampler: PosteriorSampler, count: int) -> PosteriorDraws:
    scale, dof = conjugate_posterior_params(sampler.prior, sampler.data)

    def stream(factor):
        rng = derived_rng(sampler.seed)
        for start in range(0, count, _CHUNK):
            k = min(_CHUNK, count - start)
            yield sample_inverse_wishart(scale, dof, k, rng, factor=factor)

    return PosteriorDraws(stream, count)


class _CholeskyMap:
    """The chain's coordinates: theta = (log diag L, strict lower triangle of L).

    Sigma = L L^T.  The flat positions of L's diagonal and strict lower
    triangle (``np.tril_indices`` order) are computed once per chain.
    """

    def __init__(self, p: int):
        il, jl = np.tril_indices(p, -1)
        self.p = p
        self.diag = np.arange(p) * (p + 1)
        self.lower = il * p + jl
        # dSigma = 2^p prod L_ii^{p-i+1} dL and dL_ii = L_ii dtheta_i (i = 1..p),
        # so log|J| = p log 2 + sum_i (p - i + 2) theta_i
        self.jac_weights = (p + 1.0) - np.arange(p)
        self.jac_offset = p * math.log(2.0)

    def theta(self, chol: np.ndarray) -> np.ndarray:
        flat = chol.reshape(-1)
        return np.concatenate([np.log(flat[self.diag]), flat[self.lower]])

    def sigma(self, theta: np.ndarray) -> np.ndarray:
        """A fresh (p, p) Sigma = L L^T."""
        p = self.p
        lmat = np.zeros(p * p)
        lmat[self.lower] = theta[p:]
        lmat[self.diag] = np.exp(theta[:p])
        lmat = lmat.reshape(p, p)
        return lmat @ lmat.T

    def log_jacobian(self, theta: np.ndarray) -> float:
        """log|det d vech(Sigma) / d theta|."""
        return self.jac_offset + float(self.jac_weights @ theta[: self.p])


def _log_target(theta: np.ndarray, sampler: PosteriorSampler, cmap: _CholeskyMap) -> float:
    sigma = cmap.sigma(theta)
    try:
        lp = sampler.prior.log_density(sigma)
    except NotPositiveDefinite:
        return -math.inf
    if not math.isfinite(lp):
        return -math.inf
    return log_likelihood(sigma, sampler.data) + lp + cmap.log_jacobian(theta)


def _sample_metropolis(sampler: PosteriorSampler, count: int) -> PosteriorDraws:
    method: Metropolis = sampler.method
    p = sampler.data.dim
    rng = derived_rng(sampler.seed)
    d = p * (p + 1) // 2
    cmap = _CholeskyMap(p)
    theta = cmap.theta(sampler.data.sample_cov.cholesky)
    cur_lp = _log_target(theta, sampler, cmap)
    # For a vicinity prior the sample covariance may start outside the support;
    # fall back to the prior center.
    if not math.isfinite(cur_lp) and isinstance(sampler.prior, UniformVicinityPrior):
        theta = cmap.theta(sampler.prior.center.cholesky)
        cur_lp = _log_target(theta, sampler, cmap)
    if not math.isfinite(cur_lp):
        raise RejectionStarved("no valid Metropolis starting point")
    step = method.step_scale
    total = method.burn_in + count * method.thin
    accepted_post = 0
    proposals_post = 0
    window_acc = 0
    window_len = 0
    mats = np.empty((count, p, p))
    kept = 0
    for it in range(total):
        prop = theta + step * rng.standard_normal(d)
        prop_lp = _log_target(prop, sampler, cmap)
        accept = math.log(rng.random()) < prop_lp - cur_lp
        if accept:
            theta, cur_lp = prop, prop_lp
        if it < method.burn_in:
            window_acc += accept
            window_len += 1
            if window_len == 100:
                rate = window_acc / window_len
                step *= math.exp(rate - 0.3)  # target 0.3 acceptance, frozen after burn-in
                window_acc = window_len = 0
        else:
            proposals_post += 1
            accepted_post += accept
            if (it - method.burn_in + 1) % method.thin == 0 and kept < count:
                mats[kept] = sym(cmap.sigma(theta))
                kept += 1
    notes = []
    rate = accepted_post / max(proposals_post, 1)
    if not 0.05 <= rate <= 0.95:
        msg = f"Metropolis acceptance rate {rate:.3f} outside [0.05, 0.95]"
        warnings.warn(msg, PoorMixing)
        notes.append(msg)
    return PosteriorDraws.stored(mats[:kept], tuple(notes))


def _sample_rejection(sampler: PosteriorSampler, count: int) -> PosteriorDraws:
    """Flat-likelihood proposals kept when they fall inside the vicinity.

    A uniform-vicinity posterior is the likelihood restricted to the vicinity,
    and the likelihood alone is IW(nS, n - p - 1), so every kept draw is exact.
    """
    prior, data = sampler.prior, sampler.data
    if data.n <= 2 * data.dim:
        raise BadDegreesOfFreedom(
            f"the flat-likelihood proposal needs n > 2p; got n={data.n}, p={data.dim}"
        )
    scale = SpdMatrix(data.n * data.sample_cov.entries)
    dof = data.n - data.dim - 1.0
    kept = []
    n_kept = proposed = 0
    while n_kept < count:
        batch = min(max(count - n_kept, _CHUNK), 4 * _CHUNK)
        draws = sample_inverse_wishart(scale, dof, batch, derived_seed(sampler.seed, len(kept)))
        proposed += batch
        inside = draws[vicinity_mask(draws, prior.center, prior.delta)]
        kept.append(inside)
        n_kept += len(inside)
        if proposed >= 20 * _CHUNK and n_kept / proposed < 1e-4:
            raise RejectionStarved(
                f"acceptance rate {n_kept / proposed:.2e} below 1e-4 "
                f"after {proposed} proposals"
            )
    return PosteriorDraws.stored(np.concatenate(kept)[:count])


def sample_posterior(sampler: PosteriorSampler, count: int) -> PosteriorDraws:
    """Draw count matrices from the pseudo-posterior described by the sampler."""
    if count < 1:
        raise ValueError("count must be positive")
    if isinstance(sampler.method, ExactConjugate):
        return _sample_exact(sampler, count)
    if isinstance(sampler.method, Metropolis):
        return _sample_metropolis(sampler, count)
    if isinstance(sampler.method, RejectionInVicinity):
        return _sample_rejection(sampler, count)
    raise TypeError(f"unknown sampling method {sampler.method!r}")


def default_sampler(prior: PriorSpec, data: Dataset, seed: int = 0) -> PosteriorSampler:
    """Natural sampling method for each prior kind."""
    if isinstance(prior, InverseWishartPrior):
        return PosteriorSampler(prior, data, ExactConjugate(), seed)
    if isinstance(prior, UniformVicinityPrior):
        return PosteriorSampler(prior, data, RejectionInVicinity(), seed)
    if isinstance(prior, GenericPrior):
        return PosteriorSampler(prior, data, Metropolis(), seed)
    raise TypeError(f"unknown prior {prior!r}")


# ---------------------------------------------------------------------------
# Localization helpers


def vicinity_mask(
    matrices: np.ndarray, center: SpdMatrix, delta_bar: float
) -> np.ndarray:
    """Boolean mask of draws inside the vicinity (see :func:`relative_deviation`)."""
    return relative_deviation(matrices, center) <= delta_bar


def localized_posterior_mass(
    sampler: PosteriorSampler, delta_bar: float, count: int
) -> float:
    """Monte Carlo posterior mass of the vicinity around the ground truth."""
    if delta_bar < 0:
        raise ValueError("delta_bar must be nonnegative")
    if sampler.data.spec is None:
        raise BadDimension("localized mass needs a dataset carrying its model")
    if delta_bar == 0.0:
        return 0.0
    draws = sample_posterior(sampler, count)
    center = sampler.data.spec.model.sigma_star
    inside = per_draw(lambda block: vicinity_mask(block, center, delta_bar), draws)
    return float(np.mean(inside))


def localize_draws(
    draws: PosteriorDraws, center: SpdMatrix, delta_bar: float
) -> PosteriorDraws:
    """Restrict draws to the vicinity (the Monte Carlo localized posterior)."""
    mask = vicinity_mask(draws.matrices, center, delta_bar)
    return PosteriorDraws.stored(draws.matrices[mask], draws.warnings)
