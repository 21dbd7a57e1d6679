"""Pseudo-posterior sampling for covariance matrices.

The Gaussian log-likelihood is used regardless of the data family.  Each kind
of prior has one sampling method, and ``_SAMPLERS`` maps each method to its
prior kind and its sampler, for ``PosteriorSampler``, ``default_sampler`` and
``sample_posterior`` alike.

One loop, in ``sample_inverse_wishart``, makes every inverse Wishart draw.
The Wishart precision is T T^T with T = L B lower triangular (L the Cholesky
factor of the inverse scale, B the Bartlett factor), so each draw is X^T X
with X = T^-1, found by 2x2 block recursion down to T's diagonal without
forming or inverting the full precision, so X is exactly lower triangular.
Each call lays the recursion out once for each of its output buffers and
sub-block sizes, as a plan of views into the buffer and a shared scratch, so
that a sub-block's inverse slices and allocates nothing.  That path makes a
few BLAS calls per draw, whose fixed cost outweighs the arithmetic of a tiny
matrix, so at p <= ``_ELEMENTWISE_P`` = 3 the algebra runs instead entry by
entry, each entry one numpy operation over the draws, with no plan
(``_elementwise_algebra``): a p = 3 call of 4096 draws takes about 0.6 of the
time.  Its draws differ from the BLAS path's by rounding only.  The loop
works in cache-sized sub-blocks (``sub_block_size``): each takes its normals
and chi-squares from the stream in a fixed order, its algebra runs in reused
buffers (B, which also holds X^T X until it is cleared, and two output
buffers), and it is handed, as Sigma or with ``factor=True`` as its
triangular X, to a reducer while it is still in cache.  When a call has more
than one sub-block and the process may run on more than one CPU, one helper
thread draws the stream up to two sub-blocks ahead of the algebra, in the
same order.  While the reducer holds the calling thread, and its last call
took longer than the last sub-block's algebra, the helper also runs the next
sub-block's algebra, in the same code and buffer layout, into the output
buffer not being reduced; a lighter reducer leaves all of it to the calling
thread.  So the draws are bit for bit those of one thread, and the reducer
runs only on the calling thread, which joins the helper before it returns
or raises.  A reducing call holds about 4 MB at any p and draw count,
whichever thread runs the algebra; a call without a reducer passes a
collector that fills the (count, p, p) stack it returns.

With an inverse Wishart prior (``ExactConjugate``) the posterior is conjugate
and its draws are the loop's.  The other two samplers propose from the
flat-likelihood law IW(nS, n - p - 1), the posterior under a flat prior, which
needs n > 2p.  A uniform prior on a vicinity (``RejectionInVicinity``) is
sampled by exact rejection: proposals are kept when they fall inside the
vicinity.  The vicinity test is the loop's reducer and writes each kept draw
straight into one (count, p, p) stack, so no stack of proposals is formed.  A
density-evaluable ``GenericPrior`` (``Metropolis``) goes through an independence
Metropolis-Hastings chain, which accepts a proposal with probability
min(1, pi(Sigma') / pi(Sigma)) and so needs only the prior's density; a
conjugate prior runs on the chain when its ``log_density`` is wrapped in a
``GenericPrior``.  The Gaussian-type densities (the likelihood and the
inverse Wishart prior) factor Sigma = L L^T with LAPACK ``dpotrf`` and find
each trace term Tr(Sigma^-1 F F^T) = ||L^-1 F||_F^2 with one triangular
``dtrtrs`` solve against a cached Cholesky factor F, called directly because
numpy's ``linalg`` overhead dwarfs the work on small matrices
(``np.linalg.cholesky`` and ``np.linalg.solve`` take about 3.9 and 5.0 us at
p = 3, against 0.5 and 0.6 us).  Both read only Sigma's lower triangle, are
called with positional arguments, and their results are read with no numpy
reduction: the log det is 2 ``math.fsum`` of the diagonal's logs, rounded
once whatever the order, and the trace term one dot product of the solution
in its memory order.  A p = 3 prior evaluation, the Metropolis step's cost,
takes about 3.2 us.  A factor whose log det is not finite (a NaN or inf in
Sigma, which ``dpotrf`` need not flag) raises ``NotPositiveDefinite``.  Both
routines come from ``scipy.linalg``, which is imported at the first density
evaluation, so importing the package and sampling the exact and rejection
posteriors load no scipy module.

Posterior draws are read only through ``PosteriorDraws.map(fn, factor)``,
which returns fn of each part of the Sigma draws or, with ``factor=True``, of
factors X with Sigma = X^T X.  Exact conjugate draws are streamed: each call
draws them afresh from the sampler's seed, in one ``sample_inverse_wishart``
call with fn as its reducer, so fn sees cache-sized sub-blocks and no block
of draws is formed.  The functionals, the projector statistic, the TV
battery, the contraction search, the localized mass and ``localize_draws``
all reduce through it.  ``PosteriorDraws.matrices`` fills a fresh (M, p, p)
stack with the loop's collector through ``map`` on each read, for code
outside the package that needs every draw at once.  The Metropolis and
rejection samplers run when ``sample_posterior`` is called; their parts are
slices of at most ``_CHUNK`` stored draws, and their factors come from a
Cholesky factorization of each slice.
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading
import time
import warnings
from typing import Callable, Iterable

import numpy as np

from .datagen import Dataset, derived_rng, derived_seed
from .errors import (
    BadDegreesOfFreedom,
    BadDimension,
    NotPositiveDefinite,
    PoorMixing,
    RejectionStarved,
)
from .spd import SpdMatrix, sym, upper_factors, vicinity_mask

_CHUNK = 4096
# batched (p, p) algebra runs on sub-blocks of about this many bytes of
# matrices, so that each stays in cache
_SUB_BYTES = 1 << 20
# the largest p whose Bartlett algebra runs elementwise over the draws
# (``_elementwise_algebra``) rather than by a few BLAS calls per draw
_ELEMENTWISE_P = 3


def sub_block_size(p: int) -> int:
    """Matrices per cache-sized sub-block of a stack of (p, p) float64 matrices."""
    return max(1, _SUB_BYTES // (8 * p * p))


# ---------------------------------------------------------------------------
# Factor and solve


# scipy's LAPACK routines, bound by _bind_lapack at the first density
# evaluation: importing scipy.linalg takes longer than importing numpy, and a
# command that evaluates no density should not pay for it.  They are bound once
# per process, because an import statement costs about 0.45 us per call and a
# Metropolis chain makes tens of thousands of calls.
_dpotrf = _dtrtrs = None


def _bind_lapack() -> None:
    global _dpotrf, _dtrtrs
    from scipy.linalg import lapack

    _dpotrf, _dtrtrs = lapack.dpotrf, lapack.dtrtrs


def _cholesky(a: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of a, by LAPACK ``dpotrf``; raises off the SPD cone.

    Reads only a's lower triangle.  The arguments are positional, which f2py
    binds faster than keywords: 0.49 against 0.75 us a call at p = 3.  A NaN
    or inf entry need not stop ``dpotrf`` (OpenBLAS's does not flag NaN), so
    ``_log_det`` checks the factor too.
    """
    if _dpotrf is None:
        _bind_lapack()
    chol, info = _dpotrf(a, 1, 1)  # lower=1, clean=1
    if info > 0:
        raise NotPositiveDefinite(f"{what} needs an SPD matrix")
    return chol


def _log_det(chol: np.ndarray, what: str) -> float:
    """log det(L L^T) from the lower Cholesky factor L; raises if it is not finite.

    2 * fsum(log L_ii): numpy's logs of the diagonal, summed by ``math.fsum``,
    which rounds their exact sum once, so no summation order enters.  That
    takes about 0.6 us at p = 3 and 1.9 us at p = 50, against 1.6 us for
    numpy's own sum, whose fixed cost dominates at small p; ``math.log`` over
    the list is as fast at p = 3 but took 4.9 us at p = 50.  A factor with a
    NaN or inf on its diagonal comes from a matrix that is not SPD.
    """
    log_det = 2.0 * math.fsum(np.log(chol.diagonal()).tolist())
    if not math.isfinite(log_det):
        raise NotPositiveDefinite(f"{what} needs an SPD matrix")
    return log_det


def _solved_sq_norm(chol: np.ndarray, factor: np.ndarray) -> float:
    """||L^-1 F||_F^2 for lower-triangular L, by one LAPACK ``dtrtrs`` solve.

    Reads only L's lower triangle.  Positional arguments again (0.59 against
    0.77 us a call at p = 3).  The solution comes back in Fortran order, so
    it is raveled in memory order, with no copy, and squared by one dot
    product: 1.1 us at p = 3 and 1.3 us at p = 50, where ``np.vdot`` copies
    it to C order first and takes 3.8 us.
    """
    if _dtrtrs is None:
        _bind_lapack()
    v = _dtrtrs(chol, factor, 1)[0].ravel(order="K")  # lower=1
    return float(v @ v)


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
        what = "the inverse Wishart prior"
        chol = _cholesky(sigma, what)
        # Tr(G Sigma^-1) = ||L^-1 G^1/2||_F^2 with G^1/2 the Cholesky factor of G
        trace_term = _solved_sq_norm(chol, self.scale.cholesky)
        # len(sigma) is p at a fifth of the cost of the dim property
        return -0.5 * (2 * len(sigma) + self.b) * _log_det(chol, what) - 0.5 * trace_term


@dataclasses.dataclass(frozen=True)
class UniformVicinityPrior:
    """Uniform prior on the vicinity of a center matrix (see ``spd.vicinity_mask``)."""

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
    """Gaussian pseudo-log-likelihood of a covariance matrix given the data;
    raises if sigma is not SPD."""
    a = sigma.entries if isinstance(sigma, SpdMatrix) else np.asarray(sigma)
    n, p = data.n, data.dim
    what = "the log-likelihood"
    chol = _cholesky(a, what)
    # Tr(Sigma^-1 S) = ||L^-1 C||_F^2 with C the Cholesky factor of S
    trace_term = _solved_sq_norm(chol, data.sample_cov.cholesky)
    log_det = _log_det(chol, what)
    return -0.5 * n * log_det - 0.5 * n * trace_term - 0.5 * n * p * math.log(2 * math.pi)


# ---------------------------------------------------------------------------
# Inverse Wishart sampling (Bartlett factor, triangular inverse)


def _tril_inv_plan(t: np.ndarray, scratch: np.ndarray) -> tuple:
    """The inverse of a C-contiguous (count, p, p) stack t of lower-triangular
    matrices, laid out as views, for ``_tril_inv_run`` to invert t's entries
    in place each time t is refilled.

    2x2 block recursion down to the diagonal: the inverse of [[A, 0], [C, D]]
    is [[A^-1, 0], [-D^-1 C A^-1, D^-1]].  A and D are inverted in their own
    views first, then C is overwritten by -(D^-1 C) A^-1; a 1x1 block is its
    reciprocal.  The upper blocks are never written, so the inverse is exactly
    lower triangular.  The leaves are t's diagonal, one strided view.  Each
    internal node, in post-order, is its views (D^-1, C, A^-1) and a
    C-contiguous view of the flat ``scratch`` shaped like C, to hold D^-1 C.
    ``scratch`` has at least count * ceil(p/2) * floor(p/2) entries, the
    root's C; the nodes share it, and so may plans that never run at the same
    time.  The kernel keeps a plan for each of its output buffers and
    sub-block sizes.
    """
    if not t.flags.c_contiguous:
        raise ValueError("the triangular inverse needs a C-contiguous stack")
    m, p = len(t), t.shape[-1]
    nodes = [
        (
            t[:, mid:hi, mid:hi],
            t[:, mid:hi, lo:mid],
            t[:, lo:mid, lo:mid],
            scratch[: m * (hi - mid) * (mid - lo)].reshape(m, hi - mid, mid - lo),
        )
        for lo, mid, hi in _post_order(0, p)
    ]
    return t.reshape(m, p * p)[:, :: p + 1], nodes


def _post_order(lo: int, hi: int) -> Iterable[tuple[int, int, int]]:
    """(lo, mid, hi) of each node of the 2x2 recursion on rows lo:hi, whose A
    is rows lo:mid and D rows mid:hi, children before parents."""
    if hi - lo > 1:
        mid = lo + (hi - lo) // 2
        yield from _post_order(lo, mid)
        yield from _post_order(mid, hi)
        yield lo, mid, hi


def _tril_inv_run(plan: tuple) -> None:
    """Invert in place the stack of lower-triangular matrices that
    ``_tril_inv_plan`` planned: the leaves' reciprocals, then each node's
    C = -(D^-1 C) A^-1, children before parents, slicing and allocating
    nothing.  At p = 50 the plain recursion made about 150 numpy calls, whose
    fixed cost was about half of the inverse of one 52-draw sub-block; a plan
    runs in 0.6-0.7 of the time.

    Each product has the shape, the strides and the operand order of the
    plain recursion's.  The sign goes on D^-1 C in the scratch, where
    negating is a contiguous pass, and not on C, a strided view that numpy
    negates through its buffered iterator at about six times the cost.
    Rounding is symmetric in sign, so the inverse equals the recursion's -C
    bit for bit except the sign of an exact zero, which needs an exact zero
    below the diagonal (a Bartlett factor has none with probability one).
    """
    diag, nodes = plan
    # every leaf before the nodes that read it; in Fortran order the loop runs
    # along the count, which at p = 3 is 4096 to the diagonal's 3
    np.reciprocal(diag, out=diag, order="F")
    for d_inv, c, a_inv, tmp in nodes:
        np.matmul(d_inv, c, out=tmp)
        np.negative(tmp, out=tmp)
        np.matmul(tmp, a_inv, out=c)


def _elementwise_algebra(chol: list, b: np.ndarray, out: np.ndarray, factor: bool) -> None:
    """One sub-block's Bartlett algebra, entry by entry, each entry one numpy
    operation over the draws: for p <= ``_ELEMENTWISE_P``.

    chol is L as nested lists of floats, b the (m, p, p) scattered B and out
    the (m, p, p) output buffer.  With the sums in this order:

    - T = L B in place over B, column by column from the bottom row up, so
      that T_rc reads only B entries not yet overwritten:
      T_rc = L_rr B_rc + L_r,r-1 B_r-1,c + ... + L_rc B_cc (l from r down to c);
    - X = T^-1 by forward substitution, row by row, into out with
      ``factor=True`` and otherwise in place over T: X_rr = 1/T_rr and
      X_rc = (T_rc X_cc + T_r,c+1 X_c+1,c + ... + T_r,r-1 X_r-1,c) (-X_rr)
      (l from c up to r - 1); out's strict upper triangle is set to exact
      zeros, and b's is never written;
    - Sigma_rc = X_kr X_kc + ... + X_p-1,r X_p-1,c with k = max(r, c) (l from
      k up), computed below the diagonal and copied above it, so Sigma is
      exactly symmetric.

    So X and Sigma do not depend on which buffer holds X.  The entries cost
    O(p^3) numpy calls of fixed cost, where the BLAS path makes a few calls
    per draw.  Over a kernel call of 4096 draws (``reduce=len``, one BLAS
    thread), the elementwise form took 1.38 ms at p = 3 on the Sigma route
    against 2.37 ms with per-draw BLAS; at p = 6 the two were close (6.2
    against 7.3 ms, and 5.2 against 5.1 ms on the factor route), and at p = 8
    per-draw BLAS was the faster, 8.9 against 12.5 ms.  So this fork is kept
    on purpose.  The crossover sits at 3 and not higher, so that the draws
    at p >= 4, which tests pin bit for bit, stay those of the BLAS path.
    """
    p = b.shape[-1]
    for c in range(p):
        for r in range(p - 1, c - 1, -1):
            t = np.multiply(b[:, r, c], chol[r][r], out=b[:, r, c])
            for l in range(r - 1, c - 1, -1):
                t += b[:, l, c] * chol[r][l]
    x = out if factor else b
    for r in range(p):
        x_rr = np.reciprocal(b[:, r, r], out=x[:, r, r])
        neg = -x_rr
        for c in range(r):
            s = np.multiply(b[:, r, c], x[:, c, c], out=x[:, r, c])
            for l in range(c + 1, r):
                s += b[:, r, l] * x[:, l, c]
            s *= neg
        if factor:
            for c in range(r + 1, p):
                out[:, r, c] = 0.0
    if factor:
        return
    for r in range(p):
        for c in range(r + 1):
            s = np.multiply(b[:, r, r], b[:, r, c], out=out[:, r, c])
            for l in range(r + 1, p):
                s += b[:, l, r] * b[:, l, c]
            if c < r:
                out[:, c, r] = s


def sample_inverse_wishart(
    scale: SpdMatrix,
    dof: float,
    count: int,
    seed: int | np.random.Generator,
    *,
    factor: bool = False,
    reduce: Callable[[np.ndarray], object] | None = None,
) -> np.ndarray | list:
    """i.i.d. draws from the inverse Wishart with the given scale and dof.

    The precision W ~ Wishart(scale^-1, dof) is T T^T with T = L B, where L is
    the Cholesky factor of scale^-1 and B the Bartlett factor, both lower
    triangular: B's strict lower triangle is standard normal and its diagonal
    is sqrt(chi2(dof - i)).  So the draw W^-1 = X^T X with X = T^-1, inverted by
    triangular block recursion; W itself is never formed.

    One loop makes every draw.  Each block of ``_CHUNK`` draws is split into
    sub-blocks of ``sub_block_size(p)`` draws, small enough to stay in cache,
    starting at the block's start.  Each sub-block takes its strict-lower
    normals (row-major ``np.tril_indices`` order) and then its chi-square
    diagonal from the stream, which fixes the draws for a seed; at p <= 5 a
    sub-block is the whole block.  Each sub-block's draws are scattered into
    B and its algebra runs in reused buffers: B and two output buffers, one
    layout for whichever thread runs it.  For p > 3, T is formed in an output
    buffer and inverted there, by the plan (``_tril_inv_plan``) that the call
    keeps for that buffer and sub-block size, and X is, unless
    ``factor=True`` asks for the lower-triangular X itself, overwritten there
    by the exactly symmetric Sigma = 0.5 (W + W^T), with W = X^T X formed in
    B, which is then cleared for the next scatter.  Those are a few BLAS
    calls per draw.  For p <= ``_ELEMENTWISE_P`` = 3 their fixed cost
    outweighs the arithmetic, and ``_elementwise_algebra`` forms T and X in
    B and writes X or Sigma to the output buffer, each entry one numpy
    operation over the sub-block's draws, in the summation order its
    docstring states; it builds no plan.  At p = 3 a call of 4096 draws took 1.38 ms on the Sigma
    route and 1.23 ms on the factor route, against 2.37 and 1.51 ms with
    per-draw BLAS; it makes O(p^3) numpy calls, so from p of about 6 to 8 up
    per-draw BLAS is the faster, and the two paths are kept on purpose.  The
    sub-block's draws are then handed to ``reduce`` on the calling thread,
    while they are still in cache.

    With more than one sub-block, and more than one CPU that the process may
    run on, one helper thread draws the stream into two alternating buffers,
    up to two sub-blocks ahead, while the calling thread runs the algebra;
    otherwise the calling thread does everything.  While the calling thread
    is in ``reduce``, and its last ``reduce`` took longer than its last
    scatter and algebra, the helper also scatters and computes the next
    sub-block, into whichever of the two output buffers the caller is not
    reducing.  The calling thread computes every sub-block the helper has not
    claimed, into the first.  One sub-block's algebra runs at a time, in the
    same code and buffers on either thread, so the draws do not depend on
    which thread made them, and a reducer lighter than the algebra keeps it
    all on the calling thread.  An error on the helper is raised on the
    calling thread, and the helper is joined before the call returns or
    raises.

    With ``reduce=fn`` the call returns the list of fn of each sub-block's
    draws.  fn's argument is a buffer that the next sub-block overwrites: an
    array result that shares its memory is copied, and fn must keep no other
    reference to it.  Such a call holds the sub-block buffers and fn's
    values, about 4 MB: its peak does not grow with p or count.  Without ``reduce`` the call returns the
    (count, p, p) stack of the draws, filled sub-block by sub-block by a
    collector passed as ``reduce``, so the stack holds bit for bit what fn
    would see.

    ``seed`` is an int, for the stream ``derived_rng(seed)``, or a generator
    that the call draws from and advances; calls of at most ``_CHUNK`` draws
    each on one generator continue the stream of one call for their total
    count.  After a call that raised, the generator's state is unspecified:
    the helper may have drawn ahead of the failure.
    """
    p = scale.dim
    if dof <= p - 1:
        raise BadDegreesOfFreedom(f"dof {dof} must exceed p - 1 = {p - 1}")
    if count < 1:
        raise ValueError("count must be positive")
    if reduce is None:
        stack = _Stack(count)
        sample_inverse_wishart(scale, dof, count, seed, factor=factor, reduce=stack)
        return stack.array
    chol = np.linalg.cholesky(sym(scale.inv()))
    df = dof - np.arange(p)
    il, jl = np.tril_indices(p, -1)
    lower, diag = il * p + jl, np.arange(p) * (p + 1)
    sub = min(sub_block_size(p), count, _CHUNK)
    # sub-blocks restart at each block's start, so that calls of at most
    # _CHUNK draws on one generator continue one call's stream
    sizes = []
    for block_start in range(0, count, _CHUNK):
        block = min(_CHUNK, count - block_start)
        sizes += [min(sub, block - start) for start in range(0, block, sub)]
    bart = np.zeros((sub, p, p))  # its upper triangle is zero at each scatter
    # either thread forms X in the output buffer of its slot; on the BLAS
    # path it forms X^T X in B, which it then clears for the next scatter.
    # The elementwise path writes only B's lower triangle
    bufs = (np.empty_like(bart), np.empty_like(bart))
    bart_flat = bart.reshape(sub, p * p)
    # sub-block i's normals and chi-square roots go into buffer i % 2
    normals, roots = np.empty((2, sub, len(lower))), np.empty((2, sub, p))
    elementwise = p <= _ELEMENTWISE_P
    if elementwise:
        chol_rows = chol.tolist()
    else:
        # the inverse's plan for each output buffer and sub-block size, built
        # at its first use; one algebra runs at a time, so they share a scratch
        plans, scratch = {}, np.empty(sub * ((p + 1) // 2) * (p // 2))
    rng = seed if isinstance(seed, np.random.Generator) else derived_rng(seed)

    def draw(i: int) -> None:
        m = sizes[i]
        rng.standard_normal(out=normals[i % 2, :m])
        np.sqrt(rng.chisquare(df, size=(m, p)), out=roots[i % 2, :m])

    def scatter(i: int) -> None:
        m = sizes[i]
        bart_flat[:m, lower] = normals[i % 2, :m]
        bart_flat[:m, diag] = roots[i % 2, :m]

    def algebra(i: int, slot: int) -> np.ndarray:
        m = sizes[i]
        if elementwise:
            block = bufs[slot][:m]
            _elementwise_algebra(chol_rows, bart[:m], block, factor)
            return block
        # T = L B, then X = T^-1
        block = np.matmul(chol, bart[:m], out=bufs[slot][:m])
        plan = plans.get((slot, m))
        if plan is None:
            plan = plans[slot, m] = _tril_inv_plan(block, scratch)
        _tril_inv_run(plan)
        if not factor:
            w = np.matmul(block.swapaxes(1, 2), block, out=bart[:m])
            np.add(w, w.swapaxes(1, 2), out=block)
            block *= 0.5
            bart[:m] = 0.0
        return block

    results = []
    stream = _Stream(
        draw, scatter, algebra, len(sizes), threaded=len(sizes) > 1 and _cpu_count() > 1
    )
    try:
        for _ in sizes:
            value = stream.reduce(reduce, stream.take())
            if isinstance(value, np.ndarray) and any(np.may_share_memory(value, b) for b in bufs):
                value = value.copy()
            results.append(value)
    finally:
        stream.close()
    return results


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Stream:
    """Makes sub-blocks 0, ..., count - 1 in order for a caller that calls
    ``take`` for each, hands it to ``reduce`` and calls ``close`` at the end.
    draw(i) fills draw buffer i % 2 from the stream, scatter(i) copies it into
    B, and algebra(i, slot) runs sub-block i's algebra from B into output
    buffer ``slot`` of two and returns the block, in the same code on either
    thread.

    Unthreaded, ``take`` runs all three on the calling thread, in slot 0.
    Threaded, one helper thread makes the draws, in order and up to two ahead
    of the scatters that free their buffers.  ``take`` runs the scatter and
    the algebra of each sub-block the helper has not claimed, in slot 0,
    waiting for its draw and raising the helper's error.  While the caller is
    in ``reduce``, and its last reduce took longer than its last scatter and
    algebra, the helper claims the next sub-block, once drawn, and runs its
    scatter and algebra into the slot that is not being reduced; ``take``
    then waits for it.  So one algebra runs at a time, and B is shared.
    ``close`` stops the helper after the step it is in and joins it.
    """

    def __init__(self, draw, scatter, algebra, count: int, threaded: bool):
        self._draw, self._scatter, self._algebra = draw, scatter, algebra
        self._count, self._next, self._slot = count, 0, 0
        self._thread = self._error = None
        if threaded:
            self._cond = threading.Condition()
            # sub-blocks drawn, scattered, and claimed for their algebra
            self._drawn = self._freed = self._claimed = 0
            # the sub-block the helper made last, and its block
            self._made, self._made_block = -1, None
            self._help = self._stopped = False
            self._algebra_s = self._reduce_s = 0.0
            self._thread = threading.Thread(target=self._work)
            self._thread.start()

    def _work(self) -> None:
        cond = self._cond
        try:
            while True:
                with cond:
                    while not self._stopped:
                        # only the sub-block after the one being reduced
                        if self._help and self._claimed == self._next < self._drawn:
                            i, slot = self._claimed, 1 - self._slot
                            self._claimed += 1
                            break
                        if self._drawn < min(self._count, self._freed + 2):
                            i, slot = self._drawn, None
                            break
                        cond.wait()
                    else:
                        return
                if slot is None:
                    self._draw(i)
                    with cond:
                        self._drawn += 1
                        cond.notify_all()
                else:
                    self._scatter(i)
                    block = self._algebra(i, slot)
                    with cond:
                        self._freed += 1
                        self._made, self._made_block = i, block
                        cond.notify_all()
        except BaseException as exc:  # raised again on the calling thread
            with cond:
                self._error = exc
                cond.notify_all()

    def _wait(self, ready: Callable[[], bool]) -> None:
        while not ready() and self._error is None:
            self._cond.wait()
        if self._error is not None:
            raise self._error

    def take(self) -> np.ndarray:
        i = self._next
        self._next += 1
        if self._thread is None:
            self._draw(i)
            self._scatter(i)
            return self._algebra(i, 0)
        with self._cond:
            if self._claimed > i:
                self._wait(lambda: self._made == i)
                self._slot = 1 - self._slot
                return self._made_block
            self._claimed += 1
            self._wait(lambda: self._drawn > i)
        start = time.perf_counter()
        self._scatter(i)
        with self._cond:
            self._freed += 1
            self._cond.notify_all()
        self._slot = 0
        block = self._algebra(i, 0)
        self._algebra_s = time.perf_counter() - start
        return block

    def reduce(self, fn: Callable[[np.ndarray], object], block: np.ndarray) -> object:
        if self._thread is None:
            return fn(block)
        with self._cond:
            self._help = self._reduce_s > self._algebra_s
            if self._help:
                self._cond.notify_all()
        start = time.perf_counter()
        try:
            return fn(block)
        finally:
            self._reduce_s = time.perf_counter() - start
            with self._cond:
                self._help = False

    def close(self) -> None:
        if self._thread is not None:
            with self._cond:
                self._stopped = True
                self._cond.notify_all()
            self._thread.join()


class _Stack:
    """Collects parts of draws, in order, into one fresh (count, ...) stack,
    allocated at the first part: the stack form of ``sample_inverse_wishart``,
    of ``PosteriorDraws.matrices`` and of the rejection sampler's kept draws.
    ``filled`` counts every row given; rows past count are dropped."""

    def __init__(self, count: int):
        self.count, self.filled, self.array = count, 0, None

    def __call__(self, part: np.ndarray) -> None:
        if self.array is None:
            self.array = np.empty((self.count, *part.shape[1:]))
        room = max(self.count - self.filled, 0)
        self.array[self.filled : self.filled + len(part)] = part[:room]
        self.filled += len(part)


# ---------------------------------------------------------------------------
# Posterior samplers


@dataclasses.dataclass(frozen=True)
class ExactConjugate:
    pass


@dataclasses.dataclass(frozen=True)
class Metropolis:
    burn_in: int = 2000
    thin: int = 5

    def __post_init__(self):
        if self.burn_in < 0 or self.thin < 1:
            raise ValueError("Metropolis needs burn_in >= 0 and thin >= 1")


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
        if type(self.method) not in _SAMPLERS:
            raise TypeError(f"unknown sampling method {self.method!r}")
        kind = _SAMPLERS[type(self.method)][0]
        if not isinstance(self.prior, kind):
            raise BadDimension(
                f"{type(self.method).__name__} takes only a prior of type {kind.__name__}"
            )
        prior_dim = getattr(self.prior, "dim", self.data.dim)
        if prior_dim != self.data.dim:
            raise BadDimension(
                f"prior dimension {prior_dim} != data dimension {self.data.dim}"
            )


class PosteriorDraws:
    """Posterior draws, read only by reducing them with ``map``: ``stream(factor,
    fn)`` gives fn of each part of the Sigma draws or, with ``factor=True``, of
    their factors X with Sigma = X^T X, in order and the same on every call."""

    def __init__(
        self,
        stream: Callable[[bool, Callable[[np.ndarray], object]], Iterable],
        count: int,
        warnings: tuple[str, ...] = (),
    ):
        self._stream = stream
        self._count = count
        self.warnings = warnings

    @classmethod
    def stored(cls, matrices: np.ndarray, warnings: tuple[str, ...] = ()) -> PosteriorDraws:
        """Draws held as an (M, p, p) stack, in slices of at most ``_CHUNK``
        (one empty slice if M = 0), factored by ``spd.upper_factors``."""

        def stream(factor, fn):
            for start in range(0, max(len(matrices), 1), _CHUNK):
                block = matrices[start : start + _CHUNK]
                yield fn(upper_factors(block) if factor else block)

        return cls(stream, len(matrices), warnings)

    def __len__(self) -> int:
        return self._count

    def map(self, fn: Callable[[np.ndarray], object], factor: bool = False) -> list:
        """fn of each part of the Sigma draws or, with ``factor=True``, of
        their factors X with Sigma = X^T X, in order.

        Exact conjugate draws are drawn afresh from the seed on each call, by
        one ``sample_inverse_wishart(..., reduce=fn)`` call for all of them:
        fn sees sub-blocks of at most ``sub_block_size(p)`` draws, in a buffer
        that the next sub-block overwrites.  Stored draws give fn slices of at
        most ``_CHUNK`` draws.  So fn must reduce each draw on its own.
        """
        return list(self._stream(factor, fn))

    @property
    def matrices(self) -> np.ndarray:
        """A fresh (M, p, p) stack of all draws, filled part by part by ``map``."""
        stack = _Stack(self._count)
        self.map(stack)
        return stack.array


def conjugate_posterior_params(prior: InverseWishartPrior, data: Dataset):
    """Scale and dof of the exact inverse Wishart posterior."""
    n = data.n
    scale = SpdMatrix(n * data.sample_cov.entries + prior.scale.entries)
    return scale, n + prior.dof()


def _sample_exact(sampler: PosteriorSampler, count: int) -> PosteriorDraws:
    scale, dof = conjugate_posterior_params(sampler.prior, sampler.data)

    def stream(factor, fn):
        return sample_inverse_wishart(scale, dof, count, sampler.seed, factor=factor, reduce=fn)

    return PosteriorDraws(stream, count)


def _flat_likelihood(data: Dataset) -> tuple[SpdMatrix, float]:
    """Scale and dof of the flat-likelihood law IW(nS, n - p - 1), the proposal
    law of the rejection sampler and of the chain; its dof exceeds p - 1 only
    when n > 2p."""
    if data.n <= 2 * data.dim:
        raise BadDegreesOfFreedom(
            f"the flat-likelihood proposal needs n > 2p; got n={data.n}, p={data.dim}"
        )
    return SpdMatrix(data.n * data.sample_cov.entries), data.n - data.dim - 1.0


def _sample_metropolis(sampler: PosteriorSampler, count: int) -> PosteriorDraws:
    """Independence Metropolis-Hastings chain on flat-likelihood proposals.

    The posterior is IW(nS, n - p - 1) reweighted by the prior, so a proposal
    drawn from that law is accepted with probability min(1, pi(Sigma') /
    pi(Sigma)): no likelihood, Jacobian or step size enters.  The chain starts
    at S and makes ``burn_in + count * thin`` steps, one proposal and one prior
    evaluation each; it keeps every ``thin``-th state after burn-in.  Proposal
    block k of at most ``_CHUNK`` comes from branch (seed, 1, k), the acceptance
    uniforms from branch (seed, 2).
    """
    method: Metropolis = sampler.method
    scale, dof = _flat_likelihood(sampler.data)
    log_density = sampler.prior.log_density

    def log_prior(sigma: np.ndarray) -> float:
        try:
            lp = log_density(sigma)
        except NotPositiveDefinite:
            return -math.inf
        return lp if math.isfinite(lp) else -math.inf

    cur = sampler.data.sample_cov.entries.copy()
    cur_lp = log_prior(cur)
    if cur_lp == -math.inf:
        raise RejectionStarved("the prior density at the Metropolis start S is not finite")
    total = method.burn_in + count * method.thin
    uniforms = derived_rng(sampler.seed, 2)
    mats = np.empty((count, *cur.shape))
    kept = accepted = 0
    for k, block_start in enumerate(range(0, total, _CHUNK)):
        m = min(_CHUNK, total - block_start)
        proposals = sample_inverse_wishart(scale, dof, m, derived_seed(sampler.seed, 1, k))
        log_u = np.log(uniforms.random(m)).tolist()
        for it, prop, lu in zip(range(block_start, block_start + m), proposals, log_u):
            lp = log_prior(prop)
            accept = lu < lp - cur_lp
            if accept:
                cur, cur_lp = prop, lp
            if it >= method.burn_in:
                accepted += accept
                if (it - method.burn_in + 1) % method.thin == 0:
                    mats[kept] = cur
                    kept += 1
    notes = []
    rate = accepted / (count * method.thin)
    if rate < 0.05:
        msg = f"Metropolis acceptance rate {rate:.3f} below 0.05"
        warnings.warn(msg, PoorMixing)
        notes.append(msg)
    return PosteriorDraws.stored(mats, tuple(notes))


def _sample_rejection(sampler: PosteriorSampler, count: int) -> PosteriorDraws:
    """Flat-likelihood proposals kept when they fall inside the vicinity.

    A uniform-vicinity posterior is the likelihood restricted to the vicinity,
    and the likelihood alone is IW(nS, n - p - 1), so every kept draw is exact.
    The vicinity test reduces each sub-block of proposals in the kernel, and
    the draws it keeps go straight into one (count, p, p) stack.
    """
    prior = sampler.prior
    scale, dof = _flat_likelihood(sampler.data)
    kept = _Stack(count)
    batches = proposed = 0
    while kept.filled < count:
        batch = min(max(count - kept.filled, _CHUNK), 4 * _CHUNK)
        sample_inverse_wishart(
            scale, dof, batch, derived_seed(sampler.seed, batches),
            reduce=lambda part: kept(part[vicinity_mask(part, prior.center, prior.delta)]),
        )
        batches += 1
        proposed += batch
        if proposed >= 20 * _CHUNK and kept.filled / proposed < 1e-4:
            raise RejectionStarved(
                f"acceptance rate {kept.filled / proposed:.2e} below 1e-4 "
                f"after {proposed} proposals"
            )
    return PosteriorDraws.stored(kept.array)


# each sampling method: the one prior kind it samples, and its sampler
_SAMPLERS = {
    ExactConjugate: (InverseWishartPrior, _sample_exact),
    RejectionInVicinity: (UniformVicinityPrior, _sample_rejection),
    Metropolis: (GenericPrior, _sample_metropolis),
}


def sample_posterior(sampler: PosteriorSampler, count: int) -> PosteriorDraws:
    """Draw count matrices from the pseudo-posterior described by the sampler."""
    if count < 1:
        raise ValueError("count must be positive")
    return _SAMPLERS[type(sampler.method)][1](sampler, count)


def default_sampler(prior: PriorSpec, data: Dataset, seed: int = 0) -> PosteriorSampler:
    """The sampling method of the prior's kind."""
    for method, (kind, _) in _SAMPLERS.items():
        if isinstance(prior, kind):
            return PosteriorSampler(prior, data, method(), seed)
    raise TypeError(f"unknown prior {prior!r}")


# ---------------------------------------------------------------------------
# Localization helpers


def localized_posterior_mass(sampler: PosteriorSampler, delta_bar, count: int):
    """Monte Carlo posterior mass of the vicinity around the ground truth.

    ``delta_bar`` is one radius, for a float, or a 1-D grid, for an array of
    the mass at each radius; each part of the draws is tested against every
    radius in one ``spd.vicinity_mask`` call, and only its counts are kept.
    """
    radii = np.asarray(delta_bar, dtype=np.float64)
    if np.any(radii < 0):
        raise ValueError("delta_bar must be nonnegative")
    if sampler.data.spec is None:
        raise BadDimension("localized mass needs a dataset carrying its model")
    if radii.ndim == 0 and radii == 0.0:
        return 0.0
    draws = sample_posterior(sampler, count)
    center = sampler.data.spec.model.sigma_star
    inside = sum(draws.map(lambda block: vicinity_mask(block, center, radii).sum(axis=0)))
    mass = inside / len(draws)
    return float(mass) if radii.ndim == 0 else mass


def localize_draws(
    draws: PosteriorDraws, center: SpdMatrix, delta_bar: float
) -> PosteriorDraws:
    """Restrict draws to the vicinity (the Monte Carlo localized posterior)."""
    parts = draws.map(lambda part: part[vicinity_mask(part, center, delta_bar)])
    return PosteriorDraws.stored(np.concatenate(parts), draws.warnings)
