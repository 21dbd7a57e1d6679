"""Symmetric positive-definite matrix container, spectral norms and vicinities,
and CSV I/O."""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import NotPositiveDefinite

# Relative floor (w.r.t. spectral norm) for the smallest eigenvalue.
_PD_RTOL = 1e-12
_EPS = float(np.finfo(np.float64).eps)
# vicinity_mask leaves a squared Frobenius norm below this to eigvalsh: under
# it, squares lose relative accuracy to gradual underflow
_FRO_SQ_MIN = float(np.finfo(np.float64).tiny) / _EPS
# spectral_norm runs Jacobi rotations over a whole stack (``_jacobi_norms``),
# rather than one LAPACK call per matrix, for stacks of at least _JACOBI_MIN
# matrices of size p <= _JACOBI_P: below either, the rotations' numpy calls
# cost more (measured crossovers, 1 BLAS thread)
_JACOBI_P = 3
_JACOBI_MIN = 256
# spectral_norm hands _jacobi_norms slices of at most this many matrices, so
# that their rows and scratch, about 360 kB at p = 3, stay in cache, and a
# larger stack holds no more than its eigvalsh would
_JACOBI_SLICE = 4096
# sweeps after which _jacobi_norms leaves a matrix to eigvalsh
_JACOBI_SWEEPS = 8
# added to the rotations' root, where it changes nothing above 2^-447
_ROT_FLOOR = 2.0**-500


@dataclasses.dataclass(frozen=True)
class SpdMatrix:
    """Validated symmetric positive-definite matrix.

    The input is symmetrized as (M + M.T) / 2 on construction, which removes
    floating-point asymmetry from upstream arithmetic.  Positive definiteness
    is checked against a relative tolerance on the smallest eigenvalue.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise NotPositiveDefinite(f"expected a nonempty square matrix, got shape {a.shape}")
        # eigvalsh reads NaN without raising, and no comparison with NaN holds
        if not np.isfinite(a).all():
            i, j = np.argwhere(~np.isfinite(a))[0]
            raise NotPositiveDefinite(f"entry ({i}, {j}) is {a[i, j]}, not finite")
        a = 0.5 * (a + a.T)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        eigs = np.linalg.eigvalsh(a)
        snorm = float(np.max(np.abs(eigs)))
        if snorm == 0.0 or eigs[0] <= _PD_RTOL * snorm:
            raise NotPositiveDefinite(
                f"smallest eigenvalue {eigs[0]:.3e} not positive "
                f"(spectral norm {snorm:.3e})"
            )
        object.__setattr__(self, "_eigs", eigs)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in ascending order."""
        return self._eigs

    @property
    def spectral_norm(self) -> float:
        return float(self._eigs[-1])

    @functools.cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only eigenvalues and eigenvectors, computed on first use."""
        w, v = np.linalg.eigh(self.entries)
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v

    @functools.cached_property
    def cholesky(self) -> np.ndarray:
        """Read-only lower Cholesky factor, computed on first use."""
        chol = _cholesky(self.entries)
        chol.setflags(write=False)
        return chol

    def sqrtm(self) -> np.ndarray:
        """Symmetric square root."""
        w, v = self._eigh
        return (v * np.sqrt(w)) @ v.T

    def inv_sqrtm(self) -> np.ndarray:
        """Symmetric inverse square root."""
        w, v = self._eigh
        return (v / np.sqrt(w)) @ v.T

    def inv(self) -> np.ndarray:
        w, v = self._eigh
        return (v / w) @ v.T


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetrize a matrix (or a stack of matrices)."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _cholesky(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("Cholesky factorization failed") from exc


def upper_factors(a: np.ndarray) -> np.ndarray:
    """Upper-triangular X with X^T X = A, for an SPD matrix or stack of them.

    X is the transposed lower Cholesky factor; raises NotPositiveDefinite if
    a factorization fails.
    """
    return np.swapaxes(_cholesky(a), -1, -2)


def spectral_norm(a: np.ndarray) -> np.ndarray:
    """Spectral norm of a symmetric matrix or stack of symmetric matrices;
    NaN for a matrix with a non-finite entry.

    Like ``eigvalsh``, it reads each matrix's lower triangle.  At least
    ``_JACOBI_MIN`` finite (p, p) matrices with p <= ``_JACOBI_P`` go to
    ``_jacobi_norms``, whose error is a few eps ||A||_2, as LAPACK's is; any
    other matrices to ``eigvalsh``.
    """
    a = np.asarray(a)
    p = a.shape[-1]
    finite = np.isfinite(a).all(axis=(-2, -1))
    norm = np.full(finite.shape, np.nan)
    # eigvalsh reads a NaN as zero and raises on an infinity, so it gets only
    # the finite matrices, as one (count, p, p) stack
    kept = a.reshape(-1, p, p) if finite.all() else a[finite]
    if p <= _JACOBI_P and len(kept) >= _JACOBI_MIN:
        slices = range(0, len(kept), _JACOBI_SLICE)
        norm[finite] = np.concatenate([_jacobi_norms(kept[i : i + _JACOBI_SLICE]) for i in slices])
    else:
        norm[finite] = _eigvalsh_norms(kept)
    return norm[()]


def _eigvalsh_norms(a: np.ndarray) -> np.ndarray:
    return np.max(np.abs(np.linalg.eigvalsh(a)), axis=-1)


def _jacobi_norms(a: np.ndarray) -> np.ndarray:
    """Spectral norms of a finite (count, p, p) stack by cyclic Jacobi, each
    step one numpy operation over all the matrices at once.

    The lower triangle is packed with the matrix index last, as p diagonal
    rows and one row per pair k < l, and each matrix is scaled by the power of
    two that brings its largest entry into [1/2, 1), so that no square
    overflows and one tolerance serves every matrix.  A sweep rotates each
    pair (k, l) in row order by the angle that zeroes A_lk, with
    |theta| <= pi/4 (Golub and Van Loan, Matrix Computations, 8.5).  Before
    each sweep one test over the whole stack asks whether every off-diagonal
    entry is at most tol = eps / (4p); dropping them then moves no eigenvalue
    by more than p tol < eps ||A||_2 / 2 (Weyl), and the norm is the largest
    |diagonal|.  Each rotation adds a backward error of a few eps ||A||_2, and
    cyclic Jacobi is at least as accurate as QR (Demmel and Veselic, SIAM J.
    Matrix Anal. Appl. 13 (1992) 1204).  A matrix still above tol after
    ``_JACOBI_SWEEPS`` sweeps goes to ``eigvalsh``.
    """
    p = a.shape[-1]
    pairs = [(k, l) for k in range(p) for l in range(k + 1, p)]
    # row of A_lk (k < l) among the packed off-diagonal rows
    slot = {pair: i for i, pair in enumerate(pairs)}
    # each rotation: k, l, the row of A_lk, and the rows of (A_rk, A_rl), r != k, l
    plan = [(k, l, slot[k, l],
             [(slot[min(r, k), max(r, k)], slot[min(r, l), max(r, l)])
              for r in range(p) if r not in (k, l)])
            for k, l in pairs]
    entries = [(i, i) for i in range(p)] + [(l, k) for k, l in pairs]
    # the packed entries, then five rows of scratch: every step below writes
    # into these, so a call allocates nothing per rotation
    work = np.empty((len(entries) + 5, len(a)))
    packed, (zeta, den, t, c, s) = work[:-5], work[-5:]
    for row, (i, j) in zip(packed, entries):
        row[:] = a[:, i, j]
    largest = np.maximum(packed.max(axis=0), -packed.min(axis=0))
    _, exponent = np.frexp(largest)
    np.ldexp(packed, -exponent, out=packed)
    diag, off = packed[:p], packed[p:]
    tol = _EPS / (4 * p)
    stuck = ()
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_JACOBI_SWEEPS):
            if not off.size or max(off.max(), -off.min()) <= tol:
                break
            for k, l, i, others in plan:
                akl = off[i]
                # t = tan theta = A_lk / (z + sign(z) sqrt(z^2 + A_lk^2)) with
                # z = (A_ll - A_kk) / 2, so |t| <= 1; np.hypot takes ten times
                # as long.  Where the squares underflow, |A_lk| < 2^-511 and
                # _ROT_FLOOR keeps |t| below 2^-11; where z = A_lk = 0, t = 0
                np.subtract(diag[l], diag[k], out=zeta)
                zeta *= 0.5
                np.multiply(zeta, zeta, out=den)
                np.multiply(akl, akl, out=t)
                den += t
                np.sqrt(den, out=den)
                den += _ROT_FLOOR
                np.copysign(den, zeta, out=den)
                den += zeta
                np.divide(akl, den, out=t)
                np.multiply(t, t, out=c)
                c += 1.0
                np.sqrt(c, out=c)
                np.reciprocal(c, out=c)
                np.multiply(t, c, out=s)
                t *= akl
                diag[k] -= t
                diag[l] += t
                akl[:] = 0.0
                for rk, rl in others:
                    ark, arl = off[rk], off[rl]
                    np.multiply(s, ark, out=zeta)
                    np.multiply(s, arl, out=den)
                    ark *= c
                    ark -= den
                    arl *= c
                    arl += zeta
        else:
            stuck = np.nonzero((np.abs(off) > tol).any(axis=0))[0]
    norm = np.ldexp(np.abs(diag, out=diag).max(axis=0), exponent)
    if len(stuck):
        norm[stuck] = _eigvalsh_norms(a[stuck])
    return norm


def relative_deviation(mats: np.ndarray, center: SpdMatrix) -> np.ndarray:
    """Relative spectral deviation ||A - center|| / ||center|| of a matrix or stack.

    The vicinity of radius delta around a center is the set of symmetric A with
    relative_deviation(A, center) <= delta; a matrix with a non-finite entry
    deviates by NaN, so it lies in no vicinity.
    """
    return spectral_norm(mats - center.entries) / center.spectral_norm


def vicinity_mask(matrices: np.ndarray, center: SpdMatrix, delta) -> np.ndarray:
    """Whether each matrix lies in the vicinity of each radius.

    The mask is ``relative_deviation(A, center) <= delta`` for each matrix A of
    ``matrices`` (one matrix or a stack) and each radius of ``delta`` (one
    radius or a 1-D grid); its shape is ``matrices.shape[:-2] + delta.shape``.

    Norm bounds decide most matrices without eigenvalues.  D = A - center is
    taken as the symmetric matrix that ``eigvalsh`` reads, A's lower triangle,
    and max_i ||D e_i||_2 <= ||D||_2 <= min(||D||_F, ||D||_inf) (Horn and
    Johnson, Matrix Analysis, 5.6).  With r = delta ||center||_2, a matrix is
    inside when the upper bound is at most r (1 - kappa) and outside when the
    lower bound exceeds r (1 + kappa).  The margin kappa = 16 p^2 eps covers
    the bounds' own rounding, O(p) eps, and the error of the eigenvalues
    ``spectral_norm`` computes: LAPACK's, p(n) eps ||D||_2 with p(n) a modest
    function of n (LAPACK Users' Guide, 4.7), and at small p the Jacobi
    route's, a few eps ||D||_2 (``_jacobi_norms``).  Every other matrix, and
    every one whose ||D||_F^2 is not finite or is near underflow, goes to
    ``relative_deviation``.  So each decision is the one
    ``relative_deviation(A, center) <= delta`` makes, bit for bit, and the
    stack is decomposed only where the bounds cannot decide.  Besides
    D, the call holds a few arrays of one value per matrix, row and radius.
    """
    mats = np.asarray(matrices, dtype=np.float64)
    radii = np.asarray(delta, dtype=np.float64)
    if mats.ndim == 2:
        # one small eigvalsh costs less than the bounds' numpy calls
        return relative_deviation(mats, center) <= radii
    p = center.dim
    stack = mats.reshape(-1, p, p)
    # D with the matrix index last, so that every reduction below runs over
    # whole (p, count) rows instead of over p values at a time
    d = np.empty((p, p, len(stack)))
    np.subtract(stack.transpose(1, 2, 0), center.entries[:, :, None], out=d)
    for i in range(p - 1):
        d[i, i + 1 :] = d[i + 1 :, i]
    row_sq = np.einsum("ijk,ijk->ik", d, d)
    fro_sq = row_sq.sum(axis=0)
    col = (-1,) + (1,) * radii.ndim
    lower = np.sqrt(row_sq.max(axis=0)).reshape(col)
    upper = np.minimum(np.sqrt(fro_sq), np.abs(d, out=d).sum(axis=1).max(axis=0)).reshape(col)
    kappa = 16 * p * p * _EPS
    r = radii * center.spectral_norm
    inside = upper <= r * (1.0 - kappa)
    undecided = ~(inside | (lower > r * (1.0 + kappa)))
    undecided = undecided.reshape(len(stack), radii.size).any(axis=1)
    undecided |= ~((fro_sq >= _FRO_SQ_MIN) & (fro_sq < np.inf))
    rows = np.nonzero(undecided)[0]
    if len(rows):
        dev = relative_deviation(stack[rows], center)
        inside[rows] = dev.reshape(col) <= radii
    return inside.reshape(mats.shape[:-2] + radii.shape)


def save_matrix_csv(path, m: SpdMatrix | np.ndarray) -> None:
    """Write the matrix CSV format: first line p, then p comma-separated rows."""
    a = m.entries if isinstance(m, SpdMatrix) else np.asarray(m)
    p = a.shape[0]
    with open(path, "w") as fh:
        fh.write(f"{p}\n")
        for row in a:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def load_matrix_csv(path) -> SpdMatrix:
    """Read the matrix CSV format written by :func:`save_matrix_csv`.

    Malformed or non-finite content, or a non-blank line past the p rows,
    raises ValueError naming the path and the line; a finite matrix that is
    not SPD raises NotPositiveDefinite.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    size = lines[0].strip() if lines else ""
    p = int(size) if size.isdecimal() else 0
    if p < 1:
        raise ValueError(f"matrix CSV {path}, line 1: expected a positive size p, got {size!r}")
    lines += [""] * (p + 1 - len(lines))
    rows = []
    for number, text in enumerate(lines[1 : p + 1], start=2):
        try:
            row = np.array(text.split(","), dtype=np.float64)
        except ValueError:
            row = np.empty(0)
        if row.shape != (p,) or not np.isfinite(row).all():
            raise ValueError(
                f"matrix CSV {path}, line {number}: expected {p} finite numbers, got {text!r}"
            )
        rows.append(row)
    # a row past the declared size most likely means a wrong size line
    for number, text in enumerate(lines[p + 1 :], start=p + 2):
        if text.strip():
            raise ValueError(f"matrix CSV {path}, line {number}: expected {p} rows, got {text!r}")
    return SpdMatrix(np.array(rows))
