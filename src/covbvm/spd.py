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
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NotPositiveDefinite(f"expected a square matrix, got shape {a.shape}")
        # eigvalsh reads NaN without raising, and no comparison with NaN holds
        if not np.isfinite(a).all():
            i, j = np.argwhere(~np.isfinite(a))[0]
            raise NotPositiveDefinite(f"entry ({i}, {j}) is {a[i, j]}, not finite")
        a = 0.5 * (a + a.T)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        eigs = np.linalg.eigvalsh(a)
        snorm = float(np.max(np.abs(eigs))) if a.size else 0.0
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
    NaN for a matrix with a non-finite entry."""
    a = np.asarray(a)
    finite = np.isfinite(a).all(axis=(-2, -1))
    norm = np.full(finite.shape, np.nan)
    # eigvalsh reads a NaN as zero and raises on an infinity, so it gets only
    # the finite matrices
    eigs = np.linalg.eigvalsh(a if finite.all() else a[finite])
    norm[finite] = np.max(np.abs(eigs), axis=-1)
    return norm[()]


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
    the bounds' own rounding, O(p) eps, and the error of LAPACK's eigenvalues,
    p(n) eps ||D||_2 with p(n) a modest function of n (LAPACK Users' Guide,
    4.7).  Every other matrix, and every one whose ||D||_F^2 is not finite or
    is near underflow, goes to ``relative_deviation``.  So each decision is
    the one ``relative_deviation(A, center) <= delta`` makes, bit for bit,
    and the stack is decomposed only where the bounds cannot decide.  Besides
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
