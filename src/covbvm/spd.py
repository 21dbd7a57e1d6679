"""Symmetric positive-definite matrix container, norms and CSV I/O."""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import NotPositiveDefinite

# Relative floor (w.r.t. spectral norm) for the smallest eigenvalue.
_PD_RTOL = 1e-12


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


def norms(m: SpdMatrix) -> dict:
    """Spectral/Frobenius/nuclear/trace norms plus effective rank and condition.

    Effective rank is trace over spectral norm; condition is the ratio of the
    extreme eigenvalues.
    """
    eigs = m.eigenvalues
    spectral = float(eigs[-1])
    trace = float(np.sum(eigs))
    return {
        "spectral": spectral,
        "frobenius": float(np.sqrt(np.sum(eigs**2))),
        "nuclear": trace,  # eigenvalues are positive
        "trace": trace,
        "effective_rank": trace / spectral,
        "condition": spectral / float(eigs[0]),
    }


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
    """Spectral norm of a symmetric matrix or stack of symmetric matrices."""
    eigs = np.linalg.eigvalsh(a)
    return np.max(np.abs(eigs), axis=-1)


def relative_deviation(mats: np.ndarray, center: SpdMatrix) -> np.ndarray:
    """Relative spectral deviation ||A - center|| / ||center|| of a matrix or stack.

    The vicinity of radius delta around a center is the set of symmetric A with
    relative_deviation(A, center) <= delta.
    """
    return spectral_norm(mats - center.entries) / center.spectral_norm


def save_matrix_csv(path, m: SpdMatrix | np.ndarray) -> None:
    """Write the matrix CSV format: first line p, then p comma-separated rows."""
    a = m.entries if isinstance(m, SpdMatrix) else np.asarray(m)
    p = a.shape[0]
    with open(path, "w") as fh:
        fh.write(f"{p}\n")
        for row in a:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def load_matrix_csv(path) -> SpdMatrix:
    """Read the matrix CSV format written by :func:`save_matrix_csv`."""
    with open(path) as fh:
        p = int(fh.readline().strip())
        rows = [[float(x) for x in fh.readline().split(",")] for _ in range(p)]
    a = np.array(rows)
    if a.shape != (p, p):
        raise NotPositiveDefinite(f"matrix CSV {path!r} declares p={p}, got {a.shape}")
    return SpdMatrix(a)
