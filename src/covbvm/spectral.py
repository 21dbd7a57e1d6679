"""Spectral decompositions with known group structure and the limit-law weights.

The ground-truth covariance is described by its distinct eigenvalues, their
multiplicities and the associated eigenprojectors.  Everything downstream
(gaps, selections of eigenspaces, the diagonal weights of the Gaussian limit
covariance) is derived from that grouped structure.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import BadGrouping, DegenerateGap, NoExteriorGap
from .spd import SpdMatrix

_PROJ_TOL = 1e-10
# adjacent eigenvalues within this relative difference form one group, and
# adjacent groups whose means are that close are degenerate
_CLUSTER_TOL = 1e-8


@dataclasses.dataclass(frozen=True)
class SpectralModel:
    """Ground-truth covariance with grouped eigenstructure.

    group_values holds the distinct eigenvalues in strictly decreasing order,
    group_mults their multiplicities, group_projectors the (q, p, p) stack of
    eigenprojectors.
    """

    sigma_star: SpdMatrix
    group_values: np.ndarray
    group_mults: np.ndarray
    group_projectors: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.group_values, dtype=np.float64)
        mult = np.asarray(self.group_mults, dtype=np.int64)
        projs = np.asarray(self.group_projectors, dtype=np.float64)
        object.__setattr__(self, "group_values", mu)
        object.__setattr__(self, "group_mults", mult)
        object.__setattr__(self, "group_projectors", projs)
        p = self.sigma_star.dim
        if mult.sum() != p:
            raise BadGrouping(f"multiplicities sum to {mult.sum()}, dim is {p}")
        if np.any(np.diff(mu) >= 0):
            raise BadGrouping("group values must be strictly decreasing")
        self._validate()

    def _validate(self):
        p = self.dim
        projs = self.group_projectors
        scale = self.sigma_star.spectral_norm
        for s, proj in enumerate(projs):
            if not np.allclose(proj, proj.T, atol=_PROJ_TOL):
                raise BadGrouping(f"projector {s} not symmetric")
            if not np.allclose(proj @ proj, proj, atol=_PROJ_TOL):
                raise BadGrouping(f"projector {s} not idempotent")
            if abs(np.trace(proj) - self.group_mults[s]) > _PROJ_TOL * p:
                raise BadGrouping(f"projector {s} trace != multiplicity")
        total = projs.sum(axis=0)
        if not np.allclose(total, np.eye(p), atol=_PROJ_TOL * p):
            raise BadGrouping("projectors do not resolve the identity")
        recon = np.einsum("s,sij->ij", self.group_values, projs)
        if not np.allclose(recon, self.sigma_star.entries, atol=_PROJ_TOL * max(scale, 1.0) * p):
            raise BadGrouping("grouped spectrum does not reconstruct the matrix")

    @property
    def dim(self) -> int:
        return self.sigma_star.dim

    @property
    def num_groups(self) -> int:
        return len(self.group_values)

    @property
    def group_index_sets(self) -> list[np.ndarray]:
        """Consecutive index blocks in descending-eigenvalue order (0-based)."""
        bounds = np.concatenate([[0], np.cumsum(self.group_mults)])
        return [np.arange(bounds[s], bounds[s + 1]) for s in range(self.num_groups)]

    @property
    def gaps(self) -> np.ndarray:
        """Per-group spectral gap to the nearest adjacent group."""
        mu = self.group_values
        q = self.num_groups
        gaps = np.full(q, np.inf)
        for s in range(q):
            cand = []
            if s > 0:
                cand.append(mu[s - 1] - mu[s])
            if s < q - 1:
                cand.append(mu[s] - mu[s + 1])
            if cand:
                gaps[s] = min(cand)
        return gaps


@dataclasses.dataclass(frozen=True)
class EigenspaceSelection:
    """Contiguous selection of eigenvalue groups, 1-based inclusive."""

    s_minus: int
    s_plus: int

    def __post_init__(self):
        if not (1 <= self.s_minus <= self.s_plus):
            raise BadGrouping(f"invalid selection [{self.s_minus}, {self.s_plus}]")

    def groups(self) -> range:
        """Selected group indices, 0-based."""
        return range(self.s_minus - 1, self.s_plus)

    def index_set(self, model: SpectralModel) -> np.ndarray:
        """Eigenvalue positions covered by the selection (0-based, descending order)."""
        blocks = model.group_index_sets
        return np.concatenate([blocks[s] for s in self.groups()])

    def total_mult(self, model: SpectralModel) -> int:
        return int(model.group_mults[self.s_minus - 1 : self.s_plus].sum())


def _group_eigenvalues(eigs_desc: np.ndarray, mults: np.ndarray | None):
    """Return multiplicities and group means for descending eigenvalues."""
    p = len(eigs_desc)
    if mults is not None:
        mults = np.asarray(mults, dtype=np.int64)
        if np.any(mults <= 0) or mults.sum() != p:
            raise BadGrouping(f"multiplicities {mults.tolist()} do not sum to p={p}")
    else:
        scale = max(abs(eigs_desc[0]), abs(eigs_desc[-1]), np.finfo(float).tiny)
        breaks = np.nonzero((eigs_desc[:-1] - eigs_desc[1:]) / scale > _CLUSTER_TOL)[0]
        mults = np.diff(np.concatenate([[0], breaks + 1, [p]]))
    bounds = np.concatenate([[0], np.cumsum(mults)])
    mu = np.array(
        [eigs_desc[bounds[s] : bounds[s + 1]].mean() for s in range(len(mults))]
    )
    scale = max(abs(mu[0]), np.finfo(float).tiny)
    if np.any((mu[:-1] - mu[1:]) <= _CLUSTER_TOL * scale):
        raise DegenerateGap(
            f"adjacent groups share a value within tolerance: {mu.tolist()}"
        )
    return mults, mu


def _group_projectors(vecs: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """The (q, p, p) projectors onto consecutive column blocks of vecs, of
    sizes mults."""
    bounds = np.concatenate([[0], np.cumsum(mults)])
    projs = np.empty((len(mults), len(vecs), len(vecs)))
    for s in range(len(mults)):
        block = vecs[:, bounds[s] : bounds[s + 1]]
        projs[s] = block @ block.T
    return projs


def spectral_decompose(
    m: SpdMatrix, mults: np.ndarray | list[int] | None = None
) -> SpectralModel:
    """Build a SpectralModel from a matrix and its (known or clustered) groups.

    If explicit multiplicities are given they are used verbatim; otherwise
    adjacent eigenvalues with relative difference <= 1e-8 form one group.
    """
    w, v = np.linalg.eigh(m.entries)
    mults, mu = _group_eigenvalues(w[::-1], mults)
    return SpectralModel(m, mu, mults, _group_projectors(v[:, ::-1], mults))


def model_from_spectrum(
    mu, mults, rotation_seed: int | None = None
) -> SpectralModel:
    """Synthesize a model with the given grouped spectrum.

    With a rotation seed, the eigenbasis is a Haar-ish orthogonal matrix from a
    QR factorization of a Gaussian draw; otherwise the standard basis is used.
    """
    mu = np.asarray(mu, dtype=np.float64)
    mults = np.asarray(mults, dtype=np.int64)
    if mu.shape != mults.shape:
        raise BadGrouping(f"group values {mu.tolist()} and multiplicities {mults.tolist()} "
                          "differ in length")
    if mu.size == 0:
        raise BadGrouping("the spectrum has no groups")
    p = int(mults.sum())
    if rotation_seed is None:
        qmat = np.eye(p)
    else:
        rng = np.random.default_rng(rotation_seed)
        qmat, r = np.linalg.qr(rng.standard_normal((p, p)))
        qmat *= np.sign(np.diag(r))
    eigs = np.repeat(mu, mults)
    sigma = SpdMatrix((qmat * eigs) @ qmat.T)
    return SpectralModel(sigma, mu, mults, _group_projectors(qmat, mults))


def selection_gap(model: SpectralModel, sel: EigenspaceSelection) -> float:
    """Exterior spectral gap of a contiguous selection (three-case rule)."""
    q = model.num_groups
    mu = model.group_values
    lo, hi = sel.s_minus, sel.s_plus
    if hi > q:
        raise BadGrouping(f"selection upper bound {hi} exceeds q={q}")
    if lo == 1 and hi == q:
        raise NoExteriorGap("selection covers the full spectrum")
    if lo == 1:
        return float(mu[hi - 1] - mu[hi])
    if hi == q:
        return float(mu[lo - 2] - mu[lo - 1])
    return float(min(mu[lo - 2] - mu[lo - 1], mu[hi - 1] - mu[hi]))


def build_gamma(model: SpectralModel, sel: EigenspaceSelection) -> np.ndarray:
    """Diagonal of the Gaussian limit covariance for a selection of eigenspaces:
    the weights 2*mu_s*mu_k/(mu_s - mu_k)^2 for s selected, k outside.

    Blocks are ordered with the selected group outer and the outside group
    inner, each weight repeated m_s * m_k times.
    """
    gap = selection_gap(model, sel)  # raises NoExteriorGap for full selections
    if gap <= 0:
        raise DegenerateGap(f"selection gap {gap} not positive")
    mu = model.group_values
    mult = model.group_mults
    outside = [k for k in range(model.num_groups) if k not in sel.groups()]
    weights = []
    for s in sel.groups():
        for k in outside:
            diff = mu[s] - mu[k]
            if diff == 0.0:
                raise DegenerateGap(f"groups {s + 1} and {k + 1} share eigenvalue")
            w = 2.0 * mu[s] * mu[k] / diff**2
            weights.append(np.full(mult[s] * mult[k], w))
    return np.concatenate(weights)
