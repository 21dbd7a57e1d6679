"""Datasets as their sample covariance, and empirical concentration radii for it.

Three zero-mean families are supported, all with covariance exactly equal to
the model's ground truth: Gaussian, Rademacher-coordinate sub-Gaussian, and
the uniform distribution on the sphere of radius sqrt(p) (scaled through the
covariance square root).  A dataset holds only n and the sample covariance S,
which is all the checks read.  A Gaussian dataset is drawn as S itself: n S is
Wishart(Sigma*, n), drawn from one Bartlett factor (Smith and Hocking 1972,
Appl. Statist. 21:341), so no n x p sample is formed.  The other two families
draw their n samples and reduce them to S.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import NotPositiveDefinite
from .spd import SpdMatrix, relative_deviation, spectral_norm, sym
from .spectral import SpectralModel

FAMILIES = ("gaussian", "sub_gaussian_rademacher", "bounded_sphere")


def derived_rng(seed: int, *branch: int) -> np.random.Generator:
    """Independent stream for (seed, branch); reproducible under any order."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, branch)]))


def derived_seed(seed: int, *branch: int) -> int:
    """Integer seed for (seed, branch), for callees that take a seed, not a stream."""
    return int(derived_rng(seed, *branch).integers(2**62))


@dataclasses.dataclass(frozen=True)
class DatasetSpec:
    model: SpectralModel
    family: str
    n: int
    seed: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; pick one of {FAMILIES}")
        if self.n < 2:
            raise ValueError("need at least two samples")


@dataclasses.dataclass(frozen=True)
class Dataset:
    spec: DatasetSpec | None
    n: int
    sample_cov: SpdMatrix

    @property
    def dim(self) -> int:
        return self.sample_cov.dim


def dataset_from_samples(samples: np.ndarray, spec: DatasetSpec | None = None) -> Dataset:
    """Reduce raw zero-mean samples to their plain outer-product mean."""
    samples = np.asarray(samples, dtype=np.float64)
    cov = SpdMatrix(samples.T @ samples / samples.shape[0])
    return Dataset(spec, samples.shape[0], cov)


def _raw_samples(rng: np.random.Generator, family: str, n: int, p: int) -> np.ndarray:
    """n isotropic samples of a non-Gaussian family."""
    if family == "sub_gaussian_rademacher":
        return rng.integers(0, 2, size=(n, p)) * 2.0 - 1.0
    # bounded_sphere: sqrt(p) * uniform direction, isotropic with identity covariance
    z = rng.standard_normal((n, p))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z * math.sqrt(p)


def sample_dataset(spec: DatasetSpec, seed_branch: int | None = None) -> Dataset:
    """Sample covariance of n i.i.d. vectors with covariance equal to the
    model's ground truth.

    seed_branch derives an independent replication stream from the spec seed.
    A Gaussian S is (C B)(C B)^T / n, with C the Cholesky factor of Sigma* and
    B a Bartlett factor: the stream gives B's strict-lower normals (row-major
    ``np.tril_indices`` order), then its diagonal sqrt(chi2(n - i)).  S is
    singular for n < p, which raises NotPositiveDefinite.
    """
    p = spec.model.dim
    rng = derived_rng(spec.seed) if seed_branch is None else derived_rng(spec.seed, seed_branch)
    if spec.family != "gaussian":
        raw = _raw_samples(rng, spec.family, spec.n, p)
        return dataset_from_samples(raw @ spec.model.sigma_star.sqrtm(), spec)
    if spec.n < p:
        raise NotPositiveDefinite(
            f"the sample covariance of n = {spec.n} Gaussian samples in dimension {p} is singular"
        )
    bart = np.zeros((p, p))
    bart[np.tril_indices(p, -1)] = rng.standard_normal(p * (p - 1) // 2)
    bart[np.diag_indices(p)] = np.sqrt(rng.chisquare(spec.n - np.arange(p)))
    root = spec.model.sigma_star.cholesky @ bart
    return Dataset(spec, spec.n, SpdMatrix(root @ root.T / spec.n))


def _concentration_radius(spec: DatasetSpec, replications: int, deviation) -> float:
    """Empirical (1 - 1/n)-quantile of ``deviation`` of the sample covariance
    over replicated datasets: the order statistic at ceil((1 - 1/n) R),
    clamped to the maximum."""
    if replications < 20:
        raise ValueError("need at least 20 replications")
    devs = np.empty(replications)
    for k in range(replications):
        devs[k] = deviation(sample_dataset(spec, seed_branch=k).sample_cov.entries)
    order = min(math.ceil((1.0 - 1.0 / spec.n) * replications), replications)
    return float(np.sort(devs)[order - 1])


def estimate_delta_hat(spec: DatasetSpec, replications: int) -> float:
    """Empirical (1 - 1/n)-quantile of the relative spectral deviation of Sigma-hat."""
    sigma = spec.model.sigma_star
    return _concentration_radius(spec, replications, lambda cov: relative_deviation(cov, sigma))


def estimate_delta_tilde(spec: DatasetSpec, functional, replications: int) -> float:
    """Concentration radius of the rank-r projected, whitened sample covariance.

    The functional supplies the orthonormal limit factor V; the measured
    deviation is the spectral norm of V^T S^-1/2 (cov - S) S^-1/2 V.
    """
    w = spec.model.sigma_star.inv_sqrtm() @ functional.limit_v  # p x r
    target = spec.model.sigma_star.entries
    return _concentration_radius(
        spec, replications, lambda cov: spectral_norm(sym(w.T @ (cov - target) @ w))
    )
