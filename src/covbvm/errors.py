"""Exception and warning types shared across the package."""


class CovBvmError(Exception):
    """Base class for all package errors."""


class NotPositiveDefinite(CovBvmError):
    """Matrix failed the symmetric positive-definite check."""


class BadGrouping(CovBvmError):
    """Supplied eigenvalue multiplicities are inconsistent with the matrix."""


class DegenerateGap(CovBvmError):
    """Two adjacent eigenvalue groups share a value within tolerance."""


class NoExteriorGap(CovBvmError):
    """A selection covering the full spectrum has no outside eigenvalue."""


class BadDegreesOfFreedom(CovBvmError):
    """Degrees of freedom too small for the underlying Wishart draw."""


class RejectionStarved(CovBvmError):
    """Rejection sampler acceptance rate fell below the starvation floor."""


class UndefinedFlatness(CovBvmError):
    """Prior density vanishes at the ground-truth matrix."""


class DegenerateFunctional(CovBvmError):
    """Functional normalizer is zero."""


class DegenerateNormalizer(CovBvmError):
    """Projector budget normalizer degenerates (single limit-law weight)."""


class BadDimension(CovBvmError):
    """Dimension mismatch between a prior/functional and its argument."""


class ConfigError(CovBvmError):
    """Experiment configuration failed validation."""


class PoorMixing(UserWarning):
    """Metropolis acceptance rate after burn-in below the healthy floor."""


class PreconditionWarning(UserWarning):
    """A theorem precondition does not hold for the requested run."""


class LowDraws(UserWarning):
    """Too few posterior draws for reliable quantiles."""
