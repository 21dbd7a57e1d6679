"""Finite-sample Bernstein-von Mises checks for covariance functionals and
spectral projectors, with conjugate and density-evaluable priors."""

from .spd import SpdMatrix, load_matrix_csv, save_matrix_csv
from .spectral import (
    EigenspaceSelection,
    SpectralModel,
    build_gamma,
    model_from_spectrum,
    selection_gap,
    spectral_decompose,
)
from .datagen import (
    Dataset,
    DatasetSpec,
    dataset_from_samples,
    estimate_delta_hat,
    estimate_delta_tilde,
    sample_dataset,
)
from .posterior import (
    ExactConjugate,
    GenericPrior,
    InverseWishartPrior,
    Metropolis,
    PosteriorDraws,
    PosteriorSampler,
    RejectionInVicinity,
    UniformVicinityPrior,
    conjugate_posterior_params,
    default_inverse_wishart_prior,
    default_sampler,
    localize_draws,
    localized_posterior_mass,
    log_likelihood,
    sample_inverse_wishart,
    sample_posterior,
)
from .diagnostics import (
    EmpiricalLaw,
    ErrorBudget,
    budget_functional,
    budget_posterior_independence,
    budget_projector,
    estimate_contraction_radius,
    flatness_profile,
    kolmogorov_distance,
    tv_distance_over_statistics,
)
from .functionals import (
    FunctionalSpec,
    eigenvalue_cluster_functional,
    entry_functional,
    evaluate,
    evaluate_batch,
    linear_functional,
    log_det_functional,
    rank_adjusted_pipeline,
    reduced_inverse_wishart_prior,
    standardized_statistic,
    trace_functional,
)
from .projectors import (
    ChiSquareMixture,
    ProjectorStatistic,
    posterior_projector_statistic,
)

__version__ = "0.1.0"
