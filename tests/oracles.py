"""Reference computations that several test modules check the package against."""

import numpy as np

from covbvm import FunctionalSpec, SpdMatrix, SpectralModel, evaluate
from covbvm.posterior import _tril_inv_plan, _tril_inv_run


def linearization_residual(
    functional: FunctionalSpec, sigma_tilde, model: SpectralModel
) -> float:
    """Residual of the first-order expansion around the ground truth, with the
    linearization matrix phi rebuilt from its thin eigenfactorization."""
    a = (
        sigma_tilde.entries
        if isinstance(sigma_tilde, SpdMatrix)
        else np.asarray(sigma_tilde)
    )
    star = model.sigma_star.entries
    phi = (functional.u * functional.psi) @ functional.u.T
    lin = float(np.sum(phi * (a - star)))
    return evaluate(functional, a) - evaluate(functional, star) - lin


def planned_tril_inv(t: np.ndarray) -> None:
    """Invert a C-contiguous (count, p, p) stack of lower-triangular matrices
    in place, through the kernel's plan built for t and run once."""
    p = t.shape[-1]
    _tril_inv_run(_tril_inv_plan(t, np.empty(len(t) * ((p + 1) // 2) * (p // 2))))
