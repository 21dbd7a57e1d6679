"""``spd.spectral_norm`` on small stacks, by Jacobi rotations over all the
matrices at once, against its eigvalsh oracle.

Stacks of at least ``spd._JACOBI_MIN`` matrices of size p <= ``spd._JACOBI_P``
take the Jacobi route; everything else takes eigvalsh and must return its bits.
The agreement bound, bound(p) ||A||_2 with bound(p) = 4 p^2 eps, is a quarter
of the margin kappa = 16 p^2 eps that ``vicinity_mask`` leaves for the error
of the eigenvalues it falls back to.
"""

import numpy as np
import pytest

from covbvm import spd
from covbvm.spd import spectral_norm, sym

EPS = np.finfo(np.float64).eps
COUNT = 2 * spd._JACOBI_MIN
SMALL_P = list(range(1, spd._JACOBI_P + 1))


def bound(p: int) -> float:
    return 4 * p * p * EPS


def eigvalsh_norms(mats) -> np.ndarray:
    return np.max(np.abs(np.linalg.eigvalsh(mats)), axis=-1)


@pytest.fixture
def lapack(monkeypatch):
    """Matrices per eigvalsh call that spectral_norm makes."""
    seen = []
    inner = spd._eigvalsh_norms

    def counting(a):
        seen.append(len(a))
        return inner(a)

    monkeypatch.setattr(spd, "_eigvalsh_norms", counting)
    return seen


def rotations(rng, count: int, p: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((count, p, p)))
    return q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]


def with_spectrum(rng, eigs: np.ndarray) -> np.ndarray:
    """Q diag(eigs) Q^T for a random rotation Q per row of eigs."""
    q = rotations(rng, *eigs.shape)
    return sym((q * eigs[:, None, :]) @ np.swapaxes(q, 1, 2))


def adversarial(p: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((COUNT, p, 2 * p))
    h = sym(rng.standard_normal((COUNT, p, p)))
    u = rng.standard_normal((COUNT, p))
    sign = np.where(np.arange(p) % 2 == 0, 1.0, -1.0)
    return {
        "spd": g @ np.swapaxes(g, 1, 2) / (2 * p) + np.eye(p),
        "indefinite": h,
        "clustered": with_spectrum(rng, 1.0 + 1e-9 * rng.standard_normal((COUNT, p))),
        "clustered-pm": with_spectrum(rng, sign * (1.0 + 1e-12 * rng.standard_normal((COUNT, p)))),
        "rank-one": u[:, :, None] * u[:, None, :],
        "diagonal": np.eye(p) * rng.standard_normal((COUNT, 1, p)),
        "graded": h * np.logspace(0, -12, p)[:, None] * np.logspace(0, -12, p),
        "tiny": 1e-150 * h,
        "huge": 1e150 * h,
        # zero and identity matrices among ones that need rotations: there
        # A_ll - A_kk = A_lk = 0 in every rotation
        "mixed": np.where((np.arange(COUNT) % 3)[:, None, None] == 0, h,
                          np.eye(p) * (np.arange(COUNT) % 3 == 1)[:, None, None]),
    }


@pytest.mark.parametrize("p", SMALL_P)
@pytest.mark.parametrize("kind", list(adversarial(1, 0)))
def test_agrees_with_eigvalsh(lapack, p, kind):
    mats = adversarial(p, seed=10 * p)[kind]
    got = spectral_norm(mats)
    want = eigvalsh_norms(mats)
    assert got.shape == (COUNT,)
    assert np.all(np.abs(got - want) <= bound(p) * want)
    # every matrix converged within the sweep cap, so none went to eigvalsh
    assert lapack == []


def test_long_stack_goes_in_slices(monkeypatch):
    mats = adversarial(3, seed=50)["spd"]
    monkeypatch.setattr(spd, "_JACOBI_SLICE", 300)
    got = spectral_norm(mats)
    want = np.concatenate([spd._jacobi_norms(mats[:300]), spd._jacobi_norms(mats[300:])])
    assert np.array_equal(got, want)
    assert np.all(np.abs(got - eigvalsh_norms(mats)) <= bound(3) * eigvalsh_norms(mats))


@pytest.mark.parametrize("p", SMALL_P)
def test_exact_where_the_matrix_is_diagonal(p):
    rng = np.random.default_rng(p)
    diag = rng.standard_normal((COUNT, p)) * np.exp2(rng.integers(-600, 600, (COUNT, 1)))
    mats = np.eye(p) * diag[:, None, :]
    assert np.array_equal(spectral_norm(mats), np.max(np.abs(diag), axis=1))
    assert np.array_equal(spectral_norm(np.zeros((COUNT, p, p))), np.zeros(COUNT))


@pytest.mark.parametrize("p", SMALL_P)
def test_reads_only_the_lower_triangle(p):
    rng = np.random.default_rng(20 + p)
    mats = sym(rng.standard_normal((COUNT, p, p)))
    noisy = mats + np.triu(1e3 * rng.standard_normal(mats.shape), 1)
    assert np.array_equal(spectral_norm(noisy), spectral_norm(mats))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("p", SMALL_P)
def test_non_finite_matrices_give_nan(p, bad):
    rng = np.random.default_rng(30 + p)
    mats = sym(rng.standard_normal((COUNT + 3, p, p)))
    rows = [0, 7, COUNT + 2]
    mats[rows[0], p - 1, 0] = bad
    mats[rows[1], 0, p - 1] = bad  # above the diagonal too
    mats[rows[2]] = bad
    got = spectral_norm(mats)
    finite = np.ones(len(mats), dtype=bool)
    finite[rows] = False
    assert np.isnan(got[rows]).all()
    assert np.array_equal(got[finite], spectral_norm(mats[finite]))


@pytest.mark.parametrize("p", SMALL_P)
def test_empty_stack(p):
    assert spectral_norm(np.empty((0, p, p))).shape == (0,)
    assert spd._jacobi_norms(np.empty((0, p, p))).shape == (0,)


def test_unconverged_matrices_go_to_eigvalsh(lapack, monkeypatch):
    mats = adversarial(3, seed=40)["indefinite"]
    monkeypatch.setattr(spd, "_JACOBI_SWEEPS", 0)
    assert np.array_equal(spectral_norm(mats), eigvalsh_norms(mats))
    assert lapack == [COUNT]
    # three sweeps leave about half of these unconverged
    monkeypatch.setattr(spd, "_JACOBI_SWEEPS", 3)
    lapack.clear()
    got = spectral_norm(mats)
    assert np.all(np.abs(got - eigvalsh_norms(mats)) <= bound(3) * eigvalsh_norms(mats))
    assert 0 < sum(lapack) < COUNT


@pytest.mark.parametrize("shape", [
    (COUNT, spd._JACOBI_P + 1, spd._JACOBI_P + 1),  # the first p above the crossover
    (spd._JACOBI_MIN - 1, spd._JACOBI_P, spd._JACOBI_P),  # too few matrices
    (spd._JACOBI_P, spd._JACOBI_P),  # one matrix
], ids=["p", "count", "one"])
def test_eigvalsh_bits_outside_the_route(shape):
    rng = np.random.default_rng(len(shape))
    mats = sym(rng.standard_normal(shape))
    assert np.array_equal(spectral_norm(mats), eigvalsh_norms(mats))


@pytest.mark.parametrize("p", [spd._JACOBI_P, spd._JACOBI_P + 1])
def test_stack_of_stacks(p):
    mats = sym(np.random.default_rng(p).standard_normal((2, COUNT, p, p)))
    mats[1, 5, 0, 0] = np.nan
    got = spectral_norm(mats)
    assert got.shape == (2, COUNT)
    assert np.array_equal(got, spectral_norm(mats.reshape(-1, p, p)).reshape(2, COUNT),
                          equal_nan=True)
    assert np.isnan(got[1, 5]) and np.isfinite(np.delete(got.ravel(), COUNT + 5)).all()
