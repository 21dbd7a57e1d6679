import numpy as np
import pytest

from covbvm import (
    EigenspaceSelection,
    SpdMatrix,
    build_gamma,
    model_from_spectrum,
    norms,
    selection_gap,
    spectral_decompose,
)
from covbvm.errors import (
    BadGrouping,
    DegenerateGap,
    NoExteriorGap,
    NotPositiveDefinite,
)
from covbvm.spd import load_matrix_csv, relative_deviation, save_matrix_csv


def random_spd(p, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p, p))
    return SpdMatrix(a @ a.T + p * np.eye(p))


class TestSpdMatrix:
    def test_symmetrizes_input(self):
        a = np.array([[2.0, 0.3], [0.1, 1.0]])
        m = SpdMatrix(a)
        assert np.array_equal(m.entries, m.entries.T)
        assert m.entries[0, 1] == pytest.approx(0.2)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            SpdMatrix(np.diag([1.0, -1.0]))

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefinite):
            SpdMatrix(np.diag([1.0, 0.0]))

    def test_sqrtm_roundtrip(self):
        m = random_spd(5, 0)
        half = m.sqrtm()
        assert np.allclose(half @ half, m.entries, atol=1e-10)
        assert np.allclose(m.inv_sqrtm() @ half, np.eye(5), atol=1e-10)

    def test_results_do_not_share_state(self):
        # the eigendecomposition is cached; what callers get back is their own
        m = random_spd(4, 2)
        m.inv()[...] = 0.0
        m.sqrtm()[...] = 0.0
        assert np.allclose(m.inv() @ m.entries, np.eye(4), atol=1e-10)
        assert np.allclose(m.sqrtm() @ m.sqrtm(), m.entries, atol=1e-10)

    def test_csv_roundtrip(self, tmp_path):
        m = random_spd(4, 1)
        path = tmp_path / "m.csv"
        save_matrix_csv(path, m)
        back = load_matrix_csv(path)
        assert np.array_equal(back.entries, m.entries)

    def test_relative_deviation(self):
        center = SpdMatrix(np.diag([4.0, 1.0]))
        # ||A - center|| over ||center|| = 4, for one matrix and for a stack
        assert relative_deviation(np.diag([4.0, 3.0]), center) == pytest.approx(0.5)
        stack = np.stack([np.diag([4.0, 1.0]), np.diag([2.0, 1.0]), np.diag([4.0, -3.0])])
        assert np.allclose(relative_deviation(stack, center), [0.0, 0.5, 1.0])


class TestNorms:
    def test_diag_2_1_1(self):
        d = norms(SpdMatrix(np.diag([2.0, 1.0, 1.0])))
        assert d["spectral"] == pytest.approx(2.0)
        assert d["trace"] == pytest.approx(4.0)
        assert d["effective_rank"] == pytest.approx(2.0)
        assert d["frobenius"] == pytest.approx(np.sqrt(6.0))

    def test_identity(self):
        d = norms(SpdMatrix(np.eye(7)))
        assert d["effective_rank"] == pytest.approx(7.0)
        assert d["condition"] == pytest.approx(1.0)

    def test_diag_4_1(self):
        d = norms(SpdMatrix(np.diag([4.0, 1.0])))
        assert d["condition"] == pytest.approx(4.0)
        assert d["nuclear"] == pytest.approx(5.0)


class TestSpectralDecompose:
    def test_identity_single_group(self):
        model = spectral_decompose(SpdMatrix(np.eye(3)))
        assert model.num_groups == 1
        assert model.group_values[0] == pytest.approx(1.0)
        assert model.group_mults[0] == 3
        assert np.allclose(model.group_projectors[0], np.eye(3))

    def test_explicit_mults(self):
        model = spectral_decompose(SpdMatrix(np.diag([2.0, 2.0, 1.0])), mults=[2, 1])
        assert np.allclose(model.group_values, [2.0, 1.0])
        assert np.allclose(model.gaps, [1.0, 1.0])
        assert np.allclose(model.group_projectors[0], np.diag([1.0, 1.0, 0.0]))

    def test_rotated_recovery_and_reconstruction(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        sigma = SpdMatrix(q @ np.diag([5.0, 5.0, 2.0, 1.0]) @ q.T)
        model = spectral_decompose(sigma)
        assert np.allclose(model.group_values, [5.0, 2.0, 1.0], atol=1e-8)
        assert list(model.group_mults) == [2, 1, 1]
        recon = np.einsum("s,sij->ij", model.group_values, model.group_projectors)
        assert np.allclose(recon, sigma.entries, atol=1e-10)

    def test_bad_mults(self):
        with pytest.raises(BadGrouping):
            spectral_decompose(SpdMatrix(np.eye(3)), mults=[2, 2])

    def test_degenerate_grouping(self):
        with pytest.raises(DegenerateGap):
            spectral_decompose(SpdMatrix(np.diag([2.0, 2.0, 1.0])), mults=[1, 1, 1])

    @pytest.mark.parametrize("seed", range(5))
    def test_projector_algebra(self, seed):
        model = model_from_spectrum([6.0, 3.0, 1.0], [2, 2, 1], rotation_seed=seed)
        projs = model.group_projectors
        assert np.allclose(projs.sum(axis=0), np.eye(5), atol=1e-10)
        for s in range(3):
            assert np.trace(projs[s]) == pytest.approx(model.group_mults[s], abs=1e-10)
            for t in range(3):
                prod = projs[s] @ projs[t]
                expect = projs[s] if s == t else np.zeros((5, 5))
                assert np.allclose(prod, expect, atol=1e-10)


class TestSelectionGap:
    def setup_method(self):
        self.model = model_from_spectrum([5.0, 2.0, 1.0], [1, 1, 1])

    def test_leading_group(self):
        assert selection_gap(self.model, EigenspaceSelection(1, 1)) == pytest.approx(3.0)

    def test_middle_group(self):
        assert selection_gap(self.model, EigenspaceSelection(2, 2)) == pytest.approx(1.0)

    def test_full_selection_raises(self):
        with pytest.raises(NoExteriorGap):
            selection_gap(self.model, EigenspaceSelection(1, 3))


class TestBuildGamma:
    def test_two_simple_groups(self):
        model = model_from_spectrum([2.0, 1.0], [1, 1])
        gamma = build_gamma(model, EigenspaceSelection(1, 1))
        assert np.allclose(gamma, [4.0])

    def test_multiplicity_repeat(self):
        model = model_from_spectrum([3.0, 1.0], [2, 1])
        gamma = build_gamma(model, EigenspaceSelection(1, 1))
        assert np.allclose(gamma, [1.5, 1.5])

    def test_two_group_selection(self):
        model = model_from_spectrum([5.0, 2.0, 1.0], [1, 1, 1])
        gamma = build_gamma(model, EigenspaceSelection(1, 2))
        assert np.allclose(sorted(gamma), [0.625, 4.0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rotation_invariance_and_length(self, seed):
        mu, mults = [7.0, 4.0, 2.0], [1, 2, 2]
        base = build_gamma(model_from_spectrum(mu, mults), EigenspaceSelection(1, 2))
        rotated = build_gamma(
            model_from_spectrum(mu, mults, rotation_seed=seed), EigenspaceSelection(1, 2)
        )
        m_j, p = 3, 5
        assert len(base) == m_j * (p - m_j)
        assert np.allclose(base, rotated)
        assert np.all(base > 0)
