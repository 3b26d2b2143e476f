import numpy as np
import pytest
from numpy.testing import assert_allclose

from projflow import (
    ChartDomainError,
    ChartPoint,
    DegenerateGeometryError,
    StateVector,
    apply_g_inv,
    canonical_omega,
    chart_from_state,
    embed,
    fubini_study_distance,
    geometry_at,
    nijenhuis_residual,
    nijenhuis_tensor,
    sample_interior_point,
    type_decompose,
)

import closedforms as cf


class TestChartPoint:
    def test_from_coords_splits_blocks(self):
        pt = ChartPoint.from_coords([0.1, 0.2, 0.3, 0.4])
        assert np.array_equal(pt.q, [0.1, 0.2]) and np.array_equal(pt.p, [0.3, 0.4])
        assert np.array_equal(pt.coords(), [0.1, 0.2, 0.3, 0.4])

    @pytest.mark.parametrize("coords", [[0.1, 0.2, 0.3], [[0.1, 0.2], [0.3, 0.4]], 0.5, [0.1, np.nan],
                                        [np.inf, 0.3]])
    def test_from_coords_rejects(self, coords):
        with pytest.raises(ValueError):
            ChartPoint.from_coords(coords)

    @pytest.mark.parametrize("q, p", [([0.1, 0.2], [0.3]), ([np.nan], [0.3]), ([0.1], [[0.3]])])
    def test_constructor_rejects(self, q, p):
        with pytest.raises(ValueError):
            ChartPoint(q, p)


class TestEmbed:
    def test_two_level_balanced(self):
        psi = embed(ChartPoint([0.0], [0.5])).amplitudes
        assert_allclose(psi, np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-15)

    def test_two_level_quarter_phase(self):
        # residual amplitude stays on the last basis vector, real positive
        psi = embed(ChartPoint([np.pi / 2], [0.5])).amplitudes
        assert_allclose(psi, np.array([-1j, 1.0]) / np.sqrt(2), atol=1e-15)

    def test_four_level_uniform(self):
        psi = embed(ChartPoint([0.0, 0.0, 0.0], [0.25, 0.25, 0.25])).amplitudes
        assert_allclose(psi, np.full(4, 0.5), atol=1e-15)

    def test_moduli_and_phases(self, rng):
        pt = sample_interior_point(rng, 3)
        psi = embed(pt).amplitudes
        assert_allclose(np.abs(psi[:3]) ** 2, pt.p, atol=1e-15)
        assert_allclose(np.angle(psi[:3]), np.angle(np.exp(-1j * pt.q)), atol=1e-12)
        assert psi[3].imag == 0.0 and psi[3].real > 0.0

    @pytest.mark.parametrize(
        "q,p",
        [([0.0], [0.0]), ([0.0], [1.0]), ([0.0], [-0.1]), ([0, 0, 0], [0.5, 0.5, 0.2])],
    )
    def test_out_of_chart_rejected(self, q, p):
        with pytest.raises(ChartDomainError):
            embed(ChartPoint(q, p))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="chart has 1 pairs but an n = 4 system needs 3"):
            embed(ChartPoint([0.1], [0.3]), n=4)
        with pytest.raises(ValueError, match="chart has 2 pairs but an n = 2 system needs 1"):
            embed(ChartPoint([0.1, 0.2], [0.3, 0.2]), n=2)

    def test_round_trip_with_extraction(self, rng):
        pt = sample_interior_point(rng, 2)
        back = chart_from_state(embed(pt))
        assert_allclose(back.q, np.mod(pt.q, 2 * np.pi), atol=1e-12)
        assert_allclose(back.p, pt.p, atol=1e-14)

    def test_extraction_rejects_zero_amplitude(self):
        with pytest.raises(ChartDomainError):
            chart_from_state(StateVector([1.0, 0.0]))


class TestJacobian:
    def test_matches_finite_differences(self, rng):
        # analytic derivatives against the centred cross-check utility
        for pairs in (1, 3):
            pt = sample_interior_point(rng, pairs)
            gap = np.abs(cf.embed_jacobian(pt) - cf.embed_jacobian_fd(pt, step=1e-6)).max()
            assert gap < 1e-6


class TestFubiniStudy:
    def test_identical_rays(self):
        a = StateVector([0.3 + 0.1j, 0.2, 0.5j])
        assert fubini_study_distance(a, a) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_rays(self):
        a = StateVector([1.0, 0.0])
        b = StateVector([0.0, 1.0])
        assert fubini_study_distance(a, b) == pytest.approx(np.pi)

    def test_half_overlap(self):
        a = StateVector([1.0, 0.0])
        b = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))
        assert fubini_study_distance(a, b) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_rescaling_invariance(self, rng):
        a = StateVector(rng.normal(size=4) + 1j * rng.normal(size=4))
        b = StateVector(rng.normal(size=4) + 1j * rng.normal(size=4))
        d0 = fubini_study_distance(a, b)
        d1 = fubini_study_distance(
            StateVector(2.7j * a.amplitudes), StateVector(-0.3 * b.amplitudes)
        )
        assert d1 == pytest.approx(d0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ChartDomainError):
            StateVector([0.0, 0.0])

    def test_strided_amplitudes(self):
        assert np.array_equal(StateVector(np.array([1, 2, 3, 4], complex)[::2]).amplitudes, [1, 3])
        with pytest.raises(ValueError, match="finite"):
            StateVector(np.array([1, 2, np.nan, 4], complex)[::2])

    def test_metric_axioms_on_random_triples(self, rng):
        for _ in range(25):
            vecs = [
                StateVector(rng.normal(size=3) + 1j * rng.normal(size=3))
                for _ in range(3)
            ]
            dab = fubini_study_distance(vecs[0], vecs[1])
            dba = fubini_study_distance(vecs[1], vecs[0])
            assert dab == dba  # symmetry is exact
            dac = fubini_study_distance(vecs[0], vecs[2])
            dcb = fubini_study_distance(vecs[2], vecs[1])
            assert dab <= dac + dcb + 1e-12


class TestPointGeometry:
    def test_bloch_closed_forms(self):
        for p in (0.2, 0.5, 0.77):
            geom = geometry_at(ChartPoint([0.9], [p]))
            assert_allclose(geom.g, cf.metric_bloch(p), atol=1e-12)
            assert_allclose(geom.j, cf.complex_structure_bloch(p), atol=1e-12)

    def test_bloch_half(self):
        geom = geometry_at(ChartPoint([0.0], [0.5]))
        assert_allclose(geom.g, np.diag([1.0, 4.0]), atol=1e-13)
        assert_allclose(geom.j, np.array([[0.0, 2.0], [-0.5, 0.0]]), atol=1e-13)

    def test_four_level_canonical_symplectic(self, rng):
        pt = sample_interior_point(rng, 3)
        geom = geometry_at(pt)
        s = cf.canonical_symplectic(3)
        assert np.array_equal(canonical_omega(3), s)
        assert_allclose(0.5 * geom.g @ geom.j, s, atol=1e-10)

    def test_four_level_explicit_tensors(self, rng):
        for _ in range(5):
            pt = sample_interior_point(rng, 3)
            geom = geometry_at(pt)
            assert_allclose(geom.g, cf.metric_two_qubit(pt.p), atol=1e-10)
            assert_allclose(geom.g_inv, cf.metric_inverse_two_qubit(pt.p), atol=1e-10)
            assert_allclose(geom.j, cf.complex_structure_two_qubit(pt.p), atol=1e-10)

    @pytest.mark.parametrize("pairs", [1, 2, 3])
    def test_compatibility_invariants(self, rng, pairs):
        eye = np.eye(2 * pairs)
        for _ in range(10):
            geom = geometry_at(sample_interior_point(rng, pairs))
            big_omega = geom.g @ geom.j
            assert np.abs(geom.j @ geom.j + eye).max() < 1e-10
            assert np.abs(geom.j.T @ geom.g @ geom.j - geom.g).max() < 1e-10
            assert np.abs(big_omega + big_omega.T).max() < 1e-10
            assert np.abs(geom.g_inv @ big_omega @ geom.g_inv @ big_omega.T - eye).max() < 1e-10
            assert np.abs(geom.j.T @ big_omega @ geom.j - big_omega).max() < 1e-10
            # the fundamental form in the operative index order is twice omega
            assert np.abs(0.5 * big_omega - canonical_omega(pairs)).max() < 1e-10

    def test_positive_definite_metric(self, rng):
        geom = geometry_at(sample_interior_point(rng, 3))
        assert np.linalg.eigvalsh(geom.g).min() > 0.0

    def test_boundary_guard(self):
        with pytest.raises(DegenerateGeometryError):
            geometry_at(ChartPoint([0.0], [1e-10]))
        with pytest.raises(DegenerateGeometryError):
            geometry_at(ChartPoint([0.0, 0.0, 0.0], [0.4, 0.4, 0.2 - 1e-10]))


class TestClosedForm:
    """The closed-form tensors against the Fubini-Study pullback oracle and a
    dense inverse."""

    @staticmethod
    def rel_gap(value, reference):
        return np.abs(value - reference).max() / np.abs(reference).max()

    @pytest.mark.parametrize("pairs", [1, 3, 7, 63])
    def test_matches_pullback_and_inverse(self, rng, pairs):
        pt = sample_interior_point(rng, pairs)
        g, big_omega = cf.pullback_tensors(embed(pt).amplitudes, cf.embed_jacobian(pt))
        g_inv = np.linalg.inv(g)
        geom = geometry_at(pt)
        omega = cf.canonical_symplectic(pairs)
        comparisons = {
            "g": (geom.g, g),
            "g_inv": (geom.g_inv, g_inv),
            "j": (geom.j, g_inv @ big_omega),
            "big_omega": (geom.g @ geom.j, big_omega),
            "omega": (omega, 0.5 * big_omega),
            "omega_inv": (omega, 2.0 * g_inv @ big_omega @ g_inv),
        }
        for name, (value, reference) in comparisons.items():
            assert self.rel_gap(value, reference) < 1e-12, name
        covector = rng.normal(size=2 * pairs)
        columns = rng.normal(size=(2 * pairs, 3))
        assert self.rel_gap(apply_g_inv(pt, covector), g_inv @ covector) < 1e-12
        assert self.rel_gap(apply_g_inv(pt, columns), g_inv @ columns) < 1e-12

    def test_apply_g_inv_guard(self):
        with pytest.raises(DegenerateGeometryError):
            apply_g_inv(ChartPoint([0.0], [1e-10]), np.ones(2))


class TestNijenhuis:
    def test_two_level_flat(self):
        assert nijenhuis_residual(ChartPoint([0.0], [0.5]), step=1e-5) < 1e-4

    def test_four_level_center(self):
        pt = ChartPoint([0.0, 0.0, 0.0], [0.25, 0.25, 0.25])
        assert nijenhuis_residual(pt, step=1e-5) < 1e-4

    def test_antisymmetry_exact(self, rng):
        tensor = nijenhuis_tensor(sample_interior_point(rng, 2), step=1e-5)
        assert np.abs(tensor + tensor.transpose(0, 2, 1)).max() == 0.0

    def test_stencil_outside_chart(self):
        with pytest.raises(ChartDomainError):
            nijenhuis_residual(ChartPoint([0.0], [1e-6]), step=1e-5)


class TestTypeDecompose:
    def test_zero_covector(self, rng):
        geom = geometry_at(sample_interior_point(rng, 2))
        pos, neg = type_decompose(np.zeros(4), geom)
        assert not pos.any() and not neg.any()

    def test_reconstruction(self, rng):
        geom = geometry_at(sample_interior_point(rng, 3))
        v = rng.normal(size=6)
        pos, neg = type_decompose(v, geom)
        assert_allclose(pos + neg, v, atol=1e-15)

    def test_eigenvector_property(self):
        geom = geometry_at(ChartPoint([0.0], [0.5]))
        pos, neg = type_decompose(np.array([1.0, 0.0]), geom)
        assert np.abs(geom.j.T @ pos - 1j * pos).max() < 1e-12
        assert np.abs(geom.j.T @ neg + 1j * neg).max() < 1e-12

    def test_dimension_mismatch(self, rng):
        geom = geometry_at(sample_interior_point(rng, 2))
        with pytest.raises(ValueError):
            type_decompose(np.zeros(6), geom)
