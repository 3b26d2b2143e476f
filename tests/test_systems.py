import numpy as np
import pytest
from numpy.testing import assert_allclose

from projflow import (
    ChartDomainError,
    ChartPoint,
    SingularGramError,
    constrained_field,
    diagonal_system,
    embed,
    geometry_at,
    nijenhuis_residual,
    product_surface_sample,
    pushforward_to_angular,
    sample_interior_point,
    system_from_name,
)

import closedforms as cf


class TestTwoQubitSystem:
    def test_oracle_center(self, two_qubit):
        pt = ChartPoint([0.4, 0.1, 0.3], [0.25, 0.25, 0.25])
        assert_allclose(
            cf.two_qubit_surface_field(pt.p, cf.gaps(two_qubit)), [1, 0, 1, 0, 0, 0], atol=1e-15
        )

    def test_presimplified_form_agrees_on_surface(self, two_qubit):
        for seed in range(20):
            pt = product_surface_sample(seed)
            assert_allclose(
                cf.two_qubit_field_presimplified(pt, cf.gaps(two_qubit)),
                cf.two_qubit_surface_field(pt.p, cf.gaps(two_qubit)),
                atol=1e-12,
            )

    def test_field_matches_oracle_on_surface(self, two_qubit):
        for seed in range(25):
            pt = product_surface_sample(seed)
            assert_allclose(
                constrained_field(pt, two_qubit),
                cf.two_qubit_surface_field(pt.p, cf.gaps(two_qubit)),
                atol=1e-10,
            )

    def test_custom_energies(self):
        system = system_from_name("two-qubit-product", energies=[5.0, 1.0, 2.0, 3.0])
        assert_allclose(cf.gaps(system), [2.0, -2.0, -1.0])

    @pytest.mark.parametrize("energies", [[1.0, 2.0, 0.0], [1.0, 2.0, 3.0, 4.0, 0.0]])
    def test_energy_count_checked(self, energies):
        with pytest.raises(ValueError, match="exactly four energies"):
            system_from_name("two-qubit-product", energies=energies)


class TestSurfaceSampler:
    def test_constraints_vanish(self):
        for seed in range(30):
            pt = product_surface_sample(seed)
            for c in (pt.q[0] - pt.q[1] - pt.q[2], pt.p[0] * (1 - pt.p.sum()) - pt.p[1] * pt.p[2]):
                assert abs(c) < 1e-14

    def test_deterministic(self):
        a = product_surface_sample(42)
        b = product_surface_sample(42)
        assert np.array_equal(a.q, b.q) and np.array_equal(a.p, b.p)

    def test_embedded_product_condition(self):
        for seed in range(20):
            amp = embed(product_surface_sample(seed)).amplitudes
            assert abs(amp[0] * amp[3] - amp[1] * amp[2]) < 1e-13

    def test_interior(self):
        for seed in range(30):
            assert product_surface_sample(seed).margin > 0.02


class TestTrigConstraints:
    def test_zero_sets_coincide(self, rng):
        # restrict angles so branch ambiguity cannot split the zero sets
        cos_c, sin_c = cf.two_qubit_trig_constraints()
        for seed in range(10):
            pt = product_surface_sample(seed)
            q2, q3 = rng.uniform(0.05, np.pi - 0.05, size=2)
            on = ChartPoint([q2 + q3, q2, q3], pt.p)
            assert abs(cos_c.value(on)) < 1e-10 and abs(sin_c.value(on)) < 1e-10
            off = ChartPoint([q2 + q3 + 0.4, q2, q3], pt.p)
            assert max(abs(cos_c.value(off)), abs(sin_c.value(off))) > 1e-10
            bad_p = np.array([pt.p[0] + 0.02, pt.p[1], pt.p[2]])
            off2 = ChartPoint([q2 + q3, q2, q3], bad_p)
            assert max(abs(cos_c.value(off2)), abs(sin_c.value(off2))) > 1e-10


class TestSpinSystem:
    def test_oracle_values(self):
        assert_allclose(cf.spin_field(0.0, 0.25), [-2.0, 0.0], atol=1e-15)
        assert_allclose(cf.spin_field(np.pi / 2, 0.3), [0.0, 0.0], atol=1e-15)
        assert_allclose(cf.spin_field(1.234, 0.5), [0.0, 0.0], atol=1e-15)

    def test_hamiltonian_is_one_minus_two_p(self, spin, rng):
        pt = sample_interior_point(rng, 1)
        assert spin.hamiltonian.value(pt) == pytest.approx(1.0 - 2.0 * pt.p[0], abs=1e-15)

    def test_field_matches_oracle_off_singularities(self, spin):
        from conftest import spin_grid

        for pt in spin_grid(exclusion=1e-3, nq=15, np_=11):
            assert_allclose(constrained_field(pt, spin), cf.spin_field(pt.q[0], pt.p[0]), atol=1e-10)

    def test_oracle_singular_at_fixed_points(self, spin):
        with pytest.raises(SingularGramError):
            constrained_field(ChartPoint([0.0], [0.5]), spin)
        with pytest.raises(SingularGramError):
            constrained_field(ChartPoint([np.pi], [0.5]), spin)


class TestAngularConversion:
    def test_round_trip(self, rng):
        for _ in range(20):
            pt = ChartPoint([rng.uniform(0, 2 * np.pi)], [rng.uniform(0.05, 0.95)])
            back = cf.from_angular(cf.to_angular(pt))
            assert_allclose(back.q, pt.q, atol=1e-14)
            assert_allclose(back.p, pt.p, atol=1e-14)

    def test_identification(self):
        ang = cf.to_angular(ChartPoint([0.0], [0.5]))
        assert ang.theta == pytest.approx(np.pi / 2)
        assert ang.phi == pytest.approx(0.0)

    def test_singular_point_converts_but_field_raises(self, spin):
        pt = cf.from_angular(cf.AngularPoint(np.pi / 2, 0.0))
        assert_allclose(pt.p, [0.5])
        with pytest.raises(SingularGramError):
            constrained_field(pt, spin)

    def test_poles_rejected(self):
        with pytest.raises(ChartDomainError):
            cf.AngularPoint(0.0, 1.0)
        with pytest.raises(ChartDomainError):
            cf.AngularPoint(np.pi, 1.0)
        with pytest.raises(ValueError):
            cf.to_angular(ChartPoint([0.0, 0.0, 0.0], [0.2, 0.2, 0.2]))

    def test_x_equator_family_is_fixed(self):
        tdot, pdot = cf.spin_angular_field(np.pi / 4, np.pi / 2)
        assert tdot == pytest.approx(0.0, abs=1e-15)
        assert pdot == pytest.approx(0.0, abs=1e-15)

    def test_pushforward_matches_angular_closed_form(self, spin):
        from conftest import spin_grid

        for pt in spin_grid(exclusion=1e-2, nq=13, np_=9):
            ang = cf.to_angular(pt)
            pushed = pushforward_to_angular(pt, constrained_field(pt, spin))
            assert_allclose(pushed, cf.spin_angular_field(ang.theta, ang.phi), atol=1e-9)


class TestDiagonalSystem:
    def test_two_level_hamiltonian(self, rng):
        system = diagonal_system(2, [-1.0, 1.0])
        pt = sample_interior_point(rng, 1)
        assert system.hamiltonian.value(pt) == pytest.approx(1.0 - 2.0 * pt.p[0])

    def test_three_level_geometry_invariants(self, rng):
        system = diagonal_system(3, [0.7, -0.2, 0.1])
        eye = np.eye(4)
        for _ in range(5):
            pt = sample_interior_point(rng, 2)
            geom = geometry_at(pt)
            assert np.abs(geom.j @ geom.j + eye).max() < 1e-10
            assert np.abs(geom.j.T @ geom.g @ geom.j - geom.g).max() < 1e-10
        assert nijenhuis_residual(sample_interior_point(rng, 2)) < 1e-8

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            diagonal_system(1, [1.0])

    def test_energy_count_checked(self):
        with pytest.raises(ValueError):
            diagonal_system(3, [1.0, 2.0])


def test_public_names_resolve_once():
    import projflow

    assert len(projflow.__all__) == len(set(projflow.__all__))
    for name in projflow.__all__:
        assert getattr(projflow, name) is not None, name


class TestRegistry:
    def test_names(self):
        assert system_from_name("two-qubit-product").name == "two-qubit-product"
        assert system_from_name("spin-half-sx").name == "spin-half-sx"
        assert system_from_name("diagonal", n=3, energies=[1.0, 2.0, 0.0]).n == 3

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            system_from_name("bogus")

    def test_diagonal_requires_parameters(self):
        with pytest.raises(ValueError):
            system_from_name("diagonal")
