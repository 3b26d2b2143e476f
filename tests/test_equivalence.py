from dataclasses import asdict, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from projflow import (
    ChartPoint,
    algebraic_constraint,
    annihilation_check,
    constrained_field,
    constraint_frame,
    diagonal_system,
    equivalence_report,
    geometry_at,
    j_invariance_residual,
    modified_symplectic,
    product_surface_sample,
    sample_interior_point,
    tau_analysis,
)
import closedforms as cf
from closedforms import single_constraint_orthogonality
from conftest import spin_grid


def p_coordinate_constraint(index, dim):
    grad = np.zeros(2 * dim)
    grad[dim + index] = 1.0
    return algebraic_constraint(
        "p%d" % (index + 1),
        lambda pt, i=index: float(pt.p[i]),
        lambda pt, g=grad: g.copy(),
    )


class TestMuTensor:
    def test_single_constraint_outer_product(self, spin, rng):
        pt = sample_interior_point(rng, 1)
        mu = constraint_frame(spin.constraints, pt).mu
        grad = spin.constraints[0].grad(pt)
        geom = geometry_at(pt)
        m_scalar = grad @ geom.g_inv @ grad
        assert_allclose(mu, np.outer(grad, grad) / m_scalar, atol=1e-12)

    def test_scaling_invariance(self, spin, rng):
        pt = sample_interior_point(rng, 1)
        base = spin.constraints[0]
        doubled = algebraic_constraint(
            "2phi", lambda p: 2.0 * base.fn(p), lambda p: 2.0 * base.grad(p)
        )
        assert_allclose(
            constraint_frame((doubled,), pt).mu, constraint_frame((base,), pt).mu, atol=1e-12
        )

    def test_linear_recombination_invariance(self, two_qubit, rng):
        pt = product_surface_sample(31)
        base = two_qubit.constraints
        mix = (
            algebraic_constraint(
                "mix1",
                lambda p: 2.0 * base[0].fn(p) + 0.3 * base[1].fn(p),
                lambda p: 2.0 * base[0].grad(p) + 0.3 * base[1].grad(p),
            ),
            algebraic_constraint(
                "mix2",
                lambda p: -0.5 * base[0].fn(p) + 1.1 * base[1].fn(p),
                lambda p: -0.5 * base[0].grad(p) + 1.1 * base[1].grad(p),
            ),
        )
        assert np.abs(
            constraint_frame(mix, pt).mu - constraint_frame(base, pt).mu
        ).max() < 1e-10

    def test_two_qubit_center_brute_force(self, two_qubit):
        pt = ChartPoint([0.8, 0.3, 0.5], [0.25, 0.25, 0.25])
        rows = np.array([c.grad(pt) for c in two_qubit.constraints])
        expected = rows.T @ np.diag([0.25, 16.0]) @ rows
        assert_allclose(constraint_frame(two_qubit.constraints, pt).mu, expected, atol=1e-12)

    def test_symmetric(self, two_qubit):
        mu = constraint_frame(two_qubit.constraints, product_surface_sample(2)).mu
        assert np.array_equal(mu, mu.T)


class TestModifiedSymplectic:
    def test_two_qubit_antisymmetric_on_surface(self, two_qubit):
        for seed in range(5):
            wt = modified_symplectic(constraint_frame(two_qubit.constraints, product_surface_sample(seed)))
            assert np.abs(wt + wt.T).max() < 1e-10

    def test_spin_not_antisymmetric(self, spin):
        wt = modified_symplectic(constraint_frame(spin.constraints, ChartPoint([1.1], [0.33])))
        assert np.abs(wt + wt.T).max() > 0.01

    def test_reproduces_constrained_field(self, two_qubit, spin, rng):
        pt = product_surface_sample(7)
        wt = modified_symplectic(constraint_frame(two_qubit.constraints, pt))
        grad_h = two_qubit.hamiltonian.grad(pt)
        assert_allclose(wt @ grad_h, constrained_field(pt, two_qubit), atol=1e-10)
        pt = sample_interior_point(rng, 1)
        wt = modified_symplectic(constraint_frame(spin.constraints, pt))
        grad_h = spin.hamiltonian.grad(pt)
        assert_allclose(wt @ grad_h, constrained_field(pt, spin), atol=1e-10)


class TestJInvariance:
    def test_two_qubit_on_surface(self, two_qubit):
        for seed in range(10):
            assert j_invariance_residual(constraint_frame(two_qubit.constraints, product_surface_sample(seed))) < 1e-8

    def test_spin_generic_points(self, spin):
        for pt in spin_grid(exclusion=1e-2, nq=9, np_=7):
            assert j_invariance_residual(constraint_frame(spin.constraints, pt)) > 0.01

    def test_single_constraint_bounded_below(self, spin, rng):
        # empirical floor on the standard test grid: the residual never
        # drops under a fixed fraction of the mu scale
        for pt in spin_grid(exclusion=1e-2, nq=9, np_=7):
            frame = constraint_frame(spin.constraints, pt)
            assert j_invariance_residual(frame) >= 0.25 * np.abs(frame.mu).max()
        c = p_coordinate_constraint(0, 3)
        system = diagonal_system(4, [1.0, 2.0, 3.0, 0.0], (c,))
        for _ in range(10):
            pt = sample_interior_point(rng, 3)
            frame = constraint_frame(system.constraints, pt)
            assert j_invariance_residual(frame) >= 0.25 * np.abs(frame.mu).max()


class TestOrthogonality:
    def test_spin_generic(self, spin, rng):
        for _ in range(10):
            pt = sample_interior_point(rng, 1)
            assert single_constraint_orthogonality(pt, spin.constraints[0]) < 1e-12

    def test_constant_constraint(self, spin, rng):
        constant = algebraic_constraint("const", lambda p: 1.0, lambda p: np.zeros(2))
        pt = sample_interior_point(rng, 1)
        assert single_constraint_orthogonality(pt, constant) == 0.0

    def test_population_constraint_four_level(self, rng):
        c = p_coordinate_constraint(0, 3)
        pt = sample_interior_point(rng, 3)
        assert single_constraint_orthogonality(pt, c) < 1e-12


class TestTauAnalysis:
    def test_two_qubit_holomorphic_structure(self, two_qubit):
        # on the product surface the pair behaves like the real and
        # imaginary parts of one holomorphic constraint: pure-type blocks
        # vanish and the plus-sign condition holds
        for seed in range(10):
            tau, sign, norms = tau_analysis(constraint_frame(two_qubit.constraints, product_surface_sample(seed)))
            scale = np.abs(tau).max()
            assert sign == "plus"
            assert max(norms["pos_pos"], norms["neg_neg"]) < 1e-8 * scale
            assert max(norms["pos_neg"], norms["neg_pos"]) > 0.1 * scale

    def test_degenerate_pair_vanishes(self, two_qubit, rng):
        pt = product_surface_sample(3)
        c = two_qubit.constraints[0]
        tau, _, _ = tau_analysis(cf.rows_frame((c, c), pt))
        assert np.array_equal(tau, np.zeros((6, 6)))

    def test_population_pair_neither(self, rng):
        cons = (p_coordinate_constraint(0, 3), p_coordinate_constraint(1, 3))
        system = diagonal_system(4, [1.0, 2.0, 3.0, 0.0], cons)
        pt = sample_interior_point(rng, 3)
        tau, sign, norms = tau_analysis(constraint_frame(system.constraints, pt))
        assert sign == "neither"
        scale = np.abs(tau).max()
        assert min(norms.values()) > 0.01 * scale

    def test_blocks_match_brute_force_assembly(self, two_qubit, rng):
        # independent assembly from type-decomposed gradients
        for system, pt in [
            (two_qubit, product_surface_sample(4)),
            (two_qubit, sample_interior_point(rng, 3)),
        ]:
            frame = constraint_frame(system.constraints, pt)
            grad_a = system.constraints[0].grad(pt)
            grad_b = system.constraints[1].grad(pt)
            _, _, norms = tau_analysis(frame)
            brute = cf.decompose_tau_blocks(grad_a, grad_b, geometry_at(pt))
            for key, block in brute.items():
                assert norms[key] == pytest.approx(np.abs(block).max(), abs=1e-12)

    def test_wrong_count_rejected(self, spin, rng):
        with pytest.raises(ValueError):
            tau_analysis(constraint_frame(spin.constraints, sample_interior_point(rng, 1)))


class TestAnnihilation:
    def test_two_qubit(self, two_qubit):
        for seed in range(10):
            right, left = annihilation_check(constraint_frame(two_qubit.constraints, product_surface_sample(seed)))
            assert right < 1e-10
            assert left < 1e-8

    def test_spin(self, spin):
        for pt in spin_grid(exclusion=1e-2, nq=7, np_=5):
            right, left = annihilation_check(constraint_frame(spin.constraints, pt))
            assert right < 1e-10
            assert left > 0.01


class TestCriteriaAgreement:
    def test_three_faces_agree_pointwise(self, two_qubit, spin, rng):
        cases = [(two_qubit, product_surface_sample(s)) for s in range(5)]
        cases += [(spin, pt) for pt in spin_grid(exclusion=1e-2, nq=5, np_=3)]
        for system, pt in cases:
            frame = constraint_frame(system.constraints, pt)
            j_res = j_invariance_residual(frame)
            _, left = annihilation_check(frame)
            wt = modified_symplectic(frame)
            antisym = np.abs(wt + wt.T).max()
            flags = (j_res < 1e-8, left < 1e-8, antisym < 1e-8)
            assert len(set(flags)) == 1


class TestReport:
    def test_two_qubit_verdict(self, two_qubit):
        rep = equivalence_report(product_surface_sample(0), two_qubit)
        assert rep.verdict == "equivalent"
        assert rep.tau_sign == "plus"

    def test_spin_verdict(self, spin):
        rep = equivalence_report(ChartPoint([1.1], [0.33]), spin)
        assert rep.verdict == "not_equivalent"
        assert rep.tau_sign is None

    def test_empty_constraint_set_reports_zeros(self, spin):
        rep = equivalence_report(ChartPoint([1.1], [0.33]), replace(spin, constraints=()))
        assert asdict(rep) == {
            "j_invariance_residual": 0.0,
            "right_annihilation_residual": 0.0,
            "left_annihilation_residual": 0.0,
            "tau_sign": None,
            "verdict": "equivalent",
        }
