import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from projflow import (
    ChartPoint,
    Constraint,
    SingularGramError,
    algebraic_constraint,
    constraint_frame,
    constrained_field,
    diagonal_observable,
    diagonal_system,
    embed,
    gram_covariance_check,
    gram_matrix,
    observable_constraint,
    sample_interior_point,
)
from projflow.constraints import _check_hermitian, _covariance

import closedforms as cf
from closedforms import EigenstateDegenerateError, finite_difference_gradient, two_constraint_determinant

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.diag([1.0, -1.0])


class TestConstraint:
    def test_observable_value_is_expectation(self, spin, rng):
        c = spin.constraints[0]
        pt = sample_interior_point(rng, 1)
        amp = embed(pt).amplitudes
        expected = np.real(amp.conj() @ SIGMA_X @ amp)
        assert c.value(pt) == pytest.approx(expected, abs=1e-14)
        # and the known closed form 2 sqrt(p(1-p)) cos q
        q, p = pt.q[0], pt.p[0]
        assert c.value(pt) == pytest.approx(2 * np.sqrt(p * (1 - p)) * np.cos(q), abs=1e-14)

    def test_observable_gradient_vs_finite_differences(self, spin, two_qubit, rng):
        c = spin.constraints[0]
        pt = sample_interior_point(rng, 1)
        assert_allclose(c.grad(pt), finite_difference_gradient(c.fn, pt), atol=1e-6)
        for c in two_qubit.constraints:
            pt = sample_interior_point(rng, 3)
            assert_allclose(c.grad(pt), finite_difference_gradient(c.fn, pt), atol=1e-6)

    def test_algebraic_without_gradient_rejected(self):
        def curvy(pt):
            return float(np.sin(pt.q[0]) * pt.p[0] ** 2)

        with pytest.raises(TypeError):
            algebraic_constraint("curvy", curvy)
        with pytest.raises(TypeError, match="'curvy' needs a gradient"):
            algebraic_constraint("curvy", curvy, None)

    def test_algebraic_without_value_rejected(self):
        # rejected when built, not at the first .value
        with pytest.raises(TypeError, match="'flat' needs a value function"):
            algebraic_constraint("flat", None, lambda pt: np.zeros(2 * pt.m))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            observable_constraint(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("entry", [float("nan"), float("inf"), complex(0.0, float("nan"))])
    def test_non_finite_matrix_rejected(self, entry):
        # NaN compares false, so a Hermitian check alone lets it through
        with pytest.raises(ValueError, match="observable matrix must be finite"):
            observable_constraint(np.array([[entry, 1.0], [1.0, 0.0]]))

    def test_kind_follows_matrix(self, spin, two_qubit):
        assert spin.constraints[0].kind == "observable"
        assert spin.hamiltonian.kind == "observable"
        assert {c.kind for c in two_qubit.constraints} == {"algebraic"}
        assert Constraint("bare", lambda pt: 0.0, lambda pt: np.zeros(2)).kind == "algebraic"


class TestDiagonalObservable:
    def test_gradient_is_gaps(self, rng):
        c = diagonal_observable([1.0, 2.0, 3.0, 0.0])
        assert np.array_equal(c.grad(sample_interior_point(rng, 3)), [0.0, 0.0, 0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(c.matrix, [1.0, 2.0, 3.0, 0.0])

    def test_stores_weights_not_matrix(self):
        # the dense diag(w) held 32 MB at n = 2000 (800 MB at n = 10^4)
        tracemalloc.start()
        try:
            diagonal_system(2000, np.arange(2000.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_unit_weight_is_population(self, rng):
        pt = sample_interior_point(rng, 3)
        for k in range(3):
            c = diagonal_observable(np.eye(4)[k], "p%d" % (k + 1))
            assert c.value(pt) == pt.p[k]
            assert np.array_equal(c.grad(pt), np.eye(6)[3 + k])

    @pytest.mark.parametrize("weights", [[1.0], [], [[1.0, 0.0], [0.0, 1.0]]])
    def test_needs_two_levels(self, weights):
        with pytest.raises(ValueError, match="at least two levels"):
            diagonal_observable(weights)

    @pytest.mark.parametrize("weights", [[1.0, float("nan")], [float("inf"), 0.0]])
    def test_non_finite_rejected(self, weights):
        with pytest.raises(ValueError, match="finite"):
            diagonal_observable(weights)

    def test_dimension_mismatch(self, rng):
        c = diagonal_observable([1.0, 2.0, 0.0])
        pt = sample_interior_point(rng, 3)
        with pytest.raises(ValueError):
            c.value(pt)
        with pytest.raises(ValueError):
            c.grad(pt)


class TestGramMatrix:
    def test_two_qubit_center(self, two_qubit):
        pt = ChartPoint([0.7, 0.4, 0.3], [0.25, 0.25, 0.25])
        frame = constraint_frame(two_qubit.constraints, pt)
        assert_allclose(frame.gram, np.diag([4.0, 1.0 / 16.0]), atol=1e-12)
        assert_allclose(frame.gram_inv @ frame.gram, np.eye(2), atol=1e-12)

    def test_two_qubit_closed_form(self, two_qubit, rng):
        for _ in range(5):
            pt = sample_interior_point(rng, 3)
            gram = gram_matrix(two_qubit.constraints, pt)
            m11, m22 = cf.gram_diag_two_qubit(pt.p)
            assert_allclose(np.diag(gram), [m11, m22], rtol=1e-10)
            assert abs(gram[0, 1]) < 1e-12

    def test_spin_closed_form(self, spin):
        for q, p in [(np.pi / 2, 0.3), (0.8, 0.6), (2.4, 0.15)]:
            gram = gram_matrix(spin.constraints, ChartPoint([q], [p]))
            assert gram[0, 0] == pytest.approx(cf.spin_gram(q, p), abs=1e-12)
        gram = gram_matrix(spin.constraints, ChartPoint([np.pi / 2], [0.3]))
        assert gram[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_constraints_singular(self, spin, rng):
        pt = sample_interior_point(rng, 1)
        pair = (spin.constraints[0], spin.constraints[0])
        with pytest.raises(SingularGramError) as info:
            gram_matrix(pair, pt)
        assert "sigma-x" in str(info.value)
        assert info.value.condition_number > 1e12

    def test_non_strict_returns_without_inverse(self, spin, rng):
        # constraint_frame refuses a duplicated pair; the unchecked rows_frame
        # assembles the same Gram matrix with no inverse, and it is singular
        pt = sample_interior_point(rng, 1)
        pair = (spin.constraints[0], spin.constraints[0])
        with pytest.raises(SingularGramError) as info:
            constraint_frame(pair, pt)
        assert info.value.condition_number > 1e12
        frame = cf.rows_frame(pair, pt)
        assert not hasattr(frame, "gram_inv")
        assert np.linalg.cond(frame.gram) > 1e12

    def test_positive_semidefinite(self, two_qubit, rng):
        for _ in range(10):
            gram = gram_matrix(two_qubit.constraints, sample_interior_point(rng, 3))
            assert np.linalg.eigvalsh(gram).min() > -1e-12

    def test_reorder_is_exact_permutation(self, two_qubit, rng):
        pt = sample_interior_point(rng, 3)
        forward = gram_matrix(two_qubit.constraints, pt)
        swapped = gram_matrix(two_qubit.constraints[::-1], pt)
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(swapped, perm @ forward @ perm.T)

    def test_scaling_scales_rows_exactly(self, two_qubit, rng):
        pt = sample_interior_point(rng, 3)
        base = two_qubit.constraints
        scaled = (
            algebraic_constraint(
                "2*phase-sum",
                lambda p: 2.0 * base[0].fn(p),
                lambda p: 2.0 * base[0].grad(p),
            ),
            base[1],
        )
        m0 = gram_matrix(base, pt)
        m1 = gram_matrix(scaled, pt)
        # doubling is an exponent shift, exact in floating point
        assert np.array_equal(m1[0, 0], 4.0 * m0[0, 0])
        assert np.array_equal(m1[0, 1], 2.0 * m0[0, 1])
        assert np.array_equal(m1[1, 1], m0[1, 1])

    def test_scaling_leaves_field_invariant(self, two_qubit):
        from projflow import product_surface_sample

        pt = product_surface_sample(5)
        base = two_qubit.constraints
        scaled = (
            algebraic_constraint(
                "c*phase-sum",
                lambda p: 0.7 * base[0].fn(p),
                lambda p: 0.7 * base[0].grad(p),
            ),
            base[1],
        )
        f0 = constrained_field(pt, two_qubit, base)
        f1 = constrained_field(pt, two_qubit, scaled)
        assert np.abs(f0 - f1).max() < 1e-10


class TestCovariance:
    """The covariance side of the Gram-covariance identity, as validate's
    gram_covariance check evaluates it: normalised amplitudes in."""

    def test_eigenstate_variance_zero(self):
        cov = _covariance([SIGMA_X], np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))
        assert abs(cov[0, 0]) < 1e-15

    def test_basis_state_variance_one(self):
        cov = _covariance([SIGMA_X], np.array([1.0, 0.0], dtype=complex))
        assert cov[0, 0] == pytest.approx(1.0)

    def test_symmetrised_cross_term_real(self, rng):
        amp = rng.normal(size=2) + 1j * rng.normal(size=2)
        cov = _covariance([SIGMA_X, SIGMA_Z], amp / np.linalg.norm(amp))
        assert cov.dtype.kind == "f"
        assert cov[0, 1] == cov[1, 0]

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            _check_hermitian(np.array([[0.0, 1.0], [2.0, 0.0]]))


class TestGramCovarianceIdentity:
    def test_spin_system(self, spin, rng):
        for _ in range(10):
            pt = sample_interior_point(rng, 1)
            assert gram_covariance_check(spin.constraints, pt) < 1e-10

    def test_identity_observable_both_sides_zero(self, rng):
        c = observable_constraint(np.eye(2), "unit")
        pt = sample_interior_point(rng, 1)
        assert gram_covariance_check((c,), pt) < 1e-15

    def test_diagonal_observable_four_level(self, rng):
        c = observable_constraint(np.diag([1.0, 2.0, 3.0, 0.0]), "energy")
        for _ in range(10):
            pt = sample_interior_point(rng, 3)
            assert gram_covariance_check((c,), pt) < 1e-10

    def test_non_commuting_pair(self, rng):
        cons = (observable_constraint(SIGMA_X, "sx"), observable_constraint(SIGMA_Z, "sz"))
        for _ in range(10):
            pt = sample_interior_point(rng, 1)
            assert gram_covariance_check(cons, pt) < 1e-10

    def test_population_is_observable(self, rng):
        cons = (diagonal_observable(np.eye(3)[0], "p1"), diagonal_observable(np.eye(3)[1], "p2"))
        for _ in range(10):
            assert gram_covariance_check(cons, sample_interior_point(rng, 2)) < 1e-12

    def test_algebraic_constraint_rejected(self, two_qubit, rng):
        with pytest.raises(ValueError):
            gram_covariance_check(two_qubit.constraints, sample_interior_point(rng, 3))


class TestTwoConstraintDeterminant:
    def test_perfectly_correlated(self, spin, rng):
        pt = sample_interior_point(rng, 1)
        base = spin.constraints[0]
        doubled = algebraic_constraint(
            "2*sigma-x", lambda p: 2.0 * base.fn(p), lambda p: 2.0 * base.grad(p)
        )
        delta, rho = two_constraint_determinant(cf.rows_frame((base, doubled), pt).gram)
        assert rho == pytest.approx(1.0, abs=1e-12)
        assert abs(delta) < 1e-12

    def test_anticorrelated(self, spin, rng):
        pt = sample_interior_point(rng, 1)
        base = spin.constraints[0]
        negated = algebraic_constraint(
            "-sigma-x", lambda p: -base.fn(p), lambda p: -base.grad(p)
        )
        _, rho = two_constraint_determinant(cf.rows_frame((base, negated), pt).gram)
        assert rho == pytest.approx(-1.0, abs=1e-12)

    def test_independent_pair(self, two_qubit):
        pt = ChartPoint([0.7, 0.4, 0.3], [0.25, 0.25, 0.25])
        gram = gram_matrix(two_qubit.constraints, pt)
        delta, rho = two_constraint_determinant(gram)
        assert delta == pytest.approx(0.25, abs=1e-12)
        assert rho == pytest.approx(0.0, abs=1e-12)

    def test_matches_determinant(self, two_qubit, rng):
        pt = sample_interior_point(rng, 3)
        gram = gram_matrix(two_qubit.constraints, pt)
        delta, _ = two_constraint_determinant(gram)
        assert delta == pytest.approx(np.linalg.det(gram), abs=1e-12)

    def test_zero_variance_rejected(self, spin, rng):
        pt = sample_interior_point(rng, 1)
        constant = algebraic_constraint("const", lambda p: 1.0, lambda p: np.zeros(2))
        gram = cf.rows_frame((spin.constraints[0], constant), pt).gram
        with pytest.raises(EigenstateDegenerateError):
            two_constraint_determinant(gram)

    def test_needs_two_constraints(self, spin, rng):
        gram = gram_matrix(spin.constraints, sample_interior_point(rng, 1))
        with pytest.raises(ValueError):
            two_constraint_determinant(gram)


def test_vanishing_gradient_is_singular(rng):
    constant = algebraic_constraint("const", lambda p: 0.0, lambda p: np.zeros(2))
    system = diagonal_system(2, [1.0, 0.0], (constant,))
    with pytest.raises(SingularGramError):
        gram_matrix(system.constraints, sample_interior_point(rng, 1))


def nan_gradient():
    return algebraic_constraint("nan-grad", lambda pt: 0.0, lambda pt: np.full(2 * pt.m, np.nan))


@pytest.mark.parametrize("size", [1, 2, 3])
def test_non_finite_gram_is_singular(size, rng):
    # a NaN fails every comparison, so the singularity thresholds alone
    # would let a NaN Gram matrix through
    populations = [diagonal_observable(np.eye(4)[k], "p%d" % (k + 1)) for k in range(2)]
    constraints = [nan_gradient()] + populations[: size - 1]
    with pytest.raises(SingularGramError, match="nan-grad"):
        constraint_frame(constraints, sample_interior_point(rng, 3))


def test_condition_number_reported(two_qubit, rng):
    frame = constraint_frame(two_qubit.constraints, sample_interior_point(rng, 3))
    assert frame.condition_number >= 1.0
    assert np.isfinite(frame.condition_number)
    assert np.array_equal(frame.gram, frame.gram.T)  # symmetric as constructed
    assert np.array_equal(frame.gram_inv, frame.gram_inv.T)
