from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from projflow import (
    ChartDomainError,
    ChartPoint,
    DegenerateGeometryError,
    algebraic_constraint,
    canonical_omega,
    constrained_field,
    diagonal_system,
    integrate,
    observable_constraint,
    product_surface_sample,
    sample_interior_point,
    schrodinger_field,
)
from projflow import dynamics
from projflow.geometry import BOUNDARY_MARGIN

import closedforms as cf
from closedforms import multipliers, trajectory_point


def wrapped_gap(a, b):
    return np.abs(np.mod(a - b + np.pi, 2 * np.pi) - np.pi)


class TestSchrodingerField:
    def test_four_level(self, rng):
        system = diagonal_system(4, [1.0, 2.0, 3.0, 0.0])
        field = schrodinger_field(sample_interior_point(rng, 3), system)
        assert_allclose(field, [1.0, 2.0, 3.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_two_level(self, rng):
        system = diagonal_system(2, [-1.0, 1.0])  # H = 1 - 2p
        field = schrodinger_field(sample_interior_point(rng, 1), system)
        assert_allclose(field, [-2.0, 0.0], atol=1e-13)

    def test_flat_spectrum_is_stationary(self, rng):
        system = diagonal_system(3, [0.5, 0.5, 0.5])
        field = schrodinger_field(sample_interior_point(rng, 2), system)
        assert np.array_equal(field, np.zeros(4))

    def test_boundary_rejected(self):
        system = diagonal_system(2, [1.0, 0.0])
        with pytest.raises(ChartDomainError):
            schrodinger_field(ChartPoint([0.0], [1e-12]), system)

    def test_high_dimension_is_gaps_and_zero(self, rng):
        energies = rng.uniform(-2.0, 2.0, size=64)
        system = diagonal_system(64, energies)
        field = constrained_field(sample_interior_point(rng, 63), system)
        assert np.array_equal(field, np.concatenate([energies[:-1] - energies[-1], np.zeros(63)]))

    def test_guard_inside_boundary_margin(self):
        # residual weight 1e-10, inside the margin, though the point is in
        # the open chart; RK4 stage points rely on this guard
        system = diagonal_system(3, [1.0, 2.0, 0.0])
        with pytest.raises(DegenerateGeometryError):
            schrodinger_field(ChartPoint([0.0, 0.1], [0.5, 0.5 - 1e-10]), system)
        with pytest.raises(DegenerateGeometryError):
            constrained_field(ChartPoint.from_coords([0.0, 0.1, 0.5, 0.5 - 1e-10]), system, ())


class TestMultipliers:
    def test_omega_orthogonal_gradients_give_zero(self, rng):
        # grad p_1 pairs with the angle block of the free field, which the
        # symplectic contraction annihilates
        c = algebraic_constraint(
            "p1", lambda pt: float(pt.p[0]), lambda pt: np.array([0, 0, 0, 1.0, 0, 0])
        )
        system = diagonal_system(4, [1.0, 2.0, 3.0, 0.0], (c,))
        lam = multipliers(sample_interior_point(rng, 3), system)
        assert np.abs(lam).max() < 1e-14

    def test_spin_zero_on_meridian(self, spin):
        # at q = 0 the free flow is already tangent to the level set
        lam = multipliers(ChartPoint([0.0], [0.25]), spin)
        assert np.abs(lam).max() < 1e-14

    def test_spin_fixed_point_multiplier_cancels_drive(self, spin):
        # at cos q = 0 the multiplier is nonzero and the correction cancels
        # the free field entirely
        pt = ChartPoint([np.pi / 2], [0.25])
        lam = multipliers(pt, spin)
        assert lam[0] == pytest.approx(np.sqrt(3.0), abs=1e-12)
        assert np.abs(constrained_field(pt, spin)).max() < 1e-12

    def test_substitution_reproduces_field(self, two_qubit):
        from projflow import geometry_at
        from projflow.constraints import gradient_rows

        pt = product_surface_sample(17)
        lam = multipliers(pt, two_qubit)
        geom = geometry_at(pt)
        rows = gradient_rows(two_qubit.constraints, pt)
        free = canonical_omega(3) @ two_qubit.hamiltonian.grad(pt)
        assembled = free - geom.g_inv @ (rows.T @ lam)
        assert_allclose(assembled, cf.two_qubit_surface_field(pt.p, cf.gaps(two_qubit)), atol=1e-12)

    def test_empty_constraints(self, rng):
        system = diagonal_system(3, [1.0, 2.0, 0.0])
        assert multipliers(sample_interior_point(rng, 2), system).size == 0


class TestConstrainedField:
    def test_two_qubit_center(self, two_qubit):
        pt = ChartPoint([0.9, 0.5, 0.4], [0.25, 0.25, 0.25])
        assert_allclose(constrained_field(pt, two_qubit), [1, 0, 1, 0, 0, 0], atol=1e-12)

    def test_spin_example_values(self, spin):
        assert_allclose(
            constrained_field(ChartPoint([0.0], [0.25]), spin), [-2.0, 0.0], atol=1e-12
        )
        assert np.abs(constrained_field(ChartPoint([np.pi / 2], [0.7]), spin)).max() < 1e-12
        assert np.abs(constrained_field(ChartPoint([2.2], [0.5]), spin)).max() < 1e-12

    def test_tangency(self, two_qubit, spin, rng):
        for seed in range(10):
            pt = product_surface_sample(seed)
            field = constrained_field(pt, two_qubit)
            for c in two_qubit.constraints:
                assert abs(field @ c.grad(pt)) < 1e-10
        for _ in range(10):
            pt = sample_interior_point(rng, 1)
            field = constrained_field(pt, spin)
            assert abs(field @ spin.constraints[0].grad(pt)) < 1e-10

    def test_no_constraints_reduces_to_free_flow(self, rng):
        system = diagonal_system(4, [1.0, 2.0, 3.0, 0.0])
        pt = sample_interior_point(rng, 3)
        assert np.array_equal(
            constrained_field(pt, system, ()), schrodinger_field(pt, system)
        )


class TestIntegrate:
    def test_unconstrained_matches_unitary_oracle(self, rng):
        system = diagonal_system(4, [1.0, 2.0, 3.0, 0.0])
        x0 = sample_interior_point(rng, 3)
        traj = integrate(system, x0, 1.0, 1e-3, constraints=())
        assert traj.exit_flag == "completed"
        worst = 0.0
        for i in range(0, len(traj), 100):
            ref = cf.exact_unitary_oracle(system, x0, traj.times[i])
            worst = max(
                worst,
                wrapped_gap(traj.qs[i], ref.q).max(),
                np.abs(traj.ps[i] - ref.p).max(),
            )
        assert worst < 1e-8

    def test_two_qubit_actions_frozen(self, two_qubit):
        x0 = product_surface_sample(23)
        traj = integrate(two_qubit, x0, 1.0, 1e-3)
        assert np.abs(traj.ps - traj.ps[0]).max() < 1e-10
        drift = np.abs(traj.constraint_values - traj.constraint_values[0]).max()
        assert drift < 1e-8
        # energy rides on the frozen actions
        assert np.abs(traj.energies - traj.energies[0]).max() < 1e-9

    def test_spin_constraint_drift(self, spin):
        traj = integrate(spin, ChartPoint([0.9], [0.3]), 10.0, 5e-3)
        assert traj.exit_flag == "completed"
        assert np.abs(traj.constraint_values - traj.constraint_values[0]).max() < 1e-8

    def test_projection_off_still_accurate(self, spin):
        traj = integrate(spin, ChartPoint([0.9], [0.3]), 2.0, 1e-3, projection=False)
        assert np.abs(traj.constraint_values - traj.constraint_values[0]).max() < 1e-8

    def test_rk4_order_on_curved_flow(self, spin):
        x0 = ChartPoint([0.9], [0.3])

        def endpoint(dt):
            traj = integrate(spin, x0, 0.8, dt, projection=False)
            return np.array([traj.qs[-1][0], traj.ps[-1][0]])

        ref = endpoint(0.8 / 4096)
        e1 = np.linalg.norm(endpoint(0.02) - ref)
        e2 = np.linalg.norm(endpoint(0.01) - ref)
        assert 12.0 < e1 / e2 < 20.0

    def test_strictly_increasing_times_and_interior_points(self, spin):
        traj = integrate(spin, ChartPoint([0.9], [0.3]), 1.0, 0.01)
        assert np.all(np.diff(traj.times) > 0)
        for i in range(len(traj)):
            assert trajectory_point(traj, i).margin > 0

    def test_final_partial_step_lands_on_t_end(self, spin):
        traj = integrate(spin, ChartPoint([0.9], [0.3]), 0.025, 0.01)
        assert traj.times[-1] == pytest.approx(0.025, abs=1e-15)

    @pytest.mark.parametrize("t_end, dt", [(1.0, 0.1), (25.0, 0.05), (0.3, 0.1), (0.007, 1e-3)])
    def test_samples_sit_on_multiples_of_dt(self, t_end, dt):
        # summing dt step by step drifts (0.7999999999999999 at dt = 0.1,
        # 2.2e-13 after 500 steps of 0.05) and missed t_end
        system = diagonal_system(3, [1.0, -0.5, 0.25])
        traj = integrate(system, ChartPoint([0.9, 0.1], [0.3, 0.2]), t_end, dt, constraints=())
        assert traj.exit_flag == "completed"
        steps = round(t_end / dt)
        assert traj.times.tolist() == [k * dt for k in range(steps)] + [t_end]

    def test_invalid_dt(self, spin):
        with pytest.raises(ValueError):
            integrate(spin, ChartPoint([0.9], [0.3]), 1.0, 0.0)

    @pytest.mark.parametrize("t_end, dt", [(float("nan"), 1e-3), (float("inf"), 1e-3), (1.0, float("nan"))])
    def test_non_finite_times_rejected(self, spin, t_end, dt):
        with pytest.raises(ValueError, match="finite"):
            integrate(spin, ChartPoint([0.9], [0.3]), t_end, dt)

    def test_unconverged_projection_truncates(self, spin, monkeypatch):
        # one Newton correction per step of 0.2 leaves the sigma_x residual
        # above the tolerance; unflagged, this run ended "completed" with a
        # drift of 2.7e-8
        x0 = ChartPoint([0.9], [0.3])
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "NEWTON_MAX", 1)
            traj = integrate(spin, x0, 3.0, 0.2)
        assert traj.exit_flag == "projection"
        assert len(traj) < 16
        assert np.abs(traj.constraint_values - traj.constraint_values[0]).max() < 1e-10
        full = integrate(spin, x0, 3.0, 0.2)
        assert full.exit_flag == "completed"
        assert np.abs(full.constraint_values - full.constraint_values[0]).max() < 1e-10

    def test_boundary_truncation(self):
        system = diagonal_system(2, [1.0, 0.0])
        with pytest.raises(ChartDomainError):
            integrate(system, ChartPoint([0.0], [1e-10]), 1.0, 0.01, constraints=())

    @pytest.mark.parametrize("projection", [True, False])
    def test_boundary_truncation_mid_run(self, projection):
        # holding Phi = q + log p fixed while q advances drives p towards
        # the chart boundary; the run stops there, not at t_end
        system = diagonal_system(2, [1.0, 0.0])
        phi = algebraic_constraint(
            "q-plus-log-p",
            lambda pt: float(pt.q[0] + np.log(pt.p[0])),
            lambda pt: np.array([1.0, 1.0 / pt.p[0]]),
        )
        traj = integrate(system, ChartPoint([0.0], [0.5]), 60.0, 0.01, constraints=(phi,), projection=projection)
        assert traj.exit_flag == "boundary"
        assert 1 < len(traj) and traj.times[-1] < 60.0
        assert min(trajectory_point(traj, i).margin for i in range(len(traj))) >= BOUNDARY_MARGIN

    def test_singular_truncation(self, spin):
        # the constraint gradient vanishes at (q, p) = (0, 1/2)
        traj = integrate(spin, ChartPoint([0.0], [0.5]), 1.0, 0.01)
        assert traj.exit_flag == "singular"
        assert len(traj) == 1

    @pytest.mark.parametrize("constraints", [None, ()])
    def test_non_finite_field_truncates_boundary(self, constraints):
        # a NaN field makes the next stage point non-finite, which lies in
        # no chart; the run stops there instead of raising
        nan_grad = algebraic_constraint("H", lambda pt: 0.0, lambda pt: np.full(2 * pt.m, np.nan))
        system = replace(diagonal_system(2, [1.0, 0.0]), hamiltonian=nan_grad)
        traj = integrate(system, ChartPoint([0.9], [0.3]), 1.0, 0.01, constraints=constraints)
        assert traj.exit_flag == "boundary"
        assert len(traj) == 1

    def test_non_finite_gram_truncates_singular(self, spin):
        nan_grad = algebraic_constraint("nan-grad", lambda pt: 0.0, lambda pt: np.full(2 * pt.m, np.nan))
        traj = integrate(spin, ChartPoint([0.9], [0.3]), 1.0, 0.01, constraints=(nan_grad,))
        assert traj.exit_flag == "singular"
        assert len(traj) == 1

    def test_batch_start_rejected(self, spin):
        # a batch used to integrate every member and fail only when the
        # trajectory was reshaped
        with pytest.raises(ValueError, match="single start point"):
            integrate(spin, ChartPoint([[0.9], [1.2]], [[0.3], [0.4]]), 1.0, 0.01)

    def test_fixed_point_stays_exactly(self, spin):
        traj = integrate(spin, ChartPoint([np.pi / 2], [0.25]), 1.0, 0.01)
        assert traj.exit_flag == "completed"
        assert np.abs(traj.qs - traj.qs[0]).max() == 0.0
        assert np.abs(traj.ps - traj.ps[0]).max() == 0.0


def assert_matches_reference(system, x0, t_end, dt, projection=True):
    """integrate against closedforms.rk4_reference, sample for sample;
    returns the trajectory."""
    traj = integrate(system, x0, t_end, dt, projection=projection)
    ref = cf.rk4_reference(system, x0, t_end, dt, projection)
    assert traj.exit_flag == ref.exit_flag
    assert len(traj) == len(ref.times)
    pairs = [(traj.times, ref.times), (np.hstack([traj.qs, traj.ps]), ref.states),
             (traj.constraint_values, np.reshape(ref.values, traj.constraint_values.shape)),
             (traj.energies, ref.energies)]
    for got, want in pairs:
        assert np.abs(got - np.asarray(want)).max() <= 1e-15
    return traj


class TestIntegrateAgainstReference:
    """integrate is the plain RK4 and Newton loop over the public
    constrained_field and constraint_frame, to 1e-15 at every sample."""

    @pytest.mark.parametrize("projection", [True, False])
    def test_worked_systems(self, two_qubit, spin, projection):
        assert_matches_reference(two_qubit, product_surface_sample(5), 0.3, 1e-2, projection)
        assert_matches_reference(spin, ChartPoint([0.9], [0.3]), 0.5, 1e-2, projection)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=2),
           st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    def test_random_observable_constraints(self, n, count, seed, projection):
        rng = np.random.default_rng(seed)
        observables = []
        for i in range(count):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            observables.append(observable_constraint(0.5 * (a + a.conj().T), "a%d" % i))
        system = diagonal_system(n, rng.uniform(-2.0, 2.0, size=n), tuple(observables))
        assert_matches_reference(system, sample_interior_point(rng, n - 1), 0.05, 1e-2, projection)

    @pytest.mark.parametrize("projection", [True, False])
    def test_boundary_truncation(self, projection):
        phi = algebraic_constraint(
            "q-plus-log-p",
            lambda pt: float(pt.q[0] + np.log(pt.p[0])),
            lambda pt: np.array([1.0, 1.0 / pt.p[0]]),
        )
        system = diagonal_system(2, [1.0, 0.0], (phi,))
        traj = assert_matches_reference(system, ChartPoint([0.0], [0.5]), 60.0, 0.05, projection)
        assert traj.exit_flag == "boundary" and len(traj) > 1

    def test_singular_truncation(self, spin):
        assert assert_matches_reference(spin, ChartPoint([0.0], [0.5]), 1.0, 0.01).exit_flag == "singular"

    def test_projection_truncation(self, spin, monkeypatch):
        monkeypatch.setattr(dynamics, "NEWTON_MAX", 1)
        traj = assert_matches_reference(spin, ChartPoint([0.9], [0.3]), 3.0, 0.2)
        assert traj.exit_flag == "projection" and len(traj) > 1


class TestUnitaryOracle:
    def test_time_zero_identity(self, rng):
        system = diagonal_system(3, [0.4, -0.3, 1.1])
        x0 = sample_interior_point(rng, 2)
        out = cf.exact_unitary_oracle(system, x0, 0.0)
        assert_allclose(out.q, np.mod(x0.q, 2 * np.pi), atol=1e-14)
        assert_allclose(out.p, x0.p, atol=1e-15)

    def test_two_level_full_turn(self):
        system = diagonal_system(2, [-1.0, 1.0])  # gap -2
        out = cf.exact_unitary_oracle(system, ChartPoint([0.4], [0.3]), np.pi)
        assert wrapped_gap(out.q, np.array([0.4])).max() < 1e-12
        assert_allclose(out.p, [0.3], atol=1e-15)

    def test_four_level_quarter_turn(self):
        system = diagonal_system(4, [1.0, 2.0, 3.0, 0.0])
        x0 = ChartPoint([0.0, 0.0, 0.0], [0.2, 0.3, 0.1])
        out = cf.exact_unitary_oracle(system, x0, np.pi / 2)
        assert wrapped_gap(out.q, np.array([np.pi / 2, np.pi, 3 * np.pi / 2])).max() < 1e-12


def test_spin_closed_form_field_grid(spin):
    from conftest import spin_grid

    for pt in spin_grid(exclusion=1e-3, nq=11, np_=9):
        assert_allclose(
            constrained_field(pt, spin), cf.spin_field(pt.q[0], pt.p[0]), atol=1e-12
        )
