"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import math
import time

import numpy as np

from projflow import (
    ChartPoint,
    annihilation_check,
    constrained_field,
    constraint_frame,
    diagonal_system,
    geometry_at,
    integrate,
    j_invariance_residual,
    modified_symplectic,
    nijenhuis_residual,
    observable_constraint,
    product_surface_sample,
    pushforward_to_angular,
    sample_interior_point,
    single_spin_conserved_sx,
    tau_analysis,
    two_qubit_product_system,
)
from projflow.constraints import gram_covariance_check

import closedforms as cf

SPIN_SINGULAR = ((0.0, 0.5), (math.pi, 0.5), (2 * math.pi, 0.5))


def report(num, ok, description):
    print("\n[criterion %02d] %s  %s" % (num, "PASS" if ok else "FAIL", description))
    assert ok, "criterion %d failed: %s" % (num, description)


def wrapped_gap(a, b):
    return np.abs(np.mod(a - b + np.pi, 2 * np.pi) - np.pi)


def test_criterion_01_unconstrained_flow_oracle():
    system = diagonal_system(4, [1.0, 2.0, 3.0, 0.0])
    x0 = ChartPoint([0.3, 1.1, 2.2], [0.2, 0.3, 0.1])
    start = time.perf_counter()
    traj = integrate(system, x0, 2 * math.pi, 1e-3, constraints=())
    elapsed = time.perf_counter() - start
    worst = 0.0
    for i in range(len(traj)):
        ref = cf.exact_unitary_oracle(system, x0, traj.times[i])
        worst = max(
            worst,
            float(wrapped_gap(traj.qs[i], ref.q).max()),
            float(np.abs(traj.ps[i] - ref.p).max()),
        )
    ok = worst < 1e-8 and elapsed < 5.0
    report(
        1,
        ok,
        "RK4 vs exact unitary oracle: max coordinate error %.3e (tol 1e-8), runtime %.2fs (< 5s)"
        % (worst, elapsed),
    )


def test_criterion_02_two_qubit_equations_of_motion():
    system = two_qubit_product_system()
    worst_field = 0.0
    for seed in range(100):
        pt = product_surface_sample(seed)
        closed_form = cf.two_qubit_surface_field(pt.p, cf.gaps(system))
        gap = np.abs(constrained_field(pt, system) - closed_form).max()
        worst_field = max(worst_field, float(gap))
    x0 = product_surface_sample(11)
    traj = integrate(system, x0, 2 * math.pi, 1e-3)
    p_drift = float(np.abs(traj.ps - traj.ps[0]).max())
    phi_drift = float(np.abs(traj.constraint_values - traj.constraint_values[0]).max())
    ok = worst_field < 1e-10 and p_drift < 1e-10 and phi_drift < 1e-8
    report(
        2,
        ok,
        "field vs closed form %.3e (tol 1e-10) at 100 surface points; "
        "p drift %.3e (tol 1e-10), constraint drift %.3e (tol 1e-8) over [0, 2pi]"
        % (worst_field, p_drift, phi_drift),
    )


def test_criterion_03_two_qubit_explicit_tensors():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        pt = sample_interior_point(rng, 3)
        geom = geometry_at(pt)
        worst = max(
            worst,
            float(np.abs(geom.g - cf.metric_two_qubit(pt.p)).max()),
            float(np.abs(geom.g_inv - cf.metric_inverse_two_qubit(pt.p)).max()),
            float(np.abs(geom.j - cf.complex_structure_two_qubit(pt.p)).max()),
        )
    ok = worst < 1e-10
    report(3, ok, "g, g^-1, J vs explicit matrices: worst entry gap %.3e (tol 1e-10)" % worst)


def test_criterion_04_spin_equations_of_motion():
    system = single_spin_conserved_sx()
    thetas = [math.pi * (j + 1) / 26 for j in range(24)]  # includes pi/2
    phis = [2 * math.pi * k / 24 for k in range(24)]  # includes 0, pi/2, pi, 3pi/2
    worst_chart = worst_angular = worst_fixed = 0.0
    excluded = 0
    for theta in thetas:
        for phi in phis:
            pt = cf.from_angular(cf.AngularPoint(theta, phi))
            q, p = float(pt.q[0]), float(pt.p[0])
            if min(math.hypot(q - sq, p - sp) for sq, sp in SPIN_SINGULAR) < 1e-3:
                excluded += 1
                continue
            field = constrained_field(pt, system)
            worst_chart = max(
                worst_chart, float(np.abs(field - cf.spin_field(q, p)).max())
            )
            pushed = np.array(pushforward_to_angular(pt, field))
            direct = cf.spin_angular_field(theta, phi)
            worst_angular = max(worst_angular, float(np.abs(pushed - direct).max()))
            on_circles = abs(theta - math.pi / 2) < 1e-12 or min(
                abs(phi - math.pi / 2), abs(phi - 3 * math.pi / 2)
            ) < 1e-12
            if on_circles:
                worst_fixed = max(worst_fixed, float(np.hypot(pushed[0], pushed[1])))
    ok = (
        worst_chart < 1e-9
        and worst_angular < 1e-9
        and worst_fixed < 1e-10
        and excluded == 2
    )
    report(
        4,
        ok,
        "24x24 sphere grid: chart field gap %.3e, angular gap %.3e (tol 1e-9); "
        "fixed-point circle norm %.3e (tol 1e-10); %d singular nodes excluded"
        % (worst_chart, worst_angular, worst_fixed, excluded),
    )


def test_criterion_05_equivalence_verdicts():
    two_qubit = two_qubit_product_system()
    spin = single_spin_conserved_sx()
    worst_surface = 0.0
    agree = True
    for seed in range(50):
        pt = product_surface_sample(seed)
        frame = constraint_frame(two_qubit.constraints, pt)
        j_res = j_invariance_residual(frame)
        worst_surface = max(worst_surface, j_res)
        _, left = annihilation_check(frame)
        wt = modified_symplectic(frame)
        antisym = float(np.abs(wt + wt.T).max())
        agree &= len({j_res < 1e-8, left < 1e-8, antisym < 1e-8}) == 1
    rng = np.random.default_rng(5)
    least_generic = math.inf
    count = 0
    while count < 50:
        q = rng.uniform(0.0, 2 * math.pi)
        p = rng.uniform(0.1, 0.9)
        if min(math.hypot(q - sq, p - sp) for sq, sp in SPIN_SINGULAR) < 1e-2:
            continue
        pt = ChartPoint([q], [p])
        frame = constraint_frame(spin.constraints, pt)
        j_res = j_invariance_residual(frame)
        least_generic = min(least_generic, j_res)
        _, left = annihilation_check(frame)
        wt = modified_symplectic(frame)
        antisym = float(np.abs(wt + wt.T).max())
        agree &= len({j_res < 1e-8, left < 1e-8, antisym < 1e-8}) == 1
        count += 1
    ok = worst_surface < 1e-8 and least_generic > 0.01 and agree
    report(
        5,
        ok,
        "J-invariance residual: product system max %.3e (< 1e-8) on-surface, "
        "spin system min %.3e (> 0.01) generic; three criteria agree pointwise: %s"
        % (worst_surface, least_generic, agree),
    )


def test_criterion_06_right_annihilation_identity():
    two_qubit = two_qubit_product_system()
    spin = single_spin_conserved_sx()
    worst = 0.0
    for seed in range(50):
        right, _ = annihilation_check(constraint_frame(two_qubit.constraints, product_surface_sample(seed)))
        worst = max(worst, right)
    rng = np.random.default_rng(6)
    for _ in range(50):
        q = rng.uniform(0.0, 2 * math.pi)
        p = rng.uniform(0.1, 0.9)
        if min(math.hypot(q - sq, p - sp) for sq, sp in SPIN_SINGULAR) < 1e-2:
            continue
        right, _ = annihilation_check(constraint_frame(spin.constraints, ChartPoint([q], [p])))
        worst = max(worst, right)
    ok = worst < 1e-10
    report(6, ok, "right annihilation residual max %.3e (tol 1e-10), both systems" % worst)


def test_criterion_07_gram_covariance_identity():
    rng = np.random.default_rng(7)
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    sigma_z = np.diag([1.0, -1.0])
    pairs2 = (observable_constraint(sigma_x, "sx"), observable_constraint(sigma_z, "sz"))
    diag4 = np.diag([1.0, 2.0, 3.0, 0.0])
    flip4 = np.zeros((4, 4))
    flip4[0, 1] = flip4[1, 0] = 1.0
    pairs4 = (observable_constraint(diag4, "h"), observable_constraint(flip4, "x12"))
    worst = 0.0
    for _ in range(25):
        worst = max(worst, gram_covariance_check(pairs2, sample_interior_point(rng, 1)))
    for _ in range(25):
        worst = max(worst, gram_covariance_check(pairs4, sample_interior_point(rng, 3)))
    ok = worst < 1e-10
    report(7, ok, "metric Gram vs covariance over 50 states (n=2 and n=4): max gap %.3e (tol 1e-10)" % worst)


def test_criterion_08_holomorphic_tau_structure():
    system = two_qubit_product_system()
    worst_rel = 0.0
    for seed in range(50):
        pt = product_surface_sample(seed)
        tau, sign, norms = tau_analysis(constraint_frame(system.constraints, pt))
        scale = float(np.abs(tau).max())
        worst_rel = max(worst_rel, max(norms["pos_pos"], norms["neg_neg"]) / scale)
        assert sign == "plus", "expected plus-type tau on the product surface"
    c = system.constraints[0]
    pt = product_surface_sample(0)
    tau_deg, _, _ = tau_analysis(cf.rows_frame((c, c), pt))
    degenerate_zero = bool(np.array_equal(tau_deg, np.zeros((6, 6))))
    ok = worst_rel < 1e-8 and degenerate_zero
    report(
        8,
        ok,
        "pure-type tau blocks max relative norm %.3e (tol 1e-8); degenerate pair gives tau = 0: %s"
        % (worst_rel, degenerate_zero),
    )


def test_criterion_09_geometry_invariant_suite():
    rng = np.random.default_rng(9)
    start = time.perf_counter()
    worst_alg = 0.0
    worst_nij = 0.0
    for pairs in (1, 2, 3):
        eye = np.eye(2 * pairs)
        canonical = cf.canonical_symplectic(pairs)
        for _ in range(50):
            pt = sample_interior_point(rng, pairs)
            geom = geometry_at(pt)
            big_omega = geom.g @ geom.j
            worst_alg = max(
                worst_alg,
                float(np.abs(geom.j @ geom.j + eye).max()),
                float(np.abs(geom.j.T @ geom.g @ geom.j - geom.g).max()),
                float(np.abs(geom.g_inv @ big_omega @ geom.g_inv @ big_omega.T - eye).max()),
                float(np.abs(0.5 * big_omega - canonical).max()),
            )
            worst_nij = max(worst_nij, nijenhuis_residual(pt))
    elapsed = time.perf_counter() - start
    ok = worst_alg < 1e-10 and worst_nij < 1e-8 and elapsed < 10.0
    report(
        9,
        ok,
        "n in {2,3,4}, 50 points each: algebraic residuals %.3e (tol 1e-10), "
        "Nijenhuis %.3e (tol 1e-8), runtime %.2fs (< 10s)" % (worst_alg, worst_nij, elapsed),
    )


def test_criterion_10_rk4_convergence():
    # The flow of criterion 1 is constant in this chart (qdot = Omega,
    # pdot = 0), so RK4 integrates it exactly at any dt and its endpoint
    # error is pure roundoff; the informational ratio below documents that.
    # The fourth-order property is measured on the one genuinely curved
    # flow in scope, the constrained spin system with projection off.
    system4 = diagonal_system(4, [1.0, 2.0, 3.0, 0.0])
    x0 = ChartPoint([0.3, 1.1, 2.2], [0.2, 0.3, 0.1])

    def endpoint_error(dt):
        traj = integrate(system4, x0, 2 * math.pi, dt, constraints=())
        ref = cf.exact_unitary_oracle(system4, x0, traj.times[-1])
        return max(
            float(wrapped_gap(traj.qs[-1], ref.q).max()),
            float(np.abs(traj.ps[-1] - ref.p).max()),
        )

    literal = endpoint_error(4e-2) / max(endpoint_error(2e-2), np.finfo(float).tiny)
    print(
        "\n[criterion 10 note] constant-flow (criterion 1) endpoint errors are "
        "roundoff; halving-dt ratio there is %.2f and carries no order signal" % literal
    )

    spin = single_spin_conserved_sx()
    start = ChartPoint([0.9], [0.3])

    def spin_endpoint(dt):
        traj = integrate(spin, start, 0.8, dt, projection=False)
        return np.array([traj.qs[-1][0], traj.ps[-1][0]])

    ref = spin_endpoint(0.8 / 4096)
    e1 = float(np.linalg.norm(spin_endpoint(0.02) - ref))
    e2 = float(np.linalg.norm(spin_endpoint(0.01) - ref))
    ratio = e1 / e2
    ok = 12.0 <= ratio <= 20.0
    report(
        10,
        ok,
        "halving dt on the curved constrained flow: error %.3e -> %.3e, ratio %.2f (band [12, 20])"
        % (e1, e2, ratio),
    )
