"""Property tests over random dimensions, observables and interior points.

Each example draws a dimension and a seed.  The seed fixes the random
complex Hermitian observables, energies and interior chart point, so the
examples stay reproducible under derandomize.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from projflow import (
    ChartDomainError,
    ChartPoint,
    DegenerateGeometryError,
    SingularGramError,
    annihilation_check,
    constrained_field,
    constraint_frame,
    diagonal_observable,
    diagonal_system,
    embed,
    equivalence_report,
    geometry_at,
    gram_covariance_check,
    j_invariance_residual,
    modified_symplectic,
    nijenhuis_tensor,
    observable_constraint,
    product_surface_sample,
    sample_interior_point,
    single_spin_conserved_sx,
    tau_analysis,
    two_qubit_product_system,
)
from projflow import cli
from projflow.equivalence import EQUIVALENCE_TOL
from projflow.geometry import BOUNDARY_MARGIN, inside_chart
from projflow.systems import _interior_coords, _product_surface_row

import closedforms as cf

examples = settings(derandomize=True, deadline=None, max_examples=60)
dimensions = st.integers(min_value=2, max_value=8)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def rotation(angle):
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


def draw(n, seed):
    """A diagonal system of dimension n constrained by two random
    observables, and a random interior point of its chart."""
    rng = np.random.default_rng(seed)
    pair = (observable_constraint(hermitian(rng, n), "a"), observable_constraint(hermitian(rng, n), "b"))
    system = diagonal_system(n, rng.uniform(-2.0, 2.0, size=n), pair)
    return system, sample_interior_point(rng, n - 1), rng


@examples
@given(dimensions, seeds)
def test_constrained_field_is_tangent(n, seed):
    system, pt, _ = draw(n, seed)
    frame = constraint_frame(system.constraints, pt)
    field = constrained_field(pt, system)
    scale = np.abs(frame.rows).max() * np.abs(cf.gaps(system)).max()
    assert np.abs(frame.rows @ field).max() <= 1e-9 * scale


@examples
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=3), seeds)
def test_single_point_field_matches_frame_formula(n, size, seed):
    """constrained_field at one point, whose N <= 2 solve runs in Python
    floats, against free - normals^T (gram_inv (rows free)) from the public
    constraint_frame; a singular frame raises the same error in both."""
    rng = np.random.default_rng(seed)
    cons = tuple(observable_constraint(hermitian(rng, n), "o%d" % i) for i in range(size))
    system = diagonal_system(n, rng.uniform(-2.0, 2.0, size=n), cons)
    pt = sample_interior_point(rng, n - 1)
    free = constrained_field(pt, system, ())
    try:
        frame = constraint_frame(cons, pt)
    except SingularGramError as expected:
        with pytest.raises(SingularGramError) as raised:
            constrained_field(pt, system)
        assert raised.value.names == expected.names
        np.testing.assert_equal(raised.value.condition_number, expected.condition_number)
        return
    r = frame.rows @ free
    want = free - frame.normals.T @ (frame.gram_inv @ r)
    # both round the same products, in another order at most: the bound is
    # relative to the terms of free and of normals^T gram_inv r, which
    # cancel when the normals span the chart (n = 2, N = 2)
    terms = np.abs(frame.normals).T @ (np.abs(frame.gram_inv) @ np.abs(r))
    scale = max(np.abs(free).max(), terms.max())
    assert np.abs(constrained_field(pt, system) - want).max() <= 1e-14 * scale


def test_single_point_field_singular_error_matches_frame():
    # the conserved-sigma_x gradient vanishes at (q, p) = (0, 1/2)
    spin = single_spin_conserved_sx()
    pt = ChartPoint([0.0], [0.5])
    with pytest.raises(SingularGramError) as expected:
        constraint_frame(spin.constraints, pt)
    with pytest.raises(SingularGramError) as raised:
        constrained_field(pt, spin)
    assert raised.value.names == expected.value.names == ("sigma-x",)
    np.testing.assert_equal(raised.value.condition_number, expected.value.condition_number)


@examples
@given(dimensions, seeds)
def test_mu_invariant_under_recombination(n, seed):
    system, pt, rng = draw(n, seed)
    # rotation, scaling by factors in [0.3, 3], rotation: invertible and
    # no worse conditioned than 10
    angles = rng.uniform(0.0, 2.0 * np.pi, size=2)
    mix = rotation(angles[0]) @ np.diag(rng.uniform(0.3, 3.0, size=2)) @ rotation(angles[1])
    mats = [c.matrix for c in system.constraints]
    recombined = [
        observable_constraint(row[0] * mats[0] + row[1] * mats[1], "mix%d" % i) for i, row in enumerate(mix)
    ]
    mu = constraint_frame(system.constraints, pt).mu
    mu_mixed = constraint_frame(recombined, pt).mu
    assert np.abs(mu_mixed - mu).max() <= 1e-8 * np.abs(mu).max()


@examples
@given(dimensions, seeds)
def test_single_constraint_never_equivalent(n, seed):
    system, pt, _ = draw(n, seed)
    frame = constraint_frame(system.constraints[:1], pt)
    assert j_invariance_residual(frame) >= 0.25 * np.abs(frame.mu).max()


def transition_pair(rng, n):
    """The real and imaginary parts of a random transition |i><j|."""
    i, j = rng.choice(n, size=2, replace=False)
    t = np.zeros((n, n), dtype=complex)
    t[i, j] = 1.0
    return [t + t.T, -1j * (t - t.T)]


@examples
@given(dimensions, st.integers(min_value=1, max_value=3), seeds,
       st.sampled_from(["hermitian", "transition", "two-qubit"]))
@example(2, 2, 0, "transition")  # equivalent, tau_sign plus
@example(4, 2, 0, "two-qubit")  # equivalent, tau_sign plus
@example(33, 2, 0, "hermitian")
@example(65, 2, 0, "hermitian")
def test_frame_diagnostics_match_dense_oracle(n, size, seed, kind):
    """The diagnostics read from the constraint frame alone against the
    dense-geometry oracle: wtilde, the J-invariance and annihilation
    residuals and the tau block norms agree to roundoff of the terms they
    sum, and the verdict and tau_sign of equivalence_report are the
    oracle's."""
    rng = np.random.default_rng(seed)
    if kind == "two-qubit":
        system, pt = two_qubit_product_system(), product_surface_sample(seed)
    else:
        mats = transition_pair(rng, n) if kind == "transition" else [hermitian(rng, n) for _ in range(size)]
        cons = tuple(observable_constraint(mat, "o%d" % k) for k, mat in enumerate(mats))
        system = diagonal_system(n, rng.uniform(-2.0, 2.0, size=n), cons)
        pt = sample_interior_point(rng, n - 1)
    try:
        frame = constraint_frame(system.constraints, pt)
    except SingularGramError:
        with pytest.raises(SingularGramError):
            equivalence_report(pt, system)
        return
    dense = cf.dense_diagnostics(frame, pt)
    # the size of the terms summed: M^{-1} between rows R and R J = 2
    # normals omega, which grows with the condition of M
    r = max(np.abs(frame.rows).max(), 2.0 * np.abs(frame.normals).max())
    big = 1.0 + np.abs(frame.gram_inv).max() * r * r
    assert np.abs(modified_symplectic(frame) - dense.wtilde).max() <= 1e-12 * big
    assert abs(j_invariance_residual(frame) - dense.j_invariance) <= 1e-12 * big
    right, left = annihilation_check(frame)
    assert abs(right - dense.right) <= 1e-12 * big * r
    assert abs(left - dense.left) <= 1e-12 * big * r
    if dense.tau_norms is not None:
        norms = tau_analysis(frame)[2]
        for key, norm in dense.tau_norms.items():
            assert abs(norms[key] - norm) <= 1e-12 * r * r, key
    report = equivalence_report(pt, system)
    assert report.verdict == ("equivalent" if dense.j_invariance < EQUIVALENCE_TOL else "not_equivalent")
    assert report.tau_sign == dense.tau_sign
    if kind == "two-qubit":
        assert (report.verdict, report.tau_sign) == ("equivalent", "plus")

@examples
@given(dimensions, seeds)
def test_gram_equals_covariance(n, seed):
    system, pt, _ = draw(n, seed)
    scale = np.abs(constraint_frame(system.constraints, pt).gram).max()
    assert gram_covariance_check(system.constraints, pt) <= 1e-10 * scale


@examples
@given(st.integers(min_value=1, max_value=12), seeds,
       st.sampled_from(["interior", "p-at-margin", "p-below-margin", "last-near-margin", "non-finite"]))
@example(1, 0, "p-at-margin")
@example(1, 0, "p-below-margin")
def test_chart_point_guard(pairs, seed, case):
    """Both constructors accept a point exactly when it is finite with
    margin min(p.min(), 1 - sum p) >= BOUNDARY_MARGIN, as inside_chart
    says, agree on p_last, and keep a read-only copy of the coordinates."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(-10.0, 10.0, size=pairs)
    weights = rng.uniform(0.2, 1.0, size=pairs + 1)
    p = weights[:pairs] / weights.sum()
    below = np.nextafter(BOUNDARY_MARGIN, 0.0)
    k = rng.integers(pairs)
    if case == "p-at-margin":
        p[k] = BOUNDARY_MARGIN
    elif case == "p-below-margin":
        p[k] = below
    elif case == "last-near-margin":
        # 1 - sum(p) lands within roundoff of the margin, on either side
        p[k] += 1.0 - p.sum() - rng.choice([BOUNDARY_MARGIN, below])
    x = np.concatenate([q, p])
    if case == "non-finite":
        x[rng.integers(2 * pairs)] = rng.choice([np.nan, np.inf, -np.inf])
        q, p = x[:pairs].copy(), x[pairs:].copy()
    p_last = 1.0 - p.sum()
    inside = bool(np.isfinite(x).all() and min(p.min(), p_last) >= BOUNDARY_MARGIN)
    # the vectorised predicate agrees, on the point alone, in a batch and on
    # a grid whose middle axis has the length 2m of a point
    assert inside_chart(x) == inside
    assert inside_chart(np.stack([x, x])).tolist() == [inside, inside]
    grid = np.tile(x, (3, 2 * pairs, 1))
    assert inside_chart(grid).shape == (3, 2 * pairs)
    assert (inside_chart(grid) == inside).all()
    if not inside:
        error = DegenerateGeometryError if np.isfinite(x).all() else ChartDomainError
        with pytest.raises(error):
            ChartPoint(q, p)
        with pytest.raises(error):
            ChartPoint.from_coords(x)
        with pytest.raises(error):
            ChartPoint.from_coords(np.stack([x, x]))
        return
    kept = x.copy()
    points = (ChartPoint(q, p), ChartPoint.from_coords(x))
    assert points[0].p_last == points[1].p_last == p_last
    assert ChartPoint.from_coords(np.stack([x, x])).p_last.tolist() == [p_last, p_last]
    for source in (q, p, x):
        source[...] = 5.0
    for pt in points:
        assert np.array_equal(pt.coords(), kept)
        with pytest.raises(ValueError):
            pt.p[0] = 0.5
        with pytest.raises(ValueError):
            pt.q[0] = 0.5


@examples
@given(st.integers(min_value=1, max_value=12), seeds)
def test_geometry_matches_pullback(pairs, seed):
    pt = sample_interior_point(np.random.default_rng(seed), pairs)
    g, big_omega = cf.pullback_tensors(embed(pt).amplitudes, cf.embed_jacobian(pt))
    geom = geometry_at(pt)
    for name, value, reference in (("g", geom.g, g), ("big_omega", geom.g @ geom.j, big_omega),
                                   ("j", geom.j, np.linalg.solve(g, big_omega))):
        assert np.abs(value - reference).max() <= 1e-10 * np.abs(reference).max(), name
    assert np.abs(geom.j @ geom.j + np.eye(2 * pairs)).max() <= 1e-10


@examples
@given(dimensions, seeds)
@example(33, 33)
@example(65, 65)
def test_nijenhuis_exact_and_matches_stencil(n, seed):
    """The closed-form tensor vanishes to roundoff and matches the dense
    exact-dJ contraction, and the finite-difference oracle agrees with it
    within its truncation error step^2 / min(p)^3."""
    pt = sample_interior_point(np.random.default_rng(seed), n - 1)
    step = 1e-5
    exact = nijenhuis_tensor(pt)
    assert np.abs(exact).max() <= 1e-12
    assert np.abs(exact - cf.nijenhuis_dense(pt)).max() <= 1e-12
    gap = np.abs(exact - cf.nijenhuis_stencil(pt, step)).max()
    assert gap <= step ** 2 / min(pt.p.min(), pt.p_last) ** 3


@examples
@given(dimensions, seeds)
@example(64, 64)
def test_observable_gradient_matches_jacobian_form(n, seed):
    rng = np.random.default_rng(seed)
    matrix = hermitian(rng, n)
    pt = sample_interior_point(rng, n - 1)
    psi = embed(pt).amplitudes
    phi = np.real(np.vdot(psi, matrix @ psi))
    # 2 Re <d_a psi|(A - Phi) psi> through the full chart Jacobian
    reference = 2.0 * np.real(cf.embed_jacobian(pt).conj() @ (matrix @ psi - phi * psi))
    gradient = observable_constraint(matrix).grad(pt)
    assert np.abs(gradient - reference).max() <= 1e-12 * np.abs(reference).max()



@examples
@given(dimensions, seeds)
@example(64, 64)
def test_diagonal_observable_matches_general(n, seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-2.0, 2.0, size=n)
    pt = sample_interior_point(rng, n - 1)
    closed, general = diagonal_observable(weights), observable_constraint(np.diag(weights))
    scale = np.abs(weights).max()
    assert abs(closed.value(pt) - general.value(pt)) <= 1e-12 * scale
    assert np.abs(closed.grad(pt) - general.grad(pt)).max() <= 1e-12 * scale


def near_parallel(matrices, pt, target):
    """Observables (A, A + eps B) with eps tuned so that the SVD condition
    estimate of their Gram matrix is about target; it grows as 1/eps^2."""
    a, b = matrices

    def pair(eps):
        return (observable_constraint(a, "a"), observable_constraint(a + eps * b, "a+eps*b"))

    eps = 1e-3
    cond, _ = cf.svd_gram_rule(cf.rows_frame(pair(eps), pt).gram)
    eps *= np.sqrt(cond / target)
    cond, _ = cf.svd_gram_rule(cf.rows_frame(pair(eps), pt).gram)
    assert target / 10.0 < cond < 10.0 * target
    return pair(eps)


@examples
@given(dimensions, seeds)
@example(64, 64)
def test_gram_spectrum_matches_svd_rule(n, seed):
    rng = np.random.default_rng(seed)
    matrices = [hermitian(rng, n) for _ in range(3)]
    pt = sample_interior_point(rng, n - 1)
    cons = [observable_constraint(mat, "o%d" % i) for i, mat in enumerate(matrices)]
    # (constraints, expected decision); the random sets may go either way,
    # and for n = 2 three constraints on two coordinates are always singular
    cases = [(cons[:size], None) for size in (1, 2, 3)]
    cases.append(((cons[0], cons[0]), True))
    cases += [(near_parallel(matrices[:2], pt, target), target > 1e12) for target in (1e10, 1e14)]
    for constraints, singular in cases:
        gram = cf.rows_frame(constraints, pt).gram
        cond, oracle_singular = cf.svd_gram_rule(gram)
        assert singular is None or oracle_singular == singular
        if oracle_singular:
            with pytest.raises(SingularGramError):
                constraint_frame(constraints, pt)
            continue
        frame = constraint_frame(constraints, pt)
        if singular is None:
            inverse = np.linalg.inv(gram)
            assert np.abs(frame.gram_inv - inverse).max() <= 1e-12 * np.abs(inverse).max()
            assert abs(frame.condition_number - cond) <= 1e-9 * cond


# The samplers draw as Generator.uniform did one point at a time, bit for
# bit; a numpy release that maps uniform draws differently fails these
# instead of moving the outputs of check and validate.

@examples
@given(st.integers(min_value=1, max_value=63), st.integers(min_value=1, max_value=20), seeds)
@example(63, 20, 0)
def test_block_sampler_draw_order(pairs, count, seed):
    """Row k of a block is the k-th point drawn alone, through
    Generator.uniform and through sample_interior_point."""
    block = _interior_coords(np.random.default_rng(seed), pairs, count)
    rng = np.random.default_rng(seed)
    assert np.array_equal(block, [cf.uniform_interior_point(rng, pairs).coords() for _ in range(count)])
    rng = np.random.default_rng(seed)
    assert np.array_equal(block, [sample_interior_point(rng, pairs).coords() for _ in range(count)])


@examples
@given(seeds)
def test_product_surface_row_draw_order(seed):
    row = _product_surface_row(seed)
    assert np.array_equal(row, cf.uniform_product_surface_point(seed).coords())
    assert np.array_equal(row, product_surface_sample(seed).coords())


@examples
@given(st.integers(min_value=1, max_value=40), seeds)
@example(16, 4)  # the 9th draw is rejected
@example(16, 629)  # the 4th
@example(1, 686)  # the first
def test_spin_check_points_match_rejection_loop(num_points, seed):
    """The spin check points, drawn in blocks, are those of the loop that
    draws and rejects one point at a time."""
    cfg = cli.RunConfig(command="check", system=single_spin_conserved_sx(), num_points=num_points, seed=seed)
    expected = [pt.coords() for pt in cf.spin_check_points(seed, num_points)]
    assert np.array_equal(cli._check_points(cfg), expected)
