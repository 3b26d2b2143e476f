"""Property tests over random dimensions, observables and interior points.

Each example draws a dimension and a seed.  The seed fixes the random
complex Hermitian observables, energies and interior chart point, so the
examples stay reproducible under derandomize.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from projflow import (
    SingularGramError,
    constrained_field,
    constraint_frame,
    diagonal_observable,
    diagonal_system,
    embed,
    geometry_at,
    gram_covariance_check,
    j_invariance_residual,
    observable_constraint,
    sample_interior_point,
)

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
    assert j_invariance_residual(frame, geometry_at(pt)) >= 0.25 * np.abs(frame.mu).max()


@examples
@given(dimensions, seeds)
def test_gram_equals_covariance(n, seed):
    system, pt, _ = draw(n, seed)
    scale = np.abs(constraint_frame(system.constraints, pt).gram).max()
    assert gram_covariance_check(system.constraints, pt) <= 1e-10 * scale


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
@example(64, 64)
def test_observable_gradient_matches_jacobian_form(n, seed):
    rng = np.random.default_rng(seed)
    matrix = hermitian(rng, n)
    pt = sample_interior_point(rng, n - 1)
    psi = embed(pt).amplitudes
    phi = np.real(np.vdot(psi, matrix @ psi))
    # 2 Re <d_a psi|(A - Phi) psi> through the full chart Jacobian
    reference = 2.0 * np.real(cf.embed_jacobian(pt).conj() @ (matrix @ psi - phi * psi))
    gradient = observable_constraint(matrix).gradient(pt)
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
    assert np.abs(closed.gradient(pt) - general.gradient(pt)).max() <= 1e-12 * scale


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
