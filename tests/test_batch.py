"""A batch of chart points against the same points one at a time.

Every batched call must give the per-point results, stacked, to 1e-12
relative, and mark exactly the points that the per-point call rejects:
SingularGramError becomes a singular mask and NaN rows, and a point outside
the guarded chart is masked by inside_chart before the batch is built.
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projflow import (
    ChartDomainError,
    ChartPoint,
    DegenerateGeometryError,
    SingularGramError,
    apply_g_inv,
    constrained_field,
    constraint_frame,
    diagonal_system,
    equivalence_report,
    geometry_at,
    nijenhuis_residual,
    observable_constraint,
    sample_interior_point,
    single_spin_conserved_sx,
    two_qubit_product_system,
)
from projflow.geometry import inside_chart

import closedforms as cf

RTOL = 1e-12
examples = settings(derandomize=True, deadline=None, max_examples=40)
pairs = st.integers(min_value=1, max_value=7)
batch_sizes = st.integers(min_value=1, max_value=9)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def draw_batch(rng, m, size):
    """size random interior points with m pairs: the list and the batch."""
    points = [sample_interior_point(rng, m) for _ in range(size)]
    return points, ChartPoint.from_coords(np.array([pt.coords() for pt in points]))


def assert_close(batched, single, scale=0.0):
    """batched within RTOL of single, relative to the larger of the size of
    single and the scale of the inputs it was computed from."""
    single = np.asarray(single, dtype=float)
    scale = max(float(np.abs(single).max(initial=0.0)), scale, np.finfo(float).tiny)
    assert np.abs(np.asarray(batched, dtype=float) - single).max(initial=0.0) <= RTOL * scale


def systems(rng, m):
    """Diagonal systems with two and with three random complex Hermitian
    observables, and the worked system of matching size, if any.  Three
    constraints take the SVD branch of the Gram rule; on two coordinates
    (m = 1) they are always singular."""
    n = m + 1
    pair = (observable_constraint(hermitian(rng, n), "a"), observable_constraint(hermitian(rng, n), "b"))
    found = [diagonal_system(n, rng.uniform(-2.0, 2.0, size=n), pair)]
    found += [s for s in (single_spin_conserved_sx(), two_qubit_product_system()) if s.n == n]
    triple = tuple(observable_constraint(hermitian(rng, n), name) for name in "abc")
    found.append(diagonal_system(n, rng.uniform(-2.0, 2.0, size=n), triple))
    return found


@examples
@given(pairs, batch_sizes, seeds)
def test_geometry_matches_per_point(m, size, seed):
    rng = np.random.default_rng(seed)
    points, batch = draw_batch(rng, m, size)
    geom = geometry_at(batch)
    rows = rng.normal(size=(size, 3, 2 * m))
    covectors = rng.normal(size=(size, 2 * m))
    assert np.array_equal(batch.p_last, [pt.p_last for pt in points])
    for i, pt in enumerate(points):
        single = geometry_at(pt)
        for name in ("g", "g_inv", "j"):
            assert_close(getattr(geom, name)[i], getattr(single, name))
    assert_close(apply_g_inv(batch, rows), [apply_g_inv(pt, r) for pt, r in zip(points, rows)])
    assert_close(apply_g_inv(batch, covectors), [apply_g_inv(pt, v) for pt, v in zip(points, covectors)])
    assert_close(nijenhuis_residual(batch), [nijenhuis_residual(pt) for pt in points])


@examples
@given(pairs, batch_sizes, seeds)
def test_constraint_layers_match_per_point(m, size, seed):
    rng = np.random.default_rng(seed)
    points, batch = draw_batch(rng, m, size)
    for system in systems(rng, m):
        frame = constraint_frame(system.constraints, batch)
        field = constrained_field(batch, system)
        report = equivalence_report(batch, system)
        for i, pt in enumerate(points):
            try:
                single = constraint_frame(system.constraints, pt)
            except SingularGramError:
                assert frame.singular[i] and np.isnan(field[i]).all() and report.verdict[i] == "singular"
                continue
            assert not frame.singular[i]
            for name in ("rows", "normals", "gram", "gram_inv"):
                assert_close(getattr(frame, name)[i], getattr(single, name))
            # the estimate loses precision like eps * cond (math.hypot per
            # point, np.hypot over a batch), so the bound scales with cond^2
            cond = single.condition_number
            assert abs(frame.condition_number[i] - cond) <= RTOL * cond * max(1.0, cond)
            # the projected field can cancel to roundoff; judge it against
            # the free field it is projected from
            free = np.abs(system.hamiltonian.grad(pt)).max()
            assert_close(field[i], constrained_field(pt, system), free)
            expected = asdict(equivalence_report(pt, system))
            got = cf.report_at(report, i)
            assert got["verdict"] == expected["verdict"] and got["tau_sign"] == expected["tau_sign"]
            scale = np.abs(single.mu).max()
            for key in ("j_invariance_residual", "right_annihilation_residual", "left_annihilation_residual"):
                assert abs(got[key] - expected[key]) <= RTOL * max(scale, expected[key])


def test_mixed_batch_flags_exactly_the_bad_points():
    spin = single_spin_conserved_sx()
    # the singular fixed point (0, 1/2), two regular points, and a node below
    # the chart margin
    coords = np.array([[0.0, 0.5], [1.0, 0.3], [2.0, 1e-12], [4.0, 0.7]])
    inside = inside_chart(coords)
    assert inside.tolist() == [True, True, False, True]
    batch = ChartPoint.from_coords(coords[inside])
    field = np.full(coords.shape, np.nan)
    field[inside] = constrained_field(batch, spin)
    flagged = ~np.isfinite(field).all(axis=-1)
    assert flagged.tolist() == [True, False, True, False]
    assert constraint_frame(spin.constraints, batch).singular.tolist() == [True, False, False]
    assert equivalence_report(batch, spin).verdict.tolist() == ["singular", "not_equivalent", "not_equivalent"]
    for i in (1, 3):
        assert np.array_equal(field[i], constrained_field(ChartPoint.from_coords(coords[i]), spin))


def test_batch_guard_reports_the_worst_point():
    """A non-finite point anywhere in a batch raises ChartDomainError;
    otherwise the smallest margin of the batch is reported."""
    good = [0.3, 0.4]
    with pytest.raises(DegenerateGeometryError, match="margin 1.000e-12"):
        ChartPoint.from_coords([good, [0.3, 1e-10], [0.3, 1e-12]])
    for bad in ([[np.nan, 0.4], [0.3, 1e-12]], [[0.3, 1e-12], [np.nan, 0.4]]):
        with pytest.raises(ChartDomainError, match="finite"):
            ChartPoint.from_coords([good] + bad)
