"""Constraint functions on state space and their Gram matrix.

A constraint is a real function Phi(x) on the chart whose zero (or level)
set defines a hypersurface.  Two kinds are supported: "observable"
constraints, the expectation value of a fixed Hermitian matrix through the
chart embedding, and "algebraic" constraints, arbitrary real functions of
the chart point.  For N constraints the Gram matrix

    M^{ij} = g^{ab} grad_a Phi^i grad_b Phi^j

collects the metric inner products of the gradients; for observable
constraints it coincides with the (symmetrised) covariance matrix of the
observables in the current state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import EigenstateDegenerateError, SingularGramError
from .geometry import ChartPoint, StateVector, apply_g_inv, embed

FD_STEP = 1e-6
# Gram matrices with a worse condition estimate than this, or with a
# smallest singular value below the floor, are treated as singular.
GRAM_CONDITION_LIMIT = 1e12
GRAM_SINGULAR_FLOOR = 1e-12


def finite_difference_gradient(fn, point: ChartPoint, step: float = FD_STEP) -> np.ndarray:
    """Centred-difference gradient of a scalar chart function.

    The step along coordinate a is step * max(1, |x_a|).
    """
    x0 = point.coords()
    grad = np.empty_like(x0)
    for a in range(x0.size):
        h = step * max(1.0, abs(x0[a]))
        xp = x0.copy()
        xm = x0.copy()
        xp[a] += h
        xm[a] -= h
        grad[a] = (fn(ChartPoint.from_coords(xp)) - fn(ChartPoint.from_coords(xm))) / (2.0 * h)
    return grad


def _check_hermitian(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("observable must be a square matrix")
    if not np.isfinite(matrix).all():
        raise ValueError("observable matrix must be finite")
    scale = max(1.0, float(np.abs(matrix).max()))
    if np.abs(matrix - matrix.conj().T).max() > 1e-12 * scale:
        raise ValueError("observable matrix is not Hermitian")
    return matrix


@dataclass(frozen=True)
class Constraint:
    """A single real constraint with its gradient.

    An observable constraint carries its Hermitian matrix; an algebraic one
    has none.  When no analytic gradient is supplied the centred
    finite-difference fallback is used.
    """

    name: str
    fn: Callable[[ChartPoint], float]
    grad: Optional[Callable[[ChartPoint], np.ndarray]] = None
    matrix: Optional[np.ndarray] = None

    @property
    def kind(self) -> str:
        """The constraint kind: "observable" exactly when it carries a
        matrix, "algebraic" otherwise."""
        return "algebraic" if self.matrix is None else "observable"

    def value(self, point: ChartPoint) -> float:
        return float(self.fn(point))

    def gradient(self, point: ChartPoint) -> np.ndarray:
        if self.grad is not None:
            return np.asarray(self.grad(point), dtype=float)
        return finite_difference_gradient(self.fn, point)


def algebraic_constraint(name, fn, grad=None) -> Constraint:
    """Wrap an arbitrary real chart function as a constraint."""
    return Constraint(name=name, fn=fn, grad=grad)


def observable_constraint(matrix, name="observable") -> Constraint:
    """Conservation constraint for a Hermitian observable.

    The value is the normalised expectation <psi|A|psi>/<psi|psi> through
    the chart embedding.  The gradient grad_a Phi = 2 Re <d_a psi|(A - Phi)|psi>
    is taken in closed form: the chart state psi is normalised with a real
    last amplitude psi_n = sqrt(p_n), and d_a psi has one entry besides the
    last, so with r = (A - Phi) psi and c_nu = conj(psi_nu) r_nu,

        d Phi / d q_nu = -2 Im c_nu,
        d Phi / d p_nu = Re c_nu / p_nu - Re r_n / sqrt(p_n).
    """
    mat = _check_hermitian(matrix)
    n = mat.shape[0]

    def value(point: ChartPoint) -> float:
        amp = embed(point, n).amplitudes
        nrm = float(np.real(np.vdot(amp, amp)))
        return float(np.real(np.vdot(amp, mat @ amp))) / nrm

    def gradient(point: ChartPoint) -> np.ndarray:
        amp = embed(point, n).amplitudes
        acted = mat @ amp
        residual = acted - np.real(np.vdot(amp, acted)) * amp
        c = amp[:-1].conj() * residual[:-1]
        return np.concatenate([-2.0 * c.imag, c.real / point.p - residual[-1].real / amp[-1].real])

    return Constraint(name=name, fn=value, grad=gradient, matrix=mat)


def diagonal_observable(weights, name="observable") -> Constraint:
    """The observable diag(w) in closed form.

    In the chart its expectation is Phi = w_n + sum_nu (w_nu - w_n) p_nu, so
    the gradient is constant: zero along the angles, the gaps w_nu - w_n
    along the actions.  Equal to observable_constraint(np.diag(w)) without
    its per-point matvec; a unit vector e_k gives the population p_k.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise ValueError("a diagonal observable needs a vector of at least two levels")
    if not np.isfinite(w).all():
        raise ValueError("diagonal observable weights must be finite")
    gaps = w[:-1] - w[-1]

    def value(point: ChartPoint) -> float:
        return float(w[-1] + gaps @ point.p)

    def gradient(point: ChartPoint) -> np.ndarray:
        grad = np.zeros(2 * point.m)
        grad[point.m:] = gaps
        return grad

    return Constraint(name=name, fn=value, grad=gradient, matrix=np.diag(w))


@dataclass(frozen=True)
class ConstraintFrame:
    """The constraint data of one chart point, built once and shared by the
    constrained field, the multipliers, the Newton projection and the
    equivalence diagnostics.

    rows:             gradients grad_a Phi^i as rows, shape (N, 2n-2).
    normals:          the metric normals g^{ab} grad_b Phi^i as rows.
    gram / gram_inv:  the Gram matrix M^{ij} of the rows and its inverse
                      M_ij, both exactly symmetric.
    condition_number: the sigma_max/sigma_min estimate of M.
    """

    names: Tuple[str, ...]
    rows: np.ndarray
    normals: np.ndarray
    gram: np.ndarray
    gram_inv: np.ndarray
    condition_number: float

    def multipliers(self, v: np.ndarray) -> np.ndarray:
        """lambda_i = M_ij grad_a Phi^j v^a: the components of the vector v
        along the metric normals."""
        lam = self.gram_inv @ (self.rows @ v)
        if not np.isfinite(lam).all():
            raise SingularGramError(self.names, self.condition_number)
        return lam

    @property
    def mu(self) -> np.ndarray:
        """mu_bc = M_ij grad_b Phi^i grad_c Phi^j, exactly symmetrised.

        Invariant under invertible linear recombination of the constraint
        set since M_ij transforms contragrediently.
        """
        mu = self.rows.T @ self.gram_inv @ self.rows
        return 0.5 * (mu + mu.T)


def resolve_constraints(system, constraints) -> tuple:
    """The given constraints, or the system's own when none are given."""
    return tuple(system.constraints if constraints is None else constraints)


def gradient_rows(constraints: Sequence[Constraint], point: ChartPoint) -> np.ndarray:
    """Stack constraint gradients as rows of an (N, 2n-2) array."""
    return np.array([c.gradient(point) for c in constraints], dtype=float)


def constraint_frame(constraints: Sequence[Constraint], point: ChartPoint) -> ConstraintFrame:
    """Gradients, metric normals and Gram matrix
    M^{ij} = g^{ab} grad_a Phi^i grad_b Phi^j of a constraint set at one
    point, with the inverse of M.

    A Gram matrix whose condition estimate exceeds GRAM_CONDITION_LIMIT
    (redundant constraints) or whose smallest singular value falls under
    the floor (a vanishing gradient) is singular and raises
    SingularGramError naming the constraints.
    """
    if len(constraints) == 0:
        raise ValueError("at least one constraint is required")
    names = tuple(c.name for c in constraints)
    rows = gradient_rows(constraints, point)
    normals = apply_g_inv(point, rows.T).T
    m = rows @ normals.T
    m = 0.5 * (m + m.T)
    sv = np.linalg.svd(m, compute_uv=False)
    smax = float(sv[0])
    smin = float(sv[-1])
    cond = np.inf if smin == 0.0 else smax / smin
    if smin < GRAM_SINGULAR_FLOOR * max(1.0, smax) or cond > GRAM_CONDITION_LIMIT:
        raise SingularGramError(names, cond)
    m_inv = np.linalg.inv(m)
    return ConstraintFrame(names, rows, normals, m, 0.5 * (m_inv + m_inv.T), float(cond))


def gram_matrix(constraints: Sequence[Constraint], point: ChartPoint) -> np.ndarray:
    """The Gram matrix M^{ij} of constraint_frame."""
    return constraint_frame(constraints, point).gram


def covariance_matrix(observables: Sequence[np.ndarray], state: StateVector) -> np.ndarray:
    """Symmetrised covariance matrix of Hermitian observables in a state.

    Entry (i, j) is <A_i A_j>_sym - <A_i><A_j> in the normalised state,
    with the symmetrised product (A_i A_j + A_j A_i)/2 keeping the result
    real for non-commuting pairs.  A single observable yields its variance,
    which vanishes exactly at its eigenstates.
    """
    mats = [_check_hermitian(a) for a in observables]
    amp = state.normalized()
    acted = np.array([mat @ amp for mat in mats])
    means = np.real(acted @ amp.conj())
    # Re(<A_i psi, A_j psi>) is the symmetrised second moment for Hermitian A.
    second = np.real(acted.conj() @ acted.T)
    cov = second - np.outer(means, means)
    return 0.5 * (cov + cov.T)


def gram_covariance_check(constraints: Sequence[Constraint], point: ChartPoint) -> float:
    """Max-norm gap between the metric Gram matrix and the Hilbert-space
    covariance matrix of the same observables; analytically zero.

    Only observable-kind constraints qualify.
    """
    for c in constraints:
        if c.kind != "observable":
            raise ValueError("constraint %r is not observable-kind" % c.name)
    rows = gradient_rows(constraints, point)
    metric_side = rows @ apply_g_inv(point, rows.T)
    hilbert_side = covariance_matrix([c.matrix for c in constraints], embed(point))
    return float(np.abs(metric_side - hilbert_side).max())


def two_constraint_determinant(m: np.ndarray):
    """Determinant decomposition det M = (1 - rho^2) var(A) var(B) of a
    2 x 2 Gram matrix.

    Returns (delta, rho) with rho the correlation of the two constrained
    quantities; |rho| = 1 flags a perfectly (anti)correlated, hence
    redundant, pair.  Raises EigenstateDegenerateError when a variance
    vanishes.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError("exactly two constraints are required")
    var_a = float(m[0, 0])
    var_b = float(m[1, 1])
    floor = 1e-14 * max(1.0, float(np.abs(m).max()))
    if var_a <= floor or var_b <= floor:
        raise EigenstateDegenerateError("a constraint has zero variance at this point")
    rho = float(np.clip(m[0, 1] / np.sqrt(var_a * var_b), -1.0, 1.0))
    delta = (1.0 - rho**2) * var_a * var_b
    return delta, rho
