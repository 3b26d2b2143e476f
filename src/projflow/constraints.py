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

Every built-in constraint, and the constraint frame, also evaluates a batch
of points (a ChartPoint with a leading axis) in one array pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import SingularGramError
from .geometry import ChartPoint, apply_g_inv, chart_amplitudes

# Gram matrices whose smallest singular value falls below this floor,
# relative to max(1, sigma_max), are treated as singular.  This bounds the
# condition estimate too: sigma_max/sigma_min > 1/floor implies the test.
GRAM_SINGULAR_FLOOR = 1e-12


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

    An observable constraint carries its Hermitian matrix, or the weight
    vector w of a diagonal observable diag(w); an algebraic one has none.
    Every constraint carries its analytic gradient.  Before a constraint is
    used at a batch of points, fn and grad must broadcast over the leading
    axis: a (B,) value and (B, 2m) gradient for q and p of shape (B, m).
    """

    name: str
    fn: Callable[[ChartPoint], float]
    grad: Callable[[ChartPoint], np.ndarray]
    matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        if not callable(self.fn):
            raise TypeError("constraint %r needs a value function" % self.name)
        if not callable(self.grad):
            raise TypeError("constraint %r needs a gradient function" % self.name)

    @property
    def kind(self) -> str:
        """The constraint kind: "observable" exactly when it carries a
        matrix, "algebraic" otherwise."""
        return "algebraic" if self.matrix is None else "observable"

    def value(self, point: ChartPoint):
        """Phi at the point: a float, or a (B,) array at a batch."""
        value = self.fn(point)
        return float(value) if point.q.ndim == 1 else np.asarray(value, dtype=float)


def algebraic_constraint(name, fn, grad) -> Constraint:
    """Wrap an arbitrary real chart function and its gradient as a
    constraint."""
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

    def value(point: ChartPoint):
        amp = chart_amplitudes(point, n)
        return np.vecdot(amp, np.matvec(mat, amp)).real / np.vecdot(amp, amp).real

    def gradient(point: ChartPoint) -> np.ndarray:
        amp = chart_amplitudes(point, n)
        acted = np.matvec(mat, amp)
        residual = acted - np.vecdot(amp, acted, keepdims=True).real * amp
        c = amp[..., :-1].conj() * residual[..., :-1]
        last = residual[..., -1:].real / amp[..., -1:].real
        return np.concatenate([-2.0 * c.imag, c.real / point.p - last], axis=-1)

    return Constraint(name=name, fn=value, grad=gradient, matrix=mat)


def diagonal_observable(weights, name="observable") -> Constraint:
    """The observable diag(w) in closed form.

    In the chart its expectation is Phi = w_n + sum_nu (w_nu - w_n) p_nu, so
    the gradient is constant: zero along the angles, the gaps w_nu - w_n
    along the actions.  Equal to observable_constraint(np.diag(w)) without
    its per-point matvec, and it stores w, not the n x n matrix; a unit
    vector e_k gives the population p_k.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise ValueError("a diagonal observable needs a vector of at least two levels")
    if not np.isfinite(w).all():
        raise ValueError("diagonal observable weights must be finite")
    gaps = w[:-1] - w[-1]

    def value(point: ChartPoint):
        return w[-1] + point.p @ gaps

    def gradient(point: ChartPoint) -> np.ndarray:
        m = point.m
        grad = np.zeros(point.p.shape[:-1] + (2 * m,))
        grad[..., m:] = gaps
        return grad

    return Constraint(name=name, fn=value, grad=gradient, matrix=w)


@dataclass(frozen=True)
class ConstraintFrame:
    """The constraint data of one chart point, built once and shared by the
    Newton projection and the equivalence diagnostics.

    rows:             gradients grad_a Phi^i as rows, shape (N, 2n-2).
    normals:          the metric normals g^{ab} grad_b Phi^i as rows.
    gram / gram_inv:  the Gram matrix M^{ij} of the rows and its inverse
                      M_ij, both exactly symmetric.
    condition_number: the sigma_max/sigma_min estimate of M.
    singular:         False at a single point, whose frame exists only if M
                      is invertible.

    The frame of a batch of B points stacks each field along a leading
    axis, and singular is a (B,) mask of the points whose Gram matrix is
    singular.  Their gram_inv is NaN, so their mu reads NaN; nothing
    raises.
    """

    rows: np.ndarray
    normals: np.ndarray
    gram: np.ndarray
    gram_inv: np.ndarray
    condition_number: float
    singular: np.ndarray = False

    @property
    def mu(self) -> np.ndarray:
        """mu_bc = M_ij grad_b Phi^i grad_c Phi^j, exactly symmetrised.

        Invariant under invertible linear recombination of the constraint
        set since M_ij transforms contragrediently.
        """
        mu = self.rows.mT @ self.gram_inv @ self.rows
        return 0.5 * (mu + mu.mT)


def resolve_constraints(system, constraints) -> tuple:
    """The given constraints, or the system's own when none are given."""
    return tuple(system.constraints if constraints is None else constraints)


def gradient_rows(constraints: Sequence[Constraint], point: ChartPoint) -> np.ndarray:
    """Stack constraint gradients as rows: shape (N, 2n-2), or (B, N, 2n-2)
    at a batch of B points."""
    rows = np.array([c.grad(point) for c in constraints], dtype=float)
    return rows if rows.ndim == 2 else rows.swapaxes(0, 1)


def _small_gram_inverse(entries, constraints) -> Tuple[list, float]:
    """M^{-1} = adj(M)/det(M) as nested lists and the condition estimate of
    the Gram matrix of N <= 2 constraints, given as rows of Python floats and
    read as symmetric, b = 0.5 (m01 + m10).  Its singular values are the
    absolute eigenvalues (a + d)/2 +- hypot((a - d)/2, b) (b = 0 and d = a
    when N = 1); SingularGramError under the floor or if M is not finite."""
    a, d = entries[0][0], entries[-1][-1]
    b = 0.5 * (entries[0][1] + entries[1][0]) if len(entries) == 2 else 0.0
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(d)):
        raise SingularGramError([c.name for c in constraints], math.nan)
    mean, rad = abs(0.5 * (a + d)), math.hypot(0.5 * (a - d), b)
    smax, smin = mean + rad, abs(mean - rad)
    cond = math.inf if smin == 0.0 else smax / smin
    if smin < GRAM_SINGULAR_FLOOR * max(1.0, smax):
        raise SingularGramError([c.name for c in constraints], cond)
    if len(entries) == 1:
        return [[1.0 / a]], cond
    det = a * d - b * b
    return [[d / det, -b / det], [-b / det, a / det]], cond


def _small_gram_solve(gram_inv, r) -> list:
    """lambda_i = M_ij r_j for N <= 2, term by term, so that floats at one
    point and (B,) arrays gram_inv[i][j], r[j] over a batch round alike."""
    return [row[0] * r[0] + row[1] * r[1] if len(r) == 2 else row[0] * r[0] for row in gram_inv]


def _invert_gram(m: np.ndarray):
    """The one array rule: M^{-1} (exactly symmetric), the condition estimate
    and the singular mask of a symmetric Gram matrix M of shape (N, N), or
    a (B, N, N) stack, without raising.  N <= 2 takes the closed forms of
    _small_gram_inverse elementwise, larger N the SVD and LAPACK; where M
    is singular under the floor, or not finite, the mask is True and the
    inverse NaN."""
    n = m.shape[-1]
    finite = np.isfinite(m).all(axis=(-2, -1))
    m = np.where(finite[..., None, None], m, 0.0)
    if n <= 2:
        a, d = m[..., 0, 0], m[..., -1, -1]
        b = m[..., 0, 1] if n == 2 else np.zeros_like(a)
        mean, rad = np.abs(0.5 * (a + d)), np.hypot(0.5 * (a - d), b)
        smax, smin = mean + rad, np.abs(mean - rad)
    else:
        sv = np.linalg.svd(m, compute_uv=False)
        smax, smin = sv[..., 0], sv[..., -1]
    cond = np.divide(smax, smin, out=np.full_like(smax, np.inf), where=smin != 0.0)
    cond[~finite] = np.nan
    singular = ~finite | (smin < GRAM_SINGULAR_FLOOR * np.maximum(1.0, smax))
    m = np.where(singular[..., None, None], np.eye(n), m)
    if n == 1:
        m_inv = 1.0 / m
    elif n == 2:
        a, d, b = m[..., 0, 0], m[..., 1, 1], m[..., 0, 1]
        m_inv = np.stack([d, -b, -b, a], axis=-1).reshape(m.shape) / (a * d - b * b)[..., None, None]
    else:
        m_inv = np.linalg.inv(m)
        m_inv = 0.5 * (m_inv + m_inv.mT)
    m_inv[singular] = np.nan
    return m_inv, cond, singular


def constraint_frame(constraints: Sequence[Constraint], point: ChartPoint) -> ConstraintFrame:
    """Gradients, metric normals and Gram matrix
    M^{ij} = g^{ab} grad_a Phi^i grad_b Phi^j of a constraint set at one
    point, or at each point of a batch, with the inverse of M.

    A Gram matrix that is not finite, or whose smallest singular value
    falls under GRAM_SINGULAR_FLOOR * max(1, sigma_max) (redundant
    constraints, a vanishing gradient), is singular.  At a single point it
    raises SingularGramError naming the constraints; at a batch it is
    marked in the frame's singular mask.
    """
    if len(constraints) == 0:
        raise ValueError("at least one constraint is required")
    rows = gradient_rows(constraints, point)
    normals = apply_g_inv(point, rows)
    m = rows @ normals.mT
    m = 0.5 * (m + m.mT)  # exactly symmetric
    if m.ndim > 2:
        return ConstraintFrame(rows, normals, m, *_invert_gram(m))
    if len(constraints) <= 2:  # the float rule of the single-point field, so both read one estimate
        m_inv, cond = _small_gram_inverse(m.tolist(), constraints)
        return ConstraintFrame(rows, normals, m, np.array(m_inv), cond)
    m_inv, cond, singular = _invert_gram(m)
    if singular:
        raise SingularGramError([c.name for c in constraints], cond)
    return ConstraintFrame(rows, normals, m, m_inv, float(cond))


def gram_matrix(constraints: Sequence[Constraint], point: ChartPoint) -> np.ndarray:
    """The Gram matrix M^{ij} of constraint_frame."""
    return constraint_frame(constraints, point).gram


def _covariance(mats, amp: np.ndarray) -> np.ndarray:
    """Covariance matrix <(A_i A_j + A_j A_i)/2> - <A_i><A_j> of Hermitian
    mats in normalised amplitudes amp, shape (..., n); real for any pair."""
    acted = np.stack([np.matvec(mat, amp) for mat in mats], axis=-2)
    means = np.real(np.matvec(acted, amp.conj()))
    # Re(<A_i psi, A_j psi>) is the symmetrised second moment for Hermitian A.
    second = np.real(acted.conj() @ acted.mT)
    cov = second - means[..., :, None] * means[..., None, :]
    return 0.5 * (cov + cov.mT)


def gram_covariance_check(constraints: Sequence[Constraint], point: ChartPoint) -> float:
    """Max-norm gap between the metric Gram matrix and the Hilbert-space
    covariance matrix of the same observables, per point of a batch;
    analytically zero.

    Only observable-kind constraints qualify; a diagonal observable's
    weights are expanded to diag(w) here.
    """
    for c in constraints:
        if c.kind != "observable":
            raise ValueError("constraint %r is not observable-kind" % c.name)
    rows = gradient_rows(constraints, point)
    metric_side = rows @ apply_g_inv(point, rows).mT
    mats = [np.diag(c.matrix) if c.matrix.ndim == 1 else c.matrix for c in constraints]
    amp = chart_amplitudes(point)
    hilbert_side = _covariance(mats, amp / np.sqrt(np.real(np.vecdot(amp, amp)))[..., None])
    return np.abs(metric_side - hilbert_side).max(axis=(-2, -1))

