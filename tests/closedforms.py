"""Hand-derived closed forms and independent cross-checks used as test
oracles.

The explicit matrices of the worked systems are assembled entry by entry;
the general-dimension geometry is rebuilt by pulling the Fubini-Study form
back through the embedding with the full chart Jacobian embed_jacobian, a
route the library itself no longer takes.
"""

import math
from types import SimpleNamespace

import numpy as np

from projflow import (
    AngularPoint,
    ChartDomainError,
    ChartPoint,
    StateVector,
    algebraic_constraint,
    apply_g_inv,
    chart_from_state,
    embed,
    type_decompose,
)
from projflow.constraints import GRAM_CONDITION_LIMIT, GRAM_SINGULAR_FLOOR


def embed_jacobian(point):
    """Analytic chart derivatives d_a psi.

    Returns a complex array of shape (2(n-1), n); row a holds the
    derivative of psi along coordinate a in (q-block, p-block) order:

        d psi^nu / d q_nu = -i sqrt(p_nu) e^{-i q_nu}
        d psi^nu / d p_nu = e^{-i q_nu} / (2 sqrt(p_nu))
        d psi^n  / d p_nu = -1 / (2 sqrt(1 - sum p))
    """
    m = point.m
    p_last = 1.0 - point.p.sum()
    if np.any(point.p <= 0.0) or p_last <= 0.0:
        raise ChartDomainError("cannot differentiate the embedding outside the chart")
    phase = np.exp(-1j * point.q)
    sqrt_p = np.sqrt(point.p)
    dpsi = np.zeros((2 * m, m + 1), dtype=complex)
    idx = np.arange(m)
    dpsi[idx, idx] = -1j * sqrt_p * phase
    dpsi[m + idx, idx] = 0.5 * phase / sqrt_p
    dpsi[m + idx, m] = -0.5 / np.sqrt(p_last)
    return dpsi


def embed_jacobian_fd(point, step=1e-6):
    """Centred finite-difference cross-check for embed_jacobian.

    Agrees with the analytic derivatives to about the square of the step.
    The stencil must stay inside the open chart.
    """
    x0 = point.coords()
    m = point.m
    dpsi = np.empty((2 * m, m + 1), dtype=complex)
    for a in range(2 * m):
        xp = x0.copy()
        xm = x0.copy()
        xp[a] += step
        xm[a] -= step
        fp = embed(ChartPoint.from_coords(xp)).amplitudes
        fm = embed(ChartPoint.from_coords(xm)).amplitudes
        dpsi[a] = (fp - fm) / (2.0 * step)
    return dpsi


def pullback_tensors(psi, dpsi):
    """Metric and fundamental two-form pulled back through an embedding.

    Works for any local embedding given the vector psi and the row-wise
    derivatives d_a psi.  Returns (g, Omega) with g_ab = Re K_ab and
    Omega_ab = Im K_ab for the Hermitian form

        K_ab = 4 [ <d_a psi|d_b psi> / <psi|psi>
                   - <d_a psi|psi><psi|d_b psi> / <psi|psi>^2 ];

    the outputs are exactly symmetrised / antisymmetrised.
    """
    nrm = float(np.real(np.vdot(psi, psi)))
    dconj = dpsi.conj()
    overlap = dconj @ dpsi.T
    v = dconj @ psi
    k = 4.0 * (overlap / nrm - np.outer(v, v.conj()) / nrm**2)
    g = k.real
    om = k.imag
    return 0.5 * (g + g.T), 0.5 * (om - om.T)


def decompose_tau_blocks(grad_a, grad_b, geom):
    """Brute-force assembly of the tau type blocks from decomposed covectors.

    Splits each gradient with type_decompose and wedges the parts directly;
    serves as an independent cross-check of the projector sandwich used in
    tau_analysis.
    """
    a_pos, a_neg = type_decompose(grad_a, geom)
    b_pos, b_neg = type_decompose(grad_b, geom)
    return {
        "pos_pos": np.outer(a_pos, b_pos) - np.outer(b_pos, a_pos),
        "pos_neg": np.outer(a_pos, b_neg) - np.outer(b_pos, a_neg),
        "neg_pos": np.outer(a_neg, b_pos) - np.outer(b_neg, a_pos),
        "neg_neg": np.outer(a_neg, b_neg) - np.outer(b_neg, a_neg),
    }


def gaps(system):
    """Omega_nu = E_nu - E_n of a system with a diagonal Hamiltonian."""
    energies = np.diag(system.hamiltonian.matrix)
    return energies[:-1] - energies[-1]


def two_qubit_field_presimplified(point, gaps):
    """The two-qubit constrained field before the on-surface simplification.

    Shares denominators that may vanish away from the constraint surface;
    meaningful as a cross-check against the simplified oracle on-surface.
    """
    p1, p2, p3 = point.p
    drive = gaps[0] - gaps[1] - gaps[2]
    denom = (
        p2 * p3 * (1.0 - p2 - p3)
        - p1**2 * (p2 + p3)
        + p1 * (1.0 - p2 - p3) * (p2 + p3)
    )
    qdot = np.array(
        [
            gaps[0] - p2 * p3 * (1.0 - 2.0 * p1 - p2 - p3) * drive / denom,
            gaps[1] + p1 * p3 * (1.0 - p1 - p3) * drive / denom,
            gaps[2] + p1 * p2 * (1.0 - p1 - p2) * drive / denom,
        ]
    )
    return np.concatenate([qdot, np.zeros(3)])


def two_qubit_trig_constraints():
    """The product condition in its trigonometric form,

        sqrt(p1 p4) cos q1 - sqrt(p2 p3) cos(q2 + q3),
        sqrt(p1 p4) sin q1 - sqrt(p2 p3) sin(q2 + q3),

    with gradients left to the finite-difference fallback."""

    def cos_part(point):
        p1, p2, p3 = point.p
        p4 = 1.0 - p1 - p2 - p3
        return float(
            math.sqrt(p1 * p4) * math.cos(point.q[0])
            - math.sqrt(p2 * p3) * math.cos(point.q[1] + point.q[2])
        )

    def sin_part(point):
        p1, p2, p3 = point.p
        p4 = 1.0 - p1 - p2 - p3
        return float(
            math.sqrt(p1 * p4) * math.sin(point.q[0])
            - math.sqrt(p2 * p3) * math.sin(point.q[1] + point.q[2])
        )

    return (
        algebraic_constraint("product-cos", cos_part),
        algebraic_constraint("product-sin", sin_part),
    )


def metric_two_qubit(p):
    """6x6 metric of the n=4 chart: 4 p_nu (delta - p_mu) on the angle
    block, delta/p_nu + 1/p_4 on the action block."""
    p1, p2, p3 = p
    p4 = 1.0 - p1 - p2 - p3
    qq = np.array(
        [
            [4 * (1 - p1) * p1, -4 * p1 * p2, -4 * p1 * p3],
            [-4 * p1 * p2, 4 * (1 - p2) * p2, -4 * p2 * p3],
            [-4 * p1 * p3, -4 * p2 * p3, 4 * (1 - p3) * p3],
        ]
    )
    pp = np.array(
        [
            [(1 - p2 - p3) / (p1 * p4), 1 / p4, 1 / p4],
            [1 / p4, (1 - p1 - p3) / (p2 * p4), 1 / p4],
            [1 / p4, 1 / p4, (1 - p1 - p2) / (p3 * p4)],
        ]
    )
    out = np.zeros((6, 6))
    out[:3, :3] = qq
    out[3:, 3:] = pp
    return out


def metric_inverse_two_qubit(p):
    p1, p2, p3 = p
    p4 = 1.0 - p1 - p2 - p3
    qq = np.array(
        [
            [(1 - p2 - p3) / (4 * p1 * p4), 1 / (4 * p4), 1 / (4 * p4)],
            [1 / (4 * p4), (1 - p1 - p3) / (4 * p2 * p4), 1 / (4 * p4)],
            [1 / (4 * p4), 1 / (4 * p4), (1 - p1 - p2) / (4 * p3 * p4)],
        ]
    )
    pp = np.array(
        [
            [(1 - p1) * p1, -p1 * p2, -p1 * p3],
            [-p1 * p2, (1 - p2) * p2, -p2 * p3],
            [-p1 * p3, -p2 * p3, (1 - p3) * p3],
        ]
    )
    out = np.zeros((6, 6))
    out[:3, :3] = qq
    out[3:, 3:] = pp
    return out


def complex_structure_two_qubit(p):
    p1, p2, p3 = p
    p4 = 1.0 - p1 - p2 - p3
    top_right = np.array(
        [
            [(1 - p2 - p3) / (2 * p1 * p4), 1 / (2 * p4), 1 / (2 * p4)],
            [1 / (2 * p4), (1 - p1 - p3) / (2 * p2 * p4), 1 / (2 * p4)],
            [1 / (2 * p4), 1 / (2 * p4), (1 - p1 - p2) / (2 * p3 * p4)],
        ]
    )
    bottom_left = np.array(
        [
            [2 * (p1 - 1) * p1, 2 * p1 * p2, 2 * p1 * p3],
            [2 * p1 * p2, 2 * (p2 - 1) * p2, 2 * p2 * p3],
            [2 * p1 * p3, 2 * p2 * p3, 2 * (p3 - 1) * p3],
        ]
    )
    out = np.zeros((6, 6))
    out[:3, 3:] = top_right
    out[3:, :3] = bottom_left
    return out


def gram_diag_two_qubit(p):
    """Entries of the (diagonal) Gram matrix of the separable pair."""
    p1, p2, p3 = p
    p4 = 1.0 - p1 - p2 - p3
    m11 = 0.25 * (1 / p1 + 1 / p2 + 1 / p3 + 1 / p4)
    m22 = p1 * p4 * (1 - 4 * p1 * p4 + 4 * p2 * p3) + (p2 + p3 - 4 * p2 * p3) * (
        p2 * p3 - p1 * p4
    )
    return m11, m22


def metric_bloch(p):
    return np.diag([4 * (1 - p) * p, 1 / ((1 - p) * p)])


def complex_structure_bloch(p):
    return np.array([[0.0, 1 / (2 * (1 - p) * p)], [-2 * (1 - p) * p, 0.0]])


def canonical_symplectic(pairs):
    out = np.zeros((2 * pairs, 2 * pairs))
    out[:pairs, pairs:] = np.eye(pairs)
    out[pairs:, :pairs] = -np.eye(pairs)
    return out


def spin_gram(q, p):
    return (1 - 2 * p) ** 2 * np.cos(q) ** 2 + np.sin(q) ** 2


def spin_field(q, p):
    m = spin_gram(q, p)
    qdot = -2 * (1 - 2 * p) ** 2 * np.cos(q) ** 2 / m
    pdot = 4 * (1 - 2 * p) * (p - 1) * p * np.sin(q) * np.cos(q) / m
    return np.array([qdot, pdot])


def spin_angular_field(theta, phi):
    denom = 1 - np.sin(theta) ** 2 * np.cos(phi) ** 2
    thetadot = 0.5 * np.sin(2 * theta) * np.sin(2 * phi) / denom
    phidot = 2 * np.cos(theta) ** 2 * np.cos(phi) ** 2 / denom
    return np.array([thetadot, phidot])


def two_qubit_surface_field(p, gaps):
    """Constrained equations of motion on the product surface."""
    p1, p2, p3 = p
    drive = gaps[0] - gaps[1] - gaps[2]
    return np.array(
        [
            gaps[0] - (1 - 2 * p1 - p2 - p3) * drive,
            gaps[1] + (p1 + p3) * drive,
            gaps[2] + (p1 + p2) * drive,
            0.0,
            0.0,
            0.0,
        ]
    )


def exact_unitary_oracle(system, x0, t):
    """Independent oracle for the free flow of a diagonal Hamiltonian.

    Evolves the amplitudes by the exact phases e^{-i E_alpha t} and
    re-extracts the chart point, so p is invariant and
    q_nu(t) = q_nu(0) + Omega_nu t modulo 2*pi.
    """
    amp = embed(x0, system.n).amplitudes
    evolved = amp * np.exp(-1j * np.diag(system.hamiltonian.matrix) * t)
    return chart_from_state(StateVector(evolved))


def to_angular(point):
    """Chart to sphere, inverse to from_angular: p = sin^2(theta/2), q = -phi."""
    if point.m != 1:
        raise ValueError("angular coordinates exist only for two-level systems")
    p = float(point.p[0])
    if not 0.0 < p < 1.0:
        raise ChartDomainError("action out of range for the sphere interior")
    return AngularPoint(2.0 * math.asin(math.sqrt(p)), -float(point.q[0]))


def rows_frame(constraints, point):
    """Gradient rows, metric normals and symmetrised Gram matrix of a
    constraint set, assembled as constraint_frame does but with no
    singularity check and no inverse.

    Stands in for a frame where a diagnostic reads only these fields and
    the set is degenerate (a duplicated or redundant constraint), so that
    constraint_frame raises SingularGramError.
    """
    rows = np.array([c.gradient(point) for c in constraints], dtype=float)
    normals = apply_g_inv(point, rows.T).T
    gram = rows @ normals.T
    return SimpleNamespace(rows=rows, normals=normals, gram=0.5 * (gram + gram.T))


def svd_gram_rule(gram):
    """The singularity rule of constraint_frame evaluated through the SVD
    of the Gram matrix, for any N: returns (condition estimate, singular)."""
    sv = np.linalg.svd(gram, compute_uv=False)
    smax, smin = float(sv[0]), float(sv[-1])
    cond = np.inf if smin == 0.0 else smax / smin
    return cond, smin < GRAM_SINGULAR_FLOOR * max(1.0, smax) or cond > GRAM_CONDITION_LIMIT
