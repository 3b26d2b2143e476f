"""Hand-derived closed forms and independent cross-checks used as test
oracles.

The explicit matrices of the worked systems are assembled entry by entry;
the general-dimension geometry is rebuilt by pulling the Fubini-Study form
back through the embedding with the full chart Jacobian embed_jacobian, a
route the library itself no longer takes.  The helpers that only tests
call live here too: the Fubini-Study distance, the type decomposition,
the single-constraint orthogonality, the two-constraint determinant, the
Lagrange multipliers of a system and the finite-difference gradient, and
a plain RK4 reference of integrate, the Bloch-sphere angles, the
finite-difference Nijenhuis stencil and the dense exact-dJ contraction
that the library's closed-form blocks replaced, and the dense-geometry
equivalence diagnostics that the frame-only ones replaced.  The samplers
and the check report are also rebuilt here the way they were built before
they became array passes: one point at a time through Generator.uniform,
and each check entry as a dict for cli._json_dump, from report_at, the
report of one point of a batch.
"""

import math
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

from projflow import (
    ChartDomainError,
    ChartPoint,
    SingularGramError,
    StateVector,
    algebraic_constraint,
    apply_g_inv,
    chart_from_state,
    constrained_field,
    constraint_frame,
    embed,
    equivalence_report,
    geometry_at,
    schrodinger_field,
)
from projflow import dynamics
from projflow.constraints import GRAM_SINGULAR_FLOOR
from projflow.equivalence import TAU_BLOCK_RTOL
from projflow.systems import angular_coords

FD_STEP = 1e-6
# The condition limit constraint_frame once tested next to its floor; the
# SVD oracle keeps that two-part rule, so agreeing with it shows the floor
# alone makes the same decision.
GRAM_CONDITION_LIMIT = 1e12


class EigenstateDegenerateError(ValueError):
    """A constraint has zero variance at this state (the state is an
    eigenstate of the constrained observable)."""


def finite_difference_gradient(fn, point, step=FD_STEP):
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


def fubini_study_distance(a, b):
    """Geodesic angle theta in [0, pi] between two rays.

    Defined through the transition probability:
        (1 + cos theta) / 2 = |<a|b>|^2 / (<a|a> <b|b>).
    Invariant under independent rescaling of either argument; identical
    rays give 0 and orthogonal rays give pi.
    """
    na = np.vdot(a.amplitudes, a.amplitudes).real
    nb = np.vdot(b.amplitudes, b.amplitudes).real
    fidelity = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2 / (na * nb)
    return float(np.arccos(np.clip(2.0 * fidelity - 1.0, -1.0, 1.0)))


def type_decompose(v, geom):
    """Split a covector into complex positive and negative parts.

    Returns (v_plus, v_minus) with v_plus + v_minus = v,

        v_plus  = (v - i J^T v) / 2,      v_minus = (v + i J^T v) / 2,

    so that the covector action of J scales the parts by +i and -i:
    J^T v_plus = +i v_plus and J^T v_minus = -i v_minus.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (geom.dim,):
        raise ValueError("covector length %d does not match chart dimension %d" % (v.size, geom.dim))
    jv = geom.j.T @ v
    return 0.5 * (v - 1j * jv), 0.5 * (v + 1j * jv)


def single_constraint_orthogonality(point, constraint):
    """|g^{ab} (J^T grad Phi)_a grad_b Phi|, which vanishes identically.

    This orthogonality is what forbids a single constraint from ever
    satisfying the J-invariance condition (away from critical points of
    Phi).
    """
    geom = geometry_at(point)
    grad = constraint.grad(point)
    return float(abs((geom.j.T @ grad) @ geom.g_inv @ grad))


def two_constraint_determinant(m):
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


def multipliers(point, system, constraints=None):
    """Lagrange multipliers lambda_i = M_ij omega^{ab} grad_a Phi^j grad_b H
    of the given constraints, or of the system's own; empty for none."""
    cons = tuple(system.constraints if constraints is None else constraints)
    if not cons:
        return np.zeros(0)
    frame = constraint_frame(cons, point)
    return np.matvec(frame.gram_inv, np.matvec(frame.rows, schrodinger_field(point, system)))


def rk4_reference(system, x0, t_end, dt, projection):
    """A plain RK4 of the public constrained_field from x0, with the
    post-step Newton projection onto the start level set of the system's
    constraints through constraint_frame, built from the public API alone.

    Sample times (k * dt, the last one exactly t_end), step lengths,
    truncation rules and Newton limits are the ones integrate documents,
    with NEWTON_MAX and PROJECTION_TOL read at call time.
    Returns times, states (flat coordinates), constraint values, energies
    and exit_flag, one sample per accepted step.
    """
    cons = tuple(system.constraints)
    ham = system.hamiltonian

    def values(pt):
        return np.array([c.value(pt) for c in cons])

    def newton(x, pt):
        for i in range(dynamics.NEWTON_MAX + 1):
            residual = values(pt) - targets
            if np.abs(residual).max() < dynamics.PROJECTION_TOL:
                return x, pt
            if i == dynamics.NEWTON_MAX:
                return None
            frame = constraint_frame(cons, pt)
            x = x - frame.normals.T @ (frame.gram_inv @ residual)
            pt = ChartPoint.from_coords(x)

    x = x0.coords()
    targets = values(x0)
    out = SimpleNamespace(times=[0.0], states=[x], values=[targets], energies=[ham.value(x0)],
                          exit_flag="completed")
    step, t = 0, 0.0
    t_last = t_end - 1e-12 * max(1.0, t_end)
    while t < t_last:
        step += 1
        if step * dt < t_last:
            h, t_next = dt, step * dt
        else:
            h, t_next = min(dt, t_end - t), t_end
        try:
            k = [constrained_field(ChartPoint.from_coords(x), system)]
            for scale in (0.5 * h, 0.5 * h, h):
                k.append(constrained_field(ChartPoint.from_coords(x + scale * k[-1]), system))
            x_new = x + (h / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])
            pt = ChartPoint.from_coords(x_new)
            if projection and cons:
                corrected = newton(x_new, pt)
                if corrected is None:
                    out.exit_flag = "projection"
                    break
                x_new, pt = corrected
        except SingularGramError:
            out.exit_flag = "singular"
            break
        except ChartDomainError:
            out.exit_flag = "boundary"
            break
        t = t_next
        x = x_new
        out.times.append(t)
        out.states.append(x)
        out.values.append(values(pt))
        out.energies.append(ham.value(pt))
    return out


def trajectory_point(traj, i):
    """The chart point of sample i of a trajectory."""
    return ChartPoint(traj.qs[i], traj.ps[i])


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


def nijenhuis_stencil(point, step=1e-5):
    """Nijenhuis tensor N[..., c, a, b] with dJ from centred differences of
    geometry_at, the oracle for the exact geometry.nijenhuis_tensor.

    Errs by about step^2 / min(p, p_last)^3.  The stencil point +- step
    along every coordinate must stay inside the guarded chart.
    """
    dim = 2 * point.m
    x0 = point.coords()[..., None, :]
    steps = step * np.eye(dim)
    stencil = np.concatenate([x0 + steps, x0 - steps], axis=-2)
    js = geometry_at(ChartPoint.from_coords(stencil.reshape(-1, dim))).j
    js = js.reshape(stencil.shape[:-1] + (dim, dim))
    dj = (js[..., :dim, :, :] - js[..., dim:, :, :]) / (2.0 * step)
    return nijenhuis_contraction(geometry_at(point).j, dj)


def nijenhuis_dense(point):
    """Nijenhuis tensor N[..., c, a, b] from the dense exact dJ, the route
    geometry.nijenhuis_tensor took before its closed-form blocks.

    J = [[0, A], [B, 0]] depends on p only, with A = (P^{-1} + 1 1^T / p_n) / 2
    and B = -2 (P - p p^T), so d_q J = 0 and

        d_{p_k} A = (-e_k e_k^T / p_k^2 + 1 1^T / p_n^2) / 2,
        d_{p_k} B = -2 (e_k e_k^T - e_k p^T - p e_k^T).
    """
    m = point.m
    dim = 2 * m
    p = point.p
    p_last = np.asarray(point.p_last)[..., None, None, None]
    eye = np.eye(m)
    ekk = eye[:, :, None] * eye[:, None, :]  # [k, i, j] = (e_k e_k^T)_ij
    dj = np.zeros(p.shape[:-1] + (dim, dim, dim))  # dj[..., a, c, b] = d_a J^c_b
    dj[..., m:, :m, m:] = 0.5 * (1.0 / p_last ** 2 - ekk / (p ** 2)[..., :, None, None])
    dj[..., m:, m:, :m] = -2.0 * (ekk - eye[:, :, None] * p[..., None, None, :]
                                  - eye[:, None, :] * p[..., None, :, None])
    return nijenhuis_contraction(geometry_at(point).j, dj)


def nijenhuis_contraction(j, dj):
    """N^c_ab = J^c_d d_[a J^d_b] - J^d_[a d_|d| J^c_b] from J and
    dj[..., a, c, b] = d_a J^c_b, as two dense O(dim^4) einsums."""
    t1 = np.einsum("...cd,...adb->...cab", j, dj)
    t2 = np.einsum("...da,...dcb->...cab", j, dj)
    return 0.5 * (t1 - t1.mT) - 0.5 * (t2 - t2.mT)


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
    serves as an independent cross-check of the covector projections used
    in tau_analysis.
    """
    a_pos, a_neg = type_decompose(grad_a, geom)
    b_pos, b_neg = type_decompose(grad_b, geom)
    return {
        "pos_pos": np.outer(a_pos, b_pos) - np.outer(b_pos, a_pos),
        "pos_neg": np.outer(a_pos, b_neg) - np.outer(b_pos, a_neg),
        "neg_pos": np.outer(a_neg, b_pos) - np.outer(b_neg, a_pos),
        "neg_neg": np.outer(a_neg, b_neg) - np.outer(b_neg, a_neg),
    }


def dense_diagnostics(frame, point):
    """The equivalence diagnostics of one point from the dense geometry,
    the oracle of equivalence.py, which reads the constraint frame alone.

    wtilde = omega - g^{-1} mu omega, the J-invariance residual
    max |J^T mu J - mu|, the annihilation residuals max |wtilde^T R^T|
    (right) and max |wtilde R^T| (left), and for two constraints the tau
    block norms from decompose_tau_blocks with their sign, judged as
    tau_analysis judges them.
    """
    geom = geometry_at(point)
    mu, grads = frame.mu, frame.rows.T
    omega = canonical_symplectic(point.m)
    wtilde = omega - geom.g_inv @ mu @ omega
    out = SimpleNamespace(
        wtilde=wtilde,
        j_invariance=np.abs(geom.j.T @ mu @ geom.j - mu).max(),
        right=np.abs(wtilde.T @ grads).max(),
        left=np.abs(wtilde @ grads).max(),
        tau_norms=None,
        tau_sign=None,
    )
    if len(frame.rows) == 2:
        a, b = frame.rows
        blocks = decompose_tau_blocks(a, b, geom)
        out.tau_norms = {key: np.abs(block).max() for key, block in blocks.items()}
        scale = TAU_BLOCK_RTOL * np.abs(np.outer(a, b) - np.outer(b, a)).max()
        if max(out.tau_norms["pos_pos"], out.tau_norms["neg_neg"]) <= scale:
            out.tau_sign = "plus"
        elif max(out.tau_norms["pos_neg"], out.tau_norms["neg_pos"]) <= scale:
            out.tau_sign = "minus"
        else:
            out.tau_sign = "neither"
    return out


def gaps(system):
    """Omega_nu = E_nu - E_n of a system with a diagonal Hamiltonian,
    whose matrix field holds the energies."""
    energies = system.hamiltonian.matrix
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

    with centred finite-difference gradients."""

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

    return tuple(
        algebraic_constraint(name, fn, lambda pt, fn=fn: finite_difference_gradient(fn, pt))
        for name, fn in (("product-cos", cos_part), ("product-sin", sin_part))
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
    evolved = amp * np.exp(-1j * system.hamiltonian.matrix * t)
    return chart_from_state(StateVector(evolved))


@dataclass(frozen=True)
class AngularPoint:
    """Spherical angles on the Bloch sphere; theta in (0, pi) excludes the
    poles, phi is taken modulo 2*pi."""

    theta: float
    phi: float

    def __post_init__(self):
        theta = float(self.theta)
        if not 0.0 < theta < math.pi:
            raise ChartDomainError("polar angle must lie strictly between 0 and pi")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", float(np.mod(self.phi, 2.0 * math.pi)))


def from_angular(angular):
    """Sphere to chart: p = sin^2(theta/2), q = -phi (mod 2*pi)."""
    return ChartPoint.from_coords(angular_coords(angular.theta, angular.phi))


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
    rows = np.array([c.grad(point) for c in constraints], dtype=float)
    normals = apply_g_inv(point, rows)
    gram = rows @ normals.T
    return SimpleNamespace(rows=rows, normals=normals, gram=0.5 * (gram + gram.T))


def svd_gram_rule(gram):
    """The two-part singularity rule, the floor or GRAM_CONDITION_LIMIT,
    evaluated through the SVD of the Gram matrix, for any N: returns
    (condition estimate, singular)."""
    sv = np.linalg.svd(gram, compute_uv=False)
    smax, smin = float(sv[0]), float(sv[-1])
    cond = np.inf if smin == 0.0 else smax / smin
    return cond, smin < GRAM_SINGULAR_FLOOR * max(1.0, smax) or cond > GRAM_CONDITION_LIMIT


def uniform_interior_point(rng, pairs):
    """One interior chart point, drawn through Generator.uniform: weights
    in [0.2, 1], normalised, then phases in [0, 2 pi)."""
    weights = rng.uniform(0.2, 1.0, size=pairs + 1)
    p = weights[:pairs] / weights.sum()
    q = rng.uniform(0.0, 2.0 * np.pi, size=pairs)
    return ChartPoint(q, p)


def uniform_product_surface_point(seed):
    """The product-surface point of a seed, drawn through Generator.uniform:
    p_2, p_3 until the smaller root p_1 and p_4 clear 0.02, then q_2, q_3."""
    rng = np.random.default_rng(seed)
    while True:
        p2, p3 = rng.uniform(0.02, 0.35, size=2)
        rest = 1.0 - p2 - p3
        disc = rest * rest - 4.0 * p2 * p3
        if disc < 1e-2:
            continue
        p1 = 0.5 * (rest - math.sqrt(disc))
        if min(p1, p2, p3, rest - p1) > 0.02:
            break
    q2, q3 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return ChartPoint(np.array([q2 + q3, q2, q3]), np.array([p1, p2, p3]))


def report_at(report, i):
    """Point i of a batch EquivalenceReport as a dict of its fields, entry i
    of each (B,) array as a Python float or str (tau_sign may be None)."""
    return {key: None if value is None else value[i].item() for key, value in asdict(report).items()}


def check_payload(system, seed, points):
    """The check report of points as one dict: an entry per point, q and p
    then the report's fields or "status": "singular", and the aggregate."""
    batch = equivalence_report(ChartPoint.from_coords(np.array([pt.coords() for pt in points])), system)
    reports, verdicts = [], []
    for i, pt in enumerate(points):
        rep = report_at(batch, i)
        entry = {"q": list(pt.q), "p": list(pt.p)}
        if rep["verdict"] == "singular":
            entry["status"] = "singular"
        else:
            entry.update(rep)
            verdicts.append(rep["verdict"])
        reports.append(entry)
    checked = [r for r in reports if "status" not in r]
    aggregate = {
        "verdict": "equivalent" if verdicts and all(v == "equivalent" for v in verdicts) else "not_equivalent",
        "points_checked": len(verdicts),
        "singular_excluded": len(points) - len(verdicts),
        "max_j_invariance_residual": max((r["j_invariance_residual"] for r in checked), default=0.0),
        "max_right_annihilation_residual": max((r["right_annihilation_residual"] for r in checked), default=0.0),
    }
    return {"system": system.name, "seed": seed, "points": reports, "aggregate": aggregate}
