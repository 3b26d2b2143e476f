"""Diagnostics for agreement between the metric and symplectic pictures.

The metric-projected flow can be rewritten as

    xdot^a = (omega^{ab} - g^{ad} omega^{cb} mu_dc) grad_b H
           = wtilde^{ab} grad_b H,
    mu_bc = M_ij grad_b Phi^i grad_c Phi^j,

so the constrained motion is a Hamiltonian flow for a modified symplectic
structure wtilde exactly when wtilde is antisymmetric.  That holds iff mu
is invariant under the complex structure,

    J^c_a J^d_b mu_cd = mu_ab,

and iff wtilde annihilates the constraint normals from the left as well as
from the right (right annihilation, wtilde^{ad} grad_a Phi^k = 0, is an
identity).  For a single constraint the condition always fails because
J^T grad Phi is g-orthogonal to grad Phi; for two constraints it reduces
to a block condition on tau_ab = grad_a A grad_b B - grad_a B grad_b A in
the complex type decomposition, satisfied in particular when A and B are
the real and imaginary parts of one holomorphic constraint.

Every diagnostic reads only the ConstraintFrame of a point or a batch (rows
R, normals g^{-1} R, M^{-1}) and omega: J = 2 g^{-1} omega in this chart, so
R J = 2 normals omega, and no dense g^{-1} or J is built.  At a batch each
residual is a (B,) array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constraints import ConstraintFrame, constraint_frame
from .geometry import ChartPoint, canonical_omega

EQUIVALENCE_TOL = 1e-8
# Block vanishing is judged relative to the overall size of tau so the
# verdict is scale-free.
TAU_BLOCK_RTOL = 1e-8


@dataclass(frozen=True)
class EquivalenceReport:
    """Residuals of the three equivalent criteria plus the verdict.

    tau_sign is "plus", "minus" or "neither" for two-constraint
    configurations and None otherwise.  The verdict is "equivalent" exactly
    when the J-invariance residual is below EQUIVALENCE_TOL.

    The report of a batch of B points holds (B,) arrays, tau_sign
    included when it is not None.  At a point whose Gram matrix is singular
    the verdict is "singular" and the residuals are NaN.
    """

    j_invariance_residual: float
    right_annihilation_residual: float
    left_annihilation_residual: float
    tau_sign: Optional[str]
    verdict: str


def modified_symplectic(frame: ConstraintFrame) -> np.ndarray:
    """wtilde^{ab} = omega^{ab} - g^{ad} omega^{cb} mu_dc
    = omega - normals^T M^{-1} (R omega), from the frame alone.

    Contracting with grad H reproduces the constrained field.
    """
    omega = canonical_omega(frame.rows.shape[-1] // 2)
    return omega - frame.normals.mT @ frame.gram_inv @ (frame.rows @ omega)


def _rows_j(frame: ConstraintFrame) -> np.ndarray:
    """The rows acted on by J = 2 g^{-1} omega: R J = 2 normals omega."""
    return 2.0 * frame.normals @ canonical_omega(frame.rows.shape[-1] // 2)


def _wedge(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_0 v_1^T - u_1 v_0^T of the two rows of u and of v."""
    return u[..., 0, :, None] * v[..., 1, None, :] - u[..., 1, :, None] * v[..., 0, None, :]


def j_invariance_residual(frame: ConstraintFrame) -> float:
    """Max-norm of J^c_a J^d_b mu_cd - mu_ab, from (R J)^T M^{-1} (R J).

    Zero exactly when the metric-projected flow is a Hamiltonian flow for a
    modified symplectic structure with the same Hamiltonian.
    """
    rj = _rows_j(frame)
    jmuj = rj.mT @ frame.gram_inv @ rj
    return np.abs(0.5 * (jmuj + jmuj.mT) - frame.mu).max(axis=(-2, -1))


def tau_analysis(frame: ConstraintFrame):
    """Two-constraint tensor tau_ab = grad_a A grad_b B - grad_a B grad_b A
    decomposed into complex type blocks.

    Projecting each covector with P+- a = (a -+ i a J)/2 splits tau into
    pure blocks (pos_pos, neg_neg) and mixed blocks (pos_neg, neg_pos);
    the (s, t) block is (P_s a)(P_t b)^T - (P_s b)(P_t a)^T.  The
    J-invariance condition holds with a plus sign when only the mixed
    blocks survive (the holomorphic-pair structure) and with a minus sign
    when only the pure blocks survive.  Returns (tau, sign, block_norms)
    with sign in {"plus", "minus", "neither"} judged at relative tolerance
    TAU_BLOCK_RTOL; at a batch, tau is stacked and sign and each block
    norm are (B,) arrays.
    """
    rows = frame.rows
    if rows.shape[-2] != 2:
        raise ValueError("tau analysis needs exactly two constraints")
    tau = _wedge(rows, rows)
    pos = 0.5 * (rows - 1j * _rows_j(frame))
    # real rows make P- the conjugate of P+, so each neg block conjugates a pos one
    pure = np.abs(_wedge(pos, pos)).max(axis=(-2, -1))
    mixed = np.abs(_wedge(pos, pos.conj())).max(axis=(-2, -1))
    norms = {"pos_pos": pure, "pos_neg": mixed, "neg_pos": mixed, "neg_neg": pure}
    scale = TAU_BLOCK_RTOL * np.abs(tau).max(axis=(-2, -1))
    sign = np.where(pure <= scale, "plus", np.where(mixed <= scale, "minus", "neither"))
    return tau, sign if sign.ndim else str(sign), norms


def annihilation_check(frame: ConstraintFrame):
    """Residuals of wtilde acting on the constraint normals.

    Returns (right, left): right = max_k |wtilde^{ad} grad_a Phi^k| is an
    algebraic identity and stays at roundoff; left =
    max_k |wtilde^{ad} grad_d Phi^k| vanishes exactly when the
    J-invariance condition holds.
    """
    wtilde = modified_symplectic(frame)
    grads = frame.rows.mT
    right = np.abs(wtilde.mT @ grads).max(axis=(-2, -1))
    left = np.abs(wtilde @ grads).max(axis=(-2, -1))
    return right, left


def equivalence_report(point: ChartPoint, system) -> EquivalenceReport:
    """Evaluate every diagnostic at one point, or at each point of a batch,
    and render the verdict at EQUIVALENCE_TOL, from one constraint frame of
    the system's constraints; an empty constraint set reads zero residuals.
    A singular Gram matrix raises SingularGramError at a single point and
    reads "singular" at a batch."""
    cons = system.constraints
    if cons:
        frame = constraint_frame(cons, point)
        j_res = j_invariance_residual(frame)
        right, left = annihilation_check(frame)
        singular = frame.singular
    else:
        j_res = right = left = np.zeros(point.q.shape[:-1])
        singular = False
    tau_sign = tau_analysis(frame)[1] if len(cons) == 2 else None
    verdict = np.where(singular, "singular", np.where(j_res < EQUIVALENCE_TOL, "equivalent", "not_equivalent"))
    if verdict.ndim == 0:
        j_res, right, left, verdict = float(j_res), float(right), float(left), str(verdict)
    return EquivalenceReport(
        j_invariance_residual=j_res,
        right_annihilation_residual=right,
        left_annihilation_residual=left,
        tau_sign=tau_sign,
        verdict=verdict,
    )
