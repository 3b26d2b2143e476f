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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constraints import Constraint, ConstraintFrame, constraint_frame, gradient_rows, resolve_constraints
from .geometry import ChartPoint, geometry_at

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
    """

    j_invariance_residual: float
    right_annihilation_residual: float
    left_annihilation_residual: float
    tau_sign: Optional[str]
    verdict: str

    def to_dict(self) -> dict:
        return {
            "j_invariance_residual": self.j_invariance_residual,
            "right_annihilation_residual": self.right_annihilation_residual,
            "left_annihilation_residual": self.left_annihilation_residual,
            "tau_sign": self.tau_sign,
            "verdict": self.verdict,
        }


def _frame(point: ChartPoint, system, constraints, frame) -> Optional[ConstraintFrame]:
    """The given frame, or one built for the resolved constraint set; None
    for an empty set.  Every diagnostic below takes the point's frame and
    geometry when the caller has them, as equivalence_report does; a given
    frame takes the place of the constraints argument."""
    if frame is None:
        cons = resolve_constraints(system, constraints)
        if cons:
            frame = constraint_frame(cons, point)
    return frame


def mu_tensor(point: ChartPoint, system, constraints=None, frame=None) -> np.ndarray:
    """mu_bc = M_ij grad_b Phi^i grad_c Phi^j, exactly symmetrised.

    Invariant under invertible linear recombination of the constraint set
    since M_ij transforms contragrediently.
    """
    frame = _frame(point, system, constraints, frame)
    if frame is None:
        raise ValueError("at least one constraint is required")
    return frame.mu


def modified_symplectic(point: ChartPoint, system, constraints=None, frame=None, geom=None) -> np.ndarray:
    """wtilde^{ab} = omega^{ab} - g^{ad} omega^{cb} mu_dc.

    Contracting with grad H reproduces the constrained field; with no
    constraints this is exactly omega^{ab}.
    """
    if geom is None:
        geom = geometry_at(point)
    frame = _frame(point, system, constraints, frame)
    if frame is None:
        return geom.omega_inv.copy()
    return geom.omega_inv - geom.g_inv @ frame.mu @ geom.omega_inv


def j_invariance_residual(point: ChartPoint, system, constraints=None, frame=None, geom=None) -> float:
    """Max-norm of J^c_a J^d_b mu_cd - mu_ab.

    Zero exactly when the metric-projected flow is a Hamiltonian flow for a
    modified symplectic structure with the same Hamiltonian.
    """
    if geom is None:
        geom = geometry_at(point)
    mu = mu_tensor(point, system, constraints, frame)
    return float(np.abs(geom.j.T @ mu @ geom.j - mu).max())


def single_constraint_orthogonality(point: ChartPoint, system, constraint: Constraint) -> float:
    """|g^{ab} (J^T grad Phi)_a grad_b Phi|, which vanishes identically.

    This orthogonality is what forbids a single constraint from ever
    satisfying the J-invariance condition (away from critical points of
    Phi).
    """
    geom = geometry_at(point)
    grad = constraint.gradient(point)
    return float(abs((geom.j.T @ grad) @ geom.g_inv @ grad))


def tau_analysis(point: ChartPoint, system, constraints=None, frame=None, geom=None):
    """Two-constraint tensor tau_ab = grad_a A grad_b B - grad_a B grad_b A
    decomposed into complex type blocks.

    Projecting each covector index with (1 -+ i J^T)/2 splits tau into
    pure blocks (pos_pos, neg_neg) and mixed blocks (pos_neg, neg_pos).
    The J-invariance condition holds with a plus sign when only the mixed
    blocks survive (the holomorphic-pair structure) and with a minus sign
    when only the pure blocks survive.  Returns (tau, sign, block_norms)
    with sign in {"plus", "minus", "neither"} judged at relative tolerance
    TAU_BLOCK_RTOL.
    """
    if frame is None:
        rows = gradient_rows(resolve_constraints(system, constraints), point)
    else:
        rows = frame.rows
    if len(rows) != 2:
        raise ValueError("tau analysis needs exactly two constraints")
    grad_a, grad_b = rows
    tau = np.outer(grad_a, grad_b) - np.outer(grad_b, grad_a)
    if geom is None:
        geom = geometry_at(point)
    eye = np.eye(geom.dim)
    proj_pos = 0.5 * (eye - 1j * geom.j.T)
    proj_neg = 0.5 * (eye + 1j * geom.j.T)
    blocks = {
        "pos_pos": proj_pos @ tau @ proj_pos.T,
        "pos_neg": proj_pos @ tau @ proj_neg.T,
        "neg_pos": proj_neg @ tau @ proj_pos.T,
        "neg_neg": proj_neg @ tau @ proj_neg.T,
    }
    norms = {key: float(np.abs(block).max()) for key, block in blocks.items()}
    scale = float(np.abs(tau).max())
    pure = max(norms["pos_pos"], norms["neg_neg"])
    mixed = max(norms["pos_neg"], norms["neg_pos"])
    if pure <= TAU_BLOCK_RTOL * scale:
        sign = "plus"
    elif mixed <= TAU_BLOCK_RTOL * scale:
        sign = "minus"
    else:
        sign = "neither"
    return tau, sign, norms


def annihilation_check(point: ChartPoint, system, constraints=None, frame=None, geom=None):
    """Residuals of wtilde acting on the constraint normals.

    Returns (right, left): right = max_k |wtilde^{ad} grad_a Phi^k| is an
    algebraic identity and stays at roundoff; left =
    max_k |wtilde^{ad} grad_d Phi^k| vanishes exactly when the
    J-invariance condition holds.  Both are zero for an empty constraint
    set.
    """
    frame = _frame(point, system, constraints, frame)
    if frame is None:
        return 0.0, 0.0
    wtilde = modified_symplectic(point, system, constraints, frame, geom)
    right = float(np.abs(wtilde.T @ frame.rows.T).max())
    left = float(np.abs(wtilde @ frame.rows.T).max())
    return right, left


def equivalence_report(point: ChartPoint, system, constraints=None) -> EquivalenceReport:
    """Evaluate every diagnostic at one point and render the verdict at
    EQUIVALENCE_TOL, from one constraint frame and one geometry evaluation."""
    geom = geometry_at(point)
    frame = _frame(point, system, constraints, None)
    if frame is None:
        j_res, right, left, tau_sign = 0.0, 0.0, 0.0, None
    else:
        j_res = j_invariance_residual(point, system, constraints, frame, geom)
        right, left = annihilation_check(point, system, constraints, frame, geom)
        tau_sign = tau_analysis(point, system, constraints, frame, geom)[1] if len(frame.names) == 2 else None
    verdict = "equivalent" if j_res < EQUIVALENCE_TOL else "not_equivalent"
    return EquivalenceReport(
        j_invariance_residual=j_res,
        right_annihilation_residual=right,
        left_annihilation_residual=left,
        tau_sign=tau_sign,
        verdict=verdict,
    )
