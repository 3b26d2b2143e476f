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

from .constraints import ConstraintFrame, constraint_frame
from .geometry import ChartPoint, PointGeometry, canonical_omega, geometry_at

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


def modified_symplectic(frame: Optional[ConstraintFrame], geom: PointGeometry) -> np.ndarray:
    """wtilde^{ab} = omega^{ab} - g^{ad} omega^{cb} mu_dc.

    Contracting with grad H reproduces the constrained field; with no
    constraints (frame None) this is exactly omega^{ab}.
    """
    canonical = canonical_omega(geom.dim // 2)
    if frame is None:
        return canonical
    return canonical - geom.g_inv @ frame.mu @ canonical


def j_invariance_residual(frame: ConstraintFrame, geom: PointGeometry) -> float:
    """Max-norm of J^c_a J^d_b mu_cd - mu_ab.

    Zero exactly when the metric-projected flow is a Hamiltonian flow for a
    modified symplectic structure with the same Hamiltonian.
    """
    mu = frame.mu
    return float(np.abs(geom.j.T @ mu @ geom.j - mu).max())


def tau_analysis(frame: ConstraintFrame, geom: PointGeometry):
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
    if len(frame.rows) != 2:
        raise ValueError("tau analysis needs exactly two constraints")
    grad_a, grad_b = frame.rows
    tau = np.outer(grad_a, grad_b) - np.outer(grad_b, grad_a)
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


def annihilation_check(frame: Optional[ConstraintFrame], geom: PointGeometry):
    """Residuals of wtilde acting on the constraint normals.

    Returns (right, left): right = max_k |wtilde^{ad} grad_a Phi^k| is an
    algebraic identity and stays at roundoff; left =
    max_k |wtilde^{ad} grad_d Phi^k| vanishes exactly when the
    J-invariance condition holds.  Both are zero for an empty constraint
    set (frame None).
    """
    if frame is None:
        return 0.0, 0.0
    wtilde = modified_symplectic(frame, geom)
    right = float(np.abs(wtilde.T @ frame.rows.T).max())
    left = float(np.abs(wtilde @ frame.rows.T).max())
    return right, left


def equivalence_report(point: ChartPoint, system) -> EquivalenceReport:
    """Evaluate every diagnostic at one point and render the verdict at
    EQUIVALENCE_TOL, from one geometry evaluation and one constraint frame
    of the system's constraints."""
    cons = system.constraints
    geom = geometry_at(point)
    frame = constraint_frame(cons, point) if cons else None
    j_res = j_invariance_residual(frame, geom) if cons else 0.0
    right, left = annihilation_check(frame, geom)
    tau_sign = tau_analysis(frame, geom)[1] if len(cons) == 2 else None
    verdict = "equivalent" if j_res < EQUIVALENCE_TOL else "not_equivalent"
    return EquivalenceReport(
        j_invariance_residual=j_res,
        right_annihilation_residual=right,
        left_annihilation_residual=left,
        tau_sign=tau_sign,
        verdict=verdict,
    )
