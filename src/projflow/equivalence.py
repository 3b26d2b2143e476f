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

Every diagnostic takes the frame and geometry of one point or of a batch;
at a batch each residual is a (B,) array.
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

    The report of a batch of B points holds (B,) arrays, tau_sign
    included when it is not None; report[i] is the report of point i.  At
    a point whose Gram matrix is singular the verdict is "singular" and the
    residuals are NaN.
    """

    j_invariance_residual: float
    right_annihilation_residual: float
    left_annihilation_residual: float
    tau_sign: Optional[str]
    verdict: str

    def __getitem__(self, i: int) -> "EquivalenceReport":
        return EquivalenceReport(
            j_invariance_residual=float(self.j_invariance_residual[i]),
            right_annihilation_residual=float(self.right_annihilation_residual[i]),
            left_annihilation_residual=float(self.left_annihilation_residual[i]),
            tau_sign=None if self.tau_sign is None else str(self.tau_sign[i]),
            verdict=str(self.verdict[i]),
        )

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
    return np.abs(geom.j.mT @ mu @ geom.j - mu).max(axis=(-2, -1))


def tau_analysis(frame: ConstraintFrame, geom: PointGeometry):
    """Two-constraint tensor tau_ab = grad_a A grad_b B - grad_a B grad_b A
    decomposed into complex type blocks.

    Projecting each covector index with (1 -+ i J^T)/2 splits tau into
    pure blocks (pos_pos, neg_neg) and mixed blocks (pos_neg, neg_pos).
    The J-invariance condition holds with a plus sign when only the mixed
    blocks survive (the holomorphic-pair structure) and with a minus sign
    when only the pure blocks survive.  Returns (tau, sign, block_norms)
    with sign in {"plus", "minus", "neither"} judged at relative tolerance
    TAU_BLOCK_RTOL; at a batch, tau is stacked and sign and each block
    norm are (B,) arrays.
    """
    if frame.rows.shape[-2] != 2:
        raise ValueError("tau analysis needs exactly two constraints")
    outer = frame.rows[..., 0, :, None] * frame.rows[..., 1, None, :]
    tau = outer - outer.mT
    eye = np.eye(geom.dim)
    j_t = geom.j.mT
    proj_pos = 0.5 * (eye - 1j * j_t)
    proj_neg = 0.5 * (eye + 1j * j_t)
    pos_t, neg_t = proj_pos.mT, proj_neg.mT
    blocks = {
        "pos_pos": proj_pos @ tau @ pos_t,
        "pos_neg": proj_pos @ tau @ neg_t,
        "neg_pos": proj_neg @ tau @ pos_t,
        "neg_neg": proj_neg @ tau @ neg_t,
    }
    norms = {key: np.abs(block).max(axis=(-2, -1)) for key, block in blocks.items()}
    scale = TAU_BLOCK_RTOL * np.abs(tau).max(axis=(-2, -1))
    pure = np.maximum(norms["pos_pos"], norms["neg_neg"])
    mixed = np.maximum(norms["pos_neg"], norms["neg_pos"])
    sign = np.where(pure <= scale, "plus", np.where(mixed <= scale, "minus", "neither"))
    return tau, sign if sign.ndim else str(sign), norms


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
    grads = frame.rows.mT
    right = np.abs(wtilde.mT @ grads).max(axis=(-2, -1))
    left = np.abs(wtilde @ grads).max(axis=(-2, -1))
    return right, left


def equivalence_report(point: ChartPoint, system) -> EquivalenceReport:
    """Evaluate every diagnostic at one point, or at each point of a batch,
    and render the verdict at EQUIVALENCE_TOL, from one geometry evaluation
    and one constraint frame of the system's constraints.  A singular Gram
    matrix raises SingularGramError at a single point and reads "singular"
    at a batch."""
    cons = system.constraints
    geom = geometry_at(point)
    if cons:
        frame = constraint_frame(cons, point)
        j_res = j_invariance_residual(frame, geom)
        right, left = annihilation_check(frame, geom)
        singular = frame.singular
    else:
        j_res = right = left = np.zeros(point.q.shape[:-1])
        singular = False
    tau_sign = tau_analysis(frame, geom)[1] if len(cons) == 2 else None
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
