"""Constrained quantum dynamics on the manifold of pure states.

Evaluates the Kähler structures of projective state space in an
action-angle chart, builds the metric-projected constrained flow and its
Lagrange multipliers, integrates trajectories, and runs the diagnostics
that decide whether the projected flow is Hamiltonian for a modified
symplectic structure.
"""

from .constraints import (
    Constraint,
    ConstraintFrame,
    algebraic_constraint,
    constraint_frame,
    diagonal_observable,
    gram_covariance_check,
    gram_matrix,
    observable_constraint,
)
from .dynamics import (
    Trajectory,
    constrained_field,
    integrate,
    schrodinger_field,
)
from .equivalence import (
    EquivalenceReport,
    annihilation_check,
    equivalence_report,
    j_invariance_residual,
    modified_symplectic,
    tau_analysis,
)
from .errors import (
    ChartDomainError,
    ConfigError,
    DegenerateGeometryError,
    SingularGramError,
)
from .geometry import (
    ChartPoint,
    StateVector,
    apply_g_inv,
    canonical_omega,
    chart_from_state,
    embed,
    geometry_at,
    nijenhuis_residual,
    nijenhuis_tensor,
)
from .systems import (
    SystemDefinition,
    diagonal_system,
    product_surface_sample,
    pushforward_to_angular,
    sample_interior_point,
    single_spin_conserved_sx,
    system_from_name,
    two_qubit_product_system,
)

__version__ = "0.1.0"

__all__ = [
    "ChartDomainError",
    "ChartPoint",
    "ConfigError",
    "Constraint",
    "ConstraintFrame",
    "DegenerateGeometryError",
    "EquivalenceReport",
    "SingularGramError",
    "StateVector",
    "SystemDefinition",
    "Trajectory",
    "algebraic_constraint",
    "annihilation_check",
    "apply_g_inv",
    "canonical_omega",
    "chart_from_state",
    "constrained_field",
    "constraint_frame",
    "diagonal_observable",
    "diagonal_system",
    "embed",
    "equivalence_report",
    "geometry_at",
    "gram_covariance_check",
    "gram_matrix",
    "integrate",
    "j_invariance_residual",
    "modified_symplectic",
    "nijenhuis_residual",
    "nijenhuis_tensor",
    "observable_constraint",
    "product_surface_sample",
    "pushforward_to_angular",
    "sample_interior_point",
    "schrodinger_field",
    "single_spin_conserved_sx",
    "system_from_name",
    "tau_analysis",
    "two_qubit_product_system",
]
