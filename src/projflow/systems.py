"""Ready-made systems: the two worked examples and a generic builder.

Both examples live in the action-angle chart of a diagonal Hamiltonian.

Two-qubit product system (n = 4): a pair of spin-1/2 particles constrained
to the product submanifold psi^1 psi^4 = psi^2 psi^3, imposed through the
separable pair

    Phi^1 = q_1 - q_2 - q_3,
    Phi^2 = p_1 (1 - p_1 - p_2 - p_3) - p_2 p_3.

On the surface the constrained equations of motion close in the simple form
(with D = Omega_1 - Omega_2 - Omega_3)

    qdot_1 = Omega_1 - (1 - 2 p_1 - p_2 - p_3) D,
    qdot_2 = Omega_2 + (p_1 + p_3) D,
    qdot_3 = Omega_3 + (p_1 + p_2) D,       pdot = 0.

Single spin with conserved sigma_x (n = 2): H(q, p) = 1 - 2p on the Bloch
sphere with the observable constraint Phi = 2 sqrt(p(1-p)) cos q.  Writing
M = (1-2p)^2 cos^2 q + sin^2 q, the constrained motion is

    qdot = -2 (1-2p)^2 cos^2 q / M,
    pdot = 4 (1-2p)(p-1) p sin q cos q / M,

with fixed-point circles at cos q = 0 and p = 1/2 and genuinely singular
points where both M and the constraint gradient vanish, (q, p) = (0, 1/2)
and (pi, 1/2).  In spherical angles (p = sin^2(theta/2), q = -phi) the same
field reads

    thetadot = sin(2 theta) sin(2 phi) / (2 (1 - sin^2 theta cos^2 phi)),
    phidot   = 2 cos^2 theta cos^2 phi / (1 - sin^2 theta cos^2 phi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from .constraints import Constraint, algebraic_constraint, diagonal_observable, observable_constraint
from .errors import ConfigError
from .geometry import ChartPoint


@dataclass(frozen=True)
class SystemDefinition:
    """A chart system: dimension, Hamiltonian and constraints.  The
    Hamiltonian is an observable Constraint, used through its value and
    gradient."""

    name: str
    n: int
    hamiltonian: Constraint
    constraints: Tuple[Constraint, ...]


def diagonal_system(n: int, energies, constraints=()) -> SystemDefinition:
    """Generic action-angle system for a diagonal Hamiltonian,
    H = E_n + sum Omega_nu p_nu."""
    if n < 2:
        raise ValueError("a chart system needs dimension n >= 2")
    energies = np.asarray(energies, dtype=float)
    if energies.size != n:
        raise ValueError("expected %d energies, got %d" % (n, energies.size))
    return SystemDefinition(
        name="diagonal",
        n=n,
        hamiltonian=diagonal_observable(energies, "H"),
        constraints=tuple(constraints),
    )


# ---------------------------------------------------------------------------
# Example: two spin-1/2 particles constrained to product states
# ---------------------------------------------------------------------------

# The pair broadcasts over a batch axis: unpacking point.q.T or point.p.T
# gives the k-th coordinate of every point, point.p[..., k].

def _phase_sum(point: ChartPoint):
    q1, q2, q3 = point.q.T
    return q1 - q2 - q3


_PHASE_SUM_SIGNS = np.array([1.0, -1.0, -1.0])


def _phase_sum_grad(point: ChartPoint) -> np.ndarray:
    grad = np.zeros(point.q.shape[:-1] + (6,))
    grad[..., :3] = _PHASE_SUM_SIGNS
    return grad


def _population_product(point: ChartPoint):
    p1, p2, p3 = point.p.T
    p4 = 1.0 - p1 - p2 - p3
    return p1 * p4 - p2 * p3


def _population_product_grad(point: ChartPoint) -> np.ndarray:
    p1, p2, p3 = point.p.T
    p4 = 1.0 - p1 - p2 - p3
    zero = 0.0 * p1  # p1 > 0 in the chart, so this is +0.0
    return np.array([zero, zero, zero, p4 - p1, -(p1 + p3), -(p1 + p2)]).T


def two_qubit_product_system(energies=(1.0, 2.0, 3.0, 0.0)) -> SystemDefinition:
    """Pair of spins constrained to the product submanifold; the default
    energies give gaps Omega = (1, 2, 3)."""
    hamiltonian = diagonal_observable(energies, "H")
    if hamiltonian.matrix.size != 4:
        raise ValueError("the two-qubit system needs exactly four energies")
    constraints = (
        algebraic_constraint("phase-sum", _phase_sum, _phase_sum_grad),
        algebraic_constraint("population-product", _population_product, _population_product_grad),
    )
    return SystemDefinition(
        name="two-qubit-product",
        n=4,
        hamiltonian=hamiltonian,
        constraints=constraints,
    )


def _product_surface_row(seed: int) -> list:
    """The flat coordinates of product_surface_sample(seed), as a list of
    Python floats.  One generator per seed, so the draws depend on the seed
    alone."""
    rng = np.random.default_rng(seed)
    while True:
        # rng.uniform(0.02, 0.35, size=2), mapped as _interior_coords maps a draw
        u2, u3 = rng.random(2).tolist()
        p2, p3 = 0.02 + (0.35 - 0.02) * u2, 0.02 + (0.35 - 0.02) * u3
        rest = 1.0 - p2 - p3
        disc = rest * rest - 4.0 * p2 * p3
        if disc < 1e-2:
            continue
        p1 = 0.5 * (rest - math.sqrt(disc))
        p4 = rest - p1
        if min(p1, p2, p3, p4) > 0.02:
            break
    u2, u3 = rng.random(2).tolist()
    q2, q3 = 2.0 * math.pi * u2, 2.0 * math.pi * u3
    return [q2 + q3, q2, q3, p1, p2, p3]


def product_surface_sample(seed: int) -> ChartPoint:
    """Reproducible interior point on the product surface.

    Draws p_2, p_3, solves the quadratic p_1 (1 - p_1 - p_2 - p_3) = p_2 p_3
    for the smaller root (the larger is then p_4), and sets q_1 = q_2 + q_3,
    so both constraints vanish to machine precision.
    """
    return ChartPoint.from_coords(_product_surface_row(seed))


# ---------------------------------------------------------------------------
# Example: single spin-1/2 in a z-field with sigma_x conserved
# ---------------------------------------------------------------------------

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def single_spin_conserved_sx() -> SystemDefinition:
    """Bloch-sphere system with H(q, p) = 1 - 2p and conserved sigma_x.

    Energies are (-1, 1) in the chart ordering (the residual amplitude on
    the last level carries energy +1), so the expectation of the
    Hamiltonian is 1 - 2p.
    """
    return SystemDefinition(
        name="spin-half-sx",
        n=2,
        hamiltonian=diagonal_observable([-1.0, 1.0], "H"),
        constraints=(observable_constraint(SIGMA_X, "sigma-x"),),
    )


def angular_coords(theta, phi) -> np.ndarray:
    """Flat chart coordinates (q, p) of spherical angles, p = sin^2(theta/2)
    and q = -phi (mod 2*pi), on a last axis of length 2; elementwise over
    arrays of angles of one shape, and unchecked: inside_chart or a
    ChartPoint built from them is the guard."""
    q = np.mod(-np.mod(phi, 2.0 * math.pi), 2.0 * math.pi)
    return np.stack([q, np.sin(0.5 * theta) ** 2], axis=-1)


def pushforward_to_angular(point: ChartPoint, velocity) -> Tuple[float, float]:
    """Push a chart velocity (qdot, pdot) to (thetadot, phidot):
    thetadot = pdot / sqrt(p (1-p)), phidot = -qdot.  At a batch, velocity
    holds one row per point and each rate is a (B,) array."""
    p = point.p[..., 0]
    qdot, pdot = velocity[..., 0], velocity[..., 1]
    return pdot / np.sqrt(p * (1.0 - p)), -qdot


# ---------------------------------------------------------------------------
# Samplers and registry
# ---------------------------------------------------------------------------

def _interior_coords(rng: np.random.Generator, pairs: int, count: int) -> np.ndarray:
    """count rows of flat chart coordinates, row k the point that the k-th
    sample_interior_point(rng, pairs) call would draw.  A point's
    2 pairs + 1 uniforms are one row of rng.random, mapped as
    Generator.uniform maps them, low + (high - low) u, so the draws agree
    bit for bit."""
    u = rng.random((count, 2 * pairs + 1))
    weights = 0.2 + (1.0 - 0.2) * u[:, :pairs + 1]
    coords = np.empty((count, 2 * pairs))
    coords[:, :pairs] = (2.0 * np.pi) * u[:, pairs + 1:]
    coords[:, pairs:] = weights[:, :pairs] / weights.sum(axis=1, keepdims=True)
    return coords


def sample_interior_point(rng: np.random.Generator, pairs: int) -> ChartPoint:
    """Random chart point bounded away from the boundary: weights drawn in
    [0.2, 1] and normalised keep every p_nu and the residual above
    0.2 / (pairs + 1), then phases drawn in [0, 2 pi)."""
    return ChartPoint.from_coords(_interior_coords(rng, pairs, 1)[0])


def with_constraints(system: SystemDefinition, constraints) -> SystemDefinition:
    """The system with the given constraints.  A worked system comes with
    its own and takes no others: ConfigError, raised before the iterable
    of constraints is read, so a generator that parses them runs only for
    a system that accepts them."""
    if system.constraints:
        raise ConfigError("system %r has fixed constraints; extra constraints are not accepted" % system.name)
    return replace(system, constraints=tuple(constraints))


def system_from_name(name: str, *, energies=None, n=None) -> SystemDefinition:
    """Instantiate a named system: "two-qubit-product", "spin-half-sx" or
    "diagonal" (which needs n and energies).  A worked system has its own n,
    and spin-half-sx its own energies: any other is a ValueError.
    with_constraints adds constraints to a diagonal system."""
    if name == "two-qubit-product":
        system = two_qubit_product_system() if energies is None else two_qubit_product_system(energies)
    elif name == "spin-half-sx":
        if energies is not None:
            raise ValueError("system 'spin-half-sx' has fixed energies; energies are not accepted")
        system = single_spin_conserved_sx()
    elif name == "diagonal":
        if n is None or energies is None:
            raise ValueError("the diagonal system needs both n and energies")
        return diagonal_system(int(n), energies)
    else:
        raise KeyError("unknown system %r" % name)
    if n is not None and n != system.n:
        raise ValueError("system %r has n = %d, got %r" % (name, system.n, n))
    return system
