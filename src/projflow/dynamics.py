"""Schrödinger flow, metric-projected constrained flow, and integration.

The free flow on the chart is the Hamiltonian vector field

    xdot^a = omega^{ab} grad_b H,

with H(x) the normalised expectation of the Hamiltonian operator, a
Constraint read through its value and gradient like any observable
(constraints.diagonal_observable for the built-in diagonal systems).
Constraints are enforced by removing the metric-normal components of the
field:

    xdot^a = omega^{ab} grad_b H - lambda_i g^{ab} grad_b Phi^i,
    lambda_i = M_ij omega^{ab} grad_a Phi^j grad_b H,

which makes the flow exactly tangent to every constraint level set.
Since omega^{ab} is the constant canonical matrix, the free field is
(grad_p H, -grad_q H), and g^{ab} only ever acts on the constraint
gradients, through one ConstraintFrame per point.
Trajectories are produced by a fixed-step classical Runge-Kutta (RK4)
integrator with an optional post-step Newton projection that pulls the
constraint values back to their initial ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .constraints import Constraint, constraint_frame, resolve_constraints
from .errors import ChartDomainError, SingularGramError
from .geometry import ChartPoint

PROJECTION_TOL = 1e-10
# Newton corrections allowed per step before the run truncates.
NEWTON_MAX = 5


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled flow data.

    qs are stored unwrapped to keep drift monitoring free of 2*pi jumps;
    wrap on output when a principal value is wanted.  exit_flag is
    "completed", or "boundary" / "singular" / "projection" for a truncated
    run.
    """

    times: np.ndarray
    qs: np.ndarray
    ps: np.ndarray
    constraint_values: np.ndarray
    energies: np.ndarray
    exit_flag: str

    def __len__(self) -> int:
        return self.times.size


def schrodinger_field(point: ChartPoint, system) -> np.ndarray:
    """Unconstrained flow omega^{ab} grad_b H = (grad_p H, -grad_q H); in
    these coordinates the conventional Hamilton equations qdot = Omega,
    pdot = 0.  Rows of shape (B, 2m) at a batch of B points."""
    grad = system.hamiltonian.gradient(point)
    return np.concatenate([grad[..., point.m:], -grad[..., :point.m]], axis=-1)


def constrained_field(point: ChartPoint, system, constraints=None) -> np.ndarray:
    """Metric-projected flow: the free field minus its g-normal components
    relative to the constraint surface.

    With no constraints this is exactly the free Schrödinger field.  At a
    single point a singular Gram matrix raises SingularGramError; at a
    batch of B points the field is a (B, 2m) array whose rows at singular
    points are NaN.
    """
    free = schrodinger_field(point, system)
    cons = resolve_constraints(system, constraints)
    if not cons:
        return free
    frame = constraint_frame(cons, point)
    return free - np.vecmat(frame.multipliers(free), frame.normals)


def integrate(
    system,
    x0: ChartPoint,
    t_end: float,
    dt: float,
    *,
    constraints: Optional[Sequence[Constraint]] = None,
    projection: bool = True,
) -> Trajectory:
    """Fixed-step RK4 integration of the (constrained) flow.

    Samples are recorded at every accepted step (multiples of dt, with a
    final shorter step landing exactly on t_end); each sample carries the
    raw constraint values and the energy.  Constrained runs preserve the
    constraint values of the start point: with projection on (the default;
    it has no effect without constraints) up to NEWTON_MAX Newton
    corrections along the metric normals g^{-1} grad Phi pull the values
    back to the initial ones after every step.

    Every stage point, step and projected point is a ChartPoint, so it is
    guarded when it is built.  If one leaves the guarded chart, or is not
    finite (a NaN or overflowing field), the trajectory is truncated with
    exit_flag "boundary"; a singular constraint Gram matrix en route
    truncates with "singular"; a step whose constraint residual is still
    at or above PROJECTION_TOL after NEWTON_MAX corrections truncates with
    "projection".  Truncation drops the offending step.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive and finite")
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError("t_end must be nonnegative and finite")
    cons = resolve_constraints(system, constraints)
    ham = system.hamiltonian

    def field(x: np.ndarray) -> np.ndarray:
        return constrained_field(ChartPoint.from_coords(x), system, cons)

    def measure(pt: ChartPoint) -> np.ndarray:
        return np.array([c.value(pt) for c in cons])

    targets = measure(x0)

    def project(pt: ChartPoint):
        """Newton-correct pt onto the start level set; returns the point
        and its constraint values, or None if NEWTON_MAX corrections leave
        the residual at or above PROJECTION_TOL."""
        for i in range(NEWTON_MAX + 1):
            phi = measure(pt)
            residual = phi - targets
            if np.abs(residual).max() < PROJECTION_TOL:
                return pt, phi
            if i == NEWTON_MAX:
                return None
            frame = constraint_frame(cons, pt)
            pt = ChartPoint.from_coords(pt.coords() - frame.normals.T @ (frame.gram_inv @ residual))

    x = x0.coords()
    times = [0.0]
    states = [x]
    values = [targets]
    energies = [ham.value(x0)]
    flag = "completed"
    t = 0.0
    while t < t_end - 1e-12 * max(1.0, abs(t_end)):
        h = min(dt, t_end - t)
        try:
            k1 = field(x)
            k2 = field(x + 0.5 * h * k1)
            k3 = field(x + 0.5 * h * k2)
            k4 = field(x + h * k3)
            point = ChartPoint.from_coords(x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
            if projection and cons:
                projected = project(point)
                if projected is None:
                    flag = "projection"
                    break
                point, measured = projected
            else:
                measured = measure(point)
        except SingularGramError:
            flag = "singular"
            break
        except ChartDomainError:
            flag = "boundary"
            break
        t += h
        x = point.coords()
        times.append(t)
        states.append(x)
        values.append(measured)
        energies.append(ham.value(point))

    states = np.array(states)
    m = x0.m
    return Trajectory(
        times=np.array(times),
        qs=states[:, :m],
        ps=states[:, m:],
        constraint_values=np.array(values).reshape(len(times), len(cons)),
        energies=np.array(energies),
        exit_flag=flag,
    )
