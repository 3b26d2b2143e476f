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
gradients, in one array core shared by constrained_field and integrate.
Trajectories are produced by a fixed-step classical Runge-Kutta (RK4)
integrator with an optional post-step Newton projection that pulls the
constraint values back to their initial ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .constraints import (Constraint, _invert_gram, _invert_gram_batch, _normals_and_gram, constraint_frame,
                          resolve_constraints)
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
    return _projected(point, resolve_constraints(system, constraints), schrodinger_field(point, system))


def _projected(point: ChartPoint, cons: tuple, free: np.ndarray) -> np.ndarray:
    """free - lambda_i g^{ab} grad_b Phi^i, lambda_i = M_ij grad_a Phi^j free^a,
    from the arrays of a constraint frame without building one.  At a single
    point a singular M or a non-finite lambda raises SingularGramError."""
    if not cons:
        return free
    rows, normals, gram = _normals_and_gram(cons, point)
    single = gram.ndim == 2
    gram_inv, cond = _invert_gram(gram, cons) if single else _invert_gram_batch(gram)[:2]
    lam = np.matvec(gram_inv, np.matvec(rows, free))
    if single and not np.isfinite(lam).all():
        raise SingularGramError([c.name for c in cons], cond)
    return free - np.vecmat(lam, normals)


def integrate(
    system,
    x0: ChartPoint,
    t_end: float,
    dt: float,
    *,
    constraints: Optional[Sequence[Constraint]] = None,
    projection: bool = True,
) -> Trajectory:
    """Fixed-step RK4 integration of the (constrained) flow from one point.

    Samples are recorded at every accepted step (multiples of dt, with a
    final shorter step landing exactly on t_end); each sample carries the
    raw constraint values and the energy.  Constrained runs preserve the
    constraint values of the start point: with projection on (the default;
    it has no effect without constraints) up to NEWTON_MAX Newton
    corrections along the metric normals g^{-1} grad Phi pull the values
    back to the initial ones after every step.

    The stages run on flat arrays through the field core of
    constrained_field; a ConstraintFrame is built only for a Newton
    correction.  Every stage point, step and projected point is guarded as
    a ChartPoint.  If one leaves the guarded chart, or is not finite (a NaN
    or overflowing field), the trajectory is truncated with exit_flag
    "boundary"; a singular constraint Gram matrix en route truncates with
    "singular"; a step whose constraint residual is still at or above
    PROJECTION_TOL after NEWTON_MAX corrections truncates with
    "projection".  Truncation drops the offending step.  A batch x0 raises
    ValueError.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive and finite")
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError("t_end must be nonnegative and finite")
    if x0.q.ndim != 1:
        raise ValueError("integrate takes a single start point, not a batch")
    cons = resolve_constraints(system, constraints)
    ham = system.hamiltonian
    value_fns = [c.fn for c in cons]  # Constraint.value without the method call

    def field(pt: ChartPoint) -> np.ndarray:
        return _projected(pt, cons, schrodinger_field(pt, system))

    def measure(pt: ChartPoint) -> np.ndarray:
        return np.array([float(fn(pt)) for fn in value_fns])

    targets = measure(x0)

    def project(x: np.ndarray, pt: ChartPoint):
        """Newton-correct x (pt) onto the start level set: the corrected x,
        its point and values, or None if NEWTON_MAX corrections leave the
        residual at or above PROJECTION_TOL."""
        for i in range(NEWTON_MAX + 1):
            phi = measure(pt)
            residual = phi - targets
            if np.abs(residual).max() < PROJECTION_TOL:
                return x, pt, phi
            if i == NEWTON_MAX:
                return None
            frame = constraint_frame(cons, pt)
            x = x - frame.normals.T @ (frame.gram_inv @ residual)
            pt = ChartPoint.from_coords(x)

    x, point = x0.coords(), x0  # each step's first stage reuses its point
    times = [0.0]
    states = [x]
    values = [targets]
    energies = [ham.value(x0)]
    flag = "completed"
    t = 0.0
    while t < t_end - 1e-12 * max(1.0, abs(t_end)):
        h = min(dt, t_end - t)
        try:
            k1 = field(point)
            k2 = field(ChartPoint.from_coords(x + 0.5 * h * k1))
            k3 = field(ChartPoint.from_coords(x + 0.5 * h * k2))
            k4 = field(ChartPoint.from_coords(x + h * k3))
            x_next = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            next_point = ChartPoint.from_coords(x_next)
            if projection and cons:
                projected = project(x_next, next_point)
                if projected is None:
                    flag = "projection"
                    break
                x_next, next_point, measured = projected
            else:
                measured = measure(next_point)
        except SingularGramError:
            flag = "singular"
            break
        except ChartDomainError:
            flag = "boundary"
            break
        t += h
        x, point = x_next, next_point
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
