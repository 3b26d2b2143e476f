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

from .constraints import (Constraint, _small_gram_inverse, _small_gram_solve, constraint_frame, gradient_rows,
                          resolve_constraints)
from .errors import ChartDomainError, SingularGramError
from .geometry import ChartPoint, apply_g_inv

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
    grad = system.hamiltonian.grad(point)
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
    """free - lambda_i g^{ab} grad_b Phi^i, lambda_i = M_ij grad_a Phi^j free^a.
    At a single point a singular M or a non-finite lambda raises
    SingularGramError; there N <= 2 constraints are solved in Python floats,
    without a Gram array or a ConstraintFrame."""
    if not cons:
        return free
    if point.q.ndim == 1 and len(cons) <= 2:
        rows = gradient_rows(cons, point)
        normals = apply_g_inv(point, rows)
        gram_inv, cond = _small_gram_inverse((rows @ normals.T).tolist(), cons)
        lam = _small_gram_solve(gram_inv, (rows @ free).tolist())
        if not all(map(math.isfinite, lam)):
            raise SingularGramError([c.name for c in cons], cond)
        return free - np.vecmat(lam, normals)
    frame = constraint_frame(cons, point)  # a batch marks singular points NaN, raising nothing
    r = np.matvec(frame.rows, free)
    if len(cons) <= 2:  # a batch, rounding as a single point does
        lam = np.stack(_small_gram_solve(np.moveaxis(frame.gram_inv, 0, -1), r.T), axis=-1)
    else:
        lam = np.matvec(frame.gram_inv, r)
        if r.ndim == 1 and not np.isfinite(lam).all():
            raise SingularGramError([c.name for c in cons], frame.condition_number)
    return free - np.vecmat(lam, frame.normals)


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

    Sample k sits at k * dt, a step of dt after sample k - 1; the step that
    would reach t_end, to within 1e-12 * max(1, t_end), lands exactly on it
    (shorter if t_end is no multiple of dt).  Each sample carries the raw
    constraint values and the energy.  Constrained runs preserve the
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

    def measure(pt: ChartPoint) -> list:
        return [float(fn(pt)) for fn in value_fns]

    targets = measure(x0)

    def project(x: np.ndarray, pt: ChartPoint):
        """Newton-correct x (pt) onto the start level set: the corrected x,
        its point and values, or None if NEWTON_MAX corrections leave the
        residual at or above PROJECTION_TOL."""
        for i in range(NEWTON_MAX + 1):
            phi = measure(pt)
            # a NaN value fails the test, as it fails every comparison
            if all(abs(v - v0) < PROJECTION_TOL for v, v0 in zip(phi, targets)):
                return x, pt, phi
            if i == NEWTON_MAX:
                return None
            frame = constraint_frame(cons, pt)
            x = x - frame.normals.T @ (frame.gram_inv @ np.subtract(phi, targets))
            pt = ChartPoint.from_coords(x)

    x, point = x0.coords(), x0  # each step's first stage reuses its point
    times = [0.0]
    states = [x]
    values = [targets]
    energies = [ham.value(x0)]
    flag = "completed"
    t, k = 0.0, 0
    t_last = t_end - 1e-12 * max(1.0, t_end)  # a step ending at or past this ends the run on t_end
    while t < t_last:
        k += 1
        h, t_next = (dt, k * dt) if k * dt < t_last else (min(dt, t_end - t), t_end)
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
        t = t_next
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
