"""Workload inputs for the projflow benchmark.

A workload is a fixed round of CLI operations.  build_round writes one JSON
config per operation and pairs it with the checker for its output.  Input i
of command kind k draws from np.random.default_rng([seed, k, i]), so the
same workload seed always gives the same configs; the amount of work in a
round does not depend on the seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from . import references as ref

# Every workload has 100 distinct inputs in its round, so that run.py can
# time the fastest execution of each input and still have 100 op times.  The
# sizes keep single ops between 6 and 15 ms on a 2-core x86 box, so that a
# 30 s run executes every input 15 to 40 times.

# constrained-trajectories: RK4 with Newton projection on both worked systems.
# A spin step costs about 1.5 two-qubit steps, so the two run lengths give
# ops of about equal cost, and op_ms_p50 falls inside one cluster of times.
TRAJ_DT = 1e-3
TWO_QUBIT_T_END = 0.010
SPIN_T_END = 0.007
TRAJ_STARTS = 50
SPIN_SINGULAR = ((0.0, 0.5), (math.pi, 0.5), (2.0 * math.pi, 0.5))
SPIN_CLEARANCE = 0.3
TWO_QUBIT_ENERGIES = (1.0, 2.0, 3.0, 0.0)

# free-flow-highdim: unconstrained flow at chart dimension 2 (n - 1) = 126.
FREE_N = 64
FREE_DT = 1e-3
FREE_T_END = 0.002
FREE_STARTS = 100

# pointwise-diagnostics: check / check / validate / field, rotating; the sizes
# give the four commands about equal cost.
CHECK_POINTS = 16
VALIDATE_N = 4
VALIDATE_POINTS = 5
FIELD_THETA_COUNT = 9  # odd: the middle node sits on theta = pi/2
FIELD_PHI_COUNT = 4  # even: the nodes 2 pi j / count include 0 and pi
DIAG_INPUTS = 25


@dataclass
class Op:
    """One CLI invocation and the checker for the file it writes."""

    kind: str
    argv: List[str]
    output: str
    check: Callable[[str], None]


def _write_config(workdir: str, name: str, config: dict) -> str:
    path = os.path.join(workdir, name + ".in.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return path


def _op(workdir: str, name: str, command: str, config: dict, check) -> Op:
    output = os.path.join(workdir, name + (".out.csv" if command in ("simulate", "field") else ".out.json"))
    config = dict(config, command=command, output_path=output)
    return Op(name.rsplit("-", 1)[0], [command, _write_config(workdir, name, config)], output, check)


def _surface_point(rng):
    """Point on the product surface p1 p4 = p2 p3 with q1 = q2 + q3."""
    while True:
        p2, p3 = rng.uniform(0.05, 0.25, size=2)
        rest = 1.0 - p2 - p3
        disc = rest * rest - 4.0 * p2 * p3
        if disc < 1e-2:
            continue
        p1 = 0.5 * (rest - math.sqrt(disc))
        if min(p1, rest - p1, p2, p3) > 0.02:
            break
    q2, q3 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    return [q2 + q3, q2, q3], [p1, p2, p3]


def _spin_point(rng):
    """Bloch-chart point at least SPIN_CLEARANCE from the singular points."""
    while True:
        q = rng.uniform(0.0, 2.0 * math.pi)
        p = rng.uniform(0.1, 0.9)
        if min(math.hypot(q - sq, p - sp) for sq, sp in SPIN_SINGULAR) >= SPIN_CLEARANCE:
            return q, p


def _constrained_trajectories(seed: int, workdir: str) -> List[Op]:
    gaps = np.asarray(TWO_QUBIT_ENERGIES[:-1]) - TWO_QUBIT_ENERGIES[-1]
    ops = []
    for i in range(TRAJ_STARTS):
        q, p = _surface_point(np.random.default_rng([seed, 0, i]))
        config = {
            "system": {"name": "two-qubit-product", "energies": list(TWO_QUBIT_ENERGIES)},
            "initial_point": {"q": q, "p": p},
            "t_end": TWO_QUBIT_T_END,
            "dt": TRAJ_DT,
            "projection": True,
        }
        ops.append(_op(workdir, "simulate-two-qubit-%d" % i, "simulate", config,
                       lambda text, q=q, p=p: ref.check_two_qubit_trajectory(text, q, p, gaps, TRAJ_DT,
                                                                             TWO_QUBIT_T_END)))
        sq, sp = _spin_point(np.random.default_rng([seed, 1, i]))
        config = {
            "system": {"name": "spin-half-sx"},
            "initial_point": {"q": [sq], "p": [sp]},
            "t_end": SPIN_T_END,
            "dt": TRAJ_DT,
            "projection": True,
        }
        ops.append(_op(workdir, "simulate-spin-%d" % i, "simulate", config,
                       lambda text, q=sq, p=sp: ref.check_spin_trajectory(text, q, p, TRAJ_DT, SPIN_T_END)))
    return ops


def _free_flow(seed: int, workdir: str) -> List[Op]:
    ops = []
    for i in range(FREE_STARTS):
        rng = np.random.default_rng([seed, 0, i])
        weights = rng.uniform(0.2, 1.0, size=FREE_N)
        p = list(weights[:-1] / weights.sum())
        q = list(rng.uniform(0.0, 2.0 * math.pi, size=FREE_N - 1))
        energies = list(rng.uniform(-2.0, 2.0, size=FREE_N))
        config = {
            "system": {"name": "diagonal", "n": FREE_N, "energies": energies},
            "constraints": "none",
            "initial_point": {"q": q, "p": p},
            "t_end": FREE_T_END,
            "dt": FREE_DT,
        }
        ops.append(_op(workdir, "simulate-free-%d" % i, "simulate", config,
                       lambda text, q=q, p=p, e=energies: ref.check_free_trajectory(text, q, p, e, FREE_DT, FREE_T_END)))
    return ops


def _pointwise_diagnostics(seed: int, workdir: str) -> List[Op]:
    ops = []
    for i in range(DIAG_INPUTS):
        rngs = [np.random.default_rng([seed, k, i]) for k in range(4)]
        config = {"system": {"name": "two-qubit-product"}, "num_points": CHECK_POINTS,
                  "seed": int(rngs[0].integers(2**31))}
        ops.append(_op(workdir, "check-two-qubit-%d" % i, "check", config,
                       lambda text: ref.check_two_qubit_report(text, CHECK_POINTS)))
        config = {"system": {"name": "spin-half-sx"}, "num_points": CHECK_POINTS,
                  "seed": int(rngs[1].integers(2**31))}
        ops.append(_op(workdir, "check-spin-%d" % i, "check", config,
                       lambda text: ref.check_spin_report(text, CHECK_POINTS)))
        config = {
            "system": {"name": "diagonal", "n": VALIDATE_N,
                       "energies": list(rngs[2].uniform(-2.0, 2.0, size=VALIDATE_N))},
            "num_points": VALIDATE_POINTS,
            "seed": int(rngs[2].integers(2**31)),
        }
        ops.append(_op(workdir, "validate-diagonal-%d" % i, "validate", config,
                       lambda text: ref.check_validate_report(text, VALIDATE_POINTS)))
        half = float(rngs[3].uniform(0.5, 1.3))
        grid = {
            "kind": "angular",
            "theta_min": 0.5 * math.pi - half,
            "theta_max": 0.5 * math.pi + half,
            "theta_count": FIELD_THETA_COUNT,
            "phi_min": 0.0,
            "phi_max": 2.0 * math.pi * (FIELD_PHI_COUNT - 1) / FIELD_PHI_COUNT,
            "phi_count": FIELD_PHI_COUNT,
        }
        thetas = np.linspace(grid["theta_min"], grid["theta_max"], FIELD_THETA_COUNT)
        phis = np.linspace(grid["phi_min"], grid["phi_max"], FIELD_PHI_COUNT)
        ops.append(_op(workdir, "field-spin-%d" % i, "field", {"system": {"name": "spin-half-sx"}, "grid": grid},
                       lambda text, t=thetas, f=phis: ref.check_angular_field(text, t, f)))
    return ops


WORKLOADS = {
    "constrained-trajectories": _constrained_trajectories,
    "free-flow-highdim": _free_flow,
    "pointwise-diagnostics": _pointwise_diagnostics,
}


def build_round(workload: str, seed: int, workdir: str) -> List[Op]:
    """Write the configs of one round of the workload; return its ops in order."""
    return WORKLOADS[workload](seed, workdir)
