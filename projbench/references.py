"""Independent references and output checkers for the projflow benchmark.

Nothing here imports projflow.  Every expected value is computed from the
paper's closed forms, written out again for the benchmark:

- two-qubit product system on its surface: the actions p are frozen and
  the angles move at constant rates, q(t) = q0 + qdot(p0) t;
- single spin with sigma_x conserved: the closed-form chart field,
  integrated by a plain RK4 on the same step schedule as the program;
- free flow of a diagonal Hamiltonian: q(t) = q0 + Omega t (mod 2 pi),
  p(t) = p0, with Omega_nu = E_nu - E_n;
- the closed-form angular field of the spin system on a (theta, phi) grid.

Each checker takes the text of one output file and raises CheckFailed
with the first discrepancy it finds.
"""

from __future__ import annotations

import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi
# Tolerances on program outputs; the measured errors sit near 1e-13.
TRAJECTORY_TOL = 1e-9
INVARIANT_TOL = 1e-10
ACTION_TOL = 1e-12
FIELD_TOL = 1e-9
SURFACE_TOL = 1e-12
TIME_TOL = 1e-12
# Below this value of 1 - sin^2(theta) cos^2(phi) a grid node sits on one of
# the two singular points of the spin field.
SINGULAR_DENOM = 1e-12
VALIDATE_CHECKS = (
    "j_squared",
    "hermitian_metric",
    "two_form_inverse",
    "canonical_symplectic",
    "nijenhuis",
    "gram_covariance",
)


class CheckFailed(Exception):
    """A program output disagrees with the independent reference."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def wrap_angle(x):
    """Map angle differences to [-pi, pi)."""
    return np.mod(np.asarray(x, dtype=float) + math.pi, TWO_PI) - math.pi


def step_times(dt: float, t_end: float) -> np.ndarray:
    """Sample times of a fixed-step run: multiples of dt, ending on t_end."""
    steps = int(round(t_end / dt))
    return np.append(np.arange(steps) * dt, t_end)


def parse_csv(text: str):
    lines = text.splitlines()
    _require(len(lines) >= 2, "output has no data rows")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    _require(all(len(r) == len(header) for r in rows), "ragged CSV rows")
    return header, rows


def _trajectory_table(text: str, m: int, n_phi: int, dt: float, t_end: float):
    """Parse a simulate CSV and check its layout, times and flags.

    Returns (q, p, phi, H) as float arrays with one row per sample.
    """
    header, rows = parse_csv(text)
    expected = (
        ["t"]
        + ["q_%d" % (i + 1) for i in range(m)]
        + ["p_%d" % (i + 1) for i in range(m)]
        + ["phi_%d" % (i + 1) for i in range(n_phi)]
        + ["H", "exit_flag"]
    )
    _require(header == expected, "unexpected simulate header %r" % header[:4])
    times = step_times(dt, t_end)
    _require(len(rows) == times.size, "expected %d samples, got %d" % (times.size, len(rows)))
    _require(all(r[-1] == "ok" for r in rows), "a sample is flagged as truncated")
    data = np.array([[float(v) for v in r[:-1]] for r in rows])
    err = float(np.abs(data[:, 0] - times).max())
    _require(err <= TIME_TOL, "sample times off by %.3e" % err)
    q = data[:, 1 : 1 + m]
    p = data[:, 1 + m : 1 + 2 * m]
    phi = data[:, 1 + 2 * m : 1 + 2 * m + n_phi]
    return q, p, phi, data[:, -1]


def _angles_match(q, q_ref, what: str) -> None:
    err = float(np.abs(wrap_angle(q - q_ref)).max())
    _require(err <= TRAJECTORY_TOL, "%s: q off the reference by %.3e" % (what, err))


def _constant(values, tol: float, what: str) -> None:
    err = float(np.abs(values - values[0]).max())
    _require(err <= tol, "%s drifts by %.3e" % (what, err))


# ---------------------------------------------------------------------------
# constrained-trajectories
# ---------------------------------------------------------------------------

def two_qubit_rates(p, gaps) -> np.ndarray:
    """On-surface angle velocities of the product system (D = O1 - O2 - O3)."""
    p1, p2, p3 = p
    o1, o2, o3 = gaps
    drive = o1 - o2 - o3
    return np.array(
        [
            o1 - (1.0 - 2.0 * p1 - p2 - p3) * drive,
            o2 + (p1 + p3) * drive,
            o3 + (p1 + p2) * drive,
        ]
    )


def check_two_qubit_trajectory(text, q0, p0, gaps, dt, t_end) -> None:
    q, p, phi, _ = _trajectory_table(text, 3, 2, dt, t_end)
    times = step_times(dt, t_end)
    q_ref = np.asarray(q0) + np.outer(times, two_qubit_rates(p0, gaps))
    _angles_match(q, q_ref, "two-qubit")
    err = float(np.abs(p - np.asarray(p0)).max())
    _require(err <= ACTION_TOL, "two-qubit actions move by %.3e" % err)
    _constant(phi[:, 0], INVARIANT_TOL, "phi_1")
    _constant(phi[:, 1], INVARIANT_TOL, "phi_2")


def spin_field(q: float, p: float):
    """Closed-form constrained chart field of the spin with sigma_x fixed."""
    c, s = math.cos(q), math.sin(q)
    m = (1.0 - 2.0 * p) ** 2 * c * c + s * s
    qdot = -2.0 * (1.0 - 2.0 * p) ** 2 * c * c / m
    pdot = 4.0 * (1.0 - 2.0 * p) * (p - 1.0) * p * s * c / m
    return qdot, pdot


def spin_rk4(q0: float, p0: float, times) -> np.ndarray:
    """Classical RK4 of spin_field over the given sample times; rows (q, p)."""
    out = np.empty((len(times), 2))
    q, p = q0, p0
    out[0] = q, p
    for i in range(1, len(times)):
        h = times[i] - times[i - 1]
        k1 = spin_field(q, p)
        k2 = spin_field(q + 0.5 * h * k1[0], p + 0.5 * h * k1[1])
        k3 = spin_field(q + 0.5 * h * k2[0], p + 0.5 * h * k2[1])
        k4 = spin_field(q + h * k3[0], p + h * k3[1])
        q += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        p += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        out[i] = q, p
    return out


def sigma_x(q, p):
    return 2.0 * np.sqrt(p * (1.0 - p)) * np.cos(q)


def check_spin_trajectory(text, q0, p0, dt, t_end) -> None:
    q, p, phi, _ = _trajectory_table(text, 1, 1, dt, t_end)
    ref = spin_rk4(q0, p0, step_times(dt, t_end))
    _angles_match(q[:, 0], ref[:, 0], "spin")
    err = float(np.abs(p[:, 0] - ref[:, 1]).max())
    _require(err <= TRAJECTORY_TOL, "spin: p off the reference by %.3e" % err)
    _constant(phi[:, 0], INVARIANT_TOL, "phi_1")
    _constant(sigma_x(q[:, 0], p[:, 0]), INVARIANT_TOL, "sigma_x from (q, p)")


# ---------------------------------------------------------------------------
# free-flow-highdim
# ---------------------------------------------------------------------------

def check_free_trajectory(text, q0, p0, energies, dt, t_end) -> None:
    m = len(q0)
    q, p, _, h = _trajectory_table(text, m, 0, dt, t_end)
    gaps = np.asarray(energies[:-1]) - energies[-1]
    q_ref = np.asarray(q0) + np.outer(step_times(dt, t_end), gaps)
    _angles_match(q, q_ref, "free flow")
    err = float(np.abs(p - np.asarray(p0)).max())
    _require(err <= ACTION_TOL, "free-flow actions move by %.3e" % err)
    _constant(h, ACTION_TOL * max(1.0, abs(h[0])), "H")


# ---------------------------------------------------------------------------
# pointwise-diagnostics
# ---------------------------------------------------------------------------

def _report_points(text: str, num_points: int):
    report = json.loads(text)
    points = report["points"]
    _require(len(points) == num_points, "expected %d points, got %d" % (num_points, len(points)))
    _require(all("status" not in pt for pt in points), "a point was reported singular")
    _require(report["aggregate"]["points_checked"] == num_points, "aggregate point count is off")
    _require(report["aggregate"]["singular_excluded"] == 0, "aggregate excludes singular points")
    return report, points


def check_two_qubit_report(text: str, num_points: int) -> None:
    report, points = _report_points(text, num_points)
    for pt in points:
        (q1, q2, q3), (p1, p2, p3) = pt["q"], pt["p"]
        off = max(abs(p1 * (1.0 - p1 - p2 - p3) - p2 * p3), abs(float(wrap_angle(q1 - q2 - q3))))
        _require(off <= SURFACE_TOL, "check point off the product surface by %.3e" % off)
        _require(pt["verdict"] == "equivalent", "two-qubit point judged %r" % pt["verdict"])
        _require(pt["tau_sign"] == "plus", "two-qubit tau_sign %r" % pt["tau_sign"])
    _require(report["aggregate"]["verdict"] == "equivalent", "two-qubit aggregate not equivalent")


def check_spin_report(text: str, num_points: int) -> None:
    report, points = _report_points(text, num_points)
    for pt in points:
        _require(pt["verdict"] == "not_equivalent", "single constraint judged %r" % pt["verdict"])
        _require(pt["tau_sign"] is None, "single constraint has a tau_sign")
    _require(report["aggregate"]["verdict"] == "not_equivalent", "spin aggregate equivalent")


def check_validate_report(text: str, num_points: int) -> None:
    report = json.loads(text)
    _require(report["num_points"] == num_points, "validate swept the wrong point count")
    names = tuple(c["name"] for c in report["checks"])
    _require(names == VALIDATE_CHECKS, "unexpected validate checks %r" % (names,))
    for c in report["checks"]:
        _require(c["max_residual"] < c["tolerance"], "validate %s residual %.3e" % (c["name"], c["max_residual"]))
        _require(c["pass"] is True, "validate %s marked failed" % c["name"])
    _require(report["pass"] is True, "validate did not pass")


def angular_field(theta: float, phi: float):
    """Closed-form (thetadot, phidot) of the spin system, or None at the two
    singular points (theta, phi) = (pi/2, 0) and (pi/2, pi)."""
    denom = 1.0 - math.sin(theta) ** 2 * math.cos(phi) ** 2
    if denom < SINGULAR_DENOM:
        return None
    thetadot = 0.5 * math.sin(2.0 * theta) * math.sin(2.0 * phi) / denom
    phidot = 2.0 * math.cos(theta) ** 2 * math.cos(phi) ** 2 / denom
    return thetadot, phidot


def check_angular_field(text: str, thetas, phis) -> None:
    header, rows = parse_csv(text)
    _require(header == ["theta", "phi", "theta_dot", "phi_dot", "flag"], "unexpected field header")
    nodes = [(t, f) for t in thetas for f in phis]
    _require(len(rows) == len(nodes), "expected %d field rows, got %d" % (len(nodes), len(rows)))
    for (theta, phi), row in zip(nodes, rows):
        got_t, got_f = float(row[0]), float(row[1])
        _require(abs(got_t - theta) <= TIME_TOL and abs(got_f - phi) <= TIME_TOL, "field grid node moved")
        ref = angular_field(theta, phi)
        where = "(%.6f, %.6f)" % (theta, phi)
        if ref is None:
            _require(row[4] == "singular", "singular node %s reported %r" % (where, row[4]))
            continue
        _require(row[4] == "ok", "regular node %s reported %r" % (where, row[4]))
        err = max(abs(float(row[2]) - ref[0]), abs(float(row[3]) - ref[1]))
        _require(err <= FIELD_TOL, "field at %s off by %.3e" % (where, err))
