"""Command-line front end.

    projflow simulate <config.json> [flags]   time evolution -> CSV
    projflow field    <config.json> [flags]   field scan over a grid -> CSV
    projflow check    <config.json> [flags]   equivalence diagnostics -> JSON
    projflow validate <config.json> [flags]   geometry self-tests -> JSON

The config is a single JSON document; --t-end, --dt, --output, --seed and
--no-projection override its entries.  Numbers are serialised with 17
significant digits so doubles round-trip exactly, making output files
byte-identical for identical configs.  Exit codes: 0 success, 1 invariant
failure (validate), 2 configuration error, 3 runtime truncation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .constraints import diagonal_observable, gram_covariance_check, observable_constraint
from .dynamics import constrained_field, integrate
from .equivalence import equivalence_report
from .errors import ChartDomainError, ConfigError
from .geometry import ChartPoint, canonical_omega, geometry_at, inside_chart, nijenhuis_tensor
from .systems import (
    SystemDefinition,
    _interior_coords,
    _product_surface_row,
    angular_coords,
    pushforward_to_angular,
    system_from_name,
    with_constraints,
)

VALIDATE_TOL = 1e-8
# check and validate evaluate their points in batches of at most about this
# many entries of a per-point tensor stack, so that peak memory stays flat
# in the number of points at any n
BATCH_ENTRIES = 2 ** 16


def _csv(header: str, table: np.ndarray, flags: list) -> str:
    """The header line, then one line per table row: every value in "%.17g"
    (nan as "nan"), then the row's flag."""
    row = ",".join(["%.17g"] * table.shape[1] + ["%s\n"])
    return header + "\n" + "".join([row % (*values, flag) for values, flag in zip(table.tolist(), flags)])


_encode_str = json.encoder.encode_basestring_ascii  # what json.dumps(str) calls


def _json_dump(obj, indent=0) -> str:
    """Serialise with fixed 17-significant-digit floats for determinism."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(['%s  %s: %s' % (pad, _encode_str(str(k)), _json_dump(v, indent + 1))
                             for k, v in obj.items()])
        return "{\n%s\n%s}" % (items, pad)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(["%s  %s" % (pad, _json_dump(v, indent + 1)) for v in obj])
        return "[\n%s\n%s]" % (items, pad)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return "%.17g" % obj
    return _encode_str(str(obj))


@dataclass
class RunConfig:
    system: SystemDefinition
    initial_point: Optional[ChartPoint] = None
    grid: Optional[dict] = None
    points: Optional[list] = None
    num_points: int = 50
    t_end: float = 1.0
    dt: float = 1e-3
    projection: bool = True
    output_path: Optional[str] = None
    seed: int = 0


def _build_constraint(spec, n: int):
    if not isinstance(spec, dict):
        raise ConfigError("constraint entries must be objects, got %r" % (spec,))
    kind = spec.get("kind")
    if kind == "observable":
        _known_keys(spec, ("kind", "name", "matrix"), "an observable constraint")
        if "matrix" not in spec:
            raise ConfigError("an observable constraint needs a \"matrix\" entry")
        matrix = np.asarray(spec["matrix"], dtype=float)
        if matrix.shape == (n, n, 2):
            matrix = matrix[..., 0] + 1j * matrix[..., 1]
        if matrix.shape != (n, n):
            raise ConfigError("observable matrix must be %d x %d, or %d x %d of [re, im] pairs, got shape %s"
                              % (n, n, n, n, matrix.shape))
        return observable_constraint(matrix, _entry(spec, "name", "observable", str, "a string"))
    if kind == "population":
        _known_keys(spec, ("kind", "name", "index"), "a population constraint")
        index = _entry(spec, "index", None, int, "an integer")
        if not 1 <= index <= n - 1:
            raise ConfigError("population index out of range")
        # p_k = <psi|P_k|psi>, the projector on level k
        name = _entry(spec, "name", "p%d" % index, str, "a string")
        return diagonal_observable(np.arange(n) == index - 1, name)
    raise ConfigError("unknown constraint kind %r" % kind)


def _known_keys(raw: dict, keys, what: str) -> None:
    """Reject a key of the config object raw that its reader does not read."""
    unknown = sorted(raw.keys() - keys)
    if unknown:
        raise ConfigError("unknown key %r in %s" % (unknown[0], what))


def _entry(raw: dict, key: str, default, types, what: str):
    """raw[key] (or the default) if it is one of types; bools never count
    as numbers."""
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError("%s must be %s, got %r" % (key, what, value))
    return value


def _chart_point(spec, pairs: int, what: str) -> ChartPoint:
    """A {"q": [...], "p": [...]} entry as one point of a chart with the
    given number of pairs, inside the guarded chart interior."""
    if not isinstance(spec, dict) or not {"q", "p"} <= spec.keys():
        raise ConfigError("%s must be an object with q and p, got %r" % (what, spec))
    _known_keys(spec, ("q", "p"), what)
    try:
        point = ChartPoint(np.asarray(spec["q"], float), np.asarray(spec["p"], float))
        if point.q.ndim != 1:
            raise ValueError("q and p must be flat lists, one point, not a batch")
        if point.m != pairs:
            raise ValueError("%d pairs where the system needs %d" % (point.m, pairs))
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad %s: %s" % (what, exc))
    return point


def load_config(path: str, command: str, overrides: argparse.Namespace) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("cannot read config: %s" % exc)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _known_keys(raw, ("command", "system", "constraints", "initial_point", "points", "grid", "num_points",
                      "t_end", "dt", "projection", "output_path", "seed"), "the config")
    if "command" in raw and raw["command"] != command:
        raise ConfigError("config command %r does not match %r" % (raw["command"], command))

    sysspec = raw.get("system")
    if not isinstance(sysspec, dict) or "name" not in sysspec:
        raise ConfigError("config needs a system object with a name")
    _known_keys(sysspec, ("name", "n", "energies", "constraints"), "system")
    n = _entry(sysspec, "n", None, (int, type(None)), "an integer")
    specs = _entry(sysspec, "constraints", [], list, "a list")
    try:
        system = system_from_name(sysspec["name"], energies=sysspec.get("energies"), n=n)
        if specs:
            # the generator runs only once with_constraints accepts the system
            system = with_constraints(system, (_build_constraint(c, system.n) for c in specs))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc))

    active = raw.get("constraints", "default")
    if active not in ("default", "none"):
        raise ConfigError('constraints must be "default" or "none", got %r' % (active,))
    if active == "none":
        system = replace(system, constraints=())
    cfg = RunConfig(system=system)
    pairs = system.n - 1
    if raw.get("initial_point") is not None:
        cfg.initial_point = _chart_point(raw["initial_point"], pairs, "initial_point")
    points = _entry(raw, "points", None, (list, type(None)), "a list")
    if points is not None:
        if not points:
            raise ConfigError("points must be a non-empty list; omit it to sample num_points points")
        cfg.points = [_chart_point(p, pairs, "points entry") for p in points]
    cfg.grid = raw.get("grid")
    cfg.num_points = _entry(raw, "num_points", 50, int, "an integer")
    cfg.t_end = float(_entry(raw, "t_end", 1.0, (int, float), "a number"))
    cfg.dt = float(_entry(raw, "dt", 1e-3, (int, float), "a number"))
    cfg.projection = raw.get("projection", True)
    if not isinstance(cfg.projection, bool):
        raise ConfigError("projection must be true or false, got %r" % (cfg.projection,))
    cfg.output_path = _entry(raw, "output_path", None, (str, type(None)), "a path string")
    cfg.seed = _entry(raw, "seed", 0, int, "an integer")

    if overrides.t_end is not None:
        cfg.t_end = overrides.t_end
    if overrides.dt is not None:
        cfg.dt = overrides.dt
    if overrides.output is not None:
        cfg.output_path = overrides.output
    if overrides.seed is not None:
        cfg.seed = overrides.seed
    if overrides.no_projection:
        cfg.projection = False

    if not (math.isfinite(cfg.dt) and cfg.dt > 0.0):
        raise ConfigError("dt must be positive and finite")
    if not (math.isfinite(cfg.t_end) and cfg.t_end >= 0.0):
        raise ConfigError("t_end must be nonnegative and finite")
    if cfg.num_points < 1:
        raise ConfigError("num_points must be positive")
    if cfg.seed < 0:
        raise ConfigError("seed must be nonnegative")
    return cfg


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError("cannot write output: %s" % exc)


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg.initial_point is None:
        raise ConfigError("simulate needs an initial_point")
    if cfg.output_path is None:
        raise ConfigError("simulate needs an output_path")
    try:
        traj = integrate(cfg.system, cfg.initial_point, cfg.t_end, cfg.dt, projection=cfg.projection)
    except (ChartDomainError, ValueError) as exc:
        raise ConfigError(str(exc))

    pairs = range(1, cfg.initial_point.m + 1)
    header = (["t"] + ["q_%d" % i for i in pairs] + ["p_%d" % i for i in pairs]
              + ["phi_%d" % (i + 1) for i in range(len(cfg.system.constraints))] + ["H", "exit_flag"])
    table = np.column_stack([traj.times, np.mod(traj.qs, 2.0 * math.pi), traj.ps,
                             traj.constraint_values, traj.energies])
    flags = ["ok"] * (len(traj) - 1) + ["ok" if traj.exit_flag == "completed" else traj.exit_flag]
    _write_text(cfg.output_path, _csv(",".join(header), table, flags))
    if traj.exit_flag != "completed":
        print("truncated (%s) after %d samples -> %s" % (traj.exit_flag, len(traj), cfg.output_path))
        return 3
    print("wrote %d samples -> %s" % (len(traj), cfg.output_path))
    return 0


def _grid_axis(spec, name, lo, hi):
    start = float(_entry(spec, "%s_min" % name, None, (int, float), "a number"))
    stop = float(_entry(spec, "%s_max" % name, None, (int, float), "a number"))
    count = _entry(spec, "%s_count" % name, None, int, "an integer")
    if count < 1 or not (lo <= start <= stop <= hi):
        raise ConfigError("grid axis %r outside its chart range" % name)
    return np.linspace(start, stop, count) if count > 1 else np.array([start])


def cmd_field(cfg: RunConfig) -> int:
    grid = cfg.grid
    if not isinstance(grid, dict):
        raise ConfigError("field needs a grid object")
    if cfg.output_path is None:
        raise ConfigError("field needs an output_path")
    system = cfg.system
    if system.n != 2:
        raise ConfigError("field scans are defined for two-level systems")
    kind = grid.get("kind", "angular")
    if kind == "angular":
        header = "theta,phi,theta_dot,phi_dot,flag"
        axes = (_grid_axis(grid, "theta", 1e-12, math.pi - 1e-12),
                _grid_axis(grid, "phi", 0.0, 2.0 * math.pi))
    elif kind == "chart":
        header = "q,p,q_dot,p_dot,flag"
        axes = (_grid_axis(grid, "q", -2.0 * math.pi, 2.0 * math.pi),
                _grid_axis(grid, "p", 1e-12, 1.0 - 1e-12))
    else:
        raise ConfigError("unknown grid kind %r" % kind)
    _known_keys(grid, ["kind"] + ["%s_%s" % (axis, end) for axis in header.split(",")[:2]
                                  for end in ("min", "max", "count")], "grid")
    nodes = np.empty((axes[0].size, axes[1].size, 2))
    nodes[..., 0], nodes[..., 1] = axes[0][:, None], axes[1]
    nodes = nodes.reshape(-1, 2)
    coords = angular_coords(nodes[:, 0], nodes[:, 1]) if kind == "angular" else nodes
    # Nodes outside the guarded chart, and singular points, whose field rows
    # are NaN, read "singular".
    rates = np.full(nodes.shape, np.nan)
    inside = inside_chart(coords)
    if inside.any():
        point = ChartPoint.from_coords(coords[inside])
        field = constrained_field(point, system)
        rates[inside] = np.stack(pushforward_to_angular(point, field), axis=-1) if kind == "angular" else field
    ok = np.isfinite(rates).all(axis=-1)
    rates[~ok] = np.nan
    _write_text(cfg.output_path, _csv(header, np.hstack([nodes, rates]), np.where(ok, "ok", "singular").tolist()))
    print("wrote %d field rows -> %s" % (len(nodes), cfg.output_path))
    return 0


def _check_points(cfg: RunConfig) -> np.ndarray:
    """The flat coordinates of the check points, one row per point; no draw
    is rejected, since check reports a singular point as such."""
    if cfg.points:
        return np.array([pt.coords() for pt in cfg.points])
    if cfg.system.name == "two-qubit-product":
        # Equivalence holds on the constraint surface; sample there.
        return np.array([_product_surface_row(cfg.seed + i) for i in range(cfg.num_points)])
    return _interior_coords(np.random.default_rng(cfg.seed), cfg.system.n - 1, cfg.num_points)


def _batches(coords: np.ndarray, entries_per_point: int):
    """The rows of flat coordinates as chart points, in consecutive batches
    of at most BATCH_ENTRIES // entries_per_point points, and at least one."""
    size = max(1, BATCH_ENTRIES // entries_per_point)
    for start in range(0, len(coords), size):
        yield ChartPoint.from_coords(coords[start:start + size])


@functools.cache
def _check_entry_templates(m: int):
    """%-templates of a regular and of a singular check entry at m pairs,
    each as _json_dump writes the entry inside the "points" list, with a
    slot for every string "%.17g" or "%s" below: q and p first, then the
    residuals, and tau_sign and verdict as JSON tokens."""
    head = {"q": ["%.17g"] * m, "p": ["%.17g"] * m}
    regular = dict(head, j_invariance_residual="%.17g", right_annihilation_residual="%.17g",
                   left_annihilation_residual="%.17g", tau_sign="%s", verdict="%s")
    return tuple("    " + _json_dump(fields, 2).replace('"%.17g"', "%.17g").replace('"%s"', "%s")
                 for fields in (regular, dict(head, status="singular")))


def cmd_check(cfg: RunConfig) -> int:
    system = cfg.system
    if not system.constraints:
        raise ConfigError("check needs a system with constraints")
    coords = _check_points(cfg)
    m = system.n - 1
    dim = 2 * m
    reports = [equivalence_report(batch, system) for batch in _batches(coords, dim * dim)]

    def column(name):
        return np.concatenate([getattr(report, name) for report in reports]).tolist()

    j_res, right, left, verdicts = (column(name) for name in (
        "j_invariance_residual", "right_annihilation_residual", "left_annihilation_residual", "verdict"))
    tau_signs = [None] * len(verdicts) if reports[0].tau_sign is None else column("tau_sign")
    token = {value: _json_dump(value) for value in set(verdicts + tau_signs)}
    regular, singular = _check_entry_templates(m)
    entries, checked = [], []
    for i, row in enumerate(coords.tolist()):
        if verdicts[i] == "singular":
            entries.append(singular % tuple(row))
        else:
            entries.append(regular % (*row, j_res[i], right[i], left[i], token[tau_signs[i]], token[verdicts[i]]))
            checked.append(i)
    aggregate = {
        "verdict": "equivalent" if checked and all(verdicts[i] == "equivalent" for i in checked)
        else "not_equivalent",
        "points_checked": len(checked),
        "singular_excluded": len(verdicts) - len(checked),
        "max_j_invariance_residual": max((j_res[i] for i in checked), default=0.0),
        "max_right_annihilation_residual": max((right[i] for i in checked), default=0.0),
    }
    text = '{\n  "system": %s,\n  "seed": %s,\n  "points": [\n%s\n  ],\n  "aggregate": %s\n}\n' % (
        _json_dump(system.name), _json_dump(cfg.seed), ",\n".join(entries), _json_dump(aggregate, 1))
    if cfg.output_path:
        _write_text(cfg.output_path, text)
        print("verdict: %s -> %s" % (aggregate["verdict"], cfg.output_path))
    else:
        sys.stdout.write(text)
    return 0


def _probe_observables(n: int):
    # the star X[:-1, -1] = X[-1, :-1] = 1 (sigma_x at n = 2) reaches every q column of g^{-1}
    ham = np.diag(np.arange(1.0, n + 1.0))
    star = np.zeros((n, n))
    star[:-1, -1] = star[-1, :-1] = 1.0
    return [observable_constraint(ham, "probe-diag"), observable_constraint(star, "probe-star")]


def _validate_residuals(points: ChartPoint, probes) -> dict:
    """The worst residual of each validate check over a batch of points."""
    geom = geometry_at(points)
    g, g_inv, j = geom.g, geom.g_inv, geom.j
    eye = np.eye(geom.dim)
    big_omega = g @ j
    residuals = {
        "j_squared": j @ j + eye,
        "hermitian_metric": j.mT @ g @ j - g,
        # the two-form Omega = g J against its inverse g^{-1} Omega g^{-1},
        # and omega = Omega / 2 against the canonical form
        "two_form_inverse": g_inv @ big_omega @ g_inv @ big_omega.mT - eye,
        "canonical_symplectic": 0.5 * big_omega - canonical_omega(points.m),
        "nijenhuis": nijenhuis_tensor(points),
        "gram_covariance": gram_covariance_check(probes, points),
    }
    return {name: np.abs(residual).max() for name, residual in residuals.items()}


def cmd_validate(cfg: RunConfig) -> int:
    system = cfg.system
    rng = np.random.default_rng(cfg.seed)
    pairs = system.n - 1
    dim = 2 * pairs
    probes = _probe_observables(system.n)
    samples = _interior_coords(rng, pairs, cfg.num_points)
    # a point's largest tensor is its Nijenhuis tensor, dim^3 entries
    passes = [_validate_residuals(batch, probes) for batch in _batches(samples, dim ** 3)]
    checks = []
    for name in passes[0]:
        worst = float(np.max([residuals[name] for residuals in passes]))
        checks.append({"name": name, "max_residual": worst, "tolerance": VALIDATE_TOL, "pass": worst < VALIDATE_TOL})
    all_pass = all(c["pass"] for c in checks)
    payload = {
        "system": system.name,
        "seed": cfg.seed,
        "num_points": cfg.num_points,
        "checks": checks,
        "pass": all_pass,
    }
    text = _json_dump(payload) + "\n"
    if cfg.output_path:
        _write_text(cfg.output_path, text)
        print("validate: %s -> %s" % ("pass" if all_pass else "FAIL", cfg.output_path))
    else:
        sys.stdout.write(text)
    return 0 if all_pass else 1


COMMANDS = {"simulate": cmd_simulate, "field": cmd_field, "check": cmd_check, "validate": cmd_validate}

PARSER = argparse.ArgumentParser(prog="projflow", description=__doc__)
PARSER.add_argument("command", choices=COMMANDS)
PARSER.add_argument("config", help="path to a JSON run configuration")
PARSER.add_argument("--t-end", type=float, default=None, dest="t_end")
PARSER.add_argument("--dt", type=float, default=None)
PARSER.add_argument("--output", default=None)
PARSER.add_argument("--seed", type=int, default=None)
PARSER.add_argument("--no-projection", action="store_true", dest="no_projection")


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return COMMANDS[args.command](load_config(args.config, args.command, args))
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
