import json
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from projflow import (
    ChartPoint,
    constrained_field,
    diagonal_observable,
    diagonal_system,
    integrate,
    observable_constraint,
    pushforward_to_angular,
    schrodinger_field,
    single_spin_conserved_sx,
    two_qubit_product_system,
)
from projflow import cli, dynamics
from projflow.systems import angular_coords
from projflow.cli import main
import closedforms as cf

README = Path(__file__).resolve().parent.parent / "README.md"
SIGMA_Y = [[[0.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]]
# json writes NaN, and json.load reads it back
NAN_OBSERVABLE = {"system": {"name": "diagonal", "n": 2, "energies": [1.0, 0.0],
                             "constraints": [{"kind": "observable", "matrix": [[float("nan"), 1.0], [1.0, 0.0]]}]}}

BATCH_POINT = {"q": [[0.9], [1.2]], "p": [[0.3], [0.4]]}


def sx_eigenstate_run(name):
    """A simulate config that starts at an eigenstate of its sigma_x
    constraint, with the given constraint name."""
    sigma_x = {"kind": "observable", "matrix": [[0, 1], [1, 0]], "name": name}
    return {"system": {"name": "diagonal", "n": 2, "energies": [-1.0, 1.0], "constraints": [sigma_x]},
            "initial_point": {"q": [0.0], "p": [0.5]}, "output_path": "unused.csv"}


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


@pytest.fixture
def surface_start():
    from projflow import product_surface_sample

    pt = product_surface_sample(11)
    return {"q": list(pt.q), "p": list(pt.p)}


class TestSimulate:
    def test_two_qubit_actions_preserved(self, tmp_path, surface_start):
        out = tmp_path / "traj.csv"
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "system": {"name": "two-qubit-product"},
                "initial_point": surface_start,
                "t_end": 0.5,
                "dt": 1e-2,
                "output_path": str(out),
            },
        )
        assert main(["simulate", cfg]) == 0
        header, rows = read_csv(out)
        assert header[:1] == ["t"] and header[-1] == "exit_flag"
        p_cols = [header.index("p_%d" % i) for i in (1, 2, 3)]
        first = [float(rows[0][c]) for c in p_cols]
        last = [float(rows[-1][c]) for c in p_cols]
        assert max(abs(a - b) for a, b in zip(first, last)) < 1e-10
        assert all(row[-1] == "ok" for row in rows)

    def test_fixed_point_rows_identical(self, tmp_path):
        out = tmp_path / "traj.csv"
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "system": {"name": "spin-half-sx"},
                "initial_point": {"q": [math.pi / 2], "p": [0.25]},
                "t_end": 0.2,
                "dt": 1e-2,
                "output_path": str(out),
            },
        )
        assert main(["simulate", cfg]) == 0
        header, rows = read_csv(out)
        body = {",".join(row[1:3]) for row in rows}
        assert len(body) == 1  # every (q, p) sample is byte-identical

    def test_deterministic_output(self, tmp_path, surface_start):
        payload = {
            "system": {"name": "two-qubit-product"},
            "initial_point": surface_start,
            "t_end": 0.1,
            "dt": 1e-2,
            "output_path": str(tmp_path / "a.csv"),
            "seed": 7,
        }
        cfg = write_config(tmp_path / "cfg.json", payload)
        assert main(["simulate", cfg]) == 0
        assert main(["simulate", cfg, "--output", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_invalid_dt_exits_2(self, tmp_path, surface_start):
        out = tmp_path / "never.csv"
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "system": {"name": "two-qubit-product"},
                "initial_point": surface_start,
                "t_end": 0.1,
                "dt": -1.0,
                "output_path": str(out),
            },
        )
        assert main(["simulate", cfg]) == 2
        assert not out.exists()

    def test_truncation_exits_3(self, tmp_path):
        out = tmp_path / "trunc.csv"
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "system": {"name": "spin-half-sx"},
                "initial_point": {"q": [0.0], "p": [0.5]},
                "t_end": 1.0,
                "dt": 1e-2,
                "output_path": str(out),
            },
        )
        assert main(["simulate", cfg]) == 3
        _, rows = read_csv(out)
        assert rows[-1][-1] == "singular"

    def test_truncated_csv_bytes(self, tmp_path, monkeypatch):
        # one Newton correction per step leaves the residual too large, so
        # the run stops after a few rows; every cell reads as "%.17g" % v
        # and the last row carries the flag
        monkeypatch.setattr(dynamics, "NEWTON_MAX", 1)
        spin = single_spin_conserved_sx()
        traj = integrate(spin, ChartPoint([0.9], [0.3]), 3.0, 0.15)
        out = tmp_path / "trunc.csv"
        cfg = write_config(tmp_path / "cfg.json", {"system": {"name": "spin-half-sx"},
                                                   "initial_point": {"q": [0.9], "p": [0.3]},
                                                   "t_end": 3.0, "dt": 0.15, "output_path": str(out)})
        assert main(["simulate", cfg]) == 3
        lines = ["t,q_1,p_1,phi_1,H,exit_flag"]
        for i in range(len(traj)):
            cells = [traj.times[i], *np.mod(traj.qs[i], 2.0 * math.pi), *traj.ps[i],
                     *traj.constraint_values[i], traj.energies[i]]
            flag = "projection" if i == len(traj) - 1 else "ok"
            lines.append(",".join(["%.17g" % v for v in cells] + [flag]))
        assert len(lines) == 7 and lines[-1].endswith(",projection")
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_overflowing_field_exits_3(self, tmp_path):
        # every entry is finite, but the gap 1e308 overflows the RK4 sum
        out = tmp_path / "overflow.csv"
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "system": {"name": "diagonal", "n": 2, "energies": [1e308, 0.0]},
                "initial_point": {"q": [0.9], "p": [0.3]},
                "t_end": 1.0,
                "dt": 1e-2,
                "output_path": str(out),
            },
        )
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["simulate", cfg]) == 3
        _, rows = read_csv(out)
        assert len(rows) == 1 and rows[0][-1] == "boundary"

    def test_complex_observable_conserved(self, tmp_path):
        out = tmp_path / "traj.csv"
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "system": {"name": "diagonal", "n": 2, "energies": [-1.0, 1.0],
                           "constraints": [{"kind": "observable", "matrix": SIGMA_Y}]},
                "initial_point": {"q": [0.9], "p": [0.3]},
                "t_end": 1.0,
                "dt": 1e-2,
                "output_path": str(out),
            },
        )
        assert main(["simulate", cfg]) == 0
        header, rows = read_csv(out)
        table = np.array([[float(row[header.index(k)]) for k in ("q_1", "p_1", "phi_1")] for row in rows])
        q, p, phi = table.T
        sy = 2.0 * np.sqrt(p * (1.0 - p)) * np.sin(q)  # <sigma_y> in the chart
        assert abs(phi[0] - 2.0 * math.sqrt(0.3 * 0.7) * math.sin(0.9)) < 1e-14
        assert np.abs(phi - phi[0]).max() < 1e-10
        assert np.abs(sy - sy[0]).max() < 1e-10

    def test_unknown_system_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"system": {"name": "bogus"}})
        assert main(["simulate", cfg]) == 2

    def test_command_mismatch_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", {"system": {"name": "spin-half-sx"}, "command": "field"}
        )
        assert main(["simulate", cfg]) == 2


class TestConfigErrors:
    """Bad entries exit 2 with a message instead of a traceback."""

    def run(self, tmp_path, capsys, command, payload, *flags):
        code = main([command, write_config(tmp_path / "cfg.json", payload), *flags])
        assert "config error:" in capsys.readouterr().err
        return code

    @pytest.mark.parametrize("entry", [{"t_end": float("nan")}, {"dt": float("inf")}])
    def test_non_finite_times(self, tmp_path, capsys, surface_start, entry):
        payload = {"system": {"name": "two-qubit-product"}, "initial_point": surface_start,
                   "output_path": str(tmp_path / "out.csv"), **entry}
        assert self.run(tmp_path, capsys, "simulate", payload) == 2

    @pytest.mark.parametrize("flags", [("--t-end", "nan"), ("--dt", "inf")])
    def test_non_finite_time_overrides(self, tmp_path, capsys, surface_start, flags):
        payload = {"system": {"name": "two-qubit-product"}, "initial_point": surface_start,
                   "output_path": str(tmp_path / "out.csv")}
        assert self.run(tmp_path, capsys, "simulate", payload, *flags) == 2

    @pytest.mark.parametrize("value", ["abc", 2.5])
    def test_non_integer_num_points(self, tmp_path, capsys, value):
        payload = {"system": {"name": "spin-half-sx"}, "num_points": value}
        assert self.run(tmp_path, capsys, "check", payload) == 2

    def test_non_integer_seed(self, tmp_path, capsys):
        payload = {"system": {"name": "spin-half-sx"}, "num_points": 2, "seed": "x"}
        assert self.run(tmp_path, capsys, "check", payload) == 2

    def test_unwritable_output_path(self, tmp_path, capsys):
        payload = {"system": {"name": "spin-half-sx"}, "num_points": 2,
                   "output_path": str(tmp_path / "missing" / "report.json")}
        assert self.run(tmp_path, capsys, "check", payload) == 2

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            ("check", {"system": {"name": "spin-half-sx"}, "points": [{"q": [0.1, 0.2], "p": [0.3, 0.2]}]}, ""),
            ("check", {"system": {"name": "spin-half-sx"}, "points": [{"q": [0.1], "p": [1.5]}]}, ""),
            ("check", {"system": {"name": "spin-half-sx"}, "points": [], "num_points": 3}, ""),
            ("field", {"system": {"name": "spin-half-sx"}, "grid": [1, 2], "output_path": "unused.csv"}, ""),
            ("check", {"system": {"name": "diagonal", "n": 2, "energies": [1.0, 0.0], "constraints": 5}}, ""),
            ("check", {"system": {"name": "diagonal", "n": 2, "energies": [1.0, 0.0], "constraints": [1]}}, ""),
            ("check", {"system": {"name": "diagonal", "n": 3, "energies": [1.0, 0.5, 0.0],
                                  "constraints": [{"kind": "observable", "matrix": [[0, 1], [1, 0]]}]}},
             "observable matrix must be 3 x 3"),
            ("check", {"system": {"name": "diagonal", "n": [3], "energies": [1.0, 0.5, 0.0]}}, ""),
            ("check", {"system": {"name": "diagonal", "n": 2, "energies": [-1.0, 1.0],
                                  "constraints": [{"kind": "observable",
                                                   "matrix": [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]}]}}, ""),
            ("check", NAN_OBSERVABLE, ""),
            ("field", {**NAN_OBSERVABLE, "grid": {"kind": "chart", "q_min": 0.5, "q_max": 1.5, "q_count": 2,
                                                  "p_min": 0.2, "p_max": 0.8, "p_count": 2},
                       "output_path": "unused.csv"}, ""),
            ("simulate", {**NAN_OBSERVABLE, "initial_point": {"q": [0.9], "p": [0.3]}, "output_path": "unused.csv"}, ""),
            # the fixed-constraint rule comes before any entry is parsed
            ("check", {"system": {"name": "two-qubit-product",
                                  "constraints": [{"kind": "observable", "matrix": np.eye(4).tolist()}]}},
             "system 'two-qubit-product' has fixed constraints"),
            # a batch where one point belongs: check used to end in a
            # ChartDomainError traceback, simulate in a reshape error
            ("check", {"system": {"name": "spin-half-sx"}, "points": [BATCH_POINT]},
             "bad points entry: q and p must be flat lists"),
            ("simulate", {"system": {"name": "spin-half-sx"}, "initial_point": BATCH_POINT,
                          "output_path": "unused.csv"}, "bad initial_point: q and p must be flat lists"),
            # a constraint name that is not a string used to end in a
            # TypeError traceback once the Gram matrix at this sigma_x
            # eigenstate was found singular
            ("simulate", sx_eigenstate_run(5), "name must be a string, got 5"),
            ("simulate", sx_eigenstate_run(None), "name must be a string, got None"),
            # a missing key or a non-object point is named, not reported
            # as the bare text of a KeyError or TypeError
            ("check", {"system": {"name": "diagonal", "n": 2, "energies": [-1.0, 1.0],
                                  "constraints": [{"kind": "observable"}]}},
             'an observable constraint needs a "matrix" entry'),
            ("check", {"system": {"name": "spin-half-sx"}, "points": [3]},
             "points entry must be an object with q and p, got 3"),
            ("check", {"system": {"name": "spin-half-sx"}, "points": [{"q": [0.9]}]},
             "points entry must be an object with q and p, got {'q': [0.9]}"),
            ("simulate", {"system": {"name": "spin-half-sx"}, "initial_point": [[0.9], [0.3]],
                          "output_path": "unused.csv"},
             "initial_point must be an object with q and p, got [[0.9], [0.3]]"),
            # a worked system keeps its own n, and the spin its own
            # energies: these used to run as if the key were absent
            ("simulate", {"system": {"name": "spin-half-sx", "energies": [5, 6]},
                          "initial_point": {"q": [0.9], "p": [0.3]}, "output_path": "unused.csv"},
             "system 'spin-half-sx' has fixed energies"),
            ("check", {"system": {"name": "spin-half-sx", "n": 7}}, "system 'spin-half-sx' has n = 2, got 7"),
            ("check", {"system": {"name": "two-qubit-product", "n": 9}},
             "system 'two-qubit-product' has n = 4, got 9"),
        ],
        ids=["point-pairs", "point-outside-chart", "points-empty", "grid-not-object", "constraints-not-list",
             "constraint-not-object", "observable-not-n-by-n", "n-not-integer", "observable-pairs-not-hermitian",
             "observable-not-finite-check", "observable-not-finite-field", "observable-not-finite-simulate",
             "observable-on-fixed-system", "points-entry-batch", "initial-point-batch", "name-number",
             "name-null", "observable-no-matrix", "points-entry-not-object", "points-entry-no-p",
             "initial-point-not-object", "spin-energies", "spin-n", "two-qubit-n"],
    )
    def test_malformed_entries(self, tmp_path, capsys, command, payload, message):
        assert main([command, write_config(tmp_path / "cfg.json", payload)]) == 2
        assert "config error: " + message in capsys.readouterr().err

    def test_non_finite_observable_named(self, tmp_path, capsys):
        # simulate used to exit 2 here too, but with "SVD did not converge"
        payload = {**NAN_OBSERVABLE, "initial_point": {"q": [0.9], "p": [0.3]},
                   "output_path": str(tmp_path / "out.csv")}
        assert main(["simulate", write_config(tmp_path / "cfg.json", payload)]) == 2
        assert "observable matrix must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, entry",
        [
            ("simulate", {"projection": "false"}),
            ("simulate", {"projection": 0}),
            ("simulate", {"constraints": "off"}),
            ("field", {"grid": {"q_count": 2.7}}),
            ("field", {"grid": {"p_count": True}}),
            ("field", {"grid": {"q_min": True}}),
            ("field", {"grid": {"p_max": "0.9"}}),
            ("check", {"index": 1.9}),
            ("check", {"index": True}),
        ],
        ids=["projection-string", "projection-integer", "constraints-off", "count-fractional",
             "count-boolean", "axis-min-boolean", "axis-max-string", "index-fractional", "index-boolean"],
    )
    def test_bad_values(self, tmp_path, capsys, command, entry):
        # each of these used to be coerced and run with exit 0
        out = str(tmp_path / "out.csv")
        if command == "simulate":
            payload = {"system": {"name": "spin-half-sx"}, "initial_point": {"q": [0.9], "p": [0.3]},
                       "t_end": 0.2, "dt": 0.1, "output_path": out, **entry}
        elif command == "field":
            grid = {"kind": "chart", "q_min": 0.5, "q_max": 1.5, "q_count": 3,
                    "p_min": 0.2, "p_max": 0.8, "p_count": 3, **entry["grid"]}
            payload = {"system": {"name": "spin-half-sx"}, "grid": grid, "output_path": out}
        else:
            population = {"kind": "population", **entry}
            payload = {"system": {"name": "diagonal", "n": 3, "energies": [1.0, 0.5, 0.0],
                                  "constraints": [population]}, "num_points": 2}
        assert self.run(tmp_path, capsys, command, payload) == 2

    def test_constraints_on_named_system(self, tmp_path, capsys):
        payload = {"system": {"name": "spin-half-sx", "constraints": [{"kind": "population", "index": 1}]},
                   "num_points": 2}
        assert self.run(tmp_path, capsys, "check", payload) == 2


class TestField:
    def sphere_grid(self, counts=(24, 24)):
        return {
            "kind": "angular",
            "theta_min": math.pi / 26,
            "theta_max": 24 * math.pi / 26,
            "theta_count": counts[0],
            "phi_min": 0.0,
            "phi_max": 2 * math.pi * 23 / 24,
            "phi_count": counts[1],
        }

    def test_fixed_point_circles(self, tmp_path):
        out = tmp_path / "field.csv"
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "system": {"name": "spin-half-sx"},
                "grid": self.sphere_grid(),
                "output_path": str(out),
            },
        )
        assert main(["field", cfg]) == 0
        header, rows = read_csv(out)
        assert header == ["theta", "phi", "theta_dot", "phi_dot", "flag"]
        assert len(rows) == 24 * 24
        singular = [row for row in rows if row[-1] == "singular"]
        assert len(singular) == 2  # the two genuinely singular nodes
        for row in singular:
            assert row[2] == "nan" and row[3] == "nan"
        for row in rows:
            if row[-1] != "ok":
                continue
            theta, phi = float(row[0]), float(row[1])
            norm = math.hypot(float(row[2]), float(row[3]))
            if abs(theta - math.pi / 2) < 1e-12:
                assert norm < 1e-10
            if min(abs(phi - math.pi / 2), abs(phi - 3 * math.pi / 2)) < 1e-12:
                assert norm < 1e-10

    def test_single_point_grid(self, tmp_path):
        out = tmp_path / "one.csv"
        grid = {
            "kind": "angular",
            "theta_min": 1.0,
            "theta_max": 1.0,
            "theta_count": 1,
            "phi_min": 2.0,
            "phi_max": 2.0,
            "phi_count": 1,
        }
        cfg = write_config(
            tmp_path / "cfg.json",
            {"system": {"name": "spin-half-sx"}, "grid": grid, "output_path": str(out)},
        )
        assert main(["field", cfg]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1

    def test_chart_grid(self, tmp_path):
        out = tmp_path / "chart.csv"
        grid = {
            "kind": "chart",
            "q_min": 0.3,
            "q_max": 2.8,
            "q_count": 5,
            "p_min": 0.2,
            "p_max": 0.8,
            "p_count": 4,
        }
        cfg = write_config(
            tmp_path / "cfg.json",
            {"system": {"name": "spin-half-sx"}, "grid": grid, "output_path": str(out)},
        )
        assert main(["field", cfg]) == 0
        header, rows = read_csv(out)
        assert header[:2] == ["q", "p"]
        assert len(rows) == 20

    def test_constraints_none_writes_free_field(self, tmp_path):
        out = tmp_path / "free.csv"
        grid = {"kind": "chart", "q_min": 1.1, "q_max": 1.1, "q_count": 1, "p_min": 0.33, "p_max": 0.33, "p_count": 1}
        cfg = write_config(
            tmp_path / "cfg.json",
            {"system": {"name": "spin-half-sx"}, "constraints": "none", "grid": grid, "output_path": str(out)},
        )
        assert main(["field", cfg]) == 0
        _, rows = read_csv(out)
        free = schrodinger_field(ChartPoint([1.1], [0.33]), single_spin_conserved_sx())
        assert [float(v) for v in rows[0][2:4]] == list(free)

    def test_pole_rows_read_singular(self, tmp_path):
        # the theta = 1e-12 and pi - 1e-12 rows fail the chart guard inside
        # the batch; the other nodes keep clear of the singular points
        out = tmp_path / "poles.csv"
        grid = {"kind": "angular", "theta_min": 1e-12, "theta_max": math.pi - 1e-12, "theta_count": 4,
                "phi_min": 0.0, "phi_max": 1.5 * math.pi, "phi_count": 4}
        cfg = write_config(
            tmp_path / "cfg.json",
            {"system": {"name": "spin-half-sx"}, "grid": grid, "output_path": str(out)},
        )
        assert main(["field", cfg]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 16
        for row in rows:
            theta, phi = float(row[0]), float(row[1])
            if theta < 1e-6 or theta > math.pi - 1e-6:
                assert row[2:] == ["nan", "nan", "singular"]
                continue
            assert row[-1] == "ok"
            expected = cf.spin_angular_field(theta, phi)
            assert [float(v) for v in row[2:4]] == pytest.approx(expected, abs=1e-12)

    def test_singular_node_csv_bytes(self, tmp_path):
        # the middle theta row holds the singular points (pi/2, 0) and
        # (pi/2, pi); rows read as "%.17g" % v per cell, nan,nan,singular there
        spin = single_spin_conserved_sx()
        out = tmp_path / "field.csv"
        grid = {"kind": "angular", "theta_min": math.pi / 2 - 0.5, "theta_max": math.pi / 2 + 0.5,
                "theta_count": 3, "phi_min": 0.0, "phi_max": 1.5 * math.pi, "phi_count": 4}
        cfg = write_config(tmp_path / "cfg.json",
                           {"system": {"name": "spin-half-sx"}, "grid": grid, "output_path": str(out)})
        assert main(["field", cfg]) == 0
        nodes = np.array([(a, b) for a in np.linspace(math.pi / 2 - 0.5, math.pi / 2 + 0.5, 3)
                          for b in np.linspace(0.0, 1.5 * math.pi, 4)])
        point = ChartPoint.from_coords(angular_coords(nodes[:, 0], nodes[:, 1]))
        rates = np.stack(pushforward_to_angular(point, constrained_field(point, spin)), axis=-1)
        lines = ["theta,phi,theta_dot,phi_dot,flag"]
        for (a, b), rate in zip(nodes, rates):
            if np.isfinite(rate).all():
                lines.append(",".join(["%.17g" % v for v in (a, b, *rate)] + ["ok"]))
            else:
                lines.append(",".join(["%.17g" % a, "%.17g" % b, "nan", "nan", "singular"]))
        assert [line.endswith(",nan,nan,singular") for line in lines[1:]] == [False] * 4 + [True, False] * 2 + [False] * 4
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_grid_outside_chart_exits_2(self, tmp_path):
        grid = self.sphere_grid()
        grid["theta_max"] = 4.0  # beyond the pole
        cfg = write_config(
            tmp_path / "cfg.json",
            {"system": {"name": "spin-half-sx"}, "grid": grid, "output_path": str(tmp_path / "x.csv")},
        )
        assert main(["field", cfg]) == 2


class TestCheck:
    @pytest.mark.parametrize("name", ["two-qubit-product", "spin-half-sx"])
    def test_builds_no_dense_geometry(self, tmp_path, monkeypatch, name):
        # the equivalence diagnostics read the constraint frame alone
        def refuse(point):
            raise AssertionError("check built the dense geometry")

        for module in list(sys.modules.values()):
            if module.__name__.split(".")[0] == "projflow" and hasattr(module, "geometry_at"):
                monkeypatch.setattr(module, "geometry_at", refuse)
        out = tmp_path / "check.json"
        cfg = write_config(tmp_path / "cfg.json", {"system": {"name": name}, "num_points": 8, "output_path": str(out)})
        assert main(["check", cfg]) == 0
        assert json.loads(out.read_text())["points"]

    def test_two_qubit_equivalent(self, tmp_path):
        out = tmp_path / "check.json"
        cfg = write_config(
            tmp_path / "cfg.json",
            {"system": {"name": "two-qubit-product"}, "num_points": 8, "output_path": str(out)},
        )
        assert main(["check", cfg]) == 0
        payload = json.loads(out.read_text())
        assert payload["aggregate"]["verdict"] == "equivalent"
        assert all(pt["tau_sign"] == "plus" for pt in payload["points"])

    def test_spin_not_equivalent(self, tmp_path):
        out = tmp_path / "check.json"
        cfg = write_config(
            tmp_path / "cfg.json",
            {"system": {"name": "spin-half-sx"}, "num_points": 8, "output_path": str(out)},
        )
        assert main(["check", cfg]) == 0  # the verdict is data, not an error
        payload = json.loads(out.read_text())
        assert payload["aggregate"]["verdict"] == "not_equivalent"
        assert payload["aggregate"]["max_right_annihilation_residual"] < 1e-10

    def test_single_generic_constraint_not_equivalent(self, tmp_path):
        out = tmp_path / "check.json"
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "system": {
                    "name": "diagonal",
                    "n": 2,
                    "energies": [1.0, 0.0],
                    "constraints": [{"kind": "population", "index": 1}],
                },
                "num_points": 5,
                "output_path": str(out),
            },
        )
        assert main(["check", cfg]) == 0
        payload = json.loads(out.read_text())
        assert payload["aggregate"]["verdict"] == "not_equivalent"

    def test_constraints_none_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"system": {"name": "spin-half-sx"}, "constraints": "none", "points": [{"q": [1.1], "p": [0.33]}]},
        )
        assert main(["check", cfg]) == 2
        assert "check needs a system with constraints" in capsys.readouterr().err

    def test_complex_observable_not_equivalent(self, tmp_path):
        out = tmp_path / "check.json"
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "system": {"name": "diagonal", "n": 2, "energies": [-1.0, 1.0],
                           "constraints": [{"kind": "observable", "matrix": SIGMA_Y}]},
                "num_points": 5,
                "output_path": str(out),
            },
        )
        assert main(["check", cfg]) == 0
        payload = json.loads(out.read_text())
        assert payload["aggregate"]["verdict"] == "not_equivalent"
        assert payload["aggregate"]["points_checked"] == 5

    def test_explicit_singular_point_reported(self, tmp_path):
        out = tmp_path / "check.json"
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "system": {"name": "spin-half-sx"},
                "points": [
                    {"q": [0.0], "p": [0.5]},
                    {"q": [1.0], "p": [0.3]},
                ],
                "output_path": str(out),
            },
        )
        assert main(["check", cfg]) == 0
        payload = json.loads(out.read_text())
        assert payload["points"][0]["status"] == "singular"
        assert payload["aggregate"]["singular_excluded"] == 1


class TestCheckWriter:
    """check writes its entries through one template per chart size; the
    bytes are _json_dump of the report assembled point by point, from the
    points drawn one at a time."""

    def run(self, tmp_path, config):
        out = tmp_path / "check.json"
        assert main(["check", write_config(tmp_path / "cfg.json", dict(config, output_path=str(out)))]) == 0
        return out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_random_constraints(self, tmp_path, n, count):
        rng = np.random.default_rng(10 * n + count)
        energies = rng.uniform(-2.0, 2.0, size=n).tolist()
        matrices = []
        for _ in range(count):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            matrices.append(0.5 * (a + a.conj().T))
        specs = [{"kind": "observable", "matrix": np.stack([h.real, h.imag], axis=-1).tolist(), "name": "c%d" % k}
                 for k, h in enumerate(matrices)]
        seed = 3 * n + count
        text = self.run(tmp_path, {"system": {"name": "diagonal", "n": n, "energies": energies,
                                              "constraints": specs}, "num_points": 4, "seed": seed})
        system = diagonal_system(n, energies, [observable_constraint(h, "c%d" % k) for k, h in enumerate(matrices)])
        draws = np.random.default_rng(seed)
        points = [cf.uniform_interior_point(draws, n - 1) for _ in range(4)]
        assert text == cli._json_dump(cf.check_payload(system, seed, points)) + "\n"
        # at n = 2 three constraints are dependent, and every point is singular
        signs = {entry["tau_sign"] for entry in json.loads(text)["points"] if "status" not in entry}
        assert signs <= ({"plus", "minus", "neither"} if count == 2 else {None})

    def test_all_points_singular(self, tmp_path):
        """A duplicated constraint makes every Gram matrix singular: no
        point is checked and the maxima read 0."""
        population = {"kind": "population", "index": 1}
        text = self.run(tmp_path, {"system": {"name": "diagonal", "n": 3, "energies": [0.5, -1.0, 2.0],
                                              "constraints": [population, population]},
                                   "num_points": 5, "seed": 8})
        system = diagonal_system(3, [0.5, -1.0, 2.0], [diagonal_observable([1.0, 0.0, 0.0], "p1")] * 2)
        draws = np.random.default_rng(8)
        points = [cf.uniform_interior_point(draws, 2) for _ in range(5)]
        assert text == cli._json_dump(cf.check_payload(system, 8, points)) + "\n"
        payload = json.loads(text)
        assert all(entry["status"] == "singular" for entry in payload["points"])
        assert payload["aggregate"] == {"verdict": "not_equivalent", "points_checked": 0, "singular_excluded": 5,
                                        "max_j_invariance_residual": 0, "max_right_annihilation_residual": 0}

    def test_explicit_spin_points(self, tmp_path):
        coords = [(0.0, 0.5), (1.0, 0.3), (math.pi, 0.5), (2.5, 0.8)]
        text = self.run(tmp_path, {"system": {"name": "spin-half-sx"},
                                   "points": [{"q": [q], "p": [p]} for q, p in coords]})
        points = [ChartPoint([q], [p]) for q, p in coords]
        assert text == cli._json_dump(cf.check_payload(single_spin_conserved_sx(), 0, points)) + "\n"
        assert [entry.get("status") for entry in json.loads(text)["points"]] == ["singular", None, "singular", None]

    @pytest.mark.parametrize("name", ["two-qubit-product", "spin-half-sx"])
    def test_sampled_points(self, tmp_path, name):
        """Seed 4 rejects the spin system's ninth draw."""
        text = self.run(tmp_path, {"system": {"name": name}, "num_points": 16, "seed": 4})
        if name == "spin-half-sx":
            system, points = single_spin_conserved_sx(), cf.spin_check_points(4, 16)
        else:
            system, points = two_qubit_product_system(), [cf.uniform_product_surface_point(4 + i) for i in range(16)]
        assert text == cli._json_dump(cf.check_payload(system, 4, points)) + "\n"


def test_json_dump_bytes():
    """Floats in 17 significant digits whatever their type, integers and
    bools as JSON, and strings escaped as json.dumps escapes them."""
    for value, expected in ((0.1, "0.10000000000000001"), (np.float64(0.1), "0.10000000000000001"),
                            (np.float32(0.5), "0.5"), (7, "7"), (np.int64(-7), "-7"), (True, "true"),
                            (False, "false"), (None, "null"), ({}, "{}"), ([], "[]"), ((), "[]")):
        assert cli._json_dump(value) == expected
    assert cli._json_dump({"a": [1, np.float64(2.5)], "b": {}, "c": None}) == (
        '{\n  "a": [\n    1,\n    2.5\n  ],\n  "b": {},\n  "c": null\n}')
    for text in ("plain", 'a "quoted" \\ path', "\u00fcnicode \u2713", "tab\tnew\nline\x00", np.str_("numpy")):
        assert cli._json_dump(text) == json.dumps(str(text))


class TestValidate:
    @pytest.mark.parametrize("name", ["spin-half-sx", "two-qubit-product"])
    def test_systems_pass(self, tmp_path, name):
        out = tmp_path / "validate.json"
        cfg = write_config(
            tmp_path / "cfg.json",
            {"system": {"name": name}, "num_points": 10, "seed": 5, "output_path": str(out)},
        )
        assert main(["validate", cfg]) == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        for check in payload["checks"]:
            assert check["tolerance"] == 1e-8
            assert check["max_residual"] < 1e-8

    @pytest.mark.parametrize("n", [48, 65])
    def test_high_dimension_passes(self, tmp_path, n):
        """The Nijenhuis check is exact, so a correct geometry passes at
        any n; a finite-difference stencil erred by more than 1e-4 here."""
        out = tmp_path / "validate.json"
        cfg = write_config(tmp_path / "cfg.json", {
            "system": {"name": "diagonal", "n": n, "energies": [0.1 * i for i in range(n)]},
            "num_points": 3, "seed": 0, "output_path": str(out)})
        assert main(["validate", cfg]) == 0
        by_name = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert by_name["nijenhuis"]["max_residual"] <= 1e-12

    def test_bad_name_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"system": {"name": "nope"}})
        assert main(["validate", cfg]) == 2

    def test_deterministic_json(self, tmp_path):
        payload = {
            "system": {"name": "spin-half-sx"},
            "num_points": 5,
            "seed": 9,
            "output_path": str(tmp_path / "a.json"),
        }
        cfg = write_config(tmp_path / "cfg.json", payload)
        assert main(["validate", cfg]) == 0
        assert main(["validate", cfg, "--output", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


    def test_peak_memory_flat_in_point_count(self, tmp_path):
        """At n = 32 one point's Nijenhuis tensor, dim^3 = 238,328 entries,
        already exceeds cli.BATCH_ENTRIES, so eight points take eight passes
        and peak no higher than one point."""

        def peak(num_points):
            cfg = write_config(tmp_path / "cfg.json", {
                "system": {"name": "diagonal", "n": 32, "energies": list(range(32))},
                "num_points": num_points, "output_path": str(tmp_path / "out.json")})
            tracemalloc.start()
            try:
                assert main(["validate", cfg]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) < 1.1 * peak(1)


@pytest.mark.parametrize("command, system", [("check", "spin-half-sx"), ("check", "two-qubit-product"),
                                             ("validate", "spin-half-sx"), ("validate", "two-qubit-product")])
def test_batch_size_does_not_change_output(tmp_path, monkeypatch, command, system):
    """One point per pass writes the same bytes as the default single pass."""
    cfg = write_config(tmp_path / "cfg.json", {"system": {"name": system}, "num_points": 7, "seed": 4,
                                               "output_path": str(tmp_path / "one-pass.json")})
    assert main([command, cfg]) == 0
    monkeypatch.setattr(cli, "BATCH_ENTRIES", 1)
    assert main([command, cfg, "--output", str(tmp_path / "per-point.json")]) == 0
    assert (tmp_path / "one-pass.json").read_bytes() == (tmp_path / "per-point.json").read_bytes()


def test_flag_overrides(tmp_path, surface_start):
    out = tmp_path / "t.csv"
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "system": {"name": "two-qubit-product"},
            "initial_point": surface_start,
            "t_end": 5.0,
            "dt": 1e-2,
            "output_path": str(out),
        },
    )
    assert main(["simulate", cfg, "--t-end", "0.05"]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 6
    assert main(["simulate", cfg, "--t-end", "0.05", "--no-projection", "--dt", "0.025"]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 3
    assert main(["--t-end", "0.05", "simulate", cfg]) == 0  # options may precede the command
    _, rows = read_csv(out)
    assert len(rows) == 6


def test_unknown_command_exits_2(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"system": {"name": "spin-half-sx"}})
    with pytest.raises(SystemExit) as exc:
        main(["bogus", cfg])
    assert exc.value.code == 2


def readme_cli_examples():
    """(command, config) for every json block of the README's CLI section,
    the command read from the last `projflow <command>` line before it."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## CLI\n"):text.index("\n## Library example\n")]
    examples = []
    command = None
    for match in re.finditer(r"projflow (\w+) \S+\.json|```json\n(.*?)```", section, re.S):
        if match.group(1):
            command = match.group(1)
        else:
            examples.append((command, json.loads(match.group(2))))
    return examples


@pytest.mark.parametrize("command, config", readme_cli_examples())
def test_readme_examples_run(tmp_path, command, config):
    output = tmp_path / Path(config["output_path"]).name
    flags = ["--t-end", "0.05"] if command == "simulate" else []
    assert main([command, write_config(tmp_path / "cfg.json", dict(config, output_path=str(output))), *flags]) == 0
    assert output.exists()
