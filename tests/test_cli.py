import json
import math

import numpy as np
import pytest

from projflow.cli import main


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
        assert "config error" in capsys.readouterr().err
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
        "command, payload",
        [
            ("check", {"system": {"name": "spin-half-sx"}, "points": [{"q": [0.1, 0.2], "p": [0.3, 0.2]}]}),
            ("check", {"system": {"name": "spin-half-sx"}, "points": [{"q": [0.1], "p": [1.5]}]}),
            ("field", {"system": {"name": "spin-half-sx"}, "grid": [1, 2], "output_path": "unused.csv"}),
            ("check", {"system": {"name": "diagonal", "n": 2, "energies": [1.0, 0.0], "constraints": 5}}),
            ("check", {"system": {"name": "diagonal", "n": 2, "energies": [1.0, 0.0], "constraints": [1]}}),
            ("check", {"system": {"name": "diagonal", "n": 3, "energies": [1.0, 0.5, 0.0],
                                  "constraints": [{"kind": "observable", "matrix": [[0, 1], [1, 0]]}]}}),
            ("check", {"system": {"name": "diagonal", "n": [3], "energies": [1.0, 0.5, 0.0]}}),
        ],
        ids=["point-pairs", "point-outside-chart", "grid-not-object", "constraints-not-list",
             "constraint-not-object", "observable-not-n-by-n", "n-not-integer"],
    )
    def test_malformed_entries(self, tmp_path, capsys, command, payload):
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

    def test_grid_outside_chart_exits_2(self, tmp_path):
        grid = self.sphere_grid()
        grid["theta_max"] = 4.0  # beyond the pole
        cfg = write_config(
            tmp_path / "cfg.json",
            {"system": {"name": "spin-half-sx"}, "grid": grid, "output_path": str(tmp_path / "x.csv")},
        )
        assert main(["field", cfg]) == 2


class TestCheck:
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
        by_name = {c["name"]: c for c in payload["checks"]}
        assert by_name["nijenhuis"]["tolerance"] == 1e-4
        for check_name, check in by_name.items():
            if check_name != "nijenhuis":
                assert check["max_residual"] < 1e-8

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
