"""Each output checker accepts the program's real output and rejects a
slightly perturbed copy.  Runs one small round of each workload in process;
no timing is asserted."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from projbench import references
from projbench.tracing import per_layer_metric_names
from projbench.workloads import build_round

cli = pytest.importorskip("projflow.cli")


def _outputs(workload, tmp_path):
    """Run one round; return {kind: (op, output text)} for the first op of each kind."""
    found = {}
    for op in build_round(workload, 7, str(tmp_path)):
        if op.kind in found:
            continue
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(op.argv) == 0
        text = Path(op.output).read_text(encoding="utf-8")
        op.check(text)
        found[op.kind] = (op, text)
    return found


def _perturb_csv(text, row, column, delta):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[column] = "%.17g" % (float(cells[column]) + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "workload, kind",
    [
        ("constrained-trajectories", "simulate-two-qubit"),
        ("constrained-trajectories", "simulate-spin"),
        ("free-flow-highdim", "simulate-free"),
    ],
)
def test_trajectory_checker_rejects_shifted_q(workload, kind, tmp_path):
    op, text = _outputs(workload, tmp_path)[kind]
    with pytest.raises(references.CheckFailed, match="q off the reference"):
        op.check(_perturb_csv(text, -1, 1, 1e-6))


@pytest.mark.parametrize("kind", ["check-two-qubit", "check-spin"])
def test_report_checker_rejects_flipped_verdict(kind, tmp_path):
    op, text = _outputs("pointwise-diagnostics", tmp_path)[kind]
    report = json.loads(text)
    point = report["points"][len(report["points"]) // 2]
    point["verdict"] = "not_equivalent" if point["verdict"] == "equivalent" else "equivalent"
    with pytest.raises(references.CheckFailed, match="judged"):
        op.check(json.dumps(report))


def test_field_checker_rejects_altered_row(tmp_path):
    op, text = _outputs("pointwise-diagnostics", tmp_path)["field-spin"]
    assert text.count(",singular") == 2
    with pytest.raises(references.CheckFailed, match="field at"):
        op.check(_perturb_csv(text, 3, 2, 1e-6))
    regular = next(i for i, line in enumerate(text.splitlines()) if line.endswith(",ok"))
    lines = text.splitlines()
    lines[regular] = ",".join(lines[regular].split(",")[:2] + ["nan", "nan", "singular"])
    with pytest.raises(references.CheckFailed, match="regular node"):
        op.check("\n".join(lines) + "\n")


def test_validate_checker_rejects_failed_check(tmp_path):
    op, text = _outputs("pointwise-diagnostics", tmp_path)["validate-diagonal"]
    report = json.loads(text)
    report["checks"][4]["max_residual"] = 2.0 * report["checks"][4]["tolerance"]
    with pytest.raises(references.CheckFailed, match="nijenhuis"):
        op.check(json.dumps(report))


def test_run_knows_every_workload():
    from projbench import run
    from projbench.workloads import WORKLOADS

    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_metric_names()
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb"]


def test_tracer_reports_a_missing_function_as_absent(monkeypatch):
    from projbench.tracing import Tracer

    equivalence = pytest.importorskip("projflow.equivalence")
    monkeypatch.delattr(equivalence, "tau_analysis")
    tracer = Tracer()
    tracer.install()
    try:
        assert "equivalence.tau_analysis" in tracer.absent
    finally:
        tracer.uninstall()
    tracer.end_op()
    metrics = tracer.metrics()
    assert metrics["equivalence.tau_analysis.calls"] == 0
    assert metrics["equivalence.tau_analysis.self_ms"] == 0.0
