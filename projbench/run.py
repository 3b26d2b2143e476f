"""Run one workload of the projflow benchmark and print its metrics.

    python3 projbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is the projflow package under src/ of the checkout that holds
this file; it is driven in process through projflow.cli.main, one closed-loop
operation at a time, with BLAS pinned to one thread.  Each operation's output
file is checked against projbench.references.  The run repeats whole rounds
of the workload's operations until S seconds have passed, then prints one
JSON line: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: setup_s, ops_per_s, op_ms_p50,
op_ms_p90 and peak_rss_mb (README.md says how each is taken).  --trace 1
wraps projflow's layers (projbench.tracing) and reports per-operation call
counts and self times instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "projbench" / "_work"
# The keys of projbench.workloads.WORKLOADS, which is not imported here: it
# pulls in numpy, whose import belongs inside the timed set-up.
WORKLOAD_NAMES = ("constrained-trajectories", "free-flow-highdim", "pointwise-diagnostics")
# setup_s is the fastest of SETUP_PROBES fresh processes, spread evenly over
# the measured time, because other tenants of a shared host slow a process
# by up to 2x for seconds to minutes at a time (see README.md).
SETUP_PROBES = 20
PROBE_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _import_program():
    """Import projflow.cli from this checkout's src/, and nothing else."""
    if not (SRC / "projflow" / "cli.py").is_file():
        raise SystemExit("projbench: no projflow sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import projflow.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "projflow":
        raise SystemExit("projbench: imported projflow from %s, not %s" % (cli.__file__, SRC))
    return cli


def run_op(cli, op, sink: io.StringIO):
    """Run one CLI invocation; return (seconds, output bytes, error or None)."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(op.output)
    with contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = "exception\n" + traceback.format_exc()
        elapsed = time.perf_counter() - t0
    sink.seek(0)
    sink.truncate()
    if rc != 0:
        return elapsed, 0, "%s exited with %s" % (op.kind, rc)
    from projbench.references import CheckFailed

    try:
        with open(op.output, "r", encoding="utf-8") as fh:
            text = fh.read()
        op.check(text)
    except (OSError, ValueError, KeyError, CheckFailed) as exc:
        return elapsed, 0, "%s: %s: %s" % (op.kind, type(exc).__name__, exc)
    return elapsed, len(text.encode("utf-8")), None


def setup(workload: str, seed: int, workdir: Path):
    """Import the program, write the inputs and run one warm-up op of each
    command kind.  Returns (cli module, round of ops, seconds taken)."""
    t0 = time.perf_counter()
    cli = _import_program()
    from projbench.workloads import build_round

    ops = build_round(workload, seed, str(workdir))
    sink = io.StringIO()
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            _, _, error = run_op(cli, op, sink)
            if error:
                raise SystemExit("projbench: warm-up failed: %s" % error)
    return cli, ops, time.perf_counter() - t0


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--setup-probe"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit("projbench: set-up probe failed:\n%s" % proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def measure(cli, ops, seconds: float, tracer=None, after_round=None):
    """Run whole rounds of ops until they have taken `seconds`.

    after_round(busy), if given, runs after every round with the seconds the
    rounds have taken so far; its own time is not counted.  Returns the op
    times of each round, the errors and the bytes written.
    """
    sink = io.StringIO()
    rounds, errors = [], []
    output_bytes = 0
    busy = 0.0
    while busy < seconds or not rounds:
        start = time.perf_counter()
        times = []
        for op in ops:
            elapsed, size, error = run_op(cli, op, sink)
            if tracer is not None:
                tracer.end_op()
            times.append(elapsed)
            output_bytes += size
            if error:
                errors.append(error)
        busy += time.perf_counter() - start
        rounds.append(times)
        if after_round is not None:
            after_round(busy)
    return rounds, errors, output_bytes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    # Before numpy is first imported; the set-up probes inherit it.
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

    workdir = WORK / ("%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup(args.workload, args.seed, workdir)[2]}))
            return 0
        wanted = 0 if args.trace else SETUP_PROBES
        probes = []

        def probe_when_due(busy: float) -> None:
            while len(probes) < wanted and busy >= len(probes) * args.seconds / wanted:
                probes.append(probe_setup(args.workload, args.seed))

        cli, ops, _ = setup(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            from projbench.tracing import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            rounds, errors, output_bytes = measure(cli, ops, args.seconds, tracer, probe_when_due)
        finally:
            if tracer is not None:
                tracer.uninstall()
        probe_when_due(math.inf)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for error in errors[:5]:
        print("projbench: failed op: %s" % error, file=sys.stderr)
    times = [t for row in rounds for t in row]
    attempted = len(times)
    ops_per_s = attempted / sum(times)
    if args.trace:
        if tracer.absent:
            print("projbench: absent from this version: %s" % ", ".join(tracer.absent), file=sys.stderr)
        values = tracer.metrics()
        values["cli.output_bytes"] = output_bytes / attempted
        values["traced.ops_per_s"] = ops_per_s
        from projbench.tracing import per_layer_metric_names

        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_metric_names()}
    else:
        fastest = [min(column) for column in zip(*rounds)]
        metrics = {
            "setup_s": {"value": min(probes), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "op/s"},
            "op_ms_p50": {"value": 1e3 * statistics.median(fastest), "unit": "ms"},
            "op_ms_p90": {"value": 1e3 * statistics.quantiles(times, n=10)[8], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
