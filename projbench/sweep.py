"""Run the benchmark over several seeds and summarise every metric.

    python3 projbench/sweep.py [--runs N] [--first-seed S] [--trace 0|1|both]
                               [--out FILE.jsonl]

Runs projbench/run.py once per (seed, workload, trace mode), seeds
S .. S+N-1 with the workloads interleaved, each run as long as
BENCHMARK.json's run_seconds, and appends each run's result to FILE.jsonl
as it finishes.  It then prints, per workload and trace mode, the
ops attempted and failed and each metric by name with its unit: the median,
the quartiles and the spread (q3 - q1) / median.  With the defaults it runs
every workload once, untraced and traced.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def load_records(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def group(records, trace: int) -> dict:
    """{workload: [records]} for one trace mode, in file order."""
    out = {}
    for rec in records:
        if rec["trace"] == trace:
            out.setdefault(rec["workload"], []).append(rec)
    return out


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=str(ROOT), capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit("run failed (%s):\n%s" % (" ".join(argv), proc.stderr))
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(records) -> None:
    for trace in (0, 1):
        for workload, recs in group(records, trace).items():
            attempted = sum(r["result"]["attempted"] for r in recs)
            failed = sum(r["result"]["failed"] for r in recs)
            correct = all(r["result"]["correct"] for r in recs)
            print("\n== %s (%s, %d runs): attempted %d, failed %d, correct %s"
                  % (workload, "traced" if trace else "untraced", len(recs), attempted, failed, correct))
            print("%-44s %-6s %14s %14s %14s %8s" % ("metric", "unit", "median", "q1", "q3", "spread"))
            for name, entry in recs[0]["result"]["metrics"].items():
                values = [r["result"]["metrics"][name]["value"] for r in recs]
                q1, med, q3 = quartiles(values)
                spread = "%.2f%%" % (100.0 * (q3 - q1) / med) if med and len(values) > 1 else "-"
                print("%-44s %-6s %14.6g %14.6g %14.6g %8s" % (name, entry["unit"], med, q1, q3, spread))


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--out", help="append each run's record to this JSON-lines file")
    args = parser.parse_args(argv)
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)

    records = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace in traces:
                rec = {"workload": workload, "seed": seed, "trace": trace,
                       "result": run_once(spec, workload, seed, trace)}
                records.append(rec)
                print("done %s seed %d trace %d" % (workload, seed, trace), file=sys.stderr)
                if args.out:
                    with open(args.out, "a", encoding="utf-8") as fh:
                        fh.write(json.dumps(rec) + "\n")
    summarise(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
