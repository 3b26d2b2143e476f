"""Compare two sets of benchmark runs, such as a parent commit and a change.

    python3 projbench/compare.py BASE.jsonl CHANGE.jsonl

Both files are written by projbench/sweep.py --out.  For every workload and
end-to-end metric it prints each side's median and quartiles, the change in
the median, the share of pairs the change won (runs paired by seed; ties
count for neither side) and a verdict:

  better        the change won at least 90% of the pairs and its median beats
                the base median by more than the base's own q3 - q1;
  worse         the change's median is worse than the base's by more than the
                metric's bound in BENCHMARK.json;
  within bound  neither, and the base's spread (q3 - q1) / median is within
                the bound, so a regression larger than the bound would show;
  unresolved    neither, and the base's spread exceeds the bound.

It also prints the share of failed ops on each side, and the medians of the
per-layer metrics when both files hold traced runs.
"""

from __future__ import annotations

import argparse
import sys

from sweep import group, load_records, load_spec, quartiles

WIN_SHARE = 0.9


def _pairs(workload, base, change):
    by_seed = {r["seed"]: r for r in base}
    paired = [(by_seed[r["seed"]], r) for r in change if r["seed"] in by_seed]
    if not paired:
        raise SystemExit("compare.py: the two sides share no seed on %s" % workload)
    return paired


def verdict(base_vals, change_vals, pairs, better: str, bound: float):
    b1, bmed, b3 = quartiles(base_vals)
    cmed = quartiles(change_vals)[1]
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (cmed - bmed)
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    share = wins / len(pairs)
    if share >= WIN_SHARE and gain > b3 - b1:
        result = "better"
    elif -gain > bound * abs(bmed):
        result = "worse"
    elif (b3 - b1) <= bound * abs(bmed):
        result = "within bound"
    else:
        result = "unresolved"
    return share, result


def _values(recs, name):
    return [r["result"]["metrics"][name]["value"] for r in recs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = load_spec()
    base_all, change_all = load_records(args.base), load_records(args.change)
    base, change = group(base_all, 0), group(change_all, 0)
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in change:
            continue
        b, c = base[workload], change[workload]
        paired = _pairs(workload, b, c)
        shares = [sum(r["result"]["failed"] for r in side) / sum(r["result"]["attempted"] for r in side)
                  for side in (b, c)]
        print("\n== %s: %d base runs, %d change runs; failed ops %.4f%% base, %.4f%% change"
              % (workload, len(b), len(c), 100.0 * shares[0], 100.0 * shares[1]))
        print("%-12s %-5s %30s %30s %8s %6s  %s" % ("metric", "unit", "base median [q1, q3]",
                                                     "change median [q1, q3]", "change", "won", "verdict"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bv, cv = _values(b, name), _values(c, name)
            pairs = [(pb["result"]["metrics"][name]["value"], pc["result"]["metrics"][name]["value"])
                     for pb, pc in paired]
            share, result = verdict(bv, cv, pairs, metric["better"], metric["bound"])
            bq, cq = quartiles(bv), quartiles(cv)
            print("%-12s %-5s %30s %30s %+7.2f%% %5.0f%%  %s" % (
                name, metric["unit"],
                "%.4g [%.4g, %.4g]" % (bq[1], bq[0], bq[2]),
                "%.4g [%.4g, %.4g]" % (cq[1], cq[0], cq[2]),
                100.0 * (cq[1] - bq[1]) / bq[1], 100.0 * share, result))

    tbase, tchange = group(base_all, 1), group(change_all, 1)
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in tbase or workload not in tchange:
            continue
        print("\n== %s per layer (medians, traced runs)" % workload)
        for metric in spec["per_layer"]:
            name = metric["name"]
            bmed = quartiles(_values(tbase[workload], name))[1]
            cmed = quartiles(_values(tchange[workload], name))[1]
            if bmed or cmed:
                print("%-44s %-6s %14.6g %14.6g" % (name, metric["unit"], bmed, cmed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
