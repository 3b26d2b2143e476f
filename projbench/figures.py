"""Reference timings of single projflow calls, for the benchmark README.

    python3 projbench/figures.py

Prints a markdown table: geometry_at over n = 2, 4, 8, 32, 64 and 128, and
the per-call figures of the ROADMAP baseline table.  Each figure is the
median over 7 repeats of a timed loop, except the two full-period
trajectories (a few seconds each, median of 3).  BLAS is pinned to one
thread, as in run.py.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
import time

from run import BLAS_THREAD_VARS, SRC

REPEATS = 7
TARGET_S = 0.2


def per_call(fn, repeats=REPEATS) -> float:
    """Median seconds per call over `repeats` loops of about TARGET_S each."""
    fn()
    t0 = time.perf_counter()
    fn()
    loops = max(1, int(TARGET_S / max(time.perf_counter() - t0, 1e-7)))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - t0) / loops)
    return statistics.median(samples)


def _fmt(seconds: float) -> str:
    if seconds >= 1.0:
        return "%.2f s" % seconds
    if seconds >= 1e-3:
        return "%.2f ms" % (1e3 * seconds)
    return "%.0f µs" % (1e6 * seconds)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    sys.path.insert(0, str(SRC))
    import numpy as np
    import projflow as pf

    rng = np.random.default_rng(0)
    rows = []
    for n in (2, 4, 8, 32, 64, 128):
        pt = pf.sample_interior_point(rng, n - 1)
        rows.append(("`geometry_at` n=%d" % n, per_call(lambda pt=pt: pf.geometry_at(pt))))
    two_qubit, spin = pf.two_qubit_product_system(), pf.single_spin_conserved_sx()
    surface = pf.product_surface_sample(11)
    bloch = pf.ChartPoint([0.9], [0.3])
    rows += [
        ("`constrained_field` two-qubit", per_call(lambda: pf.constrained_field(surface, two_qubit))),
        ("`constrained_field` spin", per_call(lambda: pf.constrained_field(bloch, spin))),
        ("`gram_matrix` two-qubit", per_call(lambda: pf.gram_matrix(two_qubit.constraints, surface))),
        ("`gram_matrix` spin", per_call(lambda: pf.gram_matrix(spin.constraints, bloch))),
        ("`equivalence_report` two-qubit", per_call(lambda: pf.equivalence_report(surface, two_qubit))),
        ("`equivalence_report` spin", per_call(lambda: pf.equivalence_report(bloch, spin))),
        ("`nijenhuis_residual` n=4", per_call(lambda pt=pf.sample_interior_point(rng, 3): pf.nijenhuis_residual(pt))),
    ]
    free = pf.diagonal_system(4, [1.0, 2.0, 3.0, 0.0])
    x0 = pf.ChartPoint([0.3, 1.1, 2.2], [0.2, 0.3, 0.1])
    rows += [
        ("two-qubit run over 2π, dt=1e-3, projection",
         per_call(lambda: pf.integrate(two_qubit, surface, 2 * math.pi, 1e-3), repeats=3)),
        ("free n=4 run over 2π, dt=1e-3 (6283 steps)",
         per_call(lambda: pf.integrate(free, x0, 2 * math.pi, 1e-3, constraints=()), repeats=3)),
    ]
    print("| what | time |\n| --- | --- |")
    for what, seconds in rows:
        print("| %s | %s |" % (what, _fmt(seconds)))
    print("\nnumpy %s, Python %s, %d CPUs" % (np.__version__, sys.version.split()[0], os.cpu_count()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
