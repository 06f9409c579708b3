"""Checks the tracer against the call counts of the full criterion-2 grid.

    python3 bench/selfcheck.py

The benchmark's grid evaluates each point under one of the three plans (see
workloads.py); acceptance criterion 2 evaluates every point under all
three.  Traced over that full grid at seed 0, upper_gamma must take the
generic path 456 times and the recurrence path 234 times, never the
positive-integer one, and the 81 z_improved calls must make 345
remainder_rk calls: the counts measured when the benchmark was defined.
Every ``bench/run.py --trace 1`` run checks the rest: the per-point counts
of the sweeps, its own grid's counts, and that tracing leaves every output
bit for bit the same.  Takes about 35 s; exits 1 on a mismatch.
"""
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import zetastokes  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, GRID_PLANS, Evaluator, points  # noqa: E402

EXPECTED = {
    "terminant.upper_gamma.generic": 456,
    "terminant.upper_gamma.recurrence": 234,
    "terminant.upper_gamma.positive": 0,
    "expansion.z_improved": 81,
    "expansion.remainder_rk": 345,
}


def main() -> int:
    ev = Evaluator(zetastokes, "exactness_grid")
    with Tracer() as tracer:
        for point in points("exactness_grid", DEFAULT_SEED):
            for plan in range(len(GRID_PLANS)):
                ev.evaluate(dict(point, plan=plan))
    counts = tracer.counts()
    status = 0
    for name, want in EXPECTED.items():
        got = counts.get(name, 0)
        print(f"{name}: {got} calls, expected {want}")
        if got != want:
            status = 1
    print("self-check", "failed" if status else "passed")
    return status


if __name__ == "__main__":
    sys.exit(main())
