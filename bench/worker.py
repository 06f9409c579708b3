"""One cold benchmark process.

    python3 bench/worker.py setup
        imports zetastokes from the checkout's src/, builds the
        PrecisionContext, prints "ready" and exits: the set-up being timed.
    python3 bench/worker.py pass WORKLOAD SEED TRACE REFS
        evaluates every point of the workload once, each checked against
        the reference file REFS, and prints one JSON line: per-point wall
        times, the host-speed probes around them, failures, the exact
        output values and, with TRACE=1, the per-layer statistics.

Each process starts with empty caches, as a ``zeta`` invocation does.
"""
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import zetastokes  # noqa: E402  (the set-up being timed)

CTX = zetastokes.PrecisionContext(digits=60)

if sys.argv[1:] == ["setup"]:
    print("ready", flush=True)
    sys.exit(0)

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import mpmath  # noqa: E402
from mpmath import mpf, mpc  # noqa: E402

from hostspeed import probe  # noqa: E402
from workloads import DIGITS, Evaluator, points  # noqa: E402
from tracer import Tracer  # noqa: E402

# calls counted per point, for the self-check of the traced counts
CHECKED_COUNTS = ("terminant.terminant", "terminant.upper_gamma.generic",
                  "terminant.upper_gamma.recurrence",
                  "terminant.upper_gamma.positive")


def _exact(value) -> str:
    """The value's exact binary representation, for identity checks."""
    return repr(mpc(value)._mpc_)


def _worst_miss(outputs, ref, grid: bool):
    """The largest relative miss: of every output against the stored
    reference and, for the grid, of z_improved against the in-run
    z_reference."""
    checks = [(out, ref) for out in outputs]
    if grid:
        checks.append((outputs[1], outputs[0]))
    return max(abs(got - want) / abs(want) for got, want in checks)


def run_pass(workload: str, seed: int, trace: bool, refs_path: str) -> dict:
    with open(refs_path, encoding="utf-8") as fh:
        refs = json.load(fh)
    pts = points(workload, seed)
    if refs["points"] != pts:
        raise ValueError(f"{refs_path} holds other points than seed {seed}")
    ev = Evaluator(zetastokes, workload, DIGITS)
    tol = CTX.tol()
    grid = workload == "exactness_grid"
    times, failures, values, per_point_counts = [], [], [], []
    worst = 0.0
    probe()  # untimed: the probe's own first run is slower
    probes = [probe()]
    start = time.perf_counter()
    with Tracer() if trace else nullcontext() as tracer:
        for i, (point, ref) in enumerate(zip(pts, refs["values"])):
            before = tracer.counts() if tracer else None
            t0 = time.perf_counter()
            try:
                outputs, error = ev.evaluate(point), None
            except Exception as exc:  # a failed point is counted, not fatal
                outputs, error = None, f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
            probes.append(probe())
            if tracer:
                after = tracer.counts()
                per_point_counts.append(
                    {k: after.get(k, 0) - before.get(k, 0)
                     for k in CHECKED_COUNTS})
            if error:
                failures.append([i, error])
                values.append(None)
                continue
            with CTX.working(10):
                miss = _worst_miss(outputs, mpc(mpf(ref[0]), mpf(ref[1])),
                                   grid)
            if not miss <= tol:
                failures.append([i, f"misses the reference by {float(miss)}"
                                    f" relative (tolerance {float(tol)})"])
            worst = max(worst, float(miss))
            values.append([_exact(v) for v in outputs])
        wall = time.perf_counter() - start
    result = {
        "wall_s": wall,
        "point_s": times,
        "probe_s": probes,
        "failures": failures,
        "worst_miss": worst,
        "values": values,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "environment": {"python": platform.python_version(),
                        "mpmath": mpmath.__version__,
                        "mpmath_backend": mpmath.libmp.BACKEND,
                        "digits": CTX.digits, "guard": CTX.guard},
    }
    if tracer:
        result["stats"] = {
            name: {"calls": st.calls, "self_s": st.self_s,
                   "errors": st.errors, "distinct": len(st.keys)}
            for name, st in tracer.stats.items()}
        result["per_point_counts"] = per_point_counts
    return result


if __name__ == "__main__":
    if len(sys.argv) != 6 or sys.argv[1] != "pass":
        sys.exit("usage: worker.py setup | pass WORKLOAD SEED TRACE REFS")
    _, _, wl, seed_arg, trace_arg, refs_arg = sys.argv
    print(json.dumps(run_pass(wl, int(seed_arg), trace_arg == "1", refs_arg)))
