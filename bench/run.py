"""The zetastokes benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds T] [--trace 0|1]

Run from the root of a source checkout: the library is imported from src/.
Every pass of the workload runs in a fresh single-threaded process at 60
digits, with cold caches, as one ``zeta`` invocation would.  Passes repeat
for about T seconds, and at least MIN_ROUNDS times.  The machine is shared,
and other tenants slow whole runs by up to half, so every timed step is
rescaled by a fixed probe of the host's speed run next to it (see
hostspeed.py), and each point's time is the median over the passes.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced ones, after a
self-check: the traced outputs must equal the untraced ones bit for bit, and
the exact call counts must match the ones this benchmark was built on.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the full report, with the environment, the host's speed, the unscaled
timings, the tail percentile and its sample count, the failures and the
self-check.  The layers are single-threaded and hand work to each other by
direct calls, with no queue: no layer waits on another, so no wait time is
reported.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")

from hostspeed import PROBE_REF_S, probe, rescale  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, points  # noqa: E402

SETUP_REPEATS = 7
MIN_ROUNDS = 3         # rounds of passes, so that every point has a median
MIN_TRACED_ROUNDS = 2  # with --trace 1, where a round is two passes
TIME_LIMIT_S = 170     # the whole invocation, references and set-up included
TAIL_BEYOND = 10       # samples the tail percentile must leave beyond it

# end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "point_s.p50": "s",
    "point_s.tail": "s",
    "passed_frac": "frac",
    "peak_rss_mb": "MB",
}

# per-layer metrics: (function, stat); stat is calls, self_s, errors or
# distinct_ratio.  Counts are per pass; self_s is rescaled by the pass's
# probes and is the median over passes.
PER_LAYER = [
    ("terminant.upper_gamma.generic", "calls"),
    ("terminant.upper_gamma.generic", "self_s"),
    ("terminant.upper_gamma.recurrence", "calls"),
    ("terminant.upper_gamma.recurrence", "self_s"),
    ("terminant.upper_gamma", "distinct_ratio"),
    ("terminant.upper_gamma", "errors"),
    ("terminant.terminant", "calls"),
    ("hp.hurwitz_zeta_integer", "calls"),
    ("hp.hurwitz_zeta_integer", "self_s"),
    ("hp.hurwitz_zeta_integer", "distinct_ratio"),
    ("hp.gamma_complex", "calls"),
    ("hp.gamma_complex", "self_s"),
    ("hp.gamma_complex", "distinct_ratio"),
    ("hp.gamma_complex", "errors"),
    ("hp.pow_ray", "calls"),
    ("hp.pow_ray", "self_s"),
    ("expansion.a_r_coefficient", "calls"),
    ("expansion.a_r_coefficient", "self_s"),
    ("expansion.a_r_coefficient", "distinct_ratio"),
    ("expansion.remainder_rk", "calls"),
    ("expansion.remainder_rk", "self_s"),
    ("expansion.optimal_truncation", "self_s"),
    ("expansion.leading_blocks", "self_s"),
    ("expansion.script_r_k", "self_s"),
    ("expansion.z_improved", "self_s"),
    ("expansion.z_improved", "errors"),
    ("oracle.hurwitz_zeta_direct", "calls"),
    ("oracle.hurwitz_zeta_direct", "self_s"),
    ("oracle.periodic_zeta_direct", "calls"),
    ("oracle.periodic_zeta_direct", "self_s"),
    ("oracle.f_tilde_reference", "calls"),
    ("oracle.f_tilde_reference", "self_s"),
    ("oracle.f_tilde_reference", "distinct_ratio"),
    ("oracle.z_reference", "calls"),
    ("oracle.z_reference", "self_s"),
    ("stokes.stokes_multiplier", "self_s"),
    ("stokes.stokes_multiplier", "errors"),
]
UNITS = {"calls": "count", "self_s": "s", "errors": "count",
         "distinct_ratio": "ratio"}

# exact traced counts at this benchmark's definition (see the self-check)
N2_RECURRENCE_PER_POINT = 4
GRID_DEFAULT_SEED_CALLS = {"terminant.upper_gamma.generic": 152,
                           "terminant.upper_gamma.recurrence": 78}


class BenchError(Exception):
    """The benchmark could not measure: no result is printed."""


def remaining(t_start: float) -> float:
    left = TIME_LIMIT_S - (time.perf_counter() - t_start)
    if left <= 0:
        raise BenchError(f"time limit of {TIME_LIMIT_S} s reached")
    return left


def references(workload: str, seed: int, t_start: float) -> str:
    """Path of the reference file: stored with the benchmark, else made
    once in the checkout's .bench_refs/ by the same command."""
    stored = os.path.join(BENCH, "refs", workload, f"{seed}.json")
    if os.path.exists(stored):
        return stored
    out = os.path.join(ROOT, ".bench_refs")
    made = os.path.join(out, workload, f"{seed}.json")
    if not os.path.exists(made):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "make_refs.py"), workload,
             str(seed), "--out", out],
            capture_output=True, text=True, timeout=remaining(t_start))
        if proc.returncode != 0:
            raise BenchError(f"making references failed:\n{proc.stderr}")
    return made


def time_setup(t_start: float) -> float:
    """Wall time from spawning a process to zetastokes being ready."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, WORKER, "setup"],
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=remaining(t_start))
        finally:
            if proc.poll() is None:
                proc.kill()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError("the set-up process failed")
    return elapsed


def run_pass(workload: str, seed: int, trace: bool, refs: str,
             t_start: float) -> dict:
    proc = subprocess.run(
        [sys.executable, WORKER, "pass", workload, str(seed),
         "1" if trace else "0", refs],
        capture_output=True, text=True, timeout=remaining(t_start))
    if proc.returncode != 0:
        raise BenchError(f"a pass failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail_percentile(points_per_pass: int) -> int:
    """Highest whole percentile leaving TAIL_BEYOND samples beyond it in
    one pass; fixed by the point set, so it does not move with speed."""
    return math.floor(100 * (1 - TAIL_BEYOND / points_per_pass))


def nearest_rank(sorted_values: list, pct: int) -> float:
    return sorted_values[math.ceil(pct / 100 * len(sorted_values)) - 1]


def point_times(passes: list, scaled: bool = True) -> list:
    """Each point's median time over the passes, rescaled by the probes
    around it unless scaled is false; sorted."""
    per_pass = [rescale(p["point_s"], p["probe_s"]) if scaled
                else p["point_s"] for p in passes]
    return sorted(statistics.median(ts) for ts in zip(*per_pass))


def end_to_end(passes: list, setup: list, pct: int) -> dict:
    times = point_times(passes)
    attempted = len(times) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    failed_points = {i for p in passes for i, _ in p["failures"]}
    values = {
        "setup_s": statistics.median(setup),
        "points_per_s": (len(times) - len(failed_points)) / sum(times),
        "point_s.p50": statistics.median(times),
        "point_s.tail": nearest_rank(times, pct),
        "passed_frac": (attempted - failed) / attempted,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer(traced: list, untraced: list) -> dict:
    def stat(p, name):
        return p["stats"].get(name, {"calls": 0, "self_s": 0.0,
                                     "errors": 0, "distinct": 0})

    def pass_scale(p):
        return PROBE_REF_S / statistics.mean(p["probe_s"])

    out = {}
    for name, kind in PER_LAYER:
        first = stat(traced[0], name)
        if kind == "self_s":
            value = statistics.median(stat(p, name)["self_s"] * pass_scale(p)
                                      for p in traced)
        elif kind == "distinct_ratio":
            value = first["distinct"] / first["calls"] if first["calls"] \
                else 0.0
        else:
            value = first[kind]
        out[f"{name}.{kind}"] = {"value": value, "unit": UNITS[kind]}
    rk = stat(traced[0], "expansion.remainder_rk")["calls"]
    zi = stat(traced[0], "expansion.z_improved")["calls"]
    out["expansion.remainder_rk.per_z_improved"] = {
        "value": rk / zi if zi else 0.0, "unit": "ratio"}
    out["trace.overhead_frac"] = {
        "value": sum(point_times(traced)) / sum(point_times(untraced)) - 1,
        "unit": "ratio"}
    return out


def self_check(workload: str, seed: int, traced: list,
               untraced: list) -> list:
    """Problems found: traced outputs must equal untraced ones, and the
    exact counts must repeat and match the ones measured at definition."""
    problems = []
    for p in traced + untraced[1:]:
        if p["values"] != untraced[0]["values"]:
            problems.append("outputs differ between passes")
            break
    calls = [{n: s["calls"] for n, s in p["stats"].items()} for p in traced]
    if any(c != calls[0] for c in calls):
        problems.append("call counts differ between traced passes")
    for i, c in enumerate(traced[0]["per_point_counts"]):
        ug = (c["terminant.upper_gamma.generic"],
              c["terminant.upper_gamma.recurrence"],
              c["terminant.upper_gamma.positive"])
        if workload == "sweep_n1_complex_s" and \
                (c["terminant.terminant"] or any(ug)):
            problems.append(f"point {i}: terminant called on the n=1 sweep")
        if workload == "sweep_n2_integer_s" and \
                ug != (0, N2_RECURRENCE_PER_POINT, 0):
            problems.append(f"point {i}: upper_gamma paths {ug}, expected "
                            f"(0, {N2_RECURRENCE_PER_POINT}, 0)")
    if workload == "exactness_grid" and seed == DEFAULT_SEED:
        for name, want in GRID_DEFAULT_SEED_CALLS.items():
            if calls[0].get(name, 0) != want:
                problems.append(f"{name}: {calls[0].get(name, 0)} calls "
                                f"over the grid, expected {want}")
    return problems


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "zetastokes",
                                       "__init__.py")):
        raise BenchError(f"no zetastokes sources under {ROOT}/src")
    refs = references(workload, seed, t_start)
    setup, setup_probes = [], []
    if not trace:
        probe()  # untimed: the probe's own first run is slower
        setup_probes.append(probe())
        for _ in range(SETUP_REPEATS):
            setup.append(time_setup(t_start))
            setup_probes.append(probe())
    passes = {False: [], True: []}
    kinds = (False, True) if trace else (False,)
    t0 = time.perf_counter()
    longest = 0.0
    min_rounds = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS
    # stop before a round of passes would end past the deadline
    while len(passes[False]) < min_rounds or \
            time.perf_counter() - t0 + longest <= seconds:
        r0 = time.perf_counter()
        for traced in kinds:
            passes[traced].append(run_pass(workload, seed, traced, refs,
                                           t_start))
        longest = max(longest, time.perf_counter() - r0)
    measured = passes[False] + passes[True]
    attempted = sum(len(p["point_s"]) for p in measured)
    failures = [f for p in measured for f in p["failures"]]
    pct = tail_percentile(len(points(workload, seed)))
    report = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "environment": dict(measured[0]["environment"],
                            nproc=len(os.sched_getaffinity(0)),
                            platform=platform.platform()),
        "points_per_pass": len(points(workload, seed)),
        "passes": {"untraced": len(passes[False]),
                   "traced": len(passes[True])},
        "waiting": "none: single-threaded, the layers call each other "
                   "directly and have no queue",
        "failures": failures[:10],
        "worst_relative_miss": max(p["worst_miss"] for p in measured),
        "host_slowdown": statistics.median(
            t for p in measured for t in p["probe_s"]) / PROBE_REF_S,
    }
    if trace:
        problems = self_check(workload, seed, passes[True], passes[False])
        report["self_check"] = problems or "ok"
        metrics = per_layer(passes[True], passes[False])
    else:
        problems = []
        metrics = end_to_end(passes[False], rescale(setup, setup_probes),
                             pct)
        report["point_s.tail"] = f"p{pct} of {report['points_per_pass']} " \
            f"points, each the median of {len(passes[False])} passes"
        raw = point_times(passes[False], scaled=False)
        report["unscaled"] = {"setup_s": statistics.median(setup),
                              "points_per_s": len(raw) / sum(raw),
                              "point_s.p50": statistics.median(raw)}
    report["metrics"] = metrics
    print(json.dumps(report))
    return {"correct": not failures and not problems,
            "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
