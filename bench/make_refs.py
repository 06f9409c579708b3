"""Reference values for the benchmark's correctness gate.

    python3 bench/make_refs.py WORKLOAD SEED [SEED ...] [--out DIR]

For each seed, evaluates the workload's points at 110 digits (the worker
runs at 60) and writes DIR/WORKLOAD/SEED.json (DIR defaults to bench/refs)
holding the points, the values to 75 significant digits and this command.
A sweep's reference is S_n itself; the grid's is Z(s, a) by direct
summation (``oracle.z_reference``), independent of the expansion it checks.
The stored files were made from the repository's source at the commit that
added them; ``bench/run.py`` makes missing seeds the same way at run time.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import zetastokes  # noqa: E402
from mpmath import mp  # noqa: E402

from workloads import WORKLOADS, Evaluator, points  # noqa: E402

REF_DIGITS = 110
STORED_DIGITS = 75


def make(workload: str, seed: int) -> dict:
    ev = Evaluator(zetastokes, workload, REF_DIGITS)
    pts = points(workload, seed)
    values = []
    for point in pts:
        value = ev.reference(point)
        values.append([mp.nstr(value.real, STORED_DIGITS),
                       mp.nstr(value.imag, STORED_DIGITS)])
    return {"workload": workload, "seed": seed, "digits": REF_DIGITS,
            "command": f"python3 bench/make_refs.py {workload} {seed}",
            "points": pts, "values": values}


def _dumps(refs: dict) -> str:
    """JSON with one line per point and per value."""
    lines = []
    for key, val in refs.items():
        if isinstance(val, list):
            items = ",\n  ".join(json.dumps(v) for v in val)
            lines.append(f"{json.dumps(key)}: [\n  {items}\n ]")
        else:
            lines.append(f"{json.dumps(key)}: {json.dumps(val)}")
    return "{\n " + ",\n ".join(lines) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--out", default=os.path.join(ROOT, "bench", "refs"))
    args = parser.parse_args(argv)
    os.makedirs(os.path.join(args.out, args.workload), exist_ok=True)
    for seed in args.seeds:
        path = os.path.join(args.out, args.workload, f"{seed}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(_dumps(make(args.workload, seed)))
        os.replace(tmp, path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
