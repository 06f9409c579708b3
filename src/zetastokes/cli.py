"""Command-line driver.

Subcommands: ``table1`` (dip-minimum table, optionally checked against the
reference values), ``sweep`` (theta-sweeps of the Stokes multiplier, with
caption-pinned reproduction modes), ``validate`` (identity suites), and
``terminant`` (debug evaluator).  Output is deterministic CSV or JSON;
exit codes: 0 success, 2 config error, 3 numerical-domain error,
4 check/validation failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from mpmath import mp, mpf, mpc

from .errors import ZetaError
from .expansion import TruncationPlan
from .hp import HEADROOM, PRINT_MARGIN, PrecisionContext, RayComplex
from .stokes import find_minimum, sweep_point
from .terminant import terminant
from .validate import run_validation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECK = 4

# dip minima (theta0/pi, S_1 minimum) used by `table1 --check`
TABLE1_ABS_A = (1, 2, 4, 6, 8, 10, 15, 20)
TABLE1_REFERENCE = {
    1: (0.314363, 0.185967),
    2: (0.416139, 0.370072),
    4: (0.459300, 0.529774),
    6: (0.473089, 0.608463),
    8: (0.479894, 0.657472),
    10: (0.483951, 0.691736),
    15: (0.489331, 0.746192),
    20: (0.492010, 0.779264),
}
TABLE1_TOLERANCE = 5e-7

# caption-pinned reproduction configurations
REPRODUCTIONS = {
    "fig1a": {"n": 1, "abs_a": 6.0, "s": mpc(3),
              "theta": (0.3, 0.7, 41),
              "plan": TruncationPlan((17,), (17,), 1)},
    "fig1b": {"n": 1, "abs_a": 8.0, "s": mpc(2, 0.5),
              "theta": (0.3, 0.7, 41),
              "plan": TruncationPlan((25,), (24,), 1)},
    "fig1c": {"n": 2, "abs_a": 6.0, "s": mpc(2),
              "theta": (0.3, 0.7, 41),
              "plan": TruncationPlan((18, 36), (18, 37), 2)},
}


class ConfigError(Exception):
    """Unusable command-line input."""


def _read_reals(text: str, ctx: PrecisionContext, noun: str, shape: str,
                sep: str = ",", counts=(1,)) -> list:
    """The parts of text between the separators sep, each a real decimal
    read by ``ctx.read``, so at ``ctx.working(HEADROOM)``; ConfigError
    unless their number is in counts (naming shape) and each is readable
    (naming noun) and finite."""
    parts = text.split(sep)
    if len(parts) not in counts:
        raise ConfigError(f"expected {shape}, got {text!r}")
    try:
        values = [ctx.read(part).real for part in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"unparseable {noun} {text!r}") from exc
    if not all(mp.isfinite(v) for v in values):
        raise ConfigError(f"non-finite number in {text!r}")
    return values


def _parse_complex(text: str, ctx: PrecisionContext) -> mpc:
    """RE or RE,IM; the parts are joined at the precision they were read
    at, since ``mpc`` rounds them to the ambient one."""
    parts = _read_reals(text, ctx, "complex number", "RE or RE,IM",
                        counts=(1, 2))
    with ctx.working(HEADROOM):
        return mpc(*parts)


def _parse_abs_a(text: str, ctx: PrecisionContext) -> mpf:
    """--abs-a: ``6.1`` is the ray |a| = 6.1, not the double nearest it."""
    (value,) = _read_reals(text, ctx, "--abs-a", "one number")
    if value < 1:
        raise ConfigError(f"--abs-a must be >= 1, got {text!r}")
    return value


def _parse_theta(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"expected LO:HI:COUNT, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"unparseable theta range {text!r}") from exc
    if not (0 < lo < hi < 1):
        raise ConfigError("theta range must satisfy 0 < lo < hi < 1 "
                          "(in units of pi)")
    if count < 2:
        raise ConfigError("theta range needs at least 2 points")
    return lo, hi, count


def _parse_polar(text: str, ctx: PrecisionContext) -> RayComplex:
    modulus, argument = _read_reals(text, ctx, "polar value", "MOD:ARG",
                                    sep=":", counts=(2,))
    if modulus <= 0:
        raise ConfigError("modulus must be positive")
    return RayComplex(modulus, argument)


def _context(digits: int) -> PrecisionContext:
    try:
        return PrecisionContext(digits=digits)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _require_writable(path: str | None) -> None:
    """Reject an output path whose directory is missing or not writable,
    before any work.  It creates and truncates nothing; ``_write_output``
    still reports a write that fails later."""
    if path is None:
        return
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ConfigError(f"cannot write {path!r}: no directory {directory!r}")
    if not os.access(directory, os.W_OK):
        raise ConfigError(f"cannot write {path!r}: directory {directory!r} "
                          "is not writable")


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc


def _nstr(value, digits: int) -> str:
    return mp.nstr(value, digits, strip_zeros=False)


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def run_table1(args) -> int:
    _require_writable(args.out)
    rows = []
    results = []
    for abs_a in TABLE1_ABS_A:
        r = find_minimum(1, abs_a)
        results.append(r)
        rows.append([str(abs_a), f"{r.theta0 / math.pi:.6f}",
                     f"{r.s_min:.6f}"])
    text = _csv(["absA", "theta0_over_pi", "S1_min"], rows)
    _write_output(text, args.out)
    if not args.check:
        return EXIT_OK
    failures = []
    for r in results:
        ref_theta, ref_smin = TABLE1_REFERENCE[int(r.abs_a)]
        d_theta = abs(r.theta0 / math.pi - ref_theta)
        d_smin = abs(r.s_min - ref_smin)
        if d_theta > TABLE1_TOLERANCE or d_smin > TABLE1_TOLERANCE:
            failures.append(
                f"|a|={int(r.abs_a)}: theta0/pi off by {d_theta:.2e}, "
                f"S1_min off by {d_smin:.2e} (tolerance {TABLE1_TOLERANCE})")
    if failures:
        sys.stderr.write("\n".join(failures) + "\n")
        return EXIT_CHECK
    sys.stderr.write(
        f"all {len(results)} rows match the reference table to "
        f"{TABLE1_TOLERANCE}\n")
    return EXIT_OK


def _plan_to_str(plan) -> str:
    if plan is None:
        return ""
    return ";".join(str(n) for n in plan.nk) + "|" \
        + ";".join(str(n) for n in plan.nk_prime)


def _raised_context(smp, digits: int,
                    ctx: PrecisionContext) -> PrecisionContext | None:
    """The context at which smp, computed at ctx, must be computed again
    so that every printed digit is resolved, or None if it already is.

    A part x is printed to ``digits`` significant digits, so it needs
    digits - log10|x| + PRINT_MARGIN resolved digits; the smallest part
    sets the need (Im S_2 reaches 3.6e-8 on fig1c).  ``resolved_digits``
    grows one for one with the working digits, so ctx is raised by the
    shortfall.  A failed point has nothing to print.
    """
    if smp.error is not None:
        return None
    parts = [abs(x) for x in (smp.exact.real, smp.exact.imag) if x]
    need = digits + PRINT_MARGIN - min(
        (float(mp.log10(x)) for x in parts), default=0.0)
    short = need - smp.diagnostics["resolved_digits"]
    if short <= 0:
        return None
    return PrecisionContext(ctx.digits + math.ceil(short))


def run_sweep(args) -> int:
    ctx = _context(args.digits)
    flags = [("--n", args.n), ("--abs-a", args.abs_a),
             ("--s", args.s), ("--theta", args.theta)]
    if args.reproduce:
        given = [flag for flag, val in flags if val is not None]
        if given:
            raise ConfigError(
                "--reproduce pins the configuration; drop "
                + ", ".join(given))
        pinned = REPRODUCTIONS[args.reproduce]
        n, abs_a, s = pinned["n"], pinned["abs_a"], pinned["s"]
        lo, hi, count = pinned["theta"]
        plan = pinned["plan"]
        plan_source = f"pinned:{args.reproduce}"
    else:
        missing = [flag for flag, val in flags if val is None]
        if missing:
            raise ConfigError(
                "sweep needs " + ", ".join(missing) + " (or --reproduce)")
        if args.n < 1:
            raise ConfigError(f"--n must be >= 1, got {args.n}")
        n, s = args.n, _parse_complex(args.s, ctx)
        abs_a = _parse_abs_a(args.abs_a, ctx)
        lo, hi, count = _parse_theta(args.theta)
        plan = None
        plan_source = "least-term (per point)"
    _require_writable(args.out)
    theta_range = (lo * math.pi, hi * math.pi, count)
    # each point runs once at the current context; a short one raises it
    # for itself and every later point, and runs again
    samples, reruns = [], 0
    for j in range(count):
        smp = sweep_point(n, abs_a, s, theta_range, j, ctx, plan)
        raised = _raised_context(smp, args.digits, ctx)
        if raised is not None:
            ctx, reruns = raised, reruns + 1
            smp = sweep_point(n, abs_a, s, theta_range, j, ctx, plan)
        samples.append(smp)
    rows = []
    for smp in samples:
        plan_str = _plan_to_str(smp.plan)
        if smp.error is None:
            re_s = _nstr(smp.exact.real, args.digits)
            im_s = _nstr(smp.exact.imag, args.digits)
            resid = f"{abs(float(smp.exact.real) - smp.approx):.6e}"
        else:
            re_s = im_s = resid = ""
        rows.append([f"{smp.theta / math.pi:.10f}", re_s, im_s,
                     f"{smp.approx:.15f}", resid, plan_str,
                     smp.error or ""])
    header = ["theta_over_pi", "re_S_exact", "im_S_exact", "S_approx",
              "abs_residual", "N_list", "error"]
    if args.format == "csv":
        text = _csv(header, rows)
    else:
        meta = {
            "command": "sweep", "digits": args.digits,
            "s": str(s), "absA": float(abs_a), "n": n,
            "plan_source": plan_source, "reruns": reruns,
            "timestamp_noncomparable": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        resolved = [smp.diagnostics.get("resolved_digits") for smp in samples]
        text = json.dumps(
            {"meta": meta,
             "rows": [dict(zip(header, row), resolved_digits=r)
                      for row, r in zip(rows, resolved)]},
            indent=2) + "\n"
    _write_output(text, args.out)
    failed = sum(1 for smp in samples if smp.error is not None)
    if failed:
        sys.stderr.write(f"{failed}/{len(samples)} points failed; see the "
                         "error column\n")
    return EXIT_OK


def run_validate(args) -> int:
    ctx = _context(args.digits)
    _require_writable(args.json)
    report = run_validation(ctx)
    print(report.format_text())
    if args.json:
        _write_output(json.dumps(report.to_dict(), indent=2) + "\n",
                      args.json)
    return EXIT_OK if report.passed else EXIT_CHECK


def run_terminant(args) -> int:
    ctx = _context(args.digits)
    nu = _parse_complex(args.nu, ctx)
    z = _parse_polar(args.z, ctx)
    value = terminant(nu, z, ctx)
    print(_nstr(value, args.digits))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeta",
        description="Exponentially improved Hurwitz zeta expansion and "
                    "Stokes-multiplier extraction")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--digits", type=int, default=60,
                       help="working precision in decimal digits "
                            "(default 60)")

    p_table = sub.add_parser("table1", help="dip-minimum table")
    p_table.add_argument("--check", action="store_true",
                         help="compare against the reference table")
    p_table.add_argument("--out", default=None, help="output CSV path")
    p_table.set_defaults(func=run_table1)

    p_sweep = sub.add_parser("sweep", help="theta-sweep of S_n")
    common(p_sweep)
    p_sweep.add_argument("--n", type=int, default=None)
    p_sweep.add_argument("--abs-a", dest="abs_a", default=None)
    p_sweep.add_argument("--s", default=None, help="complex s as RE[,IM]")
    p_sweep.add_argument("--theta", default=None,
                         help="LO:HI:COUNT in units of pi")
    p_sweep.add_argument("--reproduce", choices=sorted(REPRODUCTIONS),
                         default=None, help="caption-pinned configuration")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", default=None, help="output file path")
    p_sweep.set_defaults(func=run_sweep)

    p_val = sub.add_parser("validate", help="identity suites")
    common(p_val)
    p_val.add_argument("--json", default=None, help="also write JSON report")
    p_val.set_defaults(func=run_validate)

    p_term = sub.add_parser("terminant", help="debug terminant evaluator")
    common(p_term)
    p_term.add_argument("--nu", required=True, help="complex order RE[,IM]")
    p_term.add_argument("--z", required=True,
                        help="argument as MOD:ARG (radians, unreduced)")
    p_term.set_defaults(func=run_terminant)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except ZetaError as exc:
        sys.stderr.write(f"numerical error ({type(exc).__name__}): {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
