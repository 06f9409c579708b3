"""Cross-validation suites.

Every identity the package relies on, checked end to end at the requested
precision: exactness of the improved expansion against brute-force
references, the reflection formulas linking the periodic and Hurwitz zeta
functions, the terminant connection formula and its smoothing asymptotics,
the two printed variants of the combined remainder (whose sign
discrepancies are recorded), the prefactor normalization, and the
precision budget of the scale-2 multiplier extraction.

The identity checks are plain functions shared with the acceptance tests;
each suite applies them to its own points and tolerances.
"""
from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field

from mpmath import mp, mpf, mpc

from .errors import InsufficientPrecisionError, ZetaError
from .expansion import TruncationPlan, script_r_k, z_improved
from .hp import CONNECTION_EXTRA, HEADROOM, PrecisionContext, RayComplex
from .oracle import (ZetaPoint, f_tilde_reference, hurwitz_zeta_direct,
                     periodic_zeta_direct, z_reference)
from .stokes import stokes_multiplier
from .terminant import terminant, terminant_asymptotic

SEED = 20260823


@dataclass(frozen=True)
class ValidationEntry:
    name: str
    residual: float
    tolerance: float
    passed: bool
    note: str = ""


@dataclass
class ValidationReport:
    digits: int
    entries: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def add(self, name: str, residual, tolerance, note: str = "") -> None:
        res = float(residual)
        tol = float(tolerance)
        self.entries.append(ValidationEntry(
            name=name, residual=res, tolerance=tol,
            passed=res <= tol, note=note))

    def add_failure(self, name: str, note: str) -> None:
        self.entries.append(ValidationEntry(
            name=name, residual=float("inf"), tolerance=0.0,
            passed=False, note=note))

    def format_text(self) -> str:
        lines = [f"validation at digits={self.digits}"]
        for e in self.entries:
            status = "PASS" if e.passed else "FAIL"
            lines.append(
                f"  [{status}] {e.name}: residual {e.residual:.3e} "
                f"(tolerance {e.tolerance:.3e})"
                + (f" -- {e.note}" if e.note else ""))
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "digits": self.digits,
            "passed": self.passed,
            "entries": [asdict(e) for e in self.entries],
        }


def _random_points(rng: random.Random, count: int):
    pts = []
    for _ in range(count):
        sre = rng.uniform(1.5, 4.0)
        sim = rng.uniform(-1.0, 1.0)
        mod = rng.uniform(3.0, 9.0)
        arg = rng.uniform(0.35, 0.65) * math.pi
        pts.append((mpc(sre, sim), mod, arg))
    return pts


def exactness_residual(s, a: RayComplex, plans, ctx: PrecisionContext) -> mpf:
    """Worst relative residual of ``z_improved`` at one point against direct
    summation, over a list of ``TruncationPlan``s; the reference is computed
    once for all of them.
    """
    with ctx.working(HEADROOM):
        ref = z_reference(s, a, ctx)
        worst = mpf(0)
        for plan in plans:
            got = z_improved(s, a, plan, ctx)
            worst = max(worst, abs(got - ref) / abs(ref))
        return worst


def reflection_residuals(point: ZetaPoint, ctx: PrecisionContext):
    """Residuals, relative to 1 + |value|, of the periodic-zeta reflection
    F = Gamma(s)/(2 pi)^s [e^(i pi s/2) zeta(s,a) + e^(-i pi s/2) zeta(s,a')]
    and of its subtracted form
    Ftilde = (2 pi)^(-s) [e^(i pi s/2) Z(s,a) + e^(-i pi s/2) Z(s,a')]."""
    s = point.s
    with ctx.working(HEADROOM):
        f = periodic_zeta_direct(point, ctx)
        rhs = mp.gamma(s) / (2 * mp.pi) ** s * point.combine(
            hurwitz_zeta_direct(s, point.a, ctx),
            hurwitz_zeta_direct(s, point.a_prime, ctx), ctx)
        ft = f_tilde_reference(point, ctx)
        combo = (2 * mp.pi) ** (-s) * point.combine(
            z_reference(s, point.a, ctx), z_reference(s, point.a_prime, ctx),
            ctx)
        return abs(f - rhs) / (1 + abs(f)), abs(ft - combo) / (1 + abs(ft))


def connection_residual(nu, mod, base, ctx: PrecisionContext) -> mpf:
    """|T_nu(z e^(-i pi)) - e^(2 pi i nu) (T_nu(z e^(i pi)) - 1)| for
    z = mod e^(i base), the half-turn continuation of the terminant."""
    with ctx.working(CONNECTION_EXTRA):
        lhs = terminant(nu, RayComplex(mod, base - mp.pi), ctx)
        t_plus = terminant(nu, RayComplex(mod, base + mp.pi), ctx)
        return abs(lhs - mp.exp(2 * mp.pi * mpc(0, 1) * nu) * (t_plus - 1))


def smoothing_check(mod, ctx: PrecisionContext):
    """T_nu(z) on the Stokes line, nu = |z| = mod, arg z = pi: returns
    |T - 1/2| in units of the bound 2|z|^(-1/2), and the distance of T from
    its error-function asymptotic form."""
    with ctx.working(HEADROOM):
        z = RayComplex(mpf(mod), mp.pi)
        exact = terminant(mod, z, ctx)
        approx = terminant_asymptotic(mod, z, ctx)
        ratio = float(abs(exact - mpf(1) / 2)) / (2 / math.sqrt(mod))
        return ratio, float(abs(exact - approx))


def _suite_exactness(report: ValidationReport, ctx: PrecisionContext) -> None:
    cases = [
        (mpc(3), 6, 0.45, TruncationPlan.constant(1, 3)),
        (mpc(2, 0.5), 8, 0.52, TruncationPlan((3, 9, 14), (3, 9, 14), 3)),
    ]
    worst = mpf(0)
    with ctx.working(HEADROOM):
        for s, mod, argpi, plan in cases:
            a = RayComplex(mpf(mod), mpf(str(argpi)) * mp.pi)
            worst = max(worst, exactness_residual(
                s, a, [plan, TruncationPlan.constant(4, 3)], ctx))
    report.add("improved-expansion exactness", worst, ctx.tol(),
               "per-scale and common truncations vs direct summation")


def _suite_reflection(report: ValidationReport, ctx: PrecisionContext,
                      rng: random.Random) -> None:
    worst_f = mpf(0)
    worst_ft = mpf(0)
    for s, mod, arg in _random_points(rng, 4):
        point = ZetaPoint.create(s, RayComplex(mpf(mod), mpf(arg)), ctx)
        res_f, res_ft = reflection_residuals(point, ctx)
        worst_f = max(worst_f, res_f)
        worst_ft = max(worst_ft, res_ft)
    report.add("periodic-zeta reflection", worst_f, ctx.tol(),
               "polylog vs the two-zeta combination")
    report.add("subtracted reflection", worst_ft, ctx.tol(),
               "Ftilde vs the two-Z combination")


def _suite_connection(report: ValidationReport, ctx: PrecisionContext,
                      rng: random.Random) -> None:
    worst = mpf(0)
    for _ in range(4):
        nu = mpc(rng.uniform(2.0, 20.0), rng.uniform(-1.0, 1.0))
        mod = mpf(rng.uniform(5.0, 40.0))
        base = mpf(rng.uniform(-0.3, 0.3))
        worst = max(worst, connection_residual(nu, mod, base, ctx))
    report.add("terminant connection formula", worst, ctx.tol(),
               "half-turn continuation vs direct evaluation")


def _suite_smoothing(report: ValidationReport, ctx: PrecisionContext) -> None:
    checks = [smoothing_check(mod, ctx) for mod in (30, 60, 100)]
    report.add("terminant smoothing midpoint", max(c[0] for c in checks), 1.0,
               "|T - 1/2| on the Stokes line, in units of 2|z|^(-1/2)")
    report.add("terminant smoothing agreement", max(c[1] for c in checks),
               0.1,
               "exact vs error-function asymptotic on the Stokes line; the "
               "asymptotic error is O(|z|^(-1/2)) at the smallest |z| = 30")


def _suite_remainder_forms(report: ValidationReport,
                           ctx: PrecisionContext) -> None:
    """Re-derive the two printed single-expression remainder variants.

    The compositional combined remainder is the ground truth.  The expanded
    four-term variant reproduces it only after flipping the sign of the
    exponent in the second prefactor (e^(-2 pi i k a), not e^(+2 pi i k a));
    the connection-reduced two-brace variant needs the second brace negated.
    Both corrected forms must match to tolerance; the printed forms' own
    residuals are recorded as informational entries.
    """
    tol = ctx.tol()
    s = mpc(3)
    with ctx.working(HEADROOM):
        a = RayComplex(mpf(6), mpf("0.5") * mp.pi)
        point = ZetaPoint.create(s, a, ctx)
        k, nk, nkp = 1, 17, 17
        ground = script_r_k(k, point, nk, nkp, ctx)
        halfpi = mp.pi / 2
        nu, nup = 2 * nk + s, 2 * nkp + s
        e2 = mp.exp(2 * mp.pi * mpc(0, 1) * k * point.a.value())
        eis = mp.expjpi(s)
        mod_a = 2 * mp.pi * k * point.a.modulus
        mod_ap = 2 * mp.pi * k * point.a_prime.modulus
        t1 = terminant(nu, RayComplex(mod_a, point.a.argument + halfpi), ctx)
        t2 = terminant(nu, RayComplex(mod_a, point.a.argument - halfpi), ctx)
        t3 = terminant(
            nup, RayComplex(mod_ap, point.a_prime.argument + halfpi), ctx)
        t4 = terminant(
            nup, RayComplex(mod_ap, point.a_prime.argument - halfpi), ctx)
        corrected4 = e2 * t1 - t2 / (e2 * eis) + t3 / (e2 * eis) \
            - e2 * t4 / eis ** 2
        printed4 = e2 * t1 - e2 * t2 / eis + t3 / (e2 * eis) \
            - e2 * t4 / eis ** 2
        # connection-reduced form: rotate the last terminant argument by +2pi
        t4r = terminant(
            nup, RayComplex(mod_ap, point.a_prime.argument + 3 * halfpi), ctx)
        corrected2 = e2 * (t1 - t4r + 1) - (t2 - t3) / (e2 * eis)
        printed2 = e2 * (t1 - t4r + 1) + (t2 - t3) / (e2 * eis)
        scale = 1 + abs(ground)
        report.add("combined remainder, corrected four-term form",
                   abs(corrected4 - ground) / scale, tol)
        report.add("combined remainder, corrected reduced form",
                   abs(corrected2 - ground) / scale, tol)
        report.add("combined remainder, printed four-term form",
                   abs(printed4 - ground) / scale, float("inf"),
                   "informational: printed variant differs by a prefactor "
                   "sign; residual recorded, not asserted")
        report.add("combined remainder, printed reduced form",
                   abs(printed2 - ground) / scale, float("inf"),
                   "informational: printed variant differs by the sign of "
                   "the second brace; residual recorded, not asserted")


def _suite_prefactor(report: ValidationReport, ctx: PrecisionContext) -> None:
    """Arbitrate the overall normalization of the improved expansion."""
    s = mpc(3)
    with ctx.working(HEADROOM):
        a = RayComplex(mpf(6), mpf("0.45") * mp.pi)
        ref = z_reference(s, a, ctx)
        z = z_improved(s, a, TruncationPlan.constant(4, 3), ctx)
        res_single = abs(z - ref) / abs(ref)
        res_double = abs((2 * mp.pi) ** s * z - ref) / abs(ref)
    report.add("prefactor normalization (2 pi)^s", res_single, ctx.tol(),
               "the expansion reproduces the reference with (2 pi)^s")
    report.add("prefactor normalization (2 pi)^(2s)", res_double,
               float("inf"),
               f"informational: the squared prefactor misses by "
               f"{float(res_double):.3e} relative")


def _suite_extraction(report: ValidationReport, ctx: PrecisionContext) -> None:
    """Scale-2 multiplier extraction within the precision budget."""
    s = mpc(2)
    with ctx.working(HEADROOM):
        a = RayComplex(mpf(6), mp.pi / 2)
    try:
        point = ZetaPoint.create(s, a, ctx)
        sample = stokes_multiplier(2, point, ctx)
    except InsufficientPrecisionError as exc:
        report.add_failure(
            "hidden-exponential extraction",
            f"insufficient precision: {exc} "
            f"(required digits: {exc.required_digits})")
        return
    report.add("hidden-exponential extraction",
               abs(float(sample.exact.real) - sample.approx), 0.05,
               "recovered scale-2 multiplier vs double-erf form")


def run_validation(ctx: PrecisionContext) -> ValidationReport:
    """Run every suite; entries are deterministic for a given ctx."""
    report = ValidationReport(digits=ctx.digits)
    rng = random.Random(SEED)
    suites = [
        lambda: _suite_exactness(report, ctx),
        lambda: _suite_reflection(report, ctx, rng),
        lambda: _suite_connection(report, ctx, rng),
        lambda: _suite_smoothing(report, ctx),
        lambda: _suite_remainder_forms(report, ctx),
        lambda: _suite_prefactor(report, ctx),
        lambda: _suite_extraction(report, ctx),
    ]
    for suite in suites:
        try:
            suite()
        except ZetaError as exc:
            report.add_failure(type(exc).__name__, str(exc))
    return report
