"""Stokes-multiplier extraction and the double error-function approximation.

The n-th Stokes multiplier S_n(theta) is the coefficient of the n-th
subdominant exponential e^(2 pi i n a) left over after peeling the larger
exponentials (scales k < n) and the optimally truncated algebraic blocks
(scales k <= n) from Ftilde(a,s).  Its leading approximation is the
superposition of two error-function transitions -- one per Stokes line --
whose interference produces a dip rather than a step.  This module houses
the exact extraction, the double-erf approximation, theta-sweeps and the
minimum finder behind the dip-location table.  ``sweep`` is the one loop
over sweep points and resolves every digit that ``zeta sweep`` prints.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from mpmath import mp, mpf, mpc

from .errors import (DomainError, IllConditionedError,
                     InsufficientPrecisionError, ZetaError)
from .expansion import (TruncationPlan, bernoulli_series, leading_blocks,
                        optimal_plan, script_r_k)
from .hp import (HEADROOM, PRINT_MARGIN, PrecisionContext, RayComplex,
                 float_log, series_tables)
from .oracle import ZetaPoint, f_tilde_reference

GRID_POINTS = 400
SCAN_LO = 0.02 * math.pi
SCAN_HI = 0.98 * math.pi
GOLDEN_TOL = 1e-10
EQUIV_EXTRA = 12  # the two n=1 extraction paths must agree to 10^(-digits+12)


@dataclass(frozen=True)
class MultiplierSample:
    """One sweep point: exact S_n(theta), its erf approximation, context.

    ``exact`` is None when the point failed; the failure is carried in
    ``error`` instead of being dropped.
    """

    theta: float
    exact: object          # mpc | None
    approx: float
    plan: object           # TruncationPlan | None
    diagnostics: dict = field(default_factory=dict)
    error: str | None = None

    def __post_init__(self):
        if not (0 < self.theta < math.pi):
            raise ValueError(f"theta must lie in (0, pi), got {self.theta}")
        if self.error is None and not (-0.1 < self.approx < 2.1):
            raise ValueError(
                f"approx {self.approx} outside the double-erf range")


@dataclass(frozen=True)
class MinimumResult:
    """Location and depth of the dip of the double-erf approximation."""

    n: int
    abs_a: float
    theta0: float
    s_min: float

    def __post_init__(self):
        if not (SCAN_LO < self.theta0 < SCAN_HI):
            raise ValueError("theta0 must be a strict interior minimum")
        if not (0 < self.s_min < 1):
            raise ValueError(f"s_min must lie in (0, 1), got {self.s_min}")


def erf_approx(n: int, abs_a: float, theta: float) -> float:
    """Leading error-function form of Re S_n(theta):

        1 + (1/2) erf[(theta - pi/2) sqrt(pi n |a|)]
          - (1/2) erf[(theta + delta - pi/2) sqrt(pi n |a'|)]

    with a' = 1 - a and delta = arg(1 - 1/a) evaluated at a = |a| e^(i theta).
    This is the superposition of the two terminant smoothing transitions
    1/2 + 1/2 erf[...], one per Stokes line, as T(first) - T(second) + 1;
    the half weights are what the tabulated dip minima pin down.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if not (0 < theta < math.pi):
        raise DomainError(f"theta must lie in (0, pi), got {theta}")
    if not 1 <= abs_a < math.inf:
        raise DomainError(f"erf_approx needs a finite |a| >= 1, got {abs_a}")
    half = theta - math.pi / 2
    first = math.erf(half * math.sqrt(math.pi * n * abs_a))
    a = abs_a * cmath.exp(1j * theta)
    a_prime = 1 - a
    delta = cmath.phase(1 - 1 / a)
    second = math.erf((half + delta) * math.sqrt(math.pi * n * abs(a_prime)))
    return 1 + 0.5 * first - 0.5 * second


def _bernoulli_form_s1(point: ZetaPoint, ft: mpc, turn: mpc, n1: int,
                       n1p: int, ctx: PrecisionContext) -> mpc:
    """S_1 from ft = Ftilde(a, s) via the single-scale Bernoulli series
    instead of zeta blocks; turn is the caller's e^(-2 pi i a).

    The peeled blocks for k = 1 equal (2 pi)^(-s) times the truncated
    Bernoulli series, term by term (the same pairing that links the two
    expansion forms).  Both sides subtract from the same ft and share
    turn and ``hp._fixed_horner``; their peeled series share no factor.
    The blocks take the signed Gammas, recurred from Gamma(s+1),
    zeta(2r+2, m), (2 pi)^-s and a^(-s) at FACTOR_EXTRA; this side takes
    the factors that ft's subtracted terms hold too, Gamma(s), 1/(2 pi)^s
    and a^(-s) at HEADROOM, and the Hurwitz oracle's tail factors c_r.  So
    an error in any factor of the blocks shows as a disagreement.
    """
    s = point.s
    with ctx.working(HEADROOM):
        two_pi_s = series_tables(s, ctx).two_pi_s
        series_a = bernoulli_series(s, point.a, n1, ctx) / two_pi_s
        series_ap = bernoulli_series(s, point.a_prime, n1p, ctx) / two_pi_s
        brace = ft - point.combine(series_a, series_ap, ctx)
        return turn * brace


def _require_scales(plan: TruncationPlan, n: int) -> None:
    if plan.k_max < n:
        raise DomainError(
            f"plan carries {plan.k_max} scales but the extraction needs {n}")


def stokes_multiplier(n: int, point: ZetaPoint, ctx: PrecisionContext,
                      plan: TruncationPlan | None = None) -> MultiplierSample:
    """Extract S_n(theta) by peeling blocks k <= n and exponentials k < n.

    S_n = (e^(-2 pi i n a) / n^(s-1)) { Ftilde
            - e^(i pi s/2)/pi  * [blocks k <= n of the a-series]
            - e^(-i pi s/2)/pi * [blocks k <= n of the a'-series]
            - sum_{k<n} k^(s-1) (combined remainder at scale k) }.

    The factor e^(-2 pi i n a) is the ray's ``q_power(-n)``, 1/q^n from the
    one q = e^(2 pi i a) that F and the remainders read too.  For n = 1 the
    extraction is repeated through the single-scale Bernoulli series and
    the two values are required to agree.  ``resolved_digits`` in the
    diagnostics is digits + guard - log10(|Ftilde| / e^(-2 pi n Im a)),
    taken in floats from ``hp.float_log`` of Ftilde and Im a = Im value()
    (DomainError where that leaves the float range, as at s = 1e300), and
    ``digits`` is ctx.digits.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    s = point.s
    if plan is None:
        plan = optimal_plan(point, n, ctx)
    _require_scales(plan, n)
    tables = series_tables(s, ctx)
    with ctx.working(HEADROOM):
        ft = f_tilde_reference(point, ctx)
        turn = point.a.q_power(-n)  # e^(-2 pi i n a)
        target = 1 / abs(turn)
        # log10(|Ftilde| / target); the floor is target < tol |Ftilde|
        lost = (float_log(ft) + 2 * math.pi * n
                * float(point.a.value().imag)) / math.log(10)
        if not math.isfinite(lost):
            raise DomainError(
                f"|Ftilde| at s = {mp.nstr(s, 8)}, Im a = "
                f"{mp.nstr(point.a.value().imag, 3)} passes the float range "
                "that sizes the digits it loses")
        if lost > ctx.digits - 10:
            required = math.ceil(10 + lost) + 3
            raise InsufficientPrecisionError(
                f"the scale-{n} exponential {mp.nstr(target, 3)} is below "
                f"the resolvable floor tol*|Ftilde| = "
                f"{mp.nstr(ctx.tol() * abs(ft), 3)}",
                required_digits=required)
        blocks_a = leading_blocks(s, point.a, plan.nk[:n], ctx)
        blocks_ap = leading_blocks(s, point.a_prime, plan.nk_prime[:n], ctx)
        peeled = point.combine(blocks_a, blocks_ap, ctx)
        rk_abs = []
        rsum = mpc(0)
        for k in range(1, n):
            rk = script_r_k(k, point, plan.nk[k - 1], plan.nk_prime[k - 1],
                            ctx)
            rk_abs.append(float(abs(rk)))
            rsum += tables.k_power(k) * rk
        brace = ft - peeled - rsum
        exact = turn * brace / tables.k_power(n)
        if n == 1:
            alt = _bernoulli_form_s1(point, ft, turn, plan.nk[0],
                                     plan.nk_prime[0], ctx)
            bound = mpf(10) ** (-ctx.digits + EQUIV_EXTRA) \
                * (abs(ft) + ctx.tol()) * abs(turn)
            if abs(exact - alt) > bound:
                raise IllConditionedError(
                    "the two S_1 extraction paths disagree: "
                    f"|diff| = {mp.nstr(abs(exact - alt), 3)} > "
                    f"{mp.nstr(bound, 3)}")
        theta = float(point.a.argument)
        approx = erf_approx(n, float(point.a.modulus), theta)
        diagnostics = {
            "ft_abs": float(abs(ft)),
            "peeled_abs": float(abs(peeled)),
            "remainder_abs": rk_abs,
            "target_exponential": float(target),
            "resolved_digits": ctx.digits + ctx.guard - lost,
            "digits": ctx.digits,
        }
        return MultiplierSample(theta=theta, exact=exact, approx=approx,
                                plan=plan, diagnostics=diagnostics)


def find_minimum(n: int, abs_a: float) -> MinimumResult:
    """Dip location theta0 and depth of the double-erf approximation.

    Coarse 400-point scan of (0.02 pi, 0.98 pi) with a unimodality check,
    then golden-section refinement of the bracketing interval to 1e-10.
    The first scan point's ``erf_approx`` rejects n < 1 and |a| < 1.
    """

    def f(theta: float) -> float:
        return erf_approx(n, abs_a, theta)

    step = (SCAN_HI - SCAN_LO) / (GRID_POINTS - 1)
    grid = [SCAN_LO + i * step for i in range(GRID_POINTS)]
    vals = [f(t) for t in grid]
    i = min(range(GRID_POINTS), key=lambda j: vals[j])
    if i == 0 or i == GRID_POINTS - 1:
        raise DomainError(
            "scan boundary undercuts the interior minimum: the dip geometry "
            "has broken down")
    # unimodal up to flat-plateau noise: nonincreasing before the argmin,
    # nondecreasing after it
    noise = 1e-9
    if any(vals[j + 1] > vals[j] + noise for j in range(i)) or \
            any(vals[j + 1] < vals[j] - noise for j in range(i, GRID_POINTS - 1)):
        raise IllConditionedError(
            "coarse grid values are not unimodal around the minimum")
    lo, hi = grid[i - 1], grid[i + 1]
    invphi = (math.sqrt(5) - 1) / 2
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > GOLDEN_TOL:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    theta0 = (lo + hi) / 2
    return MinimumResult(n=n, abs_a=float(abs_a), theta0=theta0,
                         s_min=f(theta0))


def sweep(n: int, abs_a, s, theta_range, ctx: PrecisionContext,
          plan: TruncationPlan | None = None) -> list:
    """Evaluate S_n and its erf approximation on a theta grid.

    theta_range is (lo, hi, count) in radians, inclusive endpoints; a fixed
    plan pins the truncation indices at every point (reproduction mode),
    otherwise least-term plans are re-derived per point because |a'| varies
    with theta.  A point short of ctx.digits (``_raised_context``) raises
    the context for itself and every later point and runs once more.  A
    failed point is reported through its ``error`` field, never dropped or
    run again; arguments that no point could take (n < 1, |a| < 1, a bad
    theta range, a plan with fewer than n scales) raise DomainError before
    any point is computed.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if abs_a < 1:
        raise DomainError("sweep needs |a| >= 1 for the geometry")
    lo, hi, count = theta_range
    if count < 2:
        raise DomainError("sweep needs at least two points")
    if not (0 < lo < hi < math.pi):
        raise DomainError("theta range must satisfy 0 < lo < hi < pi")
    if plan is not None:
        _require_scales(plan, n)
    digits, samples = ctx.digits, []
    for j in range(count):
        smp = sweep_point(n, abs_a, s, theta_range, j, ctx, plan)
        if (raised := _raised_context(smp, digits, ctx)) is not None:
            ctx = raised
            smp = sweep_point(n, abs_a, s, theta_range, j, ctx, plan)
        samples.append(smp)
    return samples


def _raised_context(smp, digits: int, ctx: PrecisionContext):
    """The context at which smp, computed at ctx, must be computed again
    so that each part x resolves its ``digits`` significant digits, that
    is digits - log10|x| + PRINT_MARGIN (Im S_2 reaches 3.6e-8 on fig1c),
    or None.  ``resolved_digits`` grows one for one with the working
    digits, so ctx is raised by the shortfall.  A failed point has none.
    """
    if smp.error is not None:
        return None
    parts = [x for x in (smp.exact.real, smp.exact.imag) if x]
    need = digits + PRINT_MARGIN - min(
        (float_log(x) / math.log(10) for x in parts), default=0.0)
    short = need - smp.diagnostics["resolved_digits"]
    if short <= 0:
        return None
    return PrecisionContext(ctx.digits + math.ceil(short))


def sweep_point(n: int, abs_a, s, theta_range, j: int, ctx: PrecisionContext,
                plan: TruncationPlan | None = None) -> MultiplierSample:
    """Point j of ``sweep``, its theta formed at ``ctx``; a ZetaError is
    carried in the sample's ``error`` field.  ``sweep`` checks the
    arguments that no point could take."""
    lo, hi, count = theta_range
    with ctx.working(HEADROOM):
        theta = mpf(lo) + (mpf(hi) - mpf(lo)) * j / (count - 1)
        a = RayComplex(mpf(abs_a), theta)
    try:
        point = ZetaPoint.create(s, a, ctx)
        return stokes_multiplier(n, point, ctx, plan=plan)
    except ZetaError as exc:
        approx = erf_approx(n, float(abs_a), float(theta))
        return MultiplierSample(
            theta=float(theta), exact=None, approx=approx, plan=plan,
            diagnostics={}, error=f"{type(exc).__name__}: {exc}")
