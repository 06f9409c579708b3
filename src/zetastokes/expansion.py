"""Exponentially improved expansion machinery.

Truncation plans, the coefficients A_r(a), the per-scale remainders R_k
carried by terminant functions, and the one exact reconstruction of Z(s,a),
``z_improved``; a constant plan gives the common-truncation form, whose
blocks are the truncated Bernoulli/Poincare series over (2 pi)^s.  The
reconstruction is an exact contract: for any admissible plan it must
reproduce the direct-summation reference to working precision.

The k-sum over the algebraic series converges only algebraically, so its
tail is always folded in closed form through integer-base Hurwitz zeta
values (the reversed-order double sum).  Only the terminant remainders are
truncated: ``extend_plan`` first extends the plan past k_max with
least-term indices until the dropped tail clears the budget, and
``leading_blocks`` over that extended list is then the one algebraic sum.

Only the power of a depends on theta, so both series are polynomials in a
power of the ray with theta-independent coefficients, and one kernel sums
them both: ``hp._fixed_horner``, Horner's rule on Python ints scaled to the
largest term, FIXED_GUARD_BITS beyond the working precision.  Every power
of a they need is a^(-s), one ``hp.pow_ray`` that the ray keeps, times an
integer power of the ray's value and of 2 pi, taken at
``working(FACTOR_EXTRA)``; the coefficients reach the kernel as one list
per call, read from the tables of the one owner of the theta-independent
state of (s, ctx), ``hp.series_tables(s, ctx)``, which also holds the
phases and the powers of 2 pi and k.  ``leading_blocks`` sums in
x = (2 pi a)^-2 over the block factors (-1)^r Gamma(2r+s+1) zeta(2r+2, m),
whose signed Gammas come from the recurrence
G_r/G_(r-1) = -(2r+s-1)(2r+s) started at Gamma(s+1); ``a_r_coefficient``
is that signed Gamma times one power, so A_r has one source and is right
to O(r) units of the working precision, not bit for bit the term-by-term
value.  ``bernoulli_series`` sums in a^(-2) over the Poincare factors
c_r = B_{2r}/(2r)! (s)_(2r-1) of the Hurwitz oracle's Euler-Maclaurin
tail, times Gamma(s): it reads neither the signed Gammas nor
zeta(2r+2, m), so it checks them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from mpmath import mp, mpf, mpc

from .errors import DomainError, TailBoundError
from .hp import (FACTOR_EXTRA, HEADROOM, LOG_ESTIMATE_DIGITS, MIN_DIGITS,
                 PrecisionContext, RayComplex, _fixed_horner,
                 hurwitz_zeta_integer, pow_ray, series_tables)
from .oracle import ZetaPoint, check_s_off_poles
from .terminant import terminant


@dataclass(frozen=True)
class TruncationPlan:
    """Per-scale truncation indices for the a-series and the a'-series.

    Scales beyond k_max implicitly reuse the last index; the implicit
    N_0 = N'_0 = 0 anchors the reversed-order block sums.
    """

    nk: tuple
    nk_prime: tuple
    k_max: int

    def __post_init__(self):
        object.__setattr__(self, "nk", tuple(int(n) for n in self.nk))
        object.__setattr__(self, "nk_prime",
                           tuple(int(n) for n in self.nk_prime))
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if len(self.nk) != self.k_max or len(self.nk_prime) != self.k_max:
            raise ValueError("plan must carry exactly k_max indices per ray")
        if any(n < 1 for n in self.nk + self.nk_prime):
            raise ValueError("all truncation indices must be >= 1")

    @classmethod
    def constant(cls, n: int, k_max: int) -> "TruncationPlan":
        return cls((n,) * k_max, (n,) * k_max, k_max)


def a_r_coefficient(r: int, s, a: RayComplex, ctx: PrecisionContext) -> mpc:
    """A_r(a) = (-1)^r Gamma(2r+s+1) / (2 pi a)^(2r+s+1): the owned
    signed Gamma times one ``pow_ray``.  The recurrence rounds r times, so
    A_r is off by O(r) units of the working precision."""
    if r < 0:
        raise DomainError("r must be >= 0")
    s = ctx.read(s)
    with ctx.working(FACTOR_EXTRA):
        ray = RayComplex(2 * mp.pi * a.modulus, a.argument)
        return series_tables(s, ctx).signed_gamma(r) \
            * pow_ray(ray, -(2 * r + s + 1), ctx, extra=FACTOR_EXTRA)


def optimal_truncation(k: int, s, a: RayComplex, ctx: PrecisionContext) -> int:
    """Least-term truncation index for the scale-k inner series.

    The terms A_r(a)/k^(2r+2) shrink while their ratio
    |(2r+s-1)(2r+s)| / (2 pi k |a|)^2 stays below 1; the index of the
    smallest term is returned (ties broken toward the smaller index, and
    never below 1).  Close to pi*k*|a|, and found in O(log N) ratio
    evaluations for the returned index N.
    DomainError unless |a| >= 1 and (2 pi k |a|)^2 is a finite double.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if a.modulus < 1:
        raise DomainError("optimal truncation needs a ray of modulus >= 1, "
                          f"got {mp.nstr(a.modulus, 6)}")
    s = complex(s)
    x = 2 * math.pi * k * float(a.modulus)
    if x * x == math.inf:
        raise DomainError("optimal truncation needs (2 pi k |a|)^2 within "
                          f"the double range, got |a| = "
                          f"{mp.nstr(a.modulus, 6)}, k = {k}")
    bound = x ** 2

    def shrinks(r):
        return abs((2 * r + s - 1) * (2 * r + s)) < bound

    # With u = 2r + Re s - 1/2, |(2r+s-1)(2r+s)|^2 is
    # (u^2 + 1/4 + Im s^2)^2 - u^2, which grows with u^2 wherever it can
    # reach the bound: its one interior maximum, at u = 0 when
    # |Im s| < 1/2, makes |(2r+s-1)(2r+s)| = 1/4 + Im s^2 < 1/2 < bound.
    # So the shrinking indices form one interval; when it holds r = 1, its
    # last index is found by doubling and then bisection.
    if not shrinks(1):
        return 1
    lo, hi = 1, 2
    while shrinks(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if shrinks(mid) else (lo, mid)
    return lo


def remainder_rk(k: int, s, a: RayComplex, nk: int,
                 ctx: PrecisionContext) -> mpc:
    """Scale-k remainder R_k(a; N_k) built from two terminant evaluations.

    The terminant arguments 2 pi i k a and -2 pi i k a ride on the rays
    arg a + pi/2 and arg a - pi/2 respectively, never principal-reduced.
    """
    s = ctx.read(s)
    with ctx.working(HEADROOM):
        nu = 2 * nk + s
        halfpi = mp.pi / 2
        mod = 2 * mp.pi * k * a.modulus
        t_plus = terminant(nu, RayComplex(mod, a.argument + halfpi), ctx)
        t_minus = terminant(nu, RayComplex(mod, a.argument - halfpi), ctx)
        e2 = mp.exp(2 * mp.pi * mpc(0, 1) * k * a.value())
        tables = series_tables(s, ctx)
        half_is = tables.phase_half_s
        return tables.phase_minus_s * (e2 * half_is * t_plus
                                       - t_minus / (e2 * half_is))


def leading_blocks(s, a: RayComplex, nlist, ctx: PrecisionContext) -> mpc:
    """(1/pi) sum_{k>=1} sum_{r<N_k} A_r(a) / k^(2r+2), the index list
    extended constantly past its last entry.

    The suffix minima F_k = min(N_k, ..., N_K) form a nondecreasing list,
    summed in reversed order, (1/pi) sum_m sum_{r=F_{m-1}}^{F_m - 1}
    A_r(a) zeta(2r+2, m) with F_0 = 0; the terms F_k <= r < N_k are added
    directly.  For a nondecreasing list F = N and the direct part is empty.
    This is the algebraic part of the improved expansion, and the piece
    peeled off when a Stokes multiplier is extracted.

    Only (2 pi a)^-(2r+s+1) depends on theta, so the sum is
    (2 pi a)^-(s+1)/pi sum_r c_r x^r with x = (2 pi a)^-2, summed by
    ``_fixed_horner``: c_r is the owned (-1)^r Gamma(2r+s+1)
    zeta(2r+2, m) of the block m that holds r, one table read per block,
    plus (-1)^r Gamma(2r+s+1) / k^(2r+2) for each scale k with
    F_k <= r < N_k.  With v = 2 pi a, the powers are
    (2 pi a)^-(s+1) = (2 pi)^-s a^(-s) / v and x = v^-2, from the ray's
    one kept a^(-s) at ``working(FACTOR_EXTRA)``.
    """
    s = ctx.read(s)
    floor = list(accumulate(reversed(nlist), min))[::-1]
    tables = series_tables(s, ctx)
    with ctx.working(HEADROOM):
        coeffs = []
        for m, f in enumerate(floor, start=1):
            coeffs += tables.block_coefficients(m, len(coeffs), f)
        coeffs += [mpc(0)] * (max(nlist, default=0) - len(coeffs))
        for k, (f, n) in enumerate(zip(floor, nlist), start=1):
            for r in range(f, n):
                coeffs[r] += tables.signed_gamma(r) / mpf(k) ** (2 * r + 2)
        with ctx.working(FACTOR_EXTRA):
            v = 2 * mp.pi * a.value()
            power = tables.two_pi_minus_s \
                * pow_ray(a, -s, ctx, extra=FACTOR_EXTRA) / v
            x = v ** -2
        return _fixed_horner(coeffs, x) * power / mp.pi


def bernoulli_series(s, a: RayComplex, n: int, ctx: PrecisionContext) -> mpc:
    """sum_{r=1}^{N} B_{2r}/(2r)! Gamma(2r+s-1) a^(1-2r-s), the truncated
    Poincare series of Z(s,a); PoleError at the poles s = 0, -1, ... of
    Gamma(s), which its one caller's ``ZetaPoint`` already rejects.

    Term by term it equals (2 pi)^s leading_blocks(s, a, (N,)), but it is
    built from Bernoulli numbers instead of A_r and zeta(2r+2): it is the
    independent side of the S_1 cross-check in ``stokes``.  It is summed as
    Gamma(s) a^(-1-s) sum_r c_r (a^-2)^(r-1) by ``_fixed_horner``, with
    c_r = B_{2r}/(2r)! (s)_(2r-1) the owned ``hurwitz_tail(N, 0)`` at
    ``working(HEADROOM)`` and Gamma(s) the owned ``gamma``; a^(-1-s) =
    a^(-s) / a from the same kept a^(-s) as ``leading_blocks`` and a^-2
    from the ray's value, both at ``working(FACTOR_EXTRA)``."""
    s = ctx.read(s)
    tables = series_tables(s, ctx)
    gamma, coeffs = tables.gamma, tables.hurwitz_tail(n, 0)
    with ctx.working(FACTOR_EXTRA):
        v = a.value()
        lead = pow_ray(a, -s, ctx, extra=FACTOR_EXTRA) / v
        step = v ** -2
    with ctx.working(HEADROOM):
        return gamma * _fixed_horner(coeffs, step) * lead


def extend_plan(s, a: RayComplex, nlist, ctx: PrecisionContext) -> tuple:
    """(nlist extended into the tail, its excess over the budget).

    Each added scale k takes max(prev, optimal_truncation(k)), so its
    remainder then decays like e^(-2 pi k |Im a|).  Scales are added until
    the dropped tail -- its first omitted term |A_prev| zeta(2 prev+2, k+1)/pi
    plus the exponential bound 2 (k+1)^max(Re s-1, 0) e^(-2 pi (k+1) |Im a|)
    -- falls below the budget, tol/100 times the leading block
    |A_0| zeta(2)/pi, the rule taken in logs at ``hp.LOG_ESTIMATE_DIGITS``.
    |Gamma(2r+s+1)| and zeta(2r+2, b) come from ``hp.series_tables`` and
    ``hp.hurwitz_zeta_integer``, the values ``leading_blocks`` then sums;
    only their logarithms are taken at the lower precision.
    The second item holds, for each added scale, log10(estimate/budget) of
    the tail estimate that added it, always >= 0: ``z_improved`` sizes that
    scale's remainder by it.  ``leading_blocks`` over the extended list
    carries the raised indices exactly (the per-scale truncation invariance
    of the expansion).
    """
    s = ctx.read(s)
    with ctx.working(HEADROOM):
        im_abs = a.modulus * abs(mp.sin(a.argument))
        if im_abs <= ctx.tol():
            raise TailBoundError("remainder tail needs Im(a) != 0 to decay")
    im_abs, power = float(im_abs), max(float(s.real) - 1, 0.0)

    def log_alg(r, b):  # log(|A_r| zeta(2r+2, b) / pi)
        gamma = series_tables(s, ctx).signed_gamma(r)
        zeta = hurwitz_zeta_integer(2 * r + 2, b, ctx)
        with mp.workdps(LOG_ESTIMATE_DIGITS):
            e = 2 * r + s + 1
            return float(mp.log(abs(gamma)) + e.imag * a.argument
                         - e.real * mp.log(2 * mp.pi * a.modulus)
                         + mp.log(zeta / mp.pi))

    log_budget = float(mp.log(ctx.tol() / 100)) + log_alg(0, 1)
    out, excess = list(nlist), []
    for b in range(len(out) + 1, len(out) + 302):
        x = log_alg(out[-1], b)
        y = math.log(2) + power * math.log(b) - 2 * math.pi * b * im_abs
        log_tail = max(x, y) + math.log1p(math.exp(-abs(x - y)))
        if log_tail < log_budget:
            return tuple(out), tuple(excess)
        out.append(max(out[-1], optimal_truncation(b, s, a, ctx)))
        excess.append((log_tail - log_budget) / math.log(10))
    raise TailBoundError("remainder tail did not clear the budget within "
                         "300 extension scales")


# Digits an added scale's remainder must carry beyond its excess over the
# budget.  Added scale b contributes b^(s-1) R_b, and |b^(s-1) R_b| <= rho E
# with E the tail estimate that added it; remainder_rk's two terminant
# terms cancel by at most a factor C.  At ctx.reduced(d) upper_gamma's
# check holds each terminant to 10^-(d + 20) relative, so with
# d >= log10(E/budget) + margin the scale is off by at most
# rho C 10^-(margin + 20) budget, and the at most 300 added scales by
# 300 rho C 10^-(margin + 20) budget.  Over 774 added scales (s = 3,
# 2+0.5i, 1.6, 4, 6-2i; arg a/pi = 0.2 to 0.8; |a| = 3, 6, 9; plans
# (2,2), (7,7), (3,9)) rho < 1.1 and C < 1.4, so 3 digits make
# 300 rho C < 10^3: the extension's rounding stays the 20 guard digits
# below the budget that its truncation already spends.
TAIL_MARGIN = 3


def z_improved(s, a: RayComplex, plan: TruncationPlan,
               ctx: PrecisionContext) -> mpc:
    """Z(s,a) from the exponentially improved expansion; exact for any plan.

    (2 pi)^s [leading_blocks(extended) + sum_k k^(s-1) R_k(a; extended_k)]
    over the plan's a-indices extended by ``extend_plan``.  The plan's own
    remainders run at ctx.  Each added scale's remainder only has to be
    right to the budget, so it runs at ``ctx.reduced(d)`` with
    d = log10(estimate/budget) + TAIL_MARGIN digits, never below
    ``hp.MIN_DIGITS``: fewer working digits, the caller's tolerance and
    near-integer band.  A constant plan, ``TruncationPlan.constant(N,
    k_max)``, is the paper's common-truncation form: its blocks are the
    Poincare series through B_{2N} divided by (2 pi)^s.
    """
    s = ctx.read(s)
    check_s_off_poles(s, -1, ctx)
    nlist, excess = extend_plan(s, a, plan.nk, ctx)
    contexts = [ctx] * len(plan.nk) + [
        ctx.reduced(max(MIN_DIGITS, math.ceil(e) + TAIL_MARGIN))
        for e in excess]
    tables = series_tables(s, ctx)
    with ctx.working(HEADROOM):
        total = leading_blocks(s, a, nlist, ctx)
        for k, (n, kctx) in enumerate(zip(nlist, contexts), start=1):
            total += tables.k_power(k) * remainder_rk(k, s, a, n, kctx)
        return tables.two_pi_s * total


def script_r_k(k: int, point: ZetaPoint, nk: int, nk_prime: int,
               ctx: PrecisionContext) -> mpc:
    """Combined remainder for Ftilde, composed from the two R_k values:
    e^(i pi s/2) R_k(a; N_k) + e^(-i pi s/2) R_k(a'; N'_k)."""
    s = point.s
    return point.combine(remainder_rk(k, s, point.a, nk, ctx),
                         remainder_rk(k, s, point.a_prime, nk_prime, ctx), ctx)


def optimal_plan(point: ZetaPoint, k_max: int,
                 ctx: PrecisionContext) -> TruncationPlan:
    """Plan with least-term indices for every scale up to k_max, both rays,
    at the point's s.  A ray that admits no such index is named in the
    ``DomainError``: near the real axis |a'| = |1 - a| drops below 1 while
    |a| does not."""
    def indices(ray, name):
        try:
            return tuple(optimal_truncation(k, point.s, ray, ctx)
                         for k in range(1, k_max + 1))
        except DomainError as exc:
            raise DomainError(f"on the ray {name}: {exc}") from exc

    return TruncationPlan(indices(point.a, "a"),
                          indices(point.a_prime, "a' = 1 - a"), k_max)
