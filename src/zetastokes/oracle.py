"""Reference values, independent of the expansion machinery.

The Hurwitz zeta function, by an Euler-Maclaurin sum of its own: a head
of powers (a+k)^(-s) and a tail in (a+M)^-2, sized in floats to the
tail's error floor and checked for the digits it cancels (it shares with
the expansion only ``hp._fixed_horner``, which sums the tail, and the tail
factors c_j, which the S_1 cross-check's ``bernoulli_series`` reads and
``z_improved`` never does); its decomposed companion Z(s,a); the
periodic zeta function F(a,1-s) = sum_k k^(s-1) q^k at q = e^(2 pi i a),
summed in q by ``hp._fixed_horner`` over the owned powers k^(s-1) where
its terms fall by a factor 3 or more, and elsewhere (near the real axis,
at |a| near 1, at large Re s) by the reflection
F = Gamma(s)/(2 pi)^s [e^(i pi s/2) zeta(s,a) + e^(-i pi s/2) zeta(s,a')]
through two of those Euler-Maclaurin sums, checked for the digits its two
terms cancel; and the subtracted form Ftilde(a,s).  The Hurwitz side
admits s by the rule that ``ZetaPoint.create`` and ``z_improved`` use,
``check_s_off_poles``, off 1, 0, -1, ..., and the periodic side Im(a) > 0,
where |q| < 1 and the defining sums converge, so these routines can serve
as unconditional ground truth for the expansion machinery wherever the
expansion holds.  No routine here calls mpmath's zeta or polylog.

``ZetaPoint.combine`` is the one place the two rays are weighted at
``working(HEADROOM)``, e^(i pi s/2) x(a) + e^(-i pi s/2) x(a'): the form
of the reflection that every Ftilde identity inherits.  The reflection
itself weighs its two sums in that form at HURWITZ_EXTRA more digits, the
digits the sums carry, because they cancel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpc

from .errors import (ConvergenceError, DivergenceError, DomainError,
                     PoleError)
from .hp import (HEADROOM, HURWITZ_EXTRA, PrecisionContext, RayComplex,
                 _fixed_horner, digits_lost, float_log, phase_bits,
                 pow_ray, series_tables)

# Most head terms, and most tail terms, of the Euler-Maclaurin sum of
# ``hurwitz_zeta_direct``: about 150 us per head term at 100 digits, and
# the tail's exact Bernoulli numbers take about 1 s up to B_2000, once per
# process.  On the a' ray at |a| = 6, arg a = 0.45 pi, s = 2 + 1000i the
# sum takes 228 and 456.
EM_TERM_LIMIT = 1000


@dataclass(frozen=True)
class ZetaPoint:
    """A sample point a = |a| e^(i theta) in the upper half-plane.

    Carries s, the ray for a (argument in (0, pi)) and the ray for
    a' = 1 - a with its principal argument in (-pi, 0).
    """

    s: mpc
    a: RayComplex
    a_prime: RayComplex

    @classmethod
    def create(cls, s, a: RayComplex, ctx: PrecisionContext) -> "ZetaPoint":
        s = ctx.read(s)
        if not (0 < a.argument < mp.pi):
            raise DomainError(f"arg a must lie in (0, pi), got {a.argument}")
        check_s_off_poles(s, 0, ctx)
        with ctx.working(HEADROOM):
            # from_value reads the ambient precision, so the conversion must
            # stay inside the working block: a' = 1 - a has to hold to full
            # precision for the two-ray reflection identities to close
            a_prime = RayComplex.from_value(1 - a.value())
        if not (-mp.pi < a_prime.argument < 0):
            raise DomainError(
                f"arg a' expected in (-pi, 0), got {a_prime.argument}")
        return cls(s=s, a=a, a_prime=a_prime)

    def combine(self, x, x_prime, ctx: PrecisionContext) -> mpc:
        """e^(i pi s/2) x + e^(-i pi s/2) x_prime: a value on the ray a
        weighted with one on the ray a' as in the reflection formula."""
        half_is = series_tables(self.s, ctx).phase_half_s
        with ctx.working(HEADROOM):
            return half_is * x + x_prime / half_is


def check_s_off_poles(s: mpc, highest: int, ctx: PrecisionContext) -> None:
    """DomainError if s is not finite or lies within tol of an integer
    <= highest: a pole of Gamma(s) (highest = 0, ``ZetaPoint``), of
    Gamma(s + 1), the A_0 of the expansion (highest = -1, ``z_improved``),
    or of Gamma(s) and of zeta(s, a) (highest = 1, ``hurwitz_zeta_direct``
    and ``z_reference``)."""
    if not mp.isfinite(s):
        raise DomainError(f"s must be finite, got {s}")
    with ctx.working():
        nearest = int(mp.nint(s.real))
        if nearest <= highest and abs(s - nearest) < ctx.tol():
            raise DomainError(
                f"s must not be {highest}, {highest - 1}, {highest - 2}, ..."
                f", got {mp.nstr(s, 8)}")


def hurwitz_zeta_direct(s, a: RayComplex, ctx: PrecisionContext) -> mpc:
    """zeta(s, a) = sum_{k>=0} (a+k)^(-s), continued to every s off
    ``check_s_off_poles(s, 1)``, in principal powers, rounded to
    ``working(HEADROOM)``: the Euler-Maclaurin sum (DLMF 2.10.1)

        sum_{k<M} (a+k)^(-s) + w^(-s)/2 + w^(1-s)/(s-1)
            + w^(-1-s) sum_{j=1..J} c_j w^(-2(j-1)),      w = a + M,

    with c_j = B_2j/(2j)! (s)_(2j-1) from ``hp.SeriesTables.hurwitz_tail``,
    summed in w^-2 by ``hp._fixed_horner``.  ``_lengths`` sizes M and J,
    and ``_euler_maclaurin`` sums and counts the digits the sum cancels.
    A first pass truncates at 10^-(D + HURWITZ_EXTRA) of its largest addend,
    D the digits of ``working(HEADROOM)``; where it cancels more digits
    than it carries, a second truncates at 10^-(D + HURWITZ_EXTRA) of the
    value the first found, read by ``hp.float_log``, and carries the digits
    its own addends are larger by.  ConvergenceError if that one falls
    short too.
    """
    s = ctx.read(s)
    check_s_off_poles(s, 1, ctx)
    value = _hurwitz_zeta(s, a, ctx)
    with ctx.working(HEADROOM):
        return +value


def _hurwitz_zeta(s: mpc, a: RayComplex, ctx: PrecisionContext) -> mpc:
    """The sum of ``hurwitz_zeta_direct``, unrounded, for any s but 1:
    ``_reflection`` reads it at the HURWITZ_EXTRA digits it carries."""
    with ctx.working(HEADROOM):
        aval = a.value()
        if abs(aval.imag) < ctx.tol() and aval.real <= ctx.tol():
            raise DomainError("a must not be a nonpositive real/integer")
    value, spare = _euler_maclaurin(s, a, ctx, None)
    if spare < 0 and value:
        value, spare = _euler_maclaurin(s, a, ctx, float_log(value))
    if spare < 0:
        raise ConvergenceError(
            f"the Euler-Maclaurin sum of zeta(s, a) at s = {mp.nstr(s, 8)}, "
            f"a = {mp.nstr(aval, 8)} cancels {-spare:.1f} digits more than "
            "it carries")
    return value


def _lengths(s: mpc, aval: mpc, tables, digits: int,
             scale: float | None) -> tuple:
    """(M, J, top) of the Euler-Maclaurin sum, in floats: the budget is
    10^-digits of e^scale, or of e^top for a scale of None, with top the
    log of the largest addend.

    Sizes are natural logs: the head terms h_k = ln |(a+k)^(-s)| =
    -Re s ln|a+k| + Im s arg(a+k), through k = M (w^(-s) is the head's
    next term), the lead ln |w^(1-s)/(s-1)|, and the tail terms t_j =
    ln |c_j| + ln |w^(1-s)| - 2j ln|w|, with ln |c_j| the ``hp.float_log``
    of the owned factor that a first pass sums
    (``tables.hurwitz_tail_logs``).
    At a head length M, J is the first j with t_j below the budget; there
    is none if the terms turn upward first, because the tail's floor,
    about e^(-2 pi |w|) of the lead while |s| is small, lies above the
    budget.  M is at least -Re a, so that the half-line w + [0, oo) of the
    remainder stays in the right half-plane.  The search starts at the
    least such M with |w| >= max(|Im s|, digits ln 10)/(2 pi), steps up
    until there is a J, and bisects down, as far as -Re a, while one head
    term fewer has one too.  The |Im s|/(2 pi) radius sets only where the
    search starts, and is no floor on the M found.  Below it no t_j
    reaches the budget relative to the lead (|s-1| >= |Im s| and |c_j| >=
    2 |Im s|^(2j-1) (2 pi)^-2j), and "a J exists at M" need not be
    monotone in M, so a search started at M = -Re a can stop at a wrong M;
    but where a head term outweighs the lead by far, the bisection may
    still end below it (s = 3.3 + 1000i, a = 45.5 e^(0.49 pi i): M = 11,
    |w| = 47 against 159), and only measured agreement guards such an M.
    The digits ln 10/(2 pi) term, where e^(-2 pi |w|) reaches the budget,
    only saves probes.  So the sizing reads the c_j only through
    ``sizes``, up to the J it returns or the first upturn.  DomainError
    beyond EM_TERM_LIMIT head terms.
    """
    sr, si = float(s.real), float(s.imag)
    ar, ai = float(aval.real), float(aval.imag)
    if not math.isfinite(math.hypot(ar, ai)):
        raise DomainError(f"|a| = {mp.nstr(abs(aval), 8)} passes the float "
                          "range that sizes the Euler-Maclaurin sum")
    log_s1 = float_log(s - 1)
    unit = -digits * math.log(10)
    low = max(0, math.ceil(-ar))
    if low >= EM_TERM_LIMIT:
        raise DomainError(
            f"zeta(s, a) at a = {mp.nstr(aval, 8)} needs a head of M >= -Re a "
            f"= {low} terms, for Re (a + M) > 0; the limit is {EM_TERM_LIMIT}")
    peaks = [-math.inf]  # peaks[k]: the largest h_i for i < k

    def sizes(m):  # (J or None, top) at head length m
        while len(peaks) <= m + 1:
            k = len(peaks) - 1
            peaks.append(max(peaks[-1], si * math.atan2(ai, ar + k)
                             - sr * math.log(math.hypot(ar + k, ai))))
        lam, phi = math.log(math.hypot(ar + m, ai)), math.atan2(ai, ar + m)
        lead = si * phi - (sr - 1) * lam  # ln |w^(1-s)|
        top = max(peaks[m + 1], lead - log_s1)
        budget = unit + (top if scale is None else scale)
        prev = math.inf
        for j in range(1, EM_TERM_LIMIT + 1):
            t = tables.hurwitz_tail_logs(j)[j - 1] + lead - 2 * j * lam
            if t < budget:
                return j, top
            if not t < prev:
                break
            prev = t
        return None, top

    # the least real M with |a + M| at the start's radius
    radius = max(abs(si), -unit) / (2 * math.pi)
    reach = math.sqrt(max(0.0, radius * radius - ai * ai)) - ar
    lo, hi = low - 1, max(low, math.ceil(min(reach, EM_TERM_LIMIT)))
    step = 1
    while sizes(hi)[0] is None:
        if hi >= EM_TERM_LIMIT:
            raise DomainError(
                f"the Euler-Maclaurin sum of zeta(s, a) at "
                f"s = {mp.nstr(s, 8)}, a = {mp.nstr(aval, 8)} needs more "
                f"than {EM_TERM_LIMIT} head terms")
        lo, hi, step = hi, min(hi + step, EM_TERM_LIMIT), 2 * step
    if hi - 1 > lo and sizes(hi - 1)[0] is None:
        lo = hi - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if sizes(mid)[0] is None else (lo, mid)
    return (hi,) + sizes(hi)


def _euler_maclaurin(s: mpc, a: RayComplex, ctx: PrecisionContext,
                     scale: float | None) -> tuple:
    """(the sum of ``hurwitz_zeta_direct``, its spare digits), truncated
    by ``_lengths`` at 10^-(D + HURWITZ_EXTRA) of e^scale, or of the largest
    addend for a scale of None, and summed at ``working(HEADROOM +
    extra)``, where extra is HURWITZ_EXTRA plus the digits by which the
    largest addend exceeds e^scale.

    Each power z^(-s) is taken with the ``hp.phase_bits`` of (s, span
    + pi), span the largest |ln|z|| of the head, which its exponent's
    rounding costs, and ``mp.fsum`` rounds the sum of
    the addends once.  So each addend is off by a few units of the
    precision, and the truncated tail by about ten: the sum is off by less
    than (M + 20) units of its largest addend, and relative to its value by
    10^lost times that, with lost the ``hp.digits_lost`` of the addends (and
    of the tail's first term) against the value.  The spare,
    extra - lost - log10(M + 20), is the digits by which that error stays
    below 10^-D.
    """
    tables = series_tables(s, ctx)
    with ctx.working(HEADROOM):
        m, j, top = _lengths(s, a.value(), tables, mp.dps + HURWITZ_EXTRA,
                             scale)
    if j is None:
        raise ConvergenceError(
            f"the Euler-Maclaurin tail at s = {mp.nstr(s, 8)} turns upward "
            f"before its budget with {m} head terms")
    extra = HURWITZ_EXTRA if scale is None \
        else HURWITZ_EXTRA + max(0, math.ceil((top - scale) / math.log(10)))
    with ctx.working(HEADROOM + extra):
        aval = a.value()
        span = max(abs(math.log(abs(complex(aval) + k)))
                   for k in range(m + 1))
        with mp.extraprec(phase_bits(s, span + math.pi)):
            z = a.value()
            powers = [(z + k) ** -s for k in range(m + 1)]
        w, w_s = aval + m, powers.pop()
        coeffs = tables.hurwitz_tail(j, extra)
        addends = powers + [w_s / 2, w_s * w / (s - 1),
                            _fixed_horner(coeffs, w ** -2) * w_s / w]
        value = mp.fsum(addends)
        lost = digits_lost(value, addends + [coeffs[0] * w_s / w])
    return value, extra - lost - math.log10(m + 20)


def _subtracted_terms(s, a: RayComplex, ctx: PrecisionContext) -> tuple:
    """(a^(-s)/2, a^(1-s)/(s-1)) on the ray a: the two leading algebraic
    terms of zeta(s, a) that Z(s, a) strips, with a^(1-s) = a^(-s) a."""
    with ctx.working(HEADROOM):
        a_s = pow_ray(a, -s, ctx, extra=HEADROOM)
        return a_s / 2, a_s * a.value() / (s - 1)


def _check_cancellation(value, terms, what: str, s, aval) -> None:
    """ConvergenceError if value, the sum of terms, cancels more than
    HEADROOM digits (the ``hp.digits_lost`` of the terms against it): the
    quantity named what, at s and a = aval, would then be off by more than
    10^-(digits + guard)."""
    lost = digits_lost(value, terms)
    if not lost <= HEADROOM:
        raise ConvergenceError(
            f"{what} at s = {mp.nstr(s, 8)}, a = {mp.nstr(aval, 8)} cancels "
            f"{lost:.1f} digits, more than the {HEADROOM} of headroom")


def z_reference(s, a: RayComplex, ctx: PrecisionContext) -> mpc:
    """Z(s,a) = Gamma(s) (zeta(s,a) - a^(-s)/2 - a^(1-s)/(s-1)), for s off
    ``check_s_off_poles(s, 1)``, at ``working(HEADROOM)``.  The
    subtraction cancels about 2 log10|a| digits at large |a|, and more near
    s = 1 and s = 0, where the bracket is small beside its terms: the
    ``hp.digits_lost`` of zeta and the two terms against their difference
    may take up HEADROOM, and ConvergenceError beyond."""
    s = ctx.read(s)
    check_s_off_poles(s, 1, ctx)
    with ctx.working(HEADROOM):
        zeta = hurwitz_zeta_direct(s, a, ctx)
        half, lead = _subtracted_terms(s, a, ctx)
        value = zeta - (half + lead)
        _check_cancellation(value, (zeta, half, lead), "Z(s, a)", s,
                            a.value())
        return series_tables(s, ctx).gamma * value


def periodic_zeta_direct(point: ZetaPoint, ctx: PrecisionContext) -> mpc:
    """F(a, 1-s) = sum_{k>=1} k^(s-1) q^k with q = e^(2 pi i a) the ray's
    kept ``q()``, at ``working(HEADROOM)``.  Where rho = 2^max(Re s - 1, 0)
    |q| <= 1/3 (every pinned sweep and benchmark point), it is
    q sum_{k<=K} k^(s-1) q^(k-1) by
    ``hp._fixed_horner`` over ``SeriesTables.k_power``, right at any
    |Im s| by its phase rule: each term is at most a third of the one
    before, so |F| >= |q|/2 and nothing cancels, and K is the first k at
    which the float log of the next term over q, (Re s - 1) ln(k+1)
    + k ln|q|, falls below -(D+2) ln 10, D the digits of the working
    precision.  Elsewhere it is the reflection of ``_reflection``, and
    q/(1-q) at s = 1 exactly."""
    with ctx.working(HEADROOM):
        aval = point.a.value()
        if aval.imag <= 0:
            raise DivergenceError("periodic zeta sum needs Im(a) > 0")
        re_s1 = float(point.s.real) - 1
        log_q = -2 * math.pi * float(aval.imag)
        q = point.a.q()
        if not max(re_s1, 0) * math.log(2) + log_q <= -math.log(3):
            # both zeta values of the reflection have a pole at s = 1
            return q / (1 - q) if point.s == 1 else _reflection(point, ctx)
        floor, k = -(mp.dps + 2) * math.log(10), 1
        while re_s1 * math.log(k + 1) + k * log_q >= floor:
            k += 1
        tables = series_tables(point.s, ctx)
        return q * _fixed_horner([tables.k_power(j)
                                  for j in range(1, k + 1)], q)


def _reflection(point: ZetaPoint, ctx: PrecisionContext) -> mpc:
    """F(a, 1-s) = Gamma(s) (2 pi)^-s [e^(i pi s/2) zeta(s, a0)
    + e^(-i pi s/2) zeta(s, a0')] (DLMF 25.13.2), at ``working(HEADROOM)``,
    with a0 = a - floor(Re a) and a0' = 1 - a0.  F reads a only through q,
    so the shift by a whole period moves only the Euler-Maclaurin sums,
    whose heads then need no terms to reach Re w > 0 (unshifted, a' at
    a = 1500.3 + 0.01i would need 1500).  The rays a0 and a0' are built at
    ``working(HEADROOM + HURWITZ_EXTRA)``, the least precision at which the
    ``_hurwitz_zeta`` sums read them, and the sums are weighted there, as
    in ``ZetaPoint.combine``, before Gamma(s) and (2 pi)^-s at
    ``working(HEADROOM)``.  The weighted terms cancel where F is small
    beside them (near s = 1, where both zeta values have a pole, and at
    large |s|): the digits lost, the ``hp.digits_lost`` of the terms
    against their sum, may take up HEADROOM, and ConvergenceError beyond.
    Not for s = 1 itself."""
    s = point.s
    with ctx.working(HEADROOM + HURWITZ_EXTRA):
        aval = point.a.value()
        a0 = aval - mp.floor(aval.real)
        zeta, zeta_prime = (_hurwitz_zeta(s, RayComplex.from_value(x), ctx)
                            for x in (a0, 1 - a0))
        half_is = mp.expjpi(s / 2)
        terms = half_is * zeta, zeta_prime / half_is
        value = terms[0] + terms[1]
    _check_cancellation(value, terms, "the reflection of F(a, 1-s)", s, aval)
    with ctx.working(HEADROOM):
        return mp.gamma(s) * series_tables(s, ctx).two_pi_minus_s * value


def f_tilde_reference(point: ZetaPoint, ctx: PrecisionContext) -> mpc:
    """Ftilde(a,s): F(a,1-s) minus the four leading algebraic terms."""
    s = point.s
    if abs(s - 1) < ctx.tol():
        raise PoleError("Ftilde has a pole at s = 1", distance=abs(s - 1))
    with ctx.working(HEADROOM):
        f = periodic_zeta_direct(point, ctx)
        tables = series_tables(s, ctx)
        pref = tables.gamma / tables.two_pi_s
        ga = sum(_subtracted_terms(s, point.a, ctx))
        gap = sum(_subtracted_terms(s, point.a_prime, ctx))
        return f - pref * point.combine(ga, gap, ctx)
