"""Reference values, independent of the expansion machinery.

The Hurwitz zeta function (mpmath's ``zeta(s, a)``, which checks its own
Euler-Maclaurin cancellation), its decomposed companion Z(s,a), the
periodic zeta function F(a,1-s) as mpmath's polylogarithm Li_{1-s}(q) at
q = e^(2 pi i a), and the subtracted form Ftilde(a,s).  The Hurwitz side is
restricted to Re(s) > 1.1 and the periodic side to Im(a) > 0, where
|q| < 1 and the defining sums converge, so these routines can serve as
unconditional ground truth for the expansion machinery.

``ZetaPoint.combine`` is the one place the two rays are weighted,
e^(i pi s/2) x(a) + e^(-i pi s/2) x(a'): the form of the reflection
F = Gamma(s)/(2 pi)^s [e^(i pi s/2) zeta(s,a) + e^(-i pi s/2) zeta(s,a')]
that every Ftilde identity inherits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf, mpc

from .errors import DivergenceError, DomainError, PoleError
from .hp import HEADROOM, PrecisionContext, RayComplex, ray_powers, \
    series_tables

RE_S_MARGIN = mpf("1.1")


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
    """DomainError if s lies within tol of an integer <= highest: a pole
    of Gamma(s) (highest = 0, ``ZetaPoint``) or of Gamma(s + 1), the A_0
    of the expansion (highest = -1, ``z_improved``)."""
    with ctx.working():
        nearest = int(mp.nint(s.real))
        if nearest <= highest and abs(s - nearest) < ctx.tol():
            raise DomainError(
                f"s must not be {highest}, {highest - 1}, {highest - 2}, ..."
                f", got {mp.nstr(s, 8)}")


def _check_re_s(s, ctx: PrecisionContext) -> mpc:
    s = ctx.read(s)
    if s.real <= RE_S_MARGIN:
        raise DomainError(
            f"oracle requires Re(s) > {RE_S_MARGIN}, got Re(s) = {s.real}; "
            "analytic continuation lives in the expansion module")
    return s


def hurwitz_zeta_direct(s, a: RayComplex, ctx: PrecisionContext) -> mpc:
    """zeta(s, a) = sum_{k>=0} (k+a)^(-s), by mpmath's ``zeta(s, a)``,
    rounded to ``working(HEADROOM)``.

    mpmath stops at an absolute tolerance, so the call runs
    max(0, ceil(-log10 |a^-s|)) digits above ``working(HEADROOM)``, with
    log |a^-s| = -Re s log|a| + Im s arg a taken in floats from the ray:
    zeta(s, a) is about a^-s at large |a|, and the digits its size lies
    below 1 are the digits an absolute stop would lose.  mpmath sums its
    head in fixed point only while |Re s| < prec/2 of its own precision,
    and relatively accurately beyond, so the offset is added only while
    |Re s| is below the bits of ``working(HEADROOM)``.
    """
    s = _check_re_s(s, ctx)
    with ctx.working(HEADROOM):
        log_size = float(s.imag * a.argument - s.real * mp.log(a.modulus))
        below = max(0, math.ceil(-log_size / math.log(10))) \
            if abs(s.real) < mp.prec else 0
    with ctx.working(HEADROOM + below):
        aval = a.value()
        if abs(aval.imag) < ctx.tol() and aval.real <= ctx.tol():
            raise DomainError("a must not be a nonpositive real/integer")
        value = mp.zeta(s, aval)
    with ctx.working(HEADROOM):
        return +value


def _subtracted_terms(s, a: RayComplex, ctx: PrecisionContext) -> mpc:
    """a^(-s)/2 + a^(1-s)/(s-1) on the ray a: the two leading algebraic
    terms of zeta(s, a) that Z(s, a) strips."""
    with ctx.working(HEADROOM):
        a_s, a_1s = ray_powers(a, [-s, 1 - s], ctx, extra=HEADROOM)
        return a_s / 2 + a_1s / (s - 1)


def z_reference(s, a: RayComplex, ctx: PrecisionContext) -> mpc:
    """Z(s,a) = Gamma(s) (zeta(s,a) - a^(-s)/2 - a^(1-s)/(s-1))."""
    s = _check_re_s(s, ctx)
    with ctx.working(HEADROOM):
        zeta = hurwitz_zeta_direct(s, a, ctx)
        return series_tables(s, ctx).gamma \
            * (zeta - _subtracted_terms(s, a, ctx))


def periodic_zeta_direct(point: ZetaPoint, ctx: PrecisionContext) -> mpc:
    """F(a, 1-s) = sum_{k>=1} k^(s-1) e^(2 pi i k a) = Li_{1-s}(q) with
    q = e^(2 pi i a), by mpmath's ``polylog``."""
    with ctx.working(HEADROOM):
        aval = point.a.value()
        if aval.imag <= 0:
            raise DivergenceError("periodic zeta sum needs Im(a) > 0")
        q = mp.exp(2 * mp.pi * mpc(0, 1) * aval)
        return mp.polylog(1 - point.s, q)


def f_tilde_reference(point: ZetaPoint, ctx: PrecisionContext) -> mpc:
    """Ftilde(a,s): F(a,1-s) minus the four leading algebraic terms."""
    s = point.s
    if abs(s - 1) < ctx.tol():
        raise PoleError("Ftilde has a pole at s = 1", distance=abs(s - 1))
    with ctx.working(HEADROOM):
        f = periodic_zeta_direct(point, ctx)
        tables = series_tables(s, ctx)
        pref = tables.gamma / tables.two_pi_s
        ga = _subtracted_terms(s, point.a, ctx)
        gap = _subtracted_terms(s, point.a_prime, ctx)
        return f - pref * point.combine(ga, gap, ctx)
