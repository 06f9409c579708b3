"""Brute-force reference values.

Direct convergent summation for the Hurwitz zeta function, its decomposed
companion Z(s,a), the periodic zeta function F(a,1-s) and the subtracted
form Ftilde(a,s).  Everything here is deliberately restricted to
Re(s) > 1.1 where the defining sums converge, so these routines can serve
as unconditional ground truth for the expansion machinery.
"""
from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf, mpc

from .errors import DivergenceError, DomainError, PoleError
from .hp import (PrecisionContext, RayComplex, bernoulli_even, gamma_complex,
                 pow_ray)

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
    theta: mpf

    @classmethod
    def create(cls, s, a: RayComplex, ctx: PrecisionContext) -> "ZetaPoint":
        s = mpc(s)
        theta = mpf(a.argument)
        if not (0 < theta < mp.pi):
            raise DomainError(f"arg a must lie in (0, pi), got {theta}")
        if abs(s.imag) < ctx.tol():
            nearest = round(s.real)
            if nearest <= 0 and abs(s - nearest) < ctx.tol():
                raise DomainError("s must not be 0, -1, -2, ...")
        with ctx.working(10):
            # from_value reads the ambient precision, so the conversion must
            # stay inside the working block: a' = 1 - a has to hold to full
            # precision for the two-ray reflection identities to close
            a_prime = RayComplex.from_value(1 - a.value())
        if not (-mp.pi < a_prime.argument < 0):
            raise DomainError(
                f"arg a' expected in (-pi, 0), got {a_prime.argument}")
        return cls(s=s, a=a, a_prime=a_prime, theta=theta)


def _check_re_s(s) -> mpc:
    s = mpc(s)
    if s.real <= RE_S_MARGIN:
        raise DomainError(
            f"oracle requires Re(s) > {RE_S_MARGIN}, got Re(s) = {s.real}; "
            "analytic continuation lives in the expansion module")
    return s


def hurwitz_zeta_direct(s, a: RayComplex, ctx: PrecisionContext) -> mpc:
    """zeta(s, a) by direct summation plus an Euler-Maclaurin tail.

    The head sums (k+a)^(-s) for k < M; the tail adds the integral term,
    the half term and B_{2r} corrections until the first omitted one drops
    below the working tolerance.
    """
    s = _check_re_s(s)
    aval = a.value()
    if abs(aval.imag) < ctx.tol() and aval.real <= ctx.tol():
        raise DomainError("a must not be a nonpositive real/integer")
    M = max(30, ctx.digits)
    with ctx.working(10):
        eps = mpf(10) ** (-(ctx.digits + ctx.guard))
        head = mp.fsum(
            (pow_ray(RayComplex.from_value(k + aval), -s, ctx, extra=10)
             for k in range(M)),
            absolute=False,
        )
        w = M + aval  # summation edge; Re(w) > 0 for all supported a
        wray = RayComplex.from_value(w)
        tail = pow_ray(wray, 1 - s, ctx, extra=10) / (s - 1)
        tail += pow_ray(wray, -s, ctx, extra=10) / 2
        # Euler-Maclaurin corrections B_{2r}/(2r)! * s(s+1)...(s+2r-2) * w^(-s-2r+1)
        poch = s  # running product s(s+1)...(s+2r-2)
        wpow = pow_ray(wray, -s - 1, ctx, extra=10)
        w2 = w * w
        prev_mag = mp.inf
        for r in range(1, 200):
            b = bernoulli_even(r)
            corr = (mpf(b.numerator) / b.denominator) / mp.factorial(2 * r) \
                * poch * wpow
            mag = abs(corr)
            if mag >= prev_mag:
                # corrections started to diverge before reaching eps; the
                # head length M guarantees this cannot happen for the
                # supported |s|, so treat it as a hard failure
                raise DivergenceError(
                    "Euler-Maclaurin corrections stopped decreasing")
            tail += corr
            if mag < eps * (abs(head) + abs(tail)):
                break
            prev_mag = mag
            poch *= (s + 2 * r - 1) * (s + 2 * r)
            wpow /= w2
        return head + tail


def z_reference(s, a: RayComplex, ctx: PrecisionContext) -> mpc:
    """Z(s,a) = Gamma(s) (zeta(s,a) - a^(-s)/2 - a^(1-s)/(s-1))."""
    s = _check_re_s(s)
    if abs(s - 1) < ctx.tol():
        raise PoleError("Z(s,a) has a pole at s = 1", distance=abs(s - 1))
    with ctx.working(10):
        zeta = hurwitz_zeta_direct(s, a, ctx)
        alg = pow_ray(a, -s, ctx, extra=10) / 2 \
            + pow_ray(a, 1 - s, ctx, extra=10) / (s - 1)
        return gamma_complex(s, ctx) * (zeta - alg)


def periodic_zeta_direct(point: ZetaPoint, ctx: PrecisionContext) -> mpc:
    """F(a, 1-s) = sum_{k>=1} k^(s-1) e^(2 pi i k a), geometric in k."""
    s = point.s
    with ctx.working(10):
        aval = point.a.value()
        if aval.imag <= 0:
            raise DivergenceError("periodic zeta sum needs Im(a) > 0")
        eps = mpf(10) ** (-(ctx.digits + ctx.guard))
        q = mp.exp(2 * mp.pi * mpc(0, 1) * aval)
        absq = abs(q)
        total = mpc(0)
        qk = mpc(1)
        k = 0
        while True:
            k += 1
            qk *= q
            term = mp.exp((s - 1) * mp.log(k)) * qk
            total += term
            if k >= 3 and abs(term) < eps * abs(total):
                # geometric tail bound: |tail| <= |term| * r/(1-r) with
                # r = |q| * ((k+1)/k)^max(Re s - 1, 0) < 1 for the supported a
                ratio = absq * mpf((k + 1) / k) ** max(float(s.real) - 1, 0.0)
                if ratio < 1:
                    bound = abs(term) * ratio / (1 - ratio)
                    if bound < eps * abs(total):
                        break
            if k > 10000:
                raise DivergenceError("periodic zeta sum did not converge")
        return total


def f_tilde_reference(point: ZetaPoint, ctx: PrecisionContext) -> mpc:
    """Ftilde(a,s): F(a,1-s) minus the four leading algebraic terms."""
    s = point.s
    if abs(s - 1) < ctx.tol():
        raise PoleError("Ftilde has a pole at s = 1", distance=abs(s - 1))
    with ctx.working(10):
        f = periodic_zeta_direct(point, ctx)
        pref = gamma_complex(s, ctx) / (2 * mp.pi) ** s
        half_is = mp.expjpi(s / 2)
        ga = pow_ray(point.a, -s, ctx, extra=10) / 2 \
            + pow_ray(point.a, 1 - s, ctx, extra=10) / (s - 1)
        gap = pow_ray(point.a_prime, -s, ctx, extra=10) / 2 \
            + pow_ray(point.a_prime, 1 - s, ctx, extra=10) / (s - 1)
        return f - pref * (half_is * ga + gap / half_is)
