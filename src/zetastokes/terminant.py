"""Terminant function T_nu(z) for large complex order.

T_nu(z) = e^(pi i nu) Gamma(nu)/(2 pi i) * Gamma(1-nu, z), evaluated on the
branch carried by the ray argument of z.  The incomplete gamma function is
computed from one everywhere-convergent series at inflated working
precision (the series suffers cancellation of order e^|z|), taken to its
finite limit at nonpositive integer order.  The two asymptotic regimes of
T_nu(z) near optimal truncation (|nu| ~ |z|) are provided separately,
including the error-function smoothing form on the Stokes line.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf, mpc

from .errors import (ConvergenceError, DomainError, IllConditionedError)
from .hp import PrecisionContext, RayComplex, gamma_complex, pow_ray

ARG_LIMIT_SLACK = 0.1
REGIME_EPSILON = 0.05


@dataclass(frozen=True)
class TerminantQuery:
    nu: mpc
    z: RayComplex

    def __post_init__(self):
        object.__setattr__(self, "nu", mpc(self.nu))
        if not (mp.isfinite(self.nu) and mp.isfinite(self.z.modulus)):
            raise DomainError("terminant requires finite nu and |z|")
        if self.z.modulus <= 0:
            raise DomainError("terminant requires |z| > 0")
        if not abs(float(self.z.argument)) <= 2 * math.pi + ARG_LIMIT_SLACK:
            raise DomainError(
                f"terminant requires |arg z| <= 2 pi, got {self.z.argument}")


def _integer_order(alpha: mpc, ctx: PrecisionContext):
    """Classify alpha: exact integer, dangerously near-integer, or generic."""
    nearest = round(float(alpha.real))
    delta = abs(alpha - nearest)
    if delta == 0:
        return nearest
    if delta < mpf(10) ** (-ctx.digits // 2):
        raise IllConditionedError(
            f"order {alpha} is within 10^(-digits/2) of the integer "
            f"{nearest} but not on it; perturb s instead")
    return None


def _series_inflation(z: RayComplex) -> int:
    # the convergent series loses ~ (|z| + max(Re z, 0))/ln 10 digits to
    # cancellation
    m = float(z.modulus)
    re_z = m * math.cos(float(z.argument))
    return int(math.ceil((m + max(re_z, 0.0)) / math.log(10))) + 10


def upper_gamma(alpha, z: RayComplex, ctx: PrecisionContext) -> mpc:
    """Incomplete gamma Gamma(alpha, z) on the branch set by z.argument.

    Gamma(alpha) - z^alpha sum_m (-z)^m / (m! (alpha + m)) for every order.
    At alpha = -n, n = 0, 1, ..., the m = n term is dropped and Gamma(alpha)
    becomes its finite limit (-1)^n/n! (psi(n+1) - log z), with log z taken
    on the ray (DLMF 8.4.15).
    """
    alpha = mpc(alpha)
    if z.modulus <= 0:
        raise DomainError("upper_gamma requires |z| > 0")
    order = _integer_order(alpha, ctx)
    n = -order if order is not None and order <= 0 else None
    extra = _series_inflation(z)
    with ctx.working(extra):
        eps = mpf(10) ** (-mp.dps + 5)
        zval = z.value()
        zpow = pow_ray(z, alpha, ctx, extra=extra)
        term = mpc(1)
        total = mpc(0) if n == 0 else 1 / alpha
        peak = abs(total)
        for m in range(1, 100000):
            term *= -zval / m
            if m == n:
                continue
            contrib = term / (alpha + m)
            total += contrib
            peak = max(peak, abs(contrib))
            if m > z.modulus and abs(contrib) < eps * peak:
                break
        else:
            raise ConvergenceError("incomplete gamma series did not converge")
        if n is None:
            return mp.gamma(alpha) - zpow * total
        logz = mp.log(mpf(z.modulus)) + mpc(0, 1) * z.argument
        return (-1) ** n / mp.factorial(n) * (mp.digamma(n + 1) - logz) \
            - zpow * total


def terminant(q: TerminantQuery, ctx: PrecisionContext) -> mpc:
    """T_nu(z) = e^(pi i nu) Gamma(nu)/(2 pi i) Gamma(1 - nu, z)."""
    inc = upper_gamma(1 - q.nu, q.z, ctx)
    with ctx.working(10):
        return mp.expjpi(q.nu) * gamma_complex(q.nu, ctx) \
            / (2 * mp.pi * mpc(0, 1)) * inc


def c_of_phi(phi) -> mpc:
    """Smoothing coefficient c(phi), the solution of
    c^2/2 = 1 + i(phi - pi) - e^(i(phi - pi)) on the branch continuous in phi
    with c ~ phi - pi at pi.

    Accepts a float or an mpf; an mpf is used at full precision, so a value
    lying exactly on the Stokes line yields c = 0 exactly.
    """
    if not (0 < float(phi) < 2 * math.pi):
        raise DomainError(f"phi must lie in (0, 2 pi), got {phi}")
    with mp.workdps(30):
        u = mpf(phi) - mp.pi
        if abs(u) < mpf("1e-8"):
            return mpc(u) + mpc(0, 1) * u ** 2 / 6
        # Re(2w/u^2) = 2(1 - cos u)/u^2 > 0, so the principal root never
        # meets its cut and c = u sqrt(2w/u^2) is continuous with c ~ u
        w = 1 + mpc(0, 1) * u - mp.expj(u)
        return u * mp.sqrt(2 * w / u ** 2)


def terminant_asymptotic(q: TerminantQuery, ctx: PrecisionContext):
    """Asymptotic T_nu(z) for |nu| ~ |z| >> 1; returns (value, regime).

    The smoothing (error-function) form is used on [eps, 2 pi - eps] and the
    algebraically decaying form on [-pi + eps, pi - eps]; in the overlap the
    smoothing form wins.
    """
    ratio = abs(q.nu) / q.z.modulus
    if not (0.5 <= ratio <= 2 and q.z.modulus >= 10):
        raise DomainError(
            "asymptotic form needs |nu|/|z| in [0.5, 2] and |z| >= 10")
    phi = float(q.z.argument)
    eps = REGIME_EPSILON
    if eps <= phi <= 2 * math.pi - eps:
        c = c_of_phi(q.z.argument)
        with ctx.working():
            val = mpf(1) / 2 + mp.erf(c * mp.sqrt(mpf(q.z.modulus) / 2)) / 2
        return val, "smoothing"
    if -math.pi + eps <= phi <= math.pi - eps:
        with ctx.working():
            zval = q.z.value()
            num = -mpc(0, 1) * mp.exp(mpc(0, 1) * (mp.pi - q.z.argument) * q.nu)
            val = num / (1 + mp.exp(-mpc(0, 1) * q.z.argument)) \
                * mp.exp(-zval - q.z.modulus) / mp.sqrt(2 * mp.pi * q.z.modulus)
        return val, "away"
    raise DomainError(f"arg z = {phi} is outside both asymptotic regimes")
