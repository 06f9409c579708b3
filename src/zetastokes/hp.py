"""Arbitrary-precision foundation.

Precision contexts, complex numbers carried in polar form with a
*continuous* (unreduced) argument, exact Bernoulli numbers, and the base
special functions every other module consumes.  All heavy lifting is done
with mpmath; values are computed at ``digits + guard`` decimal digits (plus
any operation-specific inflation) and returned as mpmath numbers.

Every value that depends on s and the context but not on theta has one
owner, a ``SeriesTables`` per (s, ctx), so a sweep computes it once;
``series_tables`` keeps the TABLES_LIMIT most recently used, and one
dropped is built again, with the same bits, when next asked for.  The
memos keyed on a terminant order are bounded by ORDER_LIMIT; only
``hurwitz_zeta_integer``, keyed on (m, base, ctx), has none: one table per
context, of 25, 37 and 140 entries after a benchmark n1, n2 or grid pass.

``hurwitz_zeta_integer`` takes no special-function call: while
m log10(2) < D, with D the digits of ``working(HEADROOM)``, it subtracts
the partial sum below the base from the exact zeta(m) of the Bernoulli
numbers at D + ceil(m log10(base)) + 1 digits, the digits the subtraction
cancels; beyond that it sums the tail directly until a remainder bound
drops below 10^(-D) of it.  Both are right to a few units of 10^(-D),
relative.  (mpmath's ``zeta(m, base)`` is not used: it stops at an
absolute tolerance, so at D = 90 it has zeta(46, 3) only to 5e-76,
relative.)

What does depend on theta is the power of the ray a.  ``pow_ray`` is the
one place that takes a non-integer power of a ray, exp(e (log|base| +
i arg base)), and a ray keeps each power it was asked for, per exponent,
context and offset, as it keeps its ``value()`` per precision.  Every other
algebraic power of a sweep point, a^(1-s), a^(-1-s), (2 pi a)^-(s+1) and
the steps a^-2 and (2 pi a)^-2, is a^(-s) times an integer power of the
ray's value and of 2 pi: one exponential per ray and precision.

The precision budget is decided here: every offset of ``ctx.working`` and
every fixed precision is a named constant below, with its reason, and so
is ``FIXED_GUARD_BITS``, the bits that the three fixed-point kernels
(``terminant``'s series and continued fraction, ``expansion``'s Horner sum)
carry beyond the working precision; only the error-model constants of
``terminant`` and ``expansion`` live elsewhere.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from itertools import accumulate
from fractions import Fraction

from mpmath import mp, mpf, mpc
from mpmath.libmp import from_float, from_int

from .errors import DomainError, PoleError


MIN_DIGITS = 30

# The precision budget: working precisions are digits + GUARD + an offset.
GUARD = 20  # digits beyond ctx.digits that absorb the peel's rounding
HEADROOM = 10  # a step's offset: its own few roundings stay below GUARD
# Offset of the three A_r factor steps: the block sums' powers of the ray
# (a^(-s) and the steps from the ray's value), the signed-Gamma recurrence
# and gamma_complex.  At 0 they round at digits + GUARD, which caps a
# 60-digit fig1c sweep near 52 true digits; ``stokes.sweep`` reaches the
# digits asked for by raising the whole context (PRINT_MARGIN).  Raising
# this offset instead would need resolved_digits to count it, which it
# does not (ROADMAP item 11).
FACTOR_EXTRA = 0
# validate.connection_residual's offset: the phase e^(2 pi i nu) and the
# difference of two terminants round below the terminants' own digits.
CONNECTION_EXTRA = 20
LOG_ESTIMATE_DIGITS = 20  # extend_plan compares its logs to within a digit
SMOOTHING_DIGITS = 30  # c_of_phi: its form is only good to O(|z|^(-1/2))
RAY_VALUE_BITS = 10  # RayComplex.value: bits above the caller's precision
# Bits the fixed-point kernels carry beyond the working precision: the
# incomplete-gamma series and continued fraction (``terminant``) and the
# Horner sum of both algebraic series (``expansion``).  Each kernel derives
# its error bound from this value next to its code.
FIXED_GUARD_BITS = 40
# Digits that ``stokes.sweep`` resolves beyond the last one asked for: a
# part rounds wrongly only if its error reaches a rounding boundary, about
# 2 10^-PRINT_MARGIN of the time.
PRINT_MARGIN = 5
# Owners of the theta-independent state that ``series_tables`` keeps, and
# entries of each memo keyed on a terminant order (``terminant``'s
# prefactor and series heads).  A sweep needs one owner per context; the
# benchmark's grid at seeds 0 and 3 meets 35 owners, 78 prefactors, 102
# heads and 44 integer-order heads; a nine-point S_1 sweep's owner holds
# about 34 KiB at 60 digits.
TABLES_LIMIT = 64
ORDER_LIMIT = 256


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision in decimal digits plus the fixed GUARD digits.

    ``tol()`` is the derived comparison tolerance 10^(-digits+10) used by
    all identity checks in the package.
    """

    digits: int = 60
    guard: int = field(default=GUARD, init=False)

    def __post_init__(self):
        if self.digits < MIN_DIGITS:
            raise ValueError(
                f"digits must be >= {MIN_DIGITS}, got {self.digits}")

    def reduced(self, digits: int) -> "PrecisionContext":
        """This context working at the precision of
        ``PrecisionContext(digits)``, if that is lower.

        Only the working precision drops: ``self.digits``, and with it the
        tolerance 10^(-digits+10) and the near-integer band of a terminant
        order, stay the caller's, so a value needed to fewer digits is
        classified like every other.  The guard takes up the difference
        and may go negative.
        """
        out = PrecisionContext(self.digits)
        object.__setattr__(out, "guard",
                           min(self.guard, digits + out.guard - self.digits))
        return out

    def tol(self) -> mpf:
        with self.working():
            return mpf(10) ** (-self.digits + 10)

    def working(self, extra: int = 0):
        """Context manager setting the working decimal precision."""
        return mp.workdps(self.digits + self.guard + extra)

    def read(self, x) -> mpc:
        """The input number x as an mpc, whatever the caller's precision.

        An mpmath number is taken exactly as given, never re-rounded; an
        int, float or Python complex is exact already; only a decimal
        string is parsed, at ``working(HEADROOM)``.  Every entry point reads
        its s or order through here, once.
        """
        if isinstance(x, mpc):
            return x
        if isinstance(x, str):
            with self.working(HEADROOM):
                return mpc(x)
        return mp.make_mpc((_exact(x.real), _exact(x.imag)))


def _exact(part) -> tuple:
    """An mpf, float or int as a raw mpf tuple, unrounded."""
    if isinstance(part, mpf):
        return part._mpf_
    if isinstance(part, float):
        return from_float(part)
    return from_int(operator.index(part))


@dataclass(frozen=True)
class RayComplex:
    """A complex number as (modulus, continuous argument).

    The argument is *not* reduced mod 2pi: two rays whose arguments differ
    by 2pi have equal ``value()`` but are distinct data.  This makes branch
    choices (a*exp(-i*pi), arguments beyond pi, ...) explicit.

    Invariant: the modulus is finite and > 0 and the argument is finite;
    construction raises DomainError otherwise, so no consumer of a ray
    checks it again.  Both are stored as given, unconverted.

    A ray keeps what it computes of itself: ``value()`` per precision and
    each ``pow_ray`` per (exponent, context, offset).  The memo lives and
    dies with the ray, which lives as long as its point, and takes no part
    in equality, hashing or repr.
    """

    modulus: mpf
    argument: mpf
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        if not (mp.isfinite(self.modulus) and mp.isfinite(self.argument)):
            raise DomainError("a ray needs a finite modulus and argument")
        if self.modulus <= 0:
            raise DomainError("a ray needs a strictly positive modulus")

    def value(self) -> mpc:
        """The ray's complex value, RAY_VALUE_BITS above the caller's
        precision; kept per precision."""
        prec = mp.prec
        if prec not in self._memo:
            with mp.extraprec(RAY_VALUE_BITS):
                self._memo[prec] = mpc(self.modulus) \
                    * mp.expj(self.argument)
        return self._memo[prec]

    @classmethod
    def from_value(cls, z) -> "RayComplex":
        """Build a ray from a complex value with its principal argument."""
        z = mpc(z)
        return cls(abs(z), mp.arg(z))


# ---------------------------------------------------------------------------
# Bernoulli numbers (exact rationals)

# The last row of the Seidel-Entringer triangle and the zigzag numbers
# E_0, E_1, ... that end its rows, grown on demand by ``bernoulli_even``.
_ENTRINGER_ROW = [1]
_ZIGZAG = [1]


def bernoulli_even(k: int) -> Fraction:
    """Exact even-order Bernoulli number B_{2k}, k >= 1.

    B_{2k} = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), with the tangent number
    T_k = E_(2k-1), a zigzag number.  Each row of the Seidel-Entringer
    triangle is the running sum, from 0, of the previous row reversed, and
    ends in the next E_n: integer additions only, each row once per
    process.  (mpmath's ``bernfrac`` finds B_2k from a numerical zeta(2k)
    at a precision of its own for each k, and keeps a table for each of
    those precisions.)
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    while len(_ZIGZAG) < 2 * k:
        _ENTRINGER_ROW[:] = list(accumulate(reversed(_ENTRINGER_ROW),
                                            initial=0))
        _ZIGZAG.append(_ENTRINGER_ROW[-1])
    return Fraction((-1) ** (k - 1) * 2 * k * _ZIGZAG[2 * k - 1],
                    4 ** k * (4 ** k - 1))


@cache
def hurwitz_zeta_integer(m: int, base: int, ctx: PrecisionContext) -> mpf:
    """zeta(m, base) = sum_{j >= base} j^(-m) for even m >= 2, base >= 1,
    in closed form, rounded to the D = digits + guard + HEADROOM digits of
    ``working(HEADROOM)``; memoized on (m, base, ctx).

    One formula in two regimes, chosen by m alone:

    - m log10(2) < D, subtraction: zeta(m) - sum_{j<base} j^(-m), with the
      exact zeta(m) = (2 pi)^m |B_m| / (2 m!) (DLMF 25.6.2).  As
      zeta(m, base) > base^(-m), the subtraction cancels fewer than
      m log10(base) + log10 zeta(2) digits, so it runs at
      D + ceil(m log10(base)) + 1 digits.
    - otherwise, direct tail: sum_{j>=base} j^(-m), whose terms fall by
      2^(-m) < 10^(-D) before j = 2 base; the sum stops once the bound
      sum_{j>J} j^(-m) <= int_J^oo x^(-m) dx = J^(1-m)/(m-1) on what it
      drops is below 10^(-D) base^(-m) < 10^(-D) zeta(m, base).

    Either way the value is right to a few units of 10^(-D), relative.
    """
    if base < 1:
        raise DomainError(f"base must be >= 1, got {base}")
    if m < 2 or m % 2 != 0:
        raise DomainError(f"m must be even and >= 2, got {m}")
    dps = ctx.digits + ctx.guard + HEADROOM
    if m * math.log10(2) < dps:
        b = bernoulli_even(m // 2)
        with mp.workdps(dps + math.ceil(m * math.log10(base)) + 1):
            value = (2 * mp.pi) ** m * abs(mpf(b.numerator)) \
                / (2 * b.denominator * math.factorial(m))
            for j in range(base - 1, 0, -1):
                value -= mpf(j) ** -m
    else:
        # about 2 base terms, one rounding each: log10(2 base) more digits
        with mp.workdps(dps + math.ceil(math.log10(2 * base))):
            value, j = mpf(0), base
            limit = -dps * math.log(10) - m * math.log(base)
            while True:
                value += mpf(j) ** -m
                if (1 - m) * math.log(j) - math.log(m - 1) < limit:
                    break
                j += 1
    with ctx.working(HEADROOM):
        return +value


def gamma_complex(z, ctx: PrecisionContext) -> mpc:
    """Gamma(z) for complex z away from the nonpositive-integer poles.

    The whole evaluation, the conversion of z included, runs at the
    context's precision, so the result does not depend on the caller's.
    """
    with ctx.working(FACTOR_EXTRA):
        z = mpc(z)
        if z.real < 0.5:
            nearest = round(z.real)
            if nearest <= 0:
                dist = abs(z - nearest)
                if dist < ctx.tol():
                    raise PoleError(
                        f"Gamma evaluated within tolerance of pole at "
                        f"{nearest}",
                        distance=dist,
                    )
        return mp.gamma(z)


class SeriesTables:
    """Every theta-independent value of one (s, ctx), each computed once
    and kept; errors are not kept.

    The phases and the powers of 2 pi are taken on construction, the rest
    when first asked for (Gamma(s) too: ``z_improved`` admits s = 0).
    ``signed_gamma(r)``, (-1)^r Gamma(2r+s+1), runs the recurrence
    G_r = G_(r-1) (-(2r+s-1)(2r+s)) from Gamma(s+1) at
    ``working(FACTOR_EXTRA)``, in increasing r with no recursion, and is
    the one source of the Gammas of both the block and the Bernoulli
    factors; all else runs at ``working(HEADROOM)``.
    """

    def __init__(self, s: mpc, ctx: PrecisionContext):
        self.s, self.ctx = s, ctx
        self._signed, self._blocks, self._bernoulli = [], {}, []
        self._k_powers = {}
        with ctx.working(HEADROOM):
            self.phase_half_s = mp.expjpi(s / 2)  # e^(i pi s/2)
            self.phase_minus_s = mp.expjpi(-s)  # e^(-i pi s)
            self.two_pi_s = (2 * mp.pi) ** s
            self.two_pi_minus_s = (2 * mp.pi) ** -s

    def signed_gamma(self, r: int) -> mpc:
        """(-1)^r Gamma(2r+s+1)."""
        table = self._signed
        if len(table) <= r:
            with self.ctx.working(FACTOR_EXTRA):
                if not table:
                    table.append(gamma_complex(self.s + 1, self.ctx))
                while len(table) <= r:
                    e = 2 * len(table) + self.s - 1
                    table.append(table[-1] * (-e * (e + 1)))
        return table[r]

    def block_coefficients(self, m: int, lo: int, hi: int) -> list:
        """[(-1)^r Gamma(2r+s+1) zeta(2r+2, m) for lo <= r < hi], the
        theta-independent parts of the blocks A_r(a) zeta(2r+2, m)."""
        table = self._blocks
        for r in range(lo, hi):
            if (m, r) not in table:
                with self.ctx.working(HEADROOM):
                    table[m, r] = self.signed_gamma(r) \
                        * hurwitz_zeta_integer(2 * r + 2, m, self.ctx)
        return [table[m, r] for r in range(lo, hi)]

    def bernoulli_coefficients(self, n: int) -> list:
        """[B_2r/(2r)! Gamma(2r+s-1) for 1 <= r <= n], each Gamma the
        owned (-1)^(r-1) signed_gamma(r-1)."""
        table = self._bernoulli
        while len(table) < n:
            r = len(table) + 1
            b = bernoulli_even(r)
            with self.ctx.working(HEADROOM):
                gamma = self.signed_gamma(r - 1)
                if r % 2 == 0:
                    gamma = -gamma
                table.append((mpf(b.numerator) / b.denominator)
                             / mp.factorial(2 * r) * gamma)
        return table[:n]

    def k_power(self, k: int) -> mpc:
        """k^(s-1) = exp((s-1) log k) for an integer k >= 1."""
        if k not in self._k_powers:
            with self.ctx.working(HEADROOM):
                self._k_powers[k] = mp.exp((self.s - 1) * mp.log(k))
        return self._k_powers[k]

    @cached_property
    def gamma(self) -> mpc:
        """Gamma(s)."""
        return gamma_complex(self.s, self.ctx)


@lru_cache(maxsize=TABLES_LIMIT)
def series_tables(s: mpc, ctx: PrecisionContext) -> SeriesTables:
    """The one ``SeriesTables`` of (s, ctx), while it is among the
    TABLES_LIMIT most recently used."""
    return SeriesTables(s, ctx)


def pow_ray(base: RayComplex, exponent, ctx: PrecisionContext,
            extra: int = 0) -> mpc:
    """base**exponent using the ray's carried argument, never a
    principal-value reduction: exp(e (log modulus + i argument)) at
    ``ctx.working(extra)``, where the exponent, like the modulus, is
    converted (and so rounded).  Kept on the ray per (exponent, ctx,
    extra)."""
    key = (exponent, ctx, extra)
    memo = base._memo
    if key not in memo:
        with ctx.working(extra):
            logz = mp.log(mpf(base.modulus)) + mpc(0, 1) * base.argument
            memo[key] = mp.exp(mpc(exponent) * logz)
    return memo[key]
