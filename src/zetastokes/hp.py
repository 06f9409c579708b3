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

What does depend on theta is the ray a, and with it a' = 1 - a, whose
principal argument ``RayComplex.from_value`` takes by a kernel of its own,
``_principal_argument``, from no atan or log table of mpmath's.  A ray keeps
q = e^(2 pi i value()) per precision, and every e^(+-2 pi i k a) of a point
is a power of it (``RayComplex.q_power``).  ``pow_ray`` is the one place
that takes a power of a ray, exp(e (log|base| + i arg base)), or
|base|^n e^(i n arg base) with no logarithm at an integer n, and a ray keeps
each power, per exponent, context and offset, as it keeps its ``value()``
per precision.  Every other algebraic power of a sweep point, a^(1-s),
a^(-1-s), (2 pi a)^-(s+1) and the steps a^-2 and (2 pi a)^-2, is a^(-s)
times an integer power of the ray's value and of 2 pi.

``_fixed_horner`` is the one Horner sum of the package, on Python ints
scaled to the largest term.  It sums ``expansion``'s two algebraic series,
the Euler-Maclaurin tail of ``oracle.hurwitz_zeta_direct`` and the q-series
of ``oracle.periodic_zeta_direct``.  That tail and
``expansion.bernoulli_series`` share one table of the Poincare factors
c_j = B_2j/(2j)! (s)_(2j-1), kept per (s, ctx) too, one list per precision
offset, with the float logs of the list that the tail's first pass sums
beside them; the q-series reads the owned powers k^(s-1).

Every power with a complex exponent follows one phase rule,
``phase_bits``: the exponent x = e L of exp(x) rounded at p bits is off by
2^-p |x|, which exp(x) turns into an error in its phase, so where
|e| |L| > 1 the log and the exp take log2(|e| |L|) extra bits, and the
value is rounded back.  The powers k^(s-1), (2 pi)^(+-s), a non-integer
``pow_ray`` and the head of ``oracle.hurwitz_zeta_direct``, which
``oracle.periodic_zeta_direct`` also sums near the real axis, all read it.
Every size the package decides in floats is a log from ``float_log``,
ln |x| read from the raw mantissas and binary exponents of an mpf or mpc,
at any size and whatever the caller's precision: the phase rule's, the
tail rule of ``expansion.extend_plan``, the rerun rule of ``stokes.sweep``
and the Euler-Maclaurin sizing of ``oracle.hurwitz_zeta_direct``, which
reads the float logs of the owned c_j.  Every count of the digits that a
sum cancels is ``digits_lost``, log10(max |term| / |value|) from
``float_log``, with its three readers: the series check of
``terminant.upper_gamma``, the spare of the Euler-Maclaurin sum and the
reflection of ``oracle.periodic_zeta_direct``.

The precision budget is decided here: every offset of ``ctx.working`` and
every fixed precision is a named constant below, with its reason, and so
is ``FIXED_GUARD_BITS``, the bits that the three fixed-point kernels
(``terminant``'s series and continued fraction, and ``_fixed_horner``)
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
from mpmath.libmp import (from_float, from_int, from_man_exp, mpf_add,
                          mpf_cos_sin, mpf_div, mpf_mul, mpf_sub,
                          round_nearest, to_fixed, to_int)

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
# Digits beyond those of ``working(HEADROOM)`` at which
# ``oracle.hurwitz_zeta_direct`` truncates and sums: its sum is off by
# 10^-(HURWITZ_EXTRA - lost - log10(M + 20)) of 10^-D, with lost the
# digits it cancels and M its head terms, so a point that cancels no digit
# and takes fewer than 80 head terms, every grid point, takes one pass.
HURWITZ_EXTRA = 5
SMOOTHING_DIGITS = 30  # c_of_phi: its form is only good to O(|z|^(-1/2))
RAY_VALUE_BITS = 10  # RayComplex.value: bits above the caller's precision
# Bits that RayComplex.from_value's argument kernel carries beyond the
# caller's precision, before its one rounding: its few roundings stay 2^-7
# of a unit below it.
ARGUMENT_BITS = 10
# Bits the fixed-point kernels carry beyond the working precision: the
# incomplete-gamma series and continued fraction (``terminant``) and the
# Horner sum ``_fixed_horner``.  Each kernel derives its error bound from
# this value next to its code.
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

    A ray keeps what it computes of itself: ``value()`` and
    ``q()`` = e^(2 pi i value()) per precision, and each ``pow_ray`` per
    (exponent, context, offset).  Every e^(+-2 pi i k a) of a sweep point,
    F's q, the peel's e^(-2 pi i n a) and each remainder's e^(2 pi i k a),
    is ``q_power(+-k)`` of its ray, so a point takes one exponential per
    ray and precision.
    The memo lives and dies with the ray, which lives as long as its point,
    and takes no part in equality, hashing or repr.
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

    def q(self) -> mpc:
        """q = e^(2 pi i value()) at the caller's precision; kept per
        precision, beside ``value()``."""
        key = ("q", mp.prec)
        if key not in self._memo:
            self._memo[key] = mp.exp(2 * mp.pi * mpc(0, 1) * self.value())
        return self._memo[key]

    def q_power(self, k: int) -> mpc:
        """e^(2 pi i k value()) = q^k at the caller's precision, from the
        kept ``q()``: by binary powering, and 1/q^-k for k < 0.  Each
        product rounds once, so q^k is off by about |k| units, as the
        rounding of 2 pi k value() offsets an exp(2 pi i k value())."""
        power, value, m = self.q(), None, abs(k)
        while m:
            if m & 1:
                value = power if value is None else value * power
            m >>= 1
            if m:
                power *= power
        if value is None:
            return mpc(1)
        return 1 / value if k < 0 else value

    @classmethod
    def from_value(cls, z) -> "RayComplex":
        """Build a ray from a complex value with its principal argument in
        (-pi, pi] by ``_principal_argument``: rounded once at the caller's
        precision, and so correctly unless it lies within 2^-7 units of a
        rounding boundary.  DomainError at 0 or a non-finite z."""
        z = mpc(z)
        modulus = abs(z)
        if not (modulus and mp.isfinite(modulus)):
            return cls(modulus, mpf(0))  # the invariant raises
        return cls(modulus, _principal_argument(z))


def _principal_argument(z: mpc) -> mpf:
    """arg z in (-pi, pi] of a finite nonzero z, rounded once to the
    current precision p, from no atan or log table of mpmath's.

    The seed t0 = atan2(y, x) is taken in floats from the parts scaled as
    ``float_log`` scales them, so it is within about 2^-51 of arg z at any
    |z|.  At wp = p + ARGUMENT_BITS bits, plus log2(1/|t0|) where |t0| < 1
    so that the error stays relative, w = z e^(-i t0) (one cos and sin of
    t0) has the argument r = arg z - t0 and Re w > 0, and
    r = u (1 - u^2/3 + u^4/5 - ...) with u = Im w / Re w: an odd series
    whose terms fall by |u|^2 < 2^-100 each, summed in fixed point at wp
    bits relative to u.  t0 + r is rounded once to p bits.  Where t0 = 0
    (a positive real z, or one whose imaginary part lies a float's range
    below its real part), w = z and the series carries u's relative
    precision.  r is off by a few units of 2^-wp, so a value is rounded
    wrongly only where it lies within 2^-7 units of a rounding boundary.

    mpmath's ``arg`` takes atan(y/x) from a table filled per 2^-7 of the
    quotient and per precision, each entry a Newton solve, and the a' of
    every sweep point lands in an entry of its own.  The cos and sin of t0
    read mpmath's table of cos and sin per 2^-8 radian below 400 bits at
    the entry of arg z, the one that the ray's ``value()`` reads too.
    """
    x, y = parts = z._mpc_
    fx, fy = _scaled_floats(parts)
    t0 = math.atan2(fy, fx)
    wp = mp.prec + ARGUMENT_BITS
    if t0:
        wp += max(0, math.ceil(-math.log2(abs(t0))))
        c, s = mpf_cos_sin(from_float(-t0), wp, round_nearest)
        x, y = mpf_sub(mpf_mul(x, c), mpf_mul(y, s), wp, round_nearest), \
            mpf_add(mpf_mul(y, c), mpf_mul(x, s), wp, round_nearest)
    u = mpf_div(y, x, wp, round_nearest)
    v, series, term, j = to_fixed(mpf_mul(u, u), wp), 1 << wp, 1 << wp, 1
    while term:
        term, j = -((term * v) >> wp), j + 2
        series += term // j
    r = mpf_mul(u, from_man_exp(series, -wp), wp, round_nearest)
    return mp.make_mpf(mpf_add(from_float(t0), r, mp.prec, round_nearest))


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
            # read exactly: past 2^53 a float would move it off the pole
            nearest = to_int(z.real._mpf_, round_nearest)
            if nearest <= 0:
                dist = abs(z - nearest)
                if dist < ctx.tol():
                    raise PoleError(
                        f"Gamma evaluated within tolerance of pole at "
                        f"{nearest}",
                        distance=dist,
                    )
        return mp.gamma(z)


def _top(parts) -> int | None:
    """The binary exponent of the larger nonzero part of raw mpf tuples,
    None where all are zero (or not finite)."""
    return max((exp + bc for _, man, exp, bc in parts if man), default=None)


def _scaled_floats(parts, top: int | None = None) -> list:
    """Each raw mpf part times 2^-top as a float, top by default ``_top``:
    its 64 leading bits, with its sign, so nothing leaves the float range
    but a part a float's range below the larger (then a signed 0.0)."""
    top = _top(parts) if top is None else top
    return [math.ldexp((-1) ** sign * (man >> (cut := max(bc - 64, 0))),
                       exp + cut - top) for sign, man, exp, bc in parts]


def float_log(x) -> float:
    """ln |x| of a finite int, float, mpf or mpc, in floats at any size:
    read from the raw mantissas and binary exponents, each part scaled by
    2^-top (``_scaled_floats``), with top the binary exponent of the larger
    part, so that nothing leaves the float range until top * ln 2 does
    (then +-inf); -inf at 0.  Off by a few units of 1e-16
    max(1, |ln |x||)."""
    parts = x._mpc_ if isinstance(x, mpc) else (_exact(x),)
    top = _top(parts)
    if top is None:
        return -math.inf
    if top.bit_length() > 1000:
        return math.inf if top > 0 else -math.inf
    return math.log(math.hypot(*_scaled_floats(parts, top))) \
        + top * math.log(2)


def digits_lost(value, terms, log_peak: float = -math.inf) -> float:
    """log10(max |t| / |value|) over the terms, numbers as ``float_log``
    reads them, and e^log_peak, a peak already known as a log: the digits
    that a sum of value cancels, from ``float_log``; inf at a zero value.
    Only a term whose ``_top`` lies within 1 of the largest can be the
    largest (|t| lies in [2^(top-1), 2^(top+1/2))), so only those take a
    log."""
    tops = [(_top(t._mpc_ if isinstance(t, mpc) else (_exact(t),)), t)
            for t in terms if t]
    high = max((top for top, _ in tops), default=0)
    peak = max([log_peak] + [float_log(t) for top, t in tops
                             if top >= high - 1])
    return (peak - float_log(value)) / math.log(10) if value else math.inf


def phase_bits(e, log_size: float) -> int:
    """The extra bits of a power exp(e L) with |L| <= log_size, a float:
    ceil(log2(|e| log_size)), the bits by which the rounding of e L at the
    working precision moves the power's phase, where that is positive, else
    0.  Taken in logs by ``float_log``, so at any |e|."""
    if not log_size:
        return 0
    bits = (float_log(e) + math.log(log_size)) / math.log(2)
    return math.ceil(bits) if bits > 0 else 0


class SeriesTables:
    """Every theta-independent value of one (s, ctx), each computed once
    and kept; errors are not kept.

    The phases and the powers of 2 pi are taken on construction, the rest
    when first asked for (Gamma(s) too: ``z_improved`` admits s = 0).
    ``signed_gamma(r)``, (-1)^r Gamma(2r+s+1), runs the recurrence
    G_r = G_(r-1) (-(2r+s-1)(2r+s)) from Gamma(s+1) at
    ``working(FACTOR_EXTRA)``, in increasing r with no recursion, and is
    the one source of the block factors' Gammas; ``hurwitz_tail`` runs at
    ``working(HEADROOM + extra)`` for the offset it is asked for, and
    all else at ``working(HEADROOM)``, where ``k_power`` and the powers of
    2 pi are rounded after the extra bits of ``phase_bits``.
    """

    def __init__(self, s: mpc, ctx: PrecisionContext):
        self.s, self.ctx = s, ctx
        self._signed, self._blocks = [], {}
        self._k_powers, self._tail, self._tail_logs = {}, {}, []
        with ctx.working(HEADROOM):
            self.phase_half_s = mp.expjpi(s / 2)  # e^(i pi s/2)
            self.phase_minus_s = mp.expjpi(-s)  # e^(-i pi s)
            with mp.extraprec(phase_bits(s, math.log(2 * math.pi))):
                two_pi = 2 * mp.pi
                two_pi_s, two_pi_minus_s = two_pi ** s, two_pi ** -s
            self.two_pi_s, self.two_pi_minus_s = +two_pi_s, +two_pi_minus_s

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

    def hurwitz_tail(self, n: int, extra: int) -> list:
        """[c_j = B_2j/(2j)! (s)_(2j-1) for 1 <= j <= n] at
        ``working(HEADROOM + extra)``, one list per offset: the tail factors
        of ``oracle.hurwitz_zeta_direct`` and, at extra = 0, the Poincare
        factors of ``expansion.bernoulli_series``.  From c_1 = s/12 by
        c_j = c_(j-1) (s+2j-3)(s+2j-2) q_j with the exact ratio
        q_j = B_2j / (B_(2j-2) (2j-1) 2j), so c_j is off by O(j) units of
        that precision."""
        table = self._tail.setdefault(extra, [])
        if len(table) < n:
            with self.ctx.working(HEADROOM + extra):
                s = self.s
                if not table:
                    table.append(s / 12)
                while len(table) < n:
                    j = len(table) + 1
                    q = bernoulli_even(j) \
                        / (bernoulli_even(j - 1) * (2 * j - 1) * 2 * j)
                    table.append(table[-1] * ((s + (2 * j - 3))
                                              * (s + (2 * j - 2)))
                                 * (mpf(q.numerator) / q.denominator))
        return table[:n]

    def hurwitz_tail_logs(self, n: int) -> list:
        """[ln |c_j| for 1 <= j <= n], the ``float_log`` of the
        ``hurwitz_tail(n, HURWITZ_EXTRA)`` that a first pass of
        ``oracle.hurwitz_zeta_direct`` sums, kept beside it."""
        if len(self._tail_logs) < n:
            tail = self.hurwitz_tail(n, HURWITZ_EXTRA)
            self._tail_logs += map(float_log, tail[len(self._tail_logs):])
        return self._tail_logs

    def k_power(self, k: int) -> mpc:
        """k^(s-1) = exp((s-1) log k), for an integer k >= 1, with the
        ``phase_bits`` of (s-1, ln k), rounded to ``working(HEADROOM)``.
        So it is right to a few units at any |Im s|, and the plain exp
        bit for bit where |s-1| ln k <= 1."""
        if k not in self._k_powers:
            with self.ctx.working(HEADROOM):
                with mp.extraprec(phase_bits(self.s - 1, math.log(k))):
                    value = mp.exp((self.s - 1) * mp.log(k))
                self._k_powers[k] = +value
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
    principal-value reduction: exp(e (log modulus + i argument)), or the
    single-valued modulus^n e^(i n argument) at an integer n, at
    ``ctx.working(extra)``, where the exponent is converted (and so
    rounded), and the modulus too at an integer n.  The exp form reads the
    modulus and the argument as stored, takes its log and exp with the
    ``phase_bits`` of (e, |ln modulus| + |argument|) and is rounded back.
    Kept on the ray per (exponent, ctx, extra)."""
    key = (exponent, ctx, extra)
    memo = base._memo
    if key not in memo:
        with ctx.working(extra):
            e = mpc(exponent)
            if not e.imag and e.real == int(e.real):
                n = int(e.real)
                memo[key] = mpf(base.modulus) ** n * mp.expj(n * base.argument)
            else:
                log_size = abs(float_log(base.modulus)) \
                    + abs(float(base.argument))
                with mp.extraprec(phase_bits(e, log_size)):
                    logz = mp.log(base.modulus) + mpc(0, 1) * base.argument
                    value = mp.exp(e * logz)
                memo[key] = +value
    return memo[key]


def _fixed_horner(coeffs, x: mpc) -> mpc:
    """sum_r coeffs[r] x^r for a nonzero x, by Horner's rule on Python ints,
    at the current precision prec; exact on return, unrounded.

    With e = mag(x), u = x 2^-e has 1/4 <= |u| < 1, and the sum is
    sum_r d_r u^r with d_r = c_r 2^(e r).  u enters as U = u 2^wu, with
    wu = prec + FIXED_GUARD_BITS, and d_r as D_r = c_r 2^(w + e r), both
    by ``to_fixed``: exact, save that bits below the unit are dropped.
    The fixed scale w puts the largest true term P = max_r |c_r| |x|^r,
    read from binary exponents and a float log2 |x|, at
    prec + FIXED_GUARD_BITS bits, to within 2.  Then
    T_r = (T_(r+1) U >> wu) + D_r, on the real and imaginary parts.
    """
    # Error bound, in units 2^-w, with P 2^w >= 2^(prec + G - 2) and
    # G = FIXED_GUARD_BITS.  Each D_r and each shift truncates by less than
    # one unit per part, so T_0 2^-w is the exact Horner sum at the stored
    # u~ = U 2^-wu plus at most 2 sqrt(2) N units carried by powers of
    # |u~| <= 1 (|u| < 1, and flooring a part never passes 2^wu): at most
    # 8 sqrt(2) N P 2^-(prec+G).  u~ is off by |du| < sqrt(2) 2^-wu, which
    # moves the sum by at most sum_r r |d_r| |u|^(r-1) |du| (to first order)
    # = sum_r r t_r |du| / |u| <= 4 sqrt(2) 2^-wu P N^2 / 2, with
    # t_r = |c_r| |x|^r <= P.  In all the kernel is off by less than
    # 3 (N^2 + 4 N) P 2^-(prec+G) from the sum of the coefficients and x
    # it is given: for N <= 1000 that is below P 2^-(prec+18), far below
    # the one rounding of P at prec bits that the product after it makes.
    prec, e = mp.prec, mp.mag(x)
    wu = prec + FIXED_GUARD_BITS
    xr, xi = x._mpc_
    ur, ui = to_fixed(xr, wu - e), to_fixed(xi, wu - e)
    drop = wu - 60  # log2 |x| from the 60 leading bits of U
    log_x = e + math.log2(math.hypot(ur >> drop, ui >> drop)) - 60
    parts = [c._mpc_ for c in coeffs]
    # log2 t_r lies within [-1, 1/2] of exp + bc of c_r's larger part plus
    # r log2 |x|; w takes the largest ceiling in ints, past a float's range
    tops = [part[2] + part[3] + math.ceil(r * log_x)
            for r, pair in enumerate(parts) for part in pair if part[1]]
    if not tops:
        return mpc(0)
    w = wu - max(tops)
    tr = ti = 0
    for r in range(len(parts) - 1, -1, -1):
        cr, ci = parts[r]
        shift = w + e * r
        tr, ti = ((tr * ur - ti * ui) >> wu) + to_fixed(cr, shift), \
            ((tr * ui + ti * ur) >> wu) + to_fixed(ci, shift)
    return mp.make_mpc((from_man_exp(tr, -w), from_man_exp(ti, -w)))
