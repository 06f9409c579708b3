"""Terminant function T_nu(z) for large complex order.

T_nu(z) = e^(pi i nu) Gamma(nu)/(2 pi i) * Gamma(1-nu, z), evaluated on the
branch carried by the ray argument of z.  ``terminant(nu, z, ctx)`` takes
the order and the ray directly and reads the order exactly, through
``PrecisionContext.read``, so no value depends on the caller's mpmath
precision.  Each input is checked once: the ray on construction
(``RayComplex``), the order and |z| by ``upper_gamma`` (both within the
double range; the order not within 10^(-digits/2) of an integer unless on
it), and |arg z| <= 2 pi by ``terminant``; in floats and ints, and in
mpmath only near the band's edge.

The incomplete gamma function has exactly one method per input, chosen by
geometry.  Legendre's continued fraction (DLMF 8.9.2) serves the principal
sheet |arg z| < pi/2 with Re alpha < 0, |Im alpha| <= Re z and
|z| >= CF_MIN_MODULUS: the Re z > 0 ray of every remainder at pipeline
size.  It needs no inflation, and it is evaluated by the Wallis recurrence
on Python ints scaled by 2^wp (``_fixed_cf``) at digits + guard; its final
convergent difference is checked against that budget after the fact
(IllConditionedError).  One everywhere-convergent series serves every
other input: Re z <= 0, the other sheets, small |z| and Re alpha >= 0.
It is taken to its finite limit at nonpositive integer order, and it
cancels: its largest addends exceed the value by about e^(|z| + Re z), so
it runs at a working precision inflated by max(|z| + Re z, 0)/ln 10 + 10
digits, plus log10(1/d) within d of a pole of Gamma(alpha), and raises
DomainError when that inflation would exceed SERIES_INFLATION_LIMIT.  The
inflation is checked after the fact: ``upper_gamma`` takes the digits
actually lost, log10(max(|head|, |z^alpha| peak) / |value|) with head
Gamma(alpha) or its finite limit and peak the largest addend, from binary
exponents.  Both checks raise in ``_checked``, from the digits each left
spare, so every value ``upper_gamma`` returns carries digits + guard
digits.  The series is summed in fixed point (``_fixed_series``): real and
imaginary parts are Python ints scaled by 2^wp, with wp the bits of the
inflated digits plus guard bits sized by an a-priori error bound, so its
hundreds of terms cost integer products rather than mpmath number objects.
Both kernels read the order once as a binary fraction
(``_binary_fraction``), so s = 2+0.5i's remainder orders run on small ints.
At a nonpositive integer order -n the finite limit's head takes n! and
psi(n+1) = H_n - gamma from ints, and z^(-n) is a log-free ``pow_ray``;
the fraction sizes its prefactor's digits in floats.
The error-function smoothing form of T_nu(z) near optimal truncation
(|nu| ~ |z|), about the Stokes line, is provided separately.
"""
from __future__ import annotations

import math
from functools import lru_cache

from mpmath import mp, mpf, mpc
from mpmath.libmp import dps_to_prec, from_man_exp, to_fixed

from .errors import (ConvergenceError, DomainError, IllConditionedError)
from .hp import (FIXED_GUARD_BITS, HEADROOM, ORDER_LIMIT, SMOOTHING_DIGITS,
                 PrecisionContext, RayComplex, bernoulli_even, gamma_complex,
                 pow_ray)

ARG_LIMIT_SLACK = 0.1
REGIME_EPSILON = 0.05
# The continued fraction serves |z| >= CF_MIN_MODULUS on its side of the
# plane: below it the series, whose cost falls with |z|, is the faster
# (measured in the README's precision section).
CF_MIN_MODULUS = 24
CF_TERM_CAP = 10000
# The continued fraction stops 10 digits below its budget (see
# _upper_gamma_cf).
CF_STOP_DIGITS = 10
# Largest a-priori inflation the series may carry, in digits.  Its calls
# from the benchmark workloads need at most 28, from validate 11, and the
# tests' fuzzed domain (|z| <= 250 on any ray) at most 228; 300 leaves a
# margin and stops the series near |z| = 334 on the positive real axis.
SERIES_INFLATION_LIMIT = 300
SERIES_TERM_CAP = 100000
# Order from which (with n >= dps) the head at -n takes Stirling's series:
# below it the exact ints, whose cost grows as n^2, take at most 0.7 ms on
# a 2-core x86-64 host.
STIRLING_ORDER = 1000


def _series_inflation(z: RayComplex) -> int:
    # the convergent series loses ~ max(|z| + Re z, 0)/ln 10 digits to
    # cancellation: its largest addends reach |z^alpha| e^|z| against a
    # value of size |z^alpha| e^(-Re z)/|z| (DLMF 8.11.2), so on the
    # Re z < 0 side almost nothing is lost.  upper_gamma checks the loss
    # after the fact, so a rule that is too small raises instead of
    # returning noise.
    m = float(z.modulus)
    re_z = m * math.cos(float(z.argument))
    return int(math.ceil(max(m + re_z, 0.0) / math.log(10))) + 10


def _fixed_series(alpha: mpc, zval: mpc, n, dps: int, wp: int,
                  m_floor: int):
    """sum_m (-z)^m / (m! (alpha + m)) over m >= 0, m != n, in fixed point.

    Real and imaginary parts are Python ints scaled by 2^wp.  Each step
    multiplies the term t by -z (Gauss's three products), floor-divides it
    by m and divides it by alpha + m, stored as (pr + i pi) 2^(wp-e)
    (``_binary_fraction``): at an integer order k (e = 0) as t // (k + m),
    at another real order as (t << e) // d, else as
    (t conj(d) << e) // |d|^2, with d = pr + m 2^e + i pi; these are
    floors of the general form's rationals, t conj(alpha + m) 2^wp over
    |alpha + m|^2 at wp bits, so all give the same ints, and at a short
    order (e = 1 at s = 2+0.5i) d is a small int.  The sum stops at the
    first m > |z| (m > m_floor) whose addend c has |c| < 10^(5-dps) peak,
    peak the largest |c| so far, compared through squared magnitudes as
    c2 < ceil(peak2 / tol2) (exactly c2 tol2 < peak2, one division per
    peak); ConvergenceError, at once when m_floor leaves no room, if that
    takes SERIES_TERM_CAP addends.  Returns the sum as an mpc (exact,
    unrounded) and peak^2 in units of 2^(-2 wp).
    """
    if m_floor + 1 >= SERIES_TERM_CAP:
        raise ConvergenceError(
            f"incomplete gamma series needs more than |z| = {m_floor} "
            f"terms, beyond its cap of {SERIES_TERM_CAP}")
    zr, zi = to_fixed(zval.real._mpf_, wp), to_fixed(zval.imag._mpf_, wp)
    pr, pi, e = _binary_fraction(alpha, wp)
    zs, zd = zr + zi, zi - zr
    pi2 = pi * pi
    k = pr if not e and not pi else None
    tol2 = 10 ** (2 * (dps - 5))
    tr, ti = 1 << wp, 0
    sr = si = peak2 = 0
    limit = None
    for m in range(SERIES_TERM_CAP):
        if m:
            # term *= -z / m
            g = zr * (tr + ti)
            tr, ti = (ti * zs - g >> wp) // m, (-g - tr * zd >> wp) // m
        if m == n:
            continue
        if k is not None:
            cr, ci = tr // (k + m), ti // (k + m)
        elif not pi:
            dr = pr + (m << e)
            cr, ci = (tr << e) // dr, (ti << e) // dr
        else:
            dr = pr + (m << e)
            den = dr * dr + pi2
            cr = ((tr * dr + ti * pi) << e) // den
            ci = ((ti * dr - tr * pi) << e) // den
        sr += cr
        si += ci
        c2 = cr * cr + ci * ci
        if c2 > peak2:
            peak2, limit = c2, None
        elif m > m_floor:
            if limit is None:
                limit = -(-peak2 // tol2)
            if c2 < limit:
                return mp.make_mpc((from_man_exp(sr, -wp),
                                    from_man_exp(si, -wp))), peak2
    raise ConvergenceError("incomplete gamma series did not converge")


def _binary_fraction(alpha: mpc, wp: int) -> tuple:
    """(pr, pi, e), e in [0, wp] least, with the order's fixed-point ints
    at wp bits equal to (pr + i pi) 2^(wp-e), from their trailing zeros:
    e = 0 at an integer order, 1 at s = 2+0.5i's remainder orders, and
    about the bits it carries at a decimal one."""
    ar, ai = to_fixed(alpha.real._mpf_, wp), to_fixed(alpha.imag._mpf_, wp)
    low = ar | ai
    h = min((low & -low).bit_length() - 1, wp) if low else wp
    return ar >> h, ai >> h, wp - h


def _bits(re: int, im: int) -> int:
    """Bit length of max(|re|, |im|): log2 of the modulus to within a bit."""
    return max(abs(re), abs(im)).bit_length()


def _fixed_cf(alpha: mpc, zval: mpc, wp: int, stop_bits: int):
    """Legendre's continued fraction for Gamma(alpha, z) z^(-alpha) e^z
    (DLMF 8.9.2) in its even form,
    1/(z+1-alpha - 1(1-alpha)/(z+3-alpha - 2(2-alpha)/(z+5-alpha - ...))),
    in fixed point.

    The Wallis recurrence X_n = b_n X_(n-1) + a_n X_(n-2), with
    b_n = z + 2n - 1 - alpha and a_(n+1) = -n(n - alpha), runs on Python
    ints for the numerators A_n and the denominators B_n, with b_n and a_n
    scaled by 2^wp and b_n X in Gauss's three products.  With the order
    stored as (pr + i pi) 2^h, h = wp - e (``_binary_fraction``),
    a_(n+1) = -n(n 2^e - pr - i pi) 2^h, and flooring by 2^h then 2^e
    floors by 2^wp, so a step (((b_n X_(n-1)) >> h) + (a_n 2^-h) X_(n-2))
    >> e returns the general step's ints, with small a_n 2^-h at a short
    order (e = 1 at s = 2+0.5i).  At an integer order k (e = 0), b_n - z
    is a multiple of 2^wp too, and a step is
    ((z X_(n-1)) >> wp) + (2n-1-k) X_(n-1) - (n-1)(n-1-k) X_(n-2), the
    same ints with small-int factors.  Each pair (X_n, X_(n-1)) is shifted
    right by a common amount, separately for A and B, whenever both exceed
    wp + 64 bits, so both stay at least wp bits wide.  The convergents'
    relative difference |A_n B_(n-1) - A_(n-1) B_n| / |A_n B_(n-1)| is read
    from the closed form |A_n B_(n-1) - A_(n-1) B_n| = |a_2 ... a_n| and
    the bit lengths, each carried from the step before except after a
    shift; the loop stops once it is below 2^-stop_bits, and
    ConvergenceError past CF_TERM_CAP steps.  Returns F_n = A_n/B_n as an
    mpc at the current precision, and log2 of the exact final relative
    difference, from the cross product of the stored ints.
    """
    zr, zi = to_fixed(zval.real._mpf_, wp), to_fixed(zval.imag._mpf_, wp)
    pr, pi, e = _binary_fraction(alpha, wp)
    h = wp - e
    fr, fi = float(alpha.real), float(alpha.imag)
    zs, zd = zr + zi, zi - zr
    # (A_0, A_1) = (0, 1), (B_0, B_1) = (1, b_1); log2 |A_1 B_0 - A_0 B_1|
    # in units of the stored ints, less their shifts
    one, two = 1 << wp, 2 << wp
    k = pr if not e and not pi else None
    par = pai = cai = pbi = 0
    car = pbr = one
    br, bi = zr + one - (pr << h), zi - (pi << h)
    cbr, cbi = br, bi
    la, lcb = wp + 1, max(br.bit_length(), bi.bit_length())
    logdet, sa, sb = 2.0 * wp, 0, 0
    low, high = wp, wp + 64
    for n in range(1, CF_TERM_CAP):
        if k is not None:
            # b_(n+1) - z = (2n+1-k) 2^wp and a_(n+1) = n(k-n) 2^wp
            kn, an = 2 * n + 1 - k, n * (k - n)
            g = zr * (car + cai)
            par, pai, car, cai = car, cai, \
                (g - cai * zs >> wp) + kn * car + an * par, \
                (g + car * zd >> wp) + kn * cai + an * pai
            g = zr * (cbr + cbi)
            pbr, pbi, cbr, cbi = cbr, cbi, \
                (g - cbi * zs >> wp) + kn * cbr + an * pbr, \
                (g + cbr * zd >> wp) + kn * cbi + an * pbi
            logdet += math.log2(-an)  # log2 |a_(n+1)| of the exact int
        else:
            anr, ani = -n * ((n << e) - pr), n * pi
            br += two
            bs, bd = br + bi, bi - br
            g = br * (car + cai)
            par, pai, car, cai = car, cai, \
                (g - cai * bs >> h) + anr * par - ani * pai >> e, \
                (g + car * bd >> h) + anr * pai + ani * par >> e
            g = br * (cbr + cbi)
            pbr, pbi, cbr, cbi = cbr, cbi, \
                (g - cbi * bs >> h) + anr * pbr - ani * pbi >> e, \
                (g + cbr * bd >> h) + anr * pbi + ani * pbr >> e
            logdet += math.log2(n) + math.log2(math.hypot(n - fr, fi))
        lpa, la = la, max(car.bit_length(), cai.bit_length())
        lb, lcb = lcb, max(cbr.bit_length(), cbi.bit_length())
        if logdet - la - lb < -stop_bits:
            break
        cut = min(la, lpa) - low
        if cut > high - low:
            par, pai, car, cai = par >> cut, pai >> cut, car >> cut, cai >> cut
            logdet, sa = logdet - cut, sa + cut
            la = max(car.bit_length(), cai.bit_length())
        cut = min(lb, lcb) - low
        if cut > high - low:
            pbr, pbi, cbr, cbi = pbr >> cut, pbi >> cut, cbr >> cut, cbi >> cut
            logdet, sb = logdet - cut, sb + cut
            lcb = max(cbr.bit_length(), cbi.bit_length())
    else:
        raise ConvergenceError(
            f"incomplete gamma continued fraction did not converge in "
            f"{CF_TERM_CAP} steps")
    cross = (car * pbr - cai * pbi, car * pbi + cai * pbr)
    diff = (cross[0] - par * cbr + pai * cbi, cross[1] - par * cbi - pai * cbr)
    value = mp.make_mpc((from_man_exp(car, sa - sb),
                         from_man_exp(cai, sa - sb))) \
        / mp.make_mpc((from_man_exp(cbr, 0), from_man_exp(cbi, 0)))
    # log2 |diff| < bits + 1/2 and log2 |cross| >= bits - 1
    return value, _bits(*diff) - _bits(*cross) + 2


def _digits_lost(head, zpow, peak2: int, wp: int, value) -> float:
    """log10(max(|head|, |zpow| peak) / |value|), the digits that
    head - zpow sum lost to cancellation, from binary exponents alone (to
    within about two bits); peak2 is the squared peak addend of the sum in
    units of 2^(-2 wp).  A zero value has lost them all (inf)."""
    peak_mag = (peak2.bit_length() + 1) // 2 - wp
    bits = max(mp.mag(head), mp.mag(zpow) + peak_mag) - mp.mag(value)
    return float(bits) * math.log10(2)


def _checked(value: mpc, spare: float, method: str, alpha: mpc,
             z: RayComplex) -> mpc:
    """value, whose method's check left spare digits: IllConditionedError if
    spare < 0.  Both methods of ``upper_gamma`` accept a value only here."""
    if spare < 0:
        raise IllConditionedError(
            f"incomplete gamma {method} fell {-spare:.1f} digits short of "
            f"its check at alpha = {mp.nstr(alpha, 8)}, "
            f"|z| = {mp.nstr(z.modulus, 8)}, arg z = {mp.nstr(z.argument, 8)}")
    return value


@lru_cache(maxsize=ORDER_LIMIT)
def _gamma_head(alpha: mpc, dps: int) -> mpc:
    """Gamma(alpha) at dps digits, the series head at a non-integer order;
    memoized on (alpha, dps), ``hp.ORDER_LIMIT`` of them."""
    with mp.workdps(dps):
        return mp.gamma(alpha)


@lru_cache(maxsize=ORDER_LIMIT)
def _limit_head(n: int, dps: int) -> tuple:
    """((-1)^n/n!, psi(n+1)) at dps digits, the theta-independent factors
    of the series head at the order -n; ORDER_LIMIT memoized on (n, dps).

    Below max(STIRLING_ORDER, dps) from the ints n! and n! H_n
    (psi(n+1) = H_n - gamma, DLMF 5.4.14); beyond, Stirling's series
    (DLMF 5.11.1, 5.11.2), off by less than its first term dropped, down to
    the working unit, which its least term e^(-2 pi n) passes.  Rounded
    once."""
    if n < max(STIRLING_ORDER, dps):
        p, q = 0, 1
        for k in range(1, n + 1):
            p, q = p * k + q, q * k
        with mp.workdps(dps + HEADROOM):
            sign, psi = (-1) ** n / mpf(q), mpf(p) / q - mp.euler
    else:
        # ln n! < 10^(len(str(n)) + 3) takes that many digits more
        with mp.workdps(dps + len(str(n)) + HEADROOM):
            x, k, t = mpf(n), 0, 1
            log_fac = (x + 0.5) * mp.log(x) - x + mp.log(2 * mp.pi) / 2
            psi = mp.log(x) + 1 / (2 * x)
            while abs(t) >= mp.eps:
                k, b = k + 1, bernoulli_even(k + 1)
                t = b.numerator / (2 * k * b.denominator * x ** (2 * k - 1))
                log_fac, psi = log_fac + t / (2 * k - 1), psi - t / x
            sign = (-1) ** n * mp.exp(-log_fac)
    with mp.workdps(dps):
        return +sign, +psi


def upper_gamma(alpha, z: RayComplex, ctx: PrecisionContext) -> mpc:
    """Incomplete gamma Gamma(alpha, z) on the branch set by z.argument.

    On the principal sheet with Re z >= |Im alpha|, Re alpha < 0 and
    |z| >= CF_MIN_MODULUS, z^alpha e^(-z) times Legendre's continued
    fraction (``_upper_gamma_cf``).  Everywhere else
    Gamma(alpha) - z^alpha sum_m (-z)^m / (m! (alpha + m)): at alpha = -n,
    n = 0, 1, ..., the m = n term is dropped and Gamma(alpha) becomes its
    finite limit (-1)^n/n! (psi(n+1) - log z), with log z taken on the ray
    (DLMF 8.4.15).  Gamma(alpha), and (-1)^n/n! and psi(n+1), do not
    depend on z: they are memoized on the order and the working digits,
    and only log z is taken per call.  The series is summed in fixed point
    by ``_fixed_series``; DomainError if its a-priori inflation exceeds
    SERIES_INFLATION_LIMIT digits; ``_checked`` raises IllConditionedError
    if it lost more digits than it carried, or the fraction missed its budget.

    The order is read by ``ctx.read``, so the value does not depend on the
    caller's mpmath precision.  An order or |z| beyond the double range
    (non-finite included) raises DomainError, and an order within
    10^(-digits/2) of an integer but not on it raises IllConditionedError.
    """
    alpha = ctx.read(alpha)
    fr, fi = float(alpha.real), float(alpha.imag)
    if not (math.isfinite(math.hypot(fr, fi))
            and math.isfinite(float(z.modulus))):
        raise DomainError(
            "upper_gamma needs a finite order and |z| within the double "
            f"range, got alpha = {mp.nstr(alpha, 8)}, "
            f"|z| = {mp.nstr(z.modulus, 8)}")
    # d = |alpha - nearest| < 2^dmag; d counts as 1 at integer alpha
    nearest = round(fr)
    integer = not alpha.imag and alpha.real == nearest
    dmag = 0
    if not integer:
        with ctx.working(HEADROOM):
            offset = alpha - nearest
            dmag = mp.mag(offset)
            # |offset| >= 2^(dmag-2) lies past the band 10^(-digits/2)
            # unless dmag is below its edge plus 3 bits
            if dmag < (-ctx.digits // 2) * math.log2(10) + 3 \
                    and abs(offset) < mpf(10) ** (-ctx.digits // 2):
                raise IllConditionedError(
                    f"order {alpha} is within 10^(-digits/2) of the "
                    f"integer {nearest} but not on it; perturb s instead")
    arg = float(z.argument)
    if alpha.real < 0 and abs(arg) < math.pi / 2 \
            and z.modulus >= CF_MIN_MODULUS \
            and abs(fi) <= float(z.modulus) * math.cos(arg):
        return _upper_gamma_cf(alpha, z, ctx)
    n = -nearest if integer and nearest <= 0 else None
    # Within d < 1 of a pole -n <= 0 of Gamma, Gamma(alpha) and the addend
    # m = n are both 1/d times their size elsewhere and cancel, so the value
    # loses log10(1/d) digits more than _series_inflation counts; the floor
    # leaves the fraction to its 10-digit cushion
    pole = int(-dmag * math.log10(2)) if nearest <= 0 and dmag < 0 else 0
    inflation = _series_inflation(z)
    if inflation > SERIES_INFLATION_LIMIT:
        raise DomainError(
            f"the incomplete gamma series would carry {inflation} digits of "
            f"inflation, more than its limit of {SERIES_INFLATION_LIMIT}, at "
            f"|z| = {mp.nstr(z.modulus, 8)}, arg z = "
            f"{mp.nstr(z.argument, 8)}")
    extra = inflation + pole
    dps = ctx.digits + ctx.guard + extra
    # Error bound of _fixed_series, in units u = 2^-wp.  z and alpha are
    # stored to within sqrt(2) u, and every shift or floor division
    # truncates by less than u per component.  |t_j|, t_j = (-z)^j/j!, is
    # unimodal in j with t_0 = 1, so |t_m/t_j| <= max(|t_m|, 1) for j <= m:
    # term m is off by at most 3 (m+1) max(|t_m|, 1) max(1, 1/|z|) u, and
    # addend c_m = t_m/(alpha + m) by at most 6 (m+1) max(P, 1) B u, where
    # P is the peak |c_m|, d the least |alpha + m| and
    # B = max(1, 1/|z|) max(1, 1/d).  With fewer than 10^5 addends the sum
    # is off by at most 2^36 max(P, 1) B u, and max(P, 1) <= P A with
    # A = max(1, |alpha|, 1/|z|), because P >= |c_0| = 1/|alpha|, or
    # P >= |c_1| = |z| at alpha = 0.  So FIXED_GUARD_BITS = 40 plus the bits
    # of A B keep the error below P 2^-(prec+4), less than one rounding of
    # the peak at the prec bits of dps digits.  d >= 1 at integer alpha (the
    # m = n term is skipped), and the classification keeps d above
    # 10^(-digits/2) otherwise.  Every form of the kernel's divisor returns
    # the general form's ints, so the bound holds for all of them.
    zbits = max(0, 2 - mp.mag(z.modulus))
    dbits = 0 if integer else max(0, 2 - dmag)
    wp = dps_to_prec(dps) + FIXED_GUARD_BITS + 2 * zbits \
        + max(0, mp.mag(alpha)) + dbits
    with ctx.working(extra):
        zpow = pow_ray(z, alpha, ctx, extra=extra)
        total, peak2 = _fixed_series(alpha, z.value(), n, dps, wp,
                                     int(mp.floor(z.modulus)))
        if n is None:
            head = _gamma_head(alpha, dps)
        else:
            sign, psi = _limit_head(n, dps)
            logz = mp.log(mpf(z.modulus)) + mpc(0, 1) * z.argument
            head = sign * (psi - logz)
        value = head - zpow * total
    spare = extra - _digits_lost(head, zpow, peak2, wp, value)
    return _checked(value, spare, "series", alpha, z)


def _upper_gamma_cf(alpha: mpc, z: RayComplex, ctx: PrecisionContext):
    """Gamma(alpha, z) = z^alpha e^(-z) F on the principal sheet, with F
    from ``_fixed_cf``, checked by ``_checked`` against its final
    convergent difference."""
    # Error model, relative to the value, against the budget
    # 10^-(digits + guard) that the series also meets:
    # - Truncation.  For real alpha < 0 the fraction is a Stieltjes
    #   fraction in 1/z, and for |arg z| < pi/2 bounds of the
    #   Henrici-Pfluger kind (Numer. Math. 9, 1966) put F within the last
    #   difference of approximants.  For complex alpha, |Im alpha| <= Re z
    #   keeps every element |a_(m+1)/(b_m b_(m+1))| below 1/4, the
    #   Worpitzky bound (from |m - alpha| <= m - Re alpha + |Im alpha| and
    #   |b| >= Re b once Re z - Re alpha >= 1; no violation in 20000
    #   random inputs either way), so the
    #   differences cannot stall and then grow again; without it the
    #   fraction stopped early at alpha = -0.48 + 100i, |z| = 24,
    #   arg z = 0.49 pi, off by 4e-37.  The model allows a factor 10^3 on
    #   the last difference |F_n - F_(n-1)|, which holds whenever the
    #   differences shrink by q <= 0.999 per step (q/(1-q) <= 10^3).  The
    #   loop stops once the difference, read from bit lengths to within 2
    #   bits, is below 10^-(digits + guard + CF_STOP_DIGITS), and
    #   ``_checked`` raises unless the exact final difference, to within 3
    #   bits, is below 10^-(digits + guard + 3): about 6 digits spare.
    # - Rounding.  z and alpha are stored to within 2^-wp, and each shift
    #   truncates A_n or B_n, kept at least wp bits wide, by less than 2^-wp
    #   relative.  A_n and B_n are dominant solutions of their recurrence,
    #   so an error is carried forward without growth (the minimal solution
    #   it excites decays); over fewer than CF_TERM_CAP < 2^14 steps of at
    #   most 4 such units each, F is off by less than 2^(16 - wp), and
    #   wp = prec + FIXED_GUARD_BITS = prec + 40 puts that 2^-24 below the
    #   budget.  Every form of the step returns the general step's ints.
    # - The prefactor.  exp(alpha log z) e^(-z) rounds an exponent of size
    #   S <= |alpha| (|log|z|| + |arg z|) + |z|, so `extra` digits with
    #   10^extra > 100 S, from floats, keep it 10^-2 below the budget.
    # Nothing cancels, and Gamma(alpha, z) is entire in alpha: neither
    # _series_inflation nor the pole term applies.
    dps = ctx.digits + ctx.guard
    m = float(z.modulus)
    size = math.hypot(float(alpha.real), float(alpha.imag)) \
        * (abs(math.log(m)) + abs(float(z.argument))) + m
    extra = int(math.log10(size)) + 3
    wp = dps_to_prec(dps) + FIXED_GUARD_BITS
    stop_bits = int((dps + CF_STOP_DIGITS) / math.log10(2))
    with ctx.working(extra):
        zval = z.value()
        frac, diff_bits = _fixed_cf(alpha, zval, wp, stop_bits)
        value = pow_ray(z, alpha, ctx, extra=extra) * mp.exp(-zval) * frac
    spare = -(dps + 3) - diff_bits * math.log10(2)
    return _checked(value, spare, "continued fraction", alpha, z)


def terminant(nu, z: RayComplex, ctx: PrecisionContext) -> mpc:
    """T_nu(z) = e^(pi i nu) Gamma(nu)/(2 pi i) Gamma(1 - nu, z) on the ray
    z, for |arg z| <= 2 pi (DomainError beyond).

    The order is read by ``ctx.read``, so the value does not depend on the
    caller's mpmath precision.
    """
    if not abs(float(z.argument)) <= 2 * math.pi + ARG_LIMIT_SLACK:
        raise DomainError(
            f"terminant requires |arg z| <= 2 pi, got {z.argument}")
    nu = ctx.read(nu)
    with ctx.working(HEADROOM):
        inc = upper_gamma(1 - nu, z, ctx)
        return _prefactor(nu, ctx) * inc


@lru_cache(maxsize=ORDER_LIMIT)
def _prefactor(nu: mpc, ctx: PrecisionContext) -> mpc:
    """e^(pi i nu) Gamma(nu)/(2 pi i), the factor of T_nu(z) that does not
    depend on z; memoized on (nu, ctx), ``hp.ORDER_LIMIT`` of them."""
    with ctx.working(HEADROOM):
        return mp.expjpi(nu) * gamma_complex(nu, ctx) \
            / (2 * mp.pi * mpc(0, 1))


def c_of_phi(phi) -> mpc:
    """Smoothing coefficient c(phi), the solution of
    c^2/2 = 1 + i(phi - pi) - e^(i(phi - pi)) on the branch continuous in phi
    with c ~ phi - pi at pi.

    Accepts a float or an mpf; an mpf is used at full precision, so a value
    lying exactly on the Stokes line yields c = 0 exactly.
    """
    if not (0 < float(phi) < 2 * math.pi):
        raise DomainError(f"phi must lie in (0, 2 pi), got {phi}")
    with mp.workdps(SMOOTHING_DIGITS):
        u = mpf(phi) - mp.pi
        if abs(u) < mpf("1e-8"):
            return mpc(u) + mpc(0, 1) * u ** 2 / 6
        # Re(2w/u^2) = 2(1 - cos u)/u^2 > 0, so the principal root never
        # meets its cut and c = u sqrt(2w/u^2) is continuous with c ~ u
        w = 1 + mpc(0, 1) * u - mp.expj(u)
        return u * mp.sqrt(2 * w / u ** 2)


def terminant_asymptotic(nu, z: RayComplex, ctx: PrecisionContext) -> mpc:
    """The error-function smoothing form of T_nu(z) for |nu| ~ |z| >> 1,
    1/2 + erf(c(arg z) sqrt(|z|/2))/2, on arg z in [eps, 2 pi - eps]
    (DomainError elsewhere).  The order is read by ``ctx.read``, as in
    ``terminant``.
    """
    nu = ctx.read(nu)
    ratio = abs(nu) / z.modulus
    if not (0.5 <= ratio <= 2 and z.modulus >= 10):
        raise DomainError(
            "asymptotic form needs |nu|/|z| in [0.5, 2] and |z| >= 10")
    phi = float(z.argument)
    if not REGIME_EPSILON <= phi <= 2 * math.pi - REGIME_EPSILON:
        raise DomainError(
            f"arg z = {phi} is outside the smoothing form's "
            f"[{REGIME_EPSILON}, 2 pi - {REGIME_EPSILON}]")
    c = c_of_phi(z.argument)
    with ctx.working():
        return mpf(1) / 2 + mp.erf(c * mp.sqrt(mpf(z.modulus) / 2)) / 2
