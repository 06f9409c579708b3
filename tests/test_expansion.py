import importlib.util
import json
import math
import sys
import time
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpc
from mpmath.libmp import dps_to_prec

from zetastokes import expansion, hp
from zetastokes.errors import DomainError, PoleError, TailBoundError
from zetastokes.expansion import (TruncationPlan, a_r_coefficient,
                                  bernoulli_series, extend_plan,
                                  leading_blocks, optimal_plan,
                                  optimal_truncation, remainder_rk,
                                  script_r_k, z_improved)
from zetastokes.hp import (FIXED_GUARD_BITS, HEADROOM, RayComplex,
                           SeriesTables, bernoulli_even, gamma_complex,
                           hurwitz_zeta_integer, pow_ray, series_tables)
from zetastokes.oracle import ZetaPoint, hurwitz_zeta_direct, z_reference


def _ray(mod, arg_over_pi, ctx):
    with ctx.working(10):
        return RayComplex(mpf(mod), mpf(str(arg_over_pi)) * mp.pi)


S_VALUES = [mpc(3), mpc(2, 0.5), mpc(1.6), mpc(6, -2)]
# an s and a caller precision with more bits than the 80-digit arithmetic
# keeps, so that the precision at which each exponent is formed shows
FINE_DPS = 100
with mp.workdps(FINE_DPS):
    FINE_S = mpc(2, 0.5) + mp.pi / 1000


def bits(value):
    return value._mpc_


def _least_term_loop(k, s, a):
    """The least-term index counted one r at a time: the reference for
    optimal_truncation's doubling search."""
    s = complex(s)
    bound = (2 * math.pi * k * float(a.modulus)) ** 2
    r = 1
    while abs((2 * r + s - 1) * (2 * r + s)) < bound:
        r += 1
    return max(r - 1, 1)


def _bench_workloads():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _power(base, exponent, ctx, extra=0):
    # one power of a ray on its own: |b|^n e^(i n arg b) at an integer n,
    # else exp(e (log|b| + i arg b)) with ceil(log2(|e| |log b|)) extra
    # bits where |e| |log b| > 1, |log b| taken as |ln|b|| + |arg b|, and
    # rounded back
    with ctx.working(extra):
        e = mpc(exponent)
        if e.imag == 0 and e.real == int(e.real):
            n = int(e.real)
            return mpf(base.modulus) ** n * mp.expj(n * base.argument)
        size = abs(complex(e)) * (abs(math.log(base.modulus))
                                  + abs(float(base.argument)))
        with mp.extraprec(math.ceil(math.log2(size)) if size > 1 else 0):
            logz = mp.log(base.modulus) + mpc(0, 1) * base.argument
            value = mp.exp(e * logz)
        return +value


REF_DPS = 130


@cache
def _gamma_reference(s):
    # Gamma(2r+s+1) for r < 300 at REF_DPS, one term at a time
    with mp.workdps(REF_DPS):
        return [mp.gamma(2 * r + s + 1) for r in range(300)]


@cache
def _a_r_reference(s, mod, arg, ctx):
    # A_r(a) for r < 300 at REF_DPS, each from its own Gamma and power
    a = _ray(mod, arg, ctx)
    with mp.workdps(REF_DPS):
        log_ray = mp.log(2 * mp.pi * a.modulus) + mpc(0, 1) * a.argument
        return [(-1) ** r * g * mp.exp(-(2 * r + s + 1) * log_ray)
                for r, g in enumerate(_gamma_reference(s))]


@cache
def _zeta_reference(order, m):
    # zeta(order, m) at REF_DPS, which depends on neither s nor a
    with mp.workdps(REF_DPS):
        return mp.zeta(order, m)


def _block_terms_reference(s, mod, arg, nlist, ctx):
    # the terms of leading_blocks at REF_DPS, one A_r zeta(2r+2, m)/pi per
    # block and one A_r/(pi k^(2r+2)) per direct term
    floor = [min(nlist[k:]) for k in range(len(nlist))]
    coeffs = _a_r_reference(s, mod, arg, ctx)
    with mp.workdps(REF_DPS):
        terms, prev = [], 0
        for m, f in enumerate(floor, start=1):
            terms += [coeffs[r] * _zeta_reference(2 * r + 2, m) / mp.pi
                      for r in range(prev, f)]
            prev = f
        for k, (f, n) in enumerate(zip(floor, nlist), start=1):
            terms += [coeffs[r] / (mp.pi * mpf(k) ** (2 * r + 2))
                      for r in range(f, n)]
        return terms


def _bernoulli_term_factor(r, s, ctx):
    # B_{2r}/(2r)! Gamma(2r+s-1), under the caller's ctx.working(10)
    b = bernoulli_even(r)
    return (mpf(b.numerator) / b.denominator) / mp.factorial(2 * r) \
        * gamma_complex(2 * r + s - 1, ctx)


class TestTruncationPlan:
    def test_constant(self):
        p = TruncationPlan.constant(5, 3)
        assert p.nk == (5, 5, 5) and p.nk_prime == (5, 5, 5)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            TruncationPlan((1, 2), (1, 2, 3), 3)

    def test_rejects_zero_index(self):
        with pytest.raises(ValueError):
            TruncationPlan((0,), (1,), 1)


class TestCoefficients:
    def test_matches_definition(self, ctx):
        a = _ray(6, 0.45, ctx)
        with ctx.working(10):
            s = mpc(3)
            got = a_r_coefficient(2, s, a, ctx)
            want = mp.gamma(2 * 2 + s + 1) / (2 * mp.pi * a.value()) ** (
                2 * 2 + s + 1)
            assert abs(got - want) <= ctx.tol() * abs(want)

    def test_rejects_negative_r(self, ctx):
        with pytest.raises(DomainError):
            a_r_coefficient(-1, mpc(3), _ray(6, 0.5, ctx), ctx)

    def test_rejects_non_finite_ray(self, ctx):
        # used to come back as nan + nanj
        with pytest.raises(DomainError):
            a_r_coefficient(2, 3, RayComplex(mpf("inf"), mpf(1)), ctx)


class TestBatchBits:
    """``pow_ray`` keeps the bits of a power taken on its own, on a first
    call and on a repeated one; ``a_r_coefficient``, ``leading_blocks`` and
    ``bernoulli_series`` are held to accuracy bounds, because the
    signed-Gamma recurrence, the powers derived from a^(-s) and Horner's
    rule round differently by design."""

    @pytest.mark.parametrize("extra", [0, 10])
    def test_pow_ray(self, ctx, extra):
        base = _ray(2 * 8, 0.55, ctx)
        exponents = [mpc(0, 1), mpf(2), mpc(-3.5, 2), 27, mpc(6, -2) + 11]
        for _ in range(2):
            got = [pow_ray(base, e, ctx, extra) for e in exponents]
            want = [_power(base, e, ctx, extra) for e in exponents]
            assert [bits(v) for v in got] == [bits(v) for v in want]

    # Rounding of the factors of a term.  With U = 10^-(digits+guard), one
    # rounding at digits + guard is at most u = 2^-prec = 0.106 U at 60
    # digits, and one at HEADROOM is 10^-10 u, which is neglected; over
    # these inputs |L| = |log 2 pi |a| + i arg a| <= 4.4, |s+1| <= 7.3 and
    # |psi(s+1)| <= 2.1.
    # - The signed Gamma G_r = (-1)^r Gamma(2r+s+1): s+1 rounds, moving
    #   Gamma(s+1) by |psi(s+1)| |s+1| u, and Gamma rounds; each step of
    #   the recurrence rounds 2r+s-1, 2r+s, their product and the new
    #   entry.  |dG_r| <= (|psi(s+1)| |s+1| + 1 + 4r) u < (17 + 4r) u.
    # - A power (2 pi a)^-e of the ray: 2 pi |a|, its log and i arg a round,
    #   so L is off by (1 + 2|L|) u; -e rounds, -e L is off by
    #   (2 + 4|L|) |e| u, and the exp rounds: (19.6 |e| + 1) u in all.
    # So A_r = G_r (2 pi a)^-(2r+s+1), |2r+s+1| <= 7.3 (r+1), is off by
    # (17 + 4r + 143 (r+1) + 1 + 1) u < 165 (r+1) u < 17.5 (r+1) U.
    # Measured worst over these inputs: 2.5 (r+1) U.
    @pytest.mark.parametrize("lo, hi", [(0, 25), (7, 19), (5, 5), (0, 300)])
    @pytest.mark.parametrize("arg", [0.3, 0.55])
    @pytest.mark.parametrize("mod", [1, 3, 8, 9])
    @pytest.mark.parametrize("s, dps", [(s, 15) for s in S_VALUES]
                             + [(FINE_S, FINE_DPS)])
    def test_a_r_coefficients(self, s, dps, mod, arg, lo, hi, ctx):
        a = _ray(mod, arg, ctx)
        with mp.workdps(dps):
            got = [a_r_coefficient(r, s, a, ctx) for r in range(lo, hi)]
        want = _a_r_reference(s, mod, arg, ctx)[lo:hi]
        unit = mpf(10) ** -(ctx.digits + ctx.guard)
        with mp.workdps(REF_DPS):
            assert all(abs(g - w) <= 18 * (r + 1) * unit * abs(w)
                       for r, g, w in zip(range(lo, hi), got, want))

    # leading_blocks is (2 pi a)^-(s+1)/pi sum_r c_r x^r with
    # c_r = G_r zeta(2r+2, m) (or G_r / k^(2r+2)) and x = (2 pi a)^-2, by
    # Horner's rule at HEADROOM.  By the rounding above, G_r is off by
    # (17 + 4r) u; zeta(2r+2, m), the products, the sum, 1/pi and
    # (2 pi)^-s by O(10^-10 u).  The powers, at digits + guard:
    # - P = a^(-s): log |a|, i arg a and their sum round, so L is off by
    #   (1 + 2|L|) u, with |L| <= 2.8 here; -s rounds, -s L is off by
    #   (2 + 4|L|) |s| u, and the exp rounds: (13.2 |s| + 1) u < 85 u, as
    #   |s| <= 6.4;
    # - v = 2 pi a: a's value (10 bits above, so O(2^-10 u)), pi and the
    #   product round, 2.01 u;
    # - (2 pi a)^-(s+1) = (2 pi)^-s P / v: P, v and two roundings, < 90 u;
    # - x = v^-2: twice v's error, the square (4 bits above) and the
    #   reciprocal, < 5.1 u, so x^r is off by 5.1 r u.
    # Term r is off by (17 + 4r + 90 + 5.1 r) u < 117 N u relative,
    # r < N = max(nlist), and the sum by at most 117 N u sum_r |term_r|
    # < 13 N U sum |terms|.  Measured worst over these inputs:
    # 0.41 N U sum |terms|.
    @pytest.mark.parametrize("nlist", [(25,), (18, 36), (5, 3), (3, 9, 84)])
    @pytest.mark.parametrize("arg", [0.3, 0.55])
    @pytest.mark.parametrize("mod", [1, 3, 9])
    @pytest.mark.parametrize("s, dps", [(s, 15) for s in S_VALUES]
                             + [(FINE_S, FINE_DPS)])
    def test_leading_blocks(self, s, dps, mod, arg, nlist, ctx):
        # (3, 9, 84) is an extended grid list: its blocks run to r = 83
        a = _ray(mod, arg, ctx)
        with mp.workdps(dps):
            got = leading_blocks(s, a, nlist, ctx)
        terms = _block_terms_reference(s, mod, arg, nlist, ctx)
        unit = mpf(10) ** -(ctx.digits + ctx.guard)
        with mp.workdps(REF_DPS):
            bound = 13 * max(nlist) * unit * mp.fsum(abs(t) for t in terms)
            assert abs(got - mp.fsum(terms)) <= bound

    # bernoulli_series is Gamma(s) a^(-1-s) sum_{r=1}^N c_r x^(r-1), with
    # c_r = B_2r/(2r)! (s)_(2r-1), so that Gamma(s) c_r = B_2r/(2r)!
    # Gamma(2r+s-1), and x = a^-2, summed by _fixed_horner at HEADROOM.
    # In units u of one rounding at digits + guard, the one factor taken
    # there is Gamma(s): s rounds, moving it by |s psi(s)| u, and Gamma
    # rounds, (|s psi(s)| + 1) u in all.  Everything else, a^(-s) (the
    # oracle's, at HEADROOM), a^(-1-s) = a^(-s) / a, x and c_r, rounds at
    # HEADROOM, O(r) 10^-10 u, and the kernel, which TestFixedHorner holds
    # below 2^-18 of a unit, stays below the one u of margin.  So term r is
    # off by at most (|s psi(s)| + 2) u, relative, and the sum by that
    # times the sum of |term r|.  Measured worst over these inputs: 0.23
    # of this bound.
    @pytest.mark.parametrize("n", [1, 25])
    @pytest.mark.parametrize("arg", [0.3, 0.55])
    @pytest.mark.parametrize("s, dps", [(s, 15) for s in S_VALUES]
                             + [(FINE_S, FINE_DPS)])
    def test_bernoulli_series(self, s, dps, arg, n, ctx):
        a = _ray(8, arg, ctx)
        with mp.workdps(dps):
            got = bernoulli_series(s, a, n, ctx)
            s = mpc(s)
        u = mpf(2) ** -dps_to_prec(ctx.digits + ctx.guard)
        with mp.workdps(REF_DPS):
            log_a = mp.log(a.modulus) + mpc(0, 1) * a.argument
            units = abs(s * mp.digamma(s)) + 2
            want, bound = mpc(0), mpf(0)
            for r in range(1, n + 1):
                b, z = bernoulli_even(r), 2 * r + s - 1
                term = mpf(b.numerator) / b.denominator \
                    / mp.factorial(2 * r) * mp.gamma(z) * mp.exp(-z * log_a)
                want += term
                bound += units * u * abs(term)
            assert abs(got - want) <= bound

    def test_bernoulli_series_pole(self, ctx):
        # Gamma(s) has a pole at s = 0; ZetaPoint rejects such s first
        with pytest.raises(PoleError):
            bernoulli_series(0, _ray(8, 0.55, ctx), 25, ctx)


def _mpc_horner(coeffs, x):
    # Horner's rule in mpc arithmetic at the current precision: the loop
    # that _fixed_horner replaced
    total = mpc(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _ray_x(mod, arg, ctx):
    # x = b^-2 on the ray b of modulus mod and argument arg pi
    return pow_ray(_ray(mod, arg, ctx), -2, ctx)


def _taylor_exp(y, n):
    # the first n terms of the Taylor series of e^y: for y = -60, x = 1/2
    # their sum e^(-30) lies 25 digits below the largest
    return [mpc(y) ** r / mp.factorial(r) for r in range(n)]


S_KERNEL = mpc(2, 0.5)
# (coefficients, x) builders, each run under ctx.working(HEADROOM)
HORNER_CASES = {
    "empty": lambda ctx: ([], mpc("0.3", "0.2")),
    "one_term": lambda ctx: ([mpc(mp.pi, mp.e)], mpc("0.3", "0.2")),
    "zero_top": lambda ctx: (  # leading_blocks pads with zeros
        series_tables(S_KERNEL, ctx).block_coefficients(1, 0, 3)
        + [mpc(0)] * 3, _ray_x(2 * math.pi * 3, 0.4, ctx)),
    "zero_between": lambda ctx: (
        [mpc(1, 2), mpc(0), mpc(0), mpc(-3, 1), mpc(0), mpc(0, 5)],
        mpc("0.7", "-0.4")),
    "all_zero": lambda ctx: ([mpc(0)] * 4, mpc("0.3", "0.2")),
    "real_power_of_two": lambda ctx: (
        series_tables(S_KERNEL, ctx).hurwitz_tail(25, 0),
        mpc(mpf(2) ** -6)),
    "imaginary_power_of_two": lambda ctx: (
        series_tables(S_KERNEL, ctx).hurwitz_tail(25, 0),
        mpc(0, -mpf(2) ** -3)),
    "just_below_one_real": lambda ctx: (
        _taylor_exp(mpc("-0.9", "0.2"), 60),
        mpc(1 - mpf(2) ** (1 - mp.prec))),
    "just_below_one": lambda ctx: (
        _taylor_exp(mpc("-0.9", "0.2"), 60),
        _ray_x(1 + mpf(10) ** -30, 0.3, ctx)),
    "abs_a_one": lambda ctx: (  # bernoulli_series at |a| = 1
        series_tables(S_KERNEL, ctx).hurwitz_tail(60, 0),
        _ray_x(1, 0.3, ctx)),
    "x_one": lambda ctx: (_taylor_exp(-2, 40), mpc(1)),
    "cancelling": lambda ctx: (_taylor_exp(-60, 200), mpc(0.5)),
    "n300_blocks": lambda ctx: (
        series_tables(S_KERNEL, ctx).block_coefficients(1, 0, 300),
        _ray_x(2 * math.pi * 3, 0.55, ctx)),
    "n300_decaying": lambda ctx: (
        _taylor_exp(mpc(3, -4), 300), _ray_x(1.25, 0.3, ctx)),
}


class TestFixedHorner:
    """The fixed-point Horner kernel against a 200-digit Horner sum over the
    same coefficients and x: within its error bound
    3 (N^2 + 4N) P 2^-(prec + FIXED_GUARD_BITS), P the largest term
    |c_r| |x|^r (derived at _fixed_horner), and no further off than the
    mpc Horner loop it replaced, at the same precision."""

    @pytest.mark.parametrize("case", sorted(HORNER_CASES))
    def test_matches_a_200_digit_sum(self, case, ctx):
        with ctx.working(HEADROOM):
            coeffs, x = HORNER_CASES[case](ctx)
            prec = mp.prec
            got = hp._fixed_horner(coeffs, x)
            old = _mpc_horner(coeffs, x)
        n = len(coeffs)
        with mp.workdps(200):
            want = _mpc_horner(coeffs, x)
            top = max((abs(c) * abs(x) ** r for r, c in enumerate(coeffs)),
                      default=0)
            bound = 3 * (n * n + 4 * n) * top \
                * mpf(2) ** -(prec + FIXED_GUARD_BITS)
            assert abs(got - want) <= bound
            assert abs(got - want) <= abs(old - want)

    def test_exponents_beyond_a_float(self):
        # coefficients of binary exponent near 2^1030, as Gamma(2r+s+1)
        # has at a huge |Im s|: the fixed scale is read in ints, where
        # floats raised OverflowError
        with mp.workprec(300):
            scale = 2 ** 1030
            coeffs = [mpc(mp.ldexp(c.real, scale), mp.ldexp(c.imag, scale))
                      for c in _taylor_exp(mpc(3, -4), 25)]
            x = mpc("0.013", "-0.004")
            got = hp._fixed_horner(coeffs, x)
        with mp.workprec(2000):
            want = _mpc_horner(coeffs, x)
            assert abs(got - want) <= abs(want) * mpf(2) ** -300

    def test_result_is_exact_fixed_point(self, ctx):
        # the sum comes back unrounded: more bits than the working precision
        with ctx.working(HEADROOM):
            coeffs, x = HORNER_CASES["n300_decaying"](ctx)
            got = hp._fixed_horner(coeffs, x)
            assert got.real._mpf_[3] > mp.prec


class TestBernoulliSeriesAccuracy:
    """Horner's sum against the per-term form, one power a^(1-2r-s) per
    term, including |a| = 1, where |a^-2| = 1 and no term decays."""

    @pytest.mark.parametrize("mod", [1, 1.5, 8, 20])
    @pytest.mark.parametrize("s", S_VALUES + [mpc(2, 30)])
    def test_matches_per_term_form(self, s, mod, ctx):
        for arg in (0.02, 0.3, 0.55, 0.98):
            a = _ray(mod, arg, ctx)
            for n in (1, 5, 25, 60):
                got = bernoulli_series(s, a, n, ctx)
                with ctx.working(10):
                    powers = [pow_ray(a, 1 - (2 * r + s), ctx)
                              for r in range(1, n + 1)]
                    terms = [_bernoulli_term_factor(r, s, ctx) * p
                             for r, p in enumerate(powers, start=1)]
                    want = mp.fsum(terms)
                    scale = mp.fsum(abs(t) for t in terms)
                    assert abs(got - want) <= mpf("1e-75") * scale, \
                        (mod, arg, n)


class TestOptimalTruncation:
    def test_caption_pins(self, ctx):
        # least-term indices match the published sweep configurations
        a6 = _ray(6, 0.5, ctx)
        assert optimal_truncation(1, mpc(3), a6, ctx) == 17
        a6s2 = _ray(6, 0.5, ctx)
        assert optimal_truncation(1, mpc(2), a6s2, ctx) == 18
        assert optimal_truncation(2, mpc(2), a6s2, ctx) == 36

    def test_scales_like_pi_k_abs_a(self, ctx):
        a = _ray(10, 0.5, ctx)
        n1 = optimal_truncation(1, mpc(3), a, ctx)
        n3 = optimal_truncation(3, mpc(3), a, ctx)
        import math
        assert abs(n1 - math.pi * 10) < 4
        assert abs(n3 - 3 * math.pi * 10) < 6

    def test_matches_the_loop_on_the_workloads(self, ctx):
        # every ray of the benchmark's points at seeds 0 and 3, for the
        # plan scales and the tail scales extend_plan adds
        import zetastokes
        wl = _bench_workloads()
        for name in wl.WORKLOADS:
            ev = wl.Evaluator(zetastokes, name)
            for seed in (0, 3):
                for point in wl.points(name, seed):
                    if name in wl.SWEEPS:
                        zp = ev._sweep_point(point)
                        s, rays = zp.s, (zp.a, zp.a_prime)
                    else:
                        with ctx.working(10):
                            s, a = ev._grid_point(point)
                        rays = (a,)
                    for a in rays:
                        for k in range(1, 25):
                            assert optimal_truncation(k, s, a, ctx) == \
                                _least_term_loop(k, s, a), (name, point, k)

    @given(mod=st.floats(min_value=0, max_value=4),
           k=st.integers(min_value=1, max_value=5),
           re=st.floats(min_value=-4, max_value=12),
           im=st.floats(min_value=-30, max_value=30))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_the_loop(self, ctx_fast, mod, k, re, im):
        # |a| = 10^mod up to 10^4; for Re s <= -1 the ratio falls until r
        # nears (1 - Re s)/2 and grows beyond, one search covers both
        a = RayComplex(mpf(10) ** mod, mpf("0.4"))
        s = mpc(re, im)
        assert optimal_truncation(k, s, a, ctx_fast) == \
            _least_term_loop(k, s, a)

    def test_large_modulus_returns_at_once(self, ctx):
        # the loop takes about pi |a| - Re s/2 steps: some 13 s at
        # |a| = 1e7; Re s <= -1 used to walk them all (1.5 s at |a| = 1e6,
        # s = -1.5), and later the indices below (1 - Re s)/2 (0.22 s at
        # |a| = 1e6, s = -1e6)
        for mod, s in (("1e7", mpc(2, 0.5)), ("1e7", mpc(-1.5, 3)),
                       ("1e6", mpc(-1e6))):
            a = RayComplex(mpf(mod), mpf("0.4"))
            start = time.perf_counter()
            n = optimal_truncation(1, s, a, ctx)
            assert time.perf_counter() - start < 0.1, (mod, s)
            assert abs(n - (2 * math.pi * float(mod) - s.real) / 2) < 2

    @pytest.mark.parametrize("s", [mpc(-1), mpc(-1.5), mpc(-7.25, 3),
                                   mpc(-40, -2), mpc(-3, 2000),
                                   mpc(-120.5, -600)])
    @pytest.mark.parametrize("mod", ["1", "3.7", "250", "1e5"])
    def test_re_s_at_most_minus_one_matches_the_loop(self, s, mod, ctx_fast):
        # the one search from r = 1 gives the loop's index whether or not
        # the ratio first falls while r < (1 - Re s)/2, large |Im s|
        # included
        a = RayComplex(mpf(mod), mpf("0.4"))
        for k in (1, 4) if float(mod) < 1e3 else (1,):
            assert optimal_truncation(k, s, a, ctx_fast) == \
                _least_term_loop(k, s, a), k

    def test_rejects_small_modulus(self, ctx):
        with pytest.raises(DomainError, match=r"modulus >= 1, got 0\.5\b"):
            optimal_truncation(1, mpc(3), _ray(0.5, 0.5, ctx), ctx)

    @pytest.mark.parametrize("mod", ["1e300", "1e400"])
    def test_rejects_bound_beyond_double_range(self, mod, ctx):
        # (2 pi |a|)^2 used to overflow (1e300: OverflowError) or to be an
        # infinite float, which the least-term loop never reached (1e400)
        with ctx.working(10):
            a = RayComplex(mpf(mod), mpf("0.4") * mp.pi)
        with pytest.raises(DomainError, match="double range"):
            optimal_truncation(1, mpc(3), a, ctx)

    @pytest.mark.parametrize("k", [1, 4, 9])
    @pytest.mark.parametrize("mod", [1, 3, 8.5, 20])
    @pytest.mark.parametrize("s", [mpc(3), mpc(2, 0.5), mpc(1.6),
                                   mpc(6, -2)])
    def test_index_of_least_term(self, s, mod, k, ctx):
        # argmin over r >= 1 of log|A_r / k^(2r+2)| up to r-independent
        # terms, ties toward the smaller index
        a = _ray(mod, 0.5, ctx)
        with mp.workdps(30):
            logscale = mp.log(2 * mp.pi * k * a.modulus)
            want = min(range(1, int(2 * mp.pi * k * mod) + 20),
                       key=lambda r: mp.re(mp.loggamma(2 * r + s + 1))
                       - (2 * r + s.real + 1) * logscale)
        assert optimal_truncation(k, s, a, ctx) == want


class TestRemainders:
    def test_magnitude_at_optimal_index(self, ctx):
        # near-optimal remainders scale like the subdominant exponential
        a = _ray(6, 0.45, ctx)
        s = mpc(3)
        with ctx.working(10):
            im_a = 6 * mp.sin(mpf("0.45") * mp.pi)
            for k in (1, 2):
                n = optimal_truncation(k, s, a, ctx)
                r = remainder_rk(k, s, a, n, ctx)
                target = mp.exp(-2 * mp.pi * k * im_a)
                assert target / 1000 < abs(r) < target * 1000

    def test_truncation_invariance(self, ctx):
        # raising N_k by one moves exactly one closed-form block between the
        # algebraic sum and the remainder: k^(s-1)(R(N) - R(N+1)) equals
        # A_N(a) zeta(2N+2, k)-free term A_N(a)/k^(2N+2) / pi
        a = _ray(6, 0.45, ctx)
        s = mpc(3)
        with ctx.working(10):
            k, n = 2, 6
            diff = remainder_rk(k, s, a, n, ctx) \
                - remainder_rk(k, s, a, n + 1, ctx)
            moved = a_r_coefficient(n, s, a, ctx) \
                / (mp.pi * mpf(k) ** (2 * n + 2)) / mp.exp((s - 1) * mp.log(k))
            assert abs(diff - moved) <= ctx.tol() * (abs(moved) + ctx.tol())


class TestExactness:
    @pytest.mark.parametrize("plan", [
        TruncationPlan.constant(1, 3),
        TruncationPlan.constant(9, 3),
        TruncationPlan((2, 7, 11), (2, 7, 11), 3),
        TruncationPlan((9, 3), (9, 3), 2),
    ])
    def test_plan_independence(self, plan, ctx):
        a = _ray(6, 0.45, ctx)
        s = mpc(3)
        with ctx.working(10):
            ref = z_reference(s, a, ctx)
            got = z_improved(s, a, plan, ctx)
            assert abs(got - ref) <= ctx.tol() * abs(ref)

    def test_complex_s(self, ctx):
        a = _ray(8, 0.52, ctx)
        s = mpc(2, 0.5)
        with ctx.working(10):
            ref = z_reference(s, a, ctx)
            got = z_improved(s, a, TruncationPlan.constant(3, 2), ctx)
            assert abs(got - ref) <= ctx.tol() * abs(ref)

    def test_common_truncation_form(self, ctx):
        # a constant plan is the common-truncation form; at N = 1 the tail
        # extension must clear a budget sized in the same units as the
        # remainders, (2 pi)^(-s) Z
        a = _ray(3, 0.5, ctx)
        s = mpc(4)
        with ctx.working(10):
            ref = z_reference(s, a, ctx)
            got = z_improved(s, a, TruncationPlan.constant(1, 1), ctx)
            assert abs(got - ref) <= ctx.tol() * abs(ref)


    @pytest.mark.parametrize("s", [-1, -2, mpc(-3, 1e-70)])
    def test_rejects_nonpositive_integer_s(self, s, ctx):
        # without the check, extend_plan's loggamma(2r + s + 1) at r = 0
        # would raise an untyped ValueError at s = -1
        with pytest.raises(DomainError, match=r"s must not be -1, -2"):
            z_improved(s, _ray(6, 0.45, ctx), TruncationPlan.constant(3, 1),
                       ctx)

    def test_nearly_integer_s(self, ctx):
        # s = 3 + 1e-20 is outside the near-integer band 10^(-digits/2) of
        # the caller but inside that of PrecisionContext(30): the tail
        # scale k = 3 runs at fewer working digits, and must still classify
        # its order 1 - (2 N_3 + s) with the caller's band
        a = _ray(6, 0.45, ctx)
        with ctx.working(10):
            s = mpc(3) + mpf(10) ** -20
            ref = z_reference(s, a, ctx)
            got = z_improved(s, a, TruncationPlan((3, 9), (3, 9), 2), ctx)
            assert abs(got - ref) <= ctx.tol() * abs(ref)


# extend_plan on the 27 points of acceptance criterion 2 under each of its
# three plans, as computed when the tail estimate took mpmath's loggamma and
# zeta(2r+2, b) at 20 digits; the excess is rounded to 12 digits
EXTENSIONS = json.loads((Path(__file__).resolve().parent / "data"
                         / "extend_plan_grid.json").read_text())


def _extension_id(case):
    return "s{}+{}i-arg{}-mod{}-plan{}".format(
        *case["s"], case["arg_pi"], case["abs_a"],
        ",".join(map(str, case["plan"])))


class TestExtendPlan:
    @pytest.mark.parametrize("case", EXTENSIONS,
                             ids=[_extension_id(c) for c in EXTENSIONS])
    def test_matches_the_recorded_extensions(self, case, ctx):
        with ctx.working(10):
            s = mpc(*case["s"])
            a = _ray(case["abs_a"], case["arg_pi"], ctx)
        nlist, excess = extend_plan(s, a, tuple(case["plan"]), ctx)
        assert list(nlist) == case["nlist"]
        assert len(excess) == len(case["excess"])
        for got, want in zip(excess, case["excess"]):
            assert got == pytest.approx(want, abs=1e-9)

    def test_z_improved_calls_neither_zeta_nor_loggamma(self, ctx,
                                                        monkeypatch,
                                                        clear_caches):
        # the tail estimate reads the memoized zeta(2r+2, b) and signed
        # Gamma that leading_blocks sums, and zeta(2r+2, b) is in closed
        # form: from cold memos, a grid point takes neither function.  The
        # Hurwitz oracle sums its own Euler-Maclaurin series, so neither
        # z_reference nor hurwitz_zeta_direct takes mp.zeta
        clear_caches()
        calls = []

        def failing(name):
            def fail(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"mp.{name} called")
            return fail

        for name in ("zeta", "loggamma"):
            monkeypatch.setattr(mp, name, failing(name))
        with ctx.working(10):
            a = _ray(6, 0.5, ctx)
            z_improved(mpc(2, 0.5), a, TruncationPlan((3, 9), (3, 9), 2),
                       ctx)
            z_reference(mpc(2, 0.5), a, ctx)
            hurwitz_zeta_direct(mpc(3), a, ctx)
        assert calls == []

    def test_z_improved_never_reads_the_hurwitz_tail(self, ctx,
                                                     monkeypatch,
                                                     clear_caches):
        # the oracle's tail factors feed the S_1 cross-check and the
        # reference, never the expansion that the exactness gate checks
        clear_caches()

        def fail(*args):
            raise AssertionError("hurwitz_tail called")

        monkeypatch.setattr(SeriesTables, "hurwitz_tail", fail)
        with ctx.working(10):
            z_improved(mpc(2, 0.5), _ray(6, 0.5, ctx),
                       TruncationPlan((3, 9), (3, 9), 2), ctx)

    @pytest.mark.parametrize("s, mod, arg, plan, want", [
        (mpc(2, 0.5), "3.120626", "0.400927", (7, 7),
         ((7, 7, 28, 38, 48, 58, 67), 1.017)),
        (mpc(3), "3.231148", "0.4", (2, 2),
         ((2, 2, 29, 39, 49, 59, 69), 1.062)),
    ])
    def test_decisions_nearest_the_budget(self, s, mod, arg, plan, want,
                                          ctx):
        # the two benchmark-grid decisions nearest the budget: the last
        # scale is added with the tail estimate 1.7% and 6.2% above it, so
        # a looser bound on the dropped tail, such as
        # zeta(m, b) <= b^(-m) (1 + b/(m-1)), stops one scale early at both
        want_list, last_excess = want
        nlist, excess = extend_plan(s, _ray(mod, arg, ctx), plan, ctx)
        assert nlist == want_list
        assert len(excess) == len(want_list) - len(plan)
        assert all(e >= 0 for e in excess)
        assert 10 ** excess[-1] == pytest.approx(last_excess, abs=1e-3)

    @pytest.mark.parametrize("arg, match", [
        ("0", r"Im\(a\)"),
        ("0.001", "300 extension scales"),
    ])
    def test_tail_bound_raises_before_any_remainder(self, arg, match, ctx,
                                                    monkeypatch):
        # Im a = 0 never decays; Im a = 3 sin(0.001) decays too slowly for
        # 300 added scales to clear the budget
        def no_remainder(*args):
            raise AssertionError("remainder computed before the tail bound")
        monkeypatch.setattr(expansion, "remainder_rk", no_remainder)
        with ctx.working(10):
            a = RayComplex(mpf(3), mpf(arg))
            with pytest.raises(TailBoundError, match=match):
                z_improved(mpc(3), a, TruncationPlan.constant(2, 1), ctx)


class TestBlocks:
    @pytest.mark.parametrize("n", [1, 17])
    @pytest.mark.parametrize("s", [mpc(3), mpc(2, 0.5)])
    def test_bernoulli_series_is_single_scale_blocks(self, s, n, ctx):
        # B_{2r}/(2r)! Gamma(2r+s-1) a^(1-2r-s) = (2 pi)^s A_{r-1} zeta(2r)/pi
        a = _ray(6, 0.45, ctx)
        with ctx.working(10):
            got = bernoulli_series(s, a, n, ctx)
            want = (2 * mp.pi) ** s * leading_blocks(s, a, (n,), ctx)
            assert abs(got - want) <= ctx.tol() * (1 + abs(want))

    def test_non_monotone_blocks_match_direct_double_sum(self, ctx):
        # (1/pi) sum_k sum_{r<N_k} A_r / k^(2r+2), N_k = 3 for k >= 2
        a = _ray(6, 0.45, ctx)
        s = mpc(3)
        with ctx.working(10):
            got = leading_blocks(s, a, (5, 3), ctx)
            coeffs = [a_r_coefficient(r, s, a, ctx) for r in range(5)]
            want = (sum(coeffs) + sum(coeffs[r] * mp.zeta(2 * r + 2, 2)
                                      for r in range(3))) / mp.pi
            assert abs(got - want) <= ctx.tol() * (1 + abs(want))

    def test_empty_index_list_is_zero(self, ctx):
        assert leading_blocks(mpc(3), _ray(6, 0.45, ctx), (), ctx) == 0

    @pytest.mark.parametrize("nlist", [(1,), (25,), (18, 36)])
    def test_one_power_call_and_one_gamma_per_ray(self, nlist, ctx,
                                                  monkeypatch):
        # a block sum is a polynomial in (2 pi a)^-2 times (2 pi a)^-(s+1):
        # one pow_ray call, for a^(-s), whatever its length, the rest from
        # the ray's value, and at most one Gamma, Gamma(s+1), which starts
        # the owned signed-Gamma recurrence
        calls = []

        def counting(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                caller = sys._getframe(1).f_code.co_name
                exponent = args[1] if name == "pow_ray" else None
                calls.append((name, caller, exponent))
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        counting(expansion, "pow_ray")
        counting(hp, "gamma_complex")
        s = mpc(2, 0.5)
        leading_blocks(s, _ray(8, 0.45, ctx), nlist, ctx)
        assert [c for c in calls if c[0] == "pow_ray"] \
            == [("pow_ray", "leading_blocks", -s)]
        assert len([c for c in calls if c[0] == "gamma_complex"]) <= 1

    def test_bernoulli_factors_are_the_hurwitz_tail(self, ctx, monkeypatch,
                                                    clear_caches):
        # the Bernoulli side of the S_1 cross-check is Gamma(s) times the
        # oracle's tail factors c_r: on a fresh owner it reads no signed
        # Gamma and no block factor, and asks for one Gamma, Gamma(s)
        clear_caches()
        asked = []
        real = hp.gamma_complex

        def counting(z, ctx):
            asked.append(z)
            return real(z, ctx)

        def fail(*args):
            raise AssertionError("block-side factor read")

        monkeypatch.setattr(hp, "gamma_complex", counting)
        for name in ("signed_gamma", "block_coefficients"):
            monkeypatch.setattr(SeriesTables, name, fail)
        s = mpc(2, 0.5)
        bernoulli_series(s, _ray(8, 0.5, ctx), 25, ctx)
        assert asked == [s]

    def test_blocks_match_direct_double_sum(self, ctx):
        # for one scale: (1/pi) sum_{r<N} A_r zeta(2r+2, 1)
        a = _ray(6, 0.45, ctx)
        s = mpc(3)
        with ctx.working(10):
            got = leading_blocks(s, a, (4,), ctx)
            want = sum(a_r_coefficient(r, s, a, ctx)
                       * hurwitz_zeta_integer(2 * r + 2, 1, ctx)
                       for r in range(4)) / mp.pi
            assert abs(got - want) <= ctx.tol() * (1 + abs(want))


class TestPlans:
    def test_optimal_plan_monotone(self, ctx):
        a = _ray(6, 0.45, ctx)
        pt = ZetaPoint.create(mpc(3), a, ctx)
        plan = optimal_plan(pt, 3, ctx)
        assert plan.nk[0] < plan.nk[1] < plan.nk[2]
        assert plan.nk_prime[0] < plan.nk_prime[1] < plan.nk_prime[2]


class TestScriptR:
    def test_composition(self, ctx):
        a = _ray(6, 0.5, ctx)
        pt = ZetaPoint.create(mpc(3), a, ctx)
        with ctx.working(10):
            combined = script_r_k(1, pt, 17, 17, ctx)
            half_is = mp.expjpi(pt.s / 2)
            parts = half_is * remainder_rk(1, pt.s, pt.a, 17, ctx) \
                + remainder_rk(1, pt.s, pt.a_prime, 17, ctx) / half_is
            assert abs(combined - parts) <= ctx.tol() * (1 + abs(combined))

    def test_order_one_on_the_line(self, ctx):
        # |combined remainder x e^(-2 pi i a)| is O(1) in the transition
        a = _ray(6, 0.5, ctx)
        pt = ZetaPoint.create(mpc(3), a, ctx)
        with ctx.working(10):
            r1 = script_r_k(1, pt, 17, 17, ctx)
            scaled = abs(r1 * mp.exp(-2 * mp.pi * mpc(0, 1) * pt.a.value()))
            assert 0.1 < float(scaled) < 1.2
