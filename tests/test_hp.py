import math
import time
import weakref
from fractions import Fraction
from functools import cache, partial

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpc

from zetastokes.errors import DomainError, PoleError
from zetastokes.expansion import TruncationPlan, z_improved
from zetastokes.hp import (HEADROOM, TABLES_LIMIT, PrecisionContext,
                           RayComplex, SeriesTables, bernoulli_even,
                           gamma_complex, hurwitz_zeta_integer, phase_bits,
                           pow_ray, series_tables)
from zetastokes.terminant import _gamma_head, _limit_head, _prefactor
from zetastokes.oracle import ZetaPoint
from zetastokes.stokes import stokes_multiplier

with mp.workdps(100):
    # a real argument with more bits than a 15-digit caller would keep
    FINE = +mp.pi
    FINE_S = mpc(FINE, -FINE)


def bits(value):
    return getattr(value, "_mpc_", None) or value._mpf_


class Owned:
    """Readers of one value that the owner of (s, ctx) holds, each named
    for the value it reads: through ``series_tables``, or from an owner
    built afresh with tables=SeriesTables."""

    @staticmethod
    def gamma_complex(s, ctx, tables=series_tables):
        return tables(s, ctx).gamma  # Gamma(s)

    @staticmethod
    def signed_gamma(r, s, ctx, tables=series_tables):
        return tables(s, ctx).signed_gamma(r)

    @staticmethod
    def bernoulli_entry(r, s, ctx, tables=series_tables):
        return tables(s, ctx).hurwitz_tail(r, 0)[-1]  # B_2r/(2r)! (s)_(2r-1)

    @staticmethod
    def block_entry(r, m, s, ctx, tables=series_tables):
        return tables(s, ctx).block_coefficients(m, r, r + 1)[0]

    @staticmethod
    def phase(s, ctx, tables=series_tables):
        return tables(s, ctx).phase_half_s  # e^(i pi s/2)

    @staticmethod
    def phase_minus_s(s, ctx, tables=series_tables):
        return tables(s, ctx).phase_minus_s

    @staticmethod
    def two_pi_power(s, ctx, tables=series_tables):
        return tables(s, ctx).two_pi_s

    @staticmethod
    def two_pi_minus_s(s, ctx, tables=series_tables):
        return tables(s, ctx).two_pi_minus_s

    @staticmethod
    def int_power(k, s, ctx, tables=series_tables):
        return tables(s, ctx).k_power(k)  # k^(s-1)


class TestPrecisionContext:
    def test_defaults(self):
        c = PrecisionContext()
        assert c.digits == 60 and c.guard == 20

    def test_tolerance_scale(self):
        c = PrecisionContext(digits=40)
        with mp.workdps(60):
            assert abs(c.tol() - mpf(10) ** -30) < mpf(10) ** -40

    @pytest.mark.parametrize("kwargs", [{"digits": 29}])
    def test_rejects_too_low(self, kwargs):
        with pytest.raises(ValueError):
            PrecisionContext(**kwargs)

    def test_working_sets_dps(self):
        c = PrecisionContext(digits=35)
        with c.working(3):
            assert mp.dps == 58

    def test_reduced_lowers_only_the_working_precision(self):
        c = PrecisionContext(digits=60)
        low = c.reduced(35)
        with low.working(3):
            assert mp.dps == 58
        assert low.digits == 60 and float(low.tol()) == float(c.tol())
        assert low != c
        # never above the caller's working precision
        assert c.reduced(60) == c and c.reduced(90) == c


class TestRead:
    @pytest.mark.parametrize("x", [
        FINE, mpc(FINE, -FINE), 2 ** 100 + 1, 1.6, 2 + 0.5j, True],
        ids=["mpf", "mpc", "int", "float", "complex", "bool"])
    def test_numbers_are_read_exactly(self, x, ctx_fast):
        # no rounding to the caller's 15 digits or to the context's own
        with mp.workdps(15):
            got = ctx_fast.read(x)
        with mp.workdps(200):
            assert isinstance(got, mpc) and got == mpc(x)

    def test_mpc_is_passed_through(self, ctx_fast):
        x = mpc(FINE, 1)
        assert ctx_fast.read(x) is x

    def test_string_is_parsed_at_working_precision(self, ctx_fast):
        with mp.workdps(15):
            got = ctx_fast.read("1.6")
        with ctx_fast.working(10):
            want = mpc("1.6")
        assert got._mpc_ == want._mpc_

    def test_rejects_other_types(self, ctx_fast):
        with pytest.raises(TypeError):
            ctx_fast.read(Fraction(1, 3))


class TestRayComplex:
    def test_value_matches_polar(self):
        with mp.workdps(40):
            r = RayComplex(mpf(2), mp.pi / 3)
            expected = 2 * mp.expj(mp.pi / 3)
            assert abs(r.value() - expected) < mpf(10) ** -38

    def test_unreduced_argument_survives(self):
        r = RayComplex(mpf(1), mpf(10))
        assert r.argument == 10  # no mod-2pi reduction

    def test_from_value_principal(self):
        with mp.workdps(40):
            r = RayComplex.from_value(mpc(-1, -1))
            assert abs(r.argument + 3 * mp.pi / 4) < mpf(10) ** -38


class TestBernoulli:
    def test_known_values(self):
        assert bernoulli_even(1) == Fraction(1, 6)
        assert bernoulli_even(2) == Fraction(-1, 30)
        assert bernoulli_even(6) == Fraction(-691, 2730)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            bernoulli_even(0)

    def test_matches_mpmath_bernfrac(self):
        # the tangent-number recurrence against mpmath's numerical route
        for k in range(1, 151):
            assert bernoulli_even(k) == Fraction(*mp.bernfrac(2 * k)), k

    @given(st.integers(min_value=1, max_value=30))
    def test_defining_recurrence_residual_is_zero(self, k):
        # sum_{j=0}^{m} C(m+1, j) B_j = 0 for m = 2k, exactly in rationals
        m = 2 * k
        bs = {0: Fraction(1), 1: Fraction(-1, 2)}
        for j in range(1, k + 1):
            bs[2 * j] = bernoulli_even(j)
        total = sum(Fraction(math.comb(m + 1, j)) * bs.get(j, Fraction(0))
                    for j in range(m + 1))
        assert total == 0


class TestZetaEven:
    """zeta(m) at even m, which ``hurwitz_zeta_integer(m, 1)`` serves."""

    def test_basel(self, ctx_fast):
        with ctx_fast.working():
            assert abs(hurwitz_zeta_integer(2, 1, ctx_fast) - mp.pi ** 2 / 6) \
                < ctx_fast.tol()

    def test_matches_mpmath(self, ctx_fast):
        with ctx_fast.working():
            for m in (4, 10, 24):
                assert abs(hurwitz_zeta_integer(m, 1, ctx_fast) - mp.zeta(m)) \
                    < ctx_fast.tol()

    def test_rejects_odd(self, ctx_fast):
        with pytest.raises(DomainError):
            hurwitz_zeta_integer(3, 1, ctx_fast)


class TestHurwitzZetaInteger:
    def test_base_one_is_zeta(self, ctx_fast):
        with ctx_fast.working():
            assert abs(hurwitz_zeta_integer(6, 1, ctx_fast) - mp.zeta(6)) \
                < ctx_fast.tol()

    def test_matches_tail_sum(self, ctx_fast):
        with ctx_fast.working():
            direct = mp.nsum(lambda j: j ** mpf(-4), [3, mp.inf])
            assert abs(hurwitz_zeta_integer(4, 3, ctx_fast) - direct) \
                < ctx_fast.tol()

    def test_relative_accuracy_for_tiny_tails(self, ctx_fast):
        # value ~ 13^(-488) ~ 1e-544: must carry full relative accuracy,
        # not be swamped by cancellation against zeta(488) ~ 1
        v = hurwitz_zeta_integer(488, 13, ctx_fast)
        with mp.workdps(80):
            lead = mpf(13) ** -488
            # the j = 14 term contributes (14/13)^(-488) ~ 2e-16 relatively:
            # present in the value, far above the 30-digit roundoff floor
            assert mpf("1e-17") < abs(v / lead - 1) < mpf("1e-6")

    def test_rejects_bad_base(self, ctx_fast):
        with pytest.raises(DomainError):
            hurwitz_zeta_integer(4, 0, ctx_fast)


@cache
def _bernoulli_fraction(n):
    return Fraction(*mp.bernfrac(n))


def _zeta_reference(m, base, dps):
    """zeta(m, base) at dps digits without mp.zeta: the terms below
    N = base + m + 100 summed one by one (the sum stops early once a term
    falls below 10^-dps of it), then the Euler-Maclaurin tail at N
    (DLMF 2.10.1), N^(1-m)/(m-1) + N^(-m)/2
    + sum_k B_2k/(2k)! m (m+1) ... (m+2k-2) N^(1-m-2k), whose terms fall
    like ((m+2k)/(2 pi N))^2 until m + 2k nears 2 pi N."""
    top = base + m + 100
    with mp.workdps(dps):
        total, eps = mpf(0), mpf(10) ** -dps
        for j in range(base, top):
            term = mpf(j) ** -m
            total += term
            if term < eps * total:
                return total
        n = mpf(top)
        total += n ** (1 - m) / (m - 1) + n ** -m / 2
        rising, k = mpf(m), 1
        while True:
            b = _bernoulli_fraction(2 * k)
            term = mpf(b.numerator) / b.denominator / mp.factorial(2 * k) \
                * rising * n ** (1 - m - 2 * k)
            total += term
            if abs(term) < eps * total:
                return total
            rising *= (m + 2 * k - 1) * (m + 2 * k)
            k += 1


def _relative_miss(m, base, ctx):
    """|value - reference| / reference in units of 10^-D, with D the
    digits of ``ctx.working(HEADROOM)``, against a reference at 2 D."""
    dps = ctx.digits + ctx.guard + HEADROOM
    got = hurwitz_zeta_integer(m, base, ctx)
    want = _zeta_reference(m, base, 2 * dps)
    with mp.workdps(2 * dps):
        return abs(got - want) / want * mpf(10) ** dps


# Every (m, base) that the three benchmark workloads use at seeds 0 and 3
# lies in these ranges of even m (all of them on the subtraction side).
WORKLOAD_M_RANGES = {1: (2, 50), 2: (8, 74), 3: (6, 168), 4: (56, 170),
                     5: (74, 98), 6: (92, 118), 7: (112, 134),
                     8: (130, 136)}


class TestHurwitzZetaAccuracy:
    """Both regimes of the closed form are right to 10^-(D-2), relative,
    with D = digits + guard + HEADROOM."""

    @pytest.mark.parametrize("base", sorted(WORKLOAD_M_RANGES))
    def test_workload_values(self, base, ctx):
        lo, hi = WORKLOAD_M_RANGES[base]
        for m in range(lo, hi + 1, 2):
            assert _relative_miss(m, base, ctx) < 100, (m, base)

    @pytest.mark.parametrize("digits, m, base", [
        # mpmath's zeta(m, base) stops at an absolute tolerance: at
        # D = 90 it is off by 4.6e-76 and 6.5e-60 relative on these two
        (60, 46, 3), (60, 46, 7), (60, 488, 13), (60, 5000, 100),
        # D = 90: m = 298 is the last even m of the subtraction regime
        (60, 298, 1), (60, 298, 2), (60, 298, 13),
        (60, 300, 1), (60, 300, 2), (60, 300, 13),
        # D = 60: m = 198 and 200
        (30, 198, 2), (30, 198, 13), (30, 200, 2), (30, 200, 13),
    ])
    def test_named_and_boundary_values(self, digits, m, base):
        assert _relative_miss(m, base, PrecisionContext(digits)) < 100

    @pytest.mark.parametrize("m, base", [
        (2, 300), (298, 300), (300, 300), (5000, 300)])
    def test_a_call_takes_under_50_ms(self, m, base, ctx):
        start = time.perf_counter()
        hurwitz_zeta_integer.__wrapped__(m, base, ctx)
        assert time.perf_counter() - start < 0.05


class TestGammaComplex:
    def test_matches_mpmath(self, ctx_fast):
        with ctx_fast.working():
            z = mpc("2.5", "1.5")
            assert abs(gamma_complex(z, ctx_fast) - mp.gamma(z)) \
                < ctx_fast.tol()

    def test_pole_raises(self, ctx_fast):
        with pytest.raises(PoleError):
            gamma_complex(mpc(-3) + mpf(10) ** -40, ctx_fast)

    @given(st.floats(min_value=0.5, max_value=20),
           st.floats(min_value=-5, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_recurrence(self, re, im):
        c = PrecisionContext(digits=30)
        with c.working():
            z = mpc(re, im)
            lhs = gamma_complex(z + 1, c)
            rhs = z * gamma_complex(z, c)
            assert abs(lhs - rhs) <= c.tol() * (1 + abs(lhs))


class TestMemo:
    """A cached value has the bits of a fresh evaluation, whatever the
    cache state and the caller's precision."""

    @pytest.mark.parametrize("fn, args", [
        (Owned.gamma_complex, (mpc(27, 0.5),)),
        (Owned.gamma_complex, (FINE_S,)),
        (hurwitz_zeta_integer, (40, 3)),
        (hurwitz_zeta_integer, (6, 1)),
        (Owned.bernoulli_entry, (1, mpc(2, 0.5))),
        (Owned.bernoulli_entry, (25, FINE_S)),
        (Owned.block_entry, (30, 2, mpc(2, 0.5))),
        (Owned.block_entry, (7, 1, FINE_S)),
        (Owned.phase, (mpc(2, 0.5),)),
        (Owned.phase, (FINE_S,)),
        (Owned.two_pi_power, (mpc(2, 0.5),)),
        (Owned.int_power, (3, FINE_S)),
        (Owned.signed_gamma, (12, FINE_S)),
        (Owned.phase_minus_s, (FINE_S,)),
        (Owned.two_pi_minus_s, (FINE_S,)),
        (_prefactor, (mpc(37, 0.5),)),
        (_prefactor, (FINE_S,)),
    ])
    def test_hit_equals_fresh_evaluation(self, ctx_fast, fn, args):
        # an owned value is cleared with its owner and read fresh from an
        # owner built for it alone
        if hasattr(fn, "cache_clear"):
            memo, fresh = fn, fn.__wrapped__
        else:
            memo, fresh = series_tables, partial(fn, tables=SeriesTables)
        values = []
        for dps, other in ((15, 200), (200, 15)):
            memo.cache_clear()
            with mp.workdps(dps):
                values.append(fn(*args, ctx_fast))  # cold
                values.append(fn(*args, ctx_fast))  # warm
            with mp.workdps(other):
                values.append(fn(*args, ctx_fast))  # warm, other precision
                values.append(fresh(*args, ctx_fast))
        assert len({bits(v) for v in values}) == 1

    @pytest.mark.parametrize("order", [1, -1])
    def test_ray_memo_hit_equals_fresh_ray(self, ctx, ctx_fast, order):
        # a ray keeps its value per precision and its powers per
        # (exponent, ctx, extra): read in either order at two caller
        # precisions, each is kept once and has the bits of a fresh ray's;
        # the keys give distinct bits, so an entry that served another key
        # would show
        with mp.workdps(100):
            arg = FINE / 3

        def ray():
            return RayComplex(FINE, arg)

        reads = [(15, None), (200, None)] + [
            (None, (-FINE_S, c, extra))
            for c in (ctx_fast, ctx) for extra in (0, HEADROOM)]

        def read(base, dps, key):
            if key is None:
                with mp.workdps(dps):
                    return base.value()
            return pow_ray(base, *key)

        shared, kept = ray(), {}
        for caller in (15, 200):
            for i, (dps, key) in enumerate(reads[::order]):
                with mp.workdps(caller):
                    got = read(shared, dps, key)
                    want = read(ray(), dps, key)
                assert got is kept.setdefault(i, got)
                assert bits(got) == bits(want)
        fresh = [bits(read(ray(), dps, key)) for dps, key in reads]
        assert len(set(fresh)) == len(reads)

    def test_tables_keep_entries_in_order(self, ctx_fast):
        # a block read over [lo, hi) after a read of a later range, and the
        # Bernoulli factors c_r read short after a long read, give the entries
        # that owners built for each of them alone give
        s = mpc(2, 0.5)
        tables = SeriesTables(s, ctx_fast)
        tables.block_coefficients(2, 9, 12)
        got = tables.block_coefficients(2, 4, 11)
        assert [bits(g) for g in got] == [
            bits(Owned.block_entry(r, 2, s, ctx_fast, tables=SeriesTables))
            for r in range(4, 11)]
        tables.hurwitz_tail(9, 0)
        got = tables.hurwitz_tail(4, 0)
        assert [bits(g) for g in got] == [
            bits(Owned.bernoulli_entry(r, s, ctx_fast, tables=SeriesTables))
            for r in range(1, 5)]

    def test_clear_caches_finds_every_memo(self, package_memos):
        # the walk over the modules finds the five memos of the package
        want = {hurwitz_zeta_integer, series_tables, _prefactor,
                _gamma_head, _limit_head}
        assert set(package_memos) == want

    def test_errors_are_not_cached(self, ctx_fast):
        for _ in range(2):
            with pytest.raises(PoleError):
                series_tables(mpc(-3) + 1e-40, ctx_fast).gamma
        for _ in range(2):
            with pytest.raises(PoleError):
                _prefactor(mpc(-3) + 1e-40, ctx_fast)
        for _ in range(2):
            with pytest.raises(DomainError):
                hurwitz_zeta_integer(4, 0, ctx_fast)

    def test_owners_are_bounded(self, ctx_fast):
        # beyond TABLES_LIMIT distinct s the least recently used owners
        # are dropped, and nothing else keeps them alive
        series_tables.cache_clear()
        owners = [weakref.ref(series_tables(mpc(k, 0.5), ctx_fast))
                  for k in range(TABLES_LIMIT + 5)]
        alive = [ref() is not None for ref in owners]
        assert sum(alive) <= TABLES_LIMIT and alive[-1]

    def test_z_improved_at_s_zero(self, ctx, clear_caches):
        # s = 0 is a pole of Gamma(s) but not of the expansion, so the
        # owner takes Gamma(s) only when asked for; the value is
        # log Gamma(a) - log(2 pi)/2 + log(a)/2 - a log a + a, the limit
        # of Z(s, a) at s = 0, and keeps its bits
        with ctx.working(10):
            a = RayComplex(mpf(6), mpf("0.40") * mp.pi)
        clear_caches()
        got = z_improved(0, a, TruncationPlan((3, 9), (3, 9), 2), ctx)
        assert got._mpc_ == (
            (0, int("448725250070576373543222768340146633780660295582934136"
                    "0293947841926894075696443495638770385"), -309, 302),
            (1, int("689224814705247357325850153236148998778955507684143617"
                    "4650871815934344225237341778382174241"), -308, 302))
        with mp.workdps(100):
            av = a.value()
            want = mp.loggamma(av) - mp.log(2 * mp.pi) / 2 \
                + mp.log(av) / 2 - av * mp.log(av) + av
            assert abs(got - want) < ctx.tol() * abs(want)

    def test_fig1b_point_cold_equals_warm(self, ctx, clear_caches):
        a = RayComplex(mpf(8), mpf("0.45") * mp.pi)
        point = ZetaPoint.create(mpc(2, 0.5), a, ctx)
        plan = TruncationPlan((25,), (24,), 1)
        clear_caches()
        cold = stokes_multiplier(1, point, ctx, plan=plan).exact
        warm = stokes_multiplier(1, point, ctx, plan=plan).exact
        assert bits(cold) == bits(warm)

    def test_z_improved_cold_equals_warm(self, ctx, clear_caches):
        a = RayComplex(mpf(6), mpf("0.40") * mp.pi)
        plan = TruncationPlan((3, 9), (3, 9), 2)
        clear_caches()
        cold = z_improved(mpc("1.6"), a, plan, ctx)
        warm = z_improved(mpc("1.6"), a, plan, ctx)
        assert bits(cold) == bits(warm)


# a ray whose argument has more bits than a 30-digit power keeps
with mp.workdps(100):
    PHASE_RAY = RayComplex(mpf(6), mpf("0.45") * mp.pi)
SMALL_RAY = RayComplex(mpf(2), mpf("0.3"))


class TestKPower:
    """Every owned power with a complex exponent by the phase rule
    ``phase_bits``: k^(s-1), (2 pi)^(+-s) and a non-integer ``pow_ray``."""

    # (name, offset of the working precision it is rounded to, the power
    # at (s, ctx))
    POWERS = [(f"k_power({k})", HEADROOM,
               lambda s, ctx, k=k: SeriesTables(s, ctx).k_power(k))
              for k in (2, 3, 10, 97)] + [
        ("two_pi_s", HEADROOM, lambda s, ctx: SeriesTables(s, ctx).two_pi_s),
        ("two_pi_minus_s", HEADROOM,
         lambda s, ctx: SeriesTables(s, ctx).two_pi_minus_s),
    ] + [(f"pow_ray extra={extra}", extra,
          lambda s, ctx, extra=extra: pow_ray(PHASE_RAY, -s, ctx, extra))
         for extra in (0, HEADROOM)]

    @pytest.mark.parametrize("e", [0, 40, 133, 1000, 3000])
    def test_matches_twenty_more_digits(self, e, ctx_fast):
        # right to a few units of its working precision at any |Im s|:
        # without the rule the phase of exp(e L) would lose log2(|e| |L|)
        # bits, 2^-p |e L| off at p bits
        s = mpc(3, mpf(2) ** e)
        fine = PrecisionContext(ctx_fast.digits + 20)
        for name, extra, power in self.POWERS:
            with ctx_fast.working(extra):
                unit = mpf(2) ** -mp.prec
            got, want = power(s, ctx_fast), power(s, fine)
            with fine.working(HEADROOM):
                assert abs(got - want) <= 4 * unit * abs(want), name

    @pytest.mark.parametrize("s, k", [
        (mpc(2, 0.5), 2), (mpc(1.5), 7), (mpc(1, 0.001), 1000), (mpc(3), 1),
        (mpc(0.5, 0.1), "two_pi_s"), (mpc(0.5, 0.1), "two_pi_minus_s"),
        (mpc(0.5, 0.5), "pow_ray"),
    ])
    def test_plain_exp_where_the_phase_is_small(self, s, k, ctx_fast):
        # |e| log_size <= 1, so no extra bit: |s-1| ln k (0.77 at the
        # first), |s| ln 2 pi = 0.94, and |s| (ln 2 + 0.3) = 0.70 on the
        # ray 2 e^(0.3 i); each is the plain power of its own precision
        if k == "pow_ray":
            for extra in (0, HEADROOM):
                got = pow_ray(SMALL_RAY, -s, ctx_fast, extra)
                with ctx_fast.working(extra):
                    log_b = mp.log(SMALL_RAY.modulus) \
                        + mpc(0, 1) * SMALL_RAY.argument
                    assert got._mpc_ == mp.exp(-s * log_b)._mpc_
            return
        tables = SeriesTables(s, ctx_fast)
        with ctx_fast.working(HEADROOM):
            if k == "two_pi_s":
                plain, got = (2 * mp.pi) ** s, tables.two_pi_s
            elif k == "two_pi_minus_s":
                plain, got = (2 * mp.pi) ** -s, tables.two_pi_minus_s
            else:
                plain, got = mp.exp((s - 1) * mp.log(k)), tables.k_power(k)
            assert got._mpc_ == plain._mpc_

    @pytest.mark.parametrize("e, log_size, want", [
        (mpc(2, 0.5), 0.0, 0), (mpc(0.5), 2.0, 0), (mpc(0, 4), 1.0, 2),
        (mpc(0, 4), 1.01, 3), (3, 1.0, 2), (mpc(3, mpf(2) ** 60), 1.0, 60),
        # |e| past the float range: log2(2^1330 1.5) = 1330.58
        (mpc(3, mpf(2) ** 1330), 1.5, 1331),
        (mpc(3, mpf(2) ** 1330), 0.0, 0),
    ])
    def test_phase_bits(self, e, log_size, want):
        assert phase_bits(e, log_size) == want


class TestPowRay:
    def test_uses_carried_argument(self, ctx_fast):
        # same value, different rays -> different powers
        with ctx_fast.working():
            p0 = pow_ray(RayComplex(mpf(1), mpf(0)), mpc(0, 1), ctx_fast)
            p1 = pow_ray(RayComplex(mpf(1), 2 * mp.pi), mpc(0, 1), ctx_fast)
            assert abs(p0 - 1) < ctx_fast.tol()
            assert abs(p1 - mp.exp(-2 * mp.pi)) < ctx_fast.tol()

    @given(st.floats(min_value=-2, max_value=2),
           st.floats(min_value=-2, max_value=2))
    @settings(max_examples=25, deadline=None)
    def test_exponent_additivity(self, x, y):
        c = PrecisionContext(digits=30)
        with c.working():
            base = RayComplex(mpf(3), mpf("2.5"))
            lhs = pow_ray(base, mpf(x) + mpf(y), c)
            rhs = pow_ray(base, mpf(x), c) * pow_ray(base, mpf(y), c)
            assert abs(lhs - rhs) <= c.tol() * (1 + abs(lhs))

    @pytest.mark.parametrize("arg_over_pi", ["0.55", "3.5", "-3.5"])
    @pytest.mark.parametrize("n", [0, 1, -1, -2, -37, -300])
    def test_integer_exponent_matches_the_exp_form(self, n, arg_over_pi,
                                                   ctx):
        # |b|^n e^(i n arg b) against exp(n (log|b| + i arg b)) at twice
        # the digits, on rays beyond +-pi too, within the exp form's own
        # bound: L = log|b| + i arg b is off by (1 + 2|L|) u, n L by
        # (2 + 4|L|) |n| u with u = 2^-prec, and the exp rounds once
        with ctx.working():
            base = RayComplex(mpf("16.5"), mpf(arg_over_pi) * mp.pi)
            prec = mp.prec
        for exponent in (n, mpc(n)):
            got = pow_ray(base, exponent, ctx)
            with mp.workdps(2 * (ctx.digits + ctx.guard)):
                log_b = mp.log(base.modulus) + mpc(0, 1) * base.argument
                want = mp.exp(n * log_b)
                bound = 1 + (2 + 4 * abs(log_b)) * abs(n)
                assert abs(got - want) <= bound * mpf(2) ** -prec * abs(want)

    def test_rejects_zero_modulus(self, ctx_fast):
        with pytest.raises(DomainError):
            pow_ray(RayComplex(mpf(0), mpf(0)), 2, ctx_fast)

    @pytest.mark.parametrize("mod, arg", [
        ("nan", 1), ("inf", 1), ("-inf", 1), (1, "nan"), (1, "inf"),
    ])
    def test_rejects_non_finite_base(self, ctx_fast, mod, arg):
        # the ray refuses itself, so pow_ray never sees it
        with pytest.raises(DomainError):
            RayComplex(mpf(mod), mpf(arg))
