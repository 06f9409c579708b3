import math
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mp, mpf, mpc

import zetastokes
from test_expansion import _bench_workloads
from zetastokes.errors import (ConvergenceError, DivergenceError,
                               DomainError, PoleError)
from zetastokes.expansion import TruncationPlan, z_improved
from zetastokes.hp import (HEADROOM, PrecisionContext, RayComplex,
                           pow_ray, series_tables)
from zetastokes import oracle
from zetastokes.oracle import (ZetaPoint, f_tilde_reference,
                               hurwitz_zeta_direct, periodic_zeta_direct,
                               z_reference)
from zetastokes.stokes import stokes_multiplier
from zetastokes.validate import reflection_residuals, run_validation


def _point(s, modulus, arg_over_pi, ctx):
    with ctx.working(10):
        a = RayComplex(mpf(modulus), mpf(str(arg_over_pi)) * mp.pi)
    return ZetaPoint.create(mpc(s), a, ctx)


def _direct_sum(pt):
    """sum_k k^(s-1) q^k at the caller's precision, up to the first term
    below 2^-prec of the sum past which the terms fall: there the ratio
    |q| ((k+1)/k)^(Re s - 1) of the next two is below 1 and decreasing.
    k^(s-1) is d^(s-1) (k/d)^(s-1) at the least factor d of a composite k."""
    q = mp.exp(2 * mp.pi * mpc(0, 1) * pt.a.value())
    total, qk, k = mpc(0), mpc(1), 0
    re_s1, powers = float(pt.s.real) - 1, [None]
    while True:
        k += 1
        qk *= q
        d = next((d for d in range(2, math.isqrt(k) + 1) if k % d == 0), 0)
        powers.append(powers[d] * powers[k // d] if d
                      else mp.exp((pt.s - 1) * mp.log(k)))
        term = qk * powers[k]
        total += term
        if mp.mag(term) < mp.mag(total) - mp.prec \
                and float(abs(q)) * ((k + 1) / k) ** re_s1 < 1:
            return total


class TestZetaPoint:
    def test_carries_exact_reflection(self, ctx):
        pt = _point(3, 6, 0.45, ctx)
        with ctx.working(10):
            assert abs(pt.a_prime.value() - (1 - pt.a.value())) \
                < ctx.tol() * 10
            assert -mp.pi < pt.a_prime.argument < 0

    @pytest.mark.parametrize("arg_over_pi", [0.0, 1.0, -0.3, 1.2])
    def test_rejects_bad_argument(self, arg_over_pi, ctx):
        with ctx.working():
            a = RayComplex(mpf(6), mpf(str(arg_over_pi)) * mp.pi)
        with pytest.raises(DomainError):
            ZetaPoint.create(mpc(3), a, ctx)

    def test_rejects_nonpositive_integer_s(self, ctx):
        with ctx.working():
            a = RayComplex(mpf(6), mpf("0.5") * mp.pi)
        with pytest.raises(DomainError, match=r"s must not be 0, -1"):
            ZetaPoint.create(mpc(-2), a, ctx)


def _shift_residual(s, a, ctx):
    # zeta(s,a) - zeta(s,a+1) = a^(-s), relative to a^(-s); the difference
    # cancels the leading a^(1-s)/(s-1) of both zeta values
    with ctx.working(10):
        a_next = RayComplex.from_value(a.value() + 1)
        diff = hurwitz_zeta_direct(s, a, ctx) \
            - hurwitz_zeta_direct(s, a_next, ctx)
        want = mp.power(a.value(), -s)
        return abs(diff - want) / abs(want)


# the entry points that read s, each through check_s_off_poles: highest 0
# for ZetaPoint.create, -1 for z_improved and 1 for hurwitz_zeta_direct and
# z_reference
S_ENTRIES = {
    "ZetaPoint.create": ZetaPoint.create,
    "z_improved": lambda s, a, ctx: z_improved(
        s, a, TruncationPlan((3,), (3,), 1), ctx),
    "hurwitz_zeta_direct": hurwitz_zeta_direct,
    "z_reference": z_reference,
}


@pytest.mark.parametrize("entry", sorted(S_ENTRIES))
@pytest.mark.parametrize("s", [
    mpc(mp.nan), mpc(mp.inf), mpc(-mp.inf), mpc(3, mp.inf), mpc(3, mp.nan),
], ids=["nan", "inf", "-inf", "3+inf_i", "3+nan_i"])
def test_non_finite_s_is_domain_error(entry, s, ctx_fast):
    # used to raise ValueError from mp.nint, return nan or 1.0, or pass
    # ZetaPoint.create and hang stokes_multiplier in mp.polylog
    with ctx_fast.working():
        a = RayComplex(mpf(6), mpf("0.45") * mp.pi)
    with pytest.raises(DomainError, match="s must be finite"):
        S_ENTRIES[entry](s, a, ctx_fast)


@pytest.mark.parametrize("entry", ["hurwitz_zeta_direct", "z_reference"])
@pytest.mark.parametrize("s", [1, 0, -1])
def test_references_refuse_the_poles(entry, s, ctx_fast):
    # one rule admits s for the references too: the pole of zeta(s, a) at
    # 1 and those of Gamma(s) at 0, -1, ...; nothing else is refused
    with ctx_fast.working():
        a = RayComplex(mpf(6), mpf("0.45") * mp.pi)
    with pytest.raises(DomainError, match=r"s must not be 1, 0, -1, \.\.\."):
        S_ENTRIES[entry](mpc(s), a, ctx_fast)


class TestHurwitzZetaDirect:
    @pytest.mark.parametrize("s,mod,argpi", [
        (mpc(3), 6, 0.45), (mpc(2, 0.5), 8, 0.52), (mpc("1.6"), 4, 0.38),
    ])
    def test_shift_identity(self, s, mod, argpi, ctx):
        with ctx.working(10):
            a = RayComplex(mpf(mod), mpf(str(argpi)) * mp.pi)
        assert _shift_residual(s, a, ctx) <= ctx.tol()

    def test_lower_halfplane_base(self, ctx):
        # the a' = 1 - a ray, at |a| = 8 also in the left half-plane
        for mod, left in [(6, False), (8, True)]:
            pt = _point(3, mod, 0.45, ctx)
            assert (pt.a_prime.value().real < 0) == left
            assert _shift_residual(pt.s, pt.a_prime, ctx) <= ctx.tol()

    @pytest.mark.parametrize("s", [10, 30, 60, 1000])
    def test_relative_accuracy_at_large_s(self, s, ctx):
        # the Euler-Maclaurin sum truncates relative to its largest
        # addend, read from float logs, and not at an absolute tolerance:
        # however far |a^-s| lies below 1 (955 digits at s = 1000), it
        # keeps the value's relative digits, at a head and tail whose
        # lengths do not grow with those digits
        with ctx.working(10):
            a = RayComplex(mpf(9), mpf("0.4") * mp.pi)
        start = time.perf_counter()
        got = hurwitz_zeta_direct(s, a, ctx)
        assert time.perf_counter() - start < 1
        with mp.workdps(200):
            want = mp.zeta(s, a.value())
            assert abs(got - want) <= mpf("1e-90") * abs(want)

    @given(ray=st.sampled_from(["a", "a'"]),
           mod=st.floats(min_value=1, max_value=50),
           arg_over_pi=st.floats(min_value=0.3, max_value=0.7),
           re_s=st.floats(min_value=-12, max_value=60),
           im_s=st.floats(min_value=-1e3, max_value=1e3))
    @example(ray="a'", mod=6.0, arg_over_pi=0.45, re_s=2.0, im_s=1e3)
    @example(ray="a", mod=45.5, arg_over_pi=0.49, re_s=3.3, im_s=1e3)
    @example(ray="a", mod=33.9, arg_over_pi=0.33, re_s=4.1, im_s=700.0)
    @example(ray="a'", mod=25.9, arg_over_pi=0.45, re_s=2.5, im_s=-500.0)
    @example(ray="a", mod=4.1, arg_over_pi=0.64, re_s=5.0, im_s=700.0)
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_matches_mpmath_at_twice_the_digits(self, ray, mod, arg_over_pi,
                                                re_s, im_s, ctx):
        # both rays over the pinned sweeps' scan of arg a, within a second,
        # on both sides of Re s = 1.1, off the poles the oracle refuses.
        # mp.zeta stops at an absolute tolerance, so the reference runs at
        # twice the digits of working(HEADROOM) plus the digits the value
        # lies below 1 (a value off in size fails either way).  The first
        # example took 5.6 s when the oracle ran mp.zeta itself, at the 740
        # digits that |a'^-s| lies below 1; the other four size their sums
        # at a head length M with |a + M| below |Im s|/(2 pi), where the
        # search for M starts (at 3.3 + 1000i, M = 11 and |w| = 47 against
        # 159): a head term outweighs the tail's lead there by far
        assume(im_s or re_s > 1 or re_s != int(re_s))
        s = mpc(re_s, im_s)
        pt = _point(s, mod, arg_over_pi, ctx)
        a = pt.a if ray == "a" else pt.a_prime
        start = time.perf_counter()
        got = hurwitz_zeta_direct(s, a, ctx)
        assert time.perf_counter() - start < 1
        below = max(0, -int(mp.log10(abs(got))))
        with mp.workdps(2 * (ctx.digits + ctx.guard + HEADROOM) + below):
            want = mp.zeta(s, a.value())
            assert abs(got - want) <= mpf("1e-88") * abs(want)

    @pytest.mark.parametrize("s, mod, ray, match", [
        (mpc(3), "1e6", "a'", "needs a head of M >= -Re a = 156434 terms"),
        (mpc(3, -mpf("1e30")), "9", "a", "needs more than 1000 head")],
        ids=["re_a_below_-1000", "im_s_-1e30"])
    def test_beyond_the_term_limit(self, s, mod, ray, match, ctx):
        # a head of at least -Re a = 1.6e5 terms, or a tail whose floor
        # needs |w| near |s|/(2 pi): raised before any power is taken, and
        # the message names which
        pt = _point(s, mod, 0.45, ctx)
        a = pt.a if ray == "a" else pt.a_prime
        with pytest.raises(DomainError, match=match):
            hurwitz_zeta_direct(s, a, ctx)

    @pytest.mark.parametrize("s, a", [
        (mpc(0.5, 3), ("0.3", "0.01")), (mpc(0.5, 3), ("0.7", "-0.01")),
        (mpc("0.9"), ("0.25", "0.1")), (mpc(1.05, 20), ("0.3", "0.01")),
        (mpc(-1.5, 0.5), ("0.3", "0.01")),
        ("1.00000000000000001", ("0.3", "0.01"))],
        ids=["0.5+3i", "0.5+3i-a'", "0.9", "1.05+20i", "-1.5+0.5i",
             "1+1e-17"])
    def test_sum_below_the_margin(self, s, a, ctx_fast):
        # the Euler-Maclaurin sum continues zeta(s, a) to Re s > 1 - 2J,
        # and the oracle admits it there, below the Re s > 1.1 it once
        # refused: against mp.zeta at twice the digits D of
        # working(HEADROOM), to 10 units of 10^-D (-1.5 + 0.5i takes the
        # second pass).  1 + 1e-17 rounds to 1 as a double, where the
        # sizing's math.log of |s - 1| raised an untyped ValueError
        s = ctx_fast.read(s)
        with mp.workdps(100):
            ray = RayComplex.from_value(mpc(*a))
        got = hurwitz_zeta_direct(s, ray, ctx_fast)
        digits = ctx_fast.digits + ctx_fast.guard + HEADROOM
        with mp.workdps(2 * digits):
            want = mp.zeta(s, ray.value())
            assert abs(got - want) <= mpf(10) ** (1 - digits) * abs(want)

    # (M, J) of the 27 Euler-Maclaurin sums of the seed-0 exactness grid,
    # in the grid's order
    GRID_SIZES = [
        (35, 96), (34, 99), (33, 95), (36, 95), (36, 95), (36, 91),
        (37, 94), (38, 94), (38, 105), (35, 90), (34, 90), (32, 99),
        (36, 89), (35, 103), (35, 94), (36, 106), (37, 100), (38, 92),
        (35, 89), (33, 99), (32, 91), (35, 106), (35, 95), (34, 104),
        (36, 103), (37, 94), (37, 100)]

    def test_one_pass_on_the_exactness_grid(self, ctx, monkeypatch):
        # HURWITZ_EXTRA carries every grid point in one pass: on the 27
        # points of the benchmark's exactness grid at seed 0 (acceptance
        # criterion 2's), each z_reference sums once, with 2 digits or more
        # to spare (3.3 at the least over seeds 0-10).  The sizes are
        # pinned too: a change of the sizing's search can move them
        # without moving one output bit
        passes, sizes = [], []
        euler_maclaurin, lengths = oracle._euler_maclaurin, oracle._lengths

        def recorded(s, a, ctx, scale):
            value, spare = euler_maclaurin(s, a, ctx, scale)
            passes.append((scale, spare))
            return value, spare

        def sized(*args):
            m, j, top = lengths(*args)
            sizes.append((m, j))
            return m, j, top

        monkeypatch.setattr(oracle, "_euler_maclaurin", recorded)
        monkeypatch.setattr(oracle, "_lengths", sized)
        wl = _bench_workloads()
        grid = wl.Evaluator(zetastokes, "exactness_grid")
        assert grid.ctx == ctx
        with ctx.working(10):
            for point in wl.points("exactness_grid", 0):
                z_reference(*grid._grid_point(point), ctx)
        assert len(passes) == 27
        assert all(scale is None for scale, _ in passes)
        assert min(spare for _, spare in passes) >= 2
        assert sizes == self.GRID_SIZES

    @pytest.mark.parametrize("im_s", [1000, 5000])
    def test_sizing_reads_only_the_factors_it_sums(self, im_s, ctx_fast):
        # on the a ray at |a| = 6, arg a = 0.45 pi the first head term
        # outweighs the rest by far, and the sum takes one tail term: with
        # fresh tables the sizing reads 2 of the owned c_j and the call
        # takes about 2 ms, where a scan of the c_j for the search's start
        # read 431 and 1,000.  hurwitz_tail_logs returns the whole kept list
        series_tables.cache_clear()
        s = ctx_fast.read(mpc(3, im_s))
        with ctx_fast.working(10):
            a = RayComplex(mpf(6), mpf("0.45") * mp.pi)
        start = time.perf_counter()
        hurwitz_zeta_direct(s, a, ctx_fast)
        assert time.perf_counter() - start < 0.05
        assert len(series_tables(s, ctx_fast).hurwitz_tail_logs(1)) <= 10

    def test_rejects_small_re_s(self, ctx):
        with ctx.working():
            a = RayComplex(mpf(6), mpf("0.5") * mp.pi)
        with pytest.raises(DomainError):
            hurwitz_zeta_direct(mpc(1), a, ctx)


class TestZReference:
    def test_pole_at_one(self, ctx):
        with ctx.working():
            a = RayComplex(mpf(6), mpf("0.5") * mp.pi)
        with pytest.raises((PoleError, DomainError)):
            z_reference(mpc(1), a, ctx)

    def test_algebraic_subtraction(self, ctx):
        # Z(s,a) strips the two leading algebraic terms: the result is
        # O(a^(-s-1)), far below zeta(s,a) ~ a^(1-s)/(s-1)
        with ctx.working(10):
            a = RayComplex(mpf(20), mpf("0.5") * mp.pi)
            z = z_reference(mpc(3), a, ctx)
            assert abs(z) < mpf(20) ** -4 * 10

    def test_counted_subtraction_keeps_its_bits(self, ctx):
        # at |a| = 20 the subtraction cancels about 3 digits, within the
        # headroom: the count moves no bit of Gamma(s) (zeta - a^-s/2
        # - a^(1-s)/(s-1)), each term as the oracle forms it
        s = mpc(3)
        with ctx.working(10):
            a = RayComplex(mpf(20), mpf("0.45") * mp.pi)
        got = z_reference(s, a, ctx)
        with ctx.working(HEADROOM):
            a_s = pow_ray(a, -s, ctx, extra=HEADROOM)
            want = series_tables(s, ctx).gamma * (
                hurwitz_zeta_direct(s, a, ctx)
                - (a_s / 2 + a_s * a.value() / (s - 1)))
        assert got._mpc_ == want._mpc_

    @pytest.mark.parametrize("s, mod, lost", [
        ("3", "1e25", r"50\.3"), ("1.00000000000000000001", "6", r"22\.6")],
        ids=["abs_a_1e25", "s_1+1e-20"])
    def test_cancellation_past_the_headroom_raises(self, s, mod, lost, ctx):
        # zeta(s, a) ~ a^(1-s)/(s-1) lies 2 log10|a| digits above Z(s, a)
        # / Gamma(s) at s = 3, and 1/|s - 1| above it near s = 1: the
        # subtraction's lost digits are counted, and past the headroom it
        # raises where a 60-digit run was off from a 120-digit one by
        # 3.3e-41 relative at |a| = 1e25 (the bound is 1e-50)
        with mp.workdps(80):
            a = RayComplex(mpf(mod), mpf("0.45") * mp.pi)
        with pytest.raises(ConvergenceError,
                           match=f"Z\\(s, a\\) .* cancels {lost} digits"):
            z_reference(s, a, ctx)


class TestPeriodicZeta:
    # |a| = 1 at the ends of the theta scan has |q| = 0.674; near the real
    # axis |q| = 0.996, where the defining sum converges slowly
    @pytest.mark.parametrize("mod,argpi", [
        (6, 0.45), (1, 0.02), (1, 0.98), (1, 0.0002)])
    def test_closed_form_s3(self, mod, argpi, ctx):
        # sum k^2 q^k = q(1+q)/(1-q)^3
        pt = _point(3, mod, argpi, ctx)
        with ctx.working(10):
            q = mp.exp(2 * mp.pi * mpc(0, 1) * pt.a.value())
            closed = q * (1 + q) / (1 - q) ** 3
            ours = periodic_zeta_direct(pt, ctx)
            assert abs(ours - closed) <= ctx.tol() * (1 + abs(closed))

    @pytest.mark.parametrize("argpi", [0.02, 0.98, 0.0002])
    @pytest.mark.parametrize("s", [mpc(2, 0.5), mpc("1.6"), mpc(2, 30)],
                             ids=["2+0.5i", "1.6", "2+30i"])
    def test_reflection_at_scan_edge(self, s, argpi, ctx):
        # at |a| = 1 and these angles rho > 1/3, so F is the reflection
        # through the two Hurwitz sums itself: it is checked against
        # mp.polylog at D + 10 digits, D those of working(HEADROOM), and
        # Ftilde against the two-Z combination
        pt = _point(s, 1, argpi, ctx)
        got = periodic_zeta_direct(pt, ctx)
        with mp.workdps(ctx.digits + ctx.guard + 2 * HEADROOM):
            q = mp.exp(2 * mp.pi * mpc(0, 1) * pt.a.value())
            want = mp.polylog(1 - pt.s, q)
            assert abs(got - want) <= ctx.tol() * abs(want)
        assert reflection_residuals(pt, ctx)[1] <= ctx.tol()

    @pytest.mark.parametrize("s", [mpc(2), mpc(0.5, 3), mpc(2, 30), mpc(3)],
                             ids=["2", "0.5+3i", "2+30i", "3"])
    @pytest.mark.parametrize("mod", [1, 4, 9])
    @pytest.mark.parametrize("argpi", ["0.02", "0.1", "0.5"])
    def test_matches_polylog_at_twice_the_digits(self, argpi, mod, s, ctx,
                                                 monkeypatch):
        # the owned q-series where rho = 2^max(Re s - 1, 0) |q| <= 1/3 and
        # the reflection beyond, each against mp.polylog at twice the digits
        # D of working(HEADROOM): within 10 units of 10^-D, about q's own
        # error at |a| = 9 (3.1 measured); the cases fall on both sides
        calls, real = [], oracle._reflection
        monkeypatch.setattr(oracle, "_reflection",
                            lambda *args: calls.append(1) or real(*args))
        pt = _point(s, mod, argpi, ctx)
        got = periodic_zeta_direct(pt, ctx)
        digits = ctx.digits + ctx.guard + HEADROOM
        with mp.workdps(2 * digits):
            q = mp.exp(2 * mp.pi * mpc(0, 1) * pt.a.value())
            want = mp.polylog(1 - pt.s, q)
            assert abs(got - want) <= mpf(10) ** (1 - digits) * abs(want)
            rho = 2 ** max(float(s.real) - 1, 0) * abs(q)
        assert len(calls) == (rho > mpf(1) / 3)

    @pytest.mark.parametrize("e", [60, 133])
    @pytest.mark.parametrize("im_a", ["0.1", "0.02"])
    def test_reflection_past_the_head_limit_raises_at_once(self, im_a, e):
        # rho = 4 |q| > 1/3 at a = 0.3 + i im_a, so F is the reflection,
        # whose Euler-Maclaurin sums need |w| near |Im s|/(2 pi): the run
        # at 30 digits and the one at 60 raise the sums' own DomainError,
        # at once
        s = mpc(3, mpf(2) ** e)
        with mp.workdps(100):
            a = RayComplex.from_value(mpc("0.3", im_a))
        for ctx in PrecisionContext(30), PrecisionContext(60):
            start = time.perf_counter()
            with pytest.raises(DomainError,
                               match="needs more than 1000 head terms"):
                periodic_zeta_direct(ZetaPoint.create(s, a, ctx), ctx)
            assert time.perf_counter() - start < 0.5

    def test_sweep_points_take_the_q_series(self, ctx, monkeypatch):
        # the ends of the fig1b sweep, with its pinned plan, and a point at
        # |a| = 1 near the real axis, where |q| = 0.674 and rho = 1.35 > 1/3
        def unreachable(*args):
            raise AssertionError("reflection reached")

        monkeypatch.setattr(oracle, "_reflection", unreachable)
        plan = TruncationPlan((25,), (24,), 1)
        for argpi in (0.3, 0.7):
            pt = _point(mpc(2, 0.5), 8, argpi, ctx)
            assert stokes_multiplier(1, pt, ctx, plan=plan).error is None
        with pytest.raises(AssertionError, match="reflection reached"):
            periodic_zeta_direct(_point(mpc(2, 0.5), 1, 0.02, ctx), ctx)

    def test_validate_points_take_the_q_series(self, ctx_fast, monkeypatch):
        # validate's reflection entries compare F with the reflection
        # through hurwitz_zeta_direct, so F must not be that reflection at
        # their points (acceptance criterion 3 checks its own points the
        # same way); a reached reflection fails the run, a ZetaError would
        # fail an entry
        def unreachable(*args):
            raise AssertionError("reflection reached")

        monkeypatch.setattr(oracle, "_reflection", unreachable)
        report = run_validation(ctx_fast)
        passed = {e.name for e in report.entries if e.passed}
        assert {"periodic-zeta reflection", "subtracted reflection"} <= passed

    def test_real_s_of_1e300_raises_past_the_float_range_at_once(
            self, ctx_fast):
        # the q-series' terms k^(Re s - 1) |q|^k peak near k = 2.7e298
        # here, so F is the reflection, which returns an F whose lost
        # digits pass the float range, and stokes_multiplier raises before
        # it reads them, at once
        pt = _point(mpf(1e300), 6, 0.45, ctx_fast)
        start = time.perf_counter()
        with pytest.raises(DomainError,
                           match=r"s = \(1\.0e\+300 \+ 0\.0j\), Im a = 5\.9"
                           r".* passes the float range"):
            stokes_multiplier(1, pt, ctx_fast)
        assert time.perf_counter() - start < 0.5

    # a = 0.3 + 0.01i has |q| = 0.939 and rho > 1/3 at every s
    NEAR_AXIS = "0.3", "0.01"

    def _near_axis(self, s, ctx, a=NEAR_AXIS):
        with mp.workdps(100):
            ray = RayComplex.from_value(mpc(*a))
        return ZetaPoint.create(s, ray, ctx)

    def test_near_the_axis_matches_the_direct_sum(self, ctx_fast):
        # the reflection against the direct sum at 150 digits, to 10 units
        # of 10^-D, D the digits of working(HEADROOM).  mp.polylog returned
        # 1.37e-82 for 1.92e-74 at s = 300 (its series stops at an absolute
        # tolerance) and was off by 1.1e-32 and 1.6e-43 at s = 30.5 and
        # 40 + i; a = 1500.3 + 0.01i needs the shift by a period (a' would
        # need 1500 head terms); 0.5 + 3i and -1.5 + 0.5i lie below the
        # Hurwitz oracle's Re s > 1.1; s = 3 + 100i, 200i and 1000i raised
        # DomainError, and 1000i once returned about 1e68
        digits = ctx_fast.digits + ctx_fast.guard + HEADROOM
        for s, a in [(mpc(300), ("0", "30")), (mpc("30.5"), ("0.3", "0.02")),
                     (mpc(40, 1), ("0.4", "0.1")),
                     (mpc(2, 0.5), ("1500.3", "0.01")),
                     (mpc(0.5, 3), self.NEAR_AXIS),
                     (mpc(-1.5, 0.5), self.NEAR_AXIS),
                     (mpc(3, 30), self.NEAR_AXIS),
                     (mpc(3, 100), self.NEAR_AXIS),
                     (mpc(3, 200), self.NEAR_AXIS),
                     (mpc(3, 1000), self.NEAR_AXIS)]:
            pt = self._near_axis(s, ctx_fast, a)
            got = periodic_zeta_direct(pt, ctx_fast)
            with mp.workdps(150):
                want = _direct_sum(pt)
                assert abs(got - want) <= mpf(10) ** (1 - digits) \
                    * abs(want), (s, a)

    def test_near_the_axis_at_s_1(self, ctx_fast):
        # both zeta values have a pole at s = 1: exactly there F is
        # q/(1-q), and at s = 1 + 1e-8 the reflection cancels 7.4 digits,
        # within the headroom, and is right to 10^-(digits + guard)
        pt = self._near_axis(mpc(1), ctx_fast)
        with ctx_fast.working(HEADROOM):
            q = pt.a.q()
            assert periodic_zeta_direct(pt, ctx_fast) == q / (1 - q)
        pt = self._near_axis(1 + mpf("1e-8"), ctx_fast)
        got = periodic_zeta_direct(pt, ctx_fast)
        with mp.workdps(80):
            want = _direct_sum(pt)
            assert abs(got - want) <= mpf(10) ** -(
                ctx_fast.digits + ctx_fast.guard) * abs(want)

    def test_near_the_axis_past_the_headroom_raises(self, ctx_fast):
        # at s = 1 + 1e-12 the two weighted zeta values cancel 11.4 digits,
        # more than the headroom, and at s = 1e-15, where Gamma(s) has a
        # pole and the bracket vanishes, 14.4.  At 1 + 1e-17, which rounds
        # to 1 as a double, they cancel 16.4, a typed error where the
        # sums' sizing raised an untyped ValueError
        for s, lost in [(1 + mpf("1e-12"), r"11\.4"),
                        (mpf("1e-15"), r"14\.4"),
                        (ctx_fast.read("1.00000000000000001"), r"16\.4")]:
            pt = self._near_axis(s, ctx_fast)
            with pytest.raises(ConvergenceError, match=f"cancels {lost} dig"):
                periodic_zeta_direct(pt, ctx_fast)

    def test_near_the_axis_at_large_im_s_raises_at_once(self, ctx_fast):
        # Im s = 2^20 is past the Euler-Maclaurin sums' sizing (about 5,500
        # at a = 0.3 + 0.1i); this call once did not finish in 300 s
        pt = self._near_axis(mpc(3, 2 ** 20), ctx_fast)
        start = time.perf_counter()
        with pytest.raises(DomainError, match="more than 1000 head terms"):
            periodic_zeta_direct(pt, ctx_fast)
        assert time.perf_counter() - start < 0.5

    def test_rejects_lower_halfplane_a(self, ctx):
        # create() admits only arg a in (0, pi); a point built around it
        # still meets the oracle's own Im(a) > 0 check
        with ctx.working(10):
            a = RayComplex(mpf(6), mpf("-0.5") * mp.pi)
            pt = ZetaPoint(s=mpc(3), a=a,
                           a_prime=RayComplex.from_value(1 - a.value()))
        with pytest.raises(DivergenceError):
            periodic_zeta_direct(pt, ctx)

    def test_closed_form_s2(self, ctx):
        # sum k q^k = q/(1-q)^2
        pt = _point(2, 4, 0.52, ctx)
        with ctx.working(10):
            q = mp.exp(2 * mp.pi * mpc(0, 1) * pt.a.value())
            closed = q / (1 - q) ** 2
            ours = periodic_zeta_direct(pt, ctx)
            assert abs(ours - closed) <= ctx.tol() * (1 + abs(closed))

    def test_exponential_smallness(self, ctx):
        pt = _point(3, 6, 0.5, ctx)
        with ctx.working(10):
            f = periodic_zeta_direct(pt, ctx)
            assert abs(f) < mp.exp(-2 * mp.pi * 6) * 100


class TestFTilde:
    def test_two_z_combination(self, ctx):
        # Ftilde = (2 pi)^(-s) {e^(i pi s/2) Z(s,a) + e^(-i pi s/2) Z(s,a')}
        for s, mod, argpi in [(3, 6, 0.45), (2.2, 5, 0.55)]:
            pt = _point(s, mod, argpi, ctx)
            with ctx.working(10):
                half_is = mp.expjpi(pt.s / 2)
                combo = (2 * mp.pi) ** (-pt.s) * (
                    half_is * z_reference(pt.s, pt.a, ctx)
                    + z_reference(pt.s, pt.a_prime, ctx) / half_is)
                ft = f_tilde_reference(pt, ctx)
                assert abs(ft - combo) <= ctx.tol() * (1 + abs(ft))

    def test_algebraically_small(self, ctx):
        # Ftilde decays algebraically in |a| (not exponentially): it is far
        # larger than the periodic zeta function it is built from
        pt = _point(3, 6, 0.45, ctx)
        with ctx.working(10):
            ft = f_tilde_reference(pt, ctx)
            f = periodic_zeta_direct(pt, ctx)
            assert abs(ft) > 1e8 * abs(f)
            assert abs(ft) < mpf("1e-3")
