import time

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, mpc

from zetastokes.errors import DivergenceError, DomainError, PoleError
from zetastokes.expansion import TruncationPlan, z_improved
from zetastokes.hp import HEADROOM, PrecisionContext, RayComplex
from zetastokes.oracle import (Q_TERM_LIMIT, ZetaPoint, f_tilde_reference,
                               hurwitz_zeta_direct, periodic_zeta_direct,
                               z_reference)
from zetastokes.stokes import stokes_multiplier
from zetastokes.validate import reflection_residuals


def _point(s, modulus, arg_over_pi, ctx):
    with ctx.working(10):
        a = RayComplex(mpf(modulus), mpf(str(arg_over_pi)) * mp.pi)
    return ZetaPoint.create(mpc(s), a, ctx)


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


# the entry points that read s: ZetaPoint.create and z_improved through
# check_s_off_poles, hurwitz_zeta_direct and z_reference through _check_re_s
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
           re_s=st.floats(min_value=1.1, max_value=60, exclude_min=True),
           im_s=st.floats(min_value=-1e3, max_value=1e3))
    @example(ray="a'", mod=6.0, arg_over_pi=0.45, re_s=2.0, im_s=1e3)
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_matches_mpmath_at_twice_the_digits(self, ray, mod, arg_over_pi,
                                                re_s, im_s, ctx):
        # both rays over the pinned sweeps' scan of arg a, within a second.
        # mp.zeta stops at an absolute tolerance, so the reference runs at
        # twice the digits of working(HEADROOM) plus the digits the value
        # lies below 1 (a value off in size fails either way).  The example
        # took 5.6 s when the oracle ran mp.zeta itself, at the 740 digits
        # that |a'^-s| lies below 1
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
        # F against the two Hurwitz values, a reference that reads no
        # polylog; at |a| = 1 and these angles rho > 1/3, so F itself is
        # polylog's, which at s = 2 takes the closed form q/(1-q)^2
        pt = _point(s, 1, argpi, ctx)
        res_f, res_ft = reflection_residuals(pt, ctx)
        assert res_f <= ctx.tol()
        assert res_ft <= ctx.tol()

    @pytest.mark.parametrize("s", [mpc(2), mpc(0.5, 3), mpc(2, 30), mpc(3)],
                             ids=["2", "0.5+3i", "2+30i", "3"])
    @pytest.mark.parametrize("mod", [1, 4, 9])
    @pytest.mark.parametrize("argpi", ["0.02", "0.1", "0.5"])
    def test_matches_polylog_at_twice_the_digits(self, argpi, mod, s, ctx,
                                                 monkeypatch):
        # the owned q-series where rho = 2^max(Re s - 1, 0) |q| <= 1/3 and
        # mp.polylog beyond, each against mp.polylog at twice the digits
        # D of working(HEADROOM): within 10 units of 10^-D, about q's own
        # error at |a| = 9 (3.1 measured); the cases fall on both sides
        calls, real = [], mp.polylog
        monkeypatch.setattr(mp, "polylog",
                            lambda *args: calls.append(1) or real(*args))
        pt = _point(s, mod, argpi, ctx)
        got = periodic_zeta_direct(pt, ctx)
        digits = ctx.digits + ctx.guard + HEADROOM
        with mp.workdps(2 * digits):
            q = mp.exp(2 * mp.pi * mpc(0, 1) * pt.a.value())
            want = real(1 - pt.s, q)
            assert abs(got - want) <= mpf(10) ** (1 - digits) * abs(want)
            rho = 2 ** max(float(s.real) - 1, 0) * abs(q)
        assert len(calls) == (rho > mpf(1) / 3)

    @pytest.mark.parametrize("e", [60, 133])
    @pytest.mark.parametrize("im_a", ["0.1", "0.02"])
    def test_polylog_at_large_im_s_matches_sixty_digits(self, im_a, e):
        # rho = 4 |q| > 1/3 at a = 0.3 + i im_a, so F is mp.polylog's,
        # whose terms k^(s-1) q^k lose log10(|Im s| ln k) digits to their
        # phases without the phase rule (8.8e-50 off at im_a = 0.1 and
        # 2^60, 1.4e-27 at 2^133)
        s = mpc(3, mpf(2) ** e)
        with mp.workdps(100):
            a = RayComplex.from_value(mpc("0.3", im_a))
        coarse, fine = PrecisionContext(30), PrecisionContext(60)
        got = periodic_zeta_direct(ZetaPoint.create(s, a, coarse), coarse)
        want = periodic_zeta_direct(ZetaPoint.create(s, a, fine), fine)
        digits = coarse.digits + coarse.guard + HEADROOM
        with fine.working():
            assert abs(got - want) <= mpf(10) ** (1 - digits) * abs(want)

    def test_sweep_points_take_no_polylog(self, ctx, monkeypatch):
        # the ends of the fig1b sweep, with its pinned plan, and a point at
        # |a| = 1 near the real axis, where rho = 0.67 > 1/3
        def unreachable(*args):
            raise AssertionError("mp.polylog reached")

        monkeypatch.setattr(mp, "polylog", unreachable)
        plan = TruncationPlan((25,), (24,), 1)
        for argpi in (0.3, 0.7):
            pt = _point(mpc(2, 0.5), 8, argpi, ctx)
            assert stokes_multiplier(1, pt, ctx, plan=plan).error is None
        with pytest.raises(AssertionError, match="polylog reached"):
            periodic_zeta_direct(_point(mpc(2, 0.5), 1, 0.02, ctx), ctx)

    def test_real_s_of_1e300_stops_before_polylog(self, ctx_fast,
                                                   monkeypatch):
        # the q-series' terms k^(Re s - 1) |q|^k peak near k = 2.7e298
        # here; the call used to hang inside mp.polylog
        def unreachable(*args):
            raise AssertionError("mp.polylog reached")

        monkeypatch.setattr(mp, "polylog", unreachable)
        pt = _point(mpf(1e300), 6, 0.45, ctx_fast)
        with pytest.raises(DomainError,
                           match=r"s = \(1\.0e\+300 \+ 0\.0j\), Im a = 5\.9"):
            stokes_multiplier(1, pt, ctx_fast)

    @pytest.mark.parametrize("peak, reached", [(0.99, True), (1.01, False)])
    def test_term_limit(self, peak, reached, ctx_fast, monkeypatch):
        # Re s placed so that the largest term lies at peak * Q_TERM_LIMIT
        monkeypatch.setattr(mp, "polylog", lambda *args: mpc(0))
        with ctx_fast.working(10):
            a = RayComplex(mpf(6), mpf("0.45") * mp.pi)
            s = 1 + peak * Q_TERM_LIMIT * 2 * mp.pi * a.value().imag
        pt = ZetaPoint.create(s, a, ctx_fast)
        if reached:
            assert periodic_zeta_direct(pt, ctx_fast) == 0
        else:
            with pytest.raises(DomainError, match="peaks beyond term"):
                periodic_zeta_direct(pt, ctx_fast)

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
