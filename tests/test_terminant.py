import importlib
import json
import math
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, mpc
from mpmath.libmp import dps_to_prec, from_man_exp, to_fixed

import zetastokes
from test_expansion import _bench_workloads
from zetastokes.errors import (ConvergenceError, DomainError,
                               IllConditionedError, PoleError)
from zetastokes.expansion import TruncationPlan, optimal_truncation, z_improved
from zetastokes.hp import HEADROOM, PrecisionContext, RayComplex, pow_ray
from zetastokes.terminant import (c_of_phi, terminant,
                                  terminant_asymptotic, upper_gamma)

# the module, which the package's ``terminant`` function shadows
terminant_module = importlib.import_module("zetastokes.terminant")
CROSSOVER = terminant_module.CF_MIN_MODULUS


def _gammainc_on_ray(alpha, mod, arg):
    """Gamma(alpha, z) on the ray of argument arg, from mp.gammainc at the
    principal argument and m turns: e^(2 pi i m alpha) G + (1 - e^(2 pi i m
    alpha)) Gamma(alpha) (DLMF 8.2.10), at integer order its limit."""
    turns = round(float(arg) / (2 * math.pi))
    principal = mp.gammainc(alpha, mod * mp.expj(arg - 2 * mp.pi * turns))
    if alpha.imag == 0 and alpha.real == int(alpha.real):
        n = -int(alpha.real)
        if n < 0:
            return principal
        return principal \
            - 2 * mp.pi * mpc(0, 1) * turns * (-1) ** n / mp.factorial(n)
    phase = mp.expj(2 * mp.pi * turns * alpha)
    return phase * principal + (1 - phase) * mp.gamma(alpha)


GAMMAINC_DATA = Path(__file__).resolve().parent / "data" / "gammainc.json"


# mp.gammainc(alpha, z) for the examples of
# TestContinuedFraction::test_values_match_gammainc, keyed on the bits of
# (precision, alpha, z), each made by the same call at the same precision;
# ``python tests/test_terminant.py`` (with ``src`` on the path) rewrites
# the file
_GAMMAINC = {key: mp.make_mpc(tuple(tuple(part) for part in value))
             for key, value in json.loads(GAMMAINC_DATA.read_text()).items()}


def _stored_gammainc(alpha, zval):
    """mp.gammainc(alpha, z) at the current precision: the stored value,
    bit for bit, or one computed live (and kept) for an input not stored."""
    key = repr((mp.prec, alpha._mpc_, zval._mpc_))
    if key not in _GAMMAINC:
        _GAMMAINC[key] = mp.gammainc(alpha, zval)
    return _GAMMAINC[key]


def _assert_matches_oracle(ours, reference, digits):
    """|ours - ref| <= 10^-digits |ref| with ref = reference(), an mpmath
    oracle, at the current precision.  mp.gammainc itself can miss at large
    negative order near arg z = +-pi/2 (by 7e-13 at 100 digits for
    alpha = -743.66, |z| = 261.4), so a miss is judged again against
    reference() at twice the precision, with the same bound."""
    bound = mpf(10) ** -digits
    ref = reference()
    if abs(ours - ref) > bound * abs(ref):
        with mp.workdps(2 * mp.dps):
            ref = reference()
    assert abs(ours - ref) <= bound * abs(ref)


def _fixed_series_reference(alpha, zval, n, dps, wp, m_floor):
    """``_fixed_series`` in its general form, kept as the reference for
    its ints: every addend is divided through conj(alpha + m) and
    |alpha + m|^2, and the stop test multiplies by tol2."""
    zr, zi = to_fixed(zval.real._mpf_, wp), to_fixed(zval.imag._mpf_, wp)
    ar, ai = to_fixed(alpha.real._mpf_, wp), to_fixed(alpha.imag._mpf_, wp)
    tol2 = 10 ** (2 * (dps - 5))
    tr, ti = 1 << wp, 0
    sr = si = peak2 = 0
    for m in range(terminant_module.SERIES_TERM_CAP):
        if m:
            tr, ti = (ti * zi - tr * zr >> wp) // m, \
                (-tr * zi - ti * zr >> wp) // m
        if m == n:
            continue
        dr = ar + (m << wp)
        den = dr * dr + ai * ai
        cr = ((tr * dr + ti * ai) << wp) // den
        ci = ((ti * dr - tr * ai) << wp) // den
        sr += cr
        si += ci
        c2 = cr * cr + ci * ci
        if c2 > peak2:
            peak2 = c2
        elif m > m_floor and c2 * tol2 < peak2:
            return mp.make_mpc((from_man_exp(sr, -wp),
                                from_man_exp(si, -wp))), peak2
    raise ConvergenceError("reference series did not converge")


def _bits(re, im):
    return max(abs(re), abs(im)).bit_length()


def _fixed_cf_reference(alpha, zval, wp, stop_bits):
    """``_fixed_cf`` in its general form, kept as the reference for its
    ints: every step multiplies the full b_n and a_n in four products each
    and takes all four bit lengths afresh.  The float log2 |a_(n+1)| is
    the kernel's: of the int n (n - k) at an integer order k.  Returns the
    value, log2 of the final difference and the number of shifts."""
    zr, zi = to_fixed(zval.real._mpf_, wp), to_fixed(zval.imag._mpf_, wp)
    ar, ai = to_fixed(alpha.real._mpf_, wp), to_fixed(alpha.imag._mpf_, wp)
    fr, fi = float(alpha.real), float(alpha.imag)
    one, two = 1 << wp, 2 << wp
    par = pai = cai = pbi = 0
    car = pbr = one
    br, bi = zr + one - ar, zi - ai
    cbr, cbi = br, bi
    logdet, sa, sb, shifts = 2.0 * wp, 0, 0, 0
    low, high = wp, wp + 64
    for n in range(1, terminant_module.CF_TERM_CAP):
        anr, ani = -n * ((n << wp) - ar), n * ai
        br += two
        par, pai, car, cai = car, cai, \
            (br * car - bi * cai + anr * par - ani * pai) >> wp, \
            (br * cai + bi * car + anr * pai + ani * par) >> wp
        pbr, pbi, cbr, cbi = cbr, cbi, \
            (br * cbr - bi * cbi + anr * pbr - ani * pbi) >> wp, \
            (br * cbi + bi * cbr + anr * pbi + ani * pbr) >> wp
        if fi == 0 and fr == int(fr):
            logdet += math.log2(n * (n - int(fr)))
        else:
            logdet += math.log2(n) + math.log2(math.hypot(n - fr, fi))
        la, lb = _bits(car, cai), _bits(pbr, pbi)
        if logdet - la - lb < -stop_bits:
            break
        e = min(la, _bits(par, pai)) - low
        if e > high - low:
            par, pai, car, cai = par >> e, pai >> e, car >> e, cai >> e
            logdet, sa, shifts = logdet - e, sa + e, shifts + 1
        e = min(lb, _bits(cbr, cbi)) - low
        if e > high - low:
            pbr, pbi, cbr, cbi = pbr >> e, pbi >> e, cbr >> e, cbi >> e
            logdet, sb, shifts = logdet - e, sb + e, shifts + 1
    else:
        raise ConvergenceError("reference fraction did not converge")
    cross = (car * pbr - cai * pbi, car * pbi + cai * pbr)
    diff = (cross[0] - par * cbr + pai * cbi, cross[1] - par * cbi - pai * cbr)
    value = mp.make_mpc((from_man_exp(car, sa - sb),
                         from_man_exp(cai, sa - sb))) \
        / mp.make_mpc((from_man_exp(cbr, 0), from_man_exp(cbi, 0)))
    return value, _bits(*diff) - _bits(*cross) + 2, shifts


def _order(kind, re, frac, im):
    """An order of the given kind near re: the integer round(re), a real
    order off it by frac, or a complex one.  A float frac is a short binary
    fraction; the decimal kinds read it as a decimal string at the current
    precision instead, so the order carries about as many fractional bits
    as the precision allows."""
    n = round(re)
    dec = mpf(repr(frac))
    return {"integer": mpc(n), "real": mpc(n + frac),
            "complex": mpc(n + frac, im), "decimal real": mpc(n + dec),
            "decimal complex": mpc(n + dec, im)}[kind]


class TestQueryValidation:
    """Each terminant input is checked once: the ray when it is built, the
    order by upper_gamma, |arg z| by terminant."""

    def test_rejects_zero_modulus(self):
        with pytest.raises(DomainError):
            RayComplex(mpf(0), mpf(0))

    def test_rejects_excessive_argument(self, ctx_fast):
        with pytest.raises(DomainError, match="arg z"):
            terminant(mpc(3), RayComplex(mpf(1), mpf(7)), ctx_fast)

    @pytest.mark.parametrize("nu,mod,arg", [
        ("nan", 1, 0), (3, "inf", 0), (3, 1, "nan")])
    def test_rejects_non_finite(self, nu, mod, arg, ctx_fast):
        with pytest.raises(DomainError):
            terminant(mpc(nu), RayComplex(mpf(mod), mpf(arg)), ctx_fast)

    def test_accepts_two_turns(self, ctx_fast):
        terminant(mpc(3), RayComplex(mpf(1), 2 * mp.pi), ctx_fast)


class TestUpperGamma:
    @pytest.mark.parametrize("alpha,mod,arg", [
        (mpc("2.5"), 3, 0.4), (mpc("0.3", "0.7"), 8, -2.0),
        (mpc("-1.5"), 5, 2.5),
    ])
    def test_generic_order_matches_mpmath(self, alpha, mod, arg, ctx):
        with ctx.working(30):
            z = RayComplex(mpf(mod), mpf(str(arg)))
            ours = upper_gamma(alpha, z, ctx)
            ref = mp.gammainc(alpha, z.value())
            assert abs(ours - ref) <= ctx.tol() * (1 + abs(ref))

    def test_positive_integer_order(self, ctx):
        with ctx.working(10):
            z = RayComplex(mpf(2), mpf("0.3"))
            # Gamma(1, z) = e^(-z)
            assert abs(upper_gamma(1, z, ctx) - mp.exp(-z.value())) \
                < ctx.tol()
            # Gamma(3, z) = e^(-z)(z^2 + 2z + 2)
            zv = z.value()
            ref = mp.exp(-zv) * (zv ** 2 + 2 * zv + 2)
            assert abs(upper_gamma(3, z, ctx) - ref) <= ctx.tol() * abs(ref)

    @pytest.mark.parametrize("alpha", [
        mpc("nan"), mpc("inf"), mpc(2, "nan")], ids=["nan", "inf", "2+nanj"])
    def test_rejects_non_finite_order(self, alpha, ctx_fast):
        # used to raise a bare ValueError (nan), OverflowError (inf) or to
        # return nan + nanj (2 + nan i)
        with pytest.raises(DomainError, match="finite order"):
            upper_gamma(alpha, RayComplex(mpf(3), mpf("0.4")), ctx_fast)

    @pytest.mark.parametrize("alpha,mod", [
        (mpc("1e400"), 3), (mpc(2, "1e400"), 3), (mpc(3), "1e400")],
        ids=["order", "imaginary-order", "modulus"])
    def test_rejects_beyond_double_range(self, alpha, mod, ctx_fast):
        # used to raise OverflowError (order 1e400, |z| = 1e400) or to
        # return an unchecked 1.5e-1737177927... (order 2 + 1e400 i)
        z = RayComplex(mpf(mod), mpf("0.4"))
        with pytest.raises(DomainError, match="double range"):
            upper_gamma(alpha, z, ctx_fast)

    def test_terminant_rejects_modulus_beyond_double_range(self, ctx_fast):
        with pytest.raises(DomainError, match="double range"):
            terminant(3, RayComplex(mpf("1e400"), mpf("0.4")), ctx_fast)

    def test_zero_order_is_e1(self, ctx):
        with ctx.working(10):
            z = RayComplex(mpf(1), mpf(0))
            assert abs(upper_gamma(0, z, ctx) - mp.e1(1)) < ctx.tol()

    def test_negative_integer_order_matches_mpmath(self, ctx):
        with ctx.working(30):
            # the second input is pipeline-sized: order 1 - nu at nu = 38,
            # |z| = 2 pi k |a| for k|a| = 6, near the Stokes line
            for alpha, mod, arg in ((-3, mpf(4), mpf("0.7")),
                                    (-37, 12 * mp.pi, mpf("0.97") * mp.pi)):
                z = RayComplex(mod, arg)
                ours = upper_gamma(alpha, z, ctx)
                ref = mp.gammainc(alpha, z.value())
                assert abs(ours - ref) <= ctx.tol() * abs(ref)

    @pytest.mark.parametrize("k", [1, 3, 6])
    @pytest.mark.parametrize("arg_over_pi", ["0.95", "-0.05"])
    def test_generic_order_at_pipeline_size(self, k, arg_over_pi, ctx):
        # the remainder order 1 - (2N + s) at least-term N, on the terminant
        # modulus 2 pi k |a| = 57, 170, 339; -0.05 pi is the Re z > 0 ray
        # where the series cancels the most.  Both args are principal, so
        # mp.gammainc is the oracle.
        s, abs_a = mpc(2, 0.5), 9
        n_opt = optimal_truncation(k, s, RayComplex(mpf(abs_a), mp.pi / 2),
                                   ctx)
        alpha = 1 - (2 * n_opt + s)
        with mp.workdps(2 * (ctx.digits + ctx.guard)):
            z = RayComplex(2 * mp.pi * k * abs_a, mpf(arg_over_pi) * mp.pi)
            ours = upper_gamma(alpha, z, ctx)
            _assert_matches_oracle(
                ours, lambda: mp.gammainc(alpha, z.value()),
                ctx.digits + ctx.guard - 10)

    @pytest.mark.parametrize("n", [37, 73])
    @pytest.mark.parametrize("k", [6, 12])
    @pytest.mark.parametrize("arg_over_pi", ["-0.03", "0.97"])
    def test_integer_order_recurrence(self, n, k, arg_over_pi, ctx):
        # Gamma(1-n, z) = -n Gamma(-n, z) + z^(-n) e^(-z) at pipeline size,
        # |z| = 2 pi k = 12 pi, 24 pi; mp.gammainc is far too slow at
        # integer order to serve as the oracle here
        with mp.workdps(2 * (ctx.digits + ctx.guard)):
            z = RayComplex(2 * mp.pi * k, mpf(arg_over_pi) * mp.pi)
            lhs = upper_gamma(1 - n, z, ctx)
            rhs = -n * upper_gamma(-n, z, ctx) \
                + pow_ray(z, -n, ctx, extra=ctx.digits) * mp.exp(-z.value())
            assert abs(lhs - rhs) <= \
                mpf(10) ** -(ctx.digits + ctx.guard - 10) * abs(lhs)

    def test_order_past_the_float_mantissa_is_classified_exactly(
            self, ctx_fast):
        # -(2^53 + 1) rounds to the even float -2^53, so a float nearest
        # integer would call it a non-integer order one unit from it, and
        # Gamma(alpha) raises at its pole.  Read exactly, it is an integer
        # order, and DLMF 8.8.2, Gamma(alpha+1, z) = alpha Gamma(alpha, z)
        # + z^alpha e^(-z), holds.  The two terms on the right are each
        # 1.5e15 times the left, so they are combined at 100 digits, and
        # arg z is the float 0.3, so that alpha arg z is exact
        ctx = ctx_fast
        alpha = -(2 ** 53 + 1)
        with mp.workdps(2 * (ctx.digits + ctx.guard)):
            z = RayComplex(mpf(6), mpf(0.3))
            lhs = upper_gamma(alpha + 1, z, ctx)
            rhs = alpha * upper_gamma(alpha, z, ctx) \
                + pow_ray(z, alpha, ctx, extra=ctx.digits) \
                * mp.exp(-z.value())
            assert abs(lhs - rhs) <= mpf("1e-40") * abs(lhs)

    def test_near_a_huge_integer_order_raises(self, ctx_fast):
        # 1e-40 from -(2^60 + 1), where the float nearest integer is -2^60
        # and the offset would look like 1; built at 100 digits, as 50 would
        # round it onto the integer
        with mp.workdps(2 * (ctx_fast.digits + ctx_fast.guard)):
            alpha = mpf(-(2 ** 60 + 1)) - mpf(10) ** -40
            with pytest.raises(IllConditionedError):
                upper_gamma(alpha, RayComplex(mpf(6), mpf("0.3")), ctx_fast)

    @pytest.mark.parametrize("nu", [10 ** 16 + 1, 10 ** 30, 2 ** 60])
    def test_terminant_at_a_huge_integer_order(self, nu, ctx_fast):
        # 1 - nu is an integer order beyond a float's mantissa: no untyped
        # pole error from Gamma(alpha), and a finite value
        assert mp.isfinite(terminant(nu, RayComplex(mpf(6), mpf("1e-20")),
                                     ctx_fast))

    def test_terminant_at_a_huge_pole_of_its_prefactor(self, ctx_fast):
        # nu = -(2^53 + 1) is a pole of Gamma(nu), which a float nearest
        # integer (-2^53) would miss by one unit, leaving mp.gamma to raise
        # an untyped ValueError
        with pytest.raises(PoleError, match="-9007199254740993"):
            terminant(-(2 ** 53 + 1), RayComplex(mpf(6), mpf("0.3")),
                      ctx_fast)

    @pytest.mark.parametrize("n", [0, 3, 37])
    @pytest.mark.parametrize("turns", [-1, 1])
    def test_integer_order_monodromy(self, n, turns, ctx):
        # only the log z of the finite limit at alpha = -n is multivalued:
        # Gamma(-n, z e^(2 pi i m)) - Gamma(-n, z) = -2 pi i m (-1)^n / n!
        with ctx.working(30):
            mod, arg = mpf(6), mpf("1.1")
            moved = upper_gamma(-n, RayComplex(mod, arg + 2 * turns * mp.pi),
                                ctx)
            principal = upper_gamma(-n, RayComplex(mod, arg), ctx)
            expected = -2 * mp.pi * mpc(0, 1) * turns * (-1) ** n \
                / mp.factorial(n)
            assert abs(moved - principal - expected) \
                <= ctx.tol() * abs(expected)

    def test_off_principal_branch_continuation(self, ctx):
        # Gamma(alpha, z) off the principal sheet differs from the mpmath
        # principal value by the monodromy of the convergent series branch
        with ctx.working(30):
            alpha = mpc("0.5")
            mod = mpf(3)
            up = upper_gamma(alpha, RayComplex(mod, mpf("0.1") + 2 * mp.pi),
                             ctx)
            principal = upper_gamma(alpha, RayComplex(mod, mpf("0.1")), ctx)
            assert abs(up - principal) > mpf("1e-3")

    def test_near_integer_order_raises(self, ctx):
        # construct the perturbed order at working precision: at the
        # ambient 15 digits, 2 + 1e-40 would round to exactly 2
        with ctx.working():
            alpha = mpc(2) + mpf(10) ** -40
            with pytest.raises(IllConditionedError):
                upper_gamma(alpha, RayComplex(mpf(3), mpf(0)), ctx)

    @pytest.mark.parametrize("arg_over_pi", ["0.02", "-0.3"])
    def test_near_integer_order_keeps_accuracy(self, arg_over_pi, ctx):
        # just outside the 10^(-digits/2) band the series meets
        # alpha + m = 10^-29 at m = 60 > e|z|, where the term is below 1;
        # the fixed-point sum needs the bits of 1/|alpha + m| there (with
        # the 40 guard bits alone the -0.3 pi value is off by 6e-58).
        # Gamma(alpha) cancels the near-pole addend, so the bound is
        # 10^-digits, not the inflated one.
        with mp.workdps(2 * (ctx.digits + ctx.guard)):
            alpha = mpc(-60) + mpf(10) ** -29
            z = RayComplex(mpf("18.8"), mpf(arg_over_pi) * mp.pi)
            ours = upper_gamma(alpha, z, ctx)
            ref = mp.gammainc(alpha, z.value())
            assert abs(ours - ref) <= mpf(10) ** -ctx.digits * abs(ref)


class TestPrecisionCheck:
    """Both methods of upper_gamma hand their value and the digits their
    after-the-fact check left spare to ``_checked``, which raises
    IllConditionedError when the spare is negative: the series when it lost
    more digits than the inflation it carried, the continued fraction when
    its final convergent difference exceeds its budget."""

    @pytest.mark.parametrize("arg_over_pi,method", [
        ("0.3", "continued fraction"), ("0.7", "series")])
    def test_both_methods_reach_the_one_check(self, ctx_fast, monkeypatch,
                                              arg_over_pi, method):
        seen = []
        checked = terminant_module._checked

        def spy(value, spare, name, alpha, z):
            seen.append((name, spare))
            return checked(value, spare, name, alpha, z)

        monkeypatch.setattr(terminant_module, "_checked", spy)
        with ctx_fast.working(10):
            z = RayComplex(mpf(40), mpf(arg_over_pi) * mp.pi)
        upper_gamma(mpc(-40), z, ctx_fast)
        assert len(seen) == 1 and seen[0][0] == method and seen[0][1] >= 0

    def test_too_little_inflation_raises(self, ctx, monkeypatch):
        # a pipeline-sized order at |z| = 2 pi 18 just past arg z = pi/2,
        # where the series still serves and loses about 46 digits: 20
        # fewer than the rule gives are too few
        rule = terminant_module._series_inflation
        monkeypatch.setattr(terminant_module, "_series_inflation",
                            lambda z: rule(z) - 20)
        with ctx.working(10):
            z = RayComplex(mpf("113.1"), mpf("0.52") * mp.pi)
            with pytest.raises(IllConditionedError, match="series"):
                upper_gamma(mpc(-111, -0.5), z, ctx)

    def test_too_loose_stop_rule_raises(self, ctx, monkeypatch):
        # the continued fraction's own negative control: stopping 15
        # digits early leaves a convergent difference above the budget
        cf = terminant_module._fixed_cf
        monkeypatch.setattr(terminant_module, "_fixed_cf",
                            lambda alpha, z, wp, stop: cf(alpha, z, wp,
                                                          stop - 50))
        with ctx.working(10):
            z = RayComplex(mpf("113.1"), mpf("-0.05") * mp.pi)
            with pytest.raises(IllConditionedError,
                               match="continued fraction"):
                upper_gamma(mpc(-111, -0.5), z, ctx)

    @given(mod=st.floats(min_value=1, max_value=250),
           arg=st.floats(min_value=-2 * math.pi, max_value=2 * math.pi),
           kind=st.sampled_from(["generic", "integer", "near-integer"]),
           ratio=st.floats(min_value=0.5, max_value=1.5),
           sign=st.sampled_from([-1, 1]),
           im=st.floats(min_value=-3, max_value=3),
           gap=st.integers(min_value=1, max_value=14))
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_values_match_gammainc(self, ctx_fast, mod, arg, kind, ratio,
                                   sign, im, gap):
        # orders with |alpha| ~ |z| on |arg z| <= 2 pi; a near-integer
        # order sits 10^-gap from the integer, outside the 10^-15 band of
        # 30 digits.  The check must not fire, and the value must agree
        # with mp.gammainc at twice the working precision.
        ctx = ctx_fast
        with mp.workdps(2 * (ctx.digits + ctx.guard)):
            n = round(sign * ratio * mod)
            alpha = {"generic": mpc(sign * ratio * mod, im),
                     "integer": mpc(n),
                     "near-integer": mpc(n) + sign * mpf(10) ** -gap}[kind]
            ours = upper_gamma(alpha, RayComplex(mpf(mod), mpf(arg)), ctx)
            _assert_matches_oracle(
                ours, lambda: _gammainc_on_ray(alpha, mpf(mod), mpf(arg)),
                ctx.digits + ctx.guard - 10)

    def test_never_fires_on_the_exactness_grid(self, ctx, monkeypatch):
        # every terminant of the 27 points under the three plans of
        # acceptance criterion 2, extension scales included, would pass its
        # check with 5 more digits lost by the series, or with a final
        # convergent difference 5 digits larger in the continued fraction
        lost = terminant_module.digits_lost
        monkeypatch.setattr(terminant_module, "digits_lost",
                            lambda *args: lost(*args) + 5)
        cf = terminant_module._fixed_cf

        def cf_worse(*args):
            value, diff_bits = cf(*args)
            return value, diff_bits + 5 / math.log10(2)

        monkeypatch.setattr(terminant_module, "_fixed_cf", cf_worse)
        plans = [TruncationPlan.constant(2, 2), TruncationPlan.constant(7, 2),
                 TruncationPlan((3, 9), (3, 9), 2)]
        with ctx.working(10):
            for s in (mpc(3), mpc(2, 0.5), mpc("1.6")):
                for argpi in ("0.40", "0.50", "0.60"):
                    for mod in (3, 6, 9):
                        a = RayComplex(mpf(mod), mpf(argpi) * mp.pi)
                        for plan in plans:
                            z_improved(s, a, plan, ctx)


class TestContinuedFraction:
    """On the principal sheet with Re z >= |Im alpha|, Re alpha < 0 and
    |z| at or above the crossover, upper_gamma evaluates Legendre's
    continued fraction; the series serves every other input."""

    @pytest.mark.parametrize("alpha,mod,arg_over_pi,method", [
        (mpc(-40), 40, "0.3", "cf"),
        (mpc(-40, 1), 40, "-0.49", "cf"),          # Re z = 1.26
        (mpc(-40, 2), 40, "-0.49", "series"),      # |Im alpha| > Re z
        (mpc(-40), 40, "0.51", "series"),          # Re z < 0
        (mpc(-40), 40, "1.7", "series"),           # Re z > 0, next sheet
        (mpc(-40), CROSSOVER - 1, "0.3", "series"),  # below the crossover
        (mpc("0.5"), 40, "0.3", "series"),         # Re alpha >= 0
        (mpc(0), 40, "0.3", "series"),
    ])
    def test_dispatch(self, alpha, mod, arg_over_pi, method, ctx_fast,
                      monkeypatch):
        class Taken(Exception):
            pass

        def taken(name):
            def raiser(*args):
                raise Taken(name)
            return raiser

        monkeypatch.setattr(terminant_module, "_fixed_cf", taken("cf"))
        monkeypatch.setattr(terminant_module, "_fixed_series",
                            taken("series"))
        with ctx_fast.working(10):
            z = RayComplex(mpf(mod), mpf(arg_over_pi) * mp.pi)
        with pytest.raises(Taken, match=method):
            upper_gamma(alpha, z, ctx_fast)

    @given(mod=st.floats(min_value=CROSSOVER, max_value=350),
           arg=st.floats(min_value=0.3, max_value=0.4999),
           side=st.sampled_from([-1, 1]),
           kind=st.sampled_from(["generic", "integer", "near-integer"]),
           ratio=st.floats(min_value=0.01, max_value=2),
           im=st.floats(min_value=-1, max_value=1),
           gap=st.integers(min_value=1, max_value=14),
           digits=st.just(30))
    @example(mod=40.0, arg=0.49, side=1, kind="near-integer", ratio=1.5,
             im=0.0, gap=29, digits=60)
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_values_match_gammainc(self, mod, arg, side, kind, ratio, im,
                                   gap, digits):
        # Re alpha < 0 orders up to 2|z|, Im alpha up to Re z, on rays with
        # arg z/pi in +-[0.3, 0.5), up to arg z = +-pi/2 where the fraction
        # converges slowest.  A near-integer order sits 10^-gap from the
        # integer, outside the near-integer band of the digits; the example
        # is the order -60 + 10^-29 of the series' near-pole test, which
        # only 60 digits admit.
        ctx = PrecisionContext(digits)
        with mp.workdps(2 * (ctx.digits + ctx.guard)):
            z = RayComplex(mpf(mod), side * mpf(arg) * mp.pi)
            n = -max(1, round(ratio * mod))
            alpha = {"generic": mpc(-ratio * mod,
                                    im * mod * mp.cos(z.argument)),
                     "integer": mpc(n),
                     "near-integer": mpc(n) + mpf(10) ** -gap}[kind]
            ours = upper_gamma(alpha, z, ctx)
            _assert_matches_oracle(
                ours, lambda: _stored_gammainc(alpha, z.value()),
                ctx.digits + ctx.guard - 10)

    @pytest.mark.parametrize("alpha,mod,arg_over_pi", [
        ("-743.66", "261.4", "-0.4974"), ("-912.41", "400.1", "0.4463")])
    def test_values_where_the_oracle_misses(self, alpha, mod, arg_over_pi,
                                            ctx_fast):
        # two fraction inputs of a 700-case fuzz where mp.gammainc at twice
        # the 50 working digits misses by 6.9e-13 and 5.9e-35 relative; at
        # 200 digits it agrees with upper_gamma to 1.2e-54 and 1.9e-54
        ctx = ctx_fast
        with mp.workdps(2 * (ctx.digits + ctx.guard)):
            alpha = mpc(alpha)
            z = RayComplex(mpf(mod), mpf(arg_over_pi) * mp.pi)
            ours = upper_gamma(alpha, z, ctx)
            _assert_matches_oracle(
                ours, lambda: mp.gammainc(alpha, z.value()),
                ctx.digits + ctx.guard - 10)

    @pytest.mark.parametrize("mod", [CROSSOVER - 2, CROSSOVER, CROSSOVER + 6])
    @pytest.mark.parametrize("alpha,arg_over_pi", [
        (mpc(-30, -0.5), "0"), (mpc(-29), "0.45"), (mpc("-0.3"), "-0.45")])
    def test_series_and_fraction_agree_at_the_crossover(
            self, mod, alpha, arg_over_pi, ctx, monkeypatch):
        with ctx.working(10):
            z = RayComplex(mpf(mod), mpf(arg_over_pi) * mp.pi)
        cf = terminant_module._upper_gamma_cf(alpha, z, ctx)
        monkeypatch.setattr(terminant_module, "CF_MIN_MODULUS", math.inf)
        series = upper_gamma(alpha, z, ctx)
        with ctx.working(10):
            assert abs(cf - series) <= \
                mpf(10) ** -(ctx.digits + ctx.guard - 10) * abs(series)


class TestSeriesLimits:
    """Inputs whose series would be too long or too wide raise at once."""

    @pytest.mark.parametrize("alpha,arg,error,match", [
        (mpc("2.5"), mpf("0.4"), DomainError, "inflation"),  # Re alpha >= 0
        (mpc(-3), mpf("-5.9"), DomainError, "inflation"),    # next sheet
        (mpc(-3), mp.pi, ConvergenceError, "terms"),         # Re z < 0
    ])
    def test_huge_modulus_returns_at_once(self, alpha, arg, error, match,
                                          ctx_fast):
        z = RayComplex(mpf("1e6"), arg)
        start = time.perf_counter()
        with pytest.raises(error, match=match):
            upper_gamma(alpha, z, ctx_fast)
        assert time.perf_counter() - start < 1

    def test_inflation_limit_covers_the_fuzzed_domain(self):
        # the widest series the tests ask for: |z| = 250 on the real axis
        widest = terminant_module._series_inflation(
            RayComplex(mpf(250), mpf(0)))
        assert widest <= terminant_module.SERIES_INFLATION_LIMIT


class TestIntegerOrderHead:
    """The series head at the order -n, (-1)^n/n! and psi(n+1), comes from
    ints below max(STIRLING_ORDER, dps) and from Stirling's series from
    there on, and takes neither mp.factorial nor mp.digamma."""

    @pytest.mark.parametrize("dps", [30, 95, 400])
    @pytest.mark.parametrize("n", [0, 1, 37, 500, 999, 1000, 10 ** 6,
                                   10 ** 20])
    def test_within_one_unit_of_mpmath(self, n, dps):
        got = terminant_module._limit_head(n, dps)
        with mp.workdps(dps):
            prec = mp.prec
            want = ((-1) ** n / mp.factorial(n), mp.digamma(n + 1))
        with mp.workdps(2 * dps):
            for g, w in zip(got, want):
                assert g.man.bit_length() <= prec  # rounded to dps digits
                assert abs(g - w) <= mpf(2) ** (mp.mag(w) - prec)

    def test_library_takes_neither(self, ctx, monkeypatch, clear_caches):
        # from cold memos: a fig1c point, an s = 3 grid point and the
        # pinned CLI terminant, each on integer-order series heads
        wl = _bench_workloads()
        sweep = wl.Evaluator(zetastokes, "sweep_n2_integer_s")
        grid = wl.Evaluator(zetastokes, "exactness_grid")
        fig1c = wl.points("sweep_n2_integer_s", wl.DEFAULT_SEED)[0]
        point = wl.points("exactness_grid", wl.DEFAULT_SEED)[0]
        assert point["s"] == ["3", "0"]
        clear_caches()
        calls = []

        def failing(name):
            def fail(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"mp.{name} called")
            return fail

        for name in ("digamma", "factorial"):
            monkeypatch.setattr(mp, name, failing(name))
        sweep.evaluate(fig1c)
        grid.evaluate(point)
        terminant(30, RayComplex(mpf(30), mp.pi), ctx)
        assert calls == []
        assert terminant_module._limit_head.cache_info().currsize > 0


KINDS = ["integer", "real", "complex", "decimal real", "decimal complex"]


class TestBinaryFraction:
    """``_binary_fraction`` writes the order's fixed-point ints as
    (pr + i pi) 2^(wp-e) with the least e, so the kernels' short forms
    serve every order that is a short binary fraction."""

    @staticmethod
    def _split(alpha, wp):
        pr, pi, e = terminant_module._binary_fraction(alpha, wp)
        ar, ai = to_fixed(alpha.real._mpf_, wp), to_fixed(alpha.imag._mpf_, wp)
        assert 0 <= e <= wp
        assert (ar, ai) == (pr << (wp - e), pi << (wp - e))
        # least: one bit fewer would not hold the ints
        assert e == 0 or (pr | pi) & 1
        return e

    @pytest.mark.parametrize("wp", [300, 340, 380])
    def test_integer_orders_have_no_fraction(self, wp):
        for alpha in (mpc(0), mpc(-37), mpc(-168), mpc(5)):
            assert self._split(alpha, wp) == 0

    @pytest.mark.parametrize("wp", [300, 340, 380])
    def test_grid_orders(self, ctx, wp):
        # the remainder orders 1 - (2N + s) of the grid's s = 2+0.5i and
        # s = 1.6: one fractional bit, against the 295 that a decimal
        # order carries at working(HEADROOM)
        with ctx.working(HEADROOM):
            short = 1 - (2 * 37 + ctx.read(mpc(2, 0.5)))
            decimal = 1 - (2 * 37 + ctx.read("1.6"))
            assert mp.prec == 302
        assert self._split(short, wp) == 1
        assert self._split(decimal, wp) == 295

    @pytest.mark.parametrize("alpha,bits", [
        (mpc(-9.25, -0.5), 2), (mpc(0.75, -3), 2), (mpc(-3, 0.125), 3),
        (mpc(0, -1.5), 1), (mpc(-2 ** -20), 20)])
    def test_negative_parts(self, alpha, bits):
        assert self._split(alpha, 200) == bits

    @pytest.mark.parametrize("wp", [40, 64, 100])
    def test_truncated_order(self, wp):
        # an order with more than wp fractional bits: to_fixed truncates
        # it, and the ints still factor exactly, with no short form left
        with mp.workdps(100):
            alpha = mpc(-mpf(1) / 3, mpf(2) / 7)
        assert self._split(alpha, wp) > wp - 8


class TestKernelBits:
    """Both fixed-point kernels return the ints of their general forms (the
    references above) bit for bit, whichever form of a step the order
    selects: integer, the few fractional bits of a float (the grid's
    s = 2+0.5i orders have one) or the many of a decimal, real or
    complex."""

    DPS = 50

    @given(mod=st.floats(min_value=1, max_value=200),
           arg=st.floats(min_value=-math.pi, max_value=math.pi),
           kind=st.sampled_from(KINDS),
           ratio=st.floats(min_value=-1.5, max_value=1.5),
           frac=st.floats(min_value=0.01, max_value=0.99),
           im=st.floats(min_value=-5, max_value=5))
    @example(mod=5.0, arg=0.3, kind="integer", ratio=0.0, frac=0.5,
             im=0.0)                                    # alpha = 0
    @example(mod=5.0, arg=2.0, kind="integer", ratio=-6.0, frac=0.5,
             im=0.0)             # alpha = -30: m < 30 divides by k + m < 0
    @example(mod=1.0, arg=-3.0, kind="real", ratio=-0.5, frac=0.25,
             im=0.0)
    @example(mod=200.0, arg=0.1, kind="complex", ratio=-1.0, frac=0.5,
             im=3.0)
    @example(mod=113.1, arg=0.9 * math.pi, kind="complex",
             ratio=-111 / 113.1, frac=0.0, im=-0.5)  # a grid order
    @example(mod=40.0, arg=2.5, kind="decimal real", ratio=-1.0, frac=0.6,
             im=0.0)
    @example(mod=40.0, arg=-1.0, kind="decimal complex", ratio=-0.5,
             frac=0.6, im=-0.5)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_series(self, mod, arg, kind, ratio, frac, im):
        with mp.workdps(self.DPS):
            alpha = _order(kind, ratio * mod, frac, im)
            zval = mpf(mod) * mp.expj(mpf(arg))
            n = -int(alpha.real) if kind == "integer" and alpha.real <= 0 \
                else None
            wp = dps_to_prec(self.DPS) + 40 + max(0, mp.mag(alpha))
            args = (alpha, zval, n, self.DPS, wp, int(mod))
            value, peak2 = terminant_module._fixed_series(*args)
            ref, ref_peak2 = _fixed_series_reference(*args)
        assert (value._mpc_, peak2) == (ref._mpc_, ref_peak2)

    @given(mod=st.floats(min_value=5, max_value=200),
           arg=st.floats(min_value=-1.4, max_value=1.4),
           kind=st.sampled_from(KINDS),
           ratio=st.floats(min_value=-1.5, max_value=-0.1),
           frac=st.floats(min_value=0.01, max_value=0.99),
           im=st.floats(min_value=-1, max_value=1))
    @example(mod=30.0, arg=0.4, kind="integer", ratio=-1.0, frac=0.5,
             im=0.0)
    @example(mod=37.7, arg=-0.05 * math.pi, kind="complex",
             ratio=-37 / 37.7, frac=0.0,
             im=-0.5 / (37.7 * math.cos(-0.05 * math.pi)))  # a grid order
    @example(mod=37.7, arg=0.3, kind="decimal real", ratio=-1.0, frac=0.6,
             im=0.0)
    @example(mod=37.7, arg=-0.3, kind="decimal complex", ratio=-1.0,
             frac=0.6, im=-0.5)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_fraction(self, mod, arg, kind, ratio, frac, im):
        # Re alpha < 0, |Im alpha| <= Re z: the fraction's own domain
        with mp.workdps(self.DPS):
            alpha = _order(kind, ratio * mod, frac,
                           im * mod * math.cos(arg))
            if alpha.real >= 0:
                alpha -= 1
            zval = mpf(mod) * mp.expj(mpf(arg))
            wp, stop = dps_to_prec(self.DPS) + 40, self.DPS * 4
            value, bits = terminant_module._fixed_cf(alpha, zval, wp, stop)
            ref, ref_bits, _ = _fixed_cf_reference(alpha, zval, wp, stop)
        assert (value._mpc_, bits) == (ref._mpc_, ref_bits)

    @pytest.mark.parametrize("alpha", [mpc(-9), mpc("-9.5"),
                                       mpc("-9.5", "7"), mpc("-9.6")])
    def test_fraction_that_shifts_often(self, alpha):
        # at |z| = 10 the fraction takes hundreds of steps, and A_n and B_n,
        # with parts of both signs, shift 30 times or so
        with mp.workdps(self.DPS):
            zval = 10 * mp.expj(mpf("0.4"))
            wp, stop = dps_to_prec(self.DPS) + 40, self.DPS * 4
            value, bits = terminant_module._fixed_cf(alpha, zval, wp, stop)
            ref, ref_bits, shifts = _fixed_cf_reference(alpha, zval, wp,
                                                        stop)
        assert shifts >= 25
        assert (value._mpc_, bits) == (ref._mpc_, ref_bits)


class TestTerminant:
    def test_recurrence_in_order(self, ctx):
        # from Gamma(1-nu, z): T_{nu+1}(z) relates to T_nu(z) through the
        # incomplete-gamma recurrence Gamma(a+1,z) = a Gamma(a,z) + z^a e^-z
        with ctx.working(20):
            nu = mpc("3.3", "0.2")
            z = RayComplex(mpf(6), mpf("1.1"))
            t_nu = terminant(nu, z, ctx)
            t_up = terminant(nu + 1, z, ctx)
            # T_{nu+1} = e^{pi i(nu+1)} Gamma(nu+1)/(2 pi i) Gamma(-nu, z)
            # and Gamma(1-nu, z) = -nu Gamma(-nu, z) + z^(-nu) e^(-z)
            zv = z.value()
            zpow = mp.exp(-nu * (mp.log(z.modulus) + mpc(0, 1) * z.argument))
            g_t = mp.expjpi(nu) * mp.gamma(nu) / (2 * mp.pi * mpc(0, 1))
            inc_t = t_nu / g_t                     # Gamma(1 - nu, z)
            g_u = mp.expjpi(nu + 1) * mp.gamma(nu + 1) / (2 * mp.pi * mpc(0, 1))
            inc_u = t_up / g_u                     # Gamma(-nu, z)
            resid = inc_t - (-nu * inc_u + zpow * mp.exp(-zv))
            assert abs(resid) <= ctx.tol() * (1 + abs(inc_t))

    @given(st.floats(min_value=-math.pi, max_value=math.pi),
           st.floats(min_value=2.0, max_value=9.0))
    @settings(max_examples=15, deadline=None)
    def test_connection_formula(self, base, nu_re):
        # T_nu(w e^(-pi i)) = e^(2 pi i nu) (T_nu(w e^(pi i)) - 1) at every
        # base arg w in [-pi, pi], so both sides span |arg z| <= 2 pi
        ctx = PrecisionContext(digits=30)
        with ctx.working(20):
            nu = mpc(nu_re, 0.3)
            for mod in (8, 20):
                w = mpf(mod)
                lhs = terminant(nu, RayComplex(w, mpf(base) - mp.pi), ctx)
                t_plus = terminant(nu, RayComplex(w, mpf(base) + mp.pi), ctx)
                rhs = mp.exp(2 * mp.pi * mpc(0, 1) * nu) * (t_plus - 1)
                assert abs(lhs - rhs) <= ctx.tol() * (1 + abs(lhs))


class TestReduceArg:
    """Reduction of arg z into (-pi, pi] by one turn of the connection
    formula reproduces the terminant evaluated directly at arg z."""

    @given(st.floats(min_value=-2 * math.pi, max_value=2 * math.pi),
           st.floats(min_value=2.0, max_value=9.0))
    @settings(max_examples=15, deadline=None)
    def test_round_trip(self, arg, nu_re):
        ctx = PrecisionContext(digits=30)
        with ctx.working(20):
            nu = mpc(nu_re, 0.3)
            z = RayComplex(mpf(5), mpf(arg))
            phase = mp.exp(2 * mp.pi * mpc(0, 1) * nu)
            reduced, mult, off = mpf(arg), mpc(1), mpc(0)
            if reduced > mp.pi:
                # T(x) = e^(-2 pi i nu) T(x - 2 pi) + 1
                reduced, mult, off = reduced - 2 * mp.pi, 1 / phase, mpc(1)
            elif reduced <= -mp.pi:
                # T(x) = e^(2 pi i nu) (T(x + 2 pi) - 1)
                reduced, mult, off = reduced + 2 * mp.pi, phase, -phase
            assert -mp.pi < reduced <= mp.pi + mpf("1e-25")
            direct = terminant(nu, z, ctx)
            via = mult * terminant(nu, RayComplex(mpf(5), reduced), ctx) \
                + off
            assert abs(direct - via) <= ctx.tol() * (1 + abs(direct))


class TestSmoothing:
    def test_c_at_pi_is_zero(self):
        assert abs(c_of_phi(math.pi)) < 1e-7

    @pytest.mark.parametrize("phi", [0.01, 0.3, 1.0, 2.5, 4.0, 5.9, 6.27])
    def test_c_solves_equation(self, phi):
        c = c_of_phi(phi)
        with mp.workdps(30):
            u = mpf(phi) - mp.pi
            resid = c * c / 2 - (1 + mpc(0, 1) * u - mp.expj(u))
            assert abs(resid) < mpf("1e-12")
        # the branch continuous through phi = pi, where c ~ phi - pi
        assert math.copysign(1, c.real) == math.copysign(1, phi - math.pi)

    def test_on_line_value_is_half(self, ctx):
        # build the ray at high precision so arg z carries a full-accuracy
        # pi; the smoothing coefficient then vanishes on the line
        with mp.workdps(40):
            z = RayComplex(mpf(30), mp.pi)
        val = terminant_asymptotic(30, z, ctx)
        assert abs(val - mpf(1) / 2) < mpf("1e-20")

    def test_smoothing_regime_agrees_with_exact(self, ctx):
        with ctx.working(20):
            z = RayComplex(mpf(60), mp.pi)
            approx = terminant_asymptotic(60, z, ctx)
            exact = terminant(60, z, ctx)
            assert abs(exact - approx) < mpf("0.05")

    def test_rejects_out_of_regime(self, ctx):
        with pytest.raises(DomainError):
            terminant_asymptotic(5, RayComplex(mpf(40), mp.pi), ctx)

    def test_rejects_outside_the_smoothing_window(self, ctx):
        # arg z = -0.3 lies below [0.05, 2 pi - 0.05], the only window the
        # asymptotic form serves
        with pytest.raises(DomainError, match="smoothing"):
            terminant_asymptotic(40, RayComplex(mpf(40), mpf("-0.3")), ctx)


if __name__ == "__main__":
    _GAMMAINC.clear()
    TestContinuedFraction().test_values_match_gammainc()
    GAMMAINC_DATA.write_text(json.dumps(
        {key: [list(part) for part in value._mpc_]
         for key, value in _GAMMAINC.items()}, indent=1) + "\n")
    print(f"wrote {len(_GAMMAINC)} references to {GAMMAINC_DATA}")
