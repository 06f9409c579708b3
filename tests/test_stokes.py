import math
from pathlib import Path

import pytest
from mpmath import mp, mpf, mpc

from zetastokes.errors import (DomainError, IllConditionedError,
                               InsufficientPrecisionError, ZetaError)
from zetastokes.expansion import TruncationPlan
from zetastokes.hp import (FACTOR_EXTRA, HEADROOM, PRINT_MARGIN,
                           PrecisionContext, RayComplex)
from zetastokes import expansion, hp, oracle, stokes
from zetastokes.oracle import ZetaPoint
from zetastokes.cli import REPRODUCTIONS
from zetastokes.stokes import (MinimumResult, MultiplierSample, erf_approx,
                               find_minimum, stokes_multiplier, sweep,
                               sweep_point)

DATA = Path(__file__).resolve().parent / "data"


def _point(s, modulus, arg_over_pi, ctx):
    with ctx.working(10):
        a = RayComplex(mpf(modulus), mpf(str(arg_over_pi)) * mp.pi)
    return ZetaPoint.create(mpc(s), a, ctx)


class TestErfApprox:
    def test_table_pins(self):
        assert abs(erf_approx(1, 6, 0.473089 * math.pi) - 0.608463) < 5e-7
        assert abs(erf_approx(1, 20, 0.492010 * math.pi) - 0.779264) < 5e-7

    def test_plateaus(self):
        assert abs(erf_approx(1, 6, 0.1 * math.pi) - 1) < 1e-3
        assert abs(erf_approx(1, 6, 0.9 * math.pi) - 1) < 1e-3

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            erf_approx(0, 6, 1.0)
        with pytest.raises(DomainError):
            erf_approx(1, 0.5, 1.0)

    @pytest.mark.parametrize("abs_a", [math.inf, math.nan])
    def test_rejects_non_finite_abs_a(self, abs_a):
        # returned nan at inf, and so printed nan in every S_approx cell
        with pytest.raises(DomainError, match="finite"):
            erf_approx(1, abs_a, 1.0)


class TestSampleInvariants:
    def test_rejects_out_of_range_approx(self):
        with pytest.raises(ValueError):
            MultiplierSample(theta=1.0, exact=None, approx=5.0, plan=None)

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            MultiplierSample(theta=4.0, exact=None, approx=1.0, plan=None)

    def test_error_sample_skips_approx_check(self):
        MultiplierSample(theta=1.0, exact=None, approx=5.0, plan=None,
                         error="boom")


class TestFindMinimum:
    def test_interior_and_bounded(self):
        r = find_minimum(1, 6)
        assert isinstance(r, MinimumResult)
        assert 0 < r.s_min < 1
        assert 0.02 * math.pi < r.theta0 < 0.98 * math.pi

    def test_monotone_in_abs_a(self):
        results = [find_minimum(1, aa) for aa in (1, 2, 4, 6, 8, 10, 15, 20)]
        smins = [r.s_min for r in results]
        thetas = [r.theta0 for r in results]
        assert all(x < y for x, y in zip(smins, smins[1:]))
        assert all(x < y for x, y in zip(thetas, thetas[1:]))
        assert all(r.theta0 < math.pi / 2 for r in results)

    def test_rejects_small_abs_a(self):
        with pytest.raises(DomainError):
            find_minimum(1, 0.5)


class TestStokesMultiplier:
    def test_dip_value(self, ctx):
        pt = _point(3, 6, 0.473089, ctx)
        s1 = stokes_multiplier(1, pt, ctx)
        assert abs(float(s1.exact.real) - 0.608) < 0.05
        assert s1.plan.nk == (17,) and s1.plan.nk_prime == (17,)

    def test_plateau_value(self, ctx):
        pt = _point(3, 6, 0.3, ctx)
        s1 = stokes_multiplier(1, pt, ctx)
        assert abs(float(s1.exact.real) - 1.0) < 0.07

    def test_hidden_exponential(self, ctx):
        # scale-2 extraction at theta = pi/2: the peeled exponential is
        # e^(-12 pi), the recovered one e^(-24 pi)
        pt = _point(2, 6, 0.5, ctx)
        s2 = stokes_multiplier(2, pt, ctx)
        assert abs(float(s2.exact.real) - s2.approx) < 0.05
        peeled = s2.diagnostics["remainder_abs"][0]
        target = s2.diagnostics["target_exponential"]
        assert abs(math.log(peeled) + 12 * math.pi) < 2
        assert abs(math.log(target) + 24 * math.pi) < 1e-6

    def test_insufficient_precision(self):
        ctx30 = PrecisionContext(digits=30)
        pt = _point(2, 6, 0.5, ctx30)
        with pytest.raises(InsufficientPrecisionError) as err:
            stokes_multiplier(2, pt, ctx30)
        assert err.value.required_digits is not None
        assert err.value.required_digits > 30

    @pytest.mark.parametrize("n, modulus", [(2, 6), (2, 8), (3, 6)])
    def test_required_digits_suffice(self, n, modulus):
        # the precision contract upward: 30 digits raise, and a re-run at
        # the digits the error names returns the multiplier
        ctx30 = PrecisionContext(digits=30)
        with pytest.raises(InsufficientPrecisionError) as err:
            stokes_multiplier(n, _point(2, modulus, 0.5, ctx30), ctx30)
        ctx = PrecisionContext(digits=err.value.required_digits)
        sample = stokes_multiplier(n, _point(2, modulus, 0.5, ctx), ctx)
        assert abs(float(sample.exact.real) - sample.approx) < 0.05

    def test_short_plan_rejected(self, ctx):
        pt = _point(2, 6, 0.5, ctx)
        with pytest.raises(DomainError):
            stokes_multiplier(2, pt, ctx,
                              plan=TruncationPlan((18,), (18,), 1))

    def test_cross_check_catches_disagreement(self, ctx, monkeypatch):
        # a relative error of 1e-30 on the Bernoulli side of the S_1
        # cross-check, far above its 10^(-digits+12) bound, at a fig1b point
        real = stokes.bernoulli_series
        monkeypatch.setattr(
            stokes, "bernoulli_series",
            lambda *args: real(*args) * (1 + mpf("1e-30")))
        pt = _point(mpc(2, 0.5), 8, 0.5, ctx)
        plan = TruncationPlan((25,), (24,), 1)
        with pytest.raises(IllConditionedError, match="disagree"):
            stokes_multiplier(1, pt, ctx, plan=plan)
        samples = sweep(1, 8, mpc(2, 0.5), (0.49 * math.pi, 0.51 * math.pi, 2),
                        ctx, plan=plan)
        assert len(samples) == 2
        assert all(s.exact is None and "IllConditionedError" in s.error
                   for s in samples)

    @pytest.mark.parametrize("which", ["signed_gamma_0", "signed_gamma_5",
                                       "gamma_s"])
    def test_cross_check_catches_a_gamma_error(self, which, ctx,
                                               monkeypatch, clear_caches):
        # a relative error of 1e-30 in one Gamma moves S_1 at a fig1b point
        # by 1e-22 to 2e-14: the block side reads the signed Gammas, the
        # Bernoulli side Gamma(s), so each error reaches one side only
        clear_caches()
        pt = _point(mpc(2, 0.5), 8, 0.5, ctx)

        def off(value, hit):  # at the caller's precision
            return value * (1 + mpf("1e-30")) if hit else value

        if which == "gamma_s":
            real = hp.gamma_complex
            monkeypatch.setattr(hp, "gamma_complex", lambda z, ctx: off(
                real(z, ctx), z == pt.s))
        else:
            real, at = hp.SeriesTables.signed_gamma, int(which[-1])
            monkeypatch.setattr(hp.SeriesTables, "signed_gamma",
                                lambda self, r: off(real(self, r), r == at))
        try:
            with pytest.raises(IllConditionedError, match="disagree"):
                stokes_multiplier(1, pt, ctx,
                                  plan=TruncationPlan((25,), (24,), 1))
        finally:
            clear_caches()  # the owners keep the perturbed Gammas

    @pytest.mark.parametrize("which", ["factor_power", "two_pi_minus_s"])
    def test_cross_check_catches_a_block_power_error(self, which, ctx,
                                                     monkeypatch,
                                                     clear_caches):
        # the blocks' a^(-s) at FACTOR_EXTRA and (2 pi)^-s, each off by
        # 1e-30 relative at a fig1b point: the Bernoulli side reads the
        # oracle's a^(-s) at HEADROOM and 1/(2 pi)^s instead, so neither
        # error reaches it
        clear_caches()
        pt = _point(mpc(2, 0.5), 8, 0.5, ctx)
        if which == "factor_power":
            real = expansion.pow_ray

            def off(base, exponent, ctx, extra=0):
                value = real(base, exponent, ctx, extra)
                if extra != FACTOR_EXTRA:
                    return value
                with ctx.working(HEADROOM):
                    return value * (1 + mpf("1e-30"))

            monkeypatch.setattr(expansion, "pow_ray", off)
        else:
            tables = hp.series_tables(pt.s, ctx)
            with ctx.working(HEADROOM):
                tables.two_pi_minus_s *= 1 + mpf("1e-30")
        try:
            with pytest.raises(IllConditionedError, match="disagree"):
                stokes_multiplier(1, pt, ctx,
                                  plan=TruncationPlan((25,), (24,), 1))
        finally:
            clear_caches()  # the owner keeps the perturbed power

    def test_cross_check_takes_two_powers_per_ray(self, ctx, monkeypatch):
        # every algebraic power of a fig1b point is a^(-s) times integer
        # powers of the ray's value and of 2 pi: the oracle's subtracted
        # terms and the Bernoulli sum share one a^(-s) at HEADROOM, and the
        # blocks take one at FACTOR_EXTRA, so each ray takes one power per
        # precision, not one per term (the plan's 25 + 24)
        asked = []
        real = hp.pow_ray

        def counting(base, exponent, ctx, extra=0):
            asked.append((base, exponent, ctx, extra))
            return real(base, exponent, ctx, extra)

        for module in (expansion, oracle):
            monkeypatch.setattr(module, "pow_ray", counting)
        pt = _point(mpc(2, 0.5), 8, 0.5, ctx)
        stokes_multiplier(1, pt, ctx, plan=TruncationPlan((25,), (24,), 1))
        assert not hasattr(hp, "ray_powers")
        assert len(asked) == 6  # subtracted terms, blocks, Bernoulli
        assert set(asked) == {(ray, -pt.s, ctx, extra)
                              for ray in (pt.a, pt.a_prime)
                              for extra in (HEADROOM, FACTOR_EXTRA)}

    @pytest.mark.parametrize("s", [mpc(2, 0.5), mpc(3), mpc(1.6)])
    @pytest.mark.parametrize("arg", [0.02, 0.1, 0.9, 0.98])
    @pytest.mark.parametrize("modulus", [1, 1.5, 2, 3])
    def test_scan_bound_edges(self, modulus, arg, s, ctx):
        # near the real axis |a'| = |1 - a| falls below 1 while |a| >= 1:
        # the point either returns S_1, its cross-check passed, or names
        # the ray and the modulus that admit no least-term index
        pt = _point(s, modulus, arg, ctx)
        try:
            sample = stokes_multiplier(1, pt, ctx)
        except DomainError as exc:
            assert pt.a_prime.modulus < 1 <= pt.a.modulus
            assert str(exc).startswith("on the ray a' = 1 - a: ")
            got = float(str(exc).rsplit("got ", 1)[1])
            assert got == pytest.approx(float(pt.a_prime.modulus), rel=1e-5)
        else:
            assert pt.a_prime.modulus >= 1
            assert sample.error is None and mp.isfinite(sample.exact)

    def test_diagnostics_present(self, ctx):
        pt = _point(3, 6, 0.45, ctx)
        s1 = stokes_multiplier(1, pt, ctx)
        assert set(s1.diagnostics) >= {"ft_abs", "peeled_abs",
                                       "remainder_abs",
                                       "target_exponential",
                                       "resolved_digits"}

    @pytest.mark.parametrize("arg_over_pi", ["0.40", "0.52"])
    def test_resolved_digits_match_a_110_digit_run(self, arg_over_pi, ctx):
        # two fig1c points (n = 2, |a| = 6, s = 2, its pinned plan): the
        # digits of S_2 at 60 digits that agree with a 110-digit run are
        # the estimate, to within 1 (53.9 and 52.5 measured)
        plan = TruncationPlan((18, 36), (18, 37), 2)
        fine = PrecisionContext(digits=110)
        a = _point(2, 6, arg_over_pi, fine).a
        sample = stokes_multiplier(2, ZetaPoint.create(mpc(2), a, ctx), ctx,
                                   plan=plan)
        ref = stokes_multiplier(2, ZetaPoint.create(mpc(2), a, fine), fine,
                                plan=plan)
        with fine.working():
            measured = -mp.log10(abs(sample.exact - ref.exact))
        assert abs(sample.diagnostics["resolved_digits"] - measured) <= 1


class TestLargeImS:
    """S_n at s = 3 + i y, |a| = 6, arg a = 0.45 pi, against a run at 50
    digits: the 30-digit value must hold its resolved_digits.  Here the
    algebraic parts fall below 1e-60, and S_1 is e^(-2 pi i a) F(a, 1-s),
    whose terms k^(s-1) lose log10(|Im s| ln k) digits to their phases
    without the phase rule ``hp.phase_bits``, which every owned power
    reads (2.9e-43 off at y = 2^133, 5e-16 at 2^332, while resolved_digits
    reads 50); S_2 divides by 2^(s-1) (3.5e-22 off at 2^133, against a
    claimed 1.5e-34), and Ftilde's prefactor divides by (2 pi)^s."""

    @staticmethod
    def _pair(n, s, plan):
        fine = PrecisionContext(digits=50)
        a = _point(s, 6, 0.45, fine).a
        coarse = PrecisionContext(digits=30)
        try:
            sample = stokes_multiplier(n, ZetaPoint.create(s, a, coarse),
                                       coarse, plan=plan)
        except ZetaError:
            return None
        ref = stokes_multiplier(n, ZetaPoint.create(s, a, fine), fine,
                                plan=plan)
        with fine.working():
            error = abs(sample.exact - ref.exact) / abs(ref.exact)
            return error, mpf(10) ** -sample.diagnostics["resolved_digits"]

    # S_2 reads terminants, which raise DomainError once Im s passes the
    # float range (2^1024)
    @pytest.mark.parametrize("e, n", [(133, 1), (332, 1), (1000, 1),
                                      (3000, 1), (133, 2), (332, 2),
                                      (1000, 2)])
    def test_resolved_digits_hold(self, e, n):
        error, claimed = self._pair(n, mpc(3, mpf(2) ** e),
                                    TruncationPlan.constant(1, n))
        assert error <= claimed

    def test_im_s_of_1e400_is_a_value_or_a_typed_error(self):
        # the optimal plan, whose sizing reads s in floats; an OverflowError
        # would escape as neither
        pair = self._pair(1, mpc(3, mpf("1e400")), None)
        if pair is not None:
            assert pair[0] <= pair[1]


class TestSweep:
    def test_cross_validation(self, ctx):
        plan = TruncationPlan((17,), (17,), 1)
        samples = sweep(1, 6, mpc(3), (0.4 * math.pi, 0.6 * math.pi, 9),
                        ctx, plan=plan)
        assert len(samples) == 9
        assert all(s.error is None for s in samples)
        resid = max(abs(float(s.exact.real) - s.approx) for s in samples)
        assert resid <= 0.05
        im = max(abs(float(s.exact.imag)) for s in samples)
        assert im < 0.1

    def test_failures_reported_not_dropped(self):
        ctx30 = PrecisionContext(digits=30)
        plan = TruncationPlan((18, 36), (18, 37), 2)
        samples = sweep(2, 6, mpc(2), (0.45 * math.pi, 0.55 * math.pi, 3),
                        ctx30, plan=plan)
        assert len(samples) == 3
        assert all(s.error is not None for s in samples)
        assert all("InsufficientPrecisionError" in s.error for s in samples)

    def test_returned_digits_are_resolved(self):
        # S_2 at |a| = 6 resolves about 52 digits at 60, so a short point
        # raises the context by its shortfall and runs again: each part is
        # resolved to the 60 asked for, below its leading zeros, plus the
        # margin
        samples = sweep(2, 6, mpc(2), (0.45 * math.pi, 0.55 * math.pi, 3),
                        PrecisionContext(60))
        assert all(smp.error is None for smp in samples)
        for smp in samples:
            smaller = min(abs(smp.exact.real), abs(smp.exact.imag))
            assert smp.diagnostics["resolved_digits"] >= \
                60 + PRINT_MARGIN - float(mp.log10(smaller))

    def test_fig1c_returns_the_printed_values(self, monkeypatch):
        # the library sweep is the one zeta sweep prints: the same 41
        # values, from 46 evaluations at contexts that only rise
        cfg = REPRODUCTIONS["fig1c"]
        lo, hi, count = cfg["theta"]
        contexts = []

        def counted(*args):
            contexts.append(args[5].digits)
            return sweep_point(*args)
        monkeypatch.setattr(stokes, "sweep_point", counted)
        samples = sweep(cfg["n"], cfg["abs_a"], cfg["s"],
                        (lo * math.pi, hi * math.pi, count),
                        PrecisionContext(60), cfg["plan"])
        assert len(contexts) == 46 and contexts == sorted(contexts)
        assert sorted(set(contexts)) == [60, 71, 72, 74, 75, 76]
        rows = (DATA / "fig1c.csv").read_text().splitlines()[1:]
        assert len(rows) == len(samples) == 41
        for smp, row in zip(samples, rows):
            assert [mp.nstr(part, 60, strip_zeros=False)
                    for part in (smp.exact.real, smp.exact.imag)] \
                == row.split(",")[1:3]

    @pytest.mark.parametrize("n,abs_a", [(1, 0.5), (0, 6), (2, 6)])
    def test_rejects_bad_arguments_up_front(self, n, abs_a, monkeypatch):
        # raised before any point is computed: the failed-point branch
        # could not report the first two, since erf_approx rejects them as
        # well, and would record the same error at every point for the
        # third, whose one-scale plan cannot give S_2
        def no_point(*args, **kwargs):
            raise AssertionError("a point was computed")

        monkeypatch.setattr(stokes, "stokes_multiplier", no_point)
        monkeypatch.setattr(stokes.ZetaPoint, "create", no_point)
        with pytest.raises(DomainError):
            sweep(n, abs_a, mpc(3), (0.49 * math.pi, 0.51 * math.pi, 2),
                  PrecisionContext(30), plan=TruncationPlan((17,), (17,), 1))

    @pytest.mark.parametrize("name", ["fig1b", "fig1c"])
    def test_theta_independent_factors_are_computed_once(self, name, ctx,
                                                         monkeypatch):
        # Gamma, zeta(2r+2, m) and the phases e^(i pi x) depend on s, the
        # plan and the scale but not on theta: after its first point, a
        # fixed-plan sweep takes every one of them from a memo
        cfg = REPRODUCTIONS[name]
        lo, hi, count = cfg["theta"]
        theta_range = (lo * math.pi, hi * math.pi, count)
        args = (cfg["n"], cfg["abs_a"], cfg["s"], theta_range)
        first = sweep_point(*args, 0, ctx, cfg["plan"])
        assert first.error is None
        calls = []

        def counting(name):
            real = getattr(mp, name)

            def counted(*a, **kw):
                calls.append(name)
                return real(*a, **kw)
            return counted

        for fn in ("gamma", "zeta", "expjpi"):
            monkeypatch.setattr(mp, fn, counting(fn))
        samples = [sweep_point(*args, j, ctx, cfg["plan"])
                   for j in (1, count // 2, count - 1)]
        assert all(smp.error is None for smp in samples)
        assert calls == []

    def test_rejects_bad_range(self, ctx):
        with pytest.raises(DomainError):
            sweep(1, 6, mpc(3), (0.6 * math.pi, 0.4 * math.pi, 5), ctx)
        with pytest.raises(DomainError):
            sweep(1, 6, mpc(3), (0.4 * math.pi, 0.6 * math.pi, 1), ctx)
