"""Acceptance gate: the nine headline criteria, one pass/fail line each.

Each test prints ``ACCEPTANCE <n> (<name>): PASS/FAIL`` so the gate can be
read off the pytest -s output directly.  Tolerances are stated inline next
to each assertion.
"""
import math
import random

import pytest
from mpmath import mp, mpf, mpc

from zetastokes.cli import EXIT_OK, main
from zetastokes.errors import InsufficientPrecisionError
from zetastokes.expansion import TruncationPlan, optimal_truncation
from zetastokes.hp import PrecisionContext, RayComplex
from zetastokes.oracle import ZetaPoint
from zetastokes.stokes import stokes_multiplier, sweep
from zetastokes.validate import (connection_residual, exactness_residual,
                                 reflection_residuals, smoothing_check)


def _report(number: int, name: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status}")
    assert passed


@pytest.fixture(scope="module")
def actx():
    return PrecisionContext(digits=60)


@pytest.fixture(scope="module")
def fig1a_sweep(actx):
    plan = TruncationPlan((17,), (17,), 1)
    return sweep(1, 6, mpc(3), (0.3 * math.pi, 0.7 * math.pi, 41), actx,
                 plan=plan)


@pytest.fixture(scope="module")
def fig1c_sweep(actx):
    plan = TruncationPlan((18, 36), (18, 37), 2)
    return sweep(2, 6, mpc(2), (0.3 * math.pi, 0.7 * math.pi, 41), actx,
                 plan=plan)


def test_criterion_1_dip_table(capsys):
    code = main(["table1", "--check"])
    with capsys.disabled():
        _report(1, "dip-minimum table to 5e-7", code == EXIT_OK)


def test_criterion_2_exactness_grid(actx, capsys):
    # 27-point grid (3 s x 3 theta x 3 |a|) under three truncation plans,
    # relative tolerance 10^(-digits+10) = 1e-50
    plans = [
        TruncationPlan.constant(2, 2),
        TruncationPlan.constant(7, 2),
        TruncationPlan((3, 9), (3, 9), 2),
    ]
    worst = mpf(0)
    with actx.working(10):
        for s in (mpc(3), mpc(2, 0.5), mpc("1.6")):
            for argpi in ("0.40", "0.50", "0.60"):
                for mod in (3, 6, 9):
                    a = RayComplex(mpf(mod), mpf(argpi) * mp.pi)
                    worst = max(worst, exactness_residual(s, a, plans, actx))
    with capsys.disabled():
        print(f"  worst relative residual: {mp.nstr(worst, 3)}")
        _report(2, "expansion exactness on the 27-point grid",
                worst <= actx.tol())


def test_criterion_3_reflection_identities(actx, capsys):
    # residuals < tol*(1+|value|) on 20 random points, Re(s) in (1.5, 4)
    rng = random.Random(7)
    worst = mpf(0)
    with actx.working(10):
        for _ in range(20):
            s = mpc(rng.uniform(1.5, 4.0), rng.uniform(-1.0, 1.0))
            a = RayComplex(mpf(rng.uniform(3.0, 9.0)),
                           mpf(rng.uniform(0.35, 0.65)) * mp.pi)
            point = ZetaPoint.create(s, a, actx)
            worst = max(worst, *reflection_residuals(point, actx))
    with capsys.disabled():
        print(f"  worst residual: {mp.nstr(worst, 3)}")
        _report(3, "reflection identities on 20 random points",
                worst < actx.tol())


def test_criterion_4_first_sweep(fig1a_sweep, capsys):
    ok = all(s.error is None for s in fig1a_sweep)
    resid = max(abs(float(s.exact.real) - s.approx) for s in fig1a_sweep)
    plateau = max(abs(float(fig1a_sweep[i].exact.real) - 1.0)
                  for i in (0, -1))
    dip = min(fig1a_sweep, key=lambda s: float(s.exact.real))
    dip_offset = abs(dip.theta - 0.473089 * math.pi)
    with capsys.disabled():
        print(f"  max |Re S_1 - approx| = {resid:.4f}, plateau offset "
              f"{plateau:.4f}, dip offset {dip_offset / math.pi:.4f} pi")
        _report(4, "first-exponential sweep reproduction",
                ok and resid <= 0.05 and plateau <= 0.07
                and dip_offset <= 0.02 * math.pi)


def test_criterion_5_hidden_exponential(fig1c_sweep, actx, capsys):
    ok = all(s.error is None for s in fig1c_sweep)
    resid = max(abs(float(s.exact.real) - s.approx) for s in fig1c_sweep)
    # negative control: the e^(-24 pi) target is unresolvable at 30 digits
    ctx30 = PrecisionContext(digits=30)
    with ctx30.working():
        a = RayComplex(mpf(6), mp.pi / 2)
    point = ZetaPoint.create(mpc(2), a, ctx30)
    control = False
    try:
        stokes_multiplier(2, point, ctx30,
                          plan=TruncationPlan((18, 36), (18, 37), 2))
    except InsufficientPrecisionError:
        control = True
    with capsys.disabled():
        print(f"  max |Re S_2 - approx| = {resid:.4f}, negative control "
              f"raised: {control}")
        _report(5, "hidden-exponential recovery with negative control",
                ok and resid <= 0.05 and control)


def test_criterion_6_connection_formula(actx, capsys):
    # |T(z e^(-i pi)) - e^(2 pi i nu)(T(z e^(i pi)) - 1)| < 1e-50
    rng = random.Random(11)
    worst = mpf(0)
    for _ in range(8):
        nu = mpc(rng.uniform(2.0, 25.0), rng.uniform(-1.0, 1.0))
        mod = mpf(rng.uniform(4.0, 50.0))
        base = mpf(rng.uniform(-0.4, 0.4))
        worst = max(worst, connection_residual(nu, mod, base, actx))
    with capsys.disabled():
        print(f"  worst absolute residual: {mp.nstr(worst, 3)}")
        _report(6, "terminant connection formula", worst < actx.tol())


def test_criterion_7_smoothing_midpoint(actx, capsys):
    # |T_nu(|z| e^(i pi)) - 1/2| <= 2 |z|^(-1/2) for |z| in {30, 60, 100}
    ok = all(smoothing_check(mod, actx)[0] <= 1 for mod in (30, 60, 100))
    with capsys.disabled():
        _report(7, "terminant smoothing midpoint bound", ok)


def test_criterion_8_truncation_pins(actx, capsys):
    # least-term indices vs published values, within +-1
    with actx.working():
        a6 = RayComplex(mpf(6), mp.pi / 2)
        a8 = RayComplex(mpf(8), mp.pi / 2)
        pt8 = ZetaPoint.create(mpc(2, "0.5"), a8, actx)
        pt6 = ZetaPoint.create(mpc(2), a6, actx)
    pins = [
        (optimal_truncation(1, mpc(3), a6, actx), 17),
        (optimal_truncation(1, pt8.s, pt8.a, actx), 25),
        (optimal_truncation(1, pt8.s, pt8.a_prime, actx), 24),
        (optimal_truncation(2, mpc(2), pt6.a, actx), 36),
        (optimal_truncation(2, mpc(2), pt6.a_prime, actx), 37),
        (optimal_truncation(1, mpc(2), a6, actx), 18),
    ]
    ok = all(abs(got - want) <= 1 for got, want in pins)
    with capsys.disabled():
        print("  pins (computed vs published):",
              ", ".join(f"{g}/{w}" for g, w in pins))
        _report(8, "optimal-truncation pins within +-1", ok)


def test_criterion_9_dip_width_scaling(fig1a_sweep, fig1c_sweep, capsys):
    # half-depth width ratio n=2 / n=1 in (0.55, 0.90)
    def width(samples):
        pts = [(s.theta, float(s.exact.real)) for s in samples
               if s.exact is not None]
        smin = min(v for _, v in pts)
        half = (1 + smin) / 2
        below = [t for t, v in pts if v < half]
        return max(below) - min(below)

    ratio = width(fig1c_sweep) / width(fig1a_sweep)
    with capsys.disabled():
        print(f"  width ratio: {ratio:.3f}")
        _report(9, "dip width shrinks like n^(-1/2)", 0.55 < ratio < 0.90)
