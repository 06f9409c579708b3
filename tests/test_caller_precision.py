"""Every evaluator gives the same bits whatever the caller's mpmath
precision: each one reads its inputs through ``PrecisionContext.read`` and
works at the precision of its ``PrecisionContext``."""
import inspect
import math

import pytest
from mpmath import mp, mpf, mpc

import zetastokes
from zetastokes.expansion import (TruncationPlan, a_r_coefficient,
                                  bernoulli_series, extend_plan,
                                  leading_blocks, optimal_truncation,
                                  remainder_rk, script_r_k, z_improved)
from zetastokes.hp import PrecisionContext, RayComplex
from zetastokes.oracle import (ZetaPoint, f_tilde_reference,
                               hurwitz_zeta_direct, periodic_zeta_direct,
                               z_reference)
from zetastokes.stokes import stokes_multiplier, sweep
from zetastokes.terminant import terminant, terminant_asymptotic, upper_gamma

CTX = PrecisionContext(digits=60)
with CTX.working(10):
    # a non-dyadic s and order, which a 15-digit conversion would round
    S = mpc("1.6")
    A = RayComplex(mpf(6), mpf("0.4") * mp.pi)
    NU = 2 * 17 + S
    ALPHA = 1 - NU
    # the t_plus ray 2 pi |a| e^(i (arg a + pi/2)) of remainder_rk, inside
    # the window of the asymptotic terminant's smoothing form
    Z = RayComplex(2 * mp.pi * A.modulus, A.argument + mp.pi / 2)
POINT = ZetaPoint.create(S, A, CTX)
N = 17

CASES = {
    "a_r_coefficient": lambda: a_r_coefficient(2, S, A, CTX),
    "optimal_truncation": lambda: optimal_truncation(1, S, A, CTX),
    "extend_plan": lambda: extend_plan(S, A, (N,), CTX),
    "hurwitz_zeta_direct": lambda: hurwitz_zeta_direct(S, A, CTX),
    "z_reference": lambda: z_reference(S, A, CTX),
    "remainder_rk": lambda: remainder_rk(1, S, A, N, CTX),
    "script_r_k": lambda: script_r_k(1, POINT, N, N, CTX),
    "leading_blocks": lambda: leading_blocks(S, A, (N, 2 * N), CTX),
    "bernoulli_series": lambda: bernoulli_series(S, A, N, CTX),
    "z_improved": lambda: z_improved(
        S, A, TruncationPlan((N,), (N,), 1), CTX),
    "ZetaPoint.create": lambda: ZetaPoint.create(S, A, CTX).s,
    "periodic_zeta_direct": lambda: periodic_zeta_direct(POINT, CTX),
    "f_tilde_reference": lambda: f_tilde_reference(POINT, CTX),
    "stokes_multiplier": lambda: stokes_multiplier(1, POINT, CTX).exact,
    "sweep": lambda: [smp.exact for smp in sweep(
        1, 6, S, (0.45 * math.pi, 0.46 * math.pi, 2), CTX)],
    "terminant": lambda: terminant(NU, Z, CTX),
    "terminant_asymptotic": lambda: terminant_asymptotic(NU, Z, CTX),
    "upper_gamma": lambda: upper_gamma(ALPHA, Z, CTX),
}


def _bits(value):
    """The exact binary representation of an mpmath result, or of the
    mpmath numbers in a list or tuple; anything else as it is."""
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    return getattr(value, "_mpc_", getattr(value, "_mpf_", value))


@pytest.mark.parametrize("name", list(CASES))
def test_result_bits_ignore_caller_precision(name):
    evaluate = CASES[name]
    with mp.workdps(15):
        at_default = _bits(evaluate())
    with CTX.working(10):
        at_working = _bits(evaluate())
    assert at_default == at_working


def _public_callables():
    """(name, callable) for every function in ``zetastokes.__all__`` and
    every public method that a class there defines itself."""
    for name in zetastokes.__all__:
        obj = getattr(zetastokes, name)
        if inspect.isclass(obj):
            for attr in vars(obj):
                member = getattr(obj, attr)
                if not attr.startswith("_") and callable(member):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, obj


def test_every_public_s_or_order_taker_has_a_case():
    takers = {name for name, fn in _public_callables()
              if {"s", "nu", "alpha"} & set(inspect.signature(fn).parameters)}
    assert "ZetaPoint.create" in takers
    assert takers - set(CASES) == set()
