"""Every evaluator gives the same bits whatever the caller's mpmath
precision: each one works at the precision of its ``PrecisionContext``."""
import pytest
from mpmath import mp, mpf, mpc

from zetastokes.expansion import (TruncationPlan, bernoulli_series,
                                  leading_blocks, remainder_rk, script_r_k,
                                  z_improved)
from zetastokes.hp import PrecisionContext, RayComplex
from zetastokes.oracle import (ZetaPoint, f_tilde_reference,
                               hurwitz_zeta_direct, periodic_zeta_direct,
                               z_reference)
from zetastokes.stokes import stokes_multiplier
from zetastokes.terminant import terminant, upper_gamma

CTX = PrecisionContext(digits=60)
S = mpc(1.6)
with CTX.working(10):
    A = RayComplex(mpf(6), mpf("0.4") * mp.pi)
    # a non-dyadic order, which a 15-digit conversion would round, and the
    # t_plus ray 2 pi |a| e^(i (arg a + pi/2)) of remainder_rk
    NU = 2 * 17 + mpf("1.6")
    ALPHA = 1 - NU
    Z = RayComplex(2 * mp.pi * A.modulus, A.argument + mp.pi / 2)
POINT = ZetaPoint.create(S, A, CTX)
N = 17

CASES = {
    "hurwitz_zeta_direct": lambda: hurwitz_zeta_direct(S, A, CTX),
    "z_reference": lambda: z_reference(S, A, CTX),
    "remainder_rk": lambda: remainder_rk(1, S, A, N, CTX),
    "script_r_k": lambda: script_r_k(1, POINT, N, N, CTX),
    "leading_blocks": lambda: leading_blocks(S, A, (N, 2 * N), CTX),
    "bernoulli_series": lambda: bernoulli_series(S, A, N, CTX),
    "z_improved": lambda: z_improved(
        S, A, TruncationPlan((N,), (N,), 1), CTX),
    "periodic_zeta_direct": lambda: periodic_zeta_direct(POINT, CTX),
    "f_tilde_reference": lambda: f_tilde_reference(POINT, CTX),
    "stokes_multiplier": lambda: stokes_multiplier(1, POINT, CTX).exact,
    "terminant": lambda: terminant(NU, Z, CTX),
    "upper_gamma": lambda: upper_gamma(ALPHA, Z, CTX),
}


@pytest.mark.parametrize("name", list(CASES))
def test_result_bits_ignore_caller_precision(name):
    evaluate = CASES[name]
    with mp.workdps(15):
        at_default = evaluate()
    with CTX.working(10):
        at_working = evaluate()
    assert at_default._mpc_ == at_working._mpc_
