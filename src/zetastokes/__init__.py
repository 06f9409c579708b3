"""Exponentially improved Hurwitz zeta expansion and Stokes multipliers.

High-precision evaluation of the large-a expansion of
Z(s,a) = Gamma(s)(zeta(s,a) - a^(-s)/2 - a^(1-s)/(s-1)) with terminant
remainders that make the expansion exact, plus extraction of the Stokes
multipliers S_n(theta) of the periodic zeta function near the positive
imaginary a-axis, where two parallel Stokes lines produce a dip-shaped
double transition.
"""

from .errors import (ConvergenceError, DivergenceError, DomainError,
                     IllConditionedError, InsufficientPrecisionError,
                     PoleError, TailBoundError, ZetaError)
from .expansion import (TruncationPlan, a_r_coefficient, optimal_plan,
                        optimal_truncation, remainder_rk, script_r_k,
                        z_improved)
from .hp import (PrecisionContext, RayComplex, bernoulli_even,
                 hurwitz_zeta_integer)
from .oracle import (ZetaPoint, f_tilde_reference, hurwitz_zeta_direct,
                     periodic_zeta_direct, z_reference)
from .stokes import (MinimumResult, MultiplierSample, erf_approx,
                     find_minimum, stokes_multiplier, sweep)
from .terminant import (c_of_phi, terminant, terminant_asymptotic,
                        upper_gamma)
from .validate import ValidationReport, run_validation

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "DivergenceError", "DomainError",
    "IllConditionedError", "InsufficientPrecisionError", "PoleError",
    "TailBoundError", "ZetaError",
    "TruncationPlan", "a_r_coefficient", "optimal_plan",
    "optimal_truncation", "remainder_rk", "script_r_k", "z_improved",
    "PrecisionContext", "RayComplex", "bernoulli_even",
    "hurwitz_zeta_integer",
    "ZetaPoint", "f_tilde_reference", "hurwitz_zeta_direct",
    "periodic_zeta_direct", "z_reference",
    "MinimumResult", "MultiplierSample", "erf_approx", "find_minimum",
    "stokes_multiplier", "sweep",
    "c_of_phi", "terminant", "terminant_asymptotic", "upper_gamma",
    "ValidationReport", "run_validation",
]
