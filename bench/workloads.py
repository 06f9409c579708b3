"""The benchmark's workloads: their points, made from a seed, and how each
point is evaluated through the public ``zetastokes`` API.

Points are plain JSON data (decimal strings and integers), so the worker,
the reference generator and the stored reference files describe the very
same inputs.  Seed 0 gives exactly the pinned points: the ``fig1b`` and
``fig1c`` sweeps of ``zeta sweep --reproduce`` and the 27 points of the
grid of acceptance criterion 2.  Any other seed jitters theta (sweeps) or
(arg a, |a|) (grid) within the same ranges, little enough that the work per
point stays the same.

The grid evaluates each point under one of the criterion's three plans, in
a Latin square over (s, arg a, |a|), so every plan meets every s, every
arg a and every |a|.  All three plans at every point cost 30 s per pass;
one plan per point costs 10 s, which leaves room for the repeated passes
that make the timings steady on a shared machine.
"""
from __future__ import annotations

import math
import random

DIGITS = 60
DEFAULT_SEED = 0

# theta grid of `zeta sweep --reproduce fig1b/fig1c`: the same floats
THETA_LO = 0.3 * math.pi
THETA_HI = 0.7 * math.pi
THETA_COUNT = 41
THETA_JITTER = 0.4  # in units of the grid step, so the order is kept

SWEEPS = {
    "sweep_n1_complex_s": {"n": 1, "abs_a": "8", "s": ("2", "0.5"),
                           "plan": ((25,), (24,))},
    "sweep_n2_integer_s": {"n": 2, "abs_a": "6", "s": ("2", "0"),
                           "plan": ((18, 36), (18, 37))},
}

# acceptance criterion 2: 3 s x 3 arg a x 3 |a|, and its three plans
GRID_S = (("3", "0"), ("2", "0.5"), ("1.6", "0"))
GRID_ARG_PI = (0.40, 0.50, 0.60)
GRID_ABS_A = (3.0, 6.0, 9.0)
GRID_ARG_JITTER = 0.02
GRID_ABS_JITTER = 0.25
GRID_PLANS = (((2, 2), (2, 2)), ((7, 7), (7, 7)), ((3, 9), (3, 9)))

WORKLOADS = tuple(SWEEPS) + ("exactness_grid",)


def _clamp(x, lo, hi):
    return min(max(x, lo), hi)


def points(workload: str, seed: int) -> list:
    """The workload's points for this seed, as JSON-ready dicts."""
    rng = random.Random(seed)
    jitter = seed != DEFAULT_SEED
    if workload in SWEEPS:
        step = (THETA_HI - THETA_LO) / (THETA_COUNT - 1)
        out = []
        for j in range(THETA_COUNT):
            lo = 0.0 if j == 0 else -THETA_JITTER
            hi = 0.0 if j == THETA_COUNT - 1 else THETA_JITTER
            shift = rng.uniform(lo, hi) * step if jitter else 0.0
            out.append({"j": j, "jitter": f"{shift:.9f}"})
        return out
    if workload != "exactness_grid":
        raise ValueError(f"unknown workload {workload!r}")
    out = []
    for i, s in enumerate(GRID_S):
        for j, arg_pi in enumerate(GRID_ARG_PI):
            for k, abs_a in enumerate(GRID_ABS_A):
                if jitter:
                    arg_pi_k = _clamp(arg_pi + rng.uniform(-1, 1)
                                      * GRID_ARG_JITTER,
                                      GRID_ARG_PI[0], GRID_ARG_PI[-1])
                    abs_a = _clamp(abs_a + rng.uniform(-1, 1)
                                   * GRID_ABS_JITTER,
                                   GRID_ABS_A[0], GRID_ABS_A[-1])
                else:
                    arg_pi_k = arg_pi
                out.append({"s": list(s), "arg_pi": f"{arg_pi_k:.6f}",
                            "abs_a": f"{abs_a:.6f}",
                            "plan": (i + j + k) % len(GRID_PLANS)})
    return out


class Evaluator:
    """Evaluates one workload's points with a given ``zetastokes`` package.

    ``evaluate`` returns the point's output values; it raises whatever the
    library raises.  The library is passed in, so that the functions are
    looked up at call time and a tracer that rebinds them sees every call.
    """

    def __init__(self, zs, workload: str, digits: int = DIGITS):
        from mpmath import mpc
        self.zs = zs
        self.workload = workload
        self.ctx = zs.PrecisionContext(digits=digits)
        if workload in SWEEPS:
            cfg = SWEEPS[workload]
            self.n = cfg["n"]
            self.abs_a = cfg["abs_a"]
            self.s = mpc(*cfg["s"])
            nk, nkp = cfg["plan"]
            self.plans = [zs.TruncationPlan(nk, nkp, len(nk))]
        else:
            self.plans = [zs.TruncationPlan(nk, nkp, len(nk))
                          for nk, nkp in GRID_PLANS]

    def _sweep_point(self, point: dict):
        from mpmath import mpf
        zs, ctx = self.zs, self.ctx
        # the same construction as stokes.sweep, plus the seed's jitter
        with ctx.working(10):
            theta = mpf(THETA_LO) + (mpf(THETA_HI) - mpf(THETA_LO)) \
                * point["j"] / (THETA_COUNT - 1) + mpf(point["jitter"])
            a = zs.RayComplex(mpf(self.abs_a), theta)
        return zs.ZetaPoint.create(self.s, a, ctx)

    def _grid_point(self, point: dict):
        # call under ctx.working(10), as acceptance criterion 2 does
        from mpmath import mp, mpf, mpc
        a = self.zs.RayComplex(mpf(point["abs_a"]),
                               mpf(point["arg_pi"]) * mp.pi)
        return mpc(*point["s"]), a

    def evaluate(self, point: dict) -> list:
        """The point's outputs: [S_n] for a sweep; for the grid
        [z_reference, z_improved under the point's plan]."""
        zs, ctx = self.zs, self.ctx
        if self.workload in SWEEPS:
            sample = zs.stokes_multiplier(self.n, self._sweep_point(point),
                                          ctx, plan=self.plans[0])
            if sample.error is not None:
                raise RuntimeError(f"sample error: {sample.error}")
            return [sample.exact]
        with ctx.working(10):
            s, a = self._grid_point(point)
            return [zs.z_reference(s, a, ctx),
                    zs.z_improved(s, a, self.plans[point["plan"]], ctx)]

    def reference(self, point: dict):
        """The exact value every output of the point must match: S_n for a
        sweep, Z(s, a) by direct summation for the grid."""
        if self.workload in SWEEPS:
            return self.evaluate(point)[0]
        with self.ctx.working(10):
            return self.zs.z_reference(*self._grid_point(point), self.ctx)
