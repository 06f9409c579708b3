"""A fixed probe of the host's speed, and times rescaled by it.

The machine is shared: other tenants slow a run by up to half, for
seconds to minutes at a time, in CPU time as well as in wall time, and the
least or median of a run's own repeats does not remove a slowdown that
lasts the whole run.  So a probe runs between the timed steps: a fixed
loop of 230-bit complex arithmetic in mpmath, the kind of work the library
does.  A step's time is rescaled by ``PROBE_REF_S`` over the mean of the
probes on either side of it, which reads as seconds on a host where the
probe takes ``PROBE_REF_S``.  The probe touches no cache of mpmath or of
zetastokes, so it warms nothing the workload uses.
"""
from __future__ import annotations

import time

from mpmath import mpc, mpf, workprec

PROBE_TERMS = 250
# the probe's median time on the 2-vCPU host where the benchmark was
# defined (Python 3, mpmath's pure-Python backend)
PROBE_REF_S = 0.0045


def probe() -> float:
    """Run the probe once; return its wall time in seconds."""
    t0 = time.perf_counter()
    with workprec(230):
        x = mpc(mpf(7) / 10, mpf(3) / 10)
        term = total = mpc(1)
        for k in range(1, PROBE_TERMS):
            term = term * x / k
            total += term * term
    return time.perf_counter() - t0


def rescale(times: list, probes: list) -> list:
    """Times of consecutive steps, each rescaled by the probes before and
    after it: probes[i] ran just before times[i], probes[i + 1] just
    after."""
    if len(probes) != len(times) + 1:
        raise ValueError("need one probe before each step and one after "
                         "the last")
    return [t * 2 * PROBE_REF_S / (probes[i] + probes[i + 1])
            for i, t in enumerate(times)]
