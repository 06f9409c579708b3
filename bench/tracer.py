"""Outside-in tracer for the ``zetastokes`` layers.

While active, it replaces each public layer function listed in ``LAYERS``
with a timing wrapper, rebinding the name in every ``zetastokes`` module
that holds it, so internal calls such as ``expansion.a_r_coefficient ->
hp.gamma_complex`` are timed as well.  Each call is one span; its self time
is its duration minus the durations of the wrapped calls made inside it.
The program itself is not changed: on exit every name is restored.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

from zetastokes.errors import ZetaError

LAYERS = {
    "hp": ("gamma_complex", "hurwitz_zeta_integer", "pow_ray"),
    "oracle": ("hurwitz_zeta_direct", "periodic_zeta_direct",
               "f_tilde_reference", "z_reference"),
    "terminant": ("terminant", "upper_gamma"),
    "expansion": ("a_r_coefficient", "optimal_truncation", "remainder_rk",
                  "leading_blocks", "script_r_k", "z_improved"),
    "stokes": ("stokes_multiplier",),
}


def upper_gamma_path(alpha, *args, **kwargs) -> str:
    """Which of the three ``upper_gamma`` paths the order alpha takes."""
    from mpmath import mpc
    alpha = mpc(alpha)
    if alpha.imag == 0 and alpha.real == int(alpha.real):
        return "positive" if alpha.real >= 1 else "recurrence"
    return "generic"


class Stat:
    __slots__ = ("calls", "self_s", "errors", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.keys = set()


class Tracer:
    """Context manager: traces the layer functions while the block runs.

    ``stats`` maps ``<module>.<function>`` to a ``Stat``; ``upper_gamma``
    calls also count under ``terminant.upper_gamma.<path>``, without the
    distinct argument sets.
    """

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        stats, stack = self.stats, self._stack
        classify = upper_gamma_path if name == "terminant.upper_gamma" \
            else None
        stat = stats.setdefault(name, Stat())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            failed = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except ZetaError:
                failed = True
                raise
            finally:
                span = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += span
                own = span - children[0]
                targets = [stat]
                if classify is not None:
                    path = f"{name}.{classify(*args, **kwargs)}"
                    targets.append(stats.setdefault(path, Stat()))
                for st in targets:
                    st.calls += 1
                    st.self_s += own
                    st.errors += failed
                stat.keys.add((args, tuple(sorted(kwargs.items()))))
        return wrapper

    def __enter__(self):
        originals = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"zetastokes.{layer}")
            for fname in names:
                fn = getattr(module, fname)
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "zetastokes" and \
                    not modname.startswith("zetastokes."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and \
                        originals[id(value)][0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, originals[id(value)][1])
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()
        return False

    def counts(self) -> dict:
        """Current call count of every traced name."""
        return {name: st.calls for name, st in self.stats.items()}
