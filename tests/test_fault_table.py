"""The fault table: which wrong factor does the pipeline notice?

Each owned factor of the two extractions is multiplied by 1 + 1e-30 on its
way out, one at a time, from cold memos, at theta = pi/2 of the fig1b S_1
and fig1c S_2 sweeps at 60 digits.  A case passes where the pipeline
raises a ZetaError, or where the value moves by less than
10^-resolved_digits relative: the error then stays within what the sample
claims.  A case that is silent today, a move beyond that claim with no
error, is a strict xfail that names the move measured here; a change that
closes the gap flips it.  README's "Which check guards which factor"
gives the same table.
"""
from functools import cache
import importlib

import pytest
from mpmath import mp, mpf

from zetastokes import expansion, hp, oracle
from zetastokes.cli import REPRODUCTIONS
from zetastokes.errors import ZetaError
from zetastokes.hp import (FACTOR_EXTRA, HEADROOM, PrecisionContext,
                           RayComplex, SeriesTables)
from zetastokes.oracle import ZetaPoint
from zetastokes.stokes import stokes_multiplier

terminant = importlib.import_module("zetastokes.terminant")
CTX = PrecisionContext(60)
FAULT = mpf("1e-30")


def _off(value):
    """value, or each value of a list, times 1 + FAULT."""
    with CTX.working(HEADROOM):
        if isinstance(value, list):
            return [x * (1 + FAULT) for x in value]
        return value * (1 + FAULT)


def _method(name):
    def patch(monkeypatch):
        real = getattr(SeriesTables, name)
        monkeypatch.setattr(SeriesTables, name,
                            lambda self, *args: _off(real(self, *args)))
    return patch


def _gamma(monkeypatch):
    real = SeriesTables.__dict__["gamma"].func
    monkeypatch.setattr(SeriesTables, "gamma",
                        property(lambda self: _off(real(self))))


def _attribute(name):
    # the phases and the powers of 2 pi, taken when the owner is built
    def patch(monkeypatch):
        real = SeriesTables.__init__

        def init(self, s, ctx):
            real(self, s, ctx)
            setattr(self, name, _off(getattr(self, name)))

        monkeypatch.setattr(SeriesTables, "__init__", init)
    return patch


def _ray_q(monkeypatch):
    # q = e^(2 pi i a) of each ray, as F, the peel and the remainders read it
    real = RayComplex.q
    monkeypatch.setattr(RayComplex, "q", lambda self: _off(real(self)))


def _function(module, name, offset=None):
    # a function as the module reads it; pow_ray only at one offset
    def patch(monkeypatch):
        real = getattr(module, name)

        def call(*args, **kwargs):
            value = real(*args, **kwargs)
            hit = offset is None or kwargs.get("extra", 0) == offset
            return _off(value) if hit else value

        monkeypatch.setattr(module, name, call)
    return patch


FACTORS = {
    "signed_gamma": _method("signed_gamma"),
    "block_coefficients": _method("block_coefficients"),
    "hurwitz_tail": _method("hurwitz_tail"),
    "gamma": _gamma,
    "k_power": _method("k_power"),
    "two_pi_s": _attribute("two_pi_s"),
    "two_pi_minus_s": _attribute("two_pi_minus_s"),
    "phase_half_s": _attribute("phase_half_s"),
    "phase_minus_s": _attribute("phase_minus_s"),
    "q": _ray_q,
    "pow_ray-expansion-FACTOR_EXTRA": _function(expansion, "pow_ray",
                                                FACTOR_EXTRA),
    "pow_ray-expansion-HEADROOM": _function(expansion, "pow_ray", HEADROOM),
    "pow_ray-oracle-HEADROOM": _function(oracle, "pow_ray", HEADROOM),
    "pow_ray-terminant": _function(terminant, "pow_ray"),
    "hurwitz_zeta_integer": _function(hp, "hurwitz_zeta_integer"),
    "upper_gamma": _function(terminant, "upper_gamma"),
    "_prefactor": _function(terminant, "_prefactor"),
    "periodic_zeta_direct": _function(oracle, "periodic_zeta_direct"),
    "hurwitz_zeta_direct": _function(oracle, "hurwitz_zeta_direct"),
}

# the silent cases and the relative move of each, as measured: every
# other case raises a ZetaError or moves within the sample's claim
SILENT = {
    ("fig1b", "phase_half_s"): "5.3e-11",
    ("fig1b", "pow_ray-oracle-HEADROOM"): "3.0e-14",
    ("fig1b", "q"): "4.9e-31",
    ("fig1b", "periodic_zeta_direct"): "1.5e-30",
    ("fig1c", "signed_gamma"): "4.6e-3",
    ("fig1c", "block_coefficients"): "4.6e-3",
    ("fig1c", "gamma"): "4.6e-3",
    ("fig1c", "k_power"): "7.0e-15",
    ("fig1c", "two_pi_s"): "4.6e-3",
    ("fig1c", "two_pi_minus_s"): "4.6e-3",
    ("fig1c", "phase_half_s"): "4.0",
    ("fig1c", "phase_minus_s"): "1.3e-14",
    ("fig1c", "q"): "1.3e-14",
    ("fig1c", "pow_ray-expansion-FACTOR_EXTRA"): "4.6e-3",
    ("fig1c", "pow_ray-oracle-HEADROOM"): "4.6e-3",
    ("fig1c", "pow_ray-terminant"): "6.5e-15",
    ("fig1c", "hurwitz_zeta_integer"): "4.6e-3",
    ("fig1c", "upper_gamma"): "1.3e-14",
    ("fig1c", "_prefactor"): "1.3e-14",
    ("fig1c", "periodic_zeta_direct"): "2.0e-14",
}


def _sample(config):
    spec = REPRODUCTIONS[config]
    with CTX.working(HEADROOM):
        a = RayComplex(mpf(spec["abs_a"]), mp.pi / 2)
    point = ZetaPoint.create(spec["s"], a, CTX)
    return stokes_multiplier(spec["n"], point, CTX, plan=spec["plan"])


@cache
def _unperturbed(config):
    return _sample(config)


def _case(config, factor):
    move = SILENT.get((config, factor))
    marks = () if move is None else pytest.mark.xfail(
        strict=True, reason=f"silent: moves {move}")
    return pytest.param(config, factor, marks=marks,
                        id=f"{config}-{factor}")


@pytest.mark.parametrize("config, factor", [
    _case(config, factor) for config in ("fig1b", "fig1c")
    for factor in FACTORS])
def test_a_wrong_factor_is_caught_or_harmless(config, factor, monkeypatch,
                                              clear_caches):
    want = _unperturbed(config)
    clear_caches()
    FACTORS[factor](monkeypatch)
    try:
        got = _sample(config)
    except ZetaError:
        return
    finally:
        clear_caches()  # the owners and memos keep the perturbed values
    with CTX.working(HEADROOM):
        move = abs(got.exact / want.exact - 1)
        claim = mpf(10) ** -want.diagnostics["resolved_digits"]
    assert move < claim, f"moves {mp.nstr(move, 2)}"
