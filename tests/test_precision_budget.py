"""The precision budget is decided in one module: ``hp`` names every
working-precision offset, and no other module of the package writes a
number of digits or bits where a precision is set.  The extra bits of a
power with a complex exponent come from one rule, ``hp.phase_bits``: every
``extraprec`` outside ``hp`` takes its bits from a call to it.  Likewise
every memo keyed on s or an order is bounded by a constant of ``hp``: only
the memo keyed on integer indices and a context may grow without a
bound.  Arguments and decimal sizes come from ``hp`` too: no other module
reads mpmath's ``arg``, ``atan2`` or ``log10``, each of which fills a
table entry at nearly every new value and precision.  And no module reads
mpmath's ``polylog`` or ``zeta``: ``oracle`` sums both functions itself.
The digits a sum cancels are counted by one rule, ``hp.digits_lost``, from
``hp.float_log``: ``oracle``, ``expansion`` and ``stokes`` read no mpmath
``mag``.  And s is admitted by one rule, ``oracle.check_s_off_poles``: no
module compares Re s with a bound."""
import ast
from pathlib import Path

import pytest

import zetastokes

PACKAGE = Path(zetastokes.__file__).parent
# calls that set a precision, and the functions whose ``extra`` does
SETTERS = {"working", "workdps", "workprec", "extraprec"}
EXTRA_TAKERS = {"pow_ray"}


def _name(func) -> str | None:
    return getattr(func, "attr", getattr(func, "id", None))


def _literal_precisions(source: str) -> list:
    """Line numbers of the calls in source that pass an integer literal,
    alone or inside an expression, as a precision."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = _name(node.func)
        if name in SETTERS:
            args = node.args + [kw.value for kw in node.keywords]
        elif name in EXTRA_TAKERS:
            args = node.args[3:] + [kw.value for kw in node.keywords
                                    if kw.arg == "extra"]
        else:
            continue
        if any(isinstance(sub, ast.Constant) and type(sub.value) is int
               for arg in args for sub in ast.walk(arg)):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("source,lines", [
    ("with ctx.working(10):\n    pass", [1]),
    ("mp.workdps(ctx.digits + 20)", [1]),
    ("mp.extraprec(10)", [1]),
    ("pow_ray(a, e, ctx, extra=10)", [1]),
    ("pow_ray(a, e, ctx, 10)", [1]),
    ("with ctx.working(HEADROOM):\n    pow_ray(a, 2, ctx)", []),
    ("ctx.working()\nmp.workdps(SMOOTHING_DIGITS)", []),
    ("with mp.workprec(300):\n    pass", [1]),
    ("with mp.workprec(prec):\n    pass", []),
])
def test_finder_flags_literals_only(source, lines):
    assert _literal_precisions(source) == lines


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name != "hp.py"))
def test_no_precision_literal_outside_hp(module):
    assert _literal_precisions((PACKAGE / module).read_text()) == []


# the function of ``hp`` that sizes the extra bits of a power
PHASE_RULE = "phase_bits"


def _unruled_extraprecs(source: str) -> list:
    """Line numbers of the ``extraprec`` calls in source whose one argument
    is not a call to the phase rule."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _name(node.func) == "extraprec":
            args = node.args + [kw.value for kw in node.keywords]
            if not (len(args) == 1 and isinstance(args[0], ast.Call)
                    and _name(args[0].func) == PHASE_RULE):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize("source,lines", [
    ("with mp.extraprec(phase_bits(s, L)):\n    pass", []),
    ("mp.extraprec(hp.phase_bits(s - 1, math.log(k)))", []),
    ("mp.extraprec(n=phase_bits(s, L))", []),
    ("mp.extraprec(bits)", [1]),
    ("mp.extraprec(RAY_VALUE_BITS)", [1]),
    ("mp.extraprec(math.ceil(math.log2(abs(s) * L)))", [1]),
    ("mp.extraprec(phase_bits(s, L) + 2)", [1]),
    ("mp.extraprec(max(phase_bits(s, L), 1))", [1]),
    ("mp.workprec(prec)\nmp.extraprec(mp.mag(x))", [2]),
    ("phase_bits(s, L)\nmp.workdps(ctx.digits)", []),
])
def test_finder_flags_extraprec_off_the_phase_rule(source, lines):
    assert _unruled_extraprecs(source) == lines


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name != "hp.py"))
def test_extra_bits_outside_hp_come_from_the_phase_rule(module):
    assert _unruled_extraprecs((PACKAGE / module).read_text()) == []


# the memo keyed on integer indices and a context, one table per context
UNBOUNDED_ALLOWED = {"hurwitz_zeta_integer"}


def _unbounded(node) -> bool:
    """Whether the expression node makes a memo without a bound:
    ``cache`` or ``lru_cache(maxsize=None)``, with or without a module."""
    if isinstance(node, ast.Call):
        if _name(node.func) != "lru_cache":
            return False
        size = node.args[:1] + [kw.value for kw in node.keywords
                                if kw.arg == "maxsize"]
        return any(isinstance(v, ast.Constant) and v.value is None
                   for v in size)
    return _name(node) == "cache"


def _unbounded_memos(source: str) -> list:
    """Names of the functions that source memoizes without a bound, as a
    decorator or by a call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [node.name for d in node.decorator_list
                      if _unbounded(d)]
        elif isinstance(node, ast.Call) and _unbounded(node.func) \
                and node.args:
            found.append(ast.unparse(node.args[0]))
    return found


@pytest.mark.parametrize("source,names", [
    ("@cache\ndef f(): pass", ["f"]),
    ("@functools.cache\ndef f(): pass", ["f"]),
    ("@lru_cache(maxsize=None)\ndef f(): pass", ["f"]),
    ("@functools.lru_cache(None)\ndef f(): pass", ["f"]),
    ("g = cache(f)", ["f"]),
    ("g = lru_cache(maxsize=None)(f)", ["f"]),
    ("@lru_cache(maxsize=TABLES_LIMIT)\ndef f(): pass", []),
    ("@lru_cache\ndef f(): pass", []),
    ("@cached_property\ndef f(self): pass", []),
])
def test_finder_flags_unbounded_memos(source, names):
    assert _unbounded_memos(source) == names


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py")))
def test_no_unbounded_memo_keyed_on_s_or_an_order(module):
    found = _unbounded_memos((PACKAGE / module).read_text())
    assert set(found) <= UNBOUNDED_ALLOWED


# mpmath functions that fill a table entry per new argument and precision,
# and the names the package reaches mpmath by
TABLE_FILLERS = {"arg", "atan2", "log10"}
MPMATH_NAMES = {"mp", "mpmath"}


def _mpmath_reads(source: str, names) -> list:
    """Line numbers of the reads of mp.<name> or mpmath.<name> in source,
    for each of names, called or not."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and node.attr in names
            and isinstance(node.value, ast.Name)
            and node.value.id in MPMATH_NAMES]


@pytest.mark.parametrize("source,lines", [
    ("mp.arg(z)", [1]),
    ("mpmath.atan2(y, x)", [1]),
    ("lost = mp.log10(abs(ft))", [1]),
    ("with mp.workdps(30):\n    t = mp.arg(z)", [2]),
    ("f = mp.arg\nf(z)", [1]),
    ("math.atan2(y, x)\nmath.log10(x)", []),
    ("mp.log(x)\ncmath.phase(z)", []),
    ("ray.argument\nhp.float_log(ft)", []),
])
def test_finder_flags_table_filling_calls(source, lines):
    assert _mpmath_reads(source, TABLE_FILLERS) == lines


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name != "hp.py"))
def test_no_table_filling_call_outside_hp(module):
    assert _mpmath_reads((PACKAGE / module).read_text(),
                         TABLE_FILLERS) == []


# mpmath functions whose values the package sums itself: zeta(s, a) by
# ``oracle.hurwitz_zeta_direct`` and F(a, 1-s) = Li_(1-s)(q) by
# ``oracle.periodic_zeta_direct``, each checked against them in the tests
OWNED = {"polylog", "zeta"}


@pytest.mark.parametrize("source,lines", [
    ("mp.polylog(1 - s, q)", [1]),
    ("mpmath.zeta(s, a)", [1]),
    ("with mp.workdps(30):\n    f = mp.polylog(order, q)", [2]),
    ("li = mp.polylog\nli(order, q)", [1]),
    ("hurwitz_zeta_direct(s, a, ctx)\nperiodic_zeta_direct(pt, ctx)", []),
    ("oracle.zeta(s)\nmp.polyexp(s, z)", []),
])
def test_finder_flags_owned_functions(source, lines):
    assert _mpmath_reads(source, OWNED) == lines


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py")))
def test_no_library_module_reads_polylog_or_zeta(module):
    assert _mpmath_reads((PACKAGE / module).read_text(), OWNED) == []


# the binary exponent that ``hp.float_log`` reads in full, and the modules
# whose sizes and cancellation counts come from it alone
MAG = {"mag"}
MAG_FREE = ("expansion.py", "oracle.py", "stokes.py")


@pytest.mark.parametrize("source,lines", [
    ("lost = mp.mag(peak) - mp.mag(value)", [1, 1]),
    ("peak = max(map(mpmath.mag, addends))", [1]),
    ("with mp.workdps(30):\n    e = mp.mag(x)", [2]),
    ("digits_lost(value, terms)\nfloat_log(value)", []),
    ("ctx.mag(x)\nhp.mag(x)", []),
])
def test_finder_flags_mag(source, lines):
    assert _mpmath_reads(source, MAG) == lines


@pytest.mark.parametrize("module", MAG_FREE)
def test_no_mag_where_digits_are_counted(module):
    assert _mpmath_reads((PACKAGE / module).read_text(), MAG) == []


def _reads_re_s(node) -> bool:
    """Whether the expression node reads s.real, or the .real of an
    attribute s (point.s.real), anywhere inside it."""
    return any(isinstance(sub, ast.Attribute) and sub.attr == "real"
               and _name(sub.value) == "s" for sub in ast.walk(node))


def _re_s_bounds(source: str) -> list:
    """Line numbers of the comparisons in source with an operand that
    reads Re s: a bound on Re s, a second admission rule beside
    ``oracle.check_s_off_poles``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare)
            and any(map(_reads_re_s, [node.left] + node.comparators))]


@pytest.mark.parametrize("source,lines", [
    ("if s.real <= RE_S_MARGIN:\n    raise DomainError", [1]),
    ("ok = 1.1 < point.s.real", [1]),
    ("if float(s.real) > 1.1:\n    pass", [1]),
    ("x = 0 < s.real - 1 < 2", [1]),
    ("nearest = int(mp.nint(s.real))\nif nearest <= highest:\n    pass",
     []),
    ("re_s1 = float(point.s.real) - 1", []),
    ("if z.real < 0.5:\n    pass", []),
    ("if alpha.real < 0 and s.imag > 0:\n    pass", []),
])
def test_finder_flags_bounds_on_re_s(source, lines):
    assert _re_s_bounds(source) == lines


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py")))
def test_no_second_admission_rule_for_s(module):
    assert _re_s_bounds((PACKAGE / module).read_text()) == []
