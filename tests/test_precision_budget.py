"""The precision budget is decided in one module: ``hp`` names every
working-precision offset, and no other module of the package writes a
number of digits or bits where a precision is set.  The extra bits of a
power with a complex exponent come from one rule, ``hp.phase_bits``: every
``extraprec`` outside ``hp`` takes its bits from a call to it.  Likewise
every memo keyed on s or an order is bounded by a constant of ``hp``: only
the memo keyed on integer indices and a context may grow without a
bound."""
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
