"""The precision budget is decided in one module: ``hp`` names every
working-precision offset, and no other module of the package writes a
number of digits or bits where a precision is set.  Likewise every memo
keyed on s or an order is bounded by a constant of ``hp``: only the memo
keyed on integer indices and a context may grow without a bound."""
import ast
from pathlib import Path

import pytest

import zetastokes

PACKAGE = Path(zetastokes.__file__).parent
# calls that set a precision, and the functions whose ``extra`` does
SETTERS = {"working", "workdps", "workprec", "extraprec"}
EXTRA_TAKERS = {"pow_ray"}


def _literal_precisions(source: str) -> list:
    """Line numbers of the calls in source that pass an integer literal,
    alone or inside an expression, as a precision."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
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


# the memo keyed on integer indices and a context, one table per context
UNBOUNDED_ALLOWED = {"hurwitz_zeta_integer"}


def _unbounded(node) -> bool:
    """Whether the expression node makes a memo without a bound:
    ``cache`` or ``lru_cache(maxsize=None)``, with or without a module."""
    if isinstance(node, ast.Call):
        if getattr(node.func, "attr", getattr(node.func, "id", None)) \
                != "lru_cache":
            return False
        size = node.args[:1] + [kw.value for kw in node.keywords
                                if kw.arg == "maxsize"]
        return any(isinstance(v, ast.Constant) and v.value is None
                   for v in size)
    return getattr(node, "attr", getattr(node, "id", None)) == "cache"


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
