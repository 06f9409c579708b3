"""The precision budget is decided in one module: ``hp`` names every
working-precision offset, and no other module of the package writes a
number of digits or bits where a precision is set."""
import ast
from pathlib import Path

import pytest

import zetastokes

PACKAGE = Path(zetastokes.__file__).parent
# calls that set a precision, and the functions whose ``extra`` does
SETTERS = {"working", "workdps", "workprec", "extraprec"}
EXTRA_TAKERS = {"ray_powers", "pow_ray"}


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
    ("ray_powers(a, e, ctx, extra=10)", [1]),
    ("pow_ray(a, e, ctx, 10)", [1]),
    ("with ctx.working(HEADROOM):\n    ray_powers(a, [2], ctx)", []),
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
