"""README.md names only what the package has: every backticked
``module.name`` whose module is a ``zetastokes`` module, and every ALL-CAPS
constant in backticks, resolves to a live attribute, so a deleted constant
or function cannot stay documented."""
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import zetastokes

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
MODULES = {info.name: importlib.import_module(f"zetastokes.{info.name}")
           for info in pkgutil.iter_modules(zetastokes.__path__)}
# capitalised words in backticks that name no constant of the package
NOT_CONSTANTS = {"PYTHONPATH"}


def _spans(text: str) -> list:
    return re.findall(r"`([^`\n]+)`", text)


def _dotted(text: str) -> list:
    """The dotted names in text's code spans that start with a module of
    the package, with or without ``zetastokes.``, as (module, attributes)."""
    found = set()
    for span in _spans(text):
        for name in re.findall(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span):
            parts = name.split(".")
            if parts[0] == "zetastokes":
                parts = parts[1:]
            if parts and parts[0] in MODULES:
                found.add((parts[0], tuple(parts[1:])))
    return sorted(found)


def _constants(text: str) -> list:
    """The words of two or more capitals, digits and underscores in text's
    code spans, outside dotted names and file names (S_1 and G_0 are
    notation, not constants)."""
    word = r"(?<![\w.])[A-Z][A-Z0-9_]*[A-Z][A-Z0-9_]*(?![\w.])"
    return sorted({name for span in _spans(text)
                   for name in re.findall(word, span)} - NOT_CONSTANTS)


@pytest.mark.parametrize("text, dotted, constants", [
    ("`hp.phase_bits(e, log_size)` and `zetastokes.cli`",
     [("cli", ()), ("hp", ("phase_bits",))], []),
    ("`mp.log`, `ctx.working(HEADROOM)`, `S_1`, `G_0`, `PYTHONPATH`",
     [], ["HEADROOM"]),
    ("`hp.SeriesTables.k_power`, `BENCH_32.json`, not code: GONE_TOO",
     [("hp", ("SeriesTables", "k_power"))], []),
])
def test_finder(text, dotted, constants):
    assert _dotted(text) == dotted
    assert _constants(text) == constants


@pytest.mark.parametrize("module, attributes", _dotted(README),
                         ids=lambda x: ".".join(x) if isinstance(x, tuple)
                         else x)
def test_dotted_name_resolves(module, attributes):
    value = MODULES[module]
    for attribute in attributes:
        value = getattr(value, attribute)


@pytest.mark.parametrize("name", _constants(README))
def test_constant_resolves(name):
    assert any(hasattr(module, name) for module in MODULES.values()), name
