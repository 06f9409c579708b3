import importlib
import pkgutil

import pytest

import zetastokes
from zetastokes.hp import PrecisionContext


@pytest.fixture(scope="session")
def ctx():
    """Default working precision for the whole suite."""
    return PrecisionContext(digits=60)


@pytest.fixture(scope="session")
def ctx_fast():
    """Minimum-precision context for cheap property tests."""
    return PrecisionContext(digits=30)


@pytest.fixture(scope="session")
def package_memos() -> list:
    """Every memo of the package: each module-level function of a
    ``zetastokes`` module that has a ``cache_clear``, found by walking the
    modules, so a new memo needs no list kept by hand.  The coefficient
    tables live inside such memos."""
    memos = {}
    for info in pkgutil.iter_modules(zetastokes.__path__):
        module = importlib.import_module(f"zetastokes.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                memos[id(value)] = value
    return list(memos.values())


@pytest.fixture
def clear_caches(package_memos):
    """A function that empties every memo of the package."""
    def clear():
        for memo in package_memos:
            memo.cache_clear()
    return clear
