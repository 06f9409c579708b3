import zetastokes


def test_all_names_resolve():
    # an export left in __all__ after its definition is deleted breaks
    # `from zetastokes import *` but no plain import
    missing = [name for name in zetastokes.__all__
               if not hasattr(zetastokes, name)]
    assert not missing
    assert len(set(zetastokes.__all__)) == len(zetastokes.__all__)
