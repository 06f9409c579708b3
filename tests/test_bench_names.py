"""The benchmark in bench/ reaches into the library by name: the tracer
rebinds the layer functions listed in ``tracer.LAYERS``, and the workload
evaluator calls top-level names of the ``zetastokes`` package.  Both are read
here from the bench sources, without importing them, so that removing or
renaming one of those names fails a test instead of a benchmark run."""
import ast
import importlib
from pathlib import Path

import zetastokes

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tree(name):
    return ast.parse((BENCH / name).read_text())


def test_traced_layers_resolve():
    (layers,) = [node.value for node in ast.walk(_tree("tracer.py"))
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "LAYERS"
                         for t in node.targets)]
    layers = ast.literal_eval(layers)
    assert layers
    for module, names in layers.items():
        mod = importlib.import_module(f"zetastokes.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_evaluator_names_resolve():
    (evaluator,) = [node for node in ast.walk(_tree("workloads.py"))
                    if isinstance(node, ast.ClassDef)
                    and node.name == "Evaluator"]
    # zs.<name> and self.zs.<name>
    used = {node.attr for node in ast.walk(evaluator)
            if isinstance(node, ast.Attribute)
            and (getattr(node.value, "id", None) == "zs"
                 or getattr(node.value, "attr", None) == "zs")}
    assert {"stokes_multiplier", "z_improved", "z_reference"} <= used
    missing = sorted(name for name in used if not hasattr(zetastokes, name))
    assert not missing
