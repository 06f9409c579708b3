"""The benchmark in bench/ reaches into the library by name: the tracer
rebinds the layer functions listed in ``tracer.LAYERS``, and the workload
evaluator calls top-level names of the ``zetastokes`` package.  Both are read
here from the bench sources, without importing them, so that removing or
renaming one of those names fails a test instead of a benchmark run.  So do
the exact ``upper_gamma`` path counts that ``bench/run.py --trace 1``
checks: the tracer counts them here, against the numbers read from
run.py."""
import ast
import importlib
import importlib.util
from pathlib import Path

import zetastokes
from test_expansion import _bench_workloads

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


def _run_constant(name):
    """The literal value bench/run.py assigns to name."""
    (value,) = [node.value for node in ast.walk(_tree("run.py"))
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name
                        for t in node.targets)]
    return ast.literal_eval(value)


def _upper_gamma_paths(workload, points):
    """Calls of terminant.upper_gamma by path, counted by the benchmark's
    own tracer while the workload's evaluator runs the points."""
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    evaluator = _bench_workloads().Evaluator(zetastokes, workload)
    with tracer.Tracer() as trace:
        for point in points:
            evaluator.evaluate(point)
    return {name: calls for name, calls in trace.counts().items()
            if name.startswith("terminant.upper_gamma.")}


def test_n2_point_call_structure():
    # the exact counts that the benchmark's --trace 1 self-check holds the
    # library to: a change that reroutes terminants fails here first
    wl = _bench_workloads()
    point = wl.points("sweep_n2_integer_s", wl.DEFAULT_SEED)[:1]
    assert _upper_gamma_paths("sweep_n2_integer_s", point) \
        == {"terminant.upper_gamma.recurrence":
            _run_constant("N2_RECURRENCE_PER_POINT")}


def test_grid_call_structure():
    wl = _bench_workloads()
    grid = wl.points("exactness_grid", wl.DEFAULT_SEED)
    assert _upper_gamma_paths("exactness_grid", grid) \
        == _run_constant("GRID_DEFAULT_SEED_CALLS")
