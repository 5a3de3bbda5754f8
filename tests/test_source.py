import ast
import importlib
import importlib.util
from pathlib import Path

import metaracah

SOURCES = sorted(Path(metaracah.__file__).parent.glob("*.py"))


def test_library_code_has_no_assert():
    # python -O strips assert statements, so library checks must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # perfbench/tracer.py wraps these by name; a refactor that drops one
    # would break `perfbench/run.py --trace 1` without failing a suite
    wrapped = [(mod, name) for _, mod, name, _ in _load_tracer().FUNCTION_LAYERS]
    wrapped += [("hyper", "hyp_sum"), ("eigenbases", "cached_basis.cache_info"),
                ("cli", "run_suites"), ("matrices", "RationalMatrix.__mul__"),
                ("diffmodel", "LaurentPoly.__mul__")]
    missing = []
    for mod, dotted in wrapped:
        obj = importlib.import_module(f"metaracah.{mod}")
        for attr in dotted.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{mod}.{dotted}")
    assert len(wrapped) > 5 and not missing, missing
