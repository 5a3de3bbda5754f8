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


# top-level functions that only tests call, each kept as an independent
# reference for a library result
TEST_REFERENCES = {
    "hyp_sum_reference": "Fraction-by-Fraction oracle for the fraction-free hyp_sum",
    "heun_bidiagonal": "the bidiagonal slice of algebraic_heun, acceptance criterion 4",
    "z_action_on_d": "closed form of Z d_n, checked against the matrix product",
    "etilde_in_z": "expansion of Z d_n over the z family, checked by reconstruction",
}


def _names_used_by_def(tree: ast.Module) -> dict:
    """For each top-level def of the module, the names it uses; key None
    holds the names used at module level."""
    used = {}
    for node in tree.body:
        key = node.name if isinstance(node, ast.FunctionDef) else None
        names = used.setdefault(key, set())
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return used


def test_every_library_function_has_a_caller():
    # a function that only tests call is a second code path for something
    # a suite already checks; keep one, or list it above with its reason
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    uses = [(name, key, names) for name, tree in trees.items()
            for key, names in _names_used_by_def(tree).items()]
    tracer = _load_tracer()
    reached = set(metaracah.__all__) | {fname for _, _, fname, _ in tracer.FUNCTION_LAYERS}
    reached.add("hyp_sum")  # wrapped apart from FUNCTION_LAYERS
    orphans = []
    defined = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            defined.add(node.name)
            called = any(node.name in names for other, key, names in uses
                         if (other, key) != (module, node.name))
            if not (called or node.name in reached or node.name in TEST_REFERENCES):
                orphans.append(f"{module}:{node.name}")
    assert not orphans, orphans
    assert set(TEST_REFERENCES) <= defined, set(TEST_REFERENCES) - defined


def test_parameters_are_validated_only_by_a_context():
    # one genericity check per parameter set: require_generic is defined in
    # algebra.py and called only by eigenbases.Context, so every suite
    # trusts the Context it is given instead of checking again
    found = []
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                named = (isinstance(node, ast.Name) and node.id == "require_generic"
                         or isinstance(node, ast.alias) and node.name == "require_generic"
                         or isinstance(node, ast.Attribute) and node.attr == "require_generic")
                if named:
                    found.append((path.name, owner if not isinstance(top, ast.ImportFrom)
                                  else "import"))
    assert sorted(found) == [("eigenbases.py", "Context"), ("eigenbases.py", "import")], found
