import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import metaracah
from metaracah.eigenbases import LABELS, check_orthogonality

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
    "em_zstar_closed": "per-point <e_m|z*_k>, the reference for the kept em_zstar_table",
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


def test_the_public_api_is_what_the_package_imports_from_its_modules():
    # __all__ is read off the import block of __init__.py: sorted, each name
    # once, each the object of the module it is imported from, and no
    # submodule or helper such as types.ModuleType among them
    tree = ast.parse(Path(metaracah.__file__).read_text(encoding="utf-8"))
    source = {alias.asname or alias.name: node.module for node in tree.body
              if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    public = metaracah.__all__
    assert public == sorted(set(public)) and set(public) == set(source)
    for name in public:
        value = getattr(metaracah, name)
        assert not isinstance(value, types.ModuleType), name
        assert value is getattr(importlib.import_module(f"metaracah.{source[name]}"), name), name


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


def test_frozen_fields_are_set_only_by_frozen_and_the_matrix():
    # one construction path: every value's constructor passes its fields
    # to errors.Frozen.__init__, and copies and pickles call the
    # constructor; only RationalMatrix sets its lazily written forms
    found = sorted({
        (path.name, getattr(top, "name", None))
        for path in SOURCES
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    })
    assert found == [("errors.py", "Frozen"), ("matrices.py", "RationalMatrix")], found


def test_overlap_grids_are_built_only_by_a_context():
    # every (N+1) x (N+1) overlap table is an entry of Context.grid, built
    # once per set by its GRIDS builder; a suite or command that called the
    # builder itself would hold a private copy of a grid the Context
    # already shares, so GRIDS[...] is called there and nowhere else
    found = []
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Subscript)
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "GRIDS"):
                    found.append((path.name, getattr(top, "name", None)))
    assert found == [("eigenbases.py", "Context")], found


# the functions that may construct a VerificationReport: each suite entry
# point whose report reaches the output, the two public standalone checks
# (acceptance criterion 11 reads hahn_limit_check, and the benchmark tracer
# wraps dual_hahn_expansion), and the report of a skipped sweep in
# cmd_verify; every other part of a suite adds its checks to the report it
# is given, so no report is built only for its checks to be copied
REPORT_BUILDERS = [
    ("algebra.py", "check_casimir_central"),
    ("algebra.py", "check_defining_relations"),
    ("algebra.py", "check_subalgebras"),
    ("cli.py", "cmd_verify"),
    ("diffmodel.py", "verify_model"),
    ("eigenbases.py", "check_orthogonality"),
    ("matrixreps.py", "verify_coefficients"),
    ("matrixreps.py", "verify_leonard_trio"),
    ("racahpoly.py", "verify_racah"),
    ("rationalfns.py", "dual_hahn_expansion"),
    ("rationalfns.py", "hahn_limit_check"),
    ("rationalfns.py", "verify_rational"),
]


def test_reports_are_built_only_where_they_reach_the_output():
    found = sorted(
        (path.name, getattr(top, "name", None))
        for path in SOURCES
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "VerificationReport"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "VerificationReport")
    )
    assert found == REPORT_BUILDERS, found


CONTEXT_STORES = {"_kept", "_bases", "_grids", "_matrices", "_bands"}


def test_only_the_context_reads_its_store():
    # a Context keeps every derived table through Context.keep, so what is
    # kept, and for how long, is decided in eigenbases.py alone; a module
    # that reached into the store would hold a second get-or-build
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES if path.name != "eigenbases.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in CONTEXT_STORES
    ]
    assert SOURCES and not found, found


OPERATORS = ("Z", "V", "X", "Zt", "Vt", "Xt", "I", "Vtilde", "C", "W")


def test_the_context_keeps_its_operators_in_its_one_store():
    # each operator attribute reads Context.keep under ("operator", name),
    # so a fault is planted in an operator as in any kept table; a
    # cached_property would hold the operators in a second store
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if "cached_property" in (getattr(node, "id", None), getattr(node, "attr", None),
                                 getattr(node, "name", None))
    ]
    assert SOURCES and not found, found
    attributes = {name for name, value in vars(metaracah.Context).items()
                  if isinstance(value, property)}
    assert attributes == set(OPERATORS), attributes
    p = metaracah.Params(N=2, alpha=Fraction(1, 3), beta=Fraction(1, 5), zeta=Fraction(1, 7))
    ctx = metaracah.Context(p, Fraction(1, 13))
    planted = {name: object() for name in OPERATORS}
    for name, value in planted.items():
        ctx.keep(("operator", name), lambda value=value: value)
    assert {name: getattr(ctx, name) for name in OPERATORS} == planted


def test_arguments_become_fractions_only_through_exact():
    # errors.exact is the one reading of an argument as a Fraction, so a
    # float raises TypeError at every entry; Fraction(x) or Q(x) on a name,
    # an item or an attribute elsewhere would read it as its binary
    # expansion.  Literals such as Q(-N) or Q(1, 3) build a number instead
    found = []
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if path.name == "errors.py" and getattr(top, "name", None) == "exact":
                continue
            found += [
                f"{path.name}:{node.lineno}"
                for node in ast.walk(top)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("Fraction", "Q") and len(node.args) == 1
                and not node.keywords
                and isinstance(node.args[0], (ast.Name, ast.Subscript, ast.Attribute))
            ]
    assert SOURCES and not found, found


def test_no_module_imports_dataclasses():
    # every CLI op is a fresh interpreter; the records are plain classes,
    # so no import pays for dataclasses (and the inspect it pulls in) or
    # for generating methods at class creation
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses"
                                                for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"
    ]
    assert SOURCES and not found, found


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(metaracah.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    code = ("import metaracah.cli, sys; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]", out


def _is_order_N(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "N"
            or isinstance(node, ast.Attribute) and node.attr == "N")


def test_the_cli_defines_no_exception_class():
    # a command that fails returns its exit code and message to main, so
    # no failure is raised and caught inside cli.py
    from metaracah import cli
    own = [name for name, obj in vars(cli).items()
           if isinstance(obj, type) and obj.__module__ == cli.__name__
           and issubclass(obj, BaseException)]
    assert own == [], own


def test_each_parameter_rule_is_stated_in_one_module():
    # errors.py alone refuses an order N below 1 (the --N usage check of
    # cli.main exits 3 before any Params is built) and alone raises the
    # missing-rho refusal, each caller passing its message to read_rho;
    # cli.py adds no check to a report but the skipped-sweep entry, since
    # each suite's checks are built by the module that owns the suite
    orders, rho_raises, rho_messages, cli_checks = [], [], [], []
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = (path.name, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Compare) and any(
                        isinstance(op, (ast.Lt, ast.GtE)) for op in node.ops) and any(
                        _is_order_N(side) for side in [node.left, *node.comparators]) and any(
                        isinstance(side, ast.Constant) and side.value == 1
                        for side in [node.left, *node.comparators]):
                    orders.append(owner)
                elif isinstance(node, ast.Raise) and "rho" in ast.unparse(node):
                    rho_raises.append(owner)
                elif isinstance(node, ast.Call) and any(
                        isinstance(arg, (ast.Constant, ast.JoinedStr))
                        and re.search(r"needs? rho$", ast.unparse(arg).strip("'\""))
                        for arg in node.args):
                    rho_messages.append((*owner, ast.unparse(node.func)))
                elif (path.name == "cli.py" and isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("add", "add_grid", "add_skipped")):
                    cli_checks.append((owner[1], node.func.attr))
    assert sorted(orders) == [("cli.py", "main"), ("errors.py", "require_indices")], orders
    assert rho_raises == [], rho_raises
    assert {func for *_, func in rho_messages} == {"read_rho"} and len(rho_messages) == 5, \
        rho_messages
    assert cli_checks == [("cmd_verify", "add_skipped")], cli_checks


def test_only_information_records_pass_whatever_they_find():
    # every identity is decided by add_grid on its residual, or by add on a
    # verdict it computes; add with the verdict True records information: the
    # signs of the Racah weights and norms, and whether a weighted model Gram
    # is the identity without its weight.  gram-U-dual, the square converse
    # of gram-U, is decided by add_grid on gram-U's residual where it is zero
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add"):
                continue
            verdict = node.args[2:3] + [k.value for k in node.keywords if k.arg == "ok"]
            if any(isinstance(v, ast.Constant) and v.value is True for v in verdict):
                found.append((path.name, ast.unparse(node.args[0])))
    assert sorted(found) == [("diffmodel.py", "f'gram-{label}-no-{w}'"),
                             ("racahpoly.py", "'norm-signs'"),
                             ("racahpoly.py", "'weight-signs'")], found


def test_completeness_of_e_f_and_z_forms_no_product(ctx3, products):
    # with the bases and dual sides built, the bases suite forms the four
    # Gram products (b*)^T (B b) and no other: each completeness check reads
    # the same two square factors, B b and (b*)^T, so the Gram's zero
    # residual decides it, for d, whose B b is Z d, as for e, f and z
    for label in LABELS:
        ctx3.dual_side(label)
    products.clear()
    assert check_orthogonality(ctx3).passed
    assert len(products) == 4
