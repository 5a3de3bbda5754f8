"""Traced child for one benchmark op.

Usage: python tracer.py OUT.json -- <metaracah CLI arguments>

Wraps the public functions of each metaracah layer in every module
namespace that bound them, runs ``metaracah.cli.main(argv)`` in this
process, and writes per-layer counters to OUT.json.  Stdout, stderr and
the exit code are the CLI's own, so the parent can check that tracing
does not change the output.  ``metaracah`` must be importable (the
parent puts the tree's ``src`` on PYTHONPATH); nothing under ``src`` is
edited.

A layer's self time is its span's duration minus the durations of the
traced spans it caused, so exact-arithmetic time is charged to the
innermost traced function that ran it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from fractions import Fraction

_dumps = json.dumps


class Layer:
    __slots__ = ("calls", "self_s", "incl_s", "active", "keys", "terms")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.active = 0
        self.keys = set()
        self.terms = 0

    def as_dict(self):
        return {"calls": self.calls, "self_s": self.self_s, "incl_s": self.incl_s,
                "distinct": len(self.keys), "terms": self.terms}


class Tracer:
    def __init__(self):
        self.layers = {}
        # child-span time accumulated by each open span; index 0 is the root
        self.stack = [0.0]

    def layer(self, name):
        return self.layers.setdefault(name, Layer())

    def wrap(self, name, fn, key=None, terms=None, when=None):
        """Span every call of fn under layer `name`.

        key(*args) adds to the layer's distinct-argument set, terms(*args)
        to its work count, and when(*args) false skips the span.
        """
        stats = self.layer(name)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args):
                return fn(*args, **kwargs)
            stack.append(0.0)
            stats.active += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                child = stack.pop()
                stack[-1] += d
                stats.active -= 1
                stats.calls += 1
                stats.self_s += d - child
                if not stats.active:
                    stats.incl_s += d
                if key is not None:
                    stats.keys.add(key(*args, **kwargs))
                if terms is not None:
                    stats.terms += terms(*args)

        return wrapper


def _rebind(modules, original, replacement):
    """Replace `original` in every module namespace that bound it."""
    bound = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                bound += 1
    if not bound:
        raise RuntimeError(f"{original!r} is bound in no metaracah module")


def _args_key(tag):
    return lambda *args, **kwargs: (tag, args, tuple(sorted(kwargs.items())))


# (layer, module, function name, key tag or None); key tags give the
# distinct-argument counts behind the useful_ratio metrics.
FUNCTION_LAYERS = [
    ("algebra.registry", "algebra", "genericity_registry", "registry"),
    ("algebra.generators", "algebra", "build_Z", None),
    ("algebra.generators", "algebra", "build_V", None),
    ("algebra.generators", "algebra", "build_X", None),
    ("algebra.generators", "algebra", "build_transposes", None),
    ("matrixreps.band_coeffs", "matrixreps", "coeffs_Z_on_e", "Z_on_e"),
    ("matrixreps.band_coeffs", "matrixreps", "coeffs_X_on_e", "X_on_e"),
    ("matrixreps.band_coeffs", "matrixreps", "coeffs_V_on_f", "V_on_f"),
    ("matrixreps.band_coeffs", "matrixreps", "coeffs_on_d", "on_d"),
    ("matrixreps.band_coeffs", "matrixreps", "coeffs_on_dstar", "on_dstar"),
    ("matrixreps.band_coeffs", "matrixreps", "coeffs_on_z", "on_z"),
    ("racahpoly.closed_form", "racahpoly", "closed_form_S", "S"),
    ("racahpoly.closed_form", "racahpoly", "closed_form_Stilde", "Stilde"),
    ("rationalfns.calU", "rationalfns", "calU_general", "calU"),
    ("rationalfns.dual_hahn_expansion", "rationalfns", "dual_hahn_expansion", None),
    ("hyper.pochhammer", "hyper", "pochhammer", None),
    ("eigenbases.build_basis", "eigenbases", "build_basis", None),
    ("eigenbases.cached_basis", "eigenbases", "cached_basis", None),
    ("eigenbases.oracle_basis", "eigenbases", "oracle_basis", None),
    ("matrices.nullspace", "matrices", "nullspace", None),
    ("matrices.inverse", "matrices", "inverse", None),
    ("diffmodel.model_basis", "diffmodel", "model_basis", None),
    ("cli.serialize", "cli", "_emit", None),
]


def install(tracer: Tracer):
    """Wrap every traced layer; return the cached_basis lru object."""
    import metaracah.cli as cli

    mods = {name.partition(".")[2]: mod for name, mod in sys.modules.items()
            if name == "metaracah" or name.startswith("metaracah.")}
    namespaces = list(mods.values())
    cached_basis = mods["eigenbases"].cached_basis

    for layer, mod, fname, tag in FUNCTION_LAYERS:
        original = getattr(mods[mod], fname)
        key = _args_key(tag) if tag else None
        _rebind(namespaces, original, tracer.wrap(layer, original, key=key))

    hyp_sum = mods["hyper"].hyp_sum
    _rebind(namespaces, hyp_sum, tracer.wrap(
        "hyper.hyp_sum", hyp_sum, terms=lambda series: series.termination_index + 1))

    matrix_cls = mods["matrices"].RationalMatrix
    matrix_cls.__mul__ = tracer.wrap(
        "matrices.matmul", matrix_cls.__mul__,
        when=lambda a, b: isinstance(b, matrix_cls))
    laurent_cls = mods["diffmodel"].LaurentPoly
    laurent_cls.__mul__ = tracer.wrap(
        "diffmodel.laurent_mul", laurent_cls.__mul__,
        when=lambda a, b: isinstance(b, laurent_cls))

    # serialization: the JSON encoder and exact-rational-to-text conversion
    json.dumps = tracer.wrap("cli.serialize", _dumps)
    Fraction.__str__ = tracer.wrap("cli.serialize", Fraction.__str__)

    run_suites = cli.run_suites

    def suites_one_by_one(p, fp, suites):
        reports = []
        for suite in suites:
            one = tracer.wrap(f"cli.suite.{suite}", run_suites)
            reports.extend(one(p, fp, (suite,)))
        return reports

    cli.run_suites = suites_one_by_one
    return cached_basis


def main(argv) -> int:
    out_path, sep, cli_argv = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json -- <cli args>")
    tracer = Tracer()
    cached = install(tracer)
    from metaracah.cli import main as cli_main

    try:
        return cli_main(cli_argv)
    finally:
        info = cached.cache_info()
        record = {
            "layers": {name: stats.as_dict() for name, stats in tracer.layers.items()},
            "cached_basis": {"hits": info.hits, "misses": info.misses},
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(_dumps(record, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
