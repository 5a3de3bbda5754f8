"""Differential sweep: the CLI output of two source trees, vector by vector.

Usage, from the repository root:

    python3 bench/diffsweep.py --parent REV|DIR

REV is a git revision of this repository, exported with ``git archive``;
DIR is a directory that holds a source tree under ``src``.  The change is
this checkout.  Each tree runs every argument vector of
VECTORS through ``metaracah.cli.main`` in process, in its own child
interpreter with only that tree's ``src`` on its path, so the two trees'
imports never mix.  The exit code, stdout and stderr of each vector are
compared.  The script prints both trees' commits (``gittree.commit``), the
number of vectors and of differing vectors, and the first differing vector
with both outputs; it exits 1 on any difference and 0 otherwise.

The vector list is fixed:

  * ``verify --suite S --N N`` for every nonempty subset S of the six
    suites and N = 1..6, 378 vectors; the k-th of them, counted from 0 in
    order of N and then subset, adds ``--sweeps 2 --seed k`` when
    k = 1 mod 4, ``--format csv`` when k = 2 mod 4 and ``--inject-fault``
    when k = 3 mod 4;
  * ``verify --suite model`` and ``verify --suite all`` on ten drawn sets
    each at N = 1..8, 160 vectors; ``random.Random(2026)`` draws alpha,
    beta, zeta and rho as k/q with k in -40..40, k != 0, and q in
    {3, 5, 7, 11, 13, 17, 19, 23}, and alpha is -1 in every third set, so
    some sets are refused (exit 2);
  * ``table --which W`` for the eight overlap tables and the bad name
    ``nope``, at N = 1 and 4, as JSON, as csv, and as csv with
    ``--exact --precision 5``, 54 vectors;
  * ``matrix --which W`` for X, V, Z, Xt, Vt, Zt and C, ``basis:<label>``
    for the eight families, ``coeffs:<basis>`` for e, f, d, dStar and z,
    and the bad ``basis:nope``, ``coeffs:eStar`` and ``nope``, at N = 1
    and 4, 46 vectors;
  * ``matrix --which coeffs:<basis>`` for the five bases at N = 2, 3, 5, 6,
    7 and 8, 30 vectors, so that with N = 1 and 4 above the band tables
    are compared at every N up to 8; and at N = 4 on five sets that their
    own ``random.Random(2027)`` draws as above, without alpha = -1, given
    in ``--name=value`` form, 25 vectors;
  * ``matrix --which basis:<label>`` for the eight families at N = 4 on
    the same five drawn sets, 40 vectors, so that the oracle's revalidation
    on emit runs off the default set;
  * ``matrix --which coeffs:<basis>`` for the five bases at N = 12, 16 and
    24, 15 vectors;
  * ``verify --suite all`` at N = 8, 10 and 12;
  * the usage and degenerate-parameter paths, 10 vectors: no subcommand,
    ``--N 0``, ``--suite nope``, ``--sweeps -1``, ``--alpha x``,
    ``--precision 0`` with csv and ``--precision 3`` without, an
    unwritable ``--out``, and the degenerate sets alpha = 0 and
    alpha = beta;
  * ``table --which calUtilde|Utilde|calU`` and ``matrix --which
    Z|coeffs:d``, which validate without rho, at N = 2, 3 and 4 on sets
    with 2alpha - beta = 1, 2 and 4, an integer in 1..N, where the
    registry entry (beta-2alpha+1)_n vanishes, 15 vectors.
  * the help text: ``--help``, ``verify --help``, ``table --help`` and
    ``matrix --help``, 4 vectors.

Standard library only; it imports nothing from perfbench.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import traceback

import gittree  # bench/gittree.py, on the path when this runs as a script


SUITES = ("algebra", "bases", "matrixreps", "racah", "rational", "model")
TABLES = ("racah", "S", "Stilde", "calU", "calUtilde", "U", "Utilde", "dualHahn")
LABELS = ("d", "dStar", "e", "eStar", "f", "fStar", "z", "zStar")
COEFF_BASES = ("e", "f", "d", "dStar", "z")
MATRICES = (("X", "V", "Z", "Xt", "Vt", "Zt", "C")
            + tuple(f"basis:{label}" for label in LABELS)
            + tuple(f"coeffs:{basis}" for basis in COEFF_BASES)
            + ("basis:nope", "coeffs:eStar", "nope"))
NUMERATORS = tuple(k for k in range(-40, 41) if k != 0)
DENOMINATORS = (3, 5, 7, 11, 13, 17, 19, 23)


def _subset_vectors() -> list:
    extras = ([], ["--sweeps", "2", "--seed"], ["--format", "csv"], ["--inject-fault"])
    subsets = [combo for size in range(1, len(SUITES) + 1)
               for combo in itertools.combinations(SUITES, size)]
    out = []
    for k, (N, subset) in enumerate(itertools.product(range(1, 7), subsets)):
        extra = extras[k % 4] + ([str(k)] if k % 4 == 1 else [])
        out.append(["verify", "--suite", ",".join(subset), "--N", str(N), *extra])
    return out


def _drawn_vectors() -> list:
    rng = random.Random(2026)
    out = []
    for N in range(1, 9):
        for i in range(20):
            alpha, beta, zeta, rho = (f"{rng.choice(NUMERATORS)}/{rng.choice(DENOMINATORS)}"
                                      for _ in range(4))
            if i % 3 == 0:
                alpha = "-1"
            # --name=value, as the CLI before negative p/q were read as values
            # took a separate "-40/7" for an option
            out.append(["verify", "--suite", "model" if i % 2 else "all", "--N", str(N),
                        f"--alpha={alpha}", f"--beta={beta}", f"--zeta={zeta}", f"--rho={rho}"])
    return out


def _emit_vectors() -> list:
    formats = ([], ["--format", "csv"], ["--format", "csv", "--exact", "--precision", "5"])
    return ([["table", "--which", which, "--N", str(N), *fmt]
             for which in TABLES + ("nope",) for N in (1, 4) for fmt in formats]
            + [["matrix", "--which", which, "--N", str(N)] for which in MATRICES for N in (1, 4)])


def _coeffs_vectors() -> list:
    rng = random.Random(2027)
    sets = [[f"--{name}={rng.choice(NUMERATORS)}/{rng.choice(DENOMINATORS)}"
             for name in ("alpha", "beta", "zeta", "rho")] for _ in range(5)]
    return ([["matrix", "--which", f"coeffs:{basis}", "--N", str(N)]
             for basis in COEFF_BASES for N in (2, 3, 5, 6, 7, 8)]
            + [["matrix", "--which", f"coeffs:{basis}", "--N", "4", *drawn]
               for drawn in sets for basis in COEFF_BASES]
            + [["matrix", "--which", f"basis:{label}", "--N", "4", *drawn]
               for drawn in sets for label in LABELS]
            + [["matrix", "--which", f"coeffs:{basis}", "--N", str(N)]
               for basis in COEFF_BASES for N in (12, 16, 24)])


USAGE_VECTORS = [
    [],
    ["verify", "--N", "0"],
    ["verify", "--suite", "nope"],
    ["verify", "--sweeps", "-1"],
    ["verify", "--alpha", "x"],
    ["table", "--which", "U", "--format", "csv", "--precision", "0"],
    ["table", "--which", "U", "--precision", "3"],
    ["matrix", "--which", "X", "--out", os.path.join(os.sep, "nonexistent", "out.json")],
    ["verify", "--N", "3", "--alpha", "0"],
    ["verify", "--N", "3", "--alpha", "1/5", "--beta", "1/5"],
]

REGISTRY_EDGE_VECTORS = [
    [*command, "--N", N, "--alpha=5/2", f"--beta={beta}", "--zeta=6"]
    for N, beta in (("2", "4"), ("3", "3"), ("4", "1"))
    for command in (["table", "--which", "calUtilde"], ["table", "--which", "Utilde"],
                    ["table", "--which", "calU"], ["matrix", "--which", "Z"],
                    ["matrix", "--which", "coeffs:d"])
]

VECTORS = (_subset_vectors() + _drawn_vectors() + _emit_vectors() + _coeffs_vectors()
           + [["verify", "--suite", "all", "--N", str(N)] for N in (8, 10, 12)]
           + USAGE_VECTORS + REGISTRY_EDGE_VECTORS
           + [["--help"]] + [[command, "--help"] for command in ("verify", "table", "matrix")])


def run_vectors(src: str, vectors: list) -> list:
    """[exit code, stdout, stderr] of each vector, run in this process on
    the package under src; a vector that raises records the exception as
    its stderr and None as its exit code."""
    sys.path.insert(0, src)
    from metaracah import cli

    results = []
    for argv in vectors:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is an outcome to compare, not a sweep failure
                code = None
                err.write("".join(traceback.format_exception_only(exc)))
        results.append([code, out.getvalue(), err.getvalue()])
    return results


def _outcomes(tree: str, vectors: list) -> list:
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONPATH", "METARACAH_OUT")}
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--run", os.path.join(tree, "src")],
        input=json.dumps(vectors), capture_output=True, text=True, env=env, check=True)
    return json.loads(child.stdout)


def _show(name: str, parent: str, change: str) -> str:
    if parent == change:
        return ""
    diff = "".join(difflib.unified_diff(parent.splitlines(True), change.splitlines(True),
                                        f"parent {name}", f"change {name}"))
    return diff if diff.endswith("\n") else diff + "\n"


def sweep(parent: str, change: str, vectors: list) -> int:
    """Compare the two trees over vectors and print the result; 1 when
    any vector differs, else 0."""
    before, after = _outcomes(parent, vectors), _outcomes(change, vectors)
    differing = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
    print(f"{len(vectors)} vectors, {len(differing)} differ")
    if not differing:
        return 0
    i = differing[0]
    (code_a, out_a, err_a), (code_b, out_b, err_b) = before[i], after[i]
    print(f"first difference: {' '.join(vectors[i])!r}")
    print(f"exit code: parent {code_a}, change {code_b}")
    sys.stdout.write(_show("stdout", out_a, out_b) + _show("stderr", err_a, err_b))
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="git revision or directory of the parent tree")
    parser.add_argument("--run", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run:
        json.dump(run_vectors(args.run, json.load(sys.stdin)), sys.stdout)
        return 0
    if not args.parent:
        parser.error("the following arguments are required: --parent")
    with gittree.tree(args.parent) as (parent, parent_commit):
        print(f"parent {parent_commit}, change {gittree.commit(gittree.ROOT)}")
        return sweep(parent, gittree.ROOT, VECTORS)


if __name__ == "__main__":
    sys.exit(main())
