"""Wall time of `metaracah verify --suite all` at N = 8, 16 and 32, in process.

Usage, from the repository root:

    python3 bench/scale.py --parent PARENT_CHECKOUT --out BENCH_10.json

Each source tree (this checkout, and the parent checkout when --parent is
given) is measured in a fresh interpreter per N, the trees taking turns.
Per N, three in-process runs of
``cli.main(["verify", "--suite", "all", "--N", N])`` at the default
parameters; the record keeps the minimum of the total wall time and, per
suite, of the time spent in that suite's runner.  The suites of one run
share one Context, so a suite's time includes the bases and grids it is
the first to build.  The record also holds the Python version,
``os.cpu_count()``, each run's exit code and stdout sha256 (equal on both
trees when a change keeps the output), and the largest numerator and
denominator bit lengths of the rationals in the verify output and in the
eight overlap tables at that N (`table --which <name>`), which set the
size of the integers every product and pairing multiplies.

Standard library only; it imports nothing from perfbench.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIZES = (8, 16, 32)
REPEATS = 3
TABLES = ("racah", "S", "Stilde", "calU", "calUtilde", "U", "Utilde", "dualHahn")
RATIONAL = re.compile(r"(\d+)(?:/(\d+))?")


def _bits(values) -> dict:
    values = list(values)
    return {"numerator": max((abs(v.numerator).bit_length() for v in values), default=0),
            "denominator": max((v.denominator.bit_length() for v in values), default=0)}


def _run(cli, argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def measure(src: str, N: int) -> dict:
    """Time the tree whose package lives under src at one N; runs in a child
    process."""
    sys.path.insert(0, src)
    from metaracah import cli

    runners = dict(cli.SUITE_RUNNERS)
    argv = ["verify", "--suite", "all", "--N", str(N)]
    totals, suites, outcomes = [], {name: [] for name in runners}, set()
    for _ in range(REPEATS):
        spent = {}

        def timed(name, run):
            def wrapper(ctx):
                start = time.perf_counter()
                reports = run(ctx)
                spent[name] = time.perf_counter() - start
                return reports
            return wrapper

        cli.SUITE_RUNNERS.update({name: timed(name, run) for name, run in runners.items()})
        try:
            start = time.perf_counter()
            code, text = _run(cli, argv)
            totals.append(time.perf_counter() - start)
        finally:
            cli.SUITE_RUNNERS.update(runners)
        for name, seconds in spent.items():
            suites[name].append(seconds)
        outcomes.add((code, hashlib.sha256(text.encode()).hexdigest()))
    grid_values = []
    for name in TABLES:
        _, table = _run(cli, ["table", "--which", name, "--N", str(N)])
        grid_values += [Fraction(x) for row in json.loads(table)["grid"] for x in row]
    (code, digest), = outcomes
    return {
        "total_s": round(min(totals), 4),
        "suite_s": {name: round(min(times), 4) for name, times in suites.items()},
        "exit_code": code,
        "stdout_sha256": digest,
        "max_bits_verify_output": _bits(
            Fraction(int(p), int(q or 1)) for p, q in RATIONAL.findall(text)),
        "max_bits_overlap_tables": _bits(grid_values),
    }


def _commit(tree: str) -> str:
    try:
        return subprocess.run(["git", "-C", tree, "describe", "--always", "--dirty"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="checkout of the parent commit to measure as well")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_10.json"))
    parser.add_argument("--measure", nargs=2, metavar=("SRC", "N"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure[0], int(args.measure[1]))))
        return 0

    trees = {"change": ROOT} if not args.parent else {"parent": args.parent, "change": ROOT}
    result = {
        "command": "verify --suite all --N <N>, default parameters, in process",
        "statistic": f"min of {REPEATS} runs",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "trees": {label: {"commit": _commit(tree), "by_N": {}} for label, tree in trees.items()},
    }
    # the trees alternate at each N, so a drift in machine speed hits both
    for N in SIZES:
        for label, tree in trees.items():
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--measure",
                 os.path.join(tree, "src"), str(N)],
                capture_output=True, text=True, check=True)
            result["trees"][label]["by_N"][str(N)] = json.loads(child.stdout)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
