"""Wall time of `metaracah verify --suite all` at N = 8, 16, 32, 48 and 64, and
of the sixteen emit commands at N = 24 and 48, in process; and the start-up
cost of a fresh interpreter.

Usage, from the repository root:

    python3 bench/scale.py --parent PARENT_CHECKOUT --out BENCH_21.json

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

Wall times of one tree read apart by up to 1.6x between children on a
2-core VM whose CPUs switch speeds, so each child also runs its workload
(one verify run, or one pass over the emit commands) once more, untimed,
under cProfile, and records the Python call count of that run
(``pstats.Stats.total_calls``).  The count does not depend on machine
speed: equal code gives an equal count, so it tells two trees apart where
their times cannot.

The emit commands are the `emit` workload of perfbench at the default
parameters: ``table --which <name>`` for the eight overlap tables and
``matrix --which basis:<label>`` for the eight families.  Per N, three
passes over the sixteen; the record keeps, per command, the minimum time,
exit code and stdout sha256, and the minimum pass total.

Start-up is measured in fresh interpreters, because every CLI run pays
it: ``python -c "import metaracah.cli"`` and ``python -m metaracah.cli
table --which racah --N 24``, each run with PYTHONPATH set to the tree's
``src`` only, five times per tree with the trees taking turns; the record
keeps, per command, the minimum wall time, exit code and stdout sha256.
Whether an interpreter compiles the package first depends on the
environment, so the record holds PYTHONDONTWRITEBYTECODE and, per tree,
whether its ``src/metaracah/__pycache__`` existed when the run began.

Standard library only; it imports nothing from perfbench.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import io
import json
import os
import platform
import pstats
import re
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIZES = (8, 16, 32, 48, 64)
EMIT_SIZES = (24, 48)
REPEATS = 3
TABLES = ("racah", "S", "Stilde", "calU", "calUtilde", "U", "Utilde", "dualHahn")
LABELS = ("d", "dStar", "e", "eStar", "f", "fStar", "z", "zStar")
EMIT = ([["table", "--which", name] for name in TABLES]
        + [["matrix", "--which", f"basis:{label}"] for label in LABELS])
STARTUP = (["-c", "import metaracah.cli"],
           ["-m", "metaracah.cli", "table", "--which", "racah", "--N", "24"])
STARTUP_REPEATS = 5
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


def _call_count(run) -> int:
    """The Python calls of one untimed run() under cProfile."""
    profiler = cProfile.Profile()
    profiler.runcall(run)
    return pstats.Stats(profiler).total_calls


def measure(src: str, N: int) -> dict:
    """Time the tree whose package lives under src at one N; runs in a child
    process."""
    sys.path.insert(0, src)
    from metaracah import cli

    runners = dict(cli.SUITE_RUNNERS)
    argv = ["verify", "--suite", "all", "--N", str(N)]
    totals, suites, outcomes = [], {name: [] for name in cli.SUITES}, set()
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
        "calls": _call_count(lambda: _run(cli, argv)),
        "suite_s": {name: round(min(times), 4) for name, times in suites.items()},
        "exit_code": code,
        "stdout_sha256": digest,
        "max_bits_verify_output": _bits(
            Fraction(int(p), int(q or 1)) for p, q in RATIONAL.findall(text)),
        "max_bits_overlap_tables": _bits(grid_values),
    }


def measure_emit(src: str, N: int) -> dict:
    """Time the sixteen emit commands of the tree under src at one N; runs
    in a child process."""
    sys.path.insert(0, src)
    from metaracah import cli

    times = {" ".join(argv): [] for argv in EMIT}
    totals, outcomes = [], {}
    for _ in range(REPEATS):
        total = 0.0
        for argv in EMIT:
            start = time.perf_counter()
            code, text = _run(cli, argv + ["--N", str(N)])
            spent = time.perf_counter() - start
            total += spent
            key = " ".join(argv)
            times[key].append(spent)
            outcomes.setdefault(key, set()).add(
                (code, hashlib.sha256(text.encode()).hexdigest()))
        totals.append(total)
    ops = {}
    for key, seconds in times.items():
        (code, digest), = outcomes[key]
        ops[key] = {"s": round(min(seconds), 4), "exit_code": code, "stdout_sha256": digest}
    calls = _call_count(lambda: [_run(cli, argv + ["--N", str(N)]) for argv in EMIT])
    return {"total_s": round(min(totals), 4), "calls": calls, "ops": ops}


def measure_startup(trees: dict) -> dict:
    """Time fresh interpreters running the STARTUP commands on each tree,
    the trees taking turns within each round."""
    samples = {label: {" ".join(cmd): [] for cmd in STARTUP} for label in trees}
    for _ in range(STARTUP_REPEATS):
        for cmd in STARTUP:
            for label, tree in trees.items():
                env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
                start = time.perf_counter()
                child = subprocess.run([sys.executable, *cmd], cwd=tree, env=env,
                                       capture_output=True)
                samples[label][" ".join(cmd)].append(
                    (time.perf_counter() - start, child.returncode,
                     hashlib.sha256(child.stdout).hexdigest()))
    result = {label: {} for label in trees}
    for label, by_command in samples.items():
        for key, runs in by_command.items():
            (code, digest), = {run[1:] for run in runs}
            result[label][key] = {"s": round(min(run[0] for run in runs), 4),
                                  "exit_code": code, "stdout_sha256": digest}
    return result


def _commit(tree: str) -> str:
    try:
        return subprocess.run(["git", "-C", tree, "describe", "--always", "--dirty"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="checkout of the parent commit to measure as well")
    parser.add_argument("--out", help="file to write the record to (required)")
    parser.add_argument("--measure", nargs=3, metavar=("KIND", "SRC", "N"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        kind, src, N = args.measure
        print(json.dumps((measure if kind == "verify" else measure_emit)(src, int(N))))
        return 0
    if not args.out:
        parser.error("the following arguments are required: --out")

    trees = {"change": ROOT} if not args.parent else {"parent": args.parent, "change": ROOT}
    result = {
        "command": "verify --suite all --N <N> (by_N) and the sixteen emit commands"
                   " table --which <name> / matrix --which basis:<label> --N <N> (emit_by_N),"
                   " default parameters, in process; start-up commands in fresh"
                   " interpreters (startup)",
        "statistic": f"min of {REPEATS} runs (startup: min of {STARTUP_REPEATS}); calls:"
                     " Python calls of one more, untimed run under cProfile",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "trees": {label: {"commit": _commit(tree),
                          "bytecode_cached": os.path.isdir(
                              os.path.join(tree, "src", "metaracah", "__pycache__")),
                          "by_N": {}, "emit_by_N": {}}
                  for label, tree in trees.items()},
    }
    for label, startup in measure_startup(trees).items():
        result["trees"][label]["startup"] = startup
    # the trees alternate at each N, so a drift in machine speed hits both
    for kind, key, sizes in (("verify", "by_N", SIZES), ("emit", "emit_by_N", EMIT_SIZES)):
        for N in sizes:
            for label, tree in trees.items():
                child = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--measure", kind,
                     os.path.join(tree, "src"), str(N)],
                    capture_output=True, text=True, check=True)
                result["trees"][label][key][str(N)] = json.loads(child.stdout)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
