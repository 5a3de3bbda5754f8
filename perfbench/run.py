"""End-to-end and per-layer benchmark of the metaracah command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0

Every op is one ``python -m metaracah.cli`` invocation in a fresh
interpreter, with the tree's ``src`` on PYTHONPATH; ops run one at a time
from this process (a closed loop with one client).  Fresh processes are
required: ``eigenbases.cached_basis`` is a process-global cache, and a
CLI user never sees it warm.  Workloads, and why each was chosen, are in
WORKLOADS.md next to this file.

``--trace 0`` runs passes of the workload (a pass is a fixed list of
ops drawn from the seed) and reports the end-to-end metrics.  The number
of passes is ``--seconds`` over the workload's nominal pass time, rounded,
so that a run takes about ``--seconds`` seconds and its op list, and with
it ``attempted`` and ``failed``, depends only on the seed and
``--seconds``, never on the machine's speed.  Times are scaled to a
reference machine speed (see calibration_s).  ``--trace 1`` runs the first pass of the seed
through tracer.py, which wraps each layer's public functions, and runs
each op again untraced right after it; it reports the per-layer metrics
and the tracing overhead (traced minus untraced time).  Its op list is
fixed by the seed, so its counts repeat exactly.

Each run writes a record (Python version, nproc, commit, seed, drawn
parameter sets, every op with its exit code and stdout sha256) to
perfbench/results/.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACER = os.path.join(HERE, "tracer.py")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(RESULTS, "tmp")

# The CLI's own sweep distribution (SWEEP_NUMERATORS / SWEEP_DENOMINATORS in
# metaracah.cli), restated here so that drawing inputs imports nothing from
# the program under test.
DENOMINATORS = (3, 5, 7, 11, 13, 17, 19, 23)
NUMERATORS = tuple(k for k in range(-40, 41) if k != 0)
PARAM_NAMES = ("alpha", "beta", "zeta", "rho")

FAMILIES = ("racah", "S", "Stilde", "calU", "calUtilde", "U", "Utilde", "dualHahn")
LABELS = ("d", "dStar", "e", "eStar", "f", "fStar", "z", "zStar")
SUITES = ("algebra", "bases", "matrixreps", "racah", "rational", "model")
# families whose m = 0 row is identically 1: an independent check on the grid
UNIT_ROW = ("racah", "calU", "calUtilde", "dualHahn")

VERIFY = (("verify", "--suite", "all"),)
# `table --which racah` validates the parameters including rho, so it is
# the op that accepts or refuses a drawn set for all sixteen.
EMIT = (tuple(("table", "--which", f) for f in FAMILIES)
        + tuple(("matrix", "--which", f"basis:{label}") for label in LABELS))


@dataclass(frozen=True)
class Workload:
    N: int
    sets_per_pass: int
    commands: tuple  # run in order on each drawn set
    pass_s: float  # nominal wall time of one pass, sets the number of passes


WORKLOADS = {
    "verify-grid": Workload(N=8, sets_per_pass=2, commands=VERIFY, pass_s=9.0),
    "verify-sweep": Workload(N=4, sets_per_pass=8, commands=VERIFY, pass_s=9.0),
    "emit": Workload(N=24, sets_per_pass=1, commands=EMIT, pass_s=11.0),
}

EXIT_OK, EXIT_FAIL, EXIT_DEGENERATE = 0, 1, 2
MAX_DRAWS = 50          # draws per set before the set counts as a failed op
SETUP_SAMPLES = 5       # taken before the ops and again after them
RUN_BUDGET_S = 170.0    # a child still running at this run age is killed
CAL_REF_S = 0.0025      # calibration kernel time that fixes the timing scale
SAMPLE_EVERY_S = 0.1    # kernel samples while a child runs


@dataclass
class OpResult:
    args: list  # the CLI arguments
    code: int
    seconds: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    trace: dict | None = None
    untraced: OpResult | None = None  # the same op run without tracing
    scale: float = 1.0  # machine-speed factor, see calibration_s
    speed: list = field(default_factory=list)  # kernel samples around the child

    @property
    def scaled_s(self) -> float:
        return self.seconds * self.scale

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


@dataclass
class Op:
    result: OpResult
    ok: bool
    correct: bool
    reason: str


@dataclass
class Pass:
    ops: list = field(default_factory=list)
    sets: list = field(default_factory=list)

    @property
    def run_s(self) -> float:
        return sum(op.result.scaled_s for op in self.ops if op.result is not None)


class Runner:
    """Spawns children one at a time; none outlives the run budget."""

    def __init__(self, started: float):
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + os.pathsep + self.env.get("PYTHONPATH", "")
        os.makedirs(WORK, exist_ok=True)
        self.scratch = os.path.join(WORK, f"op-{os.getpid()}")

    def spawn(self, argv, args=()) -> OpResult:
        remaining = RUN_BUDGET_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise RuntimeError(f"run budget of {RUN_BUDGET_S:.0f} s spent")
        out_path, err_path = self.scratch + ".out", self.scratch + ".err"
        speed = [calibration_s()]
        stop = threading.Event()

        def sample():
            while not stop.wait(SAMPLE_EVERY_S):
                speed.append(calibration_s())

        sampler = threading.Thread(target=sample)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, cwd=ROOT, env=self.env)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            sampler.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = time.perf_counter() - t0
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                stop.set()
                sampler.join()
        speed.append(calibration_s())
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        os.remove(out_path)
        os.remove(err_path)
        return OpResult(args=list(args), code=proc.returncode, seconds=seconds,
                        rss_mb=usage.ru_maxrss / 1024.0, stdout=stdout, stderr=stderr,
                        scale=CAL_REF_S / statistics.harmonic_mean(speed), speed=speed)

    def cli(self, args) -> OpResult:
        return self.spawn([sys.executable, "-m", "metaracah.cli", *args], args)

    def traced(self, args) -> OpResult:
        trace_path = self.scratch + ".trace.json"
        res = self.spawn([sys.executable, TRACER, trace_path, "--", *args], args)
        if os.path.exists(trace_path):  # absent if the child died before main
            with open(trace_path, encoding="utf-8") as fh:
                res.trace = json.load(fh)
            os.remove(trace_path)
        return res

    def setup(self) -> OpResult:
        return self.spawn([sys.executable, "-c", "import metaracah.cli"])


def calibration_s() -> float:
    """Wall time of a fixed exact-rational kernel, run in this process.

    On a 2-core VM on a shared host, each CPU was seen to switch between
    speeds up to 1.9x apart, every few seconds and independently of the
    other CPU.  So this process and its children share one CPU, and a
    thread takes a kernel sample before each child, every SAMPLE_EVERY_S
    while it runs, and after it.  The child's time is scaled by CAL_REF_S
    over the harmonic mean of the samples: 1/sample is the CPU's speed at
    that moment, so their mean is the child's mean speed even when the
    CPU switched speeds during the child.  The kernel is stdlib Fraction
    arithmetic, like the program's hot path, and no change to the program
    can alter its time.
    """
    t0 = time.perf_counter()
    total = Fraction(0)
    for n in range(1, 24):
        term = Fraction(1)
        for k in range(n):
            term *= Fraction(2 * k - 7, 3 * k + 5)
            total += term
    return time.perf_counter() - t0


# -- inputs --------------------------------------------------------------------


def draw(rng: random.Random) -> dict:
    return {name: (rng.choice(NUMERATORS), rng.choice(DENOMINATORS)) for name in PARAM_NAMES}


def param_args(params: dict) -> list:
    # `--alpha=-14/5`: the space-separated form `--alpha -14/5` is read as
    # an option by argparse and exits 3
    return [f"--{name}={p}/{q}" for name, (p, q) in params.items()]


def describe(params: dict) -> dict:
    values = {name: Fraction(p, q) for name, (p, q) in params.items()}
    bits = max(max(abs(v.numerator).bit_length(), v.denominator.bit_length())
               for v in values.values())
    return {"params": {name: str(v) for name, v in values.items()}, "max_bits": bits}


# -- output checks ---------------------------------------------------------------


def _square(rows, size) -> list:
    if not (isinstance(rows, list) and len(rows) == size
            and all(isinstance(r, list) and len(r) == size for r in rows)):
        raise ValueError(f"not a {size}x{size} grid")
    return [[Fraction(v) for v in r] for r in rows]


def check(res: OpResult, N: int) -> tuple:
    """(ok, correct, reason).  correct is False only for a wrong output;
    a crash or an unexpected exit code fails the op without one."""
    kind, which = res.args[0], res.args[2]
    if res.code not in (EXIT_OK, EXIT_FAIL):
        return False, True, f"unexpected exit code {res.code}"
    try:
        payload = json.loads(res.stdout)
    except ValueError:
        payload = None
    if res.code == EXIT_FAIL and not isinstance(payload, dict):
        tail = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
        if kind == "matrix" and b"failed revalidation" in res.stdout:
            return False, False, res.stdout.decode(errors="replace").strip()
        return False, True, f"crashed: {tail[0] if tail else 'no message'}"
    try:
        if kind == "verify":
            if payload.get("status") != "pass" or not payload.get("reports"):
                return False, False, f"verify status {payload.get('status')!r}"
        elif kind == "table":
            if payload.get("which") != which:
                raise ValueError(f"table for {payload.get('which')!r}")
            grid = _square(payload["grid"], N + 1)
            if which in UNIT_ROW and any(v != 1 for v in grid[0]):
                raise ValueError("row m=0 is not identically 1")
        else:
            _square(payload["rows"], N + 1)
            eig = [Fraction(v) for v in payload["eigenvalues"]]
            if len(eig) != N + 1 or len(set(eig)) != N + 1:
                raise ValueError("eigenvalues are not N+1 distinct rationals")
    except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
        return False, False, f"malformed output: {exc}"
    if res.code != EXIT_OK:
        return False, False, f"exit code {res.code} with a well-formed output"
    return True, True, ""


# -- passes ----------------------------------------------------------------------


def run_pass(wl: Workload, rng: random.Random, run, rejected: list) -> Pass:
    """Draw sets_per_pass accepted sets and run wl.commands on each.

    A draw the CLI refuses with exit 2 on its first command is a
    rejection: it is tallied and drawn again, and its invocation is no op.
    """
    out = Pass()
    base = ["--N", str(wl.N)]
    for _ in range(wl.sets_per_pass):
        for _ in range(MAX_DRAWS):
            params = draw(rng)
            first = run([*wl.commands[0], *base, *param_args(params)])
            if first.code != EXIT_DEGENERATE:
                break
            rejected.append(describe(params))
        else:
            out.ops.append(Op(None, False, True, f"no accepted draw in {MAX_DRAWS}"))
            continue
        out.sets.append(describe(params))
        results = [first] + [run([*cmd, *base, *param_args(params)])
                             for cmd in wl.commands[1:]]
        for res in results:
            out.ops.append(Op(res, *check(res, wl.N)))
    return out


def op_record(op: Op) -> dict:
    res = op.result
    if res is None:
        return {"ok": False, "reason": op.reason}
    return {"args": res.args, "code": res.code, "seconds": res.seconds, "scale": res.scale,
            "speed_samples": len(res.speed),
            "rss_mb": res.rss_mb, "sha256": res.digest, "out_bytes": len(res.stdout),
            "ok": op.ok, "correct": op.correct, "reason": op.reason}


# -- per-layer metrics ------------------------------------------------------------


def _ratio(num, den) -> float:
    # 0 when the layer is idle; its .calls metric is then 0 too
    return num / den if den else 0.0


def layer_metrics(traces: list) -> dict:
    tot = {}
    hits = misses = 0
    for tr in traces:
        for name, d in tr["layers"].items():
            acc = tot.setdefault(name, dict.fromkeys(d, 0))
            for k, v in d.items():
                acc[k] += v
        hits += tr["cached_basis"]["hits"]
        misses += tr["cached_basis"]["misses"]
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "distinct": 0, "terms": 0}

    def get(name):
        return tot.get(name, empty)

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for layer in ("algebra.registry", "matrixreps.band_coeffs",
                  "racahpoly.closed_form", "rationalfns.calU"):
        d = get(layer)
        put(f"{layer}.calls", d["calls"], "count")
        put(f"{layer}.self_s", d["self_s"], "s")
        put(f"{layer}.useful_ratio", _ratio(d["distinct"], d["calls"]), "ratio")
    put("algebra.generators.calls", get("algebra.generators")["calls"], "count")
    put("rationalfns.dual_hahn_expansion.s", get("rationalfns.dual_hahn_expansion")["incl_s"], "s")
    for layer in ("hyper.pochhammer", "hyper.hyp_sum", "eigenbases.oracle_basis",
                  "matrices.matmul", "matrices.nullspace", "diffmodel.laurent_mul"):
        put(f"{layer}.calls", get(layer)["calls"], "count")
        put(f"{layer}.self_s", get(layer)["self_s"], "s")
    put("hyper.hyp_sum.terms", get("hyper.hyp_sum")["terms"], "count")
    # cached_basis wraps the original build_basis, so its misses are builds
    # that a wrapper on build_basis never sees
    direct, cached = get("eigenbases.build_basis"), get("eigenbases.cached_basis")
    put("eigenbases.build_basis.calls", direct["calls"] + misses, "count")
    put("eigenbases.build_basis.self_s", direct["self_s"] + cached["self_s"], "s")
    put("eigenbases.cached_basis.calls", cached["calls"], "count")
    put("eigenbases.cached_basis.hit_ratio", _ratio(hits, hits + misses), "ratio")
    put("matrices.inverse.calls", get("matrices.inverse")["calls"], "count")
    put("diffmodel.model_basis.calls", get("diffmodel.model_basis")["calls"], "count")
    for suite in SUITES:
        put(f"cli.suite.{suite}.s", get(f"cli.suite.{suite}")["incl_s"], "s")
    put("cli.serialize_s", get("cli.serialize")["incl_s"], "s")
    return m


# -- runs ------------------------------------------------------------------------


def source_identity() -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "metaracah")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def untraced_run(wl, seed, seconds, runner) -> tuple:
    setup = [runner.setup() for _ in range(SETUP_SAMPLES)]
    rng = random.Random(seed)
    rejected = []
    # a fixed count, not a deadline: a run on a slower machine takes longer
    # but attempts the same ops, so two runs of one seed fail the same ops
    passes = [run_pass(wl, rng, runner.cli, rejected)
              for _ in range(max(1, round(seconds / wl.pass_s)))]
    setup += [runner.setup() for _ in range(SETUP_SAMPLES)]
    ops = [op for p in passes for op in p.ops]
    timed = [op.result for op in ops if op.result is not None]
    metrics = {
        "run_s": {"value": statistics.median(p.run_s for p in passes), "unit": "s"},
        "op_s.p50": {"value": statistics.median(r.scaled_s for r in timed), "unit": "s"},
        "setup_s": {"value": statistics.median(r.scaled_s for r in setup), "unit": "s"},
        "peak_rss_mb": {"value": max(r.rss_mb for r in timed), "unit": "MB"},
    }
    unscaled = {
        "run_s": statistics.median(sum(op.result.seconds for op in p.ops if op.result)
                                   for p in passes),
        "op_s.p50": statistics.median(r.seconds for r in timed),
        "setup_s": statistics.median(r.seconds for r in setup),
    }
    record = {"passes": [{"run_s": p.run_s, "sets": p.sets,
                          "ops": [op_record(op) for op in p.ops]} for p in passes],
              "rejected": rejected, "op_samples": len(timed),
              "setup_samples": [[r.seconds, r.scale] for r in setup],
              "unscaled": unscaled,
              "failed_ops": sum(not op.ok for op in ops) / len(ops)}
    return ops, metrics, record


def traced_run(wl, seed, runner) -> tuple:
    def paired(args):
        # the untraced twin runs right after the traced op, so that both see
        # the same machine load; refused draws need no twin
        res = runner.traced(args)
        if res.code != EXIT_DEGENERATE:
            res.untraced = runner.cli(args)
        return res

    rejected = []
    traced = run_pass(wl, random.Random(seed), paired, rejected)
    ops = traced.ops
    results = [op.result for op in ops if op.result is not None]
    for op in ops:
        res = op.result
        if res is not None and (res.untraced.code, res.untraced.digest) != (res.code, res.digest):
            op.ok, op.correct = False, False
            op.reason = "traced and untraced outputs differ"
    untraced_s = sum(r.untraced.scaled_s for r in results)
    metrics = layer_metrics([r.trace for r in results if r.trace])
    metrics["cli.out_bytes"] = {"value": sum(len(r.stdout) for r in results), "unit": "bytes"}
    metrics["trace.run_s"] = {"value": traced.run_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced.run_s - untraced_s, "unit": "s"}
    record = {"passes": [{"run_s": traced.run_s, "untraced_run_s": untraced_s,
                          "sets": traced.sets, "ops": [op_record(op) for op in ops],
                          "untraced_s": [r.untraced.scaled_s for r in results]}],
              "rejected": rejected, "layers_per_op": [r.trace for r in results]}
    return ops, metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "metaracah", "cli.py")):
        print(f"perfbench: no metaracah sources under {SRC}", file=sys.stderr)
        return 2

    # children inherit this one CPU, so the kernel samples taken while a
    # child runs measure the speed of the CPU it runs on (see calibration_s)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # a terminated run stops its child before exiting (see Runner.spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    runner = Runner(started)
    wl = WORKLOADS[args.workload]
    # one untimed start compiles the bytecode a installed package would have
    runner.spawn([sys.executable, "-c", "import metaracah.cli"])
    if args.trace:
        ops, metrics, record = traced_run(wl, args.seed, runner)
    else:
        ops, metrics, record = untraced_run(wl, args.seed, args.seconds, runner)

    attempted = len(ops)
    failed = sum(not op.ok for op in ops)
    correct = all(op.correct for op in ops)
    record.update({
        "workload": args.workload, "N": wl.N, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "wall_s": time.perf_counter() - started,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        **source_identity(),
        "attempted": attempted, "failed": failed, "correct": correct,
        "metrics": metrics,
    })
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for op in ops:
        if not op.ok:
            print(f"failed op: {op_record(op).get('args')} {op.reason}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
