import contextlib
import decimal
import errno
import hashlib
import io
import json
import os
from collections import Counter
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import metaracah
import metaracah.algebra as algebra
import metaracah.cli as cli
import metaracah.eigenbases as eb
import metaracah.matrices as matrices
import metaracah.racahpoly as racahpoly
import metaracah.rationalfns as rationalfns
import metaracah.report as report
from metaracah.cli import main
from metaracah.errors import NondegenerateSpectrumViolated
from metaracah.racahpoly import RacahParams, closed_form_S
from metaracah import Params, validate_params


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_passes_on_defaults(capsys):
    code, out = run(capsys, "verify", "--N", "3", "--suite", "algebra")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["skipped_sweeps"] == 0
    suites = [r["suite"] for r in payload["reports"]]
    assert "algebra:relations" in suites


def test_verify_is_byte_deterministic(capsys):
    argv = ("verify", "--N", "3", "--suite", "racah", "--sweeps", "1", "--seed", "11")
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_every_suite_reports_the_same_check_ids_at_every_order():
    # at the default parameters the nine reports hold 111 checks, no report
    # names an id twice, and no check appears or goes with N
    id_sets = set()
    for N in range(1, 7):
        reports = cli.run_suites(Params(N=N, alpha=Q(1, 3), beta=Q(1, 5), zeta=Q(1, 7)),
                                 Q(1, 13), cli.SUITES)
        assert len(reports) == 9 and sum(len(rep.checks) for rep in reports) == 111
        ids = {rep.suite: [c.id for c in rep.checks] for rep in reports}
        assert all(len(set(listed)) == len(listed) for listed in ids.values()), N
        id_sets.add(tuple((suite, frozenset(listed)) for suite, listed in ids.items()))
    assert len(id_sets) == 1


def test_verify_exit_codes(capsys):
    # integer alpha degenerates the representation: exit 2
    code, out = run(capsys, "verify", "--N", "3", "--alpha", "1", "--suite", "algebra")
    assert code == 2
    assert json.loads(out)["error"] == "degenerate-parameters"

    # injected fault must surface as exit 1 with a located failure
    code, out = run(capsys, "verify", "--N", "3", "--suite", "algebra",
                    "--inject-fault")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    failing = [
        c for r in payload["reports"] for c in r["checks"] if c["status"] == "fail"
    ]
    assert failing and all("(" in c["detail"] for c in failing)


def test_a_sweep_without_a_generic_draw_is_reported_as_skipped(capsys, monkeypatch):
    # with no resample allowed every sweep runs out of budget: the run still
    # passes, and each sweep is one skipped-degenerate report of its own
    monkeypatch.setattr(cli, "MAX_RESAMPLES", 0)
    argv = ("verify", "--suite", "algebra", "--N", "2", "--sweeps", "2")
    code, out = run(capsys, *argv)
    payload = json.loads(out)
    assert (code, payload["status"], payload["skipped_sweeps"]) == (0, "pass", 2)
    skipped = [r for r in payload["reports"] if r["suite"].startswith("sweep")]
    assert skipped == [{"suite": f"sweep-{i}", "params": {"N": "2"}, "checks": [{
        "id": "sweep", "status": "skipped-degenerate",
        "statement": "no nondegenerate parameters found within budget", "detail": ""}]}
        for i in range(2)]
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("sweep")] == [
        "sweep-0,sweep,skipped-degenerate,", "sweep-1,sweep,skipped-degenerate,"]


@pytest.mark.parametrize("suite", ["", "algebra,"])
def test_an_empty_suite_name_is_a_usage_error(capsys, suite):
    # an empty entry names no suite, so it is unknown
    assert main(["verify", "--suite", suite, "--N", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "metaracah: unknown suite(s): ''\n"


@pytest.mark.parametrize("suite", ["all,algebra", " all", "model, all "])
def test_an_all_entry_selects_every_suite(capsys, suite):
    # each entry is stripped, and an "all" entry selects every suite
    assert main(["verify", "--suite", suite, "--N", "2"]) == 0
    out = capsys.readouterr().out
    assert main(["verify", "--N", "2"]) == 0
    assert out == capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    "matrix --which X --N 2 --format csv",
    "matrix --which X --N 2 --format json",
    "matrix --which X --N 2 --precision 6",
    "verify --N 2 --precision 6",
])
def test_an_option_the_command_does_not_read_is_a_usage_error(capsys, argv):
    # --format is registered on verify and table, --precision on table only
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: {' '.join(argv.split()[-2:])}\n" in captured.err


@pytest.mark.parametrize("argv, flag", [
    ("table --which S --N 2 --precision 3", "--precision"),
    ("table --which racah --N 2 --exact", "--exact"),
    ("table --which U --N 2 --format json --precision 12", "--precision"),
    ("table --which S --N 2 --exact --precision 3", "--precision"),
])
def test_a_csv_option_without_csv_is_a_usage_error(capsys, argv, flag):
    # json carries exact rationals, so --precision and --exact would be
    # read by nothing
    assert main(argv.split()) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"metaracah: {flag} applies only to --format csv\n"


def test_csv_precision_defaults_to_twelve_digits(capsys):
    code, out = run(capsys, "table", "--which", "S", "--N", "2", "--format", "csv")
    assert code == 0
    assert out == run(capsys, "table", "--which", "S", "--N", "2", "--format", "csv",
                      "--precision", "12")[1]
    assert out != run(capsys, "table", "--which", "S", "--N", "2", "--format", "csv",
                      "--precision", "11")[1]


@pytest.mark.parametrize("argv, message", [
    ("verify --N 2 --sweeps -1", "--sweeps must be >= 0"),
    ("table --which S --N 2 --precision 0", "--precision must be >= 1"),
    # above decimal.MAX_PREC the decimal module refuses the precision itself
    ("table --which S --N 2 --format csv --precision 1000000000000000000",
     f"--precision must be <= {decimal.MAX_PREC}"),
    ("table --which S --N 2 --format csv --precision 10000000000000000000",
     f"--precision must be <= {decimal.MAX_PREC}"),
])
def test_an_out_of_range_count_names_only_its_own_option(capsys, argv, message):
    assert main(argv.split()) == 3
    assert capsys.readouterr().err == f"metaracah: {message}\n"


@pytest.mark.parametrize("argv, message", [
    ("matrix --which coeffs:eStar --N 3", "no coefficient table for 'coeffs:eStar'"),
    ("matrix --which basis:nope --N 3", "unknown basis label in 'basis:nope'"),
    ("matrix --which nope --N 3", "unknown matrix selector 'nope'"),
    ("verify --N 0", "--N must be at least 1"),
    # main checks the --N every command reads before cmd_verify checks --suite
    ("verify --N 0 --suite nosuch", "--N must be at least 1"),
])
def test_a_selector_or_order_outside_the_domain_is_a_usage_error(capsys, argv, message):
    # refused before any Context is built, on stderr alone
    assert main(argv.split()) == 3
    assert capsys.readouterr() == ("", f"metaracah: {message}\n")


def test_usage_errors_exit_three(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--no-such-flag"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["table", "--which", "nonsense"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--alpha", "not-a-number"])
    assert exc.value.code == 3
    assert main(["verify", "--suite", "nosuch"]) == 3
    assert main(["matrix", "--which", "basis:q"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("option", ["--alpha", "--beta", "--zeta", "--rho"])
def test_a_negative_rational_may_follow_its_option_as_a_separate_argument(capsys, option):
    # argparse itself reads only -1 and -1.5 as values; Parser widens its
    # private negative-number pattern to every dash before a digit or
    # before a point and a digit, which this test guards on the installed
    # Python: rational() then accepts the value or refuses it
    argv = ["verify", "--suite", "algebra,matrixreps", "--N", "3"]
    assert run(capsys, *argv, option, "-2/7") == run(capsys, *argv, f"{option}=-2/7")
    assert run(capsys, *argv, option, "-2/7")[0] == 0
    assert run(capsys, "matrix", "--which", "Z", "--N", "2", "--alpha", "-1.5") == run(
        capsys, "matrix", "--which", "Z", "--N", "2", "--alpha=-3/2")
    table = ["table", "--which", "calU", "--N", "2"]
    for value in ("-1e-1", "-2.", "-1_0/3", "-.5", "-2/7", "-1.5"):
        separate = run(capsys, *table, option, value)
        assert separate == run(capsys, *table, f"{option}={value}") and separate[0] != 3
    for value, message in (("-x", "expected one argument"), ("-5abc", "not a rational"),
                           ("-1/0", "not a rational")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, option, value])
        assert exc.value.code == 3
        assert message in capsys.readouterr().err


def test_table_trivial_edges(capsys):
    code, out = run(capsys, "table", "--which", "calU", "--N", "4",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,n,value"
    cells = {}
    for line in lines[1:]:
        m, n, value = line.split(",")
        cells[(int(m), int(n))] = value
    assert all(cells[(0, n)] == "1" for n in range(5))
    assert all(cells[(m, 0)] == "1" for m in range(5))


def test_table_exact_column(capsys):
    code, out = run(capsys, "table", "--which", "U", "--N", "2",
                    "--format", "csv", "--precision", "6", "--exact")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,n,value,exact"
    # exact column round-trips as a Fraction
    for line in lines[1:]:
        exact = line.split(",")[3]
        Q(exact)


def test_table_json_matches_closed_form(capsys):
    code, out = run(capsys, "table", "--which", "S", "--N", "3")
    assert code == 0
    payload = json.loads(out)
    p = Params(N=3, alpha=Q(1, 3), beta=Q(1, 5), zeta=Q(1, 7))
    rp = RacahParams.from_params(p, Q(1, 13))
    for m in range(4):
        for n in range(4):
            assert Q(payload["grid"][m][n]) == closed_form_S(m, n, rp)


def test_matrix_example(capsys):
    code, out = run(capsys, "matrix", "--which", "Z", "--N", "1",
                    "--alpha", "1/3")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [["-1/3", "0"], ["1", "2/3"]]


def test_matrix_basis_and_coeffs(capsys):
    code, out = run(capsys, "matrix", "--which", "basis:e", "--N", "3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 4
    assert len(payload["eigenvalues"]) == 4

    code, out = run(capsys, "matrix", "--which", "coeffs:e", "--N", "3")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["bands"]) == {"Z", "X"}
    assert len(payload["bands"]["Z"]["diag"]) == 4
    assert len(payload["bands"]["Z"]["sub"]) == 3


def test_output_file_honors_env_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("METARACAH_OUT", str(tmp_path))
    code = main(["table", "--which", "S", "--N", "2", "--out", "grid.json"])
    assert code == 0
    assert capsys.readouterr().out == ""
    data = json.loads((tmp_path / "grid.json").read_text())
    assert data["which"] == "S"


@pytest.mark.parametrize("env, out", [(None, "{tmp}/missing/x.json"), (None, "{tmp}"),
                                      ("{tmp}/missing", "x.json"), ("{tmp}", ".")])
def test_an_unwritable_out_is_a_usage_error(capsys, tmp_path, monkeypatch, env, out):
    # a crash writing the report is not an identity failure: exit 3, not 1
    if env is not None:
        monkeypatch.setenv("METARACAH_OUT", env.format(tmp=tmp_path))
    out = out.format(tmp=tmp_path)
    code = main(["verify", "--suite", "algebra", "--N", "2", "--out", out])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    path = os.path.join(env.format(tmp=tmp_path), out) if env else out
    reason = os.strerror(errno.ENOENT if "missing" in path else errno.EISDIR)
    assert captured.err == f"metaracah: cannot write {path}: {reason}\n"


def test_sweeps_are_reported(capsys):
    code, out = run(capsys, "verify", "--N", "2", "--suite", "algebra",
                    "--sweeps", "2", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    sweep_suites = [r["suite"] for r in payload["reports"]
                    if r["suite"].startswith("sweep-")]
    assert len(sweep_suites) >= 2


def test_a_sweep_set_that_fails_after_validation_exits_2(capsys, monkeypatch):
    # only a set its Context refuses is drawn again: a suite that raises
    # DegenerateParameters on a validated sweep set ends the run with exit 2
    # and its offenders, as it does on the explicit set
    explicit = Params(N=3, alpha=Q(1, 3), beta=Q(1, 5), zeta=Q(1, 7))

    def racah_suite(ctx):
        if ctx.p != explicit:
            raise metaracah.DegenerateParameters(["planted offender"])
        return []

    monkeypatch.setitem(cli.SUITE_RUNNERS, "racah", racah_suite)
    code, out = run(capsys, "verify", "--N", "3", "--suite", "racah", "--sweeps", "1")
    assert code == 2
    assert json.loads(out) == {"error": "degenerate-parameters",
                               "offenders": ["planted offender"]}


# sets that validate_params accepts and whose model once divided by the
# factor of the term after the last one: N - 2alpha - beta - 2zeta + n = 0
# in the e family, alpha + 1 = 0 in the residue window of U
@pytest.mark.parametrize("argv", [
    "verify --suite model --N 2 --alpha 1/3 --beta 17/6 --zeta 1/4",
    "verify --suite model --N 3 --alpha=-1",
])
def test_model_runs_where_only_the_unformed_ratio_vanishes(capsys, argv):
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert json.loads(out)["status"] == "pass"


# stdout sha256 and exit code of fixed invocations; a refactor must leave
# every byte as is, including the offender list of a degenerate set
PINNED_STDOUT = [
    ("verify --suite all --N 3", 0,
     "e3c72fe985b46c4a53c309e51c147825644ac1869a8bf49b4fd204998f487662"),
    ("verify --suite all --N 5", 0,
     "2ed005f89d9a7f854b01632fb01b3c2728b97f09a13fb41fe291a2f884fa0227"),
    ("verify --suite all --N 3 --sweeps 3 --seed 42", 0,
     "0350e94dcdbcb743e78a2511bea0c0fe6023fe1a37f4955a5db37b2538181d32"),
    ("verify --N 3 --format csv", 0,
     "e649de9566b54fab9e656cad27190bbeb090c0cfb715c28b68ecbcc8a4fecdb2"),
    ("table --which Stilde --N 6", 0,
     "3a028a77c9b23f77f8531b6383e3285f81d65dbc6699ed3cd616cf854e35af41"),
    ("matrix --which basis:fStar --N 6", 0,
     "a6d406771f1fc04bf5ddc2fb8d3c2d3ecd886204f95c743bcf25ecb5f00d362f"),
    ("matrix --which coeffs:e --N 4", 0,
     "37f58784f26147f44ee508143ae5361fca608bf3b4fe015bd5815890843759de"),
    ("verify --N 3 --alpha 1", 2,
     "cd49efbb1ee74ef28af167a3c869f7edabcb58e8a59a6a4ab8f599947db1acbd"),
    ("table --which S --N 3 --rho=-2/3", 2,
     "5e59271e1bd126181093b256503c021bd4a4fa3a507a5a546b10d9c9b4bc96f5"),
    ("table --which Utilde --N 12", 0,
     "7da222e3ebf016cc07780963207d22edb3b74745b47f54cbceb0f184d0f7f6d3"),
    ("matrix --which basis:eStar --N 12", 0,
     "fbcba7adea9a397f14813ec0dd4d0809df4abe2a75da3ca7df3cc7a3f7aec6fc"),
    # offenders that come only from an integer combination of fractions
    ("verify --N 4 --beta 1/2 --zeta 1/2", 2,
     "6d895f1f1f0981b58fd664532eb4c3bf475278ba02b6227360b2f90697686166"),
    ("verify --N 4 --alpha 1/2 --rho=-1", 2,
     "5e59271e1bd126181093b256503c021bd4a4fa3a507a5a546b10d9c9b4bc96f5"),
    ("table --which S --N 4 --beta 1/3 --rho 2/3", 2,
     "9d582687f3d22f73831b1d873766b92fbb0f44b91b9e48eaf011152cf6d0ab70"),
    ("verify --N 4 --alpha 1/4 --beta 1/3 --zeta 37/12", 2,
     "8194fb10db36c9f7d8a80ce8832cc09c0b9a5d510de2af8377e740e00fc42563"),
    # a set drawn as the benchmark draws them
    ("verify --suite all --N 8 --alpha=-28/3 --beta=22/17 --zeta=3/19 --rho=10/11", 0,
     "5a186067ac1bf7f7044885672d3057d32c48d910459a94a7fd6558ae80439f47"),
    # the Laurent model and a whole-column closed form at larger N
    ("verify --suite model --N 12", 0,
     "acd01d720363c08256f116bc1554e33ab237bf1ee2b5377859e65e67706e98e3"),
    ("matrix --which basis:d --N 24", 0,
     "13d27c960ecb9b5a96bb2d2954df8809dd76b983dfe4f9de67b9b4a2b8edb99b"),
    # the three overlap suites in csv, and the oracle anchored on the
    # closed-form diagonal; basis:e does not use rho, yet 2alpha + rho = 0
    # still makes it degenerate
    ("verify --suite racah,rational,model --N 6 --format csv", 0,
     "732ac2bc92234cc7810ff815ed680c73c7e6a0d49c0abc7266cb6df3750a6298"),
    ("matrix --which basis:e --N 3 --rho=-2/3", 2,
     "5e59271e1bd126181093b256503c021bd4a4fa3a507a5a546b10d9c9b4bc96f5"),
    ("matrix --which basis:fStar --N 12 --rho=-7/5", 0,
     "661ec481c8d648296e41d089571e3a39fa5ef85a04f7a6d1daabc3f9bf795249"),
    # a rho-dependent band, a calU-tilde grid, the Leonard trio's degenerate
    # control (refused at the boundary, since the CLI validates with rho),
    # the Casimir emit, fault injection and a sweep
    ("matrix --which coeffs:f --N 6", 0,
     "c25e593596b3c28f1c6a1af39e14a0d9a7c4324eee995b212bea6d720b2a4a80"),
    ("table --which calUtilde --N 6", 0,
     "663dac71d013f93781e1fa41704d1d02ee3776afd40369456fa59dbeb0aa7c90"),
    ("verify --suite matrixreps --N 5 --alpha 1/3 --beta=-1/3", 2,
     "f73da39d8f91a5864409af8890696aa559325ba6725a6531e883b6019bae555a"),
    ("matrix --which C --N 5", 0,
     "2bd4cb90799c3066001119b3c7892b8e20f7f281b6e8884e274fd5c2d3158dc0"),
    ("verify --suite algebra --N 4 --inject-fault", 1,
     "4afeeb02479a6d254e20fa608e7de95503ff18a733e24b7d0f1501928097dbbf"),
    ("verify --suite all --N 4 --sweeps 2 --seed 7", 0,
     "3a1c10bb0f9fea44a9b6644ef9a612f27812b2286fd2cc5310acb9b63356325c"),
    # grids every suite shares: dual Hahn and U tables, and the model suite
    # alone, which then builds the S, U and dual Hahn grids itself
    ("table --which dualHahn --N 8", 0,
     "3e521284641c5e2978ef9abd409d33b41c9711eb603508059d64b9823d49fc02"),
    ("table --which U --N 8", 0,
     "907a67e5f67ea75412da72fd749090fdc22b0ce83da53daada4723747407495a"),
    ("verify --suite model --N 8 --alpha=-28/3 --beta=22/17 --zeta=3/19 --rho=10/11", 0,
     "1bb7f18ae76b130e6c743e0364a8e61ad9664d200fc4bf5f07ce8a82bd2447f8"),
    # the product-backed overlap checks at a larger N, and the suites whose
    # conjugations and commutators multiply matrices at a negative set
    ("verify --suite racah,rational --N 16", 0,
     "25e7a6bde85cd7a8b0c775e9a4c6329921514105cc6be225675c0de3e9e1453f"),
    ("verify --suite bases,matrixreps,algebra --N 10 --alpha=-5/7 --beta=-7/5 --zeta=-21/3"
     " --rho=-3/23", 0,
     "0d81f721952a8b41fa0594fee5201a8482b95987fc8131bf272d2f317a25b97c"),
    # the band residuals and residue grids at a negative set and in a sweep
    ("verify --suite racah,rational,model --N 12 --alpha=-5/7 --beta=-7/5 --zeta=-21/3"
     " --rho=-3/23", 0,
     "8400c5e622dba86cad469bdc92848134457857ebd980ed82db11cc10d6206450"),
    ("verify --suite rational,model --N 9 --sweeps 2 --seed 7", 0,
     "3bf037c5076ef2809f942d7f1eb92d0aef9025f0527a5a9395b8f51b173010ad"),
    # the emit workload's size on a benchmark-drawn set: a term-table
    # overlap grid and a bidiagonal-kernel oracle at N = 24
    ("table --which Utilde --N 24 --alpha=-3/5 --beta=-38/13 --zeta=15/19 --rho=28/17", 0,
     "a4ac6325d10d5316513d2b3685c503b0ce5c90de7b17beca7903a445fe83a571"),
    ("matrix --which basis:dStar --N 24 --alpha=-3/5 --beta=-38/13 --zeta=15/19 --rho=28/17", 0,
     "827ba37b5c37db544bb2723ebc19f7dfa045534b5fd44f2e9e01e89879d21743"),
    # the coefficient tables of the pencil, adjoint and Z families, and every
    # conjugation of the matrixreps suite on a benchmark-drawn set
    ("matrix --which coeffs:d --N 8", 0,
     "4da805961f02f9074f97f3e540c8b381fd3e7627bf91142a88e7d89bc7231dde"),
    ("matrix --which coeffs:dStar --N 8", 0,
     "ff3a0e91ca09bb94a33cadd45bb1e78ec9bcd45ed8b3d2c2ea392958cd20c0ac"),
    ("matrix --which coeffs:z --N 8", 0,
     "e86eb20540e6d539965532152c77c8bb87c87971d1095180f6f12ac037fb798b"),
    ("verify --suite matrixreps --N 16 --alpha=-28/3 --beta=22/17 --zeta=3/19 --rho=10/11", 0,
     "89bce034ff46e84275dccc95729a9a10e098c7a7ffb4d09f7a70bd7e6be9c944"),
    # rho = 0 is a given rho: the f families, S grids and V-on-f bands are built
    ("verify --suite all --N 3 --rho 0", 0,
     "03ba88947c1e7fbac5a92d357d4cbefd5a98e8d89a70b4165e62345625c63858"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED_STDOUT,
                         ids=[a for a, _, _ in PINNED_STDOUT])
def test_stdout_is_pinned(capsys, argv, code, digest):
    got, out = run(capsys, *argv.split())
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_matrix_basis_builds_the_family_once(capsys, monkeypatch):
    # the oracle reads its anchors from the emitted family's diagonal
    calls = []
    fam = eb.FAMILIES["e"]

    def column(p, rho, n):
        calls.append(n)
        return fam.column(p, rho, n)

    monkeypatch.setitem(eb.FAMILIES, "e", fam._replace(column=column))
    code, _ = run(capsys, "matrix", "--which", "basis:e", "--N", "4", "--alpha", "2/9")
    assert code == 0
    assert sorted(calls) == list(range(5))


def test_an_oracle_without_a_kernel_fails_closed_vs_oracle(capsys, monkeypatch):
    # bumping Z's diagonal entry 1 moves a root of the pencils (X, Z),
    # (X + rho Z, I) and (Z, I), so each oracle finds no kernel at index 1
    # and raises; the bases suite reports a failing check that names each
    # family and its message, and the emit exits 1
    clean = eb.Context(Params(N=3, alpha=Q(1, 3), beta=Q(1, 5), zeta=Q(1, 7)), Q(1, 13))
    ctx = eb.Context(clean.p, clean.rho)
    ctx.keep(("operator", "Z"),
             lambda: clean.Z + matrices.RationalMatrix.banded(4, {0: [0, 1, 0, 0]}))
    message = "family {}, index 1: kernel dimension 0, expected 1".format
    with pytest.raises(NondegenerateSpectrumViolated, match=message("d")):
        eb.oracle_basis(ctx, "d")
    check, = [c for c in eb.check_orthogonality(ctx).checks if c.id == "closed-vs-oracle"]
    assert check.status == "fail"
    assert check.detail == "failing families: ['d', 'f', 'z']" + "".join(
        f"; oracle: {message(label)}" for label in "dfz")

    monkeypatch.setattr(cli, "_context", lambda args, needs_rho: ctx)
    code, out = run(capsys, "matrix", "--which", "basis:d", "--N", "3")
    assert (code, out) == (1, f"basis d failed revalidation on emit: {message('d')}\n")


def test_an_emitted_casimir_that_is_not_central_fails(capsys, monkeypatch):
    # C + E_00 does not commute with Z, whose entry (1, 0) is nonzero, so the
    # emit re-check refuses it and exits 1 with no payload
    clean = eb.Context(Params(N=3, alpha=Q(1, 3), beta=Q(1, 5), zeta=Q(1, 7)))
    ctx = eb.Context(clean.p)
    ctx.keep(("operator", "C"),
             lambda: clean.C + matrices.RationalMatrix.banded(4, {0: [1, 0, 0, 0]}))
    monkeypatch.setattr(cli, "_context", lambda args, needs_rho: ctx)
    assert run(capsys, "matrix", "--which", "C", "--N", "3") == (
        1, "casimir centrality failed on emit\n")


def test_a_planted_racah_operator_reaches_the_f_oracle_and_the_racah_pair():
    # the f pencil and the Racah pair (W, V) read one X + rho Z, the
    # Context's W: bumping its diagonal entry 1 leaves no kernel at index 1
    # of the f oracle and breaks both Racah relations, while f* reads the
    # transposed generators and the shifted and Hahn relations read no W
    clean = eb.Context(Params(N=3, alpha=Q(1, 3), beta=Q(1, 5), zeta=Q(1, 7)), Q(1, 13))
    ctx = eb.Context(clean.p, clean.rho)
    ctx.keep(("operator", "W"),
             lambda: clean.W + matrices.RationalMatrix.banded(4, {0: [0, 1, 0, 0]}))
    check, = [c for c in eb.check_orthogonality(ctx).checks if c.id == "closed-vs-oracle"]
    assert (check.status, check.detail) == (
        "fail", "failing families: ['f']; oracle: family f, index 1: kernel dimension 0, expected 1")
    assert [c.id for c in algebra.check_subalgebras(ctx).failures] == ["racah-1", "racah-2"]


# sets that validate_params accepted while the registry lacked the Racah-hat
# (g-a-N)_n = (beta-2alpha+1)_n and (-N-b)_n = (beta-rho+2zeta-N+1)_n, on
# which closed_form_Stilde divided by zero: the ZeroDivisionErrors of the
# 400-draw reproduction in ROADMAP.md
STILDE_POLES = [
    "--N 3 --alpha=1/3 --beta=-4/3 --zeta=2 --rho=1",
    "--N 3 --alpha=-5/2 --beta=-6 --zeta=1 --rho=-5",
    "--N 1 --alpha=-1/3 --beta=-5/3 --zeta=-1/2 --rho=-3",
    "--N 4 --alpha=-1 --beta=-6 --zeta=-2 --rho=-5/3",
    "--N 3 --alpha=-1/2 --beta=-2/3 --zeta=-2/3 --rho=-3",
    "--N 4 --alpha=-6 --beta=-2 --zeta=2/3 --rho=-2/3",
    "--N 3 --alpha=-1/3 --beta=4/3 --zeta=-1 --rho=-5/3",
    "--N 1 --alpha=-4 --beta=5 --zeta=-5/3 --rho=5/3",
    "--N 3 --alpha=1/3 --beta=-4/3 --zeta=5 --rho=5",
    "--N 3 --alpha=-3/2 --beta=-4 --zeta=5/3 --rho=1",
    "--N 2 --alpha=-5/2 --beta=-6 --zeta=-1/3 --rho=0",
    "--N 1 --alpha=4/3 --beta=5/3 --zeta=-5 --rho=-1/3",
]


@pytest.mark.parametrize("args", STILDE_POLES)
def test_stilde_poles_are_degenerate(capsys, args):
    code, out = run(capsys, "verify", *args.split())
    assert code == 2
    offenders = json.loads(out)["offenders"]
    assert any(o.startswith(("(beta-2alpha+1)_", "(beta-rho+2zeta-N+1)_")) for o in offenders)


SMALL_DENOMINATORS = sorted({Q(k, d) for k in range(-6, 7) for d in (1, 2, 3)})


@given(N=st.integers(1, 4), alpha=st.sampled_from(SMALL_DENOMINATORS),
       beta=st.sampled_from(SMALL_DENOMINATORS), zeta=st.sampled_from(SMALL_DENOMINATORS),
       rho=st.sampled_from(SMALL_DENOMINATORS))
@settings(max_examples=200, deadline=None)
def test_accepted_sets_complete_every_suite(N, alpha, beta, zeta, rho):
    # "generic" means "runs to completion": a set is refused with exit 2
    # and its own offenders, or every suite runs without raising
    offenders = validate_params(Params(N=N, alpha=alpha, beta=beta, zeta=zeta), rho)
    argv = ["verify", "--N", str(N), f"--alpha={alpha}", f"--beta={beta}",
            f"--zeta={zeta}", f"--rho={rho}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if offenders:
        assert code == 2 and json.loads(out.getvalue())["offenders"] == offenders
    else:
        assert code in (0, 1)


def test_calU_tilde_lower_parameter_is_degenerate(capsys):
    # alpha + beta + 2zeta = 1 makes the lower parameter n-alpha-beta-2zeta+1
    # of calU-tilde vanish at n = 0; it is refused before any suite runs
    code, out = run(capsys, "verify", "--N", "1", "--alpha=-2", "--beta=6",
                    "--zeta=-3/2", "--rho=-5")
    assert code == 2
    assert json.loads(out)["offenders"] == ["(0-alpha-beta-2zeta+1)_(N-0)"]


def test_contiguity_shift_need_not_be_generic(capsys):
    # the shifted set (alpha-1, beta-2, zeta+2) is degenerate here, but the
    # contiguity checks only evaluate generator formulas at it
    code, out = run(capsys, "verify", "--N", "1", "--alpha=-2", "--beta=-1",
                    "--zeta=-6", "--rho=-6")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


@pytest.mark.parametrize("argv", [
    "verify --suite all --N 3",
    "verify --suite all --N 2 --format csv",
    "table --which Stilde --N 3",
    "matrix --which basis:f --N 3",
    "matrix --which C --N 3",
    "verify --suite algebra --N 3 --inject-fault",
])
def test_one_validation_and_one_build_per_set(capsys, monkeypatch, argv):
    # the one Context of a command validates its set once and builds each
    # family at most once; the fault report reads the suites' Context
    calls = Counter()
    registry, build = algebra.genericity_registry, eb.build_basis

    def counted_registry(*args):
        calls["registry"] += 1
        return registry(*args)

    def counted_build(p, rho, label):
        calls[label] += 1
        return build(p, rho, label)

    monkeypatch.setattr(algebra, "genericity_registry", counted_registry)
    monkeypatch.setattr(eb, "build_basis", counted_build)
    code, _ = run(capsys, *argv.split())
    assert code == (1 if "--inject-fault" in argv else 0)
    assert calls.pop("registry") == 1
    assert set(calls.values()) <= {1}


def test_verify_algebra_product_count(capsys, products):
    # the relations form 7 products once per Context, kept for the shifted,
    # Hahn and Borel checks, which form no Zb, Xb, Vb or X + Z^2: the Hahn
    # pair adds 4 on the kept brackets, the Casimir 8 and its centrality 6,
    # the Racah pair 8
    assert run(capsys, "verify", "--suite", "algebra", "--N", "8")[0] == 0
    assert len(products) == 33


def test_verify_all_product_count(capsys, products):
    # the algebra checks share the Context's one Casimir (8 products) and
    # its kept defining-relation residuals and brackets (7), and the
    # conjugations on d and d* share the Context's dual sides (b*)^T W (one
    # product each for d and d*); gram-d, completeness-d, identify-Utilde
    # and the trio's Z V clause read Z d as the d* dual side transposed;
    # each commutator/anticommutator pair of the relations reads one a*b
    # and one b*a, a diagonal factor is a scaling, never a product, the
    # trio reads X where it would form Vtilde Z, and gram-U-dual and the
    # four completeness checks read the zero residual of gram-U and of
    # their Gram, the same square factors.  The e* and f* coefficient
    # checks (2 products each) and the trio's Z V clause (3) read no
    # pairing: they form their own products, each with a banded factor
    assert run(capsys, "verify", "--suite", "all", "--N", "8")[0] == 0
    assert len(products) == 118


def test_verify_all_writes_out_few_results(capsys, monkeypatch):
    # every residual matrix is checked by add_grid, which reads it off its
    # integer form, so none writes its Fraction entries; what is written out
    # is the eight grids (each once) and matrices whose entries a check or
    # the output reads; gram-U-dual is decided on gram-U's zero residual,
    # the same object, so it adds one residual and writes nothing
    written, residuals = [], []
    read = matrices.RationalMatrix.__getattr__
    add_grid = report.VerificationReport.add_grid

    def counted(self, name):
        if name == "_e":
            written.append(self)
        return read(self, name)

    def collected(self, *args, **kwargs):
        residuals.append(args[2])
        return add_grid(self, *args, **kwargs)

    monkeypatch.setattr(matrices.RationalMatrix, "__getattr__", counted)
    monkeypatch.setattr(report.VerificationReport, "add_grid", collected)
    code, _ = run(capsys, "verify", "--suite", "all", "--N", "8")
    assert code == 0
    assert len(residuals) == 82
    assert not any(r is w for r in residuals for w in written)
    assert len(written) == 8


def test_casimir_is_built_once_per_context():
    ctx = eb.Context(Params(N=3, alpha=Q(1, 3), beta=Q(1, 5), zeta=Q(1, 7)))
    C = ctx.C
    assert algebra.check_casimir_central(ctx).passed and ctx.C is C
    assert eb.Context(ctx.p).C is not C


def test_each_overlap_grid_is_built_once_per_set(capsys, monkeypatch):
    # every suite reads the overlap grids of its one Context: each GRIDS
    # table is built once per Context, as products of term tables, and no
    # suite evaluates a per-point 4F3, 3F2 or closed form (calU_general
    # serves only the Hahn limit, which runs it at three values of t);
    # Vtilde = X Z^{-1} is a substitution, not an inverse
    callees = [(racahpoly, "racah"), (racahpoly, "closed_form_S"),
               (racahpoly, "closed_form_Stilde"), (rationalfns, "dual_hahn"),
               (rationalfns, "calU_general"), (rationalfns, "closed_form_U"),
               (rationalfns, "closed_form_Utilde"), (matrices, "inverse")]
    modules = [metaracah] + [getattr(metaracah, name) for name in dir(metaracah)
                             if type(getattr(metaracah, name)) is type(metaracah)]
    calls, builds, hahn_limit = Counter(), Counter(), []

    def rebind(original, replacement):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)

    for owner, name in callees:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name, "hahn_limit_check" if hahn_limit else "elsewhere"] += 1
            return _original(*args, **kwargs)

        rebind(original, counted)
    limit = rationalfns.hahn_limit_check

    def inside_limit(*args, **kwargs):
        hahn_limit.append(1)
        try:
            return limit(*args, **kwargs)
        finally:
            hahn_limit.pop()

    rebind(limit, inside_limit)
    for name, original in eb.GRIDS.items():
        def build(ctx, _name=name, _build=original):
            builds[_name, ctx] += 1
            return _build(ctx)

        monkeypatch.setitem(eb.GRIDS, name, build)
    code, _ = run(capsys, "verify", "--suite", "all", "--N", "3", "--sweeps", "1", "--seed", "5")
    assert code == 0
    contexts = {ctx for _, ctx in builds}
    assert len(contexts) == 2
    assert builds == Counter({(name, ctx): 1 for name in eb.GRIDS for ctx in contexts})
    assert dict(calls) == {("calU_general", "hahn_limit_check"): 6}
