import contextlib
import hashlib
import io
import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import metaracah.algebra as algebra
import metaracah.eigenbases as eb
from metaracah.cli import main
from metaracah.racahpoly import RacahParams, closed_form_S
from metaracah import FParams, Params, validate_params


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
    rp = RacahParams.from_params(p, FParams(rho=Q(1, 13)))
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


def test_sweeps_are_reported(capsys):
    code, out = run(capsys, "verify", "--N", "2", "--suite", "algebra",
                    "--sweeps", "2", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    sweep_suites = [r["suite"] for r in payload["reports"]
                    if r["suite"].startswith("sweep-")]
    assert len(sweep_suites) >= 2


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
     "76e97f2714feee63dbbb88a006358b2f8d0744093f122c466500ad8377805d99"),
    ("verify --suite all --N 4 --sweeps 2 --seed 7", 0,
     "3a1c10bb0f9fea44a9b6644ef9a612f27812b2286fd2cc5310acb9b63356325c"),
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

    monkeypatch.setitem(eb.FAMILIES, "e", replace(fam, column=column))
    code, _ = run(capsys, "matrix", "--which", "basis:e", "--N", "4", "--alpha", "2/9")
    assert code == 0
    assert sorted(calls) == list(range(5))


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
])
def test_one_validation_and_one_build_per_set(capsys, monkeypatch, argv):
    # the one Context of a command validates its set once and builds each
    # family at most once
    calls = Counter()
    registry, build = algebra.genericity_registry, eb.build_basis

    def counted_registry(*args):
        calls["registry"] += 1
        return registry(*args)

    def counted_build(p, fp, label):
        calls[label] += 1
        return build(p, fp, label)

    monkeypatch.setattr(algebra, "genericity_registry", counted_registry)
    monkeypatch.setattr(eb, "build_basis", counted_build)
    code, _ = run(capsys, *argv.split())
    assert code == 0
    assert calls.pop("registry") == 1
    assert set(calls.values()) <= {1}
