import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from metaracah import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def diffsweep(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return _load("diffsweep")


def test_diffsweep_vectors_are_the_documented_list(diffsweep):
    vectors = diffsweep.VECTORS
    assert len(vectors) == 378 + 160 + 54 + 46 + 30 + 25 + 40 + 15 + 3 + 10 + 15 + 4 == 780
    assert len({json.dumps(v) for v in vectors}) == len(vectors)
    assert _load("diffsweep").VECTORS == vectors  # a fixed list, drawn the same each time
    drawn = vectors[378:538]
    assert sum(v[5] == "--alpha=-1" for v in drawn) == 8 * 7


def test_diffsweep_tells_a_planted_stdout_change(diffsweep, tmp_path, capsys):
    # the tree against itself differs nowhere; a copy whose JSON indent is
    # changed differs on every JSON vector, and the first one is named
    root = str(BENCH.parent)
    vectors = [["verify", "--suite", "algebra", "--N", "1", "--format", "csv"],
               ["verify", "--suite", "rational", "--N", "2"],
               ["matrix", "--which", "coeffs:dStar", "--N", "2"],
               ["verify", "--N", "0"]]
    assert diffsweep.sweep(root, root, vectors) == 0
    assert capsys.readouterr().out == "4 vectors, 0 differ\n"

    shutil.copytree(BENCH.parent / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "metaracah" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count("sort_keys=True, indent=2") == 1
    cli.write_text(text.replace("sort_keys=True, indent=2", "sort_keys=True, indent=3"),
                   encoding="utf-8")
    assert diffsweep.sweep(root, str(tmp_path), vectors) == 1
    out = capsys.readouterr().out
    assert out.startswith("4 vectors, 2 differ\nfirst difference: "
                          "'verify --suite rational --N 2'\nexit code: parent 0, change 0\n")
    assert "--- parent stdout\n+++ change stdout\n" in out and "stderr" not in out


def test_a_revision_is_exported_and_named_by_its_full_hash(diffsweep, tmp_path):
    # gittree exports a revision with git archive and records its full
    # hash; a directory outside any work tree is "unknown"
    gittree = diffsweep.gittree
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "a.txt").write_text("one\n", encoding="utf-8")
    env = {**os.environ, "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@example.org",
           "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@example.org"}
    for args in (["init", "-q"], ["add", "a.txt"], ["commit", "-q", "-m", "one"]):
        subprocess.run(["git", "-c", "commit.gpgsign=false", "-C", str(repo), *args], env=env,
                       check=True)
    head = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=True).stdout.strip()
    assert gittree.commit(str(repo)) == head
    (repo / "a.txt").write_text("two\n", encoding="utf-8")
    assert gittree.commit(str(repo)) == head + "-dirty"
    with gittree.tree("HEAD", repo=str(repo)) as (path, commit):
        assert commit == head and len(head) == 40
        assert Path(path, "a.txt").read_text(encoding="utf-8") == "one\n"
    assert not Path(path).exists()
    plain = tmp_path / "plain"
    plain.mkdir()
    with gittree.tree(str(plain)) as (path, commit):
        assert (path, commit) == (str(plain), "unknown")
    with pytest.raises(ValueError, match="neither a directory nor a revision"):
        with gittree.tree("no-such-revision", repo=str(repo)):
            pass


def test_scale_counts_the_calls_of_each_code_object(monkeypatch):
    # the two generator expressions share a file, line and name, under which
    # pstats keeps the calls of only one of them
    monkeypatch.syspath_prepend(str(BENCH))
    scale = _load("scale")

    def run():
        return tuple(tuple(x for x in row) for row in ((1, 2), (3, 4)))

    # run, 3 resumes of the outer generator, 3 of each inner one, and the
    # profiler's own disable()
    assert scale._call_count(run) == 11


def _scale(kind, N):
    """The record bench/scale.py --measure writes for the tree of this test."""
    child = subprocess.run([sys.executable, str(BENCH / "scale.py"), "--measure", kind,
                            str(BENCH.parent / "src"), str(N)],
                           capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


def test_scale_records_a_verify_run_and_the_sixteen_emit_commands(capsys):
    verify = _scale("verify", 2)
    assert set(verify) == {"total_s", "calls", "suite_s", "exit_code", "stdout_sha256",
                           "max_bits_verify_output", "max_bits_overlap_tables"}
    assert verify["exit_code"] == 0
    assert set(verify["suite_s"]) == set(cli.SUITES)
    assert cli.main(["verify", "--suite", "all", "--N", "2"]) == 0
    out = capsys.readouterr().out
    assert verify["stdout_sha256"] == hashlib.sha256(out.encode()).hexdigest()
    assert type(verify["calls"]) is int and verify["calls"] > 0

    emit = _scale("emit", 2)
    assert len(emit["ops"]) == 16
    assert {op["exit_code"] for op in emit["ops"].values()} == {0}
