"""The source trees that the bench scripts compare, and the commit of each.

``tree(spec)`` is a context manager that yields ``(path, commit)`` for a
tree given as a directory or as a git revision of a repository (this one
by default).  A revision is exported with ``git archive`` into a temporary
directory, removed on exit, and its commit is the full hash.  For a
directory, ``commit(path)`` is the full hash of HEAD when the directory is
the top of a git work tree, with "-dirty" appended when the work tree
differs from HEAD, and "unknown" for any other directory, such as an
extracted archive: pass the revision instead to have it named.

Standard library and the ``git`` command only.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(cwd: str, *args: str) -> str | None:
    """git's stdout, stripped, or None when git fails or is missing."""
    try:
        return subprocess.run(["git", "-C", cwd, *args], capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def commit(path: str) -> str:
    top = _git(path, "rev-parse", "--show-toplevel")
    head = _git(path, "rev-parse", "HEAD")
    if top is None or head is None or os.path.realpath(top) != os.path.realpath(path):
        return "unknown"
    return head + ("-dirty" if _git(path, "status", "--porcelain") else "")


@contextlib.contextmanager
def tree(spec: str, repo: str = ROOT):
    if os.path.isdir(spec):
        yield os.path.abspath(spec), commit(spec)
        return
    full = _git(repo, "rev-parse", "--verify", "--quiet", f"{spec}^{{commit}}")
    if not full:
        raise ValueError(f"{spec!r} is neither a directory nor a revision of {repo}")
    archive = subprocess.run(["git", "-C", repo, "archive", "--format=tar", full],
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="tree-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        yield tmp, full
