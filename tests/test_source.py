import ast
from pathlib import Path

import metaracah

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
