"""Guards on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qrelay"


def test_no_assert_statements():
    # `python -O` strips assert statements, so no check in the package may
    # rely on one.
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources found under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
