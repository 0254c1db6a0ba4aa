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


# Evaluator internals the dense oracle must not use: routing the oracle
# through the evaluator's kernels would make their agreement a tautology.
EVALUATOR_INTERNALS = frozenset({
    "_all_pair_rows",
    "_finish_rows",
    "_exhaustive_blocks",
    "_concentration_blocks",
    "_outcome_table",
    "_correction_stack",
    "concentration_correction",
    "distribution_correction",
})


def test_oracle_names_no_evaluator_internal():
    protocol = ast.parse((SRC / "protocol.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(protocol) if isinstance(node, ast.FunctionDef)}
    assert EVALUATOR_INTERNALS <= defined, "the guard lists a name protocol.py no longer defines"
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update({node.name, node.asname})
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)
    assert sorted(named & EVALUATOR_INTERNALS) == []
