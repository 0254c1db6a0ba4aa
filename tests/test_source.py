"""Guards on the package source itself."""

import ast
import re
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


# Evaluator internals, in protocol.py and bell.py, the oracle must not use:
# routing the oracle through the evaluator's kernels would make their
# agreement a tautology.
EVALUATOR_INTERNALS = frozenset({
    "_all_pair_rows",
    "_finish_rows",
    "_exhaustive_blocks",
    "_outcome_table",
    "_correction_frame",
    "_pauli_frame",
    "_PAULI_FRAMES",
    "_distribution_frame",
    "_sender_plan",
    "_sender_stage",
    "_party_vectors",
    "_pair_plan",
    "_channel_state",
    "_sampled_block",
    "_step_plan",
    "_live_pair_rows",
    "_draw_outcome",
    "_born_pick",
    "_fidelities",
    "concentration_correction",
    "distribution_correction",
})

# The evaluator's Bell and Pauli literals: the oracle declares its own, so a
# transcription slip in either shows up as a disagreement.
EVALUATOR_LITERALS = frozenset({
    "_BELL_ROWS",
    "_BELL_BRAS",
    "PAULI_MATRICES",
    "CORRECTION_FOR_OUTCOME",
    "pauli_product",
})


def _module_names(path):
    """Functions and module-level assignment targets a source file defines."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return defined


def _names_in_verify():
    """Every name, attribute, imported name and string constant verify.py
    spells."""
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
    return named


def test_oracle_names_no_evaluator_internal():
    assert EVALUATOR_INTERNALS <= _module_names(SRC / "protocol.py") | _module_names(SRC / "bell.py"), (
        "the guard lists a name protocol.py and bell.py no longer define")
    assert sorted(_names_in_verify() & EVALUATOR_INTERNALS) == []


def test_verify_reaches_the_evaluator_only_through_run_end_to_end():
    # The claims consume the evaluator's reports; every other physics step is
    # the oracle's own, so verify.py imports nothing else from protocol.py.
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    imported = sorted(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "protocol"
        for alias in node.names
    )
    assert imported == ["InputQubit", "MAX_EXHAUSTIVE_PARTIES", "OutcomeReport", "random_input", "run_end_to_end"]


def test_dense_reference_draws_with_generator_choice():
    # dense_sampled is the independent reference for sampled trajectories, so
    # it draws with Generator.choice itself, never through the evaluator's pick.
    text = (SRC.parents[1] / "tests" / "dense_reference.py").read_text(encoding="utf-8")
    assert ".choice(" in text
    assert [name for name in ("_born_pick", "_draw_outcome") if name in text] == []


def test_oracle_names_no_evaluator_literal():
    assert EVALUATOR_LITERALS <= _module_names(SRC / "bell.py"), (
        "the guard lists a name bell.py no longer defines")
    assert sorted(_names_in_verify() & EVALUATOR_LITERALS) == []


def test_public_names_are_documented():
    # Every name the package exports is one the README's Library section or
    # the acceptance tests use; a re-export nothing names is dead weight.
    import qrelay

    root = SRC.parents[1]
    text = (root / "README.md").read_text(encoding="utf-8") + (
        root / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    used = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))
    assert sorted(set(qrelay.__all__) - used) == []
