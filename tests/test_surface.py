"""bellkit's public surface is what the program uses: every public function
and class defined in a bellkit module is named somewhere in bellkit itself,
in the benchmark (bench/*.py, parsed, never imported) or in the acceptance
tests.  A name that only unit tests reach is deleted, or moved into its test
file as a local oracle."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "bellkit").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def test_every_public_definition_is_used_outside_the_unit_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in READERS}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]
    assert unused == []
