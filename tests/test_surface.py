"""bellkit's public surface is what the program uses: every public function
and class defined in a bellkit module is named somewhere in bellkit itself,
in the benchmark (bench/*.py, parsed, never imported) or in the acceptance
tests, and so is every public field, method and property of those classes.
A name that only unit tests reach is deleted, or moved into its test file as
a local oracle."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "bellkit").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
TREES = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in READERS}


def test_every_public_definition_is_used_outside_the_unit_tests():
    used = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in TREES[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]
    assert unused == []


def test_every_public_member_is_read_outside_the_unit_tests():
    # A member is read as an attribute (record.field, obj.method()); a field
    # the program only passes to the constructor counts as unread.
    read = {node.attr for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    classes = [(path.stem, node) for path in SOURCES for node in TREES[path].body
               if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]
    unread = []
    for stem, cls in classes:
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            elif isinstance(node, ast.FunctionDef):
                name = node.name
            else:
                continue
            if not name.startswith("_") and name not in read:
                unread.append(f"{stem}.{cls.name}.{name}")
    assert unread == []
