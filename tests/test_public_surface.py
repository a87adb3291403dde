"""Every public library symbol has a caller outside its own tests.

A top-level function or class in ``src/`` earns its place by being used
somewhere in the library, a benchmark or an example.  This test parses
``src/``, ``benchmarks/`` and ``examples/`` with :mod:`ast` and fails
when a public top-level name appears as an ``ast.Name`` or
``ast.Attribute`` nowhere outside its own definition.  Import aliases
and ``__all__`` strings are not uses: a re-export alone does not keep a
symbol alive.  The match is by name, so a use of an unrelated attribute
that happens to share the name also counts.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCANNED = (SRC, ROOT / "benchmarks", ROOT / "examples")

ALLOWED = {
    "noise_floor_estimate": "scalar reference that noise_floor_estimates is tested bit for bit against",
    "compare_spectra": "one-row entry point of the dual-rate (section 4.1) spectrum comparison",
    "sine": "fixture generator of many test files",
    "faulty_export": "fault fixture of the chaos layer's tests",
    "export_backfill_dump": "fault fixture of the scenario layer's tests",
}


def _orphans() -> list[str]:
    """``module::name`` of every public top-level symbol with no use outside itself."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for root in SCANNED for path in sorted(root.rglob("*.py"))}
    uses: dict[str, list[ast.AST]] = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append(node)
    orphans = []
    for path, tree in trees.items():
        if not path.is_relative_to(SRC):
            continue
        for definition in tree.body:
            if (isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not definition.name.startswith("_")):
                own = {id(node) for node in ast.walk(definition)}
                if all(id(use) in own for use in uses[definition.name]):
                    orphans.append(f"{path.relative_to(SRC)}::{definition.name}")
    return orphans


def test_every_public_symbol_has_a_caller_outside_the_tests():
    unexpected = [orphan for orphan in _orphans()
                  if orphan.rpartition("::")[2] not in ALLOWED]
    assert not unexpected, (
        f"{len(unexpected)} public symbol(s) only tests reach; delete them or add a "
        f"caller: {unexpected}")


def test_allow_list_names_live_orphans():
    """An allowed name must still be defined and still lack a library caller."""
    orphan_names = {orphan.rpartition("::")[2] for orphan in _orphans()}
    assert sorted(set(ALLOWED) - orphan_names) == []
