"""Every public library symbol has a caller outside its own tests.

A top-level function or class in ``src/`` earns its place by being used
somewhere in the library, a benchmark or an example.  This test parses
``src/``, ``benchmarks/`` and ``examples/`` with :mod:`ast` and fails
when a public top-level name appears as an ``ast.Name`` or
``ast.Attribute`` nowhere outside its own definition.  Import aliases
and ``__all__`` strings are not uses: a re-export alone does not keep a
symbol alive.  The match is by name, so a use of an unrelated attribute
that happens to share the name also counts.

The same scan, over ``tests/`` too, checks that every parameter of the
pipeline entry points is passed by some call: an option no caller sets
is a fixed value dressed up as a choice.  The spectral layer's classes
and functions are held to a stricter rule: there only calls in ``src/``,
``benchmarks/`` and ``examples/`` count, because a knob that only its
own tests turn is a configuration the library never runs.
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


def _trees(roots: tuple[Path, ...]) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), filename=str(path))
            for root in roots for path in sorted(root.rglob("*.py"))}


def _orphans() -> list[str]:
    """``module::name`` of every public top-level symbol with no use outside itself."""
    trees = _trees(SCANNED)
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


#: Entry points whose every parameter must be set by some caller.
ENTRY_POINTS = ("run_survey", "run_policy_survey", "ingest_dump", "run_matrix",
                "evaluate_cell", "run_windowed_survey", "SpillingRecordSink",
                "faulty_export")


def _parameters(definition: ast.FunctionDef | ast.ClassDef) -> list[str]:
    """Parameter names of a function, or of a class's ``__init__`` minus ``self``."""
    if isinstance(definition, ast.ClassDef):
        definition = next(node for node in definition.body
                          if isinstance(node, ast.FunctionDef) and node.name == "__init__")
        skip = 1
    else:
        skip = 0
    arguments = definition.args
    return [arg.arg for arg in [*arguments.posonlyargs, *arguments.args][skip:]
            + arguments.kwonlyargs]


def _unset_parameters(names: tuple[str, ...], roots: tuple[Path, ...]) -> list[str]:
    """``name(parameter)`` of every parameter of ``names`` no call under ``roots`` passes."""
    trees = _trees(roots)
    parameters = {definition.name: _parameters(definition)
                  for path, tree in trees.items() if path.is_relative_to(SRC)
                  for definition in tree.body
                  if isinstance(definition, (ast.FunctionDef, ast.ClassDef))
                  and definition.name in names}
    assert sorted(parameters) == sorted(names)
    passed: dict[str, set[str]] = defaultdict(set)
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in parameters:
                continue
            passed[name].update(parameters[name][:len(node.args)])
            passed[name].update(keyword.arg for keyword in node.keywords if keyword.arg)
    return [f"{name}({parameter})" for name, names in parameters.items()
            for parameter in names if parameter not in passed[name]]


def test_every_entry_point_option_has_a_caller():
    """An option nothing sets is a default in disguise: fix the value instead."""
    unset = _unset_parameters(ENTRY_POINTS, (*SCANNED, ROOT / "tests"))
    assert not unset, f"{len(unset)} option(s) no call sets: {unset}"


#: The spectral layer (section 3.2 estimator, section 4 detector and
#: controller, and the policies built on them).
SPECTRAL = ("NyquistEstimator", "DualRateAliasingDetector", "AdaptiveSamplingController",
            "NyquistStaticPolicy", "AdaptiveDualRatePolicy", "periodogram",
            "batch_periodogram", "compare_spectra_batch", "noise_floor_estimates",
            "estimate_nyquist_rate")


def test_every_spectral_option_has_a_library_caller():
    """A spectral knob only tests turn is a setup the library never runs."""
    unset = _unset_parameters(SPECTRAL, SCANNED)
    assert not unset, f"{len(unset)} spectral option(s) only tests pass: {unset}"
