"""Every public library symbol has a caller outside its own tests.

A top-level function or class in ``src/`` earns its place by being used
somewhere in the library, a benchmark or an example.  This test parses
``src/``, ``benchmarks/`` and ``examples/`` with :mod:`ast` and fails
when a public top-level name appears as an ``ast.Name`` or
``ast.Attribute`` nowhere outside its own definition.  Import aliases
and ``__all__`` strings are not uses: a re-export alone does not keep a
symbol alive.  The match is by name, so a use of an unrelated attribute
that happens to share the name also counts.  The public methods and
properties of ``src/`` classes are held to the same rule, except that
only attribute uses and ``getattr`` name strings count: a bare name that
matches a member is a local variable or parameter, not the member.

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


def _uses(trees: dict[Path, ast.Module]) -> dict[str, list[ast.AST]]:
    """Every ``ast.Name`` and ``ast.Attribute`` node of ``trees``, by name."""
    uses: dict[str, list[ast.AST]] = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append(node)
    return uses


def _member_uses(trees: dict[Path, ast.Module]) -> dict[str, list[ast.AST]]:
    """Every ``ast.Attribute`` node and ``getattr`` name string of ``trees``, by name.

    Only these reach a method or property: a bare name that matches a
    member is a local variable or parameter, not a use of the member.
    """
    uses: dict[str, list[ast.AST]] = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                uses[node.attr].append(node)
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                  and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                  and isinstance(node.args[1].value, str)):
                uses[node.args[1].value].append(node)
    return uses


def _is_orphan(definition: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef,
               uses: dict[str, list[ast.AST]]) -> bool:
    """Whether every use of ``definition``'s name lies inside ``definition`` itself."""
    own = {id(node) for node in ast.walk(definition)}
    return all(id(use) in own for use in uses[definition.name])


def _orphans() -> list[str]:
    """``module::name`` of every public top-level symbol with no use outside itself."""
    trees = _trees(SCANNED)
    uses = _uses(trees)
    orphans = []
    for path, tree in trees.items():
        if not path.is_relative_to(SRC):
            continue
        for definition in tree.body:
            if (isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not definition.name.startswith("_") and _is_orphan(definition, uses)):
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


#: Public class members with no caller outside the tests, and why each stays.
ALLOWED_MEMBERS = {
    "TelemetryCostAccountant.price_samples":
        "scalar reference that TestVectorisedPricing checks price_sample_block against",
    "SliceResult.failure_sink":
        "the quarantine store the byte-equivalence suites compare across workers and sinks",
}


def _member_orphans() -> list[str]:
    """``module::Class.member`` of every public method or property with no use outside itself."""
    trees = _trees(SCANNED)
    uses = _member_uses(trees)
    orphans = []
    for path, tree in trees.items():
        if not path.is_relative_to(SRC):
            continue
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for definition in cls.body:
                if (isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not definition.name.startswith("_")
                        and _is_orphan(definition, uses)):
                    orphans.append(f"{path.relative_to(SRC)}::{cls.name}.{definition.name}")
    return orphans


def test_every_public_member_has_a_caller_outside_the_tests():
    unexpected = [orphan for orphan in _member_orphans()
                  if orphan.rpartition("::")[2] not in ALLOWED_MEMBERS]
    assert not unexpected, (
        f"{len(unexpected)} public member(s) only tests reach; delete them or add a "
        f"caller: {unexpected}")


def test_member_allow_list_names_live_orphans():
    """An allowed member must still be defined and still lack a library caller."""
    orphan_names = {orphan.rpartition("::")[2] for orphan in _member_orphans()}
    assert sorted(set(ALLOWED_MEMBERS) - orphan_names) == []


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
#: controller, and the policies built on them) and the core helpers around
#: it (trace cleaning, round trip, section 6 ergodicity).
SPECTRAL = ("NyquistEstimator", "DualRateAliasingDetector", "AdaptiveSamplingController",
            "NyquistStaticPolicy", "AdaptiveDualRatePolicy", "periodogram",
            "batch_periodogram", "compare_spectra_batch", "noise_floor_estimates",
            "estimate_nyquist_rate", "nyquist_round_trip", "regularize",
            "nearest_neighbor_resample", "resample_to_rate", "downsample",
            "ensemble_statistics", "minimum_canary_size")


def test_every_spectral_option_has_a_library_caller():
    """A spectral knob only tests turn is a setup the library never runs."""
    unset = _unset_parameters(SPECTRAL, SCANNED)
    assert not unset, f"{len(unset)} spectral option(s) only tests pass: {unset}"
