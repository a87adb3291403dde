"""Every public library symbol has a caller outside its own tests.

A top-level function or class in ``src/`` earns its place by being used
somewhere in the library, a benchmark or an example.  This test parses
``src/``, ``benchmarks/`` and ``examples/`` with :mod:`ast` and fails
when a public top-level name is loaded nowhere outside its own
definition.  A load counts only when the using file binds the name to
that definition: by its own module, by an import, or by a chain of
package re-exports; ``pkg.mod.name`` counts through the module bindings
of ``pkg``.  A local variable, a dataclass field or another module's
function that shares the name is not a use, and neither are import
statements or ``__all__`` strings: a re-export alone does not keep a
symbol alive.  The public methods and properties of ``src/`` classes are held
to a looser rule, since the receiver's type is unknown: any attribute
use or ``getattr`` name string that matches counts, except an attribute
of a module (``np.clip``).  A bare name that matches a member is a local
variable or parameter, not the member.

The same scan, over ``tests/`` too, checks that every parameter of the
pipeline entry points is passed by some call: an option no caller sets
is a fixed value dressed up as a choice.  The other layers' classes
and functions are held to a stricter rule: there only calls in ``src/``,
``benchmarks/`` and ``examples/`` count, because a knob that only its
own tests turn is a configuration the library never runs.  The optional
parameters of public methods are held to the same rule, matched by
method name like the member scan.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCANNED = (SRC, ROOT / "benchmarks", ROOT / "examples")

ALLOWED = {
    "noise_floor_estimate": "scalar reference that noise_floor_estimates is tested bit for bit against",
    "compare_spectra": "one-row entry point of the dual-rate (section 4.1) spectrum comparison",
}


def _trees(roots: tuple[Path, ...]) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), filename=str(path))
            for root in roots for path in sorted(root.rglob("*.py"))}


def _module_name(path: Path, src: Path) -> str | None:
    """Dotted name of a module under ``src`` (a package is its ``__init__``), else None."""
    if not path.is_relative_to(src):
        return None
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


#: A name's binding: ``("def", module, name)`` for a top-level function or
#: class of ``src/``, ``("module", dotted)`` for a module, or
#: ``("from", module, name)`` for an import not yet followed.
Binding = tuple[str, ...]


class _Bindings:
    """What each scanned file binds its names to, with re-export chains followed.

    A file binds its own top-level definitions (``src/`` modules only) and
    every name its imports introduce, wherever the import statement sits.
    ``from m import n`` is followed through ``m``'s own bindings, so a
    package ``__init__`` that re-exports ``n`` resolves to the definition,
    and ``m.n`` resolves to the submodule ``n`` when ``m`` binds no such
    name.  Names of modules outside ``src/`` stay unresolved.
    """

    def __init__(self, trees: dict[Path, ast.Module], src: Path) -> None:
        self.files = {path: self._file_bindings(tree, path.name, _module_name(path, src))
                      for path, tree in trees.items()}
        self.modules = {_module_name(path, src): table for path, table in self.files.items()
                        if path.is_relative_to(src)}

    @staticmethod
    def _file_bindings(tree: ast.Module, filename: str,
                       module: str | None) -> dict[str, Binding]:
        table: dict[str, Binding] = {}
        if module is not None:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    table[node.name] = ("def", module, node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        table[alias.asname] = ("module", alias.name)
                    else:
                        top = alias.name.partition(".")[0]
                        table[top] = ("module", top)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    if module is None:
                        continue
                    package = module.split(".")
                    if filename != "__init__.py":
                        package.pop()
                    package = package[:len(package) - node.level + 1]
                    base = ".".join([*package, *([node.module] if node.module else [])])
                for alias in node.names:
                    if alias.name != "*":
                        table[alias.asname or alias.name] = ("from", base, alias.name)
        return table

    def _attribute(self, module: str, name: str) -> Binding | None:
        """The unfollowed binding of ``module.name`` (None outside ``src/``)."""
        if module not in self.modules:
            return None
        binding = self.modules[module].get(name)
        if binding is None and f"{module}.{name}" in self.modules:
            binding = ("module", f"{module}.{name}")
        return binding

    def follow(self, binding: Binding | None) -> Binding | None:
        """``binding`` with every import followed to a definition or module."""
        seen = set()
        while binding is not None and binding[0] == "from":
            if binding in seen:
                return None
            seen.add(binding)
            binding = self._attribute(binding[1], binding[2])
        return binding

    def resolve(self, node: ast.AST, table: dict[str, Binding]) -> Binding | None:
        """What a ``Name`` or module-rooted ``Attribute`` chain loads, if known."""
        if isinstance(node, ast.Name):
            return self.follow(table.get(node.id))
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value, table)
            if base is not None and base[0] == "module":
                return self.follow(self._attribute(base[1], node.attr))
        return None


def _uses(trees: dict[Path, ast.Module],
          bindings: _Bindings) -> dict[tuple[str, str], list[ast.AST]]:
    """Every load of a ``src/`` top-level definition, by ``(module, name)``.

    A ``Name`` counts when its file binds that name to the definition; an
    ``Attribute`` counts when it reaches the definition through module
    bindings (``pkg.mod.name``).
    """
    uses: dict[tuple[str, str], list[ast.AST]] = defaultdict(list)
    for path, tree in trees.items():
        table = bindings.files[path]
        for node in ast.walk(tree):
            if ((isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
                    or isinstance(node, ast.Attribute)):
                binding = bindings.resolve(node, table)
                if binding is not None and binding[0] == "def":
                    uses[(binding[1], binding[2])].append(node)
    return uses


def _member_uses(trees: dict[Path, ast.Module],
                 bindings: _Bindings) -> dict[str, list[ast.AST]]:
    """Every ``ast.Attribute`` node and ``getattr`` name string of ``trees``, by name.

    Only these reach a method or property: a bare name that matches a
    member is a local variable or parameter, not a use of the member, and
    an attribute of a module (``np.clip``) is not a member either.
    """
    uses: dict[str, list[ast.AST]] = defaultdict(list)
    for path, tree in trees.items():
        table = bindings.files[path]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                base = bindings.resolve(node.value, table)
                if base is None or base[0] != "module":
                    uses[node.attr].append(node)
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                  and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                  and isinstance(node.args[1].value, str)):
                uses[node.args[1].value].append(node)
    return uses


def _is_orphan(definition: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef,
               uses: list[ast.AST]) -> bool:
    """Whether every one of ``uses`` lies inside ``definition`` itself."""
    own = {id(node) for node in ast.walk(definition)}
    return all(id(use) in own for use in uses)


def _orphans(roots: tuple[Path, ...] = SCANNED, src: Path = SRC) -> list[str]:
    """``module::name`` of every public top-level symbol of ``src`` with no use outside itself."""
    trees = _trees(roots)
    uses = _uses(trees, _Bindings(trees, src))
    orphans = []
    for path, tree in trees.items():
        module = _module_name(path, src)
        if module is None:
            continue
        for definition in tree.body:
            if (isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not definition.name.startswith("_")
                    and _is_orphan(definition, uses[(module, definition.name)])):
                orphans.append(f"{path.relative_to(src)}::{definition.name}")
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


def _member_orphans(roots: tuple[Path, ...] = SCANNED, src: Path = SRC) -> list[str]:
    """``module::Class.member`` of every public method or property with no use outside itself."""
    trees = _trees(roots)
    uses = _member_uses(trees, _Bindings(trees, src))
    orphans = []
    for path, tree in trees.items():
        if not path.is_relative_to(src):
            continue
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for definition in cls.body:
                if (isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not definition.name.startswith("_")
                        and _is_orphan(definition, uses[definition.name])):
                    orphans.append(f"{path.relative_to(src)}::{cls.name}.{definition.name}")
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
                "evaluate_cell", "run_windowed_survey", "SpillingRecordSink")


def _parameters(definition: ast.FunctionDef | ast.ClassDef) -> list[str]:
    """Parameter names of a function, or of a class's ``__init__`` minus ``self``.

    A class without its own ``__init__`` (a dataclass) has its annotated
    fields as parameters.
    """
    if isinstance(definition, ast.ClassDef):
        init = next((node for node in definition.body
                     if isinstance(node, ast.FunctionDef) and node.name == "__init__"), None)
        if init is None:
            return [node.target.id for node in definition.body
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
        definition, skip = init, 1
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
    """An option only tests set is a default in disguise: fix the value instead."""
    unset = _unset_parameters(ENTRY_POINTS, SCANNED)
    assert not unset, f"{len(unset)} option(s) no call sets: {unset}"


#: The network layer's fabric and deployment recipes: the cost model reads
#: only a fabric's adjacency and node roles, so a knob no caller sets is
#: data the library writes and never reads.
NETWORK = ("DeploymentSpec", "TopologySpec", "FatTreeSpec", "WanRingSpec", "attach_collector")


def test_every_network_knob_has_a_library_caller():
    """A fabric or deployment knob only tests turn is a configuration the library never runs."""
    unset = _unset_parameters(NETWORK, SCANNED)
    assert not unset, f"{len(unset)} network option(s) no library call sets: {unset}"


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


#: The policy experiment (section 4.2 controller, the three-policy suite,
#: the per-point evaluator and event scoring): its tuning guidance is fixed
#: in the library, so a knob only tests turn is a comparison it never runs.
POLICY = ("ControllerConfig", "PolicySuite", "FixedRatePolicy", "CostQualityEvaluator",
          "score_detection")


def test_every_policy_knob_has_a_library_caller():
    """A controller, suite or detection knob only tests turn is a setup the library never runs."""
    unset = _unset_parameters(POLICY, SCANNED)
    assert not unset, f"{len(unset)} policy option(s) no library call sets: {unset}"


#: Signal, fleet and reporting helpers the benches and examples build on.
HELPERS = ("multi_tone", "diurnal_component", "ascii_cdf", "ascii_bar_chart", "write_csv",
           "build_fleet")


def test_every_helper_option_has_a_library_caller():
    """A helper option only tests pass is a default the library always takes."""
    unset = _unset_parameters(HELPERS, SCANNED)
    assert not unset, f"{len(unset)} helper option(s) no library call sets: {unset}"


#: The fault layer: the pool driver and the seeded fault placement.  Its
#: retry budget and window sizes are fixed in the library, so an option
#: only tests set is a drill the library never runs.
FAULTS = ("FaultPlan", "run_batch_tasks")

#: The section 3.1 cost model: its claims are cost ratios, which do not
#: depend on the unit costs, so the library prices with one fixed model.
COST = ("TelemetryCostAccountant",)

#: The scenario transforms: their placement is seeded per pair by digest,
#: so a seed or pathology option no preset sets is a workload never run.
SCENARIO = ("DiurnalCycle", "RegimeShift", "FlappingRegime", "CounterPathology",
            "BlackoutWindow", "Scenario")

#: The synthetic fleet's config, the dump emitters and event injection.
#: The ``generate_*_trace`` family stays out: it is called through a
#: dispatch table, which the call scan cannot follow.
TELEMETRY = ("DatasetConfig", "export_gnmi_dump", "export_snmp_dump", "inject_event")


@pytest.mark.parametrize("names", [FAULTS, COST, SCENARIO, TELEMETRY],
                         ids=["faults", "cost", "scenario", "telemetry"])
def test_every_constructor_option_has_a_library_caller(names):
    """A fault, cost, scenario or fleet option only tests set is a default in disguise."""
    unset = _unset_parameters(names, SCANNED)
    assert not unset, f"{len(unset)} option(s) no library call sets: {unset}"


def _method_options(definition: ast.FunctionDef) -> tuple[list[str], list[str]]:
    """A method's positional parameters after ``self``/``cls``, and its optional ones."""
    arguments = definition.args
    positional = [*arguments.posonlyargs, *arguments.args]
    optional = [arg.arg for arg in positional[len(positional) - len(arguments.defaults):]]
    optional += [arg.arg for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
                 if default is not None]
    static = any(getattr(decorator, "id", None) == "staticmethod"
                 for decorator in definition.decorator_list)
    return [arg.arg for arg in positional[0 if static else 1:]], optional


def _unset_method_options(roots: tuple[Path, ...] = SCANNED, src: Path = SRC) -> list[str]:
    """``Class.method(parameter)`` of every optional public-method parameter no call passes.

    A call counts for every ``src/`` method of its attribute name (the
    receiver's type is unknown), except an attribute of a module.
    """
    trees = _trees(roots)
    bindings = _Bindings(trees, src)
    methods: dict[str, list[tuple[str, list[str], list[str]]]] = defaultdict(list)
    for path, tree in trees.items():
        if not path.is_relative_to(src):
            continue
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for definition in cls.body:
                if (isinstance(definition, ast.FunctionDef)
                        and not definition.name.startswith("_")):
                    positional, optional = _method_options(definition)
                    if optional:
                        methods[definition.name].append((cls.name, positional, optional))
    passed: dict[str, set[str]] = defaultdict(set)
    for path, tree in trees.items():
        table = bindings.files[path]
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in methods):
                continue
            base = bindings.resolve(node.func.value, table)
            if base is not None and base[0] == "module":
                continue
            for cls, positional, _ in methods[node.func.attr]:
                key = f"{cls}.{node.func.attr}"
                passed[key].update(positional[:len(node.args)])
                passed[key].update(keyword.arg for keyword in node.keywords if keyword.arg)
    return [f"{cls}.{name}({parameter})" for name, entries in methods.items()
            for cls, _, optional in entries for parameter in optional
            if parameter not in passed[f"{cls}.{name}"]]


def test_every_method_option_has_a_library_caller():
    """An optional method parameter no library call passes is a fixed value."""
    unset = _unset_method_options()
    assert not unset, f"{len(unset)} method option(s) no library call passes: {unset}"


#: ``pkg/mod.py`` of the resolution fixtures: one function, one class.
FIXTURE_MODULE = "def target():\n    pass\n\n\nclass Box:\n    def clip(self):\n        pass\n"


def _scan(tmp_path: Path, files: dict[str, str]) -> tuple[list[str], list[str]]:
    """Orphans and member orphans of ``pkg`` under ``tmp_path/src`` given extra ``files``."""
    layout = {"src/pkg/__init__.py": "", "src/pkg/mod.py": FIXTURE_MODULE, **files}
    for name, text in layout.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    src, examples = tmp_path / "src", tmp_path / "examples"
    examples.mkdir(exist_ok=True)
    return _orphans((src, examples), src), _member_orphans((src, examples), src)


class TestNameResolution:
    """The scans count a load only where the file binds the name to the definition."""

    @pytest.mark.parametrize("files", [
        {"examples/use.py": "from pkg.mod import target\ntarget()\n"},
        {"examples/use.py": "from pkg.mod import target as run\nrun()\n"},
        {"src/pkg/__init__.py": "from .mod import target\n",
         "examples/use.py": "from pkg import target\ntarget()\n"},
        {"examples/use.py": "import pkg.mod\npkg.mod.target()\n"},
        {"examples/use.py": "import pkg.mod as m\nm.target()\n"},
        {"examples/use.py": "from pkg import mod\nmod.target()\n"},
        {"src/pkg/other.py": "from .mod import target\n\n\ndef run():\n    target()\n",
         "examples/use.py": "from pkg.other import run\nrun()\n"},
        {"src/pkg/mod.py": FIXTURE_MODULE + "\n\ndef run():\n    target()\n",
         "examples/use.py": "from pkg.mod import run\nrun()\n"},
    ], ids=["import", "alias", "re-export", "module-path", "module-alias", "submodule",
            "relative-import", "own-module"])
    def test_bound_load_is_a_use(self, tmp_path, files):
        orphans, _ = _scan(tmp_path, files)
        assert "pkg/mod.py::target" not in orphans

    @pytest.mark.parametrize("files", [
        {"examples/use.py": "target = 1\nprint(target)\n"},
        {"examples/use.py": "def show(box):\n    return box.target\n"},
        {"src/pkg/other.py": "def target():\n    pass\n",
         "examples/use.py": "from pkg.other import target\ntarget()\n"},
        {"src/pkg/__init__.py": "from .mod import target\n\n__all__ = ['target']\n"},
        {"src/pkg/mod.py": FIXTURE_MODULE.replace("    pass\n", "    return target()\n", 1)},
        {"src/pkg/a.py": "from .b import target\n", "src/pkg/b.py": "from .a import target\n",
         "examples/use.py": "from pkg.a import target\ntarget()\n"},
    ], ids=["local-variable", "attribute-of-a-value", "same-name-elsewhere",
            "re-export-only", "recursion-only", "import-cycle"])
    def test_unbound_load_is_not_a_use(self, tmp_path, files):
        orphans, _ = _scan(tmp_path, files)
        assert "pkg/mod.py::target" in orphans

    @pytest.mark.parametrize("use, orphan", [
        ("def run(box):\n    box.clip()\n", False),
        ("def run(box):\n    return getattr(box, 'clip')\n", False),
        ("import numpy as np\nnp.clip([1.0], 0.0, 0.5)\n", True),
        ("from pkg import mod\nprint(mod.clip)\n", True),
        ("clip = 1\nprint(clip)\n", True),
    ], ids=["attribute", "getattr", "numpy-function", "repro-module-attribute",
            "bare-name"])
    def test_member_uses(self, tmp_path, use, orphan):
        _, member_orphans = _scan(tmp_path, {"examples/use.py": use})
        assert ("pkg/mod.py::Box.clip" in member_orphans) is orphan
