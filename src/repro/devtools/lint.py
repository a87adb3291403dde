"""``repro-lint``: AST-based static analysis of this project's own invariants.

The runtime test suites enforce the repository's reproducibility
guarantees *after the fact* -- byte-identical records at any worker
count, picklable worker specs, canonical deterministic ordering,
``ValueError``-names-the-path error discipline.  This module enforces
the code patterns those guarantees rest on *statically*, so a violation
is caught in any module, including paths no test exercises yet.

Rule catalogue
--------------

======  ======================  ==============================================
ID      Name                    Protects
======  ======================  ==============================================
RL001   no-unseeded-randomness  Same config => same records.  RNG must be a
                                seeded ``numpy.random.Generator`` threaded
                                through explicitly; module-level ``np.random``
                                draws, stdlib ``random`` calls and argless
                                ``default_rng()`` all smuggle in process-
                                global nondeterminism.
RL002   no-wallclock-in-library Library results must be a function of their
                                inputs.  ``time.time()``/``datetime.now()``
                                belong in the CLI, benchmarks and examples --
                                never in ``src/repro`` library modules.
RL003   error-discipline        No bare ``except:``; no silently swallowed
                                ``except Exception: pass``; content errors in
                                the IO modules must interpolate the offending
                                path into the ``ValueError`` message.
RL004   picklable-worker-specs  Classes returned by ``worker_spec()`` cross
                                process boundaries; storing lambdas, local
                                closures or open handles in them breaks the
                                multi-worker survey at pickle time.
RL006   deterministic-iteration Record-emitting modules must not iterate
                                set/dict accumulators without ``sorted(...)``:
                                output order would depend on hash seeds or
                                insertion history instead of on the data.
RL007   quarantine-discipline   Every except handler in the quarantining
                                pipeline modules must re-raise or call the
                                failure-record/retry machinery; a handler that
                                silently continues would drop pairs from the
                                survey without a failure record.
RL008   content-addressed-keys  Store/cache modules must derive cache keys
                                from hashed content only: no ``id()``, no
                                wall-clock or uuid calls, and no filesystem-
                                order iteration (``glob``/``iterdir``/
                                ``os.listdir``/``os.scandir``) outside
                                ``sorted(...)`` -- any of these would make a
                                cache hit depend on process or disk state
                                instead of on the inputs.
======  ======================  ==============================================

Rule ids are never renumbered: RL005 (schema-completeness) was retired
once each block's dataclass fields became its only layout declaration,
and its id stays unused.

Suppression: append ``# repro-lint: disable=RL001`` (comma-separate for
several rules, bare ``disable`` for all) to the offending line.  Use it
only with a justification comment -- the analyser exists to make silent
exceptions loud.

Run as ``repro-lint`` (console script), ``python -m repro.devtools.lint``,
or programmatically via :func:`lint_paths` / :func:`lint_sources`.
"""

from __future__ import annotations

import argparse
import ast
import io
import re
import sys
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Violation",
    "Rule",
    "RULES",
    "rule_catalogue",
    "lint_paths",
    "lint_sources",
    "find_repo_root",
    "main",
]

#: Directories linted when no explicit paths are given.
DEFAULT_ROOTS = ("src", "tests", "benchmarks", "examples")

#: Library modules that read/write files on behalf of callers; RL003's
#: name-the-path discipline applies to their content errors.
IO_MODULES = frozenset({
    "src/repro/records/blocks.py",
    "src/repro/records/rcb.py",
    "src/repro/records/sinks.py",
    "src/repro/records/store.py",
    "src/repro/telemetry/measured.py",
    "src/repro/telemetry/ingest.py",
    "src/repro/telemetry/shard.py",
})

#: Modules whose code computes cache/store keys; RL008's hashed-content-
#: only discipline applies to them.
STORE_MODULES = frozenset({
    "src/repro/records/store.py",
})

#: Modules that emit survey/policy/ingest records; RL006's deterministic
#: iteration discipline applies to them.
RECORD_MODULES = frozenset(IO_MODULES | {
    "src/repro/analysis/driver.py",
    "src/repro/analysis/survey.py",
    "src/repro/analysis/policy_survey.py",
    "src/repro/pipeline/evaluation.py",
    "src/repro/scenarios/matrix.py",
    "src/repro/scenarios/transforms.py",
})

#: Pipeline modules whose except handlers isolate batch/parse failures;
#: RL007's record-or-raise discipline applies to every handler in them.
QUARANTINE_MODULES = frozenset({
    "src/repro/analysis/driver.py",
    "src/repro/analysis/survey.py",
    "src/repro/analysis/policy_survey.py",
    "src/repro/telemetry/ingest.py",
    "src/repro/telemetry/shard.py",
    "src/repro/faults/execution.py",
})


@dataclass(frozen=True)
class Violation:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class SourceFile:
    """A parsed file plus the classification the rules scope on."""

    path: str  # repo-relative posix path (drives rule applicability)
    source: str
    tree: ast.Module
    #: line -> frozenset of disabled rule ids, or None meaning "all rules".
    disabled: Mapping[int, frozenset[str] | None]

    @property
    def is_library(self) -> bool:
        """A ``src/repro`` module that is not the CLI or devtools."""
        return (self.path.startswith("src/repro/")
                and self.path != "src/repro/cli.py"
                and not self.path.startswith("src/repro/devtools/"))

    @property
    def is_io_module(self) -> bool:
        return self.path in IO_MODULES

    @property
    def is_record_module(self) -> bool:
        return self.path in RECORD_MODULES

    @property
    def is_quarantine_module(self) -> bool:
        return self.path in QUARANTINE_MODULES

    @property
    def is_store_module(self) -> bool:
        return self.path in STORE_MODULES


@dataclass(frozen=True)
class ProjectContext:
    """Cross-file facts shared by the rules (built once per lint run)."""

    #: Names of classes returned by some ``worker_spec()`` implementation.
    spec_class_names: frozenset[str]


_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?:=(?P<rules>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*))?")


def _parse_suppressions(source: str) -> dict[int, frozenset[str] | None]:
    """Map line numbers to the rule ids a trailing comment disables there."""
    disabled: dict[int, frozenset[str] | None] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            rules = match.group("rules")
            line = token.start[0]
            if rules is None:
                disabled[line] = None
            elif line not in disabled:
                disabled[line] = frozenset(part.strip()
                                           for part in rules.split(","))
            elif disabled[line] is not None:  # None already disables all
                ids = frozenset(part.strip() for part in rules.split(","))
                disabled[line] = ids | (disabled[line] or frozenset())
    except tokenize.TokenError:  # unterminated string etc.; ast caught it first
        pass
    return disabled


def _parse_source(path: str, source: str) -> SourceFile:
    tree = ast.parse(source, filename=path)
    return SourceFile(path=path, source=source, tree=tree,
                      disabled=_parse_suppressions(source))


# ----------------------------------------------------------------------
# Name resolution: local alias -> dotted module path
# ----------------------------------------------------------------------
def _dotted_parts(node: ast.expr) -> tuple[str, ...] | None:
    """``np.random.default_rng`` -> ("np", "random", "default_rng")."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


class _ImportTable:
    """Resolves local names to the dotted import paths they are bound to."""

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self.aliases[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        self.aliases[root] = root
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.expr) -> str | None:
        """Fully-qualified dotted path of an attribute chain, if importable."""
        parts = _dotted_parts(node)
        if parts is None or parts[0] not in self.aliases:
            return None
        return ".".join((self.aliases[parts[0]], *parts[1:]))


# ----------------------------------------------------------------------
# Rule machinery
# ----------------------------------------------------------------------
class Rule:
    """One named, documented invariant check."""

    id: ClassVar[str]
    name: ClassVar[str]
    rationale: ClassVar[str]

    def applies(self, file: SourceFile) -> bool:
        return True

    def check(self, file: SourceFile, context: ProjectContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, file: SourceFile, node: ast.AST, message: str) -> Violation:
        return Violation(rule=self.id, path=file.path,
                         line=getattr(node, "lineno", 1),
                         col=getattr(node, "col_offset", 0),
                         message=message)


# ----------------------------------------------------------------------
# RL001 no-unseeded-randomness
# ----------------------------------------------------------------------
#: numpy.random names that are fine to reference (seeded construction and
#: the generator machinery itself).
_NUMPY_RANDOM_TYPES = frozenset({
    "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
})
#: Constructors that are fine *with* a seed but unseeded without arguments.
_NUMPY_RANDOM_CONSTRUCTORS = frozenset({"default_rng", "RandomState"})


def _is_unseeded(call: ast.Call) -> bool:
    """True when an RNG constructor call passes no seed (or an explicit None)."""
    if not call.args and not call.keywords:
        return True
    return (len(call.args) == 1 and not call.keywords
            and isinstance(call.args[0], ast.Constant)
            and call.args[0].value is None)


class NoUnseededRandomness(Rule):
    id = "RL001"
    name = "no-unseeded-randomness"
    rationale = ("records must be a pure function of the dataset config; all "
                 "randomness is threaded as a seeded numpy Generator")

    def check(self, file: SourceFile, context: ProjectContext) -> Iterator[Violation]:
        imports = _ImportTable(file.tree)
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            full = imports.resolve(node.func)
            if full is None:
                continue
            if full.startswith("numpy.random."):
                attr = full[len("numpy.random."):]
                if attr in _NUMPY_RANDOM_CONSTRUCTORS:
                    if _is_unseeded(node):
                        yield self.violation(
                            file, node,
                            f"argless {attr}() draws an OS-entropy seed; pass an "
                            "explicit seed or thread a Generator through")
                elif attr not in _NUMPY_RANDOM_TYPES:
                    yield self.violation(
                        file, node,
                        f"numpy.random.{attr}() uses the process-global legacy "
                        "RNG; use a seeded numpy.random.Generator instead")
            elif full == "random.Random":
                if _is_unseeded(node):
                    yield self.violation(
                        file, node,
                        "argless random.Random() seeds from OS entropy; pass an "
                        "explicit seed")
            elif full == "random" or full.startswith("random."):
                yield self.violation(
                    file, node,
                    f"stdlib {full}() uses the process-global RNG; use a seeded "
                    "random.Random(seed) or numpy.random.Generator instead")


# ----------------------------------------------------------------------
# RL002 no-wallclock-in-library
# ----------------------------------------------------------------------
_WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


class NoWallclockInLibrary(Rule):
    id = "RL002"
    name = "no-wallclock-in-library"
    rationale = ("library outputs must depend only on their inputs; timing "
                 "belongs in the CLI, benchmarks and examples")

    def applies(self, file: SourceFile) -> bool:
        return file.is_library

    def check(self, file: SourceFile, context: ProjectContext) -> Iterator[Violation]:
        imports = _ImportTable(file.tree)
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            full = imports.resolve(node.func)
            if full in _WALLCLOCK_CALLS:
                yield self.violation(
                    file, node,
                    f"{full}() reads the wall clock inside a library module; "
                    "accept timestamps as parameters instead")


# ----------------------------------------------------------------------
# RL003 error-discipline
# ----------------------------------------------------------------------
#: Message vocabulary that marks a ValueError as a file-content error.
_CONTENT_ERROR_WORDS = ("corrupt", "truncated", "malformed", "missing",
                        "unexpected", "unreadable")
_PATHISH_NAME = re.compile(r"path|file|dir|directory|manifest|dump|scratch|archive",
                           re.IGNORECASE)


def _message_text_and_names(node: ast.expr) -> tuple[str, list[str], bool]:
    """Constant text, interpolated terminal names, and an "opaque" flag.

    The flag is True when the message interpolates something we cannot
    name statically (a call result, a subscript ...); RL003 then gives
    the benefit of the doubt.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, [], False
    if isinstance(node, ast.JoinedStr):
        text_parts: list[str] = []
        names: list[str] = []
        opaque = False
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                text_parts.append(value.value)
            elif isinstance(value, ast.FormattedValue):
                parts = _dotted_parts(value.value)
                if parts is None:
                    opaque = True
                else:
                    names.append(parts[-1])
        return "".join(text_parts), names, opaque
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mod)):
        left = _message_text_and_names(node.left)
        right = _message_text_and_names(node.right)
        return left[0] + right[0], left[1] + right[1], left[2] or right[2]
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "format"):
        base_text, base_names, base_opaque = _message_text_and_names(node.func.value)
        names = list(base_names)
        opaque = base_opaque
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            parts = _dotted_parts(arg)
            if parts is None:
                opaque = True
            else:
                names.append(parts[-1])
        return base_text, names, opaque
    return "", [], True


class ErrorDiscipline(Rule):
    id = "RL003"
    name = "error-discipline"
    rationale = ("failures must be loud and actionable: no bare/silenced "
                 "excepts, and IO content errors must name the path")

    def check(self, file: SourceFile, context: ProjectContext) -> Iterator[Violation]:
        for node in ast.walk(file.tree):
            if isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(file, node)
            elif isinstance(node, ast.Raise) and file.is_io_module:
                yield from self._check_raise(file, node)

    def _check_handler(self, file: SourceFile,
                       node: ast.ExceptHandler) -> Iterator[Violation]:
        if node.type is None:
            yield self.violation(
                file, node, "bare 'except:' catches SystemExit/KeyboardInterrupt; "
                "name the exceptions this code can actually handle")
            return
        names = []
        if isinstance(node.type, (ast.Name, ast.Attribute)):
            parts = _dotted_parts(node.type)
            names = [parts[-1]] if parts else []
        elif isinstance(node.type, ast.Tuple):
            for element in node.type.elts:
                parts = _dotted_parts(element)
                if parts:
                    names.append(parts[-1])
        if not any(name in ("Exception", "BaseException") for name in names):
            return
        swallowed = all(
            isinstance(stmt, (ast.Pass, ast.Continue))
            or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
            for stmt in node.body)
        if swallowed:
            yield self.violation(
                file, node, "'except Exception' that swallows the error hides "
                "real failures; handle, log or re-raise it")

    def _check_raise(self, file: SourceFile, node: ast.Raise) -> Iterator[Violation]:
        exc = node.exc
        if not (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                and exc.func.id == "ValueError" and exc.args):
            return
        text, names, opaque = _message_text_and_names(exc.args[0])
        lowered = text.lower()
        if not any(word in lowered for word in _CONTENT_ERROR_WORDS):
            return
        if opaque or any(_PATHISH_NAME.search(name) for name in names):
            return
        yield self.violation(
            file, node, "file-content ValueError must interpolate the offending "
            "path into its message (the fleet pipelines promise "
            "'ValueError naming the path')")


# ----------------------------------------------------------------------
# RL004 picklable-worker-specs
# ----------------------------------------------------------------------
def _spec_class_names(files: Iterable[SourceFile]) -> frozenset[str]:
    """Class names returned by any ``worker_spec()`` implementation."""
    names: set[str] = set()
    for file in files:
        for node in ast.walk(file.tree):
            if not (isinstance(node, ast.FunctionDef) and node.name == "worker_spec"):
                continue
            if node.returns is not None:
                parts = _dotted_parts(node.returns)
                if parts:
                    names.add(parts[-1])
            for child in ast.walk(node):
                if (isinstance(child, ast.Return)
                        and isinstance(child.value, ast.Call)):
                    parts = _dotted_parts(child.value.func)
                    if parts:
                        names.add(parts[-1])
    return frozenset(names)


class PicklableWorkerSpecs(Rule):
    id = "RL004"
    name = "picklable-worker-specs"
    rationale = ("worker specs are pickled to the survey's process pool; "
                 "lambdas, closures and open handles do not survive the trip")

    def applies(self, file: SourceFile) -> bool:
        return file.path.startswith("src/repro/")

    def check(self, file: SourceFile, context: ProjectContext) -> Iterator[Violation]:
        for node in ast.walk(file.tree):
            if (isinstance(node, ast.ClassDef)
                    and node.name in context.spec_class_names):
                yield from self._check_spec_class(file, node)

    def _check_spec_class(self, file: SourceFile,
                          node: ast.ClassDef) -> Iterator[Violation]:
        # Class-level field defaults (dataclass fields included).
        for stmt in node.body:
            value = None
            if isinstance(stmt, ast.Assign):
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                value = stmt.value
            if value is not None:
                yield from self._check_stored_value(file, node, value,
                                                    "a field default")
        # Values stored onto self inside methods.
        for method in (stmt for stmt in node.body
                       if isinstance(stmt, ast.FunctionDef)):
            local_defs = {child.name for child in ast.walk(method)
                          if isinstance(child, ast.FunctionDef)
                          and child is not method}
            for child in ast.walk(method):
                stored: ast.expr | None = None
                if isinstance(child, ast.Assign) and any(
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        for target in child.targets):
                    stored = child.value
                elif (isinstance(child, ast.Call)
                      and _dotted_parts(child.func) == ("object", "__setattr__")
                      and len(child.args) == 3):
                    stored = child.args[2]
                if stored is None:
                    continue
                yield from self._check_stored_value(file, node, stored,
                                                    "an instance field")
                if isinstance(stored, ast.Name) and stored.id in local_defs:
                    yield self.violation(
                        file, stored,
                        f"worker spec {node.name} stores local closure "
                        f"{stored.id!r} in an instance field; closures cannot "
                        "be pickled to the worker pool")

    def _check_stored_value(self, file: SourceFile, cls: ast.ClassDef,
                            value: ast.expr, where: str) -> Iterator[Violation]:
        for child in ast.walk(value):
            if isinstance(child, ast.Lambda):
                yield self.violation(
                    file, child,
                    f"worker spec {cls.name} stores a lambda in {where}; "
                    "lambdas cannot be pickled to the worker pool")
            elif isinstance(child, ast.Call):
                parts = _dotted_parts(child.func)
                if parts and parts[-1] == "open":
                    yield self.violation(
                        file, child,
                        f"worker spec {cls.name} stores an open handle in "
                        f"{where}; store the path and re-open in the worker")


# ----------------------------------------------------------------------
# RL006 deterministic-iteration
# ----------------------------------------------------------------------
def _is_empty_accumulator(value: ast.expr | None) -> bool:
    """True for ``{}``, ``dict()``, ``set()``, ``frozenset()``, ``defaultdict(...)``."""
    if isinstance(value, ast.Dict) and not value.keys:
        return True
    if isinstance(value, ast.Call):
        parts = _dotted_parts(value.func)
        if parts is None:
            return False
        name = parts[-1]
        if name in ("dict", "set", "frozenset") and not value.args:
            return True
        if name == "defaultdict":
            return True
    return False


def _is_set_expression(node: ast.expr) -> bool:
    """True for set displays/comprehensions and ``set(...)``/``frozenset(...)``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        parts = _dotted_parts(node.func)
        return parts is not None and parts[-1] in ("set", "frozenset")
    return False


class DeterministicIteration(Rule):
    id = "RL006"
    name = "deterministic-iteration"
    rationale = ("record output must depend only on the data *set*, not on "
                 "hash seeds or insertion history; iterate accumulators via "
                 "sorted(...)")

    def applies(self, file: SourceFile) -> bool:
        return file.is_record_module

    def check(self, file: SourceFile, context: ProjectContext) -> Iterator[Violation]:
        scopes: list[ast.AST] = [file.tree]
        scopes.extend(node for node in ast.walk(file.tree)
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
        for scope in scopes:
            yield from self._check_scope(file, scope)

    def _scope_statements(self, scope: ast.AST) -> Iterator[ast.AST]:
        """Walk a scope without descending into nested function scopes."""
        body = scope.body if hasattr(scope, "body") else []
        stack = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _check_scope(self, file: SourceFile, scope: ast.AST) -> Iterator[Violation]:
        accumulators: set[str] = set()
        for node in self._scope_statements(scope):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if _is_empty_accumulator(value) or _is_set_expression(value):
                for target in targets:
                    if isinstance(target, ast.Name):
                        accumulators.add(target.id)

        def iteration_sites() -> Iterator[ast.expr]:
            for node in self._scope_statements(scope):
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    yield node.iter
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                       ast.GeneratorExp)):
                    for generator in node.generators:
                        yield generator.iter

        for iterable in iteration_sites():
            yield from self._check_iterable(file, iterable, accumulators)

    def _check_iterable(self, file: SourceFile, iterable: ast.expr,
                        accumulators: set[str]) -> Iterator[Violation]:
        if _is_set_expression(iterable):
            yield self.violation(
                file, iterable,
                "iterating a set in a record-emitting module follows hash "
                "order, which varies across processes; wrap it in sorted(...)")
            return
        name: str | None = None
        if isinstance(iterable, ast.Name):
            name = iterable.id
        elif (isinstance(iterable, ast.Call)
              and isinstance(iterable.func, ast.Attribute)
              and iterable.func.attr in ("keys", "values", "items")
              and isinstance(iterable.func.value, ast.Name)):
            name = iterable.func.value.id
        if name is not None and name in accumulators:
            yield self.violation(
                file, iterable,
                f"iterating accumulator {name!r} in insertion order makes "
                "record output depend on arrival history; wrap the iteration "
                "in sorted(...)")


# ----------------------------------------------------------------------
# RL007 quarantine-discipline
# ----------------------------------------------------------------------
#: Dotted-name fragments that mark a call as part of the failure-recording
#: / retry machinery (``record_failure``, ``append_failures``,
#: ``_quarantine_*``, ``retry_delay``, ``_needs_resubmit``, ...).
_QUARANTINE_CALL_WORDS = ("failure", "retry", "quarantine", "resubmit")


class QuarantineDiscipline(Rule):
    id = "RL007"
    name = "quarantine-discipline"
    rationale = ("an isolated failure must be recorded or re-raised, never "
                 "silently dropped; quarantining except handlers must call "
                 "the failure-record/retry machinery")

    def applies(self, file: SourceFile) -> bool:
        return file.is_quarantine_module

    def check(self, file: SourceFile, context: ProjectContext) -> Iterator[Violation]:
        for node in ast.walk(file.tree):
            if isinstance(node, ast.ExceptHandler) and not self._accounted(node):
                yield self.violation(
                    file, node,
                    "except handler in a quarantining pipeline module neither "
                    "re-raises nor records the failure (no raise statement, no "
                    "failure/retry/quarantine/resubmit call); a silently "
                    "continued handler drops pairs without a failure record")

    @staticmethod
    def _accounted(handler: ast.ExceptHandler) -> bool:
        """True when the handler re-raises or reaches the failure machinery."""
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                parts = _dotted_parts(node.func)
                if parts and any(word in part.lower() for part in parts
                                 for word in _QUARANTINE_CALL_WORDS):
                    return True
        return False


# ----------------------------------------------------------------------
# RL008 content-addressed-keys
# ----------------------------------------------------------------------
#: Method names that enumerate a directory in filesystem order.
_FS_ITERATION_ATTRS = frozenset({"glob", "rglob", "iterdir"})

#: Fully-qualified callables that enumerate a directory in filesystem order.
_FS_ITERATION_CALLS = frozenset({"os.listdir", "os.scandir", "glob.glob",
                                 "glob.iglob"})


class ContentAddressedKeys(Rule):
    id = "RL008"
    name = "content-addressed-keys"
    rationale = ("store/cache keys must derive from hashed content only; "
                 "id(), wall-clock/uuid calls and unsorted filesystem "
                 "iteration would key the cache on process or disk state")

    def applies(self, file: SourceFile) -> bool:
        return file.is_store_module

    def check(self, file: SourceFile, context: ProjectContext) -> Iterator[Violation]:
        imports = _ImportTable(file.tree)
        wrapped = self._sorted_wrapped_calls(file.tree)
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "id":
                yield self.violation(
                    file, node,
                    "id() is a process-lifetime address, not an identity; "
                    "derive cache keys from hashed content instead")
                continue
            full = imports.resolve(node.func)
            if full in _WALLCLOCK_CALLS or (full or "").startswith("uuid."):
                yield self.violation(
                    file, node,
                    f"{full}() injects process state into a store/cache "
                    "module; cache identity must come from hashed content")
                continue
            attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
            if (attr in _FS_ITERATION_ATTRS or full in _FS_ITERATION_CALLS) \
                    and node not in wrapped:
                yield self.violation(
                    file, node,
                    f"{attr or full}() enumerates the filesystem in on-disk "
                    "order; wrap the listing in sorted(...) so store contents "
                    "do not depend on directory state")

    @staticmethod
    def _sorted_wrapped_calls(tree: ast.Module) -> set[ast.Call]:
        """Calls that appear inside the arguments of a ``sorted(...)`` call."""
        wrapped: set[ast.Call] = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "sorted"):
                for argument in node.args:
                    wrapped.update(child for child in ast.walk(argument)
                                   if isinstance(child, ast.Call))
        return wrapped


#: The registered rules, in id order.
RULES: tuple[Rule, ...] = (
    NoUnseededRandomness(),
    NoWallclockInLibrary(),
    ErrorDiscipline(),
    PicklableWorkerSpecs(),
    DeterministicIteration(),
    QuarantineDiscipline(),
    ContentAddressedKeys(),
)


def rule_catalogue() -> list[tuple[str, str, str]]:
    """(id, name, rationale) triples for every rule, in id order."""
    return sorted((rule.id, rule.name, rule.rationale) for rule in RULES)


# ----------------------------------------------------------------------
# Running the analyser
# ----------------------------------------------------------------------
def _suppressed(file: SourceFile, violation: Violation) -> bool:
    if violation.line not in file.disabled:
        return False
    rules = file.disabled[violation.line]
    return rules is None or violation.rule in rules


def lint_sources(sources: Mapping[str, str],
                 select: Sequence[str] | None = None) -> list[Violation]:
    """Lint a mapping of repo-relative path -> source text.

    The path classifies each file (library / CLI / IO module / record
    module), exactly as on disk; the self-tests use virtual paths to
    place fixture snippets in any zone.
    """
    files = [_parse_source(path, text) for path, text in sorted(sources.items())]
    context = ProjectContext(spec_class_names=_spec_class_names(files))
    violations: list[Violation] = []
    for file in files:
        for rule in RULES:
            if select is not None and rule.id not in select:
                continue
            if not rule.applies(file):
                continue
            violations.extend(v for v in rule.check(file, context)
                              if not _suppressed(file, v))
    return sorted(violations, key=lambda v: (v.path, v.line, v.col, v.rule))


def find_repo_root(start: Path | None = None) -> Path:
    """Locate the repository root by walking up to ``pyproject.toml``."""
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    raise ValueError(f"no pyproject.toml above {here}; pass explicit paths or "
                     "--root to repro-lint")


def _collect_files(root: Path, paths: Sequence[Path]) -> dict[str, str]:
    sources: dict[str, str] = {}
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            raise ValueError(f"not a python file or directory: {path}")
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            try:
                rel = candidate.resolve().relative_to(root).as_posix()
            except ValueError:
                rel = candidate.as_posix()
            sources[rel] = candidate.read_text()
    return sources


def lint_paths(paths: Sequence[Path], root: Path | None = None,
               select: Sequence[str] | None = None) -> list[Violation]:
    """Lint files/directories on disk."""
    root = root if root is not None else find_repo_root(
        paths[0] if paths else None)
    return lint_sources(_collect_files(root, paths), select=select)


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point (``repro-lint``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static analysis of this repository's own invariants "
                    "(seeded RNG, no wall clock in the library, error and "
                    "iteration discipline, picklable worker specs, "
                    "content-addressed cache keys).")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to lint (default: the "
                             "repository's src/, tests/, benchmarks/ and "
                             "examples/ trees)")
    parser.add_argument("--root", type=Path, default=None,
                        help="repository root for path classification "
                             "(default: walk up to pyproject.toml)")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule ids to run (default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, name, rationale in rule_catalogue():
            print(f"{rule_id}  {name}: {rationale}")
        return 0

    try:
        root = (args.root.resolve() if args.root is not None
                else find_repo_root(args.paths[0] if args.paths else None))
        paths = list(args.paths) if args.paths else [
            root / part for part in DEFAULT_ROOTS if (root / part).is_dir()]
        select = args.select.split(",") if args.select else None
        violations = lint_paths(paths, root=root, select=select)
    except (ValueError, SyntaxError) as error:
        print(f"repro-lint: error: {error}", file=sys.stderr)
        return 2

    for violation in violations:
        print(violation.render())
    if violations:
        print(f"repro-lint: {len(violations)} violation(s) in "
              f"{len({v.path for v in violations})} file(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
