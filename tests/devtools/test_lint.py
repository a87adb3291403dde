"""Self-tests of ``repro-lint``: every rule fires, passes and suppresses.

Two layers:

* **Fixture matrix** -- for each syntactic rule (RL001-RL004, RL006,
  RL007) a
  minimal snippet that violates it, a minimal snippet that satisfies it,
  and the violating snippet with a ``# repro-lint: disable=RLxxx``
  comment on the offending line.  Snippets are linted under *virtual*
  repo-relative paths so the zone scoping (library vs CLI vs IO module
  vs record module) is exercised exactly as on disk.
* **End to end** -- the analyser over this repository's own ``src/``,
  ``tests/``, ``benchmarks/`` and ``examples/`` trees reports *zero*
  violations, and the ``main()`` entry point exits 0/1/2 as documented.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.devtools.lint import (DEFAULT_ROOTS, RULES, Violation, find_repo_root,
                                 lint_paths, lint_sources, main, rule_catalogue)

REPO_ROOT = Path(__file__).resolve().parents[2]

LIBRARY = "src/repro/core/fixture.py"
IO_MODULE = "src/repro/records/sinks.py"
RECORD_MODULE = "src/repro/analysis/survey.py"
QUARANTINE_MODULE = "src/repro/analysis/policy_survey.py"
DRIVER_MODULE = "src/repro/analysis/driver.py"
STORE_MODULE = "src/repro/records/store.py"
TEST_ZONE = "tests/core/test_fixture.py"


def rule_ids(violations: list[Violation]) -> list[str]:
    return [violation.rule for violation in violations]


# ----------------------------------------------------------------------
# Fixture matrix: one (rule, path, bad, good) case per behaviour
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Case:
    label: str
    rule: str
    path: str
    bad: str
    good: str


CASES = [
    Case("legacy-global-rng", "RL001", LIBRARY,
         bad="import numpy as np\nx = np.random.normal(size=3)\n",
         good="import numpy as np\nrng = np.random.default_rng(7)\n"
              "x = rng.normal(size=3)\n"),
    Case("argless-default-rng", "RL001", TEST_ZONE,
         bad="import numpy as np\nrng = np.random.default_rng()\n",
         good="import numpy as np\nrng = np.random.default_rng(0)\n"),
    Case("none-seed-is-unseeded", "RL001", LIBRARY,
         bad="from numpy.random import default_rng\nrng = default_rng(None)\n",
         good="from numpy.random import default_rng\nrng = default_rng(42)\n"),
    Case("stdlib-module-rng", "RL001", TEST_ZONE,
         bad="import random\nx = random.random()\n",
         good="import random\nr = random.Random(13)\nx = r.random()\n"),
    Case("argless-random-instance", "RL001", TEST_ZONE,
         bad="import random\nr = random.Random()\n",
         good="import random\nr = random.Random(13)\n"),
    Case("wallclock-time", "RL002", LIBRARY,
         bad="import time\n\ndef f() -> float:\n    return time.time()\n",
         good="def f(now: float) -> float:\n    return now\n"),
    Case("wallclock-datetime-alias", "RL002", LIBRARY,
         bad="from datetime import datetime\nstamp = datetime.now()\n",
         good="from datetime import datetime\n"
              "stamp = datetime.fromtimestamp(0.0)\n"),
    Case("bare-except", "RL003", TEST_ZONE,
         bad="try:\n    x = 1\nexcept:\n    x = 2\n",
         good="try:\n    x = 1\nexcept ValueError:\n    x = 2\n"),
    Case("swallowed-exception", "RL003", LIBRARY,
         bad="try:\n    x = 1\nexcept Exception:\n    pass\n",
         good="try:\n    x = 1\nexcept Exception as error:\n"
              "    raise RuntimeError('wrapped') from error\n"),
    Case("content-error-names-no-path", "RL003", IO_MODULE,
         bad="def f(path):\n"
             "    raise ValueError('corrupt record file: bad magic')\n",
         good="def f(path):\n"
              "    raise ValueError(f'corrupt record file {path}: bad magic')\n"),
    Case("lambda-in-worker-spec", "RL004", "src/repro/telemetry/fixture.py",
         bad="class Spec:\n"
             "    def __init__(self):\n"
             "        self.loader = lambda: 1\n"
             "\n"
             "class Source:\n"
             "    def worker_spec(self) -> Spec:\n"
             "        return Spec()\n",
         good="class Spec:\n"
              "    def __init__(self, path):\n"
              "        self.path = path\n"
              "\n"
              "class Source:\n"
              "    def worker_spec(self) -> Spec:\n"
              "        return Spec('x')\n"),
    Case("open-handle-in-worker-spec", "RL004", "src/repro/telemetry/fixture.py",
         bad="class Spec:\n"
             "    def __init__(self, path):\n"
             "        self.handle = open(path)\n"
             "\n"
             "def worker_spec() -> Spec:\n"
             "    return Spec('x')\n",
         good="class Spec:\n"
              "    def __init__(self, path):\n"
              "        self.path = path\n"
              "\n"
              "def worker_spec() -> Spec:\n"
              "    return Spec('x')\n"),
    Case("closure-in-worker-spec", "RL004", "src/repro/telemetry/fixture.py",
         bad="class Spec:\n"
             "    def __init__(self):\n"
             "        def loader():\n"
             "            return 1\n"
             "        self.loader = loader\n"
             "\n"
             "def worker_spec() -> Spec:\n"
             "    return Spec()\n",
         good="def loader():\n"
              "    return 1\n"
              "\n"
              "class Spec:\n"
              "    def __init__(self):\n"
              "        self.loader = loader\n"
              "\n"
              "def worker_spec() -> Spec:\n"
              "    return Spec()\n"),
    Case("frozen-spec-setattr-lambda", "RL004", "src/repro/telemetry/fixture.py",
         bad="class Spec:\n"
             "    def __init__(self):\n"
             "        object.__setattr__(self, 'fn', lambda: 1)\n"
             "\n"
             "def worker_spec() -> Spec:\n"
             "    return Spec()\n",
         good="class Spec:\n"
              "    def __init__(self):\n"
              "        object.__setattr__(self, 'fn', None)\n"
              "\n"
              "def worker_spec() -> Spec:\n"
              "    return Spec()\n"),
    Case("accumulator-insertion-order", "RL006", RECORD_MODULE,
         bad="def f(items):\n"
             "    acc = {}\n"
             "    for key, value in items:\n"
             "        acc[key] = value\n"
             "    return [acc[key] for key in acc]\n",
         good="def f(items):\n"
              "    acc = {}\n"
              "    for key, value in items:\n"
              "        acc[key] = value\n"
              "    return [acc[key] for key in sorted(acc)]\n"),
    Case("accumulator-items-view", "RL006", RECORD_MODULE,
         bad="def f(items):\n"
             "    acc = dict()\n"
             "    for key, value in items:\n"
             "        acc[key] = value\n"
             "    out = []\n"
             "    for key, value in acc.items():\n"
             "        out.append((key, value))\n"
             "    return out\n",
         good="def f(items):\n"
              "    acc = dict()\n"
              "    for key, value in items:\n"
              "        acc[key] = value\n"
              "    out = []\n"
              "    for key, value in sorted(acc.items()):\n"
              "        out.append((key, value))\n"
              "    return out\n"),
    Case("set-iteration", "RL006", RECORD_MODULE,
         bad="def f(values):\n"
             "    return [value for value in set(values)]\n",
         good="def f(values):\n"
              "    return [value for value in sorted(set(values))]\n"),
    Case("quarantine-silent-continue", "RL007", QUARANTINE_MODULE,
         bad="def f(pairs):\n"
             "    out = []\n"
             "    for pair in pairs:\n"
             "        try:\n"
             "            out.append(load(pair))\n"
             "        except ValueError:\n"
             "            continue\n"
             "    return out\n",
         good="def f(pairs, failures):\n"
              "    out = []\n"
              "    for pair in pairs:\n"
              "        try:\n"
              "            out.append(load(pair))\n"
              "        except ValueError as error:\n"
              "            failures.append(record_failure(pair, error))\n"
              "    return out\n"),
    Case("quarantine-dropped-retry", "RL007", QUARANTINE_MODULE,
         bad="def f(task):\n"
             "    try:\n"
             "        return task()\n"
             "    except OSError:\n"
             "        return None\n",
         good="def f(task, retry, sleep):\n"
              "    try:\n"
              "        return task()\n"
              "    except OSError:\n"
              "        sleep(retry.delay(1))\n"
              "        return task()\n"),
    Case("store-key-from-id", "RL008", STORE_MODULE,
         bad="def key(block):\n"
             "    return str(id(block))\n",
         good="import hashlib\n"
              "def key(payload):\n"
              "    return hashlib.sha256(payload).hexdigest()\n"),
    Case("store-key-from-wallclock", "RL008", STORE_MODULE,
         bad="import time\n"
             "def entry_name(digest):\n"
             "    return f'{digest}-{time.time()}'\n",
         good="def entry_name(digest):\n"
              "    return digest\n"),
    Case("store-key-from-uuid", "RL008", STORE_MODULE,
         bad="import uuid\n"
             "def entry_name():\n"
             "    return uuid.uuid4().hex\n",
         good="def entry_name(digest):\n"
              "    return digest\n"),
    Case("store-unsorted-listing", "RL008", STORE_MODULE,
         bad="def blocks(entry):\n"
             "    return [path for path in entry.glob('block-*.rcb')]\n",
         good="def blocks(entry):\n"
              "    return sorted(entry.glob('block-*.rcb'))\n"),
    Case("store-unsorted-scandir", "RL008", STORE_MODULE,
         bad="import os\n"
             "def entries(root):\n"
             "    return list(os.listdir(root))\n",
         good="import os\n"
              "def entries(root):\n"
              "    return sorted(os.listdir(root))\n"),
]


def test_rl008_is_scoped_to_store_modules() -> None:
    # The same unsorted listing is fine outside the store/cache modules
    # (RL006 covers record modules with its own iteration rules).
    bad = case_by_label("store-unsorted-listing").bad
    assert "RL008" not in rule_ids(lint_sources({LIBRARY: bad}))
    assert "RL008" not in rule_ids(lint_sources({TEST_ZONE: bad}))


def case_by_label(label: str) -> Case:
    return next(case for case in CASES if case.label == label)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.label)
def test_rule_fires_on_violation(case: Case) -> None:
    violations = lint_sources({case.path: case.bad})
    assert case.rule in rule_ids(violations), \
        f"{case.label}: expected {case.rule} on\n{case.bad}"


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.label)
def test_rule_passes_on_clean_code(case: Case) -> None:
    violations = lint_sources({case.path: case.good})
    assert case.rule not in rule_ids(violations), \
        f"{case.label}: unexpected {case.rule} on\n{case.good}\n" \
        + "\n".join(v.render() for v in violations)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.label)
def test_line_suppression_silences_the_rule(case: Case) -> None:
    fired = lint_sources({case.path: case.bad})
    lines = case.bad.splitlines()
    for violation in fired:
        if violation.rule == case.rule:
            index = violation.line - 1
            lines[index] += f"  # repro-lint: disable={case.rule}"
    suppressed = lint_sources({case.path: "\n".join(lines) + "\n"})
    assert case.rule not in rule_ids(suppressed)


def test_bare_disable_suppresses_all_rules() -> None:
    source = ("import numpy as np\n"
              "x = np.random.normal(size=3)  # repro-lint: disable\n")
    assert lint_sources({LIBRARY: source}) == []


def test_suppression_is_per_rule() -> None:
    # Disabling RL002 must not hide the RL001 violation on the same line.
    source = ("import numpy as np\n"
              "x = np.random.normal(size=3)  # repro-lint: disable=RL002\n")
    assert rule_ids(lint_sources({LIBRARY: source})) == ["RL001"]


# ----------------------------------------------------------------------
# Zone scoping: the same snippet means different things in different trees
# ----------------------------------------------------------------------
WALLCLOCK = "import time\nstamp = time.time()\n"


@pytest.mark.parametrize("path", ["src/repro/cli.py", "benchmarks/bench_x.py",
                                  "examples/demo.py", TEST_ZONE,
                                  "src/repro/devtools/lint.py"])
def test_wallclock_allowed_outside_library(path: str) -> None:
    assert lint_sources({path: WALLCLOCK}) == []


def test_wallclock_rejected_in_library() -> None:
    assert rule_ids(lint_sources({LIBRARY: WALLCLOCK})) == ["RL002"]


def test_content_error_rule_scopes_to_io_modules() -> None:
    raise_stmt = "raise ValueError('corrupt record file: bad magic')\n"
    assert rule_ids(lint_sources({IO_MODULE: raise_stmt})) == ["RL003"]
    assert lint_sources({LIBRARY: raise_stmt}) == []


def test_iteration_rule_scopes_to_record_modules() -> None:
    snippet = case_by_label("set-iteration").bad
    assert rule_ids(lint_sources({DRIVER_MODULE: snippet})) == ["RL006"]
    assert lint_sources({LIBRARY: snippet}) == []
    assert lint_sources({TEST_ZONE: snippet}) == []


def test_quarantine_rule_scopes_to_quarantine_modules() -> None:
    snippet = case_by_label("quarantine-silent-continue").bad
    assert rule_ids(lint_sources({DRIVER_MODULE: snippet})) == ["RL007"]
    assert lint_sources({LIBRARY: snippet}) == []
    assert lint_sources({IO_MODULE: snippet}) == []
    assert lint_sources({TEST_ZONE: snippet}) == []


def test_quarantine_rule_accepts_bare_raise() -> None:
    source = ("def f(task):\n"
              "    try:\n"
              "        return task()\n"
              "    except OSError:\n"
              "        raise\n")
    assert lint_sources({QUARANTINE_MODULE: source}) == []


def test_iteration_rule_respects_function_scopes() -> None:
    # The accumulator lives in the outer scope; the inner function iterates
    # its *own* parameter, which the analyser must not conflate with it.
    source = ("def outer(items):\n"
              "    acc = {}\n"
              "    def inner(rows):\n"
              "        return [row for row in rows]\n"
              "    return inner(sorted(acc))\n")
    assert lint_sources({RECORD_MODULE: source}) == []


def test_seeded_constructors_pass_everywhere() -> None:
    source = ("import numpy as np\n"
              "rng = np.random.Generator(np.random.PCG64(11))\n"
              "seq = np.random.SeedSequence(5)\n")
    assert lint_sources({LIBRARY: source}) == []


def test_worker_spec_names_resolve_across_files() -> None:
    # worker_spec() lives in one module, the (broken) spec class in another.
    spec = "class RemoteSpec:\n    fn = lambda: 1\n"
    source = ("from .fixture import RemoteSpec\n"
              "def worker_spec() -> RemoteSpec:\n"
              "    return RemoteSpec()\n")
    violations = lint_sources({
        "src/repro/telemetry/fixture.py": spec,
        "src/repro/telemetry/source2.py": source,
    })
    assert rule_ids(violations) == ["RL004"]


# ----------------------------------------------------------------------
# Catalogue, rendering, entry point, end to end
# ----------------------------------------------------------------------
def test_rule_catalogue_lists_every_rule_without_renumbering() -> None:
    """RL005 is retired; the other ids keep their numbers."""
    triples = rule_catalogue()
    assert [rule_id for rule_id, _, _ in triples] == [
        "RL001", "RL002", "RL003", "RL004", "RL006", "RL007", "RL008"]
    assert [rule.id for rule in RULES] == [rule_id for rule_id, _, _ in triples]
    for _, name, rationale in triples:
        assert name and rationale


def test_violation_render_format() -> None:
    violation = Violation(rule="RL001", path="src/repro/x.py", line=3, col=4,
                          message="boom")
    assert violation.render() == "src/repro/x.py:3:4: RL001 boom"


def test_find_repo_root_walks_up_to_pyproject() -> None:
    assert find_repo_root(REPO_ROOT / "src" / "repro") == REPO_ROOT
    with pytest.raises(ValueError, match="pyproject.toml"):
        find_repo_root(Path("/nonexistent/deeply/nested"))


def test_main_list_rules(capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RL001", "RL002", "RL003", "RL004",
                    "RL006", "RL007", "RL008"):
        assert rule_id in out
    assert "RL005" not in out


def test_main_reports_violations_with_exit_1(
        tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    (tmp_path / "pyproject.toml").write_text("[project]\n")
    bad = tmp_path / "src" / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import numpy as np\nx = np.random.normal(size=3)\n")
    code = main(["--root", str(tmp_path), str(tmp_path / "src")])
    captured = capsys.readouterr()
    assert code == 1
    assert "src/repro/core/bad.py:2:4: RL001" in captured.out
    assert "1 violation(s)" in captured.err


def test_main_select_narrows_rules(tmp_path: Path,
                                   capsys: pytest.CaptureFixture[str]) -> None:
    (tmp_path / "pyproject.toml").write_text("[project]\n")
    bad = tmp_path / "src" / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\nimport numpy as np\n"
                   "x = np.random.normal(size=3)\nstamp = time.time()\n")
    code = main(["--root", str(tmp_path), "--select", "RL002",
                 str(tmp_path / "src")])
    captured = capsys.readouterr()
    assert code == 1
    assert "RL002" in captured.out and "RL001" not in captured.out


def test_main_rejects_non_python_path(tmp_path: Path,
                                      capsys: pytest.CaptureFixture[str]) -> None:
    (tmp_path / "pyproject.toml").write_text("[project]\n")
    (tmp_path / "notes.txt").write_text("hello\n")
    code = main(["--root", str(tmp_path), str(tmp_path / "notes.txt")])
    assert code == 2
    assert "not a python file" in capsys.readouterr().err


def test_repository_is_clean_end_to_end(
        capsys: pytest.CaptureFixture[str]) -> None:
    paths = [str(REPO_ROOT / part) for part in DEFAULT_ROOTS
             if (REPO_ROOT / part).is_dir()]
    assert main(["--root", str(REPO_ROOT), *paths]) == 0, \
        capsys.readouterr().out


def test_lint_paths_on_single_file() -> None:
    target = REPO_ROOT / "src" / "repro" / "devtools" / "lint.py"
    assert lint_paths([target], root=REPO_ROOT) == []
