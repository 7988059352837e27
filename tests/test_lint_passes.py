"""``unit-mismatch``, a file rule run by ``repro-lint``, and
``stream-purpose``, a check in ``child_rng`` that runs while the
sanitizer is armed; the stream-registry drift guard; and the
simulator/analyzer import split."""

import ast
import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.engine import LintConfig, LintEngine
from repro.lint.rules import UnitMismatchRule
from repro.util import sanitizer
from repro.util.rng import child_rng

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
SRC = REPO_ROOT / "src"

# Fixtures live under tests/, which the sim classifier would skip.
UNIT_ENGINE = LintEngine([UnitMismatchRule()], LintConfig(treat_as_sim=True))


@pytest.fixture(autouse=True)
def clean_sanitizer():
    sanitizer.reset()
    sanitizer.disarm()
    yield
    sanitizer.reset()
    sanitizer.disarm()


def run_stream_fixture(name: str, tmp_path: Path) -> list[str]:
    """Exercise a stream fixture under the armed sanitizer, from a copy
    outside tests/ (where sites are not audited); its violations."""
    copy = tmp_path / name
    shutil.copy(FIXTURES / name, copy)
    with sanitizer.sanitizing():
        module = runpy.run_path(str(copy))
        if name == "stream_dup_bad.py":
            module["make_streams"](7)
            module["opaque"](7, "delay")  # a fault kind, away from the injector
        else:
            module["make_streams"](7, "p0")
            module["scoped_draw"](7)
    return sanitizer.violations()


def findings(fixture: str, check: str, tmp_path: Path) -> list[str]:
    if check == "units":
        return [f.rule for f in UNIT_ENGINE.lint_file(FIXTURES / fixture)]
    return [v.split(":")[0] for v in run_stream_fixture(fixture, tmp_path)]


class TestFixtureCorpus:
    @pytest.mark.parametrize(
        "fixture,check,rules",
        [
            ("stream_dup_bad.py", "streams", {"stream-purpose"}),
            ("units_bad.py", "units", {"unit-mismatch"}),
        ],
    )
    def test_bad_fixture_trips_its_pass(self, fixture, check, rules, tmp_path):
        found = findings(fixture, check, tmp_path)
        assert found, f"{fixture} should trip the {check} check"
        assert set(found) == rules

    @pytest.mark.parametrize(
        "fixture,check",
        [
            ("units_good.py", "units"),
            ("stream_dup_good.py", "streams"),
        ],
        ids=["units_good.py", "stream_dup_good.py"],
    )
    def test_good_fixture_is_clean_under_every_pass(self, fixture, check, tmp_path):
        assert findings(fixture, check, tmp_path) == []
        assert UNIT_ENGINE.lint_file(FIXTURES / fixture) == []

    def test_pragma_suppresses_pass_findings(self):
        bad = "def f(a_ns, b_ticks):\n    return a_ns + b_ticks\n"
        path = Path("src/repro/mod.py")
        assert UNIT_ENGINE.lint_source(bad, path)
        bad = bad.replace("b_ticks\n", "b_ticks  # repro-lint: disable=unit-mismatch\n", 1)
        assert UNIT_ENGINE.lint_source(bad, path) == []

    def test_units_bad_flags_each_function_once(self):
        found = UNIT_ENGINE.lint_file(FIXTURES / "units_bad.py")
        tree = ast.parse((FIXTURES / "units_bad.py").read_text())
        spans = [(fn.lineno, fn.end_lineno) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
        assert len(spans) == 4
        assert [sum(lo <= f.line <= hi for f in found) for lo, hi in spans] == [1, 1, 1, 1]


class TestUnitRule:
    @pytest.mark.parametrize(
        "source",
        [
            "def f(a_ns, b_ms):\n    return a_ns + b_ms * 1_000_000\n",
            "def f(a_ns, b_us):\n    a_ns += b_us\n",
            "def f(a_ns):\n    g(timeout_ms=a_ns)\n",
            "def f_ns(a_ticks):\n    return a_ticks\n",
            "def f(a_ms):\n    return us_to_ns(a_ms)\n",
            "def f(a_ms):\n    return a_ms * TICK_NS\n",
            "def f(a_ns, b_ticks):\n    return max(a_ns, b_ticks)\n",
            "START_NS = 5\nEND_TICKS = 9\nSPAN_NS = END_TICKS - START_NS\n",
        ],
    )
    def test_flags(self, source):
        assert len(UNIT_ENGINE.lint_source(source, Path("src/repro/m.py"))) == 1

    @pytest.mark.parametrize(
        "source",
        [
            "def f(a_ns, b_ticks):\n    return a_ns + b_ticks * TICK_NS\n",
            "def f(a_ns, b_ms):\n    return a_ns + ms_to_ns(b_ms)\n",
            "def f(a_ns, b_us):\n    return a_ns + us_to_ns(b_us) // NS_PER_US * NS_PER_US\n",
            "def f(a_ns, n):\n    return a_ns / n + a_ns // TICK_NS * TICK_NS\n",
            "def f(ns, b_ms):\n    return ns + b_ms\n",  # UNIT_EXCEPTIONS
            "def f(a_ns, b_ns):\n    ratio = a_ns / b_ns\n    return ratio < 0.5\n",
        ],
    )
    def test_silent(self, source):
        assert UNIT_ENGINE.lint_source(source, Path("src/repro/m.py")) == []

    def test_timeunits_module_is_exempt(self):
        source = "def ms_to_ns(ms):\n    x_ns = ms\n    return x_ns\n"
        assert UNIT_ENGINE.lint_source(source, Path("src/repro/m.py"))
        assert UNIT_ENGINE.lint_source(source, Path("src/repro/util/timeunits.py")) == []


class TestStreamSiteCheck:
    def test_bad_fixture_gives_one_violation_per_case(self, tmp_path):
        violations = run_stream_fixture("stream_dup_bad.py", tmp_path)
        assert len(violations) == 3, violations
        unregistered, over_count, computed = violations
        assert "'totally-unregistered'" in unregistered and "not in" in unregistered
        assert "'client' built at 2 sites" in over_count
        assert "stream_dup_bad.py:14" in over_count  # the second `client` line
        assert "'delay'" in computed and "stream_dup_bad.py:21" in computed

    def test_a_site_rebuilt_in_a_loop_is_one_site(self, tmp_path):
        module = tmp_path / "loop.py"
        module.write_text(
            "from repro.util.rng import child_rng\n"
            "def build(seed):\n"
            "    return [child_rng(seed, f'load-arrival:{i}') for i in range(3)]\n"
        )
        with sanitizer.sanitizing():
            runpy.run_path(str(module))["build"](1)
            runpy.run_path(str(module))["build"](2)
        assert sanitizer.ok(), sanitizer.violations()

    def test_disarmed_factory_is_not_audited(self, monkeypatch):
        def audit(purpose, frame):
            raise AssertionError(f"audited {purpose!r} while disarmed")

        monkeypatch.setattr(sanitizer, "check_stream_site", audit)
        child_rng(1, "never-registered")
        with sanitizer.sanitizing(), pytest.raises(AssertionError):
            child_rng(1, "never-registered")

    def test_worker_sites_merge_into_the_parent(self):
        # Two construction sites of a one-site family, seen by two
        # different pool tasks, still alias: the merge must count both.
        with sanitizer.sanitizing():
            sanitizer.check_stream_site("client", _FakeFrame("src/repro/a.py", 3))
            worker = sanitizer.drain_worker_state()
            sanitizer.check_stream_site("client", _FakeFrame("src/repro/b.py", 5))
            sanitizer.merge_worker_state(worker)
        assert len(sanitizer.violations()) == 1
        assert "'client' built at 2 sites" in sanitizer.violations()[0]


class _FakeFrame:
    def __init__(self, filename: str, line: int) -> None:
        self.f_code = compile("", filename, "exec")
        self.f_lineno = line


class TestRepoIsClean:
    def test_all_passes_clean_over_src_and_tests(self):
        found = LintEngine([UnitMismatchRule()]).lint_paths([SRC, REPO_ROOT / "tests"])
        assert found == [], [f.render() for f in found]


class TestStreamRegistryDriftGuard:
    """Pinned inventory: the registry must match the purposes actually
    constructed in src/repro, read off the source with no call graph."""

    @staticmethod
    def _own_nodes(fn):
        """Nodes of *fn*'s body outside nested functions and classes."""
        stack = list(fn.body)
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef, ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _purpose(node: ast.AST, local: dict) -> tuple[str, str | None]:
        if isinstance(node, ast.Name):
            node = local.get(node.id, node)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return "literal", node.value
        if isinstance(node, ast.JoinedStr) and isinstance(node.values[0], ast.Constant):
            text = node.values[0].value
            return "prefix", text[: text.index(":") + 1] if ":" in text else text
        return "dynamic", None

    def _extract(self):
        literals: dict[str, int] = {}
        prefixes: dict[str, int] = {}
        dynamic: set[tuple[str, str]] = set()
        for path in sorted((SRC / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text())
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                # Per-function resolution of simple `name = "..."` locals.
                nodes = list(self._own_nodes(fn))
                local = {
                    a.targets[0].id: a.value
                    for a in nodes
                    if isinstance(a, ast.Assign) and len(a.targets) == 1
                    and isinstance(a.targets[0], ast.Name)
                }
                for call in nodes:
                    if not (isinstance(call, ast.Call) and len(call.args) >= 2):
                        continue
                    func = call.func
                    if getattr(func, "id", getattr(func, "attr", None)) != "child_rng":
                        continue
                    kind, value = self._purpose(call.args[1], local)
                    if kind == "literal":
                        literals[value] = literals.get(value, 0) + 1
                    elif kind == "prefix":
                        prefixes[value] = prefixes.get(value, 0) + 1
                    else:
                        rel = path.relative_to(SRC).as_posix()
                        dynamic.add((rel, fn.name))
        return literals, prefixes, dynamic

    def test_registry_matches_the_purposes_in_use(self):
        literals, prefixes, dynamic = self._extract()
        # Pinned: renaming any of these changes seeded RNG streams and
        # therefore every pinned schedule digest.  Register new sites;
        # never rename.
        assert literals == {
            "2pc-client": 1, "client": 1, "image": 2, "net": 1, "stall": 1,
        }
        assert prefixes == {
            "chaos-load:": 1, "load-arrival:": 1, "load-cluster:": 1,
            "load-image:": 1, "load-retry:": 1,
        }
        assert dynamic == {("repro/faults/injector.py", "stream")}
        assert literals == sanitizer.STREAM_REGISTRY
        assert prefixes == sanitizer.PREFIX_REGISTRY
        assert dynamic == sanitizer.DYNAMIC_SITES


class TestPassNoiseControl:
    def test_streams_pass_ignores_test_files(self):
        # Tests construct ad-hoc purposes freely; only sim files are
        # audited, by the same classification repro-lint uses.
        with sanitizer.sanitizing():
            child_rng(1, "ad-hoc-test-purpose")
            child_rng(1, "client")
            child_rng(1, "client")
        assert sanitizer.ok(), sanitizer.violations()
        assert not sanitizer.is_sim_path(__file__)
        assert LintConfig().is_sim_path(Path(__file__)) is False


def test_simulator_does_not_import_the_analyzer():
    code = (
        "import sys, repro.bench.cli, repro.load, repro.sharding\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.lint')))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
