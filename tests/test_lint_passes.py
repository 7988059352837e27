"""Whole-program pass tests: fixtures, the call graph, and the
stream-registry drift guard."""

from pathlib import Path

import pytest

from repro.lint.callgraph import build_project
from repro.lint.engine import LintConfig
from repro.lint.passes import default_passes, run_passes
from repro.lint.streams import (
    DYNAMIC_SITES,
    PREFIX_REGISTRY,
    STREAM_REGISTRY,
    StreamsPass,
    _purpose_of,
    _local_strings,
    _is_child_rng,
)
from repro.lint.units import UnitsPass
from repro.util import timeunits

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
SRC = REPO_ROOT / "src"

# Fixtures live under tests/, which both the sim classifier and the
# exclude list would skip; override both.
PASS_CONFIG = LintConfig(treat_as_sim=True, exclude_parts=("__pycache__",))


def pass_findings(fixture: str, pass_name: str | None = None):
    passes = [p for p in default_passes() if pass_name in (None, p.name)]
    return run_passes([FIXTURES / fixture], passes, PASS_CONFIG)


class TestPassCatalogue:
    def test_two_passes_registered(self):
        assert [p.name for p in default_passes()] == ["units", "streams"]


class TestFixtureCorpus:
    @pytest.mark.parametrize(
        "fixture,pass_name,rules",
        [
            ("stream_dup_bad.py", "streams", {"stream-purpose"}),
            ("units_bad.py", "units", {"unit-mismatch"}),
        ],
    )
    def test_bad_fixture_trips_its_pass(self, fixture, pass_name, rules):
        findings = pass_findings(fixture, pass_name)
        assert findings, f"{fixture} should trip the {pass_name} pass"
        assert {f.rule for f in findings} == rules

    @pytest.mark.parametrize(
        "fixture",
        [
            "units_good.py",
            "stream_dup_good.py",
        ],
    )
    def test_good_fixture_is_clean_under_every_pass(self, fixture):
        findings = pass_findings(fixture)
        assert findings == [], [f.render() for f in findings]

    def test_pragma_suppresses_pass_findings(self, tmp_path):
        bad = "def f(a_ns, b_ticks):\n    return a_ns + b_ticks\n"
        path = tmp_path / "mod.py"
        path.write_text(bad)
        assert run_passes([path], [UnitsPass()], PASS_CONFIG)
        path.write_text(bad.replace(
            "b_ticks\n", "b_ticks  # repro-lint: disable=unit-mismatch\n", 1
        ))
        assert run_passes([path], [UnitsPass()], PASS_CONFIG) == []


class TestRepoIsClean:
    def test_all_passes_clean_over_src_and_tests(self):
        findings = run_passes(
            [SRC, REPO_ROOT / "tests"], config=LintConfig()
        )
        assert findings == [], [f.render() for f in findings]


class TestCallGraphDeterminism:
    def test_rebuild_hits_cache_and_agrees(self):
        paths = [SRC / "repro" / "lint"]
        first = build_project(paths, LintConfig())
        second = build_project(paths, LintConfig())
        assert first.modules  # the analyzer's own modules
        for name, module in first.modules.items():
            assert second.modules[name] is module  # cached parse
        assert list(first.functions) == list(second.functions)

    def test_calls_resolve_through_the_project(self, tmp_path):
        mod = tmp_path / "engine_mod.py"
        mod.write_text(
            "def _offset():\n    return 1\n\n\n"
            "class Engine:\n"
            "    def calibrate(self):\n        return _offset() + self.tick()\n\n"
            "    def tick(self):\n        return 0\n"
        )
        project = build_project([mod], PASS_CONFIG)
        fn = project.functions["engine_mod.Engine.calibrate"]
        targets = {c.target for c in fn.calls if c.target}
        assert targets == {"engine_mod._offset", "engine_mod.Engine.tick"}


class TestStreamRegistryDriftGuard:
    """Pinned inventory: the registry must match the purposes actually
    constructed in src/repro — greppable drift guard (satellite)."""

    def _extract(self):
        project = build_project([SRC / "repro"], LintConfig())
        literals: dict[str, int] = {}
        prefixes: dict[str, int] = {}
        dynamic: set[str] = set()
        for fn in project.sim_functions():
            locals_ = _local_strings(fn)
            for site in fn.calls:
                if not _is_child_rng(site.raw):
                    continue
                if len(site.node.args) < 2:
                    continue
                kind, value = _purpose_of(site.node.args[1], locals_)
                if kind == "literal":
                    literals[value] = literals.get(value, 0) + 1
                elif kind == "prefix":
                    prefixes[value] = prefixes.get(value, 0) + 1
                else:
                    dynamic.add(fn.qualname)
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
        assert dynamic == {"repro.faults.injector.FaultInjector.stream"}
        assert literals == STREAM_REGISTRY
        assert prefixes == PREFIX_REGISTRY
        assert dynamic == DYNAMIC_SITES


class TestTimeunits:
    """The helpers must be expression-identical to the inline
    arithmetic they replaced (pinned digests are bit-exact)."""

    def test_identities(self):
        # These asserts compare across units on purpose — they pin the
        # helpers to the inline arithmetic they replaced.
        for us in (0, 1, 250.5, 1e6):
            assert timeunits.us_to_ns(us) == int(us * 1000)  # repro-lint: disable=unit-mismatch
        for ms in (0.0, 20.0, 0.5, 1234.56):
            assert timeunits.ms_to_ns(ms) == int(ms * 1_000_000)  # repro-lint: disable=unit-mismatch
            assert timeunits.ms_to_ns_float(ms) == ms * 1_000_000  # repro-lint: disable=unit-mismatch
        for ns in (0, 999, 50_000, 123_456_789):
            assert timeunits.ns_to_us(ns) == ns / 1000.0  # repro-lint: disable=unit-mismatch
            assert timeunits.ns_to_ticks(ns) == ns // timeunits.TICK_NS
        assert timeunits.ticks_to_ns(7) == 7 * 50_000
        assert timeunits.TICK_NS == 50_000

    def test_driver_reexports_tick_ns(self):
        from repro.load import driver

        assert driver.TICK_NS is timeunits.TICK_NS


class TestPassNoiseControl:
    def test_streams_pass_ignores_test_files(self):
        # tests construct ad-hoc purposes freely; the pass only audits
        # sim modules.
        findings = run_passes(
            [REPO_ROOT / "tests"], [StreamsPass()], LintConfig()
        )
        assert findings == [], [f.render() for f in findings]
