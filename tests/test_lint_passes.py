"""Whole-program pass tests: fixtures, call-graph determinism, SARIF,
the stream-registry drift guard, and the CI delta gate."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.callgraph import build_project
from repro.lint.cli import main as lint_main
from repro.lint.engine import LintConfig
from repro.lint.passes import default_passes, pass_names, run_passes, select_passes
from repro.lint.sarif import FINGERPRINT_KEY, to_sarif
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
    passes = select_passes([pass_name]) if pass_name else None
    return run_passes([FIXTURES / fixture], passes, PASS_CONFIG)


class TestPassCatalogue:
    def test_two_passes_registered(self):
        assert pass_names() == ["units", "streams"]

    def test_select_unknown_pass_raises(self):
        with pytest.raises(ValueError, match="unknown pass"):
            select_passes(["nope"])


class TestFixtureCorpus:
    @pytest.mark.parametrize(
        "fixture,pass_name,rules",
        [
            ("stream_dup_bad.py", "streams", {"stream-purpose", "stream-scope"}),
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

    def test_baseline_file_is_empty(self):
        lines = [
            line
            for line in (REPO_ROOT / ".repro-lint-baseline").read_text().splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
        assert lines == []


class TestCallGraphDeterminism:
    def _dump(self, hashseed: str) -> str:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONHASHSEED"] = hashseed
        out = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src", "--dump-callgraph", "-"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True, check=True,
        )
        return out.stdout

    def test_dump_is_byte_identical_across_processes(self):
        # Different PYTHONHASHSEED = different set/dict hash order; the
        # dump must not depend on either.
        assert self._dump("0") == self._dump("424242")

    def test_rebuild_hits_cache_and_agrees(self):
        paths = [SRC / "repro" / "lint"]
        first = build_project(paths, LintConfig()).to_dict()
        second = build_project(paths, LintConfig()).to_dict()
        assert first == second
        assert first["n_functions"] > 0

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


class TestSarif:
    def test_sarif_shape_is_2_1_0(self):
        findings = pass_findings("units_bad.py", "units")
        log = to_sarif(findings)
        assert log["version"] == "2.1.0"
        assert log["$schema"].endswith("sarif-schema-2.1.0.json")
        assert len(log["runs"]) == 1
        run = log["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert "unit-mismatch" in rule_ids
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
        assert len(run["results"]) == len(findings)
        for result, finding in zip(run["results"], findings):
            assert result["ruleId"] == finding.rule
            assert rule_ids[result["ruleIndex"]] == finding.rule
            assert result["level"] == "error"
            assert result["message"]["text"] == finding.message
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"] == finding.path
            assert location["region"]["startLine"] == finding.line
            assert location["region"]["startColumn"] == finding.col + 1
            fingerprint = result["partialFingerprints"][FINGERPRINT_KEY]
            assert fingerprint == finding.fingerprint()

    def test_sarif_out_writes_the_artifact(self, tmp_path, capsys):
        # The CLI's default config excludes lint_fixtures/, so copy the
        # bad corpus to a neutral path first.
        mod = tmp_path / "units_mod.py"
        mod.write_text((FIXTURES / "units_bad.py").read_text())
        out = tmp_path / "report.sarif"
        code = lint_main([
            str(mod), "--no-baseline",
            "--sim-paths", "always", "--sarif-out", str(out),
        ])
        capsys.readouterr()
        assert code == 1
        log = json.loads(out.read_text())
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"]

    def test_format_sarif_on_stdout(self, tmp_path, capsys):
        mod = tmp_path / "stream_mod.py"
        mod.write_text((FIXTURES / "stream_dup_bad.py").read_text())
        code = lint_main([
            str(mod), "--no-baseline",
            "--sim-paths", "always", "--format", "sarif",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert json.loads(out)["version"] == "2.1.0"


class TestDeltaGate:
    """The CI contract: a new finding vs the committed baseline fails."""

    def test_new_finding_fails_then_baseline_pins_then_delta_fails(
        self, tmp_path, capsys
    ):
        mod = tmp_path / "sim_mod.py"
        baseline = tmp_path / "baseline"
        mod.write_text("import time\n\ndef f():\n    return time.time()\n")
        args = [str(mod), "--baseline", str(baseline), "--sim-paths", "always"]
        assert lint_main(args) == 1           # new finding, no baseline: gate trips
        assert lint_main(args + ["--update-baseline"]) == 0
        assert lint_main(args) == 0           # pinned: gate passes
        mod.write_text(
            mod.read_text() + "\n\ndef g(x_ns, y_ms):\n    return x_ns - y_ms\n"
        )
        assert lint_main(args) == 1           # synthetic NEW finding: gate trips
        capsys.readouterr()


class TestStreamRegistryDriftGuard:
    """Pinned inventory: the registry must match the purposes actually
    constructed in src/repro — greppable drift guard (satellite)."""

    def _extract(self):
        project = build_project([SRC / "repro"], LintConfig())
        literals: dict[str, int] = {}
        prefixes: dict[str, int] = {}
        dynamic: set[str] = set()
        for fn in project.sim_functions():
            module = project.module_of(fn.qualname)
            locals_ = _local_strings(fn)
            for site in fn.calls:
                if not _is_child_rng(site.raw):
                    continue
                if len(site.node.args) < 2:
                    continue
                kind, value = _purpose_of(
                    site.node.args[1], locals_, module, project
                )
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
