"""repro-lint tests: rule corpus, engine mechanics, CLI."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import LintConfig, LintEngine, default_rules, lint_paths, rule_names
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

# Fixture files live under tests/, which auto-classification treats as
# non-sim; force sim so the rules run on them.
SIM_CONFIG = LintConfig(treat_as_sim=True)

RULES = tuple(rule_names())

# Fixture stem per rule, where it is not the rule's own name.
FIXTURE_STEMS = {"unit-mismatch": "units"}


def fixture_name(rule: str, kind: str) -> str:
    return FIXTURE_STEMS.get(rule, rule.replace("-", "_")) + f"_{kind}.py"


def lint_fixture(name: str, rule: str | None = None):
    rules = [r for r in default_rules() if rule is None or r.name == rule]
    return LintEngine(rules, SIM_CONFIG).lint_file(FIXTURES / name)


class TestRuleCatalogue:
    def test_eight_rules_registered(self):
        # The name predates the plant table (DESIGN 4h): these are the
        # rules whose planted bug nothing but lint caught.
        assert RULES == ("rng-factory", "float-eq", "unit-mismatch")

    @pytest.mark.parametrize("rule", RULES)
    def test_bad_fixture_fails_its_rule(self, rule):
        name = fixture_name(rule, "bad")
        findings = lint_fixture(name, rule)
        assert findings, f"{name} should trip the {rule} rule"
        assert all(f.rule == rule for f in findings)

    @pytest.mark.parametrize("rule", RULES)
    def test_good_fixture_is_clean_under_every_rule(self, rule):
        name = fixture_name(rule, "good")
        findings = lint_fixture(name)  # every rule
        assert findings == [], [f.render() for f in findings]

    def test_bad_fixtures_flag_every_call_site(self):
        # rng_factory_bad constructs three streams; the rule must see
        # the aliased from-import as well as the dotted ones.
        findings = lint_fixture("rng_factory_bad.py", "rng-factory")
        assert len(findings) == 3

    def test_argless_random_gets_the_entropy_message(self):
        findings = lint_fixture("rng_factory_bad.py", "rng-factory")
        assert any("argless" in f.message for f in findings)
        assert any("argless" not in f.message for f in findings)


class TestSimPathClassification:
    def test_sim_only_rules_skip_tests(self):
        source = "import random\nrng = random.Random(0)\n"
        engine = LintEngine(config=LintConfig())
        assert engine.lint_source(source, Path("tests/test_x.py")) == []
        assert engine.lint_source(source, Path("src/repro/core/x.py"))

    def test_conftest_and_benchmarks_are_not_sim(self):
        config = LintConfig()
        assert not config.is_sim_path(Path("src/conftest.py"))
        assert not config.is_sim_path(Path("benchmarks/bench_x.py"))
        assert config.is_sim_path(Path("src/repro/core/machine.py"))

    def test_allowlist_exempts_the_factory_module(self):
        engine = LintEngine(config=LintConfig())
        rng = "import random\nr = random.Random(0)\n"
        assert engine.lint_source(rng, Path("src/repro/util/rng.py")) == []
        assert engine.lint_source(rng, Path("src/repro/core/machine.py"))


class TestSuppression:
    def test_inline_pragma_narrows_to_named_rules(self):
        engine = LintEngine(config=SIM_CONFIG)
        path = Path("src/repro/x.py")
        src = "import random\nr = random.Random(0)  # repro-lint: disable=rng-factory\n"
        assert engine.lint_source(src, path) == []
        src = "import random\nr = random.Random(0)  # repro-lint: disable=float-eq\n"
        assert engine.lint_source(src, path)

    def test_bare_disable_suppresses_everything_on_the_line(self):
        engine = LintEngine(config=SIM_CONFIG)
        src = "import random\nr = random.Random(0)  # repro-lint: disable\n"
        assert engine.lint_source(src, Path("src/repro/x.py")) == []

    def test_skip_file_pragma(self):
        engine = LintEngine(config=SIM_CONFIG)
        src = "# repro-lint: skip-file\nimport random\nr = random.Random(0)\n"
        assert engine.lint_source(src, Path("src/repro/x.py")) == []


class TestRepositoryIsClean:
    """The acceptance gate: the library and the tests lint clean."""

    def test_src_has_no_findings(self):
        findings = lint_paths([REPO_ROOT / "src"])
        assert findings == [], [f.render() for f in findings]

    def test_tests_have_no_findings(self):
        findings = lint_paths([REPO_ROOT / "tests"])
        assert findings == [], [f.render() for f in findings]

    def test_fixture_corpus_is_excluded_from_directory_walks(self):
        findings = lint_paths([REPO_ROOT / "tests"])
        assert not any("lint_fixtures" in f.path for f in findings)


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert lint_main([str(target)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one_and_render_locations(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("import random\nrng = random.Random(8)\n")
        assert lint_main([str(target)]) == 1
        out = capsys.readouterr().out
        assert "dirty.py:2" in out and "rng-factory" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "absent.py")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_syntax_error_reported_as_parse_error(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        assert lint_main([str(target)]) == 1
        assert "parse-error" in capsys.readouterr().out

    def test_output_is_byte_identical_across_hash_seeds(self, tmp_path):
        # The bad corpus, copied out of lint_fixtures/ (which directory
        # walks skip) and linted by every rule in two processes whose
        # set and dict hash orders differ.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for fixture in sorted(FIXTURES.glob("*_bad.py")):
            shutil.copy(fixture, corpus / fixture.name)

        def lint(hashseed: str) -> str:
            env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
                       PYTHONHASHSEED=hashseed)
            run = subprocess.run(
                [sys.executable, "-m", "repro.lint", "corpus"],
                cwd=tmp_path, env=env, capture_output=True, text=True,
            )
            assert run.returncode == 1, run.stderr
            return run.stdout

        first = lint("0")
        rules_seen = {line.split(": ")[1] for line in first.splitlines() if ": " in line}
        assert set(RULES) <= rules_seen
        assert first == lint("7")
