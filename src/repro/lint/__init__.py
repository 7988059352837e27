"""repro.lint — the determinism checks that nothing else catches.

Each check here earned its place by a plant: its bad pattern, put on a
pinned command's path, changed printed results while the parity
harness (``tests/test_parity.py``), the runtime sanitizer and the
tier-1 property tests all stayed green.  Checks whose plant one of
those caught were removed (DESIGN §4h has the table).

* an AST rule engine (:mod:`repro.lint.engine`, :mod:`repro.lint.rules`)
  with two sim-path rules, ``rng-factory`` and ``float-eq``;
* a cached deterministic call graph (:mod:`repro.lint.callgraph`)
  feeding two whole-program passes (:mod:`repro.lint.units`,
  :mod:`repro.lint.streams`), run by :mod:`repro.lint.passes`;
* the ``repro-lint`` CLI (:mod:`repro.lint.cli`).

The runtime sanitizer lives in :mod:`repro.util.sanitizer`, so the
simulator never imports the analyzer.

Quickstart::

    from repro.lint import lint_all
    for finding in lint_all(["src", "tests"]):
        print(finding.render())
"""

from repro.lint.callgraph import Project, ProjectPass, build_project
from repro.lint.engine import (
    FileContext,
    Finding,
    LintConfig,
    LintEngine,
    Rule,
    iter_python_files,
    lint_paths,
)
from repro.lint.passes import default_passes, lint_all, run_passes
from repro.lint.rules import default_rules, rule_names

__all__ = [
    "FileContext",
    "Finding",
    "LintConfig",
    "LintEngine",
    "Project",
    "ProjectPass",
    "Rule",
    "build_project",
    "default_passes",
    "default_rules",
    "iter_python_files",
    "lint_all",
    "lint_paths",
    "rule_names",
    "run_passes",
]
