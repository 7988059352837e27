"""repro.lint — the determinism checks that nothing else catches.

Each check here earned its place by a plant: its bad pattern, put on a
pinned command's path, changed printed results while the parity
harness (``tests/test_parity.py``), the runtime sanitizer and the
tier-1 property tests all stayed green (DESIGN §4h has the table).
:mod:`repro.lint.engine` runs the three sim-path file rules of
:mod:`repro.lint.rules` — ``rng-factory``, ``float-eq`` and
``unit-mismatch`` — and :mod:`repro.lint.cli` is ``repro-lint``.  The
``stream-purpose`` check runs in ``child_rng`` while the runtime
sanitizer (:mod:`repro.util.sanitizer`) is armed, so the simulator
never imports the analyzer.

Quickstart::

    from repro.lint import lint_paths
    for finding in lint_paths(["src", "tests"]):
        print(finding.render())
"""

from repro.lint.engine import (
    FileContext,
    Finding,
    LintConfig,
    LintEngine,
    Rule,
    iter_python_files,
    lint_paths,
)
from repro.lint.rules import default_rules, rule_names

__all__ = [
    "FileContext",
    "Finding",
    "LintConfig",
    "LintEngine",
    "Rule",
    "default_rules",
    "iter_python_files",
    "lint_paths",
    "rule_names",
]
