"""repro.lint — determinism & simulation-correctness analysis.

Two halves, one contract:

* **Static**: an AST rule engine (:mod:`repro.lint.engine`,
  :mod:`repro.lint.rules`) with eight determinism rules, a fingerprint
  suppression baseline (:mod:`repro.lint.baseline`), and the
  ``repro-lint`` CLI (:mod:`repro.lint.cli`); plus a whole-program
  layer — a cached deterministic call graph
  (:mod:`repro.lint.callgraph`) feeding two interprocedural passes
  (:mod:`repro.lint.units`, :mod:`repro.lint.streams`) orchestrated by
  :mod:`repro.lint.passes`, with SARIF 2.1.0 output
  (:mod:`repro.lint.sarif`).
* **Runtime**: the RNG-stream sanitizer (:mod:`repro.lint.sanitizer`)
  — provenance-tagged streams, cross-stream draw detection, serial vs
  parallel draw-count comparison, and unordered-merge guards, armed by
  ``repro-bench ... --sanitize``.

Everything in the package is stdlib-only and imports nothing from the
rest of ``repro``, so any layer (including ``repro.obs`` and the fault
machinery) can use the sanitizer without import cycles.

Quickstart::

    from repro.lint import lint_paths
    for finding in lint_paths(["src"]):
        print(finding.render())

    from repro.lint import sanitizer
    with sanitizer.sanitizing():
        ...  # run anything; rng factories now hand out TrackedRandom
    assert sanitizer.ok(), sanitizer.violations()
"""

from repro.lint import sanitizer
from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.engine import (
    FileContext,
    Finding,
    LintConfig,
    LintEngine,
    Rule,
    iter_python_files,
    lint_paths,
)
from repro.lint.callgraph import Project, ProjectPass, build_project
from repro.lint.passes import default_passes, lint_all, pass_names, run_passes, select_passes
from repro.lint.rules import default_rules, rule_names
from repro.lint.sarif import render_sarif, to_sarif

__all__ = [
    "FileContext",
    "Finding",
    "LintConfig",
    "LintEngine",
    "Project",
    "ProjectPass",
    "Rule",
    "apply_baseline",
    "build_project",
    "default_passes",
    "default_rules",
    "iter_python_files",
    "lint_all",
    "lint_paths",
    "load_baseline",
    "pass_names",
    "render_sarif",
    "rule_names",
    "run_passes",
    "sanitizer",
    "select_passes",
    "to_sarif",
    "write_baseline",
]
