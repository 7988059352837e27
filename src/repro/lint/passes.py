"""Registry and runner for the whole-program passes.

The file engine (:mod:`repro.lint.engine`) runs per-file rules; this
module owns everything that needs the :class:`~repro.lint.callgraph.
Project` view: the pass catalogue, one shared call-graph build per
run, and the same pragma/ordering discipline the engine applies —
``# repro-lint: disable=<rule>`` and ``repro-lint: skip-file`` work
identically for pass findings, and the combined output is sorted
``(path, line, col, rule)`` so the whole pipeline stays deterministic.

``lint_all`` is the one-stop entry the CLI uses: file rules plus
project passes over one path set.
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.callgraph import ProjectPass, build_project
from repro.lint.engine import (
    FILE_PRAGMA,
    Finding,
    LintConfig,
    LintEngine,
    _line_suppressed,
)
from repro.lint.streams import StreamsPass
from repro.lint.units import UnitsPass


def default_passes() -> list[ProjectPass]:
    """Every registered project pass, in report order."""
    return [UnitsPass(), StreamsPass()]


def run_passes(
    paths: Iterable,
    passes: Iterable[ProjectPass] | None = None,
    config: LintConfig | None = None,
) -> list[Finding]:
    """Run project passes over *paths*, suppression and order applied."""
    config = config or LintConfig()
    project = build_project(paths, config)
    findings: list[Finding] = []
    for pass_ in passes if passes is not None else default_passes():
        findings.extend(pass_.check(project))
    lines_of = {m.display_path: m.lines for m in project.modules.values()}
    skipped = {
        m.display_path
        for m in project.modules.values()
        if any(FILE_PRAGMA in line for line in m.lines[:10])
    }
    findings = [
        f
        for f in findings
        if f.path not in skipped
        and not _line_suppressed(f, lines_of.get(f.path, []))
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_all(paths: Iterable, config: LintConfig | None = None) -> list[Finding]:
    """Every file rule plus every project pass over one path set."""
    config = config or LintConfig()
    findings = LintEngine(config=config).lint_paths(paths)
    findings.extend(run_passes(paths, config=config))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
