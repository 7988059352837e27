"""``repro-lint`` — the determinism linter's command line.

Usage::

    repro-lint [paths ...]          # default: src
    python -m repro.lint src tests

Every file rule runs over the paths; pragmas are the only suppression
(:mod:`repro.lint.engine`).  Exit codes: 0 clean, 1 findings, 2 usage.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.engine import LintConfig, LintEngine, iter_python_files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Determinism & simulation-correctness static analysis.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    args = parser.parse_args(argv)

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"repro-lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    config = LintConfig()
    findings = LintEngine(config=config).lint_paths(args.paths)
    for finding in findings:
        print(finding.render())
    n_files = sum(1 for _ in iter_python_files(args.paths, config))
    print(f"{len(findings)} finding(s) across {n_files} file(s)")
    return 1 if findings else 0


def console_main() -> int:  # pragma: no cover - thin wrapper
    return main()

