"""``repro-lint`` — the determinism linter's command line.

Usage::

    repro-lint [paths ...]          # default: src
    python -m repro.lint src tests

Every file rule and every whole-program pass runs over the paths.
Exit codes: 0 clean, 1 findings, 2 usage error.  Findings are
suppressed only by inline pragmas (``# repro-lint: disable=<rule>``,
``# repro-lint: skip-file``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.engine import LintConfig, iter_python_files
from repro.lint.passes import lint_all


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
    findings = lint_all(args.paths, config=config)
    for finding in findings:
        print(finding.render())
    n_files = sum(1 for _ in iter_python_files(args.paths, config))
    print(f"{len(findings)} finding(s) across {n_files} file(s)")
    return 1 if findings else 0


def console_main() -> int:  # pragma: no cover - thin wrapper
    return main()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
