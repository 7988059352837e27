"""``repro-lint`` — the determinism linter's command line.

Usage::

    repro-lint [paths ...]                  # default: src
    repro-lint src tests --rules rng-factory,wall-clock
    repro-lint src tests --passes units
    repro-lint src --update-baseline        # pin current findings
    repro-lint src --format sarif           # SARIF 2.1.0 on stdout
    repro-lint src --sarif-out report.sarif # ...and/or to a file
    repro-lint --list-rules
    repro-lint --list-passes
    repro-lint src --dump-callgraph -       # the determinism surface
    python -m repro.lint src tests

By default every file rule *and* every whole-program pass (units,
streams — see ``--list-passes``) runs; ``--passes`` narrows to a
subset, ``--passes none`` disables them.  Exit codes:
0 clean (modulo baseline), 1 findings, 2 usage error.  The baseline
defaults to ``.repro-lint-baseline`` in the working directory and is
only consulted when it exists; ``--no-baseline`` ignores it outright.
New findings vs the committed baseline fail the build — that is the
CI delta gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.callgraph import build_project
from repro.lint.engine import LintConfig, LintEngine, iter_python_files
from repro.lint.passes import default_passes, run_passes, select_passes
from repro.lint.rules import default_rules
from repro.lint.sarif import render_sarif

DEFAULT_BASELINE = ".repro-lint-baseline"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Determinism & simulation-correctness static analysis: bans "
            "wall-clock and entropy in sim paths, unseeded/unfactored RNG "
            "construction, unordered-set iteration, exact float equality, "
            "mutable defaults, and seedless process-pool fan-out."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--rules", default=None, metavar="NAME[,NAME...]",
        help="run only these rules (see --list-rules)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    parser.add_argument(
        "--passes", default=None, metavar="NAME[,NAME...]",
        help=(
            "run only these whole-program passes (see --list-passes); "
            "'none' disables them (default: all)"
        ),
    )
    parser.add_argument(
        "--list-passes", action="store_true",
        help="print the whole-program pass catalogue and exit",
    )
    parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE, metavar="FILE",
        help=f"suppression baseline file (default: {DEFAULT_BASELINE}, if present)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true", help="ignore any baseline file"
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="pin every current finding into the baseline file and exit 0",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        dest="output_format",
        help="finding output format (default: text)",
    )
    parser.add_argument(
        "--sarif-out", default=None, metavar="FILE",
        help="also write a SARIF 2.1.0 report to FILE (the CI artifact)",
    )
    parser.add_argument(
        "--sim-paths", choices=("auto", "always", "never"), default="auto",
        help=(
            "sim-path classification for sim-only rules: auto = by path "
            "(tests/benchmarks are not sim code), always / never override"
        ),
    )
    parser.add_argument(
        "--dump-callgraph", default=None, metavar="FILE",
        help=(
            "dump the resolved call graph as sorted JSON to FILE ('-' = "
            "stdout) and exit; byte-identical across processes"
        ),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in default_rules():
            scope = "sim paths only" if rule.sim_only else "all files"
            print(f"{rule.name:16} [{scope:14}] {rule.summary}")
        return 0

    if args.list_passes:
        for pass_ in default_passes():
            print(f"{pass_.name:16} {pass_.summary}")
        return 0

    select = tuple(r.strip() for r in args.rules.split(",") if r.strip()) if args.rules else None
    treat_as_sim = {"auto": None, "always": True, "never": False}[args.sim_paths]
    try:
        engine = LintEngine(config=LintConfig(select=select, treat_as_sim=treat_as_sim))
        if args.passes is None:
            passes = default_passes()
        elif args.passes.strip() == "none":
            passes = []
        else:
            passes = select_passes(
                [p.strip() for p in args.passes.split(",") if p.strip()]
            )
    except ValueError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"repro-lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    if args.dump_callgraph is not None:
        dump = json.dumps(
            build_project(args.paths, engine.config).to_dict(),
            indent=2, sort_keys=True,
        )
        if args.dump_callgraph == "-":
            print(dump)
        else:
            Path(args.dump_callgraph).write_text(dump + "\n")
        return 0

    files = list(iter_python_files(args.paths, engine.config))
    findings = []
    for path in files:
        findings.extend(engine.lint_file(path))
    if passes:
        findings.extend(run_passes(args.paths, passes, engine.config))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    baseline_path = Path(args.baseline)
    if args.update_baseline:
        count = write_baseline(findings, baseline_path)
        print(f"pinned {count} finding(s) into {baseline_path}")
        return 0

    fingerprints = set() if args.no_baseline else load_baseline(baseline_path)
    kept, suppressed, stale = apply_baseline(findings, fingerprints)

    if args.sarif_out:
        Path(args.sarif_out).write_text(render_sarif(kept) + "\n")

    if args.output_format == "sarif":
        print(render_sarif(kept))
        return 1 if kept else 0

    if args.output_format == "json":
        print(json.dumps(
            [
                {
                    "path": f.path, "line": f.line, "col": f.col,
                    "rule": f.rule, "message": f.message,
                    "fingerprint": f.fingerprint(),
                }
                for f in kept
            ],
            indent=2,
        ))
        return 1 if kept else 0

    for finding in kept:
        print(finding.render())
    notes = []
    if suppressed:
        notes.append(f"{suppressed} suppressed by baseline")
    if stale:
        notes.append(f"{len(stale)} stale baseline entr{'y' if len(stale) == 1 else 'ies'}")
    suffix = f" ({', '.join(notes)})" if notes else ""
    print(
        f"{len(kept)} finding(s) across {len(files)} file(s), "
        f"{len(engine.rules)} rule(s), {len(passes)} pass(es){suffix}"
    )
    return 1 if kept else 0


def console_main() -> int:  # pragma: no cover - thin wrapper
    return main()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
