"""The rule engine behind ``repro-lint``.

One file, one parse, every rule: the engine reads a Python source
file, builds an :class:`ast` tree plus an import-alias map, and hands
a :class:`FileContext` to each registered :class:`Rule`.  Rules yield
:class:`Finding`\\ s; the engine filters pragma-suppressed lines and
returns the rest in ``(line, col, rule)`` order — the whole pipeline
is deterministic, as befits a determinism linter.

Rules run on sim paths only (:func:`repro.util.sanitizer.is_sim_path`,
shared with the runtime stream check): a test constructing its own
``random.Random(0)`` is deterministic and fine; library code must use
the seeded factories.

Suppression: an inline pragma ``# repro-lint: disable=rule-a,rule-b``
(or a bare ``disable``) on the flagged line, or a file pragma
``# repro-lint: skip-file`` in the first ten lines.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.util.sanitizer import is_sim_path

FILE_PRAGMA = "repro-lint: skip-file"
LINE_PRAGMA = "repro-lint: disable"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


@dataclass(frozen=True)
class LintConfig:
    """Engine configuration (all tuples so the config is hashable)."""

    # Directory names never descended into (the lint fixture corpus is
    # intentionally dirty).
    exclude_parts: tuple[str, ...] = (
        "lint_fixtures",
        "__pycache__",
        ".git",
        "build",
        "dist",
    )
    # Override sim-path classification (None = classify by path).
    treat_as_sim: bool | None = None

    def is_sim_path(self, path: Path) -> bool:
        if self.treat_as_sim is not None:
            return self.treat_as_sim
        return is_sim_path(path)


@dataclass
class FileContext:
    """Everything a rule needs about the file under analysis."""

    path: Path
    display_path: str
    tree: ast.AST
    aliases: dict[str, str]

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted name of a Name/Attribute chain with import aliases
        applied (``from time import time as t`` makes ``t`` resolve to
        ``time.time``); None for anything that isn't a plain chain."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.aliases.get(node.id, node.id))
        return ".".join(reversed(parts))

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1) or 1
        col = getattr(node, "col_offset", 0) or 0
        return Finding(self.display_path, line, col, rule, message)


class Rule:
    """Base class: subclasses set ``name`` and implement check()."""

    name: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError


def _collect_aliases(tree: ast.AST) -> dict[str, str]:
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:  # a plain `import a.b` binds `a` to itself
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _line_suppressed(finding: Finding, lines: list[str]) -> bool:
    if not (0 < finding.line <= len(lines)):
        return False
    line = lines[finding.line - 1]
    idx = line.find(LINE_PRAGMA)
    if idx < 0:
        return False
    rest = line[idx + len(LINE_PRAGMA):].strip()
    if not rest.startswith("="):
        return True  # bare "disable": everything on this line
    names = {name.strip() for name in rest[1:].split(",")}
    return finding.rule in names


def iter_python_files(paths: Iterable, config: LintConfig) -> Iterator[Path]:
    """Every ``.py`` file under *paths*, sorted, excludes applied."""
    excluded = set(config.exclude_parts)
    seen: set[Path] = set()
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            candidates = sorted(entry.rglob("*.py"))
        else:
            candidates = [entry]
        for path in candidates:
            if set(path.parts) & excluded:
                continue
            key = path.resolve()
            if key in seen:
                continue
            seen.add(key)
            yield path


class LintEngine:
    """Runs a rule set over files; the ``repro-lint`` CLI wraps this."""

    def __init__(self, rules=None, config: LintConfig | None = None) -> None:
        from repro.lint.rules import default_rules

        self.config = config or LintConfig()
        self.rules = list(rules) if rules is not None else default_rules()

    def lint_source(self, source: str, path, display_path: str | None = None) -> list[Finding]:
        path = Path(path)
        display = display_path or str(path)
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            return [
                Finding(display, exc.lineno or 1, 0, "parse-error",
                        f"syntax error: {exc.msg}")
            ]
        lines = source.splitlines()
        if not self.config.is_sim_path(path) or any(
            FILE_PRAGMA in line for line in lines[:10]
        ):
            return []
        ctx = FileContext(
            path=path,
            display_path=display,
            tree=tree,
            aliases=_collect_aliases(tree),
        )
        findings: list[Finding] = []
        for rule in self.rules:
            findings.extend(rule.check(ctx))
        findings = [f for f in findings if not _line_suppressed(f, lines)]
        findings.sort(key=lambda f: (f.line, f.col, f.rule))
        return findings

    def lint_file(self, path, display_path: str | None = None) -> list[Finding]:
        path = Path(path)
        display = display_path or str(path)
        try:
            source = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            return [Finding(display, 1, 0, "io-error", str(exc))]
        return self.lint_source(source, path, display)

    def lint_paths(self, paths: Iterable) -> list[Finding]:
        findings: list[Finding] = []
        for path in iter_python_files(paths, self.config):
            findings.extend(self.lint_file(path))
        return findings


def lint_paths(paths, *, rules=None, config: LintConfig | None = None) -> list[Finding]:
    """Convenience one-shot: lint *paths* with the default engine."""
    return LintEngine(rules, config).lint_paths(paths)
