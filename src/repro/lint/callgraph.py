"""The whole-program layer under the interprocedural passes.

The single-file rule engine (:mod:`repro.lint.engine`) answers "is
this line syntactically bad"; the project passes (units, streams)
need to answer "does this *flow* somewhere bad", which takes
a view of the whole program: which modules exist, which function each
call site actually reaches, and what every function's summary looks
like.  This module builds that view once and shares it:

* :func:`module_name_for` — maps a file path to its dotted module name
  by walking up through ``__init__.py`` packages (``src/repro/load/
  driver.py`` -> ``repro.load.driver``); loose files (fixtures) fall
  back to their stem.
* :class:`ModuleInfo` / :class:`FunctionInfo` / :class:`CallSite` —
  per-module parse results: import aliases, classes with their base
  names, and per-function call sites resolved
  to project-qualified names where possible (``self.method`` through
  the class and its project-local bases, local functions, imported
  module functions).  Unresolved calls keep their dotted form so the
  passes can still pattern-match them by name (``child_rng``).
* :class:`Project` — the call graph: modules in sorted-name order,
  functions in definition order, and a global qualname index.

Construction is **cached** per file content: a module whose source
hash is unchanged is not re-parsed within the process (the engine,
the CLI, and every pass share one build per lint run; test suites that
lint the same tree repeatedly hit the cache).  Everything iterates in
sorted or definition order — no ``id()`` ordering, no set iteration —
so the graph is a pure function of the file contents.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.engine import (
    Finding,
    LintConfig,
    _collect_aliases,
    iter_python_files,
)

@dataclass
class CallSite:
    """One call expression inside a function."""

    node: ast.Call
    raw: str | None        # dotted name as written, import aliases applied
    target: str | None     # project-qualified callee ("repro.x.f"), if resolved


@dataclass
class FunctionInfo:
    """One function or method, with its resolved call sites."""

    qualname: str          # "repro.load.driver.run_load" / "...Cls.method"
    module: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None
    params: tuple[str, ...]
    calls: list[CallSite] = field(default_factory=list)

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class ModuleInfo:
    """One parsed module: trees, aliases, classes, functions."""

    name: str
    path: Path
    display_path: str
    lines: list[str]
    tree: ast.Module
    aliases: dict[str, str]
    is_sim: bool
    # class name -> base-class dotted names (aliases applied).
    classes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted name with import aliases applied (engine idiom)."""
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

    def function_order(self) -> list[str]:
        """Qualnames in definition (line) order — the iteration order."""
        return sorted(self.functions, key=lambda q: (self.functions[q].line, q))


def module_name_for(path: Path) -> str:
    """Dotted module name by walking up through ``__init__.py`` packages."""
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def _function_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    names += [a.arg for a in args.kwonlyargs]
    return tuple(names)


def _parse_module(path: Path, display: str, config: LintConfig) -> ModuleInfo | None:
    try:
        source = path.read_text()
        tree = ast.parse(source)
    except (OSError, UnicodeDecodeError, SyntaxError):
        return None  # the file engine reports parse/io errors
    module = ModuleInfo(
        name=module_name_for(path),
        path=path,
        display_path=display,
        lines=source.splitlines(),
        tree=tree,
        aliases=_collect_aliases(tree),
        is_sim=config.is_sim_path(path),
    )
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            bases = tuple(
                b for b in (module.resolve(base) for base in node.bases) if b
            )
            module.classes[node.name] = bases
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{module.name}.{node.name}.{item.name}"
                    module.functions[qual] = FunctionInfo(
                        qual, module.name, item, node.name, _function_params(item)
                    )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{module.name}.{node.name}"
            module.functions[qual] = FunctionInfo(
                qual, module.name, node, None, _function_params(node)
            )
    return module


class Project:
    """The call graph every project pass runs over."""

    def __init__(self, modules: list[ModuleInfo]) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        for module in sorted(modules, key=lambda m: m.name):
            # Last-one-wins on duplicate stems (loose fixture files);
            # sorted input keeps the winner deterministic.
            self.modules[module.name] = module
        self.functions: dict[str, FunctionInfo] = {}
        for module in self.modules.values():
            for qual in module.function_order():
                self.functions[qual] = module.functions[qual]
        self._resolve_calls()

    # -- construction ---------------------------------------------------------

    def _method_target(self, cls_module: str, cls_name: str, method: str) -> str | None:
        """Resolve *method* on class *cls_name*, walking project bases."""
        seen: set[tuple[str, str]] = set()
        stack = [(cls_module, cls_name)]
        while stack:
            mod_name, cname = stack.pop(0)
            if (mod_name, cname) in seen:
                continue
            seen.add((mod_name, cname))
            qual = f"{mod_name}.{cname}.{method}"
            if qual in self.functions:
                return qual
            module = self.modules.get(mod_name)
            if module is None or cname not in module.classes:
                continue
            for base in module.classes[cname]:
                head, _, tail = base.rpartition(".")
                if not head:  # same-module base
                    stack.append((mod_name, base))
                elif head in self.modules:
                    stack.append((head, tail))
        return None

    def _resolve_one(self, module: ModuleInfo, fn: FunctionInfo, dotted: str | None) -> str | None:
        if dotted is None:
            return None
        if dotted.startswith("self.") and fn.class_name:
            tail = dotted[5:]
            if "." not in tail:
                return self._method_target(module.name, fn.class_name, tail)
            return None
        if "." not in dotted:
            qual = f"{module.name}.{dotted}"
            if qual in self.functions:
                return qual
            if dotted in module.classes:  # local class constructor
                return self._method_target(module.name, dotted, "__init__")
            return None
        if dotted in self.functions:
            return dotted
        # Mod.Class(...) constructor / Mod.Class.method references.
        head, _, tail = dotted.rpartition(".")
        if head in self.modules and tail in self.modules[head].classes:
            return self._method_target(head, tail, "__init__")
        grand, _, cls = head.rpartition(".")
        if grand in self.modules and cls in self.modules[grand].classes:
            return self._method_target(grand, cls, tail)
        return None

    def _resolve_calls(self) -> None:
        for module in self.modules.values():
            for qual in module.function_order():
                fn = module.functions[qual]
                fn.calls = []  # cached modules are re-resolved per build
                for node in ast.walk(fn.node):
                    if not isinstance(node, ast.Call):
                        continue
                    raw = module.resolve(node.func)
                    target = self._resolve_one(module, fn, raw)
                    fn.calls.append(CallSite(node, raw, target))
                fn.calls.sort(key=lambda c: (c.node.lineno, c.node.col_offset))

    # -- queries --------------------------------------------------------------

    def module_of(self, qualname: str) -> ModuleInfo:
        return self.modules[self.functions[qualname].module]

    def sim_functions(self) -> Iterator[FunctionInfo]:
        for module in self.modules.values():
            if not module.is_sim:
                continue
            for qual in module.function_order():
                yield module.functions[qual]


class ProjectPass:
    """Base class for whole-program passes (units, streams)."""

    name: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError


# -- the content-hash build cache ---------------------------------------------

_MODULE_CACHE: dict[tuple, ModuleInfo] = {}


def _content_key(path: Path, config: LintConfig) -> tuple[str, str, object] | None:
    try:
        digest = hashlib.sha1(path.read_bytes()).hexdigest()
    except OSError:
        return None
    # is_sim is baked into the cached ModuleInfo, so the sim-path
    # override participates in the key.
    return (str(path.resolve()), digest, config.treat_as_sim)


def build_project(paths: Iterable, config: LintConfig | None = None) -> Project:
    """Parse every Python file under *paths* into a :class:`Project`.

    Per-file parses are cached on ``(path, content-sha1)``, so repeated
    builds over an unchanged tree re-parse nothing; the assembled
    Project is rebuilt each call (it is cheap relative to parsing) so
    cross-file resolution always reflects the full requested path set.
    """
    config = config or LintConfig()
    modules: list[ModuleInfo] = []
    for path in iter_python_files(paths, config):
        key = _content_key(path, config)
        if key is not None and key in _MODULE_CACHE:
            modules.append(_MODULE_CACHE[key])
            continue
        module = _parse_module(path, str(path), config)
        if module is None:
            continue
        if key is not None:
            if len(_MODULE_CACHE) > 4096:  # unbounded-growth guard
                _MODULE_CACHE.clear()
            _MODULE_CACHE[key] = module
        modules.append(module)
    return Project(modules)
