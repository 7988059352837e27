"""RNG-stream discipline: every ``child_rng`` purpose in one table.

Determinism here rests on named streams: ``child_rng(seed, purpose)``
string-seeds an independent ``random.Random`` per purpose, so adding a
draw to one subsystem cannot shift another's sequence.  That only
holds if purposes are *disciplined* — a purpose string typo'd or
duplicated in a second subsystem silently aliases two streams onto the
same sequence, and renaming one changes every pinned schedule digest
built from it.  The runtime sanitizer catches cross-stream *draws*;
this pass catches the *construction* mistakes statically:

* every literal purpose must appear in :data:`STREAM_REGISTRY`, which
  also records how many construction sites the purpose is allowed
  (``"image"`` is deliberately two — the chaos harness and the
  sharded cluster tear from like-named streams);
* dynamic purposes built as f-strings must start with a prefix from
  :data:`PREFIX_REGISTRY` (``f"load-arrival:{tag}:{stream}"``);
* purposes that are plain variables are only allowed at functions
  listed in :data:`DYNAMIC_SITES` (the fault injector's per-kind
  streams, where the kind names are themselves a checked registry);
* literal ``sanitizer.scope(...)`` labels must be registered purposes,
  registered prefixes, or :data:`SCOPE_LABELS` extras — and a draw on
  a locally-constructed stream inside a scope naming a *different*
  stream flags here instead of at runtime.

The registries are the single table the drift-guard test pins against
the strings actually used: change a purpose and both the pass and the
test point at this file.  **Do not rename existing purposes** — the
stream seed is ``f"{seed}:{purpose}"``, so a rename changes pinned
digests and figures; register the new site instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.callgraph import FunctionInfo, ModuleInfo, Project, ProjectPass
from repro.lint.engine import Finding

PURPOSE_RULE = "stream-purpose"
SCOPE_RULE = "stream-scope"

# Literal purpose -> number of construction sites allowed.  More sites
# than this aliases streams; fewer is fine (the drift test flags
# entries that stop being used at all).
STREAM_REGISTRY: dict[str, int] = {
    "2pc-client": 1,   # sharded cluster client-side 2PC jitter
    "client": 1,       # replication group client jitter
    "image": 2,        # crash-image tear: chaos harness + sharded cluster
    "net": 1,          # chaos harness network-fault placement
    "stall": 1,        # chaos harness prepare-stall placement
}

# f-string purposes must start with one of these prefixes (through the
# first ":"); value is the number of construction sites allowed.
PREFIX_REGISTRY: dict[str, int] = {
    "chaos-load:": 1,    # per-(point, kind) fault-window placement
    "load-arrival:": 1,  # per-(point, stream) open-loop arrivals
    "load-cluster:": 1,  # per-point cluster workload stream
    "load-image:": 1,    # per-point crash-image tear under load
    "load-retry:": 1,    # per-point retry backoff jitter
}

# Functions allowed to pass a non-literal purpose to child_rng.  Keep
# this to factories whose purpose argument is itself a checked
# registry (fault kinds).
DYNAMIC_SITES = frozenset({
    "repro.faults.injector.FaultInjector.stream",
})

# Scope labels that are legal without being stream purposes: regions
# the sanitizer isolates that draw from streams named elsewhere.
SCOPE_LABELS = frozenset({
    "fault-schedule",
    "prepare_stall",
    "workload",
})

_DRAW_METHODS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "random", "randint", "randrange", "sample", "shuffle", "triangular",
    "uniform", "vonmisesvariate", "weibullvariate",
})


def _fstring_prefix(node: ast.JoinedStr) -> str | None:
    """Leading literal text through the first ``:`` — the stream family."""
    if not node.values or not isinstance(node.values[0], ast.Constant):
        return None
    text = str(node.values[0].value)
    if ":" in text:
        return text[: text.index(":") + 1]
    return text


def _local_strings(fn: FunctionInfo) -> dict[str, tuple[str, str]]:
    """``name -> ("literal"|"prefix", value)`` for simple assignments."""
    out: dict[str, tuple[str, str]] = {}
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            out[target.id] = ("literal", node.value.value)
        elif isinstance(node.value, ast.JoinedStr):
            prefix = _fstring_prefix(node.value)
            if prefix is not None:
                out[target.id] = ("prefix", prefix)
    return out


def _purpose_of(
    node: ast.AST,
    locals_: dict[str, tuple[str, str]],
    module: ModuleInfo,
    project: Project,
) -> tuple[str, str | None]:
    """Classify a purpose expression: ("literal", s) / ("prefix", p) /
    ("dynamic", None)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return ("literal", node.value)
    if isinstance(node, ast.JoinedStr):
        prefix = _fstring_prefix(node)
        return ("prefix", prefix) if prefix else ("dynamic", None)
    if isinstance(node, ast.Name):
        if node.id in locals_:
            return locals_[node.id]
        value = project.constant_value(module, node.id)
        if value is not None:
            return ("literal", value)
    return ("dynamic", None)


def _purpose_allowed(kind: str, value: str | None) -> bool:
    """Is this purpose/scope label registered (any table)?"""
    if kind == "literal":
        if value in STREAM_REGISTRY or value in SCOPE_LABELS:
            return True
        return any(value.startswith(p) for p in PREFIX_REGISTRY)
    if kind == "prefix":
        return value in PREFIX_REGISTRY
    return True  # dynamic labels are the runtime sanitizer's problem


def _matches(purpose: tuple[str, str | None], scopes: list[tuple[str, str | None]]) -> bool:
    """Does a stream's purpose match any scope label in the block?"""
    p_kind, p_val = purpose
    for s_kind, s_val in scopes:
        if s_kind == "dynamic" or p_kind == "dynamic":
            return True
        if p_val == s_val:
            return True
        if p_kind == "literal" and s_kind == "prefix" and p_val.startswith(s_val):
            return True
        if p_kind == "prefix" and s_kind == "literal" and s_val.startswith(p_val):
            return True
    return False


def _is_child_rng(raw: str | None) -> bool:
    return raw is not None and (raw == "child_rng" or raw.endswith(".child_rng"))


def _is_scope(raw: str | None) -> bool:
    return raw is not None and raw.endswith("sanitizer.scope")


class StreamsPass(ProjectPass):
    name = "streams"
    summary = "child_rng purpose registry and sanitizer-scope discipline"

    def check(self, project: Project) -> Iterator[Finding]:
        # site lists keyed by purpose, for the uniqueness check.
        literal_sites: dict[str, list[tuple[ModuleInfo, ast.AST]]] = {}
        prefix_sites: dict[str, list[tuple[ModuleInfo, ast.AST]]] = {}
        findings: list[Finding] = []

        for fn in project.sim_functions():
            module = project.module_of(fn.qualname)
            locals_ = _local_strings(fn)
            # child_rng construction sites.
            for site in fn.calls:
                if not _is_child_rng(site.raw):
                    continue
                arg = None
                if len(site.node.args) >= 2:
                    arg = site.node.args[1]
                else:
                    for kw in site.node.keywords:
                        if kw.arg == "purpose":
                            arg = kw.value
                if arg is None:
                    continue
                kind, value = _purpose_of(arg, locals_, module, project)
                if kind == "literal":
                    if value not in STREAM_REGISTRY:
                        findings.append(module.finding(
                            PURPOSE_RULE, site.node,
                            f"child_rng purpose {value!r} is not in the "
                            f"stream registry — add it to "
                            f"repro.lint.streams.STREAM_REGISTRY (do not "
                            f"rename existing purposes)",
                        ))
                    else:
                        literal_sites.setdefault(value, []).append(
                            (module, site.node)
                        )
                elif kind == "prefix":
                    if value not in PREFIX_REGISTRY:
                        findings.append(module.finding(
                            PURPOSE_RULE, site.node,
                            f"child_rng purpose prefix {value!r} is not in "
                            f"repro.lint.streams.PREFIX_REGISTRY",
                        ))
                    else:
                        prefix_sites.setdefault(value, []).append(
                            (module, site.node)
                        )
                elif fn.qualname not in DYNAMIC_SITES:
                    findings.append(module.finding(
                        PURPOSE_RULE, site.node,
                        f"child_rng purpose here is not a literal; use a "
                        f"registered literal/prefix or list "
                        f"{fn.qualname} in repro.lint.streams.DYNAMIC_SITES",
                    ))
            # sanitizer.scope labels + cross-stream draws inside them.
            findings.extend(self._scope_findings(fn, module, project, locals_))

        for registry, sites in (
            (STREAM_REGISTRY, literal_sites), (PREFIX_REGISTRY, prefix_sites),
        ):
            for purpose in sorted(sites):
                entries = sorted(
                    sites[purpose],
                    key=lambda e: (e[0].display_path, e[1].lineno),
                )
                allowed = registry[purpose]
                for module, node in entries[allowed:]:
                    findings.append(module.finding(
                        PURPOSE_RULE, node,
                        f"purpose {purpose!r} is constructed at "
                        f"{len(entries)} sites but the registry allows "
                        f"{allowed} — duplicate purposes alias RNG streams",
                    ))
        yield from findings

    def _scope_findings(
        self,
        fn: FunctionInfo,
        module: ModuleInfo,
        project: Project,
        locals_: dict[str, tuple[str, str]],
    ) -> Iterator[Finding]:
        # name -> purpose for streams constructed locally in this body.
        stream_vars: dict[str, tuple[str, str | None]] = {}
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and _is_child_rng(module.resolve(node.value.func))
                and len(node.value.args) >= 2
            ):
                stream_vars[node.targets[0].id] = _purpose_of(
                    node.value.args[1], locals_, module, project
                )
        for node in ast.walk(fn.node):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            for item in node.items:
                call = item.context_expr
                if not isinstance(call, ast.Call) or not _is_scope(
                    module.resolve(call.func)
                ):
                    continue
                labels = [
                    _purpose_of(arg, locals_, module, project)
                    for arg in call.args
                ]
                for (kind, value), arg in zip(labels, call.args):
                    if not _purpose_allowed(kind, value):
                        yield module.finding(
                            SCOPE_RULE, arg,
                            f"sanitizer scope label {value!r} is not a "
                            f"registered stream purpose, prefix, or "
                            f"SCOPE_LABELS entry",
                        )
                for sub in ast.walk(node):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in _DRAW_METHODS
                        and isinstance(sub.func.value, ast.Name)
                        and sub.func.value.id in stream_vars
                    ):
                        purpose = stream_vars[sub.func.value.id]
                        if not _matches(purpose, labels):
                            shown = ", ".join(
                                repr(v) for _k, v in labels if v is not None
                            )
                            yield module.finding(
                                SCOPE_RULE, sub,
                                f"draw on stream {purpose[1]!r} inside "
                                f"scope({shown}) — a cross-stream draw the "
                                f"sanitizer would flag at runtime",
                            )
