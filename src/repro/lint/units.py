"""Time-unit dimensional analysis over the virtual timeline.

The simulation prices work in three currencies — integer nanoseconds
(`*_ns`), fabric ticks (`*_ticks`, 50us each), and CPU cycles
(`*_cycles`) — and the load driver multiplies between them constantly.
Mixing them silently is the single easiest way to corrupt a figure
(the paper's throughput-vs-latency curves are built from exactly these
quantities), so this pass makes the units a checked convention:

**Declarations are names.**  A suffix declares a unit: ``_ns``,
``_us``, ``_ms``, ``_s``, ``_ticks``, ``_cycles`` on variables,
attributes, and parameters.  Conversion *factors* are declared by
pairing two unit words — ``TICK_NS`` / ``tick_ns`` ("ns per tick"),
``NS_PER_MS`` — and conversion *functions* by the ``a_to_b`` shape
(``us_to_ns``), which is the :mod:`repro.util.timeunits` naming
scheme.

**Checks.**  Adding, subtracting or comparing two quantities of
*known, different* units flags; so does assigning a known unit to a
name suffixed with a different one, passing one where a resolved
callee's parameter is suffixed with another, or feeding ``a_to_b`` a
non-``a`` argument.  Multiplying or dividing by a conversion factor
converts (``ticks * TICK_NS -> ns``, ``ns // TICK_NS -> ticks``);
multiplying by a bare literal does *not* — ``timeout_ms * 1_000_000``
stays milliseconds until it hits an ``_ns`` name and flags, which is
precisely the load-driver bug class this pass exists for.

**Noise control.**  Unknown units propagate silently (scaling by a
count, ratios of like units, anything the suffix convention doesn't
cover), and a flagged expression yields *unknown* so one bug produces
one finding.  ``repro/util/timeunits.py`` itself is exempt — its
bodies are the cross-unit arithmetic, by definition — and
:data:`UNIT_EXCEPTIONS` is the registry for names whose suffix is a
false friend.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.callgraph import (
    FunctionInfo,
    ModuleInfo,
    Project,
    ProjectPass,
)
from repro.lint.engine import Finding

RULE = "unit-mismatch"

# Builtins that pass their argument's unit through unchanged.
TRANSPARENT_CALLS = frozenset(
    {"int", "float", "str", "bool", "abs", "round", "max", "min", "sum",
     "sorted", "tuple", "list", "len"}
)

# Names whose unit-like suffix does not declare a time unit.  Keep this
# registry small and commented — every entry is a naming debt.
UNIT_EXCEPTIONS = frozenset({
    "ns",      # a bare `ns` is usually a namespace, not nanoseconds
})

# Modules (matched on dotted-name tail) whose whole point is cross-unit
# arithmetic: the conversion helpers themselves.
EXEMPT_MODULE_TAILS = ("timeunits",)

_UNIT_WORDS = {
    "ns": "ns", "nanos": "ns",
    "us": "us", "micros": "us",
    "ms": "ms", "millis": "ms",
    "s": "s", "sec": "s", "secs": "s", "seconds": "s",
    "tick": "ticks", "ticks": "ticks",
    "cycle": "cycles", "cycles": "cycles",
}

# A unit is a plain string ("ns"); a conversion factor is
# ("conv", numerator_unit, denominator_unit): TICK_NS == ("conv",
# "ns", "ticks") reads "ns per tick".  None means unknown.


def unit_of_name(name: str | None):
    """Unit (or conversion factor) declared by *name*'s shape."""
    if not name or name in UNIT_EXCEPTIONS:
        return None
    words = [w for w in name.lower().split("_") if w]
    if not words:
        return None
    if len(words) == 3 and words[1] == "per":
        num = _UNIT_WORDS.get(words[0])
        den = _UNIT_WORDS.get(words[2])
        if num and den and num != den:
            return ("conv", num, den)
    if "per" in words:
        return None  # a rate over a non-time denominator (us per record)
    if len(words) == 2:
        first = _UNIT_WORDS.get(words[0])
        second = _UNIT_WORDS.get(words[1])
        if first and second and first != second:
            # ``TICK_NS`` reads "ns per tick": the value is in ns.
            return ("conv", second, first)
    last = _UNIT_WORDS.get(words[-1])
    if last is None:
        return None
    if words == ["s"]:
        return None  # a bare `s` is almost always a string
    return last


def _converter_units(tail: str):
    """``us_to_ns`` -> ("us", "ns"); None when not that shape."""
    if "_to_" not in tail:
        return None
    src, _, dst = tail.partition("_to_")
    src_u = _UNIT_WORDS.get(src)
    dst_u = _UNIT_WORDS.get(dst)
    if src_u and dst_u:
        return (src_u, dst_u)
    return None


def _is_plain(unit) -> bool:
    return isinstance(unit, str)


class _FunctionUnits:
    """One forward sweep over a function body, tracking name units."""

    def __init__(self, fn: FunctionInfo, module: ModuleInfo, project: Project):
        self.fn = fn
        self.module = module
        self.project = project
        self.sites = {site.node: site for site in fn.calls}
        self.var_units: dict[str, object] = {}
        for param in fn.params:
            unit = unit_of_name(param)
            if unit is not None:
                self.var_units[param] = unit
        self.findings: list[Finding] = []

    def run(self) -> list[Finding]:
        self._walk(list(self.fn.node.body))
        return self.findings

    # -- statements -----------------------------------------------------------

    def _walk(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are analysed as their own functions
        if isinstance(stmt, ast.Assign):
            unit = self.unit_of(stmt.value)
            for target in stmt.targets:
                self._store(target, unit)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._store(stmt.target, self.unit_of(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            unit = self.unit_of(stmt.value)
            name = self._target_name(stmt.target)
            target_unit = self.var_units.get(name) if name else None
            if target_unit is None:
                target_unit = unit_of_name(name)
            if (
                isinstance(stmt.op, (ast.Add, ast.Sub))
                and _is_plain(target_unit)
                and _is_plain(unit)
                and target_unit != unit
            ):
                self._flag(
                    stmt,
                    f"augmenting {target_unit} name {name!r} with a {unit} "
                    f"value — convert explicitly (repro.util.timeunits)",
                )
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                unit = self.unit_of(stmt.value)
                declared = unit_of_name(self.fn.node.name)
                if (
                    _is_plain(declared)
                    and _is_plain(unit)
                    and declared != unit
                ):
                    self._flag(
                        stmt,
                        f"function {self.fn.node.name!r} declares {declared} "
                        f"by suffix but returns a {unit} value",
                    )
        elif isinstance(stmt, (ast.If, ast.While)):
            self.unit_of(stmt.test)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.unit_of(stmt.iter)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.unit_of(item.context_expr)
            self._walk(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._walk(stmt.body)
            for handler in stmt.handlers:
                self._walk(handler.body)
            self._walk(stmt.orelse)
            self._walk(stmt.finalbody)
        elif isinstance(stmt, ast.Expr):
            self.unit_of(stmt.value)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.unit_of(child)

    def _target_name(self, target: ast.AST) -> str | None:
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute):
            return target.attr
        return None

    def _store(self, target: ast.AST, unit) -> None:
        name = self._target_name(target)
        if name is None:
            if isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    self._store(elt, None)
            return
        declared = unit_of_name(name)
        if _is_plain(declared) and _is_plain(unit) and declared != unit:
            self._flag(
                target,
                f"assigning a {unit} value to {declared}-suffixed name "
                f"{name!r} — convert explicitly (repro.util.timeunits)",
            )
        if isinstance(target, ast.Name):
            self.var_units[name] = declared if declared is not None else unit

    # -- expressions ----------------------------------------------------------

    def unit_of(self, node: ast.AST):
        if isinstance(node, ast.Constant):
            return None
        if isinstance(node, ast.Name):
            if node.id in self.var_units:
                return self.var_units[node.id]
            return unit_of_name(node.id)
        if isinstance(node, ast.Attribute):
            self.unit_of(node.value)
            return unit_of_name(node.attr)
        if isinstance(node, ast.BinOp):
            return self._binop(node)
        if isinstance(node, ast.UnaryOp):
            return self.unit_of(node.operand)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Compare):
            self._compare(node)
            return None
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.unit_of(value)
            return None
        if isinstance(node, ast.IfExp):
            self.unit_of(node.test)
            body = self.unit_of(node.body)
            other = self.unit_of(node.orelse)
            if _is_plain(body) and _is_plain(other) and body != other:
                self._flag(
                    node,
                    f"conditional expression yields {body} on one branch "
                    f"and {other} on the other",
                )
                return None
            return body if body is not None else other
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                self.unit_of(elt)
            return None
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self.unit_of(key)
            for value in node.values:
                self.unit_of(value)
            return None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            self.unit_of(node.elt)
            return None
        if isinstance(node, ast.DictComp):
            self.unit_of(node.key)
            self.unit_of(node.value)
            return None
        if isinstance(node, ast.Subscript):
            self.unit_of(node.value)
            return None
        if isinstance(node, ast.Starred):
            return self.unit_of(node.value)
        if isinstance(node, ast.NamedExpr):
            unit = self.unit_of(node.value)
            self._store(node.target, unit)
            return unit
        return None

    def _binop(self, node: ast.BinOp):
        left = self.unit_of(node.left)
        right = self.unit_of(node.right)
        op = node.op
        if isinstance(op, ast.Mult):
            for conv, other, other_node in (
                (left, right, node.right), (right, left, node.left),
            ):
                if isinstance(conv, tuple):
                    num, den = conv[1], conv[2]
                    if _is_plain(other) and other != den:
                        self._flag(
                            node,
                            f"multiplying a {other} value by a "
                            f"{num}-per-{den[:-1]} factor",
                        )
                        return None
                    return num
            # Scaling a known unit by a count keeps the unit — this is
            # what walks `timeout_ms * 1_000_000` into an `_ns` name.
            if _is_plain(left) and right is None:
                return left
            if _is_plain(right) and left is None:
                return right
            return None  # two plain units: area-like, out of scope
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            if isinstance(right, tuple):
                num, den = right[1], right[2]
                if _is_plain(left) and left != num:
                    self._flag(
                        node,
                        f"dividing a {left} value by a "
                        f"{num}-per-{den[:-1]} factor",
                    )
                    return None
                return den
            if _is_plain(left) and right is None:
                return left  # dividing by a count
            return None  # like-unit ratios and per-count rates: unknown
        if isinstance(op, (ast.Add, ast.Sub)):
            if _is_plain(left) and _is_plain(right) and left != right:
                word = "adding" if isinstance(op, ast.Add) else "subtracting"
                self._flag(
                    node,
                    f"{word} {left} and {right} quantities — convert "
                    f"explicitly (repro.util.timeunits)",
                )
                return None
            if _is_plain(left):
                return left
            if _is_plain(right):
                return right
            return None
        if isinstance(op, ast.Mod):
            if isinstance(right, tuple) and _is_plain(left):
                return left if left == right[1] else None
            if _is_plain(left) and _is_plain(right) and left != right:
                self._flag(
                    node, f"remainder of {left} by {right} quantities"
                )
                return None
            return left if _is_plain(left) else None
        return None

    def _compare(self, node: ast.Compare) -> None:
        units = [self.unit_of(node.left)]
        units += [self.unit_of(comp) for comp in node.comparators]
        plain = sorted({u for u in units if _is_plain(u)})
        if len(plain) > 1:
            self._flag(
                node,
                f"comparing {' and '.join(plain)} quantities — convert "
                f"to one unit first",
            )

    def _call(self, node: ast.Call):
        site = self.sites.get(node)
        raw = site.raw if site else None
        tail = raw.split(".")[-1] if raw else None
        arg_units = [self.unit_of(arg) for arg in node.args]
        kw_units = {
            kw.arg: self.unit_of(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        }
        for kw in node.keywords:
            if kw.arg is None:
                self.unit_of(kw.value)

        if tail:
            converted = _converter_units(tail)
            if converted is not None:
                src, dst = converted
                if node.args and _is_plain(arg_units[0]) and arg_units[0] != src:
                    self._flag(
                        node,
                        f"{tail}() converts from {src} but the argument "
                        f"is {arg_units[0]}",
                    )
                return dst
            if tail in TRANSPARENT_CALLS:
                plain = sorted({u for u in arg_units if _is_plain(u)})
                if tail in ("max", "min", "sum") and len(plain) > 1:
                    self._flag(
                        node,
                        f"{tail}() over mixed {' and '.join(plain)} "
                        f"quantities",
                    )
                    return None
                return plain[0] if len(plain) == 1 else None

        target = site.target if site else None
        callee = self.project.functions.get(target) if target else None
        if callee is not None:
            offset = 1 if callee.params and callee.params[0] in ("self", "cls") else 0
            for index, unit in enumerate(arg_units):
                pos = index + offset
                if pos >= len(callee.params):
                    break
                declared = unit_of_name(callee.params[pos])
                if _is_plain(declared) and _is_plain(unit) and declared != unit:
                    self._flag(
                        node.args[index],
                        f"passing a {unit} value where {callee.qualname} "
                        f"expects {declared} ({callee.params[pos]!r})",
                    )
            for name, unit in sorted(kw_units.items()):
                declared = unit_of_name(name)
                if _is_plain(declared) and _is_plain(unit) and declared != unit:
                    self._flag(
                        node,
                        f"passing a {unit} value as {name}= to "
                        f"{callee.qualname}",
                    )
        else:
            # Even unresolved calls get the keyword-suffix check: the
            # keyword name itself declares what the callee expects.
            for name, unit in sorted(kw_units.items()):
                declared = unit_of_name(name)
                if _is_plain(declared) and _is_plain(unit) and declared != unit:
                    self._flag(
                        node, f"passing a {unit} value as {name}="
                    )
        if tail:
            declared = unit_of_name(tail)
            if _is_plain(declared):
                return declared  # elapsed_ns() and friends
        return None

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.module.finding(RULE, node, message))


class UnitsPass(ProjectPass):
    name = "units"

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules.values():
            if module.name.rpartition(".")[2] in EXEMPT_MODULE_TAILS:
                continue
            for qual in module.function_order():
                fn = module.functions[qual]
                yield from _FunctionUnits(fn, module, project).run()
