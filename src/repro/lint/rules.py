"""The rule catalogue: three sim-path rules, each over the shared
:class:`~repro.lint.engine.FileContext`.

== ============= ==============================================
#  rule          what it bans
== ============= ==============================================
1  rng-factory   ``random.Random(...)`` outside ``repro.util.rng``
2  float-eq      exact ``==`` / ``!=`` on fractional float constants
3  unit-mismatch two time units meeting in one expression
== ============= ==============================================

Each catches a bug that is deterministic — the same wrong value in
every run — which the parity harness cannot see: a seeded
``random.Random(seed)`` escapes the sanitizer and aliases
``root_rng(seed)``; an exact float comparison picks a branch by
rounding luck; ``start_ns + timeout_ms`` is off by a factor of a
million every time.  All are pure syntax, with no type inference.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, Finding, Rule

# -- 1. rng-factory ----------------------------------------------------------

# The factory itself is the one module allowed to construct a Random.
_FACTORY_MODULE = "repro/util/rng.py"


class RngFactoryRule(Rule):
    name = "rng-factory"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.path.as_posix().endswith(_FACTORY_MODULE):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if ctx.resolve(node.func) != "random.Random":
                continue
            if not node.args and not node.keywords:
                yield ctx.finding(
                    self.name, node,
                    "argless random.Random() seeds from OS entropy — every "
                    "run differs; use child_rng(seed, purpose)",
                )
            else:
                yield ctx.finding(
                    self.name, node,
                    "random.Random(...) constructed outside repro.util.rng — "
                    "use child_rng(seed, purpose) or root_rng(seed) so the "
                    "stream carries its provenance",
                )


# -- 2. float-eq -------------------------------------------------------------


def _fractional_float(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and not node.value.is_integer()
    )


class FloatEqRule(Rule):
    name = "float-eq"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(_fractional_float(operand) for operand in operands):
                yield ctx.finding(
                    self.name, node,
                    "exact float equality on a fractional constant — cycle "
                    "and metric values accumulate rounding; use "
                    "math.isclose or compare integral counters",
                )


# -- 3. unit-mismatch --------------------------------------------------------
#
# A suffix declares a unit (``_ns``, ``_us``, ``_ms``, ``_s``, ``_ticks``,
# ``_cycles``), two unit words a factor (``TICK_NS``, ``NS_PER_MS``), and
# ``a_to_b`` a converter (repro.util.timeunits).  Builtins like int() and
# max() pass a unit through.  A factor converts; a bare count does not, so
# ``timeout_ms * 1_000_000`` is still ms.  A flagged expression has no
# unit, so one slip is one finding.

# Names whose unit-like suffix does not declare a time unit.  Keep this
# registry small and commented — every entry is a naming debt.
UNIT_EXCEPTIONS = frozenset({
    "ns",      # a bare `ns` is usually a namespace, not nanoseconds
})

_UNIT_WORDS = {
    "ns": "ns", "nanos": "ns",
    "us": "us", "micros": "us",
    "ms": "ms", "millis": "ms",
    "s": "s", "sec": "s", "secs": "s", "seconds": "s",
    "tick": "ticks", "ticks": "ticks",
    "cycle": "cycles", "cycles": "cycles",
}

_TRANSPARENT_CALLS = frozenset({"int", "float", "abs", "round", "max", "min", "sum"})


def unit_of_name(name: str | None):
    """The unit *name* declares: a string (``"ns"``), a conversion
    factor ``("conv", numerator, denominator)``, or None."""
    if not name or name in UNIT_EXCEPTIONS:
        return None
    words = [w for w in name.lower().split("_") if w]
    if len(words) == 3 and words[1] == "per" and {words[0], words[2]} <= _UNIT_WORDS.keys():
        words = [words[2], words[0]]  # NS_PER_MS reads as MS_NS
    if not words or "per" in words or words == ["s"]:
        return None  # rates over counts; a bare `s` is a string
    if len(words) == 2:
        first, second = _UNIT_WORDS.get(words[0]), _UNIT_WORDS.get(words[1])
        if first and second and first != second:
            return ("conv", second, first)  # TICK_NS: ns per tick
    return _UNIT_WORDS.get(words[-1])


def _plain(unit) -> bool:
    return isinstance(unit, str)


def _differ(a, b) -> bool:
    return _plain(a) and _plain(b) and a != b


class _UnitWalk(ast.NodeVisitor):
    """Visits statements; evaluates each top-level expression once."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.returns = [None]  # unit declared by the enclosing def's name
        self.findings: list[Finding] = []

    def flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.ctx.finding(UnitMismatchRule.name, node, message))

    def generic_visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.expr):
            self.unit(node)
        else:
            super().generic_visit(node)

    def visit_FunctionDef(self, node) -> None:
        self.returns.append(unit_of_name(node.name))
        super().generic_visit(node)
        self.returns.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node: ast.Assign) -> None:
        unit = self.unit(node.value)
        for target in node.targets:
            self.store(target, unit)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.store(node.target, self.unit(node.value))

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        unit, declared = self.unit(node.value), self.unit(node.target)
        if isinstance(node.op, (ast.Add, ast.Sub)) and _differ(declared, unit):
            self.flag(node, f"augmenting a {declared} name with a {unit} value")

    def visit_Return(self, node: ast.Return) -> None:
        unit = self.unit(node.value) if node.value is not None else None
        if _differ(self.returns[-1], unit):
            self.flag(node, f"function declares {self.returns[-1]} by "
                            f"suffix but returns a {unit} value")

    def store(self, target: ast.AST, unit) -> None:
        declared = self.unit(target)
        if isinstance(target, (ast.Name, ast.Attribute)) and _differ(declared, unit):
            self.flag(target, f"assigning a {unit} value to a "
                              f"{declared}-suffixed name")

    def unit(self, node: ast.AST):
        if isinstance(node, ast.Name):
            return unit_of_name(node.id)
        if isinstance(node, ast.Attribute):
            self.unit(node.value)
            return unit_of_name(node.attr)
        if isinstance(node, ast.BinOp):
            return self.binop(node)
        if isinstance(node, ast.UnaryOp):
            return self.unit(node.operand)
        if isinstance(node, ast.Call):
            return self.call(node)
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            units = sorted({u for u in map(self.unit, operands) if _plain(u)})
            if len(units) > 1:
                self.flag(node, f"comparing {' and '.join(units)} quantities")
            return None
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        return None

    def binop(self, node: ast.BinOp):
        left, right = self.unit(node.left), self.unit(node.right)
        op = node.op
        if isinstance(op, ast.Mult):
            factor, other = (left, right) if isinstance(left, tuple) else (right, left)
            if isinstance(factor, tuple):
                if _differ(other, factor[2]):
                    self.flag(node, f"multiplying a {other} value by a "
                                    f"{factor[1]}-per-{factor[2]} factor")
                    return None
                return factor[1]
            # Scaling by a count keeps the unit (timeout_ms * 1_000_000).
            return left if right is None else right if left is None else None
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            if isinstance(right, tuple):
                if _differ(left, right[1]):
                    self.flag(node, f"dividing a {left} value by a "
                                    f"{right[1]}-per-{right[2]} factor")
                    return None
                return right[2]
            # Dividing by a count keeps the unit; a like-unit ratio has none.
            return left if _plain(left) and right is None else None
        if isinstance(op, (ast.Add, ast.Sub, ast.Mod)):
            if _differ(left, right):
                self.flag(node, f"{left} and {right} quantities meet in one "
                                f"expression")
                return None
            if _plain(left):
                return left
            return right if _plain(right) and not isinstance(op, ast.Mod) else None
        return None

    def call(self, node: ast.Call):
        self.unit(node.func)
        args = [self.unit(arg) for arg in node.args]
        for kw in node.keywords:
            unit = self.unit(kw.value)
            if _differ(unit_of_name(kw.arg), unit):
                self.flag(node, f"passing a {unit} value as {kw.arg}=")
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        src, to, dst = (name or "").partition("_to_")
        if to and src in _UNIT_WORDS and dst in _UNIT_WORDS:
            if args and _differ(args[0], _UNIT_WORDS[src]):
                self.flag(node, f"{name}() converts from {_UNIT_WORDS[src]} "
                                f"but the argument is {args[0]}")
            return _UNIT_WORDS[dst]
        if name in _TRANSPARENT_CALLS:
            units = sorted({u for u in args if _plain(u)})
            if len(units) > 1:
                self.flag(node, f"{name}() over mixed {' and '.join(units)} "
                                f"quantities")
                return None
            return units[0] if units else None
        declared = unit_of_name(name)
        return declared if _plain(declared) else None  # elapsed_ns()


class UnitMismatchRule(Rule):
    name = "unit-mismatch"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.path.stem == "timeunits":
            return  # the converters are cross-unit arithmetic by definition
        walk = _UnitWalk(ctx)
        walk.visit(ctx.tree)
        yield from walk.findings


def default_rules() -> list[Rule]:
    """The catalogue, in documentation order."""
    return [
        RngFactoryRule(),
        FloatEqRule(),
        UnitMismatchRule(),
    ]


def rule_names() -> list[str]:
    return [rule.name for rule in default_rules()]
