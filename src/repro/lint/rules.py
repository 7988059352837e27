"""The rule catalogue: two sim-path rules, each over the shared
:class:`~repro.lint.engine.FileContext`.

== ============= ==============================================
#  rule          what it bans
== ============= ==============================================
1  rng-factory   ``random.Random(...)`` outside ``repro.util.rng``
2  float-eq      exact ``==`` / ``!=`` on fractional float constants
== ============= ==============================================

Both catch bugs that are deterministic — the same wrong value in every
run — which the parity harness (``tests/test_parity.py``) cannot see:
a seeded ``random.Random(seed)`` escapes the sanitizer's stream
tracking and aliases ``root_rng(seed)``; an exact float comparison
picks a branch by rounding luck.  Both are pure syntax, with import
aliases applied and no type inference.
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


def default_rules() -> list[Rule]:
    """The catalogue, in documentation order."""
    return [
        RngFactoryRule(),
        FloatEqRule(),
    ]


def rule_names() -> list[str]:
    return [rule.name for rule in default_rules()]
