"""The determinism & simulation-correctness rule catalogue.

Eight rules, each a class over the shared :class:`~repro.lint.engine.FileContext`.
The catalogue encodes the conventions every headline guarantee rests
on (bit-identical ``--jobs N``, obs-on/off parity, byte-identical
crash schedules):

== =================== ======== =====================================
#  rule                sim-only what it bans
== =================== ======== =====================================
1  wall-clock          yes      host-clock reads outside repro.util.clock
2  entropy             no       os.urandom / uuid1,4 / secrets / SystemRandom
3  global-random       no       draws on the shared module-level random RNG
4  rng-factory         yes      random.Random(...) outside repro.util.rng
5  unordered-iter      no       iterating sets / keys-view unions into results
6  float-eq            yes      exact == on fractional float constants
7  mutable-default     no       mutable defaults in defs and dataclass fields
8  pool-seed           yes      ProcessPoolExecutor fan-out with no seed threaded
== =================== ======== =====================================

*sim-only* rules skip test files — a test constructing its own
``random.Random(0)`` is deterministic and fine; library code must go
through the seeded factories.  ``pool-seed`` is a heuristic (it looks
for a seed/rng identifier anywhere in the scope that builds the worker
tasks); the others are exact on the syntax they target.  All rules are
pure syntax — no type inference — so a set reaching a loop through a
variable, say, is out of reach; the runtime sanitizer covers that side.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, Finding, Rule

# -- 1. wall-clock -----------------------------------------------------------

_WALL_CLOCK = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.strftime", "time.localtime", "time.gmtime",
    "time.ctime", "time.asctime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

_CLOCK_HINTS = {
    "time.time": "wall_timer()",
    "time.perf_counter": "perf_timer()",
    "time.perf_counter_ns": "perf_timer_ns()",
    "time.strftime": "timestamp()",
}


class WallClockRule(Rule):
    name = "wall-clock"
    summary = "host-clock reads in sim paths (only repro.util.clock may)"
    sim_only = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.config.allows(ctx.config.wall_clock_allowlist, ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            dotted = ctx.resolve(node)
            if dotted in _WALL_CLOCK:
                hint = _CLOCK_HINTS.get(dotted, "a repro.util.clock helper")
                yield ctx.finding(
                    self.name, node,
                    f"{dotted} read in a sim path — route through "
                    f"repro.util.clock ({hint})",
                )


# -- 2. entropy --------------------------------------------------------------

_ENTROPY = {
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
    "random.SystemRandom",
}


class EntropyRule(Rule):
    name = "entropy"
    summary = "OS entropy sources (results must be a pure function of the seed)"
    sim_only = False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            dotted = ctx.resolve(node)
            if dotted is None:
                continue
            if dotted in _ENTROPY or dotted.startswith("secrets."):
                yield ctx.finding(
                    self.name, node,
                    f"{dotted} is an OS entropy source — derive randomness "
                    f"from the run seed (child_rng/root_rng)",
                )


# -- 3. global-random --------------------------------------------------------

_GLOBAL_DRAWS = {
    "random", "randint", "randrange", "randbytes", "getrandbits",
    "choice", "choices", "shuffle", "sample",
    "uniform", "triangular", "betavariate", "expovariate",
    "gammavariate", "gauss", "lognormvariate", "normalvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate",
    "seed", "setstate", "getstate",
}


class GlobalRandomRule(Rule):
    name = "global-random"
    summary = "draws on the module-level random RNG (shared, reseedable state)"
    sim_only = False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.resolve(node.func)
            if dotted is None:
                continue
            root, _, method = dotted.rpartition(".")
            if root == "random" and method in _GLOBAL_DRAWS:
                yield ctx.finding(
                    self.name, node,
                    f"{dotted}() draws from the shared module-level RNG — "
                    f"any import-order change shifts every stream; use a "
                    f"seeded stream (child_rng/root_rng)",
                )


# -- 4. rng-factory ----------------------------------------------------------


class RngFactoryRule(Rule):
    name = "rng-factory"
    summary = "random.Random constructed outside the seeded-factory idiom"
    sim_only = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.config.allows(ctx.config.rng_factory_allowlist, ctx.path):
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


# -- 5. unordered-iter -------------------------------------------------------

_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _is_keys_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
        and not node.args
    )


def _is_set_expr(node: ast.AST, ctx: FileContext) -> bool:
    """Syntactically-certain unordered set expressions."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return ctx.resolve(node.func) in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        left = _is_set_expr(node.left, ctx) or _is_keys_call(node.left)
        right = _is_set_expr(node.right, ctx) or _is_keys_call(node.right)
        # a.keys() | b.keys() produces a set; ordered dict union (d1 | d2)
        # does not hit this branch because neither side is set-like.
        return left and right
    return False


class UnorderedIterRule(Rule):
    name = "unordered-iter"
    summary = "iteration over unordered sets where order can reach results"
    sim_only = False

    _MESSAGE = (
        "iteration order of a set is not deterministic across processes — "
        "sort first (sorted(...)) or keep an ordered container"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expr(node.iter, ctx):
                    yield ctx.finding(self.name, node.iter, self._MESSAGE)
            elif isinstance(node, ast.comprehension):
                if _is_set_expr(node.iter, ctx):
                    yield ctx.finding(self.name, node.iter, self._MESSAGE)
            elif isinstance(node, ast.Call):
                dotted = ctx.resolve(node.func)
                is_seq_ctor = dotted in ("list", "tuple", "enumerate")
                is_join = (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                )
                if (
                    (is_seq_ctor or is_join)
                    and len(node.args) == 1
                    and _is_set_expr(node.args[0], ctx)
                ):
                    yield ctx.finding(
                        self.name, node,
                        "materialising a set in arbitrary order — wrap in "
                        "sorted(...) to pin it",
                    )


# -- 6. float-eq -------------------------------------------------------------


def _fractional_float(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and not node.value.is_integer()
    )


class FloatEqRule(Rule):
    name = "float-eq"
    summary = "exact == / != against fractional float constants"
    sim_only = True

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


# -- 7. mutable-default ------------------------------------------------------

_MUTABLE_CTORS = (
    "list", "dict", "set",
    "collections.defaultdict", "collections.OrderedDict", "collections.Counter",
    "collections.deque",
)


def _is_mutable_value(node: ast.AST, ctx: FileContext) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return ctx.resolve(node.func) in _MUTABLE_CTORS
    return False


def _is_dataclass_decorated(node: ast.ClassDef, ctx: FileContext) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if ctx.resolve(target) in ("dataclass", "dataclasses.dataclass"):
            return True
    return False


class MutableDefaultRule(Rule):
    name = "mutable-default"
    summary = "mutable default arguments and dataclass field defaults"
    sim_only = False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if _is_mutable_value(default, ctx):
                        yield ctx.finding(
                            self.name, default,
                            "mutable default argument is shared across calls "
                            "— default to None (or use field(default_factory))",
                        )
            elif isinstance(node, ast.ClassDef) and _is_dataclass_decorated(node, ctx):
                for stmt in node.body:
                    value = None
                    if isinstance(stmt, ast.AnnAssign):
                        value = stmt.value
                    elif isinstance(stmt, ast.Assign):
                        value = stmt.value
                    if value is not None and _is_mutable_value(value, ctx):
                        yield ctx.finding(
                            self.name, value,
                            "mutable default on a dataclass field — use "
                            "field(default_factory=...)",
                        )


# -- 8. pool-seed ------------------------------------------------------------

_POOL_CTORS = (
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
)
_SEED_MARKERS = ("seed", "rng")


def _pool_names(scope_nodes: list[ast.AST], ctx: FileContext) -> set[str]:
    names: set[str] = set()
    for node in scope_nodes:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                expr = item.context_expr
                if (
                    isinstance(expr, ast.Call)
                    and ctx.resolve(expr.func) in _POOL_CTORS
                    and isinstance(item.optional_vars, ast.Name)
                ):
                    names.add(item.optional_vars.id)
        elif isinstance(node, ast.Assign):
            if (
                isinstance(node.value, ast.Call)
                and ctx.resolve(node.value.func) in _POOL_CTORS
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


def _mentions_seed(scope_nodes: list[ast.AST]) -> bool:
    for node in scope_nodes:
        identifiers: list[str] = []
        if isinstance(node, ast.Name):
            identifiers.append(node.id)
        elif isinstance(node, ast.Attribute):
            identifiers.append(node.attr)
        elif isinstance(node, ast.arg):
            identifiers.append(node.arg)
        elif isinstance(node, ast.keyword) and node.arg:
            identifiers.append(node.arg)
        for ident in identifiers:
            lowered = ident.lower()
            if any(marker in lowered for marker in _SEED_MARKERS):
                return True
    return False


class PoolSeedRule(Rule):
    name = "pool-seed"
    summary = "ProcessPoolExecutor fan-out without a seed threaded to workers"
    sim_only = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        functions = [
            node for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        inside_functions: set[int] = set()
        for function in functions:
            for node in ast.walk(function):
                if node is not function:
                    inside_functions.add(id(node))
        module_scope = [
            node for node in ast.walk(ctx.tree) if id(node) not in inside_functions
        ]
        scopes = [list(ast.walk(fn)) for fn in functions] + [module_scope]
        for scope_nodes in scopes:
            pools = _pool_names(scope_nodes, ctx)
            if not pools:
                continue
            dispatches = [
                node for node in scope_nodes
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("map", "submit")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in pools
            ]
            if dispatches and not _mentions_seed(scope_nodes):
                yield ctx.finding(
                    self.name, dispatches[0],
                    "worker tasks fan out with no seed in sight — thread a "
                    "per-task seed (e.g. RunSpec.rep_seed) through the task "
                    "tuple so workers are order-independent",
                )


def default_rules() -> list[Rule]:
    """The catalogue, in documentation order."""
    return [
        WallClockRule(),
        EntropyRule(),
        GlobalRandomRule(),
        RngFactoryRule(),
        UnorderedIterRule(),
        FloatEqRule(),
        MutableDefaultRule(),
        PoolSeedRule(),
    ]


def rule_names() -> list[str]:
    return [rule.name for rule in default_rules()]
