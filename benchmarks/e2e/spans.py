"""Outside-in layer tracing for the end-to-end benchmark.

The simulator's layers are traced from outside ``src/``: :func:`install`
replaces the public functions listed in :data:`LAYERS` with wrappers
that record a span per call into a :class:`Tracer`, and :func:`remove`
puts the originals back.  Spans live in memory as (name, start, end,
parent) and are written out only when the pass ends.

The hottest leaf calls (storage and ``SimNetwork``) are *folded*: each
call still opens a frame, so its time is taken out of its parent's self
time and added to its own per-layer totals, but it writes no span; its
call count lands on the parent span's arguments instead.

This module imports nothing from ``repro`` at import time; the target
modules are imported when the wrappers are installed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

ROOT_SPAN = "pass"


def _trace_events(tracer: "Tracer", args: tuple, result) -> None:
    # Machine.run_trace(self, trace, ...): every replayed trace event.
    tracer.add("core.run_trace.events", len(args[1]))


def _commits(tracer: "Tracer", args: tuple, result) -> None:
    from repro.engines.base import COMMITTED

    # Engine.execute(self, ...) leaves its outcome on the engine.
    if args[0].last_outcome == COMMITTED:
        tracer.add("engines.execute.commits", 1)


@dataclass(frozen=True)
class Layer:
    """One traced layer boundary: a span name and the functions it wraps.

    A target naming a class attribute also wraps every subclass's own
    definition of that attribute, so overrides are traced too.
    """

    name: str
    targets: tuple[str, ...]
    folded: bool = False
    count: Callable[["Tracer", tuple, object], None] | None = None


LAYERS: tuple[Layer, ...] = (
    Layer("bench.prewarm_llc", ("repro.bench.runner.prewarm_llc",)),
    Layer("bench.run_repetition", ("repro.bench.runner.run_repetition",)),
    Layer("core.machine_init", ("repro.core.machine.Machine.__init__",)),
    Layer("core.run_trace", ("repro.core.machine.Machine.run_trace",), count=_trace_events),
    Layer("core.cycle_model", ("repro.core.cpu.CycleModel.cycles",)),
    Layer("engines.make_engine", ("repro.engines.registry.make_engine",)),
    Layer("engines.execute", ("repro.engines.base.Engine.execute",), count=_commits),
    Layer(
        "storage.probe_lines",
        (
            "repro.storage.layout_models.AnalyticBTree.probe_lines",
            "repro.storage.layout_models.AnalyticART.probe_lines",
            "repro.storage.layout_models.AnalyticHash.probe_lines",
        ),
        folded=True,
    ),
    Layer("storage.heap_read", ("repro.storage.heap.HeapTable.read",), folded=True),
    Layer("storage.default_row", ("repro.storage.record.Schema.default_row",), folded=True),
    Layer("workloads.setup", ("repro.workloads.base.Workload.setup",)),
    Layer("workloads.next_transaction", ("repro.workloads.base.Workload.next_transaction",)),
    Layer("load.build_timeline", ("repro.load.arrivals.build_timeline",)),
    Layer("load.probe_capacity", ("repro.load.driver.probe_capacity",)),
    Layer("load.run_load_point", ("repro.load.driver.run_load_point",)),
    Layer("load.replay_resilient", ("repro.load.resilience.replay_resilient",)),
    Layer("replication.submit", ("repro.replication.group.ReplicationGroup.submit",)),
    Layer("replication.ship", ("repro.replication.group.ReplicationGroup.ship",)),
    Layer("replication.net_send", ("repro.replication.network.SimNetwork.send",), folded=True),
    Layer("replication.net_tick", ("repro.replication.network.SimNetwork.tick",), folded=True),
    Layer("replication.failover", ("repro.replication.group.ReplicationGroup.failover",)),
    Layer("sharding.submit_next", ("repro.sharding.cluster.ShardedCluster.submit_next",)),
)


# -- recording ---------------------------------------------------------------


class _Frame:
    __slots__ = ("name", "start", "child_ns", "span_id", "folded_calls")

    def __init__(self, name: str, start: int, span_id: int) -> None:
        self.name = name
        self.start = start
        self.child_ns = 0
        self.span_id = span_id
        self.folded_calls: dict[str, int] = {}


class Tracer:
    """In-memory span recorder with per-layer self-time totals.

    A layer's self time is its span's duration minus the time its child
    frames (spans and folded calls) cover.  Calls are single-threaded,
    so frames nest strictly.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.stack: list[_Frame] = []
        # (span_id, name, start_ns, end_ns, parent_id, folded call counts)
        self.spans: list[tuple[int, str, int, int, int | None, dict]] = []
        # name -> [calls, self_ns, total_ns]
        self.totals: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self._next_id = 0

    def open(self, name: str) -> _Frame | None:
        """Open a frame, or return None for a re-entrant call of *name*
        (an override calling its base), which stays in the outer frame."""
        if self.stack and self.stack[-1].name == name:
            return None
        self._next_id += 1
        frame = _Frame(name, self.clock(), self._next_id)
        self.stack.append(frame)
        return frame

    def close(self, frame: _Frame | None, folded: bool = False) -> None:
        if frame is None:
            return
        end = self.clock()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        duration = end - frame.start
        row = self.totals.setdefault(frame.name, [0, 0, 0])
        row[0] += 1
        row[1] += duration - frame.child_ns
        row[2] += duration
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child_ns += duration
        if folded and parent is not None:
            parent.folded_calls[frame.name] = parent.folded_calls.get(frame.name, 0) + 1
            return
        self.spans.append(
            (
                frame.span_id,
                frame.name,
                frame.start,
                end,
                parent.span_id if parent is not None else None,
                frame.folded_calls,
            )
        )

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[1] / 1e9

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[2] / 1e9


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see :data:`LAYERS`)."""
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer.name}.self_s"] = tracer.self_s(layer.name)
        metrics[f"{layer.name}.calls"] = tracer.calls(layer.name)
    events = tracer.counts.get("core.run_trace.events", 0)
    metrics["core.run_trace.events"] = events
    metrics["core.run_trace.ns_per_event"] = (
        tracer.total_s("core.run_trace") * 1e9 / events if events else 0.0
    )
    executes = tracer.calls("engines.execute")
    metrics["engines.execute.commit_frac"] = (
        tracer.counts.get("engines.execute.commits", 0) / executes if executes else 0.0
    )
    metrics["engines.execute.us_per_call"] = (
        tracer.total_s("engines.execute") * 1e6 / executes if executes else 0.0
    )
    wall = tracer.total_s(ROOT_SPAN)
    metrics["trace.coverage_frac"] = 1.0 - tracer.self_s(ROOT_SPAN) / wall if wall else 0.0
    return metrics


# -- installing wrappers -----------------------------------------------------


def resolve(dotted: str) -> tuple[object, str, object]:
    """``(owner, attribute, object)`` for a dotted module/class path.

    Raises ``ImportError`` or ``AttributeError`` when the path no longer
    exists, which is what the drift-guard test relies on.
    """
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for part in parts[split:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1], getattr(owner, parts[-1])
    raise ImportError(f"no importable module in {dotted!r}")


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


def _repro_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _wrap(tracer: Tracer, layer: Layer, fn: Callable) -> Callable:
    name, folded, count = layer.name, layer.folded, layer.count

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame, folded)
        if count is not None:
            count(tracer, args, result)
        return result

    wrapper.__e2e_original__ = fn
    return wrapper


class Installation:
    """The wrappers one :func:`install` put in place, for :func:`remove`."""

    def __init__(self) -> None:
        self.class_attrs: list[tuple[type, str, object]] = []
        self.functions: list[tuple[Callable, Callable]] = []


def install(tracer: Tracer) -> Installation:
    """Wrap every :data:`LAYERS` target so calls record into *tracer*.

    Module-level functions are rebound in every ``repro`` module that
    holds them by name (``from x import f`` copies the binding); class
    attributes are replaced on the class and on each subclass that
    defines its own.
    """
    done = Installation()
    for layer in LAYERS:
        for dotted in layer.targets:
            owner, attr, original = resolve(dotted)
            if isinstance(owner, type):
                for cls in _subclasses(owner):
                    own = cls.__dict__.get(attr)
                    if callable(own) and not hasattr(own, "__e2e_original__"):
                        setattr(cls, attr, _wrap(tracer, layer, own))
                        done.class_attrs.append((cls, attr, own))
                continue
            wrapper = _wrap(tracer, layer, original)
            done.functions.append((wrapper, original))
            for module in _repro_modules():
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
    return done


def remove(done: Installation) -> None:
    """Put every original back, including bindings made while installed."""
    for cls, attr, original in reversed(done.class_attrs):
        setattr(cls, attr, original)
    restore = {id(wrapper): original for wrapper, original in done.functions}
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            original = restore.get(id(value))
            if original is not None:
                setattr(module, name, original)
