"""Engine registry: the five analysed systems by name.

Names match the paper's labels, with normalised aliases for CLI use.
"""

from __future__ import annotations

from repro.engines.base import Engine
from repro.engines.config import EngineConfig
from repro.engines.dbms_d import DBMSD
from repro.engines.dbms_m import DBMSM
from repro.engines.hyper import HyPerEngine
from repro.engines.shore_mt import ShoreMT
from repro.engines.voltdb import VoltDBEngine

ENGINE_CLASSES: dict[str, type[Engine]] = {
    "shore-mt": ShoreMT,
    "dbms-d": DBMSD,
    "voltdb": VoltDBEngine,
    "hyper": HyPerEngine,
    "dbms-m": DBMSM,
}

DISK_BASED = ("shore-mt", "dbms-d")
IN_MEMORY = ("voltdb", "hyper", "dbms-m")
ALL_SYSTEMS = DISK_BASED + IN_MEMORY
"""Paper ordering: disk-based systems first, then in-memory."""

PAPER_LABELS = {
    "shore-mt": "Shore-MT",
    "dbms-d": "DBMS D",
    "voltdb": "VoltDB",
    "hyper": "HyPer",
    "dbms-m": "DBMS M",
}

_ALIASES = {
    "shore": "shore-mt",
    "shoremt": "shore-mt",
    "shore_mt": "shore-mt",
    "dbmsd": "dbms-d",
    "dbms_d": "dbms-d",
    "d": "dbms-d",
    "volt": "voltdb",
    "dbmsm": "dbms-m",
    "dbms_m": "dbms-m",
    "m": "dbms-m",
}


def canonical_name(system: str) -> str:
    key = system.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in ENGINE_CLASSES:
        raise KeyError(f"unknown system {system!r}; known: {', '.join(ALL_SYSTEMS)}")
    return key


def check_system(system: str) -> None:
    """Raise ``ValueError`` unless *system* names an engine (aliases count).

    Specs call this to validate a name without rewriting it.
    """
    try:
        canonical_name(system)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None


def make_engine(system: str, config: EngineConfig | None = None) -> Engine:
    """Instantiate a system by (paper) name."""
    return ENGINE_CLASSES[canonical_name(system)](config)


def boot_engine(system: str, config: EngineConfig | None, workload) -> Engine:
    """A newly booted engine: the system with *workload*'s initial tables."""
    engine = make_engine(system, config)
    workload.setup(engine)
    return engine


def retained_log(engine: Engine, group_commit_size: int | None = None):
    """*engine*'s recovery log, set to retain every record for replay.

    *group_commit_size*, if given, replaces the log's batch size.
    Raises ``ValueError`` for an engine that keeps no recovery log.
    """
    log = engine.recovery_log()
    if log is None:
        raise ValueError(f"{engine.system} exposes no recovery log")
    log.retain_all = True
    if group_commit_size is not None:
        log.group_commit_size = group_commit_size
    return log


def boot_node(system: str, config: EngineConfig | None, workload, group_commit_size=None):
    """What a node boots: a newly booted engine and its :func:`retained_log`.

    Returns ``(engine, log)``; bind the arguments (``functools.partial``)
    to get the zero-argument boot a node and ``restart`` take.
    """
    engine = boot_engine(system, config, workload)
    return engine, retained_log(engine, group_commit_size)
