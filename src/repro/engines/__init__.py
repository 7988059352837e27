"""The five OLTP engine models under analysis.

Disk-based: :class:`ShoreMT`, :class:`DBMSD`.
In-memory: :class:`VoltDBEngine`, :class:`HyPerEngine`, :class:`DBMSM`.
"""

from repro.engines.base import Engine, EngineStats, Transaction, TransactionAborted
from repro.engines.common import EngineTable, TableSpec
from repro.engines.config import EngineConfig
from repro.engines.dbms_d import DBMSD
from repro.engines.dbms_m import DBMSM, DBMSMTransaction
from repro.engines.hyper import HyPerEngine, HyPerTransaction
from repro.engines.registry import (
    ALL_SYSTEMS,
    DISK_BASED,
    ENGINE_CLASSES,
    IN_MEMORY,
    PAPER_LABELS,
    boot_engine,
    boot_node,
    canonical_name,
    make_engine,
    retained_log,
)
from repro.engines.shore_mt import ShoreMT, ShoreMTTransaction
from repro.engines.voltdb import VoltDBEngine, VoltDBTransaction

__all__ = [
    "ALL_SYSTEMS",
    "DBMSD",
    "DBMSM",
    "DBMSMTransaction",
    "DISK_BASED",
    "ENGINE_CLASSES",
    "Engine",
    "EngineConfig",
    "EngineStats",
    "EngineTable",
    "HyPerEngine",
    "HyPerTransaction",
    "IN_MEMORY",
    "PAPER_LABELS",
    "ShoreMT",
    "ShoreMTTransaction",
    "TableSpec",
    "Transaction",
    "TransactionAborted",
    "VoltDBEngine",
    "VoltDBTransaction",
    "boot_engine",
    "boot_node",
    "canonical_name",
    "make_engine",
    "retained_log",
]
