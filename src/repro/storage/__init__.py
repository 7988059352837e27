"""Database substrates: storage, indexing, concurrency control, logging.

Everything the five engine models are built from — implemented from
scratch, instrumented to emit their cache-line access streams into
transaction traces.
"""

from repro.storage.address_space import Arena, DataAddressSpace, Region
from repro.storage.art import AdaptiveRadixTree, key_to_bytes
from repro.storage.btree import BPlusTree, binary_search_probes
from repro.storage.buffer_pool import BufferPool
from repro.storage.cc_btree import CacheConsciousBTree
from repro.storage.hash_index import HashIndex, fibonacci_hash
from repro.storage.heap import HeapTable
from repro.storage.index_factory import (
    ART,
    BTREE,
    CC_BTREE,
    HASH,
    INDEX_KINDS,
    make_index,
)
from repro.storage.layout_models import AnalyticART, AnalyticBTree, AnalyticHash
from repro.storage.lock_manager import LockConflict, LockManager, LockMode, compatible
from repro.storage.mvcc import MVCCStore, ValidationFailure
from repro.storage.record import LONG, STRING50, ColumnType, Schema, microbench_schema, string_type
from repro.storage.recovery import (
    CHECKPOINT,
    RecoveredState,
    analyse,
    replay,
    restart,
    restore_engine,
    take_checkpoint,
    valid_prefix,
    verify_against_engine,
    write_checkpoint,
)
from repro.storage.wal import (
    LogImage,
    LogRecord,
    RECORD_HEADER_BYTES,
    WriteAheadLog,
    record_checksum,
    torn_copy,
)

__all__ = [
    "ART",
    "AdaptiveRadixTree",
    "AnalyticART",
    "AnalyticBTree",
    "AnalyticHash",
    "Arena",
    "BPlusTree",
    "BTREE",
    "BufferPool",
    "CC_BTREE",
    "CHECKPOINT",
    "CacheConsciousBTree",
    "ColumnType",
    "DataAddressSpace",
    "HASH",
    "HashIndex",
    "HeapTable",
    "INDEX_KINDS",
    "LONG",
    "LockConflict",
    "LockManager",
    "LockMode",
    "LogImage",
    "LogRecord",
    "MVCCStore",
    "RECORD_HEADER_BYTES",
    "RecoveredState",
    "Region",
    "STRING50",
    "Schema",
    "ValidationFailure",
    "WriteAheadLog",
    "analyse",
    "binary_search_probes",
    "compatible",
    "fibonacci_hash",
    "key_to_bytes",
    "make_index",
    "microbench_schema",
    "record_checksum",
    "replay",
    "restart",
    "restore_engine",
    "string_type",
    "take_checkpoint",
    "torn_copy",
    "valid_prefix",
    "verify_against_engine",
    "write_checkpoint",
]
