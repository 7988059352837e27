"""Index factory: the layout model for an index kind.

Engines ask for an index *kind* and a logical key count and get the
analytic layout model (see :mod:`repro.storage.layout_models`), so
engine code is identical at 1 MB and 100 GB.  The materialised
structures (:class:`~repro.storage.btree.BPlusTree` and friends) are
the small-scale reference the models are property-tested against.
"""

from __future__ import annotations

from typing import Callable

from repro.storage.address_space import DataAddressSpace
from repro.storage.cc_btree import CacheConsciousBTree
from repro.storage.layout_models import AnalyticART, AnalyticBTree, AnalyticHash

BTREE = "btree"
CC_BTREE = "cc_btree"
ART = "art"
HASH = "hash"

INDEX_KINDS = (BTREE, CC_BTREE, ART, HASH)


def make_index(
    kind: str,
    name: str,
    space: DataAddressSpace,
    *,
    n_keys: int,
    key_to_value: Callable | None = None,
    node_bytes: int | None = None,
    search_line_cap: int | None = None,
):
    """Build the layout model of *kind* over a logical population of *n_keys*.

    ``key_to_value`` defines the pre-populated contents: probes resolve
    through it lazily.  A ``btree`` uses disk-sized pages, a
    ``cc_btree`` *node_bytes* nodes (the structure's default if None).
    """
    if kind not in INDEX_KINDS:
        raise ValueError(f"unknown index kind {kind!r}; expected one of {INDEX_KINDS}")
    if kind == BTREE:
        return AnalyticBTree(
            name, space, n_keys=n_keys, key_to_value=key_to_value,
            search_line_cap=search_line_cap,
        )
    if kind == CC_BTREE:
        node = node_bytes or CacheConsciousBTree.DEFAULT_NODE_BYTES
        return AnalyticBTree(
            name, space, n_keys=n_keys, key_to_value=key_to_value,
            page_bytes=node, search_line_cap=search_line_cap,
        )
    if kind == ART:
        return AnalyticART(name, space, n_keys=n_keys, key_to_value=key_to_value)
    return AnalyticHash(name, space, n_keys=n_keys, key_to_value=key_to_value)
