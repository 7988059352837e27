"""Index factory dispatch tests."""

import pytest

from repro.storage.index_factory import INDEX_KINDS, make_index
from repro.storage.layout_models import AnalyticART, AnalyticBTree, AnalyticHash

ANALYTIC = {
    "btree": AnalyticBTree,
    "cc_btree": AnalyticBTree,
    "art": AnalyticART,
    "hash": AnalyticHash,
}


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_small_populations_use_layout_models(space, kind):
    idx = make_index(
        kind, f"t_{kind}", space, n_keys=500,
        key_to_value=lambda k: k * 2 if 0 <= k < 500 else None,
    )
    assert isinstance(idx, ANALYTIC[kind])
    assert idx.probe(100) == 200
    assert idx.probe(500) is None


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_large_populations_use_layout_models(space, kind):
    idx = make_index(
        kind, f"b_{kind}", space, n_keys=10**9,
        key_to_value=lambda k: k if k < 10**9 else None,
    )
    assert isinstance(idx, ANALYTIC[kind])
    assert idx.probe(10**8) == 10**8


def test_unknown_kind_rejected(space):
    with pytest.raises(ValueError):
        make_index("skiplist", "t", space, n_keys=10)


def test_nonpositive_keys_rejected(space):
    with pytest.raises(ValueError):
        make_index("btree", "t", space, n_keys=0)


def test_cc_btree_node_bytes_passthrough(space):
    idx = make_index("cc_btree", "cc", space, n_keys=100, node_bytes=512)
    assert idx.page_bytes == 512


def test_search_line_cap_passthrough(space):
    capped = make_index("btree", "cap", space, n_keys=10**9, search_line_cap=2)
    free = make_index("btree", "free", space, n_keys=10**9)
    assert len(capped.probe_lines(5000)) < len(free.probe_lines(5000))
