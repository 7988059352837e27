"""Property-based engine tests: every engine tracks a reference model.

Random operation sequences run through each engine's transaction API
and through a plain dict; committed state must agree, aborted state
must vanish, and engine-internal invariants (empty lock table, GC-able
version chains) must hold afterwards.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engines.base import TransactionAborted, UserAbort
from repro.engines.common import TableSpec
from repro.engines.registry import ALL_SYSTEMS, make_engine
from repro.storage.record import microbench_schema

N_ROWS = 300


def fresh_engine(system):
    engine = make_engine(system)
    engine.create_table(TableSpec("t", microbench_schema(), N_ROWS, grows=True))
    return engine


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["read", "update", "insert", "delete"]),
        st.integers(min_value=0, max_value=N_ROWS - 1),
        st.integers(min_value=-1000, max_value=1000),
    ),
    min_size=1,
    max_size=25,
)


@pytest.mark.parametrize("system", ALL_SYSTEMS)
@settings(max_examples=12, deadline=None)
@given(txns=st.lists(ops_strategy, min_size=1, max_size=6))
def test_engine_matches_reference_model(system, txns):
    engine = fresh_engine(system)
    schema = microbench_schema()
    # Reference state: key -> row or None (deleted); default rows lazily.
    reference = {}

    def ref_get(key):
        if key in reference:
            return reference[key]
        return schema.default_row(key) if key < N_ROWS else None

    next_insert_key = [N_ROWS + 1000]
    for ops in txns:
        observed = []

        def body(txn, ops=ops, observed=observed):
            deleted_in_txn = set()
            for op, key, value in ops:
                if op == "read":
                    observed.append(("read", key, txn.read("t", key)))
                elif op == "update":
                    if ref_get(key) is None or key in deleted_in_txn:
                        continue  # keep the body deterministic & valid
                    txn.update("t", key, "value", value)
                    observed.append(("update", key, value))
                elif op == "insert":
                    k = next_insert_key[0]
                    txn.insert("t", (k, value), key=k)
                    observed.append(("insert", k, value))
                else:
                    ok = txn.delete("t", key)
                    if ok:
                        deleted_in_txn.add(key)
                    observed.append(("delete", key, ok))

        engine.execute("prop", body)
        # Commit succeeded: fold the observed effects into the reference.
        for op, key, value in observed:
            if op == "update":
                row = ref_get(key)
                reference[key] = (row[0], value)
            elif op == "insert":
                next_insert_key[0] += 1
                reference[key] = (key, value)
            elif op == "delete" and value:
                reference[key] = None

    # Verify committed state via a final transaction on the engine.
    checks = sorted(set(reference))[:30] + [0, N_ROWS - 1]
    results = {}
    engine.execute(
        "verify", lambda txn: results.update({k: txn.read("t", k) for k in checks})
    )
    for key in checks:
        assert results[key] == ref_get(key), (system, key)


@pytest.mark.parametrize("system", ALL_SYSTEMS)
@settings(max_examples=10, deadline=None)
@given(keys=st.lists(st.integers(min_value=0, max_value=20), min_size=2, max_size=8))
def test_aborted_transactions_leave_no_trace(system, keys):
    """A user abort after updates must roll everything back."""
    engine = fresh_engine(system)
    baseline = {}
    engine.execute(
        "snap", lambda txn: baseline.update({k: txn.read("t", k) for k in keys})
    )

    def doomed(txn):
        for k in keys:
            txn.update("t", k, "value", 999_999)
        raise UserAbort("client rollback")

    engine.execute("doomed", doomed)
    after = {}
    engine.execute(
        "snap2", lambda txn: after.update({k: txn.read("t", k) for k in keys})
    )
    assert after == baseline
    if hasattr(engine, "locks"):
        assert engine.locks.active_locks == 0


@settings(max_examples=10, deadline=None)
@given(
    conflicts=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6)
)
def test_shore_conflicting_interleavings_never_leak_locks(conflicts):
    """Open transactions fighting over few rows: aborts are clean."""
    engine = fresh_engine("shore-mt")
    open_txns = []
    for key in conflicts:
        txn = engine.begin()
        try:
            txn.update("t", key, "value", 1)
            open_txns.append(txn)
        except TransactionAborted:
            txn.abort()
    for txn in open_txns:
        txn.commit()
    assert engine.locks.active_locks == 0
