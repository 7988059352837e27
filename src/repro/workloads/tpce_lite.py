"""TPC-E-lite: the benchmark the paper omits, as an extension.

Section 3: "We omit the more recent TPC-E benchmark since recent
workload characterization studies demonstrate that TPC-E exhibits
similar micro-architectural behavior to the TPC-B and TPC-C benchmarks
[6, 29]."  That similarity claim is checkable here, so this module
implements a compact TPC-E-flavoured workload — the brokerage schema's
core tables and a read-heavy transaction mix — and an extension test
(`tests/test_ablations.py`) verifies the Tözün et al.
finding on the simulated hardware.

Scope: the four highest-traffic transactions (TradeOrder, TradeResult,
TradeLookup, MarketWatch) over the brokerage core (customer, account,
broker, security, trade, trade_history, holding, last_trade), with
TPC-E's hallmark ~77% read / 23% write mix.  Key encodings are dense
integers like the TPC-C implementation's.
"""

from __future__ import annotations

import random

from repro.engines.common import TableSpec
from repro.storage.record import LONG, Schema
from repro.workloads.base import TxnBody, Workload

ACCOUNTS_PER_CUSTOMER = 2
SECURITIES = 68_500  # TPC-E's fixed security universe
TRADES_PER_ACCOUNT_CAP = 256
HOLDINGS_PER_ACCOUNT = 16

BYTES_PER_CUSTOMER = 48 << 10
"""Approximate footprint per customer row-set (sets scale from size)."""

# Read-only transactions form ~77% of TPC-E (the defining contrast
# with write-heavy TPC-B / TPC-C).
MIX = (
    ("trade_order", 0.15),   # read-write
    ("trade_result", 0.08),  # read-write (completes pending orders)
    ("trade_lookup", 0.42),  # read-only
    ("market_watch", 0.35),  # read-only
)


def _schema(name: str, n_longs: int) -> Schema:
    columns = tuple((f"c{i}" if i else "id", LONG) for i in range(n_longs))
    return Schema(name=name, columns=columns, header_bytes=8)


class TPCELite(Workload):
    """Read-heavy brokerage workload (TPC-E's core transactions)."""

    name = "tpce_lite"

    def __init__(self, *, db_bytes: int = 100 << 30, customers: int | None = None) -> None:
        self.n_customers = customers or max(1000, db_bytes // BYTES_PER_CUSTOMER)
        self.n_accounts = self.n_customers * ACCOUNTS_PER_CUSTOMER
        self.db_bytes = db_bytes
        # Trades per account mirror TPC-C's order headroom trick: a
        # dense per-account range with room for inserted trades.
        self._next_trade: dict[int, int] = {}

    # -- schema ---------------------------------------------------------------

    def table_specs(self) -> list[TableSpec]:
        return [
            TableSpec("customer", _schema("customer", 12), self.n_customers),
            TableSpec("account", _schema("account", 10), self.n_accounts, warm_priority=1),
            TableSpec("broker", _schema("broker", 8), max(10, self.n_customers // 100),
                      warm_priority=2),
            TableSpec("security", _schema("security", 14), SECURITIES, replicated=True,
                      warm_priority=3),
            TableSpec("last_trade", _schema("last_trade", 6), SECURITIES, replicated=True,
                      warm_priority=3),
            TableSpec(
                "trade", _schema("trade", 14),
                self.n_accounts * TRADES_PER_ACCOUNT_CAP, grows=True,
            ),
            TableSpec("trade_history", _schema("trade_history", 5), 1, grows=True,
                      warm_priority=1),
            TableSpec(
                "holding", _schema("holding", 8),
                self.n_accounts * HOLDINGS_PER_ACCOUNT,
            ),
        ]

    # -- key helpers -------------------------------------------------------------

    @staticmethod
    def trade_key(account: int, t: int) -> int:
        return account * TRADES_PER_ACCOUNT_CAP + t

    @staticmethod
    def holding_key(account: int, h: int) -> int:
        return account * HOLDINGS_PER_ACCOUNT + h

    def next_trade_id(self, account: int) -> int:
        return self._next_trade.get(account, TRADES_PER_ACCOUNT_CAP // 2)

    # -- generation ---------------------------------------------------------------

    def next_transaction(
        self,
        rng: random.Random,
        *,
        partition: int | None = None,
        n_partitions: int = 1,
    ) -> tuple[str, TxnBody]:
        r = rng.random()
        acc = 0.0
        kind = MIX[-1][0]
        for name, p in MIX:
            acc += p
            if r < acc:
                kind = name
                break
        lo, hi = self.partition_range(self.n_customers, partition, n_partitions)
        customer = lo + rng.randrange(hi - lo)
        account = customer * ACCOUNTS_PER_CUSTOMER + rng.randrange(ACCOUNTS_PER_CUSTOMER)
        return kind, getattr(self, f"_gen_{kind}")(rng, customer, account)

    def _gen_trade_order(self, rng: random.Random, customer: int, account: int) -> TxnBody:
        security = rng.randrange(SECURITIES)
        qty = rng.randint(1, 800)
        t = self.next_trade_id(account)
        if t >= TRADES_PER_ACCOUNT_CAP:
            t = TRADES_PER_ACCOUNT_CAP // 2
        self._next_trade[account] = t + 1
        tk = self.trade_key(account, t)
        workload = self

        def body(txn) -> None:
            txn.read("customer", customer)
            txn.read("account", account)
            txn.read("broker", account % max(10, workload.n_customers // 100))
            txn.read("security", security)
            txn.read("last_trade", security)
            txn.insert("trade", (tk, account, security, qty, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                       key=tk)
            txn.insert("trade_history", (tk, 0, 0, 0, 0))
            txn.update("account", account, "c2", lambda v: v - qty)  # buying power

        return body

    def _gen_trade_result(self, rng: random.Random, customer: int, account: int) -> TxnBody:
        # Complete the account's most recent pending trade.
        t = max(0, self.next_trade_id(account) - 1)
        tk = self.trade_key(account, t)
        holding = self.holding_key(account, rng.randrange(HOLDINGS_PER_ACCOUNT))

        def body(txn) -> None:
            trade_row = txn.read("trade", tk)
            if trade_row is None:
                return
            security = int(trade_row[2]) % SECURITIES
            txn.update("trade", tk, "c4", 1)  # status -> completed
            txn.update("holding", holding, "c2", lambda v: v + 1)
            txn.update("last_trade", security, "c1", lambda v: v + 1)
            txn.update("account", account, "c1", lambda v: v + 1)  # balance
            txn.insert("trade_history", (tk, 1, 0, 0, 0))

        return body

    def _gen_trade_lookup(self, rng: random.Random, customer: int, account: int) -> TxnBody:
        # Read a window of the account's recent trades (ordered scan).
        first = max(0, self.next_trade_id(account) - rng.randint(5, 20))
        n = rng.randint(5, 20)
        tk = self.trade_key(account, first)

        def body(txn) -> None:
            txn.read("account", account)
            for _, trade_row in txn.scan("trade", tk, n):
                security = int(trade_row[2]) % SECURITIES
                txn.read("security", security)

        return body

    def _gen_market_watch(self, rng: random.Random, customer: int, account: int) -> TxnBody:
        # Price every security the account holds (read-only fan-out).
        holdings = [
            self.holding_key(account, h) for h in range(HOLDINGS_PER_ACCOUNT)
        ]
        rng.shuffle(holdings)
        watch = holdings[: rng.randint(5, HOLDINGS_PER_ACCOUNT)]

        def body(txn) -> None:
            txn.read("customer", customer)
            for hk in watch:
                holding_row = txn.read("holding", hk)
                if holding_row is None:
                    continue
                security = int(holding_row[1]) % SECURITIES
                txn.read("security", security)
                txn.read("last_trade", security)

        return body
