"""Key distributions used by the workload generators.

All generators take an explicit ``random.Random`` so runs are seeded and
repeatable (the paper averages three repetitions; we re-seed per
repetition).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate

# TPC-C NURand constants (clause 2.1.6); C values are per-run constants.
NURAND_A_C_LAST = 255
NURAND_A_CUST_ID = 1023
NURAND_A_ITEM_ID = 8191


def uniform_key(rng: random.Random, n: int) -> int:
    """Uniform key in [0, n)."""
    return rng.randrange(n)


def nurand(rng: random.Random, a: int, x: int, y: int, c: int = 123) -> int:
    """TPC-C non-uniform random over [x, y] (clause 2.1.6)."""
    return (((rng.randint(0, a) | rng.randint(x, y)) + c) % (y - x + 1)) + x


def nurand_customer(rng: random.Random, n_customers: int) -> int:
    """Skewed customer pick within a district (0-based)."""
    return nurand(rng, NURAND_A_CUST_ID, 1, n_customers, c=259) - 1


def nurand_item(rng: random.Random, n_items: int) -> int:
    """Skewed item pick (0-based)."""
    return nurand(rng, NURAND_A_ITEM_ID, 1, n_items, c=7911) - 1


def zipf_key(rng: random.Random, n: int, theta: float = 0.8, *, n_ranks: int = 64) -> int:
    """Cheap approximate Zipf: pick a rank bucket then uniform inside it.

    Used by the locality-sensitivity extension benches, not by the
    paper's own workloads (which are uniform / NURand).
    """
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must be in [0, 1)")
    if n <= n_ranks:
        return rng.randrange(n)
    total, bounds = _zipf_buckets(theta, n_ranks)
    bucket = bisect_left(bounds, rng.random() * total)
    if bucket == n_ranks:
        # `sum` can round above the running sum; such a draw falls to bucket 0.
        bucket = 0
    per_bucket = n // n_ranks
    return bucket * per_bucket + rng.randrange(per_bucket)


@lru_cache(maxsize=None)
def _zipf_buckets(theta: float, n_ranks: int) -> tuple[float, tuple[float, ...]]:
    """``sum`` of the rank weights and their running sums, added in rank order."""
    weights = [(i + 1) ** -(1.0 / (1.0 - theta)) for i in range(n_ranks)]
    return sum(weights), tuple(accumulate(weights))


def distinct_keys(rng: random.Random, n_domain: int, count: int) -> list[int]:
    """*count* distinct uniform keys (retry-based; count << n_domain)."""
    if count > n_domain:
        raise ValueError("cannot draw more distinct keys than the domain holds")
    if count * 4 >= n_domain:
        return rng.sample(range(n_domain), count)
    seen: set[int] = set()
    while len(seen) < count:
        seen.add(rng.randrange(n_domain))
    return list(seen)
