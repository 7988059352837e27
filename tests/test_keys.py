"""Key-distribution generator tests."""

import random
from collections import Counter

import pytest

from repro.workloads.keys import (
    distinct_keys,
    nurand,
    nurand_customer,
    nurand_item,
    uniform_key,
    zipf_key,
)


class TestUniform:
    def test_in_range(self):
        rng = random.Random(0)
        assert all(0 <= uniform_key(rng, 100) < 100 for _ in range(1000))

    def test_covers_domain(self):
        rng = random.Random(1)
        seen = {uniform_key(rng, 8) for _ in range(500)}
        assert seen == set(range(8))


class TestNURand:
    def test_in_range(self):
        rng = random.Random(2)
        for _ in range(2000):
            assert 1 <= nurand(rng, 255, 1, 3000) <= 3000

    def test_customer_and_item_zero_based(self):
        rng = random.Random(3)
        assert all(0 <= nurand_customer(rng, 3000) < 3000 for _ in range(1000))
        assert all(0 <= nurand_item(rng, 100_000) < 100_000 for _ in range(1000))

    def test_skew_exists(self):
        """NURand is non-uniform: some values are far more popular."""
        rng = random.Random(4)
        counts = Counter(nurand_customer(rng, 3000) for _ in range(30_000))
        top = counts.most_common(1)[0][1]
        assert top > 3 * (30_000 / 3000)


def loop_zipf_key(rng: random.Random, n: int, theta: float, n_ranks: int = 64) -> int:
    """The per-draw form ``zipf_key`` had: rebuild the weights, walk the sums."""
    if n <= n_ranks:
        return rng.randrange(n)
    weights = [(i + 1) ** -(1.0 / (1.0 - theta)) for i in range(n_ranks)]
    total = sum(weights)
    r = rng.random() * total
    acc = 0.0
    bucket = 0
    for i, w in enumerate(weights):
        acc += w
        if r <= acc:
            bucket = i
            break
    per_bucket = n // n_ranks
    return bucket * per_bucket + rng.randrange(per_bucket)


class TestZipf:
    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.8, 0.95, 0.99])
    @pytest.mark.parametrize("n_ranks", [8, 64])
    def test_matches_the_per_draw_loop(self, theta, n_ranks):
        fast, loop = random.Random(11), random.Random(11)
        for _ in range(10_000):
            assert zipf_key(fast, 100_000, theta, n_ranks=n_ranks) == loop_zipf_key(
                loop, 100_000, theta, n_ranks
            )

    def test_in_range(self):
        rng = random.Random(5)
        assert all(0 <= zipf_key(rng, 10_000, 0.8) < 10_000 for _ in range(2000))

    def test_more_theta_more_skew(self):
        rng = random.Random(6)
        def head_mass(theta):
            hits = sum(1 for _ in range(5000) if zipf_key(rng, 100_000, theta) < 10_000)
            return hits / 5000
        assert head_mass(0.95) > head_mass(0.1) + 0.1

    def test_small_domain_falls_back_to_uniform(self):
        rng = random.Random(7)
        assert 0 <= zipf_key(rng, 10, 0.9) < 10

    def test_theta_validated(self):
        with pytest.raises(ValueError):
            zipf_key(random.Random(0), 100, 1.0)


class TestDistinct:
    def test_distinctness_and_range(self):
        rng = random.Random(8)
        keys = distinct_keys(rng, 10_000, 100)
        assert len(keys) == len(set(keys)) == 100
        assert all(0 <= k < 10_000 for k in keys)

    def test_dense_request_uses_sampling(self):
        rng = random.Random(9)
        keys = distinct_keys(rng, 10, 10)
        assert sorted(keys) == list(range(10))

    def test_impossible_request(self):
        with pytest.raises(ValueError):
            distinct_keys(random.Random(0), 5, 6)
