"""Tests for the cached-prefix bit-growth analysis."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bitgrowth import (
    growth_pool,
    max_prefix_within_budget,
    prefix_route_bits,
)
from repro.rns.bitlength import route_id_bit_length


class TestPrefixRouteBits:
    def test_matches_direct_products(self):
        ids = [4, 13, 5, 7, 9, 11]
        bits = prefix_route_bits(ids)
        for i, got in enumerate(bits):
            direct = math.prod(ids[: i + 1])
            assert got == route_id_bit_length(direct)

    @given(seed=st.integers(0, 2_000))
    @settings(max_examples=25, deadline=None)
    def test_non_decreasing_on_any_pool(self, seed):
        import random

        rng = random.Random(seed)
        ids = [rng.randrange(2, 200) for _ in range(rng.randrange(1, 20))]
        bits = prefix_route_bits(ids)
        assert bits == sorted(bits)

    def test_budget_bisection_equals_linear_scan(self):
        ids = [23, 29, 31, 37, 41, 43, 47]
        bits = prefix_route_bits(ids)
        for budget in range(0, bits[-1] + 5):
            linear = sum(1 for b in bits if b <= budget)
            assert max_prefix_within_budget(bits, budget) == linear

    def test_empty(self):
        assert prefix_route_bits([]) == []
        assert max_prefix_within_budget([], 64) == 0


class TestGrowthPool:
    def test_weighted_shares_greedy_pool(self):
        assert growth_pool("weighted", 10) == growth_pool("greedy", 10)

    def test_xsr_pool_is_dual_coprime(self):
        from repro.rns import pairwise_coprime
        from repro.rns.gf2 import gf2_pairwise_coprime

        pool = growth_pool("xsr", 12)
        assert pairwise_coprime(pool)
        assert gf2_pairwise_coprime(pool)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            growth_pool("fibonacci", 4)
