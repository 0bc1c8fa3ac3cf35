"""Unit tests for switch-ID pool generation and validation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rns import (
    first_noncoprime_pair,
    greedy_coprime_pool,
    is_prime,
    min_id_for_ports,
    pairwise_coprime,
    prime_pool,
    validate_pool,
)
from repro.topology import NodeKind, TopologyError, six_node


# The all-pairs bodies the running-product versions replaced, kept as
# oracles: outputs must be identical, including which pair is named.
def greedy_coprime_pool_all_pairs(count, min_value=2):
    out = []
    n = max(2, min_value)
    while len(out) < count:
        if all(math.gcd(n, chosen) == 1 for chosen in out):
            out.append(n)
        n += 1
    return out


def first_noncoprime_pair_all_pairs(values):
    vals = list(values)
    for i, a in enumerate(vals):
        for b in vals[i + 1:]:
            if math.gcd(a, b) != 1:
                return (a, b)
    return None


def _clash_message(pair):
    return (
        f"switch IDs {pair[0]} and {pair[1]} share a factor "
        f"{math.gcd(*pair)}; the pool must be pairwise coprime"
    )


#: Integer lists with 0, 1, negatives and duplicates, and lists drawn
#: from a near-coprime alphabet so the coprime answer is common too.
_LISTS = st.one_of(
    st.lists(st.integers(-30, 60), max_size=12),
    st.lists(
        st.sampled_from([-1, 0, 1, 4, 5, -7, 9, 11, 13, 17, 25, 49]),
        max_size=8,
    ),
)


class TestIsPrime:
    def test_small_values(self):
        assert [n for n in range(-2, 14) if is_prime(n)] == [2, 3, 5, 7, 11, 13]

    def test_square(self):
        assert not is_prime(49)
        assert not is_prime(121)

    def test_larger_prime(self):
        assert is_prime(7919)


class TestPrimePool:
    def test_first_primes(self):
        assert prime_pool(5) == [2, 3, 5, 7, 11]

    def test_min_value(self):
        assert prime_pool(4, min_value=10) == [11, 13, 17, 19]

    def test_empty(self):
        assert prime_pool(0) == []

    def test_negative_count(self):
        with pytest.raises(ValueError):
            prime_pool(-1)

    def test_pairwise_coprime(self):
        assert pairwise_coprime(prime_pool(30))


class TestGreedyPool:
    def test_small_pool_values(self):
        # From 2 up, prime powers clash with their base primes, so the
        # greedy pool degenerates to the primes themselves.
        pool = greedy_coprime_pool(8)
        assert pool == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_includes_prime_powers_when_bases_excluded(self):
        # Starting at 4 skips the bases 2 and 3, so 4 = 2² and 9 = 3²
        # become usable — the paper's own {4, 9, ...} style IDs.
        assert greedy_coprime_pool(5, min_value=4) == [4, 5, 7, 9, 11]

    def test_is_pairwise_coprime(self):
        assert pairwise_coprime(greedy_coprime_pool(40))

    def test_min_value_four(self):
        # Reproduces the flavour of the paper's {4, 5, 7, 9, 11, ...} IDs.
        pool = greedy_coprime_pool(5, min_value=4)
        assert pool[0] == 4
        assert pairwise_coprime(pool)

    def test_smaller_product_than_primes(self):
        # The whole point of the greedy pool: smaller M for the same size.
        n = 12
        greedy = math.prod(greedy_coprime_pool(n, min_value=4))
        primes = math.prod(prime_pool(n, min_value=4))
        assert greedy < primes


class TestValidatePool:
    def test_valid(self):
        validate_pool([4, 5, 7, 11])

    def test_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            validate_pool([5, 7, 5])

    def test_not_coprime(self):
        with pytest.raises(ValueError, match="coprime"):
            validate_pool([4, 6])

    def test_too_small_id(self):
        with pytest.raises(ValueError, match="> 1"):
            validate_pool([1, 5])

    def test_port_capacity(self):
        validate_pool([5, 7], port_counts=[4, 6])
        with pytest.raises(ValueError, match="cannot address"):
            validate_pool([5, 7], port_counts=[6, 6])

    def test_port_count_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            validate_pool([5, 7], port_counts=[4])


class TestMinId:
    def test_floor_of_two(self):
        assert min_id_for_ports(0) == 2
        assert min_id_for_ports(1) == 2

    def test_matches_port_count(self):
        assert min_id_for_ports(5) == 5


class TestRunningProductAgainstAllPairs:
    @settings(max_examples=200, deadline=None)
    @given(count=st.integers(0, 80), min_value=st.integers(2, 60))
    def test_greedy_pool(self, count, min_value):
        assert greedy_coprime_pool(count, min_value) == (
            greedy_coprime_pool_all_pairs(count, min_value)
        )

    @settings(max_examples=500, deadline=None)
    @given(values=_LISTS)
    def test_first_noncoprime_pair(self, values):
        want = first_noncoprime_pair_all_pairs(values)
        assert first_noncoprime_pair(values) == want
        assert first_noncoprime_pair(iter(values)) == want
        assert pairwise_coprime(values) == (want is None)

    @pytest.mark.parametrize("values, pair", [
        ([], None), ([0], None), ([1, 1], None), ([0, 1, -1], None),
        ([0, 0], (0, 0)), ([0, 5], (0, 5)), ([5, -5], (5, -5)),
        ([3, 5, 10, 15], (3, 15)), ([7, 7], (7, 7)),
    ])
    def test_edge_values(self, values, pair):
        assert first_noncoprime_pair(values) == pair
        assert first_noncoprime_pair_all_pairs(values) == pair

    @settings(max_examples=300, deadline=None)
    @given(pool=st.lists(st.integers(2, 90), unique=True, max_size=10))
    def test_validate_pool_message(self, pool):
        pair = first_noncoprime_pair_all_pairs(pool)
        if pair is None:
            validate_pool(pool)
        else:
            with pytest.raises(ValueError) as e:
                validate_pool(pool)
            assert str(e.value) == _clash_message(pair)

    @settings(max_examples=100, deadline=None)
    @given(ids=st.lists(st.integers(4, 60), min_size=4, max_size=4,
                        unique=True))
    def test_graph_validate_message(self, ids):
        graph = six_node().graph
        cores = graph.nodes(NodeKind.CORE)
        for info, sid in zip(cores, ids):
            info.switch_id = sid
        pair = first_noncoprime_pair_all_pairs(n.switch_id for n in cores)
        if pair is None:
            graph.validate()
        else:
            with pytest.raises(TopologyError) as e:
                graph.validate()
            assert str(e.value) == _clash_message(pair)
