"""Tests for pooled CRT contexts.

``PoolContext`` is pure integer arithmetic: its dot-product ``encode``
must land on exactly what a fresh reference crt() solve of the same
residue system produces.  The route-level paths built on it
(``RouteEncoder`` holding a pool: pooled encode, single-addend
``with_port``) are held to the ring contract in ``test_backends.py``;
the last two classes here pin what only the pool-holding integer
encoder does — which path took the work, and when it must not.
"""

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rns import (
    CrtError,
    Hop,
    NotCoprimeError,
    PoolContext,
    RouteEncoder,
    crt,
    greedy_coprime_pool,
    product_tree,
)
from repro.topology.topologies import six_node

# One pool (and its context) for the whole module: contexts are
# long-lived by design, and sharing one across examples also exercises
# the subset cache under Hypothesis's adversarial subset draws.
_POOL = greedy_coprime_pool(24, min_value=4)
_CTX = PoolContext(_POOL)


@st.composite
def pool_systems(draw, min_size=1, max_size=8):
    """Random (switch_ids, ports) over the module pool."""
    size = draw(st.integers(min_size, max_size))
    ids = draw(
        st.lists(st.sampled_from(_POOL), min_size=size, max_size=size,
                 unique=True)
    )
    ports = [draw(st.integers(0, sid - 1)) for sid in ids]
    return ids, ports


class TestProductTree:
    def test_empty(self):
        assert product_tree([]) == 1

    def test_single(self):
        assert product_tree([7]) == 7

    @given(st.lists(st.integers(1, 10**6), max_size=30))
    def test_matches_math_prod(self, values):
        assert product_tree(values) == math.prod(values)


class TestPoolContext:
    def test_rejects_empty_pool(self):
        with pytest.raises(CrtError, match="empty pool"):
            PoolContext([])

    def test_rejects_unit_modulus(self):
        with pytest.raises(CrtError, match="must be > 1"):
            PoolContext([5, 1])

    def test_rejects_duplicates_even_when_validated(self):
        with pytest.raises(NotCoprimeError):
            PoolContext([5, 7, 5], validated=True)

    def test_rejects_noncoprime_pool(self):
        with pytest.raises(NotCoprimeError) as exc:
            PoolContext([4, 6, 7])
        assert exc.value.pair == (4, 6)

    def test_validated_gives_identical_context(self):
        checked = PoolContext(_POOL)
        trusted = PoolContext(_POOL, validated=True)
        assert trusted.modulus == checked.modulus
        assert all(trusted.weight(s) == checked.weight(s) for s in _POOL)

    def test_noncoprime_pool_fails_even_when_validated(self):
        # validated=True skips the O(n²) sweep, but weight derivation
        # still needs every inverse to exist — a bad pool cannot
        # silently produce a working context.
        with pytest.raises(NotCoprimeError):
            PoolContext([4, 6], validated=True)

    def test_from_graph_covers_topology(self):
        graph = six_node().graph
        ctx = PoolContext.from_graph(graph)
        assert sorted(ctx.pool) == sorted(graph.switch_ids().values())
        assert ctx.covers(graph.switch_ids().values())

    def test_weights_satisfy_crt_basis(self):
        # w_i == 1 (mod s_i) and w_i == 0 (mod s_j) for j != i: exactly
        # the Eq. 4 basis property.
        for s in _POOL:
            w = _CTX.weight(s)
            assert w % s == 1
            for other in _POOL:
                if other != s:
                    assert w % other == 0

    def test_weight_off_pool_raises(self):
        with pytest.raises(CrtError, match="not in this pool"):
            _CTX.weight(9999991)

    def test_subset_cache_is_order_independent(self):
        ctx = PoolContext(_POOL)
        a = ctx.subset([_POOL[0], _POOL[1]])
        b = ctx.subset([_POOL[1], _POOL[0]])
        assert a is b
        assert ctx.subset_hits == 1
        assert ctx.subsets_built == 1

    def test_subset_cache_eviction(self, monkeypatch):
        monkeypatch.setattr("repro.rns.pool.DEFAULT_SUBSET_CACHE", 2)
        ctx = PoolContext(_POOL)
        ctx.subset(_POOL[:1])
        ctx.subset(_POOL[:2])
        ctx.subset(_POOL[:3])  # evicts wholesale
        assert ctx.subsets_built == 3
        # The evicted subsets rebuild rather than error.
        ctx.subset(_POOL[:1])
        assert ctx.subsets_built == 4

    def test_encode_length_mismatch(self):
        with pytest.raises(CrtError, match="length mismatch"):
            _CTX.encode([0, 1], [_POOL[0]])

    def test_encode_duplicate_modulus_matches_reference(self):
        s = _POOL[0]
        with pytest.raises(NotCoprimeError) as pool_exc:
            _CTX.encode([0, 0], [s, s])
        with pytest.raises(NotCoprimeError) as ref_exc:
            crt([0, 0], [s, s])
        assert str(pool_exc.value) == str(ref_exc.value)

    def test_encode_out_of_range_matches_reference(self):
        s = _POOL[0]
        with pytest.raises(CrtError) as pool_exc:
            _CTX.encode([s], [s])
        with pytest.raises(CrtError) as ref_exc:
            crt([s], [s])
        assert str(pool_exc.value) == str(ref_exc.value)

    def test_encode_off_pool_modulus_raises(self):
        with pytest.raises(CrtError, match="not in this pool"):
            _CTX.encode([0], [9999991])

    @given(pool_systems())
    def test_encode_bit_identical_to_crt(self, system):
        ids, ports = system
        assert _CTX.encode(ports, ids) == crt(ports, ids)


class TestPooledEncoder:
    """``RouteEncoder`` holding a pool: which solve path took the work."""

    def test_pool_covered_encode_counts(self):
        enc = RouteEncoder(PoolContext(_POOL))
        hops = [Hop(_POOL[0], 1), Hop(_POOL[1], 2)]
        assert enc.encode(hops) == RouteEncoder().encode(hops)
        assert (enc.pooled_encodes, enc.fallback_encodes) == (1, 0)

    def test_off_pool_falls_back(self):
        enc = RouteEncoder(PoolContext([5, 7, 9]))
        hops = [Hop(5, 2), Hop(11, 3)]  # 11 not in pool
        assert enc.encode(hops) == RouteEncoder().encode(hops)
        assert (enc.pooled_encodes, enc.fallback_encodes) == (0, 1)


class TestReencodeDelta:
    """``with_port`` on a pool-holding encoder: single addend or not."""

    def test_identity_is_same_object(self):
        enc = RouteEncoder(_CTX)
        route = enc.encode([Hop(_POOL[0], 1), Hop(_POOL[1], 2)])
        assert enc.with_port(route, _POOL[0], 1) is route
        assert (enc.identity_skips, enc.deltas_applied) == (1, 0)
        assert enc.with_port(route, _POOL[0], 0) is not route
        assert (enc.identity_skips, enc.deltas_applied) == (1, 1)

    def test_off_pool_route_full_solves(self):
        # A route over non-pool switches still re-encodes correctly,
        # through the reference solver.
        enc = RouteEncoder(PoolContext([5, 7, 9]))
        route = enc.encode([Hop(11, 3), Hop(13, 4)])
        assert enc.with_port(route, 11, 5) == RouteEncoder().encode(
            [Hop(11, 5), Hop(13, 4)]
        )
        assert (enc.deltas_applied, enc.full_solves) == (0, 1)

    def test_inconsistent_modulus_rejected(self):
        # A route whose modulus is not the product of its hop IDs gets
        # no single-addend update: the pool refuses, and the encoder
        # re-solves the mutated hop list instead.
        enc = RouteEncoder(PoolContext(_POOL))
        a, b, c = _POOL[:3]
        route = enc.encode([Hop(a, 1), Hop(b, 2)])
        broken = dataclasses.replace(route, modulus=route.modulus * c)
        with pytest.raises(CrtError, match="does not match"):
            enc.pool.addend_weight(broken, a)
        assert enc.with_port(broken, a, 0) == enc.encode([Hop(a, 0), Hop(b, 2)])
        assert (enc.deltas_applied, enc.full_solves) == (0, 1)
