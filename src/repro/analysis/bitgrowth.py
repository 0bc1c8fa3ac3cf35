"""Route-ID bit-length growth studies (Section 2.3 extensions).

Beyond Table 1's three rows, these sweeps quantify how the header cost
scales with route length and with the switch-ID assignment strategy —
the design trade-off the paper flags ("this restriction should be
considered for implementation purposes").

The budget sweeps share one primitive, :func:`prefix_route_bits`: the
bit length of every prefix product is accumulated **once** per ID
sequence (one big-int multiply per step), and each budget
query is then a binary search over the cached non-decreasing bit
lengths.  The pre-PR-10 code re-multiplied the whole prefix and re-took
``route_id_bit_length`` for every (budget, hop) pair — identical
results, ``O(budgets × hops)`` big-int work instead of ``O(hops)``,
which is real money on zoo-scale pools.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Sequence

from repro.rns.bitlength import route_id_bit_length
from repro.rns.coprime import greedy_coprime_pool, prime_pool
from repro.rns.gf2 import dual_coprime_pool

__all__ = [
    "prefix_route_bits",
    "max_prefix_within_budget",
    "growth_pool",
]


def growth_pool(strategy: str, size: int, min_value: int = 4) -> List[int]:
    """The ID pool a growth sweep draws from, by assigner strategy.

    ``weighted`` shares the greedy pool (the optimal assigner changes
    which switch *gets* which ID, not the pool itself); ``xsr`` is the
    dual-coprime pool both the integer and GF(2) rings accept.
    """
    if strategy in ("greedy", "weighted"):
        return greedy_coprime_pool(size, min_value=min_value)
    if strategy == "prime":
        return prime_pool(size, min_value=min_value)
    if strategy == "xsr":
        return dual_coprime_pool(size, min_value=min_value)
    raise ValueError(f"unknown strategy {strategy!r}")


def prefix_route_bits(ids: Sequence[int]) -> List[int]:
    """``bits[i]`` = header bits of the route using ``ids[:i+1]``.

    The cached-prefix primitive behind every budget sweep: each prefix
    extends the last by one multiply, and the resulting bit lengths are
    **non-decreasing** (every ID is >= 2), so budget queries reduce to
    :func:`max_prefix_within_budget`'s binary search.
    """
    bits: List[int] = []
    product = 1
    for sid in ids:
        product *= sid
        bits.append(route_id_bit_length(product))
    return bits


def max_prefix_within_budget(prefix_bits: Sequence[int], budget: int) -> int:
    """How many prefix IDs fit a *budget*-bit header.

    *prefix_bits* must be non-decreasing (which
    :func:`prefix_route_bits` guarantees); the answer is a bisection,
    not a re-multiplication.
    """
    return bisect_right(prefix_bits, budget)
