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

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.rns.bitlength import route_id_bit_length
from repro.rns.coprime import greedy_coprime_pool, prime_pool
from repro.rns.gf2 import dual_coprime_pool, gf2_degree

__all__ = [
    "GrowthPoint",
    "bit_growth_by_strategy",
    "protection_budget_table",
    "prefix_route_bits",
    "max_prefix_within_budget",
    "growth_pool",
]


@dataclass(frozen=True)
class GrowthPoint:
    """Bit length needed for a route of *hops* switches."""

    hops: int
    bits: int


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


def prefix_route_bits(
    ids: Sequence[int], base_ids: Sequence[int] = ()
) -> List[int]:
    """``bits[i]`` = header bits of the route using ``base_ids + ids[:i+1]``.

    The cached-prefix primitive behind every budget sweep: the base
    product is built once, each prefix extends it by one
    multiply, and the resulting bit lengths are **non-decreasing** (every
    ID is >= 2), so budget queries reduce to
    :func:`max_prefix_within_budget`'s binary search.
    """
    bits: List[int] = []
    product = math.prod(base_ids)
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


def bit_growth_by_strategy(
    max_hops: int,
    strategies: Sequence[str] = ("greedy", "prime"),
    min_value: int = 4,
) -> Dict[str, List[GrowthPoint]]:
    """Worst-case bit growth per strategy.

    For each strategy the route uses the *largest* IDs of a pool sized
    ``max_hops`` — the worst case, since any network must provision for
    its longest route through its biggest IDs.  The ``xsr`` strategy
    reports the XSR backend's cost on its dual-coprime pool: polynomial
    degrees simply add, so the accumulation is a running degree sum —
    no big-int products at all.
    """
    if max_hops < 1:
        raise ValueError(f"max_hops must be >= 1, got {max_hops}")
    out: Dict[str, List[GrowthPoint]] = {}
    for strategy in strategies:
        pool = growth_pool(strategy, max_hops, min_value=min_value)
        worst_first = sorted(pool, reverse=True)
        points: List[GrowthPoint] = []
        if strategy == "xsr":
            degree_sum = 0
            for i, sid in enumerate(worst_first, start=1):
                degree_sum += gf2_degree(sid)
                points.append(GrowthPoint(hops=i, bits=degree_sum))
        else:
            for i, bits in enumerate(prefix_route_bits(worst_first), start=1):
                points.append(GrowthPoint(hops=i, bits=bits))
        out[strategy] = points
    return out


def protection_budget_table(
    route_ids: Sequence[int],
    protection_ids: Sequence[int],
    budgets: Sequence[int],
) -> List[Tuple[int, int]]:
    """(budget_bits, protection_hops_that_fit) rows.

    Mirrors the paper's loose/partial protection discussion: given a
    header budget, how many protection switches can the controller fold
    into the route ID after the primary route is paid for?  The prefix
    bit lengths are accumulated once and every budget row is a binary
    search — same rows as the per-budget re-multiplication loop this
    replaced.
    """
    prefix_bits = prefix_route_bits(protection_ids, base_ids=route_ids)
    return [
        (budget, max_prefix_within_budget(prefix_bits, budget))
        for budget in budgets
    ]
