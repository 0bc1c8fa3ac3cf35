"""Generation and validation of pairwise-coprime switch-ID pools.

Every KAR core switch carries a small integer ID, and the set of IDs used
inside one domain must be pairwise coprime so that any subset of switches
can appear together in a CRT system (route ID).  A switch with ID ``s``
can address output ports ``0 .. s-1``, so an ID must also be strictly
larger than the switch's port count.

Two assignment strategies are provided (and compared in the ablation
benchmarks):

* :func:`prime_pool` — consecutive primes starting at a minimum value.
  Simple and always valid, but IDs (and therefore route-ID bit lengths,
  Eq. 9) grow faster than necessary.
* :func:`greedy_coprime_pool` — smallest integers that are pairwise
  coprime with everything chosen so far (yields composites such as 4, 9,
  25, 49 alongside primes), minimising the product M for a given pool
  size.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Sequence

from repro.rns.crt import first_noncoprime_pair

__all__ = [
    "is_prime",
    "primes",
    "prime_pool",
    "greedy_coprime_pool",
    "validate_pool",
    "min_id_for_ports",
]


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division.

    Adequate for switch-ID magnitudes (small integers); not intended for
    cryptographic sizes.

    >>> [x for x in range(2, 20) if is_prime(x)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes(start: int = 2) -> Iterator[int]:
    """Yield primes >= *start*, in increasing order, forever."""
    n = max(2, start)
    while True:
        if is_prime(n):
            yield n
        n += 1


def min_id_for_ports(port_count: int) -> int:
    """Smallest legal switch ID for a switch with *port_count* ports.

    The modulo operation produces values in ``[0, id)``; to address every
    port the ID must exceed the largest port index, i.e. be at least
    ``port_count`` — and at least 2, since 0 and 1 are useless moduli.
    """
    return max(2, port_count)


def prime_pool(count: int, min_value: int = 2) -> List[int]:
    """Return the first *count* primes that are >= *min_value*.

    >>> prime_pool(4, min_value=5)
    [5, 7, 11, 13]
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    out: List[int] = []
    for p in primes(min_value):
        if len(out) == count:
            break
        out.append(p)
    return out


def greedy_coprime_pool(count: int, min_value: int = 2) -> List[int]:
    """Return *count* pairwise-coprime integers, smallest-first.

    Greedily picks the smallest integer >= *min_value* that is coprime
    with every integer already picked.  This admits prime powers (4, 9,
    25, 27...) and products of otherwise-unused primes, keeping the
    product M — hence the route-ID bit length — lower than a pure prime
    pool of the same size.

    >>> greedy_coprime_pool(6)
    [2, 3, 5, 7, 11, 13]
    >>> greedy_coprime_pool(4, min_value=4)
    [4, 5, 7, 9]
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    out: List[int] = []
    product = 1  # coprime with n iff every pick is
    n = max(2, min_value)
    while len(out) < count:
        if math.gcd(n, product) == 1:
            out.append(n)
            product *= n
        n += 1
    return out


def validate_pool(pool: Sequence[int], port_counts: Sequence[int] | None = None) -> None:
    """Validate a switch-ID pool, raising ValueError with a precise reason.

    Checks:
      * no duplicates,
      * every ID > 1,
      * pairwise coprimality,
      * (optionally) each ID can address its switch's ports.

    Args:
        pool: the candidate switch IDs.
        port_counts: optional per-switch port counts aligned with *pool*.
    """
    if len(set(pool)) != len(pool):
        dupes = sorted({v for v in pool if list(pool).count(v) > 1})
        raise ValueError(f"duplicate switch IDs: {dupes}")
    for v in pool:
        if v <= 1:
            raise ValueError(f"switch ID must be > 1, got {v}")
    bad = first_noncoprime_pair(pool)
    if bad is not None:
        raise ValueError(
            f"switch IDs {bad[0]} and {bad[1]} share a factor "
            f"{math.gcd(*bad)}; the pool must be pairwise coprime"
        )
    if port_counts is not None:
        if len(port_counts) != len(pool):
            raise ValueError(
                f"port_counts length {len(port_counts)} != pool length {len(pool)}"
            )
        for sid, ports in zip(pool, port_counts):
            if sid < min_id_for_ports(ports):
                raise ValueError(
                    f"switch ID {sid} cannot address {ports} ports; "
                    f"needs ID >= {min_id_for_ports(ports)}"
                )
