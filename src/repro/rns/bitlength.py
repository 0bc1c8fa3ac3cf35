"""Route-ID size analysis (Section 2.3 of the paper).

The route ID lives in ``[0, M)`` with ``M`` the product of the encoded
switch IDs, so its header cost is ``ceil(log2(M - 1))`` bits (Eq. 9).
This module computes that bound.

These functions regenerate Table 1 of the paper (see
``repro.experiments.table1``).
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["route_id_bit_length", "bit_length_for_switches"]


def route_id_bit_length(modulus: int) -> int:
    """Bits needed for any route ID under *modulus* (Eq. 9).

    ``bit_length(R) = ceil(log2(M - 1))`` — computed exactly with integer
    arithmetic (no floating-point log), so it is correct for arbitrarily
    large M.

    >>> route_id_bit_length(308)     # 6-node example, unprotected
    9
    >>> route_id_bit_length(1540)    # 6-node example, with SW5 protection
    11
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    # ceil(log2(n)) == (n-1).bit_length() for n >= 1; here n = M - 1, so
    # ceil(log2(M - 1)) == (M - 2).bit_length() except for the degenerate
    # M == 2 case (single residue 0/1 -> 1 bit).
    if modulus == 2:
        return 1
    return (modulus - 2).bit_length()


def bit_length_for_switches(switch_ids: Iterable[int]) -> int:
    """Bits needed to encode a route over the given switch IDs.

    >>> bit_length_for_switches([10, 7, 13, 29])     # Table 1, unprotected
    15
    """
    modulus = 1
    count = 0
    for s in switch_ids:
        if s <= 1:
            raise ValueError(f"switch ID must be > 1, got {s}")
        modulus *= s
        count += 1
    if count == 0:
        raise ValueError("need at least one switch ID")
    return route_id_bit_length(modulus)
