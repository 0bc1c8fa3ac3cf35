"""Number-theoretic primitives behind the KAR route encoding.

KAR (Key-for-Any-Route) represents a forwarding path as a single integer,
the *route ID*.  Each core switch ``s_i`` on the path must emit the packet
on output port ``p_i``, and the route ID ``R`` is chosen such that::

    R mod s_i == p_i        for every switch i on the path

This is exactly a system of simultaneous congruences, solvable by the
Chinese Remainder Theorem (CRT) whenever the moduli (the switch IDs) are
pairwise coprime.  This module provides the arithmetic core:

* :func:`modular_inverse` — modular multiplicative inverse (the
  built-in ``pow(a, -1, m)``: the extended Euclid runs in C),
* :func:`crt_fold` — the one CRT step, over a parent array,
* :func:`crt_extend` — its one-node case, one congruence at a time,
* :func:`crt` — CRT solver (Eq. 4 of the paper), the fold over a chain,
* :func:`pairwise_coprime` — the KAR switch-ID precondition.

All functions operate on plain Python integers, so route IDs of arbitrary
bit length (Section 2.3 of the paper) are supported without overflow.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "modular_inverse",
    "crt",
    "crt_extend",
    "crt_fold",
    "pairwise_coprime",
    "first_noncoprime_pair",
    "CrtError",
    "NotCoprimeError",
]


class CrtError(ValueError):
    """Raised when a CRT system is malformed (bad residues or moduli)."""


class NotCoprimeError(CrtError):
    """Raised when moduli that must be pairwise coprime are not.

    Attributes:
        pair: the offending ``(a, b)`` moduli pair.
        gcd: their greatest common divisor (> 1).
    """

    def __init__(self, pair: Tuple[int, int], gcd: int):
        self.pair = pair
        self.gcd = gcd
        super().__init__(
            f"moduli {pair[0]} and {pair[1]} are not coprime (gcd={gcd}); "
            f"KAR switch IDs must be pairwise coprime"
        )


def modular_inverse(a: int, modulus: int) -> int:
    """Return ``L`` such that ``(L * a) % modulus == 1`` (Eq. 7/8).

    This is the ``L_i = <M_i^{-1}>_{s_i}`` term of the paper's CRT
    reconstruction.  Raises :class:`NotCoprimeError` when the inverse does
    not exist (``gcd(a, modulus) != 1``).

    >>> modular_inverse(77, 4)
    1
    >>> modular_inverse(44, 7)
    4
    >>> modular_inverse(28, 11)
    2
    """
    if modulus <= 0:
        raise CrtError(f"modulus must be positive, got {modulus}")
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise NotCoprimeError((a, modulus), math.gcd(a, modulus)) from None


def pairwise_coprime(values: Iterable[int]) -> bool:
    """Return True iff every pair of *values* has gcd 1.

    KAR requires the set of switch IDs in a network to be pairwise
    coprime; IDs need not be prime themselves (the paper uses 4, 9, 10...).

    >>> pairwise_coprime([4, 5, 7, 11])
    True
    >>> pairwise_coprime([4, 6, 7])
    False
    """
    return first_noncoprime_pair(values) is None


def first_noncoprime_pair(values: Iterable[int]) -> Tuple[int, int] | None:
    """Return the first pair with gcd > 1, or None if pairwise coprime.

    Useful for error messages: the caller learns *which* switch IDs clash.
    A coprime list costs n gcds, each value against the product of those
    before it; only a clash pays the O(n²) search that names the pair.
    """
    vals = list(values)
    product = 1
    for v in vals:
        if math.gcd(v, product) != 1:
            break
        product *= v
    else:
        return None
    for i, a in enumerate(vals):
        for b in vals[i + 1:]:
            if math.gcd(a, b) != 1:
                return (a, b)
    return None


def crt(residues: Sequence[int], moduli: Sequence[int]) -> Tuple[int, int]:
    """Solve the CRT system ``x ≡ residues[i] (mod moduli[i])``.

    The unique solution of Eq. 4 of the paper::

        R = < sum_i  p_i * M_i * L_i >_M

    with ``M = prod(moduli)``, ``M_i = M / s_i`` and ``L_i`` the modular
    inverse of ``M_i`` modulo ``s_i`` — reached by :func:`crt_fold`
    down the chain of congruences from ``(0, 1)``.  The addends are
    independent (Section 2.2), so one congruence at a time lands on the
    same ``R`` in k small inverses; a shared factor surfaces as the
    failing step's inverse.

    Args:
        residues: the desired remainders (output-port indexes in KAR).
        moduli: pairwise-coprime moduli (switch IDs in KAR).

    Returns:
        ``(R, M)`` where ``R`` is the unique solution in ``[0, M)`` and
        ``M`` is the product of the moduli.

    Raises:
        CrtError: on length mismatch, empty system, or residues out of
            range ``[0, modulus)``.
        NotCoprimeError: when the moduli are not pairwise coprime; its
            ``pair`` is :func:`first_noncoprime_pair` of *moduli*.

    >>> crt([0, 2, 0], [4, 7, 11])
    (44, 308)
    >>> crt([0, 2, 0, 0], [4, 7, 11, 5])
    (660, 1540)
    """
    if len(residues) != len(moduli):
        raise CrtError(
            f"residue/modulus length mismatch: {len(residues)} vs {len(moduli)}"
        )
    if not moduli:
        raise CrtError("cannot solve an empty CRT system")
    for p, s in zip(residues, moduli):
        if s <= 1:
            raise CrtError(f"modulus must be > 1, got {s}")
        if not 0 <= p < s:
            raise CrtError(
                f"residue {p} out of range for modulus {s}: "
                f"a switch with ID {s} only has ports 0..{s - 1} addressable"
            )
    k = len(moduli)
    ids, mods = [0] * (k + 1), [1] * (k + 1)
    try:
        crt_fold(ids, mods, range(1, k + 1), moduli, residues, range(k))
    except NotCoprimeError:
        bad = first_noncoprime_pair(moduli)
        raise NotCoprimeError(bad, math.gcd(*bad)) from None
    return ids[k], mods[k]


def crt_extend(
    route_id: int, modulus: int, switch_id: int, port: int
) -> Tuple[int, int]:
    """Extend a solved CRT system by one congruence, incrementally.

    Given the unique ``route_id`` in ``[0, modulus)`` of an existing
    system, fold in ``x ≡ port (mod switch_id)`` and return the unique
    solution of the extended system in ``[0, modulus * switch_id)``, in
    O(1) modular operations — :func:`crt_fold` on one node whose parent
    holds ``(route_id, modulus)``.  The primitive behind incremental
    protection and re-pointing
    (:meth:`repro.rns.encoder.RouteEncoder.with_hop` / ``with_port``).

    Raises:
        CrtError: on a residue out of range.
        NotCoprimeError: when ``switch_id`` shares a factor with
            ``modulus``.

    >>> crt_extend(44, 308, 5, 0)
    (660, 1540)
    >>> crt_extend(*crt([0], [4]), 7, 2)[0] % 7
    2
    """
    if switch_id <= 1:
        raise CrtError(f"modulus must be > 1, got {switch_id}")
    if not 0 <= port < switch_id:
        raise CrtError(
            f"residue {port} out of range for modulus {switch_id}: "
            f"a switch with ID {switch_id} only has ports "
            f"0..{switch_id - 1} addressable"
        )
    ids, mods = [route_id, 0], [modulus, 1]
    crt_fold(ids, mods, (1,), (switch_id,), (port,), (0,))
    return ids[1], mods[1]


def crt_fold(ids: List[Optional[int]], mods: List[Optional[int]],
             nodes: Iterable[int], switch_ids: Iterable[int],
             ports: Iterable[int], parents: Iterable[int]) -> None:
    """The one CRT step, over a parent array: for each node ``x`` with
    switch ID ``s``, port ``p`` and parent ``par``, parents first, extend
    the solved ``(R, M) = (ids[par], mods[par])`` by ``x ≡ p (mod s)``
    into ``ids[x], mods[x]``: ``R + M * <(p - R) * M^{-1}>_s``, the
    unique solution in ``[0, M * s)``.  :func:`crt` runs it down a chain,
    :func:`crt_extend` on one node, :mod:`repro.controller.bulk` down a
    tree or up a branch.  The caller checks ``s > 1`` and ``0 <= p < s``;
    a shared factor raises :class:`NotCoprimeError` with ``pair == (M,
    s)``, the nodes before it solved.

    >>> ids, mods = [0, None, None], [1, None, None]
    >>> crt_fold(ids, mods, [1, 2], [4, 7], [0, 2], [0, 1])
    >>> ids[2], mods[2]
    (16, 28)
    """
    try:
        for x, s, p, par in zip(nodes, switch_ids, ports, parents):
            r, m = ids[par], mods[par]
            ids[x], mods[x] = r + m * ((p - r % s) * pow(m, -1, s) % s), m * s
    except ValueError:
        modular_inverse(m, s)  # raises the NotCoprimeError naming (m, s)
        raise
