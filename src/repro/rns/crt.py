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
* :func:`crt` — CRT solver (Eq. 4 of the paper),
* :func:`pairwise_coprime` — the KAR switch-ID precondition.

All functions operate on plain Python integers, so route IDs of arbitrary
bit length (Section 2.3 of the paper) are supported without overflow.

:func:`crt` is the **reference** solver: it re-derives everything from
its arguments on every call and stays deliberately simple, because it is
the oracle every faster encoder is verified against.  The amortized
control-plane encoders — precomputed per-pool contexts, cached subset
products, and single-addend incremental re-encodes — live in
:mod:`repro.rns.pool`.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

__all__ = [
    "modular_inverse",
    "crt",
    "crt_extend",
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
    Runs in O(n²) gcd computations — acceptable as a one-time validation,
    but far too slow to repeat on every encode.  Hot callers therefore
    run it once at pool construction (:class:`repro.rns.pool.PoolContext`
    caches the validated-coprime verdict) and pass
    ``assume_coprime=True`` to :func:`crt` afterwards.
    """
    vals = list(values)
    for i, a in enumerate(vals):
        for b in vals[i + 1:]:
            if math.gcd(a, b) != 1:
                return (a, b)
    return None


def crt(
    residues: Sequence[int],
    moduli: Sequence[int],
    *,
    assume_coprime: bool = False,
) -> Tuple[int, int]:
    """Solve the CRT system ``x ≡ residues[i] (mod moduli[i])``.

    Implements Eq. 4 of the paper::

        R = < sum_i  p_i * M_i * L_i >_M

    with ``M = prod(moduli)``, ``M_i = M / s_i`` and ``L_i`` the modular
    inverse of ``M_i`` modulo ``s_i``.

    Args:
        residues: the desired remainders (output-port indexes in KAR).
        moduli: pairwise-coprime moduli (switch IDs in KAR).
        assume_coprime: skip the O(n²) pairwise-coprimality re-check.
            Only pass True for moduli drawn from a pool that was already
            validated (e.g. at :class:`repro.rns.pool.PoolContext`
            construction, or via :func:`repro.rns.coprime.validate_pool`).
            The result on genuinely non-coprime moduli is then undefined
            (an inverse may still fail with :class:`NotCoprimeError`,
            but silent wrong answers are possible for e.g. duplicates).

    Returns:
        ``(R, M)`` where ``R`` is the unique solution in ``[0, M)`` and
        ``M`` is the product of the moduli.

    Raises:
        CrtError: on length mismatch, empty system, or residues out of
            range ``[0, modulus)``.
        NotCoprimeError: when the moduli are not pairwise coprime.

    >>> crt([0, 2, 0], [4, 7, 11])
    (44, 308)
    >>> crt([0, 2, 0, 0], [4, 7, 11, 5])
    (660, 1540)
    >>> crt([0, 2, 0], [4, 7, 11], assume_coprime=True)
    (44, 308)
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
    if not assume_coprime:
        bad = first_noncoprime_pair(moduli)
        if bad is not None:
            raise NotCoprimeError(bad, math.gcd(*bad))

    M = math.prod(moduli)
    total = 0
    for p, s in zip(residues, moduli):
        M_i = M // s
        L_i = modular_inverse(M_i, s)
        total += p * M_i * L_i
    return total % M, M


def crt_extend(
    route_id: int, modulus: int, switch_id: int, port: int
) -> Tuple[int, int]:
    """Extend a solved CRT system by one congruence, incrementally.

    Given the unique ``route_id`` in ``[0, modulus)`` of an existing
    system, fold in ``x ≡ port (mod switch_id)`` and return the unique
    solution of the extended system in ``[0, modulus * switch_id)`` —
    bit-identical to re-solving the whole system with :func:`crt`, in
    O(1) modular operations::

        x = R + M * t   with   t = <(port - R) * M^{-1}>_{switch_id}

    This is the primitive behind both incremental protection
    (:meth:`repro.rns.encoder.RouteEncoder.with_hop`) and the bulk
    provisioner's down-tree encoding (:mod:`repro.controller.bulk`):
    a child's route shares every residue of its parent's route plus one
    new hop, so the whole all-pairs mesh costs one ``crt_extend`` per
    (destination, switch) instead of one full solve per flow.

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
    inv = modular_inverse(modulus, switch_id)
    t = ((port - route_id) * inv) % switch_id
    return route_id + modulus * t, modulus * switch_id
