"""Carry-less (GF(2)[X]) arithmetic for the XSR encoding backend.

XOR-based Source Routing (XSR, Lacan & Lochin) is the Chinese Remainder
Theorem transplanted from the integers to the ring of binary polynomials
GF(2)[X].  An integer ``n`` is read as the polynomial whose coefficients
are the bits of ``n`` (bit *i* is the coefficient of ``X^i``), addition
becomes XOR (carry-less, so it is its own inverse), and multiplication
becomes a carry-less shift-and-XOR product.  The route ID ``R`` is the
unique polynomial with ``deg R < deg M`` such that::

    R mod s_i == p_i        (polynomial remainder, per switch i)

Why bother with a second datapath?  Two properties the integer CRT does
not have:

* the switch-side decode is a shift/XOR loop — no carries, no integer
  division — which maps directly onto CLMUL-style hardware; and
* header cost is exactly ``deg(M) = sum_i deg(s_i)`` bits, with **zero**
  rounding loss per route (the integer encoding pays the fractional bit
  of every ``log2 s_i`` at ceil time, Eq. 9).

The trade is modulus density: only ~1/2 of integers of a given bit
length are odd-weight-coprime-friendly polynomials, so GF(2)-coprime ID
pools climb in value faster than integer-coprime pools.  The
header-overhead study (:mod:`repro.experiments.header_overhead`, in
``repro report``) quantifies both sides.

Everything here mirrors :mod:`repro.rns.crt` name-for-name
(``gf2_crt`` ↔ ``crt``, ``gf2_crt_extend`` ↔ ``crt_extend``...) so the
two backends stay diff-able, and the same exception types
(:class:`~repro.rns.crt.CrtError`, subclassed by
:class:`Gf2NotCoprimeError`) flow through unchanged callers.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

from repro.rns.crt import CrtError

__all__ = [
    "gf2_degree",
    "gf2_mul",
    "gf2_divmod",
    "gf2_mod",
    "gf2_gcd",
    "gf2_egcd",
    "gf2_inverse",
    "gf2_pairwise_coprime",
    "gf2_first_noncoprime_pair",
    "gf2_crt",
    "gf2_crt_extend",
    "gf2_product",
    "dual_coprime_pool",
    "min_gf2_id_for_ports",
    "Gf2NotCoprimeError",
]


class Gf2NotCoprimeError(CrtError):
    """Moduli that must be GF(2)-pairwise-coprime are not.

    Attributes:
        pair: the offending ``(a, b)`` moduli pair (as integers).
        gcd: their polynomial gcd (> 1 as an integer).
    """

    def __init__(self, pair: Tuple[int, int], gcd: int):
        self.pair = pair
        self.gcd = gcd
        super().__init__(
            f"polynomials {bin(pair[0])} and {bin(pair[1])} share the "
            f"GF(2) factor {bin(gcd)}; XSR switch IDs must be pairwise "
            f"coprime as binary polynomials"
        )


def gf2_degree(a: int) -> int:
    """Degree of the polynomial *a*; -1 for the zero polynomial.

    >>> gf2_degree(0b1011)
    3
    >>> gf2_degree(1), gf2_degree(0)
    (0, -1)
    """
    return a.bit_length() - 1


def gf2_mul(a: int, b: int) -> int:
    """Carry-less product of two binary polynomials.

    >>> gf2_mul(0b11, 0b11)   # (x+1)^2 = x^2+1 — no middle term, no carry
    5
    >>> gf2_mul(0b111, 0b10)  # shift by one
    14
    """
    if a < 0 or b < 0:
        raise CrtError("GF(2) polynomials are non-negative integers")
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def gf2_divmod(a: int, b: int) -> Tuple[int, int]:
    """Polynomial long division: return ``(q, r)`` with ``a = q*b ^ r``.

    ``deg r < deg b`` on return.  This is the XSR switch datapath: the
    remainder loop is a pure shift/XOR pipeline (no carries).

    >>> gf2_divmod(0b1100, 0b101)  # x^3+x^2 = (x+1)(x^2+1) ^ (x+1)
    (3, 3)
    """
    if b <= 0:
        raise CrtError(f"GF(2) divisor must be a nonzero polynomial, got {b}")
    if a < 0:
        raise CrtError("GF(2) polynomials are non-negative integers")
    db = gf2_degree(b)
    q = 0
    while a.bit_length() - 1 >= db and a:
        shift = (a.bit_length() - 1) - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def gf2_mod(a: int, b: int) -> int:
    """Polynomial remainder ``a mod b`` — the XSR per-switch decode.

    >>> gf2_mod(0b1101, 0b111)  # x^3+x^2+1 = x(x^2+x+1) ^ (x+1)
    3
    """
    if b <= 0:
        raise CrtError(f"GF(2) divisor must be a nonzero polynomial, got {b}")
    if a < 0:
        raise CrtError("GF(2) polynomials are non-negative integers")
    db = gf2_degree(b)
    while a.bit_length() - 1 >= db and a:
        a ^= b << ((a.bit_length() - 1) - db)
    return a


def gf2_gcd(a: int, b: int) -> int:
    """Polynomial gcd (monic by construction — GF(2) has one unit).

    >>> gf2_gcd(0b1100, 0b1010)  # x^3+x^2 and x^3+x share x(x+1)
    6
    >>> gf2_gcd(0b111, 0b11)
    1
    """
    while b:
        a, b = b, gf2_mod(a, b)
    return a


def gf2_egcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended Euclid in GF(2)[X]: ``(g, x, y)`` with ``a·x ^ b·y = g``.

    >>> g, x, y = gf2_egcd(0b111, 0b101)
    >>> g, gf2_mul(0b111, x) ^ gf2_mul(0b101, y)
    (1, 1)
    """
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q, rem = gf2_divmod(old_r, r)
        old_r, r = r, rem
        old_x, x = x, old_x ^ gf2_mul(q, x)
        old_y, y = y, old_y ^ gf2_mul(q, y)
    return old_r, old_x, old_y


def gf2_inverse(a: int, modulus: int) -> int:
    """Return ``L`` with ``gf2_mod(gf2_mul(L, a), modulus) == 1``.

    Raises :class:`Gf2NotCoprimeError` when no inverse exists.

    >>> gf2_mod(gf2_mul(gf2_inverse(0b10, 0b111), 0b10), 0b111)
    1
    """
    if modulus <= 1:
        raise CrtError(
            f"GF(2) modulus must have degree >= 1, got {modulus}"
        )
    g, x, _ = gf2_egcd(gf2_mod(a, modulus), modulus)
    if g != 1:
        raise Gf2NotCoprimeError((a, modulus), g)
    return gf2_mod(x, modulus)


def gf2_first_noncoprime_pair(
    values: Iterable[int],
) -> Tuple[int, int] | None:
    """First pair with polynomial gcd != 1, or None.

    O(n²) polynomial gcds — a one-time pool validation, mirroring
    :func:`repro.rns.crt.first_noncoprime_pair`.
    """
    vals = list(values)
    for i, a in enumerate(vals):
        for b in vals[i + 1:]:
            if gf2_gcd(a, b) != 1:
                return (a, b)
    return None


def gf2_pairwise_coprime(values: Iterable[int]) -> bool:
    """True iff every pair of *values* is coprime as binary polynomials.

    >>> gf2_pairwise_coprime([2, 3, 7])
    True
    >>> gf2_pairwise_coprime([2, 4])   # x divides x^2
    False
    """
    return gf2_first_noncoprime_pair(values) is None


def gf2_product(values: Sequence[int]) -> int:
    """Carry-less product of all *values* (the XSR modulus M).

    ``deg(M)`` — not ``bit_length(M)`` — is the XSR header cost.
    """
    out = 1
    for v in values:
        out = gf2_mul(out, v)
    return out


def gf2_crt(
    residues: Sequence[int], moduli: Sequence[int]
) -> Tuple[int, int]:
    """Solve ``x ≡ residues[i] (mod moduli[i])`` in GF(2)[X].

    The Eq. 4 reconstruction, verbatim but carry-less::

        R = < XOR_i  p_i · M_i · L_i >_M

    with ``M = prod moduli``, ``M_i = M / s_i`` (exact polynomial
    division) and ``L_i`` the GF(2) inverse of ``M_i`` mod ``s_i``.

    Returns ``(R, M)`` with ``deg R < deg M``; residue validity requires
    ``deg(p_i) < deg(s_i)`` (i.e. ``p_i < 2**deg(s_i)``), strictly
    tighter than the integer backend's ``p_i < s_i``.

    >>> R, M = gf2_crt([0, 2, 0], [7, 11, 13])
    >>> [gf2_mod(R, s) for s in (7, 11, 13)]
    [0, 2, 0]
    """
    if len(residues) != len(moduli):
        raise CrtError(
            f"residue/modulus length mismatch: {len(residues)} vs {len(moduli)}"
        )
    if not moduli:
        raise CrtError("cannot solve an empty CRT system")
    for p, s in zip(residues, moduli):
        if s <= 1:
            raise CrtError(
                f"GF(2) modulus must have degree >= 1, got {s}"
            )
        if not 0 <= p < (1 << gf2_degree(s)):
            raise CrtError(
                f"residue {p} out of range for GF(2) modulus {s}: "
                f"degree-{gf2_degree(s)} remainders cover only "
                f"0..{(1 << gf2_degree(s)) - 1}"
            )
    bad = gf2_first_noncoprime_pair(moduli)
    if bad is not None:
        raise Gf2NotCoprimeError(bad, gf2_gcd(*bad))

    M = gf2_product(moduli)
    total = 0
    for p, s in zip(residues, moduli):
        M_i, rem = gf2_divmod(M, s)
        assert rem == 0
        L_i = gf2_inverse(M_i, s)
        total ^= gf2_mul(p, gf2_mul(M_i, L_i))
    return gf2_mod(total, M), M


def gf2_crt_extend(
    route_id: int, modulus: int, switch_id: int, port: int
) -> Tuple[int, int]:
    """Fold one congruence into a solved GF(2) system, incrementally.

    The carry-less twin of :func:`repro.rns.crt.crt_extend`::

        x = R ^ M·t   with   t = <(port ^ R) · M^{-1}>_{switch_id}

    (subtraction *is* XOR in GF(2), which is why the delta form is even
    simpler than the integer one).  Bit-identical to re-solving the whole
    system with :func:`gf2_crt`.

    >>> R, M = gf2_crt([1, 2], [7, 11])
    >>> gf2_crt_extend(R, M, 13, 3) == gf2_crt([1, 2, 3], [7, 11, 13])
    True
    """
    if switch_id <= 1:
        raise CrtError(
            f"GF(2) modulus must have degree >= 1, got {switch_id}"
        )
    if not 0 <= port < (1 << gf2_degree(switch_id)):
        raise CrtError(
            f"residue {port} out of range for GF(2) modulus {switch_id}: "
            f"degree-{gf2_degree(switch_id)} remainders cover only "
            f"0..{(1 << gf2_degree(switch_id)) - 1}"
        )
    inv = gf2_inverse(modulus, switch_id)
    t = gf2_mod(gf2_mul(port ^ gf2_mod(route_id, switch_id), inv), switch_id)
    return route_id ^ gf2_mul(modulus, t), gf2_mul(modulus, switch_id)


def min_gf2_id_for_ports(port_count: int) -> int:
    """Smallest XSR-legal switch ID for *port_count* ports.

    A polynomial modulus of degree *d* yields remainders ``0..2^d - 1``,
    so addressing ``port_count`` ports needs
    ``d >= ceil(log2(port_count))`` — the ID must be at least
    ``2^ceil(log2(port_count))`` (and at least 2: degree-0 polynomials
    are units).

    >>> [min_gf2_id_for_ports(p) for p in (0, 1, 2, 3, 4, 5, 9)]
    [2, 2, 2, 4, 4, 8, 16]
    """
    if port_count <= 2:
        return 2
    return 1 << (port_count - 1).bit_length()


def dual_coprime_pool(count: int, min_value: int = 2) -> List[int]:
    """*count* integers pairwise coprime **both** in Z and in GF(2)[X].

    Greedy smallest-first, mirroring
    :func:`repro.rns.coprime.greedy_coprime_pool`.  A dual-coprime pool
    lets one :class:`~repro.topology.graph.PortGraph` serve the integer
    and XSR backends simultaneously: ``PortGraph.validate`` keeps its
    integer-coprimality invariant, and the XSR encoder gets
    polynomial-coprime moduli from the very same IDs.

    Density is the price of duality — even integers collide in Z, and
    e.g. 4 (= x²) collides with 2 (= x) in GF(2), so the pool climbs
    faster than either single-ring pool:

    >>> dual_coprime_pool(6)
    [2, 3, 7, 11, 13, 19]
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    out: List[int] = []
    n = max(2, min_value)
    while len(out) < count:
        if all(
            math.gcd(n, c) == 1 and gf2_gcd(n, c) == 1 for c in out
        ):
            out.append(n)
        n += 1
    return out
