"""Pooled CRT contexts: amortized control-plane route encoding.

The reference solver (:func:`repro.rns.crt.crt`) re-derives everything on
every call: the O(n²) pairwise-coprime check, the product ``M``, and one
extended-Euclid inverse per modulus.  That is the right shape for an
oracle, and the wrong shape for a controller provisioning millions of
flows over one fixed switch-ID pool — in a KAR domain the pool changes
on the timescale of hardware, while encodes happen on the timescale of
flow arrivals and link failures.

This module splits the work along those timescales:

* :class:`PoolContext` — built **once per coprime pool**.  Validates
  pairwise coprimality once, computes the pool product ``M`` with a
  balanced product tree, and precomputes every switch's CRT basis weight
  ``w_i = <M_i · L_i>_M`` (the ``M_i L_i`` addend factor of Eq. 4).
  After that, encoding over any subset of the pool is a dot product
  ``R = <Σ p_i · w_i>_{M_S}``.
* subset contexts — built **once per distinct switch set** (a
  destination tree branch, a primary route, a protection set) and
  memoized: the subset product ``M_S`` and the reduced weights
  ``w_i mod M_S``.  Every further flow over the same switches reuses
  them — encode cost no longer depends on pool size at all.
* :meth:`PoolContext.addend_weight` — looked up **once per changed
  hop**.  When one switch's output port changes from ``p_i`` to
  ``p'_i`` (a link failure re-route that keeps the same switches), the
  fresh route ID is a single addend away::

      R' = <R + (p'_i − p_i) · M_i · L_i>_M

  so a failure-time re-encode is O(1) big-int operations instead of a
  full re-solve.

The context is pure arithmetic over integers; the route-level object
that uses it is :class:`repro.rns.encoder.RouteEncoder`, which solves
pool-covered hop sets through :meth:`PoolContext.encode`, re-encodes a
changed port through :meth:`PoolContext.addend_weight`, and falls back
to the validating reference solver for anything off the pool.

Everything here is **bit-identical to the reference** by construction
(the subset solution is unique in ``[0, M_S)``) and by test: the
``encoder`` verify oracle (:mod:`repro.verify.oracles`) and the
Hypothesis properties in ``tests/rns/test_backends.py`` compare every
pooled and incremental result against a fresh :func:`~repro.rns.crt.crt`
solve.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.rns.crt import (
    CrtError,
    NotCoprimeError,
    first_noncoprime_pair,
    modular_inverse,
)

__all__ = [
    "product_tree",
    "PoolContext",
]

#: Bound on memoized subset contexts per pool (the cache is cleared
#: wholesale when full, mirroring the datapath residue cache).  A
#: destination tree contributes one subset per branch, so real
#: deployments sit far below this; the bound only guards pathological
#: workloads (e.g. fuzzed random subsets) from unbounded memory.
DEFAULT_SUBSET_CACHE = 4096


def product_tree(values: Iterable[int]) -> int:
    """Product of *values* by balanced pairwise folding.

    Multiplying big integers balanced (pairs of similar bit length)
    instead of left-to-right keeps the total bit-work
    O(B log n · mul(B/n)) rather than quadratic in the accumulated
    length — noticeable once pools reach hundreds of IDs.

    >>> product_tree([4, 7, 11, 5])
    1540
    >>> product_tree([])
    1
    """
    layer: List[int] = [int(v) for v in values]
    if not layer:
        return 1
    while len(layer) > 1:
        nxt = [
            layer[i] * layer[i + 1] for i in range(0, len(layer) - 1, 2)
        ]
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0]


class _SubsetContext:
    """Cached per-switch-set encode state: ``M_S`` + reduced weights."""

    __slots__ = ("key", "modulus", "weights")

    def __init__(self, key: Tuple[int, ...], modulus: int,
                 weights: Dict[int, int]):
        self.key = key
        self.modulus = modulus
        self.weights = weights


class PoolContext:
    """Precomputed CRT state for one pairwise-coprime switch-ID pool.

    Construction does all the per-pool work exactly once:

    * validates the pool (duplicates, ``> 1``, pairwise coprimality) —
      the ``validated`` flag records the verdict so no encode ever
      re-runs the O(n²) check;
    * computes the pool product ``M`` via :func:`product_tree`;
    * computes every switch's basis weight
      ``w_i = <(M/s_i) · L_i>_M`` with one extended-Euclid inverse per
      switch (Eq. 7/8, hoisted out of the encode path).

    Args:
        pool: the switch IDs (order preserved for reporting; encoding is
            order-independent).
        validated: pass True when the pool is already known pairwise
            coprime (e.g. it came from
            :func:`repro.rns.coprime.validate_pool` or a validated
            topology) to skip the one-time O(n²) check.
    """

    __slots__ = ("pool", "modulus", "validated", "_weights", "_subsets",
                 "_subsets_by_modulus", "subsets_built", "subset_hits")

    def __init__(self, pool: Sequence[int], *, validated: bool = False):
        ids = tuple(int(s) for s in pool)
        if not ids:
            raise CrtError("cannot build a PoolContext over an empty pool")
        for s in ids:
            if s <= 1:
                raise CrtError(f"switch ID must be > 1, got {s}")
        seen = set()
        for s in ids:
            if s in seen:
                raise NotCoprimeError((s, s), s)
            seen.add(s)
        if not validated:
            bad = first_noncoprime_pair(ids)
            if bad is not None:
                raise NotCoprimeError(bad, math.gcd(*bad))
        self.pool = ids
        self.validated = True
        self.modulus = product_tree(ids)
        weights: Dict[int, int] = {}
        for s in ids:
            M_i = self.modulus // s
            weights[s] = (M_i * modular_inverse(M_i, s)) % self.modulus
        self._weights = weights
        self._subsets: Dict[Tuple[int, ...], _SubsetContext] = {}
        # Secondary index for the O(1) incremental path: within one
        # pairwise-coprime pool, a subset's product determines the
        # subset (s divides M_S iff s is a member), so the modulus a
        # route carries is a valid cache key.
        self._subsets_by_modulus: Dict[int, _SubsetContext] = {}
        self.subsets_built = 0
        self.subset_hits = 0

    @classmethod
    def from_graph(cls, graph, **kwargs) -> "PoolContext":
        """Build a context over every core-switch ID of a topology.

        The topology builder already enforces pairwise coprimality, but
        the one-time check is re-run here by default (pass
        ``validated=True`` to skip it) — a context is long-lived, so a
        wrong assumption at construction would poison every encode.
        """
        return cls(sorted(graph.switch_ids().values()), **kwargs)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __contains__(self, switch_id: int) -> bool:
        return switch_id in self._weights

    def __len__(self) -> int:
        return len(self.pool)

    def covers(self, switch_ids: Iterable[int]) -> bool:
        """True iff every given switch ID is a member of the pool."""
        if isinstance(switch_ids, dict):
            # Residue maps land here from the failure-time hot path;
            # the keys-view subset test runs entirely in C.
            return switch_ids.keys() <= self._weights.keys()
        return all(s in self._weights for s in switch_ids)

    def weight(self, switch_id: int) -> int:
        """The CRT basis weight ``w_i = <M_i · L_i>_M`` of a member."""
        try:
            return self._weights[switch_id]
        except KeyError:
            raise CrtError(
                f"switch ID {switch_id} is not in this pool"
            ) from None

    # ------------------------------------------------------------------
    # subset contexts (cached partial products)
    # ------------------------------------------------------------------
    def subset(self, switch_ids: Sequence[int]) -> _SubsetContext:
        """The memoized encode context for one set of pool members.

        The cache key is order-independent (a route is a *set* of
        residues — Section 2.2's commutativity observation), so a
        path and its reverse share one context.
        """
        key = tuple(sorted(switch_ids))
        ctx = self._subsets.get(key)
        if ctx is not None:
            self.subset_hits += 1
            return ctx
        if not key:
            raise CrtError("cannot solve an empty CRT system")
        seen = set()
        for s in key:
            if s not in self._weights:
                raise CrtError(f"switch ID {s} is not in this pool")
            if s in seen:
                raise NotCoprimeError((s, s), s)
            seen.add(s)
        modulus = product_tree(key)
        weights = {s: self._weights[s] % modulus for s in key}
        ctx = _SubsetContext(key, modulus, weights)
        if len(self._subsets) >= DEFAULT_SUBSET_CACHE:
            self._subsets.clear()
            self._subsets_by_modulus.clear()
        self._subsets[key] = ctx
        self._subsets_by_modulus[modulus] = ctx
        self.subsets_built += 1
        return ctx

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def encode(
        self, residues: Sequence[int], moduli: Sequence[int]
    ) -> Tuple[int, int]:
        """Drop-in for :func:`repro.rns.crt.crt` over pool members.

        Returns the identical ``(R, M_S)`` pair the reference solver
        returns — the subset solution is unique in ``[0, M_S)``, and the
        dot product over reduced basis weights lands on exactly it.

        Raises:
            CrtError: on length mismatch, empty system, residue out of
                range, or a modulus outside the pool.
            NotCoprimeError: on a duplicated modulus (the only way a
                subset of a validated pool can fail coprimality).
        """
        if len(residues) != len(moduli):
            raise CrtError(
                f"residue/modulus length mismatch: "
                f"{len(residues)} vs {len(moduli)}"
            )
        ctx = self.subset(moduli)
        weights = ctx.weights
        total = 0
        for p, s in zip(residues, moduli):
            if not 0 <= p < s:
                raise CrtError(
                    f"residue {p} out of range for modulus {s}: "
                    f"a switch with ID {s} only has ports 0..{s - 1} "
                    f"addressable"
                )
            total += p * weights[s]
        return total % ctx.modulus, ctx.modulus

    # ------------------------------------------------------------------
    # incremental re-encode
    # ------------------------------------------------------------------
    def addend_weight(self, route, switch_id: int) -> int:
        """``w_i mod M_S`` for *switch_id* within *route*'s switch set.

        The one number a single-hop port change needs: the fresh route
        ID is ``R' = <R + (p' − p) · w_i>_{M_S}`` — the single changed
        addend of Eq. 4 — instead of a re-solve.  This is the
        failure-time fast path: a couple of dict lookups, independent of
        route length and pool size.  The subset context is found by the
        route's modulus (within one coprime pool, a subset's product
        determines the subset); a miss falls back to the keyed lookup
        and, for any valid route over pool members, primes the modulus
        index for the next call.

        Raises:
            CrtError: when the route's switches are not all pool
                members, or the route's modulus is inconsistent with
                its hop set.
        """
        ctx = self._subsets_by_modulus.get(route.modulus)
        if ctx is None or switch_id not in ctx.weights:
            ctx = self.subset(route.switch_ids)
            if ctx.modulus != route.modulus:
                raise CrtError(
                    f"route modulus {route.modulus} does not match the "
                    f"product of its hop switch IDs ({ctx.modulus}); "
                    f"refusing an incremental update on inconsistent state"
                )
        return ctx.weights[switch_id]
