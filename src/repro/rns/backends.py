"""The encoding-backend registry and the GF(2)[X] ring.

Every place the repo turns ``(switch, port)`` hops into a route ID —
controller, verify oracles, analysis walks, benches — holds one encoder
object, and there is one encoder class per ring:

* ``crt`` — :class:`~repro.rns.encoder.RouteEncoder`, the integer CRT
  (:func:`~repro.rns.crt.crt`, the one step
  :func:`~repro.rns.crt.crt_fold` down a chain);
* ``xsr`` — :class:`XsrEncoder`, XOR-based Source Routing: the same CRT
  template over GF(2)[X] (:mod:`repro.rns.gf2`).  A genuinely different
  datapath — switch decode is a carry-less shift/XOR remainder, not an
  integer modulo — with exact ``deg(M)`` header cost instead of Eq. 9's
  ceiling.

A ring pins down five primitives (``solve``, ``extend``, ``port_at``,
``exact_div``, ``header_bits``) plus its ID-feasibility rules
(``min_switch_id``, ``validate_switch_ids``, ``residue_space``) that the
``controller.idassign`` strategies and the property suite enforce;
``encode`` / ``decode`` / ``with_hop`` / ``without_switch`` /
``with_port`` are inherited.  ``docs/encoding.md`` walks through adding
a third ring.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence, Tuple, Type

from repro.rns.coprime import min_id_for_ports, validate_pool
from repro.rns.crt import CrtError
from repro.rns.encoder import EncodedRoute, RouteEncoder
from repro.rns.gf2 import (
    gf2_crt,
    gf2_crt_extend,
    gf2_degree,
    gf2_divmod,
    gf2_first_noncoprime_pair,
    gf2_mod,
    min_gf2_id_for_ports,
)

__all__ = [
    "XsrEncodedRoute",
    "XsrEncoder",
    "BACKEND_NAMES",
    "backend_by_name",
    "resolve_backend_name",
]


class XsrEncodedRoute(EncodedRoute):
    """An XSR route: same fields, carry-less decode and exact bit cost.

    ``residue_map()`` (the edge-to-switch fast-path hint) is inherited
    unchanged — it is built from the hops, not from the arithmetic, so
    the residue-hint datapath works identically under XSR.
    """

    def port_at(self, switch_id: int) -> int:
        """XSR switch decode: polynomial remainder, not integer modulo."""
        return gf2_mod(self.route_id, switch_id)

    @property
    def bit_length(self) -> int:
        """Header bits = deg(M): exact, no per-route ceiling loss."""
        return gf2_degree(self.modulus)


class XsrEncoder(RouteEncoder):
    """XOR-based Source Routing — :class:`RouteEncoder` over GF(2)[X].

    Every integer primitive is swapped for its carry-less twin from
    :mod:`repro.rns.gf2`; the encode / decode / incremental-update
    template is the base class's, untouched — so :meth:`with_port` is
    one ``gf2_crt_extend``, never a re-solve.
    """

    name = "xsr"
    id_strategy = "xsr"
    route_type = XsrEncodedRoute

    solve = staticmethod(gf2_crt)
    extend = staticmethod(gf2_crt_extend)
    port_at = staticmethod(gf2_mod)
    header_bits = staticmethod(gf2_degree)

    @staticmethod
    def exact_div(modulus: int, switch_id: int) -> int:
        quotient, rem = gf2_divmod(modulus, switch_id)
        if rem:
            raise CrtError(
                f"modulus is not GF(2)-divisible by switch ID {switch_id}"
            )
        return quotient

    def min_switch_id(self, port_count: int) -> int:
        # Dual constraint: PortGraph keeps the integer invariant
        # (ID >= port count) AND the polynomial remainder space must
        # cover every port index.
        return max(min_id_for_ports(port_count), min_gf2_id_for_ports(port_count))

    def residue_space(self, switch_id: int) -> int:
        return 1 << gf2_degree(switch_id)

    def validate_switch_ids(self, ids: Sequence[int]) -> None:
        validate_pool(ids)  # integer invariant still holds graph-wide
        bad = gf2_first_noncoprime_pair(ids)
        if bad is not None:
            raise ValueError(
                f"switch IDs {bad[0]} and {bad[1]} are not coprime as "
                f"binary polynomials; XSR needs GF(2)-pairwise-coprime IDs "
                f"(use the 'xsr' idassign strategy)"
            )

    def switch_decode(self):
        return self.port_at


_ENCODERS: Dict[str, Type[RouteEncoder]] = {
    cls.name: cls for cls in (RouteEncoder, XsrEncoder)
}

#: Registry names, sorted — every CLI choice list, bench matrix and
#: oracle loop derives from this tuple.
BACKEND_NAMES: Tuple[str, ...] = tuple(sorted(_ENCODERS))


def _encoder_class(name: str) -> Type[RouteEncoder]:
    try:
        return _ENCODERS[name]
    except KeyError:
        raise ValueError(
            f"unknown encoding backend {name!r}; "
            f"choose from {sorted(_ENCODERS)}"
        ) from None


def resolve_backend_name(backend: Optional[str] = "env") -> Optional[str]:
    """Validate a backend name, resolving the ``"env"`` sentinel.

    ``"env"`` reads the ``REPRO_BACKEND`` environment variable (unset or
    empty means None, the default integer datapath), so a whole figure
    pipeline can be swept under e.g. XSR without touching its modules.
    This is the one place the variable is read; an unknown name fails
    here — at spec-build time — instead of running under a default.

    >>> resolve_backend_name("xsr")
    'xsr'
    >>> resolve_backend_name("pooled")
    Traceback (most recent call last):
        ...
    ValueError: unknown encoding backend 'pooled'; choose from ['crt', 'xsr']
    """
    if backend == "env":
        backend = os.environ.get("REPRO_BACKEND") or None
    if backend is not None:
        _encoder_class(backend)
    return backend


def backend_by_name(name: str) -> RouteEncoder:
    """A fresh encoder for the ring registered under *name*, one of
    :data:`BACKEND_NAMES`.

    >>> backend_by_name("xsr").name
    'xsr'
    >>> backend_by_name("nope")
    Traceback (most recent call last):
        ...
    ValueError: unknown encoding backend 'nope'; choose from ['crt', 'xsr']
    """
    return _encoder_class(name)()
