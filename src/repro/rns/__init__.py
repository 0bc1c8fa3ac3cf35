"""Residue Number System route encoding — the core KAR contribution.

Public surface:

* :func:`repro.rns.crt.crt` and friends — CRT arithmetic: the one step
  :func:`~repro.rns.crt.crt_extend` and the solver that folds it.
* :class:`repro.rns.encoder.RouteEncoder` / :class:`~repro.rns.encoder.EncodedRoute`
  — (switch, port) hops ⇄ integer route IDs, with incremental updates.
* :mod:`repro.rns.coprime` — switch-ID pool generation/validation.
* :mod:`repro.rns.bitlength` — header-size analysis (Eq. 9, Table 1).
* :mod:`repro.rns.backends` — the backend registry (one encoder class
  per ring): the integer :class:`~repro.rns.encoder.RouteEncoder` and
  the carry-less :class:`~repro.rns.backends.XsrEncoder` built on
  :mod:`repro.rns.gf2`.
"""

from repro.rns.backends import (
    BACKEND_NAMES,
    XsrEncodedRoute,
    XsrEncoder,
    backend_by_name,
)
from repro.rns.bitlength import (
    bit_length_for_switches,
    route_id_bit_length,
)
from repro.rns.coprime import (
    greedy_coprime_pool,
    is_prime,
    min_id_for_ports,
    prime_pool,
    validate_pool,
)
from repro.rns.crt import (
    CrtError,
    NotCoprimeError,
    crt,
    first_noncoprime_pair,
    modular_inverse,
    pairwise_coprime,
)
from repro.rns.encoder import DuplicateSwitchError, EncodedRoute, Hop, RouteEncoder
from repro.rns.gf2 import (
    Gf2NotCoprimeError,
    dual_coprime_pool,
    gf2_crt,
    gf2_crt_extend,
    gf2_degree,
    gf2_mod,
    gf2_mul,
    gf2_pairwise_coprime,
    min_gf2_id_for_ports,
)

__all__ = [
    "crt",
    "modular_inverse",
    "pairwise_coprime",
    "first_noncoprime_pair",
    "CrtError",
    "NotCoprimeError",
    "Hop",
    "EncodedRoute",
    "RouteEncoder",
    "DuplicateSwitchError",
    "route_id_bit_length",
    "bit_length_for_switches",
    "prime_pool",
    "greedy_coprime_pool",
    "validate_pool",
    "is_prime",
    "min_id_for_ports",
    "XsrEncodedRoute",
    "XsrEncoder",
    "BACKEND_NAMES",
    "backend_by_name",
    "gf2_crt",
    "gf2_crt_extend",
    "gf2_degree",
    "gf2_mod",
    "gf2_mul",
    "gf2_pairwise_coprime",
    "dual_coprime_pool",
    "min_gf2_id_for_ports",
    "Gf2NotCoprimeError",
]
