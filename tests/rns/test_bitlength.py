"""Unit tests for route-ID size analysis (Eq. 9, Table 1)."""

import math

import pytest

from repro.rns import bit_length_for_switches, route_id_bit_length


class TestRouteIdBitLength:
    def test_matches_float_formula(self):
        # Eq. 9: ceil(log2(M - 1)) — cross-check against floating point
        # on moduli small enough for exact float logs.
        for m in range(3, 5000):
            assert route_id_bit_length(m) == math.ceil(math.log2(m - 1))

    def test_degenerate_modulus_two(self):
        assert route_id_bit_length(2) == 1

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            route_id_bit_length(1)

    def test_huge_modulus_exact(self):
        # Power-of-two boundaries where float log2 goes wrong.
        m = 2**300
        assert route_id_bit_length(m) == 300
        assert route_id_bit_length(m + 1) == 300
        assert route_id_bit_length(m + 2) == 301


class TestTableOne:
    """Table 1 of the paper, from the raw switch-ID sets."""

    def test_unprotected_row(self):
        assert bit_length_for_switches([10, 7, 13, 29]) == 15

    def test_partial_row(self):
        assert bit_length_for_switches([10, 7, 13, 29, 11, 23, 31]) == 28

    def test_full_row(self):
        assert bit_length_for_switches(
            [10, 7, 13, 29, 11, 23, 31, 17, 37, 41]
        ) == 43

    def test_six_node_examples(self):
        assert bit_length_for_switches([4, 7, 11]) == 9
        assert bit_length_for_switches([4, 7, 11, 5]) == 11
