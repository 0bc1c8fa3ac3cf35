"""Unit tests for the CRT arithmetic core."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rns import (
    CrtError,
    NotCoprimeError,
    crt,
    first_noncoprime_pair,
    modular_inverse,
    pairwise_coprime,
)
from repro.rns.crt import crt_extend, crt_fold


def egcd(a, b):
    """``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b)``: the Bézout
    loop ``modular_inverse`` ran before it moved onto the built-in
    ``pow(a, -1, m)``, kept as the reference it is held to."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def reference_crt(residues, moduli):
    """The Eq. 4 sum ``crt`` computed before it became a fold of
    ``crt_extend``, word for word: ``R = <sum p_i * M_i * L_i>_M``."""
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
    bad = first_noncoprime_pair(moduli)
    if bad is not None:
        raise NotCoprimeError(bad, math.gcd(*bad))
    M = math.prod(moduli)
    total = 0
    for p, s in zip(residues, moduli):
        M_i = M // s
        total += p * M_i * reference_inverse(M_i, s)
    return total % M, M


def reference_extend(route_id, modulus, switch_id, port):
    """``crt_extend`` before it became the fold's one-node case, word
    for word."""
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


def reference_inverse(a, modulus):
    """The pre-``pow`` ``modular_inverse``, word for word."""
    if modulus <= 0:
        raise CrtError(f"modulus must be positive, got {modulus}")
    g, x, _ = egcd(a % modulus, modulus)
    if g != 1:
        raise NotCoprimeError((a, modulus), g)
    return x % modulus


class TestEgcd:
    def test_identity(self):
        g, x, y = egcd(240, 46)
        assert g == math.gcd(240, 46)
        assert 240 * x + 46 * y == g

    def test_coprime_pair(self):
        g, x, y = egcd(44, 7)
        assert g == 1
        assert 44 * x + 7 * y == 1

    def test_zero_left(self):
        assert egcd(0, 5)[0] == 5

    def test_zero_right(self):
        assert egcd(5, 0)[0] == 5

    def test_equal_values(self):
        g, x, y = egcd(12, 12)
        assert g == 12
        assert 12 * x + 12 * y == 12

    def test_large_values(self):
        a, b = 2**200 + 1, 2**100 + 1
        g, x, y = egcd(a, b)
        assert a * x + b * y == g


class TestModularInverse:
    @pytest.mark.parametrize(
        "a,mod,expected",
        [
            (77, 4, 1),   # paper, unprotected example: L_1
            (44, 7, 4),   # L_2
            (28, 11, 2),  # L_3
            (385, 4, 1),  # paper, protected example
            (220, 7, 5),
            (140, 11, 7),
            (308, 5, 2),
        ],
    )
    def test_paper_inverses(self, a, mod, expected):
        assert modular_inverse(a, mod) == expected

    def test_inverse_property(self):
        for a in range(1, 50):
            for mod in (7, 11, 13, 29):
                if math.gcd(a, mod) == 1:
                    inv = modular_inverse(a, mod)
                    assert (inv * a) % mod == 1
                    assert 0 <= inv < mod

    def test_not_coprime_raises(self):
        with pytest.raises(NotCoprimeError) as exc:
            modular_inverse(6, 4)
        assert exc.value.gcd == 2

    def test_negative_a_normalised(self):
        assert (modular_inverse(-3, 7) * -3) % 7 == 1

    def test_bad_modulus(self):
        with pytest.raises(CrtError):
            modular_inverse(3, 0)
        with pytest.raises(CrtError):
            modular_inverse(3, -5)

    @given(
        a=st.integers(min_value=-(2**229), max_value=2**229),
        modulus=st.integers(min_value=-3, max_value=2**31),
    )
    def test_equals_the_bezout_reference(self, a, modulus):
        # Same value, or the same exception with the same fields and
        # text; ``pow`` alone would accept a negative modulus.
        try:
            want = reference_inverse(a, modulus)
        except CrtError as exc:
            with pytest.raises(type(exc)) as got:
                modular_inverse(a, modulus)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
            if isinstance(exc, NotCoprimeError):
                assert got.value.pair == exc.pair
                assert got.value.gcd == exc.gcd
        else:
            assert modular_inverse(a, modulus) == want


class TestPairwiseCoprime:
    def test_paper_pool(self):
        assert pairwise_coprime([4, 5, 7, 11])

    def test_four_is_fine_with_odd(self):
        # Paper: "Even though 4 is not a prime number, it can be used".
        assert pairwise_coprime([4, 7, 11, 9, 25])

    def test_shared_factor_detected(self):
        assert not pairwise_coprime([4, 6, 7])
        assert first_noncoprime_pair([4, 6, 7]) == (4, 6)

    def test_empty_and_singleton(self):
        assert pairwise_coprime([])
        assert pairwise_coprime([12])

    def test_first_pair_order(self):
        # Scans pairs in index order: (3,5), (3,10), (3,15) hits first.
        assert first_noncoprime_pair([3, 5, 10, 15]) == (3, 15)
        assert first_noncoprime_pair([7, 5, 10, 3]) == (5, 10)


class TestCrt:
    def test_paper_unprotected(self):
        r, m = crt([0, 2, 0], [4, 7, 11])
        assert (r, m) == (44, 308)

    def test_paper_protected(self):
        r, m = crt([0, 2, 0, 0], [4, 7, 11, 5])
        assert (r, m) == (660, 1540)

    def test_residues_recovered(self):
        residues, moduli = [1, 3, 5, 0], [4, 7, 11, 9]
        r, m = crt(residues, moduli)
        assert [r % s for s in moduli] == residues
        assert 0 <= r < m

    def test_single_congruence(self):
        assert crt([3], [7]) == (3, 7)

    def test_order_independent(self):
        # The paper's key commutativity observation (Section 2.2).
        r1, _ = crt([0, 2, 0, 0], [4, 7, 11, 5])
        r2, _ = crt([0, 0, 2, 0], [5, 4, 7, 11])
        assert r1 == r2

    def test_length_mismatch(self):
        with pytest.raises(CrtError, match="mismatch"):
            crt([1, 2], [7])

    def test_empty_system(self):
        with pytest.raises(CrtError, match="empty"):
            crt([], [])

    def test_residue_out_of_range(self):
        with pytest.raises(CrtError, match="out of range"):
            crt([7], [7])
        with pytest.raises(CrtError, match="out of range"):
            crt([-1], [7])

    def test_non_coprime_moduli(self):
        with pytest.raises(NotCoprimeError):
            crt([1, 1], [6, 4])
        # The fold trips on 6 (shares 2 with 7*4); the error still names
        # the first clashing pair in argument order.
        with pytest.raises(NotCoprimeError) as exc:
            crt([0, 0, 0, 0], [7, 4, 6, 9])
        assert (exc.value.pair, exc.value.gcd) == ((4, 6), 2)

    def test_modulus_one_rejected(self):
        with pytest.raises(CrtError):
            crt([0, 0], [1, 5])

    @given(
        st.lists(
            st.tuples(st.integers(-1, 40), st.integers(-1, 40)), max_size=6
        ),
        st.booleans(),
    )
    def test_equals_the_eq4_sum_on_any_system(self, system, ragged):
        # Same (R, M), or the same exception with the same fields and
        # text: mostly ragged, duplicate, non-coprime and out-of-range
        # systems — the error paths.
        residues = [p for p, _ in system]
        moduli = [s for _, s in system]
        if ragged:
            residues = residues[1:]
        try:
            want = reference_crt(residues, moduli)
        except CrtError as exc:
            with pytest.raises(type(exc)) as got:
                crt(residues, moduli)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
            if isinstance(exc, NotCoprimeError):
                assert (got.value.pair, got.value.gcd) == (exc.pair, exc.gcd)
        else:
            assert crt(residues, moduli) == want

    @given(st.lists(st.sampled_from(
        [4, 5, 7, 9, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    ), min_size=1, max_size=12, unique=True), st.data())
    def test_equals_the_eq4_sum_on_coprime_systems(self, moduli, data):
        residues = [data.draw(st.integers(0, s - 1)) for s in moduli]
        assert crt(residues, moduli) == reference_crt(residues, moduli)


PRIMES = [p for p in range(3, 400) if all(p % q for q in range(2, p))]


@st.composite
def solved_roots(draw):
    """A solved system ``(R, M)`` to extend from: the empty one or one
    whose modulus has over 200 bits and no factor in ``PRIMES``."""
    if draw(st.booleans()):
        return 0, 1
    modulus = draw(st.integers(min_value=2**200, max_value=2**260))
    while math.gcd(modulus, math.prod(PRIMES)) != 1:
        modulus += 1
    return draw(st.integers(min_value=0, max_value=modulus - 1)), modulus


class TestCrtFold:
    """The one CRT step over a parent array, held to a chain of the old
    ``crt_extend``."""

    @given(solved_roots(), st.lists(
        st.integers(min_value=2, max_value=2**230), min_size=1, max_size=12,
    ), st.data())
    def test_chain_equals_extends(self, root, drawn, data):
        moduli, product = [], root[1]
        for s in drawn:  # keep those coprime to the system so far
            if math.gcd(s, product) == 1:
                moduli.append(s)
                product *= s
        ports = [data.draw(st.integers(0, s - 1)) for s in moduli]
        k = len(moduli)
        ids, mods = [root[0]] + [None] * k, [root[1]] + [None] * k
        crt_fold(ids, mods, range(1, k + 1), moduli, ports, range(k))
        want = [root]
        for s, p in zip(moduli, ports):
            want.append(reference_extend(*want[-1], s, p))
        assert list(zip(ids, mods)) == want

    @given(solved_roots(), st.integers(min_value=1, max_value=30), st.data())
    def test_tree_in_bfs_order_equals_extends(self, root, size, data):
        # Node 0 is the root; distinct primes keep every chain coprime.
        parent = [-1] + [data.draw(st.integers(0, i - 1))
                         for i in range(1, size + 1)]
        depth = [0]
        for i in range(1, size + 1):
            depth.append(depth[parent[i]] + 1)
        order = sorted(range(1, size + 1), key=lambda x: (depth[x], x))
        sids = data.draw(st.permutations(PRIMES))[:size + 1]
        ports = [data.draw(st.integers(0, s - 1)) for s in sids]
        ids, mods = [None] * (size + 1), [None] * (size + 1)
        ids[0], mods[0] = root
        crt_fold(ids, mods, order, [sids[x] for x in order],
                 [ports[x] for x in order], [parent[x] for x in order])
        want = {0: root}
        for x in order:
            want[x] = reference_extend(*want[parent[x]], sids[x], ports[x])
        assert list(zip(ids, mods)) == [want[x] for x in range(size + 1)]

    def test_shared_factor_names_the_parent_modulus_and_switch(self):
        ids, mods = [0, None, None, None], [1, None, None, None]
        with pytest.raises(NotCoprimeError) as exc:
            crt_fold(ids, mods, [1, 2, 3], [4, 7, 6], [1, 2, 3], [0, 1, 2])
        assert (exc.value.pair, exc.value.gcd) == ((28, 6), 2)
        # The nodes before the clash stay solved.
        assert (ids[2], mods[2]) == reference_extend(1, 4, 7, 2)
        assert ids[3] is None

    def test_extend_is_the_one_node_fold(self):
        assert crt_extend(44, 308, 5, 0) == (660, 1540)
        with pytest.raises(NotCoprimeError) as exc:
            crt_extend(3, 4, 6, 1)
        assert (exc.value.pair, exc.value.gcd) == ((4, 6), 2)
        with pytest.raises(CrtError, match="out of range"):
            crt_extend(3, 4, 7, 7)
        with pytest.raises(CrtError, match="must be > 1"):
            crt_extend(0, 1, 1, 0)
