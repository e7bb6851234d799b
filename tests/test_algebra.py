from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sullivan.algebra import Element, FreeGradedAlgebra, Generator, monomial, transport
from sullivan.errors import AlgebraMismatch, BasisSizeExceeded, UnknownGenerator

from helpers import algebra_v2_w3, algebra_v3_sv2, algebra_yz3, brute_force_basis_count


# -- normalize_monomial -------------------------------------------------------


def test_even_factor_commutes_freely():
    alg = algebra_v2_w3()  # |x|=2 written v, |y|=3 written w
    word, sign = alg.normalize_monomial(["w", "v"])
    assert alg.word_str(word) == "v*w"
    assert sign == 1


def test_odd_odd_swap_changes_sign():
    alg = algebra_yz3()
    word, sign = alg.normalize_monomial(["y", "z"])
    assert alg.word_str(word) == "y*z" and sign == 1
    word, sign = alg.normalize_monomial(["z", "y"])
    assert alg.word_str(word) == "y*z" and sign == -1


def test_exterior_square_is_zero():
    alg = algebra_yz3()
    assert alg.normalize_monomial(["y", "y"]) is None
    assert monomial(alg, ["y", "y"]).is_zero()


def test_normalize_unknown_generator():
    alg = algebra_yz3()
    with pytest.raises(UnknownGenerator):
        alg.normalize_monomial(["y", "nope"])


def test_normalize_is_idempotent_on_canonical_words():
    alg = FreeGradedAlgebra(
        [Generator("a", 2), Generator("b", 3), Generator("c", 3), Generator("e", 4)]
    )
    for n in range(1, 13):
        for word in alg.basis_in_degree(n):
            flat = []
            for i, exp in word:
                flat.extend([alg.generators[i].name] * exp)
            renorm = alg.normalize_monomial(flat)
            assert renorm == (word, 1)


# -- multiply -------------------------------------------------------------------


def test_square_of_even_generator():
    alg = algebra_v3_sv2()
    sv = alg.gen("sv")
    assert (sv * sv) == monomial(alg, ["sv", "sv"])
    assert not (sv * sv).is_zero()


def test_multiplication_is_bilinear():
    alg = FreeGradedAlgebra([Generator("v1", 3), Generator("v2", 3), Generator("sv", 2)])
    v1, v2, sv = alg.gen("v1"), alg.gen("v2"), alg.gen("sv")
    assert (v1 + v2) * sv == v1 * sv + v2 * sv


def test_triple_product_with_repeat_is_zero():
    # oracle: expand by hand, (y z) y = -(y y) z = 0 by the exterior law
    alg = algebra_yz3()
    y, z = alg.gen("y"), alg.gen("z")
    assert ((y * z) * y).is_zero()
    assert (y * (z * y)).is_zero()


def test_multiply_rejects_mixed_algebras():
    with pytest.raises(AlgebraMismatch):
        algebra_yz3().gen("y") * algebra_v2_w3().gen("v")


# -- basis enumeration ------------------------------------------------------------


def test_basis_single_odd_generator():
    alg = FreeGradedAlgebra([Generator("v", 3)])
    assert [alg.word_str(w) for w in alg.basis_in_degree(3)] == ["v"]
    assert alg.basis_in_degree(6) == ()


def test_basis_degree_seven_mixed():
    # oracle: by hand, 3a+2b=7 with a<=1 forces a=1, b=2
    alg = algebra_v3_sv2()
    assert [alg.word_str(w) for w in alg.basis_in_degree(7)] == ["sv^2*v"]


def test_basis_degree_eight_truncated_poly_shape():
    # oracle: hand enumeration, w odd so w^2=0; 8 = 2*4 is the only solution
    alg = algebra_v2_w3()
    assert [alg.word_str(w) for w in alg.basis_in_degree(8)] == ["v^4"]


def test_basis_counts_v3_sv2_are_one_off_degree_one():
    alg = algebra_v3_sv2()
    for n in range(0, 25):
        expected = 0 if n == 1 else 1
        assert len(alg.basis_in_degree(n)) == expected


def test_basis_matches_brute_force_enumeration():
    degrees = [2, 3, 3, 4, 5]
    alg = FreeGradedAlgebra([Generator(f"g{i}", d) for i, d in enumerate(degrees)])
    for n in range(0, 15):
        assert len(alg.basis_in_degree(n)) == brute_force_basis_count(degrees, n)


def test_basis_is_duplicate_free_and_graded():
    alg = FreeGradedAlgebra([Generator("a", 2), Generator("b", 3), Generator("c", 7)])
    for n in range(0, 16):
        words = alg.basis_in_degree(n)
        assert len(set(words)) == len(words)
        assert all(alg.word_degree(w) == n for w in words)


def _recursive_basis(alg, n, cap=None):
    """Reference enumerator: recurse over every exponent of every generator."""
    if n < 0:
        return ()
    out = []
    gens = alg.generators
    acc = []

    def rec(i, remaining):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if i == len(gens):
            return
        d = gens[i].degree
        rec(i + 1, remaining)
        max_e = 1 if d % 2 else remaining // d
        for e in range(1, max_e + 1):
            if e * d > remaining:
                break
            acc.append((i, e))
            rec(i + 1, remaining - e * d)
            acc.pop()

    rec(0, n)
    if cap is not None and len(out) > cap:
        raise BasisSizeExceeded(n, len(out), cap)
    return tuple(out)


def _window_bases(enumerate_basis, alg, top, cap):
    """Bases of degrees 0..top in ascending order, as assemble_window asks
    for them; a cap overflow ends the walk with (degree, size)."""
    bases = []
    for n in range(top + 1):
        try:
            bases.append(enumerate_basis(alg, n, cap))
        except BasisSizeExceeded as exc:
            return bases, (exc.degree, exc.size)
    return bases, None


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=7), min_size=0, max_size=6),
    st.integers(min_value=0, max_value=22),
    st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
)
def test_basis_matches_recursive_oracle(degrees, top, cap):
    alg = FreeGradedAlgebra([Generator(f"g{i}", d) for i, d in enumerate(degrees)])
    oracle = FreeGradedAlgebra(alg.generators)
    got = _window_bases(lambda a, n, c: a.basis_in_degree(n, cap=c), alg, top, cap)
    assert got == _window_bases(_recursive_basis, oracle, top, cap)
    # a later call for any single degree sees the same words and the same cap
    for n in (top, top // 2, -1):
        assert alg.basis_in_degree(n) == _recursive_basis(oracle, n)


def test_basis_cap_names_lowest_degree_over_cap_before_building_higher():
    alg = FreeGradedAlgebra([Generator("a", 2), Generator("b", 2), Generator("c", 3)])
    with pytest.raises(BasisSizeExceeded) as info:
        [alg.basis_in_degree(n, cap=3) for n in range(40)]
    expected = next(n for n in range(40) if len(_recursive_basis(alg, n)) > 3)
    assert (info.value.degree, info.value.size) == (expected, len(_recursive_basis(alg, expected)))
    assert len(alg._basis_cache[0]) == expected + 1


def test_basis_of_even_sphere_to_high_degree():
    alg = algebra_v2_w3()
    # v^a w^b with 2a + 3b = n and b <= 1: one word in every degree but 1
    assert [len(alg.basis_in_degree(n)) for n in range(1002)] == [1, 0] + [1] * 1000
    assert [alg.word_str(w) for w in alg.basis_in_degree(1001)] == ["v^499*w"]


# -- powers ------------------------------------------------------------------------


def test_power_equals_repeated_multiplication():
    alg = FreeGradedAlgebra([Generator("a", 2), Generator("b", 3), Generator("c", 4)])
    a, b, c = alg.gen("a"), alg.gen("b"), alg.gen("c")
    for x in (a, a + b, Fraction(3, 2) * a - b + 2 * c, a * b + c, b, a * a - 3 * c + b):
        product = alg.one()
        for e in range(9):
            assert x**e == product
            product = product * x


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        algebra_v2_w3().gen("v") ** -1


def test_large_power_of_monomial_is_fast():
    alg = algebra_v2_w3()
    assert (alg.gen("v") ** 100000000).terms == {((0, 100000000),): 1}


# -- wordlength ---------------------------------------------------------------------


def test_wordlength_split_examples():
    alg = algebra_v2_w3()
    v = alg.gen("v")
    e = v * v + v
    assert e.wordlength_split(2) == v * v
    assert e.wordlength_split(1) == v
    assert alg.one().wordlength_split(0) == alg.one()


def test_wordlength_split_of_relation():
    # d(w) = v^(n+1) sits in wordlength n+1
    alg = algebra_v2_w3()
    n = 3
    dw = alg.gen("v") ** (n + 1)
    assert dw.wordlength_split(n + 1) == dw
    assert dw.wordlength_split(n).is_zero()


def test_wordlength_split_partition():
    alg = algebra_yz3()
    e = alg.one() + alg.gen("y") + 2 * (alg.gen("y") * alg.gen("z"))
    total = alg.zero()
    for k in range(0, 4):
        total = total + e.wordlength_split(k)
    assert total == e


# -- property-based checks -------------------------------------------------------------


_PROP_ALGEBRA = FreeGradedAlgebra(
    [Generator("a", 2), Generator("b", 3), Generator("c", 3), Generator("e", 4), Generator("f", 5)]
)


@st.composite
def homogeneous_monomials(draw, max_degree=14):
    degrees = [n for n in range(max_degree + 1) if _PROP_ALGEBRA.basis_in_degree(n)]
    n = draw(st.sampled_from(degrees))
    word = draw(st.sampled_from(_PROP_ALGEBRA.basis_in_degree(n)))
    return Element(_PROP_ALGEBRA, {word: Fraction(1)})


@given(homogeneous_monomials(), homogeneous_monomials())
def test_graded_commutativity(a, b):
    sign = -1 if (a.degree() * b.degree()) % 2 else 1
    assert a * b == (b * a) * sign


@settings(max_examples=60)
@given(homogeneous_monomials(), homogeneous_monomials(), homogeneous_monomials())
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(homogeneous_monomials())
def test_unit_is_neutral(a):
    one = _PROP_ALGEBRA.one()
    assert one * a == a and a * one == a


# -- element bookkeeping -------------------------------------------------------------


def test_degree_of_heterogeneous_element_raises():
    alg = algebra_v2_w3()
    e = alg.gen("v") + alg.gen("w")
    assert not e.is_homogeneous()
    with pytest.raises(ValueError):
        e.degree()
    assert alg.zero().degree() is None


def test_no_zero_coefficients_survive():
    alg = algebra_yz3()
    y = alg.gen("y")
    assert (y - y).terms == {}
    assert (y - y).is_zero()


def test_canonical_order_ignores_insertion_order():
    forward = FreeGradedAlgebra([Generator("v", 2), Generator("w", 3)])
    backward = FreeGradedAlgebra([Generator("w", 3), Generator("v", 2)])
    assert forward == backward
    assert forward.basis_in_degree(8) == backward.basis_in_degree(8)


def test_transport_preserves_elements():
    small = algebra_v2_w3()
    big = FreeGradedAlgebra(
        [Generator("v", 2), Generator("w", 3), Generator("u", 1), Generator("t", 9)]
    )
    e = 2 * small.gen("v") ** 2 - small.gen("w") * small.gen("v")
    moved = transport(e, big)
    assert str(moved) == str(e)
    assert moved.algebra == big
    with pytest.raises(UnknownGenerator):
        transport(big.gen("u"), small)
