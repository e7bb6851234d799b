import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sullivan.algebra import DEFAULT_BASIS_CAP, Element, FreeGradedAlgebra, Generator
from sullivan.calculus import Morphism
from sullivan.errors import AlgebraMismatch, BasisSizeExceeded, NameClash, UnknownGenerator

from helpers import algebra_v2_w3, algebra_v3_sv2, algebra_yz3, brute_force_basis_count, koszul_sorted


# -- products of generators ----------------------------------------------------


def test_even_factor_commutes_freely():
    alg = algebra_v2_w3()  # |x|=2 written v, |y|=3 written w
    v, w = alg.gen("v"), alg.gen("w")
    assert str(w * v) == "v*w"
    assert w * v == v * w


def test_odd_odd_swap_changes_sign():
    alg = algebra_yz3()
    y, z = alg.gen("y"), alg.gen("z")
    assert str(y * z) == "y*z"
    assert str(z * y) == "-y*z"
    assert z * y == -(y * z)


def test_exterior_square_is_zero():
    alg = algebra_yz3()
    assert (alg.gen("y") * alg.gen("y")).is_zero()


def test_normalize_unknown_generator():
    alg = algebra_yz3()
    with pytest.raises(UnknownGenerator):
        alg.gen("y") * alg.gen("nope")


def test_normalize_is_idempotent_on_canonical_words():
    alg = FreeGradedAlgebra(
        [Generator("a", 2), Generator("b", 3), Generator("c", 3), Generator("e", 4)]
    )
    degrees = [g.degree for g in alg.generators]
    for basis in alg.bases(12)[1:]:
        for word in basis:
            letters = [i for i, exp in word for _ in range(exp)]
            product = alg.one()
            for i in letters:
                product = product * alg.gen(alg.generators[i].name)
            assert product == Element(alg, {word: Fraction(1)})
            assert koszul_sorted(degrees, letters) == (word, 1)


# -- multiply -------------------------------------------------------------------


def test_square_of_even_generator():
    alg = algebra_v3_sv2()
    sv = alg.gen("sv")
    assert (sv * sv) == Element(alg, {((0, 2),): Fraction(1)})  # sv, of degree 2, comes first
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
    for n, basis in enumerate(alg.bases(24)):
        expected = 0 if n == 1 else 1
        assert len(basis) == expected


def test_basis_matches_brute_force_enumeration():
    degrees = [2, 3, 3, 4, 5]
    alg = FreeGradedAlgebra([Generator(f"g{i}", d) for i, d in enumerate(degrees)])
    for n, basis in enumerate(alg.bases(14)):
        assert len(basis) == brute_force_basis_count(degrees, n)


def test_basis_is_duplicate_free_and_graded():
    alg = FreeGradedAlgebra([Generator("a", 2), Generator("b", 3), Generator("c", 7)])
    for n, words in enumerate(alg.bases(15)):
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
    if cap is None:
        cap = 10**6  # above every basis here: degree 22 over six generators has at most C(16, 5) words
    alg = FreeGradedAlgebra([Generator(f"g{i}", d) for i, d in enumerate(degrees)])
    oracle = FreeGradedAlgebra(alg.generators)
    expected = _window_bases(_recursive_basis, oracle, top, cap)
    got = _window_bases(lambda a, n, c: a.basis_in_degree(n, cap=c), alg, top, cap)
    assert got == expected
    # one call lists the whole walk, or refuses the degree the walk stops at
    try:
        assert (list(alg.bases(top, cap)), None) == expected
    except BasisSizeExceeded as exc:
        assert (exc.degree, exc.size) == expected[1]
    # a later call for any single degree sees the same words and the same cap
    for n in (top, top // 2, -1):
        assert alg.basis_in_degree(n) == _recursive_basis(oracle, n)


def _refusal_peak(call):
    """The traced peak, in bytes, of a call that raises `BasisSizeExceeded`, with the error."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(BasisSizeExceeded) as info:
            call()
        return tracemalloc.get_traced_memory()[1] - base, info.value
    finally:
        tracemalloc.stop()


def test_basis_cap_names_lowest_degree_over_cap_before_building_higher():
    alg = FreeGradedAlgebra([Generator("a", 2), Generator("b", 2), Generator("c", 3)])
    with pytest.raises(BasisSizeExceeded) as info:
        [alg.basis_in_degree(n, cap=3) for n in range(40)]
    expected = next(n for n in range(40) if len(_recursive_basis(alg, n)) > 3)
    assert (info.value.degree, info.value.size) == (expected, len(_recursive_basis(alg, expected)))
    # degrees 0..600 hold 90 301 words, about 6 MB; refusing them builds no word
    peak, error = _refusal_peak(lambda: alg.bases(600, cap=3))
    assert (error.degree, error.size) == (info.value.degree, info.value.size)
    assert peak < 2**20, peak


def test_basis_cap_is_checked_before_listing():
    # 100 generators of degree 100: C(101, 2) = 5050 words in degree 200 and
    # C(102, 3) = 171 700 in degree 300, counted and refused without a table
    alg = FreeGradedAlgebra([Generator(f"g{i}", 100) for i in range(100)])
    assert len(alg.basis_in_degree(200, cap=5050)) == 5050
    peak, error = _refusal_peak(lambda: alg.basis_in_degree(300, cap=5050))
    assert (error.degree, error.size, error.cap) == (300, 171700, 5050)
    assert peak < 2**20, peak  # listing the 171 700 words would take over 10 MB
    # with no cap given, the default one holds: 700 degree-2 generators have
    # C(701, 2) = 245 350 words in degree 4
    wide = FreeGradedAlgebra([Generator(f"g{i}", 2) for i in range(700)])
    peak, error = _refusal_peak(lambda: wide.basis_in_degree(4))
    assert (error.degree, error.size, error.cap) == (4, 245350, DEFAULT_BASIS_CAP)
    assert peak < 2**20, peak


def test_basis_of_even_sphere_to_high_degree():
    alg = algebra_v2_w3()
    # v^a w^b with 2a + 3b = n and b <= 1: one word in every degree but 1
    assert [len(basis) for basis in alg.bases(1001)] == [1, 0] + [1] * 1000
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


# -- property-based checks -------------------------------------------------------------


_PROP_ALGEBRA = FreeGradedAlgebra(
    [Generator("a", 2), Generator("b", 3), Generator("c", 3), Generator("e", 4), Generator("f", 5)]
)


@st.composite
def homogeneous_monomials(draw, max_degree=14):
    bases = _PROP_ALGEBRA.bases(max_degree)
    n = draw(st.sampled_from([n for n, basis in enumerate(bases) if basis]))
    word = draw(st.sampled_from(bases[n]))
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


def test_elements_are_unhashable():
    e = algebra_v2_w3().gen("v")
    with pytest.raises(TypeError, match="unhashable type: 'Element'"):
        hash(e)
    with pytest.raises(TypeError, match="unhashable type: 'Element'"):
        {e}


def test_subtraction_is_adding_the_negative():
    alg = algebra_v2_w3()
    a, b = alg.gen("v") ** 3 + alg.gen("v") * alg.gen("w"), 2 * alg.gen("v") ** 3
    assert a - b == a + -b == alg.gen("v") * alg.gen("w") - alg.gen("v") ** 3
    with pytest.raises(TypeError):
        a - 1
    with pytest.raises(AlgebraMismatch):
        a - algebra_yz3().gen("y")


def test_a_scalar_is_an_int_or_a_fraction():
    v = algebra_v2_w3().gen("v")
    for product in (lambda: v * 0.5, lambda: 0.5 * v, lambda: v * "x", lambda: "x" * v):
        with pytest.raises(TypeError):
            product()
    half, triple = v * Fraction(1, 2), 3 * v
    assert [type(c) for c in half.terms.values()] == [Fraction] and half.terms == {((0, 1),): Fraction(1, 2)}
    assert [type(c) for c in triple.terms.values()] == [int] and (v * 3).terms == triple.terms == {((0, 1),): 3}


def test_a_duplicate_generator_name_is_refused():
    with pytest.raises(NameClash, match="^duplicate generator name 'x'$"):
        FreeGradedAlgebra([Generator("x", 3), Generator("y", 2), Generator("x", 2)])


def test_canonical_order_ignores_insertion_order():
    forward = FreeGradedAlgebra([Generator("v", 2), Generator("w", 3)])
    backward = FreeGradedAlgebra([Generator("w", 3), Generator("v", 2)])
    assert forward == backward
    assert forward.basis_in_degree(8) == backward.basis_in_degree(8)


def test_inclusion_preserves_elements():
    small = algebra_v2_w3()
    big = FreeGradedAlgebra(
        [Generator("v", 2), Generator("w", 3), Generator("u", 1), Generator("t", 9)]
    )
    e = 2 * small.gen("v") ** 2 - small.gen("w") * small.gen("v")
    moved = Morphism.inclusion(small, big)(e)
    assert str(moved) == str(e)
    assert moved == 2 * big.gen("v") ** 2 - big.gen("w") * big.gen("v")
    assert moved.algebra == big
    with pytest.raises(UnknownGenerator):
        Morphism.inclusion(big, small)
