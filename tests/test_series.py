import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sullivan.calculus import loop_model, rename_generators, tensor_cdga
from sullivan.errors import DIGIT_LIMIT, PoleAtZero, RationalFormError
from sullivan.homology import betti
from sullivan.series import (
    RationalFunctionForm,
    expand_rational,
    parse_rational,
)

from helpers import cauchy_product, even_sphere_model, s3_model, s3s3_model


# -- series from reports -----------------------------------------------------------


def test_series_of_s3_loop():
    assert betti(loop_model(s3_model()), 10).betti == (1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1)


def test_series_of_even_sphere():
    # H vanishes beyond the top class
    assert betti(even_sphere_model(1), 8).betti == (1, 0, 1, 0, 0, 0, 0, 0, 0)


def test_series_of_trivial_algebra():
    from sullivan.algebra import FreeGradedAlgebra
    from sullivan.calculus import CDGA

    assert betti(CDGA(FreeGradedAlgebra([])), 6).betti == (1, 0, 0, 0, 0, 0, 0)


def test_series_of_s3s3_loop():
    assert betti(loop_model(s3s3_model()), 8).betti == (1, 0, 2, 2, 3, 4, 5, 6, 7)


# -- products --------------------------------------------------------------------------


def test_cauchy_product_against_long_division():
    # (1+z^3) * 1/(1-z) == (1+z^3)/(1-z)
    numerator = (1, 0, 0, 1, 0, 0, 0, 0, 0)
    geometric = expand_rational(RationalFunctionForm((1,), (1, -1)), 8)
    product = cauchy_product(numerator, geometric)
    direct = expand_rational(RationalFunctionForm((1, 0, 0, 1), (1, -1)), 8)
    assert product == direct


def test_squared_loop_series_is_product_series():
    s3_series = betti(loop_model(s3_model()), 12).betti
    squared = cauchy_product(s3_series, s3_series)
    s3s3_series = betti(loop_model(s3s3_model()), 12).betti
    assert squared == s3s3_series


def test_multiplication_by_one():
    series = (1, 2, 3, 4)
    one = (1, 0, 0, 0)
    assert cauchy_product(series, one) == series


def test_kunneth_on_even_sphere_product():
    # oracle: direct cohomology of the tensor model
    left = even_sphere_model(1)
    right = rename_generators(left, {"v": "p", "w": "q"})
    tensor = tensor_cdga(left, right)
    direct = betti(tensor, 10).betti
    factor = betti(left, 10).betti
    assert direct == cauchy_product(factor, factor)


# -- rational function expansion ----------------------------------------------------------


def test_geometric_series_in_z_squared():
    form = parse_rational("1/(1-z^2)", 8)
    assert expand_rational(form, 8) == (1, 0, 1, 0, 1, 0, 1, 0, 1)


def test_loop_series_of_s3s3_closed_form():
    form = parse_rational("(1+z^3)^2/(1-z^2)^2", 8)
    assert expand_rational(form, 8) == (1, 0, 2, 2, 3, 4, 5, 6, 7)


def test_constant_expansion():
    assert expand_rational(parse_rational("1", 5), 5) == (1, 0, 0, 0, 0, 0)


def test_pole_at_zero_rejected():
    with pytest.raises(PoleAtZero):
        parse_rational("1/z", 4)
    with pytest.raises(PoleAtZero):
        expand_rational(RationalFunctionForm((1,), (0, 1)), 4)


def test_non_integral_expansion_rejected():
    with pytest.raises(RationalFormError):
        expand_rational(parse_rational("1/(2-z)", 4), 4)


def test_grammar_errors():
    with pytest.raises(RationalFormError):
        parse_rational("1/(1-z)/2", 4)
    for text in ("/z", "1+/z", "(/z)", "(1/2)+z"):  # one message for every misplaced '/'
        with pytest.raises(RationalFormError) as info:
            parse_rational(text, 4)
        assert str(info.value) == "'/' is only allowed once, at the top level, after a numerator"
    with pytest.raises(RationalFormError):
        parse_rational("q+1", 4)
    with pytest.raises(RationalFormError):
        parse_rational("1+", 4)


@settings(max_examples=300)
@given(st.text(alphabet="z0123+-*^()/ qx$", max_size=60), st.integers(0, 8))
def test_rational_parser_never_crashes_with_foreign_errors(text, max_degree):
    # arbitrary junk either expands or fails with a rational-function error
    try:
        expand_rational(parse_rational(text, max_degree), max_degree)
    except (RationalFormError, PoleAtZero):
        pass


def _poly_text(coefficients):
    return "+".join(f"({c})*z^{k}" if c < 0 else f"{c}*z^{k}" for k, c in enumerate(coefficients))


def _expansion_or_error(text, max_degree, top):
    try:
        return expand_rational(parse_rational(text, top), max_degree)
    except (PoleAtZero, RationalFormError) as exc:
        return type(exc)


@settings(max_examples=120)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=4), st.integers(0, 6),
       st.lists(st.integers(-3, 3), min_size=1, max_size=4), st.integers(0, 6), st.integers(0, 8))
def test_truncated_parse_expands_like_the_full_parse(num, e, den, f, max_degree):
    text = f"({_poly_text(num)})^{e}/({_poly_text(den)})^{f}"
    full = _expansion_or_error(text, max_degree, 40)  # above every degree the text reaches
    truncated = _expansion_or_error(text, max_degree, max_degree)
    # a zero denominator may read as a pole once its terms are dropped
    assert truncated == full or (full, truncated) == (RationalFormError, PoleAtZero)


def test_truncated_parse_drops_terms_above_the_degree():
    assert parse_rational("(1+z)^100000/(1-z)^100000000", 2) == RationalFunctionForm(
        (1, 100000, 4999950000), (1, -100000000, 4999999950000000))
    assert parse_rational("z^100000000+1", 3) == RationalFunctionForm((1,), (1,))
    with pytest.raises(RationalFormError, match="identically zero"):
        parse_rational("1/(z-z)", 3)
    with pytest.raises(PoleAtZero):
        parse_rational("1/(z^5-z^5)", 3)  # its dropped terms may or may not cancel


def test_coefficients_past_the_digit_limit_are_rejected():
    for text in ("(2+z)^100000000", f"{'1' * (DIGIT_LIMIT + 1)}", f"z^{'1' * (DIGIT_LIMIT + 1)}",
                 f"(10^{DIGIT_LIMIT // 2}*z)^2"):
        with pytest.raises(RationalFormError, match=f"more than {DIGIT_LIMIT} digits"):
            parse_rational(text, 4)
    first = -(-DIGIT_LIMIT // 4)  # the coefficient of z^k is 10^(4k)
    with pytest.raises(RationalFormError, match=f"z\\^{first} has more than {DIGIT_LIMIT} digits"):
        expand_rational(parse_rational("1/(1-10000*z)", first + 1), first + 1)
    below = expand_rational(parse_rational("1/(1-10000*z)", first - 1), first - 1)
    assert below[first - 1] == 10 ** (4 * first - 4)


# -- property: expansion is multiplicative ---------------------------------------------------


small_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=4).map(tuple)
unit_constant_polys = st.tuples(
    st.sampled_from([1, -1]), st.lists(st.integers(-4, 4), min_size=0, max_size=3)
).map(lambda t: (t[0],) + tuple(t[1]))


@settings(max_examples=120)
@given(small_polys, unit_constant_polys, small_polys, unit_constant_polys)
def test_expansion_of_products_is_product_of_expansions(na, da, nb, db):
    fa = RationalFunctionForm(na, da)
    fb = RationalFunctionForm(nb, db)
    pad = (0,) * 10  # every product has degree at most 6, so no term is cut
    combined = RationalFunctionForm(cauchy_product(na + pad, nb + pad), cauchy_product(da + pad, db + pad))
    lhs = expand_rational(combined, 10)
    rhs = cauchy_product(expand_rational(fa, 10), expand_rational(fb, 10))
    assert lhs == rhs
